//! Service-lifetime accounting and the conservation law the smoke tests
//! assert: every received request is accepted or rejected, and every
//! accepted request is answered exactly once — completed, deadline-missed,
//! or shed. Nothing is silently dropped.

use pim_host::{CacheStats, FaultReport};
use std::fmt::Write as _;

/// What the durability layer (cache WAL + request journal) did this
/// lifetime — zeroed and `enabled: false` when serving without a state
/// directory.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityReport {
    /// True when a persistent cache store and/or request journal was
    /// attached.
    pub enabled: bool,
    /// Unanswered tickets replayed into the admission queue at startup.
    pub recovered_requests: usize,
    /// Recovered tickets whose deadline expired during the downtime,
    /// reaped straight into `deadline_missed`.
    pub recovered_expired: usize,
    /// Older same-id admissions collapsed by replay idempotency.
    pub recovered_duplicates: usize,
    /// Cache entries re-admitted through the audit gate at startup.
    pub cache_recovered: usize,
    /// Decoded cache entries the audit gate refused (corrupt on disk).
    pub cache_recovery_rejected: usize,
    /// Unreadable records skipped across both files (checksum mismatch,
    /// undecodable payload) plus torn-tail truncations as byte counts.
    pub corrupt_records_skipped: usize,
    /// Bytes truncated off torn tails across cache WAL and journal.
    pub torn_tail_bytes: usize,
    /// Log files (cache WAL, journal) whose header was missing or foreign
    /// and which were started fresh.
    pub header_resets: usize,
    /// Cache WAL records appended this lifetime.
    pub wal_appends: u64,
    /// Cache-WAL compactions this lifetime.
    pub wal_compactions: u64,
    /// Request-journal records appended this lifetime.
    pub journal_appends: u64,
    /// Durability I/O errors swallowed (persistence degrades, serving
    /// never stops).
    pub io_errors: u64,
}

/// Schema version stamped into every JSON document this workspace's tools
/// emit (`ServiceReport::to_json` and the `BENCH_*.json` bench emitters).
/// Bump on any incompatible shape change so downstream parsers can refuse
/// early instead of misreading.
pub const SCHEMA_VERSION: u32 = 1;

/// Relative error bound of [`LatencyRecorder`] percentiles, for latencies
/// in its range (1 µs to over a day).
pub const LATENCY_RELATIVE_ERROR: f64 = 0.01;

/// Bucket `i` covers `(MIN_MS · γ^(i-1), MIN_MS · γ^i]` with
/// `γ = (1 + α) / (1 − α)`, `α` = [`LATENCY_RELATIVE_ERROR`].
const GAMMA: f64 = (1.0 + LATENCY_RELATIVE_ERROR) / (1.0 - LATENCY_RELATIVE_ERROR);
/// The lowest bucket's upper edge; smaller latencies count into it.
const MIN_MS: f64 = 1e-3;
/// `MIN_MS · γ^1279` ≈ 1.3e8 ms (35 h); larger latencies count into the
/// top bucket.
const BUCKETS: usize = 1280;

/// Latency percentile recorder of fixed size: a log-bucketed histogram
/// (the DDSketch layout). A percentile is the nearest-rank sample's bucket,
/// reported as the point whose relative distance to both bucket edges is
/// [`LATENCY_RELATIVE_ERROR`], so it is within that relative error of the
/// exact nearest-rank sample. The smallest and largest samples, the count
/// and the sum are kept exactly, so the first and last ranks and the mean
/// are exact.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    counts: Box<[u64; BUCKETS]>,
    len: u64,
    sum_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            counts: Box::new([0; BUCKETS]),
            len: 0,
            sum_ms: 0.0,
            min_ms: f64::INFINITY,
            max_ms: f64::NEG_INFINITY,
        }
    }
}

impl LatencyRecorder {
    /// Record one completed request's latency, in milliseconds.
    pub fn push(&mut self, ms: f64) {
        let i = (ms / MIN_MS).ln() / GAMMA.ln();
        // `as` saturates: NaN and sub-`MIN_MS` latencies land in bucket 0.
        let i = (i.ceil() as usize).min(BUCKETS - 1);
        self.counts[i] += 1;
        self.len += 1;
        self.sum_ms += ms;
        self.min_ms = self.min_ms.min(ms);
        self.max_ms = self.max_ms.max(ms);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Nearest-rank percentile (`p` in 0..=100), within
    /// [`LATENCY_RELATIVE_ERROR`]; 0.0 with no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.len as f64).ceil().max(1.0) as u64;
        if rank == 1 {
            return self.min_ms;
        }
        if rank >= self.len {
            return self.max_ms;
        }
        let mut seen = 0;
        let i = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .unwrap_or(BUCKETS - 1);
        let mid = MIN_MS * GAMMA.powi(i as i32) * 2.0 / (GAMMA + 1.0);
        mid.clamp(self.min_ms, self.max_ms)
    }

    /// Mean latency; 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.sum_ms / self.len as f64
    }
}

/// Everything one service lifetime did, emitted on exit.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Well-formed align requests received (including later-rejected ones).
    pub received: usize,
    /// Lines that failed to parse (answered with a `type=error` line).
    pub invalid: usize,
    /// Requests admitted to the queue.
    pub accepted: usize,
    /// Requests refused at admission (queue full, too large, draining).
    pub rejected: usize,
    /// Admitted requests displaced by higher-priority arrivals.
    pub shed: usize,
    /// Accepted requests answered in full.
    pub completed: usize,
    /// Accepted requests reaped at their deadline (queued or in flight).
    pub deadline_missed: usize,
    /// Pairs across accepted requests.
    pub pairs_accepted: usize,
    /// Pairs across completed requests.
    pub pairs_completed: usize,
    /// Job slots answered `cancelled` on deadline-missed requests.
    pub jobs_cancelled: usize,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: usize,
    /// Pairs answered from the result cache (hits + in-request duplicates).
    pub pairs_from_cache: usize,
    /// Fraction of service wall time the engine had work in flight.
    pub pim_utilization: f64,
    /// Lifetime result-cache counters (the cache persists across tickets).
    pub cache: CacheStats,
    /// Results resident in the cache at exit.
    pub cache_resident: usize,
    /// Cache capacity (0 = caching disabled).
    pub cache_capacity: usize,
    /// Everything the recovery ladder did, summed over all tickets.
    pub fault: FaultReport,
    /// p50 latency over completed requests, milliseconds.
    pub latency_p50_ms: f64,
    /// p99 latency over completed requests, milliseconds.
    pub latency_p99_ms: f64,
    /// Mean latency over completed requests, milliseconds.
    pub latency_mean_ms: f64,
    /// Service wall time, seconds.
    pub wall_seconds: f64,
    /// True when the service exited through the graceful drain path.
    pub drained: bool,
    /// Crash-safety accounting (cache WAL + request journal).
    pub durability: DurabilityReport,
}

impl ServiceReport {
    /// The conservation law: `accepted == completed + deadline_missed +
    /// shed` and `received == accepted + rejected`. Every request gets
    /// exactly one terminal answer.
    pub fn consistent(&self) -> bool {
        self.accepted == self.completed + self.deadline_missed + self.shed
            && self.received == self.accepted + self.rejected
    }

    /// Completed pairs per second of service wall time.
    pub fn pairs_per_second(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            return 0.0;
        }
        self.pairs_completed as f64 / self.wall_seconds
    }

    /// The report as a single JSON object (`schema_version` =
    /// [`SCHEMA_VERSION`]).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"report\": \"serve\",\n  \
             \"received\": {},\n  \"invalid\": {},\n  \"accepted\": {},\n  \
             \"rejected\": {},\n  \"shed\": {},\n  \"completed\": {},\n  \
             \"deadline_missed\": {},\n  \"pairs_accepted\": {},\n  \
             \"pairs_completed\": {},\n  \"jobs_cancelled\": {},\n  \
             \"max_queue_depth\": {},\n  \"pairs_from_cache\": {},\n  \
             \"pim_utilization\": {:.4},\n  \"latency_p50_ms\": {:.3},\n  \
             \"latency_p99_ms\": {:.3},\n  \"latency_mean_ms\": {:.3},\n  \
             \"wall_seconds\": {:.3},\n  \"pairs_per_sec\": {:.3},\n  \
             \"drained\": {},\n  \"consistent\": {},\n",
            self.received,
            self.invalid,
            self.accepted,
            self.rejected,
            self.shed,
            self.completed,
            self.deadline_missed,
            self.pairs_accepted,
            self.pairs_completed,
            self.jobs_cancelled,
            self.max_queue_depth,
            self.pairs_from_cache,
            self.pim_utilization,
            self.latency_p50_ms,
            self.latency_p99_ms,
            self.latency_mean_ms,
            self.wall_seconds,
            self.pairs_per_second(),
            self.drained,
            self.consistent(),
        );
        let c = &self.cache;
        let _ = writeln!(
            s,
            "  \"cache\": {{\"resident\": {}, \"capacity\": {}, \"lookups\": {}, \
             \"hits\": {}, \"misses\": {}, \"inserts\": {}, \"evictions\": {}, \
             \"rejected_inserts\": {}, \"hit_rate\": {:.4}, \"conserved\": {}}},",
            self.cache_resident,
            self.cache_capacity,
            c.lookups,
            c.hits,
            c.misses,
            c.inserts,
            c.evictions,
            c.rejected_inserts,
            c.hit_rate(),
            c.conserved(),
        );
        let d = &self.durability;
        let _ = writeln!(
            s,
            "  \"durability\": {{\"enabled\": {}, \"recovered_requests\": {}, \
             \"recovered_expired\": {}, \"recovered_duplicates\": {}, \
             \"cache_recovered\": {}, \"cache_recovery_rejected\": {}, \
             \"corrupt_records_skipped\": {}, \"torn_tail_bytes\": {}, \
             \"header_resets\": {}, \"wal_appends\": {}, \"wal_compactions\": {}, \
             \"journal_appends\": {}, \"io_errors\": {}}},",
            d.enabled,
            d.recovered_requests,
            d.recovered_expired,
            d.recovered_duplicates,
            d.cache_recovered,
            d.cache_recovery_rejected,
            d.corrupt_records_skipped,
            d.torn_tail_bytes,
            d.header_resets,
            d.wal_appends,
            d.wal_compactions,
            d.journal_appends,
            d.io_errors,
        );
        let f = &self.fault;
        let _ = write!(
            s,
            "  \"fault\": {{\"dpu_faults\": {}, \"rank_failures\": {}, \
             \"corrupt_results\": {}, \"retried_jobs\": {}, \"quarantined\": {}, \
             \"dead_ranks\": {}, \"cpu_fallbacks\": {}, \"wasted_cycles\": {}, \
             \"watchdog_expired\": {}, \"silent_corruptions\": {}, \
             \"audit_checked\": {}, \"audit_failures\": {}, \
             \"deadline_cancellations\": {}, \
             \"interrupted_jobs\": {}}}\n}}",
            f.dpu_faults,
            f.rank_failures,
            f.corrupt_results,
            f.retried_jobs,
            f.quarantined.len(),
            f.dead_ranks.len(),
            f.cpu_fallbacks,
            f.wasted_cycles,
            f.watchdog_expired,
            f.silent_corruptions,
            f.audit_checked,
            f.audit_failures,
            f.deadline_cancellations,
            f.interrupted_jobs,
        );
        s
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "serve: {} received, {} accepted ({} rejected, {} shed), \
             {} completed, {} deadline-missed in {:.1}s \
             [p50 {:.1}ms, p99 {:.1}ms, {:.1} pairs/s], queue peak {}{}",
            self.received,
            self.accepted,
            self.rejected,
            self.shed,
            self.completed,
            self.deadline_missed,
            self.wall_seconds,
            self.latency_p50_ms,
            self.latency_p99_ms,
            self.pairs_per_second(),
            self.max_queue_depth,
            if self.drained {
                ", drained cleanly"
            } else {
                ""
            },
        );
        if self.cache.lookups > 0 {
            let _ = write!(
                s,
                ", cache {}/{} hits ({:.0}%)",
                self.cache.hits,
                self.cache.lookups,
                100.0 * self.cache.hit_rate(),
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// Within the bound of `exact`, with slack for the float rounding of
    /// a sample that sits on a bucket edge.
    fn near(got: f64, exact: f64) -> bool {
        (got - exact).abs() <= (LATENCY_RELATIVE_ERROR + 1e-9) * exact
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut l = LatencyRecorder::default();
        assert_eq!(l.percentile(50.0), 0.0);
        assert_eq!(l.mean(), 0.0);
        for ms in [10.0, 20.0, 30.0, 40.0] {
            l.push(ms);
        }
        assert_eq!(l.len(), 4);
        assert!(near(l.percentile(50.0), 20.0), "{}", l.percentile(50.0));
        // The extremes are kept exactly.
        assert_eq!(l.percentile(99.0), 40.0);
        assert_eq!(l.percentile(0.0), 10.0);
        assert!((l.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn latency_recorder_is_bounded_and_within_its_error() {
        let mut l = LatencyRecorder::default();
        // A seeded log-uniform sample over 0.01 ms .. 10 s.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut sample = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            0.01 * 1e6f64.powf((state >> 11) as f64 / (1u64 << 53) as f64)
        };
        let mut exact = Vec::new();
        for _ in 0..10 {
            let ms = sample();
            exact.push(ms);
            l.push(ms);
        }
        let size = std::mem::size_of_val(&l) + std::mem::size_of_val(&*l.counts);
        for n in 10..1_000_000 {
            let ms = sample();
            if n < 20_000 {
                exact.push(ms);
            }
            l.push(ms);
            if n == 19_999 {
                exact.sort_by(f64::total_cmp);
                for p in [50.0, 99.0] {
                    let rank = ((p / 100.0) * exact.len() as f64).ceil() as usize;
                    let want = exact[rank - 1];
                    let got = l.percentile(p);
                    assert!(near(got, want), "p{p}: {got} vs exact {want}");
                }
            }
        }
        assert_eq!(l.len(), 1_000_000);
        assert_eq!(
            std::mem::size_of_val(&l) + std::mem::size_of_val(&*l.counts),
            size
        );
    }

    #[test]
    fn conservation_law() {
        let mut r = ServiceReport {
            received: 10,
            accepted: 8,
            rejected: 2,
            completed: 5,
            deadline_missed: 2,
            shed: 1,
            ..Default::default()
        };
        assert!(r.consistent());
        r.completed = 6; // an answer duplicated or a shed lost
        assert!(!r.consistent());
    }

    #[test]
    fn json_report_parses_and_carries_schema_version() {
        let mut r = ServiceReport {
            received: 3,
            accepted: 3,
            completed: 3,
            pairs_completed: 12,
            wall_seconds: 2.0,
            drained: true,
            ..Default::default()
        };
        r.fault.cpu_fallbacks = 1;
        r.pairs_from_cache = 4;
        r.durability.enabled = true;
        r.durability.recovered_requests = 2;
        r.durability.header_resets = 1;
        r.cache_resident = 8;
        r.cache_capacity = 64;
        r.cache = CacheStats {
            lookups: 12,
            hits: 4,
            misses: 8,
            inserts: 8,
            evictions: 0,
            rejected_inserts: 0,
        };
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("pairs_from_cache").unwrap().as_u64(), Some(4));
        let c = v.get("cache").unwrap();
        assert_eq!(c.get("hits").unwrap().as_u64(), Some(4));
        assert_eq!(c.get("conserved").unwrap().as_bool(), Some(true));
        assert_eq!(c.get("resident").unwrap().as_u64(), Some(8));
        assert_eq!(c.get("capacity").unwrap().as_u64(), Some(64));
        assert!(r.summary().contains("cache 4/12 hits"));
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(3));
        let d = v.get("durability").unwrap();
        assert_eq!(d.get("enabled").unwrap().as_bool(), Some(true));
        assert_eq!(d.get("recovered_requests").unwrap().as_u64(), Some(2));
        assert_eq!(d.get("header_resets").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("consistent").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("pairs_per_sec").unwrap().as_f64(), Some(6.0));
        assert_eq!(
            v.get("fault")
                .unwrap()
                .get("cpu_fallbacks")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert!(r.summary().contains("3 completed"));
    }
}
