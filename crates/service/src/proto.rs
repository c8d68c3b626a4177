//! The NDJSON wire protocol the daemon speaks over its unix socket.
//!
//! One JSON object per line in each direction. Client lines:
//!
//! ```json
//! {"op":"align","id":"r1","priority":"interactive","deadline_ms":500,
//!  "pairs":[["ACGT","ACGA"],["GGGC","GGC"]]}
//! {"op":"stats"}
//! {"op":"drain"}
//! ```
//!
//! `op` defaults to `"align"`, `priority` to `"normal"`, and `deadline_ms`
//! to the daemon's default deadline (none unless configured). Daemon lines
//! (`type` discriminates):
//!
//! * `result` — terminal answer for an accepted request: `disposition`
//!   is `"ok"` or `"deadline-missed"`, `results` carries one entry per
//!   pair in input order (`status`, plus `score` and `cigar` when `ok`).
//! * `reject` — the request was not admitted (`reason`: `queue-full`,
//!   `too-large`, `draining`), with a `retry_after_ms` hint when retrying
//!   could help.
//! * `shed` — the request was admitted earlier but displaced by a
//!   higher-priority arrival under overload; it carries `retry_after_ms`.
//! * `error` — the line could not be parsed.
//! * `draining` — a drain request was acknowledged.
//! * `stats` — a live snapshot (queue depth, cache hit rate, per-backend
//!   pair counts) answered inline without draining or blocking service.
//!
//! Every accepted request gets exactly one terminal `result` or `shed`
//! line — the conservation law [`crate::report::ServiceReport::consistent`]
//! checks.

use crate::json::{escape, Json};
use dpu_kernel::layout::{JobResult, JobStatus};
use nw_core::seq::DnaSeq;
use pim_host::CacheStats;
use std::fmt::Write as _;

/// Longest accepted request id; bounds response sizes.
pub const MAX_ID_LEN: usize = 128;

/// Admission priority classes, highest first. Shedding removes the
/// youngest request of the lowest populated class that is strictly lower
/// than the arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Latency-sensitive foreground work; never shed.
    Interactive,
    /// The default class.
    Normal,
    /// Throughput work that tolerates displacement under overload.
    Batch,
}

impl Priority {
    /// Number of classes.
    pub const COUNT: usize = 3;

    /// Class index, 0 = highest priority.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// One parsed alignment request.
#[derive(Debug, Clone)]
pub struct AlignRequest {
    /// Client-chosen id, echoed on every response for this request.
    pub id: String,
    /// Admission class.
    pub priority: Priority,
    /// Wall-clock deadline relative to arrival, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The pairs to align, in response order.
    pub pairs: Vec<(DnaSeq, DnaSeq)>,
}

/// One parsed client line.
#[derive(Debug)]
pub enum ClientLine {
    /// An alignment request.
    Align(AlignRequest),
    /// A live telemetry snapshot; answered inline, never queued.
    Stats,
    /// Begin a graceful drain: stop admitting, finish everything accepted,
    /// then exit.
    Drain,
}

/// Parse one client line.
pub fn parse_line(line: &str) -> Result<ClientLine, String> {
    let v = Json::parse(line)?;
    match v.get("op").and_then(Json::as_str) {
        Some("drain") => return Ok(ClientLine::Drain),
        Some("stats") => return Ok(ClientLine::Stats),
        Some("align") | None => {}
        Some(op) => return Err(format!("unknown op {op:?}")),
    }
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing string field \"id\"".to_string())?
        .to_string();
    if id.len() > MAX_ID_LEN {
        return Err(format!("id longer than {MAX_ID_LEN} bytes"));
    }
    let priority = match v.get("priority") {
        None => Priority::Normal,
        Some(p) => p.as_str().and_then(Priority::parse).ok_or_else(|| {
            "priority must be \"interactive\", \"normal\" or \"batch\"".to_string()
        })?,
    };
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(d) => Some(
            d.as_u64()
                .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string())?,
        ),
    };
    let raw = v
        .get("pairs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing array field \"pairs\"".to_string())?;
    let mut pairs = Vec::with_capacity(raw.len());
    for (k, entry) in raw.iter().enumerate() {
        let pair = entry
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("pairs[{k}] must be a [query, target] pair"))?;
        let a = pair[0]
            .as_str()
            .ok_or_else(|| format!("pairs[{k}] query must be a string"))?;
        let b = pair[1]
            .as_str()
            .ok_or_else(|| format!("pairs[{k}] target must be a string"))?;
        let a = DnaSeq::from_ascii(a.as_bytes()).map_err(|e| format!("pairs[{k}] query: {e}"))?;
        let b = DnaSeq::from_ascii(b.as_bytes()).map_err(|e| format!("pairs[{k}] target: {e}"))?;
        pairs.push((a, b));
    }
    Ok(ClientLine::Align(AlignRequest {
        id,
        priority,
        deadline_ms,
        pairs,
    }))
}

/// Wire name of a job status.
pub fn status_str(s: JobStatus) -> &'static str {
    match s {
        JobStatus::Ok => "ok",
        JobStatus::OutOfBand => "out-of-band",
        JobStatus::CigarOverflow => "cigar-overflow",
        JobStatus::Cancelled => "cancelled",
    }
}

/// Build a `reject` response line.
pub fn reject_line(id: &str, reason: &str, retry_after_ms: Option<u64>) -> String {
    let mut s = format!(
        "{{\"type\":\"reject\",\"id\":\"{}\",\"reason\":\"{}\"",
        escape(id),
        escape(reason)
    );
    if let Some(ms) = retry_after_ms {
        let _ = write!(s, ",\"retry_after_ms\":{ms}");
    }
    s.push('}');
    s
}

/// Build a `shed` response line (sent to a displaced request).
pub fn shed_line(id: &str, retry_after_ms: u64) -> String {
    format!(
        "{{\"type\":\"shed\",\"id\":\"{}\",\"retry_after_ms\":{retry_after_ms}}}",
        escape(id)
    )
}

/// Build an `error` response line (unparseable input).
pub fn error_line(msg: &str) -> String {
    format!("{{\"type\":\"error\",\"error\":\"{}\"}}", escape(msg))
}

/// Build the `draining` acknowledgement line.
pub fn drain_ack_line() -> String {
    "{\"type\":\"draining\"}".to_string()
}

/// A live point-in-time view of the daemon, answered to `{"op":"stats"}`
/// without draining or blocking service.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// True once a drain began (new requests are rejected).
    pub draining: bool,
    /// Requests waiting in the admission queue.
    pub queue_depth: usize,
    /// Pairs across queued requests.
    pub queued_pairs: usize,
    /// Requests dispatched into the engine and not yet answered.
    pub active_tickets: usize,
    /// Well-formed align requests received so far.
    pub received: usize,
    /// Requests answered in full so far.
    pub completed: usize,
    /// Pairs across completed requests.
    pub pairs_completed: usize,
    /// Pairs answered from the result cache (hits + in-request duplicates).
    pub pairs_from_cache: usize,
    /// Jobs the recovery ladder completed on the CPU fallback aligner.
    pub cpu_fallback_jobs: usize,
    /// Fraction of service wall time the engine had work in flight.
    pub pim_utilization: f64,
    /// EWMA of completed-request latency, milliseconds.
    pub ewma_service_ms: f64,
    /// Results currently resident in the cache.
    pub cache_resident: usize,
    /// Cache capacity (0 = caching disabled).
    pub cache_capacity: usize,
    /// Lifetime cache counters.
    pub cache: CacheStats,
    /// Crash-recovered tickets replayed into the queue at startup (0
    /// when serving without a state directory).
    pub recovered_requests: usize,
}

/// Build a `stats` response line.
pub fn stats_line(s: &StatsSnapshot) -> String {
    let c = &s.cache;
    let pim_pairs = s
        .pairs_completed
        .saturating_sub(s.pairs_from_cache)
        .saturating_sub(s.cpu_fallback_jobs);
    format!(
        "{{\"type\":\"stats\",\"draining\":{},\"queue_depth\":{},\"queued_pairs\":{},\
         \"active_tickets\":{},\"received\":{},\"completed\":{},\"pairs_completed\":{},\
         \"recovered_requests\":{},\
         \"ewma_service_ms\":{:.3},\
         \"cache\":{{\"resident\":{},\"capacity\":{},\"lookups\":{},\"hits\":{},\"misses\":{},\
         \"inserts\":{},\"evictions\":{},\"rejected_inserts\":{},\"hit_rate\":{:.4}}},\
         \"backends\":[{{\"name\":\"pim\",\"pairs\":{pim_pairs},\"utilization\":{:.4}}},\
         {{\"name\":\"cpu-fallback\",\"pairs\":{}}},\
         {{\"name\":\"cache\",\"pairs\":{}}}]}}",
        s.draining,
        s.queue_depth,
        s.queued_pairs,
        s.active_tickets,
        s.received,
        s.completed,
        s.pairs_completed,
        s.recovered_requests,
        s.ewma_service_ms,
        s.cache_resident,
        s.cache_capacity,
        c.lookups,
        c.hits,
        c.misses,
        c.inserts,
        c.evictions,
        c.rejected_inserts,
        c.hit_rate(),
        s.pim_utilization,
        s.cpu_fallback_jobs,
        s.pairs_from_cache,
    )
}

/// Build a terminal `result` response line. `deadline_missed` selects the
/// disposition; abandoned jobs appear with status `cancelled`.
pub fn result_line(
    id: &str,
    deadline_missed: bool,
    results: &[JobResult],
    latency_ms: f64,
) -> String {
    let mut s = format!(
        "{{\"type\":\"result\",\"id\":\"{}\",\"disposition\":\"{}\",\"latency_ms\":{:.3},\"results\":[",
        escape(id),
        if deadline_missed { "deadline-missed" } else { "ok" },
        latency_ms,
    );
    for (k, r) in results.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        match r.status {
            JobStatus::Ok => {
                let _ = write!(
                    s,
                    "{{\"status\":\"ok\",\"score\":{},\"cigar\":\"{}\"}}",
                    r.score, r.cigar
                );
            }
            st => {
                let _ = write!(s, "{{\"status\":\"{}\"}}", status_str(st));
            }
        }
    }
    s.push_str("]}");
    s
}

/// Build an `align` request line (the client half of the protocol).
pub fn align_line(
    id: &str,
    priority: Priority,
    deadline_ms: Option<u64>,
    pairs: &[(String, String)],
) -> String {
    let mut s = format!(
        "{{\"op\":\"align\",\"id\":\"{}\",\"priority\":\"{}\"",
        escape(id),
        priority.as_str()
    );
    if let Some(ms) = deadline_ms {
        let _ = write!(s, ",\"deadline_ms\":{ms}");
    }
    s.push_str(",\"pairs\":[");
    for (k, (a, b)) in pairs.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(s, "[\"{}\",\"{}\"]", escape(a), escape(b));
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::cigar::Cigar;

    #[test]
    fn align_line_round_trips() {
        let line = align_line(
            "req-1",
            Priority::Interactive,
            Some(250),
            &[("ACGT".into(), "ACGA".into()), ("GG".into(), "GGC".into())],
        );
        let ClientLine::Align(req) = parse_line(&line).unwrap() else {
            panic!("expected align");
        };
        assert_eq!(req.id, "req-1");
        assert_eq!(req.priority, Priority::Interactive);
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.pairs.len(), 2);
        assert_eq!(req.pairs[0].0.to_ascii(), b"ACGT");
        assert_eq!(req.pairs[1].1.to_ascii(), b"GGC");
    }

    #[test]
    fn defaults_and_drain() {
        let ClientLine::Align(req) = parse_line(r#"{"id":"x","pairs":[]}"#).unwrap() else {
            panic!("expected align");
        };
        assert_eq!(req.priority, Priority::Normal);
        assert_eq!(req.deadline_ms, None);
        assert!(req.pairs.is_empty());
        assert!(matches!(
            parse_line(r#"{"op":"drain"}"#).unwrap(),
            ClientLine::Drain
        ));
        assert!(matches!(
            parse_line(r#"{"op":"stats"}"#).unwrap(),
            ClientLine::Stats
        ));
    }

    #[test]
    fn stats_line_is_valid_json_and_splits_backends() {
        use crate::json::Json;
        let snap = StatsSnapshot {
            queue_depth: 2,
            queued_pairs: 9,
            active_tickets: 1,
            received: 20,
            completed: 15,
            pairs_completed: 100,
            pairs_from_cache: 40,
            cpu_fallback_jobs: 5,
            pim_utilization: 0.5,
            ewma_service_ms: 12.0,
            cache_resident: 30,
            cache_capacity: 64,
            cache: CacheStats {
                lookups: 100,
                hits: 40,
                misses: 60,
                inserts: 55,
                evictions: 10,
                rejected_inserts: 5,
            },
            ..StatsSnapshot::default()
        };
        let v = Json::parse(&stats_line(&snap)).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("stats"));
        assert_eq!(v.get("queue_depth").unwrap().as_u64(), Some(2));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(40));
        assert_eq!(cache.get("hit_rate").unwrap().as_f64(), Some(0.4));
        assert_eq!(cache.get("resident").unwrap().as_u64(), Some(30));
        assert_eq!(cache.get("capacity").unwrap().as_u64(), Some(64));
        let backends = v.get("backends").unwrap().as_arr().unwrap();
        assert_eq!(backends.len(), 3);
        // pim pairs = completed - cached - cpu-fallback.
        assert_eq!(backends[0].get("name").unwrap().as_str(), Some("pim"));
        assert_eq!(backends[0].get("pairs").unwrap().as_u64(), Some(55));
        assert_eq!(backends[1].get("pairs").unwrap().as_u64(), Some(5));
        assert_eq!(backends[2].get("pairs").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            r#"{"pairs":[]}"#,
            r#"{"id":"x"}"#,
            r#"{"id":"x","pairs":[["AC"]]}"#,
            r#"{"id":"x","pairs":[["AC",7]]}"#,
            r#"{"id":"x","pairs":[["AXC","A"]]}"#,
            r#"{"id":"x","priority":"urgent","pairs":[]}"#,
            r#"{"id":"x","deadline_ms":-5,"pairs":[]}"#,
            r#"{"op":"reboot"}"#,
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should fail");
        }
        let long = format!(r#"{{"id":"{}","pairs":[]}}"#, "i".repeat(MAX_ID_LEN + 1));
        assert!(parse_line(&long).is_err());
    }

    #[test]
    fn response_lines_are_valid_json() {
        use crate::json::Json;
        let ok = JobResult {
            status: JobStatus::Ok,
            score: -17,
            cigar: Cigar::new(),
        };
        let cancelled = JobResult {
            status: JobStatus::Cancelled,
            score: 0,
            cigar: Cigar::new(),
        };
        let line = result_line("a\"b", true, &[ok, cancelled], 12.5);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_str(), Some("a\"b"));
        assert_eq!(
            v.get("disposition").unwrap().as_str(),
            Some("deadline-missed")
        );
        let rs = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(rs[0].get("score").unwrap().as_f64(), Some(-17.0));
        assert_eq!(rs[1].get("status").unwrap().as_str(), Some("cancelled"));

        for line in [
            reject_line("x", "queue-full", Some(40)),
            reject_line("x", "draining", None),
            shed_line("x", 75),
            error_line("bad \"line\""),
            drain_ack_line(),
        ] {
            Json::parse(&line).unwrap();
        }
        let v = Json::parse(&reject_line("x", "queue-full", Some(40))).unwrap();
        assert_eq!(v.get("retry_after_ms").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn priority_order_and_names() {
        assert!(Priority::Interactive < Priority::Normal);
        assert!(Priority::Normal < Priority::Batch);
        for p in [Priority::Interactive, Priority::Normal, Priority::Batch] {
            assert_eq!(Priority::parse(p.as_str()), Some(p));
            assert!(p.index() < Priority::COUNT);
        }
        assert_eq!(Priority::parse("bogus"), None);
    }
}
