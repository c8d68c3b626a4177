//! Cost-model router: each batch goes to whichever backend clears it
//! soonest.
//!
//! The static split in [`crate::hetero`] decides the whole partition up
//! front from hand-fed throughput estimates. The router instead makes a
//! *live* decision per batch: predicted completion on backend *b* is
//!
//! ```text
//! eta(b) = (queued_units(b) + batch_units) / measured_rate(b)
//! ```
//!
//! where `measured_rate` is the backend's EWMA over completed batches
//! ([`crate::backend::ThroughputEwma`]) and `queued_units` is the work
//! already assigned but not yet finished. The batch is offered to the
//! backend with the smallest eta over a *bounded* (depth-1) channel: a
//! backend whose estimate is optimistic fills up after at most two batches
//! and the next batch spills to the runner-up, so a bad seed costs a
//! bounded detour rather than a starved run. Per-workload CPU-vs-PiM
//! crossover is real and input-dependent (PAPERS.md, the PIM framework
//! paper), which is why the rates are measured, not configured.
//!
//! In front of routing sits the content-addressed [`ResultCache`]: hits
//! are served before any batch is formed; computed results are inserted
//! behind the audit gate after the workers join. Both cache passes run on
//! the driver thread — the cache needs no locking.

use crate::backend::{batch_units, Backend, BackendBatch};
use crate::cache::{CacheStats, ResultCache};
use crate::recovery::FaultReport;
use crate::report::ExecutionReport;
use dpu_kernel::layout::JobResult;
use nw_core::seq::DnaSeq;
use nw_core::ScoringScheme;
use pim_sim::SimError;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// Router knobs. `band`/`scheme`/`score_only` must match what the
/// backends actually run — they define both the eq.-6 unit and the cache
/// key.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Pairs per routed batch (the routing granularity).
    pub batch_size: usize,
    /// Band width used for workload units and cache keys.
    pub band: usize,
    /// Scoring scheme (cache key component).
    pub scheme: ScoringScheme,
    /// Score-only mode (cache key component).
    pub score_only: bool,
}

impl RouterConfig {
    /// Defaults: batches of 16 pairs.
    pub fn new(band: usize, scheme: ScoringScheme, score_only: bool) -> Self {
        RouterConfig {
            batch_size: 16,
            band,
            scheme,
            score_only,
        }
    }
}

/// Per-backend telemetry accumulated by the router.
#[derive(Debug, Clone, Default)]
pub struct LaneReport {
    /// Backend name ("pim", "cpu").
    pub name: String,
    /// Batches routed to this backend.
    pub batches: u64,
    /// Pairs routed to this backend.
    pub pairs: u64,
    /// eq.-6 units routed to this backend.
    pub units: f64,
    /// Summed measured batch seconds (busy time).
    pub busy_seconds: f64,
    /// Final measured rate (units/second) after the last batch.
    pub rate: f64,
    /// busy_seconds / total router wall time.
    pub utilization: f64,
}

/// Router + cache telemetry for one [`route_pairs`] run, threaded into
/// `ExecutionReport`/`ServiceReport`.
#[derive(Debug, Clone, Default)]
pub struct RouterReport {
    /// One entry per backend, in the order they were passed.
    pub lanes: Vec<LaneReport>,
    /// Cache counters for this run (all-zero when no cache was supplied).
    pub cache: CacheStats,
}

impl RouterReport {
    /// Pairs served straight from the cache.
    pub fn cached_pairs(&self) -> u64 {
        self.cache.hits
    }

    /// Fold another run's telemetry into this one: lanes match by name
    /// (counters add, the newer run's measured rate/utilization win),
    /// cache counters add. The serve daemon aggregates per-ticket router
    /// telemetry into service totals this way.
    pub fn merge(&mut self, other: &RouterReport) {
        for lane in &other.lanes {
            match self.lanes.iter_mut().find(|l| l.name == lane.name) {
                Some(mine) => {
                    mine.batches += lane.batches;
                    mine.pairs += lane.pairs;
                    mine.units += lane.units;
                    mine.busy_seconds += lane.busy_seconds;
                    mine.rate = lane.rate;
                    mine.utilization = lane.utilization;
                }
                None => self.lanes.push(lane.clone()),
            }
        }
        self.cache.merge(&other.cache);
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = String::from("router:");
        for lane in &self.lanes {
            s.push_str(&format!(
                " {}={} pairs ({} batches, {:.0} u/s, util {:.0}%)",
                lane.name,
                lane.pairs,
                lane.batches,
                lane.rate,
                lane.utilization * 100.0
            ));
        }
        s.push_str(&format!(
            "; cache {}/{} hits ({} evicted)",
            self.cache.hits, self.cache.lookups, self.cache.evictions
        ));
        s
    }
}

/// Everything one routed run produced.
#[derive(Debug)]
pub struct RouterOutcome {
    /// Per-pair results in input order (cache hits included).
    pub results: Vec<JobResult>,
    /// Measured host wall seconds for the whole run.
    pub seconds: f64,
    /// Router + cache telemetry.
    pub report: RouterReport,
    /// Merged PiM execution reports, when any batch ran on PiM.
    pub pim_report: Option<ExecutionReport>,
    /// Merged fault-recovery counters from PiM batches.
    pub fault: FaultReport,
}

/// Live per-lane state shared between the driver (reads, adds queue) and
/// the workers (subtract queue, refresh rate).
struct LaneState {
    queued_units: f64,
    rate: f64,
}

enum Done {
    Batch {
        lane: usize,
        indices: Vec<usize>,
        batch: Box<BackendBatch>,
    },
    Failed(SimError),
}

/// Route `pairs` across `backends`, serving repeats from `cache` when one
/// is supplied. Results come back in input order and are bit-identical to
/// running any single backend over the same pairs.
pub fn route_pairs(
    backends: &mut [&mut dyn Backend],
    cfg: &RouterConfig,
    pairs: &[(DnaSeq, DnaSeq)],
    mut cache: Option<&mut ResultCache>,
) -> Result<RouterOutcome, SimError> {
    assert!(!backends.is_empty(), "router needs at least one backend");
    let batch_size = cfg.batch_size.max(1);
    let t0 = Instant::now();
    let cache_base = cache.as_ref().map(|c| c.stats()).unwrap_or_default();

    // Cache pre-pass on the driver thread: hits fill their slots, misses
    // form the worklist, within-run duplicates are deferred.
    let cached = crate::cache::serve_hits(
        cache.as_deref_mut(),
        pairs,
        &cfg.scheme,
        cfg.band,
        cfg.score_only,
    );
    let mut slots = cached.slots;
    let work = cached.work;

    let lanes = Mutex::new(
        backends
            .iter()
            .map(|b| LaneState {
                queued_units: 0.0,
                rate: b.units_per_second().max(1.0),
            })
            .collect::<Vec<_>>(),
    );
    let mut lane_reports: Vec<LaneReport> = backends
        .iter()
        .map(|b| LaneReport {
            name: b.name().to_string(),
            ..LaneReport::default()
        })
        .collect();

    let mut pim_report: Option<ExecutionReport> = None;
    let mut fault = FaultReport::default();
    let mut first_error: Option<SimError> = None;
    let mut computed: Vec<(Vec<usize>, Vec<JobResult>)> = Vec::new();

    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        // Depth-1 job channels: a backend can hold one running batch plus
        // one queued batch, no more — the bound is what turns a bad rate
        // seed into a small detour instead of a starved run.
        let mut job_txs = Vec::new();
        for (lane_id, backend) in backends.iter_mut().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<(Vec<usize>, Vec<(DnaSeq, DnaSeq)>)>(1);
            job_txs.push(tx);
            let done_tx = done_tx.clone();
            let lanes = &lanes;
            scope.spawn(move || {
                while let Ok((indices, batch_pairs)) = rx.recv() {
                    let units = batch_units(&batch_pairs, cfg.band);
                    let msg = match backend.run_batch(&batch_pairs) {
                        Ok(batch) => Done::Batch {
                            lane: lane_id,
                            indices,
                            batch: Box::new(batch),
                        },
                        Err(e) => Done::Failed(e),
                    };
                    {
                        let mut st = lanes.lock().expect("lane state");
                        st[lane_id].queued_units = (st[lane_id].queued_units - units).max(0.0);
                        st[lane_id].rate = backend.units_per_second().max(1.0);
                    }
                    if done_tx.send(msg).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);

        let mut in_flight = 0usize;
        let mut drain = |done: Done,
                         lane_reports: &mut Vec<LaneReport>,
                         computed: &mut Vec<(Vec<usize>, Vec<JobResult>)>| {
            match done {
                Done::Batch {
                    lane,
                    indices,
                    batch,
                } => {
                    let lr = &mut lane_reports[lane];
                    lr.batches += 1;
                    lr.pairs += indices.len() as u64;
                    lr.busy_seconds += batch.seconds;
                    if let Some(rep) = batch.report {
                        match pim_report.as_mut() {
                            Some(acc) => acc.merge(&rep),
                            None => pim_report = Some(rep),
                        }
                    }
                    if let Some(f) = batch.fault {
                        fault.merge(&f);
                    }
                    computed.push((indices, batch.results));
                }
                Done::Failed(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        };

        for chunk in work.chunks(batch_size) {
            let indices: Vec<usize> = chunk.to_vec();
            let batch_pairs: Vec<(DnaSeq, DnaSeq)> =
                indices.iter().map(|&i| pairs[i].clone()).collect();
            let units = batch_units(&batch_pairs, cfg.band);
            let mut job = Some((indices, batch_pairs));
            while let Some(j) = job.take() {
                // Cheapest predicted completion first, under current queue
                // depth and measured rates.
                let order: Vec<usize> = {
                    let st = lanes.lock().expect("lane state");
                    let mut order: Vec<usize> = (0..st.len()).collect();
                    order.sort_by(|&x, &y| {
                        let ex = (st[x].queued_units + units) / st[x].rate;
                        let ey = (st[y].queued_units + units) / st[y].rate;
                        ex.total_cmp(&ey)
                    });
                    order
                };
                let mut pending = Some(j);
                for &lane_id in &order {
                    // Charge the queue before offering so a worker that
                    // finishes instantly never decrements below zero.
                    lanes.lock().expect("lane state")[lane_id].queued_units += units;
                    match job_txs[lane_id].try_send(pending.take().expect("job pending")) {
                        Ok(()) => {
                            lane_reports[lane_id].units += units;
                            in_flight += 1;
                            break;
                        }
                        Err(mpsc::TrySendError::Full(back))
                        | Err(mpsc::TrySendError::Disconnected(back)) => {
                            let mut st = lanes.lock().expect("lane state");
                            st[lane_id].queued_units = (st[lane_id].queued_units - units).max(0.0);
                            pending = Some(back);
                        }
                    }
                }
                if pending.is_none() {
                    break;
                }
                // Every lane is busy with its queued batch: reap one
                // completion (or wait briefly) and retry the offer.
                job = pending;
                match done_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                    Ok(done) => {
                        in_flight -= 1;
                        drain(done, &mut lane_reports, &mut computed);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        drop(job_txs);
        while in_flight > 0 {
            match done_rx.recv() {
                Ok(done) => {
                    in_flight -= 1;
                    drain(done, &mut lane_reports, &mut computed);
                }
                Err(_) => break,
            }
        }
    });

    if let Some(e) = first_error {
        return Err(e);
    }

    // Post-join cache pass: audited inserts, then the deferred duplicates.
    for (indices, results) in &computed {
        for (&i, res) in indices.iter().zip(results) {
            slots[i] = Some(res.clone());
        }
    }
    let resolved = crate::cache::resolve(
        cache.as_deref_mut(),
        pairs,
        &cfg.scheme,
        cfg.band,
        cfg.score_only,
        slots,
        &cached.keys,
        &work,
        &cached.aliases,
    );

    let seconds = t0.elapsed().as_secs_f64();
    for (lane_id, lane) in lane_reports.iter_mut().enumerate() {
        lane.rate = backends[lane_id].units_per_second();
        lane.utilization = if seconds > 0.0 {
            (lane.busy_seconds / seconds).min(1.0)
        } else {
            0.0
        };
    }
    let mut cache_stats = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    // Report only this run's deltas (the daemon's cache persists across
    // tickets; its lifetime totals live in ServiceReport).
    cache_stats.lookups -= cache_base.lookups;
    cache_stats.hits -= cache_base.hits;
    cache_stats.misses -= cache_base.misses;
    cache_stats.inserts -= cache_base.inserts;
    cache_stats.evictions -= cache_base.evictions;
    cache_stats.rejected_inserts -= cache_base.rejected_inserts;

    let report = RouterReport {
        lanes: lane_reports,
        cache: cache_stats,
    };
    // Thread the telemetry into the PiM execution report too, so callers
    // that only look at `ExecutionReport` still see the router counters.
    if let Some(rep) = pim_report.as_mut() {
        rep.router = Some(report.clone());
    }
    Ok(RouterOutcome {
        results: resolved,
        seconds,
        report,
        pim_report,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuPoolBackend, SimPimBackend, ThroughputEwma};
    use crate::dispatch::DispatchConfig;
    use crate::recovery::RecoveryConfig;
    use dpu_kernel::layout::JobStatus;
    use dpu_kernel::{KernelParams, NwKernel};
    use pim_sim::{PimServer, ServerConfig};

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(4 + k % 5);
                let mut b = a.clone();
                b.insert_str(3 + k % 7, "TG");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    fn small_server() -> PimServer {
        PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        })
    }

    fn dcfg() -> DispatchConfig {
        let params = KernelParams {
            band: 32,
            scheme: ScoringScheme::default(),
            score_only: false,
        };
        DispatchConfig::new(NwKernel::paper_default(), params)
    }

    #[test]
    fn routed_results_cover_every_pair_in_order() {
        let ps = pairs(30);
        let mut server = small_server();
        let mut pim = SimPimBackend::new(&mut server, dcfg(), RecoveryConfig::default());
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 2);
        let mut backends: Vec<&mut dyn Backend> = vec![&mut pim, &mut cpu];
        let rcfg = RouterConfig {
            batch_size: 4,
            ..RouterConfig::new(32, ScoringScheme::default(), false)
        };
        let out = route_pairs(&mut backends, &rcfg, &ps, None).unwrap();
        assert_eq!(out.results.len(), ps.len());
        let reference = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 1)
            .run_batch(&ps)
            .unwrap();
        for (i, (got, want)) in out.results.iter().zip(&reference.results).enumerate() {
            assert_eq!(got, want, "pair {i}");
        }
        let total: u64 = out.report.lanes.iter().map(|l| l.pairs).sum();
        assert_eq!(total, ps.len() as u64);
        assert!(out.seconds > 0.0);
    }

    #[test]
    fn cache_serves_repeats_and_counts_conserve() {
        let base = pairs(6);
        // 3x duplication of the same 6 pairs.
        let ps: Vec<_> = base.iter().cycle().take(18).cloned().collect();
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 2);
        let mut backends: Vec<&mut dyn Backend> = vec![&mut cpu];
        let rcfg = RouterConfig {
            batch_size: 6,
            ..RouterConfig::new(32, ScoringScheme::default(), false)
        };
        let mut cache = ResultCache::new(256);
        let out = route_pairs(&mut backends, &rcfg, &ps, Some(&mut cache)).unwrap();
        let s = out.report.cache;
        assert_eq!(s.lookups, 18);
        assert!(s.conserved(), "hits {} misses {}", s.hits, s.misses);
        assert!(s.hits >= 6, "repeat traffic must hit: {s:?}");
        // Cached results are bit-identical to fresh computation.
        let fresh = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 1)
            .run_batch(&ps)
            .unwrap();
        assert_eq!(out.results, fresh.results);
        for r in &out.results {
            assert_eq!(r.status, JobStatus::Ok);
        }
    }

    #[test]
    fn single_backend_router_degenerates_gracefully() {
        let ps = pairs(5);
        let mut server = small_server();
        let mut pim = SimPimBackend::new(&mut server, dcfg(), RecoveryConfig::default());
        let mut backends: Vec<&mut dyn Backend> = vec![&mut pim];
        let rcfg = RouterConfig::new(32, ScoringScheme::default(), false);
        let out = route_pairs(&mut backends, &rcfg, &ps, None).unwrap();
        assert_eq!(out.results.len(), 5);
        assert_eq!(out.report.lanes.len(), 1);
        assert_eq!(out.report.lanes[0].pairs, 5);
        assert!(out.pim_report.is_some());
    }

    /// A lane that takes a fixed 3 ms per batch and starts from a given
    /// throughput seed.
    struct FixedLane {
        name: &'static str,
        ewma: ThroughputEwma,
    }

    impl Backend for FixedLane {
        fn name(&self) -> &'static str {
            self.name
        }

        fn units_per_second(&self) -> f64 {
            self.ewma.rate()
        }

        fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError> {
            let t = Instant::now();
            std::thread::sleep(std::time::Duration::from_millis(3));
            let seconds = t.elapsed().as_secs_f64();
            self.ewma.observe(batch_units(pairs, 32), seconds);
            let results = pairs
                .iter()
                .map(|_| JobResult {
                    status: JobStatus::Ok,
                    score: 0,
                    cigar: nw_core::cigar::Cigar::new(),
                })
                .collect();
            Ok(BackendBatch {
                results,
                seconds,
                report: None,
                fault: None,
            })
        }
    }

    #[test]
    fn a_wrong_seed_does_not_starve_the_other_lane() {
        // Two equally fast lanes whose seeds disagree by twelve orders of
        // magnitude: the bounded queues and the first measured batch keep
        // the work shared anyway.
        let ps = pairs(64);
        let mut fast_seed = FixedLane {
            name: "pim",
            ewma: ThroughputEwma::seeded(1e12),
        };
        let mut slow_seed = FixedLane {
            name: "cpu",
            ewma: ThroughputEwma::seeded(1.0),
        };
        let mut backends: Vec<&mut dyn Backend> = vec![&mut fast_seed, &mut slow_seed];
        let rcfg = RouterConfig {
            batch_size: 4,
            ..RouterConfig::new(32, ScoringScheme::default(), false)
        };
        let out = route_pairs(&mut backends, &rcfg, &ps, None).unwrap();
        assert_eq!(out.results.len(), ps.len());
        for lane in &out.report.lanes {
            assert!(lane.batches >= 5, "{}", out.report.summary());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 1);
        let mut backends: Vec<&mut dyn Backend> = vec![&mut cpu];
        let rcfg = RouterConfig::new(32, ScoringScheme::default(), false);
        let out = route_pairs(&mut backends, &rcfg, &[], None).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.report.lanes[0].batches, 0);
    }
}
