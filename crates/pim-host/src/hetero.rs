//! Heterogeneous CPU + PiM execution — the paper's stated future work
//! (§5.6: "during PiM operations, most of the cores are free to be working
//! on other tasks. Looking ahead, future study could explore heterogeneous
//! computation using both PiM and CPU simultaneously").
//!
//! This is the *static-split* strategy: the host partitions the pair list
//! once, up front, proportionally to the configured throughput estimates
//! (eq.-6 workload per unit time), then runs both shares **concurrently**
//! through the same [`crate::backend::Backend`] implementations the
//! dynamic router uses — [`SimPimBackend`] on a scoped thread,
//! [`CpuPoolBackend`] (the kernel-identical adaptive aligner, so merged
//! results are bit-identical to a pure-PiM run for in-band pairs) on the
//! caller's thread. The combined wall time is `max(cpu_share, pim_share)`,
//! minimized when the split matches the true throughput ratio — which is
//! exactly what the estimates get wrong on unseen workloads, and why
//! [`crate::router`] replaces the up-front split with a per-batch
//! feedback-driven decision. `hetero` survives as the ablation baseline
//! the router is benchmarked against.
//!
//! Estimates left at `0.0` are auto-seeded from the same models the
//! router starts from (WCET bounds for PiM, a micro-probe for the CPU),
//! so "static split with model seeds" is a fair comparator: same priors,
//! no feedback.

use crate::backend::{seed_pim_rate, Backend, CpuPoolBackend, SimPimBackend};
use crate::cache::ResultCache;
use crate::dispatch::DispatchConfig;
use crate::recovery::RecoveryConfig;
use crate::report::ExecutionReport;
use dpu_kernel::layout::JobResult;
use nw_core::seq::DnaSeq;
use pim_sim::{PimServer, SimError};
use std::time::Instant;

/// Configuration for a heterogeneous run.
#[derive(Debug, Clone)]
pub struct HeteroConfig {
    /// PiM-side dispatch configuration.
    pub dispatch: DispatchConfig,
    /// CPU worker threads.
    pub cpu_threads: usize,
    /// CPU band. Use the kernel band: the CPU side runs the
    /// kernel-identical adaptive aligner, so equal bands give bit-identical
    /// merged results.
    pub cpu_band: usize,
    /// Estimated PiM throughput in eq.-6 workload units per second; `0.0`
    /// auto-seeds from a timed native launch (the router's prior).
    pub pim_workload_per_second: f64,
    /// Estimated CPU throughput in workload units per second; `0.0`
    /// auto-seeds from a micro-probe.
    pub cpu_workload_per_second: f64,
}

/// Outcome of a heterogeneous run.
#[derive(Debug)]
pub struct HeteroOutcome {
    /// Per-pair results in input order (CPU failures surface as
    /// `JobStatus::OutOfBand`).
    pub results: Vec<JobResult>,
    /// The PiM-side report for its share.
    pub pim_report: ExecutionReport,
    /// Simulated/modeled wall time of the PiM share (the figure the
    /// ablation tables compare against modeled PiM-only runs).
    pub pim_seconds: f64,
    /// Measured wall time of the CPU share (on this machine).
    pub cpu_seconds: f64,
    /// Measured host wall time of the whole run — both shares run
    /// concurrently, so this is what a dynamic-router comparison uses.
    pub host_seconds: f64,
    /// Pairs routed to the PiM server.
    pub pim_pairs: usize,
    /// Pairs routed to the CPU.
    pub cpu_pairs: usize,
}

impl HeteroOutcome {
    /// Combined modeled wall time: both sides run concurrently.
    pub fn combined_seconds(&self) -> f64 {
        self.pim_seconds.max(self.cpu_seconds)
    }
}

/// Split `pairs` by workload so each side's share matches its estimated
/// throughput, run the PiM share and the CPU share concurrently, and
/// merge. See [`align_pairs_hetero_cached`] for the cache-fronted form.
pub fn align_pairs_hetero(
    server: &mut PimServer,
    cfg: &HeteroConfig,
    pairs: &[(DnaSeq, DnaSeq)],
) -> Result<HeteroOutcome, SimError> {
    align_pairs_hetero_cached(server, cfg, pairs, None)
}

/// [`align_pairs_hetero`] with a content-addressed result cache in front:
/// repeated pairs are served (and deduplicated) before the split is even
/// computed, exactly like the dynamic router's cache pre-pass.
pub fn align_pairs_hetero_cached(
    server: &mut PimServer,
    cfg: &HeteroConfig,
    pairs: &[(DnaSeq, DnaSeq)],
    cache: Option<&mut ResultCache>,
) -> Result<HeteroOutcome, SimError> {
    let band = cfg.dispatch.params.band;
    let scheme = cfg.dispatch.params.scheme;
    let score_only = cfg.dispatch.params.score_only;
    let t0 = Instant::now();

    // Backends first: they carry the model seeds used when an estimate is
    // left at 0.0, and they are what actually runs each share.
    let mut cpu_backend = CpuPoolBackend::new(scheme, cfg.cpu_band, score_only, cfg.cpu_threads);
    let cpu_rate = if cfg.cpu_workload_per_second > 0.0 {
        cfg.cpu_workload_per_second
    } else {
        cpu_backend.units_per_second()
    };
    let pim_rate = if cfg.pim_workload_per_second > 0.0 {
        cfg.pim_workload_per_second
    } else {
        let dpus = server.cfg().ranks * server.cfg().dpus_per_rank;
        seed_pim_rate(&cfg.dispatch, dpus)
    };

    let mut cache = cache;
    let cached = crate::cache::serve_hits(cache.as_deref_mut(), pairs, &scheme, band, score_only);

    let workloads: Vec<u64> = cached
        .work
        .iter()
        .map(|&i| crate::balance::workload(pairs[i].0.len(), pairs[i].1.len(), band))
        .collect();
    let total: u64 = workloads.iter().sum();
    let pim_fraction = pim_rate / (pim_rate + cpu_rate).max(f64::MIN_POSITIVE);
    let pim_budget = (total as f64 * pim_fraction) as u64;

    // Longest-first fill of the PiM budget: big jobs suit the DPUs (their
    // fixed per-job overheads amortize), stragglers suit the CPU.
    let mut order: Vec<usize> = (0..cached.work.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(workloads[k]));
    let mut pim_ids = Vec::new();
    let mut cpu_ids = Vec::new();
    let mut acc = 0u64;
    for k in order {
        if acc + workloads[k] <= pim_budget || cpu_ids.len() * 4 > cached.work.len() * 3 {
            acc += workloads[k];
            pim_ids.push(cached.work[k]);
        } else {
            cpu_ids.push(cached.work[k]);
        }
    }

    let pim_share: Vec<(DnaSeq, DnaSeq)> = pim_ids.iter().map(|&i| pairs[i].clone()).collect();
    let cpu_share: Vec<(DnaSeq, DnaSeq)> = cpu_ids.iter().map(|&i| pairs[i].clone()).collect();

    // Both shares run concurrently — the CPU really is otherwise idle
    // while the (simulated) DPUs execute.
    let mut pim_backend =
        SimPimBackend::new(server, cfg.dispatch.clone(), RecoveryConfig::default());
    let (pim_out, cpu_out) = std::thread::scope(|scope| {
        let pim_handle = scope.spawn(move || pim_backend.run_batch(&pim_share));
        let cpu_out = cpu_backend.run_batch(&cpu_share);
        (pim_handle.join().expect("pim share thread"), cpu_out)
    });
    let pim_out = pim_out?;
    let cpu_out = cpu_out?;
    let pim_report = pim_out.report.unwrap_or_default();

    // Merge in input order, then resolve cache state (audited inserts,
    // deferred duplicates).
    let mut slots = cached.slots;
    for (&i, res) in pim_ids.iter().zip(&pim_out.results) {
        slots[i] = Some(res.clone());
    }
    for (&i, res) in cpu_ids.iter().zip(&cpu_out.results) {
        slots[i] = Some(res.clone());
    }
    let results = crate::cache::resolve(
        cache,
        pairs,
        &scheme,
        band,
        score_only,
        slots,
        &cached.keys,
        &cached.work,
        &cached.aliases,
    );

    Ok(HeteroOutcome {
        results,
        pim_seconds: pim_report.total_seconds(),
        pim_report,
        cpu_seconds: cpu_out.seconds,
        host_seconds: t0.elapsed().as_secs_f64(),
        pim_pairs: pim_ids.len(),
        cpu_pairs: cpu_ids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_kernel::layout::JobStatus;
    use dpu_kernel::{KernelParams, NwKernel};
    use nw_core::adaptive::AdaptiveAligner;
    use nw_core::ScoringScheme;
    use pim_sim::ServerConfig;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(5 + k % 4);
                let mut b = a.clone();
                b.insert_str(4 + k % 6, "TT");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    fn config() -> HeteroConfig {
        let params = KernelParams {
            band: 32,
            scheme: ScoringScheme::default(),
            score_only: false,
        };
        HeteroConfig {
            dispatch: DispatchConfig::new(NwKernel::paper_default(), params),
            cpu_threads: 2,
            cpu_band: 32,
            pim_workload_per_second: 3.0,
            cpu_workload_per_second: 1.0,
        }
    }

    #[test]
    fn hetero_run_covers_every_pair_correctly() {
        let ps = pairs(24);
        let cfg = config();
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        });
        let out = align_pairs_hetero(&mut server, &cfg, &ps).unwrap();
        assert_eq!(out.results.len(), 24);
        assert!(out.pim_pairs > 0, "PiM got a share");
        assert!(out.cpu_pairs > 0, "CPU got a share");
        assert_eq!(out.pim_pairs + out.cpu_pairs, 24);
        assert!(out.host_seconds > 0.0);

        // Both sides run the kernel-identical adaptive algorithm now, so
        // every result is bit-identical to the reference aligner.
        let adaptive = AdaptiveAligner::new(ScoringScheme::default(), 32);
        for (r, (a, b)) in out.results.iter().zip(&ps) {
            assert_eq!(r.status, JobStatus::Ok);
            r.cigar.validate(a, b).unwrap();
            let want = adaptive.align(a, b).unwrap();
            assert_eq!(r.score, want.score);
            assert_eq!(r.cigar, want.cigar);
        }
    }

    #[test]
    fn split_follows_throughput_ratio() {
        let ps = pairs(40);
        let mut cfg = config();
        cfg.pim_workload_per_second = 9.0;
        cfg.cpu_workload_per_second = 1.0;
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        });
        let out = align_pairs_hetero(&mut server, &cfg, &ps).unwrap();
        // ~90% of the workload should land on the PiM side.
        assert!(
            out.pim_pairs > out.cpu_pairs * 3,
            "pim {} vs cpu {}",
            out.pim_pairs,
            out.cpu_pairs
        );
    }

    #[test]
    fn zero_estimates_auto_seed() {
        let ps = pairs(16);
        let mut cfg = config();
        cfg.pim_workload_per_second = 0.0;
        cfg.cpu_workload_per_second = 0.0;
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        });
        let out = align_pairs_hetero(&mut server, &cfg, &ps).unwrap();
        assert_eq!(out.results.len(), 16);
        assert_eq!(out.pim_pairs + out.cpu_pairs, 16);
    }

    #[test]
    fn cache_short_circuits_repeats() {
        let base = pairs(8);
        let ps: Vec<_> = base.iter().chain(base.iter()).cloned().collect();
        let cfg = config();
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        });
        let mut cache = ResultCache::new(128);
        let out = align_pairs_hetero_cached(&mut server, &cfg, &ps, Some(&mut cache)).unwrap();
        assert_eq!(out.results.len(), 16);
        // Only the 8 unique pairs were computed; the rest were deferred
        // duplicates served from the cache.
        assert_eq!(out.pim_pairs + out.cpu_pairs, 8);
        let s = cache.stats();
        assert!(s.conserved());
        assert!(s.hits >= 8, "{s:?}");
        // Second run: everything cached.
        let out2 = align_pairs_hetero_cached(&mut server, &cfg, &ps, Some(&mut cache)).unwrap();
        assert_eq!(out2.pim_pairs + out2.cpu_pairs, 0);
        assert_eq!(out.results, out2.results);
    }

    #[test]
    fn combined_time_is_the_max_of_both_sides() {
        let out = HeteroOutcome {
            results: Vec::new(),
            pim_report: ExecutionReport::default(),
            pim_seconds: 2.5,
            cpu_seconds: 1.0,
            host_seconds: 0.1,
            pim_pairs: 0,
            cpu_pairs: 0,
        };
        assert_eq!(out.combined_seconds(), 2.5);
    }

    #[test]
    fn empty_input() {
        let cfg = config();
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 1;
            c
        });
        let out = align_pairs_hetero(&mut server, &cfg, &[]).unwrap();
        assert!(out.results.is_empty());
    }
}
