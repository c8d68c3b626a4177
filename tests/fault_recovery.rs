//! Property-style fault-recovery tests: whatever the seeded fault plan
//! does to the server, `align_pairs`' job ticket must return every job
//! exactly once with results identical to a fault-free run.

use upmem_nw::datasets::mutate::{mutate, ErrorModel};
use upmem_nw::datasets::synthetic::{SyntheticParams, SyntheticPreset};
use upmem_nw::datasets::{random_seq, rng};
use upmem_nw::dpu_kernel::cost::wcet_watchdog_cycles;
use upmem_nw::dpu_kernel::{JobResult, JobStatus};
use upmem_nw::nw_core::seq::DnaSeq;
use upmem_nw::pim_host::balance::pair_workloads;
use upmem_nw::pim_host::deadline::DeadlinePolicy;
use upmem_nw::pim_host::dispatch::{
    execute_rounds, group_jobs, plan_rank, DispatchOutcome, Engine,
};
use upmem_nw::pim_host::encode::Encoder;
use upmem_nw::pim_host::pipeline::{execute_rounds_pipelined, PipelineOptions};
use upmem_nw::pim_host::recovery::RecoveryConfig;
use upmem_nw::pim_sim::FaultPlan;
use upmem_nw::prelude::*;

fn noisy_pairs(n: usize, len: usize, seed: u64) -> Vec<(DnaSeq, DnaSeq)> {
    let mut r = rng(seed);
    let model = ErrorModel::uniform(0.05);
    (0..n)
        .map(|_| {
            let a = random_seq(&mut r, len);
            let (b, _) = mutate(&a, &model, &mut r);
            (a, b)
        })
        .collect()
}

fn dispatch(band: usize) -> DispatchConfig {
    let params = KernelParams {
        band,
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    DispatchConfig::new(NwKernel::paper_default(), params)
}

/// `dispatch(band)` under the recovery policy `recovery`.
fn recovering(band: usize, recovery: RecoveryConfig) -> DispatchConfig {
    DispatchConfig {
        recovery,
        ..dispatch(band)
    }
}

/// The strict oracle of a fault-free `align_pairs` run: `cfg.rounds`
/// rounds of `group_jobs` batches over the ranks, each LPT-planned over
/// its rank's DPUs up front, run as one strict ticket at `cfg.engine`'s
/// FIFO depth. Returns the outcome and the results in input order.
fn strict_run(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    pairs: &[(DnaSeq, DnaSeq)],
) -> (DispatchOutcome, Vec<JobResult>) {
    let (ranks, dpus) = (server.rank_count(), server.cfg().dpus_per_rank);
    let mram = server.cfg().dpu.mram_size;
    let mut encoder = Encoder::new(0xDA7A);
    let packed: Vec<(PackedSeq, PackedSeq)> = pairs
        .iter()
        .map(|(a, b)| (encoder.encode_seq(a), encoder.encode_seq(b)))
        .collect();
    let groups = group_jobs(
        &pair_workloads(&packed, cfg.params.band),
        cfg.rounds * ranks,
    );
    let rounds = groups
        .chunks(ranks)
        .map(|round| {
            round
                .iter()
                .map(|ids| {
                    let jobs: Vec<_> = ids.iter().map(|&i| packed[i].clone()).collect();
                    let pools = cfg.kernel.pool_cfg.pools;
                    plan_rank(&jobs, ids, dpus, cfg.params, pools, mram).unwrap()
                })
                .collect()
        })
        .collect();
    let mut outcome = match cfg.engine {
        Engine::Lockstep => execute_rounds(server, &cfg.kernel, rounds, cfg.sim_threads),
        Engine::Pipelined { fifo_depth } => {
            let opts = PipelineOptions {
                fifo_depth,
                sim_threads: cfg.sim_threads,
            };
            execute_rounds_pipelined(server, &cfg.kernel, rounds, &opts)
        }
    }
    .unwrap();
    let mut tagged = std::mem::take(&mut outcome.results);
    tagged.sort_by_key(|(id, _)| *id);
    assert!(tagged.iter().map(|(id, _)| *id).eq(0..pairs.len()));
    (outcome, tagged.into_iter().map(|(_, r)| r).collect())
}

/// The fault-free host-side answer for each pair: the adaptive aligner
/// the DPU kernel and the CPU fallback both reproduce.
fn reference(cfg: &DispatchConfig, pairs: &[(DnaSeq, DnaSeq)]) -> Vec<JobResult> {
    let aligner = AdaptiveAligner::new(cfg.params.scheme, cfg.params.band);
    pairs
        .iter()
        .map(|(a, b)| {
            let aln = aligner.align(a, b).expect("noisy pairs stay in band");
            JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: aln.cigar,
            }
        })
        .collect()
}

fn faulty_server(plan: FaultPlan, ranks: usize, dpus: usize) -> PimServer {
    let mut cfg = ServerConfig::with_ranks(ranks);
    cfg.dpus_per_rank = dpus;
    cfg.fault = plan;
    // Finite cycle budget so injected livelocks are reaped deterministically
    // in simulated time (no wall-clock involved).
    cfg.dpu.watchdog_cycles = 50_000_000;
    PimServer::new(cfg)
}

/// A server of `ranks` x `dpus` under `plan` whose watchdog budget is
/// derived from the kernels' WCET bounds for `pairs` at `cfg`'s band,
/// spread over the slots `plan` leaves healthy (fewer slots stack more
/// jobs per DPU, which raises the per-DPU bound).
fn wcet_server(
    plan: FaultPlan,
    ranks: usize,
    dpus: usize,
    cfg: &DispatchConfig,
    pairs: &[(DnaSeq, DnaSeq)],
) -> PimServer {
    let lens: Vec<(usize, usize)> = pairs.iter().map(|(a, b)| (a.len(), b.len())).collect();
    let healthy = (ranks * dpus)
        .saturating_sub(plan.disabled_dpus.len())
        .saturating_sub(plan.dead_ranks.len() * dpus)
        .max(1);
    let mut server = ServerConfig::with_ranks(ranks);
    server.dpus_per_rank = dpus;
    server.fault = plan;
    server.dpu.watchdog_cycles =
        wcet_watchdog_cycles(&lens, cfg.params.band, cfg.params.score_only, healthy);
    PimServer::new(server)
}

/// The recovery policy of the chaos drills: three PiM attempts, quarantine
/// after two faults, a 10 s stall deadline, and every result audited.
fn chaos_recovery() -> RecoveryConfig {
    RecoveryConfig {
        max_attempts: 3,
        quarantine_after: 2,
        deadline: DeadlinePolicy::after_seconds(10.0),
        audit: true,
    }
}

/// `seed`'s S1000 pairs at CI scale: 24 synthetic pairs of ~1 kbp.
fn s1000_pairs(seed: u64) -> Vec<(DnaSeq, DnaSeq)> {
    SyntheticParams::preset(SyntheticPreset::S1000, seed).generate(24)
}

/// For a spread of random chaos plans, at FIFO depths 1 and 2 and under
/// a WCET-derived watchdog budget: every job id comes back exactly once,
/// and scores/CIGARs equal the fault-free run of the same jobs. The last
/// case is CI's plan: seed 42, 24 S1000 pairs on 2 x 8 DPUs at band 128.
#[test]
fn random_fault_plans_never_lose_or_corrupt_jobs() {
    let mut cases: Vec<_> = [3u64, 17, 99, 1234]
        .into_iter()
        .map(|seed| {
            let plan = FaultPlan::chaos(seed, 2, 4, 2, 0.2, 0.15, 0.1, 0.1);
            (seed, noisy_pairs(18, 400, seed), (2, 4), 64, plan)
        })
        .collect();
    let plan = FaultPlan::chaos(42, 2, 8, 2, 0.15, 0.1, 0.1, 0.1);
    cases.push((42, s1000_pairs(42), (2, 8), 128, plan));

    for (seed, pairs, (ranks, dpus), band, plan) in cases {
        for fifo_depth in [1, 2] {
            let cfg = DispatchConfig {
                engine: Engine::Pipelined { fifo_depth },
                ..recovering(band, chaos_recovery())
            };
            let case = format!("seed {seed}, depth {fifo_depth}");

            // Fault-free reference run of the exact same batch.
            let mut clean = wcet_server(FaultPlan::default(), ranks, dpus, &cfg, &pairs);
            let (clean_report, clean_results) = align_pairs(&mut clean, &cfg, &pairs).unwrap();
            assert!(clean_report.fault.is_clean(), "{case}");
            assert_eq!(clean_results.len(), pairs.len(), "{case}");

            // Same batch under a seeded chaos plan (disabled DPUs, a dead
            // rank, launch faults, readback corruption, a straggler,
            // tasklet livelocks, silent CIGAR corruption).
            let mut server = wcet_server(plan.clone(), ranks, dpus, &cfg, &pairs);
            let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
            let fault = &report.fault;

            assert_eq!(results.len(), pairs.len(), "{case}: every job id once");
            assert_eq!(
                results,
                clean_results,
                "{case}: results must be identical to the fault-free run ({})",
                fault.summary()
            );
            // The chaos plan on >1 rank always kills a rank, so recovery
            // must have observed and repaired something.
            assert!(!fault.is_clean(), "{case}: expected injected faults");
            assert!(fault.rank_failures >= 1, "{case}");
            assert!(fault.retried_jobs >= 1, "{case}");
            assert!(
                fault.silent_corruptions <= fault.audit_failures,
                "{case}: a counted silent corruption escaped the audit ({})",
                fault.summary()
            );
        }
    }
}

/// A silent corruption counts only once its DPU's records decode, where
/// the audit sees it. On seed 3's chaos plan at FIFO depth 1 a corrupted
/// DPU's readback also fails its integrity check and is retried whole, so
/// its corruption must not count.
#[test]
fn silent_corruptions_never_exceed_audit_failures() {
    let pairs = noisy_pairs(18, 400, 3);
    let plan = FaultPlan::chaos(3, 2, 4, 2, 0.2, 0.15, 0.1, 0.1);
    let cfg = DispatchConfig {
        engine: Engine::Pipelined { fifo_depth: 1 },
        ..recovering(64, chaos_recovery())
    };
    let mut clean = wcet_server(FaultPlan::default(), 2, 4, &cfg, &pairs);
    let (_, clean_results) = align_pairs(&mut clean, &cfg, &pairs).unwrap();
    let mut server = wcet_server(plan, 2, 4, &cfg, &pairs);
    let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    let fault = &report.fault;
    assert!(
        fault.silent_corruptions <= fault.audit_failures,
        "{}",
        fault.summary()
    );
    assert_eq!(results, clean_results, "{}", fault.summary());
}

/// A WCET-derived budget that is too tight cannot hide: a fault-free,
/// audited run under it must be clean (no watchdog reap, no escalation,
/// no retry) at FIFO depths 1 and 2, audit every result, and return the
/// fault-free host answer for every pair.
#[test]
fn clean_run_fits_the_wcet_watchdog_budget() {
    let pairs = s1000_pairs(42);
    for fifo_depth in [1, 2] {
        let cfg = DispatchConfig {
            engine: Engine::Pipelined { fifo_depth },
            ..recovering(128, chaos_recovery())
        };
        let mut server = wcet_server(FaultPlan::default(), 2, 8, &cfg, &pairs);
        let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
        let fault = &report.fault;
        assert!(fault.is_clean(), "depth {fifo_depth}: {}", fault.summary());
        assert_eq!(fault.audit_checked, pairs.len(), "depth {fifo_depth}");
        assert_eq!(results, reference(&cfg, &pairs), "depth {fifo_depth}");
    }
}

/// The empty plan must not change behavior at all: `align_pairs`' job
/// ticket and the same batches planned up front as a strict ticket agree,
/// and the report is clean.
#[test]
fn empty_plan_is_zero_overhead_and_clean() {
    let pairs = noisy_pairs(12, 300, 7);
    let cfg = dispatch(64);
    let mut server = faulty_server(FaultPlan::default(), 2, 4);
    let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    assert!(report.fault.is_clean(), "{}", report.fault.summary());

    let mut strict_server = faulty_server(FaultPlan::default(), 2, 4);
    let (strict, strict_results) = strict_run(&mut strict_server, &cfg, &pairs);
    assert_eq!(results, strict_results);
    assert_eq!(report.alignments, strict_results.len());
    assert_eq!(report.stats.total, strict.stats.total);
    assert_eq!(report.transfer_in_bytes, strict.bytes_in);
}

/// `align_pairs` rides the recovery ladder: on a server with boot-disabled
/// DPUs, launch faults and readback corruption it still returns the
/// fault-free answer for every pair, and its report shows the repairs.
#[test]
fn align_pairs_recovers_from_disabled_dpus_launch_faults_and_corruption() {
    let pairs = noisy_pairs(16, 300, 21);
    let cfg = dispatch(64);
    let plan = FaultPlan {
        seed: 0xFA17,
        disabled_dpus: vec![(0, 1), (1, 3)],
        dpu_fault_rate: 0.3,
        corrupt_rate: 0.2,
        ..FaultPlan::default()
    };
    let mut server = faulty_server(plan, 2, 4);
    let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    assert_eq!(
        results,
        reference(&cfg, &pairs),
        "{}",
        report.fault.summary()
    );
    assert!(!report.fault.is_clean(), "expected injected faults");
    assert!(report.fault.retried_jobs >= 1, "{}", report.fault.summary());
}

/// Faults must drive jobs to completion through the CPU when the PiM side
/// is hopeless, with scores still matching the fault-free run.
#[test]
fn hopeless_server_still_completes_via_cpu() {
    let pairs = noisy_pairs(10, 300, 5);
    let plan = FaultPlan {
        seed: 11,
        dpu_fault_rate: 1.0,
        ..FaultPlan::default()
    };
    let mut server = faulty_server(plan, 1, 3);
    let cfg = recovering(
        64,
        RecoveryConfig {
            max_attempts: 2,
            quarantine_after: 2,
            ..Default::default()
        },
    );
    let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    assert_eq!(report.fault.cpu_fallbacks, pairs.len());

    let mut clean = faulty_server(FaultPlan::default(), 1, 3);
    let (_, clean_results) = align_pairs(&mut clean, &cfg, &pairs).unwrap();
    assert_eq!(results, clean_results);
}
