//! Randomized equivalence tests for the dispatch engine: on any job set,
//! topology and FIFO depth, `execute_rounds_pipelined` must be
//! bit-identical to `execute_rounds` (FIFO depth 1) — same results, same
//! simulated per-rank seconds, same aggregate statistics. Stragglers (both
//! the simulated slowdown and the wall-clock hold) may only change *host*
//! timing, never outputs. Cases come from a seeded [`SplitMix64`] stream.

use dpu_kernel::{KernelParams, KernelVariant, NwKernel, PoolConfig};
use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq, PackedSeq};
use nw_core::ScoringScheme;
use pim_host::balance::pair_workloads;
use pim_host::dispatch::{execute_rounds, group_jobs, plan_rank, DispatchOutcome, RankPlan};
use pim_host::pipeline::{execute_rounds_pipelined, PipelineOptions};
use pim_host::recovery::{align_pairs_recovering, RecoveryConfig};
use pim_host::{DispatchConfig, Engine};
use pim_sim::{FaultPlan, PimServer, ServerConfig};

fn params() -> KernelParams {
    KernelParams {
        band: 16,
        scheme: ScoringScheme::default(),
        score_only: false,
    }
}

fn kernel() -> NwKernel {
    NwKernel::new(
        PoolConfig {
            pools: 2,
            tasklets: 4,
        },
        KernelVariant::Asm,
    )
}

fn server(fault: FaultPlan, ranks: usize, dpus: usize) -> PimServer {
    let mut cfg = ServerConfig::with_ranks(ranks);
    cfg.dpus_per_rank = dpus;
    cfg.fault = fault;
    PimServer::new(cfg)
}

fn rand_seq(rng: &mut SplitMix64, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code(rng.below(4) as u8))
        .collect()
}

/// Random packed pairs: a random sequence and a lightly edited copy, so most
/// jobs stay in-band while some go OutOfBand — both outcomes must agree.
fn rand_jobs(rng: &mut SplitMix64, n: usize) -> Vec<(PackedSeq, PackedSeq)> {
    (0..n)
        .map(|_| {
            let len = rng.between(20, 80) as usize;
            let a = rand_seq(rng, len);
            let mut text = a.to_ascii();
            let edits = rng.below(4) as usize;
            for _ in 0..edits {
                let at = rng.below(text.len() as u64) as usize;
                text.insert(at, b"ACGT"[rng.below(4) as usize]);
            }
            let b = DnaSeq::from_ascii(&text).unwrap();
            (a.pack(), b.pack())
        })
        .collect()
}

/// Deterministic plan construction: the same grouping the production modes
/// use (eq.-6 workloads, serpentine `group_jobs`, LPT inside each rank), so
/// building twice yields byte-identical plans for both engines.
fn build_rounds(
    jobs: &[(PackedSeq, PackedSeq)],
    n_rounds: usize,
    n_ranks: usize,
    dpus: usize,
) -> Vec<Vec<RankPlan>> {
    let workloads = pair_workloads(jobs, params().band);
    let groups = group_jobs(&workloads, n_rounds * n_ranks);
    let mut rounds = Vec::new();
    for k in 0..n_rounds {
        let mut plans = Vec::new();
        for r in 0..n_ranks {
            let ids = &groups[k * n_ranks + r];
            let subset: Vec<(PackedSeq, PackedSeq)> =
                ids.iter().map(|&i| jobs[i].clone()).collect();
            plans.push(plan_rank(&subset, ids, dpus, params(), 2, 64 << 20).unwrap());
        }
        rounds.push(plans);
    }
    rounds
}

fn assert_bit_identical(lock: &DispatchOutcome, pipe: &DispatchOutcome, label: &str) {
    let sort = |v: &[(usize, dpu_kernel::JobResult)]| {
        let mut v = v.to_vec();
        v.sort_by_key(|(id, _)| *id);
        v
    };
    assert_eq!(sort(&lock.results), sort(&pipe.results), "{label}: results");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&lock.rank_seconds),
        bits(&pipe.rank_seconds),
        "{label}: rank_seconds"
    );
    assert_eq!(
        lock.transfer_seconds.to_bits(),
        pipe.transfer_seconds.to_bits(),
        "{label}: transfer_seconds"
    );
    assert_eq!(
        lock.dpu_seconds.to_bits(),
        pipe.dpu_seconds.to_bits(),
        "{label}: dpu_seconds"
    );
    assert_eq!(lock.bytes_in, pipe.bytes_in, "{label}: bytes_in");
    assert_eq!(lock.bytes_out, pipe.bytes_out, "{label}: bytes_out");
    assert_eq!(lock.stats, pipe.stats, "{label}: stats");
    assert_eq!(
        lock.mean_rank_imbalance.to_bits(),
        pipe.mean_rank_imbalance.to_bits(),
        "{label}: imbalance"
    );
    assert_eq!(lock.workload, pipe.workload, "{label}: workload");
}

fn run_both(
    fault: FaultPlan,
    topo: (usize, usize),
    jobs: &[(PackedSeq, PackedSeq)],
    n_rounds: usize,
    depth: usize,
    sim_threads: usize,
    label: &str,
) {
    let (ranks, dpus) = topo;
    let kernel = kernel();
    // The depth-1 reference always runs the DPUs strictly sequentially
    // (thread budget 1); the pipelined run gets the trial's budget — the
    // comparison therefore also property-checks the intra-rank pool.
    let mut s1 = server(fault.clone(), ranks, dpus);
    let lock = execute_rounds(
        &mut s1,
        &kernel,
        build_rounds(jobs, n_rounds, ranks, dpus),
        1,
    )
    .unwrap();
    let mut s2 = server(fault, ranks, dpus);
    let opts = PipelineOptions {
        fifo_depth: depth,
        sim_threads,
    };
    let pipe = execute_rounds_pipelined(
        &mut s2,
        &kernel,
        build_rounds(jobs, n_rounds, ranks, dpus),
        &opts,
    )
    .unwrap();
    assert_bit_identical(&lock, &pipe, label);
}

const TRIALS: usize = 12;

#[test]
fn pipelined_is_bit_identical_on_random_workloads() {
    let mut rng = SplitMix64::new(0xF1F0);
    for trial in 0..TRIALS {
        let n = rng.below(25) as usize;
        let jobs = rand_jobs(&mut rng, n);
        let ranks = rng.between(1, 3) as usize;
        let dpus = rng.between(1, 4) as usize;
        let n_rounds = rng.between(1, 3) as usize;
        let depth = rng.between(1, 3) as usize;
        let threads = rng.between(1, 8) as usize;
        run_both(
            FaultPlan::default(),
            (ranks, dpus),
            &jobs,
            n_rounds,
            depth,
            threads,
            &format!(
                "trial {trial} ({ranks}x{dpus}, {n_rounds} rounds, depth {depth}, {threads} threads)"
            ),
        );
    }
}

#[test]
fn pipelined_is_bit_identical_under_simulated_stragglers() {
    let mut rng = SplitMix64::new(0x57A6);
    for trial in 0..6 {
        let n = rng.between(6, 20) as usize;
        let jobs = rand_jobs(&mut rng, n);
        let ranks = rng.between(2, 3) as usize;
        let fault = FaultPlan {
            straggler_ranks: vec![rng.below(ranks as u64) as usize],
            straggler_slowdown: 2.0 + rng.below(2) as f64,
            ..FaultPlan::default()
        };
        run_both(
            fault,
            (ranks, 2),
            &jobs,
            2,
            2,
            1 + trial,
            &format!("straggler trial {trial}"),
        );
    }
}

#[test]
fn wall_clock_hold_does_not_change_outputs() {
    // The hold sleeps the host thread on the straggler's odd launches; it
    // must be invisible in every simulated quantity.
    let mut rng = SplitMix64::new(0x401D);
    let jobs = rand_jobs(&mut rng, 12);
    let fault = FaultPlan {
        straggler_ranks: vec![0],
        straggler_slowdown: 2.0,
        straggler_hold_ms: 3.0,
        ..FaultPlan::default()
    };
    run_both(fault, (2, 2), &jobs, 3, 2, 4, "hold");
}

#[test]
fn parallel_intra_rank_is_bit_identical_under_fault_plans() {
    // Fault half: under random topologies, fault plans and thread budgets,
    // a recovering ticket must draw the same faults, take the same recovery
    // actions and keep the same simulated clock whether each rank's DPUs
    // ran sequentially or on the intra-rank pool.
    let mut rng = SplitMix64::new(0xACE5);
    for trial in 0..8 {
        let n = rng.between(4, 20) as usize;
        let pairs: Vec<(DnaSeq, DnaSeq)> = rand_jobs(&mut rng, n)
            .iter()
            .map(|(a, b)| (a.unpack(), b.unpack()))
            .collect();
        let ranks = rng.between(1, 3) as usize;
        let dpus = rng.between(2, 6) as usize;
        let threads = rng.between(2, 12) as usize;
        let fault = FaultPlan {
            seed: rng.next_u64(),
            dpu_fault_rate: 0.25,
            corrupt_rate: 0.2,
            disabled_dpus: vec![(
                rng.below(ranks as u64) as usize,
                rng.below(dpus as u64) as usize,
            )],
            ..FaultPlan::default()
        };
        let label = format!("fault trial {trial} ({ranks}x{dpus}, {threads} threads)");
        let mut cfg = DispatchConfig::new(kernel(), params());
        let rcfg = RecoveryConfig::default();
        cfg.sim_threads = 1;
        let (seq, seq_results) =
            align_pairs_recovering(&mut server(fault.clone(), ranks, dpus), &cfg, &rcfg, &pairs)
                .unwrap();
        cfg.sim_threads = threads;
        let (par, par_results) =
            align_pairs_recovering(&mut server(fault, ranks, dpus), &cfg, &rcfg, &pairs).unwrap();
        assert_eq!(seq_results, par_results, "{label}: results");
        assert_eq!(seq.fault, par.fault, "{label}: fault reports");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&seq.rank_seconds),
            bits(&par.rank_seconds),
            "{label}: rank_seconds"
        );
        assert_eq!(
            seq.transfer_seconds.to_bits(),
            par.transfer_seconds.to_bits(),
            "{label}: transfer_seconds"
        );
        assert_eq!(
            seq.dpu_seconds.to_bits(),
            par.dpu_seconds.to_bits(),
            "{label}: dpu_seconds"
        );
        assert_eq!(
            seq.mean_rank_imbalance.to_bits(),
            par.mean_rank_imbalance.to_bits(),
            "{label}: imbalance"
        );
        assert_eq!(seq.stats, par.stats, "{label}: stats");
        assert_eq!(
            seq.transfer_in_bytes, par.transfer_in_bytes,
            "{label}: bytes_in"
        );
        assert_eq!(
            seq.transfer_out_bytes, par.transfer_out_bytes,
            "{label}: bytes_out"
        );
        assert_eq!(seq.workload, par.workload, "{label}: workload");
    }
}

#[test]
fn recovery_engines_agree_with_fault_free_reference() {
    // Recovery half: under a chaotic fault plan (a dead rank plus result
    // corruption) the recovery engine must still complete every job with
    // the fault-free answer at the minimum and the default FIFO depth.
    // The schedules diverge (retries land on different launches), so the
    // comparison is against the clean reference, not each other.
    let mut rng = SplitMix64::new(0xDEAD);
    let pairs: Vec<(DnaSeq, DnaSeq)> = (0..10)
        .map(|_| {
            let len = rng.between(30, 60) as usize;
            let a = rand_seq(&mut rng, len);
            let mut text = a.to_ascii();
            text.insert(5, b'T');
            (a.clone(), DnaSeq::from_ascii(&text).unwrap())
        })
        .collect();
    let mut cfg = DispatchConfig::new(kernel(), params());
    let rcfg = RecoveryConfig::default();

    cfg.engine = Engine::Lockstep;
    let mut clean = server(FaultPlan::default(), 2, 3);
    let (_, reference) = align_pairs_recovering(&mut clean, &cfg, &rcfg, &pairs).unwrap();
    assert_eq!(reference.len(), pairs.len());

    let fault = FaultPlan {
        seed: 7,
        dead_ranks: vec![0],
        corrupt_rate: 0.2,
        ..FaultPlan::default()
    };
    for (engine, label) in [
        (Engine::Lockstep, "fifo depth 1"),
        (Engine::Pipelined { fifo_depth: 2 }, "fifo depth 2"),
    ] {
        cfg.engine = engine;
        let mut faulty = server(fault.clone(), 2, 3);
        let (report, results) = align_pairs_recovering(&mut faulty, &cfg, &rcfg, &pairs).unwrap();
        assert_eq!(results, reference, "{label}: results");
        assert_eq!(report.fault.dead_ranks, vec![0], "{label}: dead rank");
        assert!(report.fault.retried_jobs > 0, "{label}: retried nothing");
    }
}

#[test]
fn engines_survive_hangs_and_silent_corruption_with_audited_results() {
    // Under a seeded plan mixing tasklet livelocks (reaped by the
    // cycle-budget watchdog, no wall-clock involved) with silent CIGAR
    // corruption (checksum recomputed, only the audit can catch it), the
    // recovery engine must deliver bit-identical results to the fault-free
    // reference at the minimum and the default FIFO depth — zero lost
    // jobs, zero wrong results. A one-shot run's passes launch the same
    // batches at any depth, so its fault accounting must replay
    // bit-identically across depths.
    let mut rng = SplitMix64::new(0xBEEF);
    let pairs: Vec<(DnaSeq, DnaSeq)> = (0..12)
        .map(|_| {
            let len = rng.between(30, 60) as usize;
            let a = rand_seq(&mut rng, len);
            let mut text = a.to_ascii();
            text.insert(7, b'G');
            (a.clone(), DnaSeq::from_ascii(&text).unwrap())
        })
        .collect();
    let mut cfg = DispatchConfig::new(kernel(), params());
    let rcfg = RecoveryConfig {
        max_attempts: 12,
        quarantine_after: 100,
        audit: true,
        ..Default::default()
    };
    let watched = |fault: FaultPlan| {
        let mut scfg = ServerConfig::with_ranks(2);
        scfg.dpus_per_rank = 3;
        scfg.fault = fault;
        scfg.dpu.watchdog_cycles = 2_000_000;
        pim_sim::PimServer::new(scfg)
    };

    cfg.engine = Engine::Lockstep;
    let mut clean = watched(FaultPlan::default());
    let (_, reference) = align_pairs_recovering(&mut clean, &cfg, &rcfg, &pairs).unwrap();
    assert_eq!(reference.len(), pairs.len());

    let fault = FaultPlan {
        seed: 0x5EED,
        hang_rate: 0.25,
        silent_corrupt_rate: 0.3,
        ..FaultPlan::default()
    };
    let mut reports = Vec::new();
    for (engine, label) in [
        (Engine::Lockstep, "fifo depth 1"),
        (Engine::Pipelined { fifo_depth: 2 }, "fifo depth 2"),
    ] {
        cfg.engine = engine;
        let mut faulty = watched(fault.clone());
        let (report, results) = align_pairs_recovering(&mut faulty, &cfg, &rcfg, &pairs).unwrap();
        assert_eq!(results, reference, "{label}: results");
        assert!(
            report.fault.watchdog_expired > 0,
            "{label}: no hang reaped: {}",
            report.fault.summary()
        );
        assert!(
            report.fault.budget_escalations > 0,
            "{label}: expiries must escalate the budget"
        );
        assert!(
            report.fault.silent_corruptions > 0,
            "{label}: no corruption injected: {}",
            report.fault.summary()
        );
        assert!(
            report.fault.audit_failures > 0,
            "{label}: the audit must reject the mutated CIGARs"
        );
        assert_eq!(report.fault.corrupt_results, 0, "{label}: checksums pass");
        assert_eq!(report.fault.cpu_fallbacks, 0, "{label}: retries suffice");
        reports.push(report.fault);
    }
    assert_eq!(
        reports[0], reports[1],
        "fault accounting must replay bit-identically at any FIFO depth"
    );
}
