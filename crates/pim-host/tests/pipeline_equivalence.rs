//! Randomized equivalence tests for the dispatch engine: on any job set,
//! topology and FIFO depth, every mode's job ticket (`align_pairs`,
//! `all_vs_all`, `align_sets`) must be bit-identical to the same ticket at
//! FIFO depth 1 on one simulator thread — same results, same simulated
//! per-rank seconds, same aggregate statistics. Stragglers (both the
//! simulated slowdown and the wall-clock hold) may only change *host*
//! timing, never outputs. Cases come from a seeded [`SplitMix64`] stream.

use dpu_kernel::layout::{JobBatchBuilder, SeqRef};
use dpu_kernel::{JobResult, KernelParams, KernelVariant, NwKernel, PoolConfig};
use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq, PackedSeq};
use nw_core::ScoringScheme;
use pim_host::balance::{lpt_assign, workload};
use pim_host::dispatch::{execute_rounds, DispatchOutcome, DpuPlan, RankPlan};
use pim_host::encode::Encoder;
use pim_host::recovery::RecoveryConfig;
use pim_host::{align_pairs, align_sets, all_vs_all, DispatchConfig, Engine, ExecutionReport};
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

fn assert_bit_identical(
    (lock, lock_results): &(ExecutionReport, Vec<JobResult>),
    (pipe, pipe_results): &(ExecutionReport, Vec<JobResult>),
    label: &str,
) {
    assert_eq!(lock_results, pipe_results, "{label}: results");
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
    assert_eq!(
        lock.transfer_in_bytes, pipe.transfer_in_bytes,
        "{label}: bytes_in"
    );
    assert_eq!(
        lock.transfer_out_bytes, pipe.transfer_out_bytes,
        "{label}: bytes_out"
    );
    assert_eq!(lock.stats, pipe.stats, "{label}: stats");
    assert_eq!(
        lock.mean_rank_imbalance.to_bits(),
        pipe.mean_rank_imbalance.to_bits(),
        "{label}: imbalance"
    );
    assert_eq!(lock.workload, pipe.workload, "{label}: workload");
    assert_eq!(lock.fault, pipe.fault, "{label}: fault report");
}

/// Run `jobs` through all three modes at `depth` on `sim_threads`:
/// `align_pairs` over the pairs, `all_vs_all` over their first
/// sequences, and `align_sets` over every sequence in sets of three.
fn run_modes(
    fault: &FaultPlan,
    (ranks, dpus): (usize, usize),
    jobs: &[(PackedSeq, PackedSeq)],
    n_rounds: usize,
    depth: usize,
    sim_threads: usize,
) -> Vec<(ExecutionReport, Vec<JobResult>)> {
    let mut cfg = DispatchConfig::new(kernel(), params());
    cfg.rounds = n_rounds;
    cfg.engine = Engine::Pipelined { fifo_depth: depth };
    cfg.sim_threads = sim_threads;
    let pairs: Vec<(DnaSeq, DnaSeq)> = jobs.iter().map(|(a, b)| (a.unpack(), b.unpack())).collect();
    let firsts: Vec<DnaSeq> = pairs.iter().map(|(a, _)| a.clone()).collect();
    let sets: Vec<Vec<DnaSeq>> = pairs
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect::<Vec<_>>()
        .chunks(3)
        .map(<[DnaSeq]>::to_vec)
        .collect();
    let fresh = || server(fault.clone(), ranks, dpus);
    let (sets_report, grouped) = align_sets(&mut fresh(), &cfg, &sets).unwrap();
    vec![
        align_pairs(&mut fresh(), &cfg, &pairs).unwrap(),
        all_vs_all(&mut fresh(), &cfg, &firsts).unwrap(),
        (sets_report, grouped.concat()),
    ]
}

/// Every mode at FIFO depths 2–4 on `sim_threads` against the same mode
/// at depth 1 on one thread: the comparison also property-checks the
/// intra-rank pool.
fn run_depths(
    fault: FaultPlan,
    topo: (usize, usize),
    jobs: &[(PackedSeq, PackedSeq)],
    n_rounds: usize,
    sim_threads: usize,
    label: &str,
) {
    let lock = run_modes(&fault, topo, jobs, n_rounds, 1, 1);
    for depth in 2..=4 {
        let pipe = run_modes(&fault, topo, jobs, n_rounds, depth, sim_threads);
        for ((mode, lock), pipe) in ["align_pairs", "all_vs_all", "align_sets"]
            .iter()
            .zip(&lock)
            .zip(&pipe)
        {
            assert_bit_identical(lock, pipe, &format!("{label}, {mode} at depth {depth}"));
        }
    }
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
        let threads = rng.between(1, 8) as usize;
        run_depths(
            FaultPlan::default(),
            (ranks, dpus),
            &jobs,
            n_rounds,
            threads,
            &format!("trial {trial} ({ranks}x{dpus}, {n_rounds} rounds, {threads} threads)"),
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
        run_depths(
            fault,
            (ranks, 2),
            &jobs,
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
    run_depths(fault, (2, 2), &jobs, 3, 4, "hold");
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
        cfg.sim_threads = 1;
        let (seq, seq_results) =
            align_pairs(&mut server(fault.clone(), ranks, dpus), &cfg, &pairs).unwrap();
        cfg.sim_threads = threads;
        let (par, par_results) =
            align_pairs(&mut server(fault, ranks, dpus), &cfg, &pairs).unwrap();
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

    cfg.engine = Engine::Lockstep;
    let mut clean = server(FaultPlan::default(), 2, 3);
    let (_, reference) = align_pairs(&mut clean, &cfg, &pairs).unwrap();
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
        let (report, results) = align_pairs(&mut faulty, &cfg, &pairs).unwrap();
        assert_eq!(results, reference, "{label}: results");
        assert_eq!(report.fault.dead_ranks, vec![0], "{label}: dead rank");
        assert!(report.fault.retried_jobs > 0, "{label}: retried nothing");
    }
}

#[test]
fn engines_survive_hangs_and_silent_corruption_with_audited_results() {
    // Under a seeded plan mixing tasklet livelocks (reaped by each launch's
    // derived cycle budget, no wall-clock involved) with silent CIGAR
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
    cfg.recovery = RecoveryConfig {
        max_attempts: 12,
        quarantine_after: 100,
        audit: true,
        ..Default::default()
    };
    let watched = |fault: FaultPlan| {
        let mut scfg = ServerConfig::with_ranks(2);
        scfg.dpus_per_rank = 3;
        scfg.fault = fault;
        pim_sim::PimServer::new(scfg)
    };

    cfg.engine = Engine::Lockstep;
    let mut clean = watched(FaultPlan::default());
    let (_, reference) = align_pairs(&mut clean, &cfg, &pairs).unwrap();
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
        let (report, results) = align_pairs(&mut faulty, &cfg, &pairs).unwrap();
        assert_eq!(results, reference, "{label}: results");
        assert!(
            report.fault.watchdog_expired > 0,
            "{label}: no hang reaped: {}",
            report.fault.summary()
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

/// The paper's broadcast placement (§5.3), built up front as the modes
/// built it before they ran on job tickets: the arena in the top half of
/// MRAM, and the pair index space split statically and in order into
/// equal slices over every DPU. Returns the outcome with the broadcast
/// counted in, and the scores in pair order.
fn static_split_oracle(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    seqs: &[DnaSeq],
) -> (DispatchOutcome, Vec<JobResult>) {
    let (n_ranks, dpus) = (server.rank_count(), server.cfg().dpus_per_rank);
    let mram = server.cfg().dpu.mram_size;
    let mut params = cfg.params;
    params.score_only = true;
    let arena_base = mram / 2;
    let mut encoder = Encoder::new(0x165);
    let mut arena: Vec<u8> = Vec::new();
    let mut refs = Vec::new();
    for s in seqs {
        let packed = encoder.encode_seq(s);
        refs.push(SeqRef {
            off: (arena_base + arena.len()) as u32,
            len: packed.len() as u32,
        });
        arena.extend_from_slice(packed.as_bytes());
        arena.resize(arena.len().next_multiple_of(8), 0);
    }
    server.broadcast_to_mram(arena_base, &arena).unwrap();
    let n = seqs.len();
    let pair_ids: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let per_dpu = pair_ids.len().div_ceil(n_ranks * dpus).max(1);
    let plans = (0..n_ranks)
        .map(|r| RankPlan {
            params: Some(params),
            dpus: (0..dpus)
                .map(|d| {
                    let lo = ((r * dpus + d) * per_dpu).min(pair_ids.len());
                    let hi = ((r * dpus + d + 1) * per_dpu).min(pair_ids.len());
                    (lo < hi).then(|| {
                        let mut builder = JobBatchBuilder::new(params, cfg.kernel.pool_cfg.pools);
                        builder.set_footprint_limit(arena_base);
                        for &(i, j) in &pair_ids[lo..hi] {
                            builder.add_pair_external(refs[i], refs[j]);
                        }
                        DpuPlan {
                            job_ids: (lo..hi).collect(),
                            batch: builder.build(mram).unwrap(),
                        }
                    })
                })
                .collect(),
        })
        .collect();
    let mut out = execute_rounds(server, &cfg.kernel, vec![plans], cfg.sim_threads).unwrap();
    out.bytes_in += arena.len() as u64;
    out.transfer_seconds += arena.len() as f64 / server.cfg().host_bandwidth;
    let results = in_id_order(&mut out, pair_ids.len());
    (out, results)
}

/// The paper's read-set placement (§5.4), built up front: whole sets
/// LPT-balanced by workload over every DPU (bin `r × dpus + d` on rank
/// `r`), each set's reads shipped once and its pairs added by index.
/// Returns the outcome and the results, sets in order, pairs in `(i, j)`
/// order within a set.
fn set_lpt_oracle(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    sets: &[Vec<DnaSeq>],
) -> (DispatchOutcome, Vec<JobResult>) {
    let (n_ranks, dpus) = (server.rank_count(), server.cfg().dpus_per_rank);
    let mram = server.cfg().dpu.mram_size;
    let mut encoder = Encoder::new(0x9AC);
    let packed: Vec<Vec<PackedSeq>> = sets
        .iter()
        .map(|reads| reads.iter().map(|r| encoder.encode_seq(r)).collect())
        .collect();
    let workloads: Vec<u64> = packed
        .iter()
        .map(|reads| {
            let n = reads.len();
            (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .map(|(i, j)| workload(reads[i].len(), reads[j].len(), cfg.params.band))
                .sum()
        })
        .collect();
    let mut base = Vec::new();
    let mut total = 0;
    for reads in &packed {
        base.push(total);
        total += reads.len() * reads.len().saturating_sub(1) / 2;
    }
    let bins = lpt_assign(&workloads, n_ranks * dpus);
    let plans = (0..n_ranks)
        .map(|r| RankPlan {
            params: Some(cfg.params),
            dpus: (0..dpus)
                .map(|d| {
                    let bin = &bins[r * dpus + d];
                    (!bin.is_empty()).then(|| {
                        let mut builder =
                            JobBatchBuilder::new(cfg.params, cfg.kernel.pool_cfg.pools);
                        let mut job_ids = Vec::new();
                        for &s in bin {
                            let reads = &packed[s];
                            let at: Vec<usize> =
                                reads.iter().map(|p| builder.add_seq(p.clone())).collect();
                            let mut id = base[s];
                            for i in 0..reads.len() {
                                for j in (i + 1)..reads.len() {
                                    builder.add_pair_idx(at[i], at[j]);
                                    job_ids.push(id);
                                    id += 1;
                                }
                            }
                        }
                        DpuPlan {
                            job_ids,
                            batch: builder.build(mram).unwrap(),
                        }
                    })
                })
                .collect(),
        })
        .collect();
    let mut out = execute_rounds(server, &cfg.kernel, vec![plans], cfg.sim_threads).unwrap();
    let results = in_id_order(&mut out, total);
    (out, results)
}

/// Take an outcome's tagged results out in job-id order, checking that
/// every id in `0..len` came back exactly once.
fn in_id_order(out: &mut DispatchOutcome, len: usize) -> Vec<JobResult> {
    let mut tagged = std::mem::take(&mut out.results);
    tagged.sort_by_key(|(id, _)| *id);
    assert!(tagged.iter().map(|(id, _)| *id).eq(0..len));
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// On a healthy server, the first pass of `all_vs_all` and `align_sets` is
/// the paper's placement: the same launches, bit for bit, as the static
/// split and the set LPT built up front and run through `execute_rounds`,
/// at FIFO depths 1 and 2.
#[test]
fn first_pass_is_the_papers_placement_bit_for_bit() {
    let mut rng = SplitMix64::new(0x5EC7);
    for trial in 0..4 {
        let n = rng.between(3, 14) as usize;
        let jobs = rand_jobs(&mut rng, n);
        let ranks = rng.between(1, 3) as usize;
        let dpus = rng.between(1, 5) as usize;
        let seqs: Vec<DnaSeq> = jobs.iter().map(|(a, _)| a.unpack()).collect();
        let sets: Vec<Vec<DnaSeq>> = jobs
            .iter()
            .flat_map(|(a, b)| [a.unpack(), b.unpack()])
            .collect::<Vec<_>>()
            .chunks(1 + trial)
            .map(<[DnaSeq]>::to_vec)
            .collect();
        let mut cfg = DispatchConfig::new(kernel(), params());
        let (bcast, bcast_results) =
            static_split_oracle(&mut server(FaultPlan::default(), ranks, dpus), &cfg, &seqs);
        let (set, set_results) =
            set_lpt_oracle(&mut server(FaultPlan::default(), ranks, dpus), &cfg, &sets);
        for fifo_depth in [1, 2] {
            cfg.engine = Engine::Pipelined { fifo_depth };
            let label = format!("trial {trial} ({ranks}x{dpus}), depth {fifo_depth}");
            let fresh = || server(FaultPlan::default(), ranks, dpus);
            let (report, results) = all_vs_all(&mut fresh(), &cfg, &seqs).unwrap();
            assert_outcome(&bcast, &bcast_results, &report, &results, &label);
            let (report, grouped) = align_sets(&mut fresh(), &cfg, &sets).unwrap();
            assert_outcome(&set, &set_results, &report, &grouped.concat(), &label);
        }
    }
}

fn assert_outcome(
    want: &DispatchOutcome,
    want_results: &[JobResult],
    got: &ExecutionReport,
    got_results: &[JobResult],
    label: &str,
) {
    assert_eq!(want_results, got_results, "{label}: results");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&want.rank_seconds),
        bits(&got.rank_seconds),
        "{label}: rank_seconds"
    );
    assert_eq!(
        want.dpu_seconds.to_bits(),
        got.dpu_seconds.to_bits(),
        "{label}: dpu_seconds"
    );
    assert_eq!(
        want.transfer_seconds.to_bits(),
        got.transfer_seconds.to_bits(),
        "{label}: transfer_seconds"
    );
    assert_eq!(want.bytes_in, got.transfer_in_bytes, "{label}: bytes_in");
    assert_eq!(want.bytes_out, got.transfer_out_bytes, "{label}: bytes_out");
    assert_eq!(want.stats, got.stats, "{label}: stats");
    assert_eq!(want.workload, got.workload, "{label}: workload");
    assert_eq!(
        want.mean_rank_imbalance.to_bits(),
        got.mean_rank_imbalance.to_bits(),
        "{label}: imbalance"
    );
    assert!(got.fault.is_clean(), "{label}: {}", got.fault.summary());
}
