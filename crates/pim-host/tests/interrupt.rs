//! The host-interrupt contract of [`pim_host::interrupt`]: an interrupted
//! job ticket (`align_pairs`, `all_vs_all`) returns one slot per input,
//! every unfinished slot an explicit `Cancelled` that the fault report
//! counts, and nothing handed to the CPU fallback; after `reset()` runs
//! are clean again.
//!
//! The interrupt flag is process-global, so this file is its own test
//! binary and checks the contract in one test, in order.

use dpu_kernel::{JobResult, JobStatus, KernelParams, KernelVariant, NwKernel, PoolConfig};
use nw_core::adaptive::AdaptiveAligner;
use nw_core::seq::DnaSeq;
use nw_core::ScoringScheme;
use pim_host::modes::{align_pairs, all_vs_all};
use pim_host::{interrupt, DispatchConfig, Engine, ExecutionReport};
use pim_sim::{FaultPlan, PimServer, ServerConfig};
use std::time::{Duration, Instant};

fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
    (0..n)
        .map(|k| {
            let a = "ACGTGGTCAT".repeat(4 + k % 3);
            let mut b = a.clone();
            b.insert_str(3 + k % 5, "TG");
            (
                DnaSeq::from_ascii(a.as_bytes()).unwrap(),
                DnaSeq::from_ascii(b.as_bytes()).unwrap(),
            )
        })
        .collect()
}

fn config(engine: Engine) -> DispatchConfig {
    let kernel = NwKernel::new(
        PoolConfig {
            pools: 2,
            tasklets: 4,
        },
        KernelVariant::Asm,
    );
    let params = KernelParams {
        band: 16,
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    let mut cfg = DispatchConfig::new(kernel, params);
    cfg.engine = engine;
    cfg.rounds = 1;
    cfg
}

fn server(fault: FaultPlan) -> PimServer {
    let mut cfg = ServerConfig::with_ranks(2);
    cfg.dpus_per_rank = 3;
    cfg.fault = fault;
    PimServer::new(cfg)
}

/// Score-only results of every `(i, j)`, `i < j`, pair of `seqs`.
fn score_reference(seqs: &[DnaSeq]) -> Vec<JobResult> {
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), 16);
    let n = seqs.len();
    (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| JobResult {
            status: JobStatus::Ok,
            score: aligner.score(&seqs[i], &seqs[j]).unwrap(),
            cigar: Default::default(),
        })
        .collect()
}

fn reference(ps: &[(DnaSeq, DnaSeq)]) -> Vec<JobResult> {
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), 16);
    ps.iter()
        .map(|(a, b)| {
            let aln = aligner.align(a, b).unwrap();
            JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: aln.cigar,
            }
        })
        .collect()
}

/// The partial-results contract: one slot per input, each a finished
/// result or an explicit cancellation, cancellations counted exactly, and
/// no unfinished job handed to the CPU.
fn assert_partial(report: &ExecutionReport, results: &[JobResult], want: &[JobResult], tag: &str) {
    assert_eq!(results.len(), want.len(), "{tag}: one slot per input");
    let mut cancelled = 0;
    for (k, (got, want)) in results.iter().zip(want).enumerate() {
        if got.status == JobStatus::Cancelled {
            cancelled += 1;
        } else {
            assert_eq!(got, want, "{tag}: finished slot {k}");
        }
    }
    assert_eq!(
        report.fault.interrupted_jobs,
        cancelled,
        "{tag}: {}",
        report.fault.summary()
    );
    assert!(cancelled > 0, "{tag}: the interrupt abandoned nothing");
    assert_eq!(report.fault.cpu_fallbacks, 0, "{tag}");
}

#[test]
fn interrupted_runs_return_partial_results_and_reset_restores_clean_runs() {
    let ps = pairs(10);
    let want = reference(&ps);
    let seqs: Vec<DnaSeq> = ps.iter().map(|(a, _)| a.clone()).collect();
    let want_scores = score_reference(&seqs);
    let engines = [Engine::Lockstep, Engine::Pipelined { fifo_depth: 2 }];
    interrupt::reset();

    // Interrupt before the run: nothing launches, every slot is cancelled.
    interrupt::trip();
    for engine in engines {
        let tag = format!("tripped before, {engine:?}");
        let (report, results) =
            align_pairs(&mut server(FaultPlan::default()), &config(engine), &ps).unwrap();
        assert_partial(&report, &results, &want, &tag);
        assert_eq!(report.fault.interrupted_jobs, ps.len(), "{tag}");
        let (report, scores) =
            all_vs_all(&mut server(FaultPlan::default()), &config(engine), &seqs).unwrap();
        let tag = format!("all_vs_all {tag}");
        assert_partial(&report, &scores, &want_scores, &tag);
        assert_eq!(report.fault.interrupted_jobs, want_scores.len(), "{tag}");
    }
    interrupt::reset();

    // Interrupt mid-run: rank 0's first launch holds the host for a long
    // wall-clock stretch; the interrupt cuts it short, and the slots it had
    // not finished come back cancelled.
    let hold = Duration::from_secs(20);
    let straggler = straggler_plan(hold);
    let start = Instant::now();
    let tripper = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(300));
        interrupt::trip();
    });
    let (report, results) = align_pairs(
        &mut server(straggler),
        &config(Engine::Pipelined { fifo_depth: 2 }),
        &ps,
    )
    .unwrap();
    tripper.join().unwrap();
    assert!(
        start.elapsed() < hold,
        "the interrupt must cut the hold short"
    );
    assert_partial(&report, &results, &want, "tripped mid-run");
    interrupt::reset();

    // The same mid-run interrupt of an `all_vs_all` ticket: the slots it
    // had not finished come back cancelled.
    let start = Instant::now();
    let tripper = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(300));
        interrupt::trip();
    });
    let (report, scores) = all_vs_all(
        &mut server(straggler_plan(hold)),
        &config(Engine::Pipelined { fifo_depth: 2 }),
        &seqs,
    )
    .unwrap();
    tripper.join().unwrap();
    assert!(
        start.elapsed() < hold,
        "the interrupt must cut the hold short"
    );
    assert_partial(&report, &scores, &want_scores, "all_vs_all tripped mid-run");
    interrupt::reset();

    // After reset, both modes run clean again.
    for engine in engines {
        let (report, results) =
            align_pairs(&mut server(FaultPlan::default()), &config(engine), &ps).unwrap();
        assert!(report.fault.is_clean(), "{}", report.fault.summary());
        assert_eq!(results, want, "{engine:?}");
        let (report, scores) =
            all_vs_all(&mut server(FaultPlan::default()), &config(engine), &seqs).unwrap();
        assert!(report.fault.is_clean(), "{}", report.fault.summary());
        assert_eq!(scores, want_scores, "{engine:?}");
    }
}

/// Rank 0 holds the host for `hold` of wall-clock on its odd launches.
fn straggler_plan(hold: Duration) -> FaultPlan {
    FaultPlan {
        straggler_ranks: vec![0],
        straggler_hold_ms: hold.as_millis() as f64,
        ..FaultPlan::default()
    }
}
