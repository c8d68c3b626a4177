//! Cross-crate integration: the full simulated PiM pipeline must agree with
//! the host-side reference aligners on realistic data, end to end.

use upmem_nw::datasets::mutate::{mutate, ErrorModel};
use upmem_nw::datasets::{random_seq, rng};
use upmem_nw::nw_core::seq::DnaSeq;
use upmem_nw::pim_host::modes::{align_pairs, align_sets, all_vs_all};
use upmem_nw::prelude::*;

fn small_server(ranks: usize, dpus: usize) -> PimServer {
    let mut cfg = ServerConfig::with_ranks(ranks);
    cfg.dpus_per_rank = dpus;
    PimServer::new(cfg)
}

fn dispatch(band: usize, score_only: bool) -> DispatchConfig {
    let params = KernelParams {
        band,
        scheme: ScoringScheme::default(),
        score_only,
    };
    DispatchConfig::new(NwKernel::paper_default(), params)
}

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

#[test]
fn pim_pipeline_equals_host_adaptive_aligner() {
    let pairs = noisy_pairs(40, 600, 1);
    let mut server = small_server(2, 8);
    let cfg = dispatch(64, false);
    let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    assert_eq!(report.alignments, 40);
    let reference = AdaptiveAligner::new(ScoringScheme::default(), 64);
    for ((a, b), r) in pairs.iter().zip(&results) {
        let host = reference.align(a, b).unwrap();
        assert_eq!(r.score, host.score);
        assert_eq!(r.cigar, host.cigar);
        r.cigar.validate(a, b).unwrap();
    }
}

#[test]
fn pim_pipeline_matches_exact_dp_when_band_is_wide() {
    // With a band wider than any drift, the kernel must recover the optimum.
    let pairs = noisy_pairs(10, 300, 2);
    let mut server = small_server(1, 4);
    let cfg = dispatch(256, false);
    let (_, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    let full = FullAligner::affine(ScoringScheme::default());
    for ((a, b), r) in pairs.iter().zip(&results) {
        assert_eq!(
            r.score,
            full.score(a, b),
            "band 256 on 5% error @300bp is exact"
        );
    }
}

/// The 4-thread driver returns, pair by pair and in input order, what its
/// single-pair aligner returns on one thread.
#[test]
fn threaded_cpu_baseline_matches_single_pair_aligner() {
    let pairs = noisy_pairs(25, 500, 3);
    let cpu = CpuBaseline::new(ScoringScheme::default(), 64, 4);
    let outcome = cpu.align_all(&pairs);
    let reference = BandedAligner::new(ScoringScheme::default(), 64);
    for ((a, b), r) in pairs.iter().zip(&outcome.results) {
        match (r, reference.align(a, b)) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.score, y.score);
                assert_eq!(x.cigar, y.cigar);
            }
            (Err(e1), Err(e2)) => assert_eq!(*e1, e2),
            (x, y) => panic!("divergence: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn score_only_mode_agrees_across_all_three_paths() {
    let seqs: Vec<DnaSeq> = {
        let mut r = rng(4);
        let root = random_seq(&mut r, 400);
        let model = ErrorModel::uniform(0.04);
        (0..8).map(|_| mutate(&root, &model, &mut r).0).collect()
    };
    let mut server = small_server(2, 4);
    let cfg = dispatch(64, true);
    let (_, results) = all_vs_all(&mut server, &cfg, &seqs).unwrap();
    let adaptive = AdaptiveAligner::new(ScoringScheme::default(), 64);
    let mut idx = 0;
    for i in 0..seqs.len() {
        for j in (i + 1)..seqs.len() {
            let host = adaptive.score(&seqs[i], &seqs[j]).unwrap();
            assert_eq!(results[idx].score, host, "pair ({i},{j})");
            idx += 1;
        }
    }
}

#[test]
fn sets_mode_preserves_set_structure_under_load_balancing() {
    let mut r = rng(5);
    let model = ErrorModel::uniform(0.08);
    let sets: Vec<Vec<DnaSeq>> = (0..5)
        .map(|k| {
            let region = random_seq(&mut r, 300 + 60 * k);
            (0..4 + k % 3)
                .map(|_| mutate(&region, &model, &mut r).0)
                .collect()
        })
        .collect();
    let mut server = small_server(2, 3);
    let cfg = dispatch(64, false);
    let (report, grouped) = align_sets(&mut server, &cfg, &sets).unwrap();
    assert_eq!(grouped.len(), sets.len());
    let mut total = 0;
    for (set, results) in sets.iter().zip(&grouped) {
        let expect = set.len() * (set.len() - 1) / 2;
        assert_eq!(results.len(), expect);
        total += expect;
        // Reads of the same region must align with high identity.
        for r in results {
            assert!(r.cigar.a_len() > 0);
        }
    }
    assert_eq!(report.alignments, total);
    assert_eq!(report.failed, 0);
}

#[test]
fn transfers_and_cycles_are_accounted() {
    let pairs = noisy_pairs(12, 400, 6);
    let mut server = small_server(2, 2);
    let cfg = dispatch(32, false);
    let (report, _) = align_pairs(&mut server, &cfg, &pairs).unwrap();
    assert!(report.transfer_in_bytes > 0);
    assert!(report.transfer_out_bytes > 0);
    assert!(report.stats.total.instructions > 0);
    assert!(report.stats.total.dma_transfers > 0);
    assert!(report.dpu_seconds > 0.0);
    assert!(report.total_seconds() >= report.dpu_seconds);
    // Workload follows eq. 6.
    let expect: u64 = pairs
        .iter()
        .map(|(a, b)| ((a.len() + b.len()) as u64) * 32)
        .sum();
    assert_eq!(report.workload, expect);
}

#[test]
fn rank_scaling_reduces_wall_time() {
    // One DPU per rank so each DPU runs many waves of its 6 pools — the
    // many-jobs-per-DPU regime where rank scaling is visible (the paper has
    // ~15k pairs per DPU).
    let pairs = noisy_pairs(96, 500, 7);
    let cfg = dispatch(32, false);
    let mut t = Vec::new();
    for ranks in [1usize, 2, 4] {
        let mut server = small_server(ranks, 1);
        let (report, _) = align_pairs(&mut server, &cfg, &pairs).unwrap();
        t.push(report.total_seconds());
    }
    assert!(t[1] < t[0], "2 ranks {} !< 1 rank {}", t[1], t[0]);
    assert!(t[2] < t[1], "4 ranks {} !< 2 ranks {}", t[2], t[1]);
    let ratio = t[0] / t[2];
    assert!(
        ratio > 2.0,
        "4x ranks should give >2x speedup, got {ratio:.2}"
    );
}
