//! Result-cache integration properties. The one-shot cached path
//! ([`align_pairs_cached`]: cache pre-pass, one `align_pairs` job ticket
//! over the misses, audited post-pass) must be invisible to callers:
//!
//! * **Equivalence** — cold and warm cached runs return results
//!   bit-identical (score AND cigar) to an uncached
//!   `align_pairs` run and to the host-side adaptive aligner.
//! * **Cache safety** — a cached result is indistinguishable from a fresh
//!   computation even when the engine underneath is running a seeded
//!   fault plan, and a result the audit would reject can never enter the
//!   cache (so it can never be served twice).

use datasets::mutate::{mutate, ErrorModel};
use datasets::{random_seq, rng};
use dpu_kernel::layout::{JobResult, JobStatus};
use dpu_kernel::{KernelParams, NwKernel};
use nw_core::adaptive::AdaptiveAligner;
use nw_core::cigar::Cigar;
use nw_core::seq::DnaSeq;
use nw_core::{job_key_seqs, ScoringScheme};
use pim_host::cache::{resolve, serve_hits};
use pim_host::dispatch::DispatchConfig;
use pim_host::{align_pairs, align_pairs_cached, CachedRun, RecoveryConfig, ResultCache};
use pim_sim::{FaultPlan, PimServer, ServerConfig};

const BAND: usize = 64;

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

fn dispatch() -> DispatchConfig {
    let params = KernelParams {
        band: BAND,
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    DispatchConfig {
        recovery: RecoveryConfig {
            max_attempts: 3,
            quarantine_after: 2,
            audit: true,
            ..Default::default()
        },
        ..DispatchConfig::new(NwKernel::paper_default(), params)
    }
}

fn server(plan: FaultPlan) -> PimServer {
    let mut cfg = ServerConfig::with_ranks(2);
    cfg.dpus_per_rank = 4;
    cfg.fault = plan;
    // Finite cycle budget so injected livelocks are reaped in simulated
    // time rather than stalling the test.
    cfg.dpu.watchdog_cycles = 50_000_000;
    PimServer::new(cfg)
}

/// One uncached run on a fresh server.
fn uncached(plan: FaultPlan, pairs: &[(DnaSeq, DnaSeq)]) -> Vec<JobResult> {
    align_pairs(&mut server(plan), &dispatch(), pairs)
        .expect("recovering run completes")
        .1
}

/// One cached run on a fresh server.
fn cached(plan: FaultPlan, pairs: &[(DnaSeq, DnaSeq)], cache: &mut ResultCache) -> CachedRun {
    align_pairs_cached(&mut server(plan), &dispatch(), pairs, cache).expect("cached run completes")
}

/// The cache is invisible to callers: a cold run (within-run duplicates
/// served through the cache) and a warm run (every pair a hit) return
/// exactly what an uncached recovering run returns — and all of them match
/// the host-side adaptive aligner the kernels are contracted to reproduce.
#[test]
fn cached_path_is_bit_identical_to_uncached_and_adaptive() {
    let base = noisy_pairs(16, 400, 11);
    // 24 requests over 16 unique pairs: the last 8 repeat the first 8.
    let pairs: Vec<(DnaSeq, DnaSeq)> = (0..24).map(|i| base[i % base.len()].clone()).collect();
    let reference = uncached(FaultPlan::default(), &pairs);
    let mut cache = ResultCache::new(256);
    let cold = cached(FaultPlan::default(), &pairs, &mut cache);
    let warm = cached(FaultPlan::default(), &pairs, &mut cache);
    assert_eq!(cold.results.len(), pairs.len());
    assert_eq!(cold.results, reference, "cold cached run vs uncached");
    assert_eq!(warm.results, reference, "warm cached run vs uncached");

    let aligner = AdaptiveAligner::new(ScoringScheme::default(), BAND);
    for ((a, b), r) in pairs.iter().zip(&cold.results) {
        let want = aligner.align(a, b).expect("reference aligns");
        assert_eq!(r.status, JobStatus::Ok);
        assert_eq!(r.score, want.score);
        assert_eq!(r.cigar, want.cigar);
    }
    // The cold run computed each unique pair in one ticket; the warm run
    // hit on everything and ran no ticket at all.
    assert_eq!(cold.report.as_ref().map(|r| r.alignments), Some(16));
    assert_eq!((cold.cache.misses, cold.cache.hits), (16, 8));
    assert_eq!(warm.cache.hits, 24);
    assert!(warm.report.is_none());
}

/// Cache-safety property under seeded fault plans: whatever the chaos plan
/// does underneath, a cached result is bit-identical to a fresh fault-free
/// computation — on the cold run (within-run duplicates), on the warm run
/// (cross-run hits), and for every entry resident in the cache afterwards.
#[test]
fn cached_results_match_fresh_computation_under_fault_plans() {
    for seed in [3u64, 17, 99] {
        let base = noisy_pairs(10, 350, seed);
        // 30 requests over 10 unique pairs: each unique appears 3x, so the
        // cold run already exercises the duplicate path.
        let pairs: Vec<(DnaSeq, DnaSeq)> = (0..30).map(|i| base[i % base.len()].clone()).collect();

        let reference = uncached(FaultPlan::default(), &pairs);

        let plan = || FaultPlan::chaos(seed, 2, 4, 1, 0.15, 0.1, 0.05, 0.1);
        let mut cache = ResultCache::new(256);
        let cold = cached(plan(), &pairs, &mut cache);
        let warm = cached(plan(), &pairs, &mut cache);

        assert_eq!(
            cold.results, reference,
            "seed {seed}: cold cached run diverged"
        );
        assert_eq!(
            warm.results, reference,
            "seed {seed}: warm cached run diverged"
        );
        assert!(cold.cache.conserved(), "seed {seed}");
        assert!(warm.cache.conserved(), "seed {seed}");
        // The cold run computes each unique once and serves the 20
        // duplicates through the cache; the warm run hits on everything.
        assert!(cold.cache.hits >= 20, "seed {seed}: {:?}", cold.cache);
        assert_eq!(warm.cache.hits, 30, "seed {seed}: {:?}", warm.cache);

        // Every resident entry equals the fault-free reference.
        let scheme = ScoringScheme::default();
        for ((a, b), want) in base.iter().zip(&reference) {
            let key = job_key_seqs(a, b, &scheme, BAND, false);
            let got = cache.lookup(&key).expect("unique pair stays resident");
            assert_eq!(&got, want, "seed {seed}: cache holds a divergent result");
        }
    }
}

/// The audit gate on insert: corrupted or failed results are returned to
/// the caller that computed them (recovery's problem) but can never enter
/// the cache, so they can never be served again.
#[test]
fn audit_rejected_results_never_enter_the_cache() {
    let scheme = ScoringScheme::default();
    let base = noisy_pairs(3, 200, 5);
    // Index 3 duplicates index 0 so the alias path runs too.
    let pairs = vec![
        base[0].clone(),
        base[1].clone(),
        base[2].clone(),
        base[0].clone(),
    ];
    let aligner = AdaptiveAligner::new(scheme, BAND);
    let good: Vec<JobResult> = base
        .iter()
        .map(|(a, b)| {
            let aln = aligner.align(a, b).unwrap();
            JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: aln.cigar,
            }
        })
        .collect();

    let mut cache = ResultCache::new(64);
    let pre = serve_hits(Some(&mut cache), &pairs, &scheme, BAND, false);
    assert_eq!(pre.work, vec![0, 1, 2]);
    assert_eq!(pre.aliases, vec![(3, 0)]);

    // Pair 0 computes cleanly; pair 1 comes back silently corrupted
    // (score off by one — a checksum would still pass); pair 2 failed.
    let mut slots = pre.slots;
    slots[0] = Some(good[0].clone());
    let mut corrupt = good[1].clone();
    corrupt.score += 1;
    slots[1] = Some(corrupt.clone());
    slots[2] = Some(JobResult {
        status: JobStatus::OutOfBand,
        score: 0,
        cigar: Cigar::new(),
    });
    let results = resolve(
        Some(&mut cache),
        &pairs,
        &scheme,
        BAND,
        false,
        slots,
        &pre.keys,
        &pre.work,
        &pre.aliases,
    );

    // The caller gets back exactly what was computed (the corrupt result
    // is recovery's problem, not the cache's to rewrite) …
    assert_eq!(results[1], corrupt);
    // … and the alias of the clean pair was served.
    assert_eq!(results[3], good[0]);

    // But only the audited-clean result is resident.
    let key = |i: usize| job_key_seqs(&base[i].0, &base[i].1, &scheme, BAND, false);
    assert!(cache.lookup(&key(0)).is_some());
    assert!(cache.lookup(&key(1)).is_none(), "corrupt result was cached");
    assert!(cache.lookup(&key(2)).is_none(), "failed result was cached");
    let s = cache.stats();
    assert_eq!(s.rejected_inserts, 2, "{s:?}");
    assert_eq!(s.inserts, 1, "{s:?}");
    assert!(s.conserved(), "{s:?}");

    // The next cached run recomputes the two rejected pairs instead of
    // replaying them, and serves the clean one and its alias from the cache.
    let again = cached(FaultPlan::default(), &pairs, &mut cache);
    let want = vec![
        good[0].clone(),
        good[1].clone(),
        good[2].clone(),
        good[0].clone(),
    ];
    assert_eq!(again.results, want);
    assert_eq!(
        (again.cache.hits, again.cache.misses),
        (2, 2),
        "{:?}",
        again.cache
    );
}
