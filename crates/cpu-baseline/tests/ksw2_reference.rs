//! The KSW2-style aligner must be bit-identical to the reference banded
//! aligner: same scores, same CIGARs, same errors, on random sequence
//! pairs across band widths, and its score-only path must return the
//! score of its full alignment.
//!
//! Randomness comes from a hand-rolled splitmix-style LCG so the tests
//! stay deterministic and dependency-free. `KSW2_SMOKE_TRIALS` lets CI
//! run the property test at smoke scale.

use cpu_baseline::Ksw2Aligner;
use nw_core::banded::BandedAligner;
use nw_core::seq::DnaSeq;
use nw_core::ScoringScheme;

/// Deterministic 64-bit mixer (splitmix64 step).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn trials() -> usize {
    std::env::var("KSW2_SMOKE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

fn random_seq(rng: &mut Lcg, len: usize) -> DnaSeq {
    let bases = b"ACGT";
    let text: Vec<u8> = (0..len).map(|_| bases[(rng.next() & 3) as usize]).collect();
    DnaSeq::from_ascii(&text).expect("valid bases")
}

/// Mutate `a` into a related sequence so alignments exercise all three
/// origins (substitutions, insertions, deletions) instead of pure noise.
fn mutate(rng: &mut Lcg, a: &DnaSeq, rate_pct: u64) -> DnaSeq {
    let bases = b"ACGT";
    let mut text = Vec::with_capacity(a.len() + 8);
    for i in 0..a.len() {
        let roll = rng.next() % 100;
        if roll < rate_pct {
            match rng.next() % 3 {
                0 => text.push(bases[(rng.next() & 3) as usize]), // substitute
                1 => {
                    // insert
                    text.push(bases[(rng.next() & 3) as usize]);
                    text.push(a.get(i).to_ascii());
                }
                _ => {} // delete
            }
        } else {
            text.push(a.get(i).to_ascii());
        }
    }
    DnaSeq::from_ascii(&text).expect("valid bases")
}

/// Two seeded draws: long pairs over narrow-to-medium bands (most of the
/// trials), and shorter, less mutated pairs over medium bands.
#[test]
fn ksw2_matches_the_reference_aligner() {
    let scheme = ScoringScheme::default();
    // (seed, trials, max length, mutation-rate span, min band, band span)
    for (seed, n, max_len, rate_span, band_min, band_span) in [
        (0x51D_CAFE, trials(), 300, 18, 2, 64),
        (0xBAD_5EED, trials().min(40), 120, 10, 8, 32),
    ] {
        let mut rng = Lcg(seed);
        let mut aligned = 0usize;
        for trial in 0..n {
            let len = 1 + (rng.next() as usize % max_len);
            let a = random_seq(&mut rng, len);
            let rate = 2 + rng.next() % rate_span;
            let b = mutate(&mut rng, &a, rate);
            let band = band_min + (rng.next() as usize % band_span);
            let ksw = Ksw2Aligner::new(scheme, band);
            let reference = BandedAligner::new(scheme, band);
            match (ksw.align(&a, &b), reference.align(&a, &b)) {
                (Ok(k), Ok(r)) => {
                    assert_eq!(k.score, r.score, "{seed:#x} trial {trial}: score");
                    assert_eq!(k.cigar, r.cigar, "{seed:#x} trial {trial}: CIGAR");
                    assert_eq!(
                        ksw.score(&a, &b).expect("score-only"),
                        k.score,
                        "{seed:#x} trial {trial}: score-only path diverged"
                    );
                    aligned += 1;
                }
                (Err(ke), Err(re)) => assert_eq!(ke, re, "{seed:#x} trial {trial}"),
                (k, r) => panic!("{seed:#x} trial {trial}: divergence: {k:?} vs {r:?}"),
            }
        }
        // The band draws keep most pairs alignable; make sure the test is
        // not vacuously passing on OutOfBand everywhere.
        assert!(aligned * 2 > n, "{seed:#x}: only {aligned} of {n} aligned");
    }
}
