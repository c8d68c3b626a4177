//! Randomized tests for the alignment core.
//!
//! These check the algebraic invariants the rest of the system (DPU kernel,
//! host pipeline, benchmarks) relies on: banded aligners never beat the
//! exact DP, wide bands are exact, CIGARs always reconstruct their inputs,
//! and the 2-bit packing is lossless. Cases come from a seeded
//! [`SplitMix64`] stream, so every run exercises the same inputs.

use nw_core::adaptive::AdaptiveAligner;
use nw_core::banded::BandedAligner;
use nw_core::cigar::Cigar;
use nw_core::full::FullAligner;
use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq};
use nw_core::traceback::{BtCell, BtRow};
use nw_core::wfa::{Penalties, WfaAligner};
use nw_core::ScoringScheme;

fn rand_seq(rng: &mut SplitMix64, max_len: usize) -> DnaSeq {
    let len = rng.below(max_len as u64 + 1) as usize;
    (0..len)
        .map(|_| Base::from_code(rng.below(4) as u8))
        .collect()
}

fn rand_scheme(rng: &mut SplitMix64) -> ScoringScheme {
    ScoringScheme::new(
        rng.between(1, 4) as i32,
        rng.between(0, 6) as i32,
        rng.between(0, 8) as i32,
        rng.between(1, 4) as i32,
    )
}

/// A pair of related sequences: `b` derives from `a` through point mutations
/// and short indels, like reads from the same genomic region.
fn related_pair(rng: &mut SplitMix64) -> (DnaSeq, DnaSeq) {
    let a = rand_seq(rng, 60);
    let mut b: Vec<Base> = a.as_slice().to_vec();
    for _ in 0..rng.below(8) {
        if b.is_empty() {
            break;
        }
        let pos = rng.below(b.len() as u64) as usize;
        let code = Base::from_code(rng.below(4) as u8);
        match rng.below(6) {
            0..=2 => b[pos] = code,       // substitution
            3 | 4 => b.insert(pos, code), // insertion
            _ => {
                b.remove(pos);
            }
        }
    }
    (a, DnaSeq::from_bases(b))
}

const TRIALS: usize = 80;

#[test]
fn packing_round_trips() {
    let mut rng = SplitMix64::new(1);
    for _ in 0..TRIALS {
        let seq = rand_seq(&mut rng, 300);
        let packed = seq.pack();
        assert_eq!(packed.unpack(), seq);
        assert_eq!(packed.len(), seq.len());
        assert_eq!(packed.byte_len(), seq.len().div_ceil(4));
    }
}

#[test]
fn reverse_complement_involution() {
    let mut rng = SplitMix64::new(2);
    for _ in 0..TRIALS {
        let seq = rand_seq(&mut rng, 200);
        assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }
}

#[test]
fn full_align_score_matches_score_only() {
    let mut rng = SplitMix64::new(3);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let scheme = rand_scheme(&mut rng);
        let full = FullAligner::affine(scheme);
        let aln = full.align(&a, &b).unwrap();
        assert_eq!(aln.score, full.score(&a, &b));
        assert!(aln.cigar.validate(&a, &b).is_ok());
        assert_eq!(aln.cigar.score(&scheme), aln.score);
    }
}

#[test]
fn score_is_symmetric() {
    let mut rng = SplitMix64::new(5);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let full = FullAligner::affine(rand_scheme(&mut rng));
        assert_eq!(full.score(&a, &b), full.score(&b, &a));
    }
}

#[test]
fn self_alignment_is_perfect() {
    let mut rng = SplitMix64::new(6);
    for _ in 0..TRIALS {
        let a = rand_seq(&mut rng, 80);
        let scheme = rand_scheme(&mut rng);
        let full = FullAligner::affine(scheme);
        assert_eq!(full.score(&a, &a), scheme.perfect(a.len()));
    }
}

#[test]
fn wide_adaptive_band_is_exact() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let scheme = rand_scheme(&mut rng);
        let w = 2 * (a.len() + b.len()) + 4;
        let adaptive = AdaptiveAligner::new(scheme, w);
        let full = FullAligner::affine(scheme);
        let aln = adaptive.align(&a, &b).unwrap();
        assert_eq!(aln.score, full.score(&a, &b));
        assert!(aln.cigar.validate(&a, &b).is_ok());
        assert_eq!(aln.cigar.score(&scheme), aln.score);
    }
}

#[test]
fn wide_static_band_is_exact() {
    let mut rng = SplitMix64::new(8);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let scheme = rand_scheme(&mut rng);
        let w = 2 * (a.len() + b.len()) + 4;
        let banded = BandedAligner::new(scheme, w);
        let full = FullAligner::affine(scheme);
        let aln = banded.align(&a, &b).unwrap();
        assert_eq!(aln.score, full.score(&a, &b));
        assert!(aln.cigar.validate(&a, &b).is_ok());
    }
}

#[test]
fn banded_never_beats_optimal() {
    let mut rng = SplitMix64::new(9);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let scheme = ScoringScheme::default();
        let optimal = FullAligner::affine(scheme).score(&a, &b);
        for w in [4usize, 8, 16, 32] {
            if let Ok(s) = BandedAligner::new(scheme, w).score(&a, &b) {
                assert!(s <= optimal, "static w={w} score {s} > optimal {optimal}");
            }
            if let Ok(s) = AdaptiveAligner::new(scheme, w).score(&a, &b) {
                assert!(s <= optimal, "adaptive w={w} score {s} > optimal {optimal}");
            }
        }
    }
}

#[test]
fn adaptive_cigar_consistent_at_any_width() {
    let mut rng = SplitMix64::new(10);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let w = rng.between(4, 39) as usize;
        let scheme = ScoringScheme::default();
        if let Ok(aln) = AdaptiveAligner::new(scheme, w).align(&a, &b) {
            assert!(aln.cigar.validate(&a, &b).is_ok());
            assert_eq!(aln.cigar.score(&scheme), aln.score);
        }
    }
}

#[test]
fn static_cigar_consistent_at_any_width() {
    let mut rng = SplitMix64::new(11);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let w = rng.between(4, 39) as usize;
        let scheme = ScoringScheme::default();
        if let Ok(aln) = BandedAligner::new(scheme, w).align(&a, &b) {
            assert!(aln.cigar.validate(&a, &b).is_ok());
            assert_eq!(aln.cigar.score(&scheme), aln.score);
        }
    }
}

#[test]
fn adaptive_window_always_covers_final_cell() {
    let mut rng = SplitMix64::new(12);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let w = rng.between(8, 47) as usize;
        if let Ok(out) = AdaptiveAligner::new(ScoringScheme::default(), w).align_traced(&a, &b) {
            let o_final = *out.trace.origins.last().unwrap();
            let k = a.len() as i64 - o_final;
            assert!((0..w as i64).contains(&k));
            // Down-shift count equals total origin movement.
            assert_eq!(out.trace.downs() as i64, o_final - out.trace.origins[0]);
        }
    }
}

#[test]
fn cigar_text_round_trips() {
    let mut rng = SplitMix64::new(13);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let aln = FullAligner::affine(ScoringScheme::default())
            .align(&a, &b)
            .unwrap();
        let text = aln.cigar.to_string();
        if text.is_empty() {
            assert_eq!(a.len() + b.len(), 0);
        } else {
            assert_eq!(Cigar::parse(&text).unwrap(), aln.cigar);
        }
    }
}

#[test]
fn bt_row_round_trips() {
    let mut rng = SplitMix64::new(14);
    for _ in 0..TRIALS {
        let cells: Vec<u8> = (0..rng.between(1, 127))
            .map(|_| rng.below(16) as u8)
            .collect();
        let mut row = BtRow::new(cells.len());
        for (i, &c) in cells.iter().enumerate() {
            row.set(i, BtCell(c));
        }
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(row.get(i).bits(), c & 0x0F);
        }
        let rebuilt = BtRow::from_bytes(row.as_bytes().to_vec(), cells.len()).unwrap();
        for (i, &c) in cells.iter().enumerate() {
            assert_eq!(rebuilt.get(i).bits(), c & 0x0F);
        }
    }
}

#[test]
fn wfa_agrees_with_gotoh_through_the_transform() {
    let mut rng = SplitMix64::new(15);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let scheme = ScoringScheme::default();
        let pens = Penalties::from_scheme(&scheme);
        let wfa = WfaAligner::new(pens);
        let aln = wfa.align(&a, &b).unwrap();
        assert!(aln.cigar.validate(&a, &b).is_ok());
        let score = pens.penalty_to_score(&scheme, a.len(), b.len(), aln.penalty);
        let full = FullAligner::affine(scheme);
        assert_eq!(score, full.score(&a, &b));
        // The CIGAR rescored under the maximizing scheme reaches the same
        // optimum (WFA and Gotoh agree on the alignment, not just the value).
        assert_eq!(aln.cigar.score(&scheme), score);
    }
}

#[test]
fn wfa_penalty_is_metric_like() {
    let mut rng = SplitMix64::new(16);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let wfa = WfaAligner::new(Penalties::default());
        let p_ab = wfa.penalty(&a, &b).unwrap();
        let p_ba = wfa.penalty(&b, &a).unwrap();
        assert_eq!(p_ab, p_ba, "symmetry");
        assert_eq!(wfa.penalty(&a, &a).unwrap(), 0, "identity");
    }
}

#[test]
fn identity_is_bounded() {
    let mut rng = SplitMix64::new(17);
    for _ in 0..TRIALS {
        let (a, b) = related_pair(&mut rng);
        let aln = FullAligner::affine(ScoringScheme::default())
            .align(&a, &b)
            .unwrap();
        let id = aln.identity();
        assert!((0.0..=1.0).contains(&id));
    }
}
