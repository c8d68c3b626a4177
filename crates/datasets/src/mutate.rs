//! The shared sequencing-error model.
//!
//! Reads derive from a template through three error classes:
//! substitutions, insertions and deletions. Indel lengths are geometric
//! (mostly 1–3 bp), plus an optional *structural* gap class producing the
//! >100 bp gaps the paper highlights in its PacBio sets (§5).

use nw_core::rng::SplitMix64;
use nw_core::seq::{Base, DnaSeq};

/// Error model parameters. Rates are per-base probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Substitution probability per base.
    pub substitution: f64,
    /// Insertion-event probability per base.
    pub insertion: f64,
    /// Deletion-event probability per base.
    pub deletion: f64,
    /// Mean geometric indel length (>= 1).
    pub mean_indel_len: f64,
    /// Probability per base of a long structural gap event.
    pub structural_gap: f64,
    /// Structural gap length range (inclusive).
    pub structural_len: (usize, usize),
}

impl ErrorModel {
    /// WFA-generator-style uniform error: `rate` split 1/3 substitutions,
    /// 1/3 insertions, 1/3 deletions, short indels.
    pub fn uniform(rate: f64) -> Self {
        Self {
            substitution: rate / 3.0,
            insertion: rate / 3.0,
            deletion: rate / 3.0,
            mean_indel_len: 1.5,
            structural_gap: 0.0,
            structural_len: (0, 0),
        }
    }

    /// PacBio-like raw reads: high error with occasional long gaps
    /// ("a high error rate and the presence of significant gaps (exceeding
    /// 100 bp)", §5).
    pub fn pacbio_raw() -> Self {
        Self {
            substitution: 0.04,
            insertion: 0.045,
            deletion: 0.045,
            mean_indel_len: 2.0,
            structural_gap: 0.00004,
            structural_len: (100, 400),
        }
    }
}

/// What a mutation pass actually did (for asserting dataset statistics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationStats {
    /// Substituted bases.
    pub substitutions: usize,
    /// Inserted bases (sum of insertion lengths).
    pub inserted: usize,
    /// Deleted bases.
    pub deleted: usize,
    /// Structural gap events.
    pub structural_gaps: usize,
    /// Longest single gap produced.
    pub max_gap: usize,
}

fn geometric_len(rng: &mut SplitMix64, mean: f64) -> usize {
    // Geometric with success probability 1/mean, at least 1.
    let p = (1.0 / mean.max(1.0)).clamp(0.01, 1.0);
    let mut len = 1;
    while len < 64 && !rng.chance(p) {
        len += 1;
    }
    len
}

/// Apply the error model to `template`, returning the read and statistics.
pub fn mutate(
    template: &DnaSeq,
    model: &ErrorModel,
    rng: &mut SplitMix64,
) -> (DnaSeq, MutationStats) {
    let mut out: Vec<Base> = Vec::with_capacity(template.len() + 16);
    let mut stats = MutationStats::default();
    let mut i = 0usize;
    while i < template.len() {
        let roll: f64 = rng.next_f64();
        let mut acc = model.structural_gap;
        if roll < acc {
            // Structural event: long insertion or deletion, 50/50.
            let (lo, hi) = model.structural_len;
            let len = if hi > lo {
                rng.between(lo as u64, hi as u64) as usize
            } else {
                lo.max(1)
            };
            stats.structural_gaps += 1;
            stats.max_gap = stats.max_gap.max(len);
            if rng.chance(0.5) {
                for _ in 0..len {
                    out.push(Base::from_code(rng.below(4) as u8));
                }
                stats.inserted += len;
                // Template position unchanged; the copy continues below.
                out.push(template.get(i));
                i += 1;
            } else {
                let len = len.min(template.len() - i);
                stats.deleted += len;
                i += len;
            }
            continue;
        }
        acc += model.substitution;
        if roll < acc {
            let original = template.get(i);
            let replacement = loop {
                let b = Base::from_code(rng.below(4) as u8);
                if b != original {
                    break b;
                }
            };
            out.push(replacement);
            stats.substitutions += 1;
            i += 1;
            continue;
        }
        acc += model.insertion;
        if roll < acc {
            let len = geometric_len(rng, model.mean_indel_len);
            for _ in 0..len {
                out.push(Base::from_code(rng.below(4) as u8));
            }
            stats.inserted += len;
            stats.max_gap = stats.max_gap.max(len);
            out.push(template.get(i));
            i += 1;
            continue;
        }
        acc += model.deletion;
        if roll < acc {
            let len = geometric_len(rng, model.mean_indel_len).min(template.len() - i);
            stats.deleted += len;
            stats.max_gap = stats.max_gap.max(len);
            i += len;
            continue;
        }
        out.push(template.get(i));
        i += 1;
    }
    (DnaSeq::from_bases(out), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{random_seq, rng};

    #[test]
    fn zero_error_is_identity() {
        let mut r = rng(3);
        let t = random_seq(&mut r, 500);
        let (read, stats) = mutate(&t, &ErrorModel::uniform(0.0), &mut r);
        assert_eq!(read, t);
        assert_eq!(stats, MutationStats::default());
    }

    #[test]
    fn error_rate_is_roughly_respected() {
        let mut r = rng(11);
        let t = random_seq(&mut r, 50_000);
        let model = ErrorModel::uniform(0.06);
        let (read, stats) = mutate(&t, &model, &mut r);
        let events = stats.substitutions as f64;
        // Substitution rate = 2% of 50k = ~1000, allow wide tolerance.
        assert!(events > 600.0 && events < 1500.0, "{stats:?}");
        // Length roughly preserved (ins ~ del).
        let diff = read.len() as i64 - t.len() as i64;
        assert!(diff.unsigned_abs() < 1000, "length drift {diff}");
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let t = random_seq(&mut rng(5), 2000);
        let model = ErrorModel::uniform(0.05);
        let (a, sa) = mutate(&t, &model, &mut rng(99));
        let (b, sb) = mutate(&t, &model, &mut rng(99));
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn pacbio_model_produces_long_gaps() {
        let mut r = rng(21);
        let t = random_seq(&mut r, 60_000);
        let model = ErrorModel::pacbio_raw();
        let mut saw_structural = false;
        for _ in 0..10 {
            let (_, stats) = mutate(&t, &model, &mut r);
            if stats.structural_gaps > 0 {
                saw_structural = true;
                assert!(stats.max_gap >= 100, "{stats:?}");
            }
        }
        assert!(
            saw_structural,
            "expected at least one structural gap over 600 kb"
        );
    }

    #[test]
    fn substitutions_never_preserve_the_base() {
        let mut r = rng(8);
        let t = random_seq(&mut r, 5000);
        let model = ErrorModel {
            substitution: 1.0,
            insertion: 0.0,
            deletion: 0.0,
            mean_indel_len: 1.0,
            structural_gap: 0.0,
            structural_len: (0, 0),
        };
        let (read, stats) = mutate(&t, &model, &mut r);
        assert_eq!(stats.substitutions, t.len());
        for i in 0..t.len() {
            assert_ne!(read.get(i), t.get(i), "position {i}");
        }
    }

    #[test]
    fn geometric_lengths_have_sane_mean() {
        let mut r = rng(13);
        let lens: Vec<usize> = (0..2000).map(|_| geometric_len(&mut r, 2.0)).collect();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(mean > 1.4 && mean < 2.6, "mean {mean}");
        assert!(lens.iter().all(|&l| l >= 1));
    }
}
