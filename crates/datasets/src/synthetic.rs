//! WFA-generator-style synthetic pair datasets: S1000, S10000, S30000.
//!
//! The paper generates these "using the data generator provided in the WFA
//! GitHub repository" (§5): independent random reads of a nominal length,
//! each paired with a mutated copy at a uniform error rate. The dataset is
//! *organized by pairs*, which makes it the most communication-heavy
//! workload (§5.2).

use crate::mutate::{mutate, ErrorModel};
use crate::{random_seq, rng};
use nw_core::seq::DnaSeq;

/// The three synthetic presets of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticPreset {
    /// ~1 000 bp reads, 10 M pairs at full scale.
    S1000,
    /// ~10 000 bp reads, 1 M pairs.
    S10000,
    /// ~30 000 bp reads, 500 k pairs.
    S30000,
}

impl SyntheticPreset {
    /// Nominal read length.
    pub fn read_len(self) -> usize {
        match self {
            SyntheticPreset::S1000 => 1_000,
            SyntheticPreset::S10000 => 10_000,
            SyntheticPreset::S30000 => 30_000,
        }
    }

    /// Pair count at full (paper) scale.
    pub fn full_pairs(self) -> u64 {
        match self {
            SyntheticPreset::S1000 => 10_000_000,
            SyntheticPreset::S10000 => 1_000_000,
            SyntheticPreset::S30000 => 500_000,
        }
    }

    /// Dataset label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SyntheticPreset::S1000 => "S1000",
            SyntheticPreset::S10000 => "S10000",
            SyntheticPreset::S30000 => "S30000",
        }
    }

    /// All three presets.
    pub const ALL: [SyntheticPreset; 3] = [
        SyntheticPreset::S1000,
        SyntheticPreset::S10000,
        SyntheticPreset::S30000,
    ];
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticParams {
    /// Nominal read length.
    pub read_len: usize,
    /// +- jitter applied to each read's length (fraction of `read_len`).
    pub len_jitter: f64,
    /// Uniform error rate between the two reads of a pair (WFA's `-e`).
    pub error_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticParams {
    /// Parameters for a preset (2 % divergence, the WFA generator default
    /// regime for "similar sequences").
    pub fn preset(p: SyntheticPreset, seed: u64) -> Self {
        Self {
            read_len: p.read_len(),
            len_jitter: 0.02,
            error_rate: 0.02,
            seed,
        }
    }

    /// Generate `count` pairs.
    pub fn generate(&self, count: usize) -> Vec<(DnaSeq, DnaSeq)> {
        let mut r = rng(self.seed);
        let model = ErrorModel::uniform(self.error_rate);
        (0..count)
            .map(|_| {
                let jitter = (self.read_len as f64 * self.len_jitter) as usize;
                let len = if jitter > 0 {
                    self.read_len - jitter + r.between(0, 2 * jitter as u64) as usize
                } else {
                    self.read_len
                };
                let a = random_seq(&mut r, len);
                let (b, _) = mutate(&a, &model, &mut r);
                (a, b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        assert_eq!(SyntheticPreset::S1000.read_len(), 1000);
        assert_eq!(SyntheticPreset::S1000.full_pairs(), 10_000_000);
        assert_eq!(SyntheticPreset::S10000.full_pairs(), 1_000_000);
        assert_eq!(SyntheticPreset::S30000.full_pairs(), 500_000);
        assert_eq!(SyntheticPreset::S30000.label(), "S30000");
    }

    #[test]
    fn pairs_are_similar_but_not_identical() {
        let pairs = SyntheticParams::preset(SyntheticPreset::S1000, 42).generate(5);
        assert_eq!(pairs.len(), 5);
        for (a, b) in &pairs {
            assert_ne!(a, b, "2% error must change something at 1 kb");
            let ratio = b.len() as f64 / a.len() as f64;
            assert!((0.9..1.1).contains(&ratio));
            // Lengths near the nominal 1000 +- 2%.
            assert!((950..=1050).contains(&a.len()), "{}", a.len());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = SyntheticParams::preset(SyntheticPreset::S1000, 7);
        assert_eq!(p.generate(3), p.generate(3));
        let q = SyntheticParams::preset(SyntheticPreset::S1000, 8);
        assert_ne!(p.generate(3), q.generate(3));
    }

    #[test]
    fn zero_jitter_is_exact_length() {
        let p = SyntheticParams {
            read_len: 500,
            len_jitter: 0.0,
            error_rate: 0.0,
            seed: 1,
        };
        let pairs = p.generate(2);
        assert_eq!(pairs[0].0.len(), 500);
        assert_eq!(pairs[0].0, pairs[0].1);
    }
}
