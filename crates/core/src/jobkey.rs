//! Canonical content-addressed alignment-job identity.
//!
//! Two alignment requests are *the same job* exactly when they agree on
//! both packed sequences, the scoring scheme, the band width, and the
//! score-only mode — everything that determines the (score, CIGAR) result
//! under the bit-identity contract shared by every backend (DPU kernels,
//! CPU pool, CPU fallback). [`JobKey`] is a 128-bit hash over
//! that tuple: the key of the host-side result cache, stable across
//! processes and backends because it only sees canonical bytes (the 2-bit
//! packing normalizes case/encoding concerns away upstream).
//!
//! The hash is two independent FNV-1a 64-bit lanes (different offset
//! bases, lane 2 additionally folds a splitmix64 finalizer) over a
//! length-prefixed field stream. 128 bits make accidental collisions
//! negligible at any realistic cache size; length prefixes make the
//! encoding injective (no concatenation ambiguity between `a` and `b`).

use crate::scoring::ScoringScheme;
use crate::seq::{DnaSeq, PackedSeq};

/// 128-bit content hash identifying one alignment job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey {
    /// High lane (FNV-1a, offset basis 1).
    pub hi: u64,
    /// Low lane (FNV-1a offset basis 2, splitmix-finalized).
    pub lo: u64,
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_A: u64 = 0xCBF2_9CE4_8422_2325;
// Second lane: the same prime from a different, fixed starting point so
// the lanes never track each other.
const FNV_OFFSET_B: u64 = 0x6C62_272E_07BB_0142;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Lanes {
    a: u64,
    b: u64,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    fn bytes(&mut self, data: &[u8]) {
        for &byte in data {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Length-prefixed field: injective over field sequences.
    fn field(&mut self, data: &[u8]) {
        self.bytes(&(data.len() as u64).to_le_bytes());
        self.bytes(data);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> JobKey {
        JobKey {
            hi: self.a,
            lo: splitmix(self.b),
        }
    }
}

/// Hash one alignment job down to its canonical [`JobKey`].
///
/// The key covers: packed bytes *and* base length of both sequences (the
/// length disambiguates trailing-pad bytes of the 2-bit packing), the four
/// scoring-scheme magnitudes, the band width, and the score-only flag.
pub fn job_key(
    a: &PackedSeq,
    b: &PackedSeq,
    scheme: &ScoringScheme,
    band: usize,
    score_only: bool,
) -> JobKey {
    let mut h = Lanes::new();
    h.u64(a.len() as u64);
    h.field(a.as_bytes());
    h.u64(b.len() as u64);
    h.field(b.as_bytes());
    h.u64(scheme.match_score as u64);
    h.u64(scheme.mismatch_penalty as u64);
    h.u64(scheme.gap_open as u64);
    h.u64(scheme.gap_extend as u64);
    h.u64(band as u64);
    h.u64(u64::from(score_only));
    h.finish()
}

/// [`job_key`] over unpacked sequences (packs first, so the key is
/// identical to the packed-path key for the same bases).
pub fn job_key_seqs(
    a: &DnaSeq,
    b: &DnaSeq,
    scheme: &ScoringScheme,
    band: usize,
    score_only: bool,
) -> JobKey {
    job_key(&a.pack(), &b.pack(), scheme, band, score_only)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    #[test]
    fn equal_inputs_equal_keys_across_entry_points() {
        let a = seq("ACGTACGTACGT");
        let b = seq("ACGAACGTACGT");
        let s = ScoringScheme::default();
        let k1 = job_key_seqs(&a, &b, &s, 64, false);
        let k2 = job_key(&a.pack(), &b.pack(), &s, 64, false);
        assert_eq!(k1, k2);
        assert_eq!(format!("{k1}").len(), 32);
    }

    #[test]
    fn every_field_is_load_bearing() {
        let a = seq("ACGTACGTACGT");
        let b = seq("ACGAACGTACGT");
        let s = ScoringScheme::default();
        let base = job_key_seqs(&a, &b, &s, 64, false);
        // Sequences.
        assert_ne!(base, job_key_seqs(&b, &a, &s, 64, false), "order matters");
        assert_ne!(base, job_key_seqs(&a, &a, &s, 64, false));
        // Band and mode.
        assert_ne!(base, job_key_seqs(&a, &b, &s, 128, false));
        assert_ne!(base, job_key_seqs(&a, &b, &s, 64, true));
        // Each scoring magnitude.
        for field in 0..4 {
            let mut t = s;
            match field {
                0 => t.match_score += 1,
                1 => t.mismatch_penalty += 1,
                2 => t.gap_open += 1,
                _ => t.gap_extend += 1,
            }
            assert_ne!(base, job_key_seqs(&a, &b, &t, 64, false), "field {field}");
        }
    }

    #[test]
    fn concatenation_is_not_ambiguous() {
        // ("ACGT", "AC") vs ("ACGTAC", "") style splits must not collide:
        // the length prefixes separate the fields.
        let s = ScoringScheme::default();
        let k1 = job_key_seqs(&seq("ACGT"), &seq("ACAA"), &s, 64, false);
        let k2 = job_key_seqs(&seq("ACGTACAA"), &seq(""), &s, 64, false);
        let k3 = job_key_seqs(&seq("AC"), &seq("GTACAA"), &s, 64, false);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
        assert_ne!(k2, k3);
    }

    #[test]
    fn keys_are_stable_across_calls() {
        let a = seq("GATTACA");
        let b = seq("GATTA");
        let s = ScoringScheme::unit();
        assert_eq!(
            job_key_seqs(&a, &b, &s, 32, true),
            job_key_seqs(&a, &b, &s, 32, true)
        );
    }
}
