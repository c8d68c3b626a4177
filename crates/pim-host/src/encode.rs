//! On-the-fly 2-bit encoding (§4.1.1).
//!
//! Reads arrive as ASCII ("as it comes from a human-readable text file on
//! disk"); the host packs them to 2 bits/base while distributing batches,
//! which brings the transfer below 15 % of total execution on S1000 and to
//! a negligible fraction on long-read datasets.

use nw_core::error::AlignError;
use nw_core::seq::{Base, DnaSeq, NPolicy, PackedSeq};

/// Encoding statistics (feeds the transfer/encode cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// ASCII bytes consumed.
    pub ascii_bytes: u64,
    /// Packed bytes produced.
    pub packed_bytes: u64,
    /// Ambiguous `N` bases substituted.
    pub n_substituted: u64,
}

impl EncodeStats {
    /// Compression ratio achieved (4.0 in the limit).
    pub fn ratio(&self) -> f64 {
        if self.packed_bytes == 0 {
            return 0.0;
        }
        self.ascii_bytes as f64 / self.packed_bytes as f64
    }

    /// Fold in another stats block.
    pub fn merge(&mut self, other: &EncodeStats) {
        self.ascii_bytes += other.ascii_bytes;
        self.packed_bytes += other.packed_bytes;
        self.n_substituted += other.n_substituted;
    }
}

/// The host-side encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    policy: NPolicy,
    pub(crate) stats: EncodeStats,
}

impl Encoder {
    /// Encoder with the paper's `N` policy (random substitution).
    pub fn new(seed: u64) -> Self {
        Self {
            policy: NPolicy::RandomSubstitute { seed },
            stats: EncodeStats::default(),
        }
    }

    /// Encoder with an explicit policy.
    pub fn with_policy(policy: NPolicy) -> Self {
        Self {
            policy,
            stats: EncodeStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> EncodeStats {
        self.stats
    }

    /// Encode ASCII directly to the packed wire format in a single pass —
    /// no intermediate unpacked sequence is materialized, mirroring the
    /// "done on the fly while also distributing the data" of §4.1.1.
    pub fn encode_ascii(&mut self, text: &[u8]) -> Result<PackedSeq, AlignError> {
        let mut data = vec![0u8; text.len().div_ceil(4)];
        for (i, &byte) in text.iter().enumerate() {
            let code = match Base::from_ascii(byte) {
                Some(b) => b.code(),
                None => {
                    let b = self.policy.resolve(i, byte)?;
                    self.stats.n_substituted += 1;
                    b.code()
                }
            };
            data[i / 4] |= code << ((i % 4) * 2);
        }
        self.stats.ascii_bytes += text.len() as u64;
        self.stats.packed_bytes += data.len() as u64;
        Ok(PackedSeq::from_raw(data, text.len()).expect("sized correctly"))
    }

    /// Encode an already-parsed sequence (generator output). Counted in the
    /// stats as if it had been ASCII, since that is what the real pipeline
    /// reads from disk.
    pub fn encode_seq(&mut self, seq: &DnaSeq) -> PackedSeq {
        let packed = seq.pack();
        self.stats.ascii_bytes += seq.len() as u64;
        self.stats.packed_bytes += packed.byte_len() as u64;
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_encoding_matches_parse_then_pack() {
        let text = b"ACGTACGTGGTTCA";
        let mut enc = Encoder::new(1);
        let direct = enc.encode_ascii(text).unwrap();
        let via_seq = DnaSeq::from_ascii(text).unwrap().pack();
        assert_eq!(direct, via_seq);
        assert_eq!(enc.stats().ascii_bytes, 14);
        assert_eq!(enc.stats().packed_bytes, 4);
    }

    #[test]
    fn n_substitution_matches_dnaseq_policy() {
        // The encoder must produce the same bases as DnaSeq's policy so
        // host-side and test-side views agree.
        let text = b"ACNnGT";
        for policy in [
            NPolicy::RandomSubstitute { seed: 77 },
            NPolicy::FixedSubstitute(Base::G),
        ] {
            let mut enc = Encoder::with_policy(policy);
            let packed = enc.encode_ascii(text).unwrap();
            let seq = DnaSeq::from_ascii_with(text, policy).unwrap();
            assert_eq!(packed.unpack(), seq);
            assert_eq!(enc.stats().n_substituted, 2);
        }
    }

    #[test]
    fn rejects_bad_bytes() {
        let mut enc = Encoder::new(0);
        assert!(enc.encode_ascii(b"ACGZ").is_err());
        let mut strict = Encoder::with_policy(NPolicy::Reject);
        assert!(strict.encode_ascii(b"ACGN").is_err());
    }

    #[test]
    fn ratio_approaches_four() {
        let mut enc = Encoder::new(0);
        enc.encode_ascii(&b"ACGT".repeat(1000)).unwrap();
        let r = enc.stats().ratio();
        assert!((3.9..=4.0).contains(&r), "ratio {r}");
    }

    #[test]
    fn stats_merge() {
        let mut a = EncodeStats {
            ascii_bytes: 4,
            packed_bytes: 1,
            n_substituted: 0,
        };
        a.merge(&EncodeStats {
            ascii_bytes: 8,
            packed_bytes: 2,
            n_substituted: 3,
        });
        assert_eq!(
            a,
            EncodeStats {
                ascii_bytes: 12,
                packed_bytes: 3,
                n_substituted: 3
            }
        );
        assert_eq!(EncodeStats::default().ratio(), 0.0);
    }
}
