//! DNA sequences: alphabet, ASCII parsing, and the 2-bit packed encoding that
//! the paper's host program produces on the fly before shipping batches to
//! the DPUs (§4.1.1).
//!
//! Sequencers emit an ambiguous base `N` when a nucleotide was detected but
//! not identified. Following the paper (and metaFlye), `N` is substituted by
//! a deterministic pseudo-random nucleotide at parse time so that the packed
//! alphabet is exactly {A, C, G, T} and fits 2 bits per base.

use crate::error::AlignError;
use crate::rng::SplitMix64;

/// A nucleotide. The discriminant is the 2-bit on-the-wire code used in
/// [`PackedSeq`]: the same code the simulated DPU kernels unpack with shift
/// instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Base {
    /// Adenine (code 0).
    A = 0,
    /// Cytosine (code 1).
    C = 1,
    /// Guanine (code 2).
    G = 2,
    /// Thymine (code 3).
    T = 3,
}

impl Base {
    /// All four nucleotides, indexable by 2-bit code.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Decode a 2-bit code (only the low 2 bits are observed).
    #[inline]
    pub fn from_code(code: u8) -> Base {
        Self::ALL[(code & 0b11) as usize]
    }

    /// The 2-bit code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// ASCII letter (upper-case).
    #[inline]
    pub fn to_ascii(self) -> u8 {
        match self {
            Base::A => b'A',
            Base::C => b'C',
            Base::G => b'G',
            Base::T => b'T',
        }
    }

    /// Watson–Crick complement.
    #[inline]
    pub fn complement(self) -> Base {
        Self::from_code(self.code() ^ 0b11)
    }

    /// Parse one ASCII byte. `N`/`n` is *not* accepted here — ambiguous bases
    /// are a sequence-level policy, see [`NPolicy`].
    #[inline]
    pub fn from_ascii(byte: u8) -> Option<Base> {
        match byte {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }
}

/// What to do with ambiguous `N` bases when parsing ASCII (§4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NPolicy {
    /// Reject the sequence with [`AlignError::InvalidBase`].
    Reject,
    /// Substitute a deterministic pseudo-random nucleotide derived from the
    /// given seed and the base position (the paper's choice, citing metaFlye).
    RandomSubstitute {
        /// Seed mixed with the base position.
        seed: u64,
    },
    /// Substitute a fixed nucleotide (BWA converts `N` to a constant; the
    /// paper cites \[17\] noting this does not affect alignment results).
    FixedSubstitute(Base),
}

impl NPolicy {
    /// Resolve a byte at `position` that [`Base::from_ascii`] rejected: an
    /// `N`/`n` becomes this policy's substitute; any other byte, or an `N`
    /// under [`NPolicy::Reject`], is [`AlignError::InvalidBase`]. Parsers
    /// call it only on that cold branch, so their per-base loop stays a
    /// plain `Base::from_ascii` match.
    #[cold]
    pub fn resolve(self, position: usize, byte: u8) -> Result<Base, AlignError> {
        let invalid = AlignError::InvalidBase { position, byte };
        if !matches!(byte, b'N' | b'n') {
            return Err(invalid);
        }
        match self {
            NPolicy::Reject => Err(invalid),
            NPolicy::RandomSubstitute { seed } => {
                // Mix the position in so that runs of N don't repeat one
                // nucleotide, while staying reproducible.
                let mut rng = SplitMix64::new(seed ^ (position as u64).wrapping_mul(0x9E37_79B9));
                Ok(Base::from_code(rng.below(4) as u8))
            }
            NPolicy::FixedSubstitute(b) => Ok(b),
        }
    }
}

/// Read-only random access to a DNA sequence — what the DP engines consume.
///
/// Implemented for [`DnaSeq`] (host side), [`PackedSeq`] (2-bit wire format)
/// and the DPU kernel's WRAM-backed sequence windows.
pub trait SeqView {
    /// Number of bases.
    fn len(&self) -> usize;
    /// Base at `index`.
    fn base(&self, index: usize) -> Base;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SeqView for DnaSeq {
    fn len(&self) -> usize {
        DnaSeq::len(self)
    }
    fn base(&self, index: usize) -> Base {
        self.get(index)
    }
}

impl SeqView for PackedSeq {
    fn len(&self) -> usize {
        PackedSeq::len(self)
    }
    fn base(&self, index: usize) -> Base {
        self.get(index)
    }
}

impl SeqView for [Base] {
    fn len(&self) -> usize {
        <[Base]>::len(self)
    }
    fn base(&self, index: usize) -> Base {
        self[index]
    }
}

/// An unpacked DNA sequence: one `Base` per position. This is the working
/// representation for the host-side aligners.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaSeq {
    bases: Vec<Base>,
}

impl DnaSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw bases.
    pub fn from_bases(bases: Vec<Base>) -> Self {
        Self { bases }
    }

    /// Parse ASCII, rejecting `N` (strict mode).
    pub fn from_ascii(text: &[u8]) -> Result<Self, AlignError> {
        Self::from_ascii_with(text, NPolicy::Reject)
    }

    /// Parse ASCII with an explicit ambiguous-base policy.
    pub fn from_ascii_with(text: &[u8], policy: NPolicy) -> Result<Self, AlignError> {
        let mut bases = Vec::with_capacity(text.len());
        for (position, &byte) in text.iter().enumerate() {
            bases.push(match Base::from_ascii(byte) {
                Some(b) => b,
                None => policy.resolve(position, byte)?,
            });
        }
        Ok(Self { bases })
    }

    /// Length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// True if the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Base at `index` (panics when out of bounds, like slice indexing).
    #[inline]
    pub fn get(&self, index: usize) -> Base {
        self.bases[index]
    }

    /// The underlying base slice.
    #[inline]
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// Append a base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Render as an ASCII string.
    pub fn to_ascii(&self) -> Vec<u8> {
        self.bases.iter().map(|b| b.to_ascii()).collect()
    }

    /// Reverse complement (used by dataset generators and tests).
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Pack into the 2-bit wire format.
    pub fn pack(&self) -> PackedSeq {
        PackedSeq::from_bases(&self.bases)
    }
}

impl std::fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.bases {
            write!(f, "{}", b.to_ascii() as char)?;
        }
        Ok(())
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> Self {
        Self {
            bases: iter.into_iter().collect(),
        }
    }
}

/// A 2-bit packed DNA sequence: 4 bases per byte, little-endian within the
/// byte (base `i` occupies bits `2*(i%4) .. 2*(i%4)+2` of byte `i/4`).
///
/// This is the exact format the host writes to DPU MRAM; it divides transfer
/// volume by four relative to ASCII (§4.1.1) and the simulated DPU kernel
/// unpacks it with shifts, as the real kernel does.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    data: Vec<u8>,
    len: usize,
}

impl PackedSeq {
    /// Pack a base slice.
    pub fn from_bases(bases: &[Base]) -> Self {
        let mut data = vec![0u8; bases.len().div_ceil(4)];
        for (i, b) in bases.iter().enumerate() {
            data[i / 4] |= b.code() << ((i % 4) * 2);
        }
        Self {
            data,
            len: bases.len(),
        }
    }

    /// Reconstruct from raw packed bytes and an explicit length.
    ///
    /// Returns `None` when `bytes` is too short for `len` bases.
    pub fn from_raw(bytes: Vec<u8>, len: usize) -> Option<Self> {
        if bytes.len() < len.div_ceil(4) {
            return None;
        }
        Some(Self { data: bytes, len })
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bases are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes of packed payload.
    #[inline]
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Raw packed bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Base at `index` — a shift and a mask, mirroring the DPU's unpacking.
    #[inline]
    pub fn get(&self, index: usize) -> Base {
        assert!(
            index < self.len,
            "base index {index} out of range {}",
            self.len
        );
        let byte = self.data[index / 4];
        Base::from_code(byte >> ((index % 4) * 2))
    }

    /// Unpack the whole sequence.
    pub fn unpack(&self) -> DnaSeq {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_codes_round_trip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn complement_is_involutive() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn parse_rejects_bad_bytes() {
        let err = DnaSeq::from_ascii(b"ACGX").unwrap_err();
        assert_eq!(
            err,
            AlignError::InvalidBase {
                position: 3,
                byte: b'X'
            }
        );
    }

    #[test]
    fn parse_rejects_n_by_default() {
        let err = DnaSeq::from_ascii(b"ACGN").unwrap_err();
        assert_eq!(
            err,
            AlignError::InvalidBase {
                position: 3,
                byte: b'N'
            }
        );
    }

    #[test]
    fn n_random_substitution_is_deterministic() {
        let p = NPolicy::RandomSubstitute { seed: 99 };
        let a = DnaSeq::from_ascii_with(b"ANNNA", p).unwrap();
        let b = DnaSeq::from_ascii_with(b"ANNNA", p).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.get(0), Base::A);
        assert_eq!(a.get(4), Base::A);
    }

    #[test]
    fn n_runs_are_not_constant() {
        // A long run of Ns should not collapse to a single repeated base.
        let text = vec![b'N'; 64];
        let s = DnaSeq::from_ascii_with(&text, NPolicy::RandomSubstitute { seed: 5 }).unwrap();
        let distinct: std::collections::HashSet<_> = s.as_slice().iter().collect();
        assert!(distinct.len() >= 3, "expected variety, got {distinct:?}");
    }

    #[test]
    fn n_fixed_substitution() {
        let s = DnaSeq::from_ascii_with(b"NNN", NPolicy::FixedSubstitute(Base::G)).unwrap();
        assert_eq!(s.to_ascii(), b"GGG");
    }

    #[test]
    fn display_matches_ascii() {
        let s = DnaSeq::from_ascii(b"ACGTacgt").unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.to_ascii(), b"ACGTACGT");
    }

    #[test]
    fn reverse_complement_round_trips() {
        let s = DnaSeq::from_ascii(b"AACGT").unwrap();
        assert_eq!(s.reverse_complement().to_ascii(), b"ACGTT");
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn packing_round_trips_all_lengths() {
        for len in 0..33 {
            let bases: Vec<Base> = (0..len).map(|i| Base::from_code((i % 4) as u8)).collect();
            let seq = DnaSeq::from_bases(bases);
            let packed = seq.pack();
            assert_eq!(packed.len(), len);
            assert_eq!(packed.byte_len(), len.div_ceil(4));
            assert_eq!(packed.unpack(), seq);
        }
    }

    #[test]
    fn packed_get_matches_unpacked() {
        let seq = DnaSeq::from_ascii(b"GATTACAGATTACA").unwrap();
        let packed = seq.pack();
        for i in 0..seq.len() {
            assert_eq!(packed.get(i), seq.get(i));
        }
    }

    #[test]
    fn packed_is_four_times_smaller() {
        let seq = DnaSeq::from_bases(vec![Base::A; 4000]);
        assert_eq!(seq.pack().byte_len(), 1000);
    }

    #[test]
    fn packed_from_raw_validates_length() {
        assert!(PackedSeq::from_raw(vec![0u8; 2], 9).is_none());
        let p = PackedSeq::from_raw(vec![0b11_10_01_00, 0b01], 5).unwrap();
        assert_eq!(p.unpack().to_ascii(), b"ACGTC");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packed_get_out_of_range_panics() {
        PackedSeq::from_bases(&[Base::A]).get(1);
    }
}
