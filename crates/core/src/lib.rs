#![warn(missing_docs)]

//! # nw-core — Needleman–Wunsch alignment algorithms
//!
//! Core dynamic-programming algorithms from the paper *"Parallelization of the
//! Banded Needleman & Wunsch Algorithm on UPMEM PiM Architecture for Long DNA
//! Sequence Alignment"* (Mognol, Lavenier, Legriel — ICPP 2024), §3:
//!
//! * [`full`] — the exact O(m·n) affine-gap Gotoh recursion (eq. 3–5), the
//!   reference used as accuracy ground truth.
//! * [`banded`] — the static banded DP algorithm (§3.3): only a band of width
//!   `w` around the diagonal is evaluated, giving O(w·(m+n)) complexity. Its
//!   sweep has minimap2's KSW2 structure (query profile, two-pass row), so
//!   it is also the CPU baseline's kernel (§5).
//! * [`adaptive`] — the adaptive banded DP algorithm (§3.4, Suzuki–Kasahara
//!   style): an anti-diagonal window of width `w` that shifts right or down
//!   based on the scores at its extremities.
//! * [`seq`] — DNA alphabet, 2-bit packing (§4.1.1) and the ambiguous-base
//!   (`N`) substitution policy.
//! * [`traceback`] / [`cigar`] — the 4-bit `BT` encoding (§4.2.2) and CIGAR
//!   production/validation.
//! * [`jobkey`] — the canonical content hash of one alignment job
//!   (sequences + scoring + band + mode): the result-cache identity shared
//!   by every backend.
//! * [`accuracy`] — the paper's accuracy metric: fraction of pairs whose
//!   banded score equals the full-DP optimum (§5.1).
//! * [`pretty`] — Figure-1 style rendering of an alignment.
//!
//! All aligners share a single [`scoring::ScoringScheme`] and the maximizing
//! convention of the paper: matches add a positive score, mismatches and gaps
//! subtract.
//!
//! ```
//! use nw_core::{seq::DnaSeq, scoring::ScoringScheme, adaptive::AdaptiveAligner};
//!
//! let a = DnaSeq::from_ascii(b"ACGTACGTTT").unwrap();
//! let b = DnaSeq::from_ascii(b"ACGAACGTTT").unwrap();
//! let aligner = AdaptiveAligner::new(ScoringScheme::default(), 16);
//! let aln = aligner.align(&a, &b).unwrap();
//! assert_eq!(aln.cigar.to_string(), "3=1X6=");
//! ```

pub mod accuracy;
pub mod adaptive;
pub mod banded;
pub mod cigar;
pub mod error;
pub mod full;
pub mod jobkey;
pub mod pretty;
pub mod rng;
pub mod scoring;
pub mod seq;
pub mod traceback;
pub mod wfa;

pub use adaptive::AdaptiveAligner;
pub use banded::BandedAligner;
pub use cigar::{Cigar, CigarOp};
pub use error::AlignError;
pub use full::FullAligner;
pub use jobkey::{job_key, job_key_seqs, JobKey};
pub use scoring::ScoringScheme;
pub use seq::{Base, DnaSeq, PackedSeq};

/// Score type used throughout. The paper stores band values compactly on the
/// DPU; on the host side `i32` is roomy enough for reads of millions of bp.
pub type Score = i32;

/// Sentinel for "outside the band / invalid" cells. Kept far from `i32::MIN`
/// so that subtracting gap penalties cannot underflow.
pub const NEG_INF: Score = i32::MIN / 4;

/// The result of a global alignment: optimal (or band-constrained) score plus
/// the CIGAR describing the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Alignment score under the scoring scheme used by the aligner.
    pub score: Score,
    /// Edit transcript from sequence `A` (query) to sequence `B` (reference).
    pub cigar: Cigar,
}

impl Alignment {
    /// Number of matched bases in the alignment.
    pub fn matches(&self) -> usize {
        self.cigar.count_op(CigarOp::Match)
    }

    /// Fraction of alignment columns that are matches (BLAST-style identity).
    pub fn identity(&self) -> f64 {
        let cols = self.cigar.alignment_columns();
        if cols == 0 {
            return 1.0;
        }
        self.matches() as f64 / cols as f64
    }
}
