//! Full-matrix dynamic programming: the exact O(m·n) reference.
//!
//! [`FullAligner`] runs the Gotoh recursion (paper eqs. 3–5) with separate
//! gap-open and gap-extend penalties, the affine model the DPU kernel and
//! every banded aligner use.
//!
//! The paper uses minimap2 *with the band heuristic disabled* as the source
//! of optimal alignments when measuring banded accuracy (§5.1) — this
//! aligner plays that role here. It is exact but quadratic in time, and
//! [`FullAligner::align`] is quadratic in memory too, so reserve `align` for
//! moderate lengths; [`FullAligner::score`] uses rolling rows and is O(n)
//! in memory.

use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::seq::DnaSeq;
use crate::traceback::{walk, BtCell, Origin};
use crate::{Alignment, Score, NEG_INF};

/// Exact full-matrix affine-gap aligner.
#[derive(Debug, Clone)]
pub struct FullAligner {
    scheme: ScoringScheme,
}

impl FullAligner {
    /// Affine-gap aligner with the given scheme (the paper's configuration).
    pub fn affine(scheme: ScoringScheme) -> Self {
        Self { scheme }
    }

    /// The scoring scheme in use.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Optimal global alignment score, O(n) memory.
    pub fn score(&self, a: &DnaSeq, b: &DnaSeq) -> Score {
        let (m, n) = (a.len(), b.len());
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);
        // Row i-1 of H; D and I are maintained per eq. 3-4. D[i][j] depends on
        // column j-1 of the same row; I[i][j] depends on row i-1.
        let mut h_prev: Vec<Score> = vec![0; n + 1];
        let mut i_prev: Vec<Score> = vec![NEG_INF; n + 1];
        for (j, h) in h_prev.iter_mut().enumerate().skip(1) {
            *h = -go - (j as Score) * ge; // H[0][j] = D[0][j]
        }
        let mut h_cur = vec![0; n + 1];
        let mut i_cur = vec![0; n + 1];
        for i in 1..=m {
            h_cur[0] = -go - (i as Score) * ge; // H[i][0] = I[i][0]
            i_cur[0] = h_cur[0];
            let mut d: Score = NEG_INF; // D[i][0] = -inf
            let ai = a.get(i - 1);
            for j in 1..=n {
                d = (d - ge).max(h_cur[j - 1] - go - ge);
                let ins = (i_prev[j] - ge).max(h_prev[j] - go - ge);
                i_cur[j] = ins;
                let diag = h_prev[j - 1] + self.scheme.substitution(ai, b.get(j - 1));
                h_cur[j] = diag.max(d).max(ins);
            }
            std::mem::swap(&mut h_prev, &mut h_cur);
            std::mem::swap(&mut i_prev, &mut i_cur);
        }
        h_prev[n]
    }

    /// Optimal global alignment with CIGAR, O(m·n) memory.
    pub fn align(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Alignment, AlignError> {
        let (m, n) = (a.len(), b.len());
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);
        let mut bt = vec![0u8; m.checked_mul(n).expect("matrix too large")];
        let mut h_prev: Vec<Score> = vec![0; n + 1];
        let mut i_prev: Vec<Score> = vec![NEG_INF; n + 1];
        for (j, h) in h_prev.iter_mut().enumerate().skip(1) {
            *h = -go - (j as Score) * ge;
        }
        let mut h_cur = vec![0; n + 1];
        let mut i_cur = vec![0; n + 1];
        for i in 1..=m {
            h_cur[0] = -go - (i as Score) * ge;
            i_cur[0] = h_cur[0];
            let mut d: Score = NEG_INF;
            let ai = a.get(i - 1);
            for j in 1..=n {
                let d_extend = d - ge >= h_cur[j - 1] - go - ge;
                d = (d - ge).max(h_cur[j - 1] - go - ge);
                let i_extend = i_prev[j] - ge >= h_prev[j] - go - ge;
                let ins = (i_prev[j] - ge).max(h_prev[j] - go - ge);
                i_cur[j] = ins;
                let sub = self.scheme.substitution(ai, b.get(j - 1));
                let diag = h_prev[j - 1] + sub;
                let best = diag.max(d).max(ins);
                let origin = if best == diag {
                    if sub > 0 {
                        Origin::DiagMatch
                    } else {
                        Origin::DiagMismatch
                    }
                } else if best == ins {
                    Origin::Ins
                } else {
                    Origin::Del
                };
                bt[(i - 1) * n + (j - 1)] = BtCell::new(origin, i_extend, d_extend).bits();
                h_cur[j] = best;
            }
            std::mem::swap(&mut h_prev, &mut h_cur);
            std::mem::swap(&mut i_prev, &mut i_cur);
        }
        let score = h_prev[n];
        let cigar = walk(m, n, usize::MAX, |i, j| {
            Some(BtCell(bt[(i - 1) * n + (j - 1)]))
        })?;
        Ok(Alignment { score, cigar })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::CigarOp;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn affine() -> FullAligner {
        FullAligner::affine(ScoringScheme::default())
    }

    #[test]
    fn identical_sequences_score_perfectly() {
        let s = seq("ACGTACGTAC");
        let aln = affine().align(&s, &s).unwrap();
        assert_eq!(aln.score, ScoringScheme::default().perfect(10));
        assert_eq!(aln.cigar.to_string(), "10=");
        assert_eq!(aln.identity(), 1.0);
    }

    #[test]
    fn empty_vs_sequence_is_one_gap() {
        let a = DnaSeq::new();
        let b = seq("ACGT");
        let sch = ScoringScheme::default();
        let aln = affine().align(&a, &b).unwrap();
        assert_eq!(aln.score, -sch.gap_cost(4));
        assert_eq!(aln.cigar.to_string(), "4D");
        let aln = affine().align(&b, &a).unwrap();
        assert_eq!(aln.cigar.to_string(), "4I");
    }

    #[test]
    fn both_empty() {
        let aln = affine().align(&DnaSeq::new(), &DnaSeq::new()).unwrap();
        assert_eq!(aln.score, 0);
        assert_eq!(aln.cigar.to_string(), "");
    }

    #[test]
    fn single_mismatch() {
        let aln = affine().align(&seq("ACGT"), &seq("AGGT")).unwrap();
        assert_eq!(aln.score, 3 * 2 - 4);
        assert_eq!(aln.cigar.to_string(), "1=1X2=");
    }

    #[test]
    fn affine_prefers_one_long_gap() {
        // Two separate 1-gaps cost 2*(4+2)=12; one 2-gap costs 4+4=8.
        let a = seq("AAAATTTT");
        let b = seq("AAAACGTTTT");
        let aln = affine().align(&a, &b).unwrap();
        aln.cigar.validate(&a, &b).unwrap();
        assert_eq!(aln.cigar.count_op(CigarOp::Deletion), 2);
        // The deletions must form a single run.
        let del_runs = aln
            .cigar
            .runs()
            .iter()
            .filter(|(_, op)| *op == CigarOp::Deletion)
            .count();
        assert_eq!(del_runs, 1);
        assert_eq!(aln.score, 8 * 2 - (4 + 2 * 2));
    }

    #[test]
    fn score_matches_align() {
        let pairs = [
            ("GATTACA", "GCTACAT"),
            ("ACGTACGTACGT", "ACGTTACGTAGT"),
            ("TTTT", "TTTTTTTT"),
            ("A", "C"),
            ("ACACACAC", "CACACACA"),
        ];
        for (x, y) in pairs {
            let (a, b) = (seq(x), seq(y));
            for aligner in [affine(), FullAligner::affine(ScoringScheme::unit())] {
                let aln = aligner.align(&a, &b).unwrap();
                assert_eq!(aln.score, aligner.score(&a, &b), "{x} vs {y}");
                aln.cigar.validate(&a, &b).unwrap();
                assert_eq!(aln.cigar.score(aligner.scheme()), aln.score, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn cigar_score_consistency_under_affine() {
        // The CIGAR rescored must equal the DP score: catches wrong extend bits.
        let a = seq("ACGTAAAACGTACGGGGGTACT");
        let b = seq("ACGTCGTACGTACTTT");
        let aln = affine().align(&a, &b).unwrap();
        aln.cigar.validate(&a, &b).unwrap();
        assert_eq!(aln.cigar.score(&ScoringScheme::default()), aln.score);
    }

    #[test]
    fn alignment_is_symmetric_in_score() {
        // Swapping inputs swaps I and D but keeps the score (sub is symmetric).
        let a = seq("ACGGTTACGT");
        let b = seq("ACGTTAGGT");
        let f = affine();
        assert_eq!(f.score(&a, &b), f.score(&b, &a));
    }

    #[test]
    fn figure1_example_structure() {
        // Figure 1: an alignment with one mismatch, one insertion, one
        // deletion. Build sequences that force exactly that.
        let a = seq("ACGTTTTTTTCAAAAAAA");
        let b = seq("AGGTTTTTTTAAAAAAAG");
        let aln = affine().align(&a, &b).unwrap();
        aln.cigar.validate(&a, &b).unwrap();
        assert!(aln.cigar.count_op(CigarOp::Mismatch) >= 1);
    }
}
