//! CIGAR strings — Compact Idiosyncratic Gapped Alignment Report (§4.2.2).
//!
//! Conventions (SAM-style, treating sequence `A` as the query and `B` as the
//! reference):
//! * `=` — match, consumes one base of both `A` and `B`;
//! * `X` — mismatch, consumes one base of both;
//! * `I` — insertion: a base of `A` aligned against a gap (consumes `A`);
//! * `D` — deletion: a base of `B` aligned against a gap (consumes `B`).

use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::seq::{DnaSeq, SeqView};
use crate::Score;
use std::fmt;

/// One alignment operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CigarOp {
    /// `=` — bases are equal.
    Match,
    /// `X` — substitution.
    Mismatch,
    /// `I` — base of `A` against a gap.
    Insertion,
    /// `D` — base of `B` against a gap.
    Deletion,
}

impl CigarOp {
    /// SAM character for the op.
    pub fn symbol(self) -> char {
        match self {
            CigarOp::Match => '=',
            CigarOp::Mismatch => 'X',
            CigarOp::Insertion => 'I',
            CigarOp::Deletion => 'D',
        }
    }

    /// Parse a SAM op character (also accepts `M` as match for convenience).
    pub fn from_symbol(c: char) -> Option<CigarOp> {
        match c {
            '=' | 'M' => Some(CigarOp::Match),
            'X' => Some(CigarOp::Mismatch),
            'I' => Some(CigarOp::Insertion),
            'D' => Some(CigarOp::Deletion),
            _ => None,
        }
    }

    /// Does this op consume a base of `A` (the query)?
    pub fn consumes_a(self) -> bool {
        !matches!(self, CigarOp::Deletion)
    }

    /// Does this op consume a base of `B` (the reference)?
    pub fn consumes_b(self) -> bool {
        !matches!(self, CigarOp::Insertion)
    }
}

/// A run-length encoded CIGAR.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Cigar {
    runs: Vec<(u32, CigarOp)>,
}

impl Cigar {
    /// Empty CIGAR.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one operation, merging with the trailing run when equal.
    pub fn push(&mut self, op: CigarOp) {
        self.push_run(1, op);
    }

    /// Append `count` copies of `op`.
    pub fn push_run(&mut self, count: u32, op: CigarOp) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.1 == op {
                last.0 += count;
                return;
            }
        }
        self.runs.push((count, op));
    }

    /// The run-length encoded content.
    pub fn runs(&self) -> &[(u32, CigarOp)] {
        &self.runs
    }

    /// Iterate ops one by one (expanded).
    pub fn ops(&self) -> impl Iterator<Item = CigarOp> + '_ {
        self.runs
            .iter()
            .flat_map(|&(n, op)| std::iter::repeat_n(op, n as usize))
    }

    /// Reverse in place — traceback produces ops end-to-start.
    pub fn reverse(&mut self) {
        self.runs.reverse();
        // Merging never needs to happen post-reverse: adjacent runs were
        // distinct before, and reversal preserves adjacency.
    }

    /// Total number of alignment columns.
    pub fn alignment_columns(&self) -> usize {
        self.runs.iter().map(|&(n, _)| n as usize).sum()
    }

    /// Number of columns with the given op.
    pub fn count_op(&self, op: CigarOp) -> usize {
        self.runs
            .iter()
            .filter(|&&(_, o)| o == op)
            .map(|&(n, _)| n as usize)
            .sum()
    }

    /// Bases of `A` consumed.
    pub fn a_len(&self) -> usize {
        self.runs
            .iter()
            .filter(|&&(_, op)| op.consumes_a())
            .map(|&(n, _)| n as usize)
            .sum()
    }

    /// Bases of `B` consumed.
    pub fn b_len(&self) -> usize {
        self.runs
            .iter()
            .filter(|&&(_, op)| op.consumes_b())
            .map(|&(n, _)| n as usize)
            .sum()
    }

    /// Parse from text such as `"10=1X3I"`.
    pub fn parse(text: &str) -> Option<Cigar> {
        let mut cigar = Cigar::new();
        let mut count: u32 = 0;
        let mut saw_digit = false;
        for c in text.chars() {
            if let Some(d) = c.to_digit(10) {
                count = count.checked_mul(10)?.checked_add(d)?;
                saw_digit = true;
            } else {
                let op = CigarOp::from_symbol(c)?;
                if !saw_digit || count == 0 {
                    return None;
                }
                cigar.push_run(count, op);
                count = 0;
                saw_digit = false;
            }
        }
        if saw_digit {
            return None; // trailing count with no op
        }
        Some(cigar)
    }

    /// Score this CIGAR under `scheme`. The CIGAR distinguishes `=` from `X`,
    /// so the score is fully determined without the sequences.
    pub fn score(&self, scheme: &ScoringScheme) -> Score {
        let mut score: Score = 0;
        for &(n, op) in &self.runs {
            let n = n as Score;
            match op {
                CigarOp::Match => score += scheme.match_score * n,
                CigarOp::Mismatch => score -= scheme.mismatch_penalty * n,
                CigarOp::Insertion | CigarOp::Deletion => {
                    score -= scheme.gap_open + scheme.gap_extend * n;
                }
            }
        }
        score
    }

    /// Check this CIGAR against the two sequences it claims to align:
    /// lengths must match and every `=`/`X` column must agree with the bases.
    /// Generic over [`SeqView`], so a packed pair is checked as it is.
    pub fn validate<A: SeqView + ?Sized, B: SeqView + ?Sized>(
        &self,
        a: &A,
        b: &B,
    ) -> Result<(), String> {
        if self.a_len() != a.len() {
            return Err(format!(
                "CIGAR consumes {} bases of A but A has {}",
                self.a_len(),
                a.len()
            ));
        }
        if self.b_len() != b.len() {
            return Err(format!(
                "CIGAR consumes {} bases of B but B has {}",
                self.b_len(),
                b.len()
            ));
        }
        // Run by run: a `=` or `X` run is one tight loop over its columns.
        let (mut i, mut j, mut col) = (0usize, 0usize, 0usize);
        for &(n, op) in &self.runs {
            let n = n as usize;
            match op {
                CigarOp::Match | CigarOp::Mismatch => {
                    let equal = op == CigarOp::Match;
                    if let Some(k) = (0..n).position(|k| (a.base(i + k) == b.base(j + k)) != equal)
                    {
                        let (sym, bases) = if equal {
                            ('=', "unequal")
                        } else {
                            ('X', "equal")
                        };
                        return Err(format!(
                            "column {}: '{sym}' on {bases} bases at A[{}], B[{}]",
                            col + k,
                            i + k,
                            j + k
                        ));
                    }
                    i += n;
                    j += n;
                }
                CigarOp::Insertion => i += n,
                CigarOp::Deletion => j += n,
            }
            col += n;
        }
        Ok(())
    }

    /// Apply this CIGAR to `a`, producing the sequence it maps to. The result
    /// equals `b` exactly when [`Cigar::validate`] passes — the mismatch
    /// column carries no target base, so `X` columns are reconstructed from
    /// nothing and this method needs `b` for them.
    pub fn apply(&self, a: &DnaSeq, b: &DnaSeq) -> Result<DnaSeq, AlignError> {
        let mut out = DnaSeq::new();
        let (mut i, mut j) = (0usize, 0usize);
        for op in self.ops() {
            match op {
                CigarOp::Match => {
                    out.push(a.get(i));
                    i += 1;
                    j += 1;
                }
                CigarOp::Mismatch => {
                    out.push(b.get(j));
                    i += 1;
                    j += 1;
                }
                CigarOp::Insertion => i += 1,
                CigarOp::Deletion => {
                    out.push(b.get(j));
                    j += 1;
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Cigar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(n, op) in &self.runs {
            write!(f, "{n}{}", op.symbol())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    #[test]
    fn push_merges_runs() {
        let mut c = Cigar::new();
        c.push(CigarOp::Match);
        c.push(CigarOp::Match);
        c.push(CigarOp::Mismatch);
        c.push_run(3, CigarOp::Mismatch);
        assert_eq!(c.to_string(), "2=4X");
        assert_eq!(c.runs().len(), 2);
    }

    #[test]
    fn zero_run_is_ignored() {
        let mut c = Cigar::new();
        c.push_run(0, CigarOp::Match);
        assert!(c.runs().is_empty());
        assert_eq!(c.to_string(), "");
    }

    #[test]
    fn lengths_follow_consumption() {
        let c = Cigar::parse("5=2I3D1X").unwrap();
        assert_eq!(c.a_len(), 5 + 2 + 1);
        assert_eq!(c.b_len(), 5 + 3 + 1);
        assert_eq!(c.alignment_columns(), 11);
        assert_eq!(c.count_op(CigarOp::Insertion), 2);
    }

    #[test]
    fn parse_round_trips() {
        for text in ["10=", "3=1X2I4D7=", "1I1D1I"] {
            assert_eq!(Cigar::parse(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn parse_accepts_m_as_match() {
        assert_eq!(Cigar::parse("4M").unwrap().to_string(), "4=");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Cigar::parse("=").is_none());
        assert!(Cigar::parse("3").is_none());
        assert!(Cigar::parse("0=").is_none());
        assert!(Cigar::parse("3Q").is_none());
        assert!(Cigar::parse("99999999999999999=").is_none());
    }

    #[test]
    fn score_matches_hand_computation() {
        let s = ScoringScheme::default();
        // 10 matches, 1 mismatch, gap of 3: 20 - 4 - (4 + 6) = 6
        let c = Cigar::parse("10=1X3I").unwrap();
        assert_eq!(c.score(&s), 6);
    }

    #[test]
    fn figure1_alignment_validates() {
        // Figure 1 of the paper: one mismatch, one insertion, one deletion.
        //   A:  G A T T A C A -
        //   B:  G C T - A C A T   (shape only; concrete bases below)
        let a = seq("GATTACA");
        let b = seq("GCTACAT");
        let c = Cigar::parse("1=1X1=1I3=1D").unwrap();
        c.validate(&a, &b).unwrap();
        assert_eq!(c.apply(&a, &b).unwrap(), b);
    }

    #[test]
    fn validate_catches_wrong_lengths() {
        let c = Cigar::parse("3=").unwrap();
        assert!(c.validate(&seq("ACG"), &seq("AC")).is_err());
        assert!(c.validate(&seq("AC"), &seq("ACG")).is_err());
    }

    #[test]
    fn validate_catches_mislabelled_columns() {
        let c = Cigar::parse("1X2=").unwrap();
        // First column labelled mismatch but bases are equal.
        assert!(c.validate(&seq("ACG"), &seq("ACG")).is_err());
        let c = Cigar::parse("3=").unwrap();
        assert!(c.validate(&seq("ACG"), &seq("ACC")).is_err());
        // The error names the first bad column and where it sits in A and B.
        let c = Cigar::parse("2=1X2=").unwrap();
        assert_eq!(
            c.validate(&seq("ACGTA"), &seq("ACGTA")),
            Err("column 2: 'X' on equal bases at A[2], B[2]".to_string())
        );
        let c = Cigar::parse("1=1I3=").unwrap();
        assert_eq!(
            c.validate(&seq("AACGT"), &seq("ACGA")),
            Err("column 4: '=' on unequal bases at A[4], B[3]".to_string())
        );
    }

    #[test]
    fn validate_gives_the_same_verdict_on_packed_sequences() {
        for (cigar, a, b) in [
            ("1=1X1=1I3=1D", "GATTACA", "GCTACAT"),
            ("3=", "ACG", "AC"),
            ("3=", "AC", "ACG"),
            ("1X2=", "ACG", "ACG"),
            ("3=", "ACG", "ACC"),
            ("4=1X", "ACGTA", "ACGTC"),
            ("2=1X2=", "ACGTA", "ACGTA"),
            ("1=1I3=", "AACGT", "ACGA"),
        ] {
            let c = Cigar::parse(cigar).unwrap();
            let (a, b) = (seq(a), seq(b));
            let want = c.validate(&a, &b);
            assert_eq!(c.validate(&a.pack(), &b.pack()), want, "{cigar}");
            assert_eq!(c.validate(&a.pack(), &b), want, "{cigar}");
        }
    }

    #[test]
    fn reverse_reverses_runs() {
        let mut c = Cigar::parse("2=1X3I").unwrap();
        c.reverse();
        assert_eq!(c.to_string(), "3I1X2=");
    }

    #[test]
    fn ops_expand_runs() {
        let c = Cigar::parse("2=1D").unwrap();
        let ops: Vec<_> = c.ops().collect();
        assert_eq!(ops, vec![CigarOp::Match, CigarOp::Match, CigarOp::Deletion]);
    }
}
