//! Gap-affine wavefront alignment (WFA) — the modern exact alternative the
//! paper cites (\[19\], Marco-Sola et al. 2020) and whose data generator it
//! uses for the synthetic datasets.
//!
//! Where banded DP bounds the *area* of the matrix it computes, WFA bounds
//! the *penalty*: it advances wavefronts of furthest-reaching points score
//! by score, so its cost is `O((m+n)·s)` for an optimal penalty `s` — very
//! fast for similar sequences and, unlike the banded heuristics, always
//! exact. This makes it the natural cross-check for Table 1's ground truth
//! and an interesting counterpoint in the benchmarks.
//!
//! WFA works in the *penalty* formulation: matches cost 0, a mismatch `x`,
//! a gap of length `L` costs `o + L·e`. A maximizing N&W score under
//! `(match = a, mismatch = -x', open = -o', extend = -e')` relates to a WFA
//! penalty through an affine transformation of the same alignment, so the
//! two agree on *which* alignment is optimal when the penalties are derived
//! per [`Penalties::from_scheme`].

use crate::cigar::{Cigar, CigarOp};
use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::seq::SeqView;

/// WFA penalty parameters (all costs; matches are free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Penalties {
    /// Mismatch penalty (> 0).
    pub mismatch: u32,
    /// Gap-open penalty (>= 0).
    pub gap_open: u32,
    /// Gap-extend penalty per base (> 0).
    pub gap_extend: u32,
}

impl Penalties {
    /// Build, validating.
    pub fn new(mismatch: u32, gap_open: u32, gap_extend: u32) -> Self {
        assert!(mismatch > 0, "mismatch penalty must be positive");
        assert!(gap_extend > 0, "gap extend penalty must be positive");
        Self {
            mismatch,
            gap_open,
            gap_extend,
        }
    }

    /// Derive equivalence-preserving penalties from a maximizing scheme:
    /// an alignment maximizes `a·matches − x·mismatches − Σ(o + L·e)` iff it
    /// minimizes `(a/2)·(m+n) − score`, which expands to WFA penalties
    /// `x' = 2x + 2a`, `o' = 2o`, `e' = 2e + a` (scaled by 2 to stay
    /// integral).
    pub fn from_scheme(s: &ScoringScheme) -> Self {
        let a = s.match_score as u32;
        Self {
            mismatch: 2 * (s.mismatch_penalty as u32) + 2 * a,
            gap_open: 2 * (s.gap_open as u32),
            gap_extend: 2 * (s.gap_extend as u32) + a,
        }
    }

    /// Convert a WFA penalty back to the maximizing scheme's score for
    /// sequences of lengths `m`, `n` (inverse of [`Penalties::from_scheme`]).
    pub fn penalty_to_score(
        &self,
        scheme: &ScoringScheme,
        m: usize,
        n: usize,
        penalty: u32,
    ) -> i32 {
        // score = (a·(m+n) − penalty) / 2 with the from_scheme scaling.
        (scheme.match_score * (m + n) as i32 - penalty as i32) / 2
    }
}

impl Default for Penalties {
    /// WFA paper defaults: x=4, o=6, e=2.
    fn default() -> Self {
        Self {
            mismatch: 4,
            gap_open: 6,
            gap_extend: 2,
        }
    }
}

/// Offset value stored in wavefronts: the number of `B` characters consumed
/// (`j`); `NONE` marks unreachable diagonals.
type Offset = i64;
const NONE: Offset = i64::MIN / 4;

/// One score's wavefront: offsets for diagonals `lo..=hi` of the three
/// affine components.
#[derive(Debug, Clone)]
struct Wavefront {
    lo: i64,
    hi: i64,
    m: Vec<Offset>,
    i: Vec<Offset>,
    d: Vec<Offset>,
}

impl Wavefront {
    fn new(lo: i64, hi: i64) -> Self {
        let width = (hi - lo + 1).max(0) as usize;
        Self {
            lo,
            hi,
            m: vec![NONE; width],
            i: vec![NONE; width],
            d: vec![NONE; width],
        }
    }

    #[inline]
    fn idx(&self, k: i64) -> Option<usize> {
        if k < self.lo || k > self.hi {
            None
        } else {
            Some((k - self.lo) as usize)
        }
    }

    #[inline]
    fn get_m(&self, k: i64) -> Offset {
        self.idx(k).map_or(NONE, |i| self.m[i])
    }

    #[inline]
    fn get_i(&self, k: i64) -> Offset {
        self.idx(k).map_or(NONE, |i| self.i[i])
    }

    #[inline]
    fn get_d(&self, k: i64) -> Offset {
        self.idx(k).map_or(NONE, |i| self.d[i])
    }
}

/// The gap-affine wavefront aligner.
#[derive(Debug, Clone)]
pub struct WfaAligner {
    penalties: Penalties,
    /// Safety valve: the maximum penalty explored before giving up (the
    /// quadratic worst case on unrelated sequences).
    max_penalty: u32,
}

/// A WFA result: optimal penalty plus the alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfaAlignment {
    /// The optimal (minimal) penalty.
    pub penalty: u32,
    /// The alignment path.
    pub cigar: Cigar,
}

impl WfaAligner {
    /// Build an aligner.
    pub fn new(penalties: Penalties) -> Self {
        Self {
            penalties,
            max_penalty: 100_000,
        }
    }

    /// Override the exploration cap.
    pub fn with_max_penalty(mut self, cap: u32) -> Self {
        self.max_penalty = cap;
        self
    }

    /// Penalties in use.
    pub fn penalties(&self) -> &Penalties {
        &self.penalties
    }

    /// Optimal penalty between `a` and `b` (score-only).
    pub fn penalty<A: SeqView + ?Sized, B: SeqView + ?Sized>(
        &self,
        a: &A,
        b: &B,
    ) -> Result<u32, AlignError> {
        self.run(a, b).map(|(s, _)| s)
    }

    /// Full alignment with CIGAR.
    pub fn align<A: SeqView + ?Sized, B: SeqView + ?Sized>(
        &self,
        a: &A,
        b: &B,
    ) -> Result<WfaAlignment, AlignError> {
        let (penalty, fronts) = self.run(a, b)?;
        let cigar = self.backtrack(a, b, penalty, &fronts)?;
        Ok(WfaAlignment { penalty, cigar })
    }

    /// Advance wavefronts until `(m, n)` is reached; returns the optimal
    /// penalty and all wavefronts (indexed by score) for backtracking.
    fn run<A: SeqView + ?Sized, B: SeqView + ?Sized>(
        &self,
        a: &A,
        b: &B,
    ) -> Result<(u32, Vec<Option<Wavefront>>), AlignError> {
        let (m, n) = (a.len() as i64, b.len() as i64);
        let k_final = n - m; // diagonal k = j - i
        let Penalties {
            mismatch: x,
            gap_open: o,
            gap_extend: e,
        } = self.penalties;

        let mut fronts: Vec<Option<Wavefront>> = Vec::new();
        // Score 0: diagonal 0, offset after initial extension.
        let mut wf0 = Wavefront::new(0, 0);
        wf0.m[0] = extend(a, b, 0, 0);
        // Offset minus diagonal (k = 0) on both axes.
        if wf0.m[0] >= n && wf0.m[0] >= m {
            // Identical (or empty) inputs.
            if m == 0 && n == 0 {
                return Ok((0, vec![Some(wf0)]));
            }
        }
        if k_final == 0 && wf0.m[0] >= n {
            return Ok((0, vec![Some(wf0)]));
        }
        fronts.push(Some(wf0));

        for s in 1..=self.max_penalty {
            let s_us = s as usize;
            let get = |fs: &Vec<Option<Wavefront>>, back: u32| -> Option<usize> {
                if s < back {
                    None
                } else {
                    let idx = (s - back) as usize;
                    if idx < fs.len() && fs[idx].is_some() {
                        Some(idx)
                    } else {
                        None
                    }
                }
            };
            let src_x = get(&fronts, x);
            let src_oe = get(&fronts, o + e);
            let src_e = get(&fronts, e);
            if src_x.is_none() && src_oe.is_none() && src_e.is_none() {
                fronts.push(None);
                continue;
            }
            // New bounds: one beyond the union of the sources.
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for idx in [src_x, src_oe, src_e].into_iter().flatten() {
                let f = fronts[idx].as_ref().expect("checked");
                lo = lo.min(f.lo);
                hi = hi.max(f.hi);
            }
            let (lo, hi) = (lo - 1, hi + 1);
            let mut wf = Wavefront::new(lo, hi);
            for k in lo..=hi {
                // I: gap in A (consumes B, j+1): from diagonal k-1.
                let i_open = src_oe
                    .map(|idx| fronts[idx].as_ref().unwrap().get_m(k - 1))
                    .unwrap_or(NONE);
                let i_ext = src_e
                    .map(|idx| fronts[idx].as_ref().unwrap().get_i(k - 1))
                    .unwrap_or(NONE);
                let i_val = i_open.max(i_ext);
                let i_val = if i_val <= NONE / 2 { NONE } else { i_val + 1 };
                // D: gap in B (consumes A, i+1): offset j unchanged, from k+1.
                let d_open = src_oe
                    .map(|idx| fronts[idx].as_ref().unwrap().get_m(k + 1))
                    .unwrap_or(NONE);
                let d_ext = src_e
                    .map(|idx| fronts[idx].as_ref().unwrap().get_d(k + 1))
                    .unwrap_or(NONE);
                let d_val = d_open.max(d_ext);
                // Mismatch: consumes both (j+1), same diagonal.
                let mm = src_x
                    .map(|idx| fronts[idx].as_ref().unwrap().get_m(k))
                    .unwrap_or(NONE);
                let mm = if mm <= NONE / 2 { NONE } else { mm + 1 };
                let mut best = mm.max(i_val).max(d_val);
                if best <= NONE / 2 {
                    continue;
                }
                // Clip to the matrix, then greedy-extend along matches.
                let i_coord = best - k;
                if best > n || i_coord > m || best < 0 || i_coord < 0 {
                    // Offset beyond the matrix: the furthest *valid* point
                    // on this diagonal cannot grow; drop it.
                    let widx = wf.idx(k).expect("in bounds");
                    wf.i[widx] = i_val.min(n).max(NONE);
                    wf.d[widx] = d_val.min(n).max(NONE);
                    continue;
                }
                best = extend(a, b, k, best);
                let widx = wf.idx(k).expect("in bounds");
                wf.m[widx] = best;
                wf.i[widx] = if i_val <= NONE / 2 { NONE } else { i_val };
                wf.d[widx] = if d_val <= NONE / 2 { NONE } else { d_val };
            }
            // Done?
            if wf.get_m(k_final) >= n {
                fronts.push(Some(wf));
                while fronts.len() <= s_us {
                    fronts.push(None);
                }
                return Ok((s, fronts));
            }
            fronts.push(Some(wf));
        }
        Err(AlignError::OutOfBand {
            band: self.max_penalty as usize,
            m: a.len(),
            n: b.len(),
        })
    }

    /// Reconstruct the CIGAR by walking the stored wavefronts backwards.
    fn backtrack<A: SeqView + ?Sized, B: SeqView + ?Sized>(
        &self,
        a: &A,
        b: &B,
        penalty: u32,
        fronts: &[Option<Wavefront>],
    ) -> Result<Cigar, AlignError> {
        let (m, n) = (a.len() as i64, b.len() as i64);
        let Penalties {
            mismatch: x,
            gap_open: o,
            gap_extend: e,
        } = self.penalties;
        #[derive(Clone, Copy, PartialEq)]
        enum Comp {
            M,
            I,
            D,
        }
        let mut ops_rev: Vec<CigarOp> = Vec::new();
        let mut s = penalty;
        let mut k = n - m;
        let mut j = n; // offset (B consumed)
        let mut comp = Comp::M;
        let front =
            |s: u32| -> Option<&Wavefront> { fronts.get(s as usize).and_then(|f| f.as_ref()) };

        loop {
            match comp {
                Comp::M => {
                    // Undo the greedy match extension down to the entry point
                    // of this wavefront cell.
                    let entry = {
                        // The M value before extension came from mm/I/D; find
                        // which source reproduces it.
                        let mm = if s >= x {
                            front(s - x).map_or(NONE, |f| f.get_m(k)).max(NONE)
                        } else {
                            NONE
                        };
                        let i_val = front(s).map_or(NONE, |f| f.get_i(k));
                        let d_val = front(s).map_or(NONE, |f| f.get_d(k));
                        (mm, i_val, d_val)
                    };
                    let (mm, i_val, d_val) = entry;
                    let mm_next = if mm <= NONE / 2 { NONE } else { mm + 1 };
                    // Matches consumed by extension: from max(entry) to j.
                    let entry_j = mm_next.max(i_val).max(d_val);
                    if s == 0 {
                        // Initial wavefront: pure matches back to (0,0) plus
                        // leading gap if k != 0 (cannot happen: k=0 at s=0).
                        for _ in 0..j.min(j - k.max(0)).max(0) {}
                        let matches = j - 0.max(k);
                        for _ in 0..matches {
                            ops_rev.push(CigarOp::Match);
                        }
                        break;
                    }
                    if entry_j <= NONE / 2 {
                        return Err(AlignError::OutOfBand {
                            band: self.max_penalty as usize,
                            m: a.len(),
                            n: b.len(),
                        });
                    }
                    let matches = j - entry_j;
                    for _ in 0..matches {
                        ops_rev.push(CigarOp::Match);
                    }
                    j = entry_j;
                    if mm_next == entry_j && mm_next > NONE / 2 {
                        ops_rev.push(CigarOp::Mismatch);
                        j -= 1;
                        s -= x;
                        // stay in M of s-x
                    } else if i_val == entry_j {
                        comp = Comp::I;
                    } else {
                        comp = Comp::D;
                    }
                }
                Comp::I => {
                    // I[s][k] = max(M[s-o-e][k-1], I[s-e][k-1]) + 1, consumes B.
                    ops_rev.push(CigarOp::Deletion); // B-only base (A gap)
                    j -= 1;
                    let from_open = if s >= o + e {
                        front(s - o - e).map_or(NONE, |f| f.get_m(k - 1))
                    } else {
                        NONE
                    };
                    let from_ext = if s >= e {
                        front(s - e).map_or(NONE, |f| f.get_i(k - 1))
                    } else {
                        NONE
                    };
                    k -= 1;
                    if from_ext == j && from_ext > NONE / 2 && s >= e {
                        s -= e;
                        comp = Comp::I;
                    } else if from_open == j && from_open > NONE / 2 {
                        s -= o + e;
                        comp = Comp::M;
                    } else {
                        return Err(AlignError::OutOfBand {
                            band: self.max_penalty as usize,
                            m: a.len(),
                            n: b.len(),
                        });
                    }
                }
                Comp::D => {
                    // D[s][k] = max(M[s-o-e][k+1], D[s-e][k+1]), consumes A.
                    ops_rev.push(CigarOp::Insertion); // A-only base (B gap)
                    let from_open = if s >= o + e {
                        front(s - o - e).map_or(NONE, |f| f.get_m(k + 1))
                    } else {
                        NONE
                    };
                    let from_ext = if s >= e {
                        front(s - e).map_or(NONE, |f| f.get_d(k + 1))
                    } else {
                        NONE
                    };
                    k += 1;
                    if from_ext == j && from_ext > NONE / 2 && s >= e {
                        s -= e;
                        comp = Comp::D;
                    } else if from_open == j && from_open > NONE / 2 {
                        s -= o + e;
                        comp = Comp::M;
                    } else {
                        return Err(AlignError::OutOfBand {
                            band: self.max_penalty as usize,
                            m: a.len(),
                            n: b.len(),
                        });
                    }
                }
            }
            if s == 0 && comp == Comp::M {
                // Finish the score-0 diagonal: all matches back to origin.
                let matches = j - 0.max(k);
                let _ = matches;
                for _ in 0..j.min(j - k).max(0).min(j) {}
                let count = j - k.max(0);
                for _ in 0..count {
                    ops_rev.push(CigarOp::Match);
                }
                break;
            }
        }
        let mut cigar = Cigar::new();
        for op in ops_rev.into_iter().rev() {
            cigar.push(op);
        }
        Ok(cigar)
    }
}

/// Greedy match extension along diagonal `k` starting at offset `j`
/// (returns the new offset).
#[inline]
fn extend<A: SeqView + ?Sized, B: SeqView + ?Sized>(a: &A, b: &B, k: i64, mut j: Offset) -> Offset {
    let (m, n) = (a.len() as i64, b.len() as i64);
    let mut i = j - k;
    while i < m && j < n && i >= 0 && j >= 0 && a.base(i as usize) == b.base(j as usize) {
        i += 1;
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    /// Reference: plain min-based affine DP in the penalty formulation.
    fn reference_penalty(a: &DnaSeq, b: &DnaSeq, p: &Penalties) -> u32 {
        let (m, n) = (a.len(), b.len());
        const INF: u32 = u32::MAX / 4;
        let (x, o, e) = (p.mismatch, p.gap_open, p.gap_extend);
        let mut h = vec![vec![INF; n + 1]; m + 1];
        let mut gi = vec![vec![INF; n + 1]; m + 1]; // gap in B (consumes A)
        let mut gd = vec![vec![INF; n + 1]; m + 1]; // gap in A (consumes B)
        h[0][0] = 0;
        for i in 1..=m {
            gi[i][0] = o + e * i as u32;
            h[i][0] = gi[i][0];
        }
        for j in 1..=n {
            gd[0][j] = o + e * j as u32;
            h[0][j] = gd[0][j];
        }
        for i in 1..=m {
            for j in 1..=n {
                gi[i][j] = (gi[i - 1][j] + e).min(h[i - 1][j] + o + e);
                gd[i][j] = (gd[i][j - 1] + e).min(h[i][j - 1] + o + e);
                let sub = if a.get(i - 1) == b.get(j - 1) { 0 } else { x };
                h[i][j] = (h[i - 1][j - 1] + sub).min(gi[i][j]).min(gd[i][j]);
            }
        }
        h[m][n]
    }

    #[test]
    fn identical_sequences_cost_zero() {
        let s = seq("ACGTACGTACGT");
        let wfa = WfaAligner::new(Penalties::default());
        let aln = wfa.align(&s, &s).unwrap();
        assert_eq!(aln.penalty, 0);
        assert_eq!(aln.cigar.to_string(), "12=");
    }

    #[test]
    fn single_mismatch() {
        let a = seq("ACGTACGT");
        let b = seq("ACCTACGT");
        let wfa = WfaAligner::new(Penalties::default());
        let aln = wfa.align(&a, &b).unwrap();
        assert_eq!(aln.penalty, 4);
        assert_eq!(aln.cigar.to_string(), "2=1X5=");
        aln.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn single_gap() {
        let a = seq("ACGTACGT");
        let b = seq("ACGTTACGT"); // one inserted T
        let wfa = WfaAligner::new(Penalties::default());
        let aln = wfa.align(&a, &b).unwrap();
        assert_eq!(aln.penalty, 6 + 2);
        assert_eq!(aln.cigar.a_len(), 8);
        assert_eq!(aln.cigar.b_len(), 9);
        aln.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn long_gap_uses_affine_extension() {
        let a = seq("AAAACCCC");
        let b = seq("AAAATTTTTTCCCC");
        let wfa = WfaAligner::new(Penalties::default());
        let aln = wfa.align(&a, &b).unwrap();
        assert_eq!(aln.penalty, 6 + 6 * 2);
        aln.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn empty_inputs() {
        let e = DnaSeq::new();
        let s = seq("ACG");
        let wfa = WfaAligner::new(Penalties::default());
        assert_eq!(wfa.penalty(&e, &e).unwrap(), 0);
        assert_eq!(wfa.penalty(&s, &e).unwrap(), 6 + 3 * 2);
        assert_eq!(wfa.penalty(&e, &s).unwrap(), 6 + 3 * 2);
        let aln = wfa.align(&s, &e).unwrap();
        assert_eq!(aln.cigar.to_string(), "3I");
        let aln = wfa.align(&e, &s).unwrap();
        assert_eq!(aln.cigar.to_string(), "3D");
    }

    #[test]
    fn matches_reference_dp_on_many_pairs() {
        let cases = [
            ("GATTACA", "GCTACAT"),
            ("ACGTACGTACGT", "ACGTTACGTAGT"),
            ("TTTTTTTT", "TTTT"),
            ("ACACACAC", "CACACACA"),
            ("AAAACGTTTT", "AAAATTTT"),
            ("ACGT", "TGCA"),
            ("AACCGGTT", "AACCGGTT"),
        ];
        for pens in [
            Penalties::default(),
            Penalties::new(2, 3, 1),
            Penalties::new(5, 1, 3),
        ] {
            let wfa = WfaAligner::new(pens);
            for (x, y) in cases {
                let (a, b) = (seq(x), seq(y));
                let expect = reference_penalty(&a, &b, &pens);
                let aln = wfa.align(&a, &b).unwrap();
                assert_eq!(aln.penalty, expect, "{x} vs {y} {pens:?}");
                aln.cigar.validate(&a, &b).unwrap();
                // The CIGAR's own penalty must equal the reported one.
                let mut p = 0u32;
                for &(count, op) in aln.cigar.runs() {
                    match op {
                        CigarOp::Match => {}
                        CigarOp::Mismatch => p += pens.mismatch * count,
                        CigarOp::Insertion | CigarOp::Deletion => {
                            p += pens.gap_open + pens.gap_extend * count;
                        }
                    }
                }
                assert_eq!(p, aln.penalty, "{x} vs {y}: cigar rescore");
            }
        }
    }

    #[test]
    fn equivalent_to_maximizing_gotoh_through_the_transform() {
        let scheme = ScoringScheme::default();
        let pens = Penalties::from_scheme(&scheme);
        let wfa = WfaAligner::new(pens);
        let full = crate::full::FullAligner::affine(scheme);
        let cases = [
            ("GATTACAGATTACA", "GATTACAGCTTACA"),
            ("ACGTACGTACGTACGT", "ACGTACGGTACGTACT"),
            ("AAAA", "AAAATTTT"),
        ];
        for (x, y) in cases {
            let (a, b) = (seq(x), seq(y));
            let penalty = wfa.penalty(&a, &b).unwrap();
            let score = pens.penalty_to_score(&scheme, a.len(), b.len(), penalty);
            assert_eq!(score, full.score(&a, &b), "{x} vs {y}");
        }
    }

    #[test]
    fn unrelated_sequences_hit_the_cap() {
        let a = seq(&"A".repeat(50));
        let b = seq(&"C".repeat(50));
        let wfa = WfaAligner::new(Penalties::default()).with_max_penalty(10);
        assert!(wfa.penalty(&a, &b).is_err());
        // And with a big enough cap it converges to 50 mismatches.
        let wfa = WfaAligner::new(Penalties::default());
        assert_eq!(wfa.penalty(&a, &b).unwrap(), 50 * 4);
    }

    #[test]
    fn wavefront_cost_tracks_divergence_not_area() {
        // The WFA selling point: cost grows with penalty, not matrix area.
        let base = "ACGTGGTCAT".repeat(40);
        let a = seq(&base);
        let mut close = base.clone();
        close.replace_range(100..101, "T");
        let b = seq(&close);
        let wfa = WfaAligner::new(Penalties::default());
        let p = wfa.penalty(&a, &b).unwrap();
        assert!(p <= 8, "one substitution: tiny penalty, got {p}");
    }
}
