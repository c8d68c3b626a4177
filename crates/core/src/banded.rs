//! Static banded DP (§3.3): evaluate only the cells within a fixed band of
//! diagonals around the main diagonal, reducing complexity to O(w·(m+n)).
//!
//! This is the heuristic minimap2's KSW2 kernel implements on CPU, the
//! "Static" column of Table 1, and the CPU baseline of Tables 3–6. The band
//! is the set of cells whose diagonal offset `d = j - i` lies in
//! `[-w/2, +w/2]`: a static band produces a score whenever it reaches the
//! end cell (`|n - m| <= w/2`), but it is the optimal score only when the
//! optimal path stays inside (Table 1 measures exactly how often that
//! holds).
//!
//! [`BandedAligner`] sweeps the band the way KSW2 does for speed on a CPU:
//!
//! * a **query profile**: for each of the four nucleotides, the per-column
//!   substitution scores against `B` are precomputed into a flat array, so
//!   the inner loop indexes a slice instead of branching on base equality —
//!   the "query sequence profile, a branchless programming strategy" of
//!   §5.1;
//! * flat rolling arrays indexed by diagonal, with the row's in-band span
//!   hoisted out of the loop;
//! * a score-only path with no `BT` writes at all;
//! * a **two-pass row sweep**: the insertion gap and the diagonal
//!   candidate have no dependency carried along the row, so pass 1
//!   computes them elementwise over flat slices, which stable Rust
//!   autovectorizes (the stand-in for KSW2's SSE vectorization), while
//!   pass 2 runs the sequential deletion carry and the cell select.

use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::seq::{Base, DnaSeq};
use crate::traceback::{walk, BtCell, BtRow, Origin};
use crate::{Alignment, Score, NEG_INF};

/// Geometry of a static band for a given pair of lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandGeometry {
    /// Lowest allowed diagonal offset `j - i`.
    pub d_lo: i64,
    /// Highest allowed diagonal offset `j - i`.
    pub d_hi: i64,
}

impl BandGeometry {
    /// Compute the band for band width `w`: diagonals `[-w/2, +w/2]` around
    /// the main diagonal (Figure 3 A). The end cell `(m, n)` is inside only
    /// when `|n - m| <= w/2` — as the paper notes, the static band size must
    /// account for "the difference between the lengths of the 2 sequences",
    /// and a band that is too small for the length difference is a failure.
    pub fn new(m: usize, n: usize, w: usize) -> Self {
        let _ = (m, n); // geometry is independent of the lengths
        let half = (w / 2) as i64;
        Self {
            d_lo: -half,
            d_hi: half,
        }
    }

    /// Does this band contain the end cell for lengths `m`, `n`?
    pub fn reaches_end(&self, m: usize, n: usize) -> bool {
        self.contains(m, n)
    }

    /// Number of diagonals in the band (the storage row width).
    pub fn width(&self) -> usize {
        (self.d_hi - self.d_lo + 1) as usize
    }

    /// Is cell `(i, j)` inside the band?
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let d = j as i64 - i as i64;
        d >= self.d_lo && d <= self.d_hi
    }

    /// Storage index for `(i, j)`, or `None` when outside.
    #[inline]
    pub fn index(&self, i: usize, j: usize) -> Option<usize> {
        let d = j as i64 - i as i64;
        if d < self.d_lo || d > self.d_hi {
            None
        } else {
            Some((d - self.d_lo) as usize)
        }
    }

    /// The range of valid `j` for row `i` (clamped to `[0, n]`).
    pub fn j_range(&self, i: usize, n: usize) -> std::ops::RangeInclusive<usize> {
        let lo = (i as i64 + self.d_lo).max(0) as usize;
        let hi = ((i as i64 + self.d_hi).min(n as i64)).max(0) as usize;
        lo..=hi
    }

    /// Total number of DP cells the band evaluates (the workload actually
    /// computed; the paper estimates it as `(m + n) * w`, eq. 6).
    pub fn cells(&self, m: usize, n: usize) -> u64 {
        (0..=m)
            .map(|i| {
                let r = self.j_range(i, n);
                if r.is_empty() {
                    0 // row entirely outside the matrix (large |n - m|)
                } else {
                    (r.end() - r.start() + 1) as u64
                }
            })
            .sum()
    }
}

/// Static banded affine-gap global aligner.
#[derive(Debug, Clone)]
pub struct BandedAligner {
    scheme: ScoringScheme,
    band: usize,
}

/// Per-reference query profile: `profile[c * (n + 1) + j]` is
/// `sub(c, b[j-1])` for nucleotide code `c` (j is 1-based like the DP).
fn build_profile(scheme: &ScoringScheme, b: &DnaSeq) -> Vec<Score> {
    let n = b.len();
    let mut profile = vec![0; 4 * (n + 1)];
    for c in 0..4u8 {
        let base = Base::from_code(c);
        let row = &mut profile[(c as usize) * (n + 1)..(c as usize + 1) * (n + 1)];
        for (j, slot) in row.iter_mut().enumerate().skip(1) {
            *slot = scheme.substitution(base, b.get(j - 1));
        }
    }
    profile
}

impl BandedAligner {
    /// Build an aligner with band width `w` (must be >= 2).
    pub fn new(scheme: ScoringScheme, band: usize) -> Self {
        assert!(band >= 2, "band width must be at least 2");
        Self { scheme, band }
    }

    /// The configured band width.
    pub fn band(&self) -> usize {
        self.band
    }

    /// The scoring scheme.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Number of DP cells the banded sweep evaluates for lengths `(m, n)` —
    /// the workload measure used by the runtime model.
    pub fn cells(&self, m: usize, n: usize) -> u64 {
        BandGeometry::new(m, n, self.band).cells(m, n)
    }

    /// Band-constrained score only (no traceback storage).
    pub fn score(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Score, AlignError> {
        self.run::<false>(a, b).map(|(s, _)| s)
    }

    /// Band-constrained alignment with CIGAR.
    pub fn align(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Alignment, AlignError> {
        let (m, n) = (a.len(), b.len());
        let (score, bt) = self.run::<true>(a, b)?;
        let geom = BandGeometry::new(m, n, self.band);
        let bt = bt.expect("BT requested");
        let cigar = walk(m, n, self.band, |i, j| {
            geom.index(i, j).map(|k| bt[i].get(k))
        })?;
        Ok(Alignment { score, cigar })
    }

    /// Row-wise banded Gotoh. Row `i` stores diagonals `d_lo..=d_hi`; cell
    /// `(i, j)` lives at index `j - i - d_lo`, so:
    /// * left  `(i, j-1)`  -> same row, index-1
    /// * up    `(i-1, j)`  -> previous row, index+1
    /// * diag  `(i-1, j-1)`-> previous row, same index
    ///
    /// `WANT_BT` selects traceback recording at compile time so the
    /// score-only path carries zero per-cell overhead.
    fn run<const WANT_BT: bool>(
        &self,
        a: &DnaSeq,
        b: &DnaSeq,
    ) -> Result<(Score, Option<Vec<BtRow>>), AlignError> {
        let (m, n) = (a.len(), b.len());
        let geom = BandGeometry::new(m, n, self.band);
        if !geom.reaches_end(m, n) {
            // The length difference alone exceeds the band: no global path.
            return Err(AlignError::OutOfBand {
                band: self.band,
                m,
                n,
            });
        }
        let width = geom.width();
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);
        let profile = build_profile(&self.scheme, b);
        let np1 = n + 1;

        let mut h_prev = vec![NEG_INF; width];
        let mut i_prev = vec![NEG_INF; width];
        let mut h_cur = vec![NEG_INF; width];
        let mut i_cur = vec![NEG_INF; width];
        // Row scratch for pass 1 (insertion gap / extend flag / diagonal
        // candidate), indexed by position within the row's in-band span.
        let mut ins_row = vec![NEG_INF; width];
        let mut diag_row = vec![NEG_INF; width];
        let mut iext_row = vec![false; width];
        let mut bt: Vec<BtRow> = if WANT_BT {
            (0..=m).map(|_| BtRow::new(width)).collect()
        } else {
            Vec::new()
        };

        // Row 0 boundary: H[0][j] = D[0][j] = -(go + j*ge); I[0][j] = -inf.
        for j in geom.j_range(0, n) {
            let k = geom.index(0, j).expect("row 0 in band");
            h_prev[k] = if j == 0 { 0 } else { -go - (j as Score) * ge };
        }

        // `i` drives the band geometry, the query profile, and `bt` at once.
        #[allow(clippy::needless_range_loop)]
        for i in 1..=m {
            h_cur.fill(NEG_INF);
            i_cur.fill(NEG_INF);
            let code = a.get(i - 1).code() as usize;
            let prof = &profile[code * np1..(code + 1) * np1];
            let jr = geom.j_range(i, n);
            let (j_lo, j_hi) = (*jr.start(), *jr.end());
            let mut d: Score = NEG_INF;
            // Column 0 boundary, hoisted out of the hot loop:
            // H[i][0] = I[i][0] = -(go + i*ge).
            let mut j = j_lo;
            if j == 0 {
                let k = geom.index(i, 0).expect("in band");
                h_cur[k] = -go - (i as Score) * ge;
                i_cur[k] = h_cur[k];
                j = 1;
            }
            if j > j_hi {
                std::mem::swap(&mut h_prev, &mut h_cur);
                std::mem::swap(&mut i_prev, &mut i_cur);
                continue;
            }
            let k0 = geom.index(i, j).expect("in band");
            let len = j_hi - j + 1;

            // Pass 1: the insertion gap (competition between opening from
            // `H` above and extending `I` above) and the diagonal
            // candidate read only the previous row, so they are
            // elementwise in `k` — no carried dependency — and vectorize.
            // Only the span's last cell can sit on the band edge
            // (`k + 1 == width`), where "above" reads -inf.
            let up_len = len.min(width - k0 - 1);
            ins_span(
                go,
                ge,
                &h_prev[k0 + 1..k0 + 1 + up_len],
                &i_prev[k0 + 1..k0 + 1 + up_len],
                &mut ins_row[..up_len],
                &mut iext_row[..up_len],
            );
            ins_edge(
                go,
                ge,
                &mut ins_row[up_len..len],
                &mut iext_row[up_len..len],
            );
            diag_span(
                &h_prev[k0..k0 + len],
                &prof[j..j + len],
                &mut diag_row[..len],
            );

            // Pass 2: the deletion gap carries along the row through the
            // just-written `H`, so it stays sequential; everything else
            // was precomputed.
            for (t, k) in (k0..k0 + len).enumerate() {
                let h_left = if k > 0 { h_cur[k - 1] } else { NEG_INF };
                let open_d = h_left - go - ge;
                let ext_d = d - ge;
                let d_extend = ext_d >= open_d;
                d = if d_extend { ext_d } else { open_d };
                let ins = ins_row[t];
                i_cur[k] = ins;
                let diag = diag_row[t];
                let best = diag.max(d).max(ins);
                h_cur[k] = best;
                if WANT_BT {
                    let origin = if best == diag && h_prev[k] > NEG_INF / 2 {
                        if prof[j + t] > 0 {
                            Origin::DiagMatch
                        } else {
                            Origin::DiagMismatch
                        }
                    } else if best == ins {
                        Origin::Ins
                    } else {
                        Origin::Del
                    };
                    bt[i].set(k, BtCell::new(origin, iext_row[t], d_extend));
                }
            }
            std::mem::swap(&mut h_prev, &mut h_cur);
            std::mem::swap(&mut i_prev, &mut i_cur);
        }

        let k_final = geom.index(m, n).ok_or(AlignError::OutOfBand {
            band: self.band,
            m,
            n,
        })?;
        let score = h_prev[k_final];
        // Reachable scores are bounded by score_bound << |NEG_INF|/2; anything
        // this low is sentinel arithmetic, not a real path.
        if score < NEG_INF / 2 {
            return Err(AlignError::OutOfBand {
                band: self.band,
                m,
                n,
            });
        }
        Ok((score, WANT_BT.then_some(bt)))
    }
}

/// Elementwise insertion-gap kernel over equal-length spans: open from `H`
/// above vs extend `I` above, and the extend flag.
fn ins_span(
    go: Score,
    ge: Score,
    h_up: &[Score],
    i_up: &[Score],
    ins: &mut [Score],
    iext: &mut [bool],
) {
    for (((&h, &iu), slot), flag) in h_up
        .iter()
        .zip(i_up)
        .zip(ins.iter_mut())
        .zip(iext.iter_mut())
    {
        let open_i = h - go - ge;
        let ext_i = iu - ge;
        let e = ext_i >= open_i;
        *slot = if e { ext_i } else { open_i };
        *flag = e;
    }
}

/// Band-edge cells read -inf above; run them through the same operations
/// as [`ins_span`] so their extend flag (and thus the traceback) follows
/// the same rule.
fn ins_edge(go: Score, ge: Score, ins: &mut [Score], iext: &mut [bool]) {
    let open_i = NEG_INF - go - ge;
    let ext_i = NEG_INF - ge;
    let e = ext_i >= open_i;
    for (slot, flag) in ins.iter_mut().zip(iext.iter_mut()) {
        *slot = if e { ext_i } else { open_i };
        *flag = e;
    }
}

/// Elementwise diagonal-candidate kernel: `H[i-1][j-1] + sub`, saturating,
/// clamped at -inf.
fn diag_span(h_diag: &[Score], prof: &[Score], diag: &mut [Score]) {
    for ((&h, &s), slot) in h_diag.iter().zip(prof).zip(diag.iter_mut()) {
        *slot = h.saturating_add(s).max(NEG_INF);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::FullAligner;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    #[test]
    fn geometry_covers_endpoints_when_band_spans_length_difference() {
        for (m, n, w) in [
            (10, 10, 4),
            (10, 12, 4),
            (20, 10, 24),
            (0, 1, 2),
            (100, 97, 8),
        ] {
            let g = BandGeometry::new(m, n, w);
            assert!(g.contains(0, 0), "({m},{n},{w}) start");
            assert!(g.reaches_end(m, n), "({m},{n},{w}) end");
        }
    }

    #[test]
    fn geometry_misses_endpoint_when_length_difference_exceeds_half_band() {
        for (m, n, w) in [(10, 20, 4), (0, 5, 2), (100, 90, 16)] {
            let g = BandGeometry::new(m, n, w);
            assert!(g.contains(0, 0));
            assert!(!g.reaches_end(m, n), "({m},{n},{w}) should not reach");
        }
    }

    #[test]
    fn geometry_width_is_fixed() {
        assert_eq!(BandGeometry::new(10, 10, 8).width(), 9); // [-4, 4]
        assert_eq!(BandGeometry::new(10, 15, 8).width(), 9); // independent of lengths
    }

    #[test]
    fn geometry_index_matches_contains() {
        let g = BandGeometry::new(50, 55, 16);
        for i in 0..=50usize {
            for j in 0..=55usize {
                assert_eq!(g.contains(i, j), g.index(i, j).is_some());
            }
        }
    }

    #[test]
    fn geometry_cells_close_to_eq6() {
        // The paper's workload estimate (m+n)*w should be within 2x of the
        // real banded cell count for same-length sequences.
        let (m, n, w) = (1000usize, 1000usize, 128usize);
        let cells = BandGeometry::new(m, n, w).cells(m, n);
        let est = ((m + n) * w) as u64;
        assert!(
            cells < est,
            "band computes fewer cells than the 2w estimate"
        );
        assert!(cells * 2 > est / 2);
    }

    #[test]
    fn wide_band_equals_full_dp() {
        let pairs = [
            ("GATTACAGATTACA", "GATTACAGATTACA"),
            ("ACGTACGTACGT", "ACGTTACGTAGT"),
            ("AAAAAAAAAA", "AAAATTAAAAAA"),
            ("GATTACA", "GCTACAT"),
        ];
        let scheme = ScoringScheme::default();
        let full = FullAligner::affine(scheme);
        for (x, y) in pairs {
            let (a, b) = (seq(x), seq(y));
            let banded = BandedAligner::new(scheme, 2 * (a.len() + b.len()).max(2));
            let aln = banded.align(&a, &b).unwrap();
            assert_eq!(aln.score, full.score(&a, &b), "{x} vs {y}");
            aln.cigar.validate(&a, &b).unwrap();
            assert_eq!(aln.cigar.score(&scheme), aln.score);
        }
    }

    #[test]
    fn narrow_band_may_be_suboptimal_but_valid() {
        // Equal lengths, but the optimal path bulges away from the diagonal:
        // an insertion early in A is compensated by a deletion late in A.
        // Band 4 misses that path but must still return a self-consistent
        // (suboptimal) alignment because the end cell stays in the band.
        let core = "ACGTGGTCATCGAT";
        let a_text = format!("{}TTTTTTTTTT{}", core.repeat(2), core.repeat(2));
        let b_text = format!("{}{}TTTTTTTTTT", core.repeat(2), core.repeat(2));
        let (a, b) = (seq(&a_text), seq(&b_text));
        assert_eq!(a.len(), b.len());
        let scheme = ScoringScheme::default();
        let banded = BandedAligner::new(scheme, 4);
        let full = FullAligner::affine(scheme);
        let aln = banded.align(&a, &b).unwrap();
        aln.cigar.validate(&a, &b).unwrap();
        assert!(
            aln.score < full.score(&a, &b),
            "band 4 must be suboptimal here"
        );
    }

    #[test]
    fn score_equals_align_score() {
        let a = seq("ACGTACGGGGTACGTACGT");
        let b = seq("ACGTACGTACGTAGGT");
        let banded = BandedAligner::new(ScoringScheme::default(), 8);
        assert_eq!(
            banded.score(&a, &b).unwrap(),
            banded.align(&a, &b).unwrap().score
        );
    }

    #[test]
    fn empty_sequences() {
        let banded = BandedAligner::new(ScoringScheme::default(), 8);
        let aln = banded.align(&DnaSeq::new(), &DnaSeq::new()).unwrap();
        assert_eq!(aln.score, 0);
        let aln = banded.align(&seq("ACG"), &DnaSeq::new()).unwrap();
        assert_eq!(aln.cigar.to_string(), "3I");
        let aln = banded.align(&DnaSeq::new(), &seq("ACG")).unwrap();
        assert_eq!(aln.cigar.to_string(), "3D");
    }

    #[test]
    fn length_difference_beyond_half_band_is_out_of_band() {
        let a = seq("ACGT");
        let b = seq("ACGTACGTACGTACGTACGTACGTACGT");
        let banded = BandedAligner::new(ScoringScheme::default(), 4);
        let err = banded.align(&a, &b).unwrap_err();
        assert_eq!(
            err,
            AlignError::OutOfBand {
                band: 4,
                m: 4,
                n: 28
            }
        );
        // A band wide enough for the difference succeeds.
        let banded = BandedAligner::new(ScoringScheme::default(), 64);
        banded
            .align(&a, &b)
            .unwrap()
            .cigar
            .validate(&a, &b)
            .unwrap();
    }

    #[test]
    fn profile_matches_substitution() {
        let scheme = ScoringScheme::default();
        let b = seq("ACGTAC");
        let p = build_profile(&scheme, &b);
        for c in 0..4u8 {
            for j in 1..=b.len() {
                assert_eq!(
                    p[c as usize * (b.len() + 1) + j],
                    scheme.substitution(Base::from_code(c), b.get(j - 1))
                );
            }
        }
    }

    #[test]
    fn cells_counts_band_area() {
        let banded = BandedAligner::new(ScoringScheme::default(), 128);
        let cells = banded.cells(1000, 1000);
        // ~ (w+1) * m for same-length sequences.
        assert!(cells > 100_000 && cells < 140_000, "cells {cells}");
    }

    #[test]
    #[should_panic(expected = "band width must be at least 2")]
    fn tiny_band_rejected() {
        BandedAligner::new(ScoringScheme::default(), 1);
    }
}
