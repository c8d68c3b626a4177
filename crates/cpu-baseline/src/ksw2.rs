//! A KSW2-style static banded affine aligner.
//!
//! Same algorithm and band geometry as [`nw_core::banded::BandedAligner`]
//! (results are bit-identical), restructured the way KSW2 structures it for
//! speed on a CPU:
//!
//! * a **query profile**: for each of the four nucleotides, the per-column
//!   substitution scores against `B` are precomputed into a flat array, so
//!   the inner loop indexes a slice instead of branching on base equality —
//!   the "query sequence profile, a branchless programming strategy" of
//!   §5.1;
//! * flat rolling arrays indexed by diagonal, with the row's in-band span
//!   hoisted out of the loop;
//! * a score-only fast path with no `BT` writes at all;
//! * a **two-pass row sweep**: the insertion gap and the diagonal
//!   candidate have no dependency carried along the row, so pass 1
//!   computes them elementwise over flat slices, which stable Rust
//!   autovectorizes (the stand-in for KSW2's SSE vectorization), while
//!   pass 2 runs the sequential deletion carry and the cell select.

use nw_core::banded::BandGeometry;
use nw_core::error::AlignError;
use nw_core::seq::{Base, DnaSeq};
use nw_core::traceback::{walk, BtCell, BtRow, Origin};
use nw_core::{Alignment, Score, ScoringScheme, NEG_INF};

/// KSW2-style banded aligner.
#[derive(Debug, Clone)]
pub struct Ksw2Aligner {
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

impl Ksw2Aligner {
    /// Build an aligner with band width `band` (>= 2).
    pub fn new(scheme: ScoringScheme, band: usize) -> Self {
        assert!(band >= 2, "band width must be at least 2");
        Self { scheme, band }
    }

    /// Band width.
    pub fn band(&self) -> usize {
        self.band
    }

    /// Scoring scheme.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Number of DP cells the banded sweep evaluates for lengths `(m, n)` —
    /// the workload measure used by the runtime model.
    pub fn cells(&self, m: usize, n: usize) -> u64 {
        BandGeometry::new(m, n, self.band).cells(m, n)
    }

    /// Score-only alignment (fast path).
    pub fn score(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Score, AlignError> {
        self.run::<false>(a, b).map(|(s, _)| s)
    }

    /// Alignment with CIGAR.
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

    /// The banded sweep. `WANT_BT` selects traceback recording at compile
    /// time so the score-only path carries zero per-cell overhead.
    fn run<const WANT_BT: bool>(
        &self,
        a: &DnaSeq,
        b: &DnaSeq,
    ) -> Result<(Score, Option<Vec<BtRow>>), AlignError> {
        let (m, n) = (a.len(), b.len());
        let geom = BandGeometry::new(m, n, self.band);
        if !geom.reaches_end(m, n) {
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
            // Hoist the j == 0 boundary out of the hot loop.
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
            self.pass1(
                &h_prev[k0..k0 + len],
                &h_prev[k0 + 1..k0 + 1 + up_len],
                &i_prev[k0 + 1..k0 + 1 + up_len],
                &prof[j..j + len],
                &mut ins_row[..len],
                &mut diag_row[..len],
                &mut iext_row[..len],
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
        if score < NEG_INF / 2 {
            return Err(AlignError::OutOfBand {
                band: self.band,
                m,
                n,
            });
        }
        Ok((score, WANT_BT.then_some(bt)))
    }

    /// Pass 1 of the row sweep: per cell, the insertion gap (open from `H`
    /// above vs extend `I` above), its extend flag, and the diagonal
    /// candidate. `h_up`/`i_up` may be one element shorter than the span
    /// when its last cell sits on the band edge; that tail reads -inf
    /// above.
    #[allow(clippy::too_many_arguments)]
    fn pass1(
        &self,
        h_diag: &[Score],
        h_up: &[Score],
        i_up: &[Score],
        prof: &[Score],
        ins: &mut [Score],
        diag: &mut [Score],
        iext: &mut [bool],
    ) {
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);
        let up_len = h_up.len();
        ins_span(go, ge, h_up, i_up, &mut ins[..up_len], &mut iext[..up_len]);
        ins_edge(go, ge, &mut ins[up_len..], &mut iext[up_len..]);
        diag_span(h_diag, prof, diag);
    }
}

/// Elementwise insertion-gap kernel over equal-length spans.
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

/// Band-edge cells read -inf above; run them through the same operations so
/// the extend flag (and thus the traceback) matches the fused loop exactly.
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
    use nw_core::banded::BandedAligner;
    use nw_core::full::FullAligner;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
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
    fn identical_to_reference_banded_aligner() {
        let pairs = [
            ("GATTACAGATTACA", "GATTACAGATTACA"),
            ("ACGTACGTACGT", "ACGTTACGTAGT"),
            ("ACGTGGTCATCGATTACA", "ACGTGGTCATCGATTACA"),
            ("AAAATTTTCCCCGGGG", "AAAATTTTGCCCGGG"),
        ];
        let scheme = ScoringScheme::default();
        for w in [4usize, 8, 16, 64] {
            let ksw = Ksw2Aligner::new(scheme, w);
            let reference = BandedAligner::new(scheme, w);
            for (x, y) in pairs {
                let (a, b) = (seq(x), seq(y));
                match (ksw.align(&a, &b), reference.align(&a, &b)) {
                    (Ok(k), Ok(r)) => {
                        assert_eq!(k.score, r.score, "{x} vs {y} w={w}");
                        assert_eq!(k.cigar, r.cigar, "{x} vs {y} w={w}");
                    }
                    (Err(ke), Err(re)) => assert_eq!(ke, re),
                    (k, r) => panic!("divergence on {x} vs {y} w={w}: {k:?} vs {r:?}"),
                }
            }
        }
    }

    #[test]
    fn wide_band_is_optimal() {
        let a = seq("ACGTACGGGGTACGTACGT");
        let b = seq("ACGTACGTACGTAGGT");
        let scheme = ScoringScheme::default();
        let ksw = Ksw2Aligner::new(scheme, 2 * (a.len() + b.len()));
        let aln = ksw.align(&a, &b).unwrap();
        assert_eq!(aln.score, FullAligner::affine(scheme).score(&a, &b));
        aln.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn score_matches_align() {
        let a = seq(&"ACGGTTCA".repeat(20));
        let b = seq(&"ACGTTTCA".repeat(20));
        let ksw = Ksw2Aligner::new(ScoringScheme::default(), 32);
        assert_eq!(ksw.score(&a, &b).unwrap(), ksw.align(&a, &b).unwrap().score);
    }

    #[test]
    fn out_of_band_on_large_length_difference() {
        let a = seq("ACGT");
        let b = seq(&"ACGT".repeat(20));
        let ksw = Ksw2Aligner::new(ScoringScheme::default(), 8);
        assert!(matches!(
            ksw.score(&a, &b),
            Err(AlignError::OutOfBand { .. })
        ));
    }

    #[test]
    fn empty_inputs() {
        let ksw = Ksw2Aligner::new(ScoringScheme::default(), 8);
        let e = DnaSeq::new();
        assert_eq!(ksw.score(&e, &e).unwrap(), 0);
        let aln = ksw.align(&seq("ACG"), &e).unwrap();
        assert_eq!(aln.cigar.to_string(), "3I");
    }

    #[test]
    fn cells_counts_band_area() {
        let ksw = Ksw2Aligner::new(ScoringScheme::default(), 128);
        let cells = ksw.cells(1000, 1000);
        // ~ (w+1) * m for same-length sequences.
        assert!(cells > 100_000 && cells < 140_000, "cells {cells}");
    }
}
