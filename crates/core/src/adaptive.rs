//! Adaptive banded DP (§3.4) — the algorithm the paper runs on the DPUs.
//!
//! Instead of a fixed band of diagonals, a window of `w` cells slides along
//! anti-diagonals (Suzuki–Kasahara \[24\]). After each anti-diagonal the window
//! moves **right** (same rows, next column) or **down** (next row) depending
//! on the scores inside it, following the most promising path. The band can
//! therefore track large gaps that a static band of the same width would
//! miss — Table 1 shows adaptive@128 matching static@512.
//!
//! The memory layout mirrors §4.2.1: only four `w`-sized arrays are live at
//! any time (two previous anti-diagonals of `H`, one of `I`, one of `D`),
//! which is what lets the real kernel keep them in the DPU's 64 KB WRAM.
//! Traceback information is a 4-bit cell per window position per
//! anti-diagonal — the `(m+n) × w` `BT` structure of §4.2.2.
//!
//! The low-level [`Engine`] advances one anti-diagonal per [`Engine::step`];
//! the host-side [`AdaptiveAligner`] and the simulated DPU kernel
//! (`dpu-kernel` crate) both drive the same engine, so their scores and
//! CIGARs agree bit-for-bit — the kernel merely adds cycle accounting and
//! real WRAM/MRAM movement around it.

use crate::error::AlignError;
use crate::scoring::ScoringScheme;
use crate::seq::{DnaSeq, SeqView};
use crate::traceback::{walk, BtCell, BtRow, Origin};
use crate::{Alignment, Score, NEG_INF};

/// One interior cell of the affine-gap (Gotoh) recurrence, eqs. 3–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GotohCell {
    /// `H[i][j]`: the best of the diagonal, `D` and `I`.
    pub h: Score,
    /// `D[i][j]`: horizontal gap (consumes `B`), from the left neighbour.
    pub d: Score,
    /// `I[i][j]`: vertical gap (consumes `A`), from the up neighbour.
    pub i: Score,
    /// The 4-bit traceback cell: which of the three won `H` (the diagonal
    /// on a tie, then `I`), and whether each gap extended.
    pub bt: BtCell,
}

/// The update of one interior cell `(i, j)` from its neighbours: `left_*`
/// at `(i, j-1)`, `up_*` at `(i-1, j)`, `diag_h = H[i-1][j-1]`, and `sub`
/// the substitution score of `(a[i-1], b[j-1])`, under gap open `go` and
/// extend `ge`. [`Engine::step`] sweeps every interior window cell through
/// it; the DPU kernel's ISA inner loops implement the same update.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn gotoh_cell(
    go: Score,
    ge: Score,
    left_h: Score,
    left_d: Score,
    up_h: Score,
    up_i: Score,
    diag_h: Score,
    sub: Score,
) -> GotohCell {
    let goge = go + ge;
    let d_extend = left_d - ge >= left_h - goge;
    let d = (left_d - ge).max(left_h - goge);
    let i_extend = up_i - ge >= up_h - goge;
    let i = (up_i - ge).max(up_h - goge);
    let diag = diag_h + sub;
    let h = diag.max(d).max(i);
    let origin = if h == diag && diag_h > NEG_INF / 2 {
        if sub > 0 {
            Origin::DiagMatch
        } else {
            Origin::DiagMismatch
        }
    } else if h == i {
        Origin::Ins
    } else {
        Origin::Del
    };
    GotohCell {
        h,
        d,
        i,
        bt: BtCell::new(origin, i_extend, d_extend),
    }
}

/// Which way the window moved between two consecutive anti-diagonals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// Window keeps its row origin; columns advance.
    Right,
    /// Window's row origin advances by one.
    Down,
}

/// The trajectory of the adaptive window — used by the Figure-3 visualizer
/// and by tests asserting the band never strands the end cell.
#[derive(Debug, Clone, Default)]
pub struct BandTrace {
    /// `origins[t]` is the `i` coordinate of window cell 0 at anti-diagonal
    /// `t` (may be negative near the start).
    pub origins: Vec<i64>,
    /// Shift decisions; `shifts[t]` moved the window from `t` to `t+1`.
    pub shifts: Vec<Shift>,
}

impl BandTrace {
    /// Number of Down shifts (equals `origins.last() - origins[0]`).
    pub fn downs(&self) -> usize {
        self.shifts.iter().filter(|s| **s == Shift::Down).count()
    }
}

/// Outcome of an adaptive alignment when the caller also wants the trace and
/// cell-count statistics (used by the benchmark harness).
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The alignment (score + CIGAR).
    pub alignment: Alignment,
    /// Window trajectory.
    pub trace: BandTrace,
    /// DP cells evaluated (valid in-matrix window cells).
    pub cells: u64,
}

/// What one engine step produced — everything a caller needs for cost
/// accounting and `BT` persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The anti-diagonal that was just computed (1-based; step `t` computes
    /// cells with `i + j == t`).
    pub t: usize,
    /// The shift that produced this window from the previous one.
    pub shift: Shift,
    /// Window origin: matrix row of window cell 0.
    pub origin: i64,
    /// Number of in-matrix cells evaluated on this anti-diagonal.
    pub valid_cells: u32,
}

/// The adaptive banded DP engine: one alignment, advanced one anti-diagonal
/// at a time.
#[derive(Debug, Clone)]
pub struct Engine {
    scheme: ScoringScheme,
    w: usize,
    m: usize,
    n: usize,
    want_bt: bool,
    t: usize,
    origins: Vec<i64>,
    shifts: Vec<Shift>,
    cells: u64,
    bt_row: BtRow,
    // Rolling anti-diagonal state (§4.2.1): H two deep, I and D one deep.
    h_prev: Vec<Score>,
    h_prev2: Vec<Score>,
    i_prev: Vec<Score>,
    d_prev: Vec<Score>,
    h_cur: Vec<Score>,
    i_cur: Vec<Score>,
    d_cur: Vec<Score>,
    o_prev: i64,
    o_prev2: i64,
}

impl Engine {
    /// Start an alignment of sequences of length `m` and `n` with window
    /// width `w`. When `want_bt` is false no `BT` rows are produced (the
    /// score-only 16S mode, §5.3).
    pub fn new(scheme: ScoringScheme, w: usize, m: usize, n: usize, want_bt: bool) -> Self {
        assert!(w >= 2, "adaptive window must be at least 2 wide");
        // Anti-diagonal 0: window centred on (0, 0) — Figure 3 (B).
        //
        // Arrays carry one sentinel cell on the left and two on the right
        // (always NEG_INF): window cell k lives at index k + 1, and the
        // shifted neighbour reads of `step` can then index unconditionally.
        let o0 = -((w / 2) as i64);
        let mut h_prev = vec![NEG_INF; w + 3];
        h_prev[(0 - o0) as usize + 1] = 0;
        let mut origins = Vec::with_capacity(m + n + 1);
        origins.push(o0);
        Self {
            scheme,
            w,
            m,
            n,
            want_bt,
            t: 0,
            origins,
            shifts: Vec::with_capacity(m + n),
            cells: 1,
            bt_row: BtRow::new(w),
            h_prev,
            h_prev2: vec![NEG_INF; w + 3],
            i_prev: vec![NEG_INF; w + 3],
            d_prev: vec![NEG_INF; w + 3],
            h_cur: vec![NEG_INF; w + 3],
            i_cur: vec![NEG_INF; w + 3],
            d_cur: vec![NEG_INF; w + 3],
            o_prev: o0,
            o_prev2: o0,
        }
    }

    /// True once all `m + n` anti-diagonals have been computed.
    pub fn is_done(&self) -> bool {
        self.t == self.m + self.n
    }

    /// Window width.
    pub fn band(&self) -> usize {
        self.w
    }

    /// Anti-diagonal index of the *next* step (0 after construction).
    pub fn t(&self) -> usize {
        self.t
    }

    /// Window origins seen so far (`origins[t]`).
    pub fn origins(&self) -> &[i64] {
        &self.origins
    }

    /// In-matrix cells evaluated so far.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The `BT` row of the most recent step (all-zero when `want_bt` is
    /// false). Valid until the next call to [`Engine::step`].
    pub fn bt_row(&self) -> &BtRow {
        &self.bt_row
    }

    /// Consume the trace (after the run, for [`AdaptiveOutcome`]).
    pub fn into_trace(self) -> BandTrace {
        BandTrace {
            origins: self.origins,
            shifts: self.shifts,
        }
    }

    /// Advance one anti-diagonal. `a` and `b` are the sequences (any
    /// [`SeqView`]); panics if called when [`Engine::is_done`].
    pub fn step<A: SeqView + ?Sized, B: SeqView + ?Sized>(&mut self, a: &A, b: &B) -> StepOutcome {
        assert!(!self.is_done(), "engine already finished");
        debug_assert_eq!(a.len(), self.m);
        debug_assert_eq!(b.len(), self.n);
        let t = self.t + 1;
        let (m, n, w) = (self.m, self.n, self.w);
        let o_old = self.o_prev;
        let shift = self.decide_shift(o_old, t);
        let o_new = match shift {
            Shift::Right => o_old,
            Shift::Down => o_old + 1,
        };
        self.shifts.push(shift);
        self.origins.push(o_new);

        self.h_cur.fill(NEG_INF);
        self.i_cur.fill(NEG_INF);
        self.d_cur.fill(NEG_INF);
        if self.want_bt {
            self.bt_row.clear();
        }

        // Valid window cells: i in [0, m], j = t - i in [0, n].
        let k_lo = 0i64.max(-o_new).max(t as i64 - n as i64 - o_new);
        let k_hi = (w as i64 - 1).min(m as i64 - o_new).min(t as i64 - o_new);
        let valid = (k_hi - k_lo + 1).max(0) as u32;
        let (go, ge) = (self.scheme.gap_open, self.scheme.gap_extend);

        // Boundary cells (at most one of each per anti-diagonal).
        let mut int_lo = k_lo;
        let mut int_hi = k_hi;
        if k_lo <= k_hi && o_new + k_lo == 0 {
            // i == 0: H[0][j] = D[0][j] = -(go + j*ge); I = -inf (t >= 1).
            let v = -go - (t as Score) * ge;
            let pk = (k_lo + 1) as usize;
            self.h_cur[pk] = v;
            self.d_cur[pk] = v;
            int_lo += 1;
        }
        if k_lo <= k_hi && t as i64 - (o_new + k_hi) == 0 {
            // j == 0: H[i][0] = I[i][0] = -(go + i*ge).
            let v = -go - (t as Score) * ge;
            let pk = (k_hi + 1) as usize;
            self.h_cur[pk] = v;
            self.i_cur[pk] = v;
            int_hi -= 1;
        }

        // Interior sweep: neighbour indices are constant shifts thanks to
        // the sentinel padding (window cell k is at padded index k + 1).
        let s1 = (o_new - self.o_prev) as usize; // 0 = Right, 1 = Down
        let s2 = (o_new - self.o_prev2) as usize; // 0..=2
        for k in int_lo..=int_hi {
            let pk = (k + 1) as usize;
            let i = (o_new + k) as usize;
            let j = t - i;
            // left (i, j-1) at t-1; up (i-1, j) at t-1; diag (i-1, j-1) at t-2.
            let left_h = self.h_prev[pk + s1];
            let left_d = self.d_prev[pk + s1];
            let up_h = self.h_prev[pk + s1 - 1];
            let up_i = self.i_prev[pk + s1 - 1];
            let diag_h = self.h_prev2[pk + s2 - 1];

            let sub = self.scheme.substitution(a.base(i - 1), b.base(j - 1));
            let cell = gotoh_cell(go, ge, left_h, left_d, up_h, up_i, diag_h, sub);
            self.h_cur[pk] = cell.h;
            self.d_cur[pk] = cell.d;
            self.i_cur[pk] = cell.i;
            if self.want_bt {
                self.bt_row.set(k as usize, cell.bt);
            }
        }
        self.cells += u64::from(valid);

        std::mem::swap(&mut self.h_prev2, &mut self.h_prev);
        std::mem::swap(&mut self.h_prev, &mut self.h_cur);
        std::mem::swap(&mut self.i_prev, &mut self.i_cur);
        std::mem::swap(&mut self.d_prev, &mut self.d_cur);
        self.o_prev2 = self.o_prev;
        self.o_prev = o_new;
        self.t = t;

        StepOutcome {
            t,
            shift,
            origin: o_new,
            valid_cells: valid,
        }
    }

    /// The band-constrained score, available once [`Engine::is_done`].
    pub fn final_score(&self) -> Result<Score, AlignError> {
        assert!(self.is_done(), "engine still running");
        let (m, n, w) = (self.m, self.n, self.w);
        let o_final = self.o_prev;
        let k_final = m as i64 - o_final;
        if k_final < 0 || k_final >= w as i64 {
            return Err(AlignError::OutOfBand { band: w, m, n });
        }
        let score = self.h_prev[k_final as usize + 1];
        if score < NEG_INF / 2 {
            return Err(AlignError::OutOfBand { band: w, m, n });
        }
        Ok(score)
    }

    /// Choose the shift that produces anti-diagonal `t` from `t-1`.
    ///
    /// Hard guards come first so the window can always still reach `(m, n)`;
    /// otherwise the window steers so the best cell of the previous
    /// anti-diagonal stays centred. The two-extremity comparison of [24] is
    /// a special case of this ("which side of the window looks better");
    /// tracking the argmax is equally cheap per anti-diagonal and markedly
    /// more robust on the long (>100 bp) gaps the PacBio dataset contains.
    fn decide_shift(&self, o_old: i64, t: usize) -> Shift {
        let (m, n) = (self.m, self.n);
        let w = self.w as i64;
        // Guard 1: never push the origin past row m — (m, n) must keep index
        // >= 0 in the final window.
        if o_old + 1 > m as i64 {
            return Shift::Right;
        }
        // Guard 2: enough Down shifts must remain to lift the origin to
        // m - w + 1 by anti-diagonal m+n.
        let remaining_after = (m + n) as i64 - t as i64; // shifts left after this one
        if o_old + remaining_after < m as i64 - w + 1 {
            return Shift::Down;
        }
        // Guard 3: if the window's top would sit above the matrix (j > n),
        // shifting right is wasted; move down.
        if t as i64 - o_old > n as i64 {
            return Shift::Down;
        }
        // Guard 4: if the window's bottom already hangs below the matrix
        // (i > m), moving down adds more dead cells; move right.
        if o_old + w > m as i64 {
            return Shift::Right;
        }
        // Heuristic: keep the argmax of H centred within the valid span.
        let t_prev = t - 1;
        let mut best: Option<(Score, usize)> = None;
        let mut k_lo: Option<usize> = None;
        let mut k_hi: Option<usize> = None;
        for k in 0..self.w {
            let i = self.o_prev + k as i64;
            let j = t_prev as i64 - i;
            if i < 0 || j < 0 || i > m as i64 || j > n as i64 {
                continue;
            }
            let v = self.h_prev[k + 1];
            if v < NEG_INF / 2 {
                continue;
            }
            if k_lo.is_none() {
                k_lo = Some(k);
            }
            k_hi = Some(k);
            // Strict '>' keeps the earliest (topmost) argmax: ties favour
            // Right, mirroring the extremity rule's tie behaviour.
            if best.is_none_or(|(bv, _)| v > bv) {
                best = Some((v, k));
            }
        }
        match (best, k_lo, k_hi) {
            (Some((_, k_best)), Some(lo), Some(hi)) => {
                if (k_best - lo) * 2 > (hi - lo) {
                    Shift::Down
                } else {
                    Shift::Right
                }
            }
            // No valid cells yet (start-up corner): drift toward the matrix.
            _ => {
                if self.o_prev < 0 {
                    Shift::Down
                } else {
                    Shift::Right
                }
            }
        }
    }
}

/// Adaptive banded affine-gap global aligner (host-side convenience wrapper
/// around [`Engine`]).
#[derive(Debug, Clone)]
pub struct AdaptiveAligner {
    scheme: ScoringScheme,
    band: usize,
}

impl AdaptiveAligner {
    /// Build an adaptive aligner with window width `band` (>= 2).
    pub fn new(scheme: ScoringScheme, band: usize) -> Self {
        assert!(band >= 2, "adaptive window must be at least 2 wide");
        Self { scheme, band }
    }

    /// The configured window width.
    pub fn band(&self) -> usize {
        self.band
    }

    /// The scoring scheme.
    pub fn scheme(&self) -> &ScoringScheme {
        &self.scheme
    }

    /// Score only — no `BT` storage at all. This is the 16S mode of §5.3.
    pub fn score(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Score, AlignError> {
        let mut engine = Engine::new(self.scheme, self.band, a.len(), b.len(), false);
        while !engine.is_done() {
            engine.step(a, b);
        }
        engine.final_score()
    }

    /// Full alignment with CIGAR.
    pub fn align(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Alignment, AlignError> {
        let outcome = self.align_traced(a, b)?;
        Ok(outcome.alignment)
    }

    /// Alignment plus the window trajectory and cell counts.
    pub fn align_traced(&self, a: &DnaSeq, b: &DnaSeq) -> Result<AdaptiveOutcome, AlignError> {
        let (m, n) = (a.len(), b.len());
        let w = self.band;
        let mut engine = Engine::new(self.scheme, w, m, n, true);
        let mut bt: Vec<BtRow> = Vec::with_capacity(m + n + 1);
        bt.push(BtRow::new(w)); // row 0, never read
        while !engine.is_done() {
            engine.step(a, b);
            bt.push(engine.bt_row().clone());
        }
        let score = engine.final_score()?;
        let cells = engine.cells();
        let trace = engine.into_trace();
        let origins = trace.origins.clone();
        let cigar = walk(m, n, w, |i, j| {
            let t = i + j;
            let k = i as i64 - origins[t];
            if k < 0 || k >= w as i64 {
                None
            } else {
                Some(bt[t].get(k as usize))
            }
        })?;
        Ok(AdaptiveOutcome {
            alignment: Alignment { score, cigar },
            trace,
            cells,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::FullAligner;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn adaptive(w: usize) -> AdaptiveAligner {
        AdaptiveAligner::new(ScoringScheme::default(), w)
    }

    #[test]
    fn identical_sequences() {
        let s = seq("ACGTACGTACGTACGTACGT");
        let aln = adaptive(8).align(&s, &s).unwrap();
        assert_eq!(aln.cigar.to_string(), "20=");
        assert_eq!(aln.score, ScoringScheme::default().perfect(20));
    }

    #[test]
    fn single_mismatch_and_quickstart_doc() {
        let a = seq("ACGTACGTTT");
        let b = seq("ACGAACGTTT");
        let aln = adaptive(16).align(&a, &b).unwrap();
        assert_eq!(aln.cigar.to_string(), "3=1X6=");
    }

    #[test]
    fn matches_full_dp_on_small_inputs() {
        let pairs = [
            ("GATTACA", "GCTACAT"),
            ("ACGTACGTACGT", "ACGTTACGTAGT"),
            ("TTTTTTTT", "TTTT"),
            ("ACACACACAC", "CACACACACA"),
            ("AAAACGTTTT", "AAAATTTT"),
        ];
        let scheme = ScoringScheme::default();
        let full = FullAligner::affine(scheme);
        for (x, y) in pairs {
            let (a, b) = (seq(x), seq(y));
            let w = 2 * (a.len() + b.len()) + 2;
            let aln = AdaptiveAligner::new(scheme, w).align(&a, &b).unwrap();
            assert_eq!(aln.score, full.score(&a, &b), "{x} vs {y}");
            aln.cigar.validate(&a, &b).unwrap();
            assert_eq!(aln.cigar.score(&scheme), aln.score, "{x} vs {y}");
        }
    }

    #[test]
    fn tracks_a_large_gap_where_static_fails() {
        // 40-base gap, window 48: the adaptive window follows the gap while a
        // static band of 16 diagonals cannot even reach the end corner.
        let mut a_text = String::new();
        let mut b_text = String::new();
        let unit = "ACGTGGTCAT";
        for _ in 0..6 {
            a_text.push_str(unit);
            b_text.push_str(unit);
        }
        b_text.insert_str(30, &"T".repeat(40));
        let (a, b) = (seq(&a_text), seq(&b_text));
        let scheme = ScoringScheme::default();
        let optimal = FullAligner::affine(scheme).score(&a, &b);

        let adaptive_score = AdaptiveAligner::new(scheme, 48)
            .align(&a, &b)
            .unwrap()
            .score;
        assert_eq!(adaptive_score, optimal, "adaptive w=48 finds the gap");

        // Static w=16 cannot even reach (m, n): |n - m| = 40 > 8.
        let static_err = crate::banded::BandedAligner::new(scheme, 16)
            .align(&a, &b)
            .unwrap_err();
        assert!(matches!(static_err, crate::AlignError::OutOfBand { .. }));
    }

    #[test]
    fn empty_inputs() {
        let aln = adaptive(4).align(&DnaSeq::new(), &DnaSeq::new()).unwrap();
        assert_eq!(aln.score, 0);
        assert_eq!(aln.cigar.to_string(), "");
        let aln = adaptive(4).align(&seq("ACGT"), &DnaSeq::new()).unwrap();
        assert_eq!(aln.cigar.to_string(), "4I");
        let aln = adaptive(4).align(&DnaSeq::new(), &seq("ACGT")).unwrap();
        assert_eq!(aln.cigar.to_string(), "4D");
    }

    #[test]
    fn window_reaches_the_corner() {
        // Strongly unequal lengths force many Down/Right guards.
        let a = seq(&"ACGT".repeat(20)); // 80
        let b = seq(&"ACGT".repeat(5)); // 20
        let out = adaptive(16).align_traced(&a, &b).unwrap();
        let last = *out.trace.origins.last().unwrap();
        let k = a.len() as i64 - last;
        assert!((0..16).contains(&k), "final window must contain (m, n)");
        out.alignment.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn trace_shift_counts_are_consistent() {
        let a = seq(&"GATTACA".repeat(10));
        let b = seq(&"GATTACA".repeat(10));
        let out = adaptive(8).align_traced(&a, &b).unwrap();
        assert_eq!(out.trace.origins.len(), a.len() + b.len() + 1);
        assert_eq!(out.trace.shifts.len(), a.len() + b.len());
        let downs = out.trace.downs() as i64;
        assert_eq!(
            out.trace.origins.last().unwrap() - out.trace.origins[0],
            downs
        );
    }

    #[test]
    fn cells_scale_linearly_not_quadratically() {
        let scheme = ScoringScheme::default();
        let a1 = seq(&"ACGTACGT".repeat(16)); // 128
        let a2 = seq(&"ACGTACGT".repeat(32)); // 256
        let w = 16;
        let c1 = AdaptiveAligner::new(scheme, w)
            .align_traced(&a1, &a1)
            .unwrap()
            .cells;
        let c2 = AdaptiveAligner::new(scheme, w)
            .align_traced(&a2, &a2)
            .unwrap()
            .cells;
        // Doubling length should roughly double (not quadruple) the cells.
        assert!(c2 < c1 * 3, "c1={c1} c2={c2}");
        assert!(c2 > c1 * 3 / 2, "c1={c1} c2={c2}");
    }

    #[test]
    fn score_only_agrees_with_align() {
        let a = seq(&"ACGTTGCA".repeat(12));
        let b = seq(&"ACGTTGCA".repeat(11));
        let al = adaptive(32);
        assert_eq!(al.score(&a, &b).unwrap(), al.align(&a, &b).unwrap().score);
    }

    #[test]
    fn adaptive_beats_static_at_equal_width_with_gaps() {
        // Sanity behind Table 1: with a mid-sequence 24-gap and w=32 the
        // adaptive band finds the optimum while the static band cannot reach
        // the corner (|n-m| = 24 > 16).
        let core = "ACGTGGTCATCGATTACAGGCT";
        let a = seq(&core.repeat(8));
        let mut b_text = core.repeat(8);
        b_text.insert_str(88, &"G".repeat(24));
        let b = seq(&b_text);
        let scheme = ScoringScheme::default();
        let optimal = FullAligner::affine(scheme).score(&a, &b);
        let ad = AdaptiveAligner::new(scheme, 32)
            .align(&a, &b)
            .unwrap()
            .score;
        assert_eq!(ad, optimal, "adaptive w=32 tracks the 24-gap");
        assert!(crate::banded::BandedAligner::new(scheme, 32)
            .align(&a, &b)
            .is_err());
    }

    #[test]
    fn engine_steps_match_wrapper() {
        // Driving the engine manually (as the DPU kernel does) must agree
        // with the one-shot wrapper.
        let a = seq(&"ACGGTTAC".repeat(8));
        let b = seq(&"ACGTTTAC".repeat(8));
        let scheme = ScoringScheme::default();
        let mut engine = Engine::new(scheme, 16, a.len(), b.len(), false);
        let mut steps = 0;
        while !engine.is_done() {
            let out = engine.step(&a, &b);
            assert!(out.valid_cells > 0);
            assert_eq!(out.t, steps + 1);
            steps += 1;
        }
        assert_eq!(steps, a.len() + b.len());
        let wrapper = AdaptiveAligner::new(scheme, 16).score(&a, &b).unwrap();
        assert_eq!(engine.final_score().unwrap(), wrapper);
    }

    #[test]
    fn engine_works_on_packed_views() {
        // The DPU kernel aligns packed/unpacked mixes; results must agree.
        let a = seq(&"GATTACAT".repeat(6));
        let b = seq(&"GATTCCAT".repeat(6));
        let (pa, pb) = (a.pack(), b.pack());
        let scheme = ScoringScheme::default();
        let mut e1 = Engine::new(scheme, 16, a.len(), b.len(), false);
        let mut e2 = Engine::new(scheme, 16, a.len(), b.len(), false);
        while !e1.is_done() {
            e1.step(&a, &b);
            e2.step(&pa, &pb);
        }
        assert_eq!(e1.final_score().unwrap(), e2.final_score().unwrap());
    }

    #[test]
    #[should_panic(expected = "engine already finished")]
    fn stepping_past_the_end_panics() {
        let mut e = Engine::new(ScoringScheme::default(), 4, 0, 0, false);
        assert!(e.is_done());
        let a = DnaSeq::new();
        e.step(&a, &a);
    }

    #[test]
    #[should_panic(expected = "at least 2 wide")]
    fn tiny_window_rejected() {
        AdaptiveAligner::new(ScoringScheme::default(), 1);
    }
}
