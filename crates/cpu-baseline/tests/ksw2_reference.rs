//! The static-band sweep (`nw_core::banded::BandedAligner`, the KSW2
//! structure with a query profile and a two-pass row) must be bit-identical
//! to the fused row sweep it replaced, kept here as the reference: same
//! scores, same CIGARs, same errors, on fixed and random sequence pairs
//! across band widths and scoring schemes, and its score-only path must
//! return the score of its full alignment.
//!
//! Randomness comes from a hand-rolled splitmix-style LCG so the tests
//! stay deterministic and dependency-free. `KSW2_SMOKE_TRIALS` lets CI
//! run the property test at smoke scale.

use nw_core::banded::{BandGeometry, BandedAligner};
use nw_core::error::AlignError;
use nw_core::seq::DnaSeq;
use nw_core::traceback::{walk, BtCell, BtRow, Origin};
use nw_core::{Alignment, Score, ScoringScheme, NEG_INF};

/// The fused row-wise banded Gotoh sweep: one pass per cell, substitution
/// looked up per base pair. The reference the static sweep must match.
struct RowSweep {
    scheme: ScoringScheme,
    band: usize,
}

impl RowSweep {
    fn new(scheme: ScoringScheme, band: usize) -> Self {
        Self { scheme, band }
    }

    fn align(&self, a: &DnaSeq, b: &DnaSeq) -> Result<Alignment, AlignError> {
        let (score, bt) = self.run(a, b, true)?;
        let geom = BandGeometry::new(a.len(), b.len(), self.band);
        let bt = bt.expect("BT requested");
        let cigar = walk(a.len(), b.len(), self.band, |i, j| {
            geom.index(i, j).map(|k| bt[i].get(k))
        })?;
        Ok(Alignment { score, cigar })
    }

    /// Row-wise banded Gotoh. Row `i` stores diagonals `d_lo..=d_hi`; cell
    /// `(i, j)` lives at index `j - i - d_lo`, so:
    /// * left  `(i, j-1)`  -> same row, index-1
    /// * up    `(i-1, j)`  -> previous row, index+1
    /// * diag  `(i-1, j-1)`-> previous row, same index
    fn run(
        &self,
        a: &DnaSeq,
        b: &DnaSeq,
        want_bt: bool,
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

        let mut h_prev = vec![NEG_INF; width];
        let mut i_prev = vec![NEG_INF; width];
        let mut h_cur = vec![NEG_INF; width];
        let mut i_cur = vec![NEG_INF; width];
        let mut bt: Vec<BtRow> = if want_bt {
            (0..=m).map(|_| BtRow::new(width)).collect()
        } else {
            Vec::new()
        };

        // Row 0 boundary: H[0][j] = D[0][j] = -(go + j*ge); I[0][j] = -inf.
        for j in geom.j_range(0, n) {
            let k = geom.index(0, j).expect("row 0 in band");
            h_prev[k] = if j == 0 { 0 } else { -go - (j as Score) * ge };
        }

        // `i` drives the band geometry, both sequences, and `bt` at once; an
        // iterator over any single one of them would obscure that.
        #[allow(clippy::needless_range_loop)]
        for i in 1..=m {
            h_cur.fill(NEG_INF);
            i_cur.fill(NEG_INF);
            let ai = a.get(i - 1);
            let mut d: Score = NEG_INF;
            for j in geom.j_range(i, n) {
                let k = geom.index(i, j).expect("j_range within band");
                if j == 0 {
                    // Column 0 boundary: H[i][0] = I[i][0] = -(go + i*ge).
                    h_cur[k] = -go - (i as Score) * ge;
                    i_cur[k] = h_cur[k];
                    d = NEG_INF;
                    continue;
                }
                // Left neighbour (i, j-1): index k-1 when inside the band.
                let h_left = if k > 0 { h_cur[k - 1] } else { NEG_INF };
                let d_extend = d != NEG_INF && d - ge >= h_left - go - ge;
                d = (if d == NEG_INF { NEG_INF } else { d - ge }).max(h_left - go - ge);
                // Up neighbour (i-1, j): index k+1 in the previous row.
                let (h_up, i_up) = if k + 1 < width {
                    (h_prev[k + 1], i_prev[k + 1])
                } else {
                    (NEG_INF, NEG_INF)
                };
                let i_extend = i_up != NEG_INF && i_up - ge >= h_up - go - ge;
                let ins = (if i_up == NEG_INF { NEG_INF } else { i_up - ge }).max(h_up - go - ge);
                i_cur[k] = ins;
                // Diagonal neighbour (i-1, j-1): same index in previous row.
                let sub = self.scheme.substitution(ai, b.get(j - 1));
                let diag = h_prev[k].saturating_add(sub).max(NEG_INF);
                let best = diag.max(d).max(ins);
                h_cur[k] = best;
                if want_bt {
                    let origin = if best == diag && h_prev[k] > NEG_INF {
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
                    bt[i].set(k, BtCell::new(origin, i_extend, d_extend));
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
        Ok((score, want_bt.then_some(bt)))
    }
}

/// Deterministic 64-bit mixer (splitmix64 step).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn trials() -> usize {
    std::env::var("KSW2_SMOKE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

fn random_seq(rng: &mut Lcg, len: usize) -> DnaSeq {
    let bases = b"ACGT";
    let text: Vec<u8> = (0..len).map(|_| bases[(rng.next() & 3) as usize]).collect();
    DnaSeq::from_ascii(&text).expect("valid bases")
}

/// Mutate `a` into a related sequence so alignments exercise all three
/// origins (substitutions, insertions, deletions) instead of pure noise.
fn mutate(rng: &mut Lcg, a: &DnaSeq, rate_pct: u64) -> DnaSeq {
    let bases = b"ACGT";
    let mut text = Vec::with_capacity(a.len() + 8);
    for i in 0..a.len() {
        let roll = rng.next() % 100;
        if roll < rate_pct {
            match rng.next() % 3 {
                0 => text.push(bases[(rng.next() & 3) as usize]), // substitute
                1 => {
                    // insert
                    text.push(bases[(rng.next() & 3) as usize]);
                    text.push(a.get(i).to_ascii());
                }
                _ => {} // delete
            }
        } else {
            text.push(a.get(i).to_ascii());
        }
    }
    DnaSeq::from_ascii(&text).expect("valid bases")
}

fn seq(text: &str) -> DnaSeq {
    DnaSeq::from_ascii(text.as_bytes()).unwrap()
}

/// Align one pair with the static sweep and the reference and assert they
/// agree: the same score and CIGAR (and the score-only path the same
/// score), or the same error. Returns whether the pair aligned.
fn agrees(scheme: ScoringScheme, band: usize, a: &DnaSeq, b: &DnaSeq, case: &str) -> bool {
    let banded = BandedAligner::new(scheme, band);
    match (banded.align(a, b), RowSweep::new(scheme, band).align(a, b)) {
        (Ok(k), Ok(r)) => {
            assert_eq!(k.score, r.score, "{case}: score");
            assert_eq!(k.cigar, r.cigar, "{case}: CIGAR");
            assert_eq!(
                banded.score(a, b).expect("score-only"),
                k.score,
                "{case}: score-only path diverged"
            );
            true
        }
        (Err(ke), Err(re)) => {
            assert_eq!(ke, re, "{case}");
            false
        }
        (k, r) => panic!("{case}: divergence: {k:?} vs {r:?}"),
    }
}

/// Hand-picked pairs (identical, substituted, indel-shifted) at narrow to
/// wide bands under the default scheme.
#[test]
fn fixed_pairs_match_the_reference_across_bands() {
    let pairs = [
        ("GATTACAGATTACA", "GATTACAGATTACA"),
        ("ACGTACGTACGT", "ACGTTACGTAGT"),
        ("ACGTGGTCATCGATTACA", "ACGTGGTCATCGATTACA"),
        ("AAAATTTTCCCCGGGG", "AAAATTTTGCCCGGG"),
    ];
    let scheme = ScoringScheme::default();
    for w in [4usize, 8, 16, 64] {
        for (x, y) in pairs {
            let (a, b) = (seq(x), seq(y));
            agrees(scheme, w, &a, &b, &format!("{x} vs {y} w={w}"));
        }
    }
}

/// Three seeded draws: long pairs over narrow-to-medium bands (most of the
/// trials), shorter, less mutated pairs over medium bands, both under the
/// default scheme; then pairs under a random scoring scheme each.
#[test]
fn static_sweep_matches_the_reference() {
    // (seed, trials, max length, mutation-rate span, min band, band span,
    //  random scheme)
    for (seed, n, max_len, rate_span, band_min, band_span, random_scheme) in [
        (0x51D_CAFE, trials(), 300, 18, 2, 64, false),
        (0xBAD_5EED, trials().min(40), 120, 10, 8, 32, false),
        (0x5C4_E3E5, trials(), 200, 14, 2, 48, true),
    ] {
        let mut rng = Lcg(seed);
        let mut aligned = 0usize;
        for trial in 0..n {
            let scheme = if random_scheme {
                ScoringScheme::new(
                    1 + (rng.next() % 4) as Score,
                    (rng.next() % 7) as Score,
                    (rng.next() % 9) as Score,
                    1 + (rng.next() % 4) as Score,
                )
            } else {
                ScoringScheme::default()
            };
            let len = 1 + (rng.next() as usize % max_len);
            let a = random_seq(&mut rng, len);
            let rate = 2 + rng.next() % rate_span;
            let b = mutate(&mut rng, &a, rate);
            let band = band_min + (rng.next() as usize % band_span);
            let case = format!("{seed:#x} trial {trial} ({scheme:?}, band {band})");
            if agrees(scheme, band, &a, &b, &case) {
                aligned += 1;
            }
        }
        // The band draws keep most pairs alignable; make sure the test is
        // not vacuously passing on OutOfBand everywhere.
        assert!(aligned * 2 > n, "{seed:#x}: only {aligned} of {n} aligned");
    }
}
