//! The multi-threaded driver — the paper's "OpenMP multi-threaded CPU
//! implementation". Pairs are pulled from a shared atomic cursor by
//! scoped worker threads (work stealing at pair granularity, the same
//! dynamic schedule OpenMP's `schedule(dynamic)` gives minimap2).

use nw_core::banded::BandedAligner;
use nw_core::error::AlignError;
use nw_core::seq::DnaSeq;
use nw_core::{Alignment, Score, ScoringScheme};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Multi-threaded banded CPU aligner.
#[derive(Debug, Clone)]
pub struct CpuBaseline {
    aligner: BandedAligner,
    threads: usize,
}

/// Outcome of a batch run, with the wall time actually measured.
#[derive(Debug)]
pub struct BatchOutcome<T> {
    /// Per-pair results, in input order.
    pub results: Vec<Result<T, AlignError>>,
    /// Wall-clock duration of the compute phase.
    pub elapsed: std::time::Duration,
    /// DP cells evaluated (sum of per-pair band areas, successful or not).
    pub cells: u64,
}

impl<T> BatchOutcome<T> {
    /// Measured throughput in DP cells per second.
    pub fn cells_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.cells as f64 / secs
    }
}

impl CpuBaseline {
    /// Build a driver with `threads` worker threads (>= 1).
    pub fn new(scheme: ScoringScheme, band: usize, threads: usize) -> Self {
        assert!(threads >= 1, "at least one thread");
        Self {
            aligner: BandedAligner::new(scheme, band),
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying single-pair aligner.
    pub fn aligner(&self) -> &BandedAligner {
        &self.aligner
    }

    /// Align every pair, returning scores + CIGARs.
    pub fn align_all(&self, pairs: &[(DnaSeq, DnaSeq)]) -> BatchOutcome<Alignment> {
        self.run(pairs, |al, a, b| al.align(a, b))
    }

    /// Score every pair (no CIGAR) — the 16S mode.
    pub fn score_all(&self, pairs: &[(DnaSeq, DnaSeq)]) -> BatchOutcome<Score> {
        self.run(pairs, |al, a, b| al.score(a, b))
    }

    fn run<T, F>(&self, pairs: &[(DnaSeq, DnaSeq)], work: F) -> BatchOutcome<T>
    where
        T: Send,
        F: Fn(&BandedAligner, &DnaSeq, &DnaSeq) -> Result<T, AlignError> + Sync,
    {
        let cells: u64 = pairs
            .iter()
            .map(|(a, b)| self.aligner.cells(a.len(), b.len()))
            .sum();
        let aligner = &self.aligner;
        let (results, elapsed) = run_batch(self.threads, pairs, |a, b| work(aligner, a, b));
        BatchOutcome {
            results,
            elapsed,
            cells,
        }
    }
}

/// Run `work` over every pair on `threads` scoped worker threads with the
/// shared-cursor dynamic schedule, returning per-pair results in input
/// order plus the measured wall time.
///
/// This is the driver's engine exposed generically: any `work` function
/// (the static band, the adaptive aligner, ...) gets the same work-stealing schedule —
/// the PiM host uses it to run CPU-fallback batches with the aligner that
/// matches the DPU kernel.
pub fn run_batch<T, F>(
    threads: usize,
    pairs: &[(DnaSeq, DnaSeq)],
    work: F,
) -> (Vec<Result<T, AlignError>>, std::time::Duration)
where
    T: Send,
    F: Fn(&DnaSeq, &DnaSeq) -> Result<T, AlignError> + Sync,
{
    assert!(threads >= 1, "at least one thread");
    let start = std::time::Instant::now();
    let mut results: Vec<Option<Result<T, AlignError>>> = (0..pairs.len()).map(|_| None).collect();
    if threads == 1 || pairs.len() <= 1 {
        for (slot, (a, b)) in results.iter_mut().zip(pairs) {
            *slot = Some(work(a, b));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let slots = &mut results[..];
        // Workers claim indices from the shared cursor, collect into
        // per-worker vecs, then the parent scatters into the slots.
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                let cursor = &cursor;
                let work = &work;
                handles.push(scope.spawn(move || {
                    let mut mine: Vec<(usize, Result<T, AlignError>)> = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= pairs.len() {
                            break;
                        }
                        let (a, b) = &pairs[idx];
                        mine.push((idx, work(a, b)));
                    }
                    mine
                }));
            }
            for h in handles {
                for (idx, r) in h.join().expect("worker panicked") {
                    slots[idx] = Some(r);
                }
            }
        });
    }
    let elapsed = start.elapsed();
    (
        results
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect(),
        elapsed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(4 + k % 5);
                let mut b = a.clone();
                b.insert_str(5 + k % 7, "GG");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    #[test]
    fn multithreaded_matches_single_threaded() {
        let ps = pairs(37);
        let scheme = ScoringScheme::default();
        let one = CpuBaseline::new(scheme, 16, 1).align_all(&ps);
        let four = CpuBaseline::new(scheme, 16, 4).align_all(&ps);
        assert_eq!(one.results.len(), four.results.len());
        for (a, b) in one.results.iter().zip(&four.results) {
            assert_eq!(a.as_ref().ok(), b.as_ref().ok());
        }
        assert_eq!(one.cells, four.cells);
    }

    #[test]
    fn results_are_in_input_order() {
        let ps = pairs(16);
        let out = CpuBaseline::new(ScoringScheme::default(), 16, 3).align_all(&ps);
        for (r, (a, b)) in out.results.iter().zip(&ps) {
            let aln = r.as_ref().unwrap();
            aln.cigar.validate(a, b).unwrap();
        }
    }

    #[test]
    fn score_all_matches_align_all() {
        let ps = pairs(8);
        let driver = CpuBaseline::new(ScoringScheme::default(), 16, 2);
        let scores = driver.score_all(&ps);
        let aligns = driver.align_all(&ps);
        for (s, a) in scores.results.iter().zip(&aligns.results) {
            assert_eq!(s.as_ref().ok(), a.as_ref().ok().map(|x| &x.score));
        }
    }

    #[test]
    fn empty_batch() {
        let out = CpuBaseline::new(ScoringScheme::default(), 8, 4).align_all(&[]);
        assert!(out.results.is_empty());
        assert_eq!(out.cells, 0);
    }

    #[test]
    fn failures_are_per_pair() {
        // One pair with a huge length difference fails; others succeed.
        let mut ps = pairs(3);
        ps.insert(1, (seq("ACGT"), seq(&"ACGT".repeat(30))));
        let out = CpuBaseline::new(ScoringScheme::default(), 8, 2).align_all(&ps);
        assert!(out.results[0].is_ok());
        assert!(out.results[1].is_err());
        assert!(out.results[2].is_ok());
    }

    #[test]
    fn throughput_is_positive() {
        let ps = pairs(20);
        let out = CpuBaseline::new(ScoringScheme::default(), 16, 2).score_all(&ps);
        assert!(out.cells_per_second() > 0.0);
        assert!(out.cells > 0);
    }
}
