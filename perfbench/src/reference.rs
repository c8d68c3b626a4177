//! Reference answers from the kernel-identical CPU aligner, computed during
//! set-up (outside timing) for every generated pair.

use crate::workload::Pair;
use dpu_kernel::layout::{JobResult, JobStatus};
use nw_core::{AdaptiveAligner, ScoringScheme};

/// What a correct answer for one pair looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// The pair aligns within the band: this score and CIGAR.
    Ok {
        /// Alignment score.
        score: i32,
        /// CIGAR in its wire form.
        cigar: String,
    },
    /// The pair leaves the band; any non-`ok` status is correct.
    OutOfBand,
}

impl Expected {
    /// Whether a wire answer (`status`, `score`, `cigar`) matches.
    pub fn matches(&self, status: &str, score: i64, cigar: &str) -> bool {
        match self {
            Expected::Ok { score: s, cigar: c } => {
                status == "ok" && score == i64::from(*s) && cigar == c
            }
            Expected::OutOfBand => status != "ok",
        }
    }

    /// Whether an in-process result matches.
    pub fn matches_result(&self, r: &JobResult) -> bool {
        let status = if r.status == JobStatus::Ok {
            "ok"
        } else {
            "failed"
        };
        self.matches(status, i64::from(r.score), &r.cigar.to_string())
    }
}

/// The expected answer of pair id `id` of a table whose reference answers
/// are `expected`: a variant shares its base pair's answer (see
/// [`crate::workload::variant_texts`]).
pub fn expected_of(expected: &[Expected], id: usize) -> &Expected {
    &expected[id % expected.len()]
}

/// Reference answers for `pairs` at `band` (rounded up to a multiple of 16,
/// as the kernel does), on up to `available_parallelism` threads.
pub fn reference(pairs: &[Pair], band: usize) -> Vec<Expected> {
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), band.next_multiple_of(16).max(16));
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = pairs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                let aligner = &aligner;
                scope.spawn(move || {
                    part.iter()
                        .map(|p| match aligner.align(&p.a, &p.b) {
                            Ok(aln) => Expected::Ok {
                                score: aln.score,
                                cigar: aln.cigar.to_string(),
                            },
                            Err(_) => Expected::OutOfBand,
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}
