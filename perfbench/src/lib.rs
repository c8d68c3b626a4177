//! # perfbench — the upmem-nw benchmark
//!
//! Three workloads, each from a seed:
//!
//! * `serve-short` — a closed loop of small, unique S1000 requests into a
//!   spawned `upmem-nw serve` ([`serve`]).
//! * `batch-long` — repeated one-shot `pim_host::align_pairs` calls over
//!   S10000 and S30000 pairs ([`batch`]).
//! * `serve-hot-durable` — a closed loop of Zipf-skewed repeats against a
//!   durable daemon whose state directory a warm-up lifetime filled
//!   ([`serve`]).
//!
//! End-to-end metrics come from an untraced run. A traced run also
//! replays the traced inputs through each layer's public function
//! ([`layers`]), recording spans ([`trace`]) from which per-layer self
//! times are computed. Wall-clock and simulated seconds are kept in
//! separate metrics.

pub mod batch;
pub mod daemon;
pub mod layers;
pub mod reference;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;

use layers::Metrics;
use std::fmt::Write as _;
use std::path::Path;
use workload::Workload;

/// What one run measured and found.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer matched its reference and every check held.
    pub correct: bool,
    /// Requests (serve) or pairs (batch) attempted in the measured phase.
    pub attempted: usize,
    /// Of those, how many did not complete correctly.
    pub failed: usize,
    /// End-to-end metrics (of the untraced half in a traced run).
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Checks that failed.
    pub problems: Vec<String>,
    /// Spans of a traced run.
    pub tracer: Option<trace::Tracer>,
    /// Human-readable remarks for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Wall time of a run's phases, for the log.
#[derive(Debug)]
pub struct Phases {
    last: std::time::Instant,
    done: Vec<(&'static str, f64)>,
}

impl Default for Phases {
    fn default() -> Self {
        Phases {
            last: std::time::Instant::now(),
            done: Vec::new(),
        }
    }
}

impl Phases {
    /// End the current phase, naming it.
    pub fn mark(&mut self, name: &'static str) {
        let now = std::time::Instant::now();
        self.done.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    /// `phases: a 1.2s, b 0.3s`.
    pub fn note(&self) -> String {
        let parts: Vec<String> = self
            .done
            .iter()
            .map(|(n, s)| format!("{n} {s:.2}s"))
            .collect();
        format!("phases: {}", parts.join(", "))
    }
}

/// Run `workload` with `seed` for `seconds`, traced or not, against the
/// daemon binary `bin`. Call from the directory that should hold the run's
/// sockets and state.
pub fn run(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    match workload {
        Workload::BatchLong => batch::run(bin, seed, seconds, trace),
        Workload::ServeShort | Workload::ServeHotDurable => {
            serve::run(bin, workload, seed, seconds, trace)
        }
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the finite values of `m`.
pub fn metrics_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    for (name, (value, unit)) in m.iter().filter(|(_, (v, _))| v.is_finite()) {
        if out.len() > 1 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// The result line the benchmark prints last.
pub fn result_line(o: &Outcome, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(metrics)
    )
}
