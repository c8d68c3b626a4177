//! Execution reports: the time/energy breakdown every experiment mode
//! produces, in the units the paper's tables use.

use crate::pipeline::PipelineMetrics;
use crate::recovery::FaultReport;
use pim_sim::stats::AggregateStats;

/// End-to-end accounting for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// Mode label ("pairs", "all-vs-all", "sets").
    pub mode: &'static str,
    /// Alignments performed.
    pub alignments: usize,
    /// Alignments that produced a result.
    pub ok: usize,
    /// Alignments that failed (band could not cover the pair).
    pub failed: usize,
    /// Bytes moved host -> MRAM.
    pub transfer_in_bytes: u64,
    /// Bytes moved MRAM -> host (results).
    pub transfer_out_bytes: u64,
    /// Modeled transfer time (both directions), seconds.
    pub transfer_seconds: f64,
    /// Modeled on-the-fly 2-bit encode time, seconds.
    pub encode_seconds: f64,
    /// DPU execution time: the per-rank FIFO makespan (max over ranks of
    /// their accumulated barrier times), seconds.
    pub dpu_seconds: f64,
    /// Per-rank busy seconds (transfer + execute + collect).
    pub rank_seconds: Vec<f64>,
    /// Aggregate DPU counters summed over every launch.
    pub stats: AggregateStats,
    /// Total workload per eq. 6.
    pub workload: u64,
    /// Mean intra-rank load imbalance over launches (`(max-min)/max`).
    pub mean_rank_imbalance: f64,
    /// Fault/recovery accounting (clean outside the recovery path).
    pub fault: FaultReport,
    /// Host pipeline measurements of the engine ticket that ran (`None` for
    /// reports that ran no ticket or merge several).
    pub pipeline: Option<PipelineMetrics>,
    /// Backend-router and cache telemetry (`None` unless the run went
    /// through [`crate::router::route_pairs`]).
    pub router: Option<crate::router::RouterReport>,
}

impl ExecutionReport {
    /// End-to-end wall time: encoding is a serial prefix (the read/encode
    /// thread), then the rank FIFO runs; transfers are inside the per-rank
    /// times already.
    pub fn total_seconds(&self) -> f64 {
        self.encode_seconds + self.rank_seconds.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of total time spent in host-side work (encode + transfers)
    /// rather than DPU execution — the paper's "overhead of the host
    /// orchestration" (15 % on S1000, < 0.1 % on S30000).
    pub fn host_overhead_fraction(&self) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            return 0.0;
        }
        (self.encode_seconds + self.transfer_seconds) / total
    }

    /// Pipeline utilization over all DPU work.
    pub fn pipeline_utilization(&self) -> f64 {
        self.stats.total.pipeline_utilization()
    }

    /// Alignments per second of total wall time.
    pub fn alignments_per_second(&self) -> f64 {
        let total = self.total_seconds();
        if total == 0.0 {
            return 0.0;
        }
        self.alignments as f64 / total
    }

    /// Fold another run's report into this one (the serve daemon aggregates
    /// per-request reports into one service-lifetime report this way).
    /// Counters and times add; `rank_seconds` adds element-wise (growing to
    /// the longer vector); the imbalance becomes an alignment-weighted mean;
    /// pipeline metrics are dropped (they describe one engine run, not a
    /// concatenation); the mode label of `self` wins.
    pub fn merge(&mut self, other: &ExecutionReport) {
        let (n0, n1) = (self.alignments as f64, other.alignments as f64);
        if n0 + n1 > 0.0 {
            self.mean_rank_imbalance =
                (self.mean_rank_imbalance * n0 + other.mean_rank_imbalance * n1) / (n0 + n1);
        }
        self.alignments += other.alignments;
        self.ok += other.ok;
        self.failed += other.failed;
        self.transfer_in_bytes += other.transfer_in_bytes;
        self.transfer_out_bytes += other.transfer_out_bytes;
        self.transfer_seconds += other.transfer_seconds;
        self.encode_seconds += other.encode_seconds;
        self.dpu_seconds += other.dpu_seconds;
        if self.rank_seconds.len() < other.rank_seconds.len() {
            self.rank_seconds.resize(other.rank_seconds.len(), 0.0);
        }
        for (acc, s) in self.rank_seconds.iter_mut().zip(&other.rank_seconds) {
            *acc += s;
        }
        self.stats.absorb(&other.stats);
        self.workload += other.workload;
        self.fault.merge(&other.fault);
        self.pipeline = None;
        match (self.router.as_mut(), other.router.as_ref()) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.router = Some(theirs.clone()),
            _ => {}
        }
    }

    /// A one-line summary for harness logs.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} alignments ({} failed) in {:.3}s [encode {:.3}s, transfer {:.3}s, dpu {:.3}s], util {:.1}%, host overhead {:.1}%",
            self.mode,
            self.alignments,
            self.failed,
            self.total_seconds(),
            self.encode_seconds,
            self.transfer_seconds,
            self.dpu_seconds,
            100.0 * self.pipeline_utilization(),
            100.0 * self.host_overhead_fraction(),
        );
        if self.fault.audit_checked > 0 {
            s.push_str(&format!(
                ", audited {} ({} failed)",
                self.fault.audit_checked, self.fault.audit_failures
            ));
        }
        if let Some(router) = &self.router {
            s.push_str("; ");
            s.push_str(&router.summary());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ExecutionReport {
        ExecutionReport {
            mode: "pairs",
            alignments: 100,
            ok: 99,
            failed: 1,
            transfer_in_bytes: 1000,
            transfer_out_bytes: 100,
            transfer_seconds: 0.5,
            encode_seconds: 0.5,
            dpu_seconds: 8.0,
            rank_seconds: vec![9.0, 9.5],
            workload: 12345,
            ..Default::default()
        }
    }

    #[test]
    fn total_is_encode_plus_slowest_rank() {
        assert!((report().total_seconds() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn host_overhead_fraction_matches_components() {
        let r = report();
        assert!((r.host_overhead_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn throughput() {
        assert!((report().alignments_per_second() - 10.0).abs() < 1e-9);
        assert_eq!(ExecutionReport::default().alignments_per_second(), 0.0);
    }

    #[test]
    fn merge_adds_counts_and_weights_imbalance() {
        let mut a = report();
        a.mean_rank_imbalance = 0.2;
        a.fault.retried_jobs = 3;
        let mut b = report();
        b.alignments = 300;
        b.mean_rank_imbalance = 0.6;
        b.rank_seconds = vec![1.0, 1.0, 2.0];
        b.fault.cpu_fallbacks = 5;
        a.merge(&b);
        assert_eq!(a.alignments, 400);
        assert_eq!(a.ok, 198);
        assert_eq!(a.failed, 2);
        assert_eq!(a.transfer_in_bytes, 2000);
        assert!((a.encode_seconds - 1.0).abs() < 1e-12);
        assert_eq!(a.rank_seconds, vec![10.0, 10.5, 2.0]);
        // 100 alignments at 0.2 + 300 at 0.6 -> 0.5.
        assert!((a.mean_rank_imbalance - 0.5).abs() < 1e-12);
        assert_eq!(a.fault.retried_jobs, 3);
        assert_eq!(a.fault.cpu_fallbacks, 5);
        assert!(a.pipeline.is_none());
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let s = report().summary();
        assert!(s.contains("100 alignments"));
        assert!(s.contains("(1 failed)"));
        assert!(s.contains("pairs"));
        assert!(!s.contains("audited"), "no audit ran");
        let mut audited = report();
        audited.fault.audit_checked = 100;
        audited.fault.audit_failures = 2;
        let s = audited.summary();
        assert!(s.contains("audited 100 (2 failed)"), "{s}");
    }
}
