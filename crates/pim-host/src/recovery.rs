//! Fault-tolerant alignment: the recovery policy of the job ticket.
//!
//! A strict ticket aborts on the first fault — correct for a healthy
//! server, useless on one where DPUs are masked out, launches fault, or
//! readback flips bits (see [`pim_sim::fault`]). A job ticket of the
//! persistent engine ([`crate::persistent`]) completes every job anyway;
//! the serve daemon submits one per request, and
//! [`crate::modes::align_pairs`] submits one per call, under
//! [`DispatchConfig::recovery`](crate::DispatchConfig::recovery). Its
//! recovery ladder:
//!
//! 1. **Detect** — per-DPU failures surface as typed errors: launch faults
//!    as [`SimError::DpuFaulted`], readback corruption as
//!    [`SimError::ResultCorrupt`] (magic + checksum on every result
//!    block), dead ranks and panicked rank workers as
//!    [`SimError::RankFailed`], and wrong-but-well-formed results through
//!    the host audit ([`audit_ok`]), when [`RecoveryConfig::audit`] is on.
//! 2. **Escalate** — watchdog expiries double the ticket's cycle budget.
//! 3. **Retry** — failed jobs are re-planned with the same LPT balancer
//!    onto the healthy DPUs and re-launched, up to
//!    [`RecoveryConfig::max_attempts`] total attempts per job. A dead
//!    rank's jobs fail over to the surviving ranks.
//! 4. **Quarantine** — a [`HealthTracker`] counts consecutive faults per
//!    DPU; after [`RecoveryConfig::quarantine_after`] in a row the DPU is
//!    taken out of the planning set (flaky hardware, not bad luck).
//! 5. **Fall back** — jobs that exhaust their attempts (or have no DPU
//!    left to run on, or cannot be planned) are aligned on the CPU with
//!    [`nw_core::adaptive::AdaptiveAligner`] — the same algorithm the DPU
//!    kernel runs, so fallback scores are bit-identical to DPU scores.
//!
//! This module holds the policy the engine applies — its knobs, the
//! fault accounting, per-DPU health, fault classification and the result
//! audit. Every recovery action is accounted in a [`FaultReport`] so tests
//! (the seeded chaos plans of `tests/fault_recovery.rs` among them) can
//! assert that nothing was lost.

use crate::deadline::DeadlinePolicy;
use crate::dispatch::RankExec;
use dpu_kernel::layout::{JobResult, JobStatus};
use nw_core::seq::PackedSeq;
use nw_core::ScoringScheme;
use pim_sim::SimError;

/// Recovery policy knobs.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Total attempts per job on the PiM side before CPU fallback (>= 1).
    pub max_attempts: usize,
    /// Consecutive faults after which a DPU is quarantined (>= 1).
    pub quarantine_after: usize,
    /// Wall-clock stall deadline: when work is in flight and no batch
    /// completes for this long, the engine sets every rank's cancel token
    /// — hung DPUs come back as [`SimError::WatchdogExpired`] failures and
    /// their jobs requeue instead of wedging the host.
    pub deadline: DeadlinePolicy,
    /// Audit every returned alignment ([`audit_ok`]): CIGAR validated
    /// against the original sequences and the score recomputed. Failures
    /// ride the same ladder as launch faults — retry, quarantine, CPU
    /// fallback. This is the only defense against *silent* corruption
    /// (payload mutated with the checksum recomputed). Job tickets only:
    /// a strict ticket is not audited.
    pub audit: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            quarantine_after: 2,
            deadline: DeadlinePolicy::off(),
            audit: false,
        }
    }
}

/// Accounting of everything the recovery layer did. All-zero (see
/// [`FaultReport::is_clean`]) when the run hit no faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Per-DPU launch faults / disabled-DPU hits observed.
    pub dpu_faults: usize,
    /// Whole-rank launch failures observed.
    pub rank_failures: usize,
    /// Result blocks rejected by the magic/checksum integrity check.
    pub corrupt_results: usize,
    /// Job re-dispatches (a job retried twice counts twice).
    pub retried_jobs: usize,
    /// `(rank, dpu)` pairs quarantined after repeated faults.
    pub quarantined: Vec<(usize, usize)>,
    /// Ranks declared dead after a launch failure.
    pub dead_ranks: Vec<usize>,
    /// Jobs completed by the CPU fallback aligner.
    pub cpu_fallbacks: usize,
    /// DPU cycles burned by attempts whose results were discarded.
    pub wasted_cycles: u64,
    /// DPU launches reaped by the cycle-budget watchdog (injected
    /// livelocks / runaway kernels).
    pub watchdog_expired: usize,
    /// Silent result corruptions injected (payload mutated, checksum
    /// recomputed) into readbacks that decoded and so reached the audit;
    /// one whose DPU's readback failed its integrity check is retried
    /// whole and not counted. With auditing enabled every one is caught:
    /// `silent_corruptions <= audit_failures`.
    pub silent_corruptions: usize,
    /// Results put through the host audit (informational; a fully audited
    /// clean run is still "clean").
    pub audit_checked: usize,
    /// Results the audit rejected and requeued.
    pub audit_failures: usize,
    /// Times the watchdog budget was doubled after expirations (the
    /// escalation ladder's first rung).
    pub budget_escalations: usize,
    /// Launches cancelled by the host's wall-clock deadline.
    pub deadline_cancellations: usize,
    /// Jobs abandoned because the host was interrupted (Ctrl-C / drain):
    /// never completed on PiM or CPU; their result slots carry
    /// [`JobStatus::Cancelled`]. Explicit accounting — an interrupted run
    /// reports exactly which work it did not do.
    pub interrupted_jobs: usize,
}

impl FaultReport {
    /// True when no fault was observed and no recovery action taken.
    /// `audit_checked` is informational — auditing a clean run does not
    /// dirty it.
    pub fn is_clean(&self) -> bool {
        Self {
            audit_checked: 0,
            ..self.clone()
        } == Self::default()
    }

    /// Fold another report's accounting into this one. Counter fields add;
    /// the quarantine and dead-rank lists concatenate (the same `(rank,
    /// dpu)` can appear once per constituent run — callers merging reports
    /// from *one* shared server see each quarantine decision once because
    /// the tracker only reports the transition). Used by the serve daemon
    /// to aggregate per-request reports into service-level totals without
    /// losing any fault accounting.
    pub fn merge(&mut self, other: &FaultReport) {
        self.dpu_faults += other.dpu_faults;
        self.rank_failures += other.rank_failures;
        self.corrupt_results += other.corrupt_results;
        self.retried_jobs += other.retried_jobs;
        self.quarantined.extend(other.quarantined.iter().copied());
        self.dead_ranks.extend(other.dead_ranks.iter().copied());
        self.cpu_fallbacks += other.cpu_fallbacks;
        self.wasted_cycles += other.wasted_cycles;
        self.watchdog_expired += other.watchdog_expired;
        self.silent_corruptions += other.silent_corruptions;
        self.audit_checked += other.audit_checked;
        self.audit_failures += other.audit_failures;
        self.budget_escalations += other.budget_escalations;
        self.deadline_cancellations += other.deadline_cancellations;
        self.interrupted_jobs += other.interrupted_jobs;
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "faults: {} dpu, {} rank, {} corrupt, {} watchdog, {} silent; {} retries, {} quarantined, {} dead ranks, {} cpu fallbacks, {} wasted cycles, {}/{} audits failed, {} budget escalations, {} deadline cancels, {} interrupted",
            self.dpu_faults,
            self.rank_failures,
            self.corrupt_results,
            self.watchdog_expired,
            self.silent_corruptions,
            self.retried_jobs,
            self.quarantined.len(),
            self.dead_ranks.len(),
            self.cpu_fallbacks,
            self.wasted_cycles,
            self.audit_failures,
            self.audit_checked,
            self.budget_escalations,
            self.deadline_cancellations,
            self.interrupted_jobs,
        )
    }
}

/// Per-DPU health bookkeeping: consecutive-fault counters, quarantine
/// flags, dead-rank flags.
#[derive(Debug)]
pub struct HealthTracker {
    threshold: usize,
    consecutive: Vec<Vec<usize>>,
    quarantined: Vec<Vec<bool>>,
    dead: Vec<bool>,
}

impl HealthTracker {
    /// Track `ranks` x `dpus` DPUs; quarantine after `threshold`
    /// consecutive faults.
    pub fn new(ranks: usize, dpus: usize, threshold: usize) -> Self {
        assert!(threshold >= 1, "quarantine threshold must be >= 1");
        Self {
            threshold,
            consecutive: vec![vec![0; dpus]; ranks],
            quarantined: vec![vec![false; dpus]; ranks],
            dead: vec![false; ranks],
        }
    }

    /// Record a fault; returns true when this fault newly quarantines the
    /// DPU.
    pub fn record_fault(&mut self, rank: usize, dpu: usize) -> bool {
        self.consecutive[rank][dpu] += 1;
        if self.consecutive[rank][dpu] >= self.threshold && !self.quarantined[rank][dpu] {
            self.quarantined[rank][dpu] = true;
            return true;
        }
        false
    }

    /// Record a clean round for a DPU (resets its consecutive counter; a
    /// quarantined DPU stays quarantined).
    pub fn record_success(&mut self, rank: usize, dpu: usize) {
        self.consecutive[rank][dpu] = 0;
    }

    /// Is the DPU quarantined?
    pub fn is_quarantined(&self, rank: usize, dpu: usize) -> bool {
        self.quarantined[rank][dpu]
    }

    /// Declare a rank dead; returns true when it was alive before.
    pub fn mark_dead(&mut self, rank: usize) -> bool {
        !std::mem::replace(&mut self.dead[rank], true)
    }

    /// Is the rank dead?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank]
    }
}

/// Strip a tolerant execution's failures into the fault report: classify
/// each failure, charge wasted cycles, update quarantine state, and requeue
/// the lost job ids. Cleanly-finished planned DPUs get their consecutive-
/// fault counters reset.
pub(crate) fn note_exec_faults(
    exec: &mut RankExec,
    r: usize,
    dpus_per_rank: usize,
    planned: &[(usize, Vec<usize>)],
    health: &mut HealthTracker,
    report: &mut FaultReport,
    requeue: &mut Vec<usize>,
) {
    let failures = std::mem::take(&mut exec.failures);
    let mut failed_dpus = vec![false; dpus_per_rank];
    for f in failures {
        failed_dpus[f.dpu] = true;
        match f.error {
            SimError::DpuFaulted { .. } => report.dpu_faults += 1,
            SimError::WatchdogExpired { .. } => report.watchdog_expired += 1,
            // Audit rejections are counted through the per-exec audit
            // counters (see `DispatchOutcome::absorb`), not as wire
            // corruption — the checksum passed, the payload lied.
            SimError::ResultCorrupt { detail, .. } if detail.starts_with("audit") => {}
            _ => report.corrupt_results += 1,
        }
        report.wasted_cycles += f.wasted_cycles;
        if health.record_fault(r, f.dpu) {
            report.quarantined.push((r, f.dpu));
        }
        requeue.extend(f.job_ids);
    }
    for &(d, _) in planned {
        if !failed_dpus[d] {
            health.record_success(r, d);
        }
    }
}

/// Host-side result audit: a returned alignment must be internally
/// consistent with the sequences it claims to align — the CIGAR must
/// consume exactly both sequences with every `=`/`X` column agreeing with
/// the bases, and rescoring the CIGAR must reproduce the reported score.
/// This catches *silent* corruption: the wire checksum only protects the
/// readback path, so a payload mutated before the checksum was computed
/// (or with the checksum recomputed) sails through integrity checks and
/// only fails here. Failed or score-only results carry no auditable CIGAR
/// and pass vacuously.
pub fn audit_ok(pair: &(PackedSeq, PackedSeq), res: &JobResult, scheme: &ScoringScheme) -> bool {
    if res.status != JobStatus::Ok || res.cigar.runs().is_empty() {
        return true;
    }
    res.cigar.validate(&pair.0, &pair.1).is_ok() && res.cigar.score(scheme) == res.score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::pair_workloads;
    use crate::dispatch::{
        execute_rounds, group_jobs, plan_rank, DispatchConfig, DispatchOutcome, Engine,
    };
    use crate::encode::Encoder;
    use crate::modes::align_pairs;
    use crate::pipeline::{execute_rounds_pipelined, PipelineOptions};
    use dpu_kernel::{KernelParams, KernelVariant, NwKernel, PoolConfig};
    use nw_core::adaptive::AdaptiveAligner;
    use nw_core::cigar::Cigar;
    use nw_core::seq::DnaSeq;
    use pim_sim::{FaultPlan, PimServer, ServerConfig};

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(4 + k % 3);
                let mut b = a.clone();
                b.insert_str(3 + k % 5, "TG");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    fn config() -> DispatchConfig {
        let kernel = NwKernel::new(
            PoolConfig {
                pools: 2,
                tasklets: 4,
            },
            KernelVariant::Asm,
        );
        let params = KernelParams {
            band: 16,
            scheme: ScoringScheme::default(),
            score_only: false,
        };
        DispatchConfig::new(kernel, params)
    }

    fn server_with(fault: FaultPlan, ranks: usize, dpus: usize) -> PimServer {
        let mut cfg = ServerConfig::with_ranks(ranks);
        cfg.dpus_per_rank = dpus;
        cfg.fault = fault;
        PimServer::new(cfg)
    }

    fn reference(cfg: &DispatchConfig, ps: &[(DnaSeq, DnaSeq)]) -> Vec<JobResult> {
        let aligner = AdaptiveAligner::new(cfg.params.scheme, cfg.params.band);
        ps.iter()
            .map(|(a, b)| match aligner.align(a, b) {
                Ok(aln) => JobResult {
                    status: JobStatus::Ok,
                    score: aln.score,
                    cigar: aln.cigar,
                },
                Err(_) => JobResult {
                    status: JobStatus::OutOfBand,
                    score: 0,
                    cigar: Cigar::new(),
                },
            })
            .collect()
    }

    /// The strict oracle of a fault-free job ticket: `cfg.rounds` rounds of
    /// [`group_jobs`] batches over the ranks, each LPT-planned over its
    /// rank's DPUs up front, run as one strict ticket at `cfg.engine`'s
    /// FIFO depth. Returns the outcome and the results in input order.
    fn strict_run(
        server: &mut PimServer,
        cfg: &DispatchConfig,
        ps: &[(DnaSeq, DnaSeq)],
    ) -> (DispatchOutcome, Vec<JobResult>) {
        let (ranks, dpus) = (server.rank_count(), server.cfg().dpus_per_rank);
        let mram = server.cfg().dpu.mram_size;
        let mut encoder = Encoder::new(0xDA7A);
        let packed: Vec<(PackedSeq, PackedSeq)> = ps
            .iter()
            .map(|(a, b)| (encoder.encode_seq(a), encoder.encode_seq(b)))
            .collect();
        let groups = group_jobs(
            &pair_workloads(&packed, cfg.params.band),
            cfg.rounds * ranks,
        );
        let rounds = groups
            .chunks(ranks)
            .map(|round| {
                round
                    .iter()
                    .map(|ids| {
                        let jobs: Vec<_> = ids.iter().map(|&i| packed[i].clone()).collect();
                        let pools = cfg.kernel.pool_cfg.pools;
                        plan_rank(&jobs, ids, dpus, cfg.params, pools, mram).unwrap()
                    })
                    .collect()
            })
            .collect();
        let mut outcome = match cfg.engine {
            Engine::Lockstep => execute_rounds(server, &cfg.kernel, rounds, cfg.sim_threads),
            Engine::Pipelined { fifo_depth } => {
                let opts = PipelineOptions {
                    fifo_depth,
                    sim_threads: cfg.sim_threads,
                };
                execute_rounds_pipelined(server, &cfg.kernel, rounds, &opts)
            }
        }
        .unwrap();
        let mut tagged = std::mem::take(&mut outcome.results);
        tagged.sort_by_key(|(id, _)| *id);
        assert!(tagged.iter().map(|(id, _)| *id).eq(0..ps.len()));
        (outcome, tagged.into_iter().map(|(_, r)| r).collect())
    }

    #[test]
    fn clean_server_produces_clean_report() {
        let ps = pairs(12);
        let cfg = config();
        let mut server = server_with(FaultPlan::default(), 2, 3);
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert!(report.fault.is_clean(), "{}", report.fault.summary());
        assert_eq!(results, reference(&cfg, &ps));
    }

    #[test]
    fn fault_free_run_launches_the_strict_batches() {
        // The first pass is grouped as the strict oracle groups its rounds,
        // and each rank runs its batches in round order, so every per-rank
        // simulated quantity matches the strict run bit for bit.
        let ps = pairs(17);
        let mut cfg = config();
        cfg.rounds = 3;
        for engine in [Engine::Lockstep, Engine::Pipelined { fifo_depth: 2 }] {
            cfg.engine = engine;
            let (strict, strict_results) =
                strict_run(&mut server_with(FaultPlan::default(), 2, 3), &cfg, &ps);
            let mut server = server_with(FaultPlan::default(), 2, 3);
            let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
            assert_eq!(results, strict_results, "{engine:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&report.rank_seconds), bits(&strict.rank_seconds));
            assert_eq!(report.dpu_seconds.to_bits(), strict.dpu_seconds.to_bits());
            assert_eq!(report.transfer_in_bytes, strict.bytes_in);
            assert_eq!(report.transfer_out_bytes, strict.bytes_out);
            assert_eq!(report.stats, strict.stats, "{engine:?}");
            assert_eq!(report.workload, strict.workload);
            assert!(report.fault.is_clean(), "{}", report.fault.summary());
        }
    }

    #[test]
    fn ranks_finishing_out_of_plan_order_keep_the_strict_clock() {
        // Rank 0 holds the host on its odd launches, so its first batch
        // comes back after the other ranks' batches. Launches are absorbed
        // in plan order, so every f64 sum matches the strict oracle bit for
        // bit whatever order the ranks finish in.
        let ps: Vec<(DnaSeq, DnaSeq)> = (0..29)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(3 + k % 7) + &"GA".repeat(k % 5);
                let mut b = a.clone();
                b.insert_str(3 + k % 5, &"TG".repeat(1 + k % 3));
                (seq(&a), seq(&b))
            })
            .collect();
        let mut cfg = config();
        cfg.rounds = 2;
        let fault = FaultPlan {
            straggler_ranks: vec![0],
            straggler_hold_ms: 20.0,
            ..Default::default()
        };
        for run in 0..6 {
            let (strict, strict_results) =
                strict_run(&mut server_with(fault.clone(), 4, 3), &cfg, &ps);
            let (report, results) =
                align_pairs(&mut server_with(fault.clone(), 4, 3), &cfg, &ps).unwrap();
            assert_eq!(results, strict_results, "run {run}");
            assert_eq!(
                report.transfer_seconds.to_bits(),
                strict.transfer_seconds.to_bits(),
                "run {run}: transfer_seconds"
            );
            assert_eq!(
                report.mean_rank_imbalance.to_bits(),
                strict.mean_rank_imbalance.to_bits(),
                "run {run}: mean_rank_imbalance"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&report.rank_seconds),
                bits(&strict.rank_seconds),
                "run {run}: rank_seconds"
            );
        }
    }

    #[test]
    fn recovering_reports_carry_the_tickets_pipeline_metrics() {
        let ps = pairs(14);
        let mut cfg = config();
        cfg.rounds = 3;
        let mut server = server_with(FaultPlan::default(), 2, 3);
        let (report, _) = align_pairs(&mut server, &cfg, &ps).unwrap();
        let m = report
            .pipeline
            .expect("a recovering run reports its ticket's metrics");
        assert_eq!(m.batches, 2 * 3, "one launch per rank per round");
        assert_eq!(m.fifo_depth, 2);
        assert_eq!(m.rank_stall_seconds.len(), 2);
        assert_eq!(m.rank_busy_seconds.len(), 2);
        assert_eq!(m.max_fifo_occupancy.len(), 2);
        assert!(m.max_fifo_occupancy.iter().all(|&o| (1..=2).contains(&o)));
        assert!(m.rank_busy_seconds.iter().all(|&s| s > 0.0));
        assert!(m.plan_seconds > 0.0 && m.decode_seconds > 0.0);
        assert!(m.host_wall_seconds > 0.0);
    }

    #[test]
    fn disabled_dpus_fail_over_to_healthy_ones() {
        let ps = pairs(10);
        let cfg = config();
        let fault = FaultPlan {
            disabled_dpus: vec![(0, 0), (1, 2)],
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert_eq!(results, reference(&cfg, &ps));
        // Disabled DPUs never get planned jobs (the planner sees them), so
        // the run is clean — no retries were needed.
        assert!(report.fault.is_clean(), "{}", report.fault.summary());
    }

    #[test]
    fn dead_rank_jobs_fail_over() {
        let ps = pairs(10);
        let cfg = config();
        let fault = FaultPlan {
            dead_ranks: vec![0],
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert_eq!(results, reference(&cfg, &ps));
        assert_eq!(report.fault.dead_ranks, vec![0]);
        assert!(report.fault.rank_failures >= 1);
        assert!(report.fault.retried_jobs > 0);
        assert_eq!(report.fault.cpu_fallbacks, 0);
    }

    #[test]
    fn total_fault_rate_falls_back_to_cpu() {
        let ps = pairs(6);
        let mut cfg = config();
        let fault = FaultPlan {
            seed: 1,
            dpu_fault_rate: 1.0,
            ..Default::default()
        };
        let mut server = server_with(fault, 1, 2);
        cfg.recovery = RecoveryConfig {
            max_attempts: 2,
            quarantine_after: 2,
            ..Default::default()
        };
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert_eq!(results, reference(&cfg, &ps));
        assert_eq!(report.fault.cpu_fallbacks, 6);
        assert!(report.fault.dpu_faults > 0);
        assert!(!report.fault.quarantined.is_empty());
    }

    #[test]
    fn corruption_is_detected_and_retried() {
        let ps = pairs(8);
        let mut cfg = config();
        let fault = FaultPlan {
            seed: 9,
            corrupt_rate: 0.4,
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        cfg.recovery = RecoveryConfig {
            max_attempts: 10,
            quarantine_after: 100, // never quarantine: force retry-to-success
            ..Default::default()
        };
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert_eq!(results, reference(&cfg, &ps));
        assert!(
            report.fault.corrupt_results > 0,
            "rate 0.4 over 6 DPUs must corrupt something: {}",
            report.fault.summary()
        );
        assert!(report.fault.wasted_cycles > 0, "corrupt DPUs did run");
        assert_eq!(report.fault.cpu_fallbacks, 0);
    }

    #[test]
    fn health_tracker_quarantines_after_threshold() {
        let mut h = HealthTracker::new(2, 2, 2);
        assert!(!h.record_fault(0, 1));
        assert!(!h.is_quarantined(0, 1));
        assert!(h.record_fault(0, 1), "second consecutive fault quarantines");
        assert!(h.is_quarantined(0, 1));
        assert!(!h.record_fault(0, 1), "already quarantined");
        // Success resets the counter on another DPU.
        assert!(!h.record_fault(1, 0));
        h.record_success(1, 0);
        assert!(!h.record_fault(1, 0));
        assert!(!h.is_quarantined(1, 0));
        // Dead ranks.
        assert!(h.mark_dead(1));
        assert!(!h.mark_dead(1));
        assert!(h.is_dead(1) && !h.is_dead(0));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let cfg = config();
        let mut server = server_with(FaultPlan::default(), 1, 2);
        let (report, results) = align_pairs(&mut server, &cfg, &[]).unwrap();
        assert!(results.is_empty());
        assert!(report.fault.is_clean());
    }

    fn server_with_watchdog(
        fault: FaultPlan,
        ranks: usize,
        dpus: usize,
        watchdog: u64,
    ) -> PimServer {
        let mut cfg = ServerConfig::with_ranks(ranks);
        cfg.dpus_per_rank = dpus;
        cfg.fault = fault;
        cfg.dpu.watchdog_cycles = watchdog;
        PimServer::new(cfg)
    }

    #[test]
    fn hangs_are_reaped_retried_and_the_budget_escalates() {
        let ps = pairs(10);
        let mut cfg = config();
        let fault = FaultPlan {
            seed: 11,
            hang_rate: 0.3,
            ..Default::default()
        };
        let mut server = server_with_watchdog(fault, 2, 3, 2_000_000);
        cfg.recovery = RecoveryConfig {
            max_attempts: 10,
            quarantine_after: 100,
            ..Default::default()
        };
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert_eq!(results, reference(&cfg, &ps));
        assert!(
            report.fault.watchdog_expired > 0,
            "rate 0.3 over 6 DPUs must hang something: {}",
            report.fault.summary()
        );
        assert!(
            report.fault.budget_escalations > 0,
            "watchdog expiries must double the budget: {}",
            report.fault.summary()
        );
        assert!(report.fault.retried_jobs > 0);
        assert_eq!(
            server.cfg().dpu.watchdog_cycles,
            2_000_000,
            "escalated budget must be restored after the run"
        );
    }

    #[test]
    fn audit_detects_silent_corruption_and_retries() {
        let ps = pairs(8);
        let mut cfg = config();
        let fault = FaultPlan {
            seed: 5,
            silent_corrupt_rate: 0.5,
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        cfg.recovery = RecoveryConfig {
            max_attempts: 12,
            quarantine_after: 100,
            audit: true,
            ..Default::default()
        };
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert_eq!(results, reference(&cfg, &ps));
        assert!(
            report.fault.silent_corruptions > 0,
            "rate 0.5 over 6 DPUs must corrupt something: {}",
            report.fault.summary()
        );
        assert!(
            report.fault.audit_failures > 0,
            "the audit must catch the mutated CIGARs: {}",
            report.fault.summary()
        );
        assert_eq!(
            report.fault.corrupt_results, 0,
            "silent corruption recomputes the checksum, so the integrity \
             check must not fire"
        );
        assert!(report.fault.audit_checked >= results.len());
    }

    #[test]
    fn silent_corruption_escapes_without_the_audit() {
        // Negative control for the test above: with auditing off the
        // checksum still passes, nothing retries, and wrong results are
        // delivered — proving the audit stage is load-bearing.
        let ps = pairs(8);
        let cfg = config();
        let fault = FaultPlan {
            seed: 5,
            silent_corrupt_rate: 0.5,
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
        assert!(report.fault.silent_corruptions > 0);
        assert_eq!(report.fault.audit_checked, 0);
        assert_ne!(
            results,
            reference(&cfg, &ps),
            "unaudited silent corruption must reach the caller"
        );
    }

    #[test]
    fn deadline_cancels_unwatched_hangs_without_wedging() {
        // Watchdog disabled: an injected hang spins on the host clock and
        // only the wall-clock deadline can reap it. Every launch hangs, so
        // both DPUs quarantine and the jobs finish on the CPU.
        let ps = pairs(4);
        let mut cfg = config();
        let fault = FaultPlan {
            seed: 3,
            hang_rate: 1.0,
            ..Default::default()
        };
        cfg.recovery = RecoveryConfig {
            max_attempts: 2,
            quarantine_after: 1,
            deadline: DeadlinePolicy::after_seconds(0.1),
            ..Default::default()
        };
        for engine in [Engine::Lockstep, Engine::Pipelined { fifo_depth: 2 }] {
            cfg.engine = engine;
            let mut server = server_with(fault.clone(), 1, 2);
            let (report, results) = align_pairs(&mut server, &cfg, &ps).unwrap();
            assert_eq!(results, reference(&cfg, &ps));
            assert!(
                report.fault.deadline_cancellations > 0,
                "{engine:?}: {}",
                report.fault.summary()
            );
            assert!(report.fault.watchdog_expired > 0, "{engine:?}");
            assert_eq!(report.fault.cpu_fallbacks, ps.len(), "{engine:?}");
        }
    }
}
