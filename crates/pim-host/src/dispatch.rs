//! Batch planning, rank launches, and the simulated clock (§4.1).
//!
//! The host's main loop — "dispatch batches of pairs of sequences to the
//! DPUs, launch, wait, collect" — becomes:
//!
//! 1. **Plan**: jobs are grouped into `rounds × ranks` batches
//!    ([`group_jobs`]); within a batch the LPT heuristic spreads jobs over
//!    the rank's 64 DPUs; each DPU gets a serialized MRAM image
//!    ([`plan_rank`]).
//! 2. **Execute**: the persistent engine ([`crate::persistent`]) feeds each
//!    rank its batches through a bounded FIFO; the rank's worker thread
//!    uploads and launches one batch (`exec_rank`). Simulated time is
//!    tracked per rank: transfer-in + rank barrier + collect, accumulated
//!    batch after batch (the FIFO of §4.1.2).
//! 3. **Collect**: the same worker reads the batch's records back, decodes
//!    them and, for a job ticket under [`RecoveryConfig::audit`], audits
//!    each against its pair; results come back tagged with the caller's
//!    job ids, ready to absorb.

use crate::balance::{lpt_assign, workload};
use crate::pipeline::PipelineMetrics;
use crate::recovery::{audit_ok, FaultReport, RecoveryConfig};
use dpu_kernel::layout::{
    result_checksum, JobBatch, JobBatchBuilder, JobResult, KernelParams, RawResult,
    OUT_HEADER_BYTES,
};
use dpu_kernel::NwKernel;
use nw_core::seq::PackedSeq;
use nw_core::ScoringScheme;
use pim_sim::rank::Rank;
use pim_sim::stats::AggregateStats;
use pim_sim::{PimServer, SimError};
use std::time::Instant;

/// How deep the one dispatch engine's rank FIFOs run. Both variants drive
/// the persistent engine ([`crate::persistent`]) and produce bit-identical
/// results and simulated times; only host wall-clock differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// FIFO depth 1: each rank holds one batch at a time.
    Lockstep,
    /// FIFO depth `fifo_depth`: a rank's next batches queue behind the one
    /// it runs, so it starts them the moment it finishes.
    Pipelined {
        /// Bounded FIFO depth per rank (batches queued ahead; >= 1).
        fifo_depth: usize,
    },
}

impl Engine {
    /// The rank FIFO depth this selects.
    pub fn fifo_depth(self) -> usize {
        match self {
            Engine::Lockstep => 1,
            Engine::Pipelined { fifo_depth } => fifo_depth.max(1),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::Pipelined { fifo_depth: 2 }
    }
}

/// Host-side 2-bit encode throughput the simulated clock charges, bytes
/// of ASCII per second (~2 GB/s per core on commodity hardware; the cost
/// is "minimal", §4.1.1; see DESIGN §6).
pub const ENCODE_RATE: f64 = 2.0e9;

/// Host configuration.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// The kernel to load on the DPUs.
    pub kernel: NwKernel,
    /// Launch parameters (band, scheme, score-only).
    pub params: KernelParams,
    /// Rounds: how many batches each rank processes.
    pub rounds: usize,
    /// Rank FIFO depth of the dispatch engine (depth 2 by default; every
    /// depth produces bit-identical results and simulated times).
    pub engine: Engine,
    /// Simulator thread budget shared by the per-rank workers and the
    /// intra-rank DPU pool (`0` = available parallelism). Each of the `R`
    /// concurrently-executing ranks gets `max(1, budget / R)` threads for
    /// its DPUs, and the CPU fallback runs on the whole budget — results
    /// are bit-identical at any setting (see
    /// [`pim_sim::rank::Rank::launch_threads`]).
    pub sim_threads: usize,
    /// Recovery policy of [`crate::modes::align_pairs`]' job ticket:
    /// retries, quarantine, CPU fallback, the stall deadline, and the
    /// result audit ([`RecoveryConfig::audit`]). The strict tickets of
    /// [`crate::modes::all_vs_all`], [`crate::modes::align_sets`],
    /// [`execute_rounds`] and [`crate::pipeline::execute_rounds_pipelined`]
    /// ignore it.
    pub recovery: RecoveryConfig,
}

impl DispatchConfig {
    /// Paper-like defaults for a kernel + params.
    pub fn new(kernel: NwKernel, params: KernelParams) -> Self {
        Self {
            kernel,
            params,
            rounds: 2,
            engine: Engine::default(),
            sim_threads: 0,
            recovery: RecoveryConfig::default(),
        }
    }
}

/// The simulator thread budget: `sim_threads`, or all available cores
/// when it is `0`.
pub(crate) fn thread_budget(sim_threads: usize) -> usize {
    if sim_threads > 0 {
        sim_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A prepared per-DPU batch plus the mapping from builder order back to
/// caller job ids.
#[derive(Debug, Clone)]
pub struct DpuPlan {
    /// Caller ids, in the order jobs were added to the builder.
    pub job_ids: Vec<usize>,
    /// The built batch.
    pub batch: JobBatch,
}

/// Plans for one rank launch (one entry per DPU; `None` = idle DPU).
#[derive(Debug, Default, Clone)]
pub struct RankPlan {
    /// Per-DPU plans.
    pub dpus: Vec<Option<DpuPlan>>,
    /// Launch parameters, recorded at plan time so idle-DPU filler images
    /// can be built even when the plan is sparse.
    pub params: Option<KernelParams>,
}

impl RankPlan {
    /// Launch parameters for this plan: the recorded ones, falling back to
    /// any populated DPU's batch.
    pub fn params(&self) -> Option<KernelParams> {
        self.params
            .or_else(|| self.dpus.iter().flatten().map(|p| p.batch.params).next())
    }
}

/// Accumulated outcome of executing all rounds.
#[derive(Debug, Default)]
pub struct DispatchOutcome {
    /// `(caller id, result)` for every job.
    pub results: Vec<(usize, JobResult)>,
    /// Per-rank accumulated busy seconds (transfer + execute + collect).
    pub rank_seconds: Vec<f64>,
    /// Total modeled transfer seconds (both directions, all ranks).
    pub transfer_seconds: f64,
    /// Bytes host -> MRAM.
    pub bytes_in: u64,
    /// Bytes MRAM -> host.
    pub bytes_out: u64,
    /// Max accumulated DPU barrier seconds over ranks.
    pub dpu_seconds: f64,
    /// Merged DPU statistics.
    pub stats: AggregateStats,
    /// Mean intra-rank imbalance across launches.
    pub mean_rank_imbalance: f64,
    /// Total eq.-6 workload.
    pub workload: u64,
    /// Fault/recovery accounting (all zeros outside the recovery path).
    pub fault: FaultReport,
    /// Host-side pipeline metrics of the engine ticket that ran.
    pub pipeline: Option<PipelineMetrics>,
}

impl DispatchOutcome {
    /// Fold one rank launch into the accumulated outcome. Callers absorb
    /// in plan order, so f64 sums do not depend on completion order.
    pub(crate) fn absorb(
        &mut self,
        exec: RankExec,
        dpu_busy: &mut [f64],
        imbalances: &mut Vec<f64>,
    ) {
        self.results.extend(exec.results);
        self.rank_seconds[exec.rank] += exec.barrier_seconds + exec.xfer_seconds;
        dpu_busy[exec.rank] += exec.barrier_seconds;
        self.transfer_seconds += exec.xfer_seconds;
        self.bytes_in += exec.bytes_in;
        self.bytes_out += exec.bytes_out;
        self.workload += exec.workload;
        self.fault.silent_corruptions += exec.silent_corruptions as usize;
        self.fault.audit_checked += exec.audit_checked as usize;
        self.fault.audit_failures += exec.audit_failures as usize;
        if exec.cancelled {
            self.fault.deadline_cancellations += 1;
        }
        if exec.stats.dpus > 0 || exec.stats.watchdog_expired > 0 {
            if exec.stats.dpus > 0 {
                imbalances.push(exec.imbalance);
            }
            merge_aggregate(&mut self.stats, &exec.stats);
        }
    }

    /// Compute the derived fields once every launch is absorbed.
    pub(crate) fn finalize(&mut self, dpu_busy: &[f64], imbalances: &[f64]) {
        self.dpu_seconds = dpu_busy.iter().cloned().fold(0.0, f64::max);
        self.mean_rank_imbalance = if imbalances.is_empty() {
            0.0
        } else {
            imbalances.iter().sum::<f64>() / imbalances.len() as f64
        };
    }
}

/// Build a rank plan: LPT the given jobs over `dpus` DPUs.
///
/// `jobs[i]` are packed pairs; `ids[i]` the caller's job ids.
pub fn plan_rank(
    jobs: &[(PackedSeq, PackedSeq)],
    ids: &[usize],
    dpus: usize,
    params: KernelParams,
    pools: usize,
    mram_size: usize,
) -> Result<RankPlan, SimError> {
    assert_eq!(jobs.len(), ids.len());
    let members: Vec<usize> = (0..jobs.len()).collect();
    let slots: Vec<usize> = (0..dpus).collect();
    let mut plan = plan_rank_slots(
        jobs,
        &members,
        &slots,
        dpus,
        params,
        pools,
        mram_size,
        Vec::new,
    )?;
    for id in plan.dpus.iter_mut().flatten().flat_map(|p| &mut p.job_ids) {
        *id = ids[*id];
    }
    Ok(plan)
}

/// LPT the jobs `members` (indices into `jobs`) over the usable DPU
/// `slots` of a rank of `dpus_per_rank` DPUs by their eq.-6 workloads,
/// serializing each DPU's MRAM image into a buffer drawn from `buffer`.
/// The plan's job ids are the member indices.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_rank_slots(
    jobs: &[(PackedSeq, PackedSeq)],
    members: &[usize],
    slots: &[usize],
    dpus_per_rank: usize,
    params: KernelParams,
    pools: usize,
    mram_size: usize,
    mut buffer: impl FnMut() -> Vec<u8>,
) -> Result<RankPlan, SimError> {
    let mut dpus: Vec<Option<DpuPlan>> = (0..dpus_per_rank).map(|_| None).collect();
    if !members.is_empty() && !slots.is_empty() {
        let workloads: Vec<u64> = members
            .iter()
            .map(|&i| workload(jobs[i].0.len(), jobs[i].1.len(), params.band))
            .collect();
        for (bin, &slot) in lpt_assign(&workloads, slots.len()).iter().zip(slots) {
            if bin.is_empty() {
                continue;
            }
            let mut builder = JobBatchBuilder::new(params, pools);
            let mut job_ids = Vec::with_capacity(bin.len());
            for &k in bin {
                let i = members[k];
                builder.add_pair(jobs[i].0.clone(), jobs[i].1.clone());
                job_ids.push(i);
            }
            dpus[slot] = Some(DpuPlan {
                job_ids,
                batch: builder.build_with(mram_size, buffer())?,
            });
        }
    }
    Ok(RankPlan {
        dpus,
        params: Some(params),
    })
}

/// One DPU's failure during a launch: which jobs were lost, why, and how
/// many DPU cycles the failed attempt burned.
#[derive(Debug, Clone)]
pub struct DpuFailure {
    /// Rank of the failed DPU.
    pub rank: usize,
    /// DPU index within the rank.
    pub dpu: usize,
    /// Caller ids of the jobs that produced no usable result.
    pub job_ids: Vec<usize>,
    /// What went wrong.
    pub error: SimError,
    /// Cycles the DPU spent before the failure was detected (0 when it
    /// never ran).
    pub wasted_cycles: u64,
}

/// One rank's execution record for one launch.
#[derive(Debug, Default)]
pub struct RankExec {
    /// Which rank.
    pub rank: usize,
    /// `(caller id, result)` for every job that completed and verified.
    pub results: Vec<(usize, JobResult)>,
    /// Per-DPU failures (empty on a clean round).
    pub failures: Vec<DpuFailure>,
    /// Simulated rank barrier time this round.
    pub barrier_seconds: f64,
    /// Simulated transfer time this round (both directions).
    pub xfer_seconds: f64,
    /// Bytes host -> MRAM.
    pub bytes_in: u64,
    /// Bytes MRAM -> host.
    pub bytes_out: u64,
    /// Aggregated DPU statistics.
    pub stats: AggregateStats,
    /// Intra-rank imbalance of this launch.
    pub imbalance: f64,
    /// Eq.-6 workload dispatched to this rank.
    pub workload: u64,
    /// Silent result corruptions (fault injection; payload mutated,
    /// checksum recomputed — only the host audit can catch these) on DPUs
    /// whose records decoded, so the audit saw them.
    pub silent_corruptions: u64,
    /// True when the host's deadline watcher cancelled this launch.
    pub cancelled: bool,
    /// Results put through the host audit this round.
    pub audit_checked: u64,
    /// Results the audit rejected (requeued as failures).
    pub audit_failures: u64,
    /// Host wall-clock seconds the rank worker spent decoding and auditing
    /// this launch's results.
    pub decode_seconds: f64,
}

/// One rank launch: transfer in, launch, read back, decode, and — when
/// `audit` holds the ticket's pairs — audit every decoded result. Only the
/// persistent engine's rank worker ([`crate::pipeline::worker_loop`]) calls
/// it. Always fault-*recording* — launch, readback, decode and audit
/// problems on individual DPUs land in `failures` instead of aborting the
/// rank; whole-rank errors (dead rank, kernel bug) still return `Err`.
///
/// `filler_cache` persists the idle-DPU filler image across batches (it
/// depends only on the params); `spent` receives the plan's MRAM image
/// buffers after upload so the planner can recycle them. `threads` is the
/// intra-rank pool size for this launch ([`Rank::launch_threads`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_rank(
    rank: &mut Rank,
    kernel: &NwKernel,
    r: usize,
    mut plan: RankPlan,
    freq: f64,
    host_bw: f64,
    threads: usize,
    audit: Option<&[(PackedSeq, PackedSeq)]>,
    filler_cache: &mut Option<JobBatch>,
    spent: &mut Vec<Vec<u8>>,
) -> Result<RankExec, SimError> {
    let mut exec = RankExec {
        rank: r,
        ..Default::default()
    };
    let mut skip = vec![false; plan.dpus.len()];
    let mut corrupted = vec![false; plan.dpus.len()];
    let mut active = false;
    for (d, dpu_plan) in plan.dpus.iter_mut().enumerate() {
        if let Some(p) = dpu_plan {
            if !rank.dpu_enabled(d) {
                skip[d] = true;
                exec.failures.push(DpuFailure {
                    rank: r,
                    dpu: d,
                    job_ids: std::mem::take(&mut p.job_ids),
                    error: SimError::DpuFaulted { rank: r, dpu: d },
                    wasted_cycles: 0,
                });
                spent.push(std::mem::take(&mut p.batch.image));
                continue;
            }
            rank.dpu_mut(d)?.mram.host_write(0, &p.batch.image)?;
            // transfer_bytes reads the image length — count before reclaim.
            exec.bytes_in += p.batch.transfer_bytes();
            exec.workload += p.batch.workload;
            spent.push(std::mem::take(&mut p.batch.image));
            active = true;
        }
    }
    if !active {
        return Ok(exec);
    }
    // Idle DPUs of an active rank still get a valid (empty) image: the
    // launch is rank-granular (§2.1), so every DPU boots the kernel. One
    // image serves them all — the empty batch depends only on the params —
    // and is cached across batches of the same run.
    let params = plan.params().expect("active plan has params");
    for (d, dpu_plan) in plan.dpus.iter().enumerate() {
        if dpu_plan.is_some() || !rank.dpu_enabled(d) {
            continue;
        }
        if filler_cache.as_ref().is_none_or(|f| f.params != params) {
            *filler_cache = Some(JobBatchBuilder::new(params, 1).build(rank.dpu(d)?.mram.size())?);
        }
        let batch = filler_cache.as_ref().expect("just built");
        rank.dpu_mut(d)?.mram.host_write(0, &batch.image)?;
        exec.bytes_in += batch.transfer_bytes();
    }
    let run = rank.launch_threads(kernel, threads)?;
    for &d in &run.faulted {
        skip[d] = true;
        if let Some(p) = &mut plan.dpus[d] {
            exec.failures.push(DpuFailure {
                rank: r,
                dpu: d,
                job_ids: std::mem::take(&mut p.job_ids),
                error: SimError::DpuFaulted { rank: r, dpu: d },
                wasted_cycles: 0,
            });
        }
    }
    // A kernel error on one DPU no longer aborts the rank (see
    // [`pim_sim::rank::RankRun::errors`]): record it as that DPU's failure
    // — the other DPUs' results and stats survive the round.
    for (d, e) in run.errors {
        skip[d] = true;
        let job_ids = plan.dpus[d]
            .as_mut()
            .map(|p| std::mem::take(&mut p.job_ids))
            .unwrap_or_default();
        exec.failures.push(DpuFailure {
            rank: r,
            dpu: d,
            job_ids,
            error: e,
            wasted_cycles: rank.dpu(d).map(|dpu| dpu.stats.cycles).unwrap_or(0),
        });
    }
    exec.cancelled = run.cancelled;
    // Injected silent corruption: mutate one CIGAR run of one result record
    // and recompute the wire checksum, exactly as a DPU that *computed*
    // wrong data would have written it. `Mram::patch` leaves the independent
    // readback bit-flip fault model (armed corruption) undisturbed. Only
    // the host-side audit can catch these.
    for &(d, seed) in &run.silent_corrupt {
        if skip[d] {
            continue;
        }
        let Some(p) = &plan.dpus[d] else { continue };
        if p.batch.out_offsets.is_empty() {
            continue;
        }
        let (off, _) = p.batch.out_offsets[seed as usize % p.batch.out_offsets.len()];
        let mram = &mut rank.dpu_mut(d)?.mram;
        let head = mram.read_raw(off, OUT_HEADER_BYTES)?;
        let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().unwrap());
        let (status, score, runs) = (word(4), word(8), word(12) as usize);
        if runs == 0 {
            // Failed or score-only record: no CIGAR payload to corrupt.
            continue;
        }
        let mut words: Vec<u32> = mram
            .read_raw(off + OUT_HEADER_BYTES, runs * 4)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let victim = (seed >> 8) as usize % runs;
        // Flip the op's low bit: `=`<->`X`, `I`<->`D`. Still a structurally
        // valid CIGAR — decode succeeds, only validation against the
        // sequences (or score recomputation) can tell it is wrong.
        words[victim] ^= 1;
        mram.patch(
            off + OUT_HEADER_BYTES + 4 * victim,
            &words[victim].to_le_bytes(),
        )?;
        mram.patch(
            off + 0x10,
            &result_checksum(status, score, &words).to_le_bytes(),
        )?;
        corrupted[d] = true;
    }
    for (d, dpu_plan) in plan.dpus.iter_mut().enumerate() {
        let Some(p) = dpu_plan else { continue };
        if skip[d] {
            continue;
        }
        let dpu = rank.dpu(d)?;
        let (raw, cycles) = (p.batch.read_raw_results(&dpu.mram), dpu.stats.cycles);
        let job_ids = std::mem::take(&mut p.job_ids);
        let audit = audit.map(|pairs| (pairs, &params.scheme));
        let decode_start = Instant::now();
        decode_dpu(&mut exec, d, job_ids, raw, cycles, corrupted[d], audit);
        exec.decode_seconds += decode_start.elapsed().as_secs_f64();
    }
    exec.barrier_seconds = run.barrier_cycles as f64 / freq;
    exec.xfer_seconds = (exec.bytes_in + exec.bytes_out) as f64 / host_bw;
    exec.imbalance = run.stats.imbalance();
    exec.stats = run.stats;
    Ok(exec)
}

/// Decode one DPU's readback into `exec`, auditing each result against its
/// pair when `audit` is given.
///
/// A failed readback, or a record that fails to decode, fails the whole
/// DPU — its jobs are retried together and none of its bytes count as
/// collected. Jobs the audit rejects become one [`DpuFailure`] of their
/// DPU (error [`SimError::ResultCorrupt`] with an `audit:` detail) so they
/// ride the same recovery ladder as launch faults — retry, quarantine, CPU
/// fallback — while the DPU's other jobs are kept.
fn decode_dpu(
    exec: &mut RankExec,
    dpu: usize,
    job_ids: Vec<usize>,
    raw: Result<Vec<RawResult>, SimError>,
    cycles: u64,
    silent_corrupted: bool,
    audit: Option<(&[(PackedSeq, PackedSeq)], &ScoringScheme)>,
) {
    let decoded = raw.and_then(|raw| {
        let results = raw
            .iter()
            .map(RawResult::decode)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((raw, results))
    });
    let (raw, decoded) = match decoded {
        Ok(decoded) => decoded,
        Err(error) => {
            exec.failures.push(DpuFailure {
                rank: exec.rank,
                dpu,
                job_ids,
                error,
                wasted_cycles: cycles,
            });
            return;
        }
    };
    // A corruption counts once its DPU's records decode: one whose readback
    // then failed is retried whole and never reaches the audit.
    exec.silent_corruptions += u64::from(silent_corrupted);
    exec.bytes_out += raw.iter().map(RawResult::byte_len).sum::<u64>();
    let mut rejected = Vec::new();
    let mut bad_offset = 0;
    for ((id, jr), rr) in job_ids.into_iter().zip(decoded).zip(&raw) {
        if let Some((pairs, scheme)) = audit {
            exec.audit_checked += 1;
            if !audit_ok(&pairs[id], &jr, scheme) {
                exec.audit_failures += 1;
                bad_offset = rr.offset;
                rejected.push(id);
                continue;
            }
        }
        exec.results.push((id, jr));
    }
    if !rejected.is_empty() {
        exec.failures.push(DpuFailure {
            rank: exec.rank,
            dpu,
            job_ids: rejected,
            error: SimError::ResultCorrupt {
                offset: bad_offset,
                detail: "audit: CIGAR disagrees with its sequences or score",
            },
            wasted_cycles: cycles,
        });
    }
}

pub(crate) fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("rank worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("rank worker panicked: {s}")
    } else {
        "rank worker panicked".into()
    }
}

/// Execute rounds of rank plans. `rounds[k][r]` is rank `r`'s batch in
/// round `k`; the simulated clock per rank is the sum of its batches'
/// transfer + barrier + collect times.
///
/// One strict ticket of the persistent engine at FIFO depth 1
/// ([`Engine::Lockstep`]): the first fault anywhere aborts with its typed
/// error. [`crate::modes::align_pairs`]' job ticket is the tolerant
/// counterpart.
pub fn execute_rounds(
    server: &mut PimServer,
    kernel: &NwKernel,
    rounds: Vec<Vec<RankPlan>>,
    sim_threads: usize,
) -> Result<DispatchOutcome, SimError> {
    crate::persistent::run_strict(server, kernel, rounds, 1, sim_threads)
}

fn merge_aggregate(dst: &mut AggregateStats, src: &AggregateStats) {
    dst.watchdog_expired += src.watchdog_expired;
    dst.runaway_cycles += src.runaway_cycles;
    if src.dpus == 0 {
        // Every DPU of this launch was reaped: there are no successful-DPU
        // extremes to fold in, only the runaway accounting above.
        return;
    }
    dst.total.merge(&src.total);
    if dst.dpus == 0 {
        dst.min_cycles = src.min_cycles;
        dst.max_cycles = src.max_cycles;
    } else {
        dst.min_cycles = dst.min_cycles.min(src.min_cycles);
        dst.max_cycles = dst.max_cycles.max(src.max_cycles);
    }
    dst.dpus += src.dpus;
}

/// Group job indices into `groups` balanced batches: sort by workload
/// descending, deal in serpentine (boustrophedon) order so every batch
/// gets a comparable mix — what "distributed equally in N batches" needs.
///
/// "Balanced" means balanced in *eq.-6 workload units* — the same
/// `(m + n) × w` cell-count model [`crate::balance::workload`] that
/// [`plan_rank`]'s LPT uses within a rank — **not** in job counts. The
/// serpentine deal pairs each lap's heaviest jobs with the previous lap's
/// lightest, so on skewed inputs (a few giant pairs among many short ones)
/// the per-group workload totals stay close even when the per-group job
/// counts differ. Callers pass workloads from
/// [`crate::balance::pair_workloads`] so grouping and intra-rank LPT agree
/// end-to-end on what "heavy" means.
pub fn group_jobs(workloads: &[u64], groups: usize) -> Vec<Vec<usize>> {
    assert!(groups > 0);
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(workloads[i]));
    let mut out = vec![Vec::new(); groups];
    for (pos, idx) in order.into_iter().enumerate() {
        let lap = pos / groups;
        let slot = pos % groups;
        let g = if lap.is_multiple_of(2) {
            slot
        } else {
            groups - 1 - slot
        };
        out[g].push(idx);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_kernel::{KernelVariant, PoolConfig};
    use nw_core::seq::DnaSeq;
    use nw_core::ScoringScheme;
    use pim_sim::ServerConfig;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn params() -> KernelParams {
        KernelParams {
            band: 16,
            scheme: ScoringScheme::default(),
            score_only: false,
        }
    }

    fn small_server(ranks: usize, dpus: usize) -> PimServer {
        let mut cfg = ServerConfig::with_ranks(ranks);
        cfg.dpus_per_rank = dpus;
        PimServer::new(cfg)
    }

    fn packed_pairs(n: usize) -> Vec<(PackedSeq, PackedSeq)> {
        (0..n)
            .map(|k| {
                let a = seq(&"ACGTGGTCAT".repeat(4 + k % 3));
                let mut btext = "ACGTGGTCAT".repeat(4 + k % 3);
                btext.insert_str(7, "AC");
                (a.pack(), seq(&btext).pack())
            })
            .collect()
    }

    #[test]
    fn plan_rank_covers_all_jobs() {
        let jobs = packed_pairs(11);
        let ids: Vec<usize> = (100..111).collect();
        let plan = plan_rank(&jobs, &ids, 4, params(), 6, 64 << 20).unwrap();
        let mut seen: Vec<usize> = plan
            .dpus
            .iter()
            .flatten()
            .flat_map(|p| p.job_ids.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, ids);
    }

    #[test]
    fn execute_rounds_returns_every_result() {
        let mut server = small_server(2, 3);
        let kernel = NwKernel::new(
            PoolConfig {
                pools: 2,
                tasklets: 4,
            },
            KernelVariant::Asm,
        );
        let jobs = packed_pairs(14);
        let ids: Vec<usize> = (0..14).collect();
        // Split jobs between the two ranks over two rounds.
        let mut rounds = Vec::new();
        for round in 0..2 {
            let mut plans = Vec::new();
            for rank in 0..2 {
                let lo = (round * 2 + rank) * 14 / 4;
                let hi = (round * 2 + rank + 1) * 14 / 4;
                plans.push(
                    plan_rank(&jobs[lo..hi], &ids[lo..hi], 3, params(), 2, 64 << 20).unwrap(),
                );
            }
            rounds.push(plans);
        }
        let out = execute_rounds(&mut server, &kernel, rounds, 0).unwrap();
        assert_eq!(out.results.len(), 14);
        let mut ids_seen: Vec<usize> = out.results.iter().map(|(i, _)| *i).collect();
        ids_seen.sort_unstable();
        assert_eq!(ids_seen, ids);
        assert!(out.dpu_seconds > 0.0);
        assert!(out.transfer_seconds > 0.0);
        assert!(out.bytes_in > 0);
        assert_eq!(out.rank_seconds.len(), 2);
        assert!(out.stats.dpus > 0);
    }

    #[test]
    fn group_jobs_balances_counts() {
        let w: Vec<u64> = (0..10).map(|i| i * 10).collect();
        let groups = group_jobs(&w, 3);
        let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)));
        // Heaviest jobs spread across groups, not clumped in one.
        let loads: Vec<u64> = groups
            .iter()
            .map(|g| g.iter().map(|&i| w[i]).sum())
            .collect();
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(max - min <= 30, "loads {loads:?}");
    }

    #[test]
    fn strict_runs_fail_with_the_faulted_ranks_error_at_every_depth() {
        use crate::modes::{align_sets, all_vs_all};
        use pim_sim::fault::FaultPlan;
        use std::sync::mpsc;
        use std::time::Duration;
        // Every DPU of rank 1 is boot-disabled: each strict entry point must
        // return that rank's typed fault, at FIFO depth 1 and 2, rather
        // than retry, hang or report a partial success.
        let server = || {
            let mut cfg = ServerConfig::with_ranks(2);
            cfg.dpus_per_rank = 2;
            cfg.fault = FaultPlan {
                disabled_dpus: vec![(1, 0), (1, 1)],
                ..Default::default()
            };
            PimServer::new(cfg)
        };
        let kernel = NwKernel::new(
            PoolConfig {
                pools: 1,
                tasklets: 4,
            },
            KernelVariant::Asm,
        );
        let jobs = packed_pairs(8);
        let ids: Vec<usize> = (0..8).collect();
        let rounds = || {
            (0..2)
                .map(|k| {
                    (0..2)
                        .map(|r| {
                            let (lo, hi) = (2 * (2 * k + r), 2 * (2 * k + r) + 2);
                            plan_rank(&jobs[lo..hi], &ids[lo..hi], 2, params(), 1, 64 << 20)
                                .unwrap()
                        })
                        .collect()
                })
                .collect::<Vec<Vec<RankPlan>>>()
        };
        let pairs: Vec<(DnaSeq, DnaSeq)> =
            jobs.iter().map(|(a, b)| (a.unpack(), b.unpack())).collect();
        let seqs: Vec<DnaSeq> = pairs.iter().map(|(a, _)| a.clone()).take(6).collect();
        let sets: Vec<Vec<DnaSeq>> = pairs
            .chunks(2)
            .map(|c| vec![c[0].0.clone(), c[0].1.clone(), c[1].0.clone()])
            .collect();
        // Each run happens on its own thread, so a hang fails the test
        // instead of wedging it.
        let strict_err = |name: &str, run: Box<dyn FnOnce() -> Result<(), SimError> + Send>| {
            let (tx, rx) = mpsc::channel();
            let worker = std::thread::spawn(move || tx.send(run()));
            let got = rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{name} did not return"));
            worker
                .join()
                .expect("the run returned, so its thread finishes")
                .expect("the receiver is alive");
            assert!(
                matches!(got, Err(SimError::DpuFaulted { rank: 1, .. })),
                "{name}: {got:?}"
            );
        };
        for engine in [Engine::Lockstep, Engine::Pipelined { fifo_depth: 2 }] {
            let mut cfg = DispatchConfig::new(kernel.clone(), params());
            cfg.engine = engine;
            cfg.rounds = 2;
            let (plans, k) = (rounds(), kernel.clone());
            strict_err(
                &format!("execute_rounds at {engine:?}"),
                Box::new(move || match engine {
                    Engine::Lockstep => execute_rounds(&mut server(), &k, plans, 0).map(drop),
                    Engine::Pipelined { fifo_depth } => {
                        let opts = crate::pipeline::PipelineOptions {
                            fifo_depth,
                            sim_threads: 0,
                        };
                        crate::pipeline::execute_rounds_pipelined(&mut server(), &k, plans, &opts)
                            .map(drop)
                    }
                }),
            );
            let (c, q) = (cfg.clone(), seqs.clone());
            strict_err(
                &format!("all_vs_all at {engine:?}"),
                Box::new(move || all_vs_all(&mut server(), &c, &q).map(drop)),
            );
            let (c, t) = (cfg.clone(), sets.clone());
            strict_err(
                &format!("align_sets at {engine:?}"),
                Box::new(move || align_sets(&mut server(), &c, &t).map(drop)),
            );
        }
    }

    #[test]
    fn empty_round_is_ok() {
        let mut server = small_server(1, 2);
        let kernel = NwKernel::new(
            PoolConfig {
                pools: 1,
                tasklets: 4,
            },
            KernelVariant::Asm,
        );
        let plan = RankPlan {
            dpus: vec![None, None],
            params: Some(params()),
        };
        let out = execute_rounds(&mut server, &kernel, vec![vec![plan]], 0).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.dpu_seconds, 0.0);
    }
}
