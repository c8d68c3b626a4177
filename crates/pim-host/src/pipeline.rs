//! Pipelined asynchronous dispatch: persistent rank workers and a real
//! FIFO (§4.1.2, taken literally).
//!
//! The lockstep engine ([`crate::dispatch::execute_rounds`]) spawns fresh
//! threads every round and joins them all at a hard barrier, so one slow
//! rank stalls every other rank and the host sits idle between rounds.
//! This module keeps one worker thread per rank alive for the whole run
//! and feeds it through a bounded FIFO channel:
//!
//! ```text
//!   driver thread                         rank worker r (one per rank)
//!   ─────────────                         ──────────────────────────────
//!   plan round k+1  ──WorkItem──▶  [FIFO, depth d]  ──▶ write MRAM,
//!   decode round k  ◀──BatchDone── (shared channel) ◀── launch, raw read
//! ```
//!
//! * **Backpressure** — the driver only sends to rank `r` while fewer than
//!   `fifo_depth` of its batches are in flight, so `send` never blocks and
//!   memory stays bounded.
//! * **Overlap** — while workers execute round `k`, the driver serializes
//!   round `k+1`'s MRAM images (drawing buffers from a [`BufferPool`] of
//!   round `k-1`'s spent images) and decodes round `k-1`'s raw results.
//! * **No global barrier** — each rank advances the moment its FIFO has
//!   work; a straggler rank delays only itself.
//! * **Bit identity** — results and simulated times must match the
//!   lockstep engine exactly. Completions arrive in any order, so the
//!   driver buffers decoded executions and absorbs them in plan order
//!   (`seq = round × n_ranks + rank`), reproducing lockstep's f64
//!   accumulation order bit for bit.
//!
//! Error shutdown: on the first failed batch the driver stops planning,
//! keeps receiving until nothing is in flight, then drops the FIFO senders
//! — each worker drains to `Disconnected` and exits; the scope join
//! collects them. A worker panic is caught per batch and surfaced as that
//! batch's [`SimError::RankFailed`], so a poisoned rank cannot wedge the
//! driver in `recv`.

use crate::deadline::DeadlinePolicy;
use crate::dispatch::{
    decode_raw_exec, exec_rank_raw, panic_reason, DispatchOutcome, RankPlan, RawRankExec,
};
use dpu_kernel::layout::JobBatch;
use dpu_kernel::NwKernel;
use pim_sim::rank::Rank;
use pim_sim::{PimServer, SimError};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the pipelined engine.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Bounded FIFO depth per rank: how many batches may be in flight
    /// (queued + executing) on one rank. Depth 1 still removes the global
    /// round barrier; depth 2 (the default) additionally hides planning
    /// time behind execution.
    pub fifo_depth: usize,
    /// Total simulator thread budget (`0` = available parallelism), shared
    /// between the per-rank pipeline workers and each rank's intra-rank
    /// DPU pool: each worker executes its rank's DPUs on
    /// `max(1, budget / ranks)` threads ([`Rank::launch_threads`]).
    pub sim_threads: usize,
    /// Wall-clock stall deadline: when no batch completes for the policy's
    /// budget while work is in flight, the driver sets every rank's cancel
    /// token — hung launches break out of their waits and come back as that
    /// batch's failure instead of wedging the driver in `recv`.
    pub deadline: DeadlinePolicy,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            fifo_depth: 2,
            sim_threads: 0,
            deadline: DeadlinePolicy::off(),
        }
    }
}

/// Host-side pipeline measurements for one run. All times are real host
/// wall-clock (this is the one place the simulator measures the host
/// itself, not the simulated machine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Configured FIFO depth.
    pub fifo_depth: usize,
    /// Batches dispatched to workers (empty plans are skipped).
    pub batches: usize,
    /// Wall-clock seconds from first plan to last absorb.
    pub host_wall_seconds: f64,
    /// Seconds the driver spent serializing MRAM images.
    pub plan_seconds: f64,
    /// Of `plan_seconds`, the share spent while at least one batch was in
    /// flight — planning hidden behind execution.
    pub plan_overlap_seconds: f64,
    /// Seconds the driver spent decoding raw results into CIGARs/scores.
    pub decode_seconds: f64,
    /// Per rank: seconds its worker sat waiting on an empty FIFO.
    pub rank_stall_seconds: Vec<f64>,
    /// Per rank: seconds its worker spent executing batches.
    pub rank_busy_seconds: Vec<f64>,
    /// Per rank: the largest number of batches ever in flight at once.
    pub max_fifo_occupancy: Vec<usize>,
    /// MRAM image buffers recycled from the pool.
    pub buffers_reused: usize,
    /// MRAM image buffers freshly allocated.
    pub buffers_allocated: usize,
}

impl PipelineMetrics {
    /// Fraction of host encode/serialize time hidden behind rank
    /// execution (1.0 = fully overlapped).
    pub fn encode_overlap_fraction(&self) -> f64 {
        if self.plan_seconds > 0.0 {
            self.plan_overlap_seconds / self.plan_seconds
        } else {
            0.0
        }
    }

    /// Total worker stall seconds across ranks.
    pub fn total_stall_seconds(&self) -> f64 {
        self.rank_stall_seconds.iter().sum()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "pipeline: {} batches, fifo depth {}, host wall {:.3}s, \
             plan {:.3}s ({:.0}% overlapped), decode {:.3}s, \
             stall {:.3}s, buffers {} reused / {} allocated",
            self.batches,
            self.fifo_depth,
            self.host_wall_seconds,
            self.plan_seconds,
            100.0 * self.encode_overlap_fraction(),
            self.decode_seconds,
            self.total_stall_seconds(),
            self.buffers_reused,
            self.buffers_allocated,
        )
    }
}

/// A recycling pool of MRAM image allocations. The planner draws from it
/// via [`BufferPool::take`]; the driver returns workers' spent images via
/// [`BufferPool::put`], so steady-state planning allocates nothing.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    reused: usize,
    allocated: usize,
}

impl BufferPool {
    /// Take a buffer (recycled if available, else fresh and empty). The
    /// builder zero-fills to the image length either way, so reuse never
    /// leaks bytes between batches.
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(b) => {
                self.reused += 1;
                b
            }
            None => {
                self.allocated += 1;
                Vec::new()
            }
        }
    }

    /// Return spent buffers to the pool.
    pub fn put(&mut self, bufs: impl IntoIterator<Item = Vec<u8>>) {
        self.free.extend(bufs);
    }

    /// `(reused, allocated)` counters since construction.
    pub fn counters(&self) -> (usize, usize) {
        (self.reused, self.allocated)
    }
}

/// One batch on its way to a rank worker.
pub(crate) struct WorkItem {
    /// Absorb-order key: `round × n_ranks + rank`.
    pub(crate) seq: u64,
    pub(crate) plan: RankPlan,
    /// Watchdog cycle budget the rank launches this batch with. Always
    /// explicit: the worker keeps the last budget it was given, so the
    /// persistent engine's per-ticket escalation (a doubled budget for a
    /// suspected livelock) must not ride into another ticket's batches.
    pub(crate) watchdog: u64,
}

/// One batch on its way back from a rank worker.
pub(crate) struct BatchDone {
    pub(crate) rank: usize,
    pub(crate) seq: u64,
    pub(crate) outcome: Result<RawRankExec, SimError>,
    /// Spent MRAM image buffers, ready for the pool.
    pub(crate) spent: Vec<Vec<u8>>,
    /// Wall-clock the worker waited on its FIFO before this batch.
    pub(crate) wait_seconds: f64,
    /// Wall-clock the worker spent executing this batch.
    pub(crate) busy_seconds: f64,
}

/// Body of one persistent rank worker: drain the FIFO until the driver
/// drops the sender. Exactly one [`BatchDone`] is sent per [`WorkItem`] —
/// a panic inside the batch is caught and reported as that batch's
/// failure, never swallowed (a silent worker death would wedge the driver
/// in `recv`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_loop(
    r: usize,
    rank: &mut Rank,
    kernel: &NwKernel,
    freq: f64,
    threads: usize,
    rx: Receiver<WorkItem>,
    done: Sender<BatchDone>,
) {
    let mut filler: Option<JobBatch> = None;
    loop {
        let wait_start = Instant::now();
        let Ok(item) = rx.recv() else { break };
        let wait_seconds = wait_start.elapsed().as_secs_f64();
        rank.set_watchdog_cycles(item.watchdog);
        let busy_start = Instant::now();
        let mut spent = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            exec_rank_raw(
                rank,
                kernel,
                r,
                item.plan,
                freq,
                threads,
                &mut filler,
                &mut spent,
            )
        }))
        .unwrap_or_else(|payload| {
            Err(SimError::RankFailed {
                rank: r,
                reason: panic_reason(payload),
            })
        });
        if done
            .send(BatchDone {
                rank: r,
                seq: item.seq,
                outcome,
                spent,
                wait_seconds,
                busy_seconds: busy_start.elapsed().as_secs_f64(),
            })
            .is_err()
        {
            break;
        }
    }
}

/// Receive the next completed batch, arming the wall-clock deadline when
/// the policy is enabled: if nothing completes for the policy's budget
/// while work is in flight, every rank's cancel token is set and the
/// receive blocks until the (now-cancelled) stragglers report back. A host
/// interrupt ([`crate::interrupt`]) cancels the same way, so Ctrl-C breaks
/// a hung launch even with no deadline configured. Returns `None` only
/// when every worker has exited.
pub(crate) fn recv_done(
    rx: &Receiver<BatchDone>,
    deadline: DeadlinePolicy,
    tokens: &[Arc<AtomicBool>],
) -> Option<BatchDone> {
    let poll = Duration::from_millis(25);
    let hard = deadline.timeout().map(|budget| Instant::now() + budget);
    let mut cancelled = false;
    loop {
        let wait = match hard {
            Some(d) if !cancelled => d.saturating_duration_since(Instant::now()).min(poll),
            _ => poll,
        };
        match rx.recv_timeout(wait) {
            Ok(done) => return Some(done),
            Err(RecvTimeoutError::Disconnected) => return None,
            Err(RecvTimeoutError::Timeout) => {
                let overdue = hard.is_some_and(|d| Instant::now() >= d);
                if !cancelled && (overdue || crate::interrupt::requested()) {
                    // No progress for a full deadline (or the host asked to
                    // stop): cancel every rank. Idle and finished ranks
                    // ignore the token (it is cleared at the next launch's
                    // entry); a hung launch breaks out of its wait and
                    // completes with watchdog failures.
                    for t in tokens {
                        t.store(true, Ordering::Relaxed);
                    }
                    cancelled = true;
                }
            }
        }
    }
}

/// Run `rounds × n_ranks` batches through the pipelined engine, planning
/// lazily: `plan_fn(round, rank, pool)` is called exactly once per (round,
/// rank) cell, just in time, on the driver thread — serialization of round
/// `k+1` overlaps execution of round `k`.
///
/// `plan_fn` must be deterministic in `(round, rank)`: cells are planned
/// in FIFO-availability order, not strict round order.
///
/// Strict semantics match [`crate::dispatch::execute_rounds`]: the first
/// per-DPU failure or rank error aborts with that error; on success the
/// outcome (results, simulated times, stats) is bit-identical to the
/// lockstep engine's.
pub fn execute_pipelined_with(
    server: &mut PimServer,
    kernel: &NwKernel,
    opts: &PipelineOptions,
    rounds: usize,
    mut plan_fn: impl FnMut(usize, usize, &mut BufferPool) -> Result<RankPlan, SimError>,
) -> Result<DispatchOutcome, SimError> {
    let n_ranks = server.rank_count();
    let host_bw = server.cfg().host_bandwidth;
    let freq = server.cfg().dpu.freq_hz;
    let watchdog = server.cfg().dpu.watchdog_cycles;
    let depth = opts.fifo_depth.max(1);
    let pool_threads = crate::dispatch::rank_pool(opts.sim_threads, n_ranks);

    let mut out = DispatchOutcome {
        rank_seconds: vec![0.0; n_ranks],
        ..Default::default()
    };
    let mut dpu_busy = vec![0.0f64; n_ranks];
    let mut imbalances: Vec<f64> = Vec::new();
    let mut metrics = PipelineMetrics {
        fifo_depth: depth,
        rank_stall_seconds: vec![0.0; n_ranks],
        rank_busy_seconds: vec![0.0; n_ranks],
        max_fifo_occupancy: vec![0; n_ranks],
        ..Default::default()
    };
    let mut pool = BufferPool::default();
    let wall_start = Instant::now();
    let mut first_err: Option<SimError> = None;

    {
        let ranks = server.ranks_mut();
        let tokens: Vec<_> = ranks.iter().map(|rank| rank.cancel_token()).collect();
        let (done_tx, done_rx) = channel::<BatchDone>();
        std::thread::scope(|scope| {
            let mut inboxes = Vec::with_capacity(n_ranks);
            for (r, rank) in ranks.iter_mut().enumerate() {
                let (tx, rx) = sync_channel::<WorkItem>(depth);
                let done = done_tx.clone();
                scope.spawn(move || worker_loop(r, rank, kernel, freq, pool_threads, rx, done));
                inboxes.push(tx);
            }
            drop(done_tx);

            let mut next_round = vec![0usize; n_ranks];
            let mut in_flight = vec![0usize; n_ranks];
            let mut total_in_flight = 0usize;
            // Cells settled out of order, keyed by seq: `Some` holds a
            // clean execution, `None` a cell that contributes nothing (an
            // all-idle plan, a failed batch). Absorption walks the seqs
            // in order, so a cell planned late (its rank's FIFO was full)
            // still lands in its lockstep position.
            let mut settled: BTreeMap<u64, Option<crate::dispatch::RankExec>> = BTreeMap::new();
            let mut next_absorb = 0u64;
            let mut aborting = false;

            loop {
                if !aborting && crate::interrupt::requested() {
                    // Host interrupt: stop planning, cancel in-flight
                    // launches, drain, and report the interrupt.
                    first_err = Some(SimError::Interrupted);
                    aborting = true;
                    for t in &tokens {
                        t.store(true, Ordering::Relaxed);
                    }
                }
                // Fill phase: keep every rank's FIFO topped up. The gate
                // `in_flight < depth` guarantees `send` never blocks.
                if !aborting {
                    for r in 0..n_ranks {
                        while next_round[r] < rounds && in_flight[r] < depth {
                            let k = next_round[r];
                            next_round[r] += 1;
                            let plan_start = Instant::now();
                            let plan = plan_fn(k, r, &mut pool);
                            let dt = plan_start.elapsed().as_secs_f64();
                            metrics.plan_seconds += dt;
                            if total_in_flight > 0 {
                                metrics.plan_overlap_seconds += dt;
                            }
                            let plan = match plan {
                                Ok(p) => p,
                                Err(e) => {
                                    if first_err.is_none() {
                                        first_err = Some(e);
                                    }
                                    aborting = true;
                                    break;
                                }
                            };
                            // An all-idle plan never launches (no work, no
                            // simulated time) — skipping it is exactly what
                            // the lockstep engine's early return does.
                            let seq = (k * n_ranks + r) as u64;
                            if plan.dpus.iter().all(Option::is_none) {
                                settled.insert(seq, None);
                                continue;
                            }
                            in_flight[r] += 1;
                            total_in_flight += 1;
                            metrics.max_fifo_occupancy[r] =
                                metrics.max_fifo_occupancy[r].max(in_flight[r]);
                            metrics.batches += 1;
                            inboxes[r]
                                .send(WorkItem {
                                    seq,
                                    plan,
                                    watchdog,
                                })
                                .expect("worker alive while its inbox is held");
                        }
                        if aborting {
                            break;
                        }
                    }
                }
                // Absorb every cell settled so far, in plan order, so f64
                // accumulation matches the lockstep engine bit for bit.
                while let Some(cell) = settled.remove(&next_absorb) {
                    if let Some(exec) = cell {
                        out.absorb(exec, &mut dpu_busy, &mut imbalances);
                    }
                    next_absorb += 1;
                }
                if total_in_flight == 0 {
                    let all_planned = next_round.iter().all(|&k| k >= rounds);
                    if aborting || all_planned {
                        break;
                    }
                    // Not aborting, not done, nothing in flight: every
                    // remaining cell planned to an all-idle batch; loop
                    // again to plan the rest.
                    continue;
                }
                let Some(batch) = recv_done(&done_rx, opts.deadline, &tokens) else {
                    if first_err.is_none() {
                        first_err = Some(SimError::RankFailed {
                            rank: 0,
                            reason: "all rank workers exited with work in flight".into(),
                        });
                    }
                    break;
                };
                in_flight[batch.rank] -= 1;
                total_in_flight -= 1;
                metrics.rank_stall_seconds[batch.rank] += batch.wait_seconds;
                metrics.rank_busy_seconds[batch.rank] += batch.busy_seconds;
                pool.put(batch.spent);
                match batch.outcome {
                    Err(e) => {
                        settled.insert(batch.seq, None);
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        aborting = true;
                    }
                    Ok(raw) => {
                        let decode_start = Instant::now();
                        let exec = decode_raw_exec(raw, host_bw);
                        metrics.decode_seconds += decode_start.elapsed().as_secs_f64();
                        if let Some(f) = exec.failures.first() {
                            settled.insert(batch.seq, None);
                            if first_err.is_none() {
                                first_err = Some(f.error.clone());
                            }
                            aborting = true;
                        } else {
                            settled.insert(batch.seq, Some(exec));
                        }
                    }
                }
            }
            // Dropping the inboxes releases every worker from `recv`; the
            // scope join below collects them.
            drop(inboxes);
        });
    }

    out.finalize(&dpu_busy, &imbalances);
    metrics.host_wall_seconds = wall_start.elapsed().as_secs_f64();
    let (reused, allocated) = pool.counters();
    metrics.buffers_reused = reused;
    metrics.buffers_allocated = allocated;
    out.pipeline = Some(metrics);
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Drop-in pipelined replacement for [`crate::dispatch::execute_rounds`]:
/// same prebuilt `rounds[k][r]` plans, same strict semantics, bit-identical
/// outcome — but ranks advance independently through their FIFOs instead
/// of joining a barrier each round.
pub fn execute_rounds_pipelined(
    server: &mut PimServer,
    kernel: &NwKernel,
    rounds: Vec<Vec<RankPlan>>,
    opts: &PipelineOptions,
) -> Result<DispatchOutcome, SimError> {
    let n_ranks = server.rank_count();
    let n_rounds = rounds.len();
    let mut cells: Vec<Vec<Option<RankPlan>>> = Vec::with_capacity(n_rounds);
    for round in rounds {
        assert_eq!(round.len(), n_ranks, "one plan per rank per round");
        cells.push(round.into_iter().map(Some).collect());
    }
    execute_pipelined_with(server, kernel, opts, n_rounds, |k, r, _pool| {
        Ok(cells[k][r].take().expect("each cell planned exactly once"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{execute_rounds, plan_rank, plan_rank_into};
    use dpu_kernel::layout::KernelParams;
    use dpu_kernel::{KernelVariant, PoolConfig};
    use nw_core::seq::{DnaSeq, PackedSeq};
    use nw_core::ScoringScheme;
    use pim_sim::ServerConfig;

    fn params() -> KernelParams {
        KernelParams {
            band: 16,
            scheme: ScoringScheme::default(),
            score_only: false,
        }
    }

    fn kernel() -> NwKernel {
        NwKernel::new(
            PoolConfig {
                pools: 2,
                tasklets: 4,
            },
            KernelVariant::Asm,
        )
    }

    fn small_server(ranks: usize, dpus: usize) -> PimServer {
        let mut cfg = ServerConfig::with_ranks(ranks);
        cfg.dpus_per_rank = dpus;
        PimServer::new(cfg)
    }

    fn packed_pairs(n: usize) -> Vec<(PackedSeq, PackedSeq)> {
        (0..n)
            .map(|k| {
                let a = DnaSeq::from_ascii("ACGTGGTCAT".repeat(4 + k % 3).as_bytes()).unwrap();
                let mut btext = "ACGTGGTCAT".repeat(4 + k % 3);
                btext.insert_str(7, "AC");
                (
                    a.pack(),
                    DnaSeq::from_ascii(btext.as_bytes()).unwrap().pack(),
                )
            })
            .collect()
    }

    fn build_rounds(
        jobs: &[(PackedSeq, PackedSeq)],
        n_rounds: usize,
        n_ranks: usize,
        dpus: usize,
    ) -> Vec<Vec<RankPlan>> {
        let ids: Vec<usize> = (0..jobs.len()).collect();
        let cells = n_rounds * n_ranks;
        let mut rounds = Vec::new();
        for k in 0..n_rounds {
            let mut plans = Vec::new();
            for r in 0..n_ranks {
                let cell = k * n_ranks + r;
                let lo = cell * jobs.len() / cells;
                let hi = (cell + 1) * jobs.len() / cells;
                plans.push(
                    plan_rank(&jobs[lo..hi], &ids[lo..hi], dpus, params(), 2, 64 << 20).unwrap(),
                );
            }
            rounds.push(plans);
        }
        rounds
    }

    #[test]
    fn pipelined_matches_lockstep_bit_for_bit() {
        let jobs = packed_pairs(18);
        let kernel = kernel();
        let mut s1 = small_server(2, 3);
        let lock = execute_rounds(&mut s1, &kernel, build_rounds(&jobs, 3, 2, 3), 0).unwrap();
        let mut s2 = small_server(2, 3);
        let opts = PipelineOptions {
            fifo_depth: 2,
            ..Default::default()
        };
        let pipe = execute_rounds_pipelined(&mut s2, &kernel, build_rounds(&jobs, 3, 2, 3), &opts)
            .unwrap();
        let sort = |mut v: Vec<(usize, dpu_kernel::JobResult)>| {
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(sort(lock.results), sort(pipe.results));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lock.rank_seconds), bits(&pipe.rank_seconds));
        assert_eq!(
            lock.transfer_seconds.to_bits(),
            pipe.transfer_seconds.to_bits()
        );
        assert_eq!(lock.dpu_seconds.to_bits(), pipe.dpu_seconds.to_bits());
        assert_eq!(lock.bytes_in, pipe.bytes_in);
        assert_eq!(lock.bytes_out, pipe.bytes_out);
        assert_eq!(lock.stats, pipe.stats);
        assert_eq!(
            lock.mean_rank_imbalance.to_bits(),
            pipe.mean_rank_imbalance.to_bits()
        );
        assert_eq!(lock.workload, pipe.workload);
        let m = pipe.pipeline.expect("pipelined engine records metrics");
        assert_eq!(m.batches, 6);
        assert!(m.max_fifo_occupancy.iter().all(|&o| o <= 2));
        assert!(lock.pipeline.is_none());
    }

    #[test]
    fn fifo_depth_one_still_completes() {
        let jobs = packed_pairs(10);
        let kernel = kernel();
        let mut server = small_server(2, 2);
        let opts = PipelineOptions {
            fifo_depth: 1,
            ..Default::default()
        };
        let out =
            execute_rounds_pipelined(&mut server, &kernel, build_rounds(&jobs, 2, 2, 2), &opts)
                .unwrap();
        assert_eq!(out.results.len(), 10);
        let m = out.pipeline.unwrap();
        assert!(m.max_fifo_occupancy.iter().all(|&o| o <= 1));
    }

    #[test]
    fn streaming_planner_recycles_buffers() {
        let jobs = packed_pairs(16);
        let ids: Vec<usize> = (0..jobs.len()).collect();
        let kernel = kernel();
        let mut server = small_server(1, 2);
        let n_rounds = 4;
        let groups: Vec<Vec<usize>> = (0..n_rounds)
            .map(|k| (0..jobs.len()).filter(|i| i % n_rounds == k).collect())
            .collect();
        let opts = PipelineOptions {
            fifo_depth: 2,
            ..Default::default()
        };
        let out = execute_pipelined_with(&mut server, &kernel, &opts, n_rounds, |k, _r, pool| {
            let sel: Vec<(PackedSeq, PackedSeq)> =
                groups[k].iter().map(|&i| jobs[i].clone()).collect();
            let sel_ids: Vec<usize> = groups[k].iter().map(|&i| ids[i]).collect();
            plan_rank_into(&sel, &sel_ids, 2, params(), 2, 64 << 20, pool)
        })
        .unwrap();
        assert_eq!(out.results.len(), 16);
        let m = out.pipeline.unwrap();
        assert!(
            m.buffers_reused > 0,
            "later rounds must draw from the pool: {m:?}"
        );
        assert!(
            m.buffers_allocated <= 4,
            "allocations bounded by fifo window"
        );
    }

    #[test]
    fn empty_rounds_are_fine() {
        let kernel = kernel();
        let mut server = small_server(2, 2);
        let empty = || RankPlan {
            dpus: vec![None, None],
            params: Some(params()),
        };
        let out = execute_rounds_pipelined(
            &mut server,
            &kernel,
            vec![vec![empty(), empty()]],
            &PipelineOptions::default(),
        )
        .unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.pipeline.unwrap().batches, 0);
    }
}
