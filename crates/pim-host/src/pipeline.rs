//! The rank FIFO's moving parts (§4.1.2, taken literally): the persistent
//! rank worker, the items that travel to and from it, the MRAM buffer
//! pool, and the host-side metrics of the FIFO.
//!
//! ```text
//!   engine driver thread                  rank worker r (one per rank)
//!   ────────────────────                  ──────────────────────────────
//!   plan / dispatch ──WorkItem──▶  [FIFO, depth d]  ──▶ write MRAM, launch,
//!   absorb          ◀──BatchDone── (shared channel) ◀── read, decode, audit
//! ```
//!
//! The driver is the persistent engine ([`crate::persistent`]): it sends
//! to rank `r` only while fewer than `fifo_depth` of its batches are in
//! flight, so `send` never blocks and memory stays bounded; each rank
//! advances the moment its FIFO has work, so a straggler delays only
//! itself. A worker hands back finished results: it decodes its own
//! readback and, for an audited job ticket, checks each result against the
//! pairs its `WorkItem` carries, so per-rank collection never queues on
//! the one driver thread. A worker panic is caught per batch and surfaced
//! as that batch's [`SimError::RankFailed`], so a poisoned rank cannot
//! wedge the driver.
//!
//! [`execute_rounds_pipelined`] with [`PipelineOptions`] runs prebuilt
//! plans at a chosen FIFO depth: one strict ticket of the persistent
//! engine.

use crate::dispatch::{exec_rank, panic_reason, DispatchOutcome, RankExec, RankPlan};
use crate::persistent::EngineWaker;
use dpu_kernel::layout::JobBatch;
use dpu_kernel::NwKernel;
use nw_core::seq::PackedSeq;
use pim_sim::rank::Rank;
use pim_sim::{PimServer, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Engine knobs for [`execute_rounds_pipelined`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Bounded FIFO depth per rank: how many batches may be in flight
    /// (queued + executing) on one rank. Depth 2 (the default) lets a rank
    /// start its next batch the moment it finishes one.
    pub fifo_depth: usize,
    /// Total simulator thread budget (`0` = available parallelism), shared
    /// between the per-rank pipeline workers and each rank's intra-rank
    /// DPU pool: each worker executes its rank's DPUs on
    /// `max(1, budget / ranks)` threads ([`Rank::launch_threads`]).
    pub sim_threads: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            fifo_depth: 2,
            sim_threads: 0,
        }
    }
}

/// Host-side pipeline measurements for one engine ticket. All times are
/// real host wall-clock (this is the one place the simulator measures the
/// host itself, not the simulated machine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Configured FIFO depth.
    pub fifo_depth: usize,
    /// Batches dispatched to workers (empty plans are skipped).
    pub batches: usize,
    /// Wall-clock seconds from submission to resolution.
    pub host_wall_seconds: f64,
    /// Seconds spent serializing MRAM images: the engine's own planning
    /// of job batches, plus a strict caller's up-front planning when it
    /// reports it.
    pub plan_seconds: f64,
    /// Of `plan_seconds`, the share spent while at least one batch was in
    /// flight — planning hidden behind execution.
    pub plan_overlap_seconds: f64,
    /// Seconds the rank workers spent decoding raw results into
    /// CIGARs/scores and auditing them.
    pub decode_seconds: f64,
    /// Per rank: seconds its worker sat waiting on an empty FIFO.
    pub rank_stall_seconds: Vec<f64>,
    /// Per rank: seconds its worker spent executing batches.
    pub rank_busy_seconds: Vec<f64>,
    /// Per rank: the largest number of batches in flight at once when one
    /// of the ticket's batches was sent.
    pub max_fifo_occupancy: Vec<usize>,
    /// MRAM image buffers the engine's planner recycled from its pool (a
    /// strict ticket's prebuilt plans draw none).
    pub buffers_reused: usize,
    /// MRAM image buffers the engine's planner freshly allocated.
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

/// A recycling pool of MRAM image allocations. The engine's planner draws
/// from it via [`BufferPool::take`] and returns workers' spent images via
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
    /// Engine-wide batch id; the driver maps it back to its ticket.
    pub(crate) seq: u64,
    pub(crate) plan: RankPlan,
    /// Watchdog cycle budget the rank launches this batch with. Always
    /// explicit: the worker keeps the last budget it was given, so the
    /// persistent engine's per-ticket escalation (a doubled budget for a
    /// suspected livelock) must not ride into another ticket's batches.
    pub(crate) watchdog: u64,
    /// The ticket's pairs, indexed by the plan's job ids, when its results
    /// are audited: a job ticket under [`crate::RecoveryConfig::audit`].
    /// Strict tickets carry none.
    pub(crate) audit: Option<Arc<[(PackedSeq, PackedSeq)]>>,
}

/// One batch on its way back from a rank worker.
pub(crate) struct BatchDone {
    pub(crate) rank: usize,
    pub(crate) seq: u64,
    pub(crate) outcome: Result<RankExec, SimError>,
    /// Spent MRAM image buffers, ready for the pool.
    pub(crate) spent: Vec<Vec<u8>>,
    /// Wall-clock the worker waited on its FIFO before this batch.
    pub(crate) wait_seconds: f64,
    /// Wall-clock the worker spent executing this batch.
    pub(crate) busy_seconds: f64,
}

/// Body of one persistent rank worker: drain the FIFO until the driver
/// drops the sender. Exactly one [`BatchDone`] is sent per [`WorkItem`],
/// and `waker` rings after each — a panic inside the batch is caught and
/// reported as that batch's failure, never swallowed (a silent worker
/// death would leave the driver waiting for a batch that never comes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_loop(
    r: usize,
    rank: &mut Rank,
    kernel: &NwKernel,
    freq: f64,
    host_bw: f64,
    threads: usize,
    rx: Receiver<WorkItem>,
    done: Sender<BatchDone>,
    waker: EngineWaker,
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
            exec_rank(
                rank,
                kernel,
                r,
                item.plan,
                freq,
                host_bw,
                threads,
                item.audit.as_deref(),
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
        waker.batch_sent();
    }
    // The pump sees the channel disconnect once the last worker is gone.
    waker.batch_sent();
}

/// Run prebuilt `rounds[k][r]` plans at `opts.fifo_depth`: one strict
/// ticket of the persistent engine ([`crate::persistent`]). The first
/// failed launch aborts with its typed error; on success the outcome is
/// bit-identical to [`crate::dispatch::execute_rounds`]' at any depth.
pub fn execute_rounds_pipelined(
    server: &mut PimServer,
    kernel: &NwKernel,
    rounds: Vec<Vec<RankPlan>>,
    opts: &PipelineOptions,
) -> Result<DispatchOutcome, SimError> {
    crate::persistent::run_strict(server, kernel, rounds, opts.fifo_depth, opts.sim_threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{execute_rounds, plan_rank};
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
        let m = pipe.pipeline.expect("every engine ticket records metrics");
        assert_eq!(m.batches, 6);
        assert!(m.max_fifo_occupancy.iter().all(|&o| o <= 2));
        let m = lock.pipeline.expect("every engine ticket records metrics");
        assert_eq!(m.batches, 6);
        assert!(m.max_fifo_occupancy.iter().all(|&o| o <= 1));
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
