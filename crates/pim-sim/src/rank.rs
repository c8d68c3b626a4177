//! A rank: 64 DPUs that launch and synchronize together.
//!
//! The rank is the granularity of access on the real system (§2.1): launch,
//! transfer and collect operate on all 64 DPUs of a rank at once, and the
//! results of a rank cannot be read before *every* DPU of the rank has
//! finished — the barrier that makes intra-rank load balancing critical
//! (§4.1.2).
//!
//! Faults: a rank carries its slice of the server's
//! [`crate::fault::FaultPlan`]. Boot-disabled DPUs are unreachable from the
//! host ([`SimError::DpuFaulted`]); a dead rank fails every launch
//! ([`SimError::RankFailed`]); per-launch DPU faults and readback
//! corruption are reported through [`RankRun`] and the DPU's
//! [`crate::Mram`]. With the default (empty) plan none of these paths are
//! taken and behavior is identical to a fault-free rank.

use crate::config::DpuConfig;
use crate::dpu::{Dpu, Kernel};
use crate::error::SimError;
use crate::fault::RankFaultState;
use crate::isa::IsaError;
use crate::stats::AggregateStats;
use crate::Cycles;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A rank of DPUs.
#[derive(Debug)]
pub struct Rank {
    dpus: Vec<Dpu>,
    fault: RankFaultState,
    /// Cooperative cancellation flag the host's deadline watcher sets while
    /// a launch is in flight. Every wall-clock wait inside
    /// [`Rank::launch_threads`] (straggler holds, injected hang spins)
    /// polls it; a set flag breaks the wait and the launch returns with the
    /// affected DPUs reported as [`SimError::WatchdogExpired`]. Cleared at
    /// the start of each launch so a stale cancel never kills fresh work.
    cancel: Arc<AtomicBool>,
}

impl Rank {
    /// Build a healthy rank of `n` DPUs.
    pub fn new(cfg: DpuConfig, n: usize) -> Self {
        Self::with_faults(cfg, n, RankFaultState::healthy(0, n))
    }

    /// Build a rank carrying its slice of a fault plan.
    pub fn with_faults(cfg: DpuConfig, n: usize, fault: RankFaultState) -> Self {
        Self {
            dpus: (0..n).map(|_| Dpu::new(cfg)).collect(),
            fault,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Handle the host's deadline watcher uses to cancel an in-flight
    /// launch without holding a borrow of the rank.
    pub fn cancel_token(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Number of DPUs (including disabled ones — the hardware slots exist).
    pub fn len(&self) -> usize {
        self.dpus.len()
    }

    /// True when the rank has no DPUs (never the case on real hardware).
    pub fn is_empty(&self) -> bool {
        self.dpus.is_empty()
    }

    /// True when `idx` is a usable DPU: in range and not masked out at boot.
    pub fn dpu_enabled(&self, idx: usize) -> bool {
        idx < self.dpus.len() && !self.fault.is_disabled(idx)
    }

    /// True when the rank is configured dead (every launch fails).
    pub fn is_dead(&self) -> bool {
        self.fault.is_dead()
    }

    fn check_enabled(&self, idx: usize) -> Result<(), SimError> {
        if idx >= self.dpus.len() {
            return Err(SimError::BadTopology {
                what: "dpu",
                index: idx,
                max: self.dpus.len(),
            });
        }
        if self.fault.is_disabled(idx) {
            return Err(SimError::DpuFaulted {
                rank: self.fault.rank,
                dpu: idx,
            });
        }
        Ok(())
    }

    /// Access one DPU (host-side, between launches).
    pub fn dpu(&self, idx: usize) -> Result<&Dpu, SimError> {
        self.check_enabled(idx)?;
        Ok(&self.dpus[idx])
    }

    /// Mutable access to one DPU (host-side, between launches).
    pub fn dpu_mut(&mut self, idx: usize) -> Result<&mut Dpu, SimError> {
        self.check_enabled(idx)?;
        Ok(&mut self.dpus[idx])
    }

    /// Iterate DPUs (including disabled slots).
    pub fn dpus(&self) -> impl Iterator<Item = &Dpu> {
        self.dpus.iter()
    }

    /// Launch the kernel on every enabled DPU of the rank (the broadcast
    /// boot command) and wait for all of them: returns the rank barrier
    /// time — the *maximum* DPU cycle count — plus per-DPU aggregates.
    ///
    /// Sequential form of [`Rank::launch_threads`] — see it for the fault
    /// semantics.
    pub fn launch(&mut self, kernel: &dyn Kernel) -> Result<RankRun, SimError> {
        self.launch_threads(kernel, 1)
    }

    /// [`Rank::launch`] with the rank's DPUs executed on up to `threads`
    /// worker threads (the intra-rank pool; `<= 1` runs inline). The
    /// outcome is bit-identical to the sequential launch: fault draws are
    /// pure functions of `(seed, rank, dpu, launch)` taken *before* the
    /// DPUs run, and per-DPU stats are absorbed in DPU-index order after
    /// all of them finish.
    ///
    /// Fault semantics: a dead rank returns [`SimError::RankFailed`];
    /// per-DPU launch faults skip the DPU and report it in
    /// [`RankRun::faulted`] (mirroring the SDK's per-DPU fault status —
    /// surviving DPUs still produce results); a kernel error on one DPU no
    /// longer aborts the launch — the error lands in [`RankRun::errors`]
    /// and every other DPU's results and stats survive; armed readback
    /// corruption is installed on the affected DPU's MRAM after its
    /// kernel ran.
    ///
    /// Watchdog semantics: each DPU is checked against its own
    /// [`DpuConfig::watchdog_cycles`] (the host's dispatch engine sets it
    /// per DPU on every launch). With a nonzero budget, a kernel that
    /// retires more cycles than the budget — or aborts with the
    /// interpreter's step cap ([`IsaError::MaxSteps`]) — is reaped as
    /// [`SimError::WatchdogExpired`] with its partial stats preserved in
    /// [`RankRun::stats`]'s runaway counters. An injected hang
    /// ([`crate::fault::FaultPlan::hang_rate`]) burns exactly the budget
    /// (simulated instantly, so outcomes stay deterministic); with the
    /// watchdog disabled it spins on the host clock until the cancel token
    /// is set.
    pub fn launch_threads(
        &mut self,
        kernel: &dyn Kernel,
        threads: usize,
    ) -> Result<RankRun, SimError> {
        if self.fault.is_dead() {
            return Err(SimError::RankFailed {
                rank: self.fault.rank,
                reason: "rank offline (injected fault)".into(),
            });
        }
        self.cancel.store(false, Ordering::Relaxed);
        self.fault.next_launch();
        // Intermittent straggler hold: real wall-clock the host spends
        // waiting on this rank (see [`crate::fault::FaultPlan`]). Purely a
        // timing fault — simulated cycles and results are untouched. The
        // sleep is chopped into slices so the host deadline can cut it
        // short via the cancel token.
        let hold = self.fault.hold_seconds();
        if hold > 0.0 {
            cancellable_sleep(hold, &self.cancel);
        }
        let rank_idx = self.fault.rank;
        let probabilistic = self.fault.active();
        let mut faulted = Vec::new();
        // Draw launch and hang faults up front (pure per-DPU draws —
        // order-free) and collect the DPUs that will actually run.
        let fault = &self.fault;
        let cancel = &self.cancel;
        let mut running: Vec<(usize, bool, &mut Dpu)> = Vec::new();
        for (d, dpu) in self.dpus.iter_mut().enumerate() {
            if fault.is_disabled(d) {
                continue;
            }
            if probabilistic && fault.launch_fault(d) {
                faulted.push(d);
                continue;
            }
            let hung = probabilistic && fault.hang_fault(d);
            dpu.reset_for_launch();
            running.push((d, hung, dpu));
        }
        let run_one = |d: usize, hung: bool, dpu: &mut Dpu| -> (usize, Result<(), SimError>) {
            let budget = dpu.cfg.watchdog_cycles;
            if hung {
                if budget > 0 {
                    // The livelock is simulated instantly: the DPU burns
                    // exactly its budget, then the watchdog reaps it.
                    dpu.stats.cycles = budget;
                    return (
                        d,
                        Err(SimError::WatchdogExpired {
                            rank: rank_idx,
                            dpu: d,
                            cycles: budget,
                        }),
                    );
                }
                // No watchdog: the DPU really never returns. Spin on the
                // host clock until the deadline watcher cancels us.
                while !cancel.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                return (
                    d,
                    Err(SimError::WatchdogExpired {
                        rank: rank_idx,
                        dpu: d,
                        cycles: 0,
                    }),
                );
            }
            let res = match kernel.run(dpu) {
                // The interpreter's hard step cap is the same failure class:
                // runaway execution, recoverable at the launch boundary.
                Err(SimError::Isa(IsaError::MaxSteps { .. })) => Err(SimError::WatchdogExpired {
                    rank: rank_idx,
                    dpu: d,
                    cycles: dpu.stats.cycles,
                }),
                Ok(()) if budget > 0 && dpu.stats.cycles > budget => {
                    Err(SimError::WatchdogExpired {
                        rank: rank_idx,
                        dpu: d,
                        cycles: dpu.stats.cycles,
                    })
                }
                other => other,
            };
            (d, res)
        };
        let workers = threads.max(1).min(running.len().max(1));
        let results: Vec<(usize, Result<(), SimError>)> = if workers <= 1 {
            running
                .iter_mut()
                .map(|(d, hung, dpu)| run_one(*d, *hung, dpu))
                .collect()
        } else {
            let per = running.len().div_ceil(workers);
            std::thread::scope(|s| {
                let handles: Vec<_> = running
                    .chunks_mut(per)
                    .map(|chunk| {
                        let run_one = &run_one;
                        s.spawn(move || {
                            chunk
                                .iter_mut()
                                .map(|(d, hung, dpu)| run_one(*d, *hung, dpu))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| {
                        // Re-raise a worker panic with its payload so the
                        // dispatch layer's catch_unwind sees the original.
                        h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
                    })
                    .collect()
            })
        };
        drop(running);
        // Absorb in DPU-index order (the chunks preserve it), so the
        // aggregate's min/max/f64 accumulation is bit-identical to the
        // sequential launch.
        let mut agg = AggregateStats::default();
        let mut errors = Vec::new();
        let mut silent_corrupt = Vec::new();
        let mut runaway_barrier: Cycles = 0;
        for (d, res) in results {
            match res {
                Ok(()) => {
                    let dpu = &mut self.dpus[d];
                    agg.add(&dpu.stats);
                    if probabilistic {
                        if let Some(seed) = self.fault.corruption(d) {
                            dpu.mram.arm_corruption(seed);
                        }
                        // Silent corruption only makes sense on a DPU that
                        // actually produced results.
                        if let Some(seed) = self.fault.silent_corruption(d) {
                            silent_corrupt.push((d, seed));
                        }
                    }
                }
                Err(e) => {
                    if let SimError::WatchdogExpired { cycles, .. } = e {
                        agg.add_watchdog_expired(cycles);
                        // The rank barrier waits for the watchdog to fire.
                        runaway_barrier = runaway_barrier.max(cycles);
                    }
                    errors.push((d, e));
                }
            }
        }
        let barrier_basis = agg.max_cycles.max(runaway_barrier);
        let barrier_cycles = (barrier_basis as f64 * self.fault.slowdown()).round() as Cycles;
        Ok(RankRun {
            barrier_cycles,
            stats: agg,
            faulted,
            errors,
            silent_corrupt,
            cancelled: self.cancel.load(Ordering::Relaxed),
        })
    }
}

/// Sleep `seconds` in small slices, returning early when `cancel` is set.
fn cancellable_sleep(seconds: f64, cancel: &AtomicBool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds);
    while !cancel.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::sleep(left.min(std::time::Duration::from_millis(1)));
    }
}

/// Outcome of one rank launch.
#[derive(Debug, Clone)]
pub struct RankRun {
    /// Cycles until the rank barrier releases (slowest DPU, times the
    /// straggler slowdown when injected).
    pub barrier_cycles: Cycles,
    /// Aggregated per-DPU statistics (faulted DPUs contribute nothing).
    pub stats: AggregateStats,
    /// DPUs that faulted at launch and ran nothing (fault injection).
    pub faulted: Vec<usize>,
    /// DPUs whose kernel returned an error, with the error. The launch
    /// itself still succeeds: every other DPU's results and stats are
    /// intact (previously the first error aborted the rank and discarded
    /// the stats of DPUs already executed).
    pub errors: Vec<(usize, SimError)>,
    /// Silent result-corruption draws: `(dpu, mutation_seed)` for DPUs
    /// whose launch succeeded. The simulator does not know the result
    /// layout, so the dispatch layer above applies the actual mutation
    /// (record picked and perturbed deterministically from the seed, the
    /// checksum recomputed so readback integrity checks pass).
    pub silent_corrupt: Vec<(usize, u64)>,
    /// True when the host's deadline watcher cancelled this launch — at
    /// least one wall-clock wait was cut short by the cancel token.
    pub cancelled: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::Timeline;
    use crate::fault::FaultPlan;
    use crate::pipeline::PhaseCost;

    /// Kernel that spins for a per-DPU number of instructions read from the
    /// first MRAM word — exercising the barrier semantics.
    struct SpinKernel;

    impl Kernel for SpinKernel {
        fn run(&self, dpu: &mut Dpu) -> Result<(), SimError> {
            let n = u64::from(dpu.mram.host_read(0, 1)?[0]);
            let mut t = Timeline::default();
            t.sequential(
                &dpu.cfg,
                1,
                PhaseCost {
                    instructions: n * 100,
                    dma_cycles: 0,
                },
            );
            dpu.record_timelines(&[t]);
            Ok(())
        }
    }

    #[test]
    fn barrier_waits_for_the_slowest_dpu() {
        let mut rank = Rank::new(DpuConfig::default(), 4);
        for (i, load) in [1u8, 5, 2, 3].iter().enumerate() {
            rank.dpu_mut(i)
                .unwrap()
                .mram
                .host_write(0, &[*load])
                .unwrap();
        }
        let run = rank.launch(&SpinKernel).unwrap();
        // Slowest: 5*100 instructions at 11 cycles each.
        assert_eq!(run.barrier_cycles, 5 * 100 * 11);
        assert_eq!(run.stats.dpus, 4);
        assert_eq!(run.stats.min_cycles, 100 * 11);
        assert!(run.stats.imbalance() > 0.5);
        assert!(run.faulted.is_empty());
    }

    #[test]
    fn dpu_index_bounds() {
        let mut rank = Rank::new(DpuConfig::default(), 2);
        assert!(rank.dpu(1).is_ok());
        assert!(matches!(rank.dpu(2), Err(SimError::BadTopology { .. })));
        assert!(rank.dpu_mut(2).is_err());
    }

    #[test]
    fn relaunch_resets_counters() {
        let mut rank = Rank::new(DpuConfig::default(), 1);
        rank.dpu_mut(0).unwrap().mram.host_write(0, &[4]).unwrap();
        let first = rank.launch(&SpinKernel).unwrap();
        let second = rank.launch(&SpinKernel).unwrap();
        assert_eq!(first.barrier_cycles, second.barrier_cycles);
    }

    #[test]
    fn disabled_dpu_is_unreachable_and_skipped() {
        let plan = FaultPlan {
            disabled_dpus: vec![(0, 1)],
            ..Default::default()
        };
        let mut rank = Rank::with_faults(DpuConfig::default(), 3, plan.rank_state(0, 3));
        assert!(!rank.dpu_enabled(1));
        assert!(rank.dpu_enabled(0) && rank.dpu_enabled(2));
        assert!(matches!(
            rank.dpu_mut(1),
            Err(SimError::DpuFaulted { rank: 0, dpu: 1 })
        ));
        for d in [0usize, 2] {
            rank.dpu_mut(d).unwrap().mram.host_write(0, &[2]).unwrap();
        }
        let run = rank.launch(&SpinKernel).unwrap();
        assert_eq!(run.stats.dpus, 2, "disabled DPU never boots");
    }

    #[test]
    fn dead_rank_fails_every_launch() {
        let plan = FaultPlan {
            dead_ranks: vec![4],
            ..Default::default()
        };
        let mut rank = Rank::with_faults(DpuConfig::default(), 2, plan.rank_state(4, 2));
        assert!(rank.is_dead());
        for _ in 0..3 {
            assert!(matches!(
                rank.launch(&SpinKernel),
                Err(SimError::RankFailed { rank: 4, .. })
            ));
        }
    }

    #[test]
    fn launch_faults_are_reported_not_fatal() {
        let plan = FaultPlan {
            seed: 99,
            dpu_fault_rate: 0.5,
            ..Default::default()
        };
        let mut rank = Rank::with_faults(DpuConfig::default(), 16, plan.rank_state(0, 16));
        for d in 0..16 {
            rank.dpu_mut(d).unwrap().mram.host_write(0, &[1]).unwrap();
        }
        let mut saw_fault = false;
        let mut saw_survivor = false;
        for _ in 0..8 {
            let run = rank.launch(&SpinKernel).unwrap();
            saw_fault |= !run.faulted.is_empty();
            saw_survivor |= run.stats.dpus > 0;
            assert_eq!(run.stats.dpus + run.faulted.len(), 16);
        }
        assert!(
            saw_fault,
            "rate 0.5 over 128 draws must fault at least once"
        );
        assert!(saw_survivor, "and at least one DPU must survive");
    }

    #[test]
    fn straggler_slowdown_scales_the_barrier() {
        let plan = FaultPlan {
            straggler_ranks: vec![0],
            straggler_slowdown: 3.0,
            ..Default::default()
        };
        let mut slow = Rank::with_faults(DpuConfig::default(), 1, plan.rank_state(0, 1));
        let mut fast = Rank::new(DpuConfig::default(), 1);
        for r in [&mut slow, &mut fast] {
            r.dpu_mut(0).unwrap().mram.host_write(0, &[2]).unwrap();
        }
        let s = slow.launch(&SpinKernel).unwrap();
        let f = fast.launch(&SpinKernel).unwrap();
        assert_eq!(s.barrier_cycles, 3 * f.barrier_cycles);
        // Stats are unscaled — the DPUs did the same work.
        assert_eq!(s.stats.max_cycles, f.stats.max_cycles);
    }

    #[test]
    fn corruption_is_armed_after_launch() {
        let plan = FaultPlan {
            seed: 5,
            corrupt_rate: 1.0,
            ..Default::default()
        };
        let mut rank = Rank::with_faults(DpuConfig::default(), 2, plan.rank_state(0, 2));
        for d in 0..2 {
            rank.dpu_mut(d).unwrap().mram.host_write(0, &[1]).unwrap();
        }
        rank.launch(&SpinKernel).unwrap();
        for d in 0..2 {
            assert!(rank.dpu(d).unwrap().mram.corruption_armed());
        }
        // A fresh image upload disarms.
        rank.dpu_mut(0).unwrap().mram.host_write(0, &[1]).unwrap();
        assert!(!rank.dpu(0).unwrap().mram.corruption_armed());
    }

    /// Kernel that errors on DPUs whose MRAM byte 0 is zero and spins
    /// otherwise — for the partial-failure launch semantics.
    struct FussyKernel;

    impl Kernel for FussyKernel {
        fn run(&self, dpu: &mut Dpu) -> Result<(), SimError> {
            let n = u64::from(dpu.mram.host_read(0, 1)?[0]);
            if n == 0 {
                return Err(SimError::KernelFault {
                    code: 7,
                    message: "zero workload".into(),
                });
            }
            let mut t = Timeline::default();
            t.sequential(
                &dpu.cfg,
                1,
                PhaseCost {
                    instructions: n * 100,
                    dma_cycles: 0,
                },
            );
            dpu.record_timelines(&[t]);
            Ok(())
        }
    }

    #[test]
    fn kernel_error_no_longer_discards_other_dpus_stats() {
        // DPU 2 errors mid-rank; DPUs 0, 1, 3 already/subsequently ran and
        // their stats must survive in the launch outcome.
        let mut rank = Rank::new(DpuConfig::default(), 4);
        for (i, load) in [3u8, 1, 0, 2].iter().enumerate() {
            rank.dpu_mut(i)
                .unwrap()
                .mram
                .host_write(0, &[*load])
                .unwrap();
        }
        let run = rank.launch(&FussyKernel).unwrap();
        assert_eq!(run.errors.len(), 1);
        assert_eq!(run.errors[0].0, 2);
        assert!(matches!(run.errors[0].1, SimError::KernelFault { .. }));
        assert_eq!(run.stats.dpus, 3, "survivors' stats are kept");
        assert_eq!(run.barrier_cycles, 3 * 100 * 11);
        assert_eq!(run.stats.min_cycles, 100 * 11);
    }

    #[test]
    fn parallel_launch_matches_sequential_bit_for_bit() {
        // Same topology + fault plan, threads 1 vs 4 (and a non-dividing
        // 3): everything observable must be identical — fault draws,
        // errors, aggregates, barrier, MRAM corruption arming, silent
        // corruption draws, watchdog expiries.
        let plan = FaultPlan {
            seed: 1234,
            dpu_fault_rate: 0.25,
            corrupt_rate: 0.3,
            hang_rate: 0.2,
            silent_corrupt_rate: 0.3,
            disabled_dpus: vec![(0, 5)],
            ..Default::default()
        };
        let cfg = DpuConfig {
            // Finite budget so injected hangs resolve deterministically.
            watchdog_cycles: 1_000_000,
            ..Default::default()
        };
        let build = || {
            let mut r = Rank::with_faults(cfg, 16, plan.rank_state(0, 16));
            for d in 0..16 {
                let load = [3u8, 1, 0, 2, 5][d % 5];
                if let Ok(dpu) = r.dpu_mut(d) {
                    dpu.mram.host_write(0, &[load]).unwrap();
                }
            }
            r
        };
        for threads in [3usize, 4, 16] {
            let mut seq = build();
            let mut par = build();
            for _ in 0..4 {
                let a = seq.launch_threads(&FussyKernel, 1).unwrap();
                let b = par.launch_threads(&FussyKernel, threads).unwrap();
                assert_eq!(a.barrier_cycles, b.barrier_cycles);
                assert_eq!(a.faulted, b.faulted);
                assert_eq!(a.errors, b.errors);
                assert_eq!(a.silent_corrupt, b.silent_corrupt);
                assert_eq!(a.cancelled, b.cancelled);
                assert_eq!(a.stats.watchdog_expired, b.stats.watchdog_expired);
                assert_eq!(a.stats.runaway_cycles, b.stats.runaway_cycles);
                assert_eq!(a.stats.dpus, b.stats.dpus);
                assert_eq!(a.stats.min_cycles, b.stats.min_cycles);
                assert_eq!(a.stats.max_cycles, b.stats.max_cycles);
                assert_eq!(a.stats.total, b.stats.total, "summed counters match");
                for d in 0..16 {
                    let (sa, sb) = (seq.dpus[d].mram.corruption_armed(), {
                        par.dpus[d].mram.corruption_armed()
                    });
                    assert_eq!(sa, sb, "corruption arming differs on dpu {d}");
                }
            }
        }
    }

    #[test]
    fn watchdog_reaps_runaway_kernels_and_preserves_partial_stats() {
        let cfg = DpuConfig {
            watchdog_cycles: 2000,
            ..Default::default()
        };
        let mut rank = Rank::new(cfg, 2);
        // Load 1 → 1100 cycles (inside budget); load 5 → 5500 (runaway).
        rank.dpu_mut(0).unwrap().mram.host_write(0, &[1]).unwrap();
        rank.dpu_mut(1).unwrap().mram.host_write(0, &[5]).unwrap();
        let run = rank.launch(&SpinKernel).unwrap();
        assert_eq!(run.errors.len(), 1);
        assert_eq!(
            run.errors[0],
            (
                1,
                SimError::WatchdogExpired {
                    rank: 0,
                    dpu: 1,
                    cycles: 5500,
                }
            )
        );
        assert_eq!(run.stats.dpus, 1, "the healthy DPU's results survive");
        assert_eq!(run.stats.watchdog_expired, 1);
        assert_eq!(run.stats.runaway_cycles, 5500);
        assert_eq!(
            run.barrier_cycles, 5500,
            "the rank barrier waits for the watchdog to fire"
        );
    }

    #[test]
    fn injected_hangs_burn_exactly_the_budget() {
        let plan = FaultPlan {
            seed: 9,
            hang_rate: 1.0,
            ..Default::default()
        };
        let cfg = DpuConfig {
            watchdog_cycles: 9000,
            ..Default::default()
        };
        let mut rank = Rank::with_faults(cfg, 3, plan.rank_state(0, 3));
        for d in 0..3 {
            rank.dpu_mut(d).unwrap().mram.host_write(0, &[1]).unwrap();
        }
        let run = rank.launch(&SpinKernel).unwrap();
        assert_eq!(run.errors.len(), 3, "every DPU hung");
        for (d, e) in &run.errors {
            assert!(
                matches!(e, SimError::WatchdogExpired { cycles: 9000, .. }),
                "dpu {d}: {e}"
            );
        }
        assert_eq!(run.stats.dpus, 0);
        assert_eq!(run.stats.watchdog_expired, 3);
        assert_eq!(run.barrier_cycles, 9000);
        assert!(!run.cancelled);
    }

    #[test]
    fn unwatched_hang_spins_until_the_host_cancels() {
        let plan = FaultPlan {
            seed: 9,
            hang_rate: 1.0,
            ..Default::default()
        };
        // Watchdog disabled: the hang is a real wall-clock spin, broken
        // only by the cancel token (the host deadline path).
        let mut rank = Rank::with_faults(DpuConfig::default(), 1, plan.rank_state(0, 1));
        rank.dpu_mut(0).unwrap().mram.host_write(0, &[1]).unwrap();
        let token = rank.cancel_token();
        let done = Arc::new(AtomicBool::new(false));
        let canceller = {
            let done = done.clone();
            std::thread::spawn(move || {
                // Keep re-asserting the cancel until the launch returns, so
                // the test cannot race the launch-entry flag reset.
                while !done.load(Ordering::Relaxed) {
                    token.store(true, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        };
        let run = rank.launch(&SpinKernel).unwrap();
        done.store(true, Ordering::Relaxed);
        canceller.join().unwrap();
        assert!(run.cancelled);
        assert_eq!(
            run.errors[0],
            (
                0,
                SimError::WatchdogExpired {
                    rank: 0,
                    dpu: 0,
                    cycles: 0,
                }
            )
        );
    }

    #[test]
    fn cancel_cuts_the_straggler_hold_short() {
        let plan = FaultPlan {
            straggler_ranks: vec![0],
            straggler_hold_ms: 60_000.0, // a minute — must not actually elapse
            ..Default::default()
        };
        let mut rank = Rank::with_faults(DpuConfig::default(), 1, plan.rank_state(0, 1));
        rank.dpu_mut(0).unwrap().mram.host_write(0, &[1]).unwrap();
        // First launch is the held one (odd launch counter).
        let token = rank.cancel_token();
        let done = Arc::new(AtomicBool::new(false));
        let canceller = {
            let done = done.clone();
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    token.store(true, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        };
        let start = std::time::Instant::now();
        let run = rank.launch(&SpinKernel).unwrap();
        done.store(true, Ordering::Relaxed);
        canceller.join().unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "no wedge"
        );
        assert!(run.cancelled);
        // The hold is timing-only: the DPU still ran and produced stats.
        assert_eq!(run.stats.dpus, 1);
    }

    /// Kernel that aborts with the interpreter's step cap after recording
    /// partial progress — the raw `MaxSteps` must not survive the launch.
    struct RunawayKernel;

    impl Kernel for RunawayKernel {
        fn run(&self, dpu: &mut Dpu) -> Result<(), SimError> {
            dpu.stats.cycles = 123_456;
            Err(IsaError::MaxSteps { limit: 1000 }.into())
        }
    }

    #[test]
    fn interpreter_step_cap_becomes_watchdog_expiry_on_the_launch_path() {
        let mut rank = Rank::new(DpuConfig::default(), 1);
        let run = rank.launch(&RunawayKernel).unwrap();
        assert_eq!(
            run.errors[0],
            (
                0,
                SimError::WatchdogExpired {
                    rank: 0,
                    dpu: 0,
                    cycles: 123_456,
                }
            )
        );
        assert_eq!(run.stats.watchdog_expired, 1);
        assert_eq!(run.stats.runaway_cycles, 123_456);
    }

    #[test]
    fn silent_corruption_is_drawn_only_for_successful_dpus() {
        let plan = FaultPlan {
            seed: 77,
            silent_corrupt_rate: 1.0,
            dpu_fault_rate: 0.5,
            ..Default::default()
        };
        let mut rank = Rank::with_faults(DpuConfig::default(), 8, plan.rank_state(0, 8));
        for d in 0..8 {
            rank.dpu_mut(d).unwrap().mram.host_write(0, &[1]).unwrap();
        }
        let run = rank.launch(&SpinKernel).unwrap();
        let drawn: Vec<usize> = run.silent_corrupt.iter().map(|&(d, _)| d).collect();
        assert!(!drawn.is_empty());
        for d in &drawn {
            assert!(!run.faulted.contains(d), "faulted DPUs produce nothing");
        }
        assert_eq!(drawn.len() + run.faulted.len(), 8);
    }
}
