//! Deterministic, seedable fault injection.
//!
//! Real UPMEM DIMMs ship with faulty DPUs masked out at boot, and the SDK
//! surfaces per-DPU faults at launch time; frameworks that target the real
//! hardware (Diab et al., arXiv:2208.01243) must detect and route around
//! them. This module lets the simulator reproduce that world on demand:
//!
//! * **Boot-disabled DPUs** — listed DPUs never come up; host access raises
//!   [`crate::SimError::DpuFaulted`].
//! * **Launch faults** — each enabled DPU faults with probability
//!   `dpu_fault_rate` per launch; faulted DPUs run nothing and are reported
//!   in [`crate::rank::RankRun::faulted`].
//! * **Dead ranks** — listed ranks fail every launch with
//!   [`crate::SimError::RankFailed`] (a whole-DIMM/channel failure).
//! * **Result corruption** — with probability `corrupt_rate` per DPU per
//!   launch, the DPU's MRAM readback path is armed to flip one bit per
//!   host read until the next host write (see [`crate::Mram`]).
//! * **Stragglers** — listed ranks release their barrier `slowdown`×
//!   later than the slowest DPU (thermal throttling / refresh contention);
//!   timing-only, never correctness.
//! * **Hangs** — with probability `hang_rate` per DPU per launch, the DPU's
//!   kernel livelocks and never returns. With a watchdog budget configured
//!   ([`crate::DpuConfig::watchdog_cycles`]) the spin is simulated
//!   instantly (the DPU burns exactly the budget, then trips
//!   [`crate::SimError::WatchdogExpired`]); without one the rank worker
//!   really spins on the host clock until cooperatively cancelled —
//!   exercising the host's wall-clock deadline.
//! * **Silent result corruption** — with probability `silent_corrupt_rate`
//!   per DPU per launch, one result record is mutated *and its checksum
//!   recomputed*, so the readback integrity check passes. Only an
//!   end-to-end audit (CIGAR validation + score recomputation) catches it.
//!
//! Every decision is a pure function of `(seed, rank, dpu, launch#)`, so a
//! fault schedule replays identically regardless of host thread
//! interleaving — which is what makes the recovery layer testable.

/// splitmix64: the statelessly-seedable mixer behind every fault decision.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from a mixed key.
fn unit(key: u64) -> f64 {
    (mix64(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// A full fault schedule for a server. [`FaultPlan::default`] injects
/// nothing and adds zero overhead anywhere.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// `(rank, dpu)` pairs disabled at boot (masked-out DPUs).
    pub disabled_dpus: Vec<(usize, usize)>,
    /// Ranks whose every launch fails (dead DIMM half).
    pub dead_ranks: Vec<usize>,
    /// Per-launch, per-DPU probability of a launch fault.
    pub dpu_fault_rate: f64,
    /// Per-launch, per-DPU probability of armed readback corruption.
    pub corrupt_rate: f64,
    /// Ranks that straggle: their barrier releases `straggler_slowdown`×
    /// late.
    pub straggler_ranks: Vec<usize>,
    /// Slowdown factor for straggler ranks (≥ 1.0; 1.0 = no effect).
    pub straggler_slowdown: f64,
    /// Host-side wall-clock hold (milliseconds) a straggler rank adds to
    /// every *odd-numbered* launch — an intermittent stall (DRAM refresh
    /// storm / thermal throttle) the host actually waits out, unlike
    /// `straggler_slowdown` which only scales the *simulated* barrier.
    /// Timing-only, never correctness; 0.0 = no effect. It makes the
    /// straggler finish its launches after the other ranks', out of plan
    /// order, in host wall-clock.
    pub straggler_hold_ms: f64,
    /// Per-launch, per-DPU probability of a tasklet livelock: the kernel
    /// never terminates on its own and must be reaped by the watchdog (or
    /// the host deadline when no watchdog budget is configured).
    pub hang_rate: f64,
    /// Per-launch, per-DPU probability of silent result corruption: one
    /// result record is mutated with its checksum recomputed, defeating
    /// the readback integrity check.
    pub silent_corrupt_rate: f64,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.disabled_dpus.is_empty()
            && self.dead_ranks.is_empty()
            && self.dpu_fault_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.hang_rate == 0.0
            && self.silent_corrupt_rate == 0.0
            && (self.straggler_ranks.is_empty()
                || (self.straggler_slowdown <= 1.0 && self.straggler_hold_ms <= 0.0))
    }

    /// A pseudo-random chaos plan: `disabled` DPUs masked out, one dead
    /// rank when the server has more than one, and the given fault, corrupt,
    /// hang and silent-corrupt rates — everything derived from `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn chaos(
        seed: u64,
        ranks: usize,
        dpus_per_rank: usize,
        disabled: usize,
        dpu_fault_rate: f64,
        corrupt_rate: f64,
        hang_rate: f64,
        silent_corrupt_rate: f64,
    ) -> Self {
        let mut disabled_dpus = Vec::new();
        let mut k = 0u64;
        while disabled_dpus.len() < disabled.min(ranks * dpus_per_rank / 2) {
            let r = (mix64(seed ^ 0xD15A ^ k) as usize) % ranks.max(1);
            let d = (mix64(seed ^ 0xB1ED ^ k) as usize) % dpus_per_rank.max(1);
            if !disabled_dpus.contains(&(r, d)) {
                disabled_dpus.push((r, d));
            }
            k += 1;
        }
        let dead_ranks = if ranks > 1 {
            vec![(mix64(seed ^ 0xDEAD) as usize) % ranks]
        } else {
            Vec::new()
        };
        let straggler_ranks = if ranks > 1 {
            vec![(mix64(seed ^ 0x510) as usize) % ranks]
        } else {
            Vec::new()
        };
        Self {
            seed,
            disabled_dpus,
            dead_ranks,
            dpu_fault_rate,
            corrupt_rate,
            straggler_ranks,
            straggler_slowdown: 2.5,
            straggler_hold_ms: 0.0,
            hang_rate,
            silent_corrupt_rate,
        }
    }

    /// Slice the plan down to one rank's runtime state.
    pub fn rank_state(&self, rank: usize, dpus: usize) -> RankFaultState {
        let mut disabled = vec![false; dpus];
        for &(r, d) in &self.disabled_dpus {
            if r == rank && d < dpus {
                disabled[d] = true;
            }
        }
        RankFaultState {
            rank,
            seed: self.seed,
            disabled,
            dead: self.dead_ranks.contains(&rank),
            dpu_fault_rate: self.dpu_fault_rate,
            corrupt_rate: self.corrupt_rate,
            slowdown: if self.straggler_ranks.contains(&rank) {
                self.straggler_slowdown.max(1.0)
            } else {
                1.0
            },
            hold_ms: if self.straggler_ranks.contains(&rank) {
                self.straggler_hold_ms.max(0.0)
            } else {
                0.0
            },
            hang_rate: self.hang_rate,
            silent_corrupt_rate: self.silent_corrupt_rate,
            launches: 0,
        }
    }
}

/// One rank's view of the fault plan plus its launch counter.
#[derive(Debug, Clone)]
pub struct RankFaultState {
    /// This rank's index in the server.
    pub rank: usize,
    seed: u64,
    disabled: Vec<bool>,
    dead: bool,
    dpu_fault_rate: f64,
    corrupt_rate: f64,
    slowdown: f64,
    hold_ms: f64,
    hang_rate: f64,
    silent_corrupt_rate: f64,
    launches: u64,
}

impl RankFaultState {
    /// A fully healthy rank (what [`crate::Rank::new`] uses).
    pub fn healthy(rank: usize, dpus: usize) -> Self {
        FaultPlan::default().rank_state(rank, dpus)
    }

    /// True when any probabilistic injection can trigger on this rank.
    pub fn active(&self) -> bool {
        self.dpu_fault_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.hang_rate > 0.0
            || self.silent_corrupt_rate > 0.0
    }

    /// True when the whole rank is dead.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Straggler slowdown factor (1.0 = healthy).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Host wall-clock seconds the *current* launch holds the rank busy
    /// before releasing. Intermittent by design — only odd-numbered
    /// launches (the 1st, 3rd, ...) stall, so the straggler alternates
    /// between slow and healthy launches. Deterministic in the launch
    /// counter, hence identical across dispatch engines that issue the
    /// same per-rank launch sequence.
    pub fn hold_seconds(&self) -> f64 {
        if self.hold_ms > 0.0 && self.launches % 2 == 1 {
            self.hold_ms / 1e3
        } else {
            0.0
        }
    }

    /// True when `dpu` was masked out at boot.
    pub fn is_disabled(&self, dpu: usize) -> bool {
        self.disabled.get(dpu).copied().unwrap_or(false)
    }

    /// Advance the launch counter (called once per [`crate::Rank::launch`]).
    pub fn next_launch(&mut self) {
        self.launches += 1;
    }

    fn key(&self, dpu: usize, what: u64) -> u64 {
        self.seed ^ mix64(what ^ (self.rank as u64) << 32 ^ (dpu as u64) << 16 ^ self.launches)
    }

    /// Does `dpu` fault on the current launch?
    pub fn launch_fault(&self, dpu: usize) -> bool {
        self.dpu_fault_rate > 0.0 && unit(self.key(dpu, 0xFA17)) < self.dpu_fault_rate
    }

    /// Is `dpu`'s readback corrupted on the current launch? Returns the
    /// corruption seed to arm the MRAM with.
    pub fn corruption(&self, dpu: usize) -> Option<u64> {
        let key = self.key(dpu, 0xC0BB);
        (self.corrupt_rate > 0.0 && unit(key) < self.corrupt_rate).then(|| mix64(key))
    }

    /// Does `dpu`'s kernel livelock on the current launch?
    pub fn hang_fault(&self, dpu: usize) -> bool {
        self.hang_rate > 0.0 && unit(self.key(dpu, 0x4A46)) < self.hang_rate
    }

    /// Is one of `dpu`'s result records silently corrupted on the current
    /// launch? Returns the mutation seed the host-side fault applicator
    /// uses to pick the record and the perturbation (the mutation itself
    /// needs the result layout, which lives above the simulator).
    pub fn silent_corruption(&self, dpu: usize) -> Option<u64> {
        let key = self.key(dpu, 0x51C0);
        (self.silent_corrupt_rate > 0.0 && unit(key) < self.silent_corrupt_rate).then(|| mix64(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        let plan = FaultPlan {
            dpu_fault_rate: 0.1,
            ..Default::default()
        };
        assert!(!plan.is_empty());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan {
            seed: 7,
            dpu_fault_rate: 0.5,
            corrupt_rate: 0.5,
            ..Default::default()
        };
        let a = plan.rank_state(1, 8);
        let b = plan.rank_state(1, 8);
        for d in 0..8 {
            assert_eq!(a.launch_fault(d), b.launch_fault(d));
            assert_eq!(a.corruption(d), b.corruption(d));
        }
    }

    #[test]
    fn launch_counter_changes_the_draw() {
        let plan = FaultPlan {
            seed: 3,
            dpu_fault_rate: 0.5,
            ..Default::default()
        };
        let mut s = plan.rank_state(0, 64);
        let first: Vec<bool> = (0..64).map(|d| s.launch_fault(d)).collect();
        s.next_launch();
        let second: Vec<bool> = (0..64).map(|d| s.launch_fault(d)).collect();
        assert_ne!(first, second, "fault pattern must vary across launches");
    }

    #[test]
    fn fault_rate_is_roughly_honored() {
        let plan = FaultPlan {
            seed: 11,
            dpu_fault_rate: 0.25,
            ..Default::default()
        };
        let mut s = plan.rank_state(0, 64);
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..64 {
            s.next_launch();
            for d in 0..64 {
                total += 1;
                hits += usize::from(s.launch_fault(d));
            }
        }
        let rate = hits as f64 / total as f64;
        assert!((0.2..0.3).contains(&rate), "measured rate {rate}");
    }

    #[test]
    fn disabled_and_dead_are_per_rank() {
        let plan = FaultPlan {
            disabled_dpus: vec![(0, 2), (1, 5)],
            dead_ranks: vec![1],
            straggler_ranks: vec![0],
            straggler_slowdown: 3.0,
            ..Default::default()
        };
        let r0 = plan.rank_state(0, 8);
        let r1 = plan.rank_state(1, 8);
        assert!(r0.is_disabled(2) && !r0.is_disabled(5));
        assert!(r1.is_disabled(5) && !r1.is_disabled(2));
        assert!(!r0.is_dead() && r1.is_dead());
        assert_eq!(r0.slowdown(), 3.0);
        assert_eq!(r1.slowdown(), 1.0);
    }

    #[test]
    fn straggler_hold_is_intermittent_and_per_rank() {
        let plan = FaultPlan {
            straggler_ranks: vec![1],
            straggler_hold_ms: 20.0,
            ..Default::default()
        };
        assert!(!plan.is_empty(), "a hold-only straggler is a real fault");
        let mut s = plan.rank_state(1, 4);
        let mut healthy = plan.rank_state(0, 4);
        // Launch counter parity: odd launches hold, even ones don't.
        let mut pattern = Vec::new();
        for _ in 0..4 {
            s.next_launch();
            healthy.next_launch();
            pattern.push(s.hold_seconds() > 0.0);
            assert_eq!(healthy.hold_seconds(), 0.0, "non-straggler never holds");
        }
        assert_eq!(pattern, vec![true, false, true, false]);
        assert!((plan.rank_state(1, 4).hold_seconds() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn chaos_plan_is_seeded_and_bounded() {
        let a = FaultPlan::chaos(42, 4, 8, 3, 0.1, 0.1, 0.05, 0.05);
        let b = FaultPlan::chaos(42, 4, 8, 3, 0.1, 0.1, 0.05, 0.05);
        assert_eq!(a, b);
        assert_eq!(a.disabled_dpus.len(), 3);
        assert_eq!(a.dead_ranks.len(), 1);
        assert!(a.dead_ranks[0] < 4);
        assert_eq!(a.hang_rate, 0.05);
        assert_eq!(a.silent_corrupt_rate, 0.05);
        let single = FaultPlan::chaos(42, 1, 4, 1, 0.1, 0.0, 0.0, 0.0);
        assert!(single.dead_ranks.is_empty(), "never kill the only rank");
    }

    #[test]
    fn hang_and_silent_corruption_plans_are_real_faults() {
        let hangs = FaultPlan {
            hang_rate: 0.1,
            ..Default::default()
        };
        assert!(!hangs.is_empty());
        let silent = FaultPlan {
            silent_corrupt_rate: 0.1,
            ..Default::default()
        };
        assert!(!silent.is_empty());
        assert!(hangs.rank_state(0, 4).active());
        assert!(silent.rank_state(0, 4).active());
    }

    #[test]
    fn hang_and_silent_draws_are_deterministic_and_independent() {
        let plan = FaultPlan {
            seed: 21,
            hang_rate: 0.5,
            silent_corrupt_rate: 0.5,
            ..Default::default()
        };
        let a = plan.rank_state(2, 16);
        let b = plan.rank_state(2, 16);
        let mut hangs = 0usize;
        let mut silents = 0usize;
        for d in 0..16 {
            assert_eq!(a.hang_fault(d), b.hang_fault(d));
            assert_eq!(a.silent_corruption(d), b.silent_corruption(d));
            hangs += usize::from(a.hang_fault(d));
            silents += usize::from(a.silent_corruption(d).is_some());
        }
        assert!(hangs > 0 && hangs < 16, "rate 0.5 draws must be mixed");
        assert!(silents > 0 && silents < 16);
        // Independent tags: the hang pattern is not the silent pattern.
        let hang_pattern: Vec<bool> = (0..16).map(|d| a.hang_fault(d)).collect();
        let silent_pattern: Vec<bool> = (0..16).map(|d| a.silent_corruption(d).is_some()).collect();
        assert_ne!(hang_pattern, silent_pattern);
    }
}
