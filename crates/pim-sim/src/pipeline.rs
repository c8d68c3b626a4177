//! The DPU pipeline timing model (§2.1).
//!
//! Ground truth behaviour being modeled:
//! * The 14-stage pipeline imposes an 11-cycle re-entry restriction: a given
//!   tasklet issues at most one instruction every 11 cycles.
//! * Tasklets share the issue slot round-robin, so with `A` runnable
//!   tasklets a tasklet issues every `max(11, A)` cycles and the DPU retires
//!   `min(1, A/11)` instructions per cycle.
//! * A DMA transfer blocks only its issuing tasklet (`len/2 + setup`
//!   cycles); other tasklets keep issuing — this latency masking is why the
//!   paper runs more than 11 (usually 16–24) tasklets.
//! * The DMA engine itself is serial per DPU, so total DMA time is also a
//!   lower bound on the phase.
//!
//! Execution is phase-based (a phase = the work between two barriers of a
//! tasklet group, e.g. one anti-diagonal, §4.2.3): each tasklet contributes
//! `(instructions, dma_cycles)` and the phase duration is
//!
//! ```text
//! max(  max_i (instr_i * max(11, A) + dma_i),   // critical tasklet
//!       sum_i instr_i / min(1, A/11),           // issue throughput
//!       sum_i dma_i )                           // serial DMA engine
//! ```
//!
//! For balanced tasklets the first two coincide; the formula interpolates
//! correctly for imbalanced segments (e.g. the band tail when `w % T != 0`).

use crate::config::DpuConfig;
use crate::Cycles;

/// Per-tasklet cost of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Instructions issued by this tasklet during the phase.
    pub instructions: u64,
    /// Cycles this tasklet spends blocked on DMA during the phase.
    pub dma_cycles: Cycles,
}

impl PhaseCost {
    /// Add another cost into this one.
    pub fn add(&mut self, other: PhaseCost) {
        self.instructions += other.instructions;
        self.dma_cycles += other.dma_cycles;
    }

    /// True when the tasklet did nothing this phase.
    pub fn is_idle(&self) -> bool {
        self.instructions == 0 && self.dma_cycles == 0
    }
}

/// Duration in cycles of one phase executed by the given tasklet costs,
/// with `active_total` runnable tasklets DPU-wide setting the issue interval
/// (pools run concurrently: a pool's phase sees the other pools' tasklets
/// competing for the pipeline).
pub fn phase_cycles(cfg: &DpuConfig, active_total: usize, costs: &[PhaseCost]) -> Cycles {
    let active = active_total.max(1).min(cfg.max_tasklets) as u64;
    let interval = (cfg.reentry_cycles as u64).max(active);

    let mut critical: Cycles = 0;
    let mut total_dma: Cycles = 0;
    for c in costs {
        // Each tasklet gets one issue slot every `interval` cycles (round
        // robin over the active set), and its DMA stalls serialize with its
        // own instruction stream.
        critical = critical.max(c.instructions * interval + c.dma_cycles);
        total_dma += c.dma_cycles;
    }
    // The critical-tasklet bound already encodes the issue-throughput bound:
    // a balanced group of g tasklets with I instructions each retires g*I
    // instructions in I*interval cycles, exactly the group's share of the
    // min(1, A/11) IPC machine. The serial DMA engine adds a second bound.
    critical.max(total_dma)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DpuConfig {
        DpuConfig::default()
    }

    #[test]
    fn single_tasklet_pays_the_reentry_restriction() {
        // 1 tasklet, 100 instructions: one instruction per 11 cycles.
        let c = phase_cycles(
            &cfg(),
            1,
            &[PhaseCost {
                instructions: 100,
                dma_cycles: 0,
            }],
        );
        assert_eq!(c, 1100);
    }

    #[test]
    fn eleven_tasklets_reach_peak_ipc() {
        // 11 tasklets x 100 instructions: 1100 instructions at 1 IPC.
        let costs = vec![
            PhaseCost {
                instructions: 100,
                dma_cycles: 0
            };
            11
        ];
        let c = phase_cycles(&cfg(), 11, &costs);
        assert_eq!(c, 1100);
        // Utilization = 1100/1100 = 1.0: peak.
    }

    #[test]
    fn more_tasklets_same_total_time_when_work_fixed_per_tasklet_scales() {
        // 22 tasklets x 100 instructions: issue interval 22, each tasklet
        // takes 2200 cycles; total 2200 instructions at 1 IPC = 2200 cycles.
        let costs = vec![
            PhaseCost {
                instructions: 100,
                dma_cycles: 0
            };
            22
        ];
        assert_eq!(phase_cycles(&cfg(), 22, &costs), 2200);
    }

    #[test]
    fn under_eleven_tasklets_pipeline_is_underused() {
        // 4 tasklets x 100 instructions: each issues every 11 cycles ->
        // 1100 cycles for 400 instructions (IPC 0.36, the paper's reason a
        // pure 8-tasklet-per-alignment scheme is not enough).
        let costs = vec![
            PhaseCost {
                instructions: 100,
                dma_cycles: 0
            };
            4
        ];
        let c = phase_cycles(&cfg(), 4, &costs);
        assert_eq!(c, 1100);
    }

    #[test]
    fn dma_blocks_only_its_tasklet() {
        // One tasklet does a long DMA; ten others compute. The phase is
        // bounded by compute, not compute+DMA, as long as DMA < compute.
        let mut costs = vec![
            PhaseCost {
                instructions: 200,
                dma_cycles: 0
            };
            10
        ];
        costs.push(PhaseCost {
            instructions: 10,
            dma_cycles: 500,
        });
        let c = phase_cycles(&cfg(), 11, &costs);
        // Critical compute tasklet: 200 * 11 = 2200 > 10*11 + 500.
        assert_eq!(c, 2200);
    }

    #[test]
    fn serial_dma_engine_bounds_the_phase() {
        // All tasklets mostly DMA: phase >= sum of DMA times.
        let costs = vec![
            PhaseCost {
                instructions: 1,
                dma_cycles: 400
            };
            8
        ];
        let c = phase_cycles(&cfg(), 8, &costs);
        assert!(c >= 3200, "serial DMA bound, got {c}");
    }

    #[test]
    fn imbalanced_tasklet_is_the_critical_path() {
        // One tasklet has 3x the work (the band tail): it dominates.
        let mut costs = vec![
            PhaseCost {
                instructions: 100,
                dma_cycles: 0
            };
            3
        ];
        costs.push(PhaseCost {
            instructions: 300,
            dma_cycles: 0,
        });
        let c = phase_cycles(&cfg(), 4, &costs);
        assert_eq!(c, 300 * 11);
    }

    #[test]
    fn empty_phase_costs_nothing() {
        assert_eq!(phase_cycles(&cfg(), 16, &[]), 0);
        assert_eq!(phase_cycles(&cfg(), 16, &[PhaseCost::default()]), 0);
    }

    #[test]
    fn active_total_above_group_slows_the_group() {
        // A 4-tasklet pool on a DPU with 24 active tasklets issues every 24
        // cycles, not every 11.
        let costs = vec![
            PhaseCost {
                instructions: 100,
                dma_cycles: 0
            };
            4
        ];
        let alone = phase_cycles(&cfg(), 4, &costs);
        let contended = phase_cycles(&cfg(), 24, &costs);
        assert_eq!(alone, 1100);
        assert_eq!(contended, 2400);
    }
}
