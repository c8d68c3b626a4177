//! A single DPU: one 64 MB MRAM bank, one 64 KB WRAM scratchpad, up to 24
//! tasklets, and the cycle accounting that turns kernel work into time.
//!
//! Kernels (the `dpu-kernel` crate) run *real code* against these memories —
//! sequences are DMA'd from MRAM, anti-diagonals live in WRAM, `BT` rows are
//! DMA'd back — while charging instruction counts per tasklet. The paper's
//! pools (§4.2.3) each own a [`Timeline`]; the DPU's elapsed time is the
//! slowest pool's timeline since pools run concurrently on the shared
//! pipeline.

use crate::config::DpuConfig;
use crate::error::SimError;
use crate::memory::{Mram, Wram};
use crate::pipeline::{phase_cycles, PhaseCost};
use crate::stats::DpuStats;
use crate::Cycles;

/// A simulated DPU.
#[derive(Debug)]
pub struct Dpu {
    /// Architectural parameters.
    pub cfg: DpuConfig,
    /// The scratchpad.
    pub wram: Wram,
    /// The DRAM bank.
    pub mram: Mram,
    /// Counters for the last (or current) execution.
    pub stats: DpuStats,
}

/// A kernel program loadable onto DPUs. One binary is broadcast to every DPU
/// (the typical UPMEM usage, §2.1); data parallelism comes from each DPU's
/// MRAM contents.
pub trait Kernel: Sync {
    /// Execute on one DPU. On return, `dpu.stats` must reflect the
    /// execution (the rank barrier uses `stats.cycles`).
    fn run(&self, dpu: &mut Dpu) -> Result<(), SimError>;
}

impl Dpu {
    /// A fresh DPU.
    pub fn new(cfg: DpuConfig) -> Self {
        Self {
            wram: Wram::new(cfg.wram_size),
            mram: Mram::new(cfg.mram_size),
            stats: DpuStats::default(),
            cfg,
        }
    }

    /// Prepare for a new launch: clear the scratchpad and counters. MRAM
    /// persists — it holds the host's input data.
    pub fn reset_for_launch(&mut self) {
        self.wram.reset();
        self.stats = DpuStats::default();
    }

    /// DMA transfer MRAM -> WRAM issued by a tasklet: moves the bytes,
    /// charges the tasklet's [`PhaseCost`] and the DPU traffic counters.
    pub fn mram_to_wram(
        &mut self,
        cost: &mut PhaseCost,
        mram_off: usize,
        wram_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        // The DMA engine requires 8-byte alignment on the WRAM side too.
        if !wram_off.is_multiple_of(8) {
            return Err(SimError::DmaMisaligned { offset: wram_off });
        }
        let dst = self.wram.slice_mut(wram_off, len)?;
        self.mram.dma_read(mram_off, dst)?;
        cost.instructions += 1; // the ldma instruction
        cost.dma_cycles += self.cfg.dma_cycles(len);
        self.stats.dma_read_bytes += len as u64;
        self.stats.dma_transfers += 1;
        Ok(())
    }

    /// DMA transfer WRAM -> MRAM issued by a tasklet.
    pub fn wram_to_mram(
        &mut self,
        cost: &mut PhaseCost,
        wram_off: usize,
        mram_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        if !wram_off.is_multiple_of(8) {
            return Err(SimError::DmaMisaligned { offset: wram_off });
        }
        // Disjoint field borrows: WRAM is the source, MRAM the destination.
        let src = self.wram.slice(wram_off, len)?;
        self.mram.dma_write(mram_off, src)?;
        cost.instructions += 1; // the sdma instruction
        cost.dma_cycles += self.cfg.dma_cycles(len);
        self.stats.dma_write_bytes += len as u64;
        self.stats.dma_transfers += 1;
        Ok(())
    }

    /// Record the outcome of an execution whose concurrent pool timelines
    /// are given; elapsed time is the slowest pool (they share the pipeline
    /// but the interleaving is already priced into each timeline via
    /// `active_total`).
    pub fn record_timelines(&mut self, timelines: &[Timeline]) {
        let mut cycles: Cycles = 0;
        for t in timelines {
            cycles = cycles.max(t.cycles);
            self.stats.instructions += t.instructions;
            self.stats.dma_stall_cycles += t.dma_stall_cycles;
            self.stats.phases += t.phases;
        }
        self.stats.cycles = self.stats.cycles.max(cycles);
    }
}

/// Cycle timeline of one tasklet pool: a sequence of barrier-delimited
/// phases (§4.2.3 — the master tasklet synchronizes its pool at
/// anti-diagonal granularity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Elapsed cycles on this timeline.
    pub cycles: Cycles,
    /// Instructions retired by this pool.
    pub instructions: u64,
    /// Cycles spent blocked on DMA.
    pub dma_stall_cycles: Cycles,
    /// Phases executed.
    pub phases: u64,
}

impl Timeline {
    /// Close a phase: every tasklet in `costs` ran concurrently since the
    /// previous barrier; `active_total` is the DPU-wide number of runnable
    /// tasklets (all pools), which sets the issue interval.
    pub fn finish_phase(&mut self, cfg: &DpuConfig, active_total: usize, costs: &mut [PhaseCost]) {
        let dur = phase_cycles(cfg, active_total, costs);
        self.cycles += dur;
        for c in costs.iter_mut() {
            self.instructions += c.instructions;
            self.dma_stall_cycles += c.dma_cycles;
            *c = PhaseCost::default();
        }
        self.phases += 1;
    }

    /// Sequential (single-tasklet, unsynchronized) work such as the
    /// traceback, which the paper notes cannot be parallelized (§4.2.3).
    pub fn sequential(&mut self, cfg: &DpuConfig, active_total: usize, cost: PhaseCost) {
        let mut costs = [cost];
        self.finish_phase(cfg, active_total, &mut costs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dpu() -> Dpu {
        Dpu::new(DpuConfig::default())
    }

    #[test]
    fn dma_round_trip_moves_real_bytes_and_charges() {
        let mut d = dpu();
        d.mram.host_write(64, &[7u8; 16]).unwrap();
        let w_off = d.wram.alloc(16, 8).unwrap();
        let mut cost = PhaseCost::default();
        d.mram_to_wram(&mut cost, 64, w_off, 16).unwrap();
        assert_eq!(d.wram.slice(w_off, 16).unwrap(), &[7u8; 16]);
        assert_eq!(cost.instructions, 1);
        assert_eq!(cost.dma_cycles, d.cfg.dma_cycles(16));
        assert_eq!(d.stats.dma_read_bytes, 16);

        // Mutate in WRAM, write back elsewhere in MRAM.
        d.wram.write_u8(w_off, 9).unwrap();
        d.wram_to_mram(&mut cost, w_off, 128, 16).unwrap();
        let back = d.mram.host_read(128, 16).unwrap();
        assert_eq!(back[0], 9);
        assert_eq!(back[1], 7);
        assert_eq!(d.stats.dma_transfers, 2);
    }

    #[test]
    fn dma_errors_propagate() {
        let mut d = dpu();
        let w_off = d.wram.alloc(16, 8).unwrap();
        let mut cost = PhaseCost::default();
        // Misaligned MRAM offset.
        let err = d.mram_to_wram(&mut cost, 3, w_off, 16).unwrap_err();
        assert!(matches!(err, SimError::DmaMisaligned { .. }));
        // WRAM out of bounds (8-aligned so the alignment rule passes).
        let err = d
            .mram_to_wram(&mut cost, 0, d.cfg.wram_size - 8, 16)
            .unwrap_err();
        assert!(matches!(err, SimError::WramOutOfBounds { .. }));
        // Failed transfers charge nothing.
        assert!(cost.is_idle());
    }

    #[test]
    fn wram_side_dma_must_be_8_aligned() {
        let mut d = dpu();
        d.mram.host_write(0, &[1u8; 16]).unwrap();
        let mut cost = PhaseCost::default();
        // Misaligned WRAM destination.
        let err = d.mram_to_wram(&mut cost, 0, 4, 16).unwrap_err();
        assert!(matches!(err, SimError::DmaMisaligned { offset: 4 }));
        // Misaligned WRAM source.
        let err = d.wram_to_mram(&mut cost, 12, 0, 16).unwrap_err();
        assert!(matches!(err, SimError::DmaMisaligned { offset: 12 }));
        assert!(cost.is_idle());
    }

    #[test]
    fn timeline_phases_accumulate() {
        let cfg = DpuConfig::default();
        let mut t = Timeline::default();
        let mut costs = vec![
            PhaseCost {
                instructions: 100,
                dma_cycles: 0
            };
            4
        ];
        t.finish_phase(&cfg, 24, &mut costs);
        assert_eq!(t.cycles, 2400);
        assert_eq!(t.instructions, 400);
        assert_eq!(t.phases, 1);
        // Costs are reset by the barrier.
        assert!(costs.iter().all(|c| c.is_idle()));
        t.sequential(
            &cfg,
            24,
            PhaseCost {
                instructions: 10,
                dma_cycles: 5,
            },
        );
        assert_eq!(t.phases, 2);
        assert_eq!(t.cycles, 2400 + 10 * 24 + 5);
    }

    #[test]
    fn record_timelines_takes_the_slowest_pool() {
        let mut d = dpu();
        let t1 = Timeline {
            cycles: 1000,
            instructions: 500,
            ..Default::default()
        };
        let t2 = Timeline {
            cycles: 1500,
            instructions: 700,
            ..Default::default()
        };
        d.record_timelines(&[t1, t2]);
        assert_eq!(d.stats.cycles, 1500);
        assert_eq!(d.stats.instructions, 1200);
    }

    #[test]
    fn reset_for_launch_keeps_mram() {
        let mut d = dpu();
        d.mram.host_write(0, &[5u8; 8]).unwrap();
        d.wram.alloc(100, 1).unwrap();
        d.stats.cycles = 42;
        d.reset_for_launch();
        assert_eq!(d.stats.cycles, 0);
        assert_eq!(d.wram.allocated(), 0);
        assert_eq!(d.mram.host_read(0, 8).unwrap(), vec![5u8; 8]);
    }
}
