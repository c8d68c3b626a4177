//! Execution counters: instructions, cycles, DMA traffic, and the pipeline
//! utilization figure the paper reports (95–99 % at P=6, T=4).

use crate::Cycles;

/// Per-DPU statistics accumulated across one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpuStats {
    /// Instructions retired (across all tasklets).
    pub instructions: u64,
    /// Total elapsed DPU cycles.
    pub cycles: Cycles,
    /// Bytes moved MRAM->WRAM.
    pub dma_read_bytes: u64,
    /// Bytes moved WRAM->MRAM.
    pub dma_write_bytes: u64,
    /// Cycles tasklets spent blocked on DMA.
    pub dma_stall_cycles: Cycles,
    /// Number of DMA transfers issued.
    pub dma_transfers: u64,
    /// Number of barrier-delimited phases executed.
    pub phases: u64,
}

impl DpuStats {
    /// Pipeline utilization: retired instructions per elapsed cycle, in
    /// `[0, 1]`. The paper reports 95–99 % for the chosen P×T.
    pub fn pipeline_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.instructions as f64 / self.cycles as f64).min(1.0)
    }

    /// Fraction of time attributable to MRAM transfers (the paper: 1–5 %).
    pub fn dma_impact(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.dma_stall_cycles as f64 / self.cycles as f64
    }

    /// Merge counters from another execution (e.g. several kernel launches
    /// on the same DPU).
    pub fn merge(&mut self, other: &DpuStats) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.dma_read_bytes += other.dma_read_bytes;
        self.dma_write_bytes += other.dma_write_bytes;
        self.dma_stall_cycles += other.dma_stall_cycles;
        self.dma_transfers += other.dma_transfers;
        self.phases += other.phases;
    }
}

/// Counters maintained by the runtime sanitizer ([`crate::sanitizer`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerStats {
    /// WRAM bytes whose initialization was checked on loads.
    pub bytes_read_checked: u64,
    /// WRAM bytes marked initialized by stores.
    pub bytes_written: u64,
    /// Bytes first initialized by host/DMA transfers.
    pub bytes_host_initialized: u64,
}

impl SanitizerStats {
    /// Merge counters from another shadow (e.g. several tasklet runs).
    pub fn merge(&mut self, other: &SanitizerStats) {
        self.bytes_read_checked += other.bytes_read_checked;
        self.bytes_written += other.bytes_written;
        self.bytes_host_initialized += other.bytes_host_initialized;
    }
}

/// Aggregate over many DPUs (a rank or the whole server).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AggregateStats {
    /// Sum of all per-DPU counters.
    pub total: DpuStats,
    /// Max cycles over DPUs — the rank barrier waits for this one (§4.1.2).
    pub max_cycles: Cycles,
    /// Min cycles over DPUs — the balance gap `max - min` is what the LPT
    /// heuristic minimizes.
    pub min_cycles: Cycles,
    /// Number of DPUs aggregated.
    pub dpus: usize,
    /// DPUs whose launch tripped the cycle-budget watchdog (runaway
    /// kernels / injected livelocks). Their partial cycles are *not* part
    /// of `total` — they produced no results — but are preserved in
    /// `runaway_cycles` so wasted work stays visible.
    pub watchdog_expired: u64,
    /// Cycles burned by watchdog-expired DPUs before they were reaped.
    pub runaway_cycles: Cycles,
}

impl AggregateStats {
    /// Fold one DPU's stats in.
    pub fn add(&mut self, s: &DpuStats) {
        if self.dpus == 0 {
            self.min_cycles = s.cycles;
            self.max_cycles = s.cycles;
        } else {
            self.min_cycles = self.min_cycles.min(s.cycles);
            self.max_cycles = self.max_cycles.max(s.cycles);
        }
        self.total.merge(s);
        self.dpus += 1;
    }

    /// Load imbalance: `(max - min) / max`, 0 when perfectly balanced.
    /// The paper reports ~5 % for the 16S static split.
    pub fn imbalance(&self) -> f64 {
        if self.max_cycles == 0 {
            return 0.0;
        }
        (self.max_cycles - self.min_cycles) as f64 / self.max_cycles as f64
    }

    /// Mean cycles per DPU.
    pub fn mean_cycles(&self) -> f64 {
        if self.dpus == 0 {
            return 0.0;
        }
        self.total.cycles as f64 / self.dpus as f64
    }

    /// Note a DPU reaped by the watchdog after `cycles` of runaway work.
    pub fn add_watchdog_expired(&mut self, cycles: Cycles) {
        self.watchdog_expired += 1;
        self.runaway_cycles += cycles;
    }

    /// Fold a whole aggregate in (merging two runs' worth of launches):
    /// totals add, the min/max envelope widens, watchdog accounting adds.
    pub fn absorb(&mut self, other: &AggregateStats) {
        if other.dpus == 0 {
            self.watchdog_expired += other.watchdog_expired;
            self.runaway_cycles += other.runaway_cycles;
            return;
        }
        if self.dpus == 0 {
            let (we, rc) = (self.watchdog_expired, self.runaway_cycles);
            *self = *other;
            self.watchdog_expired += we;
            self.runaway_cycles += rc;
            return;
        }
        self.total.merge(&other.total);
        self.min_cycles = self.min_cycles.min(other.min_cycles);
        self.max_cycles = self.max_cycles.max(other.max_cycles);
        self.dpus += other.dpus;
        self.watchdog_expired += other.watchdog_expired;
        self.runaway_cycles += other.runaway_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut s = DpuStats::default();
        assert_eq!(s.pipeline_utilization(), 0.0);
        s.instructions = 95;
        s.cycles = 100;
        assert!((s.pipeline_utilization() - 0.95).abs() < 1e-12);
        s.instructions = 150; // cannot exceed 1 IPC
        assert_eq!(s.pipeline_utilization(), 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DpuStats {
            instructions: 10,
            cycles: 20,
            ..Default::default()
        };
        let b = DpuStats {
            instructions: 5,
            cycles: 7,
            dma_transfers: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 15);
        assert_eq!(a.cycles, 27);
        assert_eq!(a.dma_transfers, 2);
    }

    #[test]
    fn aggregate_tracks_extremes() {
        let mut agg = AggregateStats::default();
        for c in [100u64, 80, 120, 95] {
            agg.add(&DpuStats {
                cycles: c,
                ..Default::default()
            });
        }
        assert_eq!(agg.dpus, 4);
        assert_eq!(agg.max_cycles, 120);
        assert_eq!(agg.min_cycles, 80);
        assert!((agg.imbalance() - (40.0 / 120.0)).abs() < 1e-12);
        assert!((agg.mean_cycles() - 98.75).abs() < 1e-12);
    }

    #[test]
    fn empty_aggregate_is_sane() {
        let agg = AggregateStats::default();
        assert_eq!(agg.imbalance(), 0.0);
        assert_eq!(agg.mean_cycles(), 0.0);
        assert_eq!(agg.watchdog_expired, 0);
    }

    #[test]
    fn watchdog_expiries_accumulate_outside_total() {
        let mut agg = AggregateStats::default();
        agg.add(&DpuStats {
            cycles: 100,
            ..Default::default()
        });
        agg.add_watchdog_expired(5000);
        agg.add_watchdog_expired(7000);
        assert_eq!(agg.watchdog_expired, 2);
        assert_eq!(agg.runaway_cycles, 12_000);
        assert_eq!(agg.total.cycles, 100, "runaway work is not useful work");
        assert_eq!(agg.dpus, 1);
    }

    #[test]
    fn dma_impact_ratio() {
        let s = DpuStats {
            cycles: 1000,
            dma_stall_cycles: 30,
            ..Default::default()
        };
        assert!((s.dma_impact() - 0.03).abs() < 1e-12);
    }
}
