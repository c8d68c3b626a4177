//! Hardware configuration: the numbers come straight from §2.1 and §5 of the
//! paper and from UPMEM's published documentation.

use crate::fault::FaultPlan;

/// Per-DPU architectural parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpuConfig {
    /// Scratchpad size in bytes (64 KB on UPMEM v1.4).
    pub wram_size: usize,
    /// DRAM bank size in bytes (64 MB).
    pub mram_size: usize,
    /// DPU clock (the paper's server runs at 350 MHz).
    pub freq_hz: f64,
    /// Pipeline re-entry restriction: a tasklet can issue one instruction
    /// every `reentry_cycles` cycles, so at least this many tasklets are
    /// needed for peak throughput (11 on UPMEM).
    pub reentry_cycles: u32,
    /// Maximum hardware tasklets per DPU (24).
    pub max_tasklets: usize,
    /// DMA engine throughput in bytes per cycle (2 B/cycle).
    pub dma_bytes_per_cycle: u32,
    /// Fixed DMA setup cost in cycles per transfer.
    pub dma_setup_cycles: u32,
    /// This DPU's watchdog register: the cycle budget the rank enforces on
    /// its next launch. A DPU whose kernel retires more cycles than this in
    /// a single launch is treated as hung and reported via
    /// [`crate::SimError::WatchdogExpired`] with its partial stats
    /// preserved. `0` disables the watchdog (the hardware default — real
    /// DPUs have no such limit). A direct [`crate::Rank`] launch uses
    /// whatever the register holds; the host's dispatch engine sets it on
    /// every DPU of every launch, to the budget the kernel derives from that
    /// DPU's batch and its P × T shape
    /// (`dpu_kernel::NwKernel::watchdog_cycles`, DESIGN.md §7g), so the
    /// value a server is configured with does not reach its launches.
    pub watchdog_cycles: u64,
}

impl Default for DpuConfig {
    fn default() -> Self {
        Self {
            wram_size: 64 * 1024,
            mram_size: 64 * 1024 * 1024,
            freq_hz: 350.0e6,
            reentry_cycles: 11,
            max_tasklets: 24,
            dma_bytes_per_cycle: 2,
            dma_setup_cycles: 24,
            watchdog_cycles: 0,
        }
    }
}

impl DpuConfig {
    /// Cycles a DMA transfer of `len` bytes blocks its issuing tasklet.
    pub fn dma_cycles(&self, len: usize) -> u64 {
        self.dma_setup_cycles as u64 + (len as u64).div_ceil(self.dma_bytes_per_cycle as u64)
    }
}

/// Server-level topology and host-link parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Number of PiM ranks (each UPMEM DIMM has 2; the paper's server has 20
    /// DIMMs = 40 ranks, evaluated at 10/20/40).
    pub ranks: usize,
    /// DPUs per rank (64).
    pub dpus_per_rank: usize,
    /// Per-DPU configuration.
    pub dpu: DpuConfig,
    /// Aggregate host->PiM transfer bandwidth in bytes/second (the measured
    /// 60 GB/s peak of §4.1.1).
    pub host_bandwidth: f64,
    /// Fault-injection schedule. The default injects nothing.
    pub fault: FaultPlan,
}

impl Default for ServerConfig {
    /// The paper's full server: 20 DIMMs = 40 ranks = 2560 DPUs.
    fn default() -> Self {
        Self {
            ranks: 40,
            dpus_per_rank: 64,
            dpu: DpuConfig::default(),
            host_bandwidth: 60.0e9,
            fault: FaultPlan::default(),
        }
    }
}

impl ServerConfig {
    /// A server with the given number of ranks and default everything else.
    pub fn with_ranks(ranks: usize) -> Self {
        Self {
            ranks,
            ..Self::default()
        }
    }

    /// Total DPU count.
    pub fn total_dpus(&self) -> usize {
        self.ranks * self.dpus_per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = DpuConfig::default();
        assert_eq!(c.wram_size, 65536);
        assert_eq!(c.mram_size, 64 << 20);
        assert_eq!(c.freq_hz, 350.0e6);
        assert_eq!(c.reentry_cycles, 11);
        assert_eq!(c.max_tasklets, 24);
        assert_eq!(c.watchdog_cycles, 0, "watchdog is opt-in");
        let s = ServerConfig::default();
        assert_eq!(s.total_dpus(), 2560);
    }

    #[test]
    fn dma_cycles_scale_with_length() {
        let c = DpuConfig::default();
        let base = c.dma_setup_cycles as u64;
        assert_eq!(c.dma_cycles(8), base + 4);
        assert_eq!(c.dma_cycles(2048), base + 1024);
        // Larger transfers amortize the setup: 1 transfer of 2048 is cheaper
        // than 256 transfers of 8 (the paper's "prefer large transfers").
        assert!(c.dma_cycles(2048) < 256 * c.dma_cycles(8));
    }

    #[test]
    fn with_ranks_scales_topology() {
        assert_eq!(ServerConfig::with_ranks(10).total_dpus(), 640);
        assert_eq!(ServerConfig::with_ranks(20).total_dpus(), 1280);
    }
}
