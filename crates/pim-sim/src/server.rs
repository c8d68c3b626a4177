//! The PiM server: a set of ranks plus the host link (Figure 2).
//!
//! The host CPU reaches the DPUs' MRAM directly over the DDR bus while DPUs
//! are idle; the UPMEM SDK parallelizes transfers across ranks and the paper
//! measures ~60 GB/s aggregate (§4.1.1). Transfers cannot be pipelined with
//! DPU execution (§2.1 — exclusive MRAM access), which is why the 2-bit
//! encoding matters: it divides the volume by 4.

use crate::config::ServerConfig;
use crate::error::SimError;
use crate::rank::Rank;

/// The full PiM server.
#[derive(Debug)]
pub struct PimServer {
    cfg: ServerConfig,
    ranks: Vec<Rank>,
}

impl PimServer {
    /// Build a server from a configuration, slicing its fault plan (if any)
    /// into per-rank state.
    pub fn new(cfg: ServerConfig) -> Self {
        let ranks = (0..cfg.ranks)
            .map(|r| {
                Rank::with_faults(
                    cfg.dpu,
                    cfg.dpus_per_rank,
                    cfg.fault.rank_state(r, cfg.dpus_per_rank),
                )
            })
            .collect();
        Self { cfg, ranks }
    }

    /// The paper's 40-rank server.
    pub fn paper_server() -> Self {
        Self::new(ServerConfig::default())
    }

    /// Configuration in use.
    pub fn cfg(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Number of ranks.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// Access a rank.
    pub fn rank(&self, idx: usize) -> Result<&Rank, SimError> {
        self.ranks.get(idx).ok_or(SimError::BadTopology {
            what: "rank",
            index: idx,
            max: self.ranks.len(),
        })
    }

    /// Split into mutable rank references (for the host's per-rank worker
    /// threads — ranks are independent once data is loaded).
    pub fn ranks_mut(&mut self) -> &mut [Rank] {
        &mut self.ranks
    }

    /// Time to move `bytes` across the host<->PiM link at the aggregate
    /// bandwidth. The SDK fans transfers out over rank-parallel threads;
    /// the aggregate is what the paper measures, so we model the pool, not
    /// per-rank links.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.cfg.host_bandwidth
    }

    /// Seconds for `cycles` DPU cycles at the configured frequency.
    pub fn dpu_seconds(&self, cycles: u64) -> f64 {
        crate::cycles_to_seconds(cycles, self.cfg.dpu.freq_hz)
    }

    /// Broadcast the same bytes to one MRAM offset of *every* DPU — the 16S
    /// mode (§5.3): the dataset fits in a single MRAM so it is broadcast
    /// once, and each DPU computes a different subset of alignments.
    pub fn broadcast_to_mram(&mut self, offset: usize, bytes: &[u8]) -> Result<(), SimError> {
        for rank in &mut self.ranks {
            for d in 0..rank.len() {
                // Boot-disabled DPUs simply don't receive the broadcast —
                // the SDK masks them out of the transfer set.
                if !rank.dpu_enabled(d) {
                    continue;
                }
                rank.dpu_mut(d)?.mram.host_write(offset, bytes)?;
            }
        }
        Ok(())
    }

    /// Topology description used by the `repro fig2` command.
    pub fn topology(&self) -> Topology {
        Topology {
            ranks: self.ranks.len(),
            dpus_per_rank: self.cfg.dpus_per_rank,
            total_dpus: self.ranks.len() * self.cfg.dpus_per_rank,
            mram_per_dpu: self.cfg.dpu.mram_size,
            wram_per_dpu: self.cfg.dpu.wram_size,
            freq_hz: self.cfg.dpu.freq_hz,
            aggregate_mram_bandwidth: self.aggregate_mram_bandwidth(),
        }
    }

    /// Cumulative DPU<->MRAM bandwidth: 2 B/cycle per DPU at `freq`. The
    /// paper quotes ~2 TB/s for 2560 DPUs.
    pub fn aggregate_mram_bandwidth(&self) -> f64 {
        let dpus = (self.ranks.len() * self.cfg.dpus_per_rank) as f64;
        dpus * self.cfg.dpu.dma_bytes_per_cycle as f64 * self.cfg.dpu.freq_hz
    }
}

/// Server topology summary (Figure 2 as data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// Number of ranks.
    pub ranks: usize,
    /// DPUs per rank.
    pub dpus_per_rank: usize,
    /// Total DPUs.
    pub total_dpus: usize,
    /// MRAM bytes per DPU.
    pub mram_per_dpu: usize,
    /// WRAM bytes per DPU.
    pub wram_per_dpu: usize,
    /// DPU frequency.
    pub freq_hz: f64,
    /// Cumulative DPU-side memory bandwidth (B/s).
    pub aggregate_mram_bandwidth: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_server_topology() {
        let s = PimServer::paper_server();
        let t = s.topology();
        assert_eq!(t.ranks, 40);
        assert_eq!(t.total_dpus, 2560);
        assert_eq!(t.mram_per_dpu, 64 << 20);
        // ~1.8 TB/s at 350 MHz x 2 B/cycle x 2560 DPUs ("2TB/s" in the paper).
        assert!(t.aggregate_mram_bandwidth > 1.5e12);
        assert!(t.aggregate_mram_bandwidth < 2.5e12);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let s = PimServer::new(ServerConfig::with_ranks(2));
        let secs = s.transfer_seconds(60_000_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_reaches_every_dpu() {
        let mut cfg = ServerConfig::with_ranks(2);
        cfg.dpus_per_rank = 3;
        let mut s = PimServer::new(cfg);
        s.broadcast_to_mram(16, &[1, 2, 3, 4]).unwrap();
        for r in 0..2 {
            for d in 0..3 {
                let bytes = s
                    .rank(r)
                    .unwrap()
                    .dpu(d)
                    .unwrap()
                    .mram
                    .host_read(16, 4)
                    .unwrap();
                assert_eq!(bytes, vec![1, 2, 3, 4]);
            }
        }
    }

    #[test]
    fn rank_bounds_checked() {
        let s = PimServer::new(ServerConfig::with_ranks(1));
        assert!(s.rank(0).is_ok());
        assert!(s.rank(1).is_err());
    }
}
