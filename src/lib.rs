#![warn(missing_docs)]

//! # upmem-nw — banded Needleman–Wunsch on a (simulated) UPMEM PiM server
//!
//! A from-scratch Rust reproduction of *"Parallelization of the Banded
//! Needleman & Wunsch Algorithm on UPMEM PiM Architecture for Long DNA
//! Sequence Alignment"* (Mognol, Lavenier, Legriel — ICPP 2024).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`nw_core`] — the alignment algorithms: exact NW/Gotoh, static banded,
//!   adaptive banded (the paper's §3), CIGARs, the 4-bit traceback.
//! * [`pim_sim`] — the UPMEM PiM substrate simulator: DPUs with WRAM/MRAM,
//!   DMA rules, the tasklet pipeline timing model, ranks, the server, a
//!   mini DPU ISA with `cmpb4` and fused jumps, and the power model (§2).
//! * [`dpu_kernel`] — the DPU program: P×T tasklet pools computing adaptive
//!   banded N&W against the simulated memories (§4.2).
//! * [`pim_host`] — the host program: 2-bit encoding, eq.-6 workload
//!   estimation, LPT balancing, rank FIFO dispatch, experiment modes
//!   (§4.1, §5.2–5.4).
//! * [`cpu_baseline`] — the minimap2/KSW2-style CPU baseline: the
//!   multi-threaded driver over `nw_core`'s static-band sweep (§5).
//! * [`datasets`] — seeded generators for the five evaluation datasets.
//!
//! ## Quickstart
//!
//! ```
//! use upmem_nw::prelude::*;
//!
//! // Host-side alignment with the paper's adaptive banded algorithm:
//! let a = DnaSeq::from_ascii(b"GATTACAGATTACA").unwrap();
//! let b = DnaSeq::from_ascii(b"GATTACAGATTACA").unwrap();
//! let aligner = AdaptiveAligner::new(ScoringScheme::default(), 16);
//! assert_eq!(aligner.align(&a, &b).unwrap().cigar.to_string(), "14=");
//! ```
//!
//! See `examples/` for the full pipeline (simulated PiM server end to end)
//! and `crates/bench` for the table/figure reproduction harness.

pub use cpu_baseline;
pub use datasets;
pub use dpu_kernel;
pub use nw_core;
pub use pim_host;
pub use pim_sim;

/// The most common imports in one place.
pub mod prelude {
    pub use cpu_baseline::CpuBaseline;
    pub use dpu_kernel::{KernelParams, KernelVariant, NwKernel, PoolConfig};
    pub use nw_core::adaptive::AdaptiveAligner;
    pub use nw_core::banded::BandedAligner;
    pub use nw_core::full::FullAligner;
    pub use nw_core::seq::{Base, DnaSeq, PackedSeq};
    pub use nw_core::wfa::{Penalties, WfaAligner};
    pub use nw_core::{Alignment, Cigar, CigarOp, ScoringScheme};
    pub use pim_host::dispatch::DispatchConfig;
    pub use pim_host::modes::{align_pairs, align_sets, all_vs_all};
    pub use pim_sim::{DpuConfig, PimServer, ServerConfig};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_pipeline() {
        let a = DnaSeq::from_ascii(b"ACGTACGT").unwrap();
        let aligner = AdaptiveAligner::new(ScoringScheme::default(), 8);
        assert_eq!(aligner.align(&a, &a).unwrap().score, 16);
        let _ = NwKernel::paper_default();
        let _ = ServerConfig::with_ranks(1);
    }
}
