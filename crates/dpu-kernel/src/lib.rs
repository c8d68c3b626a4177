#![warn(missing_docs)]

//! # dpu-kernel — the DPU program (§4.2)
//!
//! The kernel that every DPU runs: adaptive banded Needleman–Wunsch with
//! affine gaps, 4-bit traceback, CIGAR output — organized as `P` pools of
//! `T` tasklets (§4.2.3) so the 14-stage pipeline stays saturated.
//!
//! This crate is the simulated counterpart of the paper's C-plus-26-lines-
//! of-assembly kernel:
//!
//! * [`layout`] — the MRAM contract between host and DPU: header, job
//!   table, 2-bit packed sequences, per-job output records, per-pool `BT`
//!   scratch.
//! * [`kernel`] — the kernel itself ([`NwKernel`] implements
//!   [`pim_sim::dpu::Kernel`]). It drives the *same* [`nw_core::adaptive::Engine`]
//!   as the host aligner — scores and CIGARs agree bit-for-bit — while
//!   moving sequences, `BT` rows and CIGARs through simulated WRAM/MRAM
//!   with DMA rules enforced, and charging per-tasklet cycle costs.
//! * [`isa_loops`] — the inner anti-diagonal loop written twice in the mini
//!   DPU ISA: once as a compiler would emit it, once with `cmpb4` and fused
//!   jumps (§4.2.4 / §5.5). Instruction counts are *measured* by the
//!   interpreter.
//! * [`cost`] — the per-cell cost model derived from those measurements,
//!   consumed by the kernel's timing, and the worst-case launch bound from
//!   which every launch's watchdog budget is priced
//!   ([`NwKernel::watchdog_cycles`]).

pub mod cost;
pub mod isa_loops;
pub mod kernel;
pub mod layout;

pub use cost::{CellCosts, KernelVariant};
pub use kernel::{NwKernel, PoolConfig};
pub use layout::{
    JobBatch, JobBatchBuilder, JobResult, JobStatus, KernelParams, RawResult, SeqRef,
};
