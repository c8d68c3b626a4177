#![warn(missing_docs)]

//! # cpu-baseline — the minimap2/KSW2-style CPU reference
//!
//! The paper compares its PiM implementation against "an OpenMP
//! multi-threaded CPU implementation sourced from the minimap2 GitHub
//! repository ... shared with the KSW2 library ... vector-optimized with SSE
//! instructions", running *only* the banded N&W step (§5).
//!
//! This crate is that baseline's driver and cost model. The single-pair
//! kernel is [`nw_core::banded::BandedAligner`], the static-band sweep in
//! the KSW2 structure: a **query profile** (substitution scores
//! pre-computed per reference base, §5.1's "query sequence profile"),
//! branchless inner loop, flat arrays, and an elementwise first pass per
//! row that stable Rust autovectorizes, the stand-in for KSW2's SSE
//! vectorization.
//!
//! * [`driver`] — the OpenMP-equivalent: a work-stealing thread pool over
//!   alignment pairs using std scoped threads.
//! * [`calibrate`] — measures this machine's cells/second and projects the
//!   paper's Xeon 4215/4216 runtimes through a core-count + bandwidth
//!   saturation model (the paper's CPUs scale sub-linearly; §5.2 shows the
//!   4216 at only 1.2-2x the 4215 despite 2x the cores).
//! * [`ksw2`] — the kernel's old name, kept for the frozen benchmark.

pub mod calibrate;
pub mod driver;
pub mod ksw2;

pub use calibrate::{Calibration, XeonModel};
pub use driver::CpuBaseline;
