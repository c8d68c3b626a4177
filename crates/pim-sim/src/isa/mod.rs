//! A miniature model of the DPU's proprietary triadic ISA (§2.1, §4.2.4).
//!
//! The two features the paper's hand optimization exploits are modeled
//! faithfully:
//!
//! * **`cmpb4`** — the ISA's only SIMD instruction: compares 4 bytes of two
//!   registers in one cycle, used to compare 4 DNA base pairs at once.
//! * **Fused jumps** — any ALU instruction can branch on its own result in
//!   the same cycle (the pipeline's re-entry restriction makes this free),
//!   including the "right shift fused with a jump on parity" the paper uses
//!   to consume `cmpb4` results.
//!
//! The interpreter executes programs against a WRAM buffer and counts
//! instructions. `dpu-kernel` uses it to *measure* instructions/cell for
//! the compiler-style and hand-optimized inner loops (Table 7) rather than
//! hard-coding a speedup factor.

mod asm;
mod inst;
mod interp;
pub mod verify;
pub mod wcet;

pub use asm::{assemble, AsmError};
pub use inst::{AluOp, FuseCond, Inst, JumpCond, Operand, Reg, NUM_REGS};
pub use interp::{watchdog_steps, IsaError, Machine, RunStats, WramWatch, DEFAULT_MAX_STEPS};
pub use verify::{error_count, verify as verify_program, Diagnostic, Rule, Severity, VerifySpec};
pub use wcet::{Expr, KernelParams, WcetBound};

/// The interpreter that runs a kernel program. There is one: the checked
/// interpreter ([`Machine::run`]). This enum survives only for the API of
/// the benchmark crate, which passes a mode to
/// `dpu_kernel::isa_loops::measure_gated_mode` and
/// `dpu_kernel::CellCosts::for_variant_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterpMode {
    /// The checked interpreter: per-fetch pc validation, checked address
    /// arithmetic, WRAM watch hooks.
    #[default]
    Checked,
}
