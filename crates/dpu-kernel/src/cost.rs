//! Per-cell cost model for the kernel timing, derived from interpreting the
//! [`crate::isa_loops`] programs — the counts are measured, not assumed.
//!
//! The same module derives *worst-case* budgets: [`wcet_watchdog_cycles`]
//! turns the symbolic instruction bounds of [`crate::isa_loops::kernel_wcet`]
//! into a per-launch watchdog cycle budget, replacing the old one-size
//! 100 M-cycle constant with a bound that scales with the actual batch.

use pim_sim::isa::{InterpMode, KernelParams, Reg};
use std::sync::OnceLock;

/// Which kernel build is running (Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Plain compiled C: no `cmpb4`, no fused jumps.
    PureC,
    /// The 26-lines-of-assembly build of §5.5.
    Asm,
}

impl KernelVariant {
    /// Display label matching the paper's Table 7 rows.
    pub fn label(self) -> &'static str {
        match self {
            KernelVariant::PureC => "DPU pure C",
            KernelVariant::Asm => "DPU asm",
        }
    }
}

/// Instructions per cell spent *around* the measured inner-loop body:
/// segment-bound checks, WRAM address arithmetic, window bookkeeping and
/// sequence-buffer maintenance that the real kernel executes per cell but
/// the isolated inner loop does not. The constant is identical for both
/// variants (it is exactly the code the hand optimization does not touch)
/// and is calibrated against the paper's own throughput: Table 2 implies
/// ~7.1 M cells/s per DPU at 350 MHz and 95–99 % utilization, i.e. ~49
/// effective instructions per cell, of which our measured asm inner loop
/// accounts for ~26.5.
pub const CELL_ENV_INSTRUCTIONS: f64 = 14.0;

/// Instruction costs per unit of kernel work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCosts {
    /// Instructions per DP cell with `BT` production.
    pub cell_with_bt: f64,
    /// Instructions per DP cell in score-only mode.
    pub cell_score_only: f64,
    /// Per-anti-diagonal fixed overhead per tasklet (segment setup, barrier
    /// entry).
    pub step_overhead: u64,
    /// Extra master-tasklet work per anti-diagonal (shift decision over the
    /// window extrema, origin bookkeeping, BT row store issue).
    pub master_overhead: u64,
    /// Traceback instructions per CIGAR column (sequential, master only).
    pub traceback_per_op: u64,
    /// Instructions to unpack one 2-bit base into a WRAM byte buffer
    /// (shift+mask+store amortized over a 32-bit word of 16 bases).
    pub unpack_per_base: f64,
    /// Per-job fixed overhead (descriptor parse, buffer setup).
    pub job_overhead: u64,
}

impl CellCosts {
    /// Instructions for `cells` DP cells in the given mode, including the
    /// per-cell loop environment ([`CELL_ENV_INSTRUCTIONS`]).
    pub fn cells(&self, cells: u64, with_bt: bool) -> u64 {
        let per = if with_bt {
            self.cell_with_bt
        } else {
            self.cell_score_only
        };
        (cells as f64 * (per + CELL_ENV_INSTRUCTIONS)).round() as u64
    }

    /// Measured costs for a kernel variant (cached; interpreting the loops
    /// takes microseconds but the kernel asks per anti-diagonal).
    pub fn for_variant(variant: KernelVariant) -> &'static CellCosts {
        static CELLS: [OnceLock<CellCosts>; 2] = [const { OnceLock::new() }; 2];
        let v = match variant {
            KernelVariant::PureC => 0,
            KernelVariant::Asm => 1,
        };
        CELLS[v].get_or_init(|| {
            let bt = crate::isa_loops::measure(variant, true);
            let so = crate::isa_loops::measure(variant, false);
            match variant {
                KernelVariant::PureC => CellCosts {
                    cell_with_bt: bt.instr_per_cell,
                    cell_score_only: so.instr_per_cell,
                    step_overhead: 24,
                    master_overhead: 40,
                    // Compiled traceback: state machine with byte extraction.
                    traceback_per_op: 14,
                    unpack_per_base: 3.0,
                    job_overhead: 400,
                },
                KernelVariant::Asm => CellCosts {
                    cell_with_bt: bt.instr_per_cell,
                    cell_score_only: so.instr_per_cell,
                    step_overhead: 20,
                    // The decision loop also profits from fused jumps.
                    master_overhead: 30,
                    // The paper's asm targets the inner loop; traceback is
                    // only mildly improved (fused nibble decode).
                    traceback_per_op: 11,
                    unpack_per_base: 2.0,
                    job_overhead: 400,
                },
            }
        })
    }

    /// [`CellCosts::for_variant`]; the mode names the only interpreter there
    /// is and is kept for the benchmark crate's API.
    pub fn for_variant_mode(variant: KernelVariant, _mode: InterpMode) -> &'static CellCosts {
        Self::for_variant(variant)
    }
}

/// Safety multiplier on the statically derived watchdog budget: the bound
/// itself is already conservative per component, the slack absorbs cost
/// model drift so a legitimate job is never reaped.
pub const WCET_SLACK: u64 = 2;

/// Floor for derived budgets so degenerate batches (empty, single tiny
/// pair) still give hung DPUs a meaningful grace window.
const WCET_MIN_BUDGET: u64 = 1_000_000;

/// Tasklets per pool and pools per DPU in the paper-default kernel layout —
/// the geometry the budget derivation assumes. Fewer pools or tasklets only
/// make the derived bound *more* conservative for the critical pool.
const WCET_TASKLETS: u64 = 4;
const WCET_POOLS: u64 = 6;
/// Issue-slot interval at full tasklet occupancy (`max_tasklets` in
/// [`pim_sim::DpuConfig`]): one instruction per resident tasklet per
/// revolver turn.
const WCET_ISSUE_INTERVAL: u64 = 24;

/// Upper bound on the instructions one tasklet retires in the inner loop
/// over `cells` cells, taken as the max over both kernel variants of the
/// symbolic WCET bound — so the budget is valid whichever build runs.
fn inner_loop_wcet(cells: u64, with_bt: bool) -> u64 {
    let r1 = Reg::new(1).expect("r1 exists");
    // The asm loop retires 4 cells/iteration; round up so the bound covers
    // the padded chunk the harness would actually pass.
    let padded = cells.next_multiple_of(4).max(4);
    [KernelVariant::PureC, KernelVariant::Asm]
        .into_iter()
        .map(|v| {
            crate::isa_loops::kernel_wcet(v, with_bt)
                .eval(&KernelParams::new().set(r1, padded))
                // Unbounded kernels never ship (CI asserts finiteness); if
                // one sneaks through, fall back to a generous linear bound.
                .unwrap_or(padded.saturating_mul(64).saturating_add(1024))
        })
        .max()
        .unwrap_or(0)
}

/// Worst-case simulated cycles for one alignment job of lengths `m`/`n` at
/// band width `band`, derived from the symbolic kernel bounds plus the
/// measured per-phase overheads of [`CellCosts`]. Every component dominates
/// the corresponding term of the kernel's timing model
/// (`crate::kernel::NwKernel`), so a legitimate job can never exceed it.
pub fn wcet_job_cycles(m: usize, n: usize, band: usize, score_only: bool) -> u64 {
    let w = band.max(1) as u64;
    let len = (m + n) as u64;
    // Anti-diagonal count of an (m, n) banded sweep is at most m + n + 1.
    let steps = len + 2;
    // The critical tasklet's chunk of one anti-diagonal.
    let chunk = w.div_ceil(WCET_TASKLETS);
    let with_bt = !score_only;
    // Per-step critical-tasklet instructions: symbolic inner-loop bound plus
    // the per-cell loop environment, segment setup, and the master's shift
    // decision and BT bookkeeping (w/8), with a pad for rounding.
    let crit_instr = inner_loop_wcet(chunk, with_bt)
        + (CELL_ENV_INSTRUCTIONS as u64) * chunk
        + 24 // step_overhead (max of the two variants)
        + 40 // master_overhead (max of the two variants)
        + w / 8
        + 16;
    // DMA for one BT row flush (~w/2 bytes at 2 B/cycle after setup);
    // charged twice per step to also cover the traceback re-fetch.
    let dma_row = 24 + (w / 2 + 8) / 2 + 1;
    let step_cycles = crit_instr * WCET_ISSUE_INTERVAL + 2 * dma_row;
    // Sequential master-only work: job setup, sequence unpack, traceback
    // state machine, and run-length output encoding.
    let seq_instr = 400 + 30 * len + 200;
    // Descriptor/staging/output transfers (packed bases move 2 B/cycle,
    // plus per-window setup).
    let seq_dma = len + 48 * (len / 512 + 4);
    steps * step_cycles + seq_instr * WCET_ISSUE_INTERVAL + seq_dma + 4096
}

/// Derive a per-launch watchdog cycle budget for a batch of jobs spread
/// over `dpus` DPUs with LPT balancing.
///
/// A DPU's cycle count is the max over its pools; LPT keeps a DPU's total
/// within `total/dpus + max_job` and the kernel's least-loaded pool
/// placement keeps a pool within `per_dpu/pools + max_job`, so
/// `total/(dpus·pools) + 2·max_job` bounds any pool timeline. The result
/// carries [`WCET_SLACK`] on top and never drops below a fixed floor.
pub fn wcet_watchdog_cycles(
    jobs: &[(usize, usize)],
    band: usize,
    score_only: bool,
    dpus: usize,
) -> u64 {
    let mut total: u64 = 0;
    let mut max_job: u64 = 0;
    for &(m, n) in jobs {
        let j = wcet_job_cycles(m, n, band, score_only);
        total = total.saturating_add(j);
        max_job = max_job.max(j);
    }
    let share = total / (dpus.max(1) as u64 * WCET_POOLS);
    let bound = share
        .saturating_add(2 * max_job)
        .saturating_add(10_000) // launch boot: header parse + buffer setup
        .saturating_mul(WCET_SLACK);
    bound.max(WCET_MIN_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_measured_and_cached() {
        let a = CellCosts::for_variant(KernelVariant::Asm);
        let b = CellCosts::for_variant(KernelVariant::Asm);
        assert!(std::ptr::eq(a, b), "OnceLock caching");
        assert!(a.cell_with_bt > 5.0 && a.cell_with_bt < 60.0);
    }

    #[test]
    fn asm_beats_c_on_every_mode() {
        let c = CellCosts::for_variant(KernelVariant::PureC);
        let a = CellCosts::for_variant(KernelVariant::Asm);
        assert!(a.cell_with_bt < c.cell_with_bt);
        assert!(a.cell_score_only < c.cell_score_only);
        assert!(a.traceback_per_op <= c.traceback_per_op);
    }

    #[test]
    fn cells_cost_scales_linearly() {
        let c = CellCosts::for_variant(KernelVariant::PureC);
        let one = c.cells(1000, true);
        let two = c.cells(2000, true);
        assert!((two as i64 - 2 * one as i64).abs() <= 1);
        assert!(c.cells(1000, false) < one, "score-only is cheaper");
    }

    #[test]
    fn labels() {
        assert_eq!(KernelVariant::PureC.label(), "DPU pure C");
        assert_eq!(KernelVariant::Asm.label(), "DPU asm");
    }

    #[test]
    fn derived_budget_has_a_floor_and_scales_with_work() {
        assert_eq!(wcet_watchdog_cycles(&[], 128, false, 8), WCET_MIN_BUDGET);
        let small = wcet_watchdog_cycles(&[(100, 100)], 64, false, 8);
        let big = wcet_watchdog_cycles(&[(10_000, 10_000)], 64, false, 8);
        assert!(small >= WCET_MIN_BUDGET);
        assert!(big > 4 * small, "budget scales with sequence length");
        // More DPUs shrink the aggregate share but never below 2× the
        // largest single job.
        let wide = wcet_watchdog_cycles(&[(1000, 1000); 32], 128, false, 64);
        assert!(wide >= WCET_SLACK * 2 * wcet_job_cycles(1000, 1000, 128, false));
    }

    #[test]
    fn job_bound_dominates_the_timing_model_per_step() {
        // The per-step critical-path instructions charged by the kernel's
        // timing model (`CellCosts::cells + overheads`) must stay under the
        // WCET per-step term for every chunk size the kernel can produce.
        for band in [16usize, 64, 128, 256] {
            let w = band as u64;
            let chunk = w.div_ceil(WCET_TASKLETS);
            for (variant, with_bt) in [
                (KernelVariant::PureC, true),
                (KernelVariant::PureC, false),
                (KernelVariant::Asm, true),
                (KernelVariant::Asm, false),
            ] {
                let c = CellCosts::for_variant(variant);
                let model = c.cells(chunk, with_bt) + c.step_overhead + c.master_overhead + w / 8;
                let bound = inner_loop_wcet(chunk, with_bt)
                    + (CELL_ENV_INSTRUCTIONS as u64) * chunk
                    + 24
                    + 40
                    + w / 8
                    + 16;
                assert!(
                    model <= bound,
                    "{variant:?} bt={with_bt} band={band}: model {model} > bound {bound}"
                );
            }
        }
    }
}
