//! Golden values for the cost oracle: the instruction counts the checked
//! interpreter retires on the built-in inner loops over the canonical
//! 192-cell band. Table 7's per-cell costs, and with them every simulated
//! second the kernel reports, are these totals divided by 192, so a change
//! to the loops, the interpreter or the measurement harness shows up here
//! first.

use dpu_kernel::isa_loops::{self, LoopMeasurement};
use dpu_kernel::{CellCosts, KernelVariant};

/// `(variant, with_bt, total instructions over 192 cells)`.
const GOLDEN: [(KernelVariant, bool, u64); 4] = [
    (KernelVariant::PureC, false, 7315),
    (KernelVariant::PureC, true, 9075),
    (KernelVariant::Asm, false, 4306),
    (KernelVariant::Asm, true, 5090),
];

#[test]
fn measured_totals_match_golden_values() {
    for (variant, with_bt, total) in GOLDEN {
        let m = isa_loops::measure(variant, with_bt);
        assert_eq!(
            m,
            LoopMeasurement {
                instr_per_cell: total as f64 / 192.0,
                total_instructions: total,
                cells: 192,
            },
            "{variant:?} bt={with_bt}"
        );
        let sanitized = isa_loops::measure_sanitized(variant, with_bt)
            .unwrap_or_else(|e| panic!("{variant:?} bt={with_bt}: {e}"));
        assert_eq!(sanitized, m, "{variant:?} bt={with_bt}: sanitized run");
    }
}

#[test]
fn cell_costs_are_the_golden_totals_per_cell() {
    for (variant, with_bt, total) in GOLDEN {
        let costs = CellCosts::for_variant(variant);
        let per_cell = if with_bt {
            costs.cell_with_bt
        } else {
            costs.cell_score_only
        };
        assert_eq!(
            per_cell.to_bits(),
            (total as f64 / 192.0).to_bits(),
            "{variant:?} bt={with_bt}"
        );
    }
}
