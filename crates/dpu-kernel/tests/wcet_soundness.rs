//! WCET soundness: the symbolic bounds from `pim-sim`'s analyzer must
//! dominate every concrete execution of the built-in kernels, and a
//! watchdog budget derived from those bounds must never reap a healthy
//! kernel.
//!
//! Randomness comes from a hand-rolled splitmix-style LCG so the tests
//! stay deterministic and dependency-free. `WCET_SMOKE_TRIALS` lets CI
//! run the property test at smoke scale.

use dpu_kernel::isa_loops;
use dpu_kernel::KernelVariant;
use pim_sim::dpu::Kernel;
use pim_sim::isa::{KernelParams, Reg};
use pim_sim::{Dpu, DpuConfig, Rank, SimError};

/// Deterministic 64-bit mixer (splitmix64 step); good enough to spray
/// kernel shapes and band contents across the input space.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A random kernel configuration the analyzer claims a bound for: the
/// asm variant is 4-way unrolled, so its cell count is kept a multiple
/// of 4 (the same `input_multiple` precondition the verifier assumes).
fn random_shape(rng: &mut Lcg) -> (KernelVariant, bool, usize, u32) {
    let variant = if rng.next() & 1 == 0 {
        KernelVariant::PureC
    } else {
        KernelVariant::Asm
    };
    let with_bt = rng.next() & 1 == 0;
    let mut cells = 4 + (rng.next() as usize % 253); // 4..=256
    if variant == KernelVariant::Asm {
        cells &= !3;
    }
    let perturb = rng.next() as u32;
    (variant, with_bt, cells, perturb)
}

fn static_bound(variant: KernelVariant, with_bt: bool, cells: usize) -> u64 {
    let r1 = Reg::new(1).expect("r1");
    isa_loops::kernel_wcet(variant, with_bt)
        .eval(&KernelParams::new().set(r1, cells as u64))
        .expect("built-in kernels have finite WCET bounds")
}

fn trials() -> usize {
    std::env::var("WCET_SMOKE_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Fixed shapes ahead of the random ones: every built-in kernel over 192
/// cells (the interpreter-throughput workload) on 24 band contents.
fn fixed_shapes() -> Vec<(KernelVariant, bool, usize, u32)> {
    let mut shapes = Vec::new();
    for variant in [KernelVariant::PureC, KernelVariant::Asm] {
        for with_bt in [false, true] {
            shapes.extend((0..24).map(|perturb| (variant, with_bt, 192, perturb)));
        }
    }
    shapes
}

/// Property: for the fixed shapes and for random kernel shapes, cell
/// counts, and band contents, the retired instruction count never exceeds
/// the symbolic bound.
#[test]
fn retired_instructions_never_exceed_static_bound() {
    let mut rng = Lcg(0xD0A_5EED);
    let mut wram = Vec::new();
    let fixed = fixed_shapes();
    let random = (0..trials()).map(|_| random_shape(&mut rng));
    for (trial, (variant, with_bt, cells, perturb)) in fixed.into_iter().chain(random).enumerate() {
        let checked = isa_loops::bench_cells(&mut wram, variant, with_bt, perturb, cells)
            .expect("checked pass");
        let bound = static_bound(variant, with_bt, cells);
        assert!(
            checked.instructions <= bound,
            "trial {trial}: {variant:?} bt={with_bt} cells={cells} retired \
             {} > static bound {bound}",
            checked.instructions
        );
    }
}

/// A rank kernel that burns one simulated cycle per retired instruction
/// across several inner-loop passes.
struct LoopKernel {
    variant: KernelVariant,
    with_bt: bool,
    cells: usize,
    passes: u32,
}

impl Kernel for LoopKernel {
    fn run(&self, dpu: &mut Dpu) -> Result<(), SimError> {
        let mut wram = Vec::new();
        for pass in 0..self.passes {
            let stats =
                isa_loops::bench_cells(&mut wram, self.variant, self.with_bt, pass, self.cells)?;
            dpu.stats.instructions += stats.instructions;
            dpu.stats.cycles += stats.instructions;
        }
        Ok(())
    }
}

/// A watchdog budget derived from the static bound (passes x per-pass
/// WCET at one cycle per instruction) must never reap a healthy kernel.
#[test]
fn derived_watchdog_budget_never_reaps_a_healthy_kernel() {
    const PASSES: u32 = 3;
    for variant in [KernelVariant::PureC, KernelVariant::Asm] {
        for with_bt in [false, true] {
            let cells = isa_loops::PROOF_CELLS;
            let budget = u64::from(PASSES) * static_bound(variant, with_bt, cells);
            let cfg = DpuConfig {
                watchdog_cycles: budget,
                ..Default::default()
            };
            let kernel = LoopKernel {
                variant,
                with_bt,
                cells,
                passes: PASSES,
            };
            let mut rank = Rank::new(cfg, 2);
            let run = rank.launch(&kernel).expect("launch");
            assert!(
                run.errors.is_empty(),
                "{variant:?} bt={with_bt}: derived budget {budget} \
                 reaped a healthy kernel: {:?}",
                run.errors
            );
            assert!(run.stats.total.cycles <= 2 * budget);
        }
    }
}
