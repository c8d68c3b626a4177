//! WCET soundness: the symbolic bounds from `pim-sim`'s analyzer must
//! dominate every concrete execution of the built-in kernels, a watchdog
//! budget derived from those bounds must never reap a healthy kernel, and
//! the per-launch bound the dispatch engine budgets every DPU with must
//! cover every kernel shape the repo launches.
//!
//! Randomness comes from a hand-rolled splitmix-style LCG so the tests
//! stay deterministic and dependency-free. `WCET_SMOKE_TRIALS` lets CI
//! run the property tests at smoke scale.

use dpu_kernel::cost::wcet_launch_cycles;
use dpu_kernel::layout::JobBatchBuilder;
use dpu_kernel::{isa_loops, KernelVariant, NwKernel, PoolConfig};
use nw_core::seq::{Base, DnaSeq};
use nw_core::ScoringScheme;
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

/// Every P x T the repo launches: the ablation sweep's eight shapes (the
/// paper's 6x4 among them), the tests' 2x4, and the slow extremes 1x1 and
/// 2x1 that `NwKernel::new` also accepts.
const SHAPES: [(usize, usize); 11] = [
    (1, 16),
    (2, 8),
    (3, 8),
    (4, 4),
    (6, 4),
    (8, 2),
    (8, 1),
    (6, 2),
    (2, 4),
    (1, 1),
    (2, 1),
];

/// A random sequence of `len` bases.
fn random_seq(rng: &mut Lcg, len: usize) -> DnaSeq {
    (0..len)
        .map(|_| Base::from_code((rng.next() & 3) as u8))
        .collect()
}

/// `a` with substitutions and single-base indels at `rate` per base.
fn mutated(rng: &mut Lcg, a: &DnaSeq, rate: f64) -> DnaSeq {
    let mut out = Vec::with_capacity(a.len() + a.len() / 8);
    let draw = |rng: &mut Lcg| (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    for &base in a.as_slice() {
        if draw(rng) >= rate {
            out.push(base);
            continue;
        }
        match rng.next() % 3 {
            0 => out.push(Base::from_code((rng.next() & 3) as u8)),
            1 => {}
            _ => {
                out.push(base);
                out.push(Base::from_code((rng.next() & 3) as u8));
            }
        }
    }
    out.into_iter().collect()
}

/// A random job: a length drawn log-uniformly from 10 bp to 30 kbp, paired
/// with a copy carrying up to 15 % errors, so jobs range from tiny to
/// S30000-long and from clean to far out of band.
fn random_job(rng: &mut Lcg) -> (DnaSeq, DnaSeq) {
    let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    let len = (10.0 * 3000f64.powf(unit)).round() as usize;
    let a = random_seq(rng, len);
    let rate = 0.15 * (rng.next() % 101) as f64 / 100.0;
    let b = mutated(rng, &a, rate);
    (a, b)
}

/// One single-DPU launch of 1 to 48 random jobs on `kernel`, at a random
/// band of 16 to 128, drawn from `seed`. Returns the launch's simulated
/// cycles as a fraction of its bound, after asserting that it fits the
/// bound *before* `WCET_SLACK` is applied, so the budget the engine sets
/// never reaps a healthy kernel.
fn launch_within_bound(kernel: &NwKernel, score_only: bool, seed: u64) -> f64 {
    let mut rng = Lcg(seed);
    let pool = kernel.pool_cfg;
    let params = dpu_kernel::KernelParams {
        band: 16 << (rng.next() % 4),
        scheme: ScoringScheme::default(),
        score_only,
    };
    let jobs = 1 + (rng.next() % 48) as usize;
    let mut builder = JobBatchBuilder::new(params, pool.pools);
    for _ in 0..jobs {
        let (a, b) = random_job(&mut rng);
        builder.add_pair(a.pack(), b.pack());
    }
    let mut rank = Rank::new(DpuConfig::default(), 1);
    let mram = rank.dpu(0).unwrap().mram.size();
    let batch = builder.build(mram).expect("batch fits MRAM");
    rank.dpu_mut(0)
        .unwrap()
        .mram
        .host_write(0, &batch.image)
        .unwrap();
    let run = rank.launch(kernel).expect("launch");
    let case = format!(
        "{}x{} {:?} score_only={score_only} band {} jobs {:?}",
        pool.pools, pool.tasklets, kernel.variant, params.band, batch.job_lens
    );
    assert!(run.errors.is_empty(), "{case}: {:?}", run.errors);
    let bound = wcet_launch_cycles(&batch.job_lens, &params, pool);
    let cycles = run.stats.max_cycles;
    assert!(cycles <= bound, "{case}: {cycles} cycles > bound {bound}");
    assert!(cycles <= kernel.watchdog_cycles(&batch), "{case}");
    cycles as f64 / bound as f64
}

/// Property: on every kernel shape the repo launches, both variants and
/// both modes, random single-DPU launches stay within their derived
/// launch bound without slack. Smoke scale (CI's 40 trials) runs one
/// launch per shape, variant and mode, the default 200 two, spread over
/// four threads.
#[test]
fn launch_bound_covers_every_kernel_shape() {
    let per_case = (trials() / 100).max(1) as u64;
    let mut cases = Vec::new();
    for (pools, tasklets) in SHAPES {
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            let kernel = NwKernel::new(PoolConfig { pools, tasklets }, variant);
            for score_only in [false, true] {
                for k in 0..per_case {
                    let seed = 0x5EED_B0D6E7 ^ ((cases.len() as u64) << 32) ^ k;
                    cases.push((kernel.clone(), score_only, seed));
                }
            }
        }
    }
    let worst = std::thread::scope(|s| {
        let handles: Vec<_> = cases
            .chunks(cases.len().div_ceil(4))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(kernel, score_only, seed)| {
                            launch_within_bound(kernel, *score_only, *seed)
                        })
                        .fold(0.0, f64::max)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .fold(0.0, f64::max)
    });
    println!(
        "launch bound: {} launches, worst {worst:.3} of the bound",
        cases.len()
    );
}
