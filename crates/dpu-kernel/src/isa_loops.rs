//! The anti-diagonal inner loop written twice in the mini DPU ISA (§5.5).
//!
//! * [`KernelVariant::PureC`] — the shape a compiler emits: byte loads and
//!   an explicit compare for each base pair, separate compare+branch pairs
//!   for the gap-extension flags and origin selection, and one pointer bump
//!   per array (the compiler cannot target `cmpb4` or fused jumps at all,
//!   as the paper notes).
//! * [`KernelVariant::Asm`] — the hand-optimized loop: `cmpb4` compares four
//!   base pairs at once, its result is consumed by a *right shift fused
//!   with a jump on parity* (the exact trick of §5.5), every flag/loop
//!   branch is fused into the ALU instruction producing its operand, and
//!   all seven band arrays are indexed off a single scaled counter.
//!
//! Both loops perform the *complete* affine cell update of eqs. 3–5 (D, I,
//! H, plus the 4-bit `BT` nibble when tracing) on real WRAM data; the
//! interpreter's instruction counts per cell feed the kernel timing model,
//! so Table 7's speedup emerges from the instruction streams rather than a
//! hard-coded factor.

use crate::cost::KernelVariant;
use pim_sim::isa::{
    assemble, wcet, Inst, InterpMode, IsaError, Machine, Reg, RunStats, VerifySpec, WcetBound,
    DEFAULT_MAX_STEPS,
};
use pim_sim::sanitizer::WramShadow;
use std::sync::OnceLock;

/// WRAM offsets used by the measurement harness (one i32 per cell per
/// array; 256 cells max keeps everything inside 16 KB).
const MAX_CELLS: usize = 256;
const H_PREV: usize = 0x0000;
const H_PREV2: usize = 0x0800;
const D_PREV: usize = 0x1000;
const I_PREV: usize = 0x1800;
const H_CUR: usize = 0x2000;
const D_CUR: usize = 0x2800;
const I_CUR: usize = 0x3000;
const A_SEQ: usize = 0x3800;
const B_SEQ: usize = 0x3900;
const BT_ROW: usize = 0x3A00;
const WRAM_LEN: usize = 0x3B00;

/// Scoring constants baked into the loops (minimap2 defaults: the penalties
/// enter as immediates exactly as the real kernel bakes them).
const MATCH: i32 = 2;
const MISMATCH: i32 = -4;
const GE: i32 = 2;
const GOGE: i32 = 6;

/// The compiler-style loop. Registers: r1 = remaining cells; r2..r8 array
/// pointers; r9/r10 sequence pointers; r11 BT pointer.
///
/// The DPU ISA has no single-cycle `max`, so the compiler emits a
/// compare-and-branch plus conditional move for every `max()` in eqs. 3–5 —
/// and it cannot fuse those branches, target `cmpb4`, or coalesce the seven
/// live array pointers (§5.5: "the above instructions cannot be targeted by
/// the compiler at the moment").
fn pure_c_source(with_bt: bool) -> String {
    let bt_block = if with_bt {
        "
  ; --- BT nibble: origin in r19, extend flags in r18 ---
  or r19, r19, r18
  sb r19, r11, 0
  add r11, r11, 1
"
    } else {
        ""
    };
    let flag_d = if with_bt {
        "
  move r18, 0
  jlt r15, r16, cd_no_dext
  move r18, 8
cd_no_dext:"
    } else {
        ""
    };
    let flag_i = if with_bt {
        "
  move r21, 0
  jlt r15, r16, cd_no_iext
  move r21, 4
cd_no_iext:
  or r18, r18, r21"
    } else {
        ""
    };
    let origin_sel = if with_bt {
        "
  ; best-of-three with explicit compares; record the origin code.
  move r16, r17
  jge r16, r20, cd_gapmax_done
  move r16, r20
cd_gapmax_done:
  jge r15, r16, cd_origin_done
  move r19, 3
  jge r17, r20, cd_take_gap
  move r19, 2
cd_take_gap:
  move r15, r16
cd_origin_done:"
    } else {
        "
  move r16, r17
  jge r16, r20, cd_gapmax_done2
  move r16, r20
cd_gapmax_done2:
  jge r15, r16, cd_h_done
  move r15, r16
cd_h_done:"
    };
    format!(
        "
loop:
  ; --- substitution score: byte loads + explicit compare ---
  lbu r12, r9, 0
  lbu r13, r10, 0
  jeq r12, r13, cd_is_match
  move r14, {MISMATCH}
  move r19, 1
  jmp cd_sub_done
cd_is_match:
  move r14, {MATCH}
  move r19, 0
cd_sub_done:
  ; --- D: max(left_d - ge, left_h - go - ge) via compare+branch ---
  lw r15, r4, 0
  lw r16, r2, 0
  add r15, r15, -{GE}
  add r16, r16, -{GOGE}{flag_d}
  jge r15, r16, cd_d_done
  move r15, r16
cd_d_done:
  move r17, r15
  sw r17, r7, 0
  ; --- I: max(up_i - ge, up_h - go - ge) (window index k+1) ---
  lw r15, r5, 4
  lw r16, r2, 4
  add r15, r15, -{GE}
  add r16, r16, -{GOGE}{flag_i}
  jge r15, r16, cd_i_done
  move r15, r16
cd_i_done:
  move r20, r15
  sw r20, r8, 0
  ; --- H: diag + sub vs gaps ---
  lw r15, r3, 0
  add r15, r15, r14{origin_sel}
  sw r15, r6, 0{bt_block}
  ; --- per-array pointer bumps (the compiler keeps 7 live pointers) ---
  add r2, r2, 4
  add r3, r3, 4
  add r4, r4, 4
  add r5, r5, 4
  add r6, r6, 4
  add r7, r7, 4
  add r8, r8, 4
  add r9, r9, 1
  add r10, r10, 1
  ; --- loop control: separate decrement and branch ---
  sub r1, r1, 1
  jgt r1, 0, loop
  halt
"
    )
}

/// One unrolled cell body of the hand-optimized loop.
///
/// `idx` is the position within the 4-cell unroll (selects the `cmpb4` mask
/// byte and the immediate offsets), `h_in`/`h_out` are the registers
/// carrying `h_prev[k]` into the cell and `h_prev[k+1]` out of it (the up
/// neighbour of cell `k` is the left neighbour of cell `k+1`, so hand code
/// loads it once).
fn asm_cell(idx: usize, with_bt: bool, h_in: &str, h_out: &str) -> String {
    let off = idx * 4;
    let mask = 1u32 << (8 * idx);
    let u = format!("u{idx}"); // unique label prefix per unrolled cell
    let bt_block = if with_bt {
        format!(
            "
  or r19, r19, r18
  sb r19, r11, {idx}"
        )
    } else {
        String::new()
    };
    // D: the comparison that computes max() doubles as the extend flag.
    let d_flag_init = if with_bt { "\n  move r18, 8" } else { "" };
    let d_open_flag = if with_bt { "\n  move r18, 0" } else { "" };
    // I: same trick, one fused branch.
    let (i_ext_flag, i_open) = if with_bt {
        ("\n  or r18, r18, 4", "")
    } else {
        ("", "")
    };
    format!(
        "
  ; ---- unrolled cell {idx} ----
  ; substitution: test mask byte {idx} of the cmpb4 result, fused jump.
  and r0, r12, {mask}, jnz {u}_match
  move r14, {MISMATCH}
  move r19, 1
  jmp {u}_sub_done
{u}_match:
  move r14, {MATCH}
  move r19, 0
{u}_sub_done:
  ; D: left_h carried in {h_in}; max+flag share one fused comparison.
  lw r15, r2, {d_prev}
  add r15, r15, -{GE}
  add r16, {h_in}, -{GOGE}{d_flag_init}
  sub r0, r15, r16, jgez {u}_d_done
  move r15, r16{d_open_flag}
{u}_d_done:
  sw r15, r2, {d_cur}
  ; I: load up_i and up_h (the carry for the next cell).
  lw r17, r2, {i_prev_next}
  lw {h_out}, r2, {h_prev_next}
  add r17, r17, -{GE}
  add r16, {h_out}, -{GOGE}
  sub r0, r17, r16, jltz {u}_i_open{i_ext_flag}
  jmp {u}_i_done
{u}_i_open:{i_open}
  move r17, r16
{u}_i_done:
  sw r17, r2, {i_cur}
  ; H: diag + sub, two fused best-of selections.
  lw r16, r2, {h_prev2}
  add r16, r16, r14
  sub r0, r16, r15, jgez {u}_ge_d
  move r16, r15
  move r19, 3
{u}_ge_d:
  sub r0, r16, r17, jgez {u}_ge_i
  move r16, r17
  move r19, 2
{u}_ge_i:
  sw r16, r2, {h_cur}{bt_block}",
        d_prev = D_PREV + off,
        d_cur = D_CUR + off,
        i_prev_next = I_PREV + off + 4,
        h_prev_next = H_PREV + off + 4,
        h_prev2 = H_PREV2 + off,
        i_cur = I_CUR + off,
        h_cur = H_CUR + off,
    )
}

/// The hand-optimized loop (§5.5): unrolled four cells per iteration so one
/// `cmpb4` covers four base pairs and its result is consumed with fused
/// mask tests; all arrays are indexed from a single scaled counter with
/// immediate offsets; `h_prev[k+1]` is loaded once and carried in a
/// register (up neighbour of cell k = left neighbour of cell k+1); every
/// branch is fused into the ALU instruction producing its operand.
fn asm_source(with_bt: bool) -> String {
    let mut body = String::from(
        "
  ; r1 = remaining cells (multiple of 4), r2 = k*4, r9/r10 seq pointers,
  ; r12 = cmpb4 mask, r22/r23 = h_prev carry registers, r11 = BT pointer.
  lw r22, r2, 0
loop:
  ; one cmpb4 compares the next four base pairs
  lw r13, r9, 0
  lw r14, r10, 0
  cmpb4 r12, r13, r14
  add r9, r9, 4
  add r10, r10, 4",
    );
    for idx in 0..4 {
        // Alternate the carry registers: the up-neighbour load of cell k
        // (h_prev[k+1]) is the left neighbour of cell k+1.
        let (h_in, h_out) = if idx % 2 == 0 {
            ("r22", "r23")
        } else {
            ("r23", "r22")
        };
        body.push_str(&asm_cell(idx, with_bt, h_in, h_out));
    }
    body.push_str(
        "
  ; single scaled bump for all seven arrays + fused loop branch
  add r2, r2, 16",
    );
    if with_bt {
        body.push_str("\n  add r11, r11, 4");
    }
    body.push_str(
        "
  sub r1, r1, 4, jnz loop
  halt
",
    );
    body
}

/// Assemble the inner loop for a variant.
pub fn program(variant: KernelVariant, with_bt: bool) -> Vec<Inst> {
    let src = match variant {
        KernelVariant::PureC => pure_c_source(with_bt),
        KernelVariant::Asm => asm_source(with_bt),
    };
    assemble(&src).expect("inner loop must assemble")
}

/// The static-verification contract of an inner loop: which registers the
/// harness initializes (with the [`measure`] base addresses, so the
/// verifier can do constant propagation on them) and the WRAM frame the
/// loop may touch.
pub fn verify_spec(variant: KernelVariant) -> VerifySpec {
    let r = |i: u8| Reg::new(i).expect("register index in range");
    let mut spec = VerifySpec::new()
        .frame(WRAM_LEN)
        .input_value(r(9), A_SEQ as u32)
        .input_value(r(10), B_SEQ as u32)
        .input_value(r(11), BT_ROW as u32);
    match variant {
        KernelVariant::PureC => {
            // remaining cells: caller-chosen, decremented by 1 per iteration
            spec = spec.input(r(1));
            for (reg, base) in [
                (2, H_PREV),
                (3, H_PREV2),
                (4, D_PREV),
                (5, I_PREV),
                (6, H_CUR),
                (7, D_CUR),
                (8, I_CUR),
            ] {
                spec = spec.input_value(r(reg), base as u32);
            }
        }
        KernelVariant::Asm => {
            // remaining cells: the unrolled loop retires 4 per iteration, so
            // the harness always passes a multiple of 4 — declaring the
            // stride lets the verifier (and the WCET analysis) prove the
            // `sub r1, r1, 4 / jnz` countdown terminates.
            spec = spec.input_multiple(r(1), 4).input_value(r(2), 0); // scaled index k*4
        }
    }
    spec
}

/// The verification contract of one tasklet's slice of a band chunked
/// across `tasklets` workers: tasklet `t` owns cells
/// `[t*chunk, (t+1)*chunk)` of a `cells`-cell anti-diagonal, so every base
/// pointer is offset by its share. [`prove_race_free`] instantiates this per
/// tasklet and asks the WCET footprint analysis to show the write sets are
/// pairwise disjoint.
pub fn tasklet_verify_spec(
    variant: KernelVariant,
    tasklet: usize,
    tasklets: usize,
    cells: usize,
) -> VerifySpec {
    assert!(tasklet < tasklets && tasklets > 0);
    let chunk = cells / tasklets;
    let r = |i: u8| Reg::new(i).expect("register index in range");
    let mut spec = VerifySpec::new()
        .frame(WRAM_LEN)
        .input_value(r(1), chunk as u32)
        .input_value(r(9), (A_SEQ + tasklet * chunk) as u32)
        .input_value(r(10), (B_SEQ + tasklet * chunk) as u32)
        .input_value(r(11), (BT_ROW + tasklet * chunk) as u32);
    match variant {
        KernelVariant::PureC => {
            for (reg, base) in [
                (2, H_PREV),
                (3, H_PREV2),
                (4, D_PREV),
                (5, I_PREV),
                (6, H_CUR),
                (7, D_CUR),
                (8, I_CUR),
            ] {
                spec = spec.input_value(r(reg), (base + 4 * tasklet * chunk) as u32);
            }
        }
        KernelVariant::Asm => {
            assert!(
                chunk.is_multiple_of(4),
                "asm tasklet chunks must be multiples of 4"
            );
            spec = spec.input_value(r(2), (4 * tasklet * chunk) as u32);
        }
    }
    spec
}

/// The symbolic worst-case instruction bound of an inner loop in terms of
/// its declared inputs (`r1` = remaining cells). Analyzed once per process.
pub fn kernel_wcet(variant: KernelVariant, with_bt: bool) -> &'static WcetBound {
    static CACHE: [OnceLock<WcetBound>; 4] = [const { OnceLock::new() }; 4];
    CACHE[cache_index(variant, with_bt)]
        .get_or_init(|| wcet::analyze(loop_program(variant, with_bt), &verify_spec(variant)))
}

/// [`program`], assembled once per process.
fn loop_program(variant: KernelVariant, with_bt: bool) -> &'static [Inst] {
    static CACHE: [OnceLock<Vec<Inst>>; 4] = [const { OnceLock::new() }; 4];
    CACHE[cache_index(variant, with_bt)].get_or_init(|| program(variant, with_bt))
}

fn cache_index(variant: KernelVariant, with_bt: bool) -> usize {
    let base = match variant {
        KernelVariant::PureC => 0,
        KernelVariant::Asm => 2,
    };
    base + usize::from(with_bt)
}

/// Number of tasklets the cross-tasklet race-freedom proof is instantiated
/// for — the paper's per-pool tasklet count.
pub const PROOF_TASKLETS: usize = 4;
/// Cells per anti-diagonal in the canonical proof instantiation. Any
/// multiple of `4 * PROOF_TASKLETS` yields the same per-chunk interval
/// structure; 192 matches the [`measure`] workload.
pub const PROOF_CELLS: usize = 192;

/// Statically prove that `PROOF_TASKLETS` concurrent instances of the loop,
/// each on its own chunk of a `PROOF_CELLS`-cell anti-diagonal, never write
/// a WRAM byte another tasklet touches. `cargo test` and `upmem-nw lint`
/// prove it for every built-in kernel, which is why the production cost
/// measurement ([`measure`]) runs without the runtime WRAM sanitizer.
pub fn prove_race_free(variant: KernelVariant, with_bt: bool) -> Result<(), String> {
    let specs: Vec<VerifySpec> = (0..PROOF_TASKLETS)
        .map(|t| tasklet_verify_spec(variant, t, PROOF_TASKLETS, PROOF_CELLS))
        .collect();
    wcet::prove_partition(loop_program(variant, with_bt), &specs)
}

/// One benchmark pass of an inner loop over `cells` cells on representative
/// band data. `perturb` varies the band contents so repeated passes are not
/// byte-identical (perturb 0 reproduces the [`measure`] workload exactly).
/// `wram` is the caller's scratch WRAM, reused across passes so a timed
/// loop measures the interpreter rather than allocation: an empty buffer
/// is sized and zeroed on first use, and each pass rewrites only the band
/// the loop reads.
pub fn bench_cells(
    wram: &mut Vec<u8>,
    variant: KernelVariant,
    with_bt: bool,
    perturb: u32,
    cells: usize,
) -> Result<RunStats, IsaError> {
    assert!(cells <= MAX_CELLS);
    wram.resize(WRAM_LEN, 0);
    fill_band(wram, cells, perturb);
    let mut m = loop_machine(variant, cells);
    m.run(loop_program(variant, with_bt), wram, DEFAULT_MAX_STEPS)
}

/// Result of interpreting an inner loop over `cells` cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopMeasurement {
    /// Instructions retired per cell (including loop overhead).
    pub instr_per_cell: f64,
    /// Total instructions.
    pub total_instructions: u64,
    /// Cells processed.
    pub cells: usize,
}

/// Run the loop on representative data (~70 % matching bases, mixed H/D/I
/// winners) and measure instructions per cell.
pub fn measure(variant: KernelVariant, with_bt: bool) -> LoopMeasurement {
    run_measurement(variant, with_bt, false).expect("inner loop must run to completion")
}

/// [`measure`]; the mode names the only interpreter there is and is kept
/// for the benchmark crate's API.
pub fn measure_gated_mode(
    variant: KernelVariant,
    with_bt: bool,
    _mode: InterpMode,
) -> LoopMeasurement {
    measure(variant, with_bt)
}

/// Like [`measure`], but with the runtime sanitizer attached: WRAM shadow
/// memory flags any read the harness did not initialize, and ownership
/// tracking would flag cross-tasklet races. Errors are sanitizer faults.
pub fn measure_sanitized(
    variant: KernelVariant,
    with_bt: bool,
) -> Result<LoopMeasurement, IsaError> {
    run_measurement(variant, with_bt, true)
}

fn run_measurement(
    variant: KernelVariant,
    with_bt: bool,
    sanitize: bool,
) -> Result<LoopMeasurement, IsaError> {
    let cells = 192usize;
    assert!(cells <= MAX_CELLS);
    let program = loop_program(variant, with_bt);
    let mut wram = band_wram(cells, 0);
    let mut m = loop_machine(variant, cells);
    let stats = if sanitize {
        // Unpoison exactly what the harness initialized; the sanitizer then
        // proves the loop reads nothing else.
        let seq_len = cells.max(4) + 4;
        let mut shadow = WramShadow::new(WRAM_LEN);
        for base in [H_PREV, H_PREV2, D_PREV, I_PREV] {
            shadow.host_write(base, 4 * (cells + 1));
        }
        shadow.host_write(A_SEQ, seq_len);
        shadow.host_write(B_SEQ, seq_len);
        m.run_sanitized(program, &mut wram, DEFAULT_MAX_STEPS, &mut shadow, 0)?
    } else {
        m.run(program, &mut wram, DEFAULT_MAX_STEPS)?
    };
    Ok(LoopMeasurement {
        instr_per_cell: stats.instructions as f64 / cells as f64,
        total_instructions: stats.instructions,
        cells,
    })
}

/// Representative band contents: slowly varying scores so max() picks
/// different branches across cells, and ~70% matching bases. `perturb`
/// shifts both so benchmark passes differ; perturb 0 is the canonical
/// [`measure`] workload.
fn band_wram(cells: usize, perturb: u32) -> Vec<u8> {
    let mut wram = vec![0u8; WRAM_LEN];
    fill_band(&mut wram, cells, perturb);
    wram
}

/// The canonical band pattern (see [`band_wram`]).
fn fill_band(wram: &mut [u8], cells: usize, perturb: u32) {
    let p = (perturb % 7) as i32;
    for k in 0..cells + 1 {
        let v = (k as i32 % 13) * 3 - 12 + p;
        write_i32(wram, H_PREV + 4 * k, v);
        write_i32(wram, H_PREV2 + 4 * k, v + 2);
        write_i32(wram, D_PREV + 4 * k, v - 5 + (k as i32 % 3));
        write_i32(wram, I_PREV + 4 * k, v - 4 - (k as i32 % 2));
    }
    let seq_len = cells.max(4) + 4;
    for k in 0..seq_len {
        let j = k + perturb as usize % 3;
        wram[A_SEQ + k] = (j % 4) as u8;
        wram[B_SEQ + k] = if k % 3 == 0 {
            ((j + 1) % 4) as u8
        } else {
            (j % 4) as u8
        };
    }
}

/// Machine entry state for an inner loop: exactly the registers declared as
/// inputs by [`verify_spec`].
fn loop_machine(variant: KernelVariant, cells: usize) -> Machine {
    let mut m = Machine::new();
    m.regs[1] = cells as u32;
    match variant {
        KernelVariant::PureC => {
            m.regs[2] = H_PREV as u32;
            m.regs[3] = H_PREV2 as u32;
            m.regs[4] = D_PREV as u32;
            m.regs[5] = I_PREV as u32;
            m.regs[6] = H_CUR as u32;
            m.regs[7] = D_CUR as u32;
            m.regs[8] = I_CUR as u32;
            m.regs[9] = A_SEQ as u32;
            m.regs[10] = B_SEQ as u32;
            m.regs[11] = BT_ROW as u32;
        }
        KernelVariant::Asm => {
            m.regs[2] = 0; // scaled index k*4; loads carry the array bases
            m.regs[9] = A_SEQ as u32;
            m.regs[10] = B_SEQ as u32;
            m.regs[11] = BT_ROW as u32;
        }
    }
    m
}

fn write_i32(buf: &mut [u8], off: usize, v: i32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_assemble() {
        for v in [KernelVariant::PureC, KernelVariant::Asm] {
            for bt in [false, true] {
                assert!(!program(v, bt).is_empty());
            }
        }
    }

    #[test]
    fn builtin_kernels_verify_clean() {
        use pim_sim::isa::{error_count, verify_program};
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            for bt in [false, true] {
                let diags = verify_program(&program(variant, bt), &verify_spec(variant));
                let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
                assert_eq!(error_count(&diags), 0, "{variant:?} bt={bt}: {errors:?}");
                // The loops are warning-free too: every read is dominated
                // by a write or a declared input.
                assert!(
                    !diags
                        .iter()
                        .any(|d| d.severity == pim_sim::isa::Severity::Warning),
                    "{variant:?} bt={bt}: {diags:?}"
                );
            }
        }
    }

    #[test]
    fn builtin_kernels_have_finite_wcet_bounds() {
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            for bt in [false, true] {
                let bound = kernel_wcet(variant, bt);
                assert!(bound.is_finite(), "{variant:?} bt={bt}: {bound}");
                // The symbolic bound mentions only declared inputs, so it
                // evaluates under any concrete cell count.
                let params = pim_sim::isa::KernelParams::new().set(Reg::new(1).unwrap(), 192);
                assert!(bound.eval(&params).is_some(), "{variant:?} bt={bt}");
            }
        }
    }

    #[test]
    fn wcet_bound_dominates_measured_instruction_count() {
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            for bt in [false, true] {
                let measured = measure(variant, bt);
                let params = pim_sim::isa::KernelParams::new()
                    .set(Reg::new(1).unwrap(), measured.cells as u64);
                let bound = kernel_wcet(variant, bt)
                    .eval(&params)
                    .expect("finite bound");
                assert!(
                    measured.total_instructions <= bound,
                    "{variant:?} bt={bt}: ran {} > bound {bound}",
                    measured.total_instructions
                );
            }
        }
    }

    #[test]
    fn builtin_kernels_prove_race_free() {
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            for bt in [false, true] {
                prove_race_free(variant, bt).unwrap_or_else(|e| panic!("{variant:?} bt={bt}: {e}"));
            }
        }
    }

    #[test]
    fn sanitized_measurement_matches_plain() {
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            for bt in [false, true] {
                let plain = measure(variant, bt);
                let sanitized = measure_sanitized(variant, bt)
                    .unwrap_or_else(|e| panic!("{variant:?} bt={bt}: {e}"));
                assert_eq!(plain, sanitized);
            }
        }
    }

    #[test]
    fn asm_is_faster_than_c() {
        for bt in [false, true] {
            let c = measure(KernelVariant::PureC, bt);
            let a = measure(KernelVariant::Asm, bt);
            assert!(
                a.instr_per_cell < c.instr_per_cell,
                "bt={bt}: asm {} !< C {}",
                a.instr_per_cell,
                c.instr_per_cell
            );
        }
    }

    #[test]
    fn speedup_ratio_matches_table7_band() {
        // Table 7 reports 1.36x (score-only 16S) to 1.69x (with traceback).
        let c_bt = measure(KernelVariant::PureC, true).instr_per_cell;
        let a_bt = measure(KernelVariant::Asm, true).instr_per_cell;
        let ratio_bt = c_bt / a_bt;
        assert!((1.3..=1.9).contains(&ratio_bt), "with-BT ratio {ratio_bt}");

        let c_so = measure(KernelVariant::PureC, false).instr_per_cell;
        let a_so = measure(KernelVariant::Asm, false).instr_per_cell;
        let ratio_so = c_so / a_so;
        assert!(
            (1.15..=1.75).contains(&ratio_so),
            "score-only ratio {ratio_so}"
        );

        // The with-BT gain exceeds the score-only gain: the BT encoding is
        // where the fused-jump tricks pay most (the paper's 16S explanation).
        assert!(
            ratio_bt > ratio_so,
            "bt {ratio_bt} vs score-only {ratio_so}"
        );
    }

    #[test]
    fn loops_compute_real_updates() {
        // After a run, h_cur/d_cur/i_cur must hold genuine max() results for
        // the first cell: check cell 0 by hand for both variants.
        for variant in [KernelVariant::PureC, KernelVariant::Asm] {
            let cells = 192;
            let prog = program(variant, true);
            let mut wram = vec![0u8; WRAM_LEN];
            for k in 0..cells + 1 {
                let v = (k as i32 % 13) * 3 - 12;
                write_i32(&mut wram, H_PREV + 4 * k, v);
                write_i32(&mut wram, H_PREV2 + 4 * k, v + 2);
                write_i32(&mut wram, D_PREV + 4 * k, v - 5 + (k as i32 % 3));
                write_i32(&mut wram, I_PREV + 4 * k, v - 4 - (k as i32 % 2));
            }
            for k in 0..cells + 4 {
                wram[A_SEQ + k] = (k % 4) as u8;
                wram[B_SEQ + k] = if k % 3 == 0 {
                    ((k + 1) % 4) as u8
                } else {
                    (k % 4) as u8
                };
            }
            let mut m = Machine::new();
            m.regs[1] = cells as u32;
            m.regs[9] = A_SEQ as u32;
            m.regs[10] = B_SEQ as u32;
            m.regs[11] = BT_ROW as u32;
            if variant == KernelVariant::PureC {
                m.regs[2] = H_PREV as u32;
                m.regs[3] = H_PREV2 as u32;
                m.regs[4] = D_PREV as u32;
                m.regs[5] = I_PREV as u32;
                m.regs[6] = H_CUR as u32;
                m.regs[7] = D_CUR as u32;
                m.regs[8] = I_CUR as u32;
            }
            m.run(&prog, &mut wram, 10_000_000).unwrap();

            // Hand-computed cell 0: h_prev[0] = -12, h_prev2[0] = -10,
            // d_prev[0] = -17, i_prev[1] = -14... wait i uses k+1: v(1)=-9,
            // i_prev[1] = -9 - 4 - 1 = -14, h_prev[1] = -9.
            // a[0]=0, b[0]=1 -> mismatch (k%3==0), sub = -4.
            // Keep the full max() shapes: they mirror the affine recurrence
            // even where one arm is statically larger.
            #[allow(clippy::unnecessary_min_or_max)]
            let d_val = (-17 - 2).max(-12 - 6); // -18
            #[allow(clippy::unnecessary_min_or_max)]
            let i_val = (-14 - 2).max(-9 - 6); // -15
            let h_val = (-10 + (-4)).max(d_val).max(i_val); // -14
            let read = |off: usize| i32::from_le_bytes(wram[off..off + 4].try_into().unwrap());
            assert_eq!(read(D_CUR), d_val, "{variant:?} d_cur[0]");
            assert_eq!(read(I_CUR), i_val, "{variant:?} i_cur[0]");
            assert_eq!(read(H_CUR), h_val, "{variant:?} h_cur[0]");
            // BT nibble for cell 0: origin = diag-mismatch (h wins via diag).
            assert_eq!(wram[BT_ROW] & 0b11, 1, "{variant:?} origin bits");
        }
    }

    #[test]
    fn variants_agree_on_computed_values() {
        // Same data in, same H/D/I out — only the instruction count differs.
        let cells = 64;
        let run = |variant: KernelVariant| -> Vec<u8> {
            let prog = program(variant, true);
            let mut wram = vec![0u8; WRAM_LEN];
            for k in 0..cells + 1 {
                write_i32(&mut wram, H_PREV + 4 * k, k as i32 - 3);
                write_i32(&mut wram, H_PREV2 + 4 * k, 2 * (k as i32 % 5) - 4);
                write_i32(&mut wram, D_PREV + 4 * k, -(k as i32 % 7));
                write_i32(&mut wram, I_PREV + 4 * k, -(k as i32 % 4) - 2);
            }
            for k in 0..cells + 4 {
                wram[A_SEQ + k] = (k % 4) as u8;
                wram[B_SEQ + k] = ((k / 2) % 4) as u8;
            }
            let mut m = Machine::new();
            m.regs[1] = cells as u32;
            m.regs[9] = A_SEQ as u32;
            m.regs[10] = B_SEQ as u32;
            m.regs[11] = BT_ROW as u32;
            if variant == KernelVariant::PureC {
                m.regs[2] = H_PREV as u32;
                m.regs[3] = H_PREV2 as u32;
                m.regs[4] = D_PREV as u32;
                m.regs[5] = I_PREV as u32;
                m.regs[6] = H_CUR as u32;
                m.regs[7] = D_CUR as u32;
                m.regs[8] = I_CUR as u32;
            }
            m.run(&prog, &mut wram, 10_000_000).unwrap();
            wram[H_CUR..H_CUR + 4 * cells].to_vec()
        };
        assert_eq!(run(KernelVariant::PureC), run(KernelVariant::Asm));
    }
}
