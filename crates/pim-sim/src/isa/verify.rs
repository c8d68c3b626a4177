//! Static verification of assembled ISA programs.
//!
//! [`verify`] runs a set of analyses over a resolved `Vec<Inst>` and returns
//! structured [`Diagnostic`]s instead of letting the interpreter fault at
//! runtime (or worse, silently read garbage):
//!
//! * **Control flow** — every jump/fuse target must land inside the program;
//!   a reachable instruction must not fall off the end; unreachable code is
//!   reported; back-edges are classified (provably terminating via a
//!   strictly-decreasing counter, provably infinite when the natural loop
//!   has no exit edge, or unknown).
//! * **Register def-use** — a forward dataflow pass tracks which registers
//!   are definitely/possibly initialized on every path from entry; reading a
//!   register that no path ever writes (and that the [`VerifySpec`] does not
//!   declare as an input) is an error, a read that only *some* paths
//!   initialize is a warning. `move`'s unused `ra` field is not a read.
//! * **Address abstract interpretation** — an interval + congruence domain
//!   over the address-forming arithmetic proves WRAM accesses aligned and
//!   inside the declared frame where possible. Only *provable* violations
//!   are errors; accesses the analysis cannot bound are summarized in one
//!   info diagnostic (the interpreter still checks them at runtime).
//!
//! The congruence half (value ≡ rem mod 2^k) survives interval widening, so
//! loop-carried pointers that grow unboundedly still carry their alignment
//! facts — that is what lets the built-in kernels verify with zero errors
//! while deliberately misaligned programs are still caught.

use super::inst::{alu_eval, AluOp, FuseCond, Inst, JumpCond, Operand, Reg, NUM_REGS};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a fact the analysis established (or gave up on).
    Info,
    /// Suspicious but not provably wrong.
    Warning,
    /// Provably wrong: the program faults or reads garbage on some input.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which analysis produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A jump or fused-jump target outside the program.
    JumpOutOfRange,
    /// A reachable instruction whose fallthrough runs past the last
    /// instruction (the interpreter faults with `BadTarget`).
    FallsOffEnd,
    /// Instructions no path from entry can reach.
    UnreachableCode,
    /// Read of a register that is not written on (some or any) path.
    UninitRead,
    /// WRAM access provably outside the declared frame.
    WramOutOfFrame,
    /// Word access at a provably non-4-byte-aligned address.
    WramMisaligned,
    /// Back-edge classification (terminating / infinite / unknown).
    LoopTermination,
}

impl Rule {
    /// Stable lowercase name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::JumpOutOfRange => "jump-out-of-range",
            Rule::FallsOffEnd => "falls-off-end",
            Rule::UnreachableCode => "unreachable-code",
            Rule::UninitRead => "uninit-read",
            Rule::WramOutOfFrame => "wram-out-of-frame",
            Rule::WramMisaligned => "wram-misaligned",
            Rule::LoopTermination => "loop-termination",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One finding, anchored to an instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity.
    pub severity: Severity,
    /// Instruction index the finding anchors to.
    pub pc: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Is this a hard error?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.rule, self.pc, self.message
        )
    }
}

/// Count the errors in a diagnostic list.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.is_error()).count()
}

/// What the verifier may assume about the execution environment.
#[derive(Debug, Clone, Default)]
pub struct VerifySpec {
    /// Per-register entry state: `None` = not an input (reading it before a
    /// write is a defect), `Some(None)` = input with unknown value,
    /// `Some(Some(v))` = input with a known constant value.
    inputs: [Option<Option<u32>>; NUM_REGS],
    /// Per-register divisibility guarantee: a nonzero entry `m` declares
    /// the input a *positive multiple* of `m` (see [`Self::input_multiple`]).
    multiples: [u32; NUM_REGS],
    /// Accessible WRAM bytes (the tasklet's frame), when declared.
    wram_frame: Option<usize>,
}

impl VerifySpec {
    /// A spec with no inputs and no frame. `r0` is always treated as an
    /// input holding zero (the zero-register convention of the kernels).
    pub fn new() -> Self {
        let mut s = Self::default();
        s.inputs[0] = Some(Some(0));
        s
    }

    /// Declare `r` initialized at entry with an unknown value.
    pub fn input(mut self, r: Reg) -> Self {
        self.inputs[r.0 as usize] = Some(None);
        self
    }

    /// Declare `r` initialized at entry with a known constant.
    pub fn input_value(mut self, r: Reg, v: u32) -> Self {
        self.inputs[r.0 as usize] = Some(Some(v));
        self
    }

    /// Declare `r` initialized at entry with an unknown value the caller
    /// guarantees to be a *positive multiple* of `m` (`m ≥ 1`). Strengthens
    /// the entry interval+congruence state (`value ≥ m`, `value ≡ 0 mod
    /// 2-power-part(m)`), and is the contract that lets the loop-termination
    /// pass and the WCET analysis prove counters stepped by `m` with a fused
    /// `jnz` back edge: a positive multiple decremented by a divisor hits
    /// exactly zero without wrapping.
    pub fn input_multiple(mut self, r: Reg, m: u32) -> Self {
        self.inputs[r.0 as usize] = Some(None);
        self.multiples[r.0 as usize] = m.max(1);
        self
    }

    /// The declared positive-multiple guarantee for `r` (1 when undeclared).
    pub fn input_stride(&self, r: Reg) -> u32 {
        self.multiples[r.0 as usize].max(1)
    }

    /// Raw entry declaration for `r`: `None` = not an input, `Some(None)` =
    /// input with unknown value, `Some(Some(v))` = input pinned to `v`.
    pub(super) fn input_slot(&self, r: Reg) -> Option<Option<u32>> {
        self.inputs[r.0 as usize]
    }

    /// Abstract entry value of register index `i` under this spec.
    pub(super) fn entry_abs(&self, i: usize) -> AbsVal {
        match self.inputs[i] {
            Some(Some(v)) => AbsVal::constant(v as i64),
            Some(None) if self.multiples[i] > 1 => {
                // A declared positive multiple of m: value ≥ m, and the
                // residue mod the 2-power part of m survives 2^32 wraps.
                let m = self.multiples[i] as i64;
                let p2 = (m & m.wrapping_neg()).min(MOD_CAP);
                AbsVal {
                    lo: m,
                    hi: BOUND,
                    modulus: p2.max(1),
                    rem: 0,
                }
            }
            _ => AbsVal::TOP,
        }
    }

    /// Declare the WRAM frame size in bytes.
    pub fn frame(mut self, len: usize) -> Self {
        self.wram_frame = Some(len);
        self
    }

    /// The declared WRAM frame size in bytes, if any.
    pub fn wram_frame(&self) -> Option<usize> {
        self.wram_frame
    }

    /// Registers declared as inputs with a *known constant* value, as
    /// `(register, value)` pairs in register order. The verifier's address
    /// proofs and the WCET footprint analysis assume them.
    pub fn known_inputs(&self) -> Vec<(Reg, u32)> {
        self.inputs
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some(Some(v)) => Some((Reg(i as u8), *v)),
                _ => None,
            })
            .collect()
    }

    fn input_mask(&self) -> u32 {
        let mut m = 0u32;
        for (i, slot) in self.inputs.iter().enumerate() {
            if slot.is_some() {
                m |= 1 << i;
            }
        }
        m
    }
}

// ---------------------------------------------------------------------------
// CFG helpers
// ---------------------------------------------------------------------------

/// In-range successors of `pc`. Out-of-range targets are *not* included (the
/// target check reports them separately).
pub(super) fn successors(program: &[Inst], pc: usize) -> Vec<usize> {
    let len = program.len();
    let mut out = Vec::with_capacity(2);
    let fall = |out: &mut Vec<usize>| {
        if pc + 1 < len {
            out.push(pc + 1);
        }
    };
    match program[pc] {
        Inst::Halt => {}
        Inst::Jmp { target } => {
            if target < len {
                out.push(target);
            }
        }
        Inst::Jcc { target, .. } => {
            fall(&mut out);
            if target < len {
                out.push(target);
            }
        }
        Inst::Alu { fuse, .. } => {
            fall(&mut out);
            if let Some((_, target)) = fuse {
                if target < len && !out.contains(&target) {
                    out.push(target);
                }
            }
        }
        Inst::Lw { .. } | Inst::Sw { .. } | Inst::Lbu { .. } | Inst::Sb { .. } => fall(&mut out),
    }
    out
}

/// Reachability from entry over in-range successors.
pub(super) fn reach(program: &[Inst]) -> Vec<bool> {
    let mut reachable = vec![false; program.len()];
    if program.is_empty() {
        return reachable;
    }
    let mut work = vec![0usize];
    reachable[0] = true;
    while let Some(pc) = work.pop() {
        for s in successors(program, pc) {
            if !std::mem::replace(&mut reachable[s], true) {
                work.push(s);
            }
        }
    }
    reachable
}

/// Predecessor lists over reachable instructions.
pub(super) fn pred_map(program: &[Inst], reachable: &[bool]) -> Vec<Vec<usize>> {
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); program.len()];
    for pc in (0..program.len()).filter(|&pc| reachable[pc]) {
        for s in successors(program, pc) {
            preds[s].push(pc);
        }
    }
    preds
}

/// Back edges `(u, v)` (DFS edge to an on-stack node), reachable code only.
pub(super) fn back_edges(program: &[Inst]) -> Vec<(usize, usize)> {
    let n = program.len();
    if n == 0 {
        return Vec::new();
    }
    let mut color = vec![0u8; n]; // 0 white, 1 on stack, 2 done
    let mut edges = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = 1;
    while let Some(&mut (pc, ref mut idx)) = stack.last_mut() {
        let succs = successors(program, pc);
        if *idx < succs.len() {
            let s = succs[*idx];
            *idx += 1;
            match color[s] {
                0 => {
                    color[s] = 1;
                    stack.push((s, 0));
                }
                1 => edges.push((pc, s)),
                _ => {}
            }
        } else {
            color[pc] = 2;
            stack.pop();
        }
    }
    edges
}

/// Natural loop of back-edge `u -> v`: `v` plus everything that reaches `u`
/// without passing through `v`.
pub(super) fn natural_loop(
    program: &[Inst],
    preds: &[Vec<usize>],
    u: usize,
    v: usize,
) -> Vec<bool> {
    let mut in_loop = vec![false; program.len()];
    in_loop[v] = true;
    let mut work = vec![u];
    while let Some(x) = work.pop() {
        if std::mem::replace(&mut in_loop[x], true) {
            continue;
        }
        work.extend(preds[x].iter().copied());
    }
    in_loop
}

/// Registers an instruction reads. `move` does not read its dummy `ra`.
pub(super) fn reads(inst: &Inst) -> Vec<Reg> {
    let mut out = Vec::with_capacity(2);
    let operand = |out: &mut Vec<Reg>, b: Operand| {
        if let Operand::Reg(r) = b {
            out.push(r);
        }
    };
    match *inst {
        Inst::Alu { op, ra, b, .. } => {
            if op != AluOp::Move {
                out.push(ra);
            }
            operand(&mut out, b);
        }
        Inst::Lw { base, .. } | Inst::Lbu { base, .. } => out.push(base),
        Inst::Sw { rs, base, .. } | Inst::Sb { rs, base, .. } => {
            out.push(rs);
            out.push(base);
        }
        Inst::Jcc { ra, b, .. } => {
            out.push(ra);
            operand(&mut out, b);
        }
        Inst::Jmp { .. } | Inst::Halt => {}
    }
    out
}

/// Register an instruction defines, if any.
pub(super) fn def(inst: &Inst) -> Option<Reg> {
    match *inst {
        Inst::Alu { rd, .. } | Inst::Lw { rd, .. } | Inst::Lbu { rd, .. } => Some(rd),
        _ => None,
    }
}

/// Does the instruction have a fallthrough edge (as opposed to always
/// jumping or halting)?
pub(super) fn falls_through(inst: &Inst) -> bool {
    !matches!(inst, Inst::Halt | Inst::Jmp { .. })
}

// ---------------------------------------------------------------------------
// Abstract values: interval + congruence (value ≡ rem mod modulus)
// ---------------------------------------------------------------------------

/// Bound sentinel beyond any 32-bit value.
pub(super) const BOUND: i64 = 1 << 33;
/// Congruence modulus cap (a power of two, so residues survive 2^32 wraps).
const MOD_CAP: i64 = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct AbsVal {
    pub(super) lo: i64,
    pub(super) hi: i64,
    /// Power-of-two modulus (≥ 1, divides `MOD_CAP`).
    pub(super) modulus: i64,
    /// Residue in `[0, modulus)`.
    pub(super) rem: i64,
}

impl AbsVal {
    const TOP: AbsVal = AbsVal {
        lo: -BOUND,
        hi: BOUND,
        modulus: 1,
        rem: 0,
    };

    pub(super) fn constant(c: i64) -> Self {
        AbsVal {
            lo: c,
            hi: c,
            modulus: MOD_CAP,
            rem: c.rem_euclid(MOD_CAP),
        }
    }

    pub(super) fn is_const(&self) -> bool {
        self.lo == self.hi
    }

    /// The u32 bit pattern, when the value is a constant in 32-bit range.
    fn const_bits(&self) -> Option<u32> {
        if self.is_const() && self.lo >= i32::MIN as i64 && self.lo <= u32::MAX as i64 {
            Some(self.lo as u32)
        } else {
            None
        }
    }

    fn in_i32(&self) -> bool {
        self.lo >= i32::MIN as i64 && self.hi <= i32::MAX as i64
    }

    /// Clamp results that may wrap at runtime to unbounded intervals. The
    /// congruence part survives: every modulus divides 2^32, and wrapping
    /// adds a multiple of 2^32.
    fn clamp_wrap(mut self) -> Self {
        if self.lo < i32::MIN as i64 || self.hi > u32::MAX as i64 {
            self.lo = -BOUND;
            self.hi = BOUND;
        }
        self
    }

    pub(super) fn join(a: AbsVal, b: AbsVal) -> AbsVal {
        let modulus = gcd(gcd(a.modulus, b.modulus), (a.rem - b.rem).abs()).max(1);
        AbsVal {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
            modulus,
            rem: a.rem.rem_euclid(modulus),
        }
    }

    /// Widen: bounds that grew since `old` go to the sentinel; the modulus
    /// join already converges (a divisor chain).
    fn widen(old: AbsVal, new: AbsVal) -> AbsVal {
        let mut w = new;
        if new.lo < old.lo {
            w.lo = -BOUND;
        }
        if new.hi > old.hi {
            w.hi = BOUND;
        }
        w
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Smallest all-ones mask covering `v` (for bitwise-or bounds).
fn mask_up(v: i64) -> i64 {
    let mut m = 1i64;
    while m - 1 < v && m < BOUND {
        m <<= 1;
    }
    m - 1
}

pub(super) fn abs_alu(op: AluOp, a: AbsVal, b: AbsVal) -> AbsVal {
    // Constant folding through the real ALU semantics where the bit
    // patterns are known exactly.
    if let (Some(ab), Some(bb)) = (a.const_bits(), b.const_bits()) {
        let r = alu_eval(op, ab, bb);
        // Interpret the result pattern in the signedness its consumers use.
        let math = match op {
            AluOp::Asr | AluOp::Max => r as i32 as i64,
            _ => r as i64,
        };
        // Add/Sub may have wrapped; recompute exactly in i64 for those.
        let math = match op {
            AluOp::Add => a.lo + b.lo,
            AluOp::Sub => a.lo - b.lo,
            _ => math,
        };
        return AbsVal::constant(math).clamp_wrap();
    }
    match op {
        AluOp::Move => b,
        AluOp::Add => AbsVal {
            lo: a.lo + b.lo,
            hi: a.hi + b.hi,
            modulus: gcd(a.modulus, b.modulus).max(1),
            rem: (a.rem + b.rem).rem_euclid(gcd(a.modulus, b.modulus).max(1)),
        }
        .clamp_wrap(),
        AluOp::Sub => AbsVal {
            lo: a.lo - b.hi,
            hi: a.hi - b.lo,
            modulus: gcd(a.modulus, b.modulus).max(1),
            rem: (a.rem - b.rem).rem_euclid(gcd(a.modulus, b.modulus).max(1)),
        }
        .clamp_wrap(),
        AluOp::Max => {
            if a.in_i32() && b.in_i32() {
                AbsVal {
                    lo: a.lo.max(b.lo),
                    hi: a.hi.max(b.hi),
                    ..AbsVal::join(a, b)
                }
            } else {
                AbsVal::TOP
            }
        }
        AluOp::And => match b.const_bits() {
            // Non-negative mask: the result cannot exceed it.
            Some(m) if (m as i32) >= 0 => AbsVal {
                lo: 0,
                hi: m as i64,
                modulus: 1,
                rem: 0,
            },
            _ => AbsVal::TOP,
        },
        AluOp::Or | AluOp::Xor => {
            if a.lo >= 0 && b.lo >= 0 && a.hi < BOUND && b.hi < BOUND {
                AbsVal {
                    lo: 0,
                    hi: mask_up(a.hi) | mask_up(b.hi),
                    modulus: 1,
                    rem: 0,
                }
            } else {
                AbsVal::TOP
            }
        }
        AluOp::Lsl => match b.const_bits() {
            Some(k) if k < 32 && a.lo >= 0 => AbsVal {
                lo: a.lo << k.min(33),
                hi: a.hi << k.min(33),
                modulus: gcd(MOD_CAP, a.modulus << k.min(16)).max(1),
                rem: (a.rem << k.min(16)).rem_euclid(gcd(MOD_CAP, a.modulus << k.min(16)).max(1)),
            }
            .clamp_wrap(),
            _ => AbsVal::TOP,
        },
        AluOp::Lsr | AluOp::Asr => match b.const_bits() {
            Some(k) if k < 32 && a.lo >= 0 && a.hi <= u32::MAX as i64 => AbsVal {
                lo: a.lo >> k,
                hi: a.hi >> k,
                modulus: 1,
                rem: 0,
            },
            _ => AbsVal::TOP,
        },
        AluOp::Cmpb4 => AbsVal {
            lo: 0,
            hi: 0x0101_0101,
            modulus: 1,
            rem: 0,
        },
    }
}

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

/// Verify `program` under `spec`; returns diagnostics sorted by pc.
pub fn verify(program: &[Inst], spec: &VerifySpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if program.is_empty() {
        diags.push(Diagnostic {
            severity: Severity::Error,
            pc: 0,
            rule: Rule::FallsOffEnd,
            message: "empty program: execution immediately runs past the end".into(),
        });
        return diags;
    }

    check_targets(program, &mut diags);
    let reachable = reachability(program, &mut diags);
    check_fallthrough(program, &reachable, &mut diags);
    check_def_use(program, &reachable, spec, &mut diags);
    check_addresses(program, &reachable, spec, &mut diags);
    check_loops(program, &reachable, spec, &mut diags);

    diags.sort_by_key(|d| (d.pc, std::cmp::Reverse(d.severity)));
    diags
}

/// Every jump/fuse target must be a valid instruction index. (The assembler
/// enforces this too; instruction streams built by hand may not.)
fn check_targets(program: &[Inst], diags: &mut Vec<Diagnostic>) {
    for (pc, inst) in program.iter().enumerate() {
        let target = match inst {
            Inst::Alu {
                fuse: Some((_, t)), ..
            } => Some(*t),
            Inst::Jmp { target } => Some(*target),
            Inst::Jcc { target, .. } => Some(*target),
            _ => None,
        };
        if let Some(t) = target {
            if t >= program.len() {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    pc,
                    rule: Rule::JumpOutOfRange,
                    message: format!(
                        "jump target {t} outside program of {} instructions",
                        program.len()
                    ),
                });
            }
        }
    }
}

/// Reachability from entry; unreachable ranges are reported as warnings.
fn reachability(program: &[Inst], diags: &mut Vec<Diagnostic>) -> Vec<bool> {
    let reachable = reach(program);
    let mut pc = 0;
    while pc < program.len() {
        if reachable[pc] {
            pc += 1;
            continue;
        }
        let start = pc;
        while pc < program.len() && !reachable[pc] {
            pc += 1;
        }
        diags.push(Diagnostic {
            severity: Severity::Warning,
            pc: start,
            rule: Rule::UnreachableCode,
            message: if pc - start == 1 {
                format!("instruction {start} is unreachable")
            } else {
                format!("instructions {start}..{} are unreachable", pc - 1)
            },
        });
    }
    reachable
}

/// A reachable instruction whose fallthrough leaves the program is a fault
/// waiting to happen (the interpreter raises `BadTarget` at `pc == len`).
fn check_fallthrough(program: &[Inst], reachable: &[bool], diags: &mut Vec<Diagnostic>) {
    let last = program.len() - 1;
    if reachable[last] && falls_through(&program[last]) {
        diags.push(Diagnostic {
            severity: Severity::Error,
            pc: last,
            rule: Rule::FallsOffEnd,
            message: format!(
                "execution can fall through instruction {last} past the end of the program \
                 (no halt or unconditional jump)"
            ),
        });
    }
}

/// Forward dataflow: definitely-initialized (intersection over predecessors)
/// and possibly-initialized (union) register sets, checked at every read.
fn check_def_use(
    program: &[Inst],
    reachable: &[bool],
    spec: &VerifySpec,
    diags: &mut Vec<Diagnostic>,
) {
    let entry = spec.input_mask();
    let full: u32 = (1u32 << NUM_REGS) - 1;
    let n = program.len();
    // IN sets per pc. must: start from "everything" and shrink; may: start
    // from "nothing" and grow. Entry starts at the declared inputs.
    let mut must_in = vec![full; n];
    let mut may_in = vec![0u32; n];
    must_in[0] = entry;
    may_in[0] = entry;
    let mut work: Vec<usize> = (0..n).filter(|&pc| reachable[pc]).collect();
    while let Some(pc) = work.pop() {
        let def_bit = def(&program[pc]).map_or(0, |r| 1u32 << r.0);
        let must_out = must_in[pc] | def_bit;
        let may_out = may_in[pc] | def_bit;
        for succ in successors(program, pc) {
            let new_must = if succ == 0 {
                entry
            } else {
                must_in[succ] & must_out
            };
            let new_may = if succ == 0 {
                may_in[succ] | may_out | entry
            } else {
                may_in[succ] | may_out
            };
            if new_must != must_in[succ] || new_may != may_in[succ] {
                must_in[succ] = new_must;
                may_in[succ] = new_may;
                work.push(succ);
            }
        }
    }
    let mut seen: Vec<(usize, u8)> = Vec::new();
    for (pc, inst) in program.iter().enumerate() {
        if !reachable[pc] {
            continue;
        }
        for r in reads(inst) {
            let bit = 1u32 << r.0;
            if must_in[pc] & bit != 0 || seen.contains(&(pc, r.0)) {
                continue;
            }
            seen.push((pc, r.0));
            if may_in[pc] & bit == 0 {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    pc,
                    rule: Rule::UninitRead,
                    message: format!(
                        "{r} is read but never written on any path from entry \
                         (declare it as an input if the caller sets it)"
                    ),
                });
            } else {
                diags.push(Diagnostic {
                    severity: Severity::Warning,
                    pc,
                    rule: Rule::UninitRead,
                    message: format!("{r} may be uninitialized on some path from entry"),
                });
            }
        }
    }
}

/// The fixed point of the interval+congruence abstract interpretation: the
/// per-pc register state on entry to each instruction (`None` = the pass
/// never reached it). Shared by [`check_addresses`] and the WCET analysis
/// ([`super::wcet`]), which layers loop-linear pointer progressions on top.
pub(super) fn abstract_states(
    program: &[Inst],
    spec: &VerifySpec,
) -> Vec<Option<[AbsVal; NUM_REGS]>> {
    let n = program.len();
    let entry_state: [AbsVal; NUM_REGS] = std::array::from_fn(|i| spec.entry_abs(i));
    let mut states: Vec<Option<[AbsVal; NUM_REGS]>> = vec![None; n];
    if n == 0 {
        return states;
    }
    states[0] = Some(entry_state);
    let mut visits = vec![0u32; n];
    const WIDEN_AFTER: u32 = 4;

    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        let Some(state) = states[pc] else { continue };
        let mut out = state;
        match program[pc] {
            Inst::Alu { op, rd, ra, b, .. } => {
                let bv = match b {
                    Operand::Reg(r) => state[r.0 as usize],
                    Operand::Imm(i) => AbsVal::constant(i as i64),
                };
                // `move` ignores ra; feed it the b value so constant moves
                // stay constant.
                let av = if op == AluOp::Move {
                    bv
                } else {
                    state[ra.0 as usize]
                };
                out[rd.0 as usize] = abs_alu(op, av, bv);
            }
            Inst::Lw { rd, .. } => {
                out[rd.0 as usize] = AbsVal {
                    lo: i32::MIN as i64,
                    hi: u32::MAX as i64,
                    modulus: 1,
                    rem: 0,
                }
            }
            Inst::Lbu { rd, .. } => {
                out[rd.0 as usize] = AbsVal {
                    lo: 0,
                    hi: 255,
                    modulus: 1,
                    rem: 0,
                }
            }
            _ => {}
        }
        for succ in successors(program, pc) {
            let joined = match states[succ] {
                None => out,
                Some(prev) => {
                    let mut j = prev;
                    for i in 0..NUM_REGS {
                        j[i] = AbsVal::join(prev[i], out[i]);
                        if visits[succ] >= WIDEN_AFTER {
                            j[i] = AbsVal::widen(prev[i], j[i]);
                        }
                    }
                    j
                }
            };
            if states[succ] != Some(joined) {
                states[succ] = Some(joined);
                visits[succ] += 1;
                work.push(succ);
            }
        }
    }
    states
}

/// Abstract interpretation of address-forming arithmetic; flags provable
/// frame escapes and misaligned word accesses.
fn check_addresses(
    program: &[Inst],
    reachable: &[bool],
    spec: &VerifySpec,
    diags: &mut Vec<Diagnostic>,
) {
    let states = abstract_states(program, spec);
    let frame = spec.wram_frame;
    let mut unproven = 0usize;
    let mut total = 0usize;
    let mut first_unproven = 0usize;
    for (pc, inst) in program.iter().enumerate() {
        if !reachable[pc] {
            continue;
        }
        let (base, off, width) = match *inst {
            Inst::Lw { base, off, .. } | Inst::Sw { base, off, .. } => (base, off, 4usize),
            Inst::Lbu { base, off, .. } | Inst::Sb { base, off, .. } => (base, off, 1usize),
            _ => continue,
        };
        total += 1;
        let Some(state) = states[pc] else { continue };
        let addr = abs_alu(
            AluOp::Add,
            state[base.0 as usize],
            AbsVal::constant(off as i64),
        );
        let mut proven_in_frame = false;
        if let Some(f) = frame {
            let f = f as i64;
            if addr.lo >= 0 && addr.hi + width as i64 <= f {
                proven_in_frame = true;
            } else if addr.lo + width as i64 > f || addr.hi < 0 {
                // Every possible address escapes the frame. (A negative
                // value wraps to ≥ 2^31 at runtime, far beyond any frame.)
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    pc,
                    rule: Rule::WramOutOfFrame,
                    message: format!(
                        "{width}-byte access at {} is outside the {f}-byte frame",
                        describe(addr)
                    ),
                });
                proven_in_frame = true; // already reported; not "unproven"
            }
        }
        if width == 4 && addr.modulus % 4 == 0 && addr.rem % 4 != 0 {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pc,
                rule: Rule::WramMisaligned,
                message: format!(
                    "word access at {} is never 4-byte aligned (address ≡ {} mod {})",
                    describe(addr),
                    addr.rem,
                    addr.modulus
                ),
            });
        }
        if frame.is_some() && !proven_in_frame {
            if unproven == 0 {
                first_unproven = pc;
            }
            unproven += 1;
        }
    }
    if unproven > 0 {
        diags.push(Diagnostic {
            severity: Severity::Info,
            pc: first_unproven,
            rule: Rule::WramOutOfFrame,
            message: format!(
                "{unproven} of {total} WRAM accesses could not be statically proven inside \
                 the {}-byte frame (checked at runtime)",
                frame.unwrap_or(0)
            ),
        });
    }
}

fn describe(v: AbsVal) -> String {
    if v.is_const() {
        format!("address {}", v.lo)
    } else if v.lo <= -BOUND || v.hi >= BOUND {
        "an unbounded address".to_string()
    } else {
        format!("addresses {}..={}", v.lo, v.hi)
    }
}

/// Is the fused-`jnz` countdown at back-edge source `u` provably exact?
/// Requires: the counter is decremented by `k` at `u` and written nowhere
/// else in the program, and declared via [`VerifySpec::input_multiple`]
/// with a stride `k` divides — a positive multiple of `k` stepped by `k`
/// hits exactly zero without wrapping, in `initial / k` iterations.
/// Shared with the WCET trip-count derivation.
pub(super) fn nz_countdown_proven(
    program: &[Inst],
    spec: &VerifySpec,
    u: usize,
    r: Reg,
    k: i32,
) -> bool {
    k > 0
        && spec.input_stride(r) > 1
        && spec.input_stride(r).is_multiple_of(k as u32)
        && spec.inputs[r.0 as usize] == Some(None)
        && (0..program.len())
            .filter(|&x| x != u)
            .all(|x| def(&program[x]) != Some(r))
}

/// How a back-edge's branch consumes its loop counter.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum CounterKind {
    /// `sub r, r, k` fused with `jgez`: runs until `r` goes negative.
    FusedGez,
    /// `sub r, r, k` fused with `jnz`: runs until `r` hits exactly zero.
    FusedNz,
    /// A separate `jgt`/`jge` conditional branch on the counter.
    Jcc,
}

/// Classify back-edges: provably terminating counters, provably infinite
/// loops (no exit edge in the natural loop), or unknown.
fn check_loops(
    program: &[Inst],
    reachable: &[bool],
    spec: &VerifySpec,
    diags: &mut Vec<Diagnostic>,
) {
    let n = program.len();
    let preds = pred_map(program, reachable);
    for (u, v) in back_edges(program) {
        let in_loop = natural_loop(program, &preds, u, v);
        let has_exit = (0..n).filter(|&x| in_loop[x]).any(|x| {
            matches!(program[x], Inst::Halt) || successors(program, x).iter().any(|s| !in_loop[*s])
        });
        if !has_exit {
            diags.push(Diagnostic {
                severity: Severity::Error,
                pc: u,
                rule: Rule::LoopTermination,
                message: format!("loop {v}..{u} has no exit edge: it can never terminate"),
            });
            continue;
        }
        // Provably terminating pattern: the branch register strictly
        // decreases by a positive constant and nothing else writes it.
        let counter = match program[u] {
            Inst::Alu {
                op: AluOp::Sub,
                rd,
                ra,
                b: Operand::Imm(k),
                fuse: Some((FuseCond::Gez, t)),
            } if t == v && rd == ra && k > 0 => {
                // The decrement *is* the branch: r goes negative eventually.
                Some((rd, k, CounterKind::FusedGez))
            }
            Inst::Alu {
                op: AluOp::Sub,
                rd,
                ra,
                b: Operand::Imm(k),
                fuse: Some((FuseCond::Nz, t)),
            } if t == v && rd == ra && k > 0 => {
                // Countdown to exactly zero: only sound when the initial
                // value is a declared positive multiple of the step.
                Some((rd, k, CounterKind::FusedNz))
            }
            Inst::Jcc {
                cond: JumpCond::Gt | JumpCond::Ge,
                ra,
                b: Operand::Imm(_),
                target,
            } if target == v => Some((ra, 0, CounterKind::Jcc)),
            _ => None,
        };
        let proven = match counter {
            Some((r, _, CounterKind::FusedGez)) => {
                // No other write to the counter inside the loop.
                (0..n)
                    .filter(|&x| in_loop[x] && x != u)
                    .all(|x| def(&program[x]) != Some(r))
            }
            Some((r, k, CounterKind::FusedNz)) => nz_countdown_proven(program, spec, u, r, k),
            Some((r, _, CounterKind::Jcc)) => {
                // Every write to the counter inside the loop is a strict
                // decrease by a positive constant, and at least one exists.
                let defs: Vec<usize> = (0..n)
                    .filter(|&x| in_loop[x] && def(&program[x]) == Some(r))
                    .collect();
                !defs.is_empty()
                    && defs.iter().all(|&x| {
                        matches!(
                            program[x],
                            Inst::Alu { op: AluOp::Sub, rd, ra, b: Operand::Imm(k), .. }
                                if rd == ra && k > 0
                        )
                    })
            }
            None => false,
        };
        let msg = if proven {
            format!(
                "back-edge {u} -> {v} provably terminates ({} strictly decreases)",
                counter.map(|(r, ..)| r.to_string()).unwrap_or_default()
            )
        } else {
            format!("cannot prove termination of back-edge {u} -> {v}")
        };
        diags.push(Diagnostic {
            severity: Severity::Info,
            pc: u,
            rule: Rule::LoopTermination,
            message: msg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;

    fn spec() -> VerifySpec {
        VerifySpec::new()
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.is_error()).collect()
    }

    #[test]
    fn clean_program_verifies() {
        let prog = assemble(
            "
            move r1, 10
            loop:
              sub r1, r1, 1, jgez loop
            halt
            ",
        )
        .unwrap();
        let diags = verify(&prog, &spec().frame(64));
        assert_eq!(error_count(&diags), 0, "{diags:?}");
        // And the back-edge is classified as provably terminating.
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::LoopTermination && d.message.contains("provably")));
    }

    #[test]
    fn bad_jump_target_is_an_error() {
        let prog = [Inst::Jmp { target: 7 }, Inst::Halt];
        let diags = verify(&prog, &spec());
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::JumpOutOfRange && d.is_error()));
    }

    #[test]
    fn target_one_past_end_is_an_error() {
        // The off-by-one the interpreter faults on: target == len.
        let prog = [
            Inst::Alu {
                op: AluOp::Sub,
                rd: Reg(1),
                ra: Reg(1),
                b: Operand::Imm(1),
                fuse: Some((FuseCond::Nz, 2)),
            },
            Inst::Halt,
        ];
        let diags = verify(&prog, &spec().input(Reg(1)));
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::JumpOutOfRange && d.is_error()));
    }

    #[test]
    fn falls_off_end_is_an_error() {
        let prog = assemble("move r1, 1\nmove r2, 2").unwrap();
        let diags = verify(&prog, &spec());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::FallsOffEnd && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn empty_program_is_an_error() {
        let diags = verify(&[], &spec());
        assert_eq!(error_count(&diags), 1);
    }

    #[test]
    fn unreachable_code_is_a_warning() {
        let prog = assemble("jmp end\nmove r1, 1\nmove r2, 2\nend: halt").unwrap();
        let diags = verify(&prog, &spec());
        let unreach: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::UnreachableCode)
            .collect();
        assert_eq!(unreach.len(), 1);
        assert_eq!(unreach[0].severity, Severity::Warning);
        assert!(unreach[0].message.contains("1..2"));
        assert_eq!(error_count(&diags), 0);
    }

    #[test]
    fn uninitialized_read_is_an_error() {
        let prog = assemble("add r1, r2, 1\nhalt").unwrap();
        let diags = verify(&prog, &spec());
        let e = errors(&diags);
        assert_eq!(e.len(), 1, "{diags:?}");
        assert_eq!(e[0].rule, Rule::UninitRead);
        assert!(e[0].message.contains("r2"));
        // Declaring the register as an input silences it.
        let diags = verify(&prog, &spec().input(Reg(2)));
        assert_eq!(error_count(&diags), 0);
    }

    #[test]
    fn maybe_uninitialized_read_is_a_warning() {
        // r2 is written on one branch only; the join cannot guarantee it.
        let prog = assemble(
            "
            jeq r1, 0, skip
            move r2, 5
            skip:
            add r3, r2, 1
            halt
            ",
        )
        .unwrap();
        let diags = verify(&prog, &spec().input(Reg(1)));
        assert!(
            diags.iter().any(|d| d.rule == Rule::UninitRead
                && d.severity == Severity::Warning
                && d.message.contains("r2")),
            "{diags:?}"
        );
        assert_eq!(error_count(&diags), 0);
    }

    #[test]
    fn move_does_not_read_its_dummy_ra() {
        // `move` parses with ra = r0's slot but reads only the operand.
        let prog = assemble("move r1, 3\nhalt").unwrap();
        let diags = verify(&prog, &VerifySpec::default()); // not even r0 declared
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn provably_misaligned_word_access_is_an_error() {
        let prog = assemble("move r1, 6\nlw r2, r1, 0\nhalt").unwrap();
        let diags = verify(&prog, &spec().frame(64));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::WramMisaligned && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn alignment_survives_loop_widening() {
        // A pointer bumped by 8 per iteration stays 4-aligned even though
        // its interval widens to unbounded.
        let prog = assemble(
            "
            move r1, 10
            move r2, 0
            loop:
              lw r3, r2, 0
              add r2, r2, 8
              sub r1, r1, 1, jgez loop
            halt
            ",
        )
        .unwrap();
        let diags = verify(&prog, &spec().frame(1 << 16));
        assert_eq!(error_count(&diags), 0, "{diags:?}");
        // And a misaligned bump is still caught.
        let prog = assemble(
            "
            move r1, 10
            move r2, 2
            loop:
              lw r3, r2, 0
              add r2, r2, 8
              sub r1, r1, 1, jgez loop
            halt
            ",
        )
        .unwrap();
        let diags = verify(&prog, &spec().frame(1 << 16));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::WramMisaligned && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_frame_access_is_an_error() {
        let prog = assemble("lw r1, r0, 0x200\nhalt").unwrap();
        let diags = verify(&prog, &spec().frame(0x100));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::WramOutOfFrame && d.is_error()),
            "{diags:?}"
        );
        // The same access inside a big enough frame is fine.
        let diags = verify(&prog, &spec().frame(0x300));
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn negative_address_is_out_of_frame() {
        let prog = assemble("move r1, 4\nlw r2, r1, -32\nhalt").unwrap();
        let diags = verify(&prog, &spec().frame(1 << 16));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::WramOutOfFrame && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn infinite_loop_is_an_error() {
        let prog = assemble("loop: jmp loop").unwrap();
        let diags = verify(&prog, &spec());
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::LoopTermination && d.is_error()),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_termination_is_only_info() {
        // jnz on a counter: wraps past zero if not a multiple, so not provable.
        let prog = assemble("move r1, 10\nloop: sub r1, r1, 3, jnz loop\nhalt").unwrap();
        let diags = verify(&prog, &spec());
        assert_eq!(error_count(&diags), 0);
        assert!(diags.iter().any(|d| d.rule == Rule::LoopTermination
            && d.severity == Severity::Info
            && d.message.contains("cannot prove")));
    }

    #[test]
    fn jcc_counter_loop_is_provably_terminating() {
        // The PureC loop pattern: separate decrement and jgt branch.
        let prog = assemble(
            "
            move r1, 100
            loop:
              sub r1, r1, 1
              jgt r1, 0, loop
            halt
            ",
        )
        .unwrap();
        let diags = verify(&prog, &spec());
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::LoopTermination && d.message.contains("provably")));
    }

    #[test]
    fn unproven_accesses_are_summarized_as_info() {
        // A pointer read from memory: nothing provable about it.
        let prog = assemble("lw r1, r0, 0\nlw r2, r1, 0\nhalt").unwrap();
        let diags = verify(&prog, &spec().frame(64));
        assert_eq!(error_count(&diags), 0, "{diags:?}");
        assert!(diags.iter().any(|d| d.severity == Severity::Info
            && d.rule == Rule::WramOutOfFrame
            && d.message.contains("1 of 2")));
    }

    #[test]
    fn diagnostics_render_readably() {
        let d = Diagnostic {
            severity: Severity::Error,
            pc: 3,
            rule: Rule::UninitRead,
            message: "r5 is read but never written".into(),
        };
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("uninit-read"));
        assert!(s.contains('3'));
    }
}
