//! Symbolic worst-case execution analysis over verified ISA programs.
//!
//! Layered on the verifier's CFG helpers and interval+congruence domain
//! ([`super::verify`]), this module derives three static facts the runtime
//! otherwise has to guess at:
//!
//! * **Trip-count bounds** — each natural loop whose back edge matches one
//!   of the loop-termination pass's strictly-decreasing counter patterns
//!   yields a *symbolic* bound on its body executions, in terms of the
//!   [`VerifySpec`] input registers (the registers carrying `m`, `n`, and
//!   the band width at launch).
//! * **A closed-form cycle bound** — per-instruction costs (one issue slot
//!   per retired instruction, the same unit [`crate::stats::DpuStats`]
//!   accumulates) are composed up the CFG: loops collapse innermost-first
//!   into `trips × longest-body-path` super-nodes, and the residual DAG's
//!   longest path from entry is the program's worst case. The result is a
//!   [`WcetBound`]: a small expression AST evaluable against concrete
//!   [`KernelParams`], e.g. `7 + 51*(r1/4)`.
//! * **A WRAM partition proof** — per-tasklet read/write byte intervals
//!   ([`wram_footprint`]), computed from loop-linear pointer progressions
//!   (`base += const` per iteration × proven trip count). When every
//!   tasklet's writes are disjoint from every other tasklet's reads and
//!   writes ([`prove_partition`]), the kernel is statically race-free for
//!   the phase (barrier-to-barrier region) the program models, and the
//!   cost measurement may skip the runtime WRAM sanitizer.
//!
//! Everything here is a *sound upper bound*: `Unbounded` means "could not
//! prove", never "proven infinite" (the verifier reports provably infinite
//! loops separately). The soundness property test in `dpu-kernel` checks
//! retired instruction counts never exceed the static bound.

use super::inst::{AluOp, FuseCond, Inst, JumpCond, Operand, Reg, NUM_REGS};
use super::verify::{
    abs_alu, abstract_states, back_edges, def, natural_loop, nz_countdown_proven, pred_map, reach,
    successors, AbsVal, VerifySpec, BOUND,
};
use std::fmt;

// ---------------------------------------------------------------------------
// Expression AST
// ---------------------------------------------------------------------------

/// A symbolic, non-negative integer expression over kernel input registers.
///
/// Constructed via the folding smart constructors ([`Expr::add`],
/// [`Expr::mul`], ...) so constant subterms collapse and display stays
/// readable (`12 + 51*(r1/4)` rather than a deep tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A known constant.
    Const(u64),
    /// The launch-time value of an input register (register index).
    Input(u8),
    /// Sum of terms.
    Sum(Vec<Expr>),
    /// Product of factors.
    Prod(Vec<Expr>),
    /// Floor division by a positive constant.
    Div(Box<Expr>, u64),
    /// Saturating subtraction of a constant (`max(0, e - k)`).
    SatSub(Box<Expr>, u64),
    /// Maximum of alternatives.
    Max(Vec<Expr>),
}

impl Expr {
    /// Zero.
    pub const ZERO: Expr = Expr::Const(0);

    /// `a + b`, folding constants and flattening nested sums.
    #[allow(clippy::should_implement_trait)] // smart constructor, not `self + rhs`
    pub fn add(a: Expr, b: Expr) -> Expr {
        let mut terms: Vec<Expr> = Vec::new();
        let mut konst: u64 = 0;
        for e in [a, b] {
            match e {
                Expr::Const(c) => konst = konst.saturating_add(c),
                Expr::Sum(ts) => {
                    for t in ts {
                        match t {
                            Expr::Const(c) => konst = konst.saturating_add(c),
                            other => terms.push(other),
                        }
                    }
                }
                other => terms.push(other),
            }
        }
        if terms.is_empty() {
            return Expr::Const(konst);
        }
        if konst > 0 {
            terms.insert(0, Expr::Const(konst));
        }
        if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Expr::Sum(terms)
        }
    }

    /// `a * b`, folding constants, dropping unit factors, and distributing
    /// a constant factor over a sum (keeps bounds in `c0 + c1*X` shape).
    #[allow(clippy::should_implement_trait)] // smart constructor, not `self * rhs`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.saturating_mul(y)),
            (Expr::Const(0), _) | (_, Expr::Const(0)) => Expr::Const(0),
            (Expr::Const(1), e) | (e, Expr::Const(1)) => e,
            (Expr::Const(c), Expr::Sum(ts)) | (Expr::Sum(ts), Expr::Const(c)) => {
                ts.into_iter().fold(Expr::ZERO, |acc, t| {
                    Expr::add(acc, Expr::mul(Expr::Const(c), t))
                })
            }
            (Expr::Prod(mut fs), e) | (e, Expr::Prod(mut fs)) => {
                fs.push(e);
                Expr::Prod(fs)
            }
            (x, y) => Expr::Prod(vec![x, y]),
        }
    }

    /// `floor(e / k)` for `k ≥ 1`.
    pub fn div_floor(e: Expr, k: u64) -> Expr {
        let k = k.max(1);
        if k == 1 {
            return e;
        }
        match e {
            Expr::Const(c) => Expr::Const(c / k),
            other => Expr::Div(Box::new(other), k),
        }
    }

    /// `max(0, e - k)`.
    pub fn sat_sub(e: Expr, k: u64) -> Expr {
        if k == 0 {
            return e;
        }
        match e {
            Expr::Const(c) => Expr::Const(c.saturating_sub(k)),
            other => Expr::SatSub(Box::new(other), k),
        }
    }

    /// `max(a, b)`, folding constants.
    pub fn max(a: Expr, b: Expr) -> Expr {
        match (a, b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.max(y)),
            (x, y) if x == y => x,
            (Expr::Max(mut xs), y) => {
                if !xs.contains(&y) {
                    xs.push(y);
                }
                Expr::Max(xs)
            }
            (x, y) => Expr::Max(vec![x, y]),
        }
    }

    /// Evaluate against concrete parameters (saturating arithmetic).
    /// `None` when the expression references an input the params omit.
    pub fn eval(&self, params: &KernelParams) -> Option<u64> {
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Input(r) => params.get(Reg(*r)),
            Expr::Sum(ts) => ts
                .iter()
                .try_fold(0u64, |acc, t| Some(acc.saturating_add(t.eval(params)?))),
            Expr::Prod(fs) => fs
                .iter()
                .try_fold(1u64, |acc, f| Some(acc.saturating_mul(f.eval(params)?))),
            Expr::Div(e, k) => Some(e.eval(params)? / k.max(&1)),
            Expr::SatSub(e, k) => Some(e.eval(params)?.saturating_sub(*k)),
            Expr::Max(xs) => xs
                .iter()
                .map(|x| x.eval(params))
                .try_fold(0u64, |acc, v| v.map(|v| acc.max(v))),
        }
    }

    /// Input registers the expression depends on, ascending and deduped.
    pub fn inputs(&self) -> Vec<Reg> {
        fn walk(e: &Expr, out: &mut Vec<u8>) {
            match e {
                Expr::Const(_) => {}
                Expr::Input(r) => {
                    if !out.contains(r) {
                        out.push(*r);
                    }
                }
                Expr::Sum(v) | Expr::Prod(v) | Expr::Max(v) => v.iter().for_each(|t| walk(t, out)),
                Expr::Div(b, _) | Expr::SatSub(b, _) => walk(b, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_unstable();
        out.into_iter().map(Reg).collect()
    }

    fn fmt_factor(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Sum(_) | Expr::Div(..) => write!(f, "({self})"),
            _ => write!(f, "{self}"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Input(r) => write!(f, "{}", Reg(*r)),
            Expr::Sum(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            Expr::Prod(fs) => {
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    x.fmt_factor(f)?;
                }
                Ok(())
            }
            Expr::Div(e, k) => {
                e.fmt_factor(f)?;
                write!(f, "/{k}")
            }
            Expr::SatSub(e, k) => write!(f, "max(0, {e} - {k})"),
            Expr::Max(xs) => {
                write!(f, "max(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel parameters and bounds
// ---------------------------------------------------------------------------

/// Concrete launch-time values for the input registers a [`WcetBound`]
/// references.
#[derive(Debug, Clone, Default)]
pub struct KernelParams {
    vals: [Option<u64>; NUM_REGS],
}

impl KernelParams {
    /// No parameters bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind register `r` to `v` (builder-style).
    pub fn set(mut self, r: Reg, v: u64) -> Self {
        self.vals[r.0 as usize] = Some(v);
        self
    }

    /// The value bound to `r`, if any.
    pub fn get(&self, r: Reg) -> Option<u64> {
        self.vals[r.0 as usize]
    }

    /// Parameters carrying every constant input a spec pins
    /// ([`VerifySpec::input_value`] declarations).
    pub fn from_spec(spec: &VerifySpec) -> Self {
        let mut p = Self::new();
        for (r, v) in spec.known_inputs() {
            p.vals[r.0 as usize] = Some(v as u64);
        }
        p
    }
}

/// The result of [`analyze`]: a closed-form worst-case cycle bound, or the
/// reason no bound could be proven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WcetBound {
    /// Proven: the program retires at most `expr(params)` instructions
    /// (= issue-slot cycles) on any run matching the spec.
    Finite(Expr),
    /// No bound provable; the payload says which construct blocked it.
    Unbounded(String),
}

impl WcetBound {
    /// Is a bound proven?
    pub fn is_finite(&self) -> bool {
        matches!(self, WcetBound::Finite(_))
    }

    /// Worst-case retired instructions for concrete parameters. `None` for
    /// unbounded programs or when a referenced input is missing.
    pub fn eval(&self, params: &KernelParams) -> Option<u64> {
        match self {
            WcetBound::Finite(e) => e.eval(params),
            WcetBound::Unbounded(_) => None,
        }
    }
}

impl fmt::Display for WcetBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcetBound::Finite(e) => write!(f, "{e}"),
            WcetBound::Unbounded(why) => write!(f, "unbounded ({why})"),
        }
    }
}

// ---------------------------------------------------------------------------
// Loop discovery shared by the cycle bound and the footprint analysis
// ---------------------------------------------------------------------------

/// One natural loop with a proven trip-count bound.
struct LoopInfo {
    /// Header (back-edge target).
    v: usize,
    /// Body membership (header included).
    body: Vec<bool>,
    /// Bound on body executions.
    trips: Expr,
}

/// The register value *after* executing `pc` from entry state `state`.
fn out_val(program: &[Inst], state: &[AbsVal; NUM_REGS], pc: usize, r: Reg) -> AbsVal {
    match program[pc] {
        Inst::Alu { op, rd, ra, b, .. } if rd == r => {
            let bv = match b {
                Operand::Reg(x) => state[x.0 as usize],
                Operand::Imm(i) => AbsVal::constant(i as i64),
            };
            let av = if op == AluOp::Move {
                bv
            } else {
                state[ra.0 as usize]
            };
            abs_alu(op, av, bv)
        }
        Inst::Lw { rd, .. } if rd == r => AbsVal {
            lo: i32::MIN as i64,
            hi: u32::MAX as i64,
            modulus: 1,
            rem: 0,
        },
        Inst::Lbu { rd, .. } if rd == r => AbsVal {
            lo: 0,
            hi: 255,
            modulus: 1,
            rem: 0,
        },
        _ => state[r.0 as usize],
    }
}

/// The counter's value when control first enters the loop at header `v`.
enum Init {
    /// Symbolic: the declared input register, unmodified since entry.
    Sym(Reg),
    /// A finite abstract interval joined over all loop-entry edges.
    Abs(AbsVal),
    /// Could not be resolved.
    Unknown,
}

#[allow(clippy::too_many_arguments)] // CFG analysis context threaded as-is
fn resolve_init(
    program: &[Inst],
    spec: &VerifySpec,
    states: &[Option<[AbsVal; NUM_REGS]>],
    reachable: &[bool],
    preds: &[Vec<usize>],
    body: &[bool],
    v: usize,
    r: Reg,
) -> Init {
    // Preferred: the register still holds its launch value at loop entry.
    let defined_outside =
        (0..program.len()).any(|x| reachable[x] && !body[x] && def(&program[x]) == Some(r));
    if !defined_outside {
        match spec.input_slot(r) {
            Some(Some(c)) => return Init::Abs(AbsVal::constant(c as i64)),
            Some(None) => return Init::Sym(r),
            None => {}
        }
    }
    // Fallback: join the abstract value over every loop-entry edge.
    let mut joined: Option<AbsVal> = None;
    if v == 0 {
        joined = Some(spec.entry_abs(r.0 as usize));
    }
    for &p in preds[v].iter().filter(|&&p| !body[p] && reachable[p]) {
        let Some(state) = &states[p] else {
            return Init::Unknown;
        };
        let ov = out_val(program, state, p, r);
        joined = Some(match joined {
            None => ov,
            Some(j) => AbsVal::join(j, ov),
        });
    }
    match joined {
        Some(a) if a.hi < BOUND => Init::Abs(a),
        _ => Init::Unknown,
    }
}

/// Bound on body executions of the loop at back-edge `(u, v)`, mirroring the
/// loop-termination pass's counter patterns. `Err` explains the blocker.
#[allow(clippy::too_many_arguments)] // CFG analysis context threaded as-is
fn trip_bound(
    program: &[Inst],
    spec: &VerifySpec,
    states: &[Option<[AbsVal; NUM_REGS]>],
    reachable: &[bool],
    preds: &[Vec<usize>],
    body: &[bool],
    u: usize,
    v: usize,
) -> Result<Expr, String> {
    let n = program.len();
    let init = |r: Reg| resolve_init(program, spec, states, reachable, preds, body, v, r);
    match program[u] {
        // `sub r, r, k` fused `jgez`: runs until r goes negative; from X,
        // the decrement executes floor(X/k)+1 times.
        Inst::Alu {
            op: AluOp::Sub,
            rd,
            ra,
            b: Operand::Imm(k),
            fuse: Some((FuseCond::Gez, t)),
        } if t == v && rd == ra && k > 0 => {
            let solo = (0..n)
                .filter(|&x| body[x] && x != u)
                .all(|x| def(&program[x]) != Some(rd));
            if !solo {
                return Err(format!("loop at {v}: {rd} has extra in-loop writes"));
            }
            let k = k as u64;
            match init(rd) {
                Init::Sym(r) => Ok(Expr::add(
                    Expr::div_floor(Expr::Input(r.0), k),
                    Expr::Const(1),
                )),
                Init::Abs(a) => Ok(Expr::Const(a.hi.max(0) as u64 / k + 1)),
                Init::Unknown => Err(format!("loop at {v}: initial {rd} unresolved")),
            }
        }
        // `sub r, r, k` fused `jnz`: counts down to exactly zero — exact
        // X/k trips, but only when X provably cannot step over zero.
        Inst::Alu {
            op: AluOp::Sub,
            rd,
            ra,
            b: Operand::Imm(k),
            fuse: Some((FuseCond::Nz, t)),
        } if t == v && rd == ra && k > 0 => {
            let solo = (0..n)
                .filter(|&x| x != u)
                .all(|x| def(&program[x]) != Some(rd));
            let k = k as u64;
            if nz_countdown_proven(program, spec, u, rd, k as i32) {
                return Ok(Expr::div_floor(Expr::Input(rd.0), k));
            }
            if solo {
                if let Init::Abs(a) = init(rd) {
                    if a.is_const() && a.lo > 0 && (a.lo as u64).is_multiple_of(k) {
                        return Ok(Expr::Const(a.lo as u64 / k));
                    }
                }
            }
            Err(format!(
                "loop at {v}: jnz countdown on {rd} may step over zero \
                 (declare it input_multiple({rd}, {k}))"
            ))
        }
        // Separate `jgt`/`jge` branch: every in-loop write must be a
        // strict decrease, and every iteration must pass one.
        Inst::Jcc {
            cond: cond @ (JumpCond::Gt | JumpCond::Ge),
            ra,
            b: Operand::Imm(c),
            target,
        } if target == v => {
            let defs: Vec<usize> = (0..n)
                .filter(|&x| body[x] && def(&program[x]) == Some(ra))
                .collect();
            let mut k_min = u64::MAX;
            for &x in &defs {
                match program[x] {
                    Inst::Alu {
                        op: AluOp::Sub,
                        rd,
                        ra: a,
                        b: Operand::Imm(k),
                        ..
                    } if rd == a && k > 0 => k_min = k_min.min(k as u64),
                    _ => {
                        return Err(format!(
                            "loop at {v}: {ra} write at {x} is not a constant decrement"
                        ))
                    }
                }
            }
            if defs.is_empty() {
                return Err(format!("loop at {v}: {ra} never decremented in loop"));
            }
            // Every header-to-branch path must pass a decrement: BFS from v
            // through the body avoiding the decrement pcs must not reach u.
            let mut seen = vec![false; n];
            let mut work = vec![v];
            seen[v] = true;
            while let Some(x) = work.pop() {
                if x == u {
                    return Err(format!(
                        "loop at {v}: a path reaches the branch at {u} without \
                         decrementing {ra}"
                    ));
                }
                if defs.contains(&x) {
                    continue;
                }
                for s in successors(program, x) {
                    if body[s] && s != v && !std::mem::replace(&mut seen[s], true) {
                        work.push(s);
                    }
                }
            }
            // Continue while r > c (Gt) / r ≥ c (Ge); each iteration drops
            // r by ≥ k_min: trips ≤ floor((X - t)/k_min) + 1, t = c+1 / c.
            let t = if cond == JumpCond::Gt {
                c as i64 + 1
            } else {
                c as i64
            };
            let over_k_plus_1 = |e: Expr| Expr::add(Expr::div_floor(e, k_min), Expr::Const(1));
            match init(ra) {
                Init::Sym(r) => {
                    let x = Expr::Input(r.0);
                    let shifted = if t >= 0 {
                        Expr::sat_sub(x, t as u64)
                    } else {
                        Expr::add(x, Expr::Const((-t) as u64))
                    };
                    Ok(over_k_plus_1(shifted))
                }
                Init::Abs(a) => {
                    let shifted = (a.hi - t).max(0) as u64;
                    Ok(over_k_plus_1(Expr::Const(shifted)))
                }
                Init::Unknown => Err(format!("loop at {v}: initial {ra} unresolved")),
            }
        }
        _ => Err(format!(
            "back-edge {u} -> {v} has no recognized decreasing-counter pattern"
        )),
    }
}

/// Find all natural loops with proven trip bounds, innermost first.
/// `Err` when any back edge lacks a bound or loops overlap irreducibly.
fn find_loops(
    program: &[Inst],
    spec: &VerifySpec,
    states: &[Option<[AbsVal; NUM_REGS]>],
    reachable: &[bool],
    preds: &[Vec<usize>],
) -> Result<Vec<LoopInfo>, String> {
    let mut loops: Vec<LoopInfo> = Vec::new();
    for (u, v) in back_edges(program) {
        if loops.iter().any(|l| l.v == v) {
            return Err(format!("multiple back edges share the header at {v}"));
        }
        let body = natural_loop(program, preds, u, v);
        let trips = trip_bound(program, spec, states, reachable, preds, &body, u, v)?;
        loops.push(LoopInfo { v, body, trips });
    }
    loops.sort_by_key(|l| l.body.iter().filter(|&&b| b).count());
    for i in 0..loops.len() {
        for j in i + 1..loops.len() {
            let (a, b) = (&loops[i].body, &loops[j].body);
            let nested = (0..a.len()).all(|x| !a[x] || b[x]);
            let disjoint = (0..a.len()).all(|x| !(a[x] && b[x]));
            if !nested && !disjoint {
                return Err(format!(
                    "loops at {} and {} overlap irreducibly",
                    loops[i].v, loops[j].v
                ));
            }
        }
    }
    Ok(loops)
}

// ---------------------------------------------------------------------------
// The cycle bound
// ---------------------------------------------------------------------------

/// Derive the symbolic worst-case bound on retired instructions for
/// `program` under `spec`. See the module docs for the method.
pub fn analyze(program: &[Inst], spec: &VerifySpec) -> WcetBound {
    match analyze_inner(program, spec) {
        Ok(e) => WcetBound::Finite(e),
        Err(why) => WcetBound::Unbounded(why),
    }
}

fn analyze_inner(program: &[Inst], spec: &VerifySpec) -> Result<Expr, String> {
    if program.is_empty() {
        return Ok(Expr::ZERO);
    }
    let reachable = reach(program);
    let preds = pred_map(program, &reachable);
    let states = abstract_states(program, spec);
    let loops = find_loops(program, spec, &states, &reachable, &preds)?;

    // Collapse loops innermost-first: the header becomes a super-node
    // costing trips × longest-body-path, body nodes die, exit edges hoist
    // to the header.
    let n = program.len();
    let mut cost: Vec<Expr> = (0..n).map(|_| Expr::Const(1)).collect();
    let mut succ: Vec<Vec<usize>> = (0..n).map(|pc| successors(program, pc)).collect();
    let mut alive = reachable.clone();
    for l in &loops {
        // A natural loop is single-entry; anything else the DFS would have
        // classified differently, but check rather than assume.
        for x in (0..n).filter(|&x| alive[x] && !l.body[x]) {
            if let Some(&b) = succ[x].iter().find(|&&s| l.body[s] && s != l.v) {
                return Err(format!("loop at {} has a side entry at {b}", l.v));
            }
        }
        let body_cost = longest_path(&succ, &cost, &alive, &l.body, l.v)
            .ok_or_else(|| format!("loop at {} is not reducible", l.v))?;
        cost[l.v] = Expr::mul(l.trips.clone(), body_cost);
        let mut exits: Vec<usize> = Vec::new();
        for x in (0..n).filter(|&x| alive[x] && l.body[x]) {
            for &s in &succ[x] {
                if !l.body[s] && !exits.contains(&s) {
                    exits.push(s);
                }
            }
        }
        succ[l.v] = exits;
        for x in (0..n).filter(|&x| x != l.v) {
            if l.body[x] {
                alive[x] = false;
            }
        }
    }
    if !alive[0] {
        return Err("entry collapsed into a loop body".to_string());
    }
    let all = vec![true; n];
    longest_path(&succ, &cost, &alive, &all, 0)
        .ok_or_else(|| "residual control flow is cyclic".to_string())
}

/// Longest path (by summed node cost) from `entry` over alive nodes within
/// `members`, ignoring edges into `entry`. `None` if the region is cyclic.
fn longest_path(
    succ: &[Vec<usize>],
    cost: &[Expr],
    alive: &[bool],
    members: &[bool],
    entry: usize,
) -> Option<Expr> {
    let n = succ.len();
    let node_ok = |x: usize| alive[x] && members[x];
    // Kahn topo sort of the region reachable from entry.
    let mut indeg = vec![0usize; n];
    let mut seen = vec![false; n];
    let mut work = vec![entry];
    seen[entry] = true;
    let mut region = Vec::new();
    while let Some(x) = work.pop() {
        region.push(x);
        for &s in &succ[x] {
            if node_ok(s) && s != entry {
                indeg[s] += 1;
                if !std::mem::replace(&mut seen[s], true) {
                    work.push(s);
                }
            }
        }
    }
    let mut order = Vec::with_capacity(region.len());
    let mut ready: Vec<usize> = vec![entry];
    while let Some(x) = ready.pop() {
        order.push(x);
        for &s in &succ[x] {
            if node_ok(s) && s != entry {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
    }
    if order.len() != region.len() {
        return None; // residual cycle
    }
    let mut dist: Vec<Option<Expr>> = vec![None; n];
    dist[entry] = Some(cost[entry].clone());
    let mut best = cost[entry].clone();
    for &x in &order {
        let Some(dx) = dist[x].clone() else { continue };
        for &s in &succ[x] {
            if node_ok(s) && s != entry {
                let cand = Expr::add(dx.clone(), cost[s].clone());
                let merged = match dist[s].take() {
                    None => cand,
                    Some(prev) => Expr::max(prev, cand),
                };
                best = Expr::max(best.clone(), merged.clone());
                dist[s] = Some(merged);
            }
        }
    }
    Some(best)
}

// ---------------------------------------------------------------------------
// WRAM footprint and the cross-tasklet partition proof
// ---------------------------------------------------------------------------

/// Byte-interval footprint of one tasklet's program over its WRAM frame.
/// Intervals are inclusive `[lo, hi]` and may overlap each other.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    /// Bytes the program may read.
    pub reads: Vec<(i64, i64)>,
    /// Bytes the program may write.
    pub writes: Vec<(i64, i64)>,
}

impl Footprint {
    fn push(&mut self, write: bool, lo: i64, hi: i64) {
        if write {
            self.writes.push((lo, hi));
        } else {
            self.reads.push((lo, hi));
        }
    }
}

/// Bound every WRAM access of `program` under a fully-instantiated `spec`
/// (pointer inputs pinned with [`VerifySpec::input_value`], loop counters
/// evaluable). Loop-carried pointers use linear progressions — all in-loop
/// writes of the base must be `add/sub base, base, const` — scaled by the
/// loop's proven trip count, which the interval widening of the plain
/// abstract domain cannot retain.
pub fn wram_footprint(program: &[Inst], spec: &VerifySpec) -> Result<Footprint, String> {
    let reachable = reach(program);
    let preds = pred_map(program, &reachable);
    let states = abstract_states(program, spec);
    let loops = find_loops(program, spec, &states, &reachable, &preds)?;
    let params = KernelParams::from_spec(spec);
    // Concrete trip counts per loop, innermost order matching `loops`.
    let mut trips: Vec<u64> = Vec::with_capacity(loops.len());
    for l in &loops {
        let t = l.trips.eval(&params).ok_or_else(|| {
            format!(
                "trip count for loop at {} depends on an unpinned input ({})",
                l.v, l.trips
            )
        })?;
        trips.push(t);
    }

    let mut fp = Footprint::default();
    for pc in (0..program.len()).filter(|&pc| reachable[pc]) {
        let (base, off, width, write) = match program[pc] {
            Inst::Lw { base, off, .. } => (base, off, 4i64, false),
            Inst::Sw { base, off, .. } => (base, off, 4i64, true),
            Inst::Lbu { base, off, .. } => (base, off, 1i64, false),
            Inst::Sb { base, off, .. } => (base, off, 1i64, true),
            _ => continue,
        };
        let state = states[pc]
            .as_ref()
            .ok_or_else(|| format!("no abstract state at {pc}"))?;
        let addr = abs_alu(
            AluOp::Add,
            state[base.0 as usize],
            AbsVal::constant(off as i64),
        );
        if addr.lo > -BOUND && addr.hi < BOUND {
            fp.push(write, addr.lo, addr.hi + width - 1);
            continue;
        }
        // Widened away: try the loop-linear progression.
        let holders: Vec<usize> = (0..loops.len()).filter(|&i| loops[i].body[pc]).collect();
        let &li = holders
            .first()
            .ok_or_else(|| format!("unbounded address at {pc} outside any loop"))?;
        if holders.len() > 1 {
            return Err(format!(
                "address at {pc} lives in nested loops; progression analysis \
                 handles one level"
            ));
        }
        let l = &loops[li];
        let t = trips[li] as i64;
        let mut delta_pos = 0i64;
        let mut delta_neg = 0i64;
        let mut prefix_pos = 0i64;
        let mut prefix_neg = 0i64;
        for x in (0..program.len()).filter(|&x| l.body[x] && reachable[x]) {
            match program[x] {
                _ if def(&program[x]) != Some(base) => {}
                Inst::Alu {
                    op: op @ (AluOp::Add | AluOp::Sub),
                    rd,
                    ra,
                    b: Operand::Imm(c),
                    ..
                } if rd == base && ra == base => {
                    let d = if op == AluOp::Add {
                        c as i64
                    } else {
                        -(c as i64)
                    };
                    delta_pos += d.max(0);
                    delta_neg += d.min(0);
                    if x < pc {
                        prefix_pos += d.max(0);
                        prefix_neg += d.min(0);
                    }
                }
                _ => {
                    return Err(format!(
                        "pointer {base} at {pc} is not a linear progression \
                         (write at {x})"
                    ))
                }
            }
        }
        let init = match resolve_init(
            program, spec, &states, &reachable, &preds, &l.body, l.v, base,
        ) {
            Init::Abs(a) if a.lo > -BOUND && a.hi < BOUND => a,
            _ => {
                return Err(format!(
                    "initial value of pointer {base} at loop {} unresolved",
                    l.v
                ))
            }
        };
        // In a forward-only body (control never moves backward except via
        // the back edge), an access in iteration i sees at most i full
        // per-iteration deltas plus the deltas textually before it — so the
        // last iteration (i = t-1) bounds the range exactly, one iteration
        // tighter than scaling by t. That tightness is what keeps adjacent
        // tasklets' chunks disjoint in the partition proof.
        let forward_only = (0..program.len())
            .filter(|&x| l.body[x] && reachable[x])
            .all(|x| {
                successors(program, x)
                    .into_iter()
                    .all(|s| !l.body[s] || s > x || s == l.v)
            });
        let (lo, hi) = if forward_only {
            let i_last = (t - 1).max(0);
            (
                init.lo + off as i64 + i_last.saturating_mul(delta_neg) + prefix_neg,
                init.hi + off as i64 + i_last.saturating_mul(delta_pos) + prefix_pos + width - 1,
            )
        } else {
            (
                init.lo + off as i64 + t.saturating_mul(delta_neg),
                init.hi + off as i64 + t.saturating_mul(delta_pos) + width - 1,
            )
        };
        fp.push(write, lo, hi);
    }
    Ok(fp)
}

fn overlap(a: (i64, i64), b: (i64, i64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// Prove the tasklets' WRAM accesses race-free for one barrier-to-barrier
/// phase: every tasklet's writes must be disjoint from every *other*
/// tasklet's reads and writes (overlapping reads are fine — PREV rows and
/// sequence data are shared read-only). `specs` carries one
/// fully-instantiated spec per tasklet.
pub fn prove_partition(program: &[Inst], specs: &[VerifySpec]) -> Result<(), String> {
    let fps: Vec<Footprint> = specs
        .iter()
        .map(|s| wram_footprint(program, s))
        .collect::<Result<_, _>>()?;
    for (i, a) in fps.iter().enumerate() {
        for (j, b) in fps.iter().enumerate() {
            if i == j {
                continue;
            }
            for &w in &a.writes {
                if let Some(&r) = b.reads.iter().find(|&&r| overlap(w, r)) {
                    return Err(format!(
                        "tasklet {i} writes {}..={} overlapping tasklet {j} reads {}..={}",
                        w.0, w.1, r.0, r.1
                    ));
                }
                if let Some(&x) = b.writes.iter().find(|&&x| overlap(w, x)) {
                    return Err(format!(
                        "tasklet {i} writes {}..={} overlapping tasklet {j} writes {}..={}",
                        w.0, w.1, x.0, x.1
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;

    fn r(i: u8) -> Reg {
        Reg(i)
    }

    #[test]
    fn straight_line_bound_is_program_length() {
        let prog = assemble(
            "move r1, 4
             add r2, r1, 5
             halt",
        )
        .unwrap();
        let b = analyze(&prog, &VerifySpec::new());
        assert_eq!(b, WcetBound::Finite(Expr::Const(3)));
    }

    #[test]
    fn branchy_program_takes_the_longer_arm() {
        let prog = assemble(
            "jeq r0, 0, yes
             halt
             yes: add r1, r0, 1
             add r1, r1, 1
             add r1, r1, 1
             halt",
        )
        .unwrap();
        let b = analyze(&prog, &VerifySpec::new());
        // jeq + 3 adds + halt = 5, vs jeq + halt = 2.
        assert_eq!(b, WcetBound::Finite(Expr::Const(5)));
    }

    #[test]
    fn gez_countdown_yields_symbolic_bound() {
        let prog = assemble(
            "loop: add r2, r2, 1
             sub r1, r1, 1, jgez loop
             halt",
        )
        .unwrap();
        let spec = VerifySpec::new().input(r(1)).input(r(2));
        let b = analyze(&prog, &spec);
        let WcetBound::Finite(e) = &b else {
            panic!("expected finite, got {b}");
        };
        assert_eq!(e.inputs(), vec![r(1)]);
        // X = 3: body runs 4 times (3,2,1,0) then halt.
        let got = b.eval(&KernelParams::new().set(r(1), 3)).unwrap();
        assert_eq!(got, 2 * 4 + 1);
    }

    #[test]
    fn jcc_countdown_matches_dynamic_count() {
        let prog = assemble(
            "loop: add r2, r2, 1
             sub r1, r1, 1
             jgt r1, 0, loop
             halt",
        )
        .unwrap();
        let spec = VerifySpec::new().input(r(1)).input(r(2));
        let b = analyze(&prog, &spec);
        // X iterations of 3 instructions, plus halt.
        let got = b.eval(&KernelParams::new().set(r(1), 10)).unwrap();
        assert_eq!(got, 3 * 10 + 1);
    }

    #[test]
    fn constant_init_loop_folds_to_a_constant() {
        let prog = assemble(
            "move r1, 8
             loop: add r2, r2, 1
             sub r1, r1, 1
             jgt r1, 0, loop
             halt",
        )
        .unwrap();
        let spec = VerifySpec::new().input(r(2));
        let b = analyze(&prog, &spec);
        assert_eq!(b, WcetBound::Finite(Expr::Const(1 + 3 * 8 + 1)));
    }

    #[test]
    fn nz_countdown_needs_the_multiple_contract() {
        let src = "loop: add r2, r2, 1
                   sub r1, r1, 4, jnz loop
                   halt";
        let prog = assemble(src).unwrap();
        let plain = VerifySpec::new().input(r(1)).input(r(2));
        assert!(!analyze(&prog, &plain).is_finite(), "no contract, no bound");
        let declared = VerifySpec::new().input_multiple(r(1), 4).input(r(2));
        let b = analyze(&prog, &declared);
        let got = b.eval(&KernelParams::new().set(r(1), 40)).unwrap();
        assert_eq!(got, 2 * 10 + 1);
    }

    #[test]
    fn infinite_loop_is_unbounded() {
        let prog = assemble(
            "loop: add r1, r1, 1
             jmp loop",
        )
        .unwrap();
        let b = analyze(&prog, &VerifySpec::new().input(r(1)));
        assert!(!b.is_finite());
    }

    #[test]
    fn nested_constant_loops_multiply() {
        let prog = assemble(
            "move r1, 4
             outer: move r2, 3
             inner: add r3, r3, 1
             sub r2, r2, 1
             jgt r2, 0, inner
             sub r1, r1, 1
             jgt r1, 0, outer
             halt",
        )
        .unwrap();
        let b = analyze(&prog, &VerifySpec::new().input(r(3)));
        // Exact dynamic count: 1 + 4*(1 + 3*3 + 2) + 1 = 50.
        let got = b.eval(&KernelParams::new()).unwrap();
        assert!(got >= 50, "bound {got} must cover the 50 retired");
        assert!(got <= 60, "bound {got} should stay tight");
    }

    #[test]
    fn footprint_of_a_store_loop() {
        // Writes 8 words at r2, r2+4, ..., r2+28.
        let prog = assemble(
            "move r1, 8
             loop: sw r3, r2, 0
             add r2, r2, 4
             sub r1, r1, 1
             jgt r1, 0, loop
             halt",
        )
        .unwrap();
        let spec = VerifySpec::new()
            .input_value(r(2), 0x100)
            .input(r(3))
            .frame(0x200);
        let fp = wram_footprint(&prog, &spec).unwrap();
        assert_eq!(fp.writes.len(), 1);
        let (lo, hi) = fp.writes[0];
        assert!(lo <= 0x100 && hi >= 0x100 + 7 * 4 + 3, "covers {lo}..{hi}");
        assert!(hi < 0x100 + 8 * 4 + 4, "stays near the true extent, {hi}");
    }

    #[test]
    fn partition_proof_distinguishes_disjoint_from_overlapping() {
        let prog = assemble(
            "move r1, 8
             loop: sw r3, r2, 0
             add r2, r2, 4
             sub r1, r1, 1
             jgt r1, 0, loop
             halt",
        )
        .unwrap();
        let spec_at = |base: u32| {
            VerifySpec::new()
                .input_value(r(2), base)
                .input(r(3))
                .frame(0x400)
        };
        let disjoint = [spec_at(0x000), spec_at(0x040), spec_at(0x080)];
        assert!(prove_partition(&prog, &disjoint).is_ok());
        let clashing = [spec_at(0x000), spec_at(0x010)];
        let err = prove_partition(&prog, &clashing).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");
    }

    #[test]
    fn display_is_compact() {
        let e = Expr::add(
            Expr::Const(7),
            Expr::mul(Expr::Const(51), Expr::div_floor(Expr::Input(1), 4)),
        );
        assert_eq!(e.to_string(), "7 + 51*(r1/4)");
    }
}
