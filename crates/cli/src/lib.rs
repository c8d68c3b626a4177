#![warn(missing_docs)]

//! Library backing the `upmem-nw` command-line tool.
//!
//! Commands (see `main.rs` for flag parsing):
//!
//! * `align` — pair up records of two FASTA files and align them, on the
//!   host CPU (adaptive / static / WFA / exact) or through the simulated
//!   PiM server; TSV results on stdout.
//! * `matrix` — all-vs-all score matrix of one FASTA file on the PiM
//!   server (the 16S workflow).
//! * `generate` — write any of the paper's five datasets as FASTA.
//! * `chaos` — fault-injection smoke test: align synthetic pairs on a
//!   server with a seeded fault plan through the fault-tolerant
//!   dispatcher, and fail unless every job completes with the score *and
//!   CIGAR* the fault-free CPU reference produces (a score-only oracle
//!   would miss silently corrupted CIGARs).
//! * `info` — print the simulated server topology.
//! * `lint` — statically verify the built-in DPU inner-loop kernels
//!   (control flow, register def-use, WRAM address analysis) and run them
//!   under the runtime sanitizer; nonzero exit on any error.

use datasets::fasta::{self, Record};
use datasets::pacbio::PacbioParams;
use datasets::sixteen_s::SixteenSParams;
use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use datasets::Scale;
use dpu_kernel::{JobStatus, KernelParams, NwKernel};
use nw_core::adaptive::AdaptiveAligner;
use nw_core::banded::BandedAligner;
use nw_core::full::FullAligner;
use nw_core::seq::{DnaSeq, NPolicy};
use nw_core::wfa::{Penalties, WfaAligner};
use nw_core::{Alignment, ScoringScheme};
use pim_host::deadline::DeadlinePolicy;
use pim_host::dispatch::{DispatchConfig, Engine};
use pim_host::modes::{align_pairs, all_vs_all};
use pim_host::recovery::{align_pairs_recovering, RecoveryConfig};
use pim_host::report::ExecutionReport;
use pim_sim::{FaultPlan, PimServer, ServerConfig};
use std::fmt::Write as _;

pub mod crash;
pub mod serve;
pub use crash::{cmd_chaos_crash, CrashOpts};
pub use serve::cmd_serve;

/// Install the Ctrl-C / SIGTERM handler for the one-shot subcommands:
/// instead of the process dying mid-write, the dispatch engines stop
/// planning, cancel in-flight launches through the rank cancel tokens, and
/// wind down — strict runs report a clean "interrupted" error, recovery
/// runs return a partial report with interrupted jobs accounted.
pub fn install_interrupt_handler() {
    pim_host::interrupt::install_handler();
}

/// Which aligner the `align` command uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Adaptive banded (the paper's DPU algorithm), host-side.
    Adaptive,
    /// Static banded (the KSW2 baseline).
    Static,
    /// Gap-affine wavefront (exact).
    Wfa,
    /// Full Gotoh DP (exact; quadratic memory with traceback).
    Exact,
    /// The full simulated PiM pipeline.
    Pim,
}

impl Algo {
    /// Parse a command-line name.
    pub fn parse(text: &str) -> Option<Algo> {
        Some(match text {
            "adaptive" => Algo::Adaptive,
            "static" => Algo::Static,
            "wfa" => Algo::Wfa,
            "exact" => Algo::Exact,
            "pim" => Algo::Pim,
            _ => return None,
        })
    }
}

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// IO problem reading/writing files.
    Io(std::io::Error),
    /// FASTA parse problem.
    Fasta(String),
    /// Alignment failure (band too small etc.).
    Align(String),
    /// Bad usage.
    Usage(String),
    /// The lint pass found errors; the payload is the full report.
    Lint(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Fasta(e) => write!(f, "fasta: {e}"),
            CliError::Align(e) => write!(f, "align: {e}"),
            CliError::Usage(e) => write!(f, "usage: {e}"),
            CliError::Lint(report) => write!(f, "lint found errors\n{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Read a FASTA file with the paper's `N` policy.
pub fn read_fasta(path: &str) -> Result<Vec<Record>, CliError> {
    let file = std::fs::File::open(path)?;
    fasta::read(
        std::io::BufReader::new(file),
        NPolicy::RandomSubstitute { seed: 0x4E },
    )
    .map_err(|e| CliError::Fasta(e.to_string()))
}

/// Align records of `a_path` with same-index records of `b_path`; returns
/// TSV lines `name_a name_b score cigar identity`.
///
/// `cache_capacity > 0` runs the pairs on the PiM lane whatever `algo`
/// says, through a content-addressed result cache of that capacity
/// ([`pim_host::align_pairs_cached`]): repeated pairs are served without
/// recomputation, the misses run as one recovering engine ticket.
#[allow(clippy::too_many_arguments)]
pub fn cmd_align(
    a_path: &str,
    b_path: &str,
    algo: Algo,
    band: usize,
    ranks: usize,
    fifo_depth: usize,
    sim_threads: usize,
    audit: bool,
    cache_capacity: usize,
) -> Result<String, CliError> {
    let a_recs = read_fasta(a_path)?;
    let b_recs = read_fasta(b_path)?;
    if a_recs.len() != b_recs.len() {
        return Err(CliError::Usage(format!(
            "record count mismatch: {} vs {}",
            a_recs.len(),
            b_recs.len()
        )));
    }
    let scheme = ScoringScheme::default();
    let mut note: Option<String> = None;
    let mut out = String::from("#name_a\tname_b\tscore\tcigar\tidentity\n");
    let mut emit = |ra: &Record, rb: &Record, aln: &Alignment| {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{:.4}",
            ra.name,
            rb.name,
            aln.score,
            aln.cigar,
            aln.identity()
        );
    };
    // The cache sits in front of the PiM lane only.
    let algo = if cache_capacity > 0 { Algo::Pim } else { algo };
    match algo {
        Algo::Pim => {
            let pairs: Vec<(DnaSeq, DnaSeq)> = a_recs
                .iter()
                .zip(&b_recs)
                .map(|(x, y)| (x.seq.clone(), y.seq.clone()))
                .collect();
            let mut server = PimServer::new(ServerConfig::with_ranks(ranks.max(1)));
            let params = KernelParams {
                band: band.next_multiple_of(16).max(16),
                scheme,
                score_only: false,
            };
            let mut cfg = DispatchConfig::new(NwKernel::paper_default(), params);
            cfg.engine = Engine::Pipelined {
                fifo_depth: fifo_depth.max(1),
            };
            cfg.sim_threads = sim_threads;
            cfg.audit = audit;
            let results = if cache_capacity > 0 {
                let rcfg = RecoveryConfig {
                    audit,
                    ..RecoveryConfig::default()
                };
                let mut cache = pim_host::ResultCache::new(cache_capacity);
                let run =
                    pim_host::align_pairs_cached(&mut server, &cfg, &rcfg, &pairs, &mut cache)
                        .map_err(|e| CliError::Align(e.to_string()))?;
                let c = run.cache;
                note = Some(format!(
                    "# cache: {}/{} hits, {} inserted, {} evicted",
                    c.hits, c.lookups, c.inserts, c.evictions
                ));
                run.results
            } else {
                let (report, results) = align_pairs(&mut server, &cfg, &pairs)
                    .map_err(|e| CliError::Align(e.to_string()))?;
                if audit && report.fault.audit_failures > 0 {
                    return Err(CliError::Align(format!(
                        "audit rejected {} of {} results: a returned CIGAR \
                         disagrees with its sequences or score",
                        report.fault.audit_failures, report.fault.audit_checked
                    )));
                }
                if audit {
                    note = Some(format!(
                        "# audited {} results, 0 failed",
                        report.fault.audit_checked
                    ));
                }
                results
            };
            for ((ra, rb), r) in a_recs.iter().zip(&b_recs).zip(results) {
                let aln = Alignment {
                    score: r.score,
                    cigar: r.cigar,
                };
                emit(ra, rb, &aln);
            }
        }
        _ => {
            for (ra, rb) in a_recs.iter().zip(&b_recs) {
                let aln = match algo {
                    Algo::Adaptive => AdaptiveAligner::new(scheme, band)
                        .align(&ra.seq, &rb.seq)
                        .map_err(|e| CliError::Align(e.to_string()))?,
                    Algo::Static => BandedAligner::new(scheme, band)
                        .align(&ra.seq, &rb.seq)
                        .map_err(|e| CliError::Align(e.to_string()))?,
                    Algo::Exact => FullAligner::affine(scheme)
                        .align(&ra.seq, &rb.seq)
                        .map_err(|e| CliError::Align(e.to_string()))?,
                    Algo::Wfa => {
                        let pens = Penalties::from_scheme(&scheme);
                        let w = WfaAligner::new(pens)
                            .align(&ra.seq, &rb.seq)
                            .map_err(|e| CliError::Align(e.to_string()))?;
                        let score =
                            pens.penalty_to_score(&scheme, ra.seq.len(), rb.seq.len(), w.penalty);
                        Alignment {
                            score,
                            cigar: w.cigar,
                        }
                    }
                    Algo::Pim => unreachable!(),
                };
                emit(ra, rb, &aln);
            }
        }
    }
    if let Some(note) = note {
        let _ = writeln!(out, "{note}");
    }
    Ok(out)
}

/// All-vs-all score matrix on the simulated PiM server; TSV of
/// `name_i name_j score`.
pub fn cmd_matrix(path: &str, band: usize, ranks: usize) -> Result<String, CliError> {
    let recs = read_fasta(path)?;
    let seqs: Vec<DnaSeq> = recs.iter().map(|r| r.seq.clone()).collect();
    let mut server = PimServer::new(ServerConfig::with_ranks(ranks.max(1)));
    let params = KernelParams {
        band: band.next_multiple_of(16).max(16),
        scheme: ScoringScheme::default(),
        score_only: true,
    };
    let cfg = DispatchConfig::new(NwKernel::paper_default(), params);
    let (_report, results) =
        all_vs_all(&mut server, &cfg, &seqs).map_err(|e| CliError::Align(e.to_string()))?;
    let mut out = String::from("#name_i\tname_j\tscore\n");
    let mut idx = 0;
    for i in 0..recs.len() {
        for j in (i + 1)..recs.len() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}",
                recs[i].name, recs[j].name, results[idx].score
            );
            idx += 1;
        }
    }
    Ok(out)
}

/// Generate a dataset as FASTA text. For pair datasets the records
/// alternate `pairK/a`, `pairK/b`; PacBio sets are named `setK/readJ`.
pub fn cmd_generate(kind: &str, count: usize, seed: u64) -> Result<String, CliError> {
    let mut records = Vec::new();
    match kind {
        "s1000" | "s10000" | "s30000" => {
            let preset = match kind {
                "s1000" => SyntheticPreset::S1000,
                "s10000" => SyntheticPreset::S10000,
                _ => SyntheticPreset::S30000,
            };
            for (k, (a, b)) in SyntheticParams::preset(preset, seed)
                .generate(count)
                .into_iter()
                .enumerate()
            {
                records.push(Record {
                    name: format!("pair{k}/a"),
                    seq: a,
                });
                records.push(Record {
                    name: format!("pair{k}/b"),
                    seq: b,
                });
            }
        }
        "16s" => {
            let params = SixteenSParams {
                count,
                ..SixteenSParams::scaled(Scale::FULL, seed)
            };
            for (k, seq) in params.generate().into_iter().enumerate() {
                records.push(Record {
                    name: format!("rrna{k}"),
                    seq,
                });
            }
        }
        "pacbio" => {
            let params = PacbioParams {
                sets: count,
                ..PacbioParams::scaled(Scale::FULL, seed)
            };
            for (k, set) in params.generate().into_iter().enumerate() {
                for (j, read) in set.reads.into_iter().enumerate() {
                    records.push(Record {
                        name: format!("set{k}/read{j}"),
                        seq: read,
                    });
                }
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset {other:?} (expected s1000|s10000|s30000|16s|pacbio)"
            )))
        }
    }
    Ok(fasta::write_string(&records))
}

/// Statically verify every built-in DPU kernel, derive its symbolic WCET
/// bound and cross-tasklet race-freedom proof, and run each under the
/// runtime sanitizer. Returns the report; `Err(CliError::Lint)` if any
/// verifier error, sanitizer fault, or unbounded kernel was found.
/// `verbose` includes info diagnostics (termination proofs,
/// unproven-access summaries); `json` renders the same facts as a
/// machine-readable object (all diagnostics included).
pub fn cmd_lint(verbose: bool, json: bool) -> Result<String, CliError> {
    use dpu_kernel::isa_loops;
    use dpu_kernel::KernelVariant;
    use pim_sim::isa::{verify_program, KernelParams, Reg, Severity};
    use upmem_nw_service::json::escape;

    let mut out = String::new();
    let mut kernel_json = Vec::new();
    let mut kernels = 0usize;
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    for (variant, vname) in [
        (KernelVariant::PureC, "pure_c"),
        (KernelVariant::Asm, "asm"),
    ] {
        for with_bt in [false, true] {
            kernels += 1;
            let name = format!(
                "{vname}/{}",
                if with_bt { "traceback" } else { "score_only" }
            );
            let prog = isa_loops::program(variant, with_bt);
            let spec = isa_loops::verify_spec(variant);
            let diags = verify_program(&prog, &spec);
            let errors = diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count();
            let warnings = diags
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count();
            total_errors += errors;
            total_warnings += warnings;
            let _ = writeln!(
                out,
                "{name}: {} instructions, {errors} errors, {warnings} warnings",
                prog.len()
            );
            for d in &diags {
                if verbose || d.severity != Severity::Info {
                    let _ = writeln!(out, "  {d}");
                }
            }
            let sanitizer = match isa_loops::measure_sanitized(variant, with_bt) {
                Ok(m) => {
                    if verbose {
                        let _ = writeln!(
                            out,
                            "  sanitizer: clean ({:.1} instr/cell over {} cells)",
                            m.instr_per_cell, m.cells
                        );
                    }
                    "clean".to_string()
                }
                Err(e) => {
                    total_errors += 1;
                    let _ = writeln!(out, "  sanitizer: {e}");
                    e.to_string()
                }
            };
            // Symbolic worst-case bound in terms of the kernel's declared
            // inputs (r1 = remaining cells). An unbounded shipped kernel is
            // a lint error: no watchdog budget can be derived for it.
            let bound = isa_loops::kernel_wcet(variant, with_bt);
            let eval_192 = bound.eval(&KernelParams::new().set(
                Reg::new(1).expect("r1 exists"),
                isa_loops::PROOF_CELLS as u64,
            ));
            let race_free = isa_loops::prove_race_free(variant, with_bt);
            if bound.is_finite() {
                let _ = writeln!(
                    out,
                    "  wcet: {bound} instructions (<= {} at {} cells)",
                    eval_192
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "?".into()),
                    isa_loops::PROOF_CELLS,
                );
            } else {
                total_errors += 1;
                let _ = writeln!(out, "  wcet: {bound}");
            }
            match &race_free {
                Ok(()) => {
                    let _ = writeln!(
                        out,
                        "  race-freedom: proven for {} tasklets (cost measurement skips the sanitizer)",
                        isa_loops::PROOF_TASKLETS,
                    );
                }
                Err(e) => {
                    let _ = writeln!(out, "  race-freedom: unproven ({e})");
                }
            }
            let diag_json: Vec<String> = diags
                .iter()
                .map(|d| format!("\"{}\"", escape(&d.to_string())))
                .collect();
            kernel_json.push(format!(
                "{{\"kernel\": \"{}\", \"instructions\": {}, \"errors\": {errors}, \
                 \"warnings\": {warnings}, \"diagnostics\": [{}], \"sanitizer\": \"{}\", \
                 \"wcet\": {{\"finite\": {}, \"bound\": \"{}\", \"eval_at_{}_cells\": {}}}, \
                 \"race_free\": {}}}",
                escape(&name),
                prog.len(),
                diag_json.join(", "),
                escape(&sanitizer),
                bound.is_finite(),
                escape(&bound.to_string()),
                isa_loops::PROOF_CELLS,
                eval_192
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "null".into()),
                race_free.is_ok(),
            ));
        }
    }
    let _ = writeln!(
        out,
        "{kernels} kernels verified: {total_errors} errors, {total_warnings} warnings"
    );
    if json {
        out = format!(
            "{{\n  \"kernels\": [\n    {}\n  ],\n  \"kernels_verified\": {kernels},\n  \
             \"total_errors\": {total_errors},\n  \"total_warnings\": {total_warnings},\n  \
             \"ok\": {}\n}}\n",
            kernel_json.join(",\n    "),
            total_errors == 0,
        );
    }
    if total_errors > 0 {
        Err(CliError::Lint(out))
    } else {
        Ok(out)
    }
}

/// Knobs for the `chaos` fault-injection smoke test.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Seed for both the dataset and the fault plan.
    pub seed: u64,
    /// Synthetic S1000 pairs to align.
    pub pairs: usize,
    /// Simulated ranks.
    pub ranks: usize,
    /// DPUs per rank.
    pub dpus: usize,
    /// Band width (rounded up to a multiple of 16).
    pub band: usize,
    /// Per-launch DPU fault probability.
    pub dpu_fault_rate: f64,
    /// Per-readback corruption probability.
    pub corrupt_rate: f64,
    /// Per-launch tasklet-livelock probability (`--hang-faults`): the DPU
    /// spins until the cycle-budget watchdog reaps it.
    pub hang_rate: f64,
    /// Per-launch silent CIGAR corruption probability
    /// (`--corrupt-cigars`): a result payload is mutated and its checksum
    /// recomputed, so only the host audit can catch it.
    pub silent_corrupt_rate: f64,
    /// Per-launch DPU cycle budget (`--watchdog-cycles`). `None` (the
    /// default, spelled `auto` on the command line) derives the budget from
    /// the kernels' symbolic WCET bounds and the batch geometry
    /// ([`dpu_kernel::cost::wcet_watchdog_cycles`]); `Some(0)` disables the
    /// watchdog, leaving hung DPUs to the wall-clock deadline; `Some(n)` is
    /// an explicit override.
    pub watchdog_cycles: Option<u64>,
    /// Wall-clock deadline on rank execution, seconds (0 disables).
    pub deadline_seconds: f64,
    /// Audit every returned alignment against its sequences and recomputed
    /// score (on by default — the only defense against silent corruption).
    pub audit: bool,
    /// DPUs masked out at boot.
    pub disabled: usize,
    /// Total PiM attempts per job before CPU fallback.
    pub retries: usize,
    /// Consecutive faults before a DPU is quarantined.
    pub quarantine: usize,
    /// Batches in flight per rank FIFO of the recovery engine.
    pub fifo_depth: usize,
    /// Simulator worker-thread budget shared by all concurrent ranks
    /// (0 = available parallelism).
    pub sim_threads: usize,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        Self {
            seed: 42,
            pairs: 24,
            ranks: 2,
            dpus: 8,
            band: 128,
            dpu_fault_rate: 0.15,
            corrupt_rate: 0.1,
            hang_rate: 0.1,
            silent_corrupt_rate: 0.1,
            watchdog_cycles: None,
            deadline_seconds: 10.0,
            audit: true,
            disabled: 2,
            retries: 3,
            quarantine: 2,
            fifo_depth: 2,
            sim_threads: 0,
        }
    }
}

/// Run the fault-injection smoke test: align seeded synthetic pairs on a
/// server with a seeded chaos fault plan (boot-disabled DPUs, a dead rank,
/// launch faults, readback corruption, a straggler) through the
/// fault-tolerant dispatcher.
///
/// Fails with [`CliError::Align`] if any job is lost or any result differs
/// from the fault-free CPU reference; on success returns a report ending in
/// "all N results match the fault-free reference".
pub fn cmd_chaos(opts: &ChaosOpts) -> Result<String, CliError> {
    let ranks = opts.ranks.max(1);
    let dpus = opts.dpus.max(1);
    let pairs = SyntheticParams::preset(SyntheticPreset::S1000, opts.seed).generate(opts.pairs);

    let mut server_cfg = ServerConfig::with_ranks(ranks);
    server_cfg.dpus_per_rank = dpus;
    server_cfg.fault = FaultPlan::chaos(
        opts.seed,
        ranks,
        dpus,
        opts.disabled,
        opts.dpu_fault_rate,
        opts.corrupt_rate,
        opts.hang_rate,
        opts.silent_corrupt_rate,
    );
    let plan = server_cfg.fault.clone();
    let params = KernelParams {
        band: opts.band.next_multiple_of(16).max(16),
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    // Watchdog budget: an explicit `--watchdog-cycles` wins; otherwise
    // derive it from the kernels' symbolic WCET bounds at this batch's
    // geometry, counting only slots the fault plan leaves healthy (fewer
    // slots stack more jobs per DPU, which raises the per-DPU bound).
    let watchdog_cycles = opts.watchdog_cycles.unwrap_or_else(|| {
        let lens: Vec<(usize, usize)> = pairs.iter().map(|(a, b)| (a.len(), b.len())).collect();
        let healthy = (ranks * dpus)
            .saturating_sub(plan.disabled_dpus.len())
            .saturating_sub(plan.dead_ranks.len() * dpus)
            .max(1);
        dpu_kernel::cost::wcet_watchdog_cycles(&lens, params.band, params.score_only, healthy)
    });
    server_cfg.dpu.watchdog_cycles = watchdog_cycles;
    let mut server = PimServer::new(server_cfg);
    let mut cfg = DispatchConfig::new(NwKernel::paper_default(), params);
    cfg.engine = Engine::Pipelined {
        fifo_depth: opts.fifo_depth.max(1),
    };
    cfg.sim_threads = opts.sim_threads;
    let rcfg = RecoveryConfig {
        max_attempts: opts.retries.max(1),
        quarantine_after: opts.quarantine.max(1),
        deadline: DeadlinePolicy::after_seconds(opts.deadline_seconds),
        audit: opts.audit,
        ..RecoveryConfig::default()
    };
    let (report, results) = align_pairs_recovering(&mut server, &cfg, &rcfg, &pairs)
        .map_err(|e| CliError::Align(e.to_string()))?;

    let mut out = format!(
        "chaos: {} pairs on {} ranks x {} DPUs (seed {})\n\
         plan: {} disabled, dead ranks {:?}, fault rate {}, corrupt rate {}, \
         hang rate {}, silent corrupt rate {}\n\
         guard: watchdog {} cycles, deadline {}s, audit {}\n\
         {}\n{}\n",
        pairs.len(),
        ranks,
        dpus,
        opts.seed,
        plan.disabled_dpus.len(),
        plan.dead_ranks,
        plan.dpu_fault_rate,
        plan.corrupt_rate,
        plan.hang_rate,
        plan.silent_corrupt_rate,
        match opts.watchdog_cycles {
            None => format!("{watchdog_cycles} (wcet auto)"),
            Some(0) => "0 (off)".to_string(),
            Some(n) => n.to_string(),
        },
        opts.deadline_seconds,
        if opts.audit { "on" } else { "off" },
        report.summary(),
        report.fault.summary(),
    );

    if opts.audit && report.fault.silent_corruptions > 0 && report.fault.audit_failures == 0 {
        return Err(CliError::Align(format!(
            "{} silent corruptions were injected but the audit rejected \
             nothing — wrong results escaped\n{out}",
            report.fault.silent_corruptions
        )));
    }

    if results.len() != pairs.len() {
        return Err(CliError::Align(format!(
            "lost jobs: {} results for {} pairs\n{out}",
            results.len(),
            pairs.len()
        )));
    }
    let interrupted = report.fault.interrupted_jobs;
    let aligner = AdaptiveAligner::new(params.scheme, params.band);
    let mut mismatches = 0usize;
    let mut cancelled = 0usize;
    for (k, ((a, b), got)) in pairs.iter().zip(&results).enumerate() {
        if interrupted > 0 && got.status == JobStatus::Cancelled {
            // The run was cut short before this job completed; there is no
            // result to verify, and the cancellation is accounted above.
            cancelled += 1;
            continue;
        }
        let ok = match aligner.align(a, b) {
            // Compare the CIGAR too: silent corruption mutates the runs
            // while leaving the score field intact, so a score-only oracle
            // would let an escaped corruption pass.
            Ok(aln) => {
                got.status == JobStatus::Ok && got.score == aln.score && got.cigar == aln.cigar
            }
            Err(_) => got.status != JobStatus::Ok,
        };
        if !ok {
            mismatches += 1;
            let _ = writeln!(
                out,
                "pair {k}: got {:?}/{} vs fault-free reference",
                got.status, got.score
            );
        }
    }
    if mismatches > 0 {
        return Err(CliError::Align(format!(
            "{mismatches} results differ from the fault-free reference\n{out}"
        )));
    }
    if interrupted > 0 {
        let _ = writeln!(
            out,
            "interrupted: {cancelled} jobs cancelled; all {} delivered results match the fault-free reference",
            results.len() - cancelled
        );
    } else {
        let _ = writeln!(
            out,
            "all {} results match the fault-free reference",
            results.len()
        );
    }
    Ok(out)
}

/// Knobs for the `bench` host-throughput benchmark.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Synthetic S1000 pairs to align per run.
    pub pairs: usize,
    /// Simulated ranks.
    pub ranks: usize,
    /// DPUs per rank.
    pub dpus: usize,
    /// Rounds (batches per rank).
    pub rounds: usize,
    /// Band width (rounded up to a multiple of 16).
    pub band: usize,
    /// Rank FIFO depth of the `pipelined` condition (the `lockstep`
    /// condition runs at depth 1).
    pub fifo_depth: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Host wall-clock hold injected on the straggler rank's odd-numbered
    /// launches, milliseconds.
    pub straggler_hold_ms: f64,
    /// Shrink every knob for a fast CI smoke run.
    pub smoke: bool,
    /// Where to write the JSON report (default `BENCH_dispatch.json`;
    /// `BENCH_cache.json` with `--cache`).
    pub json_path: Option<String>,
    /// Simulator worker-thread budget shared by all concurrent ranks
    /// (0 = available parallelism).
    pub sim_threads: usize,
    /// Run the result-cache benchmark (the cached path at 0/30/90%
    /// repeated pairs against an uncached reference) instead.
    pub cache: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            pairs: 48,
            ranks: 4,
            dpus: 4,
            rounds: 6,
            band: 64,
            fifo_depth: 2,
            seed: 42,
            // The hold must exceed a round's non-straggler compute for rank
            // 0 to finish its batches after the other ranks; 35ms does on
            // one core at this geometry (~12ms of other-rank work per
            // round).
            straggler_hold_ms: 35.0,
            smoke: false,
            json_path: None,
            sim_threads: 0,
            cache: false,
        }
    }
}

struct BenchRun {
    host_wall_seconds: f64,
    report: ExecutionReport,
    results: Vec<dpu_kernel::JobResult>,
}

fn bench_run(
    engine: Engine,
    fault: FaultPlan,
    opts: &BenchOpts,
    pairs: &[(DnaSeq, DnaSeq)],
) -> Result<BenchRun, CliError> {
    bench_run_guarded(engine, fault, opts, pairs, 0, false)
}

/// [`bench_run`] with the robustness guards dialed in: a per-launch DPU
/// cycle-budget watchdog and the host-side result audit. The bench's guard
/// condition measures their overhead on a clean run.
fn bench_run_guarded(
    engine: Engine,
    fault: FaultPlan,
    opts: &BenchOpts,
    pairs: &[(DnaSeq, DnaSeq)],
    watchdog_cycles: u64,
    audit: bool,
) -> Result<BenchRun, CliError> {
    if pim_host::interrupt::requested() {
        return Err(CliError::Align("interrupted — benchmark aborted".into()));
    }
    let mut server_cfg = ServerConfig::with_ranks(opts.ranks.max(1));
    server_cfg.dpus_per_rank = opts.dpus.max(1);
    server_cfg.fault = fault;
    server_cfg.dpu.watchdog_cycles = watchdog_cycles;
    let mut server = PimServer::new(server_cfg);
    let params = KernelParams {
        band: opts.band.next_multiple_of(16).max(16),
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    let mut cfg = DispatchConfig::new(NwKernel::paper_default(), params);
    cfg.rounds = opts.rounds.max(1);
    cfg.engine = engine;
    cfg.sim_threads = opts.sim_threads;
    cfg.audit = audit;
    let t0 = std::time::Instant::now();
    let (report, results) =
        align_pairs(&mut server, &cfg, pairs).map_err(|e| CliError::Align(e.to_string()))?;
    Ok(BenchRun {
        host_wall_seconds: t0.elapsed().as_secs_f64(),
        report,
        results,
    })
}

fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9}")
    } else {
        "0.0".into()
    }
}

fn jf_arr(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| jf(x)).collect();
    format!("[{}]", items.join(", "))
}

fn run_json(run: &BenchRun, pairs: usize) -> String {
    let mut s = format!(
        "{{\"host_wall_seconds\": {}, \"simulated_seconds\": {}, \"pairs_per_second\": {}",
        jf(run.host_wall_seconds),
        jf(run.report.total_seconds()),
        jf(pairs as f64 / run.host_wall_seconds.max(1e-12)),
    );
    if let Some(p) = &run.report.pipeline {
        let occ: Vec<String> = p.max_fifo_occupancy.iter().map(usize::to_string).collect();
        let _ = write!(
            s,
            ", \"stall\": {{\"per_rank_stall_seconds\": {}, \"per_rank_busy_seconds\": {}, \
             \"max_fifo_occupancy\": [{}], \"plan_seconds\": {}, \"decode_seconds\": {}, \
             \"encode_overlap_fraction\": {}, \"buffers_reused\": {}, \"buffers_allocated\": {}}}",
            jf_arr(&p.rank_stall_seconds),
            jf_arr(&p.rank_busy_seconds),
            occ.join(", "),
            jf(p.plan_seconds),
            jf(p.decode_seconds),
            jf(p.encode_overlap_fraction()),
            p.buffers_reused,
            p.buffers_allocated,
        );
    }
    s.push('}');
    s
}

/// Do two runs agree bit for bit where they must? Results, simulated
/// per-rank seconds, transfer bytes and aggregate DPU statistics.
fn bit_identical(a: &BenchRun, b: &BenchRun) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.results == b.results
        && bits(&a.report.rank_seconds) == bits(&b.report.rank_seconds)
        && a.report.transfer_seconds.to_bits() == b.report.transfer_seconds.to_bits()
        && a.report.dpu_seconds.to_bits() == b.report.dpu_seconds.to_bits()
        && a.report.transfer_in_bytes == b.report.transfer_in_bytes
        && a.report.transfer_out_bytes == b.report.transfer_out_bytes
        && a.report.stats == b.report.stats
        && a.report.workload == b.report.workload
}

/// Host-throughput benchmark of the one dispatch engine: align the same
/// workload at rank FIFO depth 1 ([`Engine::Lockstep`], the `lockstep`
/// entry) and at the configured depth (the `pipelined` entry), with and
/// without an injected straggler rank, and write a machine-readable
/// `BENCH_dispatch.json`.
///
/// The straggler condition injects a wall-clock hold plus a simulated 2x
/// slowdown on rank 0. There is no global round barrier at either depth:
/// each rank advances through its own FIFO, so the hold delays only rank 0.
/// At depth 1 a rank's next batch is sent only once its previous one has
/// returned; deeper FIFOs queue it ahead. Results and simulated times must
/// stay bit-identical across depths in both conditions — the benchmark
/// fails otherwise. The guard condition measures the watchdog plus audit
/// overhead on a clean run at the configured depth.
pub fn cmd_bench(opts: &BenchOpts) -> Result<String, CliError> {
    if opts.cache {
        return cmd_bench_cache(opts);
    }
    let mut opts = opts.clone();
    if opts.smoke {
        opts.pairs = opts.pairs.min(24);
        opts.ranks = opts.ranks.min(2);
        opts.dpus = opts.dpus.min(4);
        opts.rounds = opts.rounds.min(4);
        opts.straggler_hold_ms = opts.straggler_hold_ms.min(3.0);
    }
    let pairs = SyntheticParams::preset(SyntheticPreset::S1000, opts.seed).generate(opts.pairs);
    let straggler = FaultPlan {
        straggler_ranks: vec![0],
        straggler_slowdown: 2.0,
        straggler_hold_ms: opts.straggler_hold_ms,
        ..FaultPlan::default()
    };
    let pipelined = Engine::Pipelined {
        fifo_depth: opts.fifo_depth.max(1),
    };

    let lock_s = bench_run(Engine::Lockstep, straggler.clone(), &opts, &pairs)?;
    let pipe_s = bench_run(pipelined, straggler.clone(), &opts, &pairs)?;
    let lock_c = bench_run(Engine::Lockstep, FaultPlan::default(), &opts, &pairs)?;
    let pipe_c = bench_run(pipelined, FaultPlan::default(), &opts, &pairs)?;

    // Guard condition: the watchdog budget plus the per-result audit on a
    // clean pipelined run, best-of-N host wall against an unguarded
    // best-of-N, so CI can assert the robustness machinery is ~free when
    // nothing faults. Outputs must stay bit-identical. The budget is
    // derived from the kernels' symbolic WCET bounds — what a production
    // launch would use — instead of a fixed constant.
    let guard_watchdog_cycles = {
        let lens: Vec<(usize, usize)> = pairs.iter().map(|(a, b)| (a.len(), b.len())).collect();
        dpu_kernel::cost::wcet_watchdog_cycles(
            &lens,
            opts.band.next_multiple_of(16).max(16),
            false,
            opts.ranks.max(1) * opts.dpus.max(1),
        )
    };
    const GUARD_REPS: usize = 3;
    let mut clean_best = f64::INFINITY;
    let mut guarded_best = f64::INFINITY;
    let mut guards_identical = true;
    let mut guarded_audited = 0usize;
    for _ in 0..GUARD_REPS {
        let c = bench_run(pipelined, FaultPlan::default(), &opts, &pairs)?;
        clean_best = clean_best.min(c.host_wall_seconds);
        let g = bench_run_guarded(
            pipelined,
            FaultPlan::default(),
            &opts,
            &pairs,
            guard_watchdog_cycles,
            true,
        )?;
        guarded_best = guarded_best.min(g.host_wall_seconds);
        guards_identical &= bit_identical(&pipe_c, &g);
        guarded_audited = g.report.fault.audit_checked;
    }
    let guard_overhead = (guarded_best - clean_best) / clean_best.max(1e-12);

    let identical =
        bit_identical(&lock_s, &pipe_s) && bit_identical(&lock_c, &pipe_c) && guards_identical;
    let speedup = lock_s.host_wall_seconds / pipe_s.host_wall_seconds.max(1e-12);
    let speedup_clean = lock_c.host_wall_seconds / pipe_c.host_wall_seconds.max(1e-12);

    let schema_version = upmem_nw_service::SCHEMA_VERSION;
    let json = format!(
        "{{\n  \"bench\": \"dispatch\",\n  \"schema_version\": {schema_version},\n  \
         \"pairs\": {},\n  \"ranks\": {},\n  \"dpus_per_rank\": {},\n  \
         \"rounds\": {},\n  \"fifo_depth\": {},\n  \"seed\": {},\n  \
         \"straggler\": {{\"rank\": 0, \"slowdown\": 2.0, \"hold_ms\": {}}},\n  \
         \"lockstep\": {},\n  \"pipelined\": {},\n  \
         \"no_fault\": {{\"lockstep\": {}, \"pipelined\": {}, \"speedup_host_wall\": {}}},\n  \
         \"guard\": {{\"watchdog_cycles\": {}, \"watchdog_derived\": true, \"audit\": true, \"reps\": {}, \
         \"clean_host_wall_seconds\": {}, \"guarded_host_wall_seconds\": {}, \
         \"overhead_fraction\": {}, \"audited\": {}, \"bit_identical\": {}}},\n  \
         \"speedup_host_wall\": {},\n  \"bit_identical\": {}\n}}\n",
        opts.pairs,
        opts.ranks.max(1),
        opts.dpus.max(1),
        opts.rounds.max(1),
        opts.fifo_depth.max(1),
        opts.seed,
        jf(opts.straggler_hold_ms),
        run_json(&lock_s, opts.pairs),
        run_json(&pipe_s, opts.pairs),
        run_json(&lock_c, opts.pairs),
        run_json(&pipe_c, opts.pairs),
        jf(speedup_clean),
        guard_watchdog_cycles,
        GUARD_REPS,
        jf(clean_best),
        jf(guarded_best),
        jf(guard_overhead),
        guarded_audited,
        guards_identical,
        jf(speedup),
        identical,
    );
    let path = opts
        .json_path
        .clone()
        .unwrap_or_else(|| "BENCH_dispatch.json".to_string());
    std::fs::write(&path, &json)?;

    let mut out = format!(
        "bench dispatch: {} pairs, {} ranks x {} DPUs, {} rounds, fifo depth {}\n\
         straggler (rank 0, 2.0x sim, {:.1}ms hold on odd launches):\n\
         \x20 depth 1  host wall {:.4}s ({:.0} pairs/s)\n\
         \x20 depth {}  host wall {:.4}s ({:.0} pairs/s)  -> speedup {:.2}x\n\
         no fault:\n\
         \x20 depth 1  host wall {:.4}s, depth {} {:.4}s  -> speedup {:.2}x\n",
        opts.pairs,
        opts.ranks.max(1),
        opts.dpus.max(1),
        opts.rounds.max(1),
        opts.fifo_depth.max(1),
        opts.straggler_hold_ms,
        lock_s.host_wall_seconds,
        opts.pairs as f64 / lock_s.host_wall_seconds.max(1e-12),
        opts.fifo_depth.max(1),
        pipe_s.host_wall_seconds,
        opts.pairs as f64 / pipe_s.host_wall_seconds.max(1e-12),
        speedup,
        lock_c.host_wall_seconds,
        opts.fifo_depth.max(1),
        pipe_c.host_wall_seconds,
        speedup_clean,
    );
    let _ = writeln!(
        out,
        "guard (wcet-derived watchdog {} cycles + audit, best of {}): clean {:.4}s, \
         guarded {:.4}s -> overhead {:.2}%",
        guard_watchdog_cycles,
        GUARD_REPS,
        clean_best,
        guarded_best,
        100.0 * guard_overhead,
    );
    if let Some(p) = &pipe_s.report.pipeline {
        let _ = writeln!(out, "{}", p.summary());
    }
    let _ = writeln!(out, "wrote {path}");
    if !identical {
        return Err(CliError::Align(format!(
            "engines disagree: depth-{} output is not bit-identical to depth 1\n{out}",
            opts.fifo_depth.max(1)
        )));
    }
    let _ = writeln!(out, "engines bit-identical across both conditions");
    Ok(out)
}

/// A workload of `base.len()` pairs where `dup_frac` of the entries are
/// deterministic repeats of earlier ones (the cache phases).
fn dup_workload(base: &[(DnaSeq, DnaSeq)], dup_frac: f64) -> Vec<(DnaSeq, DnaSeq)> {
    let n = base.len();
    let dups = ((n as f64) * dup_frac).round() as usize;
    let uniques = n.saturating_sub(dups).max(1);
    (0..n)
        .map(|i| {
            base[if i < uniques {
                i
            } else {
                (i - uniques) % uniques
            }]
            .clone()
        })
        .collect()
}

/// One cache phase's measurements.
struct CachePhase {
    dup_frac: f64,
    uncached_seconds: f64,
    cold_seconds: f64,
    warm_seconds: f64,
    cold: pim_host::CacheStats,
    warm: pim_host::CacheStats,
    identical: bool,
}

/// Result-cache benchmark (`bench --cache true`): the one-shot cached
/// path ([`pim_host::align_pairs_cached`]) at 0%/30%/90% repeated pairs,
/// cold (fresh cache, within-run dedup active) and warm (same cache
/// again), against an uncached [`align_pairs_recovering`] reference.
/// Cached results must stay bit-identical and the hit/miss counters must
/// conserve. Writes `BENCH_cache.json`; fails on any identity or
/// conservation violation.
pub fn cmd_bench_cache(opts: &BenchOpts) -> Result<String, CliError> {
    let mut opts = opts.clone();
    if opts.smoke {
        opts.pairs = opts.pairs.min(16);
        opts.ranks = opts.ranks.min(2);
        opts.dpus = opts.dpus.min(4);
    }
    opts.pairs = opts.pairs.max(4);
    let band = opts.band.next_multiple_of(16).max(16);
    let pairs = SyntheticParams::preset(SyntheticPreset::S1000, opts.seed).generate(opts.pairs);
    let params = KernelParams {
        band,
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    let mut cfg = DispatchConfig::new(NwKernel::paper_default(), params);
    cfg.engine = Engine::Pipelined {
        fifo_depth: opts.fifo_depth.max(1),
    };
    cfg.sim_threads = opts.sim_threads;
    let rcfg = RecoveryConfig::default();
    let mut server_cfg = ServerConfig::with_ranks(opts.ranks.max(1));
    server_cfg.dpus_per_rank = opts.dpus.max(1);
    let mut server = PimServer::new(server_cfg);

    let mut phases = Vec::new();
    for dup_frac in [0.0, 0.3, 0.9] {
        if pim_host::interrupt::requested() {
            return Err(CliError::Align("interrupted — benchmark aborted".into()));
        }
        let wl = dup_workload(&pairs, dup_frac);
        let t = std::time::Instant::now();
        let (_, uncached) = align_pairs_recovering(&mut server, &cfg, &rcfg, &wl)
            .map_err(|e| CliError::Align(e.to_string()))?;
        let uncached_seconds = t.elapsed().as_secs_f64();
        let mut cache = pim_host::ResultCache::new(4096);
        let mut cached = || {
            let t = std::time::Instant::now();
            pim_host::align_pairs_cached(&mut server, &cfg, &rcfg, &wl, &mut cache)
                .map(|run| (run, t.elapsed().as_secs_f64()))
                .map_err(|e| CliError::Align(e.to_string()))
        };
        let (cold, cold_seconds) = cached()?;
        let (warm, warm_seconds) = cached()?;
        phases.push(CachePhase {
            dup_frac,
            uncached_seconds,
            cold_seconds,
            warm_seconds,
            cold: cold.cache,
            warm: warm.cache,
            identical: cold.results == uncached && warm.results == uncached,
        });
    }
    let conserved = phases
        .iter()
        .all(|p| p.cold.conserved() && p.warm.conserved());
    let identical = phases.iter().all(|p| p.identical);
    let dup90 = phases.last().expect("three phases");
    let dup90_cold_speedup = dup90.uncached_seconds / dup90.cold_seconds.max(1e-12);
    let dup90_warm_speedup = dup90.uncached_seconds / dup90.warm_seconds.max(1e-12);

    let cache_json = |c: &pim_host::CacheStats| {
        format!(
            "{{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"evictions\": {}, \"rejected_inserts\": {}, \"hit_rate\": {}}}",
            c.lookups,
            c.hits,
            c.misses,
            c.inserts,
            c.evictions,
            c.rejected_inserts,
            jf(c.hit_rate()),
        )
    };
    let phase_json: Vec<String> = phases
        .iter()
        .map(|p| {
            format!(
                "{{\"dup_fraction\": {}, \"uncached_seconds\": {}, \"cold_seconds\": {}, \
                 \"warm_seconds\": {}, \"cold_speedup\": {}, \"warm_speedup\": {}, \
                 \"cold_cache\": {}, \"warm_cache\": {}, \"conserved\": {}, \
                 \"bit_identical\": {}}}",
                jf(p.dup_frac),
                jf(p.uncached_seconds),
                jf(p.cold_seconds),
                jf(p.warm_seconds),
                jf(p.uncached_seconds / p.cold_seconds.max(1e-12)),
                jf(p.uncached_seconds / p.warm_seconds.max(1e-12)),
                cache_json(&p.cold),
                cache_json(&p.warm),
                p.cold.conserved() && p.warm.conserved(),
                p.identical,
            )
        })
        .collect();
    let schema_version = upmem_nw_service::SCHEMA_VERSION;
    let json = format!(
        "{{\n  \"bench\": \"cache\",\n  \"schema_version\": {schema_version},\n  \
         \"pairs\": {},\n  \"ranks\": {},\n  \"dpus_per_rank\": {},\n  \"band\": {band},\n  \
         \"seed\": {},\n  \
         \"cache_phases\": [\n    {}\n  ],\n  \
         \"dup90_cold_speedup\": {},\n  \"dup90_warm_speedup\": {},\n  \
         \"conserved\": {conserved},\n  \"bit_identical\": {identical}\n}}\n",
        opts.pairs,
        opts.ranks.max(1),
        opts.dpus.max(1),
        opts.seed,
        phase_json.join(",\n    "),
        jf(dup90_cold_speedup),
        jf(dup90_warm_speedup),
    );
    let path = opts
        .json_path
        .clone()
        .unwrap_or_else(|| "BENCH_cache.json".to_string());
    std::fs::write(&path, &json)?;

    let mut out = format!(
        "bench cache: {} pairs, {} ranks x {} DPUs, band {band}\n",
        opts.pairs,
        opts.ranks.max(1),
        opts.dpus.max(1),
    );
    for p in &phases {
        let _ = writeln!(
            out,
            "cache {}% dup: uncached {:.4}s, cold {:.4}s ({:.2}x, {} hits/{} lookups), \
             warm {:.4}s ({:.2}x, {} hits/{} lookups)",
            (p.dup_frac * 100.0).round(),
            p.uncached_seconds,
            p.cold_seconds,
            p.uncached_seconds / p.cold_seconds.max(1e-12),
            p.cold.hits,
            p.cold.lookups,
            p.warm_seconds,
            p.uncached_seconds / p.warm_seconds.max(1e-12),
            p.warm.hits,
            p.warm.lookups,
        );
    }
    let _ = writeln!(out, "wrote {path}");
    if !conserved {
        return Err(CliError::Align(format!(
            "cache counters do not conserve (hits + misses != lookups)\n{out}"
        )));
    }
    if !identical {
        return Err(CliError::Align(format!(
            "cached results are not bit-identical to the uncached reference\n{out}"
        )));
    }
    let _ = writeln!(
        out,
        "every cache phase bit-identical to the uncached reference"
    );
    Ok(out)
}

/// Server topology description.
pub fn cmd_info(ranks: usize) -> String {
    let server = PimServer::new(ServerConfig::with_ranks(ranks.max(1)));
    let t = server.topology();
    format!(
        "simulated UPMEM PiM server\n\
         ranks:            {}\n\
         DPUs per rank:    {}\n\
         total DPUs:       {}\n\
         DPU frequency:    {} MHz\n\
         MRAM per DPU:     {} MB\n\
         WRAM per DPU:     {} KB\n\
         aggregate MRAM bandwidth: {:.2} TB/s\n",
        t.ranks,
        t.dpus_per_rank,
        t.total_dpus,
        t.freq_hz / 1e6,
        t.mram_per_dpu >> 20,
        t.wram_per_dpu >> 10,
        t.aggregate_mram_bandwidth / 1e12
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("upmem-nw-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn align_command_all_algorithms_agree_on_easy_pairs() {
        let a = write_temp("a.fa", ">r0\nACGTACGTACGTACGT\n>r1\nGATTACAGATTACA\n");
        let b = write_temp("b.fa", ">s0\nACGTACGGACGTACGT\n>s1\nGATTACAGATTACA\n");
        let mut scores = Vec::new();
        for algo in [
            Algo::Adaptive,
            Algo::Static,
            Algo::Wfa,
            Algo::Exact,
            Algo::Pim,
        ] {
            let tsv = cmd_align(&a, &b, algo, 16, 1, 2, 0, false, 0).unwrap();
            let lines: Vec<&str> = tsv.lines().skip(1).collect();
            assert_eq!(lines.len(), 2, "{algo:?}");
            let score: i32 = lines[0].split('\t').nth(2).unwrap().parse().unwrap();
            scores.push(score);
            assert!(lines[1].contains("GATTACAGATTACA") || lines[1].contains("28"));
        }
        // All five paths find the same optimal score on these easy pairs.
        assert!(scores.windows(2).all(|w| w[0] == w[1]), "{scores:?}");
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn align_command_rejects_count_mismatch() {
        let a = write_temp("c.fa", ">r0\nACGT\n");
        let b = write_temp("d.fa", ">s0\nACGT\n>s1\nACGT\n");
        assert!(matches!(
            cmd_align(&a, &b, Algo::Exact, 16, 1, 2, 0, false, 0),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn align_cache_paths_match_the_adaptive_reference() {
        // r2/s2 repeats r0/s0 so the cached run exercises the within-run
        // duplicate path too.
        let a = write_temp(
            "ba.fa",
            ">r0\nACGTACGTACGTACGT\n>r1\nGATTACAGATTACA\n>r2\nACGTACGTACGTACGT\n",
        );
        let b = write_temp(
            "bb.fa",
            ">s0\nACGTACGGACGTACGT\n>s1\nGATTACAGATTACA\n>s2\nACGTACGGACGTACGT\n",
        );
        let rows = |tsv: &str| -> Vec<String> {
            tsv.lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_owned)
                .collect()
        };
        let reference = rows(&cmd_align(&a, &b, Algo::Adaptive, 16, 1, 2, 0, false, 0).unwrap());
        assert_eq!(reference.len(), 3);
        // `--cache 0` with `--algo pim` is the strict PiM path; `--cache 64`
        // selects the PiM lane whatever `--algo` says and reports its
        // cache counters on a closing note line.
        let uncached = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, false, 0).unwrap();
        assert_eq!(rows(&uncached), reference, "cache=0");
        let cached = cmd_align(&a, &b, Algo::Adaptive, 16, 1, 2, 0, false, 64).unwrap();
        assert_eq!(rows(&cached), reference, "cache=64");
        let note = cached.lines().last().unwrap();
        assert_eq!(note, "# cache: 1/3 hits, 2 inserted, 0 evicted", "{cached}");
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn matrix_command_counts_pairs() {
        let f = write_temp(
            "m.fa",
            ">x\nACGTACGTAAAA\n>y\nACGTACGTAAAT\n>z\nACGTACGAAAAA\n",
        );
        let tsv = cmd_matrix(&f, 16, 1).unwrap();
        assert_eq!(tsv.lines().count(), 1 + 3); // header + C(3,2)
        assert!(tsv.contains("x\ty\t"));
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn generate_round_trips_through_fasta() {
        for kind in ["s1000", "16s", "pacbio"] {
            let text = cmd_generate(kind, 2, 9).unwrap();
            let recs = fasta::read_str(&text, NPolicy::Reject).unwrap();
            assert!(!recs.is_empty(), "{kind}");
        }
        assert!(cmd_generate("bogus", 1, 0).is_err());
    }

    #[test]
    fn generate_is_seeded() {
        assert_eq!(
            cmd_generate("s1000", 2, 5).unwrap(),
            cmd_generate("s1000", 2, 5).unwrap()
        );
        assert_ne!(
            cmd_generate("s1000", 2, 5).unwrap(),
            cmd_generate("s1000", 2, 6).unwrap()
        );
    }

    #[test]
    fn info_mentions_topology() {
        let info = cmd_info(40);
        assert!(info.contains("2560"));
        assert!(info.contains("350 MHz"));
    }

    #[test]
    fn lint_passes_on_builtin_kernels() {
        let report = cmd_lint(false, false).expect("built-in kernels must lint clean");
        assert!(
            report.contains("4 kernels verified: 0 errors, 0 warnings"),
            "{report}"
        );
        // Every shipped kernel carries a finite symbolic bound and a
        // cross-tasklet race-freedom proof.
        assert!(report.contains("wcet: "), "{report}");
        assert!(!report.contains("unbounded"), "{report}");
        assert!(report.contains("race-freedom: proven"), "{report}");
        // Verbose mode surfaces the analysis facts.
        let verbose = cmd_lint(true, false).unwrap();
        assert!(verbose.contains("sanitizer: clean"), "{verbose}");
        assert!(verbose.contains("loop-termination"), "{verbose}");
        assert!(verbose.len() > report.len());
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let json = cmd_lint(false, true).expect("built-in kernels must lint clean");
        for key in [
            "\"kernels_verified\": 4",
            "\"total_errors\": 0",
            "\"total_warnings\": 0",
            "\"ok\": true",
            "\"finite\": true",
            "\"race_free\": true",
            "\"sanitizer\": \"clean\"",
            "\"kernel\": \"asm/traceback\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No unescaped control characters inside strings: the report must
        // survive a strict JSON parse downstream (ci.sh validates shape).
        assert!(!json.contains("\t"), "{json}");
    }

    #[test]
    fn chaos_command_loses_nothing_under_faults() {
        let opts = ChaosOpts {
            pairs: 8,
            dpus: 4,
            ..ChaosOpts::default()
        };
        let out = cmd_chaos(&opts).expect("recovery must complete every job");
        assert!(
            out.contains("all 8 results match the fault-free reference"),
            "{out}"
        );
        // The seeded plan on 2 ranks always kills one rank, so recovery did
        // real work — the fault report cannot be all-zero.
        assert!(
            out.contains("dead ranks [") && !out.contains("dead ranks []"),
            "{out}"
        );
    }

    #[test]
    fn chaos_command_is_clean_without_fault_rates() {
        let opts = ChaosOpts {
            pairs: 4,
            ranks: 1, // single rank: chaos() injects no dead rank
            dpus: 2,
            dpu_fault_rate: 0.0,
            corrupt_rate: 0.0,
            hang_rate: 0.0,
            silent_corrupt_rate: 0.0,
            disabled: 0,
            ..ChaosOpts::default()
        };
        let out = cmd_chaos(&opts).unwrap();
        assert!(
            out.contains("0 retries, 0 quarantined, 0 dead ranks, 0 cpu fallbacks"),
            "{out}"
        );
        // The default budget is derived from the kernels' WCET bounds, and
        // a clean run must fit inside it without any escalation.
        assert!(out.contains("(wcet auto)"), "{out}");
        // The audit still ran (it is on by default) but a clean audited
        // run must not dirty the report.
        assert!(out.contains("audited"), "{out}");
    }

    #[test]
    fn chaos_command_runs_at_minimum_and_default_fifo_depth() {
        for fifo_depth in [1, 2] {
            let opts = ChaosOpts {
                pairs: 6,
                ranks: 1,
                dpus: 2,
                dpu_fault_rate: 0.0,
                corrupt_rate: 0.0,
                hang_rate: 0.0,
                silent_corrupt_rate: 0.0,
                disabled: 0,
                fifo_depth,
                ..ChaosOpts::default()
            };
            let out = cmd_chaos(&opts).expect("every depth must complete cleanly");
            assert!(
                out.contains("all 6 results match the fault-free reference"),
                "depth {fifo_depth}: {out}"
            );
        }
    }

    #[test]
    fn chaos_audit_is_load_bearing_against_silent_corruption() {
        // Silent CIGAR corruption only (checksums recomputed): with the
        // audit disabled the wrong CIGARs reach the caller and the
        // reference comparison must fail the command; with it enabled the
        // corrupted results are retried and everything matches.
        let opts = ChaosOpts {
            seed: 7,
            pairs: 12,
            ranks: 2,
            dpus: 4,
            dpu_fault_rate: 0.0,
            corrupt_rate: 0.0,
            hang_rate: 0.0,
            silent_corrupt_rate: 0.3,
            disabled: 0,
            audit: false,
            ..ChaosOpts::default()
        };
        let err = cmd_chaos(&opts).expect_err("escaped corruption must fail");
        assert!(
            err.to_string()
                .contains("differ from the fault-free reference"),
            "{err}"
        );
        let audited = ChaosOpts {
            audit: true,
            ..opts
        };
        let out = cmd_chaos(&audited).expect("the audit must catch and retry");
        assert!(
            out.contains("all 12 results match the fault-free reference"),
            "{out}"
        );
    }

    #[test]
    fn bench_smoke_writes_valid_json() {
        let path = std::env::temp_dir().join(format!(
            "upmem-nw-cli-test-{}-BENCH_dispatch.json",
            std::process::id()
        ));
        let opts = BenchOpts {
            pairs: 8,
            ranks: 2,
            dpus: 2,
            rounds: 2,
            straggler_hold_ms: 2.0,
            smoke: true,
            json_path: Some(path.to_string_lossy().into_owned()),
            ..BenchOpts::default()
        };
        let out = cmd_bench(&opts).expect("bench must run and stay bit-identical");
        assert!(out.contains("engines bit-identical"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"bench\": \"dispatch\"",
            "\"lockstep\"",
            "\"pipelined\"",
            "\"no_fault\"",
            "\"speedup_host_wall\"",
            "\"bit_identical\": true",
            "\"stall\"",
            "\"host_wall_seconds\"",
            "\"pairs_per_second\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_cache_smoke_writes_valid_json() {
        let path = std::env::temp_dir().join(format!(
            "upmem-nw-cli-test-{}-BENCH_cache.json",
            std::process::id()
        ));
        let opts = BenchOpts {
            pairs: 6,
            ranks: 1,
            dpus: 2,
            smoke: true,
            cache: true,
            json_path: Some(path.to_string_lossy().into_owned()),
            ..BenchOpts::default()
        };
        let out = cmd_bench(&opts).expect("cache bench must run and stay bit-identical");
        assert!(
            out.contains("every cache phase bit-identical to the uncached reference"),
            "{out}"
        );
        let json = std::fs::read_to_string(&path).unwrap();
        for key in [
            "\"bench\": \"cache\"",
            "\"schema_version\"",
            "\"cache_phases\"",
            "\"dup90_cold_speedup\"",
            "\"dup90_warm_speedup\"",
            "\"conserved\": true",
            "\"bit_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"routing\""), "{json}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn algo_parsing() {
        assert_eq!(Algo::parse("wfa"), Some(Algo::Wfa));
        assert_eq!(Algo::parse("pim"), Some(Algo::Pim));
        assert_eq!(Algo::parse("nope"), None);
    }
}
