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
use pim_host::dispatch::{DispatchConfig, Engine};
use pim_host::modes::{align_pairs, all_vs_all};
use pim_host::report::ExecutionReport;
use pim_sim::{FaultPlan, PimServer, ServerConfig};
use std::fmt::Write as _;

pub mod serve;
pub use serve::cmd_serve;

/// Install the Ctrl-C / SIGTERM handler for the one-shot subcommands:
/// instead of the process dying mid-write, the dispatch engine stops
/// planning, cancels in-flight launches through the rank cancel tokens, and
/// winds down. Its job ticket returns a partial report with the
/// interrupted pairs accounted, which `align` and `matrix` turn into an
/// error naming the first pair without a result.
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
/// The PiM lane ([`Algo::Pim`]) runs the pairs as one [`align_pairs`] job
/// ticket on `ranks` ranks at `fifo_depth` and `sim_threads`, with the
/// result audit on when `audit` is set; `cache_capacity > 0` puts a
/// content-addressed result cache of that capacity in front of it
/// ([`pim_host::align_pairs_cached`]): repeated pairs are served without
/// recomputation. The CPU aligners read none of those five, and `exact`
/// and `wfa` ignore `band`. A closing `#` line
/// notes the audited count, the cache counters, and what the recovery
/// layer did when the run was not clean. A pair the lane does not align
/// (out of band, or cancelled by an interrupt) fails the command, as it
/// does on the CPU aligners.
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
    match algo {
        Algo::Pim => {
            let pairs: Vec<(DnaSeq, DnaSeq)> = a_recs
                .iter()
                .zip(&b_recs)
                .map(|(x, y)| (x.seq.clone(), y.seq.clone()))
                .collect();
            let mut server = PimServer::new(ServerConfig::with_ranks(ranks.max(1)));
            let params = KernelParams {
                band,
                scheme,
                score_only: false,
            };
            let mut cfg = DispatchConfig::new(NwKernel::paper_default(), params);
            cfg.engine = Engine::Pipelined {
                fifo_depth: fifo_depth.max(1),
            };
            cfg.sim_threads = sim_threads;
            cfg.recovery.audit = audit;
            let align_err = |e: pim_sim::SimError| CliError::Align(e.to_string());
            let (report, results, cache) = if cache_capacity > 0 {
                let mut cache = pim_host::ResultCache::new(cache_capacity);
                let run = pim_host::align_pairs_cached(&mut server, &cfg, &pairs, &mut cache)
                    .map_err(align_err)?;
                (run.report, run.results, Some(run.cache))
            } else {
                let (report, results) =
                    align_pairs(&mut server, &cfg, &pairs).map_err(align_err)?;
                (Some(report), results, None)
            };
            let unaligned: Vec<usize> = (0..results.len())
                .filter(|&k| results[k].status != JobStatus::Ok)
                .collect();
            if let Some(&k) = unaligned.first() {
                return Err(CliError::Align(format!(
                    "{} of {} pairs not aligned on PiM; first {} {}: {:?}",
                    unaligned.len(),
                    results.len(),
                    a_recs[k].name,
                    b_recs[k].name,
                    results[k].status
                )));
            }
            let fault = report.map(|r| r.fault).unwrap_or_default();
            let mut notes = Vec::new();
            if audit {
                notes.push(format!("audited {} results", fault.audit_checked));
            }
            if let Some(c) = cache {
                notes.push(format!(
                    "cache: {}/{} hits, {} inserted, {} evicted",
                    c.hits, c.lookups, c.inserts, c.evictions
                ));
            }
            if !fault.is_clean() {
                notes.push(fault.summary());
            }
            if !notes.is_empty() {
                note = Some(format!("# {}", notes.join("; ")));
            }
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
/// `name_i name_j score`. Fails, naming the first such pair, when any pair
/// was not scored (out of band, or cancelled by an interrupt).
pub fn cmd_matrix(path: &str, band: usize, ranks: usize) -> Result<String, CliError> {
    let recs = read_fasta(path)?;
    let seqs: Vec<DnaSeq> = recs.iter().map(|r| r.seq.clone()).collect();
    let mut server = PimServer::new(ServerConfig::with_ranks(ranks.max(1)));
    let params = KernelParams {
        band,
        scheme: ScoringScheme::default(),
        score_only: true,
    };
    let cfg = DispatchConfig::new(NwKernel::paper_default(), params);
    let (_report, results) =
        all_vs_all(&mut server, &cfg, &seqs).map_err(|e| CliError::Align(e.to_string()))?;
    let n = recs.len();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let unscored = results.iter().filter(|r| r.status != JobStatus::Ok).count();
    if let Some(k) = results.iter().position(|r| r.status != JobStatus::Ok) {
        let (i, j) = pairs[k];
        return Err(CliError::Align(format!(
            "{unscored} of {} pairs not scored on PiM; first {} {}: {:?}",
            results.len(),
            recs[i].name,
            recs[j].name,
            results[k].status
        )));
    }
    let mut out = String::from("#name_i\tname_j\tscore\n");
    for ((i, j), r) in pairs.into_iter().zip(&results) {
        let _ = writeln!(out, "{}\t{}\t{}", recs[i].name, recs[j].name, r.score);
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

/// The bench's `align_pairs` parameters: `opts.band`, minimap2 scoring.
fn bench_params(opts: &BenchOpts) -> KernelParams {
    KernelParams {
        band: opts.band,
        scheme: ScoringScheme::default(),
        score_only: false,
    }
}

/// One timed `align_pairs` run of the bench, with the job ticket's result
/// audit ([`RecoveryConfig::audit`]) on or off. Every launch runs under
/// its derived watchdog budget either way.
fn bench_run(
    engine: Engine,
    fault: FaultPlan,
    opts: &BenchOpts,
    pairs: &[(DnaSeq, DnaSeq)],
    audit: bool,
) -> Result<BenchRun, CliError> {
    if pim_host::interrupt::requested() {
        return Err(CliError::Align("interrupted — benchmark aborted".into()));
    }
    let mut server_cfg = ServerConfig::with_ranks(opts.ranks.max(1));
    server_cfg.dpus_per_rank = opts.dpus.max(1);
    server_cfg.fault = fault;
    let mut server = PimServer::new(server_cfg);
    let params = bench_params(opts);
    let mut cfg = DispatchConfig::new(NwKernel::paper_default(), params);
    cfg.rounds = opts.rounds.max(1);
    cfg.engine = engine;
    cfg.sim_threads = opts.sim_threads;
    cfg.recovery.audit = audit;
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
/// fails otherwise. The guard condition measures the result audit's
/// overhead on a clean run at the configured depth (every run, guarded or
/// not, launches under its derived watchdog budgets).
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

    let lock_s = bench_run(Engine::Lockstep, straggler.clone(), &opts, &pairs, false)?;
    let pipe_s = bench_run(pipelined, straggler.clone(), &opts, &pairs, false)?;
    let lock_c = bench_run(Engine::Lockstep, FaultPlan::default(), &opts, &pairs, false)?;
    let pipe_c = bench_run(pipelined, FaultPlan::default(), &opts, &pairs, false)?;

    // Guard condition: the per-result audit on a clean pipelined run,
    // best-of-N host wall against an unaudited best-of-N, so CI can assert
    // the robustness machinery is ~free when nothing faults. Outputs must
    // stay bit-identical. Both conditions launch under the derived
    // watchdog, so the gate measures the audit alone; the JSON reports the
    // largest budget any launch can get, that of one DPU holding every
    // pair.
    let guard_watchdog_cycles = {
        let lens: Vec<(usize, usize)> = pairs.iter().map(|(a, b)| (a.len(), b.len())).collect();
        dpu_kernel::cost::launch_watchdog_cycles(
            &lens,
            &bench_params(&opts),
            NwKernel::paper_default().pool_cfg,
        )
    };
    const GUARD_REPS: usize = 3;
    let mut clean_best = f64::INFINITY;
    let mut guarded_best = f64::INFINITY;
    let mut guards_identical = true;
    let mut guarded_audited = 0usize;
    for _ in 0..GUARD_REPS {
        let c = bench_run(pipelined, FaultPlan::default(), &opts, &pairs, false)?;
        clean_best = clean_best.min(c.host_wall_seconds);
        let g = bench_run(pipelined, FaultPlan::default(), &opts, &pairs, true)?;
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
        "guard (audit; derived watchdog up to {} cycles either way, best of {}): \
         clean {:.4}s, guarded {:.4}s -> overhead {:.2}%",
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
/// again), against an uncached [`align_pairs`] reference.
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
    let band = opts.band;
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
        let (_, uncached) =
            align_pairs(&mut server, &cfg, &wl).map_err(|e| CliError::Align(e.to_string()))?;
        let uncached_seconds = t.elapsed().as_secs_f64();
        let mut cache = pim_host::ResultCache::new(4096);
        let mut cached = || {
            let t = std::time::Instant::now();
            pim_host::align_pairs_cached(&mut server, &cfg, &wl, &mut cache)
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
        // `--cache 0` with `--algo pim` is the bare PiM lane; `--cache 64`
        // puts the cache in front of it and reports its counters on a
        // closing note line.
        let uncached = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, false, 0).unwrap();
        assert_eq!(rows(&uncached), reference, "cache=0");
        assert!(!uncached.lines().last().unwrap().starts_with('#'));
        let cached = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, false, 64).unwrap();
        assert_eq!(rows(&cached), reference, "cache=64");
        let note = cached.lines().last().unwrap();
        assert_eq!(note, "# cache: 1/3 hits, 2 inserted, 0 evicted", "{cached}");
        // `--audit true` audits every pair the lane computes: all three
        // without the cache, the two misses with it.
        let audited = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, true, 0).unwrap();
        assert_eq!(rows(&audited), reference, "audit, cache=0");
        let note = audited.lines().last().unwrap();
        assert_eq!(note, "# audited 3 results", "{audited}");
        let audited = cmd_align(&a, &b, Algo::Pim, 16, 1, 2, 0, true, 64).unwrap();
        assert_eq!(rows(&audited), reference, "audit, cache=64");
        let note = audited.lines().last().unwrap();
        assert_eq!(
            note, "# audited 2 results; cache: 1/3 hits, 2 inserted, 0 evicted",
            "{audited}"
        );
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
