//! `upmem-nw` — align DNA on a simulated UPMEM PiM server.
//!
//! ```text
//! upmem-nw align  --a reads_a.fa --b reads_b.fa [--algo adaptive|static|wfa|exact|pim]
//!                 [--band 128] [--out results.tsv]
//!                 with --algo pim: [--ranks 4] [--fifo-depth 2]
//!                 [--sim-threads 0] [--audit true] [--cache N]
//! upmem-nw matrix --in seqs.fa [--band 128] [--ranks 4] [--out matrix.tsv]
//! upmem-nw generate --kind s1000|s10000|s30000|16s|pacbio --count N
//!                 [--seed S] [--out data.fa]
//! upmem-nw bench  [--pairs 48] [--ranks 4] [--dpus 4] [--rounds 6] [--band 64]
//!                 [--fifo-depth 2] [--seed 42] [--straggler-hold-ms 35]
//!                 [--smoke true] [--cache true] [--sim-threads 0]
//!                 [--json BENCH_dispatch.json|BENCH_cache.json]
//! upmem-nw serve  [--socket /tmp/upmem-nw.sock] [--ranks 2] [--dpus 8]
//!                 [--band 64] [--fifo-depth 2] [--sim-threads 0] [--retries 3]
//!                 [--quarantine 3] [--audit false] [--stall-deadline 5]
//!                 [--queue-requests 64] [--queue-pairs 4096] [--max-open 8]
//!                 [--max-request-pairs 1024]
//!                 [--default-deadline-ms MS] [--json report.json]
//!                 [--cache 4096] [--state-dir dir] [--cache-path dir]
//!                 [--compact-every 256] [--fsync true] [--max-line-bytes N]
//! upmem-nw info   [--ranks 40]
//! upmem-nw lint   [--verbose true] [--json true]
//! ```
//!
//! `--fifo-depth` is the number of batches in flight per rank FIFO of the
//! one dispatch engine. Every PiM launch runs each DPU under a watchdog
//! budget the kernel derives from that DPU's batch and its P × T shape;
//! nothing sets it from the command line. On the PiM paths (`align --algo
//! pim`, `matrix`, `bench`, `serve`) `--band` must be a positive multiple
//! of 16, the widths the kernel's MRAM layout holds; any other value is a
//! usage error. `align --algo pim` runs its pairs as one job
//! ticket that rides the recovery ladder; `--audit true` audits every
//! result the ticket computes, and `--cache N` puts a content-addressed
//! result cache of capacity N in front of it: repeated pairs are served
//! from it, the misses run as that one job ticket. `align` takes the PiM
//! lane's flags (`--ranks`, `--fifo-depth`, `--sim-threads`, `--audit`,
//! `--cache`) only with `--algo pim`, and `--band` with every algorithm
//! but `exact` and `wfa`; elsewhere they are unknown flags.
//! `serve --cache N` sizes the daemon's persistent result cache
//! (default 4096; 0 disables). `serve --state-dir DIR` turns on crash-safe
//! durability: the result cache persists through a checksummed,
//! compacted WAL and admitted requests are journaled, so a killed daemon
//! restarted against the same directory recovers its cache and replays
//! unanswered requests (`--cache-path`, `--compact-every`, `--fsync`
//! tune it; `--max-line-bytes` bounds per-connection request buffering).
//! `bench --cache true` benchmarks the cached path against an uncached
//! run at 0/30/90% duplicates.
//!
//! Fault injection lives in the tests: the seeded fault plans in
//! `tests/fault_recovery.rs` and `tests/serve_chaos.rs`, and the
//! kill-and-restart drills against this binary in
//! `crates/cli/tests/crash_recovery.rs`.
//!
//! Every command also takes `--out file` (write the report there instead
//! of stdout). Each command accepts exactly the flags it reads: an unknown
//! or misspelled `--flag`, a flag given twice, or a value that does not
//! parse (a boolean flag takes exactly `true` or `false`) prints the usage
//! and exits with status 2.

use dpu_kernel::KernelParams;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::process::ExitCode;
use std::str::FromStr;
use upmem_nw_cli::{
    cmd_align, cmd_bench, cmd_generate, cmd_info, cmd_lint, cmd_matrix, cmd_serve,
    install_interrupt_handler, Algo, BenchOpts, CliError,
};
use upmem_nw_service::ServeOptions;

const USAGE: &str = "usage:
  upmem-nw align --a <fasta> --b <fasta> [--algo adaptive|static|wfa|exact|pim] [--band N] [--ranks N] [--fifo-depth N] [--sim-threads N] [--audit true] [--cache N] [--out file]
      (--band: not with exact or wfa; --ranks to --cache: pim only)
  upmem-nw matrix --in <fasta> [--band N] [--ranks N] [--out file]
  upmem-nw generate --kind s1000|s10000|s30000|16s|pacbio --count N [--seed S] [--out file]
  upmem-nw bench [--pairs N] [--ranks N] [--dpus N] [--rounds N] [--band N] [--fifo-depth N] [--seed S] [--straggler-hold-ms MS] [--smoke true] [--cache true] [--sim-threads N] [--json file]
  upmem-nw serve [--socket path] [--ranks N] [--dpus N] [--band N] [--fifo-depth N] [--sim-threads N] [--retries N] [--quarantine N] [--audit false] [--stall-deadline SECS] [--queue-requests N] [--queue-pairs N] [--max-open N] [--max-request-pairs N] [--default-deadline-ms MS] [--cache N] [--state-dir dir] [--cache-path dir] [--compact-every N] [--fsync true] [--max-line-bytes N] [--json file]
  upmem-nw info [--ranks N]
  upmem-nw lint [--verbose true] [--json true]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// The `--key value` flags of one command line. Every lookup is recorded,
/// so the flags a command accepts are exactly the keys [`plan`] reads for
/// it; a flag it never asks for is rejected.
struct Flags {
    given: HashMap<String, String>,
    asked: RefCell<BTreeSet<String>>,
}

impl Flags {
    /// Parse `--key value` pairs. `Err` names the first malformed or
    /// repeated argument.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut given = HashMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            if given.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Flags {
            given,
            asked: RefCell::default(),
        })
    }

    fn get(&self, key: &str) -> Option<String> {
        self.asked.borrow_mut().insert(key.to_string());
        self.given.get(key).cloned()
    }

    /// `--key true` or `--key false`, `default` when not given; any other
    /// value is a usage error.
    fn flag(&self, key: &str, default: bool) -> bool {
        self.opt(key).unwrap_or(default)
    }

    /// The parsed value of `--key`, if given; a malformed value is a
    /// usage error.
    fn opt<T: FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: bad value {v:?} for --{key}");
                usage()
            })
        })
    }

    fn num<T: FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// `--band` on a PiM path: a band the kernel's MRAM layout cannot hold
    /// ([`KernelParams::check_band`]) is a usage error.
    fn pim_band(&self, default: usize) -> usize {
        let band = self.num("band", default);
        let params = KernelParams {
            band,
            ..KernelParams::paper_default()
        };
        if let Err(e) = params.check_band() {
            eprintln!("error: --band: {e}");
            usage()
        }
        band
    }

    /// A required flag; missing is a usage error.
    fn required(&self, key: &str) -> String {
        self.get(key).unwrap_or_else(|| usage())
    }

    /// The first given flag (in name order) nothing asked for.
    fn unasked(&self) -> Option<&str> {
        let asked = self.asked.borrow();
        let mut keys: Vec<&String> = self.given.keys().filter(|k| !asked.contains(*k)).collect();
        keys.sort();
        keys.first().map(|k| k.as_str())
    }
}

type Job = Box<dyn FnOnce() -> Result<String, CliError>>;

/// Read `command`'s flags into the call that runs it, or `None` for an
/// unknown command. This is the only place flags are read, and nothing
/// runs until it returns, so [`Flags::unasked`] afterwards names every
/// flag the command does not take.
fn plan(command: &str, f: &Flags) -> Option<Job> {
    let job: Job = match command {
        "align" => {
            let a = f.required("a");
            let b = f.required("b");
            let algo = f
                .get("algo")
                .map(|v| Algo::parse(&v).unwrap_or_else(|| usage()))
                .unwrap_or(Algo::Adaptive);
            // A flag is read only under the algorithms that use it, so one
            // the chosen aligner would ignore is refused as unknown.
            let band = match algo {
                Algo::Exact | Algo::Wfa => 128,
                Algo::Pim => f.pim_band(128),
                _ => f.num("band", 128),
            };
            let (mut ranks, mut fifo_depth, mut sim_threads) = (4, 2, 0);
            let (mut audit, mut cache_capacity) = (false, 0);
            if algo == Algo::Pim {
                ranks = f.num("ranks", ranks);
                fifo_depth = f.num("fifo-depth", fifo_depth);
                sim_threads = f.num("sim-threads", sim_threads);
                audit = f.flag("audit", audit);
                cache_capacity = f.num("cache", cache_capacity);
            }
            Box::new(move || {
                cmd_align(
                    &a,
                    &b,
                    algo,
                    band,
                    ranks,
                    fifo_depth,
                    sim_threads,
                    audit,
                    cache_capacity,
                )
            })
        }
        "matrix" => {
            let input = f.required("in");
            let (band, ranks) = (f.pim_band(128), f.num("ranks", 4));
            Box::new(move || cmd_matrix(&input, band, ranks))
        }
        "generate" => {
            let kind = f.required("kind");
            let count: usize = f.opt("count").unwrap_or_else(|| usage());
            let seed = f.num("seed", 42);
            Box::new(move || cmd_generate(&kind, count, seed))
        }
        "bench" => {
            let d = BenchOpts::default();
            let opts = BenchOpts {
                pairs: f.num("pairs", d.pairs),
                ranks: f.num("ranks", d.ranks),
                dpus: f.num("dpus", d.dpus),
                rounds: f.num("rounds", d.rounds),
                band: f.pim_band(d.band),
                fifo_depth: f.num("fifo-depth", d.fifo_depth),
                seed: f.num("seed", d.seed),
                straggler_hold_ms: f.num("straggler-hold-ms", d.straggler_hold_ms),
                smoke: f.flag("smoke", false),
                json_path: f.get("json"),
                sim_threads: f.num("sim-threads", 0),
                cache: f.flag("cache", false),
            };
            Box::new(move || cmd_bench(&opts))
        }
        "serve" => {
            let d = ServeOptions::default();
            let opts = ServeOptions {
                socket: f
                    .get("socket")
                    .map(std::path::PathBuf::from)
                    .unwrap_or(d.socket),
                ranks: f.num("ranks", d.ranks),
                dpus: f.num("dpus", d.dpus),
                band: f.pim_band(d.band),
                fifo_depth: f.num("fifo-depth", d.fifo_depth),
                sim_threads: f.num("sim-threads", 0),
                retries: f.num("retries", d.retries),
                quarantine: f.num("quarantine", d.quarantine),
                audit: f.flag("audit", d.audit),
                stall_deadline_seconds: f.num("stall-deadline", d.stall_deadline_seconds),
                queue_requests: f.num("queue-requests", d.queue_requests),
                queue_pairs: f.num("queue-pairs", d.queue_pairs),
                max_open_tickets: f.num("max-open", d.max_open_tickets),
                max_pairs_per_request: f.num("max-request-pairs", d.max_pairs_per_request),
                default_deadline_ms: f.opt("default-deadline-ms"),
                fault: d.fault,
                cache_capacity: f.num("cache", d.cache_capacity),
                state_dir: f.get("state-dir").map(std::path::PathBuf::from),
                cache_path: f.get("cache-path").map(std::path::PathBuf::from),
                compact_every: f.num("compact-every", d.compact_every),
                fsync: f.flag("fsync", false),
                max_line_bytes: f.num("max-line-bytes", d.max_line_bytes),
            };
            let json = f.get("json");
            Box::new(move || cmd_serve(&opts, json.as_deref()))
        }
        "info" => {
            let ranks = f.num("ranks", 40);
            Box::new(move || Ok(cmd_info(ranks)))
        }
        "lint" => {
            let (verbose, json) = (f.flag("verbose", false), f.flag("json", false));
            Box::new(move || cmd_lint(verbose, json))
        }
        _ => return None,
    };
    Some(job)
}

/// The job `command` runs and its `--out` path. `Err` names a malformed
/// argument, an unknown command, or a flag the command does not take.
fn prepare(command: &str, args: &[String]) -> Result<(Job, Option<String>), String> {
    let flags = Flags::parse(args)?;
    let job = plan(command, &flags).ok_or_else(|| format!("unknown command {command:?}"))?;
    // Every command takes `--out`.
    let out = flags.get("out");
    match flags.unasked() {
        Some(bad) => Err(format!("unknown flag --{bad} for {command}")),
        None => Ok((job, out)),
    }
}

fn run() -> Result<String, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    let (job, out) = prepare(command, rest).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    });
    // One-shot runs exit with a partial report on Ctrl-C instead of dying
    // mid-write; the engines poll the flag at their planning points.
    if matches!(command.as_str(), "align" | "matrix" | "bench" | "serve") {
        install_interrupt_handler();
    }
    let output = job()?;
    if let Some(path) = out {
        std::fs::write(path, &output)?;
        Ok(String::new())
    } else {
        Ok(output)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn check(command: &str, list: &[&str]) -> Result<(), String> {
        prepare(command, &args(list)).map(|_| ())
    }

    #[test]
    fn removed_and_misspelled_flags_are_rejected() {
        for (command, base) in [
            ("align", &["--a", "x.fa", "--b", "y.fa"][..]),
            ("bench", &[]),
            ("serve", &[]),
        ] {
            for flag in ["--interp-mode", "--interp-mod"] {
                let mut list = base.to_vec();
                list.extend([flag, "jit"]);
                let err = check(command, &list).unwrap_err();
                assert!(err.contains(&flag[2..]), "{command} {flag}: {err}");
            }
        }
        assert!(check("info", &["--rank", "2"]).is_err());
        // Flags the old parser read for every command but only some use.
        assert!(check("lint", &["--band", "64"]).is_err());
        assert!(check("info", &["--sim-threads", "2"]).is_err());
    }

    #[test]
    fn malformed_arguments_and_unknown_commands_are_rejected() {
        assert!(check("lint", &["--json"]).is_err());
        assert!(check("lint", &["json", "true"]).is_err());
        let twice = check("lint", &["--json", "true", "--json", "true"]).unwrap_err();
        assert!(twice.contains("--json given twice"), "{twice}");
        assert!(check("lint", &["--verbose", "false", "--json", "false"]).is_ok());
        assert!(check("frobnicate", &[]).is_err());
        assert!(check(
            "generate",
            &["--kind", "s1000", "--count", "1", "--out", "x.fa"]
        )
        .is_ok());
    }

    #[test]
    fn serve_accepts_every_flag_its_spawners_pass() {
        // The benchmark's daemon spawn and the kill-injection drills'.
        let spawn = [
            "--socket",
            "d.sock",
            "--json",
            "d.json",
            "--ranks",
            "2",
            "--dpus",
            "8",
            "--band",
            "128",
            "--cache",
            "192",
            "--state-dir",
            "state",
            "--compact-every",
            "64",
        ];
        assert!(check("serve", &spawn).is_ok());
    }

    /// The flags each usage line lists are exactly the flags that command
    /// reads (`--out`, which every command takes, aside).
    #[test]
    fn usage_lists_exactly_the_flags_each_mode_reads() {
        for (command, required) in [
            ("align", &["--a", "x", "--b", "y", "--algo", "pim"][..]),
            ("matrix", &["--in", "x"]),
            ("generate", &["--kind", "s1000", "--count", "1"]),
            ("bench", &[]),
            ("serve", &[]),
            ("info", &[]),
            ("lint", &[]),
        ] {
            let flags = Flags::parse(&args(required)).unwrap();
            assert!(plan(command, &flags).is_some(), "{command}");
            let prefix = format!("upmem-nw {command} ");
            let line = USAGE
                .lines()
                .map(str::trim)
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no usage line for {command}"));
            let listed: BTreeSet<String> = line
                .split_whitespace()
                .filter_map(|t| t.trim_start_matches('[').strip_prefix("--"))
                .map(str::to_string)
                .filter(|k| k != "out")
                .collect();
            assert_eq!(listed, *flags.asked.borrow(), "{line}");
        }
    }
}
