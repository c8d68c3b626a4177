//! `upmem-nw` — align DNA on a simulated UPMEM PiM server.
//!
//! ```text
//! upmem-nw align  --a reads_a.fa --b reads_b.fa [--algo adaptive|static|wfa|exact|pim]
//!                 [--band 128] [--ranks 4] [--fifo-depth 2]
//!                 [--sim-threads 0] [--audit true] [--out results.tsv]
//!                 [--cache N]
//! upmem-nw matrix --in seqs.fa [--band 128] [--ranks 4] [--out matrix.tsv]
//! upmem-nw generate --kind s1000|s10000|s30000|16s|pacbio --count N
//!                 [--seed S] [--out data.fa]
//! upmem-nw chaos  [--seed 42] [--pairs 24] [--ranks 2] [--dpus 8] [--band 128]
//!                 [--dpu-fault-rate 0.15] [--corrupt-rate 0.1] [--disabled 2]
//!                 [--hang-faults 0.1] [--corrupt-cigars 0.1]
//!                 [--watchdog-cycles auto|0|N] [--deadline 10] [--audit false]
//!                 [--retries 3] [--quarantine 2] [--fifo-depth 2] [--sim-threads 0]
//! upmem-nw chaos --crash true [--seed 42] [--kills 3] [--requests 5]
//!                 [--pairs-per-request 2] [--ranks 2] [--dpus 4] [--band 64]
//!                 [--read-len 600] [--corrupt-wal true] [--state-root dir]
//!
//! `--watchdog-cycles auto` (the default) derives the per-launch cycle
//! budget from the kernels' symbolic WCET bounds; `0` turns the watchdog
//! off; any other number is an explicit budget. `--fifo-depth` is the
//! number of batches in flight per rank FIFO of the one dispatch engine,
//! for strict runs (`align --algo pim`) and recovering runs (`chaos`,
//! `align --cache N`) alike. `align --cache N` runs the pairs on the PiM
//! lane whatever `--algo` says, behind a content-addressed result cache of
//! capacity N: repeated pairs are served from it, the misses run as one
//! recovering engine ticket.
//! `serve --cache N` sizes the daemon's persistent result cache
//! (default 4096; 0 disables). `serve --state-dir DIR` turns on crash-safe
//! durability: the result cache persists through a checksummed WAL +
//! snapshot and admitted requests are journaled, so a killed daemon
//! restarted against the same directory recovers its cache and replays
//! unanswered requests (`--cache-path`, `--compact-every`, `--fsync`
//! tune it; `--max-line-bytes` bounds per-connection request buffering).
//! `chaos --crash true` runs the kill-injection harness: it spawns the
//! daemon as a child against a durable state dir, SIGKILLs it at seeded
//! points, and asserts recovery serves bit-identical results with
//! balanced books. `bench --cache true` benchmarks the cached path
//! against an uncached run at 0/30/90% duplicates.
//! upmem-nw bench  [--pairs 48] [--ranks 4] [--dpus 4] [--rounds 6] [--band 64]
//!                 [--fifo-depth 2] [--seed 42] [--straggler-hold-ms 35]
//!                 [--smoke true] [--cache true] [--sim-threads 0]
//!                 [--json BENCH_dispatch.json|BENCH_cache.json]
//! upmem-nw serve  [--socket /tmp/upmem-nw.sock] [--ranks 2] [--dpus 8]
//!                 [--band 64] [--fifo-depth 2] [--sim-threads 0] [--retries 3]
//!                 [--quarantine 3] [--audit false] [--stall-deadline 5]
//!                 [--watchdog-cycles 0] [--queue-requests 64]
//!                 [--queue-pairs 4096] [--max-open 8] [--max-request-pairs 1024]
//!                 [--default-deadline-ms MS] [--seed 42] [--dpu-fault-rate 0]
//!                 [--hang-faults 0] [--corrupt-cigars 0] [--json report.json]
//!                 [--cache 4096] [--state-dir dir] [--cache-path dir]
//!                 [--compact-every 256] [--fsync true] [--max-line-bytes N]
//! upmem-nw info   [--ranks 40]
//! upmem-nw lint   [--verbose true] [--json true]
//! ```
//!
//! Every command also takes `--out file` (write the report there instead
//! of stdout). Each command accepts exactly the flags it reads: an unknown
//! or misspelled `--flag`, a flag given twice, or a value that does not
//! parse (a boolean flag takes exactly `true` or `false`) prints the usage
//! and exits with status 2.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::process::ExitCode;
use std::str::FromStr;
use upmem_nw_cli::{
    cmd_align, cmd_bench, cmd_chaos, cmd_chaos_crash, cmd_generate, cmd_info, cmd_lint, cmd_matrix,
    cmd_serve, install_interrupt_handler, Algo, BenchOpts, ChaosOpts, CliError, CrashOpts,
};
use upmem_nw_service::ServeOptions;

const USAGE: &str = "usage:
  upmem-nw align --a <fasta> --b <fasta> [--algo adaptive|static|wfa|exact|pim] [--band N] [--ranks N] [--fifo-depth N] [--sim-threads N] [--audit true] [--cache N] [--out file]
  upmem-nw matrix --in <fasta> [--band N] [--ranks N] [--out file]
  upmem-nw generate --kind s1000|s10000|s30000|16s|pacbio --count N [--seed S] [--out file]
  upmem-nw chaos [--seed S] [--pairs N] [--ranks N] [--dpus N] [--band N] [--dpu-fault-rate P] [--corrupt-rate P] [--hang-faults P] [--corrupt-cigars P] [--watchdog-cycles auto|0|N] [--deadline SECS] [--audit false] [--disabled N] [--retries N] [--quarantine N] [--fifo-depth N] [--sim-threads N]
  upmem-nw chaos --crash true [--seed S] [--kills N] [--requests N] [--pairs-per-request N] [--ranks N] [--dpus N] [--band N] [--read-len N] [--corrupt-wal true] [--state-root dir]
  upmem-nw bench [--pairs N] [--ranks N] [--dpus N] [--rounds N] [--band N] [--fifo-depth N] [--seed S] [--straggler-hold-ms MS] [--smoke true] [--cache true] [--sim-threads N] [--json file]
  upmem-nw serve [--socket path] [--ranks N] [--dpus N] [--band N] [--fifo-depth N] [--sim-threads N] [--retries N] [--quarantine N] [--audit false] [--stall-deadline SECS] [--watchdog-cycles N] [--queue-requests N] [--queue-pairs N] [--max-open N] [--max-request-pairs N] [--default-deadline-ms MS] [--seed S] [--dpu-fault-rate P] [--hang-faults P] [--corrupt-cigars P] [--cache N] [--state-dir dir] [--cache-path dir] [--compact-every N] [--fsync true] [--max-line-bytes N] [--json file]
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
            let band = f.num("band", 128);
            let ranks = f.num("ranks", 4);
            let fifo_depth = f.num("fifo-depth", 2);
            let sim_threads = f.num("sim-threads", 0);
            let audit = f.flag("audit", false);
            let cache_capacity: usize = f.num("cache", 0);
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
            let (band, ranks) = (f.num("band", 128), f.num("ranks", 4));
            Box::new(move || cmd_matrix(&input, band, ranks))
        }
        "generate" => {
            let kind = f.required("kind");
            let count: usize = f.opt("count").unwrap_or_else(|| usage());
            let seed = f.num("seed", 42);
            Box::new(move || cmd_generate(&kind, count, seed))
        }
        "chaos" if f.flag("crash", false) => {
            let d = CrashOpts::default();
            let opts = CrashOpts {
                seed: f.num("seed", d.seed),
                kills: f.num("kills", d.kills),
                requests: f.num("requests", d.requests),
                pairs_per_request: f.num("pairs-per-request", d.pairs_per_request),
                ranks: f.num("ranks", d.ranks),
                dpus: f.num("dpus", d.dpus),
                band: f.num("band", d.band),
                read_len: f.num("read-len", d.read_len),
                state_root: f.get("state-root").map(std::path::PathBuf::from),
                corrupt_wal: f.flag("corrupt-wal", false),
                bin: None,
            };
            Box::new(move || cmd_chaos_crash(&opts))
        }
        "chaos" => {
            let d = ChaosOpts::default();
            let opts = ChaosOpts {
                seed: f.num("seed", d.seed),
                pairs: f.num("pairs", d.pairs),
                ranks: f.num("ranks", d.ranks),
                dpus: f.num("dpus", d.dpus),
                band: f.num("band", d.band),
                dpu_fault_rate: f.num("dpu-fault-rate", d.dpu_fault_rate),
                corrupt_rate: f.num("corrupt-rate", d.corrupt_rate),
                hang_rate: f.num("hang-faults", d.hang_rate),
                silent_corrupt_rate: f.num("corrupt-cigars", d.silent_corrupt_rate),
                watchdog_cycles: match f.get("watchdog-cycles").as_deref() {
                    None | Some("auto") => d.watchdog_cycles,
                    Some(v) => Some(v.parse().unwrap_or_else(|_| usage())),
                },
                deadline_seconds: f.num("deadline", d.deadline_seconds),
                audit: f.flag("audit", d.audit),
                disabled: f.num("disabled", d.disabled),
                retries: f.num("retries", d.retries),
                quarantine: f.num("quarantine", d.quarantine),
                fifo_depth: f.num("fifo-depth", d.fifo_depth),
                sim_threads: f.num("sim-threads", 0),
            };
            Box::new(move || cmd_chaos(&opts))
        }
        "bench" => {
            let d = BenchOpts::default();
            let opts = BenchOpts {
                pairs: f.num("pairs", d.pairs),
                ranks: f.num("ranks", d.ranks),
                dpus: f.num("dpus", d.dpus),
                rounds: f.num("rounds", d.rounds),
                band: f.num("band", d.band),
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
            let mut fault = pim_sim::FaultPlan {
                seed: f.num("seed", 42),
                ..pim_sim::FaultPlan::default()
            };
            fault.dpu_fault_rate = f.num("dpu-fault-rate", fault.dpu_fault_rate);
            fault.hang_rate = f.num("hang-faults", fault.hang_rate);
            fault.silent_corrupt_rate = f.num("corrupt-cigars", fault.silent_corrupt_rate);
            let opts = ServeOptions {
                socket: f
                    .get("socket")
                    .map(std::path::PathBuf::from)
                    .unwrap_or(d.socket),
                ranks: f.num("ranks", d.ranks),
                dpus: f.num("dpus", d.dpus),
                band: f.num("band", d.band),
                fifo_depth: f.num("fifo-depth", d.fifo_depth),
                sim_threads: f.num("sim-threads", 0),
                retries: f.num("retries", d.retries),
                quarantine: f.num("quarantine", d.quarantine),
                audit: f.flag("audit", d.audit),
                stall_deadline_seconds: f.num("stall-deadline", d.stall_deadline_seconds),
                watchdog_cycles: f.num("watchdog-cycles", d.watchdog_cycles),
                queue_requests: f.num("queue-requests", d.queue_requests),
                queue_pairs: f.num("queue-pairs", d.queue_pairs),
                max_open_tickets: f.num("max-open", d.max_open_tickets),
                max_pairs_per_request: f.num("max-request-pairs", d.max_pairs_per_request),
                default_deadline_ms: f.opt("default-deadline-ms"),
                fault,
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
    if matches!(
        command.as_str(),
        "align" | "matrix" | "chaos" | "bench" | "serve"
    ) {
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
            ("chaos", &[]),
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
    fn flags_are_checked_against_the_selected_mode() {
        // `--kills` belongs to the crash harness only.
        assert!(check("chaos", &["--crash", "true", "--kills", "3"]).is_ok());
        assert!(check("chaos", &["--kills", "3"]).is_err());
        // `--rounds` belongs to the dispatch benchmark.
        assert!(check("bench", &["--rounds", "4"]).is_ok());
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
        // The benchmark's daemon spawn and the crash harness's.
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

    /// The flags each usage line lists are exactly the flags that mode
    /// reads (`--out`, which every command takes, aside).
    #[test]
    fn usage_lists_exactly_the_flags_each_mode_reads() {
        for (command, required) in [
            ("align", &["--a", "x", "--b", "y"][..]),
            ("matrix", &["--in", "x"]),
            ("generate", &["--kind", "s1000", "--count", "1"]),
            ("chaos", &[]),
            ("chaos", &["--crash", "true"]),
            ("bench", &[]),
            ("serve", &[]),
            ("info", &[]),
            ("lint", &[]),
        ] {
            let flags = Flags::parse(&args(required)).unwrap();
            assert!(plan(command, &flags).is_some(), "{command}");
            let mode = required.first().copied().filter(|&f| f == "--crash");
            let prefix = format!("upmem-nw {command} {}", mode.unwrap_or(""));
            let line = USAGE
                .lines()
                .map(str::trim)
                .filter(|l| l.starts_with(&prefix))
                .find(|l| {
                    let rest = &l[prefix.len()..];
                    mode.is_some() || !rest.starts_with("--crash")
                })
                .unwrap_or_else(|| panic!("no usage line for {command} {mode:?}"));
            let listed: BTreeSet<String> = line
                .split_whitespace()
                .filter_map(|t| t.trim_start_matches('[').strip_prefix("--"))
                .map(str::to_string)
                .filter(|k| !["out", "crash"].contains(&k.as_str()))
                .collect();
            let read: BTreeSet<String> = flags
                .asked
                .borrow()
                .iter()
                .filter(|k| k.as_str() != "crash")
                .cloned()
                .collect();
            assert_eq!(listed, read, "{line}");
        }
    }
}
