//! `perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//!            --bin PATH/upmem-nw --root REPO`
//!
//! Runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced). A readable summary and
//! the run environment go to stderr; the full record (environment, both
//! metric sets, books, spans) goes to `.bench_run/` under the root.
//! `--seconds` defaults to `run_seconds` of `BENCHMARK.json`.
//! Exits 1 on any wrong answer, failed request or unbalanced books, and 2
//! on bad arguments.

use perfbench::workload::Workload;
use perfbench::{metrics_json, result_line, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`: how long a run measures when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    root: PathBuf,
}

fn flag01(name: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{name} takes 0 or 1")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut bin, mut root) = (None, None, None, None, None);
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = flag01("--trace", &value)?,
            "--bin" => bin = Some(PathBuf::from(value)),
            "--root" => root = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        bin: bin.ok_or("--bin is required")?,
        root: root.ok_or("--root is required")?,
    })
}

/// First line of a command's stdout, or `unknown`.
fn probe(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn environment(a: &Args, what: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = probe(Command::new("rustc").arg("--version"));
    // Only the checkout's own repository: git would otherwise report the
    // commit of whatever repository encloses a plain source tree.
    let commit = if a.root.join(".git").exists() {
        probe(
            Command::new("git")
                .arg("-C")
                .arg(&a.root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "{{\"workload\": \"{what}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"commit\": \"{commit}\"}}",
        a.seed, a.seconds, a.trace
    )
}

fn record(o: &Outcome, env: &str) -> String {
    let list = |v: &[String]| {
        let items: Vec<String> = v
            .iter()
            .map(|s| format!("\"{}\"", upmem_nw_service::json::escape(s)))
            .collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"environment\": {env},\n\"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_frac\": {:?},\n\"end_to_end\": {},\n\"per_layer\": {},\n\"problems\": {},\n\
         \"notes\": {},\n\"spans\": {}}}\n",
        o.correct,
        o.attempted,
        o.failed,
        o.failed_frac(),
        metrics_json(&o.e2e),
        metrics_json(&o.layers),
        list(&o.problems),
        list(&o.notes),
        o.tracer.as_ref().map_or("[]".into(), |t| t.to_json()),
    )
}

fn record_path(a: &Args, w: Workload) -> PathBuf {
    a.root.join(".bench_run").join(format!(
        "{}-s{}-t{}.json",
        w.name(),
        a.seed,
        u8::from(a.trace)
    ))
}

/// Run `f` on the canonical daemon binary from a fresh scratch directory
/// `.bench_run/<tag>-<pid>`, which holds the run's sockets and state under
/// short relative names (unix socket paths are limited to about 108
/// bytes), and remove the directory afterwards.
fn in_scratch<T>(
    a: &Args,
    tag: &str,
    f: impl FnOnce(&Path) -> Result<T, String>,
) -> Result<T, String> {
    let scratch = a
        .root
        .join(".bench_run")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let bin = std::fs::canonicalize(&a.bin).map_err(|e| format!("{}: {e}", a.bin.display()))?;
    let here = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_current_dir(&scratch).map_err(|e| e.to_string())?;
    let out = f(&bin);
    std::env::set_current_dir(&here).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

fn run(a: &Args, w: Workload) -> Result<(Outcome, String), String> {
    let tag = format!("{}-s{}-t{}", w.name(), a.seed, u8::from(a.trace));
    let outcome = in_scratch(a, &tag, |bin| {
        perfbench::run(bin, w, a.seed, a.seconds, a.trace)
    })?;
    let env = environment(a, w.name());
    let path = record_path(a, w);
    std::fs::write(&path, record(&outcome, &env))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((outcome, env))
}

fn summary(o: &Outcome, env: &str, trace: bool, record: &Path) {
    eprintln!("environment: {env}");
    let shown = if trace { &o.layers } else { &o.e2e };
    for (name, (value, unit)) in shown {
        eprintln!("  {name:<28} {value:>14.6} {unit}");
    }
    eprintln!(
        "  {:<28} {:>14.6} frac ({} of {} failed)",
        "failed_frac",
        o.failed_frac(),
        o.failed,
        o.attempted
    );
    for n in &o.notes {
        eprintln!("  {n}");
    }
    for p in &o.problems {
        eprintln!("  PROBLEM: {p}");
    }
    eprintln!("  record: {}", record.display());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let (outcome, env) = match run(&args, workload) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    summary(&outcome, &env, args.trace, &record_path(&args, workload));
    let shown = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let complete = shown.values().all(|(v, _)| v.is_finite());
    if !complete {
        eprintln!("perfbench: some metrics were not measured");
    }
    println!("{}", result_line(&outcome, shown));
    if outcome.correct && outcome.failed == 0 && complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
