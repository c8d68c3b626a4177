//! Self-test of the benchmark's workloads.
//!
//! The generator tests are pure. `workloads_hold_their_invariants` drives
//! the real `upmem-nw serve` binary: it uses `$UPMEM_NW_BIN` when set and
//! otherwise builds the binary from the repository.

use perfbench::reference::{expected_of, reference};
use perfbench::workload::{self, HotStream, Workload};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use upmem_nw_service::json::Json;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `why` line `BENCHMARK.json` records for `workload`.
fn why(workload: Workload) -> String {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array")
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload.name()))
        .and_then(|w| w.get("why").and_then(Json::as_str))
        .expect("the workload is listed")
        .to_string()
}

/// The number that follows `label` in `text`.
fn number_after(text: &str, label: &str) -> f64 {
    let rest = &text[text
        .find(label)
        .unwrap_or_else(|| panic!("{label:?} in {text:?}"))
        + label.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("a number after {label:?}"))
}

#[test]
fn generators_are_deterministic_per_seed() {
    for seed in [1, 7] {
        assert!(
            (0..64).all(|i| workload::short_request(seed, i) == workload::short_request(seed, i))
        );
        assert_eq!(workload::short_table(seed), workload::short_table(seed));
        assert_eq!(
            workload::hot_working_set(seed),
            workload::hot_working_set(seed)
        );
        let (s, t) = (HotStream::new(seed), HotStream::new(seed));
        assert!((0..64).all(|i| s.request(i) == t.request(i)));
        assert_eq!(workload::batch_long(seed), workload::batch_long(seed));
    }
    assert_ne!(workload::short_table(1), workload::short_table(2));
    assert_ne!(workload::batch_long(1), workload::batch_long(2));
}

#[test]
fn serve_short_never_repeats_a_pair() {
    let seed = 3;
    let table = workload::short_table(seed);
    let mut used = HashSet::new();
    for i in 0..workload::SHORT_MAX_REQUESTS {
        let r = workload::short_request(seed, i).expect("within the stream");
        assert_eq!(r.pairs.len(), workload::SHORT_PAIRS);
        assert!(r.pairs.iter().all(|&p| used.insert(p)), "a pair id repeats");
    }
    assert_eq!(
        workload::short_request(seed, workload::SHORT_MAX_REQUESTS),
        None
    );
    assert!(used.iter().all(|&p| p < table.len() * workload::ORDERINGS));
    // Every ordering of the first base pairs, and the whole base table, are
    // distinct reads.
    let mut distinct: HashSet<(String, String)> = (0..table.len())
        .map(|p| workload::variant_texts(&table, p))
        .collect();
    for v in 1..workload::ORDERINGS {
        for p in 0..32 {
            distinct.insert(workload::variant_texts(&table, v * table.len() + p));
        }
    }
    assert_eq!(
        distinct.len(),
        table.len() + 32 * (workload::ORDERINGS - 1),
        "two pairs are identical"
    );
}

#[test]
fn a_variant_shares_its_base_pairs_answer() {
    let table = workload::short_table(4);
    let base = &table[..6];
    let expected = reference(base, workload::SERVE_BAND);
    for v in 0..workload::ORDERINGS {
        let ids: Vec<usize> = (0..base.len()).map(|p| v * base.len() + p).collect();
        let variants: Vec<_> = ids.iter().map(|&id| workload::variant(base, id)).collect();
        let answers = reference(&variants, workload::SERVE_BAND);
        for (&id, answer) in ids.iter().zip(&answers) {
            assert_eq!(answer, expected_of(&expected, id), "ordering {v}, id {id}");
        }
    }
}

#[test]
fn serve_hot_durable_matches_its_recorded_shape() {
    let why = why(Workload::ServeHotDurable);
    let ratio = workload::HOT_WORKING_SET as f64 / workload::HOT_CACHE as f64;
    assert_eq!(number_after(&why, "working set ="), ratio);
    let stated = number_after(&why, "dup ratio");
    for seed in [1, 2, 3, 4] {
        let measured = HotStream::new(seed).duplicate_ratio(workload::HOT_DUP_HORIZON);
        assert!(
            (measured - stated).abs() <= 0.02,
            "seed {seed}: duplicate ratio {measured:.3}, BENCHMARK.json says {stated}"
        );
    }
    let s = HotStream::new(9);
    let drawn: HashSet<usize> = (0..4096).flat_map(|i| s.request(i).pairs).collect();
    assert!(
        drawn.len() > workload::HOT_CACHE,
        "the working set outgrows the cache"
    );
}

#[test]
fn serve_short_matches_its_recorded_shape() {
    let why = why(Workload::ServeShort);
    assert_eq!(
        number_after(&why, "closed loop of") as usize,
        workload::SHORT_WINDOW
    );
    assert_eq!(
        number_after(&why, "requests of") as usize,
        workload::SHORT_PAIRS
    );
}

/// The daemon binary: `$UPMEM_NW_BIN`, or a fresh release build.
fn daemon_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("UPMEM_NW_BIN") {
        return PathBuf::from(p);
    }
    let root = manifest_dir().join("..");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build"));
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "-q",
            "-p",
            "upmem-nw-cli",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building upmem-nw failed");
    target.join("release/upmem-nw")
}

fn layer(o: &perfbench::Outcome, name: &str) -> f64 {
    o.layers.get(name).map(|m| m.0).unwrap_or(f64::NAN)
}

/// One test drives every daemon run: the runs share the working directory.
#[test]
fn workloads_hold_their_invariants() {
    let bin = std::fs::canonicalize(daemon_bin()).expect("daemon binary exists");
    let dir = manifest_dir().join(format!("../.bench_run/selftest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let here = std::env::current_dir().unwrap();
    std::env::set_current_dir(&dir).unwrap();
    let run = |w, seed, secs| perfbench::run(Path::new(&bin), w, seed, secs, false);

    let short = run(Workload::ServeShort, 5, 3.0);
    let hot = run(Workload::ServeHotDurable, 5, 4.0);
    let batch_a = run(Workload::BatchLong, 5, 1.0);
    let batch_b = run(Workload::BatchLong, 5, 1.0);
    std::env::set_current_dir(here).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let short = short.expect("serve-short runs");
    assert!(short.correct && short.failed == 0, "{:?}", short.problems);
    assert_eq!(
        layer(&short, "cache.hit_rate"),
        0.0,
        "serve-short hit the cache"
    );

    let hot = hot.expect("serve-hot-durable runs");
    assert!(hot.correct && hot.failed == 0, "{:?}", hot.problems);
    assert!(layer(&hot, "cache.hit_rate") > 0.0);
    assert!(layer(&hot, "cache.evictions") > 0.0);
    assert!(layer(&hot, "wal.appends") > 0.0);

    let (a, b) = (
        batch_a.expect("batch-long runs"),
        batch_b.expect("batch-long runs"),
    );
    assert!(a.correct && b.correct, "{:?} {:?}", a.problems, b.problems);
    for m in ["sim_s", "sim_host_overhead_frac"] {
        assert_eq!(
            a.e2e[m].0.to_bits(),
            b.e2e[m].0.to_bits(),
            "{m} must repeat exactly"
        );
    }
}
