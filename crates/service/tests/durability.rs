//! In-process durability tests: two daemon lifetimes over the same state
//! directory (graceful restart — the `kill -9` path lives in the cli's
//! crash-recovery integration test), and startup refusal on a journal
//! written by a future format version.

use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;
use upmem_nw_service::{proto, run_serve, Client, Priority, ServeOptions, ServiceReport};

fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("upmem-nw-durable-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn opts(root: &Path, lifetime: usize) -> ServeOptions {
    ServeOptions {
        socket: root.join(format!("life-{lifetime}.sock")),
        ranks: 2,
        dpus: 4,
        band: 64,
        state_dir: Some(root.join("state")),
        ..ServeOptions::default()
    }
}

fn ascii_pairs(n: usize, seed: u64) -> Vec<(String, String)> {
    SyntheticParams::preset(SyntheticPreset::S1000, seed)
        .generate(n)
        .into_iter()
        .map(|(a, b)| {
            (
                String::from_utf8(a.to_ascii()).unwrap(),
                String::from_utf8(b.to_ascii()).unwrap(),
            )
        })
        .collect()
}

/// One daemon lifetime: serve the workload, collect result lines, drain.
fn lifetime(
    opts: &ServeOptions,
    pairs: &[(String, String)],
) -> (Vec<(f64, String)>, ServiceReport) {
    let o = opts.clone();
    let daemon = thread::spawn(move || run_serve(&o).expect("daemon starts"));
    let mut c =
        Client::connect_retry(&opts.socket, Duration::from_secs(10)).expect("socket appears");
    let mut results = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        c.send(&proto::align_line(
            &format!("p{i}"),
            Priority::Normal,
            None,
            std::slice::from_ref(pair),
        ))
        .unwrap();
        let resp = c.recv().unwrap().expect("result line");
        assert_eq!(
            resp.get("disposition").unwrap().as_str(),
            Some("ok"),
            "{resp:?}"
        );
        for r in resp.get("results").unwrap().as_arr().unwrap() {
            results.push((
                r.get("score").unwrap().as_f64().unwrap(),
                r.get("cigar").unwrap().as_str().unwrap().to_string(),
            ));
        }
    }
    c.send("{\"op\":\"drain\"}").unwrap();
    while c.recv().unwrap().is_some() {}
    (results, daemon.join().unwrap())
}

#[test]
fn graceful_restart_serves_the_workload_from_the_recovered_cache() {
    let root = scratch("warm");
    let pairs = ascii_pairs(6, 17);

    let (cold_results, cold) = lifetime(&opts(&root, 0), &pairs);
    assert!(cold.consistent(), "{cold:?}");
    assert!(cold.durability.enabled);
    assert_eq!(cold.durability.cache_recovered, 0, "first start is cold");
    assert_eq!(cold.cache.hits, 0, "nothing to hit on a cold start");
    assert!(cold.cache.inserts > 0, "workload populates the store");

    let (warm_results, warm) = lifetime(&opts(&root, 1), &pairs);
    assert!(warm.consistent(), "{warm:?}");
    assert!(
        warm.durability.cache_recovered > 0,
        "restart recovered nothing: {:?}",
        warm.durability
    );
    assert_eq!(
        warm.durability.cache_recovery_rejected, 0,
        "clean state must pass the audit gate whole"
    );
    assert!(
        warm.cache.hits as usize >= pairs.len(),
        "warm restart did not serve from the recovered cache: {:?}",
        warm.cache
    );
    assert_eq!(cold_results, warm_results, "answers must be bit-identical");

    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn journal_from_a_future_format_version_refuses_startup() {
    let root = scratch("future");
    let state = root.join("state");
    std::fs::create_dir_all(&state).unwrap();
    // A plausible journal header with format byte bumped past ours.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"UNWJNL");
    bytes.push(0xFE);
    bytes.push(0);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    std::fs::write(state.join("requests.journal"), &bytes).unwrap();

    let err = run_serve(&opts(&root, 0)).expect_err("future version must refuse startup");
    let msg = format!("{err}");
    assert!(
        msg.contains("refusing") || msg.contains("version") || msg.contains("format"),
        "unhelpful refusal message: {msg}"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn text_files_in_the_state_dir_are_reported_as_header_resets() {
    let root = scratch("text-state");
    let state = root.join("state");
    std::fs::create_dir_all(&state).unwrap();
    std::fs::write(state.join("cache.wal"), "not a cache log\n").unwrap();
    std::fs::write(state.join("requests.journal"), "not a journal\n").unwrap();

    let (results, rep) = lifetime(&opts(&root, 0), &ascii_pairs(1, 5));
    assert_eq!(results.len(), 1, "the daemon serves on fresh logs");
    assert!(rep.consistent(), "{rep:?}");
    assert_eq!(rep.durability.header_resets, 2, "{:?}", rep.durability);
    assert_eq!(rep.durability.cache_recovered, 0);
    let json = upmem_nw_service::json::Json::parse(&rep.to_json()).unwrap();
    let d = json.get("durability").unwrap();
    assert_eq!(d.get("header_resets").unwrap().as_u64(), Some(2));

    // Both files were started fresh, so the next lifetime resets nothing.
    let (_, again) = lifetime(&opts(&root, 1), &[]);
    assert_eq!(again.durability.header_resets, 0, "{:?}", again.durability);
    assert_eq!(again.durability.cache_recovered, 1);
    let _ = std::fs::remove_dir_all(root);
}
