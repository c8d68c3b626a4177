//! Chaos-mode serving: the daemon under live traffic on a faulty server —
//! seeded hangs, launch faults, silent result corruption, and a straggler
//! that holds the host — must answer every request, deliver only
//! reference-correct results (the audit is the sole defense against silent
//! corruption), and keep its accounting exact.

use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use nw_core::adaptive::AdaptiveAligner;
use nw_core::seq::DnaSeq;
use nw_core::ScoringScheme;
use pim_sim::FaultPlan;
use std::time::Duration;
use upmem_nw_service::{proto, run_serve, Client, Priority, ServeOptions};

#[test]
fn chaos_serve_audits_every_result_under_live_traffic() {
    let band = 64usize;
    let opts = ServeOptions {
        socket: std::env::temp_dir().join(format!(
            "upmem-nw-test-{}-serve-chaos.sock",
            std::process::id()
        )),
        ranks: 2,
        dpus: 4,
        band,
        max_open_tickets: 4,
        retries: 4,
        audit: true,
        // Rank 0 holds the host for 5 s on every other launch: only the
        // 0.2 s stall deadline can cut those waits short. Hangs are reaped
        // by each launch's derived watchdog in simulated time.
        stall_deadline_seconds: 0.2,
        fault: FaultPlan {
            seed: 42,
            dpu_fault_rate: 0.05,
            hang_rate: 0.04,
            silent_corrupt_rate: 0.4,
            straggler_ranks: vec![0],
            straggler_hold_ms: 5_000.0,
            ..FaultPlan::default()
        },
        ..ServeOptions::default()
    };
    let daemon = {
        let opts = opts.clone();
        std::thread::spawn(move || run_serve(&opts).expect("daemon starts"))
    };
    let mut c =
        Client::connect_retry(&opts.socket, Duration::from_secs(10)).expect("daemon socket");

    let pairs = SyntheticParams::preset(SyntheticPreset::S1000, 99).generate(3);
    let ascii: Vec<(String, String)> = pairs
        .iter()
        .map(|(a, b)| {
            (
                String::from_utf8(a.to_ascii()).unwrap(),
                String::from_utf8(b.to_ascii()).unwrap(),
            )
        })
        .collect();
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), band);
    let reference: Vec<_> = pairs
        .iter()
        .map(|(a, b)| aligner.align(a, b).expect("reference aligns"))
        .collect();

    // Three waves of live traffic so faults, quarantine state, and
    // retries span requests on the persistent engine.
    let waves = 3;
    let per_wave = 4;
    for wave in 0..waves {
        for k in 0..per_wave {
            c.send(&proto::align_line(
                &format!("w{wave}-r{k}"),
                Priority::Normal,
                None,
                &ascii,
            ))
            .unwrap();
        }
        for _ in 0..per_wave {
            let v = c.recv().unwrap().expect("result line");
            assert_eq!(v.get("type").unwrap().as_str(), Some("result"));
            assert_eq!(v.get("disposition").unwrap().as_str(), Some("ok"));
            let results = v.get("results").unwrap().as_arr().unwrap();
            assert_eq!(results.len(), pairs.len());
            // Every delivered result must match the fault-free CPU
            // reference bit-for-bit — score AND cigar, because silent
            // corruption can mutate the runs while the checksum passes.
            for (got, want) in results.iter().zip(&reference) {
                assert_eq!(got.get("status").unwrap().as_str(), Some("ok"));
                assert_eq!(
                    got.get("score").unwrap().as_f64(),
                    Some(want.score as f64),
                    "corrupt score escaped the audit"
                );
                assert_eq!(
                    got.get("cigar").unwrap().as_str(),
                    Some(want.cigar.to_string().as_str()),
                    "corrupt cigar escaped the audit"
                );
            }
        }
    }

    c.send("{\"op\":\"drain\"}").unwrap();
    while c.recv().unwrap().is_some() {}
    let rep = daemon.join().unwrap();

    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.completed, waves * per_wave);
    assert_eq!(rep.deadline_missed, 0);
    assert!(rep.drained);
    assert!(rep.fault.audit_checked > 0, "audit must have run");
    // At a 40% silent-corruption rate across dozens of launches the plan
    // essentially always injects; every injection must have been caught.
    assert!(
        rep.fault.silent_corruptions > 0,
        "chaos plan injected nothing — test lost its teeth: {:?}",
        rep.fault
    );
    assert!(
        rep.fault.audit_failures > 0,
        "{} silent corruptions injected but the audit rejected nothing",
        rep.fault.silent_corruptions
    );
    // Recovery did real work and the service stayed up through it.
    assert!(rep.fault.retried_jobs > 0 || rep.fault.cpu_fallbacks > 0);
    // The stall deadline, not the 5 s hold, ended the straggler's waits.
    assert!(
        rep.fault.deadline_cancellations > 0,
        "the stall deadline never fired: {:?}",
        rep.fault
    );

    // Check the DnaSeq round trip used above was faithful (guards the test
    // itself against an ascii/pack mismatch silently weakening it).
    assert_eq!(
        DnaSeq::from_ascii(ascii[0].0.as_bytes())
            .unwrap()
            .to_ascii(),
        pairs[0].0.to_ascii()
    );
}

/// The daemon's persistent result cache and the live `stats` op: repeated
/// requests for the same pairs are answered from the cache (bit-identical
/// to the engine-computed first answer), and `{"op":"stats"}` reports live
/// cache and per-backend telemetry without draining anything.
#[test]
fn serve_caches_repeats_and_reports_live_stats() {
    let band = 64usize;
    let opts = ServeOptions {
        socket: std::env::temp_dir().join(format!(
            "upmem-nw-test-{}-serve-stats.sock",
            std::process::id()
        )),
        ranks: 1,
        dpus: 4,
        band,
        ..ServeOptions::default()
    };
    let daemon = {
        let opts = opts.clone();
        std::thread::spawn(move || run_serve(&opts).expect("daemon starts"))
    };
    let mut c =
        Client::connect_retry(&opts.socket, Duration::from_secs(10)).expect("daemon socket");

    let pairs = SyntheticParams::preset(SyntheticPreset::S1000, 7).generate(4);
    let ascii: Vec<(String, String)> = pairs
        .iter()
        .map(|(a, b)| {
            (
                String::from_utf8(a.to_ascii()).unwrap(),
                String::from_utf8(b.to_ascii()).unwrap(),
            )
        })
        .collect();

    // Same pairs three times: the first request computes, the rest are
    // all-hit and must be answered without opening an engine ticket.
    let mut answers = Vec::new();
    for k in 0..3 {
        c.send(&proto::align_line(
            &format!("rep-{k}"),
            Priority::Normal,
            None,
            &ascii,
        ))
        .unwrap();
        let v = c.recv().unwrap().expect("result line");
        assert_eq!(v.get("type").unwrap().as_str(), Some("result"));
        assert_eq!(v.get("disposition").unwrap().as_str(), Some("ok"));
        let results = v.get("results").unwrap().as_arr().unwrap();
        let shape: Vec<(String, String)> = results
            .iter()
            .map(|r| {
                (
                    r.get("score").unwrap().as_f64().unwrap().to_string(),
                    r.get("cigar").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect();
        answers.push(shape);
    }
    assert_eq!(answers[0], answers[1], "cached answer diverged");
    assert_eq!(answers[0], answers[2], "cached answer diverged");

    // Live stats, no drain: the cache block shows the repeat hits and the
    // per-backend split accounts for every completed pair.
    c.send("{\"op\":\"stats\"}").unwrap();
    let v = c.recv().unwrap().expect("stats line");
    assert_eq!(v.get("type").unwrap().as_str(), Some("stats"));
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(false));
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(3));
    assert_eq!(
        v.get("pairs_completed").unwrap().as_u64(),
        Some(3 * pairs.len() as u64)
    );
    let cache = v.get("cache").unwrap();
    assert_eq!(
        cache.get("hits").unwrap().as_u64(),
        Some(2 * pairs.len() as u64)
    );
    assert_eq!(
        cache.get("resident").unwrap().as_u64(),
        Some(pairs.len() as u64)
    );
    assert_eq!(
        cache.get("capacity").unwrap().as_u64(),
        Some(opts.cache_capacity as u64)
    );
    let backends = v.get("backends").unwrap().as_arr().unwrap();
    let pair_count = |name: &str| {
        backends
            .iter()
            .find(|b| b.get("name").unwrap().as_str() == Some(name))
            .and_then(|b| b.get("pairs").unwrap().as_u64())
            .unwrap()
    };
    assert_eq!(pair_count("pim"), pairs.len() as u64);
    assert_eq!(pair_count("cache"), 2 * pairs.len() as u64);
    assert_eq!(pair_count("cpu-fallback"), 0);

    c.send("{\"op\":\"drain\"}").unwrap();
    while c.recv().unwrap().is_some() {}
    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.completed, 3);
    assert_eq!(rep.pairs_from_cache, 2 * pairs.len());
    assert!(rep.cache.conserved(), "{:?}", rep.cache);
    assert_eq!(rep.cache_resident, pairs.len());
    assert_eq!(rep.cache_capacity, opts.cache_capacity);
    let json = upmem_nw_service::json::Json::parse(&rep.to_json()).unwrap();
    let cache = json.get("cache").unwrap();
    assert_eq!(
        cache.get("resident").unwrap().as_u64(),
        Some(pairs.len() as u64)
    );
    assert_eq!(
        cache.get("capacity").unwrap().as_u64(),
        Some(opts.cache_capacity as u64)
    );
    assert!(rep.pim_utilization >= 0.0 && rep.pim_utilization <= 1.0);
}
