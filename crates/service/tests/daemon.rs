//! End-to-end daemon tests over a real unix socket: round trips, deadline
//! handling, graceful drain with in-flight work, admission/shedding under
//! a deliberately full queue, an overload burst against a live engine, a
//! cache hit overtaking a long miss, a client that stops reading, and hung
//! DPUs reaped by the launch watchdog.

use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use nw_core::adaptive::AdaptiveAligner;
use nw_core::ScoringScheme;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;
use upmem_nw_service::{proto, run_serve, Client, Priority, ServeOptions, ServiceReport};

fn sock(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("upmem-nw-test-{}-{name}.sock", std::process::id()));
    p
}

fn test_opts(name: &str) -> ServeOptions {
    ServeOptions {
        socket: sock(name),
        ranks: 2,
        dpus: 4,
        band: 64,
        max_open_tickets: 4,
        queue_requests: 16,
        queue_pairs: 1024,
        stall_deadline_seconds: 2.0,
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

/// Every result is `ok` with the CPU adaptive aligner's score and CIGAR.
fn assert_matches_cpu_reference(pairs: &[(String, String)], results: &[Json], band: usize) {
    assert_eq!(results.len(), pairs.len());
    let aligner = AdaptiveAligner::new(ScoringScheme::default(), band);
    for ((a, b), got) in pairs.iter().zip(results) {
        let reference = aligner
            .align(
                &nw_core::seq::DnaSeq::from_ascii(a.as_bytes()).unwrap(),
                &nw_core::seq::DnaSeq::from_ascii(b.as_bytes()).unwrap(),
            )
            .expect("reference aligns");
        assert_eq!(got.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            got.get("score").unwrap().as_f64(),
            Some(reference.score as f64)
        );
        assert_eq!(
            got.get("cigar").unwrap().as_str(),
            Some(reference.cigar.to_string().as_str())
        );
    }
}

fn spawn_daemon(opts: &ServeOptions) -> thread::JoinHandle<ServiceReport> {
    let opts = opts.clone();
    thread::spawn(move || run_serve(&opts).expect("daemon starts"))
}

fn connect(opts: &ServeOptions) -> Client {
    Client::connect_retry(&opts.socket, Duration::from_secs(10)).expect("daemon socket appears")
}

/// Read responses until EOF, keyed by id; the drain ack has no id and is
/// returned separately (last ack wins).
fn collect_until_eof(c: &mut Client) -> (HashMap<String, Json>, usize) {
    let mut by_id = HashMap::new();
    let mut drain_acks = 0;
    while let Some(v) = c.recv().expect("readable response") {
        if v.get("type").and_then(Json::as_str) == Some("draining") {
            drain_acks += 1;
            continue;
        }
        let id = v.get("id").and_then(Json::as_str).expect("id").to_string();
        by_id.insert(id, v);
    }
    (by_id, drain_acks)
}

#[test]
fn roundtrip_results_match_cpu_reference_and_drain_reports() {
    let opts = test_opts("roundtrip");
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    let pairs = ascii_pairs(4, 7);
    c.send(&proto::align_line("r1", Priority::Normal, None, &pairs))
        .unwrap();
    let resp = c.recv().unwrap().expect("result line");
    assert_eq!(resp.get("type").unwrap().as_str(), Some("result"));
    assert_eq!(resp.get("id").unwrap().as_str(), Some("r1"));
    assert_eq!(resp.get("disposition").unwrap().as_str(), Some("ok"));
    let results = resp.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), pairs.len());

    assert_matches_cpu_reference(&pairs, results, opts.band);

    c.send("{\"op\":\"drain\"}").unwrap();
    let (rest, drain_acks) = collect_until_eof(&mut c);
    assert!(rest.is_empty(), "no further responses expected: {rest:?}");
    assert_eq!(drain_acks, 1);

    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.received, 1);
    assert_eq!(rep.accepted, 1);
    assert_eq!(rep.completed, 1);
    assert_eq!(rep.pairs_completed, 4);
    assert!(rep.drained);
    assert!(rep.latency_p50_ms > 0.0);
}

#[test]
fn deadline_expired_on_arrival_is_reaped_not_dropped() {
    let opts = test_opts("deadline0");
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    let pairs = ascii_pairs(2, 11);
    // deadline_ms 0: expired the moment it is admitted.
    c.send(&proto::align_line(
        "late",
        Priority::Normal,
        Some(0),
        &pairs,
    ))
    .unwrap();
    let resp = c.recv().unwrap().expect("terminal answer");
    assert_eq!(resp.get("type").unwrap().as_str(), Some("result"));
    assert_eq!(resp.get("id").unwrap().as_str(), Some("late"));
    assert_eq!(
        resp.get("disposition").unwrap().as_str(),
        Some("deadline-missed")
    );
    let results = resp.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 2);
    for r in results {
        assert_eq!(r.get("status").unwrap().as_str(), Some("cancelled"));
    }

    // The daemon is still healthy: a normal request completes after it.
    c.send(&proto::align_line("fine", Priority::Normal, None, &pairs))
        .unwrap();
    let resp = c.recv().unwrap().expect("result line");
    assert_eq!(resp.get("disposition").unwrap().as_str(), Some("ok"));

    c.send("{\"op\":\"drain\"}").unwrap();
    let _ = collect_until_eof(&mut c);
    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.accepted, 2);
    assert_eq!(rep.completed, 1);
    assert_eq!(rep.deadline_missed, 1);
    assert_eq!(rep.jobs_cancelled, 2);
}

#[test]
fn drain_with_inflight_work_answers_every_request() {
    let opts = test_opts("drain-inflight");
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    // Fire several requests and the drain without reading anything, so the
    // drain lands while work is queued and in flight.
    let pairs = ascii_pairs(3, 23);
    for k in 0..3 {
        c.send(&proto::align_line(
            &format!("r{k}"),
            Priority::Normal,
            None,
            &pairs,
        ))
        .unwrap();
    }
    c.send("{\"op\":\"drain\"}").unwrap();
    // Requests arriving after the drain are rejected, not ignored.
    c.send(&proto::align_line("late", Priority::Normal, None, &pairs))
        .unwrap();

    let (by_id, _) = collect_until_eof(&mut c);
    for k in 0..3 {
        let v = &by_id[&format!("r{k}")];
        assert_eq!(v.get("type").unwrap().as_str(), Some("result"));
        assert_eq!(v.get("disposition").unwrap().as_str(), Some("ok"));
    }
    // The late request raced the drain: either answered before the flag
    // was processed (result) or explicitly rejected — but never silent,
    // unless the daemon exited before reading the line (EOF answers it).
    if let Some(v) = by_id.get("late") {
        let t = v.get("type").unwrap().as_str().unwrap();
        assert!(t == "result" || t == "reject", "unexpected answer {v:?}");
    }

    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert!(rep.completed >= 3);
    assert!(rep.drained);
}

#[test]
fn full_queue_rejects_sheds_and_deadlines_account_exactly() {
    // Admission-only mode: max_open_tickets = 0 pauses dispatch so the
    // queue fills deterministically.
    let mut opts = test_opts("admission");
    opts.max_open_tickets = 0;
    opts.queue_requests = 2;
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    let pairs = ascii_pairs(1, 31);
    let deadline = Some(400);
    c.send(&proto::align_line("b1", Priority::Batch, deadline, &pairs))
        .unwrap();
    c.send(&proto::align_line("b2", Priority::Batch, deadline, &pairs))
        .unwrap();
    // Queue exactly full: a same-priority arrival is rejected with a hint.
    c.send(&proto::align_line("b3", Priority::Batch, deadline, &pairs))
        .unwrap();
    // A higher-priority arrival displaces the youngest batch request.
    c.send(&proto::align_line(
        "i1",
        Priority::Interactive,
        deadline,
        &pairs,
    ))
    .unwrap();
    c.send("{\"op\":\"drain\"}").unwrap();

    let (by_id, drain_acks) = collect_until_eof(&mut c);
    assert_eq!(drain_acks, 1);

    let b3 = &by_id["b3"];
    assert_eq!(b3.get("type").unwrap().as_str(), Some("reject"));
    assert_eq!(b3.get("reason").unwrap().as_str(), Some("queue-full"));
    assert!(b3.get("retry_after_ms").unwrap().as_u64().unwrap() >= 1);

    let b2 = &by_id["b2"];
    assert_eq!(b2.get("type").unwrap().as_str(), Some("shed"));
    assert!(b2.get("retry_after_ms").unwrap().as_u64().unwrap() >= 1);

    // b1 and i1 sat in the paused queue until their deadlines reaped them.
    for id in ["b1", "i1"] {
        let v = &by_id[id];
        assert_eq!(v.get("type").unwrap().as_str(), Some("result"), "{id}");
        assert_eq!(
            v.get("disposition").unwrap().as_str(),
            Some("deadline-missed"),
            "{id}"
        );
    }

    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.received, 4);
    assert_eq!(rep.accepted, 3);
    assert_eq!(rep.rejected, 1);
    assert_eq!(rep.shed, 1);
    assert_eq!(rep.deadline_missed, 2);
    assert_eq!(rep.completed, 0);
    assert_eq!(rep.max_queue_depth, 2);
}

#[test]
fn live_engine_overload_answers_every_request_once_and_books_balance() {
    // Dispatch stays live (one open ticket) behind a two-slot queue, and
    // one write delivers the whole burst, so the queue overflows whether
    // the driver admits all of it before its first dispatch or starts a
    // ticket early: batch requests fill the queue and then bounce, higher
    // classes displace the youngest lower-class request, and the
    // `deadline_ms: 0` one is admitted (nothing queued outranks it) and
    // reaped. The first ticket the engine runs has no deadline and
    // completes.
    let mut opts = test_opts("overload");
    opts.max_open_tickets = 1;
    opts.queue_requests = 2;
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    let pairs = ascii_pairs(12, 53);
    let mut burst: Vec<(String, Priority, Option<u64>)> = (0..6)
        .map(|k| (format!("b{k}"), Priority::Batch, None))
        .collect();
    burst.push(("n0".into(), Priority::Normal, None));
    burst.push(("late".into(), Priority::Interactive, Some(0)));
    burst.extend((0..4).map(|k| (format!("i{k}"), Priority::Interactive, None)));
    let lines: Vec<String> = burst
        .iter()
        .zip(pairs.chunks(1))
        .map(|((id, priority, deadline), pair)| proto::align_line(id, *priority, *deadline, pair))
        .collect();
    c.send(&lines.join("\n")).unwrap();
    c.send("{\"op\":\"drain\"}").unwrap();

    let mut answers: HashMap<String, Vec<Json>> = HashMap::new();
    while let Some(v) = c.recv().expect("readable response") {
        if v.get("type").and_then(Json::as_str) == Some("draining") {
            continue;
        }
        let id = v.get("id").and_then(Json::as_str).expect("id").to_string();
        answers.entry(id).or_default().push(v);
    }
    let mut seen = HashMap::new();
    for (id, _, deadline) in &burst {
        let got = answers.remove(id).unwrap_or_default();
        assert_eq!(
            got.len(),
            1,
            "{id}: exactly one terminal answer, got {got:?}"
        );
        let v = &got[0];
        let kind = match v.get("type").and_then(Json::as_str) {
            Some("result") => v.get("disposition").and_then(Json::as_str).unwrap(),
            Some(t @ ("reject" | "shed")) => t,
            other => panic!("{id}: not a terminal answer: {other:?}"),
        };
        if deadline.is_some() {
            assert!(kind == "deadline-missed", "{id}: {v:?}");
        }
        *seen.entry(kind.to_string()).or_insert(0usize) += 1;
    }
    assert!(answers.is_empty(), "answers to unknown ids: {answers:?}");

    let rep = daemon.join().unwrap();
    let count = |kind: &str| seen.get(kind).copied().unwrap_or(0);
    assert_eq!(rep.received, burst.len(), "{rep:?}");
    assert_eq!(rep.received, rep.accepted + rep.rejected, "{rep:?}");
    assert_eq!(
        rep.accepted,
        rep.completed + rep.deadline_missed + rep.shed,
        "{rep:?}"
    );
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(count("ok"), rep.completed, "{seen:?} vs {rep:?}");
    assert_eq!(count("deadline-missed"), rep.deadline_missed, "{seen:?}");
    assert_eq!(count("reject"), rep.rejected, "{seen:?}");
    assert_eq!(count("shed"), rep.shed, "{seen:?}");
    for (what, n) in [
        ("rejected", rep.rejected),
        ("shed", rep.shed),
        ("deadline_missed", rep.deadline_missed),
        ("completed", rep.completed),
    ] {
        assert!(n >= 1, "no request {what}: {rep:?}");
    }
}

#[test]
fn oversized_line_is_refused_and_the_connection_survives() {
    let mut opts = test_opts("oversized");
    opts.max_line_bytes = 4096;
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    // One line far past the bound: refused with an error, not buffered.
    let mut huge = String::from("{\"op\":\"align\",\"id\":\"huge\",\"pairs\":[[\"");
    huge.push_str(&"A".repeat(32 * 1024));
    huge.push_str("\",\"AC\"]]}");
    c.send(&huge).unwrap();
    let resp = c.recv().unwrap().expect("error answer");
    assert_eq!(resp.get("type").unwrap().as_str(), Some("error"));
    let msg = resp.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("exceeds"), "unexpected error: {msg}");

    // The same connection still serves a normal request afterwards.
    let pairs = ascii_pairs(1, 43);
    c.send(&proto::align_line("ok", Priority::Normal, None, &pairs))
        .unwrap();
    let resp = c.recv().unwrap().expect("result line");
    assert_eq!(resp.get("type").unwrap().as_str(), Some("result"));
    assert_eq!(resp.get("disposition").unwrap().as_str(), Some("ok"));

    c.send("{\"op\":\"drain\"}").unwrap();
    let _ = collect_until_eof(&mut c);
    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.invalid, 1);
    assert_eq!(rep.completed, 1);
}

#[test]
fn cached_reply_overtakes_a_long_miss() {
    // The hit arrives while the miss holds the engine; a free ticket slot
    // dispatches it, and the cache answers it without the engine.
    let opts = test_opts("overtake");
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);

    let warm = ascii_pairs(1, 61);
    c.send(&proto::align_line("warm", Priority::Normal, None, &warm))
        .unwrap();
    let first = c.recv().unwrap().expect("warm-up answer");
    assert_eq!(first.get("disposition").unwrap().as_str(), Some("ok"));

    let miss = ascii_pairs(24, 67);
    c.send(&proto::align_line("miss", Priority::Normal, None, &miss))
        .unwrap();
    c.send(&proto::align_line("hit", Priority::Normal, None, &warm))
        .unwrap();
    let order: Vec<Json> = (0..2)
        .map(|_| c.recv().unwrap().expect("an answer"))
        .collect();
    let ids: Vec<&str> = order
        .iter()
        .map(|v| v.get("id").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(ids, ["hit", "miss"], "the cached pair waits for no engine");
    assert_eq!(order[0].get("results"), first.get("results"));
    for v in &order {
        assert_eq!(v.get("disposition").unwrap().as_str(), Some("ok"));
    }

    c.send("{\"op\":\"drain\"}").unwrap();
    let _ = collect_until_eof(&mut c);
    let rep = daemon.join().unwrap();
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.completed, 3);
    assert_eq!(rep.pairs_from_cache, 1);
}

#[test]
fn a_client_that_stops_reading_does_not_stall_the_others() {
    let opts = test_opts("slow-reader");
    let daemon = spawn_daemon(&opts);

    // A floods small requests and never reads: its answers (mostly
    // queue-full rejections) fill its socket long before the flood ends.
    let mut a = connect(&opts);
    let tiny = vec![("ACGTACGT".to_string(), "ACGTTCGT".to_string())];
    let flood: Vec<String> = (0..20_000)
        .map(|k| proto::align_line(&format!("a{k}"), Priority::Batch, None, &tiny))
        .collect();
    // The daemon may cut A off before the flood is written.
    let _ = a.send(&flood.join("\n"));

    // B still gets its stats answered, and can drain the daemon.
    let mut b = connect(&opts);
    let (tx, rx) = mpsc::channel();
    let b_thread = thread::spawn(move || {
        b.send("{\"op\":\"stats\"}").unwrap();
        let stats = b.recv().unwrap().expect("stats answer");
        tx.send(stats).unwrap();
        b.send("{\"op\":\"drain\"}").unwrap();
        collect_until_eof(&mut b)
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("B answered within 5 s while A reads nothing");
    assert_eq!(stats.get("type").unwrap().as_str(), Some("stats"));
    let (_, drain_acks) = b_thread.join().unwrap();
    assert_eq!(drain_acks, 1);

    let rep = daemon.join().unwrap();
    drop(a);
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert!(rep.received >= 1 && rep.received <= flood.len(), "{rep:?}");
    assert!(rep.rejected >= 1, "{rep:?}");
}

/// Every launch runs each DPU under the watchdog budget its kernel derives
/// from its batch, so hung DPUs are reaped in simulated time. Under a
/// seeded hang plan, with a 60 s stall deadline that could only help after
/// a minute, every answer equals the CPU reference within seconds, hangs
/// were reaped, and the deadline never fired.
#[test]
fn hung_dpus_are_reaped_by_the_launch_watchdog_not_the_stall_deadline() {
    let opts = ServeOptions {
        stall_deadline_seconds: 60.0,
        fault: pim_sim::FaultPlan {
            seed: 0x4A96,
            hang_rate: 0.3,
            ..Default::default()
        },
        ..test_opts("hangs")
    };
    let started = Instant::now();
    let daemon = spawn_daemon(&opts);
    let mut c = connect(&opts);
    let requests: Vec<Vec<(String, String)>> = (0..3).map(|k| ascii_pairs(4, 40 + k)).collect();
    for (k, pairs) in requests.iter().enumerate() {
        c.send(&proto::align_line(
            &format!("h{k}"),
            Priority::Normal,
            None,
            pairs,
        ))
        .unwrap();
    }
    c.send("{\"op\":\"drain\"}").unwrap();
    let (answers, drain_acks) = collect_until_eof(&mut c);
    assert_eq!(drain_acks, 1);
    for (k, pairs) in requests.iter().enumerate() {
        let v = &answers[&format!("h{k}")];
        assert_eq!(v.get("disposition").unwrap().as_str(), Some("ok"));
        assert_matches_cpu_reference(
            pairs,
            v.get("results").unwrap().as_arr().unwrap(),
            opts.band,
        );
    }
    let rep = daemon.join().unwrap();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(10), "{waited:?}");
    assert!(rep.consistent(), "conservation law: {rep:?}");
    assert_eq!(rep.completed, requests.len());
    assert!(rep.fault.watchdog_expired >= 1, "{:?}", rep.fault);
    assert_eq!(rep.fault.deadline_cancellations, 0, "{:?}", rep.fault);
}
