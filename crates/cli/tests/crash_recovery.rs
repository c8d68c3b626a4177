//! Kill-injection drills for the durability layer.
//!
//! The simulator injects hardware faults inside one process; these drills
//! inject the fault it cannot model: the daemon process dying mid-flight.
//! Each drill spawns the real `upmem-nw serve` binary against a durable
//! state directory, drives seeded traffic over the socket, SIGKILLs the
//! child at seeded points, restarts it against the same directory, and
//! asserts the durability contract end to end:
//!
//! * **No wrong result is ever served** — every `ok` result observed in
//!   any phase (including partial answers received just before a kill) is
//!   bit-identical to a fault-free reference run on a fresh state dir.
//! * **The books balance across the crash** — the final lifetime's report
//!   satisfies the conservation law with the replayed tickets counted in.
//! * **Recovery is audit-gated and warm** — the final restart re-admits
//!   cache entries (`cache_recovered > 0`) and serves the workload from
//!   them (`hits > 0`), while the cold control run has zero of both.
//! * **A guaranteed-unanswered admission replays** — each kill phase
//!   journals one fresh (uncached, so slow) request and kills immediately
//!   after a `stats` barrier confirms admission; the next lifetime must
//!   recover it.
//!
//! The corruption drills also flip a byte in the persisted cache state
//! between the last kill and the final restart, and assert the recovery
//! scan skips the damaged record instead of refusing or serving garbage.

use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use nw_core::seq::DnaSeq;
use pim_sim::fault::mix64;
use std::collections::HashMap;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;
use upmem_nw_service::{proto, Client, Priority};

/// Kill-restart cycles between the anchor run and the final verify.
const KILLS: usize = 3;
/// Workload requests re-sent in every phase.
const REQUESTS: usize = 5;
/// Pairs per workload request.
const PAIRS_PER_REQUEST: usize = 2;
/// Simulated ranks of the spawned daemon.
const RANKS: usize = 2;
/// DPUs per rank.
const DPUS: usize = 4;
/// Band width.
const BAND: usize = 64;
/// Read length of the synthetic workload pairs.
const READ_LEN: usize = 600;

/// A request id and its pairs as ASCII.
type Request = (String, Vec<(String, String)>);

/// One slot of an `ok` result, the unit of bit-identity comparison.
type Slot = (String, i64, String);

/// Everything observed from one daemon lifetime.
struct PhaseOut {
    /// `id -> slots` for every `disposition: ok` result received.
    answers: HashMap<String, Vec<Slot>>,
    /// Terminal answers that were not ok results (rejects, sheds,
    /// deadline-misses, errors) — expected to be zero in every phase.
    other: usize,
    /// The parsed report JSON (graceful phases only; a killed lifetime
    /// never writes one).
    report: Option<Json>,
}

/// How a phase ends: gracefully drained, or SIGKILLed after `after`
/// workload sends + one fresh request + a `stats` admission barrier +
/// `jitter_ms` of extra runtime.
enum PhaseEnd {
    Drain,
    Kill { after: usize, jitter_ms: u64 },
}

/// A spawned daemon, killed if the drill panics before it exits.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

fn field<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
    let mut cur = v;
    for k in path {
        cur = cur.get(k)?;
    }
    Some(cur)
}

fn num(v: &Json, path: &[&str]) -> u64 {
    field(v, path).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn decode_result(v: &Json) -> Option<(String, Vec<Slot>)> {
    let id = v.get("id")?.as_str()?.to_string();
    if v.get("disposition")?.as_str()? != "ok" {
        return None;
    }
    let mut slots = Vec::new();
    for r in v.get("results")?.as_arr()? {
        let status = r.get("status")?.as_str()?.to_string();
        let score = r.get("score").and_then(Json::as_f64).unwrap_or(0.0) as i64;
        let cigar = r
            .get("cigar")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        slots.push((status, score, cigar));
    }
    Some((id, slots))
}

fn spawn_daemon(state_dir: &Path, socket: &Path, report: &Path) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_upmem-nw"))
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--ranks")
        .arg(RANKS.to_string())
        .arg("--dpus")
        .arg(DPUS.to_string())
        .arg("--band")
        .arg(BAND.to_string())
        .arg("--json")
        .arg(report)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn upmem-nw serve");
    Daemon(child)
}

/// Run one daemon lifetime: spawn, replay the workload, end per `end`,
/// and collect everything the client heard back. The phase is named by
/// `name` inside `root` (socket and report file).
fn run_phase(
    root: &Path,
    name: &str,
    state_dir: &Path,
    workload: &[Request],
    fresh: Option<&Request>,
    end: PhaseEnd,
) -> PhaseOut {
    let socket = root.join(format!("{name}.sock"));
    let report_path = root.join(format!("{name}.json"));
    let mut daemon = spawn_daemon(state_dir, &socket, &report_path);
    let mut c = Client::connect_retry(&socket, Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("{name}: daemon never listened: {e}"));
    let reader = c.try_split().expect("split the client");
    let (tx, rx) = mpsc::channel::<Json>();
    let reader = thread::spawn(move || {
        let mut reader = reader;
        while let Ok(Some(v)) = reader.recv() {
            if tx.send(v).is_err() {
                break;
            }
        }
    });

    // Answers that arrive while the kill barrier waits for its stats line
    // are kept here and merged into the phase's collection below.
    let mut early: Vec<Json> = Vec::new();
    let sends = match end {
        PhaseEnd::Drain => workload.len(),
        PhaseEnd::Kill { after, .. } => after.min(workload.len()),
    };
    for (id, pairs) in &workload[..sends] {
        c.send(&proto::align_line(id, Priority::Normal, None, pairs))
            .expect("send a workload request");
    }

    match end {
        PhaseEnd::Drain => c.send("{\"op\":\"drain\"}").expect("send drain"),
        PhaseEnd::Kill { jitter_ms, .. } => {
            // Seeded jitter first, so the kill lands at a varied point of
            // the workload's processing. THEN journal one fresh
            // (cache-cold, so slow) request and use a `stats` round trip
            // as the admission barrier: lines on one connection are
            // processed in order, so the stats answer proves the fresh
            // request was admitted — and journaled — before the kill,
            // while its alignment (milliseconds of simulated DP) cannot
            // have finished in the microseconds before the SIGKILL lands.
            thread::sleep(Duration::from_millis(jitter_ms));
            if let Some((id, pairs)) = fresh {
                c.send(&proto::align_line(id, Priority::Normal, None, pairs))
                    .expect("send the fresh request");
                c.send("{\"op\":\"stats\"}").expect("send stats");
                let deadline = Instant::now() + Duration::from_secs(20);
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match rx.recv_timeout(left) {
                        Ok(v) if v.get("type").and_then(Json::as_str) == Some("stats") => break,
                        Ok(v) => early.push(v),
                        Err(_) => panic!("{name}: no stats answer before the kill barrier"),
                    }
                }
            }
            daemon.0.kill().expect("SIGKILL the daemon");
        }
    }

    // Reader exits at EOF: the drain closing the socket, or the kill.
    reader.join().expect("reader thread");
    let status = daemon.0.wait().expect("reap the daemon");
    if matches!(end, PhaseEnd::Drain) {
        assert!(
            status.success(),
            "{name}: daemon exited with {status} on a drain"
        );
    }

    let mut out = PhaseOut {
        answers: HashMap::new(),
        other: 0,
        report: None,
    };
    for v in early.into_iter().chain(rx.try_iter()) {
        match v.get("type").and_then(Json::as_str) {
            Some("result") => match decode_result(&v) {
                Some((id, slots)) => {
                    out.answers.insert(id, slots);
                }
                None => out.other += 1,
            },
            Some("reject") | Some("shed") | Some("error") => out.other += 1,
            _ => {}
        }
    }
    if matches!(end, PhaseEnd::Drain) {
        let text = std::fs::read_to_string(&report_path).expect("drained phase wrote its report");
        let v = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: bad report JSON: {e}"));
        out.report = Some(v);
    }
    out
}

/// Every `ok` answer must be bit-identical to the reference; an id the
/// reference never saw, or any differing slot, is a served wrong result.
fn check_answers(
    phase: &str,
    got: &HashMap<String, Vec<Slot>>,
    reference: &HashMap<String, Vec<Slot>>,
) {
    for (id, slots) in got {
        // Fresh kill-bait requests are not part of the reference workload.
        if id.starts_with("fresh-") {
            continue;
        }
        let want = reference.get(id).unwrap_or_else(|| {
            panic!("{phase}: request {id} answered but absent from the reference")
        });
        assert_eq!(
            want, slots,
            "{phase}: request {id} differs from the fault-free reference"
        );
    }
}

fn ascii(pairs: Vec<(DnaSeq, DnaSeq)>) -> Vec<(String, String)> {
    pairs
        .into_iter()
        .map(|(a, b)| {
            (
                String::from_utf8(a.to_ascii()).unwrap(),
                String::from_utf8(b.to_ascii()).unwrap(),
            )
        })
        .collect()
}

/// One drill: a cold control run, an anchor run, [`KILLS`] seeded kill
/// phases, an optional byte flip in the persisted cache state
/// (`corrupt_wal`), and a final restart whose report is audited.
fn drill(seed: u64, corrupt_wal: bool) {
    let root = std::env::temp_dir().join(format!(
        "upmem-nw-crash-test-{}-{seed:x}-{corrupt_wal}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let state = root.join("state");

    // Seeded workload: distinct pairs per request, plus one fresh pair
    // per kill phase (the guaranteed-unanswered admission).
    let mut params = SyntheticParams::preset(SyntheticPreset::S1000, seed);
    params.read_len = READ_LEN;
    let workload: Vec<Request> = ascii(params.generate(REQUESTS * PAIRS_PER_REQUEST))
        .chunks(PAIRS_PER_REQUEST)
        .enumerate()
        .map(|(i, chunk)| (format!("w-{i}"), chunk.to_vec()))
        .collect();
    // Kill-bait pairs are an order of magnitude longer than the workload:
    // their alignment takes tens of milliseconds of simulated DP, so the
    // SIGKILL that follows the admission barrier by microseconds cannot
    // lose the race against their completion.
    let mut fresh_params = params;
    fresh_params.seed = seed ^ 0xF00D;
    fresh_params.read_len = (READ_LEN * 16).max(9_600);
    let fresh_pool = ascii(fresh_params.generate(KILLS));

    // Phase 0 — cold fault-free control on its own state dir: the
    // bit-identity reference, and the "cold start has zero hits" side of
    // the warm-restart assertion.
    let control = run_phase(
        &root,
        "control",
        &root.join("control-state"),
        &workload,
        None,
        PhaseEnd::Drain,
    );
    let crep = control.report.as_ref().unwrap();
    assert_eq!(
        field(crep, &["consistent"]).and_then(Json::as_bool),
        Some(true),
        "control run violated the conservation law"
    );
    assert_eq!(num(crep, &["cache", "hits"]), 0, "control run was not cold");
    assert_eq!(num(crep, &["durability", "cache_recovered"]), 0);
    assert_eq!(control.answers.len(), workload.len(), "control answers");
    assert_eq!(control.other, 0, "control run had non-ok answers");
    let reference = control.answers;

    // Phase 1 — anchor: populate the durable state dir, drain cleanly.
    let anchor = run_phase(&root, "anchor", &state, &workload, None, PhaseEnd::Drain);
    check_answers("anchor", &anchor.answers, &reference);
    assert_eq!(anchor.answers.len(), workload.len(), "anchor answers");

    // Kill phases: seeded kill points, one guaranteed-unanswered fresh
    // admission each.
    let mut partial_answers = 0usize;
    for (k, bait) in fresh_pool.into_iter().enumerate() {
        let r = mix64(seed ^ (0xC0FF_EE00 + k as u64));
        let after = (r as usize) % (workload.len() + 1);
        let jitter_ms = (r >> 33) % 40;
        let fresh = (format!("fresh-{k}"), vec![bait]);
        let name = format!("kill-{k}");
        let out = run_phase(
            &root,
            &name,
            &state,
            &workload,
            Some(&fresh),
            PhaseEnd::Kill { after, jitter_ms },
        );
        check_answers(&name, &out.answers, &reference);
        partial_answers += out.answers.len();
    }

    // Optional on-disk damage between the last kill and the restart.
    if corrupt_wal {
        let wal = state.join("cache.wal");
        let mut bytes = std::fs::read(&wal).unwrap_or_default();
        // Header is 12 bytes, record framing starts after it; byte 18
        // lands inside the first record's payload.
        assert!(bytes.len() > 24, "found no persisted record to damage");
        bytes[18] ^= 0xFF;
        std::fs::write(&wal, &bytes).unwrap();
    }

    // Final phase — restart against the crashed state, re-serve the
    // workload, drain, and audit the books.
    let fin = run_phase(&root, "final", &state, &workload, None, PhaseEnd::Drain);
    check_answers("final phase", &fin.answers, &reference);
    assert_eq!(fin.answers.len(), workload.len(), "final answers");
    assert_eq!(fin.other, 0, "final phase had non-ok answers");
    let frep = fin.report.as_ref().unwrap();
    assert_eq!(
        field(frep, &["consistent"]).and_then(Json::as_bool),
        Some(true),
        "final lifetime violated the conservation law across the crash"
    );
    assert_eq!(
        field(frep, &["durability", "enabled"]).and_then(Json::as_bool),
        Some(true),
        "final lifetime ran without durability"
    );
    let recovered_entries = num(frep, &["durability", "cache_recovered"]);
    let warm_hits = num(frep, &["cache", "hits"]);
    let recovered_requests = num(frep, &["durability", "recovered_requests"]);
    let skipped = num(frep, &["durability", "corrupt_records_skipped"]);
    assert!(
        (1..u64::MAX).contains(&recovered_entries),
        "final restart recovered no cache entries through the audit gate"
    );
    assert!(
        (1..u64::MAX).contains(&warm_hits),
        "warm restart served zero cache hits"
    );
    assert!(
        (1..u64::MAX).contains(&recovered_requests),
        "the journaled-but-unanswered request did not replay"
    );
    if corrupt_wal {
        assert!(
            (1..u64::MAX).contains(&skipped),
            "corrupted record was neither skipped nor refused"
        );
    }
    println!(
        "crash drill seed {seed:#x}: {partial_answers} partial answers over {KILLS} kills, \
         all bit-identical; {recovered_entries} entries recovered, {warm_hits} warm hits, \
         {recovered_requests} journaled requests replayed, {skipped} damaged records skipped, \
         books balanced"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_injection_recovers_bit_identical_results() {
    for seed in [0xD1CE, 42] {
        drill(seed, false);
    }
}

#[test]
fn corrupted_cache_record_is_skipped_not_served() {
    for seed in [0xBAD5EED, 7] {
        drill(seed, true);
    }
}
