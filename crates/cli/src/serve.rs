//! The `serve` subcommand and the `bench --serve` load benchmark.
//!
//! `cmd_serve` runs the persistent daemon ([`upmem_nw_service::run_serve`])
//! until it drains, prints the one-line summary and optionally writes the
//! full [`ServiceReport`] JSON.
//!
//! `cmd_bench_serve` measures how the service behaves under load. It first
//! estimates the engine's capacity with a closed-loop client (a fixed
//! window of outstanding requests), then drives three open-loop Poisson
//! phases at 0.5x, 1x, and 2x that capacity — open-loop because a client
//! that waits for responses before sending can never overload the server,
//! which is exactly the regime admission control exists for. Each phase
//! reports sustained throughput, p50/p99 latency, and the reject / shed /
//! deadline-miss rates, and the conservation law is asserted on every
//! phase: overload must surface as explicit rejections, sheds, and
//! deadline misses, never as silently lost requests.

use crate::CliError;
use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use pim_sim::fault::mix64;
use std::fmt::Write as _;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;
use upmem_nw_service::{
    proto, run_serve, Client, Priority, ServeOptions, ServiceReport, SCHEMA_VERSION,
};

/// Run the daemon until it drains (SIGTERM/SIGINT or a client `drain`
/// request); print the summary, and write the full report JSON to
/// `json_path` when given.
pub fn cmd_serve(opts: &ServeOptions, json_path: Option<&str>) -> Result<String, CliError> {
    eprintln!(
        "serving on {} ({} ranks x {} DPUs, band {}, queue {} requests / {} pairs, \
         {} open tickets); drain with SIGTERM or {{\"op\":\"drain\"}}",
        opts.socket.display(),
        opts.ranks.max(1),
        opts.dpus.max(1),
        opts.band.next_multiple_of(16).max(16),
        opts.queue_requests,
        opts.queue_pairs,
        opts.max_open_tickets,
    );
    let rep = run_serve(opts).map_err(|e| CliError::Align(e.to_string()))?;
    let mut out = rep.summary();
    out.push('\n');
    if let Some(path) = json_path {
        std::fs::write(path, rep.to_json())?;
        let _ = writeln!(out, "wrote {path}");
    }
    if !rep.consistent() {
        return Err(CliError::Align(format!(
            "service accounting violated its conservation law\n{out}"
        )));
    }
    Ok(out)
}

/// Knobs for the `bench --serve` load benchmark.
#[derive(Debug, Clone)]
pub struct BenchServeOpts {
    /// Simulated ranks.
    pub ranks: usize,
    /// DPUs per rank.
    pub dpus: usize,
    /// Band width (rounded up to a multiple of 16).
    pub band: usize,
    /// Per-rank FIFO depth of the persistent engine.
    pub fifo_depth: usize,
    /// Simulation threads per rank worker (0 = auto).
    pub sim_threads: usize,
    /// Seed for the dataset and the Poisson arrival stream.
    pub seed: u64,
    /// Pairs per request.
    pub pairs_per_request: usize,
    /// Requests per phase (and for the capacity estimate).
    pub requests: usize,
    /// Shrink the run for a fast CI smoke.
    pub smoke: bool,
    /// Where to write the JSON report (default `BENCH_serve.json`).
    pub json_path: Option<String>,
}

impl Default for BenchServeOpts {
    fn default() -> Self {
        Self {
            ranks: 2,
            dpus: 4,
            band: 64,
            fifo_depth: 2,
            sim_threads: 0,
            seed: 42,
            pairs_per_request: 4,
            requests: 48,
            smoke: false,
            json_path: None,
        }
    }
}

/// The daemon's `max_open_tickets` in every phase.
const OPEN_WINDOW: usize = 4;
/// Outstanding-request window of the closed-loop capacity client: twice
/// the open-ticket bound so the admission queue always has the next batch
/// ready and the estimate reflects saturated pipelining, not round trips.
const CAP_WINDOW: usize = 2 * OPEN_WINDOW;
/// Admission bound (queued requests) during the load phases — deliberately
/// small so 2x overload hits the queue, not just the deadlines.
const PHASE_QUEUE: usize = 8;
/// Request deadline as a multiple of the measured mean service time.
const DEADLINE_SERVICE_MULTIPLE: f64 = 8.0;
/// The offered-load multiples of the three open-loop phases.
const MULTIPLES: [f64; 3] = [0.5, 1.0, 2.0];

fn bench_sock(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("upmem-nw-bench-{}-{tag}.sock", std::process::id()))
}

fn base_opts(opts: &BenchServeOpts, tag: &str) -> ServeOptions {
    ServeOptions {
        socket: bench_sock(tag),
        ranks: opts.ranks.max(1),
        dpus: opts.dpus.max(1),
        band: opts.band,
        fifo_depth: opts.fifo_depth,
        sim_threads: opts.sim_threads,
        max_open_tickets: OPEN_WINDOW,
        queue_requests: PHASE_QUEUE,
        queue_pairs: PHASE_QUEUE * opts.pairs_per_request.max(1),
        ..ServeOptions::default()
    }
}

fn ascii_pairs(opts: &BenchServeOpts) -> Vec<(String, String)> {
    SyntheticParams::preset(SyntheticPreset::S1000, opts.seed)
        .generate(opts.pairs_per_request.max(1))
        .into_iter()
        .map(|(a, b)| {
            (
                String::from_utf8(a.to_ascii()).unwrap(),
                String::from_utf8(b.to_ascii()).unwrap(),
            )
        })
        .collect()
}

/// A unit-mean exponential deviate from the seeded counter stream — the
/// Poisson arrival process, without any global RNG state.
fn exp_deviate(seed: u64, i: u64) -> f64 {
    let bits = mix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let u = ((bits >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
    -u.ln()
}

/// Reader-thread loop: count terminal answers, signalling each on `tx`
/// (closed-loop mode) until the daemon drains the connection.
fn read_until_eof(mut c: Client, tx: Option<mpsc::Sender<()>>) -> usize {
    let mut terminal = 0usize;
    while let Ok(Some(v)) = c.recv() {
        match v.get("type").and_then(Json::as_str) {
            Some("result") | Some("reject") | Some("shed") | Some("error") => {
                terminal += 1;
                if let Some(tx) = &tx {
                    let _ = tx.send(());
                }
            }
            _ => {}
        }
    }
    terminal
}

fn spawn_daemon(opts: &ServeOptions) -> thread::JoinHandle<Result<ServiceReport, String>> {
    let opts = opts.clone();
    thread::spawn(move || run_serve(&opts).map_err(|e| e.to_string()))
}

fn join_daemon(
    h: thread::JoinHandle<Result<ServiceReport, String>>,
) -> Result<ServiceReport, CliError> {
    h.join()
        .map_err(|_| CliError::Align("serve daemon panicked".into()))?
        .map_err(CliError::Align)
}

/// Closed-loop capacity estimate: keep [`CAP_WINDOW`] requests
/// outstanding, measure completed pairs per second of client wall time.
fn closed_loop_capacity(
    opts: &BenchServeOpts,
    pairs: &[(String, String)],
) -> Result<(f64, ServiceReport), CliError> {
    let sopts = base_opts(opts, "capacity");
    let daemon = spawn_daemon(&sopts);
    let mut c = Client::connect_retry(&sopts.socket, Duration::from_secs(10))?;
    let reader = c.try_split()?;
    let (tx, rx) = mpsc::channel::<()>();
    let reader = thread::spawn(move || read_until_eof(reader, Some(tx)));

    let n = opts.requests.max(1);
    let t0 = Instant::now();
    let mut sent = 0usize;
    while sent < n.min(CAP_WINDOW) {
        c.send(&proto::align_line(
            &format!("cap-{sent}"),
            Priority::Normal,
            None,
            pairs,
        ))?;
        sent += 1;
    }
    let mut done = 0usize;
    while done < n {
        rx.recv()
            .map_err(|_| CliError::Align("daemon closed mid-capacity-run".into()))?;
        done += 1;
        if sent < n {
            c.send(&proto::align_line(
                &format!("cap-{sent}"),
                Priority::Normal,
                None,
                pairs,
            ))?;
            sent += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    c.send("{\"op\":\"drain\"}")?;
    let _ = reader.join();
    let rep = join_daemon(daemon)?;
    let capacity = rep.pairs_completed as f64 / elapsed;
    Ok((capacity, rep))
}

/// One open-loop Poisson phase: offered load is `multiple` times the
/// measured capacity; arrivals do not wait for responses.
fn open_loop_phase(
    opts: &BenchServeOpts,
    pairs: &[(String, String)],
    capacity_pps: f64,
    multiple: f64,
    deadline_ms: u64,
) -> Result<(f64, ServiceReport), CliError> {
    let tag = format!("x{}", (multiple * 100.0) as u64);
    let mut sopts = base_opts(opts, &tag);
    sopts.default_deadline_ms = Some(deadline_ms);
    let daemon = spawn_daemon(&sopts);
    let mut c = Client::connect_retry(&sopts.socket, Duration::from_secs(10))?;
    let reader = c.try_split()?;
    let reader = thread::spawn(move || read_until_eof(reader, None));

    let offered_pps = (capacity_pps * multiple).max(1e-9);
    let mean_gap_s = pairs.len() as f64 / offered_pps;
    // Cycle the priority classes so overload exercises the shedding path
    // (interactive arrivals displace queued batch work), not just rejects.
    let classes = [Priority::Normal, Priority::Batch, Priority::Interactive];
    let n = opts.requests.max(1);
    let t0 = Instant::now();
    let mut next_s = 0.0f64;
    for i in 0..n {
        let target = Duration::from_secs_f64(next_s);
        let now = t0.elapsed();
        if target > now {
            thread::sleep(target - now);
        }
        c.send(&proto::align_line(
            &format!("{tag}-{i}"),
            classes[i % classes.len()],
            None,
            pairs,
        ))?;
        next_s += mean_gap_s * exp_deviate(opts.seed ^ (multiple * 1000.0) as u64, i as u64);
    }
    c.send("{\"op\":\"drain\"}")?;
    let _ = reader.join();
    let rep = join_daemon(daemon)?;
    Ok((offered_pps, rep))
}

fn phase_json(multiple: f64, offered_pps: f64, rep: &ServiceReport) -> String {
    format!(
        "{{\"offered_multiple\": {multiple}, \"offered_pairs_per_sec\": {offered_pps:.3}, \
         \"received\": {}, \"accepted\": {}, \"rejected\": {}, \"shed\": {}, \
         \"completed\": {}, \"deadline_missed\": {}, \"pairs_completed\": {}, \
         \"pairs_per_sec\": {:.3}, \"latency_p50_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \
         \"max_queue_depth\": {}, \"consistent\": {}}}",
        rep.received,
        rep.accepted,
        rep.rejected,
        rep.shed,
        rep.completed,
        rep.deadline_missed,
        rep.pairs_completed,
        rep.pairs_per_second(),
        rep.latency_p50_ms,
        rep.latency_p99_ms,
        rep.max_queue_depth,
        rep.consistent(),
    )
}

/// The `bench --serve` benchmark: closed-loop capacity estimate, then
/// open-loop Poisson phases at `MULTIPLES` times capacity; writes
/// `BENCH_serve.json`.
pub fn cmd_bench_serve(opts: &BenchServeOpts) -> Result<String, CliError> {
    let mut opts = opts.clone();
    if opts.smoke {
        opts.requests = opts.requests.min(16);
        opts.ranks = opts.ranks.min(2);
        opts.dpus = opts.dpus.min(4);
    }
    let pairs = ascii_pairs(&opts);

    let (capacity_pps, cap_rep) = closed_loop_capacity(&opts, &pairs)?;
    if capacity_pps <= 0.0 || cap_rep.completed != opts.requests.max(1) {
        return Err(CliError::Align(format!(
            "capacity run incomplete: {} of {} requests completed",
            cap_rep.completed,
            opts.requests.max(1)
        )));
    }
    let service_ms_per_request = pairs.len() as f64 / capacity_pps * 1000.0;
    let deadline_ms = ((service_ms_per_request * DEADLINE_SERVICE_MULTIPLE) as u64).max(250);

    let mut out = format!(
        "bench serve: {} ranks x {} DPUs, {} pairs/request, {} requests/phase\n\
         capacity (closed loop, {} outstanding): {:.1} pairs/s \
         [p50 {:.1}ms, p99 {:.1}ms]\n\
         phase deadline: {}ms ({}x mean service time)\n",
        opts.ranks.max(1),
        opts.dpus.max(1),
        pairs.len(),
        opts.requests.max(1),
        CAP_WINDOW,
        capacity_pps,
        cap_rep.latency_p50_ms,
        cap_rep.latency_p99_ms,
        deadline_ms,
        DEADLINE_SERVICE_MULTIPLE,
    );

    let mut phases_json = Vec::new();
    for multiple in MULTIPLES {
        if pim_host::interrupt::requested() {
            return Err(CliError::Align("interrupted — benchmark aborted".into()));
        }
        let (offered_pps, rep) =
            open_loop_phase(&opts, &pairs, capacity_pps, multiple, deadline_ms)?;
        if !rep.consistent() {
            return Err(CliError::Align(format!(
                "phase {multiple}x violated the conservation law: {rep:?}"
            )));
        }
        let n = opts.requests.max(1);
        let _ = writeln!(
            out,
            "  {multiple:.1}x ({offered_pps:.1} pairs/s offered): {:.1} pairs/s sustained, \
             p50 {:.1}ms, p99 {:.1}ms; {}/{n} completed, {} rejected, {} shed, \
             {} deadline-missed, queue peak {}",
            rep.pairs_per_second(),
            rep.latency_p50_ms,
            rep.latency_p99_ms,
            rep.completed,
            rep.rejected,
            rep.shed,
            rep.deadline_missed,
            rep.max_queue_depth,
        );
        phases_json.push(phase_json(multiple, offered_pps, &rep));
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
         \"ranks\": {},\n  \"dpus_per_rank\": {},\n  \"band\": {},\n  \"seed\": {},\n  \
         \"pairs_per_request\": {},\n  \"requests_per_phase\": {},\n  \
         \"open_tickets\": {OPEN_WINDOW},\n  \"capacity_window\": {CAP_WINDOW},\n  \
         \"queue_requests\": {PHASE_QUEUE},\n  \
         \"capacity_pairs_per_sec\": {:.3},\n  \"deadline_ms\": {deadline_ms},\n  \
         \"phases\": [\n    {}\n  ]\n}}\n",
        opts.ranks.max(1),
        opts.dpus.max(1),
        opts.band.next_multiple_of(16).max(16),
        opts.seed,
        pairs.len(),
        opts.requests.max(1),
        capacity_pps,
        phases_json.join(",\n    "),
    );
    let path = opts
        .json_path
        .clone()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    std::fs::write(&path, &json)?;
    let _ = writeln!(out, "wrote {path}");
    Ok(out)
}
