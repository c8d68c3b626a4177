//! The two serve workloads, driven through a spawned `upmem-nw serve`.
//!
//! Both are closed loops with a fixed window of outstanding requests, each
//! timed from its send: serve-short sends fresh pairs to a daemon without
//! durability, serve-hot-durable Zipf-skewed repeats to a durable one.
//!
//! Every reply is checked against the reference answers, and the client's
//! tally of result, reject, shed and error lines is reconciled with the
//! daemon's own `ServiceReport` after the drain.

use crate::daemon::{Closed, Conn, Daemon, DaemonOpts, Reply};
use crate::layers::{self, Durable, Geometry, Metrics, Replayed, Residual};
use crate::reference::{expected_of, reference, Expected};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workload::{self, Pair, Request, Workload};
use crate::{Outcome, Phases};
use dpu_kernel::NwKernel;
use pim_host::DispatchConfig;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};
use upmem_nw_service::json::Json;

/// A request unanswered this long after it was sent counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Empty-request round trips measured for `daemon.rtt_empty_us`.
const RTT_PROBES: usize = 200;
/// Traced requests replayed through the layers.
const REPLAY_REQUESTS: usize = 48;
/// Working-set pairs per request of the warm-up lifetime.
const WARM_PAIRS: usize = 8;

/// One request on the wire.
#[derive(Debug, Clone, Copy)]
struct Sent {
    idx: usize,
    sent: Instant,
    sent_end: Instant,
    traced: bool,
}

/// One correctly answered request.
#[derive(Debug, Clone, Copy)]
struct Done {
    idx: usize,
    lat_ms: f64,
    pairs: usize,
    traced: bool,
    start: Instant,
    at: Instant,
}

/// The client's books for one daemon lifetime.
#[derive(Debug, Default)]
struct Tally {
    /// Align requests sent (workload and probes).
    sent: usize,
    /// Result lines with disposition `ok`.
    ok: usize,
    deadline_missed: usize,
    rejected: usize,
    shed: usize,
    errors: usize,
    /// `ok` results whose answers differ from the reference.
    wrong: usize,
    /// Requests never answered within [`REPLY_TIMEOUT`].
    unanswered: usize,
}

impl Tally {
    /// Workload requests that did not complete correctly.
    fn failed(&self) -> usize {
        self.wrong + self.deadline_missed + self.rejected + self.shed + self.unanswered
    }
}

/// Reconcile the client's tally with the daemon's report.
fn reconcile(t: &Tally, rep: &Json) -> Result<(), String> {
    let get = |k: &str| {
        rep.get(k)
            .and_then(Json::as_u64)
            .map_or(usize::MAX, |v| v as usize)
    };
    let checks = [
        ("received", get("received"), t.sent),
        ("completed", get("completed"), t.ok),
        ("deadline_missed", get("deadline_missed"), t.deadline_missed),
        ("rejected", get("rejected"), t.rejected),
        ("shed", get("shed"), t.shed),
        ("invalid", get("invalid"), t.errors),
    ];
    for (name, daemon, client) in checks {
        if daemon != client {
            return Err(format!(
                "books: daemon {name}={daemon}, client saw {client}"
            ));
        }
    }
    let law = get("accepted") == get("completed") + get("deadline_missed") + get("shed")
        && get("received") == get("accepted") + get("rejected");
    if !law || rep.get("consistent").and_then(Json::as_bool) != Some(true) {
        return Err("books: accepted != completed + deadline_missed + shed".into());
    }
    Ok(())
}

/// What one daemon lifetime's traffic produced.
struct Finished {
    tally: Tally,
    done: Vec<Done>,
    lags_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    requests: Vec<Request>,
}

/// One daemon lifetime's traffic over one connection.
struct Session<'a> {
    conn: Conn,
    table: &'a [Pair],
    expected: &'a [Expected],
    requests: Vec<Request>,
    outstanding: HashMap<String, Sent>,
    done: Vec<Done>,
    lags_ms: Vec<f64>,
    /// When each answered request freed its window slot.
    freed: VecDeque<Instant>,
    tally: Tally,
    stats: Vec<Json>,
    probes: HashMap<String, Instant>,
    rtt_us: Vec<f64>,
    tracer: Option<&'a mut Tracer>,
}

impl<'a> Session<'a> {
    fn new(conn: Conn, table: &'a [Pair], expected: &'a [Expected]) -> Self {
        Session {
            conn,
            table,
            expected,
            requests: Vec::new(),
            outstanding: HashMap::new(),
            done: Vec::new(),
            lags_ms: Vec::new(),
            freed: VecDeque::new(),
            tally: Tally::default(),
            stats: Vec::new(),
            probes: HashMap::new(),
            rtt_us: Vec::new(),
            tracer: None,
        }
    }

    /// Send `self.requests[idx]`, due at `due`, when its window slot was
    /// freed.
    fn send_request(&mut self, idx: usize, due: Instant, traced: bool) -> Result<(), String> {
        let id = format!("q{idx}");
        let line = workload::request_line(&id, &self.requests[idx], self.table);
        let sent = Instant::now();
        self.conn.send(&line).map_err(|e| format!("send: {e}"))?;
        let sent_end = Instant::now();
        self.tally.sent += 1;
        self.lags_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        self.outstanding.insert(
            id,
            Sent {
                idx,
                sent,
                sent_end,
                traced,
            },
        );
        Ok(())
    }

    /// Whether an `ok` result carries the reference answer in every slot.
    fn answer_ok(&self, idx: usize, v: &Json) -> bool {
        let req = &self.requests[idx];
        let Some(slots) = v.get("results").and_then(Json::as_arr) else {
            return false;
        };
        slots.len() == req.pairs.len()
            && slots.iter().zip(&req.pairs).all(|(s, &p)| {
                let status = s.get("status").and_then(Json::as_str).unwrap_or("");
                let score = s.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let cigar = s.get("cigar").and_then(Json::as_str).unwrap_or("");
                score.fract() == 0.0
                    && expected_of(self.expected, p).matches(status, score as i64, cigar)
            })
    }

    fn count_refusal(&mut self, kind: &str) {
        match kind {
            "reject" => self.tally.rejected += 1,
            _ => self.tally.shed += 1,
        }
    }

    fn on_reply(&mut self, r: Reply) {
        let kind = r.kind().to_string();
        match kind.as_str() {
            "stats" => {
                self.stats.push(r.v);
                return;
            }
            "error" => {
                self.tally.errors += 1;
                return;
            }
            "result" | "reject" | "shed" => {}
            _ => return,
        }
        let id = r.id().unwrap_or("").to_string();
        if let Some(t0) = self.probes.remove(&id) {
            if kind == "result" {
                self.tally.ok += 1;
                self.rtt_us.push((r.at - t0).as_secs_f64() * 1e6);
            } else {
                self.count_refusal(&kind);
            }
            return;
        }
        let Some(s) = self.outstanding.remove(&id) else {
            self.tally.errors += 1; // an answer to nothing this client sent
            return;
        };
        self.freed.push_back(r.at);
        if kind != "result" {
            self.count_refusal(&kind);
            return;
        }
        if r.v.get("disposition").and_then(Json::as_str) != Some("ok") {
            self.tally.deadline_missed += 1;
            return;
        }
        self.tally.ok += 1;
        if !self.answer_ok(s.idx, &r.v) {
            self.tally.wrong += 1;
            return;
        }
        if s.traced {
            if let Some(tr) = self.tracer.as_deref_mut() {
                let req = s.idx as u64;
                // The reader may see the reply before the writer returns
                // from its send; the send then ends at the reply.
                let sent_end = s.sent_end.min(r.at);
                let root = tr.record("request", None, req, s.sent, r.at);
                tr.record("client.send", Some(root), req, s.sent, sent_end);
                tr.record("daemon", Some(root), req, sent_end, r.at);
            }
        }
        self.done.push(Done {
            idx: s.idx,
            lat_ms: r.at.saturating_duration_since(s.sent).as_secs_f64() * 1e3,
            pairs: self.requests[s.idx].pairs.len(),
            traced: s.traced,
            start: s.sent,
            at: r.at,
        });
    }

    /// Take replies for up to `wait`; `Err` when the daemon hung up.
    fn pump(&mut self, wait: Duration) -> Result<(), String> {
        match self.conn.recv(wait) {
            Ok(Some(r)) => {
                self.on_reply(r);
                while let Ok(Some(r)) = self.conn.recv(Duration::ZERO) {
                    self.on_reply(r);
                }
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(Closed) => Err("daemon closed the connection".into()),
        }
    }

    /// Count requests unanswered past [`REPLY_TIMEOUT`] as failed.
    fn expire(&mut self) {
        let now = Instant::now();
        let before = self.outstanding.len();
        self.outstanding
            .retain(|_, s| now.saturating_duration_since(s.sent) < REPLY_TIMEOUT);
        self.tally.unanswered += before - self.outstanding.len();
    }

    /// Wait until every outstanding request is answered or expired.
    fn settle(&mut self) -> Result<(), String> {
        while !self.outstanding.is_empty() {
            self.pump(Duration::from_millis(50))?;
            self.expire();
        }
        Ok(())
    }

    /// Keep `window` requests outstanding, drawing request `i` from `draw`,
    /// until `draw` runs dry or `end` passes. A request is due when the
    /// reply that freed its slot arrived. Requests sent at or after
    /// `traced_from` are traced. Returns whether `draw` ran dry.
    fn closed_loop(
        &mut self,
        window: usize,
        end: Option<Instant>,
        traced_from: Option<Instant>,
        mut draw: impl FnMut(usize) -> Option<Request>,
    ) -> Result<bool, String> {
        let mut dry = false;
        while !dry && end.is_none_or(|e| Instant::now() < e) {
            while self.outstanding.len() < window {
                let idx = self.requests.len();
                let Some(req) = draw(idx) else {
                    dry = true;
                    break;
                };
                self.requests.push(req);
                let now = Instant::now();
                let due = self.freed.pop_front().unwrap_or(now);
                self.send_request(idx, due, traced_from.is_some_and(|t| now >= t))?;
            }
            self.pump(Duration::from_millis(20))?;
            self.expire();
        }
        self.settle()?;
        Ok(dry)
    }

    /// One `stats` round trip.
    fn stats(&mut self) -> Result<Json, String> {
        self.conn
            .send("{\"op\":\"stats\"}")
            .map_err(|e| format!("send: {e}"))?;
        let give_up = Instant::now() + REPLY_TIMEOUT;
        let seen = self.stats.len();
        while self.stats.len() == seen {
            if Instant::now() >= give_up {
                return Err("no stats reply".into());
            }
            self.pump(Duration::from_millis(50))?;
        }
        Ok(self.stats.pop().expect("a stats reply arrived"))
    }

    /// Sequential empty-request round trips.
    fn rtt_probe(&mut self) -> Result<(), String> {
        for k in 0..RTT_PROBES {
            let id = format!("rtt{k}");
            let t0 = Instant::now();
            self.conn
                .send(&format!(
                    "{{\"op\":\"align\",\"id\":\"{id}\",\"pairs\":[]}}"
                ))
                .map_err(|e| format!("send: {e}"))?;
            self.tally.sent += 1;
            self.probes.insert(id, t0);
            while !self.probes.is_empty() {
                if t0.elapsed() >= REPLY_TIMEOUT {
                    self.tally.unanswered += 1;
                    return Err("rtt probe unanswered".into());
                }
                self.pump(Duration::from_millis(20))?;
            }
        }
        Ok(())
    }

    /// Drain the daemon and read until it closes the connection.
    fn drain(mut self) -> Result<Finished, String> {
        self.conn
            .send("{\"op\":\"drain\"}")
            .map_err(|e| format!("send: {e}"))?;
        let give_up = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.conn.recv(Duration::from_millis(50)) {
                Ok(Some(r)) => self.on_reply(r),
                Ok(None) if Instant::now() >= give_up => {
                    return Err("daemon did not close after drain".into())
                }
                Ok(None) => {}
                Err(Closed) => break,
            }
        }
        self.tally.unanswered += self.outstanding.len();
        self.tally.errors += self.conn.close();
        Ok(Finished {
            tally: self.tally,
            done: self.done,
            lags_ms: self.lags_ms,
            rtt_us: self.rtt_us,
            requests: self.requests,
        })
    }
}

/// Spawn, connect, and time from the spawn to the first reply (a `stats`
/// round trip).
fn start(bin: &Path, opts: &DaemonOpts, tag: &str) -> Result<(Daemon, Conn, f64), String> {
    let mut d = Daemon::spawn(bin, opts, tag).map_err(|e| format!("spawn: {e}"))?;
    let mut c = d.connect().map_err(|e| format!("connect: {e}"))?;
    c.send("{\"op\":\"stats\"}")
        .map_err(|e| format!("send: {e}"))?;
    let give_up = Instant::now() + REPLY_TIMEOUT;
    loop {
        match c.recv(Duration::from_millis(50)) {
            Ok(Some(r)) if r.kind() == "stats" => {
                let setup = (r.at - d.spawned()).as_secs_f64();
                return Ok((d, c, setup));
            }
            Ok(_) if Instant::now() < give_up => {}
            _ => return Err("daemon never answered its first stats request".into()),
        }
    }
}

/// Drain a lifetime, wait for the daemon to exit, and check the books.
fn stop(d: Daemon, s: Session<'_>) -> Result<(Finished, Json), String> {
    let fin = s.drain()?;
    let (status, rep) = d.finish().map_err(|e| format!("finish: {e}"))?;
    if !status.success() {
        return Err(format!("daemon exited with {status}"));
    }
    reconcile(&fin.tally, &rep)?;
    if fin.tally.failed() > 0 {
        return Err(format!("{} requests failed", fin.tally.failed()));
    }
    Ok((fin, rep))
}

/// serve-hot-durable's untimed warm-up lifetime: every working-set pair
/// once, so the state directory holds a full cache when set-up begins.
fn warm_up(
    bin: &Path,
    opts: &DaemonOpts,
    table: &[Pair],
    expected: &[Expected],
) -> Result<(), String> {
    let (d, c, _) = start(bin, opts, "warm")?;
    let mut s = Session::new(c, table, expected);
    let chunks: Vec<Vec<usize>> = (0..table.len())
        .collect::<Vec<_>>()
        .chunks(WARM_PAIRS)
        .map(<[usize]>::to_vec)
        .collect();
    s.closed_loop(workload::HOT_WINDOW, None, None, |i| {
        chunks.get(i).map(|pairs| Request {
            priority: upmem_nw_service::Priority::Normal,
            pairs: pairs.clone(),
        })
    })?;
    stop(d, s).map(|_| ())
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// The engine's `pim_utilization` in a `stats` reply.
fn utilization(stats: &Json) -> f64 {
    stats
        .get("backends")
        .and_then(Json::as_arr)
        .and_then(|b| b.first())
        .map_or(f64::NAN, |b| num(b, &["utilization"]))
}

/// The daemon-layer metrics of one lifetime: its empty-request round trips,
/// and what its `stats` reply and final report say.
fn daemon_metrics(rtt_us: &[f64], stats: &Json, rep: &Json, m: &mut Metrics) {
    m.insert("daemon.rtt_empty_us", (median(rtt_us), "us"));
    m.insert("daemon.utilization", (utilization(stats), "frac"));
    m.insert(
        "daemon.queue_peak",
        (num(rep, &["max_queue_depth"]), "count"),
    );
    m.insert(
        "cache.hit_rate",
        (num(stats, &["cache", "hit_rate"]), "frac"),
    );
    m.insert(
        "cache.evictions",
        (num(stats, &["cache", "evictions"]), "count"),
    );
    m.insert(
        "wal.appends",
        (num(rep, &["durability", "wal_appends"]), "count"),
    );
}

/// The daemon-layer metrics of a path that has no daemon (batch-long):
/// round trips, `stats` and report of an idle `upmem-nw serve`.
pub(crate) fn idle_daemon_metrics(bin: &Path, m: &mut Metrics) -> Result<(), String> {
    let (d, c, _) = start(bin, &DaemonOpts::default(), "idle")?;
    let mut s = Session::new(c, &[], &[]);
    s.rtt_probe()?;
    let stats = s.stats()?;
    let (fin, rep) = stop(d, s)?;
    daemon_metrics(&fin.rtt_us, &stats, &rep, m);
    Ok(())
}

/// End-to-end numbers of one set of correctly completed requests.
struct E2e {
    p50_ms: f64,
    tail_ms: f64,
    tail_pct: f64,
    pairs_s: f64,
}

fn e2e_of(done: &[Done]) -> E2e {
    let lat: Vec<f64> = done.iter().map(|d| d.lat_ms).collect();
    let (tail_pct, tail_ms) = tail(&lat);
    let pairs: usize = done.iter().map(|d| d.pairs).sum();
    let wall = match (
        done.iter().map(|d| d.start).min(),
        done.iter().map(|d| d.at).max(),
    ) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    E2e {
        p50_ms: median(&lat),
        tail_ms,
        tail_pct,
        pairs_s: if wall > 0.0 { pairs as f64 / wall } else { 0.0 },
    }
}

/// The replayed requests with their pairs copied into a table of their own,
/// with its reference answers: a variant pair has no row in the workload's
/// table, and the replay indexes rows.
fn own_table(
    table: &[Pair],
    expected: &[Expected],
    reqs: &mut [Replayed],
) -> (Vec<Pair>, Vec<Expected>) {
    let mut rows: BTreeMap<usize, usize> = BTreeMap::new();
    let (mut pairs, mut answers) = (Vec::new(), Vec::new());
    for r in reqs.iter_mut() {
        for p in &mut r.req.pairs {
            *p = *rows.entry(*p).or_insert_with(|| {
                pairs.push(workload::variant(table, *p));
                answers.push(expected_of(expected, *p).clone());
                pairs.len() - 1
            });
        }
    }
    (pairs, answers)
}

/// Run one serve workload.
pub fn run(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let hot = workload == Workload::ServeHotDurable;
    let mut phases = Phases::default();
    let table = if hot {
        workload::hot_working_set(seed)
    } else {
        workload::short_table(seed)
    };
    let geo = Geometry::serve();
    let expected = reference(&table, geo.band);
    phases.mark("reference");
    let n = table.len().min(workload::SERVE_SIM_PAIRS);
    let sim = layers::sim_replay(&geo, &table[..n], &expected[..n])?;
    phases.mark("sim");

    let state_dir = Path::new("state");
    let opts = if hot {
        let _ = std::fs::remove_dir_all(state_dir);
        DaemonOpts {
            cache: Some(workload::HOT_CACHE),
            state_dir: Some(state_dir.to_path_buf()),
            compact_every: Some(workload::HOT_COMPACT_EVERY),
        }
    } else {
        DaemonOpts::default()
    };
    if hot {
        warm_up(bin, &opts, &table, &expected)?;
        phases.mark("warm-up");
    }

    // Set up several times; the last lifetime serves the measured phase.
    let mut setups = Vec::with_capacity(workload::SETUP_REPS);
    for k in 1..workload::SETUP_REPS {
        let (d, c, s) = start(bin, &opts, &format!("setup{k}"))?;
        setups.push(s);
        stop(d, Session::new(c, &table, &expected))?;
    }
    let (daemon, conn, s) = start(bin, &opts, "live")?;
    setups.push(s);
    phases.mark("set-up");

    let mut tracer = Tracer::default();
    let mut session = Session::new(conn, &table, &expected);
    if trace {
        session.tracer = Some(&mut tracer);
    }
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mid = trace.then(|| t0 + Duration::from_secs_f64(seconds / 2.0));
    let dry = if hot {
        let stream = workload::HotStream::new(seed);
        session.closed_loop(workload::HOT_WINDOW, Some(end), mid, |i| {
            Some(stream.request(i))
        })?
    } else {
        session.closed_loop(workload::SHORT_WINDOW, Some(end), mid, |i| {
            workload::short_request(seed, i)
        })?
    };
    let rss_mb = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let stats = session.stats()?;
    if trace {
        session.rtt_probe()?;
    }
    let fin = session.drain()?;
    let (status, rep) = daemon.finish().map_err(|e| format!("finish: {e}"))?;
    phases.mark("measured");

    let mut problems = Vec::new();
    if !status.success() {
        problems.push(format!("daemon exited with {status}"));
    }
    if let Err(e) = reconcile(&fin.tally, &rep) {
        problems.push(e);
    }
    let hits = num(&stats, &["cache", "hits"]);
    let evictions = num(&stats, &["cache", "evictions"]);
    let wal_appends = num(&rep, &["durability", "wal_appends"]);
    if hot {
        if !(hits > 0.0 && evictions > 0.0 && wal_appends > 0.0) {
            problems.push(format!(
                "serve-hot-durable must hit, evict and append: hits {hits}, \
                 evictions {evictions}, wal appends {wal_appends}"
            ));
        }
    } else if hits != 0.0 {
        problems.push(format!(
            "serve-short must never hit the cache, saw {hits} hits"
        ));
    }
    if fin.tally.wrong > 0 {
        problems.push(format!("{} requests answered wrongly", fin.tally.wrong));
    }
    if dry {
        problems.push(format!(
            "the daemon took all {} serve-short requests before the run ended",
            workload::SHORT_MAX_REQUESTS
        ));
    }

    let attempted = fin.done.len() + fin.tally.failed();
    let (untraced, traced): (Vec<Done>, Vec<Done>) = fin.done.iter().partition(|d| !d.traced);
    let e = e2e_of(if trace { &untraced } else { &fin.done });

    let mut e2e = Metrics::new();
    e2e.insert("setup_s", (median(&setups), "s"));
    e2e.insert("pairs_s", (e.pairs_s, "1/s"));
    e2e.insert("p50_ms", (e.p50_ms, "ms"));
    e2e.insert("tail_ms", (e.tail_ms, "ms"));
    e2e.insert("rss_mb", (rss_mb, "MB"));
    e2e.insert("sim_s", (sim.total_seconds(), "s"));
    e2e.insert(
        "sim_host_overhead_frac",
        (sim.host_overhead_fraction(), "frac"),
    );

    let mut lay = Metrics::new();
    lay.insert("tail.percentile", (e.tail_pct, "pct"));
    lay.insert(
        "loadgen.lag_max_ms",
        (fin.lags_ms.iter().copied().fold(0.0, f64::max), "ms"),
    );
    daemon_metrics(&fin.rtt_us, &stats, &rep, &mut lay);
    layers::report_metrics(&[&sim], &mut lay);

    let t = &fin.tally;
    let mut outcome = Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: fin.tally.failed(),
        e2e,
        layers: lay,
        problems,
        tracer: None,
        notes: vec![format!(
            "books: sent {}, ok {}, rejected {}, shed {}, deadline-missed {}, errors {}, \
             unanswered {}, wrong {}; tail is p{:.1} of {} requests",
            t.sent,
            t.ok,
            t.rejected,
            t.shed,
            t.deadline_missed,
            t.errors,
            t.unanswered,
            t.wrong,
            e.tail_pct,
            fin.done.len(),
        )],
    };
    if trace {
        let te = e2e_of(&traced);
        let l = &mut outcome.layers;
        l.insert("trace.overhead_p50_ms", (te.p50_ms - e.p50_ms, "ms"));
        l.insert("trace.overhead_pairs_s", (te.pairs_s - e.pairs_s, "1/s"));
        // The last traced requests: the nearest in time to their replay,
        // so the host's drift between the two stays small.
        let mut replayed: Vec<Replayed> = traced[traced.len().saturating_sub(REPLAY_REQUESTS)..]
            .iter()
            .map(|d| Replayed {
                id: d.idx as u64,
                req: fin.requests[d.idx].clone(),
                live_ms: d.lat_ms,
            })
            .collect();
        let (table, expected) = own_table(&table, &expected, &mut replayed);
        let durable = Durable {
            // The daemon's `--cache` default on serve-short.
            cache: if hot { workload::HOT_CACHE } else { 4096 },
            state_dir: hot.then(|| state_dir.to_path_buf()),
        };
        // The daemon plans a ticket as one round over its ranks.
        let cfg = DispatchConfig {
            rounds: 1,
            ..DispatchConfig::new(NwKernel::paper_default(), geo.params())
        };
        let residual = Residual {
            root: "replay.request",
            min_share: layers::DAEMON_RESIDUAL_MIN_SHARE,
            max_share: None,
        };
        let problem = layers::replay_all(
            &mut tracer,
            &geo,
            &cfg,
            &mut geo.server(),
            &table,
            &expected,
            &replayed,
            &durable,
            residual,
            l,
        )?;
        if let Some(p) = problem {
            outcome.problems.push(p);
            outcome.correct = false;
        }
        outcome.tracer = Some(tracer);
        phases.mark("replay");
    }
    outcome.notes.push(phases.note());
    Ok(outcome)
}
