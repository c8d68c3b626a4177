//! The persistent alignment daemon: a unix-socket NDJSON server over the
//! non-draining engine ([`pim_host::persistent`]).
//!
//! Thread shape:
//!
//! ```text
//!   acceptor thread ──spawns──▶ one reader thread per connection
//!   (blocks in accept)                │  Event::Line
//!        │ Event::Conn(writer)        ▼
//!        └──────────────▶ mpsc ─▶ driver loop (this thread, owns EngineCtl)
//!        └──── wake ─────┴──────▶ │ admission → queue → submit/pump
//!                                 └─▶ response writes per connection
//! ```
//!
//! The driver loop is single-threaded and owns everything: admission
//! decisions, the bounded [`AdmissionQueue`], the engine handle, and the
//! response writers — so admission, shedding, and accounting need no
//! locks and the conservation law is easy to audit.
//!
//! The daemon waits on events, not timers. The driver blocks in one place,
//! [`EngineCtl::pump`], which returns when a batch completes or when the
//! acceptor or a reader rings the engine's [`EngineWaker`] after queueing
//! an event, so a request line (a cache hit above all) is handled at once
//! rather than after the next completion. The pump's wait is capped at the
//! earliest queued or in-flight deadline and at 50 ms, which bounds how
//! late a SIGTERM/SIGINT drain is seen. The acceptor blocks in
//! `accept`; at shutdown one self-connect unblocks it, and a connection
//! accepted once accepting has stopped is closed at once.
//!
//! Robustness properties:
//!
//! * **Admission control** — arrivals past the queue bounds are rejected
//!   *explicitly* with a `retry_after_ms` hint derived from the measured
//!   service time and the current backlog; queue memory stays bounded.
//! * **Load shedding** — under sustained overload a higher-priority
//!   arrival displaces the youngest lowest-priority queued request, which
//!   is answered with an explicit `shed` line.
//! * **Deadlines** — a request expired while queued is reaped (answered
//!   `deadline-missed` with all-`cancelled` results); one expired while in
//!   flight is cancelled through the engine, which abandons unfinished
//!   jobs with explicit accounting.
//! * **Graceful drain** — on SIGTERM/SIGINT (via [`pim_host::interrupt`])
//!   or a `{"op":"drain"}` request: stop accepting connections, reject new
//!   requests, finish (or deadline-out) everything accepted, answer every
//!   client, then return the final [`ServiceReport`].
//! * **Result caching** — a content-addressed [`ResultCache`] persists
//!   across tickets: at dispatch each request is pre-passed against the
//!   cache, an all-hit request is answered without an engine ticket, and a
//!   partial hit submits only the misses. Computed results enter the cache
//!   behind the audit gate (never an unverified or failed result).
//! * **Slow readers** — a reply write that has not finished within 1 s
//!   shuts its connection down and drops it, so a client
//!   that stops reading cannot stall the driver and every other client.
//!   Its requests stay in the books; their answers go nowhere.
//! * **Live telemetry** — `{"op":"stats"}` answers inline with queue
//!   depth, cache hit rate, and per-backend pair counts, without draining.
//! * **Crash-safe durability** (opt-in via `state_dir`) — the result cache
//!   persists through a checksummed, compacted WAL ([`pim_host::wal`]),
//!   and every admitted request is journaled before any acknowledgment
//!   ([`crate::journal`]): after a `kill -9`, restart recovers the cache
//!   through the audit gate and replays unanswered tickets, so the
//!   conservation law balances across process lifetimes.

use crate::journal::{unix_ms_now, DoneKind, JournalScan, RecoveredTicket, RequestJournal};
use crate::proto::{self, AlignRequest, ClientLine, StatsSnapshot};
use crate::queue::{Admission, AdmissionQueue, Queued};
use crate::report::{LatencyRecorder, ServiceReport};
use dpu_kernel::layout::{JobResult, JobStatus, KernelParams};
use dpu_kernel::NwKernel;
use nw_core::cigar::Cigar;
use nw_core::seq::DnaSeq;
use nw_core::ScoringScheme;
use pim_host::cache::{self as result_cache, CachePrepass};
use pim_host::{
    with_persistent_engine, CacheRecovery, CacheStore, DeadlinePolicy, EngineCtl, EngineWaker,
    RecoveryConfig, ResultCache, StoreOptions, TicketDone,
};
use pim_sim::{FaultPlan, PimServer, ServerConfig};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Everything `upmem-nw serve` configures.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path to listen on (an existing file is replaced).
    pub socket: PathBuf,
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
    /// PiM attempts per job before CPU fallback.
    pub retries: usize,
    /// Consecutive faults before a DPU is quarantined.
    pub quarantine: usize,
    /// Audit every returned alignment (the silent-corruption defense).
    pub audit: bool,
    /// Stall deadline: with work in flight and no completion for this many
    /// seconds, cancel the ranks so hung launches requeue (≤ 0 disables).
    pub stall_deadline_seconds: f64,
    /// Per-DPU watchdog cycle budget (0 = off).
    pub watchdog_cycles: u64,
    /// Admission bound: queued requests.
    pub queue_requests: usize,
    /// Admission bound: total queued pairs.
    pub queue_pairs: usize,
    /// Requests dispatched into the engine concurrently. 0 pauses
    /// dispatch entirely (admission-only mode, used by tests).
    pub max_open_tickets: usize,
    /// Largest accepted request, in pairs (larger ones are rejected
    /// `too-large`).
    pub max_pairs_per_request: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Fault injection for the simulated server (chaos serving).
    pub fault: FaultPlan,
    /// Content-addressed result cache capacity, in results (0 disables).
    /// The cache persists across tickets for the daemon's lifetime:
    /// repeated pairs are answered without touching the engine.
    pub cache_capacity: usize,
    /// Durability state directory (`None` = durability off). Holds the
    /// request journal and — unless `cache_path` overrides — the result
    /// cache's WAL. Restarting against the same directory
    /// recovers the cache and replays unanswered requests.
    pub state_dir: Option<PathBuf>,
    /// Separate directory for the persistent result cache; defaults to
    /// `state_dir`.
    pub cache_path: Option<PathBuf>,
    /// Cache-WAL appends between compactions.
    pub compact_every: usize,
    /// `fdatasync` every WAL/journal append. Process-crash (`kill -9`)
    /// durability needs no fsync — written pages survive in the OS cache;
    /// this buys host-crash durability at a large per-append cost.
    pub fsync: bool,
    /// Largest accepted request line, in bytes. Longer lines are discarded
    /// in bounded chunks — never buffered whole — and answered with an
    /// error, so a single connection cannot balloon daemon memory.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("/tmp/upmem-nw.sock"),
            ranks: 2,
            dpus: 8,
            band: 64,
            fifo_depth: 2,
            sim_threads: 0,
            retries: 3,
            quarantine: 3,
            audit: true,
            stall_deadline_seconds: 5.0,
            watchdog_cycles: 0,
            queue_requests: 64,
            queue_pairs: 4096,
            max_open_tickets: 8,
            max_pairs_per_request: 1024,
            default_deadline_ms: None,
            fault: FaultPlan::default(),
            cache_capacity: 4096,
            state_dir: None,
            cache_path: None,
            compact_every: 256,
            fsync: false,
            max_line_bytes: 16 << 20,
        }
    }
}

/// Daemon startup failure.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listening socket failed.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket setup failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

enum Event {
    Conn(u64, UnixStream),
    Line(u64, String),
    Oversized(u64),
    Gone(u64),
}

/// The longest the driver sleeps in [`EngineCtl::pump`] with no event, no
/// completion and no deadline due: how late it sees a SIGTERM/SIGINT
/// drain, which is polled.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// How long one reply may take to write before its connection is cut off.
/// It bounds how long a client that stops reading can hold up the driver:
/// at most twice this per reply, since the socket's send timeout is the
/// same bound and the last write may start just before it runs out.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The `conn` id of replayed (crash-recovered) requests: their original
/// connection died with the previous process, so responses go to no one.
/// `respond` on an unknown conn is already a no-op; this id is never
/// handed out by the acceptor.
const NO_CONN: u64 = u64::MAX;

/// Durability state opened before the engine starts, moved into the
/// driver: the (possibly persistent) cache plus what recovery found.
struct DurabilityInit {
    cache: ResultCache,
    cache_recovery: CacheRecovery,
    journal: Option<RequestJournal>,
    recovered: Vec<RecoveredTicket>,
    scan: JournalScan,
    enabled: bool,
}

fn open_durability(opts: &ServeOptions) -> io::Result<DurabilityInit> {
    let mut enabled = false;
    let cache_dir = opts.cache_path.as_ref().or(opts.state_dir.as_ref());
    let (cache, cache_recovery) = match cache_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let store = CacheStore::open(
                dir,
                StoreOptions {
                    compact_every: opts.compact_every.max(1),
                    sync_data: opts.fsync,
                },
            )?;
            enabled = true;
            ResultCache::with_store(opts.cache_capacity, store)
        }
        None => (
            ResultCache::new(opts.cache_capacity),
            CacheRecovery::default(),
        ),
    };
    let (journal, recovered, scan) = match &opts.state_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let (j, t, s) = RequestJournal::open(&dir.join("requests.journal"), opts.fsync)?;
            enabled = true;
            (Some(j), t, s)
        }
        None => (None, Vec::new(), JournalScan::default()),
    };
    Ok(DurabilityInit {
        cache,
        cache_recovery,
        journal,
        recovered,
        scan,
        enabled,
    })
}

/// Run the daemon until drained (SIGTERM/SIGINT or a `drain` request).
/// Returns the service-lifetime report; every accepted request has been
/// answered when this returns.
pub fn run_serve(opts: &ServeOptions) -> Result<ServiceReport, ServeError> {
    // Recover durable state *before* binding the socket: replayed tickets
    // are queued before any new connection can race them.
    let durability = open_durability(opts)?;
    let _ = std::fs::remove_file(&opts.socket);
    let listener = UnixListener::bind(&opts.socket)?;
    let stop_accept = Arc::new(AtomicBool::new(false));
    let (ev_tx, ev_rx) = channel::<Event>();

    let ranks = opts.ranks.max(1);
    let mut server_cfg = ServerConfig::with_ranks(ranks);
    server_cfg.dpus_per_rank = opts.dpus.max(1);
    server_cfg.fault = opts.fault.clone();
    server_cfg.dpu.watchdog_cycles = opts.watchdog_cycles;
    let mut server = PimServer::new(server_cfg);
    let params = KernelParams {
        band: opts.band.next_multiple_of(16).max(16),
        scheme: ScoringScheme::default(),
        score_only: false,
    };
    let kernel = NwKernel::paper_default();
    let rcfg = RecoveryConfig {
        max_attempts: opts.retries.max(1),
        quarantine_after: opts.quarantine.max(1),
        deadline: DeadlinePolicy::after_seconds(opts.stall_deadline_seconds),
        audit: opts.audit,
    };

    let started = Instant::now();
    let (mut report, acceptor) = with_persistent_engine(
        &mut server,
        &kernel,
        params,
        &rcfg,
        opts.fifo_depth.max(1),
        opts.sim_threads,
        |ctl| {
            // The acceptor rings the engine's waker, so it starts once the
            // engine exists; until then connections wait in the backlog.
            let acceptor = {
                let stop = stop_accept.clone();
                let waker = ctl.waker();
                let max_line = opts.max_line_bytes.max(1024);
                thread::spawn(move || accept_loop(listener, stop, ev_tx, waker, max_line))
            };
            let report = drive(ctl, opts, params, &ev_rx, &stop_accept, durability);
            (report, acceptor)
        },
    );
    stop_accept.store(true, Ordering::SeqCst);
    // Unblock the acceptor's `accept`; it closes this connection at once.
    let _ = UnixStream::connect(&opts.socket);
    let _ = acceptor.join();
    let _ = std::fs::remove_file(&opts.socket);
    report.wall_seconds = started.elapsed().as_secs_f64();
    Ok(report)
}

fn accept_loop(
    listener: UnixListener,
    stop: Arc<AtomicBool>,
    tx: Sender<Event>,
    waker: EngineWaker,
    max_line: usize,
) {
    for (conn, stream) in (0u64..).zip(listener.incoming()) {
        // Accepting has stopped (a drain, or the shutdown's self-connect):
        // the connection closes as `stream` drops.
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            return;
        };
        let Ok(writer) = stream.try_clone() else {
            continue;
        };
        if writer.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
            continue;
        }
        // Queue an event for the driver and wake its pump.
        let post = {
            let (tx, waker) = (tx.clone(), waker.clone());
            move |ev| {
                let sent = tx.send(ev).is_ok();
                if sent {
                    waker.wake();
                }
                sent
            }
        };
        if !post(Event::Conn(conn, writer)) {
            return;
        }
        thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut buf = Vec::new();
            loop {
                buf.clear();
                let ev = match read_bounded_line(&mut reader, &mut buf, max_line) {
                    Ok(LineRead::Eof) | Err(_) => break,
                    Ok(LineRead::Line) => {
                        Event::Line(conn, String::from_utf8_lossy(&buf).into_owned())
                    }
                    Ok(LineRead::Oversized) => Event::Oversized(conn),
                };
                if !post(ev) {
                    return;
                }
            }
            post(Event::Gone(conn));
        });
    }
}

/// Write `line` and its newline to a reply socket whose send timeout is
/// [`WRITE_TIMEOUT`], failing once [`WRITE_TIMEOUT`] has passed with bytes
/// still unwritten.
fn write_reply(w: &mut UnixStream, line: &str) -> io::Result<()> {
    let give_up = Instant::now() + WRITE_TIMEOUT;
    for mut part in [line.as_bytes(), b"\n"] {
        while !part.is_empty() {
            match w.write(part) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => part = &part[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if !part.is_empty() && Instant::now() >= give_up {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
    }
    Ok(())
}

enum LineRead {
    Eof,
    Line,
    Oversized,
}

/// Read one `\n`-terminated line into `buf`, buffering at most `limit`
/// bytes: the tail of an oversized line is discarded chunk by chunk
/// through the reader's fixed buffer, so peak memory per connection stays
/// `limit`-bounded no matter what arrives on the wire.
fn read_bounded_line<R: BufRead>(
    r: &mut R,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<LineRead> {
    let n = io::Read::take(&mut *r, limit as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') || n <= limit {
        return Ok(LineRead::Line);
    }
    buf.clear();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(LineRead::Oversized);
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                r.consume(i + 1);
                return Ok(LineRead::Oversized);
            }
            None => {
                let len = chunk.len();
                r.consume(len);
            }
        }
    }
}

/// One dispatched request, keyed by its engine ticket. Only the cache
/// misses were submitted; `pre` carries the hit-filled slots, the keys for
/// post-compute inserts, and the in-request duplicates to serve at finish.
struct Active {
    conn: u64,
    id: String,
    arrival: Instant,
    deadline: Option<Instant>,
    pairs: usize,
    cancel_sent: bool,
    req_pairs: Vec<(DnaSeq, DnaSeq)>,
    pre: CachePrepass,
    seq: Option<u64>,
}

struct Driver<'a> {
    opts: &'a ServeOptions,
    writers: HashMap<u64, UnixStream>,
    queue: AdmissionQueue,
    active: HashMap<u64, Active>,
    rep: ServiceReport,
    lat: LatencyRecorder,
    /// EWMA of completed-request latency, the basis of retry-after hints.
    ewma_ms: f64,
    draining: bool,
    /// Persistent result cache; outlives every ticket (and, with a store
    /// attached, every process lifetime).
    cache: ResultCache,
    /// Request journal, when durability is on.
    journal: Option<RequestJournal>,
    /// The engine's launch parameters, which are also the cache keys'
    /// band, scheme and score-only ingredients: one source, so cached
    /// results stay bit-identical to computed ones.
    params: KernelParams,
    /// Engine busy-time accounting for the `stats` utilization figure.
    started: Instant,
    busy_seconds: f64,
    busy_since: Option<Instant>,
}

fn drive(
    ctl: &mut EngineCtl,
    opts: &ServeOptions,
    params: KernelParams,
    ev_rx: &Receiver<Event>,
    stop_accept: &AtomicBool,
    durability: DurabilityInit,
) -> ServiceReport {
    let DurabilityInit {
        cache,
        cache_recovery,
        journal,
        recovered,
        scan,
        enabled,
    } = durability;
    let mut d = Driver {
        opts,
        writers: HashMap::new(),
        queue: AdmissionQueue::new(opts.queue_requests, opts.queue_pairs),
        active: HashMap::new(),
        rep: ServiceReport::default(),
        lat: LatencyRecorder::default(),
        ewma_ms: 0.0,
        draining: false,
        cache,
        journal,
        params,
        started: Instant::now(),
        busy_seconds: 0.0,
        busy_since: None,
    };
    d.rep.durability.enabled = enabled;
    d.rep.durability.recovered_duplicates = scan.duplicates;
    d.rep.durability.cache_recovered = cache_recovery.recovered;
    d.rep.durability.cache_recovery_rejected = cache_recovery.rejected;
    d.rep.durability.corrupt_records_skipped =
        cache_recovery.corrupt_skipped + scan.corrupt_skipped;
    d.rep.durability.torn_tail_bytes = cache_recovery.torn_tail_bytes + scan.torn_tail_bytes;
    d.rep.durability.header_resets = cache_recovery.header_resets + usize::from(scan.header_reset);
    d.replay_recovered(recovered);
    // The acceptor and every reader gone: no request can arrive any more.
    let mut disconnected = false;
    loop {
        loop {
            match ev_rx.try_recv() {
                Ok(ev) => d.handle_event(ev),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if !d.draining && pim_host::interrupt::requested() {
            d.draining = true;
        }
        if d.draining {
            stop_accept.store(true, Ordering::SeqCst);
        }
        d.dispatch(ctl);
        let quiet = ctl.idle() && d.queue.is_empty() && d.active.is_empty();
        if quiet && (d.draining || disconnected) {
            break;
        }
        // The one blocking point: events and completions wake the pump,
        // and the wait ends in time for the next deadline to be reaped.
        let wait = d.next_deadline().map_or(MAX_WAIT, |dl| {
            dl.saturating_duration_since(Instant::now()).min(MAX_WAIT)
        });
        for td in ctl.pump(wait) {
            d.finish_ticket(td);
        }
    }
    // Close every connection for real: shutting the sockets down unblocks
    // the per-connection reader threads (parked in `read_line`) and gives
    // clients their EOF — otherwise the reader threads would keep the
    // sockets half-open forever.
    for w in d.writers.values() {
        let _ = w.shutdown(std::net::Shutdown::Both);
    }
    // Compact the persistent cache at drain so the next start recovers
    // from one record per resident key instead of the whole WAL.
    d.cache.compact_now();
    if let Some(ps) = d.cache.persist_stats() {
        d.rep.durability.wal_appends = ps.appended;
        d.rep.durability.wal_compactions = ps.compactions;
        d.rep.durability.io_errors += ps.io_errors;
    }
    if let Some(j) = &d.journal {
        d.rep.durability.journal_appends = j.appends();
        d.rep.durability.io_errors += j.io_errors();
    }
    d.rep.latency_p50_ms = d.lat.percentile(50.0);
    d.rep.latency_p99_ms = d.lat.percentile(99.0);
    d.rep.latency_mean_ms = d.lat.mean();
    d.rep.drained = true;
    d.rep.cache = d.cache.stats();
    d.rep.cache_resident = d.cache.len();
    d.rep.cache_capacity = d.cache.capacity();
    d.rep.pim_utilization = d.utilization();
    d.rep
}

impl Driver<'_> {
    fn handle_event(&mut self, ev: Event) {
        match ev {
            Event::Conn(conn, writer) => {
                self.writers.insert(conn, writer);
            }
            Event::Gone(conn) => {
                self.writers.remove(&conn);
            }
            Event::Oversized(conn) => {
                self.rep.invalid += 1;
                let l = proto::error_line(&format!(
                    "line exceeds {} bytes",
                    self.opts.max_line_bytes.max(1024)
                ));
                self.respond(conn, &l);
            }
            Event::Line(conn, line) => self.handle_line(conn, line.trim()),
        }
    }

    /// Journal the terminal answer of a journaled ticket (no-op without
    /// durability). Called *after* the reply was written: a crash between
    /// reply and journal re-answers at most one request to a dead
    /// connection, never loses one.
    fn close_seq(&mut self, seq: Option<u64>, kind: DoneKind) {
        if let (Some(seq), Some(j)) = (seq, self.journal.as_mut()) {
            j.done(seq, kind);
        }
    }

    /// Re-admit journal-recovered tickets from the previous process
    /// lifetime. They count into `received`/`accepted` of this lifetime;
    /// ones whose absolute deadline passed while the daemon was down are
    /// answered `deadline-missed` immediately, the rest queue for normal
    /// dispatch (their results go nowhere, but warm the cache and close
    /// their journal seqs).
    fn replay_recovered(&mut self, tickets: Vec<RecoveredTicket>) {
        let now = Instant::now();
        let now_unix = unix_ms_now();
        for t in tickets {
            self.rep.received += 1;
            self.rep.accepted += 1;
            self.rep.pairs_accepted += t.req.pairs.len();
            self.rep.durability.recovered_requests += 1;
            let expired = t.deadline_unix_ms.is_some_and(|dl| dl <= now_unix);
            let q = Queued {
                req: t.req,
                conn: NO_CONN,
                arrival: now,
                deadline: t
                    .deadline_unix_ms
                    .map(|dl| now + Duration::from_millis(dl.saturating_sub(now_unix))),
                seq: Some(t.seq),
            };
            if expired {
                self.rep.durability.recovered_expired += 1;
                self.miss_queued(q);
            } else {
                self.queue.push_recovered(q);
            }
        }
        self.rep.max_queue_depth = self.rep.max_queue_depth.max(self.queue.len());
    }

    fn respond(&mut self, conn: u64, line: &str) {
        if let Some(w) = self.writers.get_mut(&conn) {
            // A dead or stalled peer is not an error: accounting already
            // happened. Its connection is shut down (its reader sees EOF)
            // and the writer dropped; later answers to it go nowhere.
            if write_reply(w, line).is_err() {
                let _ = w.shutdown(Shutdown::Both);
                self.writers.remove(&conn);
            }
        }
    }

    /// The earliest deadline the driver must act on: a queued request to
    /// reap, or an in-flight ticket not yet cancelled.
    fn next_deadline(&self) -> Option<Instant> {
        let in_flight = self
            .active
            .values()
            .filter(|a| !a.cancel_sent)
            .filter_map(|a| a.deadline);
        in_flight.chain(self.queue.next_deadline()).min()
    }

    /// Expected milliseconds until retrying could succeed: the measured
    /// per-request service time scaled by the backlog ahead of a new
    /// arrival, spread over the dispatch parallelism.
    fn retry_after_ms(&self) -> u64 {
        let backlog = (self.queue.len() + self.active.len() + 1) as f64;
        let par = self.opts.max_open_tickets.max(1) as f64;
        let per_request = if self.ewma_ms > 0.0 {
            self.ewma_ms
        } else {
            50.0
        };
        (per_request * backlog / par).ceil().max(1.0) as u64
    }

    fn handle_line(&mut self, conn: u64, line: &str) {
        if line.is_empty() {
            return;
        }
        match proto::parse_line(line) {
            Err(e) => {
                self.rep.invalid += 1;
                let l = proto::error_line(&e);
                self.respond(conn, &l);
            }
            Ok(ClientLine::Drain) => {
                self.draining = true;
                let l = proto::drain_ack_line();
                self.respond(conn, &l);
            }
            Ok(ClientLine::Stats) => {
                let l = proto::stats_line(&self.stats_snapshot());
                self.respond(conn, &l);
            }
            Ok(ClientLine::Align(req)) => self.admit(conn, req),
        }
    }

    /// Live telemetry for the `stats` op; pure read, never drains.
    fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            draining: self.draining,
            queue_depth: self.queue.len(),
            queued_pairs: self.queue.queued_pairs(),
            active_tickets: self.active.len(),
            received: self.rep.received,
            completed: self.rep.completed,
            pairs_completed: self.rep.pairs_completed,
            recovered_requests: self.rep.durability.recovered_requests,
            pairs_from_cache: self.rep.pairs_from_cache,
            cpu_fallback_jobs: self.rep.fault.cpu_fallbacks,
            pim_utilization: self.utilization(),
            ewma_service_ms: self.ewma_ms,
            cache_resident: self.cache.len(),
            cache_capacity: self.cache.capacity(),
            cache: self.cache.stats(),
        }
    }

    /// Fraction of service wall time with engine work in flight.
    fn utilization(&self) -> f64 {
        let busy = self.busy_seconds + self.busy_since.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let wall = self.started.elapsed().as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            (busy / wall).clamp(0.0, 1.0)
        }
    }

    /// Track empty↔nonempty transitions of the in-flight set; call after
    /// any change to `active`.
    fn note_busy_state(&mut self) {
        match (self.active.is_empty(), self.busy_since) {
            (false, None) => self.busy_since = Some(Instant::now()),
            (true, Some(t0)) => {
                self.busy_seconds += t0.elapsed().as_secs_f64();
                self.busy_since = None;
            }
            _ => {}
        }
    }

    fn admit(&mut self, conn: u64, req: AlignRequest) {
        self.rep.received += 1;
        if self.draining {
            self.rep.rejected += 1;
            let l = proto::reject_line(&req.id, "draining", None);
            self.respond(conn, &l);
            return;
        }
        if req.pairs.len() > self.opts.max_pairs_per_request {
            self.rep.rejected += 1;
            let l = proto::reject_line(&req.id, "too-large", None);
            self.respond(conn, &l);
            return;
        }
        let now = Instant::now();
        let deadline_ms = req.deadline_ms.or(self.opts.default_deadline_ms);
        let deadline = deadline_ms.map(|ms| now + Duration::from_millis(ms));
        // Journal the admission *before* the queue decides (and before any
        // acknowledgment): a crash from here on replays this request. A
        // rejection below closes the tentative seq so it never replays.
        let seq = self
            .journal
            .as_mut()
            .map(|j| j.admit(&req, deadline_ms.map(|ms| unix_ms_now() + ms)));
        let pairs = req.pairs.len();
        match self.queue.admit(Queued {
            req,
            conn,
            arrival: now,
            deadline,
            seq,
        }) {
            Admission::Admitted => {
                self.rep.accepted += 1;
                self.rep.pairs_accepted += pairs;
            }
            Admission::Displaced(victim) => {
                self.rep.accepted += 1;
                self.rep.pairs_accepted += pairs;
                self.rep.shed += 1;
                let l = proto::shed_line(&victim.req.id, self.retry_after_ms());
                self.respond(victim.conn, &l);
                self.close_seq(victim.seq, DoneKind::Shed);
            }
            Admission::Rejected(back) => {
                self.rep.rejected += 1;
                let l = proto::reject_line(&back.req.id, "queue-full", Some(self.retry_after_ms()));
                self.respond(back.conn, &l);
                self.close_seq(back.seq, DoneKind::Rejected);
            }
        }
        self.rep.max_queue_depth = self.rep.max_queue_depth.max(self.queue.len());
    }

    /// Answer a request reaped from the queue at its deadline: explicit
    /// `deadline-missed` with one `cancelled` slot per pair.
    fn miss_queued(&mut self, q: Queued) {
        self.rep.deadline_missed += 1;
        self.rep.jobs_cancelled += q.req.pairs.len();
        let results: Vec<JobResult> = q
            .req
            .pairs
            .iter()
            .map(|_| JobResult {
                status: JobStatus::Cancelled,
                score: 0,
                cigar: Cigar::new(),
            })
            .collect();
        let ms = q.arrival.elapsed().as_secs_f64() * 1e3;
        let l = proto::result_line(&q.req.id, true, &results, ms);
        self.respond(q.conn, &l);
        self.close_seq(q.seq, DoneKind::DeadlineMissed);
    }

    /// Reap expired queued requests, top the engine up from the queue, and
    /// cancel in-flight tickets past their deadline.
    fn dispatch(&mut self, ctl: &mut EngineCtl) {
        let now = Instant::now();
        for q in self.queue.reap_expired(now) {
            self.miss_queued(q);
        }
        while self.active.len() < self.opts.max_open_tickets {
            let Some(q) = self.queue.pop_next() else {
                break;
            };
            if q.deadline.is_some_and(|dl| dl <= Instant::now()) {
                self.miss_queued(q);
                continue;
            }
            let pre = result_cache::serve_hits(
                Some(&mut self.cache),
                &q.req.pairs,
                &self.params.scheme,
                self.params.band,
                self.params.score_only,
            );
            if pre.work.is_empty() {
                // Every pair was a cache hit or an in-request duplicate:
                // answer immediately without spending an engine ticket.
                let cached = q.req.pairs.len();
                let results = result_cache::resolve(
                    Some(&mut self.cache),
                    &q.req.pairs,
                    &self.params.scheme,
                    self.params.band,
                    self.params.score_only,
                    pre.slots,
                    &pre.keys,
                    &pre.work,
                    &pre.aliases,
                );
                self.complete(q.conn, &q.req.id, q.arrival, cached, cached, &results);
                self.close_seq(q.seq, DoneKind::Completed);
                continue;
            }
            let jobs = pre
                .work
                .iter()
                .map(|&i| (q.req.pairs[i].0.pack(), q.req.pairs[i].1.pack()))
                .collect();
            let ticket = ctl.submit(jobs);
            self.active.insert(
                ticket,
                Active {
                    conn: q.conn,
                    id: q.req.id,
                    arrival: q.arrival,
                    deadline: q.deadline,
                    pairs: q.req.pairs.len(),
                    cancel_sent: false,
                    req_pairs: q.req.pairs,
                    pre,
                    seq: q.seq,
                },
            );
        }
        self.note_busy_state();
        let now = Instant::now();
        for (t, a) in self.active.iter_mut() {
            if !a.cancel_sent && a.deadline.is_some_and(|dl| dl <= now) {
                ctl.cancel(*t);
                a.cancel_sent = true;
            }
        }
    }

    /// Account and answer one completed (not deadline-missed) request.
    fn complete(
        &mut self,
        conn: u64,
        id: &str,
        arrival: Instant,
        pairs: usize,
        cached_pairs: usize,
        results: &[JobResult],
    ) {
        let ms = arrival.elapsed().as_secs_f64() * 1e3;
        self.rep.completed += 1;
        self.rep.pairs_completed += pairs;
        self.rep.pairs_from_cache += cached_pairs;
        self.lat.push(ms);
        self.ewma_ms = if self.lat.len() == 1 {
            ms
        } else {
            0.8 * self.ewma_ms + 0.2 * ms
        };
        let l = proto::result_line(id, false, results, ms);
        self.respond(conn, &l);
    }

    fn finish_ticket(&mut self, td: TicketDone) {
        let Some(a) = self.active.remove(&td.ticket) else {
            return;
        };
        self.rep.fault.merge(&td.fault);
        // Merge the engine's results (one per submitted miss) back into the
        // hit-filled slots, insert the fresh ones behind the audit gate, and
        // serve in-request duplicates from the cache.
        let CachePrepass {
            mut slots,
            keys,
            work,
            aliases,
        } = a.pre;
        for (&slot, r) in work.iter().zip(td.results.iter()) {
            slots[slot] = Some(r.clone());
        }
        let results = result_cache::resolve(
            Some(&mut self.cache),
            &a.req_pairs,
            &self.params.scheme,
            self.params.band,
            self.params.score_only,
            slots,
            &keys,
            &work,
            &aliases,
        );
        if td.cancelled {
            let ms = a.arrival.elapsed().as_secs_f64() * 1e3;
            self.rep.deadline_missed += 1;
            self.rep.jobs_cancelled += results
                .iter()
                .filter(|r| r.status == JobStatus::Cancelled)
                .count();
            let l = proto::result_line(&a.id, true, &results, ms);
            self.respond(a.conn, &l);
            self.close_seq(a.seq, DoneKind::DeadlineMissed);
        } else {
            self.complete(
                a.conn,
                &a.id,
                a.arrival,
                a.pairs,
                a.pairs - work.len(),
                &results,
            );
            self.close_seq(a.seq, DoneKind::Completed);
        }
        self.note_busy_state();
    }
}
