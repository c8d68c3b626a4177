//! Per-layer numbers, measured from outside the program: the traced
//! requests are replayed through each layer's public function, with a span
//! around every call.
//!
//! Two span trees are built per replayed request:
//!
//! * `replay.request` — the daemon's request path: `proto.parse`,
//!   `queue.admit_pop`, `journal.append` (admit), `cache.lookup`,
//!   `persistent.ticket` (submit to `TicketDone`, misses only),
//!   `cache.insert`, `journal.append` (done), `proto.emit`. A request
//!   whose every pair hit goes through the engine afterwards as a
//!   `persistent.ticket` tree of its own.
//! * `replay.rank_batch` — the path `align_pairs` takes, on the engine and
//!   `DispatchConfig` the live call used: `encode`, `balance.lpt`,
//!   `dispatch.plan` per rank batch, `kernel.launch` (the configured engine
//!   over every planned round).
//!
//! `recovery.audit` (one tree per pair), the WAL, the CPU baseline and the
//! simulated breakdown are measured beside them.

use crate::reference::Expected;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Pair, Request};
use dpu_kernel::layout::{JobResult, KernelParams};
use dpu_kernel::NwKernel;
use nw_core::seq::PackedSeq;
use nw_core::ScoringScheme;
use pim_host::cache::{self as result_cache, CachePrepass};
use pim_host::dispatch::{execute_rounds, group_jobs, plan_rank, DispatchConfig, RankPlan};
use pim_host::encode::Encoder;
use pim_host::wal::CacheRecord;
use pim_host::{
    execute_rounds_pipelined, lpt_assign, pair_workloads, with_persistent_engine, CacheStore,
    DeadlinePolicy, Engine, EngineCtl, ExecutionReport, PipelineOptions, RecoveryConfig,
    ResultCache, StoreOptions, TicketDone,
};
use pim_sim::{PimServer, ServerConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use upmem_nw_service::proto::{self, ClientLine};
use upmem_nw_service::{Admission, AdmissionQueue, DoneKind, Queued, RequestJournal};

/// Named metrics: value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Pairs the CPU baseline aligns at most.
const KSW2_PAIRS: usize = 32;

/// How far `daemon.residual_ms` may stray from 0 on batch-long, as a share
/// of the traced p50, either way. The replay runs the live calls' path on
/// their server right after them, so only the host's drift between the two
/// separates them. On a 2-vCPU shared VM, whose hypervisor steals CPU time
/// in bursts that last whole runs, two traced runs read -0.04 and +0.21 of
/// the p50, so the limit keeps twice that margin. Beyond it the replay is
/// not the live path.
pub const CALL_RESIDUAL_SHARE: f64 = 0.5;

/// The most negative `daemon.residual_ms` allowed on the serve workloads,
/// as a share of the traced p50: the layers may claim at most twice the
/// live p50. A request's replay lasts milliseconds and runs outside the
/// daemon, after it; on a 2-vCPU shared VM the p50 of 60 back-to-back
/// tickets read 2.95 to 6.62 ms between consecutive trials, so only a gross
/// mismatch stands out from the host's noise.
pub const DAEMON_RESIDUAL_MIN_SHARE: f64 = -1.0;

/// Passes of the replay. The residual takes each request's fastest pass:
/// the replay of a request lasts milliseconds, and a moment the shared host
/// ran slow during one pass would otherwise read as layer time the live
/// path never spent.
pub const REPLAY_PASSES: usize = 3;

/// Server and kernel geometry of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Ranks.
    pub ranks: usize,
    /// DPUs per rank.
    pub dpus: usize,
    /// Band.
    pub band: usize,
}

impl Geometry {
    /// The serve daemon's geometry.
    pub fn serve() -> Self {
        Geometry {
            ranks: workload::SERVE_RANKS,
            dpus: workload::SERVE_DPUS,
            band: workload::SERVE_BAND,
        }
    }

    /// `upmem-nw align --algo pim`'s geometry on batch-long.
    pub fn batch() -> Self {
        Geometry {
            ranks: workload::BATCH_RANKS,
            dpus: pim_sim::ServerConfig::default().dpus_per_rank,
            band: workload::BATCH_BAND,
        }
    }

    /// Kernel launch parameters.
    pub fn params(&self) -> KernelParams {
        KernelParams {
            band: self.band.next_multiple_of(16).max(16),
            scheme: ScoringScheme::default(),
            score_only: false,
        }
    }

    /// A fresh simulated server.
    pub fn server(&self) -> PimServer {
        let mut cfg = ServerConfig::with_ranks(self.ranks);
        cfg.dpus_per_rank = self.dpus;
        PimServer::new(cfg)
    }
}

fn check(results: &[JobResult], pairs: &[usize], expected: &[Expected]) -> Result<(), String> {
    if results.len() != pairs.len() {
        return Err(format!(
            "{} results for {} pairs",
            results.len(),
            pairs.len()
        ));
    }
    for (r, &p) in results.iter().zip(pairs) {
        if !expected[p].matches_result(r) {
            return Err(format!("replay answered pair {p} wrongly"));
        }
    }
    Ok(())
}

/// One-shot `align_pairs` over `table` on a fresh server: the simulated
/// clock of the workload's distinct pairs. Results are checked too.
pub fn sim_replay(
    geo: &Geometry,
    table: &[Pair],
    expected: &[Expected],
) -> Result<ExecutionReport, String> {
    let pairs: Vec<_> = table.iter().map(|p| (p.a.clone(), p.b.clone())).collect();
    let cfg = DispatchConfig::new(NwKernel::paper_default(), geo.params());
    let (rep, results) = pim_host::align_pairs(&mut geo.server(), &cfg, &pairs)
        .map_err(|e| format!("align_pairs: {e}"))?;
    let all: Vec<usize> = (0..table.len()).collect();
    check(&results, &all, expected)?;
    Ok(rep)
}

/// The simulated breakdown and host pipeline numbers of `align_pairs`
/// reports (medians over the reports).
pub fn report_metrics(reports: &[&ExecutionReport], m: &mut Metrics) {
    let med = |f: &dyn Fn(&ExecutionReport) -> f64| {
        median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let pipe = |f: fn(&pim_host::PipelineMetrics) -> f64| {
        move |r: &ExecutionReport| r.pipeline.as_ref().map_or(f64::NAN, f)
    };
    m.insert("pipeline.plan_s", (med(&pipe(|p| p.plan_seconds)), "s"));
    m.insert("pipeline.decode_s", (med(&pipe(|p| p.decode_seconds)), "s"));
    m.insert(
        "pipeline.stall_s",
        (med(&pipe(|p| p.rank_stall_seconds.iter().sum())), "s"),
    );
    m.insert("sim.encode_s", (med(&|r| r.encode_seconds), "s"));
    m.insert("sim.transfer_s", (med(&|r| r.transfer_seconds), "s"));
    m.insert("sim.dpu_s", (med(&|r| r.dpu_seconds), "s"));
}

/// A traced live request (or one-shot call) and what its replay needs.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Request id, shared by its live and replay spans.
    pub id: u64,
    /// What it carried.
    pub req: Request,
    /// Its live end-to-end latency, ms.
    pub live_ms: f64,
}

/// Durability settings of the request-path replay.
#[derive(Debug, Clone, Default)]
pub struct Durable {
    /// Result-cache capacity.
    pub cache: usize,
    /// The state directory the live daemon left behind (`None`: it ran
    /// without one, and its cache lived in memory).
    pub state_dir: Option<PathBuf>,
}

/// How the replay is reconciled with the live path it explains.
#[derive(Debug, Clone, Copy)]
pub struct Residual {
    /// The span tree that makes up the workload's own path.
    pub root: &'static str,
    /// The most negative share of the traced p50 the residual may take:
    /// below it the layers claim more time than the live path took.
    pub min_share: f64,
    /// The largest share of the traced p50 the residual may take. `None`
    /// for the daemon: its requests wait in its queue behind others (the
    /// closed loop's window), a wait no layer
    /// times.
    pub max_share: Option<f64>,
}

fn wait_ticket(ctl: &mut EngineCtl, ticket: u64) -> Result<TicketDone, String> {
    let give_up = Instant::now() + Duration::from_secs(120);
    while Instant::now() < give_up {
        if let Some(td) = ctl
            .pump(Duration::from_millis(1))
            .into_iter()
            .find(|td| td.ticket == ticket)
        {
            return Ok(td);
        }
    }
    Err(format!("ticket {ticket} never finished"))
}

fn store_opts() -> StoreOptions {
    StoreOptions {
        compact_every: workload::HOT_COMPACT_EVERY,
        sync_data: false,
    }
}

/// `CacheStore::open` plus `ResultCache::with_store` on `dir`, timed as
/// `wal.recover`.
fn recover(tr: &mut Tracer, dir: &Path, capacity: usize) -> Result<ResultCache, String> {
    let recovered = tr.time("wal.recover", None, 0, || {
        CacheStore::open(dir, store_opts()).map(|s| ResultCache::with_store(capacity.max(1), s))
    });
    Ok(recovered.map_err(|e| format!("recover: {e}"))?.0)
}

/// The daemon's request path, one `replay.request` tree per request.
fn request_path(
    tr: &mut Tracer,
    geo: &Geometry,
    table: &[Pair],
    expected: &[Expected],
    reqs: &[Replayed],
    durable: &Durable,
) -> Result<(), String> {
    let params = geo.params();
    let (scheme, band) = (params.scheme, params.band);
    // A durable daemon's own state, recovered as its set-up recovers it:
    // the replay starts from the cache the live run ended with.
    let mut cache = match &durable.state_dir {
        Some(dir) => recover(tr, dir, durable.cache)?,
        None => ResultCache::new(durable.cache),
    };
    let jpath = Path::new("replay.journal");
    let _ = std::fs::remove_file(jpath);
    let (mut journal, _, _) =
        RequestJournal::open(jpath, false).map_err(|e| format!("journal: {e}"))?;
    let mut queue = AdmissionQueue::new(64, 4096);
    // The daemon's defaults (`upmem-nw serve`).
    let rcfg = RecoveryConfig {
        max_attempts: 3,
        quarantine_after: 3,
        deadline: DeadlinePolicy::after_seconds(5.0),
        audit: true,
        ..RecoveryConfig::default()
    };
    let mut server = geo.server();
    let kernel = NwKernel::paper_default();
    with_persistent_engine(&mut server, &kernel, params, &rcfg, 2, 0, |ctl| {
        for r in reqs {
            let (id, req) = (r.id, &r.req);
            let line = workload::request_line(&format!("q{id}"), req, table);
            let root = tr.open("replay.request", None, id);
            let parsed = tr.time("proto.parse", Some(root), id, || proto::parse_line(&line));
            let Ok(ClientLine::Align(parsed)) = parsed else {
                return Err("replayed request line did not parse".to_string());
            };
            let popped = tr.time("queue.admit_pop", Some(root), id, || {
                let q = Queued {
                    req: parsed,
                    conn: 0,
                    arrival: Instant::now(),
                    deadline: None,
                    seq: None,
                };
                match queue.admit(q) {
                    Admission::Admitted => queue.pop_next(),
                    _ => None,
                }
            });
            let q = popped.ok_or("replay queue refused a request")?;
            let seq = tr.time("journal.append", Some(root), id, || {
                journal.admit(&q.req, None)
            });
            let pre = tr.time("cache.lookup", Some(root), id, || {
                result_cache::serve_hits(Some(&mut cache), &q.req.pairs, &scheme, band, false)
            });
            let CachePrepass {
                mut slots,
                keys,
                work,
                aliases,
            } = pre;
            if !work.is_empty() {
                let t0 = Instant::now();
                let jobs = work
                    .iter()
                    .map(|&i| (q.req.pairs[i].0.pack(), q.req.pairs[i].1.pack()))
                    .collect();
                let ticket = ctl.submit(jobs);
                let td = wait_ticket(ctl, ticket)?;
                tr.record("persistent.ticket", Some(root), id, t0, Instant::now());
                for (&slot, r) in work.iter().zip(td.results) {
                    slots[slot] = Some(r);
                }
            }
            let all_hit = work.is_empty();
            let results = tr.time("cache.insert", Some(root), id, || {
                result_cache::resolve(
                    Some(&mut cache),
                    &q.req.pairs,
                    &scheme,
                    band,
                    false,
                    slots,
                    &keys,
                    &work,
                    &aliases,
                )
            });
            tr.time("journal.append", Some(root), id, || {
                journal.done(seq, DoneKind::Completed)
            });
            let reply = tr.time("proto.emit", Some(root), id, || {
                proto::result_line(&q.req.id, false, &results, 0.0)
            });
            tr.close(root);
            black_box(reply);
            check(&results, &req.pairs, expected)?;
            // A request the cache answered whole never reached the engine:
            // its pairs go through it as a ticket of their own, a tree
            // outside the request's, so `persistent.ticket` is measured on
            // every workload.
            if all_hit {
                let t0 = Instant::now();
                let jobs = q
                    .req
                    .pairs
                    .iter()
                    .map(|(a, b)| (a.pack(), b.pack()))
                    .collect();
                let ticket = ctl.submit(jobs);
                let td = wait_ticket(ctl, ticket)?;
                tr.record("persistent.ticket", None, id, t0, Instant::now());
                check(&td.results, &req.pairs, expected)?;
            }
        }
        Ok(())
    })
}

/// Totals of the rank-batch replay.
#[derive(Debug, Default)]
struct EngineTotals {
    ascii_bytes: u64,
    encode_s: f64,
    cells: u64,
    cycles: u64,
    launch_s: f64,
    bytes_in: u64,
    bytes_out: u64,
    pairs: usize,
    records: Vec<CacheRecord>,
}

/// The one-shot path, one `replay.rank_batch` tree per request, as
/// `align_pairs` runs it with `cfg` on `server`; totals add to `tot`.
#[allow(clippy::too_many_arguments)]
fn engine_path(
    tr: &mut Tracer,
    geo: &Geometry,
    cfg: &DispatchConfig,
    server: &mut PimServer,
    table: &[Pair],
    expected: &[Expected],
    reqs: &[Replayed],
    tot: &mut EngineTotals,
) -> Result<(), String> {
    let params = cfg.params;
    let pools = cfg.kernel.pool_cfg.pools;
    let mram = server.cfg().dpu.mram_size;
    let rounds = cfg.rounds.max(1);
    for r in reqs {
        let (id, req) = (r.id, &r.req);
        let root = tr.open("replay.rank_batch", None, id);
        let t0 = Instant::now();
        let mut enc = Encoder::new(0xDA7A);
        let mut packed: Vec<(PackedSeq, PackedSeq)> = Vec::with_capacity(req.pairs.len());
        for &p in &req.pairs {
            let (a, b) = (&table[p].a_text, &table[p].b_text);
            let pa = enc.encode_ascii(a.as_bytes()).map_err(|e| e.to_string())?;
            let pb = enc.encode_ascii(b.as_bytes()).map_err(|e| e.to_string())?;
            packed.push((pa, pb));
        }
        let t1 = Instant::now();
        tr.record("encode", Some(root), id, t0, t1);
        tot.encode_s += (t1 - t0).as_secs_f64();
        tot.ascii_bytes += enc.stats().ascii_bytes;

        let groups = tr.time("balance.lpt", Some(root), id, || {
            let w = pair_workloads(&packed, params.band);
            let groups = group_jobs(&w, rounds * geo.ranks);
            for g in &groups {
                let gw: Vec<u64> = g.iter().map(|&i| w[i]).collect();
                black_box(lpt_assign(&gw, geo.dpus));
            }
            groups
        });
        tot.cells += pair_workloads(&packed, params.band).iter().sum::<u64>();
        let mut planned: Vec<Vec<RankPlan>> = Vec::with_capacity(rounds);
        for round in groups.chunks(geo.ranks) {
            let mut plans = Vec::with_capacity(geo.ranks);
            for ids in round {
                let jobs: Vec<_> = ids.iter().map(|&i| packed[i].clone()).collect();
                let plan = tr.time("dispatch.plan", Some(root), id, || {
                    plan_rank(&jobs, ids, geo.dpus, params, pools, mram)
                });
                plans.push(plan.map_err(|e| format!("plan_rank: {e}"))?);
            }
            planned.push(plans);
        }
        let t0 = Instant::now();
        let launched = match cfg.engine {
            Engine::Lockstep => execute_rounds(server, &cfg.kernel, planned, cfg.sim_threads),
            Engine::Pipelined { fifo_depth } => {
                let opts = PipelineOptions {
                    fifo_depth,
                    sim_threads: cfg.sim_threads,
                    ..PipelineOptions::default()
                };
                execute_rounds_pipelined(server, &cfg.kernel, planned, &opts)
            }
        };
        let t1 = Instant::now();
        tr.record("kernel.launch", Some(root), id, t0, t1);
        tr.close(root);
        let out = launched.map_err(|e| format!("launch: {e}"))?;
        tot.launch_s += (t1 - t0).as_secs_f64();
        tot.cycles += out.stats.total.cycles;
        tot.bytes_in += out.bytes_in;
        tot.bytes_out += out.bytes_out;

        let mut slots: Vec<Option<JobResult>> = vec![None; req.pairs.len()];
        for (j, res) in out.results {
            slots[j] = Some(res);
        }
        let results: Vec<JobResult> = slots
            .into_iter()
            .map(|r| r.ok_or("the launch lost a job"))
            .collect::<Result<_, _>>()?;
        // `align_pairs` audits only when asked, and `upmem-nw align` does
        // not ask by default: each pair's audit is a tree of its own,
        // outside the call's.
        for (j, res) in results.iter().enumerate() {
            let ok = tr.time("recovery.audit", None, id, || {
                pim_host::recovery::audit_ok(&packed[j], res, &params.scheme)
            });
            if !ok {
                return Err(format!("audit rejected replayed pair {j}"));
            }
        }
        check(&results, &req.pairs, expected)?;
        tot.pairs += results.len();
        for ((a, b), result) in packed.into_iter().zip(results) {
            tot.records.push(CacheRecord {
                a,
                b,
                scheme: params.scheme,
                band: params.band,
                score_only: false,
                result,
            });
        }
    }
    Ok(())
}

/// WAL appends, one compaction, and (unless the request path recovered
/// the daemon's own state) one recovery, each as its own span.
fn wal_path(tr: &mut Tracer, records: &[CacheRecord], durable: &Durable) -> Result<(), String> {
    let dir = Path::new("replay-wal");
    let _ = std::fs::remove_dir_all(dir);
    let mut store = CacheStore::open(
        dir,
        StoreOptions {
            compact_every: usize::MAX,
            sync_data: false,
        },
    )
    .map_err(|e| format!("store: {e}"))?;
    for (k, r) in records.iter().enumerate() {
        tr.time("wal.append", None, k as u64, || store.append(r));
    }
    tr.time("wal.compact", None, 0, || store.compact(&|_| true));
    drop(store);
    if durable.state_dir.is_none() {
        black_box(recover(tr, dir, durable.cache)?);
    }
    Ok(())
}

/// Single-threaded KSW2 over (up to [`KSW2_PAIRS`] of) the replayed pairs.
fn ksw2_mcells_s(geo: &Geometry, table: &[Pair], reqs: &[Replayed]) -> f64 {
    let aligner = cpu_baseline::ksw2::Ksw2Aligner::new(ScoringScheme::default(), geo.params().band);
    let mut seen = std::collections::BTreeSet::new();
    let (mut cells, mut secs) = (0u64, 0.0f64);
    for &p in reqs.iter().flat_map(|r| &r.req.pairs) {
        if seen.len() >= KSW2_PAIRS || !seen.insert(p) {
            continue;
        }
        let (a, b) = (&table[p].a, &table[p].b);
        let t0 = Instant::now();
        let out = black_box(aligner.align(a, b));
        secs += t0.elapsed().as_secs_f64();
        if out.is_ok() {
            cells += aligner.cells(a.len(), b.len());
        }
    }
    if secs > 0.0 {
        cells as f64 / secs / 1e6
    } else {
        f64::NAN
    }
}

/// Replay `reqs` through every layer, [`REPLAY_PASSES`] times, and add the
/// per-layer metrics to `m`. The rank-batch path runs `cfg` on `server`.
/// The layer self times of `residual.root`'s trees, summed per tree, taken
/// from each request's fastest pass, are subtracted from the live p50 to give `daemon.residual_ms`. Returns
/// a problem when that residual falls outside `residual`'s shares of the
/// p50.
#[allow(clippy::too_many_arguments)]
pub fn replay_all(
    tr: &mut Tracer,
    geo: &Geometry,
    cfg: &DispatchConfig,
    server: &mut PimServer,
    table: &[Pair],
    expected: &[Expected],
    reqs: &[Replayed],
    durable: &Durable,
    residual: Residual,
    m: &mut Metrics,
) -> Result<Option<String>, String> {
    let mut tot = EngineTotals::default();
    for _ in 0..REPLAY_PASSES {
        request_path(tr, geo, table, expected, reqs, durable)?;
        engine_path(tr, geo, cfg, server, table, expected, reqs, &mut tot)?;
    }
    wal_path(tr, &tot.records, durable)?;
    tr.check_trees()?;

    let us = |tr: &Tracer, name: &str| tr.median_self_us(name).unwrap_or(f64::NAN);
    for (metric, span) in [
        ("proto.parse_us", "proto.parse"),
        ("proto.emit_us", "proto.emit"),
        ("queue.admit_pop_us", "queue.admit_pop"),
        ("journal.append_us", "journal.append"),
        ("cache.lookup_us", "cache.lookup"),
        ("cache.insert_us", "cache.insert"),
        ("balance.lpt_us", "balance.lpt"),
        ("dispatch.plan_us", "dispatch.plan"),
        ("recovery.audit_us", "recovery.audit"),
        ("wal.append_us", "wal.append"),
    ] {
        m.insert(metric, (us(tr, span), "us"));
    }
    for (metric, span) in [
        ("persistent.ticket_ms", "persistent.ticket"),
        ("kernel.launch_ms", "kernel.launch"),
        ("wal.compact_ms", "wal.compact"),
        ("wal.recover_ms", "wal.recover"),
    ] {
        m.insert(metric, (us(tr, span) / 1e3, "ms"));
    }
    let per_pair = |x: u64| x as f64 / tot.pairs.max(1) as f64;
    m.insert(
        "encode.mb_s",
        (tot.ascii_bytes as f64 / tot.encode_s / 1e6, "MB/s"),
    );
    m.insert(
        "kernel.host_mcells_s",
        (tot.cells as f64 / tot.launch_s / 1e6, "Mcells/s"),
    );
    m.insert(
        "kernel.sim_cycles_per_cell",
        (tot.cycles as f64 / tot.cells as f64, "cycles/cell"),
    );
    m.insert("dispatch.mram_in_bytes", (per_pair(tot.bytes_in), "bytes"));
    m.insert(
        "dispatch.mram_out_bytes",
        (per_pair(tot.bytes_out), "bytes"),
    );
    m.insert(
        "cpu_baseline.ksw2_mcells_s",
        (ksw2_mcells_s(geo, table, reqs), "Mcells/s"),
    );

    let mut fastest: BTreeMap<u64, f64> = BTreeMap::new();
    for (req, ms) in tr.layer_sums_ms(residual.root) {
        let best = fastest.entry(req).or_insert(f64::INFINITY);
        *best = best.min(ms);
    }
    let live: Vec<f64> = reqs.iter().map(|r| r.live_ms).collect();
    let layers: Vec<f64> = reqs
        .iter()
        .map(|r| fastest.get(&r.id).copied().unwrap_or(0.0))
        .collect();
    let p50 = median(&live);
    let res = p50 - median(&layers);
    let share = res / p50;
    m.insert("daemon.residual_ms", (res, "ms"));
    m.insert("daemon.residual_share", (share, "frac"));
    let over = residual.max_share.is_some_and(|s| share > s);
    Ok((share < residual.min_share || over).then(|| {
        format!(
            "daemon.residual_ms {res:.3} ms is {share:.3} of the traced p50 {p50:.3} ms, \
             outside [{}, {}]: the replayed layers do not reconcile with the live path",
            residual.min_share,
            residual
                .max_share
                .map_or_else(|| "unbounded".to_string(), |s| s.to_string())
        )
    }))
}
