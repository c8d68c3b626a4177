//! batch-long: repeated one-shot `pim_host::align_pairs` calls, the entry
//! point `upmem-nw align --algo pim` uses, on its default geometry. Proto,
//! queue, cache, WAL and journal are not on this path.
//!
//! Every call aligns the same seeded S10000 + S30000 pairs, so its
//! simulated clock must repeat bit for bit; a call's latency is one sample.

use crate::daemon::vm_hwm_mb;
use crate::layers::{self, Durable, Geometry, Metrics, Replayed, Residual};
use crate::reference::{reference, Expected};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::workload::{self, Request};
use crate::{Outcome, Phases};
use dpu_kernel::isa_loops::measure_gated_mode;
use dpu_kernel::{CellCosts, KernelVariant, NwKernel};
use pim_host::dispatch::DispatchConfig;
use pim_host::ExecutionReport;
use pim_sim::isa::InterpMode;
use std::path::Path;
use std::time::Instant;

/// Calls replayed through the layers in a traced run.
const REPLAY_CALLS: usize = 5;

/// One timed call.
struct Call {
    ms: f64,
    traced: bool,
    report: ExecutionReport,
}

/// Median and tail latency, tail percentile and pairs per second of wall
/// time inside the calls.
fn e2e_of(calls: &[&Call], pairs_per_call: usize) -> (f64, f64, f64, f64) {
    let lat: Vec<f64> = calls.iter().map(|c| c.ms).collect();
    let (pct, tail_ms) = tail(&lat);
    let wall_s = lat.iter().sum::<f64>() / 1e3;
    let pairs_s = (calls.len() * pairs_per_call) as f64 / wall_s;
    (median(&lat), tail_ms, pct, pairs_s)
}

/// Run batch-long.
pub fn run(bin: &Path, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut phases = Phases::default();
    let table = workload::batch_long(seed);
    let geo = Geometry::batch();
    let expected = reference(&table, geo.band);
    phases.mark("reference");
    if expected.contains(&Expected::OutOfBand) {
        return Err(format!("a batch-long pair leaves band {}", geo.band));
    }
    let pairs: Vec<_> = table.iter().map(|p| (p.a.clone(), p.b.clone())).collect();

    // Set-up: server construction plus the kernel's one-time cost
    // measurement (what `CellCosts` caches at a process's first launch).
    let mode = InterpMode::default();
    let _ = CellCosts::for_variant_mode(KernelVariant::Asm, mode);
    let mut setups = Vec::with_capacity(workload::BATCH_SETUP_REPS);
    let mut server = None;
    for _ in 0..workload::BATCH_SETUP_REPS {
        let t0 = Instant::now();
        let s = geo.server();
        std::hint::black_box(measure_gated_mode(KernelVariant::Asm, true, mode));
        std::hint::black_box(measure_gated_mode(KernelVariant::Asm, false, mode));
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    let cfg = DispatchConfig::new(NwKernel::paper_default(), geo.params());
    phases.mark("set-up");

    let mut tracer = Tracer::default();
    let mut calls: Vec<Call> = Vec::new();
    let mut wrong = 0usize;
    // The generator's lag: from the end of one call to the start of the
    // next (checking the answers happens in between).
    let mut lag_max_ms = 0.0f64;
    let t0 = Instant::now();
    let mut last_end = t0;
    while t0.elapsed().as_secs_f64() < seconds {
        let traced = trace && t0.elapsed().as_secs_f64() >= seconds / 2.0;
        let c0 = Instant::now();
        lag_max_ms = lag_max_ms.max((c0 - last_end).as_secs_f64() * 1e3);
        let (report, results) = pim_host::align_pairs(&mut server, &cfg, &pairs)
            .map_err(|e| format!("align_pairs: {e}"))?;
        let c1 = Instant::now();
        if traced {
            tracer.record("batch.call", None, calls.len() as u64, c0, c1);
        }
        wrong += results
            .iter()
            .zip(&expected)
            .filter(|(r, e)| !e.matches_result(r))
            .count();
        last_end = c1;
        calls.push(Call {
            ms: (c1 - c0).as_secs_f64() * 1e3,
            traced,
            report,
        });
    }
    let rss_mb = vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN);
    phases.mark("measured");

    let mut problems = Vec::new();
    if wrong > 0 {
        problems.push(format!("{wrong} pairs answered wrongly"));
    }
    let first = &calls[0].report;
    if calls
        .iter()
        .any(|c| c.report.total_seconds().to_bits() != first.total_seconds().to_bits())
    {
        problems.push("sim_s differs between identical calls".into());
    }
    let untraced: Vec<&Call> = calls.iter().filter(|c| !c.traced).collect();
    let traced: Vec<&Call> = calls.iter().filter(|c| c.traced).collect();
    let (p50, tail_ms, pct, pairs_s) = e2e_of(&untraced, pairs.len());

    let mut e2e = Metrics::new();
    e2e.insert("setup_s", (median(&setups), "s"));
    e2e.insert("pairs_s", (pairs_s, "1/s"));
    e2e.insert("p50_ms", (p50, "ms"));
    e2e.insert("tail_ms", (tail_ms, "ms"));
    e2e.insert("rss_mb", (rss_mb, "MB"));
    e2e.insert("sim_s", (first.total_seconds(), "s"));
    e2e.insert(
        "sim_host_overhead_frac",
        (first.host_overhead_fraction(), "frac"),
    );

    let mut lay = Metrics::new();
    lay.insert("tail.percentile", (pct, "pct"));
    lay.insert("loadgen.lag_max_ms", (lag_max_ms, "ms"));
    let reports: Vec<&ExecutionReport> = calls.iter().map(|c| &c.report).collect();
    layers::report_metrics(&reports, &mut lay);

    let mut outcome = Outcome {
        correct: problems.is_empty(),
        attempted: calls.len() * pairs.len(),
        failed: wrong,
        e2e,
        layers: lay,
        problems,
        tracer: None,
        notes: vec![format!(
            "{} calls of {} pairs; tail is p{pct:.1}",
            calls.len(),
            pairs.len()
        )],
    };
    if trace {
        let (tp50, _, _, tpairs) = e2e_of(&traced, pairs.len());
        let l = &mut outcome.layers;
        l.insert("trace.overhead_p50_ms", (tp50 - p50, "ms"));
        l.insert("trace.overhead_pairs_s", (tpairs - pairs_s, "1/s"));
        crate::serve::idle_daemon_metrics(bin, l)?;
        let call = Request {
            priority: upmem_nw_service::Priority::Batch,
            pairs: (0..table.len()).collect(),
        };
        // The last traced calls: the nearest in time to their replay, so
        // the host's drift between the two stays small.
        let first = calls.len() - traced.len().min(REPLAY_CALLS);
        let replayed: Vec<Replayed> = calls
            .iter()
            .enumerate()
            .skip(first)
            .map(|(i, c)| Replayed {
                id: i as u64,
                req: call.clone(),
                live_ms: c.ms,
            })
            .collect();
        let durable = Durable {
            cache: 4096,
            state_dir: None,
        };
        // The rank-batch replay runs on the live calls' server with their
        // configuration, so its layers add up to the path they explain.
        let residual = Residual {
            root: "replay.rank_batch",
            min_share: -layers::CALL_RESIDUAL_SHARE,
            max_share: Some(layers::CALL_RESIDUAL_SHARE),
        };
        let problem = layers::replay_all(
            &mut tracer,
            &geo,
            &cfg,
            &mut server,
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
