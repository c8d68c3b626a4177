//! Peer alignment backends behind one [`Backend`] trait.
//!
//! The paper's §5.6 observes that the host cores sit idle while DPUs run.
//! PR 9 promotes the CPU path from an error-fallback/static-split sidecar
//! to a *first-class peer*: [`SimPimBackend`] wraps the PiM server behind
//! fault-tolerant dispatch, [`CpuPoolBackend`]
//! wraps the kernel-identical [`AdaptiveAligner`] on a work-stealing
//! thread pool, and both speak the same batch interface and self-report
//! measured throughput in eq.-6 workload units per second.
//!
//! Throughput is an EWMA over completed batches — a *feedback loop*, not
//! a hand-fed estimate. The first PiM batch is not blind either: the seed
//! rate comes from one timed launch of the native kernel on a single DPU
//! ([`seed_pim_rate`]), the same code path every PiM batch runs, so the
//! router has a defensible prior before any batch completes.
//!
//! Both backends honor the bit-identity contract: for in-band pairs the
//! CPU pool's adaptive aligner produces exactly the score and CIGAR the
//! DPU kernels produce, which is what makes dynamic routing (and result
//! caching) invisible to callers.

use crate::dispatch::{resolve_sim_threads, DispatchConfig, Engine};
use crate::recovery::{align_pairs_recovering, FaultReport, RecoveryConfig};
use crate::report::ExecutionReport;
use dpu_kernel::layout::{JobResult, JobStatus};
use dpu_kernel::{KernelParams, KernelVariant, NwKernel};
use nw_core::cigar::Cigar;
use nw_core::error::AlignError;
use nw_core::seq::DnaSeq;
use nw_core::{AdaptiveAligner, ScoringScheme};
use pim_sim::{PimServer, ServerConfig, SimError};
use std::sync::OnceLock;
use std::time::Instant;

/// Exponentially weighted moving average of measured throughput.
///
/// Seeded from a one-time probe (a native launch for PiM, one alignment
/// for the CPU) and then updated from every completed batch; the weight
/// favors recent samples because a one-shot run only sees a handful of
/// batches.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputEwma {
    rate: f64,
    samples: u64,
}

/// Weight of the newest sample. High on purpose: the seed is a prior, and
/// a few real batches should dominate it quickly.
const EWMA_ALPHA: f64 = 0.4;

impl ThroughputEwma {
    /// Start from a modeled rate (units/second, clamped positive).
    pub fn seeded(rate: f64) -> Self {
        ThroughputEwma {
            rate: rate.max(1.0),
            samples: 0,
        }
    }

    /// Fold in one completed batch.
    pub fn observe(&mut self, units: f64, seconds: f64) {
        if units <= 0.0 || seconds <= 1e-12 {
            return;
        }
        let sample = units / seconds;
        // First real measurement replaces the model seed outright.
        self.rate = if self.samples == 0 {
            sample
        } else {
            (1.0 - EWMA_ALPHA) * self.rate + EWMA_ALPHA * sample
        };
        self.samples += 1;
    }

    /// Current estimate in units/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Batches observed so far (0 = still running on the seed).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Everything one batch execution produced.
#[derive(Debug)]
pub struct BackendBatch {
    /// Per-pair results, in the batch's input order.
    pub results: Vec<JobResult>,
    /// Measured host wall seconds for the batch (what the router's
    /// cost model predicts and the EWMA consumes).
    pub seconds: f64,
    /// The PiM execution report, when the backend produces one.
    pub report: Option<ExecutionReport>,
    /// Fault-recovery counters, when the backend tracks them.
    pub fault: Option<FaultReport>,
}

/// A first-class alignment backend: runs batches, reports its measured
/// throughput so the router can price the next batch.
pub trait Backend: Send {
    /// Stable short name ("pim", "cpu") used in reports and bench JSON.
    fn name(&self) -> &'static str;
    /// Current measured throughput estimate in eq.-6 units per second.
    fn units_per_second(&self) -> f64;
    /// Align a batch; updates the throughput estimate as a side effect.
    fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError>;
}

/// Total eq.-6 workload of a pair list at a band width.
pub fn batch_units(pairs: &[(DnaSeq, DnaSeq)], band: usize) -> f64 {
    pairs
        .iter()
        .map(|(a, b)| crate::balance::workload(a.len(), b.len(), band) as f64)
        .sum()
}

/// Representative job length for the throughput seeds: long enough that
/// per-job overheads are amortized, short enough to be in every workload's
/// range.
const SEED_JOB_LEN: usize = 384;

/// Band of the PiM seed launch. eq.-6 units and DP cells both grow
/// linearly with the band, so the measured rate carries over to others.
const SEED_BAND: usize = 128;

/// The synthetic pair both throughput probes align: a repeat with one
/// substitution, so the band never has to move far.
fn probe_pair() -> (DnaSeq, DnaSeq) {
    let text: String = "ACGTGGTCATTACGGA".repeat(SEED_JOB_LEN / 16);
    let a = DnaSeq::from_ascii(text.as_bytes()).expect("probe seq");
    let mut btext = text;
    btext.replace_range(8..9, "T");
    let b = DnaSeq::from_ascii(btext.as_bytes()).expect("probe seq");
    (a, b)
}

/// Host throughput of one simulated DPU in eq.-6 units per second: one
/// [`SEED_JOB_LEN`]-square job through the native kernel launch on a
/// 1-DPU rank, best of three, measured once per process per kernel build.
fn native_dpu_rate(variant: KernelVariant, score_only: bool) -> f64 {
    static CACHE: [OnceLock<f64>; 4] = [const { OnceLock::new() }; 4];
    let idx = 2 * usize::from(variant == KernelVariant::Asm) + usize::from(score_only);
    *CACHE[idx].get_or_init(|| {
        let mut server = PimServer::new(ServerConfig {
            dpus_per_rank: 1,
            ..ServerConfig::with_ranks(1)
        });
        let params = KernelParams {
            band: SEED_BAND,
            scheme: ScoringScheme::default(),
            score_only,
        };
        let mut cfg = DispatchConfig::new(NwKernel::new(Default::default(), variant), params);
        cfg.engine = Engine::Lockstep;
        cfg.rounds = 1;
        let pair = [probe_pair()];
        let units = batch_units(&pair, SEED_BAND);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            crate::modes::align_pairs(&mut server, &cfg, &pair).expect("seed launch");
            best = best.min(t.elapsed().as_secs_f64());
        }
        units / best.max(1e-9)
    })
}

/// Seed PiM throughput (eq.-6 units per *host* second): the measured
/// single-DPU rate of the native launch, times the DPUs the simulator runs
/// at once — `parallel_dpus`, capped by the simulator's host thread budget
/// (`cfg.sim_threads`), since each simulated DPU occupies one host thread
/// while it runs. The estimate is deliberately rough — it only has to be
/// the right order of magnitude until the first batch's measurement
/// replaces it.
pub fn seed_pim_rate(cfg: &DispatchConfig, parallel_dpus: usize) -> f64 {
    let concurrent = parallel_dpus.clamp(1, resolve_sim_threads(cfg.sim_threads).max(1));
    native_dpu_rate(cfg.kernel.variant, cfg.params.score_only) * concurrent as f64
}

/// The PiM server as a backend: fault-tolerant dispatch (lockstep or
/// pipelined per the [`DispatchConfig`]) over the full recovery ladder, so
/// injected faults degrade throughput instead of failing batches.
pub struct SimPimBackend<'a> {
    server: &'a mut PimServer,
    cfg: DispatchConfig,
    rcfg: RecoveryConfig,
    ewma: ThroughputEwma,
}

impl<'a> SimPimBackend<'a> {
    /// Wrap `server`; the throughput seed comes from [`seed_pim_rate`] and
    /// the server's DPU count.
    pub fn new(server: &'a mut PimServer, cfg: DispatchConfig, rcfg: RecoveryConfig) -> Self {
        let dpus = server.cfg().ranks * server.cfg().dpus_per_rank;
        let ewma = ThroughputEwma::seeded(seed_pim_rate(&cfg, dpus));
        SimPimBackend {
            server,
            cfg,
            rcfg,
            ewma,
        }
    }

    /// The dispatch configuration this backend runs.
    pub fn dispatch_config(&self) -> &DispatchConfig {
        &self.cfg
    }
}

impl Backend for SimPimBackend<'_> {
    fn name(&self) -> &'static str {
        "pim"
    }

    fn units_per_second(&self) -> f64 {
        self.ewma.rate()
    }

    fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError> {
        if pairs.is_empty() {
            return Ok(BackendBatch {
                results: Vec::new(),
                seconds: 0.0,
                report: None,
                fault: None,
            });
        }
        let t = Instant::now();
        let (report, results) = align_pairs_recovering(self.server, &self.cfg, &self.rcfg, pairs)?;
        let seconds = t.elapsed().as_secs_f64();
        self.ewma
            .observe(batch_units(pairs, self.cfg.params.band), seconds);
        Ok(BackendBatch {
            results,
            seconds,
            fault: Some(report.fault.clone()),
            report: Some(report),
        })
    }
}

/// The host cores as a backend: the kernel-identical adaptive aligner on
/// the work-stealing pool, producing bit-identical results to the DPU path
/// for every in-band pair.
pub struct CpuPoolBackend {
    aligner: AdaptiveAligner,
    threads: usize,
    band: usize,
    score_only: bool,
    ewma: ThroughputEwma,
}

impl CpuPoolBackend {
    /// A pool of `threads` workers aligning with band `band`. The
    /// throughput seed comes from a one-pair micro-probe (microseconds).
    pub fn new(scheme: ScoringScheme, band: usize, score_only: bool, threads: usize) -> Self {
        let threads = threads.max(1);
        let aligner = AdaptiveAligner::new(scheme, band);
        let ewma = ThroughputEwma::seeded(cpu_probe_rate(&aligner, band) * threads as f64);
        CpuPoolBackend {
            aligner,
            threads,
            band,
            score_only,
            ewma,
        }
    }

    /// Map one CPU alignment outcome onto the kernel's result layout,
    /// mirroring the DPU contract: out-of-band/failed pairs surface as
    /// `OutOfBand`, score-only mode strips the CIGAR.
    fn to_job_result(&self, res: Result<nw_core::Alignment, AlignError>) -> JobResult {
        match res {
            Ok(aln) => JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: if self.score_only {
                    Cigar::new()
                } else {
                    aln.cigar
                },
            },
            Err(_) => JobResult {
                status: JobStatus::OutOfBand,
                score: 0,
                cigar: Cigar::new(),
            },
        }
    }
}

/// Single-thread units/second of the adaptive aligner, measured once per
/// pool on a representative synthetic pair.
fn cpu_probe_rate(aligner: &AdaptiveAligner, band: usize) -> f64 {
    let (a, b) = probe_pair();
    let units = crate::balance::workload(a.len(), b.len(), band) as f64;
    let t = Instant::now();
    let mut reps = 0u32;
    while reps < 4 || t.elapsed().as_micros() < 200 {
        std::hint::black_box(aligner.align(&a, &b)).ok();
        reps += 1;
    }
    let per = t.elapsed().as_secs_f64() / f64::from(reps);
    units / per.max(1e-9)
}

impl Backend for CpuPoolBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn units_per_second(&self) -> f64 {
        self.ewma.rate()
    }

    fn run_batch(&mut self, pairs: &[(DnaSeq, DnaSeq)]) -> Result<BackendBatch, SimError> {
        if pairs.is_empty() {
            return Ok(BackendBatch {
                results: Vec::new(),
                seconds: 0.0,
                report: None,
                fault: None,
            });
        }
        let (raw, elapsed) =
            cpu_baseline::driver::run_batch(self.threads, pairs, |a, b| self.aligner.align(a, b));
        let seconds = elapsed.as_secs_f64();
        let results = raw.into_iter().map(|r| self.to_job_result(r)).collect();
        self.ewma.observe(batch_units(pairs, self.band), seconds);
        Ok(BackendBatch {
            results,
            seconds,
            report: None,
            fault: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_kernel::{KernelParams, NwKernel};
    use pim_sim::ServerConfig;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(4 + k % 4);
                let mut b = a.clone();
                b.insert_str(4 + k % 6, "TT");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    fn dispatch_config() -> DispatchConfig {
        let params = KernelParams {
            band: 32,
            scheme: ScoringScheme::default(),
            score_only: false,
        };
        DispatchConfig::new(NwKernel::paper_default(), params)
    }

    #[test]
    fn ewma_replaces_seed_then_blends() {
        let mut e = ThroughputEwma::seeded(1000.0);
        assert_eq!(e.rate(), 1000.0);
        e.observe(100.0, 1.0);
        assert_eq!(e.rate(), 100.0, "first sample replaces the seed");
        e.observe(200.0, 1.0);
        assert!(e.rate() > 100.0 && e.rate() < 200.0, "blend: {}", e.rate());
        // Degenerate samples are ignored.
        e.observe(0.0, 1.0);
        e.observe(10.0, 0.0);
        assert_eq!(e.samples(), 2);
    }

    #[test]
    fn both_backends_agree_bit_identically() {
        let ps = pairs(12);
        let cfg = dispatch_config();
        let mut server = PimServer::new({
            let mut c = ServerConfig::with_ranks(1);
            c.dpus_per_rank = 2;
            c
        });
        let mut pim = SimPimBackend::new(&mut server, cfg, RecoveryConfig::default());
        let pim_out = pim.run_batch(&ps).unwrap();
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, false, 2);
        let cpu_out = cpu.run_batch(&ps).unwrap();
        assert_eq!(pim_out.results.len(), cpu_out.results.len());
        for (i, (p, c)) in pim_out.results.iter().zip(&cpu_out.results).enumerate() {
            assert_eq!(p, c, "pair {i} diverged between backends");
        }
        // Both measured a real batch, so the EWMA left its seed.
        assert!(pim.units_per_second() > 0.0);
        assert!(cpu.units_per_second() > 0.0);
    }

    #[test]
    fn native_seed_is_finite_and_positive() {
        let mut cfg = dispatch_config();
        cfg.sim_threads = 16;
        let rate = seed_pim_rate(&cfg, 8);
        assert!(rate.is_finite() && rate > 0.0, "seed rate {rate}");
        // More DPUs, more throughput, up to the simulator's thread budget.
        assert!(seed_pim_rate(&cfg, 16) > rate);
        assert_eq!(seed_pim_rate(&cfg, 32), seed_pim_rate(&cfg, 16));
    }

    #[test]
    fn score_only_cpu_results_strip_cigars() {
        let ps = pairs(4);
        let mut cpu = CpuPoolBackend::new(ScoringScheme::default(), 32, true, 1);
        let out = cpu.run_batch(&ps).unwrap();
        for r in &out.results {
            assert_eq!(r.status, JobStatus::Ok);
            assert!(r.cigar.runs().is_empty());
        }
    }
}
