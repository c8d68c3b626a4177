//! The DPU kernel: P pools × T tasklets computing adaptive banded N&W.
//!
//! Execution per job (§4.2):
//! 1. The pool's master tasklet DMAs the job's packed sequences from MRAM
//!    through the pool's 2 KB staging buffer and unpacks them.
//! 2. The pool computes anti-diagonals: the `w` window cells are split into
//!    `T` segments, one per tasklet; the master also makes the shift
//!    decision and streams the `BT` row to MRAM. A pool barrier closes each
//!    anti-diagonal (one [`pim_sim::dpu::Timeline`] phase).
//! 3. The master walks the `BT` rows back (sequential — "the traceback
//!    procedure cannot be parallelized", §4.2.3), builds the CIGAR and
//!    writes the output record.
//!
//! Jobs are handed to whichever pool is least loaded, emulating the shared
//! job queue of the real kernel. All DP arithmetic is delegated to
//! [`nw_core::adaptive::Engine`] — the same code the host aligner runs — so
//! kernel results are bit-identical to host results by construction; what
//! this module adds is the *physical* data movement (WRAM allocation, DMA
//! with alignment rules, MRAM layout) and the cycle accounting driven by
//! the measured [`CellCosts`].

use crate::cost::{CellCosts, KernelVariant};
use crate::layout::{
    self, JobBatch, JobBatchBuilder, JobStatus, KernelParams, HEADER_BYTES, JOB_ENTRY_BYTES,
    OUT_HEADER_BYTES,
};
use nw_core::adaptive::Engine;
use nw_core::cigar::CigarOp;
use nw_core::seq::{Base, PackedSeq};
use nw_core::traceback::{walk, BtCell};
use nw_core::ScoringScheme;
use pim_sim::dpu::{Dpu, Kernel, Timeline};
use pim_sim::pipeline::PhaseCost;
use pim_sim::SimError;
use std::cell::RefCell;

/// Tasklet organization (§4.2.3). The paper's evaluation uses P=6, T=4,
/// which keeps pipeline utilization at 95–99 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of pools (concurrent alignments).
    pub pools: usize,
    /// Tasklets per pool (parallel segments of one anti-diagonal).
    pub tasklets: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            pools: 6,
            tasklets: 4,
        }
    }
}

impl PoolConfig {
    /// Total tasklets booted on the DPU.
    pub fn total_tasklets(&self) -> usize {
        self.pools * self.tasklets
    }
}

/// The N&W kernel program.
#[derive(Debug, Clone)]
pub struct NwKernel {
    /// Pool organization.
    pub pool_cfg: PoolConfig,
    /// Which build (Table 7).
    pub variant: KernelVariant,
}

impl NwKernel {
    /// Build a kernel.
    pub fn new(pool_cfg: PoolConfig, variant: KernelVariant) -> Self {
        assert!(
            pool_cfg.pools >= 1 && pool_cfg.tasklets >= 1,
            "need at least 1x1 tasklets"
        );
        Self { pool_cfg, variant }
    }

    /// The paper's production configuration: P=6, T=4, asm kernel.
    pub fn paper_default() -> Self {
        Self::new(PoolConfig::default(), KernelVariant::Asm)
    }

    /// The watchdog cycle budget of one DPU launching `batch` with this
    /// kernel: [`crate::cost::launch_watchdog_cycles`] over the batch's job
    /// lengths, its params and this kernel's P × T.
    pub fn watchdog_cycles(&self, batch: &JobBatch) -> u64 {
        crate::cost::launch_watchdog_cycles(&batch.job_lens, &batch.params, self.pool_cfg)
    }
}

/// Per-pool WRAM buffers, allocated once per launch.
struct PoolWram {
    /// 2 KB staging buffer for sequence/CIGAR DMA.
    staging: usize,
    /// `BT` row buffer.
    bt_row: usize,
    /// Byte capacity of the `BT` row buffer.
    bt_row_len: usize,
}

/// Header fields parsed from MRAM.
struct Header {
    num_jobs: usize,
    params: KernelParams,
    jobs_off: usize,
    out_base: usize,
    bt_off: usize,
    bt_stride: usize,
}

const STAGING_BYTES: usize = 2048;

impl Kernel for NwKernel {
    fn run(&self, dpu: &mut Dpu) -> Result<(), SimError> {
        let costs = *CellCosts::for_variant(self.variant);
        let total_tasklets = self.pool_cfg.total_tasklets();
        if total_tasklets > dpu.cfg.max_tasklets {
            return Err(SimError::BadTasklet {
                tasklet: total_tasklets,
                max: dpu.cfg.max_tasklets,
            });
        }

        // --- Parse the header (one DMA through a bootstrap buffer). ---
        let boot = dpu.wram.alloc(HEADER_BYTES.next_multiple_of(8), 8)?;
        let mut boot_cost = PhaseCost::default();
        dpu.mram_to_wram(&mut boot_cost, 0, boot, HEADER_BYTES.next_multiple_of(8))?;
        let head = dpu.wram.slice(boot, HEADER_BYTES)?.to_vec();
        let magic = layout::read_u32(&head, 0x00);
        if magic != layout::MAGIC {
            return Err(SimError::KernelFault {
                code: magic,
                message: "bad batch magic in MRAM".into(),
            });
        }
        let header = Header {
            num_jobs: layout::read_u32(&head, 0x04) as usize,
            params: KernelParams {
                score_only: layout::read_u32(&head, 0x08) & 1 == 1,
                band: layout::read_u32(&head, 0x0C) as usize,
                scheme: ScoringScheme::new(
                    layout::read_u32(&head, 0x10) as i32,
                    layout::read_u32(&head, 0x14) as i32,
                    layout::read_u32(&head, 0x18) as i32,
                    layout::read_u32(&head, 0x1C) as i32,
                ),
            },
            jobs_off: layout::read_u32(&head, 0x20) as usize,
            out_base: layout::read_u32(&head, 0x24) as usize,
            bt_off: layout::read_u32(&head, 0x28) as usize,
            bt_stride: layout::read_u32(&head, 0x2C) as usize,
        };
        let w = header.params.band;
        let row_bytes = JobBatchBuilder::bt_row_bytes(w);

        // --- Per-pool WRAM allocation: the paper's capacity argument. ---
        // Four w-wide anti-diagonal arrays (H x2, D, I) + sequence windows
        // (2 bit-unpacked, one byte per banded row/column) + staging + BT
        // row + output staging. Exhausting WRAM here is exactly why the
        // paper caps P and uses pooled tasklets.
        let mut pools: Vec<PoolWram> = Vec::with_capacity(self.pool_cfg.pools);
        for _ in 0..self.pool_cfg.pools {
            let _band_arrays = dpu.wram.alloc(4 * w * 4, 8)?;
            let _seq_windows = dpu.wram.alloc(2 * w, 8)?;
            let staging = dpu.wram.alloc(STAGING_BYTES, 8)?;
            let bt_row = dpu.wram.alloc(row_bytes.max(8), 8)?;
            pools.push(PoolWram {
                staging,
                bt_row,
                bt_row_len: row_bytes.max(8),
            });
        }

        // --- Job loop: greedy least-loaded pool (shared queue). ---
        let mut timelines = vec![Timeline::default(); self.pool_cfg.pools];
        // Boot phase billed to pool 0's master.
        timelines[0].sequential(&dpu.cfg, total_tasklets, boot_cost);

        for job_idx in 0..header.num_jobs {
            let pool_idx = timelines
                .iter()
                .enumerate()
                .min_by_key(|(i, t)| (t.cycles, *i))
                .map(|(i, _)| i)
                .expect("at least one pool");
            self.run_job(
                dpu,
                &header,
                &pools[pool_idx],
                &mut timelines[pool_idx],
                &costs,
                job_idx,
                pool_idx,
            )?;
        }

        dpu.record_timelines(&timelines);
        Ok(())
    }
}

impl NwKernel {
    #[allow(clippy::too_many_arguments)]
    fn run_job(
        &self,
        dpu: &mut Dpu,
        header: &Header,
        pool: &PoolWram,
        timeline: &mut Timeline,
        costs: &CellCosts,
        job_idx: usize,
        pool_idx: usize,
    ) -> Result<(), SimError> {
        let active = self.pool_cfg.total_tasklets();
        let t_count = self.pool_cfg.tasklets;
        let w = header.params.band;
        let row_bytes = pool.bt_row_len;
        let cfg = dpu.cfg;

        // --- Fetch the job descriptor. ---
        let mut master = PhaseCost {
            instructions: costs.job_overhead,
            dma_cycles: 0,
        };
        let entry_off = header.jobs_off + job_idx * JOB_ENTRY_BYTES;
        dpu.mram_to_wram(&mut master, entry_off, pool.staging, JOB_ENTRY_BYTES)?;
        let entry = dpu.wram.slice(pool.staging, JOB_ENTRY_BYTES)?.to_vec();
        let a_off = layout::read_u32(&entry, 0) as usize;
        let a_len = layout::read_u32(&entry, 4) as usize;
        let b_off = layout::read_u32(&entry, 8) as usize;
        let b_len = layout::read_u32(&entry, 12) as usize;
        let out_off = header.out_base + layout::read_u32(&entry, 16) as usize;

        // --- DMA sequences through the staging buffer and unpack. ---
        let a = self.fetch_sequence(dpu, pool, &mut master, a_off, a_len, costs)?;
        let b = self.fetch_sequence(dpu, pool, &mut master, b_off, b_len, costs)?;
        timeline.sequential(&cfg, active, master);

        // --- Anti-diagonal sweep. ---
        let with_bt = !header.params.score_only;
        let mut engine = Engine::new(header.params.scheme, w, a_len, b_len, with_bt);
        let bt_base = header.bt_off + pool_idx * header.bt_stride;
        let mut phase_costs = vec![PhaseCost::default(); t_count];
        while !engine.is_done() {
            let out = engine.step(a.as_slice(), b.as_slice());
            let cells = u64::from(out.valid_cells);
            // Split the window cells over T tasklets; the uneven tail goes
            // to the first segment (the critical tasklet in the model).
            let chunk = cells.div_ceil(t_count as u64);
            for (tid, cost) in phase_costs.iter_mut().enumerate() {
                let assigned = chunk.min(cells.saturating_sub(chunk * tid as u64));
                cost.instructions = costs.cells(assigned, with_bt) + costs.step_overhead;
            }
            // Master extras: the shift decision scans the window for its
            // extrema/argmax plus bookkeeping.
            phase_costs[0].instructions += costs.master_overhead + w as u64 / 8;
            if with_bt {
                // Stream the BT row to MRAM.
                let row = engine.bt_row().as_bytes();
                let buf = dpu.wram.slice_mut(pool.bt_row, row_bytes)?;
                buf.fill(0);
                buf[..row.len()].copy_from_slice(row);
                dpu.wram_to_mram(
                    &mut phase_costs[0],
                    pool.bt_row,
                    bt_base + out.t * row_bytes,
                    row_bytes,
                )?;
            }
            timeline.finish_phase(&cfg, active, &mut phase_costs);
        }

        // --- Score, traceback, output record. ---
        match engine.final_score() {
            Err(_) => self.write_output(dpu, pool, timeline, out_off, JobStatus::OutOfBand, 0, &[]),
            Ok(score) => {
                if header.params.score_only {
                    return self.write_output(
                        dpu,
                        pool,
                        timeline,
                        out_off,
                        JobStatus::Ok,
                        score,
                        &[],
                    );
                }
                // Traceback: walk the BT rows back from MRAM, one row cached.
                let origins = engine.origins().to_vec();
                let tb = RefCell::new(TbState {
                    dpu,
                    pool,
                    cost: PhaseCost::default(),
                    cached_t: usize::MAX,
                    cached_row: vec![0u8; row_bytes],
                    row_bytes,
                    bt_base,
                    failed: false,
                });
                let cigar = walk(a_len, b_len, w, |i, j| {
                    let t = i + j;
                    let k = i as i64 - origins[t];
                    if k < 0 || k >= w as i64 {
                        return None;
                    }
                    let mut s = tb.borrow_mut();
                    if s.cached_t != t {
                        if s.fetch_row(t).is_err() {
                            s.failed = true;
                            return None;
                        }
                        s.cached_t = t;
                    }
                    let k = k as usize;
                    Some(BtCell((s.cached_row[k / 2] >> ((k % 2) * 4)) & 0x0F))
                });
                let tb = tb.into_inner();
                if tb.failed {
                    return Err(SimError::KernelFault {
                        code: 3,
                        message: "BT row DMA failed during traceback".into(),
                    });
                }
                match cigar {
                    Err(_) => {
                        let cost = tb.cost;
                        timeline.sequential(&cfg, active, cost);
                        self.write_output(
                            dpu,
                            pool,
                            timeline,
                            out_off,
                            JobStatus::OutOfBand,
                            0,
                            &[],
                        )
                    }
                    Ok(cigar) => {
                        let mut cost = tb.cost;
                        cost.instructions +=
                            costs.traceback_per_op * cigar.alignment_columns() as u64;
                        timeline.sequential(&cfg, active, cost);
                        let runs: Vec<u32> = cigar
                            .runs()
                            .iter()
                            .map(|&(count, op)| {
                                (count << 4)
                                    | match op {
                                        CigarOp::Match => 0,
                                        CigarOp::Mismatch => 1,
                                        CigarOp::Insertion => 2,
                                        CigarOp::Deletion => 3,
                                    }
                            })
                            .collect();
                        self.write_output(dpu, pool, timeline, out_off, JobStatus::Ok, score, &runs)
                    }
                }
            }
        }
    }

    /// DMA a packed sequence from MRAM in staging-buffer chunks, unpack to
    /// bases. Returns the unpacked sequence (window residency is modeled by
    /// the per-pool `seq_windows` WRAM reservation; traffic and unpack
    /// instructions are charged here).
    fn fetch_sequence(
        &self,
        dpu: &mut Dpu,
        pool: &PoolWram,
        cost: &mut PhaseCost,
        seq_off: usize,
        seq_len: usize,
        costs: &CellCosts,
    ) -> Result<Vec<Base>, SimError> {
        let byte_len = seq_len.div_ceil(4);
        let mut packed = Vec::with_capacity(byte_len.next_multiple_of(8));
        let mut fetched = 0usize;
        while fetched < byte_len {
            let chunk = (byte_len - fetched).next_multiple_of(8).min(STAGING_BYTES);
            dpu.mram_to_wram(cost, seq_off + fetched, pool.staging, chunk)?;
            packed.extend_from_slice(dpu.wram.slice(pool.staging, chunk)?);
            fetched += chunk;
        }
        packed.truncate(byte_len);
        let seq = PackedSeq::from_raw(packed, seq_len).ok_or(SimError::KernelFault {
            code: 4,
            message: "sequence shorter than descriptor claims".into(),
        })?;
        cost.instructions += (seq_len as f64 * costs.unpack_per_base).round() as u64;
        Ok(seq.unpack().as_slice().to_vec())
    }

    /// Write a job's output record (header + CIGAR runs) through staging.
    #[allow(clippy::too_many_arguments)] // mirrors the DPU-side call signature
    fn write_output(
        &self,
        dpu: &mut Dpu,
        pool: &PoolWram,
        timeline: &mut Timeline,
        out_off: usize,
        status: JobStatus,
        score: i32,
        runs: &[u32],
    ) -> Result<(), SimError> {
        let cfg = dpu.cfg;
        let active = self.pool_cfg.total_tasklets();
        let total = OUT_HEADER_BYTES + runs.len() * 4;
        let mut record = vec![0u8; total.next_multiple_of(8)];
        layout::write_u32(&mut record, 0, layout::OUT_MAGIC);
        layout::write_u32(&mut record, 4, status.code());
        layout::write_u32(&mut record, 8, score as u32);
        layout::write_u32(&mut record, 12, runs.len() as u32);
        layout::write_u32(
            &mut record,
            16,
            layout::result_checksum(status.code(), score as u32, runs),
        );
        for (i, &r) in runs.iter().enumerate() {
            layout::write_u32(&mut record, OUT_HEADER_BYTES + 4 * i, r);
        }
        let mut cost = PhaseCost {
            // Header stores plus the checksum's per-word FNV loop.
            instructions: 12 + 6 * (3 + runs.len() as u64) + 2 * runs.len() as u64,
            dma_cycles: 0,
        };
        let mut written = 0usize;
        while written < record.len() {
            let chunk = (record.len() - written).min(STAGING_BYTES);
            dpu.wram
                .slice_mut(pool.staging, chunk)?
                .copy_from_slice(&record[written..written + chunk]);
            dpu.wram_to_mram(&mut cost, pool.staging, out_off + written, chunk)?;
            written += chunk;
        }
        timeline.sequential(&cfg, active, cost);
        Ok(())
    }
}

/// Traceback state threaded through the `walk` closure.
struct TbState<'a> {
    dpu: &'a mut Dpu,
    pool: &'a PoolWram,
    cost: PhaseCost,
    cached_t: usize,
    /// Raw packed nibbles of the cached row (reused, no per-row alloc).
    cached_row: Vec<u8>,
    row_bytes: usize,
    bt_base: usize,
    failed: bool,
}

impl TbState<'_> {
    fn fetch_row(&mut self, t: usize) -> Result<(), SimError> {
        self.dpu.mram_to_wram(
            &mut self.cost,
            self.bt_base + t * self.row_bytes,
            self.pool.bt_row,
            self.row_bytes,
        )?;
        self.cached_row
            .copy_from_slice(self.dpu.wram.slice(self.pool.bt_row, self.row_bytes)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::adaptive::AdaptiveAligner;
    use nw_core::seq::DnaSeq;
    use pim_sim::DpuConfig;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn run_batch(
        pairs: &[(&DnaSeq, &DnaSeq)],
        params: KernelParams,
        kernel: &NwKernel,
    ) -> (Dpu, crate::layout::JobBatch) {
        let mut builder = JobBatchBuilder::new(params, kernel.pool_cfg.pools);
        for (a, b) in pairs {
            builder.add_pair(a.pack(), b.pack());
        }
        let mut dpu = Dpu::new(DpuConfig::default());
        let batch = builder.build(dpu.cfg.mram_size).unwrap();
        dpu.mram.host_write(0, &batch.image).unwrap();
        kernel.run(&mut dpu).unwrap();
        (dpu, batch)
    }

    fn params16() -> KernelParams {
        KernelParams {
            band: 16,
            ..KernelParams::paper_default()
        }
    }

    #[test]
    fn kernel_matches_host_aligner_exactly() {
        let a = seq(&"ACGTGGTCAT".repeat(12));
        let mut b_text = "ACGTGGTCAT".repeat(12);
        b_text.insert_str(40, "TTTT");
        b_text.remove(90);
        let b = seq(&b_text);
        let params = KernelParams {
            band: 32,
            ..KernelParams::paper_default()
        };
        let kernel = NwKernel::paper_default();
        let (dpu, batch) = run_batch(&[(&a, &b)], params, &kernel);
        let results = batch.read_results(&dpu.mram).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.status, JobStatus::Ok);

        let host = AdaptiveAligner::new(params.scheme, params.band)
            .align(&a, &b)
            .unwrap();
        assert_eq!(r.score, host.score, "kernel and host scores agree");
        assert_eq!(r.cigar, host.cigar, "kernel and host CIGARs agree");
        r.cigar.validate(&a, &b).unwrap();
    }

    #[test]
    fn multiple_jobs_and_pools() {
        let seqs: Vec<(DnaSeq, DnaSeq)> = (0..13)
            .map(|k| {
                let base = "GATTACAT".repeat(6 + k % 3);
                let mut other = base.clone();
                other.insert_str(10 + k, "ACG");
                (seq(&base), seq(&other))
            })
            .collect();
        let pairs: Vec<(&DnaSeq, &DnaSeq)> = seqs.iter().map(|(a, b)| (a, b)).collect();
        let kernel = NwKernel::paper_default();
        let (dpu, batch) = run_batch(&pairs, params16(), &kernel);
        let results = batch.read_results(&dpu.mram).unwrap();
        assert_eq!(results.len(), 13);
        for (r, (a, b)) in results.iter().zip(&seqs) {
            assert_eq!(r.status, JobStatus::Ok);
            r.cigar.validate(a, b).unwrap();
            assert_eq!(r.cigar.score(&params16().scheme), r.score);
        }
        assert!(dpu.stats.cycles > 0);
        assert!(dpu.stats.instructions > 0);
        assert!(
            dpu.stats.dma_write_bytes > 0,
            "BT rows + outputs were written"
        );
    }

    #[test]
    fn score_only_mode_writes_no_cigar() {
        let a = seq(&"ACGTTGCA".repeat(10));
        let b = seq(&"ACGATGCA".repeat(10));
        let params = KernelParams {
            score_only: true,
            ..params16()
        };
        let kernel = NwKernel::paper_default();
        let (dpu, batch) = run_batch(&[(&a, &b)], params, &kernel);
        let r = &batch.read_results(&dpu.mram).unwrap()[0];
        assert_eq!(r.status, JobStatus::Ok);
        assert!(r.cigar.runs().is_empty());
        let host = AdaptiveAligner::new(params.scheme, params.band)
            .score(&a, &b)
            .unwrap();
        assert_eq!(r.score, host);
    }

    #[test]
    fn score_only_is_cheaper_than_full() {
        let a = seq(&"ACGTTGCA".repeat(20));
        let b = a.clone();
        let kernel = NwKernel::paper_default();
        let (d_full, _) = run_batch(&[(&a, &b)], params16(), &kernel);
        let so = KernelParams {
            score_only: true,
            ..params16()
        };
        let (d_so, _) = run_batch(&[(&a, &b)], so, &kernel);
        assert!(
            d_so.stats.cycles < d_full.stats.cycles,
            "score-only {} !< full {}",
            d_so.stats.cycles,
            d_full.stats.cycles
        );
        assert!(d_so.stats.dma_write_bytes < d_full.stats.dma_write_bytes);
    }

    #[test]
    fn band_constrained_result_is_valid_but_suboptimal() {
        // A 60-base length difference with window 16: the adaptive window's
        // guards still deliver a consistent global alignment (trailing-gap
        // style), but it cannot be better than the full-DP optimum — this is
        // the accuracy loss Table 1 quantifies.
        let a = seq(&"ACGT".repeat(10));
        let b = seq(&"ACGT".repeat(25));
        let kernel = NwKernel::paper_default();
        let (dpu, batch) = run_batch(&[(&a, &b)], params16(), &kernel);
        let r = &batch.read_results(&dpu.mram).unwrap()[0];
        assert_eq!(r.status, JobStatus::Ok);
        r.cigar.validate(&a, &b).unwrap();
        let optimal = nw_core::full::FullAligner::affine(params16().scheme).score(&a, &b);
        assert!(r.score <= optimal);
        // And the kernel agrees with the host-side adaptive aligner exactly.
        let host = AdaptiveAligner::new(params16().scheme, 16)
            .align(&a, &b)
            .unwrap();
        assert_eq!(r.score, host.score);
        assert_eq!(r.cigar, host.cigar);
    }

    #[test]
    fn asm_variant_is_faster_table7_direction() {
        let a = seq(&"ACGTGGTCAT".repeat(20));
        let b = seq(&"ACGTGGTCAC".repeat(20));
        let c_kernel = NwKernel::new(PoolConfig::default(), KernelVariant::PureC);
        let asm_kernel = NwKernel::new(PoolConfig::default(), KernelVariant::Asm);
        let (d_c, _) = run_batch(&[(&a, &b)], params16(), &c_kernel);
        let (d_asm, _) = run_batch(&[(&a, &b)], params16(), &asm_kernel);
        let speedup = d_c.stats.cycles as f64 / d_asm.stats.cycles as f64;
        assert!(speedup > 1.2, "asm speedup {speedup} too small");
        assert!(speedup < 2.2, "asm speedup {speedup} implausibly large");
    }

    #[test]
    fn wram_exhaustion_with_wide_band_and_many_pools() {
        // Band 512 with 6 pools needs > 64 KB of WRAM: the kernel must
        // refuse, mirroring the paper's constraint analysis.
        let a = seq("ACGTACGT");
        let mut builder = JobBatchBuilder::new(
            KernelParams {
                band: 512,
                ..KernelParams::paper_default()
            },
            6,
        );
        builder.add_pair(a.pack(), a.pack());
        let mut dpu = Dpu::new(DpuConfig::default());
        let batch = builder.build(dpu.cfg.mram_size).unwrap();
        dpu.mram.host_write(0, &batch.image).unwrap();
        let err = NwKernel::paper_default().run(&mut dpu).unwrap_err();
        assert!(matches!(err, SimError::WramExhausted { .. }), "got {err}");
    }

    #[test]
    fn bad_magic_is_a_kernel_fault() {
        let mut dpu = Dpu::new(DpuConfig::default());
        dpu.mram.host_write(0, &[0xFF; 64]).unwrap();
        let err = NwKernel::paper_default().run(&mut dpu).unwrap_err();
        assert!(matches!(err, SimError::KernelFault { .. }));
    }

    #[test]
    fn too_many_tasklets_rejected() {
        let kernel = NwKernel::new(
            PoolConfig {
                pools: 7,
                tasklets: 4,
            },
            KernelVariant::Asm,
        );
        let mut dpu = Dpu::new(DpuConfig::default());
        let err = kernel.run(&mut dpu).unwrap_err();
        assert!(matches!(
            err,
            SimError::BadTasklet {
                tasklet: 28,
                max: 24
            }
        ));
    }

    #[test]
    fn pipeline_utilization_is_high_at_paper_config() {
        // P=6, T=4 at the paper's band of 128 keeps the pipeline 90+%
        // utilized (the paper reports 95-99%); MRAM impact stays small.
        let a = seq(&"ACGTGGTCAT".repeat(60));
        let b = seq(&"ACGTGGTCAC".repeat(60));
        let pairs: Vec<(&DnaSeq, &DnaSeq)> = std::iter::repeat_n((&a, &b), 12).collect();
        let kernel = NwKernel::paper_default();
        let (dpu, _) = run_batch(&pairs, KernelParams::paper_default(), &kernel);
        let util = dpu.stats.pipeline_utilization();
        assert!(util > 0.9, "utilization {util}");
        let dma = dpu.stats.dma_impact();
        assert!(dma < 0.1, "dma impact {dma}");
    }

    #[test]
    fn empty_batch_is_fine() {
        let kernel = NwKernel::paper_default();
        let builder = JobBatchBuilder::new(params16(), kernel.pool_cfg.pools);
        let mut dpu = Dpu::new(DpuConfig::default());
        let batch = builder.build(dpu.cfg.mram_size).unwrap();
        dpu.mram.host_write(0, &batch.image).unwrap();
        kernel.run(&mut dpu).unwrap();
        assert!(batch.read_results(&dpu.mram).unwrap().is_empty());
    }
}
