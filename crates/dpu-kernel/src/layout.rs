//! The MRAM contract between the host program and the DPU kernel.
//!
//! The host writes (one `host_write`, counted as the batch's transfer
//! volume):
//!
//! ```text
//! 0x00  magic          u32   "NW2P"
//! 0x04  num_jobs       u32
//! 0x08  flags          u32   bit 0: score-only (16S mode)
//! 0x0C  band           u32   adaptive window width (multiple of 16)
//! 0x10  scheme         4xi32 match, mismatch, gap_open, gap_extend
//! 0x20  jobs_off       u32
//! 0x24  out_off        u32
//! 0x28  bt_off         u32   per-pool BT scratch base
//! 0x2C  bt_stride      u32   bytes per pool scratch region
//! jobs_off: per job, 24 bytes:
//!     a_off u32, a_len u32, b_off u32, b_len u32, out_rel u32, pad u32
//! then 2-bit packed sequences, each 8-byte aligned.
//! ```
//!
//! The kernel writes, per job at `out_off + out_rel`:
//!
//! ```text
//! 0x00  magic        u32   "NWRB" — readback integrity sentinel
//! 0x04  status       u32   0 ok, 1 out-of-band, 2 cigar overflow
//! 0x08  score        i32
//! 0x0C  cigar_runs   u32   number of packed runs that follow
//! 0x10  checksum     u32   FNV-1a over status, score, run count and runs
//! 0x14  pad          u32
//! 0x18  runs         u32 x cigar_runs   (count << 4) | op
//! ```
//!
//! The magic word and checksum let the host detect bit corruption on the
//! readback path ([`SimError::ResultCorrupt`]) instead of silently
//! returning a wrong score — the detection point the fault-tolerant
//! dispatch layer retries on.
//!
//! `BT` scratch: pool `p` streams its current job's `BT` rows to
//! `bt_off + p * bt_stride` (row `t` at `t * row_bytes`), then reads them
//! back during traceback — both directions through WRAM with real DMA.

use nw_core::cigar::{Cigar, CigarOp};
use nw_core::seq::PackedSeq;
use nw_core::{Score, ScoringScheme};
use pim_sim::SimError;

/// Magic word identifying a batch image.
pub const MAGIC: u32 = 0x4E57_3250; // "NW2P"

/// Header size in bytes.
pub const HEADER_BYTES: usize = 0x30;
/// Bytes per job-table entry.
pub const JOB_ENTRY_BYTES: usize = 24;
/// Magic word opening every per-job output record ("NWRB").
pub const OUT_MAGIC: u32 = 0x4E57_5242;
/// Bytes of the fixed part of a per-job output record.
pub const OUT_HEADER_BYTES: usize = 24;

/// FNV-1a checksum over a result record's payload: status, score bits, run
/// count, then each packed run — all as little-endian `u32`s. Cheap enough
/// for a DPU (one multiply per word) yet catches any single-bit flip.
pub fn result_checksum(status: u32, score: u32, runs: &[u32]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    };
    eat(status);
    eat(score);
    eat(runs.len() as u32);
    for &r in runs {
        eat(r);
    }
    h
}

/// Kernel launch parameters carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParams {
    /// Adaptive window width; must be a multiple of 16 so `BT` rows are
    /// DMA-alignable (w/2 divisible by 8).
    pub band: usize,
    /// Scoring scheme.
    pub scheme: ScoringScheme,
    /// Score-only mode: skip `BT` and traceback entirely (§5.3).
    pub score_only: bool,
}

impl KernelParams {
    /// The paper's DPU configuration: adaptive band 128, minimap2 scoring.
    pub fn paper_default() -> Self {
        Self {
            band: 128,
            scheme: ScoringScheme::default(),
            score_only: false,
        }
    }
}

/// Reference to a packed sequence already resident (or to become resident)
/// in MRAM: absolute byte offset + base count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqRef {
    /// Absolute MRAM byte offset (8-aligned).
    pub off: u32,
    /// Length in bases.
    pub len: u32,
}

/// Where a job's sequence comes from.
#[derive(Debug, Clone, Copy)]
enum SeqSource {
    /// Index into the builder's arena (payload shipped in this image).
    Arena(usize),
    /// Absolute reference into MRAM written by some other transfer (the
    /// broadcast arena of the 16S mode, §5.3).
    External(SeqRef),
}

/// One job (a pair to align) as seen host-side while building a batch.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    a: SeqSource,
    a_len: usize,
    b: SeqSource,
    b_len: usize,
}

/// Completion status of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Alignment produced.
    Ok,
    /// The adaptive window could not reach the end cell (band too small).
    OutOfBand,
    /// CIGAR exceeded the host-reserved space (cannot happen with the
    /// default reservation; kept for failure injection).
    CigarOverflow,
    /// The job never ran to completion: the host interrupted or shed the
    /// run before this job's launch finished. Host-side only — the kernel
    /// never writes this status; the dispatch layer uses it to fill the
    /// slots of jobs a partial run left behind.
    Cancelled,
}

impl JobStatus {
    /// Wire encoding.
    pub fn code(self) -> u32 {
        match self {
            JobStatus::Ok => 0,
            JobStatus::OutOfBand => 1,
            JobStatus::CigarOverflow => 2,
            JobStatus::Cancelled => 3,
        }
    }

    /// Decode.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(JobStatus::Ok),
            1 => Some(JobStatus::OutOfBand),
            2 => Some(JobStatus::CigarOverflow),
            3 => Some(JobStatus::Cancelled),
            _ => None,
        }
    }
}

/// A finished job read back from MRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Completion status.
    pub status: JobStatus,
    /// Band-constrained score (meaningless unless `status == Ok`).
    pub score: Score,
    /// CIGAR (empty in score-only mode or on failure).
    pub cigar: Cigar,
}

/// A built batch: the input image plus the layout needed to read results.
#[derive(Debug, Clone)]
pub struct JobBatch {
    /// Bytes the host transfers to MRAM offset 0.
    pub image: Vec<u8>,
    /// Launch parameters (duplicated in the header).
    pub params: KernelParams,
    /// Per-job output record offsets (absolute MRAM offsets).
    pub out_offsets: Vec<(usize, usize)>,
    /// Total MRAM footprint including outputs and BT scratch.
    pub mram_footprint: usize,
    /// Estimated workload per eq. 6: `sum (m + n) * w`.
    pub workload: u64,
}

/// One job's output record as raw words straight off MRAM: the readback
/// half of result collection, split from [`RawResult::decode`] so a
/// transfer thread can pull records while another thread verifies and
/// expands them (the pipelined dispatcher's raw/decode split).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawResult {
    /// Absolute MRAM offset the record was read from.
    pub offset: usize,
    /// Status word as transmitted (validated at decode time).
    pub status_code: u32,
    /// Score bits as transmitted.
    pub score_bits: u32,
    /// Stored FNV checksum.
    pub stored_sum: u32,
    /// Packed CIGAR run words (`count << 4 | op`).
    pub packed_runs: Vec<u32>,
}

impl RawResult {
    /// Bytes this record occupied on the wire (header + packed runs).
    pub fn byte_len(&self) -> u64 {
        OUT_HEADER_BYTES as u64 + 4 * self.packed_runs.len() as u64
    }

    /// Verify and expand the raw record: checksum, status code, CIGAR ops.
    pub fn decode(&self) -> Result<JobResult, SimError> {
        if result_checksum(self.status_code, self.score_bits, &self.packed_runs) != self.stored_sum
        {
            return Err(SimError::ResultCorrupt {
                offset: self.offset,
                detail: "checksum mismatch",
            });
        }
        let status = JobStatus::from_code(self.status_code).ok_or(SimError::KernelFault {
            code: self.status_code,
            message: "bad status code in output record".into(),
        })?;
        let mut cigar = Cigar::new();
        for &packed in &self.packed_runs {
            let count = packed >> 4;
            let op = match packed & 0xF {
                0 => CigarOp::Match,
                1 => CigarOp::Mismatch,
                2 => CigarOp::Insertion,
                3 => CigarOp::Deletion,
                other => {
                    return Err(SimError::KernelFault {
                        code: other,
                        message: "bad cigar op in output record".into(),
                    })
                }
            };
            cigar.push_run(count, op);
        }
        Ok(JobResult {
            status,
            score: self.score_bits as i32,
            cigar,
        })
    }
}

impl JobBatch {
    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.out_offsets.len()
    }

    /// True when no jobs were added.
    pub fn is_empty(&self) -> bool {
        self.out_offsets.is_empty()
    }

    /// Transfer volume host->DPU in bytes.
    pub fn transfer_bytes(&self) -> u64 {
        self.image.len() as u64
    }

    /// Read the raw result records back from a DPU's MRAM: the magic word
    /// and the run-count-vs-capacity bound are checked here (a corrupt run
    /// count could otherwise drive an out-of-capacity read); checksum,
    /// status and CIGAR validation happen in [`RawResult::decode`].
    pub fn read_raw_results(&self, mram: &pim_sim::Mram) -> Result<Vec<RawResult>, SimError> {
        let mut out = Vec::with_capacity(self.out_offsets.len());
        for &(off, cap) in &self.out_offsets {
            let head = mram.host_read(off, OUT_HEADER_BYTES)?;
            if read_u32(&head, 0) != OUT_MAGIC {
                return Err(SimError::ResultCorrupt {
                    offset: off,
                    detail: "bad result magic",
                });
            }
            let status_code = read_u32(&head, 4);
            let score_bits = read_u32(&head, 8);
            let runs = read_u32(&head, 12) as usize;
            let stored_sum = read_u32(&head, 16);
            if runs > 0 && OUT_HEADER_BYTES + runs * 4 > cap {
                return Err(SimError::ResultCorrupt {
                    offset: off,
                    detail: "cigar runs exceed record capacity",
                });
            }
            let mut packed_runs = Vec::with_capacity(runs);
            if runs > 0 {
                let bytes = mram.host_read(off + OUT_HEADER_BYTES, runs * 4)?;
                for r in 0..runs {
                    packed_runs.push(read_u32(&bytes, r * 4));
                }
            }
            out.push(RawResult {
                offset: off,
                status_code,
                score_bits,
                stored_sum,
                packed_runs,
            });
        }
        Ok(out)
    }

    /// Read the results back from a DPU's MRAM after the kernel ran.
    ///
    /// Every record is integrity-checked: a wrong magic word or a checksum
    /// mismatch returns [`SimError::ResultCorrupt`] — the caller knows the
    /// job must be re-run rather than trusting a bit-flipped score. This is
    /// [`Self::read_raw_results`] + [`RawResult::decode`] in one step.
    pub fn read_results(&self, mram: &pim_sim::Mram) -> Result<Vec<JobResult>, SimError> {
        self.read_raw_results(mram)?
            .iter()
            .map(RawResult::decode)
            .collect()
    }
}

/// Builds the MRAM image for one DPU.
#[derive(Debug)]
pub struct JobBatchBuilder {
    params: KernelParams,
    pools: usize,
    jobs: Vec<JobSpec>,
    arena: Vec<PackedSeq>,
    /// Upper bound on the batch footprint (outputs + BT scratch must stay
    /// below any externally-written region such as a broadcast arena).
    footprint_limit: Option<usize>,
}

impl JobBatchBuilder {
    /// Start a batch. `pools` is the number of tasklet pools the kernel will
    /// run (needed to size the per-pool `BT` scratch).
    pub fn new(params: KernelParams, pools: usize) -> Self {
        assert!(
            params.band >= 16 && params.band.is_multiple_of(16),
            "band must be a multiple of 16 (BT rows must be DMA-alignable)"
        );
        assert!(pools >= 1, "at least one pool");
        Self {
            params,
            pools,
            jobs: Vec::new(),
            arena: Vec::new(),
            footprint_limit: None,
        }
    }

    /// Cap the batch footprint: everything this batch places in MRAM
    /// (image, outputs, `BT` scratch) must stay below `limit`. Used when an
    /// externally broadcast arena occupies MRAM above `limit`.
    pub fn set_footprint_limit(&mut self, limit: usize) {
        self.footprint_limit = Some(limit);
    }

    /// Add a sequence to this image's arena, returning its index. Sequences
    /// shared by many jobs (the PacBio sets of §5.4) are stored once.
    pub fn add_seq(&mut self, s: PackedSeq) -> usize {
        self.arena.push(s);
        self.arena.len() - 1
    }

    /// Queue a pair of arena sequences by index (see [`Self::add_seq`]).
    pub fn add_pair_idx(&mut self, a: usize, b: usize) {
        let a_len = self.arena[a].len();
        let b_len = self.arena[b].len();
        self.jobs.push(JobSpec {
            a: SeqSource::Arena(a),
            a_len,
            b: SeqSource::Arena(b),
            b_len,
        });
    }

    /// Queue a pair referencing sequences already resident in MRAM (the
    /// broadcast arena of the 16S mode).
    pub fn add_pair_external(&mut self, a: SeqRef, b: SeqRef) {
        self.jobs.push(JobSpec {
            a: SeqSource::External(a),
            a_len: a.len as usize,
            b: SeqSource::External(b),
            b_len: b.len as usize,
        });
    }

    /// Queue a pair for alignment (each call ships a private copy of both
    /// sequences — the S-dataset pair mode).
    pub fn add_pair(&mut self, a: PackedSeq, b: PackedSeq) {
        let ai = self.add_seq(a);
        let bi = self.add_seq(b);
        self.add_pair_idx(ai, bi);
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Bytes a `BT` row occupies (w/2 rounded to the 8-byte DMA grain).
    pub fn bt_row_bytes(band: usize) -> usize {
        (band / 2).next_multiple_of(8)
    }

    /// Lay out and serialize the image. Fails if the whole batch (inputs,
    /// outputs and `BT` scratch) cannot fit the DPU's MRAM (or the
    /// configured footprint limit).
    pub fn build(self, mram_size: usize) -> Result<JobBatch, SimError> {
        self.build_with(mram_size, Vec::new())
    }

    /// Like [`Self::build`], but serializes into `recycled`, reusing its
    /// allocation when large enough — the dispatch engine's buffer pool
    /// feeds spent images back through here for later batches instead of
    /// reallocating.
    pub fn build_with(self, mram_size: usize, recycled: Vec<u8>) -> Result<JobBatch, SimError> {
        let n_jobs = self.jobs.len();
        let jobs_off = HEADER_BYTES;
        let seq_off = jobs_off + n_jobs * JOB_ENTRY_BYTES;

        // Place arena sequences (shipped in this image).
        let mut cursor = seq_off.next_multiple_of(8);
        let mut arena_offs = Vec::with_capacity(self.arena.len());
        for s in &self.arena {
            arena_offs.push(cursor);
            cursor = (cursor + s.byte_len().max(1)).next_multiple_of(8);
        }
        let image_len = cursor;

        // Place outputs after the image (kernel-written, not transferred).
        let out_base = image_len.next_multiple_of(8);
        let mut out_cursor = out_base;
        let mut out_offsets = Vec::with_capacity(n_jobs);
        let mut out_rels = Vec::with_capacity(n_jobs);
        let mut workload: u64 = 0;
        let mut max_steps = 1usize;
        for job in &self.jobs {
            let (m, n) = (job.a_len, job.b_len);
            workload += ((m + n) as u64) * self.params.band as u64;
            max_steps = max_steps.max(m + n + 1);
            let cap = if self.params.score_only {
                OUT_HEADER_BYTES
            } else {
                // Worst case: one run per alignment column pair boundary.
                OUT_HEADER_BYTES + 4 * (m + n + 2)
            };
            let cap = cap.next_multiple_of(8);
            out_offsets.push((out_cursor, cap));
            out_rels.push((out_cursor - out_base) as u32);
            out_cursor += cap;
        }

        // Per-pool BT scratch.
        let bt_off = out_cursor.next_multiple_of(8);
        let bt_stride = if self.params.score_only {
            0
        } else {
            max_steps * Self::bt_row_bytes(self.params.band)
        };
        let footprint = bt_off + bt_stride * self.pools;
        let limit = self.footprint_limit.unwrap_or(mram_size).min(mram_size);
        if footprint > limit {
            return Err(SimError::MramOutOfBounds {
                offset: bt_off,
                len: bt_stride * self.pools,
                mram_size: limit,
            });
        }

        // Serialize the input image (zeroed before reuse: padding bytes and
        // gaps must not leak a previous batch's content).
        let mut image = recycled;
        image.clear();
        image.resize(image_len, 0);
        write_u32(&mut image, 0x00, MAGIC);
        write_u32(&mut image, 0x04, n_jobs as u32);
        write_u32(&mut image, 0x08, u32::from(self.params.score_only));
        write_u32(&mut image, 0x0C, self.params.band as u32);
        write_u32(&mut image, 0x10, self.params.scheme.match_score as u32);
        write_u32(&mut image, 0x14, self.params.scheme.mismatch_penalty as u32);
        write_u32(&mut image, 0x18, self.params.scheme.gap_open as u32);
        write_u32(&mut image, 0x1C, self.params.scheme.gap_extend as u32);
        write_u32(&mut image, 0x20, jobs_off as u32);
        write_u32(&mut image, 0x24, out_base as u32);
        write_u32(&mut image, 0x28, bt_off as u32);
        write_u32(&mut image, 0x2C, bt_stride as u32);
        for (idx, s) in self.arena.iter().enumerate() {
            let off = arena_offs[idx];
            image[off..off + s.byte_len()].copy_from_slice(s.as_bytes());
        }
        let resolve = |src: &SeqSource| -> u32 {
            match src {
                SeqSource::Arena(i) => arena_offs[*i] as u32,
                SeqSource::External(r) => r.off,
            }
        };
        for (idx, job) in self.jobs.iter().enumerate() {
            let e = jobs_off + idx * JOB_ENTRY_BYTES;
            write_u32(&mut image, e, resolve(&job.a));
            write_u32(&mut image, e + 4, job.a_len as u32);
            write_u32(&mut image, e + 8, resolve(&job.b));
            write_u32(&mut image, e + 12, job.b_len as u32);
            write_u32(&mut image, e + 16, out_rels[idx]);
        }

        Ok(JobBatch {
            image,
            params: self.params,
            out_offsets,
            mram_footprint: footprint,
            workload,
        })
    }
}

pub(crate) fn read_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
}

pub(crate) fn write_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::seq::DnaSeq;

    fn packed(text: &str) -> PackedSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap().pack()
    }

    fn params() -> KernelParams {
        KernelParams {
            band: 16,
            ..KernelParams::paper_default()
        }
    }

    #[test]
    fn empty_batch_builds() {
        let batch = JobBatchBuilder::new(params(), 6).build(64 << 20).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.workload, 0);
        assert_eq!(batch.image.len() % 8, 0);
    }

    #[test]
    fn header_fields_round_trip() {
        let mut b = JobBatchBuilder::new(params(), 2);
        b.add_pair(packed("ACGTACGT"), packed("ACGTAGGT"));
        let batch = b.build(64 << 20).unwrap();
        let img = &batch.image;
        assert_eq!(read_u32(img, 0), MAGIC);
        assert_eq!(read_u32(img, 4), 1);
        assert_eq!(read_u32(img, 0x0C), 16);
        assert_eq!(read_u32(img, 0x10), 2); // match score
        let jobs_off = read_u32(img, 0x20) as usize;
        assert_eq!(read_u32(img, jobs_off + 4), 8); // a_len
        let a_off = read_u32(img, jobs_off) as usize;
        assert_eq!(a_off % 8, 0);
        // Packed "ACGTACGT" = codes 0,1,2,3 repeated.
        let packed_a = PackedSeq::from_raw(img[a_off..a_off + 2].to_vec(), 8).unwrap();
        assert_eq!(packed_a.unpack().to_ascii(), b"ACGTACGT");
    }

    #[test]
    fn workload_follows_eq6() {
        let mut b = JobBatchBuilder::new(params(), 6);
        b.add_pair(packed("ACGTACGT"), packed("ACGT")); // (8+4)*16
        b.add_pair(packed("AC"), packed("AC")); // (2+2)*16
        let batch = b.build(64 << 20).unwrap();
        assert_eq!(batch.workload, 12 * 16 + 4 * 16);
    }

    #[test]
    fn bt_row_bytes_are_dma_grain() {
        assert_eq!(JobBatchBuilder::bt_row_bytes(16), 8);
        assert_eq!(JobBatchBuilder::bt_row_bytes(128), 64);
        assert_eq!(JobBatchBuilder::bt_row_bytes(48), 24);
    }

    #[test]
    fn mram_overflow_is_detected() {
        let mut b = JobBatchBuilder::new(params(), 6);
        b.add_pair(packed(&"ACGT".repeat(100)), packed(&"ACGT".repeat(100)));
        let err = b.build(4 * 1024).unwrap_err();
        assert!(matches!(err, SimError::MramOutOfBounds { .. }));
    }

    #[test]
    fn score_only_reserves_no_bt() {
        let mut b = JobBatchBuilder::new(
            KernelParams {
                score_only: true,
                band: 16,
                ..KernelParams::paper_default()
            },
            6,
        );
        b.add_pair(packed("ACGTACGT"), packed("ACGTACGT"));
        let batch = b.build(64 << 20).unwrap();
        let bt_stride = read_u32(&batch.image, 0x2C);
        assert_eq!(bt_stride, 0);
    }

    #[test]
    fn result_checksum_is_order_and_bit_sensitive() {
        let base = result_checksum(0, 100, &[0x31, 0x52]);
        assert_eq!(base, result_checksum(0, 100, &[0x31, 0x52]));
        assert_ne!(base, result_checksum(1, 100, &[0x31, 0x52]));
        assert_ne!(base, result_checksum(0, 101, &[0x31, 0x52]));
        assert_ne!(base, result_checksum(0, 100, &[0x52, 0x31]));
        assert_ne!(base, result_checksum(0, 100, &[0x31]));
        // Single-bit flip in a run changes the sum.
        assert_ne!(base, result_checksum(0, 100, &[0x31 ^ 1, 0x52]));
    }

    #[test]
    fn corrupt_record_is_rejected() {
        let mut b = JobBatchBuilder::new(params(), 1);
        b.add_pair(packed("ACGTACGT"), packed("ACGTACGT"));
        let batch = b.build(64 << 20).unwrap();
        let (off, _) = batch.out_offsets[0];
        let mut mram = pim_sim::Mram::new(64 << 20);
        // A record the kernel never wrote: zero magic.
        mram.host_write(off, &[0u8; OUT_HEADER_BYTES]).unwrap();
        assert!(matches!(
            batch.read_results(&mram),
            Err(SimError::ResultCorrupt {
                detail: "bad result magic",
                ..
            })
        ));
        // Valid magic but a bit-flipped score fails the checksum.
        let runs: [u32; 0] = [];
        let mut rec = [0u8; OUT_HEADER_BYTES];
        write_u32(&mut rec, 0, OUT_MAGIC);
        write_u32(&mut rec, 4, 0);
        write_u32(&mut rec, 8, 42);
        write_u32(&mut rec, 12, 0);
        write_u32(&mut rec, 16, result_checksum(0, 42, &runs));
        mram.host_write(off, &rec).unwrap();
        assert!(batch.read_results(&mram).is_ok());
        write_u32(&mut rec, 8, 42 ^ (1 << 7));
        mram.host_write(off, &rec).unwrap();
        assert!(matches!(
            batch.read_results(&mram),
            Err(SimError::ResultCorrupt {
                detail: "checksum mismatch",
                ..
            })
        ));
    }

    #[test]
    fn corrupt_run_count_is_rejected_before_reading_runs() {
        let mut b = JobBatchBuilder::new(params(), 1);
        b.add_pair(packed("ACGT"), packed("ACGT"));
        let batch = b.build(64 << 20).unwrap();
        let (off, cap) = batch.out_offsets[0];
        let mut mram = pim_sim::Mram::new(64 << 20);
        let mut rec = [0u8; OUT_HEADER_BYTES];
        write_u32(&mut rec, 0, OUT_MAGIC);
        write_u32(&mut rec, 12, (cap as u32) * 2); // absurd run count
        mram.host_write(off, &rec).unwrap();
        assert!(matches!(
            batch.read_results(&mram),
            Err(SimError::ResultCorrupt {
                detail: "cigar runs exceed record capacity",
                ..
            })
        ));
    }

    #[test]
    fn status_codes_round_trip() {
        for s in [
            JobStatus::Ok,
            JobStatus::OutOfBand,
            JobStatus::CigarOverflow,
            JobStatus::Cancelled,
        ] {
            assert_eq!(JobStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(JobStatus::from_code(99), None);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn band_must_be_dma_friendly() {
        JobBatchBuilder::new(
            KernelParams {
                band: 20,
                ..KernelParams::paper_default()
            },
            6,
        );
    }

    #[test]
    fn arena_sequences_are_stored_once() {
        // Two jobs sharing one sequence: the image contains it once.
        let mut b = JobBatchBuilder::new(params(), 2);
        let shared = packed(&"ACGTACGT".repeat(8));
        let other1 = packed("ACGTAGGT");
        let other2 = packed("AAGTACGT");
        let s = b.add_seq(shared.clone());
        let o1 = b.add_seq(other1);
        let o2 = b.add_seq(other2);
        b.add_pair_idx(s, o1);
        b.add_pair_idx(s, o2);
        let batch = b.build(64 << 20).unwrap();
        // Compare against the duplicate-shipping builder.
        let mut dup = JobBatchBuilder::new(params(), 2);
        dup.add_pair(shared.clone(), packed("ACGTAGGT"));
        dup.add_pair(shared, packed("AAGTACGT"));
        let dup_batch = dup.build(64 << 20).unwrap();
        assert!(
            batch.image.len() < dup_batch.image.len(),
            "shared arena {} !< duplicated {}",
            batch.image.len(),
            dup_batch.image.len()
        );
        // Both jobs reference the same a_off.
        let jobs_off = read_u32(&batch.image, 0x20) as usize;
        let a0 = read_u32(&batch.image, jobs_off);
        let a1 = read_u32(&batch.image, jobs_off + JOB_ENTRY_BYTES);
        assert_eq!(a0, a1);
    }

    #[test]
    fn external_refs_point_outside_the_image() {
        let mut b = JobBatchBuilder::new(
            KernelParams {
                score_only: true,
                band: 16,
                ..KernelParams::paper_default()
            },
            2,
        );
        let base = 32 << 20;
        let r1 = SeqRef {
            off: base,
            len: 100,
        };
        let r2 = SeqRef {
            off: base + 32,
            len: 100,
        };
        b.add_pair_external(r1, r2);
        b.set_footprint_limit(base as usize);
        let batch = b.build(64 << 20).unwrap();
        let jobs_off = read_u32(&batch.image, 0x20) as usize;
        assert_eq!(read_u32(&batch.image, jobs_off), base);
        assert_eq!(read_u32(&batch.image, jobs_off + 4), 100);
        assert!(batch.mram_footprint <= base as usize);
    }

    #[test]
    fn footprint_limit_is_enforced() {
        let mut b = JobBatchBuilder::new(params(), 6);
        b.add_pair(packed(&"ACGT".repeat(50)), packed(&"ACGT".repeat(50)));
        b.set_footprint_limit(1024);
        let err = b.build(64 << 20).unwrap_err();
        assert!(matches!(
            err,
            SimError::MramOutOfBounds {
                mram_size: 1024,
                ..
            }
        ));
    }

    #[test]
    fn out_offsets_do_not_overlap() {
        let mut b = JobBatchBuilder::new(params(), 6);
        for _ in 0..5 {
            b.add_pair(packed("ACGTACGTACGT"), packed("ACGTACGTACGT"));
        }
        let batch = b.build(64 << 20).unwrap();
        for w in batch.out_offsets.windows(2) {
            let (off0, cap0) = w[0];
            let (off1, _) = w[1];
            assert!(off0 + cap0 <= off1);
        }
        // All outputs land after the transferred image.
        assert!(batch.out_offsets[0].0 >= batch.image.len());
        assert!(batch.mram_footprint >= batch.out_offsets.last().unwrap().0);
    }
}
