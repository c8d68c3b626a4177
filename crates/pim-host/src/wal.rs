//! Crash-safe record logs: the one durable-file design under the result
//! cache ([`CacheStore`], `cache.wal`) and the serve daemon's request
//! journal (`requests.journal`).
//!
//! One file per log, owned by a [`RecordLog`]: a 12-byte header (6-byte
//! magic, format-version byte, reserved byte, [`WAL_SCHEMA_VERSION`])
//! followed by records of `[len: u32 LE][payload][fnv1a32(payload): u32 LE]`
//! — the same FNV-1a checksum convention the DPU result blocks use
//! (`dpu_kernel::layout::result_checksum`). Records are appended; a
//! compaction rewrites the whole file down to the records its owner still
//! needs, beside the old one and renamed over it, so a crash leaves the old
//! file or the new one whole, never a prefix.
//!
//! **Recovery invariants.** A torn tail (partial final record — the
//! classic mid-append crash) is dropped; a record whose checksum does not
//! match is skipped; a length field too large to be real ends the scan
//! there. None of these refuse startup, and [`RecordLog::open`] rewrites a
//! torn or headerless file before the first append, so no append lands
//! behind bytes a later scan would stop at. A *future format version* does
//! refuse startup — silently misparsing a newer format is corruption by
//! another name, while a flipped bit is just lost work. Cache records
//! carry the packed sequences, scoring scheme, band, and mode — never the
//! `JobKey` — so recovery recomputes every key and re-admits each entry
//! through [`crate::cache::ResultCache::insert_audited`]; a
//! corrupted-on-disk result that survives the checksum can still never be
//! served. A `cache.snap` written by an older build (which kept a separate
//! snapshot file) is ignored: the cache re-warms from `cache.wal` and
//! traffic.

use dpu_kernel::layout::{JobResult, JobStatus};
use nw_core::cigar::{Cigar, CigarOp};
use nw_core::seq::PackedSeq;
use nw_core::{job_key, JobKey, ScoringScheme};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Schema version stamped into every log header. Bump on any incompatible
/// record-shape change so an old binary refuses (or a future one
/// migrates) instead of silently misparsing.
pub const WAL_SCHEMA_VERSION: u32 = 1;

/// Format-version byte in the header; the coarse "can this binary read
/// this file at all" gate in front of the schema version.
pub const FORMAT_VERSION: u8 = 1;

/// Header: 6 magic bytes + format-version byte + reserved byte +
/// schema-version u32 LE.
const HEADER_LEN: usize = 12;

const MAGIC_WAL: &[u8; 6] = b"UNWWAL";

/// Largest plausible record payload. A length field above this is treated
/// as framing corruption (scan ends), not as a record to allocate.
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// FNV-1a over `bytes` — the workspace's one checksum, matching the DPU
/// result-block convention.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Frame `payload` as one record (`len | payload | checksum`) into `out`.
fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a32(payload).to_le_bytes());
}

/// The temp file a [`RecordLog`] rewrite writes beside `path`
/// (`<name>.tmp`). One left behind is a crash mid-rewrite; the file at
/// `path` is still whole, and the next open removes the temp.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Replace the contents of `path` with `bytes` without truncating it in
/// place: write [`temp_path`], flush it (and then the directory entry) to
/// disk when `sync`, and rename it over `path`. On error the temp file is
/// removed and `path` is left as it was.
fn replace_file(path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
    let tmp = temp_path(path);
    let wrote = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            if sync {
                f.sync_data()?;
            }
            Ok(())
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if wrote.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return wrote;
    }
    if sync {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// What a tolerant scan of one log file found.
#[derive(Debug, Default)]
pub struct LogScan {
    /// Checksum-valid payloads, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// Records skipped for a checksum mismatch (framing still trusted).
    pub corrupt_skipped: usize,
    /// Bytes discarded at the tail (partial record or implausible length).
    pub torn_tail_bytes: usize,
    /// True when a non-empty file had a missing or foreign header and was
    /// started fresh.
    pub header_reset: bool,
}

/// Scan `bytes[start..]` as framed records, tolerating torn tails and
/// flipped bits per the recovery invariants above.
fn scan_records(bytes: &[u8], start: usize) -> LogScan {
    let mut out = LogScan::default();
    let mut i = start.min(bytes.len());
    while i < bytes.len() {
        let rest = bytes.len() - i;
        let len = match bytes.get(i..i + 4) {
            Some(l) if rest >= 8 => u32::from_le_bytes(l.try_into().unwrap()),
            _ => u32::MAX,
        };
        // A partial record or a corrupt length field: record boundaries
        // are lost from here.
        if len > MAX_RECORD_BYTES || 8 + len as usize > rest {
            out.torn_tail_bytes = rest;
            break;
        }
        let len = len as usize;
        let payload = &bytes[i + 4..i + 4 + len];
        let sum = u32::from_le_bytes(bytes[i + 4 + len..i + 8 + len].try_into().unwrap());
        if fnv1a32(payload) == sum {
            out.payloads.push(payload.to_vec());
        } else {
            out.corrupt_skipped += 1;
        }
        i += 8 + len;
    }
    out
}

/// Check the header of `bytes` (the contents of `path`) against `magic`
/// and scan its records. A missing, short or foreign header scans as an
/// empty log; a future format or schema version is an `InvalidData` error
/// naming the file.
fn scan_log(path: &Path, bytes: &[u8], magic: &[u8; 6]) -> io::Result<LogScan> {
    if bytes.len() < HEADER_LEN || &bytes[..6] != magic {
        return Ok(LogScan {
            header_reset: !bytes.is_empty(),
            ..LogScan::default()
        });
    }
    let format = bytes[6];
    let schema = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if format > FORMAT_VERSION || schema > WAL_SCHEMA_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: format v{format} schema v{schema} is newer than this \
                 binary (v{FORMAT_VERSION}/v{WAL_SCHEMA_VERSION}); refusing \
                 to guess — migrate or remove the file",
                path.display()
            ),
        ));
    }
    Ok(scan_records(bytes, HEADER_LEN))
}

/// One durable record log in one file: the header check and
/// future-version refusal, the tolerant scan, framed appends (fsynced
/// under `sync`), and atomic whole-file rewrites. I/O errors after open
/// are counted, not raised: persistence degrades, serving never stops.
#[derive(Debug)]
pub struct RecordLog {
    path: PathBuf,
    magic: &'static [u8; 6],
    file: Option<File>,
    sync: bool,
    records: usize,
    appends: u64,
    io_errors: u64,
}

impl RecordLog {
    /// Open (creating it and its directory if needed) the log at `path`
    /// and scan it. A stale rewrite temp is removed. A torn tail or a
    /// missing header is rewritten away before the log is returned, so
    /// every later append is readable. Errors on an unusable path or a
    /// future format version — damage never errors.
    pub fn open(
        path: &Path,
        magic: &'static [u8; 6],
        sync: bool,
    ) -> io::Result<(RecordLog, LogScan)> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let _ = std::fs::remove_file(temp_path(path));
        let bytes = std::fs::read(path).unwrap_or_default();
        let scan = scan_log(path, &bytes, magic)?;
        let mut log = RecordLog {
            path: path.to_path_buf(),
            magic,
            file: None,
            sync,
            records: scan.payloads.len(),
            appends: 0,
            io_errors: 0,
        };
        if bytes.is_empty() || scan.header_reset || scan.torn_tail_bytes > 0 {
            log.rewrite(scan.payloads.iter().map(Vec::as_slice))?;
        } else {
            log.reopen();
        }
        Ok((log, scan))
    }

    /// Re-read the file and scan it (an unreadable file scans as empty).
    fn load(&self) -> LogScan {
        let bytes = std::fs::read(&self.path).unwrap_or_default();
        scan_log(&self.path, &bytes, self.magic).unwrap_or_default()
    }

    /// Append one record; counted as an I/O error if it cannot be written.
    pub fn append(&mut self, payload: &[u8]) {
        let mut buf = Vec::with_capacity(payload.len() + 8);
        put_record(&mut buf, payload);
        let sync = self.sync;
        let wrote = self.file.as_mut().map(|f| {
            f.write_all(&buf)
                .and_then(|()| if sync { f.sync_data() } else { Ok(()) })
        });
        match wrote {
            Some(Ok(())) => {
                self.appends += 1;
                self.records += 1;
            }
            _ => self.io_errors += 1,
        }
    }

    /// Replace the whole file with a header and `payloads`, atomically
    /// (temp file, fsync under `sync`, rename); later appends go to the
    /// new file. On error the old file is left whole.
    pub fn rewrite<'a>(&mut self, payloads: impl IntoIterator<Item = &'a [u8]>) -> io::Result<()> {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(self.magic);
        buf.push(FORMAT_VERSION);
        buf.push(0); // reserved
        buf.extend_from_slice(&WAL_SCHEMA_VERSION.to_le_bytes());
        let mut records = 0;
        for p in payloads {
            put_record(&mut buf, p);
            records += 1;
        }
        if let Err(e) = replace_file(&self.path, &buf, self.sync) {
            self.io_errors += 1;
            return Err(e);
        }
        self.records = records;
        self.reopen();
        Ok(())
    }

    fn reopen(&mut self) {
        self.file = OpenOptions::new().append(true).open(&self.path).ok();
        if self.file.is_none() {
            self.io_errors += 1;
        }
    }

    /// Records in the file: those the last open or rewrite left, plus
    /// every append since.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Records appended this lifetime.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// I/O errors swallowed this lifetime.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }
}

/// Little-endian byte cursor for record payloads; every getter returns
/// `None` past the end so decode failures degrade to "skip this record".
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Cursor over `bytes` starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Next u32 LE.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next u64 LE.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Next i32 LE.
    pub fn i32(&mut self) -> Option<i32> {
        self.take(4)
            .map(|s| i32::from_le_bytes(s.try_into().unwrap()))
    }

    /// True when every byte has been consumed — decoders require this so
    /// a trailing-garbage payload is rejected, not half-read.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Append a packed sequence as `base_len: u32 | packed bytes`.
pub fn put_seq(out: &mut Vec<u8>, s: &PackedSeq) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Read a packed sequence written by [`put_seq`].
pub fn get_seq(r: &mut ByteReader<'_>) -> Option<PackedSeq> {
    let len = r.u32()? as usize;
    let bytes = r.take(len.div_ceil(4))?;
    PackedSeq::from_raw(bytes.to_vec(), len)
}

/// One persisted cache entry. Self-addressing: it stores everything the
/// key covers (sequences, scheme, band, mode) and never the key itself,
/// so recovery recomputes the key and can't be lied to about the binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheRecord {
    /// Packed sequence A.
    pub a: PackedSeq,
    /// Packed sequence B.
    pub b: PackedSeq,
    /// Scoring scheme the result was computed under.
    pub scheme: ScoringScheme,
    /// Band width.
    pub band: usize,
    /// Score-only mode flag.
    pub score_only: bool,
    /// The audited result (always status `Ok` when written by the cache).
    pub result: JobResult,
}

impl CacheRecord {
    /// The job key this record answers.
    pub fn key(&self) -> JobKey {
        job_key(&self.a, &self.b, &self.scheme, self.band, self.score_only)
    }

    /// Serialize to a record payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.a.byte_len() + self.b.byte_len());
        put_seq(&mut out, &self.a);
        put_seq(&mut out, &self.b);
        for v in [
            self.scheme.match_score,
            self.scheme.mismatch_penalty,
            self.scheme.gap_open,
            self.scheme.gap_extend,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.band as u32).to_le_bytes());
        out.push(u8::from(self.score_only));
        out.extend_from_slice(&self.result.score.to_le_bytes());
        let runs = self.result.cigar.runs();
        out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
        for &(count, op) in runs {
            out.extend_from_slice(&count.to_le_bytes());
            out.push(match op {
                CigarOp::Match => 0,
                CigarOp::Mismatch => 1,
                CigarOp::Insertion => 2,
                CigarOp::Deletion => 3,
            });
        }
        out
    }

    /// Parse a payload written by [`encode`](Self::encode); `None` on any
    /// structural mismatch (recovery skips the record).
    pub fn decode(payload: &[u8]) -> Option<CacheRecord> {
        let mut r = ByteReader::new(payload);
        let a = get_seq(&mut r)?;
        let b = get_seq(&mut r)?;
        let scheme = ScoringScheme {
            match_score: r.i32()?,
            mismatch_penalty: r.i32()?,
            gap_open: r.i32()?,
            gap_extend: r.i32()?,
        };
        let band = r.u32()? as usize;
        let score_only = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let score = r.i32()?;
        let run_count = r.u32()? as usize;
        let mut cigar = Cigar::new();
        for _ in 0..run_count {
            let count = r.u32()?;
            let op = match r.u8()? {
                0 => CigarOp::Match,
                1 => CigarOp::Mismatch,
                2 => CigarOp::Insertion,
                3 => CigarOp::Deletion,
                _ => return None,
            };
            cigar.push_run(count, op);
        }
        if !r.done() {
            return None;
        }
        Some(CacheRecord {
            a,
            b,
            scheme,
            band,
            score_only,
            result: JobResult {
                status: JobStatus::Ok,
                score,
                cigar,
            },
        })
    }
}

/// Tuning for a [`CacheStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Compact the WAL after this many appends.
    pub compact_every: usize,
    /// `fsync` after every append/compaction. SIGKILL safety needs only
    /// the write (the page cache survives the process); host-crash
    /// durability needs the sync. Off by default.
    pub sync_data: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            compact_every: 1024,
            sync_data: false,
        }
    }
}

/// Lifetime counters for one [`CacheStore`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistStats {
    /// Records appended to the WAL.
    pub appended: u64,
    /// Compactions performed (the WAL rewritten to its resident keys).
    pub compactions: u64,
    /// I/O errors swallowed; persistence degrades, serving never stops.
    pub io_errors: u64,
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheRecovery {
    /// Entries re-admitted through the audit gate.
    pub recovered: usize,
    /// Decoded entries the audit gate refused (corrupt-on-disk results).
    pub rejected: usize,
    /// Records skipped: checksum mismatch or undecodable payload.
    pub corrupt_skipped: usize,
    /// Bytes dropped off a torn tail.
    pub torn_tail_bytes: usize,
    /// Files whose header was missing/foreign and were started fresh.
    pub header_resets: usize,
}

/// The persistence backend a [`crate::cache::ResultCache`] can attach:
/// one [`RecordLog`], `cache.wal`, with an append per insert, periodic
/// compaction down to the latest record of each resident key, and
/// tolerant recovery on open.
#[derive(Debug)]
pub struct CacheStore {
    log: RecordLog,
    opened: LogScan,
    compact_every: usize,
    appends_since_compact: usize,
    compactions: u64,
}

impl CacheStore {
    /// Open (creating if needed) the store under `dir` as `cache.wal`.
    /// Errors only on unusable directories or a future-format file —
    /// corruption never errors.
    pub fn open(dir: &Path, opts: StoreOptions) -> io::Result<CacheStore> {
        let (log, opened) = RecordLog::open(&dir.join("cache.wal"), MAGIC_WAL, opts.sync_data)?;
        Ok(CacheStore {
            log,
            opened,
            compact_every: opts.compact_every.max(1),
            appends_since_compact: 0,
            compactions: 0,
        })
    }

    /// Counters so far.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            appended: self.log.appends(),
            compactions: self.compactions,
            io_errors: self.log.io_errors(),
        }
    }

    /// The decodable records `open` found, in file order (a later record
    /// for the same key shadows an earlier one), accumulating recovery
    /// counters. Empty on a second call.
    pub fn take_recovered(&mut self, rec: &mut CacheRecovery) -> Vec<CacheRecord> {
        let scan = std::mem::take(&mut self.opened);
        rec.corrupt_skipped += scan.corrupt_skipped;
        rec.torn_tail_bytes += scan.torn_tail_bytes;
        rec.header_resets += usize::from(scan.header_reset);
        let records: Vec<CacheRecord> = scan
            .payloads
            .iter()
            .filter_map(|p| CacheRecord::decode(p))
            .collect();
        rec.corrupt_skipped += scan.payloads.len() - records.len();
        records
    }

    /// Append one record to the WAL. Infallible by design: an I/O error
    /// is counted and persistence degrades, but serving never stops.
    pub fn append(&mut self, record: &CacheRecord) {
        self.log.append(&record.encode());
        self.appends_since_compact += 1;
    }

    /// True once enough appends have accumulated to warrant compaction.
    pub fn should_compact(&self) -> bool {
        self.appends_since_compact >= self.compact_every
    }

    /// Compact: re-read the WAL, keep the latest record of each `resident`
    /// key (in first-seen order), and rewrite the file to exactly those.
    pub fn compact(&mut self, resident: &dyn Fn(&JobKey) -> bool) {
        let mut slot: HashMap<JobKey, usize> = HashMap::new();
        let mut kept: Vec<Vec<u8>> = Vec::new();
        for p in self.log.load().payloads {
            let Some(key) = CacheRecord::decode(&p).map(|r| r.key()) else {
                continue;
            };
            if !resident(&key) {
                continue;
            }
            match slot.entry(key) {
                Entry::Occupied(e) => kept[*e.get()] = p,
                Entry::Vacant(e) => {
                    e.insert(kept.len());
                    kept.push(p);
                }
            }
        }
        if self.log.rewrite(kept.iter().map(Vec::as_slice)).is_ok() {
            self.compactions += 1;
        }
        self.appends_since_compact = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use nw_core::seq::DnaSeq;
    use nw_core::AdaptiveAligner;

    fn record(k: usize) -> CacheRecord {
        let a = DnaSeq::from_ascii("ACGTGGTCAT".repeat(3 + k % 4).as_bytes()).unwrap();
        let mut b_text = a.to_ascii();
        b_text.insert(1 + k % 7, b'G');
        let b = DnaSeq::from_ascii(&b_text).unwrap();
        let scheme = ScoringScheme::default();
        let band = 32 + 16 * (k % 3);
        let aln = AdaptiveAligner::new(scheme, band).align(&a, &b).unwrap();
        CacheRecord {
            a: a.pack(),
            b: b.pack(),
            scheme,
            band,
            score_only: false,
            result: JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: aln.cigar,
            },
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "upmem-nw-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn record_round_trips() {
        for k in 0..6 {
            let r = record(k);
            let decoded = CacheRecord::decode(&r.encode()).expect("decodes");
            assert_eq!(decoded, r);
            assert_eq!(decoded.key(), r.key());
        }
        // Trailing garbage is rejected, not half-read.
        let mut payload = record(0).encode();
        payload.push(0xAB);
        assert!(CacheRecord::decode(&payload).is_none());
    }

    #[test]
    fn scan_tolerates_torn_tail_and_flipped_bit() {
        let mut buf = Vec::new();
        for k in 0..4 {
            put_record(&mut buf, &record(k).encode());
        }
        let clean = scan_records(&buf, 0);
        assert_eq!(clean.payloads.len(), 4);
        assert_eq!((clean.corrupt_skipped, clean.torn_tail_bytes), (0, 0));

        // Torn tail: drop the last 3 bytes (mid-append crash).
        let torn = scan_records(&buf[..buf.len() - 3], 0);
        assert_eq!(torn.payloads.len(), 3);
        assert!(torn.torn_tail_bytes > 0);

        // Flipped bit inside record 1's payload: skipped, rest recovered.
        let mut flipped = buf.clone();
        let r0 = 8 + record(0).encode().len();
        flipped[r0 + 6] ^= 0x10;
        let scan = scan_records(&flipped, 0);
        assert_eq!(scan.payloads.len(), 3);
        assert_eq!(scan.corrupt_skipped, 1);

        // Implausible length field ends the scan without allocating.
        let mut bad_len = buf.clone();
        bad_len[r0..r0 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan_records(&bad_len, 0);
        assert_eq!(scan.payloads.len(), 1);
        assert!(scan.torn_tail_bytes > 0);
    }

    #[test]
    fn store_persists_and_recovers_through_the_audit_gate() {
        let dir = tmp_dir("roundtrip");
        let recs: Vec<CacheRecord> = (0..5).map(record).collect();
        {
            let mut store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
            for r in &recs {
                store.append(r);
            }
            assert_eq!(store.stats().appended, 5);
        } // dropped without compaction: recovery reads the raw WAL
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, recovery) = ResultCache::with_store(64, store);
        assert_eq!(recovery.recovered, 5);
        assert_eq!(recovery.rejected, 0);
        for r in &recs {
            assert_eq!(cache.lookup(&r.key()), Some(r.result.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_on_disk_result_is_never_served() {
        let dir = tmp_dir("corrupt-result");
        let mut store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        // A record whose framing checksum is valid but whose *content*
        // lies about the score: only the audit gate can catch it.
        let mut lying = record(0);
        lying.result.score += 2;
        store.append(&lying);
        store.append(&record(1));
        drop(store);
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, recovery) = ResultCache::with_store(64, store);
        assert_eq!(recovery.recovered, 1);
        assert_eq!(recovery.rejected, 1);
        assert!(cache.lookup(&lying.key()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_and_flipped_bits_recover_the_rest() {
        let dir = tmp_dir("torn");
        let mut store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        for k in 0..4 {
            store.append(&record(k));
        }
        let wal_path = dir.join("cache.wal");
        drop(store);
        // Crash mid-append: truncate 5 bytes off the tail, then flip a
        // bit in the middle of what remains.
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.truncate(bytes.len() - 5);
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (cache, recovery) = ResultCache::with_store(64, store);
        assert!(recovery.recovered >= 2, "recovered {}", recovery.recovered);
        assert!(recovery.corrupt_skipped >= 1 || recovery.rejected >= 1);
        assert!(cache.len() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_version_refuses_instead_of_guessing() {
        let dir = tmp_dir("future");
        drop(CacheStore::open(&dir, StoreOptions::default()).unwrap());
        let wal = dir.join("cache.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[6] = FORMAT_VERSION + 1;
        std::fs::write(&wal, &bytes).unwrap();
        let err = CacheStore::open(&dir, StoreOptions::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A foreign/corrupt header, by contrast, starts fresh.
        std::fs::write(&wal, b"not a wal at all").unwrap();
        let mut store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let mut rec = CacheRecovery::default();
        assert!(store.take_recovered(&mut rec).is_empty());
        assert_eq!(rec.header_resets, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_the_latest_record_of_each_resident_key() {
        let dir = tmp_dir("compact");
        let opts = StoreOptions {
            compact_every: 2,
            sync_data: false,
        };
        let store = CacheStore::open(&dir, opts).unwrap();
        let (mut cache, _) = ResultCache::with_store(64, store);
        let recs: Vec<CacheRecord> = (0..5).map(record).collect();
        // Every record inserted twice: compaction must fold the copies.
        for r in recs.iter().chain(&recs) {
            let pair = (r.a.clone(), r.b.clone());
            assert!(cache.insert_audited(
                r.key(),
                &pair,
                &r.result,
                &r.scheme,
                r.band,
                r.score_only
            ));
        }
        let stats = cache.persist_stats().unwrap();
        assert!(stats.compactions >= 1, "compact_every=2 must have fired");
        cache.compact_now();
        // One file, holding exactly one record per resident key.
        let wal = std::fs::read(dir.join("cache.wal")).unwrap();
        let scan = scan_records(&wal, HEADER_LEN);
        let keys: Vec<JobKey> = scan
            .payloads
            .iter()
            .map(|p| CacheRecord::decode(p).unwrap().key())
            .collect();
        let want: Vec<JobKey> = recs.iter().map(CacheRecord::key).collect();
        assert_eq!(keys, want);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["cache.wal"]);
        drop(cache);
        // Everything still recovers from the compacted WAL.
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, recovery) = ResultCache::with_store(64, store);
        assert_eq!(recovery.recovered, 5);
        for r in &recs {
            assert_eq!(cache.lookup(&r.key()), Some(r.result.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log the drain left compacted replays with nothing dropped, so
    /// startup leaves it as it is instead of rewriting the same bytes.
    #[test]
    fn recovering_a_drain_compacted_log_does_not_rewrite_it() {
        let dir = tmp_dir("clean-restart");
        let recs: Vec<CacheRecord> = (0..5).map(record).collect();
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, _) = ResultCache::with_store(64, store);
        for r in &recs {
            let pair = (r.a.clone(), r.b.clone());
            assert!(cache.insert_audited(r.key(), &pair, &r.result, &r.scheme, r.band, false));
        }
        cache.compact_now();
        drop(cache);
        let before = std::fs::read(dir.join("cache.wal")).unwrap();
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, recovery) = ResultCache::with_store(64, store);
        assert_eq!((recovery.recovered, recovery.rejected), (5, 0));
        assert_eq!(cache.persist_stats().unwrap().compactions, 0);
        assert_eq!(std::fs::read(dir.join("cache.wal")).unwrap(), before);
        for r in &recs {
            assert_eq!(cache.lookup(&r.key()), Some(r.result.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Startup still compacts whenever replay dropped a record: a shadowed
    /// duplicate, a corrupt record, an audit rejection, or more records
    /// than the cache holds.
    #[test]
    fn recovery_compacts_a_log_that_replay_did_not_keep_whole() {
        let lying = {
            let mut r = record(2);
            r.result.score += 2;
            r
        };
        let cases = [
            ("dup", vec![record(0), record(1), record(0)], None, 64, 2),
            ("corrupt", vec![record(0), record(1)], Some(1), 64, 1),
            ("rejected", vec![record(0), lying], None, 64, 1),
            ("overfull", (0..5).map(record).collect(), None, 3, 3),
        ];
        for (tag, recs, flip, capacity, kept) in cases {
            let dir = tmp_dir(tag);
            let mut store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
            for r in &recs {
                store.append(r);
            }
            drop(store);
            if let Some(k) = flip {
                // Flip a bit inside record k's payload: checksum mismatch.
                let wal = dir.join("cache.wal");
                let mut bytes = std::fs::read(&wal).unwrap();
                let at = HEADER_LEN
                    + recs[..k]
                        .iter()
                        .map(|r| 8 + r.encode().len())
                        .sum::<usize>()
                    + 6;
                bytes[at] ^= 0x10;
                std::fs::write(&wal, &bytes).unwrap();
            }
            let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
            let (cache, _) = ResultCache::with_store(capacity, store);
            assert_eq!(cache.persist_stats().unwrap().compactions, 1, "{tag}");
            let wal = std::fs::read(dir.join("cache.wal")).unwrap();
            let on_disk = scan_records(&wal, HEADER_LEN);
            assert_eq!(on_disk.corrupt_skipped, 0, "{tag}");
            assert_eq!(on_disk.payloads.len(), kept, "{tag}");
            assert_eq!(cache.len(), kept, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// An older build's snapshot file is ignored: the cache re-warms from
    /// `cache.wal` alone.
    #[test]
    fn a_snapshot_left_by_an_older_build_is_ignored() {
        let dir = tmp_dir("old-snap");
        let mut store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        store.append(&record(0));
        drop(store);
        let mut snap = b"UNWSNP".to_vec();
        snap.extend_from_slice(&[FORMAT_VERSION, 0, 1, 0, 0, 0]);
        put_record(&mut snap, &record(1).encode());
        std::fs::write(dir.join("cache.snap"), &snap).unwrap();
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, recovery) = ResultCache::with_store(64, store);
        assert_eq!(recovery.recovered, 1);
        assert!(cache.lookup(&record(0).key()).is_some());
        assert!(cache.lookup(&record(1).key()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn log_path(tag: &str) -> PathBuf {
        tmp_dir(tag).join("test.log")
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|k| format!("payload-{k}").repeat(k + 1).into_bytes())
            .collect()
    }

    /// `open` rewrites a torn tail away, so records appended after a crash
    /// mid-append are not stranded behind bytes the next scan stops at.
    #[test]
    fn appending_after_opening_a_torn_tail_recovers_every_record() {
        let path = log_path("torn-append");
        let want = payloads(5);
        let (mut log, _) = RecordLog::open(&path, MAGIC_WAL, false).unwrap();
        for p in &want[..3] {
            log.append(p);
        }
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut log, scan) = RecordLog::open(&path, MAGIC_WAL, false).unwrap();
        assert_eq!(scan.payloads, want[..2]);
        assert!(scan.torn_tail_bytes > 0);
        for p in &want[3..] {
            log.append(p);
        }
        assert_eq!(log.records(), 4);
        drop(log);
        let (_, scan) = RecordLog::open(&path, MAGIC_WAL, false).unwrap();
        assert_eq!(scan.payloads, [&want[..2], &want[3..]].concat());
        assert_eq!((scan.torn_tail_bytes, scan.corrupt_skipped), (0, 0));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Both logs — the cache WAL and the request journal — refuse a newer
    /// format byte or schema version instead of guessing.
    #[test]
    fn future_version_refusal_covers_both_logs() {
        for magic in [MAGIC_WAL, b"UNWJNL"] {
            for (at, bump) in [(6, FORMAT_VERSION + 1), (8, WAL_SCHEMA_VERSION as u8 + 1)] {
                let path = log_path("future-log");
                let (mut log, _) = RecordLog::open(&path, magic, false).unwrap();
                log.append(b"kept");
                drop(log);
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[at] = bump;
                std::fs::write(&path, &bytes).unwrap();
                let err = RecordLog::open(&path, magic, false).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    bytes,
                    "refusal rewrote the file"
                );
                let _ = std::fs::remove_dir_all(path.parent().unwrap());
            }
        }
    }

    /// A rewrite that dies before its rename leaves the old file whole:
    /// a partial temp file is ignored and removed by the next open, and a
    /// rewrite that fails leaves the old bytes and the append handle.
    #[test]
    fn a_crash_mid_rewrite_leaves_the_old_file_whole() {
        let path = log_path("mid-rewrite");
        let want = payloads(4);
        let (mut log, _) = RecordLog::open(&path, MAGIC_WAL, true).unwrap();
        for p in &want[..3] {
            log.append(p);
        }
        drop(log);
        let old = std::fs::read(&path).unwrap();
        std::fs::write(temp_path(&path), &old[..old.len() / 2]).unwrap();
        let (mut log, scan) = RecordLog::open(&path, MAGIC_WAL, true).unwrap();
        assert_eq!(scan.payloads, want[..3]);
        assert!(!temp_path(&path).exists(), "stale temp left behind");
        std::fs::create_dir(temp_path(&path)).unwrap();
        assert!(log.rewrite([&b"new"[..]]).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        log.append(&want[3]);
        assert_eq!(log.io_errors(), 1);
        std::fs::remove_dir(temp_path(&path)).unwrap();
        drop(log);
        let (_, scan) = RecordLog::open(&path, MAGIC_WAL, true).unwrap();
        assert_eq!(scan.payloads, want);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
