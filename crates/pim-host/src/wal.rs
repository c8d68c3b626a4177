//! Crash-safe persistence for the content-addressed result cache.
//!
//! Layout on disk is two files in one state directory:
//!
//! - `cache.wal` — an append-only write-ahead log. Every audited insert
//!   appends one self-contained record *after* the in-memory insert
//!   succeeds, so the log can only ever under-approximate the cache.
//! - `cache.snap` — a snapshot written by compaction: the latest record
//!   per key, filtered to keys still resident in the cache, written to a
//!   temp file and atomically renamed. After a snapshot the WAL is
//!   truncated back to its header.
//!
//! Both files share the same framing: a 12-byte header (magic,
//! format-version byte, [`WAL_SCHEMA_VERSION`]) followed by records of
//! `[len: u32 LE][payload][fnv1a32(payload): u32 LE]` — the same FNV-1a
//! checksum convention the DPU result blocks use
//! (`dpu_kernel::layout::result_checksum`).
//!
//! **Recovery invariants.** A torn tail (partial final record — the
//! classic mid-append crash) is truncated away; a record whose checksum
//! does not match is skipped; a length field too large to be real ends the
//! scan there. None of these refuse startup. A *future format version*
//! does refuse startup — silently misparsing a newer format is corruption
//! by another name, while a flipped bit is just lost work. Records carry
//! the packed sequences, scoring scheme, band, and mode — never the
//! `JobKey` — so recovery recomputes every key and re-admits each entry
//! through [`crate::cache::ResultCache::insert_audited`]; a
//! corrupted-on-disk result that survives the checksum can still never be
//! served.

use dpu_kernel::layout::{JobResult, JobStatus};
use nw_core::cigar::{Cigar, CigarOp};
use nw_core::seq::PackedSeq;
use nw_core::{job_key, JobKey, ScoringScheme};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Schema version stamped into WAL/snapshot/journal headers. Bump on any
/// incompatible record-shape change so an old binary refuses (or a future
/// one migrates) instead of silently misparsing.
pub const WAL_SCHEMA_VERSION: u32 = 1;

/// Format-version byte in the header; the coarse "can this binary read
/// this file at all" gate in front of the schema version.
pub const FORMAT_VERSION: u8 = 1;

/// Header: 6 magic bytes + format-version byte + reserved byte +
/// schema-version u32 LE.
pub const HEADER_LEN: usize = 12;

const MAGIC_WAL: &[u8; 6] = b"UNWWAL";
const MAGIC_SNAP: &[u8; 6] = b"UNWSNP";

/// Largest plausible record payload. A length field above this is treated
/// as framing corruption (scan ends), not as a record to allocate.
pub const MAX_RECORD_BYTES: u32 = 64 << 20;

/// FNV-1a over `bytes` — the workspace's one checksum, matching the DPU
/// result-block convention from PR 2.
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Why a header was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderCheck {
    /// Header present and readable by this binary.
    Ok,
    /// File shorter than a header or wrong magic: treat as empty/foreign
    /// and start fresh.
    Corrupt,
    /// Format or schema version newer than this binary understands:
    /// refuse-or-migrate, never guess.
    FutureVersion {
        /// Format-version byte found in the file.
        format: u8,
        /// Schema version found in the file.
        schema: u32,
    },
}

/// Serialize a header for `magic` into `out` (shared with the service
/// crate's request journal, which brings its own magic).
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 6]) {
    out.extend_from_slice(magic);
    out.push(FORMAT_VERSION);
    out.push(0); // reserved
    out.extend_from_slice(&WAL_SCHEMA_VERSION.to_le_bytes());
}

/// Validate the header of `bytes` against `magic`.
pub fn check_header(bytes: &[u8], magic: &[u8; 6]) -> HeaderCheck {
    if bytes.len() < HEADER_LEN || &bytes[..6] != magic {
        return HeaderCheck::Corrupt;
    }
    let format = bytes[6];
    let schema = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if format > FORMAT_VERSION || schema > WAL_SCHEMA_VERSION {
        return HeaderCheck::FutureVersion { format, schema };
    }
    HeaderCheck::Ok
}

/// Frame `payload` as one record (`len | payload | checksum`) into `out`.
pub fn put_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a32(payload).to_le_bytes());
}

/// What a tolerant scan of a record stream found.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Checksum-valid payloads, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// Records skipped for a checksum mismatch (framing still trusted).
    pub corrupt_skipped: usize,
    /// Bytes discarded at the tail (partial record or implausible length).
    pub torn_tail_bytes: usize,
}

/// Scan `bytes[start..]` as framed records, tolerating torn tails and
/// flipped bits per the recovery invariants above.
pub fn scan_records(bytes: &[u8], start: usize) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    let mut i = start.min(bytes.len());
    while i < bytes.len() {
        if bytes.len() - i < 8 {
            out.torn_tail_bytes = bytes.len() - i;
            break;
        }
        let len = u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            // A corrupt length field: record boundaries are lost from here.
            out.torn_tail_bytes = bytes.len() - i;
            break;
        }
        let len = len as usize;
        if i + 4 + len + 4 > bytes.len() {
            out.torn_tail_bytes = bytes.len() - i;
            break;
        }
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
    /// Compact (snapshot + WAL truncate) after this many appends.
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
    /// Compactions performed (snapshot rewrite + WAL truncate).
    pub compactions: u64,
    /// Records written into the last snapshot.
    pub snapshot_records: u64,
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
    /// Bytes truncated off torn tails, both files.
    pub torn_tail_bytes: usize,
    /// Files whose header was missing/foreign and were started fresh.
    pub header_resets: usize,
}

/// The persistence backend a [`crate::cache::ResultCache`] can attach:
/// WAL appends on insert, periodic compaction into a snapshot, tolerant
/// recovery on open.
#[derive(Debug)]
pub struct CacheStore {
    wal_path: PathBuf,
    snap_path: PathBuf,
    wal: Option<File>,
    opts: StoreOptions,
    appends_since_compact: usize,
    stats: PersistStats,
}

impl CacheStore {
    /// Open (creating if needed) the store under `dir` as `cache.wal` +
    /// `cache.snap`. Errors only on unusable directories or a
    /// future-format file — corruption never errors.
    pub fn open(dir: &Path, opts: StoreOptions) -> io::Result<CacheStore> {
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join("cache.wal");
        let snap_path = dir.join("cache.snap");
        // A stale temp snapshot is a crash mid-compaction before the
        // rename; the real snapshot is still intact, so just drop it.
        let _ = std::fs::remove_file(snap_path.with_extension("snap.tmp"));
        for (path, magic) in [(&wal_path, MAGIC_WAL), (&snap_path, MAGIC_SNAP)] {
            if let Ok(bytes) = std::fs::read(path) {
                if let HeaderCheck::FutureVersion { format, schema } = check_header(&bytes, magic) {
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
            }
        }
        let mut store = CacheStore {
            wal_path,
            snap_path,
            wal: None,
            opts: StoreOptions {
                compact_every: opts.compact_every.max(1),
                ..opts
            },
            appends_since_compact: 0,
            stats: PersistStats::default(),
        };
        store.wal = store.open_wal_for_append().ok();
        if store.wal.is_none() {
            store.stats.io_errors += 1;
        }
        Ok(store)
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Path of the snapshot.
    pub fn snap_path(&self) -> &Path {
        &self.snap_path
    }

    /// Counters so far.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    fn open_wal_for_append(&self) -> io::Result<File> {
        let needs_header = match std::fs::read(&self.wal_path) {
            Ok(bytes) => check_header(&bytes, MAGIC_WAL) == HeaderCheck::Corrupt,
            Err(_) => true,
        };
        if needs_header {
            let mut buf = Vec::with_capacity(HEADER_LEN);
            put_header(&mut buf, MAGIC_WAL);
            let mut f = File::create(&self.wal_path)?;
            f.write_all(&buf)?;
        }
        OpenOptions::new().append(true).open(&self.wal_path)
    }

    /// Read and tolerantly decode one file (snapshot or WAL) into
    /// records, accumulating recovery counters.
    fn load_file(&self, path: &Path, magic: &[u8; 6], rec: &mut CacheRecovery) -> Vec<CacheRecord> {
        let Ok(bytes) = std::fs::read(path) else {
            return Vec::new();
        };
        if check_header(&bytes, magic) != HeaderCheck::Ok {
            if !bytes.is_empty() {
                rec.header_resets += 1;
            }
            return Vec::new();
        }
        let scan = scan_records(&bytes, HEADER_LEN);
        rec.corrupt_skipped += scan.corrupt_skipped;
        rec.torn_tail_bytes += scan.torn_tail_bytes;
        scan.payloads
            .iter()
            .filter_map(|p| match CacheRecord::decode(p) {
                Some(r) => Some(r),
                None => {
                    rec.corrupt_skipped += 1;
                    None
                }
            })
            .collect()
    }

    /// All decodable records on disk, snapshot first then WAL (so a WAL
    /// record for the same key shadows the snapshot's).
    pub fn load_records(&self, rec: &mut CacheRecovery) -> Vec<CacheRecord> {
        let mut out = self.load_file(&self.snap_path, MAGIC_SNAP, rec);
        out.extend(self.load_file(&self.wal_path, MAGIC_WAL, rec));
        out
    }

    /// Append one record to the WAL. Infallible by design: an I/O error
    /// is counted and persistence degrades, but serving never stops.
    pub fn append(&mut self, record: &CacheRecord) {
        let mut buf = Vec::new();
        put_record(&mut buf, &record.encode());
        let Some(f) = self.wal.as_mut() else {
            self.stats.io_errors += 1;
            return;
        };
        let ok = f.write_all(&buf).and_then(|()| {
            if self.opts.sync_data {
                f.sync_data()
            } else {
                Ok(())
            }
        });
        match ok {
            Ok(()) => {
                self.stats.appended += 1;
                self.appends_since_compact += 1;
            }
            Err(_) => self.stats.io_errors += 1,
        }
    }

    /// True once enough appends have accumulated to warrant compaction.
    pub fn should_compact(&self) -> bool {
        self.appends_since_compact >= self.opts.compact_every
    }

    /// Compact: re-read snapshot + WAL from disk, keep the latest record
    /// per key filtered to `resident` keys, write a new snapshot via temp
    /// file + atomic rename, truncate the WAL to its header.
    pub fn compact(&mut self, resident: &dyn Fn(&JobKey) -> bool) {
        let mut scratch = CacheRecovery::default();
        let mut latest: HashMap<JobKey, CacheRecord> = HashMap::new();
        let mut order: Vec<JobKey> = Vec::new();
        for r in self.load_records(&mut scratch) {
            let key = r.key();
            if !resident(&key) {
                continue;
            }
            if latest.insert(key, r).is_none() {
                order.push(key);
            }
        }
        let mut buf = Vec::new();
        put_header(&mut buf, MAGIC_SNAP);
        for key in &order {
            put_record(&mut buf, &latest[key].encode());
        }
        let tmp = self.snap_path.with_extension("snap.tmp");
        let wrote = std::fs::write(&tmp, &buf)
            .and_then(|()| {
                if self.opts.sync_data {
                    File::open(&tmp).and_then(|f| f.sync_data())
                } else {
                    Ok(())
                }
            })
            .and_then(|()| std::fs::rename(&tmp, &self.snap_path));
        if wrote.is_err() {
            self.stats.io_errors += 1;
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        // Snapshot is durable; restart the WAL from scratch.
        let mut hdr = Vec::with_capacity(HEADER_LEN);
        put_header(&mut hdr, MAGIC_WAL);
        let restarted = File::create(&self.wal_path)
            .and_then(|mut f| f.write_all(&hdr).map(|()| f))
            .and_then(|f| {
                if self.opts.sync_data {
                    f.sync_data().map(|()| f)
                } else {
                    Ok(f)
                }
            });
        match restarted {
            Ok(_) => {
                self.wal = self.open_wal_for_append().ok();
                if self.wal.is_none() {
                    self.stats.io_errors += 1;
                }
            }
            Err(_) => self.stats.io_errors += 1,
        }
        self.stats.compactions += 1;
        self.stats.snapshot_records = order.len() as u64;
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
        let wal_path = store.wal_path().to_path_buf();
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
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let mut rec = CacheRecovery::default();
        assert!(store.load_records(&mut rec).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_resident_keys_and_truncates_the_wal() {
        let dir = tmp_dir("compact");
        let opts = StoreOptions {
            compact_every: 2,
            sync_data: false,
        };
        let store = CacheStore::open(&dir, opts).unwrap();
        let (mut cache, _) = ResultCache::with_store(64, store);
        let recs: Vec<CacheRecord> = (0..5).map(record).collect();
        for r in &recs {
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
        // WAL shrank back to (near) its header after the last compaction.
        let wal_len = std::fs::metadata(dir.join("cache.wal")).unwrap().len();
        assert!(wal_len < 1024, "wal not truncated: {wal_len} bytes");
        drop(cache);
        // Everything still recovers from the snapshot.
        let store = CacheStore::open(&dir, StoreOptions::default()).unwrap();
        let (mut cache, recovery) = ResultCache::with_store(64, store);
        assert_eq!(recovery.recovered, 5);
        for r in &recs {
            assert_eq!(cache.lookup(&r.key()), Some(r.result.clone()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
