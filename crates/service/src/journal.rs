//! Crash-safe request journal: the daemon's half of the durability layer.
//!
//! Every admitted request is journaled *before* its admission is
//! acknowledged in any way; every terminal answer (result, deadline-miss,
//! shed, reject) is journaled *after* the reply is written. A `kill -9`
//! between the two leaves an unanswered `Admit` record, and on restart
//! [`RequestJournal::open`] replays exactly those into the admission
//! queue — at-least-once semantics, safe because the original connection
//! is gone (replayed work warms the cache and balances the books; it is
//! answered to no one).
//!
//! The file shares the WAL framing from [`pim_host::wal`] (header with
//! magic + format version + schema version, then
//! `len | payload | fnv1a32` records) and the same tolerance: torn tails
//! and corrupt records are skipped, a future format version refuses.
//!
//! Replay is idempotent by request id: when the same id was admitted more
//! than once (a client retry racing a crash), only the latest unanswered
//! admission survives; the collapsed duplicates are dropped and counted.
//! Deadlines are journaled as *absolute* unix milliseconds so expiry
//! survives the downtime: the daemon reaps tickets whose deadline passed
//! while the process was dead into `deadline_missed`, keeping the
//! conservation law `accepted == completed + deadline_missed + shed`
//! balanced across the crash boundary.

use crate::proto::{AlignRequest, Priority};
use pim_host::wal::{
    check_file_header, get_seq, put_header, put_record, put_seq, replace_file, scan_records,
    ByteReader, HEADER_LEN,
};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

const MAGIC_JOURNAL: &[u8; 6] = b"UNWJNL";
const TAG_ADMIT: u8 = 0;
const TAG_DONE: u8 = 1;

/// Milliseconds since the unix epoch, for absolute journaled deadlines.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// How an admitted request was terminally answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneKind {
    /// Answered with a full `result`.
    Completed = 0,
    /// Reaped at its deadline (queued or in flight).
    DeadlineMissed = 1,
    /// Displaced by a higher-priority arrival.
    Shed = 2,
    /// Refused at admission after the tentative journal write (the write
    /// happens before the queue decides, so a reject must close its seq).
    Rejected = 3,
}

impl DoneKind {
    fn from_byte(b: u8) -> Option<DoneKind> {
        match b {
            0 => Some(DoneKind::Completed),
            1 => Some(DoneKind::DeadlineMissed),
            2 => Some(DoneKind::Shed),
            3 => Some(DoneKind::Rejected),
            _ => None,
        }
    }
}

/// One admitted-but-unanswered request recovered from the journal.
#[derive(Debug, Clone)]
pub struct RecoveredTicket {
    /// Journal sequence number — kept across restarts so a second crash
    /// replays idempotently.
    pub seq: u64,
    /// The request, reconstructed. `deadline_ms` is always `None` here;
    /// the absolute deadline travels separately.
    pub req: AlignRequest,
    /// Absolute deadline (unix ms) if the original request had one.
    pub deadline_unix_ms: Option<u64>,
}

/// What scanning the journal found, for the durability report.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalScan {
    /// Admit records decoded.
    pub admits: usize,
    /// Done records decoded.
    pub dones: usize,
    /// Older same-id admissions collapsed by replay idempotency.
    pub duplicates: usize,
    /// Records skipped (checksum mismatch or undecodable payload).
    pub corrupt_skipped: usize,
    /// Bytes truncated off a torn tail.
    pub torn_tail_bytes: usize,
    /// True when the header was missing/foreign and the file restarted.
    pub header_reset: bool,
}

struct AdmitRecord {
    seq: u64,
    req: AlignRequest,
    deadline_unix_ms: Option<u64>,
}

fn encode_admit(seq: u64, req: &AlignRequest, deadline_unix_ms: Option<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + req.id.len());
    out.push(TAG_ADMIT);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(req.id.len() as u32).to_le_bytes());
    out.extend_from_slice(req.id.as_bytes());
    out.push(req.priority.index() as u8);
    match deadline_unix_ms {
        Some(ms) => {
            out.push(1);
            out.extend_from_slice(&ms.to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&(req.pairs.len() as u32).to_le_bytes());
    for (a, b) in &req.pairs {
        put_seq(&mut out, &a.pack());
        put_seq(&mut out, &b.pack());
    }
    out
}

fn decode_admit(r: &mut ByteReader<'_>) -> Option<AdmitRecord> {
    let seq = r.u64()?;
    let id_len = r.u32()? as usize;
    let id = String::from_utf8(r.take(id_len)?.to_vec()).ok()?;
    let priority = match r.u8()? {
        0 => Priority::Interactive,
        1 => Priority::Normal,
        2 => Priority::Batch,
        _ => return None,
    };
    let deadline_unix_ms = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return None,
    };
    let n = r.u32()? as usize;
    let mut pairs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let a = get_seq(r)?;
        let b = get_seq(r)?;
        pairs.push((a.unpack(), b.unpack()));
    }
    if !r.done() {
        return None;
    }
    Some(AdmitRecord {
        seq,
        req: AlignRequest {
            id,
            priority,
            deadline_ms: None,
            pairs,
        },
        deadline_unix_ms,
    })
}

/// The journal file handle the daemon appends to.
#[derive(Debug)]
pub struct RequestJournal {
    path: PathBuf,
    file: Option<File>,
    sync: bool,
    next_seq: u64,
    appends: u64,
    io_errors: u64,
}

impl RequestJournal {
    /// Open (creating if needed) the journal at `path`, replay its
    /// unanswered admissions, and compact it down to exactly those
    /// records. Errors only on an unusable path or a future format
    /// version — corruption never refuses startup.
    pub fn open(
        path: &Path,
        sync: bool,
    ) -> io::Result<(RequestJournal, Vec<RecoveredTicket>, JournalScan)> {
        let mut scan = JournalScan::default();
        let bytes = std::fs::read(path).unwrap_or_default();
        let mut admits: Vec<AdmitRecord> = Vec::new();
        let mut done_seqs: HashSet<u64> = HashSet::new();
        let mut max_seq = 0u64;
        if check_file_header(path, &bytes, MAGIC_JOURNAL)? {
            let records = scan_records(&bytes, HEADER_LEN);
            scan.corrupt_skipped += records.corrupt_skipped;
            scan.torn_tail_bytes = records.torn_tail_bytes;
            for payload in &records.payloads {
                let mut r = ByteReader::new(payload);
                match r.u8() {
                    Some(TAG_ADMIT) => match decode_admit(&mut r) {
                        Some(a) => {
                            scan.admits += 1;
                            max_seq = max_seq.max(a.seq);
                            admits.push(a);
                        }
                        None => scan.corrupt_skipped += 1,
                    },
                    Some(TAG_DONE) => match (r.u64(), r.u8().and_then(DoneKind::from_byte)) {
                        (Some(seq), Some(_kind)) if r.done() => {
                            scan.dones += 1;
                            max_seq = max_seq.max(seq);
                            done_seqs.insert(seq);
                        }
                        _ => scan.corrupt_skipped += 1,
                    },
                    _ => scan.corrupt_skipped += 1,
                }
            }
        } else {
            scan.header_reset = !bytes.is_empty();
        }
        // Unanswered admissions, idempotent by request id: only the
        // latest admission of an id survives replay.
        let mut latest_of_id: HashMap<String, u64> = HashMap::new();
        for a in admits.iter().filter(|a| !done_seqs.contains(&a.seq)) {
            let e = latest_of_id.entry(a.req.id.clone()).or_insert(a.seq);
            *e = (*e).max(a.seq);
        }
        let mut tickets: Vec<RecoveredTicket> = Vec::new();
        for a in admits {
            if done_seqs.contains(&a.seq) {
                continue;
            }
            if latest_of_id.get(&a.req.id) != Some(&a.seq) {
                scan.duplicates += 1;
                continue;
            }
            tickets.push(RecoveredTicket {
                seq: a.seq,
                req: a.req,
                deadline_unix_ms: a.deadline_unix_ms,
            });
        }
        tickets.sort_by_key(|t| t.seq);

        // Compact: replace the file with header + the surviving admissions
        // (original seqs kept), dropping answered pairs, duplicates, torn
        // tails, and corrupt records in one stroke. The old file stays
        // whole until the new one is renamed over it, so a kill here
        // loses no unanswered admission.
        let mut buf = Vec::with_capacity(HEADER_LEN);
        put_header(&mut buf, MAGIC_JOURNAL);
        for t in &tickets {
            put_record(&mut buf, &encode_admit(t.seq, &t.req, t.deadline_unix_ms));
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        replace_file(path, &buf, sync)?;
        let mut journal = RequestJournal {
            path: path.to_path_buf(),
            file: None,
            sync,
            next_seq: max_seq + 1,
            appends: 0,
            io_errors: 0,
        };
        journal.file = OpenOptions::new().append(true).open(path).ok();
        if journal.file.is_none() {
            journal.io_errors += 1;
        }
        Ok((journal, tickets, scan))
    }

    /// Journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended this lifetime.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// I/O errors swallowed (journaling degrades, serving never stops).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    fn append(&mut self, payload: &[u8]) {
        let mut buf = Vec::with_capacity(payload.len() + 8);
        put_record(&mut buf, payload);
        let Some(f) = self.file.as_mut() else {
            self.io_errors += 1;
            return;
        };
        let ok = f
            .write_all(&buf)
            .and_then(|()| if self.sync { f.sync_data() } else { Ok(()) });
        match ok {
            Ok(()) => self.appends += 1,
            Err(_) => self.io_errors += 1,
        }
    }

    /// Journal one admission (call *before* any acknowledgment reaches
    /// the client); returns the ticket's sequence number.
    pub fn admit(&mut self, req: &AlignRequest, deadline_unix_ms: Option<u64>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.append(&encode_admit(seq, req, deadline_unix_ms));
        seq
    }

    /// Journal a terminal answer (call *after* the reply was written).
    pub fn done(&mut self, seq: u64, kind: DoneKind) {
        let mut payload = Vec::with_capacity(10);
        payload.push(TAG_DONE);
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(kind as u8);
        self.append(&payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::seq::DnaSeq;
    use pim_host::wal::{temp_path, FORMAT_VERSION};
    use std::io::Read;

    fn request(id: &str, n: usize) -> AlignRequest {
        let a = DnaSeq::from_ascii(b"ACGTACGTGGTCAT").unwrap();
        let b = DnaSeq::from_ascii(b"ACGTACGAGGTCAT").unwrap();
        AlignRequest {
            id: id.to_string(),
            priority: Priority::Normal,
            deadline_ms: None,
            pairs: (0..n).map(|_| (a.clone(), b.clone())).collect(),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "upmem-nw-journal-{tag}-{}-{:?}.journal",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn unanswered_admissions_replay_in_seq_order() {
        let path = tmp("replay");
        {
            let (mut j, tickets, _) = RequestJournal::open(&path, false).unwrap();
            assert!(tickets.is_empty());
            let s1 = j.admit(&request("r1", 2), None);
            let s2 = j.admit(&request("r2", 1), Some(unix_ms_now() + 60_000));
            let _s3 = j.admit(&request("r3", 3), None);
            j.done(s1, DoneKind::Completed);
            assert!(s2 > s1);
        } // crash: r2 and r3 unanswered
        let (mut j, tickets, scan) = RequestJournal::open(&path, false).unwrap();
        assert_eq!(scan.admits, 3);
        assert_eq!(scan.dones, 1);
        let ids: Vec<&str> = tickets.iter().map(|t| t.req.id.as_str()).collect();
        assert_eq!(ids, ["r2", "r3"]);
        assert!(tickets[0].deadline_unix_ms.is_some());
        assert_eq!(tickets[1].req.pairs.len(), 3);
        assert_eq!(tickets[1].req.pairs[0].0.to_ascii(), b"ACGTACGTGGTCAT");
        // Seq numbers stay monotone across the restart.
        let s4 = j.admit(&request("r4", 1), None);
        assert!(s4 > tickets[1].seq);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_is_idempotent_by_request_id() {
        let path = tmp("dedupe");
        {
            let (mut j, _, _) = RequestJournal::open(&path, false).unwrap();
            j.admit(&request("same", 1), None);
            j.admit(&request("same", 2), None); // client retry racing a crash
            j.admit(&request("other", 1), None);
        }
        let (_, tickets, scan) = RequestJournal::open(&path, false).unwrap();
        assert_eq!(scan.duplicates, 1);
        assert_eq!(tickets.len(), 2);
        let same = tickets.iter().find(|t| t.req.id == "same").unwrap();
        assert_eq!(same.req.pairs.len(), 2, "latest admission wins");
        // A second crash-free reopen replays the identical set.
        let (_, again, scan) = RequestJournal::open(&path, false).unwrap();
        assert_eq!(scan.duplicates, 0, "compaction dropped the duplicate");
        assert_eq!(again.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_and_corrupt_records_do_not_refuse_startup() {
        let path = tmp("torn");
        {
            let (mut j, _, _) = RequestJournal::open(&path, false).unwrap();
            j.admit(&request("ok1", 1), None);
            j.admit(&request("ok2", 1), None);
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, tickets, scan) = RequestJournal::open(&path, false).unwrap();
        assert_eq!(tickets.len(), 2);
        assert!(scan.torn_tail_bytes > 0);
        // Rejected-at-admission seqs are closed and never replay.
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejected_admissions_never_replay() {
        let path = tmp("reject");
        {
            let (mut j, _, _) = RequestJournal::open(&path, false).unwrap();
            let s = j.admit(&request("r", 1), None);
            j.done(s, DoneKind::Rejected);
        }
        let (_, tickets, _) = RequestJournal::open(&path, false).unwrap();
        assert!(tickets.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// Startup compaction replaces the journal by rename, never by
    /// truncating it in place: a handle opened on the old file before
    /// `open` still reads it whole afterwards, so a kill during the rewrite
    /// cannot lose the unanswered admissions the old file holds.
    #[test]
    fn compaction_never_rewrites_the_old_journal_in_place() {
        let path = tmp("rename");
        {
            let (mut j, _, _) = RequestJournal::open(&path, false).unwrap();
            let s = j.admit(&request("answered", 2), None);
            j.done(s, DoneKind::Completed);
            j.admit(&request("pending", 1), None);
        }
        let old = std::fs::read(&path).unwrap();
        let mut before = File::open(&path).unwrap();
        let (_, tickets, _) = RequestJournal::open(&path, true).unwrap();
        assert_eq!(tickets.len(), 1);
        let mut seen = Vec::new();
        before.read_to_end(&mut seen).unwrap();
        assert_eq!(seen, old, "the old journal was rewritten in place");
        assert!(std::fs::read(&path).unwrap().len() < old.len(), "compacted");
        let _ = std::fs::remove_file(&path);
    }

    /// A temp file left by a rewrite the process died in is neither
    /// replayed nor left behind.
    #[test]
    fn stale_rewrite_temp_is_ignored_and_removed() {
        let path = tmp("stale");
        let ghost = tmp("stale-ghost");
        for (p, id) in [(&path, "kept"), (&ghost, "ghost")] {
            let (mut j, _, _) = RequestJournal::open(p, false).unwrap();
            j.admit(&request(id, 1), None);
        }
        let stale = temp_path(&path);
        std::fs::rename(&ghost, &stale).unwrap();
        let (_, tickets, _) = RequestJournal::open(&path, false).unwrap();
        let ids: Vec<&str> = tickets.iter().map(|t| t.req.id.as_str()).collect();
        assert_eq!(ids, ["kept"]);
        assert!(!stale.exists(), "stale temp file left behind");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_version_refuses() {
        let path = tmp("future");
        drop(RequestJournal::open(&path, false).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[6] = FORMAT_VERSION + 1;
        std::fs::write(&path, &bytes).unwrap();
        let err = RequestJournal::open(&path, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(&path);
    }
}
