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
//! The file is a [`RecordLog`] from [`pim_host::wal`], the log the result
//! cache's WAL uses (header with magic + format version + schema version,
//! then `len | payload | fnv1a32` records), with the same tolerance: torn
//! tails and corrupt records are skipped, a future format version refuses.
//!
//! The file stays bounded while the daemon runs. The journal keeps its
//! unanswered admissions in memory — a set the admission queue and the
//! open tickets already bound, plus recovered admissions until their
//! `Done` — and rewrites the file down to them whenever it holds more than
//! `3 × live +` [`REWRITE_SLACK`] records. So the file never holds more
//! than that, and each rewrite of `live` records follows more than
//! `live + REWRITE_SLACK / 2` appends: O(1) amortised per append.
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
use pim_host::wal::{get_seq, put_seq, ByteReader, RecordLog};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

const MAGIC_JOURNAL: &[u8; 6] = b"UNWJNL";
const TAG_ADMIT: u8 = 0;
const TAG_DONE: u8 = 1;

/// Records the journal file may hold beyond three per live admission
/// before it is rewritten down to the live ones.
pub const REWRITE_SLACK: usize = 1024;

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
    log: RecordLog,
    next_seq: u64,
    /// Admit payloads of the unanswered admissions, by seq.
    live: BTreeMap<u64, Vec<u8>>,
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
        let (log, found) = RecordLog::open(path, MAGIC_JOURNAL, sync)?;
        let mut scan = JournalScan {
            corrupt_skipped: found.corrupt_skipped,
            torn_tail_bytes: found.torn_tail_bytes,
            header_reset: found.header_reset,
            ..JournalScan::default()
        };
        let mut admits: Vec<(AdmitRecord, Vec<u8>)> = Vec::new();
        let mut done_seqs: HashSet<u64> = HashSet::new();
        let mut max_seq = 0u64;
        for payload in found.payloads {
            let mut r = ByteReader::new(&payload);
            match r.u8() {
                Some(TAG_ADMIT) => match decode_admit(&mut r) {
                    Some(a) => {
                        scan.admits += 1;
                        max_seq = max_seq.max(a.seq);
                        admits.push((a, payload));
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
        // Unanswered admissions, idempotent by request id: only the
        // latest admission of an id survives replay.
        admits.retain(|(a, _)| !done_seqs.contains(&a.seq));
        let mut latest_of_id: HashMap<String, u64> = HashMap::new();
        for (a, _) in &admits {
            let e = latest_of_id.entry(a.req.id.clone()).or_insert(a.seq);
            *e = (*e).max(a.seq);
        }
        let mut tickets: Vec<RecoveredTicket> = Vec::new();
        let mut live = BTreeMap::new();
        for (a, payload) in admits {
            if latest_of_id.get(&a.req.id) != Some(&a.seq) {
                scan.duplicates += 1;
                continue;
            }
            live.insert(a.seq, payload);
            tickets.push(RecoveredTicket {
                seq: a.seq,
                req: a.req,
                deadline_unix_ms: a.deadline_unix_ms,
            });
        }
        tickets.sort_by_key(|t| t.seq);
        let mut journal = RequestJournal {
            log,
            next_seq: max_seq + 1,
            live,
        };
        // Drop answered pairs, duplicates and corrupt records in one
        // stroke; the surviving admissions keep their original seqs.
        journal.compact()?;
        Ok((journal, tickets, scan))
    }

    /// Rewrite the file down to the live admissions, in seq order.
    fn compact(&mut self) -> io::Result<()> {
        self.log.rewrite(self.live.values().map(Vec::as_slice))
    }

    /// Compact once the file holds more than `3 × live +`
    /// [`REWRITE_SLACK`] records. A failed rewrite is counted in
    /// [`io_errors`](Self::io_errors) and the file keeps growing.
    fn bound(&mut self) {
        if self.log.records() > 3 * self.live.len() + REWRITE_SLACK {
            let _ = self.compact();
        }
    }

    /// Records appended this lifetime.
    pub fn appends(&self) -> u64 {
        self.log.appends()
    }

    /// I/O errors swallowed (journaling degrades, serving never stops).
    pub fn io_errors(&self) -> u64 {
        self.log.io_errors()
    }

    /// Journal one admission (call *before* any acknowledgment reaches
    /// the client); returns the ticket's sequence number.
    pub fn admit(&mut self, req: &AlignRequest, deadline_unix_ms: Option<u64>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let payload = encode_admit(seq, req, deadline_unix_ms);
        self.log.append(&payload);
        self.live.insert(seq, payload);
        self.bound();
        seq
    }

    /// Journal a terminal answer (call *after* the reply was written).
    pub fn done(&mut self, seq: u64, kind: DoneKind) {
        let mut payload = [TAG_DONE; 10];
        payload[1..9].copy_from_slice(&seq.to_le_bytes());
        payload[9] = kind as u8;
        self.log.append(&payload);
        self.live.remove(&seq);
        self.bound();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::seq::DnaSeq;
    use pim_host::wal::{temp_path, FORMAT_VERSION};
    use std::fs::File;
    use std::io::Read;
    use std::path::PathBuf;

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

    /// The file stays within `3 × live + REWRITE_SLACK` records through
    /// a long run of admit/done cycles, and the long-lived admissions
    /// still replay with their original seqs.
    #[test]
    fn journal_file_stays_bounded_over_many_admit_done_cycles() {
        let path = tmp("bounded");
        let (mut j, _, _) = RequestJournal::open(&path, false).unwrap();
        let mut pending = Vec::new();
        for k in 0..10_000 {
            if k % 2_000 == 0 {
                let id = format!("pending-{k}");
                pending.push((j.admit(&request(&id, 2), None), id));
            }
            let s = j.admit(&request("cycle", 1), None);
            j.done(s, DoneKind::Completed);
            let bound = 3 * pending.len() + REWRITE_SLACK;
            assert!(j.log.records() <= bound, "cycle {k}: {}", j.log.records());
        }
        assert_eq!(j.appends(), 20_000 + pending.len() as u64);
        drop(j);
        let (_, tickets, scan) = RequestJournal::open(&path, false).unwrap();
        let on_disk = scan.admits + scan.dones + scan.corrupt_skipped;
        assert!(
            on_disk <= 3 * pending.len() + REWRITE_SLACK,
            "{on_disk} records on disk"
        );
        let replayed: Vec<(u64, String)> = tickets.into_iter().map(|t| (t.seq, t.req.id)).collect();
        assert_eq!(replayed, pending);
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
