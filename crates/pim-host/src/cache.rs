//! Content-addressed result cache: [`nw_core::JobKey`] → `(score, CIGAR)`.
//!
//! At "millions of users" scale repeated pairs dominate the request
//! stream, and under the bit-identity contract the DPU kernels and the
//! engine's CPU fallback return the same result for the same job — so a
//! hit can skip the engine entirely. The serve daemon keeps one cache for
//! its lifetime, in front of its engine tickets; [`align_pairs_cached`]
//! puts a cache in front of [`crate::modes::align_pairs`]' job ticket for
//! one-shot callers (`align --cache N`, `bench --cache true`).
//!
//! **Eviction** is SIEVE (Zhang et al., NSDI '24): entries sit in one
//! FIFO queue, newest at the head, linked through a slab of slots and
//! indexed by a `HashMap<JobKey, slot>`. A hit sets the entry's visited
//! bit and moves nothing. When a full cache must make room, a hand walks
//! from where it last stopped (at first, the oldest entry) toward the
//! newest, clearing visited bits, and evicts the first entry whose bit was
//! already clear; past the newest entry it wraps back to the oldest. Every
//! operation is O(1) amortised, and once `capacity` distinct keys have
//! been inserted the cache holds exactly `capacity` entries from then on —
//! an entry looked up since the hand last passed it is never the one
//! evicted.
//!
//! **Safety invariant** (the PR 5 audit gate): a result enters the cache
//! only through [`ResultCache::insert_audited`], which re-validates the
//! CIGAR against the original sequences and re-scores it
//! ([`crate::recovery::audit_ok`]). A corrupted result — even a *silently*
//! corrupted one whose checksum was recomputed by the fault — can
//! therefore never be served twice. Non-`Ok` results are never cached
//! (failures must be recomputed, not replayed).

use crate::dispatch::DispatchConfig;
use crate::modes::align_pairs;
use crate::recovery::audit_ok;
use crate::report::ExecutionReport;
use crate::wal::{CacheRecord, CacheRecovery, CacheStore, PersistStats};
use dpu_kernel::layout::{JobResult, JobStatus};
use dpu_kernel::KernelParams;
use nw_core::seq::{DnaSeq, PackedSeq};
use nw_core::{job_key_seqs, JobKey, ScoringScheme};
use pim_sim::{PimServer, SimError};
use std::collections::HashMap;

/// Cache counters; `hits + misses == lookups` is the conservation law the
/// bench validator asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookup calls.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Results stored.
    pub inserts: u64,
    /// Entries evicted to make room for an insert into a full cache.
    pub evictions: u64,
    /// Insert attempts refused by the audit gate (failed results, audit
    /// mismatches, or a disabled cache).
    pub rejected_inserts: u64,
}

impl CacheStats {
    /// Hits per lookup (0.0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / self.lookups as f64
    }

    /// The conservation law: every lookup is a hit or a miss.
    pub fn conserved(&self) -> bool {
        self.hits + self.misses == self.lookups
    }

    /// What was counted after `base` was read from the same cache.
    fn since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            lookups: self.lookups - base.lookups,
            hits: self.hits - base.hits,
            misses: self.misses - base.misses,
            inserts: self.inserts - base.inserts,
            evictions: self.evictions - base.evictions,
            rejected_inserts: self.rejected_inserts - base.rejected_inserts,
        }
    }

    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.rejected_inserts += other.rejected_inserts;
    }
}

/// No slot: the end of the queue, or a hand that restarts at the tail.
const NIL: usize = usize::MAX;

/// One resident entry: a node of the SIEVE queue, linked by slot index.
#[derive(Debug)]
struct Slot {
    key: JobKey,
    result: JobResult,
    /// Looked up (or re-inserted) since the hand last passed this slot.
    visited: bool,
    /// The next-newer slot, `NIL` at the head.
    newer: usize,
    /// The next-older slot, `NIL` at the tail.
    older: usize,
}

/// Bounded content-addressed result cache with SIEVE eviction and an
/// optional crash-safe persistence backend ([`crate::wal`]).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    index: HashMap<JobKey, usize>,
    slots: Vec<Slot>,
    /// Newest slot; inserts link here.
    head: usize,
    /// Oldest slot.
    tail: usize,
    /// Where the next eviction scan starts (`NIL`: at the tail).
    hand: usize,
    stats: CacheStats,
    store: Option<CacheStore>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results; 0 disables caching
    /// (every lookup misses, every insert is refused).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            stats: CacheStats::default(),
            store: None,
        }
    }

    /// A cache backed by `store`: replay everything on disk through the
    /// audit gate (so a corrupted-on-disk entry can never be served) and
    /// attach the store for write-ahead logging of future inserts. The log
    /// is compacted before serving starts only when replay dropped
    /// something — a rejected or corrupt record, a shadowed duplicate, or
    /// an eviction; otherwise the rewrite would reproduce the file as it
    /// is (a drain-compacted log, say) byte for byte.
    pub fn with_store(capacity: usize, mut store: CacheStore) -> (Self, CacheRecovery) {
        let mut cache = ResultCache::new(capacity);
        let mut recovery = CacheRecovery::default();
        let records = store.take_recovered(&mut recovery);
        // Replay before attaching: recovered inserts must not be
        // re-appended to the WAL they just came from.
        let replay_base = cache.stats;
        for r in &records {
            let pair = (r.a.clone(), r.b.clone());
            if cache.insert_audited(r.key(), &pair, &r.result, &r.scheme, r.band, r.score_only) {
                recovery.recovered += 1;
            } else {
                recovery.rejected += 1;
            }
        }
        // Every record admitted, and none shadowed or evicted: the file
        // already holds one record per resident key.
        let clean =
            recovery.rejected == 0 && recovery.corrupt_skipped == 0 && cache.len() == records.len();
        // Replay is bookkeeping, not traffic: don't let it pollute the
        // serving-time insert/rejection counters.
        cache.stats = replay_base;
        cache.store = Some(store);
        if !clean {
            cache.compact_now();
        }
        (cache, recovery)
    }

    /// Persistence counters, when a store is attached.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Force a compaction now (the WAL rewritten to the resident keys);
    /// no-op without a store. Called at graceful drain, and at recovery
    /// when replay dropped records.
    pub fn compact_now(&mut self) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let index = &self.index;
        store.compact(&|key: &JobKey| index.contains_key(key));
    }

    /// Configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look one job up; a hit marks the entry visited.
    pub fn lookup(&mut self, key: &JobKey) -> Option<JobResult> {
        self.stats.lookups += 1;
        let Some(&i) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let slot = &mut self.slots[i];
        slot.visited = true;
        Some(slot.result.clone())
    }

    /// Insert through the audit gate: only a status-`Ok` result whose
    /// CIGAR validates against `pair` and re-scores to its claimed score
    /// is stored. `band` and `score_only` are the job parameters the key
    /// was derived under — with a persistent store attached they make the
    /// WAL record self-contained, so recovery can recompute (never trust)
    /// the key. Returns whether the result was accepted.
    pub fn insert_audited(
        &mut self,
        key: JobKey,
        pair: &(PackedSeq, PackedSeq),
        res: &JobResult,
        scheme: &ScoringScheme,
        band: usize,
        score_only: bool,
    ) -> bool {
        if self.capacity == 0
            || res.status != JobStatus::Ok
            || res.cigar.runs().is_empty()
            || !audit_ok(pair, res, scheme)
        {
            self.stats.rejected_inserts += 1;
            return false;
        }
        self.stats.inserts += 1;
        self.store_entry(key, res.clone());
        if self.store.is_some() {
            let record = CacheRecord {
                a: pair.0.clone(),
                b: pair.1.clone(),
                scheme: *scheme,
                band,
                score_only,
                result: res.clone(),
            };
            let store = self.store.as_mut().expect("store checked above");
            store.append(&record);
            if store.should_compact() {
                self.compact_now();
            }
        }
        true
    }

    /// Make `key` resident with `result`. A resident key is overwritten in
    /// place and marked visited (it was asked for again); a new key goes
    /// to the head, into a fresh slot while the cache is filling and into
    /// the evicted one once it is full.
    fn store_entry(&mut self, key: JobKey, result: JobResult) {
        if let Some(&i) = self.index.get(&key) {
            let slot = &mut self.slots[i];
            slot.result = result;
            slot.visited = true;
            return;
        }
        let slot = Slot {
            key,
            result,
            visited: false,
            newer: NIL,
            older: NIL,
        };
        let i = if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let i = self.evict();
            self.slots[i] = slot;
            i
        };
        self.index.insert(key, i);
        self.link_head(i);
    }

    /// Run the hand: clear visited bits from where it stopped toward the
    /// head (wrapping to the tail), unlink the first unvisited slot, and
    /// return it for reuse. Called only on a full, non-empty cache.
    fn evict(&mut self) -> usize {
        let mut i = if self.hand == NIL {
            self.tail
        } else {
            self.hand
        };
        while self.slots[i].visited {
            self.slots[i].visited = false;
            i = match self.slots[i].newer {
                NIL => self.tail,
                newer => newer,
            };
        }
        let Slot {
            key, newer, older, ..
        } = self.slots[i];
        self.hand = newer;
        match newer {
            NIL => self.head = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o].newer = newer,
        }
        self.index.remove(&key);
        self.stats.evictions += 1;
        i
    }

    /// Link slot `i` in as the newest entry.
    fn link_head(&mut self, i: usize) {
        self.slots[i].older = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].newer = i,
        }
        self.head = i;
    }
}

/// Outcome of a cache pre-pass over a pair list ([`serve_hits`]).
#[derive(Debug)]
pub struct CachePrepass {
    /// One slot per input pair; hits are already filled.
    pub slots: Vec<Option<JobResult>>,
    /// The key of each pair (`None` when no cache was supplied).
    pub keys: Vec<Option<JobKey>>,
    /// Indices that must be computed, in input order.
    pub work: Vec<usize>,
    /// Within-run duplicates `(index, first_index)`: deferred, served by
    /// [`resolve`] once the first occurrence's result is cached.
    pub aliases: Vec<(usize, usize)>,
}

/// Cache pre-pass shared by the daemon and [`align_pairs_cached`]: hits
/// fill their slots, misses form the worklist, and duplicates within
/// the run are deduplicated (only the first occurrence of a key is
/// computed — the rest are served from the cache post-compute, each as
/// one counted lookup).
pub fn serve_hits(
    mut cache: Option<&mut ResultCache>,
    pairs: &[(DnaSeq, DnaSeq)],
    scheme: &ScoringScheme,
    band: usize,
    score_only: bool,
) -> CachePrepass {
    let mut slots: Vec<Option<JobResult>> = (0..pairs.len()).map(|_| None).collect();
    let mut keys: Vec<Option<JobKey>> = vec![None; pairs.len()];
    let mut work: Vec<usize> = Vec::with_capacity(pairs.len());
    let mut aliases: Vec<(usize, usize)> = Vec::new();
    let mut first_of: HashMap<JobKey, usize> = HashMap::new();
    for (i, (a, b)) in pairs.iter().enumerate() {
        if let Some(c) = cache.as_mut() {
            let key = job_key_seqs(a, b, scheme, band, score_only);
            keys[i] = Some(key);
            if let Some(&first) = first_of.get(&key) {
                aliases.push((i, first));
                continue;
            }
            first_of.insert(key, i);
            if let Some(hit) = c.lookup(&key) {
                slots[i] = Some(hit);
                continue;
            }
        }
        work.push(i);
    }
    CachePrepass {
        slots,
        keys,
        work,
        aliases,
    }
}

/// Cache post-pass: insert every computed result (the `work` indices,
/// whose slots the caller has filled) behind the audit gate, then serve
/// the deferred duplicates — from the cache when the insert was accepted
/// (one counted hit each), by copying the computed twin when it was
/// audit-rejected. Returns the fully resolved result list in input order.
#[allow(clippy::too_many_arguments)]
pub fn resolve(
    mut cache: Option<&mut ResultCache>,
    pairs: &[(DnaSeq, DnaSeq)],
    scheme: &ScoringScheme,
    band: usize,
    score_only: bool,
    mut slots: Vec<Option<JobResult>>,
    keys: &[Option<JobKey>],
    work: &[usize],
    aliases: &[(usize, usize)],
) -> Vec<JobResult> {
    if let Some(c) = cache.as_mut() {
        for &i in work {
            if let (Some(key), Some(res)) = (keys[i], slots[i].as_ref()) {
                let packed = (pairs[i].0.pack(), pairs[i].1.pack());
                c.insert_audited(key, &packed, res, scheme, band, score_only);
            }
        }
    }
    for &(i, first) in aliases {
        let served = match (cache.as_mut(), keys[i].as_ref()) {
            (Some(c), Some(key)) => c.lookup(key),
            _ => None,
        };
        slots[i] = Some(match served {
            Some(hit) => hit,
            None => slots[first].clone().expect("first occurrence resolved"),
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("pair {i} unresolved")))
        .collect()
}

/// Everything one [`align_pairs_cached`] run produced.
#[derive(Debug)]
pub struct CachedRun {
    /// Per-pair results in input order, cache hits included.
    pub results: Vec<JobResult>,
    /// The report of the engine ticket over the misses (`None` when the
    /// cache answered every pair and no ticket ran).
    pub report: Option<ExecutionReport>,
    /// This run's cache counters, not the cache's lifetime totals.
    pub cache: CacheStats,
}

/// One-shot cached alignment, the daemon's miss path run to completion:
/// [`serve_hits`] answers what `cache` holds, one [`align_pairs`] job
/// ticket computes the misses under `cfg.recovery`, and [`resolve`]
/// inserts them behind the audit gate and serves the in-run duplicates.
/// Results are bit-identical to an uncached `align_pairs` run.
pub fn align_pairs_cached(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    pairs: &[(DnaSeq, DnaSeq)],
    cache: &mut ResultCache,
) -> Result<CachedRun, SimError> {
    cfg.params.check_band()?;
    let base = cache.stats();
    let KernelParams {
        band,
        scheme,
        score_only,
    } = cfg.params;
    let CachePrepass {
        mut slots,
        keys,
        work,
        aliases,
    } = serve_hits(Some(cache), pairs, &scheme, band, score_only);
    let mut report = None;
    if !work.is_empty() {
        let misses: Vec<(DnaSeq, DnaSeq)> = work.iter().map(|&i| pairs[i].clone()).collect();
        let (rep, results) = align_pairs(server, cfg, &misses)?;
        for (&i, r) in work.iter().zip(results) {
            slots[i] = Some(r);
        }
        report = Some(rep);
    }
    let results = resolve(
        Some(cache),
        pairs,
        &scheme,
        band,
        score_only,
        slots,
        &keys,
        &work,
        &aliases,
    );
    Ok(CachedRun {
        results,
        report,
        cache: cache.stats().since(&base),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::cigar::Cigar;
    use nw_core::seq::DnaSeq;
    use nw_core::{job_key_seqs, AdaptiveAligner};

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn aligned_pair(k: usize) -> (DnaSeq, DnaSeq, JobResult) {
        let a = seq(&"ACGTGGTCAT".repeat(3 + k % 3));
        let mut b_text = a.to_ascii();
        b_text.insert(2 + k % 5, b'T');
        let b = DnaSeq::from_ascii(&b_text).unwrap();
        let aln = AdaptiveAligner::new(ScoringScheme::default(), 32)
            .align(&a, &b)
            .unwrap();
        (
            a,
            b,
            JobResult {
                status: JobStatus::Ok,
                score: aln.score,
                cigar: aln.cigar,
            },
        )
    }

    fn key_of(a: &DnaSeq, b: &DnaSeq) -> JobKey {
        job_key_seqs(a, b, &ScoringScheme::default(), 32, false)
    }

    #[test]
    fn hit_after_audited_insert_returns_the_same_result() {
        let mut c = ResultCache::new(64);
        let (a, b, res) = aligned_pair(0);
        let key = key_of(&a, &b);
        assert!(c.lookup(&key).is_none());
        assert!(c.insert_audited(
            key,
            &(a.pack(), b.pack()),
            &res,
            &ScoringScheme::default(),
            32,
            false
        ));
        assert_eq!(c.lookup(&key), Some(res));
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.inserts), (2, 1, 1, 1));
        assert!(s.conserved());
    }

    #[test]
    fn audit_gate_refuses_corrupt_and_failed_results() {
        let mut c = ResultCache::new(64);
        let scheme = ScoringScheme::default();
        let (a, b, good) = aligned_pair(1);
        let key = key_of(&a, &b);
        let pair = (a.pack(), b.pack());
        // Silent corruption: score off by one (checksum-style integrity
        // would pass; only the audit catches it).
        let mut bad_score = good.clone();
        bad_score.score += 1;
        assert!(!c.insert_audited(key, &pair, &bad_score, &scheme, 32, false));
        // Corrupt CIGAR that no longer matches the sequences.
        let mut bad_cigar = good.clone();
        bad_cigar.cigar = Cigar::new();
        bad_cigar.cigar.push_run(3, nw_core::CigarOp::Match);
        assert!(!c.insert_audited(key, &pair, &bad_cigar, &scheme, 32, false));
        // Failed results never cache.
        let failed = JobResult {
            status: JobStatus::OutOfBand,
            score: 0,
            cigar: Cigar::new(),
        };
        assert!(!c.insert_audited(key, &pair, &failed, &scheme, 32, false));
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected_inserts, 3);
        // The good result still gets in.
        assert!(c.insert_audited(key, &pair, &good, &scheme, 32, false));
        assert_eq!(c.lookup(&key), Some(good));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        let (a, b, res) = aligned_pair(2);
        let key = key_of(&a, &b);
        assert!(!c.insert_audited(
            key,
            &(a.pack(), b.pack()),
            &res,
            &ScoringScheme::default(),
            32,
            false
        ));
        assert!(c.lookup(&key).is_none());
        assert!(c.stats().conserved());
    }

    #[test]
    fn eviction_is_bounded_and_favors_recent_entries() {
        let scheme = ScoringScheme::default();
        let mut c = ResultCache::new(8);
        let mut keys = Vec::new();
        for k in 0..40 {
            let (a, b, res) = aligned_pair(k);
            // Vary the band so every k gets a distinct key even when the
            // generator cycles sequences.
            let key = job_key_seqs(&a, &b, &scheme, 16 * (k + 1), false);
            c.insert_audited(
                key,
                &(a.pack(), b.pack()),
                &res,
                &scheme,
                16 * (k + 1),
                false,
            );
            keys.push(key);
            assert!(c.len() <= 8, "capacity bound violated: {}", c.len());
        }
        assert!(c.stats().evictions > 0, "a full cache must have evicted");
        // The most recent insert is always resident.
        assert!(c.lookup(keys.last().unwrap()).is_some());
        // The oldest entries, never looked up, have been evicted.
        assert!(c.lookup(&keys[0]).is_none());
        assert!(c.stats().conserved());
    }

    /// `n` distinct keys for one auditable pair: the band is part of the
    /// key, so varying it gives a new key the same result still answers.
    fn band_keys(n: usize) -> (Vec<(JobKey, usize)>, (PackedSeq, PackedSeq), JobResult) {
        let scheme = ScoringScheme::default();
        let (a, b, res) = aligned_pair(0);
        let keys = (0..n)
            .map(|k| {
                let band = 16 * (k + 1);
                (job_key_seqs(&a, &b, &scheme, band, false), band)
            })
            .collect();
        (keys, (a.pack(), b.pack()), res)
    }

    fn insert_key(
        c: &mut ResultCache,
        (key, band): (JobKey, usize),
        pair: &(PackedSeq, PackedSeq),
        res: &JobResult,
    ) {
        assert!(c.insert_audited(key, pair, res, &ScoringScheme::default(), band, false));
    }

    /// Resident without a counted lookup (which would set the visited bit).
    fn resident(c: &ResultCache, key: &JobKey) -> bool {
        c.index.contains_key(key)
    }

    #[test]
    fn hits_keep_an_entry_resident_through_churn() {
        let (keys, pair, res) = band_keys(20);
        let mut c = ResultCache::new(4);
        let favored = keys[0].0;
        insert_key(&mut c, keys[0], &pair, &res);
        // Keep touching `favored` while churning other keys through; each
        // hit sets its visited bit, so the hand passes it over every time.
        for (k, &entry) in keys.iter().enumerate().skip(1) {
            insert_key(&mut c, entry, &pair, &res);
            assert!(c.lookup(&favored).is_some(), "churn round {k}");
        }
        assert_eq!(c.stats().evictions, 20 - 4);
        assert!(c.stats().conserved());
    }

    #[test]
    fn capacity_one_keeps_exactly_the_latest_insert() {
        let (keys, pair, res) = band_keys(3);
        let mut c = ResultCache::new(1);
        let (k1, k2, k3) = (keys[0].0, keys[1].0, keys[2].0);
        insert_key(&mut c, keys[0], &pair, &res);
        assert_eq!(c.len(), 1);
        insert_key(&mut c, keys[1], &pair, &res);
        assert_eq!(c.len(), 1, "capacity-1 bound violated");
        assert!(c.lookup(&k2).is_some());
        assert!(c.lookup(&k1).is_none());
        // Even a visited entry makes way: one slot holds only the newest.
        insert_key(&mut c, keys[2], &pair, &res);
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&k3).is_some());
        assert!(c.lookup(&k2).is_none());
        assert_eq!(c.stats().evictions, 2);
        assert!(c.stats().conserved());
    }

    #[test]
    fn a_full_cache_stays_full() {
        let (keys, pair, res) = band_keys(64);
        let mut c = ResultCache::new(8);
        for (k, &entry) in keys.iter().enumerate() {
            insert_key(&mut c, entry, &pair, &res);
            assert_eq!(c.len(), (k + 1).min(8), "after insert {k}");
            // Touch a spread of residents so the hand has bits to clear.
            if k % 3 == 0 {
                c.lookup(&keys[k / 2].0);
            }
        }
        assert_eq!(c.stats().evictions, 64 - 8);
    }

    #[test]
    fn an_entry_looked_up_since_the_hand_passed_survives_the_next_eviction() {
        let (keys, pair, res) = band_keys(7);
        let k: Vec<JobKey> = keys.iter().map(|e| e.0).collect();
        let mut c = ResultCache::new(4);
        for &entry in &keys[..4] {
            insert_key(&mut c, entry, &pair, &res);
        }
        // The hand starts at the oldest entry, k0: visited, so it is
        // cleared and passed over, and k1 goes instead.
        assert!(c.lookup(&k[0]).is_some());
        insert_key(&mut c, keys[4], &pair, &res);
        assert!(resident(&c, &k[0]) && !resident(&c, &k[1]));
        // The hand now rests at k2; a hit there saves it and k3 goes.
        assert!(c.lookup(&k[2]).is_some());
        insert_key(&mut c, keys[5], &pair, &res);
        assert!(resident(&c, &k[2]) && !resident(&c, &k[3]));
        // k0's bit was cleared when the hand passed it, so with no new
        // hit it is the next to go once the hand wraps past k4 and k5.
        assert!(c.lookup(&k[4]).is_some() && c.lookup(&k[5]).is_some());
        insert_key(&mut c, keys[6], &pair, &res);
        assert!(!resident(&c, &k[0]));
        assert!([2, 4, 5].iter().all(|&i| resident(&c, &k[i])));
    }

    /// The two-generation rotation this cache used before SIEVE, kept
    /// only as the baseline the hit-rate test must beat: inserts and cold
    /// hits go to `hot`; when `hot` reaches half the capacity, `cold` is
    /// dropped whole and `hot` becomes `cold`.
    struct TwoGenerations {
        capacity: usize,
        hot: std::collections::HashSet<usize>,
        cold: std::collections::HashSet<usize>,
    }

    impl TwoGenerations {
        fn lookup(&mut self, id: usize) -> bool {
            if self.hot.contains(&id) {
                return true;
            }
            if self.cold.remove(&id) {
                self.store_hot(id);
                return true;
            }
            false
        }

        fn store_hot(&mut self, id: usize) {
            self.hot.insert(id);
            if self.hot.len() >= self.capacity.div_ceil(2).max(1) {
                self.cold = std::mem::take(&mut self.hot);
            }
        }
    }

    #[test]
    fn sieve_beats_the_two_generation_rotation_on_a_zipf_stream() {
        const CAPACITY: usize = 192;
        const WORKING_SET: usize = 2 * CAPACITY;
        const WARM: usize = 10_000;
        const DRAWS: usize = 60_000;
        let (keys, pair, res) = band_keys(WORKING_SET);
        let mut cdf = Vec::with_capacity(WORKING_SET);
        let mut acc = 0.0;
        for rank in 0..WORKING_SET {
            acc += 1.0 / ((rank + 1) as f64).powf(1.2);
            cdf.push(acc);
        }
        let mut rng = nw_core::rng::SplitMix64::new(0x5EED);
        let mut sieve = ResultCache::new(CAPACITY);
        let mut old = TwoGenerations {
            capacity: CAPACITY,
            hot: Default::default(),
            cold: Default::default(),
        };
        let (mut old_hits, mut base) = (0usize, CacheStats::default());
        for draw in 0..DRAWS {
            if draw == WARM {
                base = sieve.stats();
                old_hits = 0;
            }
            let u = rng.next_f64() * acc;
            let id = cdf.partition_point(|&c| c < u).min(WORKING_SET - 1);
            if sieve.lookup(&keys[id].0).is_none() {
                insert_key(&mut sieve, keys[id], &pair, &res);
            }
            if old.lookup(id) {
                old_hits += 1;
            } else {
                old.store_hot(id);
            }
            assert!(sieve.len() <= CAPACITY);
        }
        let measured = sieve.stats().since(&base);
        let old_rate = old_hits as f64 / (DRAWS - WARM) as f64;
        assert_eq!(measured.lookups as usize, DRAWS - WARM);
        assert!(
            measured.hit_rate() >= 0.92,
            "SIEVE hit rate {:.4}",
            measured.hit_rate()
        );
        assert!(
            measured.hit_rate() > old_rate,
            "SIEVE {:.4} vs two-generation {old_rate:.4}",
            measured.hit_rate()
        );
        assert_eq!(sieve.len(), CAPACITY);
    }

    #[test]
    fn reinsert_after_rejection_is_accepted_cleanly() {
        let scheme = ScoringScheme::default();
        let mut c = ResultCache::new(8);
        let (a, b, good) = aligned_pair(3);
        let key = key_of(&a, &b);
        let pair = (a.pack(), b.pack());
        let mut bad = good.clone();
        bad.score -= 3;
        assert!(!c.insert_audited(key, &pair, &bad, &scheme, 32, false));
        assert!(c.lookup(&key).is_none(), "rejected insert must not serve");
        assert!(c.insert_audited(key, &pair, &good, &scheme, 32, false));
        assert_eq!(c.lookup(&key), Some(good));
        let s = c.stats();
        assert_eq!((s.rejected_inserts, s.inserts), (1, 1));
        assert!(s.conserved());
    }

    #[test]
    fn alias_duplicates_in_one_batch_count_as_hits() {
        let scheme = ScoringScheme::default();
        let (a, b, res) = aligned_pair(4);
        // One unique pair appearing three times in a batch: one miss,
        // then two alias lookups served post-insert as counted hits.
        let pairs = vec![(a.clone(), b.clone()), (a.clone(), b.clone()), (a, b)];
        let mut c = ResultCache::new(8);
        let pre = serve_hits(Some(&mut c), &pairs, &scheme, 32, false);
        assert_eq!(pre.work, vec![0]);
        assert_eq!(pre.aliases, vec![(1, 0), (2, 0)]);
        let mut slots = pre.slots;
        slots[0] = Some(res.clone());
        let out = resolve(
            Some(&mut c),
            &pairs,
            &scheme,
            32,
            false,
            slots,
            &pre.keys,
            &pre.work,
            &pre.aliases,
        );
        assert!(out.iter().all(|r| *r == res));
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (3, 2, 1));
        assert!(s.conserved());
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn alias_falls_back_to_twin_when_insert_rejected() {
        let scheme = ScoringScheme::default();
        let (a, b, good) = aligned_pair(5);
        let mut corrupt = good.clone();
        corrupt.score += 1; // computed result fails the audit gate
        let pairs = vec![(a.clone(), b.clone()), (a, b)];
        let mut c = ResultCache::new(8);
        let pre = serve_hits(Some(&mut c), &pairs, &scheme, 32, false);
        let mut slots = pre.slots;
        slots[0] = Some(corrupt.clone());
        let out = resolve(
            Some(&mut c),
            &pairs,
            &scheme,
            32,
            false,
            slots,
            &pre.keys,
            &pre.work,
            &pre.aliases,
        );
        // The alias is still answered (copied from its computed twin) and
        // the accounting stays conserved: the post-insert alias lookup
        // missed because the insert was refused.
        assert_eq!(out[1], corrupt);
        let s = c.stats();
        assert_eq!(s.rejected_inserts, 1);
        assert_eq!((s.lookups, s.hits, s.misses), (2, 0, 2));
        assert!(s.conserved());
    }
}
