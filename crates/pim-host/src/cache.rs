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
//! **Eviction** is two-generation segmented LRU: entries live in a `hot`
//! and a `cold` map. Lookups promote cold hits to hot; inserts go to hot;
//! when hot reaches half the capacity, the surviving cold generation is
//! dropped (those entries were neither looked up nor re-inserted for a
//! whole generation) and hot rotates down to cold. Every operation is
//! O(1), total residency never exceeds `capacity`, and recently-used
//! entries survive at least one rotation — LRU-ish without per-entry
//! timestamps or list links.
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
    /// Entries dropped by generation rotation.
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

/// Bounded content-addressed result cache with segmented-LRU eviction and
/// an optional crash-safe persistence backend ([`crate::wal`]).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    hot: HashMap<JobKey, JobResult>,
    cold: HashMap<JobKey, JobResult>,
    stats: CacheStats,
    store: Option<CacheStore>,
}

impl ResultCache {
    /// A cache holding at most `capacity` results; 0 disables caching
    /// (every lookup misses, every insert is refused).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            hot: HashMap::new(),
            cold: HashMap::new(),
            stats: CacheStats::default(),
            store: None,
        }
    }

    /// A cache backed by `store`: replay everything on disk through the
    /// audit gate (so a corrupted-on-disk entry can never be served),
    /// attach the store for write-ahead logging of future inserts, then
    /// compact once so rejected records, evicted keys and shadowed
    /// duplicates are folded away before serving starts.
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
        // Replay is bookkeeping, not traffic: don't let it pollute the
        // serving-time insert/rejection counters.
        cache.stats = replay_base;
        cache.store = Some(store);
        cache.compact_now();
        (cache, recovery)
    }

    /// Persistence counters, when a store is attached.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Force a compaction now (the WAL rewritten to the resident keys);
    /// no-op without a store. Called at recovery and at graceful drain.
    pub fn compact_now(&mut self) {
        let Some(mut store) = self.store.take() else {
            return;
        };
        let resident = |key: &JobKey| self.hot.contains_key(key) || self.cold.contains_key(key);
        store.compact(&resident);
        self.store = Some(store);
    }

    /// Configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.hot.len() + self.cold.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look one job up; a cold-generation hit is promoted to hot.
    pub fn lookup(&mut self, key: &JobKey) -> Option<JobResult> {
        self.stats.lookups += 1;
        if let Some(r) = self.hot.get(key) {
            self.stats.hits += 1;
            return Some(r.clone());
        }
        if let Some(r) = self.cold.remove(key) {
            self.stats.hits += 1;
            let out = r.clone();
            self.store_hot(*key, r);
            return Some(out);
        }
        self.stats.misses += 1;
        None
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
        self.cold.remove(&key);
        self.store_hot(key, res.clone());
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

    /// Place an entry in the hot generation, rotating when it fills.
    fn store_hot(&mut self, key: JobKey, res: JobResult) {
        self.hot.insert(key, res);
        let hot_cap = self.capacity.div_ceil(2).max(1);
        if self.hot.len() >= hot_cap && self.capacity > 0 {
            self.stats.evictions += self.cold.len() as u64;
            self.cold = std::mem::take(&mut self.hot);
        }
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
        assert!(c.stats().evictions > 0, "rotation must have evicted");
        // The most recent insert is always resident.
        assert!(c.lookup(keys.last().unwrap()).is_some());
        // The oldest entries have been rotated out.
        assert!(c.lookup(&keys[0]).is_none());
        assert!(c.stats().conserved());
    }

    #[test]
    fn cold_hits_promote_and_survive_rotation() {
        let scheme = ScoringScheme::default();
        let mut c = ResultCache::new(4); // hot capacity 2
        let (a, b, res) = aligned_pair(0);
        let favored = job_key_seqs(&a, &b, &scheme, 16, false);
        let pair = (a.pack(), b.pack());
        c.insert_audited(favored, &pair, &res, &scheme, 16, false);
        // Keep touching `favored` while churning other keys through; the
        // promotions must keep it resident.
        for k in 1..20 {
            let key = job_key_seqs(&a, &b, &scheme, 16 * (k + 1), false);
            c.insert_audited(key, &pair, &res, &scheme, 16 * (k + 1), false);
            assert!(c.lookup(&favored).is_some(), "churn round {k}");
        }
    }

    #[test]
    fn capacity_one_keeps_exactly_the_latest_insert() {
        let scheme = ScoringScheme::default();
        let mut c = ResultCache::new(1);
        let (a, b, res) = aligned_pair(0);
        let pair = (a.pack(), b.pack());
        let k1 = job_key_seqs(&a, &b, &scheme, 16, false);
        let k2 = job_key_seqs(&a, &b, &scheme, 32, false);
        assert!(c.insert_audited(k1, &pair, &res, &scheme, 16, false));
        assert!(c.len() <= 1);
        assert!(c.insert_audited(k2, &pair, &res, &scheme, 32, false));
        assert!(c.len() <= 1, "capacity-1 bound violated: {}", c.len());
        // hot capacity is 1, so every insert rotates: the newest key is
        // in cold and still serveable; the older one is gone.
        assert!(c.lookup(&k2).is_some());
        assert!(c.lookup(&k1).is_none());
        assert!(c.stats().conserved());
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
