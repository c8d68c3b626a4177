//! The three workloads: their fixed parameters and seeded input generators.
//!
//! Every input is a pure function of the seed, so two runs with one seed
//! send the program identical inputs (a closed loop sends as many of them
//! as the program takes in the run).

use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use nw_core::rng::SplitMix64;
use nw_core::seq::DnaSeq;
use upmem_nw_service::Priority;

/// Daemon geometry of both serve workloads (`upmem-nw serve` defaults).
pub const SERVE_RANKS: usize = 2;
/// DPUs per rank of the serve daemon.
pub const SERVE_DPUS: usize = 8;
/// Band of the serve daemon.
pub const SERVE_BAND: usize = 64;
/// Serve workloads: distinct pairs whose one-shot simulated clock is their
/// `sim_s` (the first ones of the pair table, whatever the run length).
pub const SERVE_SIM_PAIRS: usize = 256;

/// serve-short: outstanding requests of the closed loop, two per rank of
/// the daemon, so every rank stays fed while a reply is on its way back.
///
/// An open loop at a fixed rate measured the shared host more than the
/// program: on a 2-vCPU VM at 24 requests/s (7.5% of capacity) the p50 of
/// ten seeds spread 52% and the tail 58% (quartile distance over median),
/// and a run's p50 followed the CPU time the hypervisor stole during it
/// (4.6 ms at 25-66 ticks of steal, 6.6-8.9 ms at 150-230). Kept busy, the
/// daemon spread 4% in throughput and 5% in p50 over five seeds.
pub const SHORT_WINDOW: usize = 2 * SERVE_RANKS;
/// serve-short: pairs per request, one per rank of the daemon: the
/// smallest request that occupies every rank, so fixed per-request and
/// per-launch costs weigh the most.
pub const SHORT_PAIRS: usize = 2;
/// serve-short: base pairs generated, with reference answers, per run
/// (about 2 s of set-up on a 2-core x86-64 host). Each is sent once under
/// each of the [`ORDERINGS`] renamings of its bases (see
/// [`variant_texts`]), so a run can send `SHORT_BASE_PAIRS x ORDERINGS /
/// SHORT_PAIRS` requests (24576) before it runs dry: 3.2x the ~7700 the
/// daemon serves in 30 s on that host. A run that runs dry fails.
pub const SHORT_BASE_PAIRS: usize = 2048;
/// serve-short: independently seeded parts the base pairs are generated in,
/// in parallel (fixed, so the pairs do not depend on the host's cores).
const SHORT_TABLE_PARTS: usize = 2;
/// The orderings of `ACGT`: the variants of one base pair.
pub const ORDERINGS: usize = 24;
/// serve-short: requests a run can send without repeating a pair.
pub const SHORT_MAX_REQUESTS: usize = SHORT_BASE_PAIRS * ORDERINGS / SHORT_PAIRS;

/// serve-hot-durable: the daemon's `--cache` capacity.
pub const HOT_CACHE: usize = 192;
/// serve-hot-durable: distinct pairs in the working set (2x the cache).
pub const HOT_WORKING_SET: usize = 2 * HOT_CACHE;
/// serve-hot-durable: Zipf exponent of the pair draw.
pub const HOT_ZIPF_S: f64 = 1.2;
/// serve-hot-durable: pairs per request.
pub const HOT_PAIRS_PER_REQUEST: usize = 4;
/// serve-hot-durable: outstanding requests of the closed loop.
pub const HOT_WINDOW: usize = 4;
/// serve-hot-durable: cache-WAL appends between snapshot compactions.
pub const HOT_COMPACT_EVERY: usize = 128;
/// serve-hot-durable: horizon over which the duplicate ratio is stated.
pub const HOT_DUP_HORIZON: usize = 2048;

/// batch-long: ranks of the one-shot server (`upmem-nw align` default).
pub const BATCH_RANKS: usize = 4;
/// batch-long: band (`upmem-nw align` default); every generated pair
/// completes `ok` at this band.
pub const BATCH_BAND: usize = 128;
/// batch-long: S10000 pairs per call. One of each size per rank gives
/// every rank's worker thread the same work, so a call's wall time does not
/// hinge on how the OS places unequal rank threads on the cores.
pub const BATCH_S10000: usize = BATCH_RANKS;
/// batch-long: S30000 pairs per call.
pub const BATCH_S30000: usize = BATCH_RANKS;

/// Daemon set-ups per serve run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Set-ups per batch-long run (each takes milliseconds).
pub const BATCH_SETUP_REPS: usize = 31;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of small unique S1000 requests.
    ServeShort,
    /// One-shot `align_pairs` over S10000 and S30000 pairs.
    BatchLong,
    /// Closed loop of Zipf-skewed repeats against a durable daemon.
    ServeHotDurable,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::ServeShort,
        Workload::BatchLong,
        Workload::ServeHotDurable,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeShort => "serve-short",
            Workload::BatchLong => "batch-long",
            Workload::ServeHotDurable => "serve-hot-durable",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A generated pair with its wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Query.
    pub a: DnaSeq,
    /// Target.
    pub b: DnaSeq,
    /// Query as ASCII.
    pub a_text: String,
    /// Target as ASCII.
    pub b_text: String,
}

fn pairs_of(params: SyntheticParams, count: usize) -> Vec<Pair> {
    params
        .generate(count)
        .into_iter()
        .map(|(a, b)| Pair {
            a_text: String::from_utf8(a.to_ascii()).expect("ACGT is ASCII"),
            b_text: String::from_utf8(b.to_ascii()).expect("ACGT is ASCII"),
            a,
            b,
        })
        .collect()
}

/// Derive an independent stream seed for one part of a workload.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    pim_sim::fault::mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One request of a serve workload: the pairs it carries, by id into the
/// workload's pair table (see [`variant_texts`] for ids past its end).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Admission class.
    pub priority: Priority,
    /// Pair ids.
    pub pairs: Vec<usize>,
}

const PRIORITIES: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];

/// Fisher-Yates shuffle from `r`.
fn shuffle<T>(v: &mut [T], r: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, r.below(i as u64 + 1) as usize);
    }
}

/// The `v`-th ordering of `ACGT` in lexicographic order; ordering 0 is
/// `ACGT` itself.
fn ordering(mut v: usize) -> [u8; 4] {
    let mut left = b"ACGT".to_vec();
    let mut out = [0u8; 4];
    for (k, slot) in out.iter_mut().enumerate() {
        let f: usize = (1..4 - k).product();
        *slot = left.remove(v / f);
        v %= f;
    }
    out
}

/// The reads of pair `id`: base pair `id % table.len()` with every base of
/// both reads renamed by ordering `id / table.len()` of `ACGT` (`A` becomes
/// its first letter, `C` its second, and so on). Ids below `table.len()`
/// are the table's own pairs.
///
/// The scoring compares bases only for equality, so renaming both reads
/// alike leaves every DP cell, hence the score and the CIGAR, as they were:
/// a variant shares its base pair's reference answer (see
/// [`crate::reference::expected_of`]). Its reads, and so its result-cache
/// key, differ.
pub fn variant_texts(table: &[Pair], id: usize) -> (String, String) {
    let (base, v) = (&table[id % table.len()], id / table.len());
    if v == 0 {
        return (base.a_text.clone(), base.b_text.clone());
    }
    let to = ordering(v);
    let rename = |text: &str| -> String {
        text.bytes()
            .map(|c| match c {
                b'A' => to[0],
                b'C' => to[1],
                b'G' => to[2],
                b'T' => to[3],
                other => other,
            } as char)
            .collect()
    };
    (rename(&base.a_text), rename(&base.b_text))
}

/// Pair `id` as a [`Pair`] (see [`variant_texts`]).
pub fn variant(table: &[Pair], id: usize) -> Pair {
    let (a_text, b_text) = variant_texts(table, id);
    let seq = |t: &str| DnaSeq::from_ascii(t.as_bytes()).expect("renamed reads are ACGT");
    Pair {
        a: seq(&a_text),
        b: seq(&b_text),
        a_text,
        b_text,
    }
}

/// serve-short: the [`SHORT_BASE_PAIRS`] base S1000 pairs, generated as
/// [`SHORT_TABLE_PARTS`] independently seeded parts on a thread each.
pub fn short_table(seed: u64) -> Vec<Pair> {
    std::thread::scope(|scope| {
        let parts: Vec<_> = (0..SHORT_TABLE_PARTS as u64)
            .map(|k| {
                scope.spawn(move || {
                    pairs_of(
                        SyntheticParams::preset(SyntheticPreset::S1000, sub_seed(seed, 2 + 16 * k)),
                        SHORT_BASE_PAIRS / SHORT_TABLE_PARTS,
                    )
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("pair generator panicked"))
            .collect()
    })
}

/// serve-short: request `i`, carrying pair ids `i x SHORT_PAIRS` onwards,
/// so no pair is sent twice; `None` past [`SHORT_MAX_REQUESTS`].
pub fn short_request(seed: u64, i: usize) -> Option<Request> {
    if i >= SHORT_MAX_REQUESTS {
        return None;
    }
    let mut r = SplitMix64::new(sub_seed(seed ^ 1, i as u64));
    Some(Request {
        priority: PRIORITIES[r.below(3) as usize],
        pairs: (i * SHORT_PAIRS..(i + 1) * SHORT_PAIRS).collect(),
    })
}

/// serve-hot-durable: the working set of [`HOT_WORKING_SET`] S1000 pairs.
pub fn hot_working_set(seed: u64) -> Vec<Pair> {
    pairs_of(
        SyntheticParams::preset(SyntheticPreset::S1000, sub_seed(seed, 3)),
        HOT_WORKING_SET,
    )
}

/// serve-hot-durable: Zipf draws over the working set, rank `k` drawn with
/// weight `1 / (k + 1)^s`, ranks mapped to pairs by a seeded permutation.
#[derive(Debug, Clone)]
pub struct HotStream {
    cdf: Vec<f64>,
    perm: Vec<usize>,
    seed: u64,
}

impl HotStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(HOT_WORKING_SET);
        let mut acc = 0.0;
        for k in 0..HOT_WORKING_SET {
            acc += 1.0 / ((k + 1) as f64).powf(HOT_ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<usize> = (0..HOT_WORKING_SET).collect();
        shuffle(&mut perm, &mut SplitMix64::new(sub_seed(seed, 4)));
        HotStream { cdf, perm, seed }
    }

    /// Request `i` of the stream (any `i`; generated on demand).
    pub fn request(&self, i: usize) -> Request {
        let mut r = SplitMix64::new(sub_seed(self.seed ^ 5, i as u64));
        let pairs = (0..HOT_PAIRS_PER_REQUEST)
            .map(|_| {
                let u = r.next_f64();
                let rank = self
                    .cdf
                    .partition_point(|&c| c < u)
                    .min(HOT_WORKING_SET - 1);
                self.perm[rank]
            })
            .collect();
        Request {
            priority: PRIORITIES[r.below(3) as usize],
            pairs,
        }
    }

    /// Share of pair draws in the first `requests` requests that repeat an
    /// earlier draw.
    pub fn duplicate_ratio(&self, requests: usize) -> f64 {
        let mut seen = vec![false; HOT_WORKING_SET];
        let (mut draws, mut dups) = (0usize, 0usize);
        for i in 0..requests {
            for p in self.request(i).pairs {
                draws += 1;
                if std::mem::replace(&mut seen[p], true) {
                    dups += 1;
                }
            }
        }
        dups as f64 / draws.max(1) as f64
    }
}

/// batch-long: the pairs of one call, [`BATCH_S10000`] S10000 pairs then
/// [`BATCH_S30000`] S30000 pairs.
///
/// The reads have exactly the preset's nominal length (no length jitter):
/// one S30000 pair sets a call's simulated clock, and a seed should move
/// what is aligned, not how much.
pub fn batch_long(seed: u64) -> Vec<Pair> {
    let exact = |preset, seed| SyntheticParams {
        len_jitter: 0.0,
        ..SyntheticParams::preset(preset, seed)
    };
    let mut v = pairs_of(
        exact(SyntheticPreset::S10000, sub_seed(seed, 6)),
        BATCH_S10000,
    );
    v.extend(pairs_of(
        exact(SyntheticPreset::S30000, sub_seed(seed, 7)),
        BATCH_S30000,
    ));
    v
}

/// The request line a client sends for `req`.
pub fn request_line(id: &str, req: &Request, table: &[Pair]) -> String {
    let pairs: Vec<(String, String)> = req.pairs.iter().map(|&i| variant_texts(table, i)).collect();
    upmem_nw_service::proto::align_line(id, req.priority, None, &pairs)
}
