//! The three experiment shapes of §5.
//!
//! * [`align_pairs`] — the S-dataset mode (Tables 2–4): each pair is a job,
//!   pairs are grouped into `rounds × ranks` batches, LPT-balanced over
//!   DPUs inside each batch. Most communication-heavy shape.
//! * [`all_vs_all`] — the 16S mode (Table 5): the whole dataset fits one
//!   MRAM, so it is **broadcast** once and each DPU gets a statically
//!   assigned, equally sized slice of the pair index space; score-only
//!   (no CIGAR is needed for phylogeny distances).
//! * [`align_sets`] — the PacBio consensus mode (Table 6): sets of reads
//!   are LPT-balanced over DPUs; each set's reads are stored once per DPU
//!   and aligned all-against-all; CIGARs are required.
//!
//! Every mode runs as one job ticket of the persistent engine
//! ([`crate::persistent`]) and differs only in its units of placement
//! (`dispatch::Units`) and its first pass. [`align_pairs`]
//! places one pair per unit and lets the engine group them;
//! [`all_vs_all`] places one broadcast `(i, j)` pair per unit with the
//! static equal split of §5.3; [`align_sets`] places one read set per unit
//! with LPT over all DPUs (§5.4). On a healthy server each first pass
//! launches exactly the batches the paper's placement builds. Later passes
//! retry what faulted under `cfg.recovery` (retry, quarantine, CPU
//! fallback, the result audit); the report's `fault` field shows what the
//! recovery layer did, and is clean on a healthy server. A unit no batch
//! can hold finishes on the CPU fallback. A host interrupt
//! ([`crate::interrupt`]) cancels the ticket: every slot not yet finished
//! comes back [`dpu_kernel::layout::JobStatus::Cancelled`] and is counted
//! in [`crate::FaultReport::interrupted_jobs`]. `cfg.engine` selects the
//! rank FIFO depth ([`crate::Engine::fifo_depth`]). Every mode returns
//! [`SimError::BadBand`] for a band the MRAM layout cannot hold (0, or
//! not a multiple of 16) before it launches anything.

use crate::dispatch::{DispatchConfig, DispatchOutcome, Units, ENCODE_RATE};
use crate::encode::Encoder;
use crate::persistent::{with_persistent_engine, Placement};
use crate::report::ExecutionReport;
use dpu_kernel::layout::{JobResult, KernelParams, SeqRef};
use nw_core::seq::{DnaSeq, PackedSeq};
use pim_sim::{PimServer, SimError};

/// Align a list of read pairs (S-dataset shape). Returns the report plus
/// per-pair results in input order.
///
/// Its first pass groups the pairs into `cfg.rounds` rounds over the
/// ranks and LPT-balances each batch over its rank's DPUs.
pub fn align_pairs(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    pairs: &[(DnaSeq, DnaSeq)],
) -> Result<(ExecutionReport, Vec<JobResult>), SimError> {
    cfg.params.check_band()?;
    // On-the-fly 2-bit encode (§4.1.1).
    let mut encoder = Encoder::new(0xDA7A);
    let packed: Vec<(PackedSeq, PackedSeq)> = pairs
        .iter()
        .map(|(a, b)| (encoder.encode_seq(a), encoder.encode_seq(b)))
        .collect();
    let encode_seconds = encoder.stats().ascii_bytes as f64 / ENCODE_RATE;
    let (outcome, results) = run_ticket(server, cfg, cfg.params, Units::pairs(packed), None)?;
    let report = make_report("pairs", encode_seconds, &results, outcome);
    Ok((report, results))
}

/// Run `units` as one job ticket of a fresh engine on `server`, first
/// pass as `placement` places it (or grouped over `cfg.rounds`), and
/// return its simulated clock, fault report and pipeline metrics with its
/// results in slot order.
fn run_ticket(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    params: KernelParams,
    units: Units,
    placement: Option<Placement>,
) -> Result<(DispatchOutcome, Vec<JobResult>), SimError> {
    let done = with_persistent_engine(
        server,
        &cfg.kernel,
        params,
        &cfg.recovery,
        cfg.engine.fifo_depth(),
        cfg.sim_threads,
        |ctl| {
            let ticket = ctl.submit_units(units, cfg.rounds, placement);
            ctl.resolve(ticket)
        },
    )?;
    let mut outcome = done.outcome;
    outcome.fault = done.fault;
    Ok((outcome, done.results))
}

/// The DPUs a fresh engine on `server` can plan onto, rank-major: every
/// DPU not disabled at boot. On a healthy server that is every DPU, and
/// DPU `d` of rank `r` is entry `r × dpus + d`.
fn usable_dpus(server: &PimServer) -> Vec<(usize, usize)> {
    let dpus = server.cfg().dpus_per_rank;
    (0..server.rank_count())
        .flat_map(|r| (0..dpus).map(move |d| (r, d)))
        .filter(|&(r, d)| server.rank(r).is_ok_and(|rank| rank.dpu_enabled(d)))
        .collect()
}

/// A placement that runs `bins[k]`'s units on `dpus[k]`, empty bins
/// idle.
fn place(
    server: &PimServer,
    dpus: &[(usize, usize)],
    bins: impl IntoIterator<Item = Vec<usize>>,
) -> Placement {
    let mut placement: Placement = vec![Vec::new(); server.rank_count()];
    for (&(r, d), bin) in dpus.iter().zip(bins) {
        if !bin.is_empty() {
            placement[r].push((d, bin));
        }
    }
    placement
}

/// All-vs-all score-only comparison over one sequence set (16S shape).
/// Returns the report plus, for each pair `(i, j)` with `i < j` in
/// lexicographic order, the score result.
pub fn all_vs_all(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    seqs: &[DnaSeq],
) -> Result<(ExecutionReport, Vec<JobResult>), SimError> {
    cfg.params.check_band()?;
    let mram = server.cfg().dpu.mram_size;
    let mut params = cfg.params;
    params.score_only = true; // §5.3: scores without CIGARs

    // Build the broadcast arena in the top half of MRAM.
    let arena_base = mram / 2;
    let mut encoder = Encoder::new(0x165);
    let mut arena_bytes: Vec<u8> = Vec::new();
    let mut packed: Vec<PackedSeq> = Vec::with_capacity(seqs.len());
    let mut refs: Vec<SeqRef> = Vec::with_capacity(seqs.len());
    for s in seqs {
        let p = encoder.encode_seq(s);
        let off = arena_base + arena_bytes.len();
        refs.push(SeqRef {
            off: off as u32,
            len: p.len() as u32,
        });
        arena_bytes.extend_from_slice(p.as_bytes());
        while !arena_bytes.len().is_multiple_of(8) {
            arena_bytes.push(0);
        }
        packed.push(p);
    }
    if arena_base + arena_bytes.len() > mram {
        return Err(SimError::MramOutOfBounds {
            offset: arena_base,
            len: arena_bytes.len(),
            mram_size: mram,
        });
    }
    let encode_seconds = encoder.stats().ascii_bytes as f64 / ENCODE_RATE;
    // Every DPU up at boot receives the arena, and the engine plans onto
    // no other, so a retry can land on any DPU it uses. No fault rewrites
    // it: launch faults and hangs run nothing past the batch's footprint,
    // which stays below `arena_base`, and both corruption faults touch
    // only readback copies and result records.
    server.broadcast_to_mram(arena_base, &arena_bytes)?;

    // Static split: equal pair counts per DPU, in pair order (§5.3).
    let units = Units::broadcast(packed, refs, arena_base);
    let dpus = usable_dpus(server);
    let per_dpu = units.len().div_ceil(dpus.len().max(1)).max(1);
    let bins = (0..dpus.len()).map(|k| {
        let lo = (k * per_dpu).min(units.len());
        let hi = ((k + 1) * per_dpu).min(units.len());
        (lo..hi).collect()
    });
    let placement = place(server, &dpus, bins);

    let (mut outcome, results) = run_ticket(server, cfg, params, units, Some(placement))?;
    // The broadcast is one bus transfer, not per-DPU (§5.3's "broadcast
    // mechanism ... limits the data transfer footprint").
    outcome.bytes_in += arena_bytes.len() as u64;
    outcome.transfer_seconds += arena_bytes.len() as f64 / server.cfg().host_bandwidth;
    let report = make_report("all-vs-all", encode_seconds, &results, outcome);
    Ok((report, results))
}

/// A set of reads to align all-against-all (PacBio shape).
pub type ReadSetSeqs = Vec<DnaSeq>;

/// Align sets of reads (PacBio consensus shape). Returns the report plus
/// per-set, per-pair results: `results[s]` holds set `s`'s pairs in
/// `(i, j), i < j` order.
pub fn align_sets(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    sets: &[ReadSetSeqs],
) -> Result<(ExecutionReport, Vec<Vec<JobResult>>), SimError> {
    cfg.params.check_band()?;
    // Encode each read once.
    let mut encoder = Encoder::new(0x9AC);
    let packed_sets: Vec<Vec<PackedSeq>> = sets
        .iter()
        .map(|reads| reads.iter().map(|r| encoder.encode_seq(r)).collect())
        .collect();
    let encode_seconds = encoder.stats().ascii_bytes as f64 / ENCODE_RATE;

    // LPT whole sets over all DPUs (a set's pairs share its reads, so a set
    // never splits across DPUs — the locality §5.4 relies on).
    let units = Units::sets(packed_sets);
    let set_workloads: Vec<u64> = (0..units.len())
        .map(|u| units.workload(u, cfg.params.band))
        .collect();
    let dpus = usable_dpus(server);
    let bins = crate::balance::lpt_assign(&set_workloads, dpus.len().max(1));
    let placement = place(server, &dpus, bins);

    let (outcome, flat) = run_ticket(server, cfg, cfg.params, units, Some(placement))?;
    let report = make_report("sets", encode_seconds, &flat, outcome);

    // Regroup per set.
    let mut grouped: Vec<Vec<JobResult>> = Vec::with_capacity(sets.len());
    let mut it = flat.into_iter();
    for reads in sets {
        let count = reads.len() * (reads.len().saturating_sub(1)) / 2;
        grouped.push(it.by_ref().take(count).collect());
    }
    Ok((report, grouped))
}

fn make_report(
    mode: &'static str,
    encode_seconds: f64,
    results: &[JobResult],
    outcome: DispatchOutcome,
) -> ExecutionReport {
    let failed = results
        .iter()
        .filter(|r| r.status != dpu_kernel::layout::JobStatus::Ok)
        .count();
    ExecutionReport {
        mode,
        alignments: results.len(),
        ok: results.len() - failed,
        failed,
        transfer_in_bytes: outcome.bytes_in,
        transfer_out_bytes: outcome.bytes_out,
        transfer_seconds: outcome.transfer_seconds,
        encode_seconds,
        dpu_seconds: outcome.dpu_seconds,
        rank_seconds: outcome.rank_seconds,
        stats: outcome.stats,
        workload: outcome.workload,
        mean_rank_imbalance: outcome.mean_rank_imbalance,
        fault: outcome.fault,
        pipeline: outcome.pipeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_kernel::{KernelParams, KernelVariant, NwKernel, PoolConfig};
    use nw_core::adaptive::AdaptiveAligner;
    use nw_core::ScoringScheme;
    use pim_sim::ServerConfig;

    fn seq(text: &str) -> DnaSeq {
        DnaSeq::from_ascii(text.as_bytes()).unwrap()
    }

    fn small_server() -> PimServer {
        let mut cfg = ServerConfig::with_ranks(2);
        cfg.dpus_per_rank = 4;
        PimServer::new(cfg)
    }

    fn config() -> DispatchConfig {
        let kernel = NwKernel::new(
            PoolConfig {
                pools: 2,
                tasklets: 4,
            },
            KernelVariant::Asm,
        );
        let params = KernelParams {
            band: 16,
            scheme: ScoringScheme::default(),
            score_only: false,
        };
        DispatchConfig::new(kernel, params)
    }

    fn mutated_pairs(n: usize) -> Vec<(DnaSeq, DnaSeq)> {
        (0..n)
            .map(|k| {
                let a = "GATTACAT".repeat(6 + k % 4);
                let mut b = a.clone();
                b.insert_str(3 + k % 5, "CG");
                (seq(&a), seq(&b))
            })
            .collect()
    }

    #[test]
    fn align_pairs_matches_host_aligner() {
        let pairs = mutated_pairs(10);
        let cfg = config();
        let mut server = small_server();
        let (report, results) = align_pairs(&mut server, &cfg, &pairs).unwrap();
        assert_eq!(results.len(), 10);
        assert_eq!(report.alignments, 10);
        assert_eq!(report.failed, 0);
        let reference = AdaptiveAligner::new(cfg.params.scheme, cfg.params.band);
        for (r, (a, b)) in results.iter().zip(&pairs) {
            let host = reference.align(a, b).unwrap();
            assert_eq!(r.score, host.score);
            assert_eq!(r.cigar, host.cigar);
        }
        assert!(report.total_seconds() > 0.0);
        assert!(report.transfer_in_bytes > 0);
        assert!(report.workload > 0);
    }

    #[test]
    fn all_vs_all_scores_every_pair() {
        let seqs: Vec<DnaSeq> = (0..6)
            .map(|k| {
                let mut t = "ACGTGGTCAT".repeat(5);
                t.insert(k + 2, 'T');
                seq(&t)
            })
            .collect();
        let cfg = config();
        let mut server = small_server();
        let (report, results) = all_vs_all(&mut server, &cfg, &seqs).unwrap();
        assert_eq!(results.len(), 15);
        assert_eq!(report.alignments, 15);
        let reference = AdaptiveAligner::new(cfg.params.scheme, cfg.params.band);
        let mut idx = 0;
        for i in 0..6 {
            for j in (i + 1)..6 {
                let host = reference.score(&seqs[i], &seqs[j]).unwrap();
                assert_eq!(results[idx].score, host, "pair ({i},{j})");
                assert!(results[idx].cigar.runs().is_empty(), "score-only mode");
                idx += 1;
            }
        }
    }

    #[test]
    fn align_sets_groups_results_per_set() {
        let sets: Vec<Vec<DnaSeq>> = (0..3)
            .map(|s| {
                (0..3 + s)
                    .map(|k| {
                        let mut t = "ACGTTGCAGG".repeat(4);
                        t.insert_str(5 + k, "AA");
                        seq(&t)
                    })
                    .collect()
            })
            .collect();
        let cfg = config();
        let mut server = small_server();
        let (report, grouped) = align_sets(&mut server, &cfg, &sets).unwrap();
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[0].len(), 3); // C(3,2)
        assert_eq!(grouped[1].len(), 6); // C(4,2)
        assert_eq!(grouped[2].len(), 10); // C(5,2)
        assert_eq!(report.alignments, 19);
        let reference = AdaptiveAligner::new(cfg.params.scheme, cfg.params.band);
        for (s, set) in sets.iter().enumerate() {
            let mut idx = 0;
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    let host = reference.align(&set[i], &set[j]).unwrap();
                    assert_eq!(grouped[s][idx].score, host.score, "set {s} pair ({i},{j})");
                    assert_eq!(grouped[s][idx].cigar, host.cigar);
                    idx += 1;
                }
            }
        }
    }

    #[test]
    fn broadcast_transfers_less_than_per_pair_shipping() {
        // 16S claim: broadcasting the dataset once moves far fewer bytes
        // than shipping both sequences of every pair.
        let seqs: Vec<DnaSeq> = (0..12)
            .map(|k| {
                let mut t = "ACGTGGTCAT".repeat(24);
                t.insert(k, 'C');
                seq(&t)
            })
            .collect();
        let cfg = config();
        let mut server = small_server();
        let (rep_bcast, _) = all_vs_all(&mut server, &cfg, &seqs).unwrap();

        let mut pairs = Vec::new();
        for i in 0..seqs.len() {
            for j in (i + 1)..seqs.len() {
                pairs.push((seqs[i].clone(), seqs[j].clone()));
            }
        }
        let mut cfg2 = config();
        cfg2.params.score_only = true;
        let mut server2 = small_server();
        let (rep_pairs, _) = align_pairs(&mut server2, &cfg2, &pairs).unwrap();
        assert!(
            rep_bcast.transfer_in_bytes < rep_pairs.transfer_in_bytes / 2,
            "broadcast {} vs pairs {}",
            rep_bcast.transfer_in_bytes,
            rep_pairs.transfer_in_bytes
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        let cfg = config();
        let mut server = small_server();
        let (report, results) = align_pairs(&mut server, &cfg, &[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(report.alignments, 0);
    }

    /// A band the layout cannot hold is a typed error from every mode, even
    /// with nothing to align, never a panic in the batch builder.
    #[test]
    fn a_band_the_layout_cannot_hold_is_an_error() {
        let pairs = mutated_pairs(3);
        let seqs: Vec<DnaSeq> = pairs.iter().map(|(a, _)| a.clone()).collect();
        let sets = vec![seqs.clone()];
        for band in [0, 8, 24, 100] {
            let mut cfg = config();
            cfg.params.band = band;
            let mut server = small_server();
            let want = SimError::BadBand { band };
            for input in [&pairs[..], &[]] {
                let err = align_pairs(&mut server, &cfg, input).unwrap_err();
                assert_eq!(err, want);
            }
            assert_eq!(all_vs_all(&mut server, &cfg, &seqs).unwrap_err(), want);
            assert_eq!(align_sets(&mut server, &cfg, &sets).unwrap_err(), want);
            let mut cache = crate::ResultCache::new(8);
            let err = crate::cache::align_pairs_cached(&mut server, &cfg, &pairs, &mut cache);
            assert_eq!(err.unwrap_err(), want);
        }
    }
}
