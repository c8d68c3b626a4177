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
//! Each mode plans its batches up front and runs them as one strict
//! ticket of the persistent engine ([`crate::persistent`]): the first
//! fault aborts with its typed error. `cfg.engine` selects the rank FIFO
//! depth ([`crate::Engine::fifo_depth`]).

use crate::dispatch::{group_jobs, plan_rank, DispatchConfig, DpuPlan, RankPlan, ENCODE_RATE};
use crate::encode::Encoder;
use crate::persistent::run_strict;
use crate::report::ExecutionReport;
use dpu_kernel::layout::{JobBatchBuilder, JobResult, SeqRef};
use nw_core::seq::{DnaSeq, PackedSeq};
use pim_sim::{PimServer, SimError};
use std::time::Instant;

/// Align a list of read pairs (S-dataset shape). Returns the report plus
/// per-pair results in input order.
pub fn align_pairs(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    pairs: &[(DnaSeq, DnaSeq)],
) -> Result<(ExecutionReport, Vec<JobResult>), SimError> {
    let n_ranks = server.rank_count();
    let dpus = server.cfg().dpus_per_rank;
    let mram = server.cfg().dpu.mram_size;
    let pools = cfg.kernel.pool_cfg.pools;

    // On-the-fly 2-bit encode (§4.1.1).
    let mut encoder = Encoder::new(0xDA7A);
    let packed: Vec<(PackedSeq, PackedSeq)> = pairs
        .iter()
        .map(|(a, b)| (encoder.encode_seq(a), encoder.encode_seq(b)))
        .collect();
    let encode_seconds = encoder.stats().ascii_bytes as f64 / ENCODE_RATE;

    // Group into rounds x ranks balanced batches (eq.-6 workload units,
    // same model the per-rank LPT uses), then LPT within each.
    let workloads = crate::balance::pair_workloads(&packed, cfg.params.band);
    let rounds_n = cfg.rounds.max(1);
    let groups = group_jobs(&workloads, rounds_n * n_ranks);

    let plan_start = Instant::now();
    let mut rounds = Vec::with_capacity(rounds_n);
    for k in 0..rounds_n {
        let mut plans = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            let ids = &groups[k * n_ranks + r];
            let jobs: Vec<(PackedSeq, PackedSeq)> =
                ids.iter().map(|&i| packed[i].clone()).collect();
            plans.push(plan_rank(&jobs, ids, dpus, cfg.params, pools, mram)?);
        }
        rounds.push(plans);
    }
    let plan_seconds = plan_start.elapsed().as_secs_f64();

    let mut outcome = run_strict(
        server,
        &cfg.kernel,
        rounds,
        cfg.engine.fifo_depth(),
        cfg.sim_threads,
    )?;
    if let Some(m) = &mut outcome.pipeline {
        m.plan_seconds += plan_seconds;
    }
    let results = scatter(std::mem::take(&mut outcome.results), pairs.len());
    let mut report = make_report("pairs", encode_seconds, &results, outcome);
    if cfg.audit {
        // Host-side end-to-end audit of the strict path: every returned
        // alignment is validated against its sequences and rescored. On a
        // healthy server this is a (counted) no-op; the counts make "zero
        // wrong results delivered" checkable from the report.
        for (pair, res) in packed.iter().zip(&results) {
            report.fault.audit_checked += 1;
            if !crate::recovery::audit_ok(pair, res, &cfg.params.scheme) {
                report.fault.audit_failures += 1;
            }
        }
    }
    Ok((report, results))
}

/// All-vs-all score-only comparison over one sequence set (16S shape).
/// Returns the report plus, for each pair `(i, j)` with `i < j` in
/// lexicographic order, the score result.
pub fn all_vs_all(
    server: &mut PimServer,
    cfg: &DispatchConfig,
    seqs: &[DnaSeq],
) -> Result<(ExecutionReport, Vec<JobResult>), SimError> {
    let n_ranks = server.rank_count();
    let dpus = server.cfg().dpus_per_rank;
    let mram = server.cfg().dpu.mram_size;
    let pools = cfg.kernel.pool_cfg.pools;
    let mut params = cfg.params;
    params.score_only = true; // §5.3: scores without CIGARs

    // Build the broadcast arena in the top half of MRAM.
    let arena_base = mram / 2;
    let mut encoder = Encoder::new(0x165);
    let mut arena_bytes: Vec<u8> = Vec::new();
    let mut refs: Vec<SeqRef> = Vec::with_capacity(seqs.len());
    for s in seqs {
        let packed = encoder.encode_seq(s);
        let off = arena_base + arena_bytes.len();
        refs.push(SeqRef {
            off: off as u32,
            len: packed.len() as u32,
        });
        arena_bytes.extend_from_slice(packed.as_bytes());
        while !arena_bytes.len().is_multiple_of(8) {
            arena_bytes.push(0);
        }
    }
    if arena_base + arena_bytes.len() > mram {
        return Err(SimError::MramOutOfBounds {
            offset: arena_base,
            len: arena_bytes.len(),
            mram_size: mram,
        });
    }
    let encode_seconds = encoder.stats().ascii_bytes as f64 / ENCODE_RATE;
    server.broadcast_to_mram(arena_base, &arena_bytes)?;

    // Static split: equal pair counts per DPU (§5.3).
    let n = seqs.len();
    let mut pair_ids: Vec<(usize, usize)> = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pair_ids.push((i, j));
        }
    }
    let total_dpus = n_ranks * dpus;
    let per_dpu = pair_ids.len().div_ceil(total_dpus.max(1)).max(1);
    let mut plans: Vec<RankPlan> = Vec::with_capacity(n_ranks);
    for r in 0..n_ranks {
        let mut rank_plan = RankPlan {
            params: Some(params),
            ..Default::default()
        };
        for d in 0..dpus {
            let dpu_idx = r * dpus + d;
            let lo = (dpu_idx * per_dpu).min(pair_ids.len());
            let hi = ((dpu_idx + 1) * per_dpu).min(pair_ids.len());
            if lo >= hi {
                rank_plan.dpus.push(None);
                continue;
            }
            let mut builder = JobBatchBuilder::new(params, pools);
            builder.set_footprint_limit(arena_base);
            let mut job_ids = Vec::with_capacity(hi - lo);
            for (offset, &(i, j)) in pair_ids[lo..hi].iter().enumerate() {
                builder.add_pair_external(refs[i], refs[j]);
                job_ids.push(lo + offset);
            }
            rank_plan.dpus.push(Some(DpuPlan {
                job_ids,
                batch: builder.build(mram)?,
            }));
        }
        plans.push(rank_plan);
    }

    let mut outcome = run_strict(
        server,
        &cfg.kernel,
        vec![plans],
        cfg.engine.fifo_depth(),
        cfg.sim_threads,
    )?;
    // The broadcast is one bus transfer, not per-DPU (§5.3's "broadcast
    // mechanism ... limits the data transfer footprint").
    outcome.bytes_in += arena_bytes.len() as u64;
    outcome.transfer_seconds += arena_bytes.len() as f64 / server.cfg().host_bandwidth;
    let results = scatter(std::mem::take(&mut outcome.results), pair_ids.len());
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
    let n_ranks = server.rank_count();
    let dpus = server.cfg().dpus_per_rank;
    let mram = server.cfg().dpu.mram_size;
    let pools = cfg.kernel.pool_cfg.pools;
    let band = cfg.params.band;

    // Encode each read once.
    let mut encoder = Encoder::new(0x9AC);
    let packed_sets: Vec<Vec<PackedSeq>> = sets
        .iter()
        .map(|reads| reads.iter().map(|r| encoder.encode_seq(r)).collect())
        .collect();
    let encode_seconds = encoder.stats().ascii_bytes as f64 / ENCODE_RATE;

    // LPT whole sets over all DPUs (a set's pairs share its reads, so a set
    // never splits across DPUs — the locality §5.4 relies on).
    let set_workloads: Vec<u64> = packed_sets
        .iter()
        .map(|reads| {
            let mut wl = 0u64;
            for i in 0..reads.len() {
                for j in (i + 1)..reads.len() {
                    wl += crate::balance::workload(reads[i].len(), reads[j].len(), band);
                }
            }
            wl
        })
        .collect();
    let total_dpus = n_ranks * dpus;
    let assignment = crate::balance::lpt_assign(&set_workloads, total_dpus);

    // Global pair ids: sets in order, pairs in (i, j) order within a set.
    let mut set_pair_base: Vec<usize> = Vec::with_capacity(sets.len());
    let mut next = 0usize;
    for reads in &packed_sets {
        set_pair_base.push(next);
        next += reads.len() * (reads.len().saturating_sub(1)) / 2;
    }
    let total_pairs = next;

    let mut plans: Vec<RankPlan> = Vec::with_capacity(n_ranks);
    for r in 0..n_ranks {
        let mut rank_plan = RankPlan {
            params: Some(cfg.params),
            ..Default::default()
        };
        for d in 0..dpus {
            let bin = &assignment[r * dpus + d];
            if bin.is_empty() {
                rank_plan.dpus.push(None);
                continue;
            }
            let mut builder = JobBatchBuilder::new(cfg.params, pools);
            let mut job_ids = Vec::new();
            for &set_idx in bin {
                let reads = &packed_sets[set_idx];
                let arena_ids: Vec<usize> =
                    reads.iter().map(|p| builder.add_seq(p.clone())).collect();
                let mut pair_no = 0usize;
                for i in 0..reads.len() {
                    for j in (i + 1)..reads.len() {
                        builder.add_pair_idx(arena_ids[i], arena_ids[j]);
                        job_ids.push(set_pair_base[set_idx] + pair_no);
                        pair_no += 1;
                    }
                }
            }
            rank_plan.dpus.push(Some(DpuPlan {
                job_ids,
                batch: builder.build(mram)?,
            }));
        }
        plans.push(rank_plan);
    }

    let mut outcome = run_strict(
        server,
        &cfg.kernel,
        vec![plans],
        cfg.engine.fifo_depth(),
        cfg.sim_threads,
    )?;
    let flat = scatter(std::mem::take(&mut outcome.results), total_pairs);
    let report = make_report("sets", encode_seconds, &flat, outcome);

    // Regroup per set.
    let mut grouped: Vec<Vec<JobResult>> = Vec::with_capacity(sets.len());
    let mut it = flat.into_iter();
    for reads in &packed_sets {
        let count = reads.len() * (reads.len().saturating_sub(1)) / 2;
        grouped.push(it.by_ref().take(count).collect());
    }
    Ok((report, grouped))
}

/// Place `(id, result)` pairs into a dense, input-ordered vector. A
/// missing or repeated job id is a dispatch bug and panics.
fn scatter(tagged: Vec<(usize, JobResult)>, len: usize) -> Vec<JobResult> {
    let mut slots: Vec<Option<JobResult>> = (0..len).map(|_| None).collect();
    for (id, r) in tagged {
        assert!(slots[id].is_none(), "job id {id} produced twice");
        slots[id] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(id, s)| s.unwrap_or_else(|| panic!("job id {id} missing")))
        .collect()
}

pub(crate) fn make_report(
    mode: &'static str,
    encode_seconds: f64,
    results: &[JobResult],
    outcome: crate::dispatch::DispatchOutcome,
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
}
