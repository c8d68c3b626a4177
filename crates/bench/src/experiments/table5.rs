//! Table 5 — 16S rRNA all-vs-all comparison for phylogeny (§5.3).
//!
//! Score-only (the phylogeny distance matrix needs no CIGARs), broadcast
//! dataset, static equal split of the pair space. The paper's full dataset
//! is 9 557 sequences (45.7 M pairwise alignments); we simulate a subset of
//! sequences and extrapolate by the pair-count ratio (all-vs-all work grows
//! quadratically in sequences, linearly in pairs).

use super::{dispatch_config, finish_rows, server_sized, xeons, Row};
use crate::tablefmt::{secs, speedup, Table};
use crate::{calibration, ReproConfig, RANK_COUNTS};
use datasets::sixteen_s::SixteenSParams;
use nw_core::banded::BandedAligner;
use nw_core::ScoringScheme;
use pim_host::modes::all_vs_all;
use pim_host::ExecutionReport;

/// The CPU static band for >= 85 % accuracy on 16S (Table 1: 512).
pub const CPU_BAND_16S: usize = 512;

/// Table 5 result.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Sequences simulated.
    pub sim_seqs: usize,
    /// Pairs simulated.
    pub sim_pairs: u64,
    /// Extrapolation factor to the paper's 45.7 M pairs.
    pub factor: f64,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Intra-rank imbalance of the static split (paper: ~5 %).
    pub imbalance: f64,
    /// Reports per rank count.
    pub reports: Vec<(usize, ExecutionReport)>,
}

/// How many sequences to simulate at a given scale: all-vs-all work shrinks
/// with the square root of the scale divisor.
pub fn sim_seq_count(cfg: &ReproConfig) -> usize {
    if cfg.quick {
        return 24;
    }
    let full = SixteenSParams::FULL_COUNT as f64;
    ((full / (cfg.scale as f64).sqrt()) as usize).clamp(64, 512)
}

/// DPUs per simulated rank (thin ranks; see `runtime::sim_dpus_per_rank`).
pub fn sim_dpus_per_rank(cfg: &ReproConfig) -> usize {
    if cfg.quick {
        2
    } else {
        8
    }
}

/// Run Table 5.
pub fn run(cfg: &ReproConfig) -> Table5 {
    let n = sim_seq_count(cfg);
    let params = SixteenSParams {
        count: n,
        root_len: if cfg.quick { 300 } else { 1542 },
        branch_divergence: 0.02,
        seed: cfg.seed + 16,
    };
    let seqs = params.generate();
    let sim_pairs = params.all_vs_all_pairs();
    let full = SixteenSParams::FULL_COUNT as u64;
    let full_pairs = full * (full - 1) / 2;
    let dpus = sim_dpus_per_rank(cfg);
    let pairs_factor = full_pairs as f64 / sim_pairs as f64;
    let factor = pairs_factor * (dpus as f64 / 64.0);

    // CPU projection from static-band cells, score-only rate.
    let cal = calibration();
    let band = if cfg.quick { 64 } else { CPU_BAND_16S };
    let banded = BandedAligner::new(ScoringScheme::default(), band);
    let mut sim_cells = 0u64;
    for i in 0..seqs.len() {
        for j in (i + 1)..seqs.len() {
            sim_cells += banded.cells(seqs[i].len(), seqs[j].len());
        }
    }
    let full_cells = (sim_cells as f64 * pairs_factor) as u64;
    let (x4215, x4216) = xeons();
    let mut rows = vec![
        Row {
            label: x4215.label.into(),
            seconds: x4215.seconds(full_cells, cal, false),
            speedup: 1.0,
        },
        Row {
            label: x4216.label.into(),
            seconds: x4216.seconds(full_cells, cal, false),
            speedup: 1.0,
        },
    ];

    let dcfg = dispatch_config(true);
    let mut reports = Vec::new();
    let mut imbalance = 0.0;
    let rank_counts: Vec<usize> = if cfg.quick {
        vec![2, 4]
    } else {
        RANK_COUNTS.to_vec()
    };
    for &ranks in &rank_counts {
        let mut srv = server_sized(ranks, dpus);
        let (report, _) = all_vs_all(&mut srv, &dcfg, &seqs).expect("16S run");
        rows.push(Row {
            label: format!("DPU {ranks} ranks"),
            seconds: report.total_seconds() * factor,
            speedup: 1.0,
        });
        imbalance = report.mean_rank_imbalance;
        reports.push((ranks, report));
    }

    Table5 {
        sim_seqs: n,
        sim_pairs,
        factor,
        rows: finish_rows(rows),
        imbalance,
        reports,
    }
}

impl Table5 {
    /// Render with paper values.
    pub fn to_markdown(&self) -> String {
        let title = format!(
            "Table 5 — 16S all-vs-all ({} seqs = {} pairs simulated, x{:.0} extrapolation)",
            self.sim_seqs, self.sim_pairs, self.factor
        );
        let mut t = Table::new(
            title,
            &[
                "System",
                "Time (s)",
                "Speedup",
                "Paper time (s)",
                "Paper speedup",
            ],
        );
        for (i, row) in self.rows.iter().enumerate() {
            let (_, p_secs, p_speed) = crate::paper::TABLE5
                .get(i)
                .copied()
                .unwrap_or(("-", 0.0, 0.0));
            t.row(&[
                row.label.clone(),
                secs(row.seconds),
                speedup(row.speedup),
                secs(p_secs),
                speedup(p_speed),
            ]);
        }
        t.note(format!(
            "static split imbalance {:.1}% (paper: ~5%); score-only mode, dataset broadcast once",
            100.0 * self.imbalance
        ));
        t.to_markdown()
    }

    /// Shape checks: near-linear rank scaling (the paper calls 16S scaling
    /// "linear" thanks to the single broadcast).
    pub fn shape_holds(&self) -> Result<(), String> {
        let dpu: Vec<&Row> = self
            .rows
            .iter()
            .filter(|r| r.label.starts_with("DPU"))
            .collect();
        for pair in dpu.windows(2) {
            let ratio = pair[0].seconds / pair[1].seconds;
            if !(1.4..=2.4).contains(&ratio) {
                return Err(format!("16S rank doubling gave x{ratio:.2}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table5_shape() {
        let t = run(&ReproConfig::quick());
        assert_eq!(t.sim_pairs, 24 * 23 / 2);
        assert!(t.factor > 1.0);
        t.shape_holds().unwrap();
        assert!(t.to_markdown().contains("Table 5"));
        // All DPU configs beat nothing in particular at quick scale, but
        // times must be positive and finite.
        for r in &t.rows {
            assert!(r.seconds.is_finite() && r.seconds > 0.0, "{r:?}");
        }
    }

    #[test]
    fn seq_count_scales_with_sqrt() {
        let a = sim_seq_count(&ReproConfig {
            scale: 100,
            quick: false,
            seed: 0,
        });
        let b = sim_seq_count(&ReproConfig {
            scale: 400,
            quick: false,
            seed: 0,
        });
        assert!(a > b);
        assert!(a <= 512 && b >= 64);
    }
}
