//! Tables 2–4 — runtime on the synthetic pair datasets (§5.2).
//!
//! For each dataset the paper reports: the two Xeon baselines at the CPU
//! band that reaches 100 % accuracy (128/256/512 for S1000/S10000/S30000 —
//! the static band needs doubling as reads grow), and the DPU server at
//! 10/20/40 ranks with the adaptive band fixed at 128.
//!
//! We run the scaled dataset through the full simulated pipeline and
//! extrapolate linearly to the paper's pair counts; the Xeon rows are
//! projected from the DP cells the static band evaluates at measured
//! cells/second (see `cpu-baseline::calibrate`).

use super::{dispatch_config, finish_rows, scaled_pairs, server_sized, xeons, Row};
use crate::tablefmt::{secs, speedup, Table};
use crate::{calibration, ReproConfig, RANK_COUNTS};
use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use nw_core::banded::BandedAligner;
use nw_core::seq::DnaSeq;
use nw_core::ScoringScheme;
use pim_host::modes::align_pairs;
use pim_host::ExecutionReport;

/// The CPU static band minimap2 needs for 100 % accuracy per dataset
/// (Table 1: 128 / 256 / 512).
pub fn cpu_band(preset: SyntheticPreset) -> usize {
    match preset {
        SyntheticPreset::S1000 => 128,
        SyntheticPreset::S10000 => 256,
        SyntheticPreset::S30000 => 512,
    }
}

/// One runtime table (2, 3 or 4).
#[derive(Debug, Clone)]
pub struct RuntimeTable {
    /// Dataset preset.
    pub preset: SyntheticPreset,
    /// Pairs simulated.
    pub sim_pairs: usize,
    /// Linear extrapolation factor to the paper's full pair count.
    pub factor: f64,
    /// Result rows (Xeons first, then DPU rank counts).
    pub rows: Vec<Row>,
    /// The S1000 / S30000 host-overhead observation (§5 text).
    pub host_overhead: f64,
    /// Pipeline utilization of the DPU runs.
    pub utilization: f64,
    /// Reports per rank count (for further inspection).
    pub reports: Vec<(usize, ExecutionReport)>,
}

/// DPUs per simulated rank. The paper's ranks have 64 DPUs; simulating
/// them fully for long reads would need tens of thousands of pairs to keep
/// every DPU loaded (the regime the paper's scaling lives in), so long-read
/// presets use *thin ranks* — fewer DPUs per rank, same 10/20/40 rank
/// counts — and the extrapolation multiplies by the thinning ratio. Rank
/// scaling itself stays a measured quantity.
pub fn sim_dpus_per_rank(cfg: &ReproConfig, preset: SyntheticPreset) -> usize {
    if cfg.quick {
        return 2;
    }
    match preset {
        SyntheticPreset::S1000 => 8,
        SyntheticPreset::S10000 => 2,
        SyntheticPreset::S30000 => 1,
    }
}

/// Run one synthetic dataset's runtime comparison.
pub fn run(cfg: &ReproConfig, preset: SyntheticPreset) -> RuntimeTable {
    let dpus = sim_dpus_per_rank(cfg, preset);
    let max_ranks: usize = if cfg.quick {
        4
    } else {
        *RANK_COUNTS.last().unwrap()
    };
    // >= 2 pool-loads per DPU of the largest simulated server so the
    // rank-scaling shape is measurable (P = 6 pools per DPU).
    let min_pairs = (12 * max_ranks * dpus) as u64;
    let sim_pairs = scaled_pairs(cfg, preset.full_pairs(), min_pairs);
    // CPU rows extrapolate by pair count alone; DPU rows additionally by
    // the rank-thinning ratio (their simulated ranks have `dpus` DPUs).
    let pairs_factor = preset.full_pairs() as f64 / sim_pairs as f64;
    let factor = pairs_factor * (dpus as f64 / 64.0);
    let mut params = SyntheticParams::preset(preset, cfg.seed);
    if cfg.quick {
        params.read_len = preset.read_len().min(600);
    }
    let pairs: Vec<(DnaSeq, DnaSeq)> = params.generate(sim_pairs);

    // --- CPU rows: cells at the CPU band, projected to the Xeons. ---
    let cal = calibration();
    let band = if cfg.quick { 64 } else { cpu_band(preset) };
    let banded = BandedAligner::new(ScoringScheme::default(), band);
    let sim_cells: u64 = pairs
        .iter()
        .map(|(a, b)| banded.cells(a.len(), b.len()))
        .sum();
    let full_cells = (sim_cells as f64 * pairs_factor) as u64;
    let (x4215, x4216) = xeons();
    let mut rows = vec![
        Row {
            label: x4215.label.into(),
            seconds: x4215.seconds(full_cells, cal, true),
            speedup: 1.0,
        },
        Row {
            label: x4216.label.into(),
            seconds: x4216.seconds(full_cells, cal, true),
            speedup: 1.0,
        },
    ];

    // --- DPU rows: full simulated pipeline at 10/20/40 ranks. ---
    let dcfg = dispatch_config(false);
    let mut reports = Vec::new();
    let mut host_overhead = 0.0;
    let mut utilization = 0.0;
    let rank_counts: Vec<usize> = if cfg.quick {
        vec![2, 4]
    } else {
        RANK_COUNTS.to_vec()
    };
    for &ranks in &rank_counts {
        let mut srv = server_sized(ranks, dpus);
        let (report, _results) = align_pairs(&mut srv, &dcfg, &pairs).expect("pipeline run");
        rows.push(Row {
            label: format!("DPU {ranks} ranks"),
            seconds: report.total_seconds() * factor,
            speedup: 1.0,
        });
        host_overhead = report.host_overhead_fraction();
        utilization = report.pipeline_utilization();
        reports.push((ranks, report));
    }

    RuntimeTable {
        preset,
        sim_pairs,
        factor,
        rows: finish_rows(rows),
        host_overhead,
        utilization,
        reports,
    }
}

impl RuntimeTable {
    /// The paper's table for this preset.
    pub fn paper_rows(&self) -> &'static [crate::paper::RuntimeRow; 5] {
        match self.preset {
            SyntheticPreset::S1000 => &crate::paper::TABLE2,
            SyntheticPreset::S10000 => &crate::paper::TABLE3,
            SyntheticPreset::S30000 => &crate::paper::TABLE4,
        }
    }

    /// Table number in the paper.
    pub fn table_no(&self) -> usize {
        match self.preset {
            SyntheticPreset::S1000 => 2,
            SyntheticPreset::S10000 => 3,
            SyntheticPreset::S30000 => 4,
        }
    }

    /// Render with paper values side by side.
    pub fn to_markdown(&self) -> String {
        let title = format!(
            "Table {} — runtime on {} ({} pairs simulated, x{:.0} extrapolation)",
            self.table_no(),
            self.preset.label(),
            self.sim_pairs,
            self.factor
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
        let paper = self.paper_rows();
        for (i, row) in self.rows.iter().enumerate() {
            let (p_label, p_secs, p_speed) = paper.get(i).copied().unwrap_or(("-", 0.0, 0.0));
            let _ = p_label;
            t.row(&[
                row.label.clone(),
                secs(row.seconds),
                speedup(row.speedup),
                secs(p_secs),
                speedup(p_speed),
            ]);
        }
        t.note(format!(
            "host overhead {:.1}% (paper: 15% on S1000 shrinking to <0.1% on S30000); pipeline utilization {:.0}%",
            100.0 * self.host_overhead,
            100.0 * self.utilization
        ));
        t.to_markdown()
    }

    /// Shape checks: DPU scales ~linearly with ranks; more ranks never
    /// slower; the largest server beats the 4215 baseline on long reads.
    pub fn shape_holds(&self) -> Result<(), String> {
        let dpu_rows: Vec<&Row> = self
            .rows
            .iter()
            .filter(|r| r.label.starts_with("DPU"))
            .collect();
        for pair in dpu_rows.windows(2) {
            if pair[1].seconds > pair[0].seconds * 1.05 {
                return Err(format!(
                    "more ranks got slower: {} {}s -> {} {}s",
                    pair[0].label, pair[0].seconds, pair[1].label, pair[1].seconds
                ));
            }
            let ratio = pair[0].seconds / pair[1].seconds;
            if !(1.2..=2.6).contains(&ratio) {
                return Err(format!(
                    "rank doubling gave x{ratio:.2} ({} -> {})",
                    pair[0].label, pair[1].label
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_runtime_shape() {
        let cfg = ReproConfig::quick();
        let t = run(&cfg, SyntheticPreset::S1000);
        assert!(t.rows.len() >= 4);
        assert!((t.rows[0].speedup - 1.0).abs() < 1e-9);
        t.shape_holds().unwrap();
        // The 4216 projection must beat the 4215 sublinearly.
        let r4215 = t.rows[0].seconds;
        let r4216 = t.rows[1].seconds;
        assert!(r4216 < r4215);
        assert!(r4215 / r4216 < 2.0);
        assert!(t.to_markdown().contains("Table 2"));
    }

    #[test]
    fn cpu_bands_match_table1() {
        assert_eq!(cpu_band(SyntheticPreset::S1000), 128);
        assert_eq!(cpu_band(SyntheticPreset::S10000), 256);
        assert_eq!(cpu_band(SyntheticPreset::S30000), 512);
    }
}
