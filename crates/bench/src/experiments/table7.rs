//! Table 7 — hand-optimized assembly vs pure C DPU kernels (§5.5).
//!
//! The same five workloads run twice, once per kernel build; the speedup is
//! the ratio of simulated DPU times. The per-cell instruction counts behind
//! the timing are *measured* by interpreting the two inner loops in the
//! mini DPU ISA (`dpu-kernel::isa_loops`), so the table emerges from the
//! instruction streams.

use super::{dpus_per_rank, server_sized, DPU_BAND};
use crate::tablefmt::{secs, Table};
use crate::ReproConfig;
use datasets::pacbio::PacbioParams;
use datasets::sixteen_s::SixteenSParams;
use datasets::synthetic::{SyntheticParams, SyntheticPreset};
use datasets::ErrorModel;
use dpu_kernel::{CellCosts, KernelParams, KernelVariant, NwKernel, PoolConfig};
use pim_host::dispatch::DispatchConfig;
use pim_host::modes::{align_pairs, align_sets, all_vs_all};

/// One dataset's asm-vs-C comparison.
#[derive(Debug, Clone)]
pub struct VariantRow {
    /// Dataset label.
    pub name: &'static str,
    /// Simulated seconds with the pure C kernel (extrapolated).
    pub pure_c: f64,
    /// Simulated seconds with the asm kernel (extrapolated).
    pub asm: f64,
}

impl VariantRow {
    /// The speedup (Table 7's bottom row).
    pub fn speedup(&self) -> f64 {
        self.pure_c / self.asm
    }
}

/// Table 7 result.
#[derive(Debug, Clone)]
pub struct Table7 {
    /// Per-dataset rows.
    pub rows: Vec<VariantRow>,
    /// Measured instructions/cell: (C with BT, asm with BT, C score-only,
    /// asm score-only).
    pub instr_per_cell: (f64, f64, f64, f64),
}

fn kernel(variant: KernelVariant) -> NwKernel {
    NwKernel::new(PoolConfig::default(), variant)
}

fn config(variant: KernelVariant, score_only: bool, quick: bool) -> DispatchConfig {
    let band = if quick { 32 } else { DPU_BAND };
    let params = KernelParams {
        band,
        score_only,
        ..KernelParams::paper_default()
    };
    DispatchConfig::new(kernel(variant), params)
}

/// Run Table 7.
pub fn run(cfg: &ReproConfig) -> Table7 {
    let ranks = if cfg.quick { 2 } else { 4 };
    let dpus = dpus_per_rank(cfg);
    let (n1, n2, n3, n16, npb) = if cfg.quick {
        (12, 2, 1, 12, 2)
    } else {
        (192, 24, 8, 72, 4)
    };
    let len_cap = if cfg.quick { 400 } else { usize::MAX };

    let mut rows = Vec::new();
    // The three synthetic pair datasets.
    for (preset, count) in [
        (SyntheticPreset::S1000, n1),
        (SyntheticPreset::S10000, n2),
        (SyntheticPreset::S30000, n3),
    ] {
        let mut p = SyntheticParams::preset(preset, cfg.seed + 70);
        p.read_len = p.read_len.min(len_cap);
        let pairs = p.generate(count);
        let time = |variant: KernelVariant| -> f64 {
            let c = config(variant, false, cfg.quick);
            let mut srv = server_sized(ranks, dpus);
            let (report, _) = align_pairs(&mut srv, &c, &pairs).expect("run");
            assert!(report.fault.is_clean(), "{}", report.fault.summary());
            report.dpu_seconds
        };
        rows.push(VariantRow {
            name: preset.label(),
            pure_c: time(KernelVariant::PureC),
            asm: time(KernelVariant::Asm),
        });
    }
    // 16S (score-only).
    {
        let seqs = SixteenSParams {
            count: n16,
            root_len: if cfg.quick { 300 } else { 1542 },
            branch_divergence: 0.02,
            seed: cfg.seed + 71,
        }
        .generate();
        let time = |variant: KernelVariant| -> f64 {
            let c = config(variant, true, cfg.quick);
            let mut srv = server_sized(ranks, dpus);
            let (report, _) = all_vs_all(&mut srv, &c, &seqs).expect("run");
            report.dpu_seconds
        };
        rows.push(VariantRow {
            name: "16S",
            pure_c: time(KernelVariant::PureC),
            asm: time(KernelVariant::Asm),
        });
    }
    // PacBio (sets, with CIGAR).
    {
        let sets = PacbioParams {
            sets: npb,
            region_len: if cfg.quick {
                (300, 500)
            } else {
                (2_000, 6_000)
            },
            reads_per_set: (4, 8),
            error: ErrorModel::pacbio_raw(),
            seed: cfg.seed + 72,
        }
        .generate();
        let read_sets: Vec<Vec<nw_core::seq::DnaSeq>> =
            sets.iter().map(|s| s.reads.clone()).collect();
        let time = |variant: KernelVariant| -> f64 {
            let c = config(variant, false, cfg.quick);
            let mut srv = server_sized(ranks, dpus);
            let (report, _) = align_sets(&mut srv, &c, &read_sets).expect("run");
            report.dpu_seconds
        };
        rows.push(VariantRow {
            name: "Pacbio",
            pure_c: time(KernelVariant::PureC),
            asm: time(KernelVariant::Asm),
        });
    }

    let c_costs = CellCosts::for_variant(KernelVariant::PureC);
    let a_costs = CellCosts::for_variant(KernelVariant::Asm);
    Table7 {
        rows,
        instr_per_cell: (
            c_costs.cell_with_bt,
            a_costs.cell_with_bt,
            c_costs.cell_score_only,
            a_costs.cell_score_only,
        ),
    }
}

impl Table7 {
    /// Render with paper values.
    pub fn to_markdown(&self) -> String {
        let mut t = Table::new(
            "Table 7 — pure C vs hand-optimized asm kernel",
            &[
                "Dataset",
                "Pure C (s)",
                "Asm (s)",
                "Speedup",
                "Paper speedup",
            ],
        );
        for row in &self.rows {
            let paper = crate::paper::TABLE7
                .iter()
                .find(|p| p.0 == row.name)
                .map(|p| p.3)
                .unwrap_or(0.0);
            t.row(&[
                row.name.into(),
                secs(row.pure_c),
                secs(row.asm),
                format!("{:.2}", row.speedup()),
                format!("{paper:.2}"),
            ]);
        }
        let (cb, ab, cs, aso) = self.instr_per_cell;
        t.note(format!(
            "measured instructions/cell — with BT: C {cb:.1} vs asm {ab:.1} (x{:.2}); score-only: C {cs:.1} vs asm {aso:.1} (x{:.2})",
            cb / ab,
            cs / aso
        ));
        t.to_markdown()
    }

    /// Shape checks: asm always wins, within the paper's 1.3–1.9 envelope,
    /// and the score-only dataset (16S) gains least among CIGAR-producing
    /// rows' neighbourhood.
    pub fn shape_holds(&self) -> Result<(), String> {
        for row in &self.rows {
            let s = row.speedup();
            if !(1.1..=2.1).contains(&s) {
                return Err(format!(
                    "{}: speedup {s:.2} outside plausible band",
                    row.name
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
    fn quick_table7_shape() {
        let t = run(&ReproConfig::quick());
        assert_eq!(t.rows.len(), 5);
        t.shape_holds().unwrap();
        for row in &t.rows {
            assert!(
                row.pure_c > row.asm,
                "{}: C {} !> asm {}",
                row.name,
                row.pure_c,
                row.asm
            );
        }
        assert!(t.to_markdown().contains("Table 7"));
    }
}
