//! # bench — the reproduction harness
//!
//! One generator per table and figure of the paper's evaluation (§5). The
//! `repro` binary drives these and prints paper-vs-measured markdown; the
//! integration tests call them at `quick` sizes and assert the *shapes*
//! (who wins, scaling direction, crossover ordering) rather than absolute
//! numbers.
//!
//! | Artifact | Module | Paper section |
//! |---|---|---|
//! | Table 1 (accuracy static vs adaptive) | [`experiments::table1`] | §5.1 |
//! | Tables 2–4 (S1000/S10000/S30000 runtime) | [`experiments::runtime`] | §5.2 |
//! | Table 5 (16S all-vs-all) | [`experiments::table5`] | §5.3 |
//! | Table 6 (PacBio sets) | [`experiments::table6`] | §5.4 |
//! | Table 7 (asm vs pure C kernels) | [`experiments::table7`] | §5.5 |
//! | Table 8 (energy) | [`experiments::table8`] | §5.6 |
//! | Figure 2 (server topology) | [`experiments::figs`] | §2.1 |
//! | Figure 3 (band trajectories) | [`experiments::figs`] | §3.4 |
//! | P×T, balancing, encoding ablations | [`experiments::ablations`] | §4 |

pub mod experiments;
pub mod paper;
pub mod tablefmt;

use cpu_baseline::Calibration;
use std::sync::OnceLock;

/// Shared configuration for every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ReproConfig {
    /// Dataset divisor relative to the paper's full sizes (see
    /// EXPERIMENTS.md; totals are extrapolated back linearly).
    pub scale: u64,
    /// Master seed for all generators.
    pub seed: u64,
    /// Use tiny sizes — for integration tests, not for reproduction runs.
    pub quick: bool,
}

impl Default for ReproConfig {
    fn default() -> Self {
        Self {
            scale: 2000,
            seed: 0xBA5E,
            quick: false,
        }
    }
}

impl ReproConfig {
    /// The quick (test) configuration.
    pub fn quick() -> Self {
        Self {
            scale: 200_000,
            seed: 0xBA5E,
            quick: true,
        }
    }
}

/// The Xeon-projection calibration.
///
/// By default this is [`Calibration::reference`] — per-core rates anchored
/// to the paper's own tables (its 4215 rows imply ~4.4 G cells/s with
/// traceback and ~6 G score-only across datasets) — so the CPU/DPU ratios
/// under test do not depend on how fast *this* machine happens to be. Set
/// `REPRO_LOCAL_CALIBRATION=1` to project from this machine's measured
/// throughput instead (reported for transparency either way).
pub fn calibration() -> &'static Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    CAL.get_or_init(|| {
        if std::env::var_os("REPRO_LOCAL_CALIBRATION").is_some() {
            Calibration::measure(30_000_000)
        } else {
            Calibration::reference()
        }
    })
}

/// Rank counts evaluated by the paper.
pub const RANK_COUNTS: [usize; 3] = [10, 20, 40];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_docs() {
        let c = ReproConfig::default();
        assert_eq!(c.scale, 2000);
        assert!(!c.quick);
        assert!(ReproConfig::quick().quick);
    }

    #[test]
    fn calibration_is_cached() {
        let a = calibration();
        let b = calibration();
        assert!(std::ptr::eq(a, b));
        assert!(a.cells_per_second_bt > 0.0);
    }
}
