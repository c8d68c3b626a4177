//! The KSW2-structured static-band aligner under its historical name.
//!
//! The sweep itself is [`nw_core::banded::BandedAligner`]; this alias exists
//! only because the frozen benchmark (`perfbench/src/layers.rs`) names
//! `cpu_baseline::ksw2::Ksw2Aligner`.

pub use nw_core::banded::BandedAligner as Ksw2Aligner;
