//! One deadline vocabulary for every layer.
//!
//! The policy answers one question — *how long may rank execution make no
//! progress before the host cancels it?* — and deliberately stays a policy,
//! not a timer: callers combine it with their own `Instant`s. The
//! persistent engine reads it from `RecoveryConfig::deadline` as a
//! no-completion quiet period; the service daemon sets that stall deadline
//! from its `--stall-deadline` option, and the seeded chaos plans of
//! `tests/fault_recovery.rs` set their own.
//! Per-request deadlines are the daemon's own and do not use it.

use std::time::Duration;

/// Wall-clock stall budget for rank execution. `off()` (the default) never
/// cancels; `after_seconds(s)` cancels a launch once no progress has been
/// observed for `s` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlinePolicy {
    seconds: f64,
}

impl DeadlinePolicy {
    /// No deadline: a launch held on the host clock is waited out (hung
    /// DPUs are still reaped by their launch's cycle-budget watchdog).
    pub const fn off() -> Self {
        Self { seconds: 0.0 }
    }

    /// Cancel after `seconds` of no progress. Values `<= 0` (and NaN) mean
    /// "off", matching the old `0 disables` convention of both knobs this
    /// type replaced.
    pub fn after_seconds(seconds: f64) -> Self {
        if seconds.is_finite() && seconds > 0.0 {
            Self { seconds }
        } else {
            Self::off()
        }
    }

    /// Is a deadline armed at all?
    pub fn is_enabled(&self) -> bool {
        self.seconds > 0.0
    }

    /// The stall budget in seconds (0.0 when off).
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// The stall budget as a [`Duration`], `None` when off — the shape
    /// `recv_timeout`-style waits want.
    pub fn timeout(&self) -> Option<Duration> {
        self.is_enabled()
            .then(|| Duration::from_secs_f64(self.seconds))
    }
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        Self::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_disabled_and_zero() {
        let off = DeadlinePolicy::off();
        assert!(!off.is_enabled());
        assert_eq!(off.seconds(), 0.0);
        assert_eq!(off.timeout(), None);
        assert_eq!(DeadlinePolicy::default(), off);
    }

    #[test]
    fn nonpositive_and_nan_mean_off() {
        assert!(!DeadlinePolicy::after_seconds(0.0).is_enabled());
        assert!(!DeadlinePolicy::after_seconds(-1.0).is_enabled());
        assert!(!DeadlinePolicy::after_seconds(f64::NAN).is_enabled());
        assert!(!DeadlinePolicy::after_seconds(f64::INFINITY).is_enabled());
    }

    #[test]
    fn enabled_round_trips() {
        let d = DeadlinePolicy::after_seconds(1.5);
        assert!(d.is_enabled());
        assert_eq!(d.seconds(), 1.5);
        assert_eq!(d.timeout(), Some(Duration::from_millis(1500)));
    }
}
