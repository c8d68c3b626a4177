//! Cooperative host-side interruption (Ctrl-C / SIGTERM).
//!
//! One process-wide flag, set from a signal handler (or programmatically by
//! tests and the serve daemon's drain path) and polled by every dispatch
//! driver at its planning points:
//!
//! * a strict one-shot run ([`crate::modes`]) cancels its strict ticket on
//!   the persistent engine and sets the rank cancel tokens: nothing more
//!   launches, in-flight launches break out of their waits, and the run
//!   returns [`pim_sim::SimError::Interrupted`];
//! * a one-shot recovering run ([`crate::recovery::align_pairs_recovering`])
//!   cancels its ticket on the persistent engine and sets the rank cancel
//!   tokens. It returns the **partial** outcome: one slot per input, each
//!   a result that finished before the interrupt or an explicit
//!   [`dpu_kernel::JobStatus::Cancelled`]. Unfinished jobs are not handed
//!   to the CPU fallback; they are counted in
//!   [`crate::recovery::FaultReport::interrupted_jobs`]. The CLI can then
//!   print a partial [`crate::report::ExecutionReport`] instead of dying
//!   mid-write;
//! * the serve daemon polls the flag itself and drains.
//!
//! A signal handler may only do async-signal-safe work; setting a static
//! atomic is the canonical safe payload. Registration goes through raw
//! `signal(2)` so no dependency is needed — std already links libc on unix.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Has an interrupt been requested (signal received or [`trip`] called)?
pub fn requested() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Request an interrupt programmatically — same effect as Ctrl-C. Used by
/// tests and by shutdown paths that want dispatch to wind down.
pub fn trip() {
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Clear the flag (start of a fresh run; tests).
pub fn reset() {
    INTERRUPTED.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed atomic store, nothing else.
    INTERRUPTED.store(true, Ordering::Relaxed);
}

/// Install the SIGINT + SIGTERM handler that trips the flag. Idempotent;
/// repeated signals just re-set an already-set flag while the run winds
/// down cooperatively.
///
/// No-op on non-unix targets (the flag still works via [`trip`]).
pub fn install_handler() {
    #[cfg(unix)]
    {
        // std links libc; declaring `signal` here avoids a libc crate
        // dependency. SIG_ERR (== usize::MAX) is ignored on purpose: a
        // platform refusing the registration leaves the default behavior,
        // which is what we had anyway.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trip_and_reset_round_trip() {
        reset();
        assert!(!requested());
        trip();
        assert!(requested());
        reset();
        assert!(!requested());
    }

    #[test]
    fn install_is_idempotent() {
        install_handler();
        install_handler();
    }
}
