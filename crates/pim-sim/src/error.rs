//! Simulator error type: every rule the real hardware or SDK enforces that a
//! kernel could violate is surfaced as a typed error, never a silent clamp.

use std::fmt;

/// Errors raised by the PiM simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// WRAM access beyond the 64 KB scratchpad.
    WramOutOfBounds {
        /// Byte offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Scratchpad capacity.
        wram_size: usize,
    },
    /// MRAM access beyond the 64 MB bank.
    MramOutOfBounds {
        /// Byte offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Bank capacity (or configured footprint limit).
        mram_size: usize,
    },
    /// DMA transfer size outside the hardware's 8..=2048 byte window or not
    /// a multiple of 8.
    DmaBadSize {
        /// The rejected length.
        len: usize,
    },
    /// DMA address not 8-byte aligned (MRAM side).
    DmaMisaligned {
        /// The misaligned MRAM offset.
        offset: usize,
    },
    /// The WRAM allocator ran out of scratchpad space — the paper's reason
    /// for the P×T pool design instead of one alignment per tasklet (§4.2.3).
    WramExhausted {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// Tasklet id outside the configured count.
    BadTasklet {
        /// The offending tasklet count/index.
        tasklet: usize,
        /// Hardware maximum.
        max: usize,
    },
    /// Kernel-reported failure (e.g. band too small for the job), with the
    /// kernel's own status code.
    KernelFault {
        /// Kernel status code.
        code: u32,
        /// Human-readable context.
        message: String,
    },
    /// ISA-level fault from the interpreter.
    Isa(crate::isa::IsaError),
    /// A DPU is unavailable: masked out at boot or faulted at launch (the
    /// SDK's per-DPU fault status).
    DpuFaulted {
        /// Rank of the faulty DPU.
        rank: usize,
        /// DPU index within the rank.
        dpu: usize,
    },
    /// A whole rank failed to launch (dead DIMM half, channel failure, or a
    /// panicked rank worker thread).
    RankFailed {
        /// The failed rank.
        rank: usize,
        /// Human-readable failure cause.
        reason: String,
    },
    /// A DPU blew through its per-launch cycle budget (runaway kernel /
    /// tasklet livelock) or was cancelled by the host's wall-clock deadline.
    /// Recoverable: the launch itself survives, the DPU's partial stats are
    /// preserved, and the dispatch layer requeues the DPU's jobs.
    WatchdogExpired {
        /// Rank of the runaway DPU.
        rank: usize,
        /// DPU index within the rank.
        dpu: usize,
        /// Cycles retired when the watchdog fired (the budget for a hung
        /// DPU, 0 when cancelled before any progress was observable).
        cycles: u64,
    },
    /// A result block read back from MRAM failed its integrity check (bad
    /// magic word or checksum mismatch) — bit corruption on the readback
    /// path.
    ResultCorrupt {
        /// MRAM offset of the corrupt record.
        offset: usize,
        /// What failed ("bad result magic", "checksum mismatch", ...).
        detail: &'static str,
    },
    /// The run was stopped by a host-side interrupt (Ctrl-C / SIGTERM):
    /// planning stopped, in-flight launches were cancelled through the rank
    /// cancel tokens, and no further work was dispatched. Not a hardware
    /// fault — the dispatch layer reports it so callers can emit a partial
    /// report instead of dying mid-write.
    Interrupted,
    /// A kernel band the MRAM layout cannot hold: the adaptive window must
    /// be a positive multiple of 16 bases, so that a `BT` row (4 bits per
    /// cell) fills whole 8-byte DMA words.
    BadBand {
        /// The rejected band width.
        band: usize,
    },
    /// A rank/DPU index out of range.
    BadTopology {
        /// What kind of index ("rank" or "dpu").
        what: &'static str,
        /// The offending index.
        index: usize,
        /// Number of valid indices.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WramOutOfBounds {
                offset,
                len,
                wram_size,
            } => write!(
                f,
                "WRAM access [{offset}, {offset}+{len}) outside {wram_size}-byte scratchpad"
            ),
            SimError::MramOutOfBounds {
                offset,
                len,
                mram_size,
            } => write!(
                f,
                "MRAM access [{offset}, {offset}+{len}) outside {mram_size}-byte bank"
            ),
            SimError::DmaBadSize { len } => {
                write!(f, "DMA size {len} not in 8..=2048 or not a multiple of 8")
            }
            SimError::DmaMisaligned { offset } => {
                write!(f, "DMA MRAM offset {offset} not 8-byte aligned")
            }
            SimError::WramExhausted {
                requested,
                available,
            } => {
                write!(
                    f,
                    "WRAM allocator: requested {requested} bytes, {available} available"
                )
            }
            SimError::BadTasklet { tasklet, max } => {
                write!(f, "tasklet {tasklet} out of range (DPU has {max})")
            }
            SimError::KernelFault { code, message } => {
                write!(f, "kernel fault {code}: {message}")
            }
            SimError::Isa(e) => write!(f, "ISA fault: {e}"),
            SimError::DpuFaulted { rank, dpu } => {
                write!(f, "DPU {dpu} of rank {rank} is faulted/disabled")
            }
            SimError::RankFailed { rank, reason } => {
                write!(f, "rank {rank} failed: {reason}")
            }
            SimError::WatchdogExpired { rank, dpu, cycles } => {
                write!(
                    f,
                    "watchdog expired on DPU {dpu} of rank {rank} after {cycles} cycles"
                )
            }
            SimError::ResultCorrupt { offset, detail } => {
                write!(f, "corrupt result block at MRAM offset {offset}: {detail}")
            }
            SimError::Interrupted => {
                write!(f, "run interrupted by the host (Ctrl-C / shutdown)")
            }
            SimError::BadBand { band } => {
                write!(f, "band {band} is not a positive multiple of 16")
            }
            SimError::BadTopology { what, index, max } => {
                write!(f, "{what} index {index} out of range (max {max})")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<crate::isa::IsaError> for SimError {
    fn from(e: crate::isa::IsaError) -> Self {
        SimError::Isa(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_fields() {
        let e = SimError::DmaBadSize { len: 3 };
        assert!(e.to_string().contains('3'));
        let e = SimError::WramExhausted {
            requested: 100,
            available: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
        let e = SimError::BadTopology {
            what: "rank",
            index: 41,
            max: 40,
        };
        assert!(e.to_string().contains("rank"));
        let e = SimError::BadBand { band: 8 };
        assert!(e.to_string().contains("band 8"));
    }

    #[test]
    fn fault_messages_mention_location() {
        let e = SimError::DpuFaulted { rank: 3, dpu: 17 };
        assert!(e.to_string().contains('3') && e.to_string().contains("17"));
        let e = SimError::RankFailed {
            rank: 5,
            reason: "injected".into(),
        };
        assert!(e.to_string().contains('5') && e.to_string().contains("injected"));
        let e = SimError::ResultCorrupt {
            offset: 4096,
            detail: "checksum mismatch",
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("checksum"));
        let e = SimError::WatchdogExpired {
            rank: 2,
            dpu: 9,
            cycles: 1_000_000,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('9'));
        assert!(e.to_string().contains("1000000"));
        assert!(e.to_string().contains("watchdog"));
    }

    #[test]
    fn interrupted_message_names_the_cause() {
        assert!(SimError::Interrupted.to_string().contains("interrupted"));
    }
}
