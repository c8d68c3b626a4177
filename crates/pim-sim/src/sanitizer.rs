//! Runtime WRAM sanitizer: MSan-style shadow memory for the ISA interpreter.
//!
//! The static verifier ([`crate::isa::verify`]) proves what it can ahead of
//! time; this module catches what it cannot, at runtime, with two per-byte
//! shadow planes over a WRAM buffer:
//!
//! * **Initialization** — every byte starts poisoned; stores (and host
//!   writes into WRAM, [`WramShadow::host_write`]) unpoison it. A load
//!   touching a poisoned byte aborts with [`IsaError::UninitializedRead`]
//!   instead of silently computing on garbage.
//! * **Ownership** — every byte records which tasklet touched it since the
//!   last barrier. A tasklet touching a byte another tasklet wrote, with no
//!   barrier in between, aborts with [`IsaError::DataRace`]. Host writes
//!   reset ownership: they happen only at phase boundaries, where they
//!   cannot race.
//!
//! Attach the shadow to an interpreter run with [`Machine::run_sanitized`]
//! (or implement heavier policies on top of [`WramWatch`] directly).

use crate::isa::{Inst, IsaError, Machine, RunStats, WramWatch};
use crate::stats::SanitizerStats;

/// Owner value meaning "no tasklet has touched this byte since the last
/// barrier (or ever)".
const NO_OWNER: u8 = 0xFF;

/// Per-byte shadow state for one WRAM buffer.
#[derive(Debug, Clone)]
pub struct WramShadow {
    init: Vec<bool>,
    owner: Vec<u8>,
    /// Counters describing the checking work performed.
    pub stats: SanitizerStats,
}

impl WramShadow {
    /// Fully-poisoned shadow for a `len`-byte WRAM buffer.
    pub fn new(len: usize) -> Self {
        Self {
            init: vec![false; len],
            owner: vec![NO_OWNER; len],
            stats: SanitizerStats::default(),
        }
    }

    /// A host write landed on `[addr, addr+len)`: unpoison it and clear
    /// ownership (host writes happen at phase boundaries and cannot race
    /// with tasklets).
    pub fn host_write(&mut self, addr: usize, len: usize) {
        for b in &mut self.init[addr..addr + len] {
            *b = true;
        }
        for o in &mut self.owner[addr..addr + len] {
            *o = NO_OWNER;
        }
        self.stats.bytes_host_initialized += len as u64;
    }

    /// A barrier: all tasklets synchronized, so ownership resets and
    /// subsequent cross-tasklet accesses are ordered (not races).
    pub fn barrier(&mut self) {
        for o in &mut self.owner {
            *o = NO_OWNER;
        }
        self.stats.barriers += 1;
    }

    /// View of this shadow for accesses performed by one tasklet.
    pub fn tasklet(&mut self, tasklet: u8) -> TaskletShadow<'_> {
        debug_assert_ne!(
            tasklet, NO_OWNER,
            "tasklet id collides with the no-owner sentinel"
        );
        TaskletShadow {
            shadow: self,
            tasklet,
        }
    }
}

/// A [`WramWatch`] implementation checking one tasklet's accesses against a
/// shared [`WramShadow`].
#[derive(Debug)]
pub struct TaskletShadow<'a> {
    shadow: &'a mut WramShadow,
    tasklet: u8,
}

impl TaskletShadow<'_> {
    fn claim(&mut self, addr: usize, len: usize) -> Result<(), IsaError> {
        for i in addr..addr + len {
            let owner = self.shadow.owner[i];
            if owner != NO_OWNER && owner != self.tasklet {
                return Err(IsaError::DataRace {
                    addr: i,
                    tasklet: self.tasklet,
                    owner,
                });
            }
        }
        Ok(())
    }
}

impl WramWatch for TaskletShadow<'_> {
    fn on_read(&mut self, addr: usize, len: usize) -> Result<(), IsaError> {
        self.shadow.stats.bytes_read_checked += len as u64;
        for (i, &ok) in self.shadow.init[addr..addr + len].iter().enumerate() {
            if !ok {
                return Err(IsaError::UninitializedRead {
                    addr: addr + i,
                    len,
                });
            }
        }
        // Reading another tasklet's unsynchronized write is a race too.
        self.claim(addr, len)
    }

    fn on_write(&mut self, addr: usize, len: usize) -> Result<(), IsaError> {
        self.claim(addr, len)?;
        self.shadow.stats.bytes_written += len as u64;
        for i in addr..addr + len {
            self.shadow.init[i] = true;
            self.shadow.owner[i] = self.tasklet;
        }
        Ok(())
    }
}

impl Machine {
    /// Run `program` with the sanitizer attached: every WRAM access is
    /// checked against `shadow` on behalf of `tasklet`. Semantically
    /// identical to [`Machine::run`] on clean programs; dirty programs
    /// abort with a sanitizer [`IsaError`].
    pub fn run_sanitized(
        &mut self,
        program: &[Inst],
        wram: &mut [u8],
        max_steps: u64,
        shadow: &mut WramShadow,
        tasklet: u8,
    ) -> Result<RunStats, IsaError> {
        let mut watch = shadow.tasklet(tasklet);
        self.run_watched(program, wram, max_steps, &mut watch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::assemble;

    #[test]
    fn clean_program_matches_plain_run() {
        let prog = assemble(
            "
            move r1, 77
            sw r1, r0, 8
            lw r2, r0, 8
            halt
            ",
        )
        .unwrap();
        let mut wram = vec![0u8; 16];
        let mut m = Machine::new();
        let plain = m.run(&prog, &mut wram.clone(), 100).unwrap();
        let mut shadow = WramShadow::new(wram.len());
        let mut m2 = Machine::new();
        let sanitized = m2
            .run_sanitized(&prog, &mut wram, 100, &mut shadow, 0)
            .unwrap();
        assert_eq!(plain, sanitized);
        assert_eq!(m.regs, m2.regs);
        assert_eq!(shadow.stats.bytes_written, 4);
        assert_eq!(shadow.stats.bytes_read_checked, 4);
    }

    #[test]
    fn uninitialized_read_aborts() {
        let prog = assemble("lw r1, r0, 0\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        let err = Machine::new()
            .run_sanitized(&prog, &mut wram, 100, &mut shadow, 0)
            .unwrap_err();
        assert!(
            matches!(err, IsaError::UninitializedRead { addr: 0, len: 4 }),
            "{err}"
        );
    }

    #[test]
    fn partial_initialization_is_still_poisoned() {
        // sb writes 1 byte; the following word load touches 3 poisoned ones.
        let prog = assemble("move r1, 5\nsb r1, r0, 0\nlw r2, r0, 0\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        let err = Machine::new()
            .run_sanitized(&prog, &mut wram, 100, &mut shadow, 0)
            .unwrap_err();
        assert!(
            matches!(err, IsaError::UninitializedRead { addr: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn host_write_unpoisons() {
        let prog = assemble("lw r1, r0, 0\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        shadow.host_write(0, 8);
        Machine::new()
            .run_sanitized(&prog, &mut wram, 100, &mut shadow, 0)
            .unwrap();
        assert_eq!(shadow.stats.bytes_host_initialized, 8);
    }

    #[test]
    fn host_write_unpoisons_only_its_range() {
        // The word at 4 straddles the end of the 6 host-written bytes.
        let prog = assemble("lw r1, r0, 4\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        shadow.host_write(0, 6);
        let err = Machine::new()
            .run_sanitized(&prog, &mut wram, 100, &mut shadow, 0)
            .unwrap_err();
        assert!(
            matches!(err, IsaError::UninitializedRead { addr: 6, len: 4 }),
            "{err}"
        );
    }

    #[test]
    fn cross_tasklet_write_without_barrier_is_a_race() {
        let write = assemble("move r1, 1\nsw r1, r0, 0\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        Machine::new()
            .run_sanitized(&write, &mut wram, 100, &mut shadow, 0)
            .unwrap();
        // Tasklet 1 stomps the same word with no intervening barrier.
        let err = Machine::new()
            .run_sanitized(&write, &mut wram, 100, &mut shadow, 1)
            .unwrap_err();
        assert!(
            matches!(
                err,
                IsaError::DataRace {
                    addr: 0,
                    tasklet: 1,
                    owner: 0
                }
            ),
            "{err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("tasklet 1") && msg.contains("tasklet 0"),
            "{msg}"
        );
    }

    #[test]
    fn cross_tasklet_read_without_barrier_is_a_race() {
        let write = assemble("move r1, 1\nsw r1, r0, 0\nhalt").unwrap();
        let read = assemble("lw r1, r0, 0\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        Machine::new()
            .run_sanitized(&write, &mut wram, 100, &mut shadow, 0)
            .unwrap();
        let err = Machine::new()
            .run_sanitized(&read, &mut wram, 100, &mut shadow, 1)
            .unwrap_err();
        assert!(matches!(err, IsaError::DataRace { .. }), "{err}");
    }

    #[test]
    fn barrier_legitimizes_cross_tasklet_access() {
        let write = assemble("move r1, 1\nsw r1, r0, 0\nhalt").unwrap();
        let read = assemble("lw r1, r0, 0\nhalt").unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        Machine::new()
            .run_sanitized(&write, &mut wram, 100, &mut shadow, 0)
            .unwrap();
        shadow.barrier();
        Machine::new()
            .run_sanitized(&read, &mut wram, 100, &mut shadow, 1)
            .unwrap();
        assert_eq!(shadow.stats.barriers, 1);
    }

    #[test]
    fn same_tasklet_reuse_is_not_a_race() {
        let prog = assemble(
            "
            move r1, 3
            loop:
              sw r1, r0, 0
              lw r2, r0, 0
              sub r1, r1, 1, jnz loop
            halt
            ",
        )
        .unwrap();
        let mut wram = vec![0u8; 16];
        let mut shadow = WramShadow::new(wram.len());
        Machine::new()
            .run_sanitized(&prog, &mut wram, 100, &mut shadow, 5)
            .unwrap();
    }

    #[test]
    fn stats_merge() {
        let mut a = SanitizerStats {
            bytes_written: 4,
            barriers: 1,
            ..Default::default()
        };
        let b = SanitizerStats {
            bytes_written: 8,
            bytes_read_checked: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.bytes_written, 12);
        assert_eq!(a.bytes_read_checked, 2);
        assert_eq!(a.barriers, 1);
    }
}
