#![warn(missing_docs)]

//! # pim-host — the host program (§4.1)
//!
//! Everything the x86 host does around the DPUs:
//!
//! * [`encode`] — on-the-fly 2-bit encoding of ASCII reads (§4.1.1): divides
//!   the transfer volume by 4; the encode cost is modeled at a calibrated
//!   bytes/second rate and reported separately.
//! * [`balance`] — the load-balancing heuristics of §4.1.2: workload
//!   estimation via eq. 6 (`(m + n) × w`), the LPT greedy ("sort the pairs
//!   by decreasing workload, keep assigning the largest to the least loaded
//!   DPU") and a naive round-robin for the ablation bench.
//! * [`dispatch`] — units of placement and batch construction, one rank
//!   launch (transfer in, launch, raw collect), decode, and the
//!   virtual-clock accounting that turns simulated DPU cycles plus modeled
//!   transfers into end-to-end runtimes.
//! * [`modes`] — the three experiment shapes: pair alignment (S-datasets,
//!   Tables 2–4), broadcast all-vs-all score-only (16S, Table 5), and
//!   read-set alignment with per-set locality (PacBio, Table 6). Each is
//!   one job ticket that differs only in its units and its first pass.
//! * [`report`] — the [`report::ExecutionReport`] every mode produces:
//!   transfer/encode/compute breakdown, per-rank busy times, aggregate DPU
//!   statistics, pipeline utilization and load imbalance.
//! * [`pipeline`] — the rank FIFO's parts: the persistent per-rank worker
//!   thread, the batches that travel to and from it, the MRAM buffer pool
//!   and the host-side [`PipelineMetrics`].
//! * [`persistent`] — the one dispatch engine: rank workers kept alive
//!   across tickets behind bounded FIFOs, every ticket's launches absorbed
//!   in plan order, every DPU launched under the watchdog budget its
//!   kernel derives from its batch. It has one kind of ticket, the job
//!   ticket: it places units of work (a pair, a broadcast pair, or a read
//!   set) and runs the recovery ladder — retry, quarantine, dead-rank
//!   failover, CPU fallback and cancellation — for the serve daemon over
//!   its lifetime and for every mode of [`modes`] as a single ticket.
//! * [`recovery`] — the recovery policy every ticket applies (knobs,
//!   fault accounting, per-DPU health, the result audit).
//! * [`cache`] — the content-addressed result cache, keyed by
//!   [`nw_core::JobKey`] and audit-gated on insert, that sits in front of
//!   the engine: the serve daemon's for its lifetime, and
//!   [`cache::align_pairs_cached`]'s for one-shot runs.
//! * [`wal`] — crash-safe record logs: one checksummed, atomically
//!   compacted file per log, for the cache and the serve daemon's request
//!   journal, with a recovery path that tolerates torn tails and flipped
//!   bits; the cache re-admits every entry through the audit gate.

pub mod balance;
pub mod cache;
pub mod deadline;
pub mod dispatch;
pub mod encode;
pub mod interrupt;
pub mod modes;
pub mod persistent;
pub mod pipeline;
pub mod recovery;
pub mod report;
pub mod wal;

pub use balance::{lpt_assign, pair_workloads, round_robin_assign};
pub use cache::{align_pairs_cached, CacheStats, CachedRun, ResultCache};
pub use deadline::DeadlinePolicy;
pub use dispatch::{DispatchConfig, Engine};
pub use modes::{align_pairs, align_sets, all_vs_all};
pub use persistent::{with_persistent_engine, EngineCtl, EngineStats, EngineWaker, TicketDone};
pub use pipeline::{execute_rounds_pipelined, BufferPool, PipelineMetrics, PipelineOptions};
pub use recovery::{FaultReport, HealthTracker, RecoveryConfig};
pub use report::ExecutionReport;
pub use wal::{CacheRecovery, CacheStore, PersistStats, StoreOptions, WAL_SCHEMA_VERSION};
