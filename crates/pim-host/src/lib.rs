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
//! * [`dispatch`] — batch construction, one rank launch (transfer in,
//!   launch, raw collect), decode, and the virtual-clock accounting that
//!   turns simulated DPU cycles plus modeled transfers into end-to-end
//!   runtimes.
//! * [`modes`] — the three experiment shapes: pair alignment (S-datasets,
//!   Tables 2–4), broadcast all-vs-all score-only (16S, Table 5), and
//!   read-set alignment with per-set locality (PacBio, Table 6).
//! * [`report`] — the [`report::ExecutionReport`] every mode produces:
//!   transfer/encode/compute breakdown, per-rank busy times, aggregate DPU
//!   statistics, pipeline utilization and load imbalance.
//! * [`pipeline`] — the rank FIFO's parts: the persistent per-rank worker
//!   thread, the batches that travel to and from it, the MRAM buffer pool
//!   and the host-side [`PipelineMetrics`].
//! * [`persistent`] — the one dispatch engine: rank workers kept alive
//!   across tickets behind bounded FIFOs, every ticket's launches absorbed
//!   in plan order. A strict ticket runs prebuilt plans and fails on the
//!   first fault (the three modes); a job ticket plans its pairs and runs
//!   the recovery ladder — per-ticket watchdog escalation, retry,
//!   quarantine, dead-rank failover, CPU fallback and cancellation (the
//!   serve daemon for its lifetime, one-shot recovering runs as a single
//!   ticket).
//! * [`recovery`] — the recovery policy the persistent engine applies
//!   (knobs, fault accounting, per-DPU health, the result audit) and
//!   [`recovery::align_pairs_recovering`], the one-shot fault-tolerant
//!   counterpart of [`modes::align_pairs`].
//! * [`backend`] — the [`backend::Backend`] trait: PiM and the CPU pool as
//!   first-class peers, each self-reporting measured eq.-6 units/second.
//! * [`router`] — the cost-model router: every batch goes to whichever
//!   backend clears it soonest given queue depth and the measured rates.
//! * [`cache`] — the content-addressed result cache in front of the
//!   router, keyed by [`nw_core::JobKey`], audit-gated on insert.
//! * [`wal`] — crash-safe persistence for the cache: checksummed
//!   write-ahead log plus compacted snapshots, with a recovery path that
//!   tolerates torn tails and flipped bits and re-admits every entry
//!   through the audit gate.

pub mod backend;
pub mod balance;
pub mod cache;
pub mod deadline;
pub mod dispatch;
pub mod encode;
pub mod hetero;
pub mod interrupt;
pub mod modes;
pub mod persistent;
pub mod pipeline;
pub mod recovery;
pub mod report;
pub mod router;
pub mod wal;

pub use backend::{Backend, BackendBatch, CpuPoolBackend, SimPimBackend};
pub use balance::{lpt_assign, pair_workloads, round_robin_assign};
pub use cache::{CacheStats, ResultCache};
pub use deadline::DeadlinePolicy;
pub use dispatch::{DispatchConfig, Engine};
pub use hetero::{align_pairs_hetero, HeteroConfig, HeteroOutcome};
pub use modes::{align_pairs, align_sets, all_vs_all};
pub use persistent::{with_persistent_engine, EngineCtl, EngineStats, TicketDone};
pub use pipeline::{execute_rounds_pipelined, BufferPool, PipelineMetrics, PipelineOptions};
pub use recovery::{align_pairs_recovering, FaultReport, HealthTracker, RecoveryConfig};
pub use report::ExecutionReport;
pub use router::{route_pairs, RouterConfig, RouterOutcome, RouterReport};
pub use wal::{CacheRecovery, CacheStore, PersistStats, StoreOptions, WAL_SCHEMA_VERSION};
