#![warn(missing_docs)]

//! # upmem-nw-service — the overload-robust alignment service
//!
//! A persistent daemon over the simulated PiM server: clients connect to a
//! unix socket, send newline-delimited JSON alignment requests, and get
//! exactly one terminal answer per request — a result, an explicit
//! rejection, or an explicit shed notice. The daemon runs on the
//! non-draining engine ([`pim_host::persistent`]), so rank workers,
//! quarantine state, and the whole fault-recovery ladder stay hot across
//! requests.
//!
//! * [`proto`] — the NDJSON wire protocol (requests, responses, priority
//!   classes).
//! * [`queue`] — the bounded priority admission queue: backpressure and
//!   load shedding live here.
//! * [`daemon`] — the accept/drive loop, deadline reaping, and graceful
//!   drain.
//! * [`report`] — service-lifetime accounting and its conservation law:
//!   `accepted == completed + deadline_missed + shed`.
//! * [`journal`] — the crash-safe request journal: admitted-but-unanswered
//!   requests replay after a `kill -9`, so the conservation law balances
//!   across process lifetimes.
//! * [`client`] — a blocking client used by the tests and the crash
//!   harness.
//! * [`json`] — the dependency-free JSON parser/emitter underneath it all.

pub mod client;
pub mod daemon;
pub mod journal;
pub mod json;
pub mod proto;
pub mod queue;
pub mod report;

pub use client::Client;
pub use daemon::{run_serve, ServeError, ServeOptions};
pub use journal::{DoneKind, RecoveredTicket, RequestJournal};
pub use proto::{AlignRequest, ClientLine, Priority};
pub use queue::{Admission, AdmissionQueue, Queued};
pub use report::{LatencyRecorder, ServiceReport, SCHEMA_VERSION};
