//! Persistent, non-draining dispatch: the one dispatch engine.
//!
//! Every launch the host makes runs here. The serve daemon drives this
//! engine for its whole lifetime; a one-shot run opens it, submits one
//! ticket, and pumps until that ticket resolves. The per-rank worker
//! threads and bounded FIFOs stay alive across tickets, and the caller
//! drives them through a handle ([`EngineCtl`]):
//!
//! ```text
//!   caller loop                         persistent engine
//!   ───────────                         ─────────────────
//!   submit(jobs)      ──ticket──▶   per-ticket state (results,
//!   pump(wait)        ◀─TicketDone──  attempts, retries, clock)
//!   cancel(ticket)                      │
//!        ▲                              ▼ per-rank FIFOs (depth d)
//!        └── EngineWaker::wake ──    rank workers (pipeline::worker_loop)
//!            (other threads)
//! ```
//!
//! `pump` blocks on one bell ([`EngineWaker`]). Rank workers ring it after
//! each batch they send, and any other thread can ring it to hand the
//! caller its loop back early, so a caller that multiplexes the engine
//! with other input (the serve daemon's request lines) waits on events,
//! not on a polling timer.
//!
//! Every ticket is a **job ticket**: the serve daemon submits one per
//! request, and each mode of [`crate::modes`] one per call. It carries
//! *units* (`dispatch::Units`): a unit is what the engine places on one DPU and
//! retries as a whole, and it covers one or more result slots — one pair
//! ([`crate::modes::align_pairs`], the daemon), one `(i, j)` pair of
//! broadcast sequences ([`crate::modes::all_vs_all`]), or one whole read
//! set ([`crate::modes::align_sets`]). The engine plans the units in
//! passes. The submitter may hand the first pass a placement, a list of
//! units per rank and DPU, which runs as one round, one batch per rank:
//! the broadcast mode's static split and the set mode's LPT over all
//! DPUs. Otherwise a pass groups the units with [`group_jobs`] over
//! `rounds × ranks` in eq.-6 workload units, pins each batch to its rank,
//! and LPT-balances it over that rank's usable DPUs. The ranks are the
//! usable ones with FIFO room, which for a one-shot ticket means all
//! usable ranks, so a fault-free one-shot run launches exactly the
//! batches that planning `rounds × ranks` groups up front would. Each
//! later pass retries what the previous one lost, once it has fully
//! returned. The full recovery ladder rides along per ticket:
//!
//! 1. **Retry** — per-DPU faults, watchdog reaps and audit rejections
//!    requeue the lost units for the next pass, grouped over the ranks
//!    still usable.
//! 2. **Quarantine** — repeated faults take a DPU out of planning
//!    ([`HealthTracker`] state persists across tickets — flaky hardware
//!    stays quarantined for the engine's lifetime); a rank whose launch
//!    fails is declared dead and its units fail over to the survivors.
//! 3. **Fall back** — units out of PiM attempts (or with no usable DPU
//!    left, or in a batch that cannot be planned) finish on the
//!    kernel-identical CPU aligner.
//!
//! Every launch runs each DPU under the watchdog budget its kernel
//! derives from that DPU's batch ([`NwKernel::watchdog_cycles`]), so a
//! hung DPU is reaped in simulated time and its units retry like any
//! other fault. The stall deadline ([`RecoveryConfig::deadline`]) is the
//! host-clock backstop for a launch that stops returning for any other
//! reason.
//!
//! With [`RecoveryConfig::audit`] on, the rank worker that decoded a
//! batch's results audits each against its pair, and a rejected one
//! retries its unit like a faulted launch.
//!
//! A cancelled ticket (deadline missed, host interrupt) abandons its
//! unfinished slots with explicit [`JobStatus::Cancelled`] results and
//! [`FaultReport::interrupted_jobs`] accounting — nothing is silently
//! dropped.
//!
//! Every launch a ticket makes is absorbed into its own
//! [`DispatchOutcome`], the simulated clock, in **plan order**: by pass,
//! then `round × ranks + rank` within it, whatever order the ranks finish
//! in. f64 sums (transfer seconds, the imbalance mean) therefore do not
//! depend on completion order, and a fault-free ticket reports the
//! simulated time of the same batches run up front through
//! [`crate::dispatch::execute_rounds`], bit for bit. Each ticket also
//! carries the host-side [`PipelineMetrics`] of its launches.
//!
//! Scoped-thread shape: workers borrow the ranks mutably, so the engine
//! cannot be a long-lived struct the caller stores. Instead
//! [`with_persistent_engine`] opens the scope, hands the caller an
//! [`EngineCtl`], and tears the workers down when the closure returns —
//! the daemon's accept/drive loop lives inside the closure.

use crate::dispatch::{group_jobs, DispatchOutcome, PlannedUnits, RankExec, Units};
use crate::pipeline::{worker_loop, BatchDone, BufferPool, PipelineMetrics, WorkItem};
use crate::recovery::{note_exec_faults, FaultReport, HealthTracker, RecoveryConfig};
use cpu_baseline::driver::run_batch;
use dpu_kernel::layout::{JobResult, JobStatus, KernelParams};
use dpu_kernel::NwKernel;
use nw_core::adaptive::AdaptiveAligner;
use nw_core::cigar::Cigar;
use nw_core::error::AlignError;
use nw_core::seq::{DnaSeq, PackedSeq};
use pim_sim::{PimServer, SimError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One submitted ticket, fully resolved.
#[derive(Debug)]
pub struct TicketDone {
    /// The id [`EngineCtl::submit`] returned.
    pub ticket: u64,
    /// One result per result slot (per submitted pair), input order. Slots
    /// a cancellation abandoned carry [`JobStatus::Cancelled`].
    pub results: Vec<JobResult>,
    /// Everything the recovery ladder did for this ticket.
    pub fault: FaultReport,
    /// The simulated clock of every launch this ticket made (transfers,
    /// per-rank busy time, DPU statistics), absorbed in plan order, plus
    /// the ticket's host-side [`PipelineMetrics`]. The results and fault
    /// report live in the fields above.
    pub(crate) outcome: DispatchOutcome,
    /// True when [`EngineCtl::cancel`] reaped the ticket before it
    /// finished (some slots are `Cancelled`).
    pub cancelled: bool,
}

/// Engine-lifetime counters (across all tickets).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Batches dispatched to rank workers.
    pub batches: usize,
    /// Tickets fully resolved.
    pub tickets_done: usize,
    /// Result slots resolved (PiM, CPU fallback, or cancelled slots).
    pub jobs_done: usize,
}

/// Where a launch sits in its ticket's plan: `(pass, round × ranks +
/// rank)`. A ticket absorbs its launches in this order.
type PlanPos = (usize, usize);

/// A first-pass placement: per rank, the units to run on each of its
/// DPUs, as one batch.
pub(crate) type Placement = Vec<PlannedUnits>;

struct TicketState {
    /// Shared with the rank workers, which audit results against it.
    units: Arc<Units>,
    /// One per result slot.
    results: Vec<Option<JobResult>>,
    /// Result slots still empty.
    remaining: usize,
    /// Per unit: launches so far.
    attempts: Vec<usize>,
    /// Rounds the next pass is grouped into (the first pass: the
    /// submitter's; retry passes: 1).
    rounds: usize,
    /// The submitter's first pass, if it placed the units itself.
    placement: Option<Placement>,
    /// Per rank: the current pass's batches pinned to it, in round order.
    backlog: Vec<VecDeque<(PlanPos, PlannedUnits)>>,
    /// Passes planned so far.
    passes: usize,
    /// Units waiting for the next pass: all of them at submission, then
    /// requeued retries and the backlog of a rank that died.
    pending: Vec<usize>,
    in_flight_batches: usize,
    /// Clean launches not yet absorbed into `out`, keyed by plan position;
    /// completion absorbs them in key order.
    settled: BTreeMap<PlanPos, RankExec>,
    /// The ticket's simulated clock; `out.fault` is its fault report.
    out: DispatchOutcome,
    dpu_busy: Vec<f64>,
    imbalances: Vec<f64>,
    cancelled: bool,
    queued: bool,
    metrics: PipelineMetrics,
    started: Instant,
}

impl TicketState {
    fn new(units: Units, rounds: usize, placement: Option<Placement>, ctl: &EngineCtl) -> Self {
        let (n, slots) = (units.len(), units.slot_count());
        let ranks = ctl.inboxes.len();
        Self {
            units: Arc::new(units),
            results: (0..slots).map(|_| None).collect(),
            remaining: slots,
            attempts: vec![0; n],
            rounds: rounds.max(1),
            placement,
            backlog: (0..ranks).map(|_| VecDeque::new()).collect(),
            passes: 0,
            pending: (0..n).collect(),
            in_flight_batches: 0,
            settled: BTreeMap::new(),
            out: DispatchOutcome {
                rank_seconds: vec![0.0; ranks],
                ..Default::default()
            },
            dpu_busy: vec![0.0; ranks],
            imbalances: Vec::new(),
            cancelled: false,
            queued: true,
            metrics: PipelineMetrics {
                fifo_depth: ctl.depth,
                rank_stall_seconds: vec![0.0; ranks],
                rank_busy_seconds: vec![0.0; ranks],
                max_fifo_occupancy: vec![0; ranks],
                ..Default::default()
            },
            started: Instant::now(),
        }
    }

    /// Units not yet on a FIFO (first pass or retry).
    fn has_unplanned(&self) -> bool {
        !self.pending.is_empty() || self.backlog.iter().any(|b| !b.is_empty())
    }
}

/// Wakes a blocked [`EngineCtl::pump`] from another thread: the pump
/// returns at once, or on its next call if none is running. The serve
/// daemon's acceptor and reader threads ring it after each event they
/// queue for the driver. Rank workers ring the same bell after each batch
/// they send and when they exit, so the pump sleeps on the bell alone. It
/// holds no sender of the completion channel, so the workers exiting
/// still disconnects it ([`EngineCtl::workers_gone`]). Clones share one
/// bell; ringing it after the engine is torn down does nothing.
#[derive(Clone)]
pub struct EngineWaker(Arc<Bell>);

#[derive(Default)]
struct Bell {
    rung: Mutex<Rung>,
    cv: Condvar,
}

#[derive(Default)]
struct Rung {
    /// [`EngineWaker::wake`] was called since a pump last returned for it.
    woken: bool,
    /// A rank worker sent a batch or exited since the pump last waited.
    batch: bool,
}

impl EngineWaker {
    /// Make the current or the next [`EngineCtl::pump`] return early.
    pub fn wake(&self) {
        self.ring(|r| r.woken = true);
    }

    /// A rank worker's ring: something arrived on (or disconnected) the
    /// completion channel.
    pub(crate) fn batch_sent(&self) {
        self.ring(|r| r.batch = true);
    }

    // Every update sets one flag, so a guard a panicking thread left
    // behind still holds valid flags: poisoning is ignored here and in
    // `wait`.
    fn ring(&self, set: impl FnOnce(&mut Rung)) {
        set(&mut self.0.rung.lock().unwrap_or_else(PoisonError::into_inner));
        self.0.cv.notify_one();
    }

    /// Sleep until the bell rings or `timeout` passes. True when
    /// [`EngineWaker::wake`] rang it (consumed here); a worker's ring only
    /// ends the sleep.
    fn wait(&self, timeout: Duration) -> bool {
        let rung = self.0.rung.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut rung, _) = self
            .0
            .cv
            .wait_timeout_while(rung, timeout, |r| !r.woken && !r.batch)
            .unwrap_or_else(PoisonError::into_inner);
        rung.batch = false;
        std::mem::take(&mut rung.woken)
    }
}

/// Handle over the live engine: submit work, pump completions, cancel
/// expired tickets. Single-threaded by design — the daemon's driver loop
/// owns it; reader threads talk to the driver over channels, not to the
/// engine.
pub struct EngineCtl {
    params: KernelParams,
    pools: usize,
    mram: usize,
    dpus_per_rank: usize,
    /// Threads of the CPU fallback: the engine's simulator thread budget.
    cpu_threads: usize,
    rcfg: RecoveryConfig,
    depth: usize,
    inboxes: Vec<SyncSender<WorkItem>>,
    done_rx: Receiver<BatchDone>,
    waker: EngineWaker,
    tokens: Vec<Arc<AtomicBool>>,
    enabled: Vec<Vec<bool>>,
    health: HealthTracker,
    pool: BufferPool,
    in_flight: Vec<usize>,
    total_in_flight: usize,
    next_seq: u64,
    next_ticket: u64,
    tickets: HashMap<u64, TicketState>,
    /// Tickets with unplanned jobs, oldest first.
    queue: VecDeque<u64>,
    /// `seq -> (ticket, plan position, per-DPU planned units)` for
    /// in-flight batches.
    meta: HashMap<u64, (u64, PlanPos, PlannedUnits)>,
    /// Last time a batch completed; drives the stall deadline.
    last_progress: Instant,
    stall_cancelled: bool,
    workers_gone: bool,
    stats: EngineStats,
}

impl EngineCtl {
    /// Submit one request's pairs; returns its ticket id. Jobs start
    /// flowing on the next [`EngineCtl::pump`].
    pub fn submit(&mut self, jobs: Vec<(PackedSeq, PackedSeq)>) -> u64 {
        self.submit_units(Units::pairs(jobs), 1, None)
    }

    /// Submit `units` with the first pass split into `rounds` batches per
    /// rank it runs on (see [`EngineCtl::plan_pass`]), or run as
    /// `placement` places it: one batch per rank, the units listed for
    /// each DPU on it. A placement covers every unit and places onto DPUs
    /// usable when the ticket starts.
    pub(crate) fn submit_units(
        &mut self,
        units: Units,
        rounds: usize,
        placement: Option<Placement>,
    ) -> u64 {
        let st = TicketState::new(units, rounds, placement, self);
        self.enqueue(st)
    }

    fn enqueue(&mut self, st: TicketState) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.tickets.insert(ticket, st);
        // Even an empty ticket goes through the queue: feed's pass over
        // the queue is what resolves it into a TicketDone.
        self.queue.push_back(ticket);
        ticket
    }

    /// Pump until `ticket` resolves — the whole drive loop of a one-shot
    /// run, whose engine holds no other ticket. A host interrupt
    /// ([`crate::interrupt`]) cancels the ticket and breaks hung launches
    /// out of their waits; the ticket still resolves through `pump`.
    pub(crate) fn resolve(&mut self, ticket: u64) -> Result<TicketDone, SimError> {
        let mut interrupted = false;
        loop {
            if !interrupted && crate::interrupt::requested() {
                self.cancel(ticket);
                self.cancel_ranks();
                interrupted = true;
            }
            let done = self.pump(Duration::from_millis(25));
            if let Some(td) = done.into_iter().find(|td| td.ticket == ticket) {
                return Ok(td);
            }
            if self.workers_gone() {
                return Err(SimError::RankFailed {
                    rank: 0,
                    reason: "all rank workers exited with work in flight".into(),
                });
            }
        }
    }

    /// Abandon a ticket's unfinished jobs (the daemon's deadline reaper,
    /// a one-shot run's host interrupt). Unplanned jobs resolve to
    /// `Cancelled` immediately; in-flight batches finish on their own and
    /// their late results are discarded. The ticket's `TicketDone` comes
    /// back from `pump` like any other — cancellation changes its
    /// contents, not its delivery path.
    pub fn cancel(&mut self, ticket: u64) {
        let Some(st) = self.tickets.get_mut(&ticket) else {
            return;
        };
        if st.cancelled {
            return;
        }
        st.cancelled = true;
        // Drop the unplanned work; feed's pass over the queue (or the last
        // in-flight batch's absorb) completes the ticket, filling
        // abandoned slots with `Cancelled`.
        st.pending.clear();
        st.placement = None;
        st.backlog.iter_mut().for_each(VecDeque::clear);
    }

    /// Set every rank's cancel token: a launch waiting on the host clock
    /// (a straggler's hold) stops waiting, and a DPU spinning without a
    /// budget comes back as a watchdog failure that requeues. Teardown and
    /// the stall deadline use this to guarantee forward progress.
    pub fn cancel_ranks(&mut self) {
        for t in &self.tokens {
            t.store(true, Ordering::Relaxed);
        }
    }

    /// Batches currently on rank FIFOs (queued or executing).
    pub fn in_flight(&self) -> usize {
        self.total_in_flight
    }

    /// True when nothing is in flight and no ticket has unplanned work.
    pub fn idle(&self) -> bool {
        self.total_in_flight == 0 && self.tickets.is_empty()
    }

    /// True when every rank worker has exited (engine unusable; only
    /// happens after rank-fatal errors killed all workers).
    pub fn workers_gone(&self) -> bool {
        self.workers_gone
    }

    /// Engine-lifetime counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// A handle that makes a blocked [`EngineCtl::pump`] return early,
    /// for other threads to ring.
    pub fn waker(&self) -> EngineWaker {
        self.waker.clone()
    }

    /// Drive the engine: plan and dispatch pending work, then wait up to
    /// `wait` for completions. Returns every ticket that fully resolved
    /// during the call (possibly none). The call returns as soon as a
    /// ticket resolves or a batch completes, an [`EngineWaker::wake`]
    /// rings (or rang since the last pump returned), or `wait` passes,
    /// whichever comes first. This is the daemon's one blocking point:
    /// call it in a loop, interleaved with admission, and have whatever
    /// feeds admission ring the waker.
    pub fn pump(&mut self, wait: Duration) -> Vec<TicketDone> {
        let mut completed = Vec::new();
        self.feed(&mut completed);
        let deadline = Instant::now() + wait;
        loop {
            self.check_stall();
            let mut absorbed = false;
            loop {
                match self.done_rx.try_recv() {
                    Ok(batch) => {
                        self.absorb(batch, &mut completed);
                        absorbed = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.workers_gone = true;
                        break;
                    }
                }
            }
            if absorbed {
                // Refill the freed FIFO slots before returning.
                self.feed(&mut completed);
                break;
            }
            // The opening feed may already have resolved tickets: an empty
            // one, one the CPU fallback took whole, a cancelled one with
            // nothing in flight. Hand them back without waiting.
            if !completed.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= deadline || self.workers_gone {
                break;
            }
            // The step bounds how late the stall deadline is checked.
            if self
                .waker
                .wait((deadline - now).min(Duration::from_millis(25)))
            {
                break;
            }
        }
        completed
    }

    /// The stall deadline ([`RecoveryConfig::deadline`]): when work is in
    /// flight and nothing has completed for the policy's budget, cancel
    /// every rank once, cutting short whatever host-clock wait holds a
    /// launch. Fresh completions re-arm the trigger.
    fn check_stall(&mut self) {
        if self.total_in_flight == 0 || self.stall_cancelled {
            return;
        }
        let Some(budget) = self.rcfg.deadline.timeout() else {
            return;
        };
        if self.last_progress.elapsed() >= budget {
            self.cancel_ranks();
            self.stall_cancelled = true;
        }
    }

    fn usable_slots(&self, r: usize) -> Vec<usize> {
        if self.health.is_dead(r) {
            return Vec::new();
        }
        (0..self.dpus_per_rank)
            .filter(|&d| self.enabled[r][d] && !self.health.is_quarantined(r, d))
            .collect()
    }

    /// Top up the rank FIFOs from the queued tickets, oldest first. A
    /// ticket with nothing left to plan leaves the queue (and completes,
    /// if nothing of it is in flight either).
    fn feed(&mut self, completed: &mut Vec<TicketDone>) {
        let mut i = 0;
        while i < self.queue.len() {
            let ticket = self.queue[i];
            self.feed_ticket(ticket);
            let planned = self
                .tickets
                .get(&ticket)
                .is_none_or(|st| !st.has_unplanned());
            if planned {
                if let Some(st) = self.tickets.get_mut(&ticket) {
                    st.queued = false;
                }
                self.queue.remove(i);
                self.maybe_complete(ticket, completed);
            } else {
                i += 1;
            }
        }
    }

    /// Dispatch what fits of one ticket: between passes (nothing of it
    /// pinned to a rank or in flight) plan its next pass, then put its
    /// pinned batches on their ranks' FIFOs as room frees up.
    fn feed_ticket(&mut self, ticket: u64) {
        let n_ranks = self.inboxes.len();
        let Some(st) = self.tickets.get_mut(&ticket) else {
            return;
        };
        // A dead rank gives its pinned batches back; they run in the next
        // pass, on the survivors.
        for r in 0..n_ranks {
            if self.health.is_dead(r) {
                for (_, batch) in st.backlog[r].drain(..) {
                    st.pending
                        .extend(batch.into_iter().flat_map(|(_, units)| units));
                }
            }
        }
        let between_passes = st.in_flight_batches == 0 && st.backlog.iter().all(VecDeque::is_empty);
        if between_passes && !st.pending.is_empty() {
            self.plan_pass(ticket);
        }
        for r in 0..n_ranks {
            while self.in_flight[r] < self.depth {
                let Some((pos, batch)) = self
                    .tickets
                    .get_mut(&ticket)
                    .and_then(|st| st.backlog[r].pop_front())
                else {
                    break;
                };
                if !self.dispatch(ticket, r, pos, batch) {
                    break;
                }
            }
        }
    }

    /// Plan a ticket's next pass from its pending units, once a usable
    /// rank has FIFO room. Units out of PiM attempts (everything, when no
    /// DPU is usable) go to the CPU. The first pass of a ticket submitted
    /// with a placement runs it: batch `r` on rank `r`. Otherwise the units
    /// are grouped with [`group_jobs`] over `rounds × open` ranks — the
    /// usable ranks with FIFO room — batch `k × open + i` is pinned to the
    /// `i`-th of them, and each batch is LPT-balanced over its rank's
    /// usable DPUs. The first pass uses the ticket's rounds and retry
    /// passes one round. A one-shot ticket finds every usable rank idle at
    /// each pass, so its first pass groups over all of them; a daemon
    /// ticket arriving while some FIFOs are full packs onto the ranks that
    /// can start it.
    ///
    /// A pass is planned against the DPUs usable when it starts (a DPU
    /// quarantined mid-pass still runs the pass's remaining batches), its
    /// units are taken in index order, and passes never overlap within a
    /// ticket. A one-shot ticket's launches therefore do not depend on
    /// completion order: it replays its fault draws, and thereby its
    /// results and fault report.
    fn plan_pass(&mut self, ticket: u64) {
        let max_attempts = self.rcfg.max_attempts;
        let band = self.params.band;
        let slots: Vec<Vec<usize>> = (0..self.inboxes.len())
            .map(|r| self.usable_slots(r))
            .collect();
        let any_usable = slots.iter().any(|s| !s.is_empty());
        let open: Vec<usize> = (0..slots.len())
            .filter(|&r| !slots[r].is_empty() && self.in_flight[r] < self.depth)
            .collect();
        if any_usable && open.is_empty() {
            return;
        }
        let Some(st) = self.tickets.get_mut(&ticket) else {
            return;
        };
        let mut pending = std::mem::take(&mut st.pending);
        pending.sort_unstable();
        pending.dedup();
        let (retry, cpu): (Vec<usize>, Vec<usize>) = if any_usable {
            pending
                .into_iter()
                .partition(|&u| st.attempts[u] < max_attempts)
        } else {
            (Vec::new(), pending)
        };
        match st.placement.take() {
            Some(placement) if any_usable => {
                debug_assert_eq!(
                    placement
                        .iter()
                        .flatten()
                        .map(|(_, u)| u.len())
                        .sum::<usize>(),
                    retry.len(),
                    "a placement covers every unit"
                );
                for (r, batch) in placement.into_iter().enumerate() {
                    if !batch.is_empty() {
                        st.backlog[r].push_back(((0, r), batch));
                    }
                }
            }
            _ if !retry.is_empty() => {
                let workloads: Vec<u64> =
                    retry.iter().map(|&u| st.units.workload(u, band)).collect();
                // Batch `g = k × open + i` is round `k` on the `i`-th open
                // rank, so `g` orders launches as `round × ranks + rank`
                // does.
                let groups = group_jobs(&workloads, st.rounds * open.len());
                for (g, members) in groups.into_iter().enumerate() {
                    let r = open[g % open.len()];
                    let members: Vec<usize> = members.into_iter().map(|k| retry[k]).collect();
                    let batch = st.units.lpt(&members, &slots[r], band);
                    if !batch.is_empty() {
                        st.backlog[r].push_back(((st.passes, g), batch));
                    }
                }
            }
            _ => {}
        }
        st.passes += 1;
        st.rounds = 1;
        self.cpu_align(ticket, &cpu);
    }

    /// Put one pinned batch of `ticket` on rank `r`'s FIFO, its images
    /// serialized now. Returns false when the rank's worker is gone (the
    /// batch is requeued and the rank declared dead).
    fn dispatch(&mut self, ticket: u64, r: usize, pos: PlanPos, batch: PlannedUnits) -> bool {
        let st = self.tickets.get_mut(&ticket).expect("queued ticket exists");
        for &u in batch.iter().flat_map(|(_, units)| units) {
            st.attempts[u] += 1;
            if st.attempts[u] > 1 {
                st.out.fault.retried_jobs += st.units.slots(u).len();
            }
        }
        let (reused, allocated) = self.pool.counters();
        let plan_start = Instant::now();
        let plan = st.units.plan(
            &batch,
            self.dpus_per_rank,
            self.params,
            self.pools,
            self.mram,
            || self.pool.take(),
        );
        let dt = plan_start.elapsed().as_secs_f64();
        let m = &mut st.metrics;
        m.plan_seconds += dt;
        if self.total_in_flight > 0 {
            m.plan_overlap_seconds += dt;
        }
        let (reused_now, allocated_now) = self.pool.counters();
        m.buffers_reused += reused_now - reused;
        m.buffers_allocated += allocated_now - allocated;
        let Ok(plan) = plan else {
            // Planning is pure host-side work; an error here is a per-unit
            // problem (e.g. a pair or set that cannot fit in MRAM). Resolve
            // the batch on the CPU rather than poisoning the engine.
            let units: Vec<usize> = batch.into_iter().flat_map(|(_, units)| units).collect();
            self.cpu_align(ticket, &units);
            return true;
        };
        let audit = self.rcfg.audit.then(|| st.units.clone());
        st.in_flight_batches += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.meta.insert(seq, (ticket, pos, batch));
        self.in_flight[r] += 1;
        self.total_in_flight += 1;
        self.stats.batches += 1;
        st.metrics.batches += 1;
        let occupancy = &mut st.metrics.max_fifo_occupancy[r];
        *occupancy = (*occupancy).max(self.in_flight[r]);
        if self.total_in_flight == 1 {
            // First batch after an idle stretch re-arms the stall deadline
            // from now, not from the last busy period.
            self.last_progress = Instant::now();
            self.stall_cancelled = false;
        }
        if self.inboxes[r].send(WorkItem { seq, plan, audit }).is_ok() {
            return true;
        }
        // Worker exited (rank-fatal error earlier). Treat like a failed
        // batch.
        self.in_flight[r] -= 1;
        self.total_in_flight -= 1;
        let (_, _, planned) = self.meta.remove(&seq).expect("just inserted");
        let st = self.tickets.get_mut(&ticket).expect("ticket still open");
        st.in_flight_batches -= 1;
        st.out.fault.rank_failures += 1;
        if !st.cancelled {
            st.pending
                .extend(planned.into_iter().flat_map(|(_, units)| units));
        }
        if self.health.mark_dead(r) {
            st.out.fault.dead_ranks.push(r);
        }
        false
    }

    /// Resolve the slots of `units` with the kernel-identical CPU aligner
    /// (same results a healthy DPU would produce): scores alone under
    /// score-only params, alignments otherwise.
    fn cpu_align(&mut self, ticket: u64, units: &[usize]) {
        let params = self.params;
        let Some(st) = self.tickets.get_mut(&ticket) else {
            return;
        };
        let ids: Vec<usize> = units.iter().flat_map(|&u| st.units.slots(u)).collect();
        if ids.is_empty() {
            return;
        }
        let threads = self.cpu_threads.min(ids.len());
        st.out.fault.cpu_fallbacks += ids.len();
        let aligner = AdaptiveAligner::new(params.scheme, params.band);
        let pairs: Vec<(DnaSeq, DnaSeq)> = ids
            .iter()
            .map(|&s| {
                let (a, b) = st.units.pair(s);
                (a.unpack(), b.unpack())
            })
            .collect();
        let resolved: Vec<JobResult> = if params.score_only {
            let (results, _) = run_batch(threads, &pairs, |a, b| aligner.score(a, b));
            results
                .into_iter()
                .map(|r| cpu_result(r.map(|score| (score, Cigar::new()))))
                .collect()
        } else {
            let (results, _) = run_batch(threads, &pairs, |a, b| aligner.align(a, b));
            results
                .into_iter()
                .map(|r| cpu_result(r.map(|aln| (aln.score, aln.cigar))))
                .collect()
        };
        for (&i, jr) in ids.iter().zip(resolved) {
            if st.results[i].is_none() {
                st.remaining -= 1;
            }
            st.results[i] = Some(jr);
        }
    }

    /// Fold one completed batch back into its ticket. Results, faults and
    /// requeues take effect now; the launch's clock waits in the ticket's
    /// `settled` map for plan-order absorption at completion.
    fn absorb(&mut self, batch: BatchDone, completed: &mut Vec<TicketDone>) {
        let r = batch.rank;
        self.in_flight[r] -= 1;
        self.total_in_flight -= 1;
        self.last_progress = Instant::now();
        self.stall_cancelled = false;
        self.pool.put(batch.spent);
        let Some((ticket, pos, planned)) = self.meta.remove(&batch.seq) else {
            return;
        };
        let dpus_per_rank = self.dpus_per_rank;
        let st = self.tickets.get_mut(&ticket).expect("in-flight ticket");
        st.in_flight_batches -= 1;
        st.metrics.rank_stall_seconds[r] += batch.wait_seconds;
        st.metrics.rank_busy_seconds[r] += batch.busy_seconds;
        let mut requeue: Vec<usize> = Vec::new();
        match batch.outcome {
            Err(_) => {
                // Rank-fatal: worker panics and launch-layer errors alike.
                // A ticket cannot abort on them — record the failure, mark
                // the rank dead, requeue the batch's units for the
                // survivors (or the CPU).
                st.out.fault.rank_failures += 1;
                requeue.extend(planned.into_iter().flat_map(|(_, units)| units));
                if self.health.mark_dead(r) {
                    st.out.fault.dead_ranks.push(r);
                }
            }
            Ok(mut exec) => {
                st.metrics.decode_seconds += exec.decode_seconds;
                let mut lost = Vec::new();
                note_exec_faults(
                    &mut exec,
                    r,
                    dpus_per_rank,
                    &planned,
                    &mut self.health,
                    &mut st.out.fault,
                    &mut lost,
                );
                requeue.extend(lost.into_iter().map(|s| st.units.unit_of(s)));
                let results = std::mem::take(&mut exec.results);
                st.settled.insert(pos, exec);
                if !st.cancelled {
                    for (i, jr) in results {
                        if st.results[i].is_none() {
                            st.remaining -= 1;
                        }
                        st.results[i] = Some(jr);
                    }
                }
            }
        }
        // A reaped ticket drops its late requeues: completion fills the
        // still-empty slots with `Cancelled` and counts each exactly once.
        if !st.cancelled && !requeue.is_empty() {
            st.pending.extend(requeue);
            if !st.queued {
                st.queued = true;
                self.queue.push_back(ticket);
            }
        }
        self.maybe_complete(ticket, completed);
    }

    /// Emit the ticket if every slot resolved and nothing is in flight.
    fn maybe_complete(&mut self, ticket: u64, completed: &mut Vec<TicketDone>) {
        let Some(st) = self.tickets.get(&ticket) else {
            return;
        };
        if st.in_flight_batches > 0 || st.has_unplanned() {
            return;
        }
        if st.remaining > 0 && !st.cancelled {
            return;
        }
        let mut st = self.tickets.remove(&ticket).expect("checked above");
        let missing = st.results.iter().filter(|s| s.is_none()).count();
        st.out.fault.interrupted_jobs += missing;
        for (_, exec) in std::mem::take(&mut st.settled) {
            st.out.absorb(exec, &mut st.dpu_busy, &mut st.imbalances);
        }
        st.out.finalize(&st.dpu_busy, &st.imbalances);
        // Ranks return in any order; list what the ladder decided in rank
        // order so the report does not depend on completion order either.
        st.out.fault.quarantined.sort_unstable();
        st.out.fault.dead_ranks.sort_unstable();
        st.metrics.host_wall_seconds = st.started.elapsed().as_secs_f64();
        st.out.pipeline = Some(st.metrics);
        let results: Vec<JobResult> = st
            .results
            .drain(..)
            .map(|slot| slot.unwrap_or_else(cancelled_result))
            .collect();
        self.stats.tickets_done += 1;
        self.stats.jobs_done += results.len();
        completed.push(TicketDone {
            ticket,
            results,
            fault: std::mem::take(&mut st.out.fault),
            outcome: st.out,
            cancelled: st.cancelled,
        });
    }
}

/// A CPU alignment as a job result. The kernel reports an unreachable end
/// cell as `OutOfBand`; the CPU fallback must look the same to the caller.
fn cpu_result(r: Result<(i32, Cigar), AlignError>) -> JobResult {
    match r {
        Ok((score, cigar)) => JobResult {
            status: JobStatus::Ok,
            score,
            cigar,
        },
        Err(_) => JobResult {
            status: JobStatus::OutOfBand,
            score: 0,
            cigar: Cigar::new(),
        },
    }
}

fn cancelled_result() -> JobResult {
    JobResult {
        status: JobStatus::Cancelled,
        score: 0,
        cigar: Cigar::new(),
    }
}

/// Spawn persistent rank workers over `server`'s ranks, hand `f` the
/// [`EngineCtl`] to drive them, and tear the workers down when `f`
/// returns. The closure is the caller's whole use of the engine: the
/// daemon's accept loop, admission and drain, or a one-shot run's single
/// ticket.
///
/// The fault plan and rank/DPU geometry come from the server's
/// configuration; retry/quarantine/audit policy and the stall deadline
/// come from `rcfg`. Each launch sets its DPUs' watchdog budgets itself
/// ([`NwKernel::watchdog_cycles`]); whatever the server's
/// [`pim_sim::DpuConfig::watchdog_cycles`] held is not consulted.
/// `sim_threads` is the thread budget (`0` = available parallelism): each
/// rank's DPU pool gets its share, and the CPU fallback all of it.
pub fn with_persistent_engine<R>(
    server: &mut PimServer,
    kernel: &NwKernel,
    params: KernelParams,
    rcfg: &RecoveryConfig,
    fifo_depth: usize,
    sim_threads: usize,
    f: impl FnOnce(&mut EngineCtl) -> R,
) -> R {
    assert!(rcfg.max_attempts >= 1, "max_attempts must be >= 1");
    let n_ranks = server.rank_count();
    let dpus_per_rank = server.cfg().dpus_per_rank;
    let mram = server.cfg().dpu.mram_size;
    let host_bw = server.cfg().host_bandwidth;
    let freq = server.cfg().dpu.freq_hz;
    let pools = kernel.pool_cfg.pools;
    let depth = fifo_depth.max(1);
    let budget = crate::dispatch::thread_budget(sim_threads);
    // Each concurrently executing rank gets its share of the budget for its
    // DPUs, and always at least its own worker.
    let pool_threads = (budget / n_ranks.max(1)).max(1);

    let enabled: Vec<Vec<bool>> = (0..n_ranks)
        .map(|r| {
            let rank = server.rank(r).expect("rank index in range");
            (0..dpus_per_rank).map(|d| rank.dpu_enabled(d)).collect()
        })
        .collect();

    let ranks = server.ranks_mut();
    let tokens: Vec<_> = ranks.iter().map(|rank| rank.cancel_token()).collect();
    let (done_tx, done_rx) = channel::<BatchDone>();
    let waker = EngineWaker(Arc::default());
    std::thread::scope(|scope| {
        let mut inboxes = Vec::with_capacity(n_ranks);
        for (r, rank) in ranks.iter_mut().enumerate() {
            let (tx, rx) = sync_channel::<WorkItem>(depth);
            let done = done_tx.clone();
            let waker = waker.clone();
            scope.spawn(move || {
                worker_loop(
                    r,
                    rank,
                    kernel,
                    freq,
                    host_bw,
                    pool_threads,
                    rx,
                    done,
                    waker,
                )
            });
            inboxes.push(tx);
        }
        drop(done_tx);

        let mut ctl = EngineCtl {
            params,
            pools,
            mram,
            dpus_per_rank,
            cpu_threads: budget,
            rcfg: rcfg.clone(),
            depth,
            inboxes,
            done_rx,
            waker,
            tokens,
            enabled,
            health: HealthTracker::new(n_ranks, dpus_per_rank, rcfg.quarantine_after),
            pool: BufferPool::default(),
            in_flight: vec![0; n_ranks],
            total_in_flight: 0,
            next_seq: 0,
            next_ticket: 0,
            tickets: HashMap::new(),
            queue: VecDeque::new(),
            meta: HashMap::new(),
            last_progress: Instant::now(),
            stall_cancelled: false,
            workers_gone: false,
            stats: EngineStats::default(),
        };
        let result = f(&mut ctl);
        // Shutdown: break any still-hung launches, close the FIFOs so the
        // workers drain to Disconnected and exit, and swallow whatever they
        // were still sending — the scope join collects the threads.
        ctl.cancel_ranks();
        drop(ctl.inboxes);
        for _ in ctl.done_rx.iter() {}
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::DeadlinePolicy;
    use dpu_kernel::{KernelVariant, PoolConfig};
    use nw_core::ScoringScheme;
    use pim_sim::{FaultPlan, ServerConfig};

    fn params() -> KernelParams {
        KernelParams {
            band: 16,
            scheme: ScoringScheme::default(),
            score_only: false,
        }
    }

    fn kernel() -> NwKernel {
        NwKernel::new(
            PoolConfig {
                pools: 2,
                tasklets: 4,
            },
            KernelVariant::Asm,
        )
    }

    fn server_with(fault: FaultPlan, ranks: usize, dpus: usize) -> PimServer {
        let mut cfg = ServerConfig::with_ranks(ranks);
        cfg.dpus_per_rank = dpus;
        cfg.fault = fault;
        PimServer::new(cfg)
    }

    fn packed(n: usize, salt: usize) -> Vec<(PackedSeq, PackedSeq)> {
        (0..n)
            .map(|k| {
                let a = "ACGTGGTCAT".repeat(3 + (k + salt) % 3);
                let mut b = a.clone();
                b.insert_str(3 + (k + salt) % 5, "TG");
                (
                    DnaSeq::from_ascii(a.as_bytes()).unwrap().pack(),
                    DnaSeq::from_ascii(b.as_bytes()).unwrap().pack(),
                )
            })
            .collect()
    }

    fn reference(jobs: &[(PackedSeq, PackedSeq)]) -> Vec<JobResult> {
        let p = params();
        let aligner = AdaptiveAligner::new(p.scheme, p.band);
        jobs.iter()
            .map(|(a, b)| {
                let aln = aligner.align(&a.unpack(), &b.unpack()).unwrap();
                JobResult {
                    status: JobStatus::Ok,
                    score: aln.score,
                    cigar: aln.cigar,
                }
            })
            .collect()
    }

    fn drive_until(
        ctl: &mut EngineCtl,
        mut until: impl FnMut(&EngineCtl) -> bool,
    ) -> Vec<TicketDone> {
        let mut all = Vec::new();
        for _ in 0..2000 {
            all.extend(ctl.pump(Duration::from_millis(20)));
            if until(ctl) {
                return all;
            }
        }
        panic!("engine did not settle");
    }

    #[test]
    fn tickets_resolve_across_many_submissions() {
        let kernel = kernel();
        let mut server = server_with(FaultPlan::default(), 2, 3);
        with_persistent_engine(
            &mut server,
            &kernel,
            params(),
            &RecoveryConfig::default(),
            2,
            0,
            |ctl| {
                let mut expected = HashMap::new();
                for wave in 0..3 {
                    let jobs = packed(5 + wave, wave);
                    let want = reference(&jobs);
                    let t = ctl.submit(jobs);
                    expected.insert(t, want);
                }
                let done = drive_until(ctl, |c| c.idle());
                assert_eq!(done.len(), 3);
                for td in done {
                    assert!(!td.cancelled);
                    assert!(td.fault.is_clean(), "{}", td.fault.summary());
                    assert_eq!(td.results, expected[&td.ticket]);
                }
                assert_eq!(ctl.stats().tickets_done, 3);
                assert_eq!(ctl.stats().jobs_done, 5 + 6 + 7);
            },
        );
    }

    #[test]
    fn empty_ticket_resolves_on_next_pump() {
        let kernel = kernel();
        let mut server = server_with(FaultPlan::default(), 1, 2);
        with_persistent_engine(
            &mut server,
            &kernel,
            params(),
            &RecoveryConfig::default(),
            1,
            0,
            |ctl| {
                let t = ctl.submit(Vec::new());
                let done = drive_until(ctl, |c| c.idle());
                assert_eq!(done.len(), 1);
                assert_eq!(done[0].ticket, t);
                assert!(done[0].results.is_empty());
            },
        );
    }

    /// Tickets the opening feed resolves — an empty one, and one the CPU
    /// fallback takes whole because no DPU is usable — come back from that
    /// pump at once, not after its whole wait.
    #[test]
    fn pump_returns_tickets_its_opening_feed_resolved() {
        let kernel = kernel();
        let fault = FaultPlan {
            disabled_dpus: vec![(0, 0), (0, 1)],
            ..Default::default()
        };
        let mut server = server_with(fault, 1, 2);
        let rcfg = RecoveryConfig::default();
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 1, 0, |ctl| {
            let one = packed(1, 0);
            let want = reference(&one);
            for (jobs, want) in [(Vec::new(), Vec::new()), (one, want)] {
                let t = ctl.submit(jobs);
                let t0 = Instant::now();
                let done = ctl.pump(Duration::from_secs(5));
                let waited = t0.elapsed();
                assert!(waited < Duration::from_secs(1), "{waited:?}");
                assert_eq!(done.len(), 1);
                assert_eq!(done[0].ticket, t);
                assert_eq!(done[0].results, want);
            }
            assert!(ctl.idle());
        });
    }

    #[test]
    fn job_tickets_recycle_mram_buffers_through_the_pool() {
        // Four rounds on one rank through a depth-2 FIFO: later batches are
        // planned from the images earlier ones spent.
        let kernel = kernel();
        let mut server = server_with(FaultPlan::default(), 1, 2);
        with_persistent_engine(
            &mut server,
            &kernel,
            params(),
            &RecoveryConfig::default(),
            2,
            0,
            |ctl| {
                let jobs = packed(16, 0);
                let want = reference(&jobs);
                ctl.submit_units(Units::pairs(jobs), 4, None);
                let done = drive_until(ctl, |c| c.idle());
                assert_eq!(done[0].results, want);
                let m = done[0].outcome.pipeline.as_ref().expect("ticket metrics");
                assert_eq!(m.batches, 4);
                assert!(
                    m.buffers_reused > 0,
                    "later rounds draw from the pool: {m:?}"
                );
                assert!(
                    m.buffers_allocated <= 4,
                    "allocations bounded by the FIFO: {m:?}"
                );
                assert!(m.max_fifo_occupancy[0] <= 2);
            },
        );
    }

    /// `pump(10 s)` with a wake rung 200 ms into it returns within a
    /// second: on an idle engine, with a ticket held in flight (a minute's
    /// straggler hold and no stall deadline, so only teardown ends it), and
    /// with the wake rung before the pump started.
    #[test]
    fn wake_returns_a_blocked_pump_early() {
        let kernel = kernel();
        let fault = FaultPlan {
            straggler_ranks: vec![0],
            straggler_hold_ms: 60_000.0,
            ..Default::default()
        };
        let mut server = server_with(fault, 1, 2);
        let rcfg = RecoveryConfig::default();
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 1, 0, |ctl| {
            let pump_after = |ctl: &mut EngineCtl, delay: Option<Duration>| {
                let waker = ctl.waker();
                let ringer = match delay {
                    Some(d) => Some(std::thread::spawn(move || {
                        std::thread::sleep(d);
                        waker.wake();
                    })),
                    None => {
                        waker.wake();
                        None
                    }
                };
                let t0 = Instant::now();
                let done = ctl.pump(Duration::from_secs(10));
                let waited = t0.elapsed();
                if let Some(r) = ringer {
                    r.join().unwrap();
                }
                assert!(done.is_empty());
                assert!(waited < Duration::from_millis(1200), "{waited:?}");
            };
            pump_after(ctl, Some(Duration::from_millis(200)));
            assert!(ctl.idle());
            ctl.submit(packed(4, 0));
            pump_after(ctl, Some(Duration::from_millis(200)));
            assert_eq!(ctl.in_flight(), 1, "the held batch is still out");
            pump_after(ctl, None);
            assert_eq!(ctl.in_flight(), 1);
        });
    }

    #[test]
    fn faults_retry_and_fall_back_without_stopping_the_engine() {
        let kernel = kernel();
        let fault = FaultPlan {
            seed: 7,
            dpu_fault_rate: 1.0,
            ..Default::default()
        };
        let mut server = server_with(fault, 1, 2);
        let rcfg = RecoveryConfig {
            max_attempts: 2,
            quarantine_after: 2,
            ..Default::default()
        };
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 2, 0, |ctl| {
            let jobs = packed(6, 0);
            let want = reference(&jobs);
            let t = ctl.submit(jobs);
            let done = drive_until(ctl, |c| c.idle());
            assert_eq!(done.len(), 1);
            let td = &done[0];
            assert_eq!(td.ticket, t);
            assert_eq!(td.results, want, "{}", td.fault.summary());
            assert!(td.fault.cpu_fallbacks > 0, "{}", td.fault.summary());
            assert!(td.fault.dpu_faults > 0);
        });
    }

    #[test]
    fn quarantine_persists_across_tickets() {
        let kernel = kernel();
        let fault = FaultPlan {
            seed: 3,
            dpu_fault_rate: 1.0,
            ..Default::default()
        };
        let mut server = server_with(fault, 1, 2);
        let rcfg = RecoveryConfig {
            max_attempts: 3,
            quarantine_after: 1,
            ..Default::default()
        };
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 1, 0, |ctl| {
            let first = ctl.submit(packed(4, 0));
            let done = drive_until(ctl, |c| c.idle());
            let td = done.iter().find(|d| d.ticket == first).unwrap();
            assert!(
                !td.fault.quarantined.is_empty(),
                "always-faulting DPUs must quarantine: {}",
                td.fault.summary()
            );
            // Second ticket: every DPU is already quarantined, so the CPU
            // takes it directly — no new faults, no new quarantines.
            let jobs = packed(4, 1);
            let want = reference(&jobs);
            let second = ctl.submit(jobs);
            let done = drive_until(ctl, |c| c.idle());
            let td = done.iter().find(|d| d.ticket == second).unwrap();
            assert_eq!(td.results, want);
            assert_eq!(td.fault.dpu_faults, 0, "{}", td.fault.summary());
            assert!(td.fault.quarantined.is_empty());
            assert_eq!(td.fault.cpu_fallbacks, 4);
        });
    }

    #[test]
    fn cancel_resolves_unstarted_jobs_as_cancelled() {
        let kernel = kernel();
        let mut server = server_with(FaultPlan::default(), 1, 2);
        with_persistent_engine(
            &mut server,
            &kernel,
            params(),
            &RecoveryConfig::default(),
            1,
            0,
            |ctl| {
                // Cancel before any pump: nothing is in flight, so every
                // slot resolves as Cancelled immediately.
                let t = ctl.submit(packed(5, 0));
                ctl.cancel(t);
                let done = drive_until(ctl, |c| c.idle());
                assert_eq!(done.len(), 1);
                let td = &done[0];
                assert_eq!(td.ticket, t);
                assert!(td.cancelled);
                assert_eq!(td.fault.interrupted_jobs, 5, "{}", td.fault.summary());
                assert!(td.results.iter().all(|r| r.status == JobStatus::Cancelled));
            },
        );
    }

    #[test]
    fn audit_catches_silent_corruption_in_steady_state() {
        let kernel = kernel();
        let fault = FaultPlan {
            seed: 5,
            silent_corrupt_rate: 0.5,
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        let rcfg = RecoveryConfig {
            max_attempts: 12,
            quarantine_after: 100,
            audit: true,
            ..Default::default()
        };
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 2, 0, |ctl| {
            let mut fault_total = FaultReport::default();
            let mut all_ok = true;
            for wave in 0..3 {
                let jobs = packed(6, wave);
                let want = reference(&jobs);
                ctl.submit(jobs);
                for td in drive_until(ctl, |c| c.idle()) {
                    all_ok &= td.results == want;
                    fault_total.merge(&td.fault);
                }
            }
            assert!(all_ok, "audited results must match the reference");
            assert!(
                fault_total.silent_corruptions > 0,
                "rate 0.5 must corrupt something: {}",
                fault_total.summary()
            );
            assert!(
                fault_total.audit_failures > 0,
                "the audit must catch the mutated CIGARs: {}",
                fault_total.summary()
            );
        });
    }

    /// The stall deadline cuts short a launch held on the host clock: the
    /// straggler's 30 s hold ends after the 0.1 s deadline. Every launch
    /// also hangs, and the derived watchdog reaps it, so both DPUs
    /// quarantine and the jobs finish on the CPU.
    #[test]
    fn held_launches_are_cut_short_by_the_stall_deadline() {
        let kernel = kernel();
        let fault = FaultPlan {
            seed: 3,
            hang_rate: 1.0,
            straggler_ranks: vec![0],
            straggler_hold_ms: 30_000.0,
            ..Default::default()
        };
        let mut server = server_with(fault, 1, 2);
        let rcfg = RecoveryConfig {
            max_attempts: 2,
            quarantine_after: 1,
            deadline: DeadlinePolicy::after_seconds(0.1),
            ..Default::default()
        };
        let started = Instant::now();
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 2, 0, |ctl| {
            let jobs = packed(4, 0);
            let want = reference(&jobs);
            ctl.submit(jobs);
            let done = drive_until(ctl, |c| c.idle());
            assert_eq!(done.len(), 1);
            let td = &done[0];
            assert_eq!(td.results, want, "{}", td.fault.summary());
            assert!(
                td.fault.deadline_cancellations > 0,
                "{}",
                td.fault.summary()
            );
            assert!(td.fault.watchdog_expired > 0, "{}", td.fault.summary());
            assert_eq!(td.fault.cpu_fallbacks, 4, "{}", td.fault.summary());
        });
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(10), "{waited:?}");
    }

    /// Hung DPUs are reaped by their launch's derived watchdog in simulated
    /// time and their jobs retried, ticket after ticket, with every result
    /// equal to the reference.
    #[test]
    fn hung_dpus_are_reaped_and_retried_across_tickets() {
        let kernel = kernel();
        let fault = FaultPlan {
            seed: 11,
            hang_rate: 0.3,
            ..Default::default()
        };
        let mut server = server_with(fault, 2, 3);
        let rcfg = RecoveryConfig {
            max_attempts: 10,
            quarantine_after: 100,
            ..Default::default()
        };
        with_persistent_engine(&mut server, &kernel, params(), &rcfg, 2, 0, |ctl| {
            let mut total = FaultReport::default();
            for wave in 0..3 {
                let jobs = packed(10, wave);
                let want = reference(&jobs);
                ctl.submit(jobs);
                for td in drive_until(ctl, |c| c.idle()) {
                    assert_eq!(td.results, want, "{}", td.fault.summary());
                    total.merge(&td.fault);
                }
            }
            assert!(
                total.watchdog_expired > 0,
                "rate 0.3 over 6 DPUs must hang something"
            );
            assert!(total.retried_jobs > 0, "{}", total.summary());
            assert_eq!(total.deadline_cancellations, 0, "{}", total.summary());
        });
    }
}
