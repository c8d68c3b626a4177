//! Bounded priority admission queue: the backpressure half of the daemon.
//!
//! Admission is decided synchronously at arrival, against two explicit
//! bounds — queued requests and queued pairs — so queue memory stays
//! bounded no matter how hard clients push. When the queue is full, an
//! arriving request either *displaces* the youngest strictly-lower-priority
//! queued request (load shedding: the victim gets an explicit `shed`
//! response, never silence) or is *rejected* with a retry hint. Within a
//! class, service order is FIFO; across classes, higher priority always
//! pops first.

use crate::proto::{AlignRequest, Priority};
use std::collections::VecDeque;
use std::time::Instant;

/// One admitted request waiting for dispatch.
#[derive(Debug)]
pub struct Queued {
    /// The parsed request.
    pub req: AlignRequest,
    /// Connection that sent it (responses go back here).
    pub conn: u64,
    /// Arrival time; latency is measured from here.
    pub arrival: Instant,
    /// Absolute deadline (arrival + `deadline_ms`), if any.
    pub deadline: Option<Instant>,
    /// Request-journal sequence number, when durability is on; terminal
    /// answers close it so a crash replays only unanswered tickets.
    pub seq: Option<u64>,
}

/// The outcome of an admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// Admitted; the queue had room.
    Admitted,
    /// Admitted by displacing a strictly-lower-priority queued request;
    /// the victim must be answered with a `shed` response.
    Displaced(Queued),
    /// No room and no lower-priority victim: the request is handed back
    /// for an explicit rejection.
    Rejected(Queued),
}

/// The bounded priority queue between admission and dispatch.
#[derive(Debug)]
pub struct AdmissionQueue {
    max_requests: usize,
    max_pairs: usize,
    queued_pairs: usize,
    classes: [VecDeque<Queued>; Priority::COUNT],
}

impl AdmissionQueue {
    /// A queue bounded to `max_requests` requests and `max_pairs` total
    /// queued pairs (both clamped to at least 1).
    pub fn new(max_requests: usize, max_pairs: usize) -> Self {
        AdmissionQueue {
            max_requests: max_requests.max(1),
            max_pairs: max_pairs.max(1),
            queued_pairs: 0,
            classes: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// Queued requests across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Total pairs across queued requests (the memory bound's unit).
    pub fn queued_pairs(&self) -> usize {
        self.queued_pairs
    }

    fn has_room_for(&self, pairs: usize) -> bool {
        self.len() < self.max_requests && self.queued_pairs + pairs <= self.max_pairs
    }

    /// Try to admit `q`. At most one victim is displaced; if evicting the
    /// youngest lowest-priority victim still would not make room (an
    /// oversized arrival), the victim stays and the arrival is rejected.
    pub fn admit(&mut self, q: Queued) -> Admission {
        let pairs = q.req.pairs.len();
        if self.has_room_for(pairs) {
            self.push(q);
            return Admission::Admitted;
        }
        // Youngest victim of the lowest populated class strictly below the
        // arrival's priority.
        for class in (q.req.priority.index() + 1..Priority::COUNT).rev() {
            if let Some(victim) = self.classes[class].pop_back() {
                self.queued_pairs -= victim.req.pairs.len();
                if self.has_room_for(pairs) {
                    self.push(q);
                    return Admission::Displaced(victim);
                }
                // Evicting one victim is not enough: put it back.
                self.queued_pairs += victim.req.pairs.len();
                self.classes[class].push_back(victim);
                return Admission::Rejected(q);
            }
        }
        Admission::Rejected(q)
    }

    fn push(&mut self, q: Queued) {
        self.queued_pairs += q.req.pairs.len();
        self.classes[q.req.priority.index()].push_back(q);
    }

    /// Enqueue a crash-recovered ticket, bypassing the admission bounds:
    /// it was already admitted (and journaled) by a previous process
    /// lifetime, so bouncing it now would break the conservation law the
    /// journal exists to preserve. Recovery happens before the socket
    /// accepts traffic, so the transient over-bound is limited to the
    /// replayed backlog and drains normally.
    pub fn push_recovered(&mut self, q: Queued) {
        self.push(q);
    }

    /// Pop the next request to dispatch: highest class first, FIFO within
    /// a class.
    pub fn pop_next(&mut self) -> Option<Queued> {
        for class in &mut self.classes {
            if let Some(q) = class.pop_front() {
                self.queued_pairs -= q.req.pairs.len();
                return Some(q);
            }
        }
        None
    }

    /// The earliest deadline among queued requests, if any carries one:
    /// when the reaper next has work.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.classes
            .iter()
            .flatten()
            .filter_map(|q| q.deadline)
            .min()
    }

    /// Remove and return every queued request whose deadline is at or
    /// before `now` — the reaper that turns expired waits into explicit
    /// deadline-miss responses instead of letting them rot in the queue.
    pub fn reap_expired(&mut self, now: Instant) -> Vec<Queued> {
        let mut out = Vec::new();
        for class in &mut self.classes {
            let mut keep = VecDeque::with_capacity(class.len());
            for q in class.drain(..) {
                if q.deadline.is_some_and(|d| d <= now) {
                    self.queued_pairs -= q.req.pairs.len();
                    out.push(q);
                } else {
                    keep.push_back(q);
                }
            }
            *class = keep;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_core::seq::DnaSeq;
    use std::time::Duration;

    fn request(id: &str, priority: Priority, pairs: usize) -> Queued {
        let seq = DnaSeq::from_ascii(b"ACGT").unwrap();
        Queued {
            req: AlignRequest {
                id: id.to_string(),
                priority,
                deadline_ms: None,
                pairs: (0..pairs).map(|_| (seq.clone(), seq.clone())).collect(),
            },
            conn: 0,
            arrival: Instant::now(),
            deadline: None,
            seq: None,
        }
    }

    #[test]
    fn exactly_full_queue_rejects_equal_priority_and_sheds_lower() {
        let mut q = AdmissionQueue::new(2, 100);
        assert!(matches!(
            q.admit(request("b1", Priority::Batch, 1)),
            Admission::Admitted
        ));
        assert!(matches!(
            q.admit(request("b2", Priority::Batch, 1)),
            Admission::Admitted
        ));
        assert_eq!(q.len(), 2);

        // Exactly full: another batch request cannot displace its own class.
        let Admission::Rejected(back) = q.admit(request("b3", Priority::Batch, 1)) else {
            panic!("expected rejection at the request cap");
        };
        assert_eq!(back.req.id, "b3");
        assert_eq!(q.len(), 2);

        // A higher class displaces the *youngest* batch request.
        let Admission::Displaced(victim) = q.admit(request("i1", Priority::Interactive, 1)) else {
            panic!("expected displacement");
        };
        assert_eq!(victim.req.id, "b2");
        assert_eq!(q.len(), 2);

        // Interactive requests are never shed: full queue of interactive
        // work rejects even interactive arrivals.
        let Admission::Displaced(victim) = q.admit(request("i2", Priority::Interactive, 1)) else {
            panic!("expected displacement of b1");
        };
        assert_eq!(victim.req.id, "b1");
        assert!(matches!(
            q.admit(request("i3", Priority::Interactive, 1)),
            Admission::Rejected(_)
        ));

        // Service order: highest class first, FIFO within it.
        assert_eq!(q.pop_next().unwrap().req.id, "i1");
        assert_eq!(q.pop_next().unwrap().req.id, "i2");
        assert!(q.pop_next().is_none());
        assert_eq!(q.queued_pairs(), 0);
    }

    #[test]
    fn pair_budget_bounds_memory_independently_of_request_count() {
        let mut q = AdmissionQueue::new(100, 10);
        assert!(matches!(
            q.admit(request("b1", Priority::Batch, 8)),
            Admission::Admitted
        ));
        // 8 + 5 > 10: over the pair budget even though only 1 request is queued.
        assert!(matches!(
            q.admit(request("b2", Priority::Batch, 5)),
            Admission::Rejected(_)
        ));
        // A higher-priority arrival displaces the batch request to fit.
        let Admission::Displaced(victim) = q.admit(request("n1", Priority::Normal, 9)) else {
            panic!("expected displacement");
        };
        assert_eq!(victim.req.id, "b1");
        assert_eq!(q.queued_pairs(), 9);
        // An arrival too big even after evicting the only victim bounces,
        // and the victim is preserved.
        assert!(matches!(
            q.admit(request("i1", Priority::Interactive, 11)),
            Admission::Rejected(_)
        ));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_next().unwrap().req.id, "n1");
    }

    #[test]
    fn reaper_returns_only_expired_requests() {
        let now = Instant::now();
        let mut q = AdmissionQueue::new(10, 100);
        let mut expired = request("dead", Priority::Normal, 2);
        expired.deadline = Some(now - Duration::from_millis(1));
        let mut live = request("live", Priority::Normal, 3);
        live.deadline = Some(now + Duration::from_secs(60));
        q.admit(expired);
        q.admit(live);
        q.admit(request("forever", Priority::Batch, 1));

        assert_eq!(q.next_deadline(), Some(now - Duration::from_millis(1)));
        let reaped = q.reap_expired(now);
        assert_eq!(q.next_deadline(), Some(now + Duration::from_secs(60)));
        assert_eq!(reaped.len(), 1);
        assert_eq!(reaped[0].req.id, "dead");
        assert_eq!(q.len(), 2);
        assert_eq!(q.queued_pairs(), 4);
        assert_eq!(q.pop_next().unwrap().req.id, "live");
        assert_eq!(q.next_deadline(), None);
        assert_eq!(q.pop_next().unwrap().req.id, "forever");
    }
}
