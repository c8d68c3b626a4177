//! In-memory spans recorded around calls into each layer, their self times,
//! and the trace artifact written when a traced run ends.
//!
//! A span's self time is its duration minus the part of its interval that
//! its child spans cover. Children of one span never overlap (every replay
//! call is sequential), but the union is computed anyway so a nesting bug
//! shows up as a failed [`Tracer::check_trees`] rather than a wrong number.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `proto.parse`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (0 while open).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (or batch call) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. Spans stay in memory until [`Tracer::to_json`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Close an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.ns(Instant::now());
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(name, parent, req, t0, Instant::now());
        out
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Median self time of the spans named `name`, in microseconds
    /// (`None` when there are none).
    pub fn median_self_us(&self, name: &str) -> Option<f64> {
        let own = self.self_times();
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    }

    /// Per tree whose root is named `root`: its request id and the summed
    /// self time of every span below the root (the root's own glue time
    /// excluded), in ms.
    pub fn layer_sums_ms(&self, root: &str) -> Vec<(u64, f64)> {
        let own = self.self_times();
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, &ns) in own.iter().enumerate() {
            if let Some(r) = self
                .root_of(i)
                .filter(|&r| r != i && self.spans[r].name == root)
            {
                *sums.entry(r).or_insert(0.0) += ns as f64 / 1e6;
            }
        }
        sums.into_iter()
            .map(|(r, ms)| (self.spans[r].req, ms))
            .collect()
    }

    fn root_of(&self, mut i: usize) -> Option<usize> {
        for _ in 0..=self.spans.len() {
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return Some(i),
            }
        }
        None
    }

    /// Check every span tree: children lie inside their parent and share
    /// its request id, and the self times of a tree sum to its root's
    /// duration. Returns the first violation.
    pub fn check_trees(&self) -> Result<(), String> {
        let own = self.self_times();
        let mut sums = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start < ps.start || s.end > ps.end || s.req != ps.req {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {}",
                        s.name, ps.name
                    ));
                }
            }
            let root = self
                .root_of(i)
                .ok_or_else(|| format!("span {i} has a parent cycle"))?;
            sums[root] += own[i];
        }
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && sums[i] != s.dur() {
                return Err(format!(
                    "tree {i} ({}): self times sum to {} ns, root lasts {} ns",
                    s.name,
                    sums[i],
                    s.dur()
                ));
            }
        }
        Ok(())
    }

    /// The spans as a JSON array (name, start/end ns, parent, request id,
    /// self ns).
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{}}}",
                s.name, s.start, s.end, s.req, own[i]
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_trees_reconcile() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("request", None, 7, at(0), at(10));
        t.record("a", Some(root), 7, at(1), at(4));
        let b = t.record("b", Some(root), 7, at(5), at(9));
        t.record("b.inner", Some(b), 7, at(6), at(8));
        let own = t.self_times();
        assert_eq!(own, vec![3_000_000, 3_000_000, 2_000_000, 2_000_000]);
        t.check_trees().unwrap();
        assert_eq!(t.layer_sums_ms("request"), vec![(7, 7.0)]);
        assert_eq!(t.median_self_us("a"), Some(3000.0));
    }

    #[test]
    fn escaping_child_is_reported() {
        let mut t = Tracer::default();
        let t0 = t.origin;
        let root = t.record("request", None, 1, t0, t0 + Duration::from_millis(2));
        t.record("late", Some(root), 1, t0, t0 + Duration::from_millis(3));
        assert!(t.check_trees().is_err());
    }
}
