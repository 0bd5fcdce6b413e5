//! In-process spans for the traced run (Dapper-style, reduced to one
//! process): every span has a name, a start, an end, the request it
//! belongs to and the span that caused it. Counts are recorded at the same
//! call as their span. Everything stays in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<step>`.
    pub name: &'static str,
    /// The request (query or mutation) this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began (`u64::MAX` while open).
    pub end_ns: u64,
}

/// A recorded count or ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// The request it was recorded for.
    pub request: u64,
    /// The value.
    pub value: f64,
}

/// The span and count log of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Trace) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a count for `request`.
    pub fn count(&mut self, request: u64, name: &'static str, value: f64) {
        self.counts.push(Count {
            name,
            request,
            value,
        });
    }

    /// Append an already-timed span.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration in nanoseconds.
    pub fn total_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children count once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        self.total_ns(id) - covered
    }

    /// Per span name, the self time in milliseconds summed per request:
    /// `name -> [ms of request 1, ms of request 2, ...]` (request order).
    pub fn self_ms_by_request(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *per.entry(s.name)
                .or_default()
                .entry(s.request)
                .or_insert(0.0) += self.self_ns(id) as f64 / 1e6;
        }
        per.into_iter()
            .map(|(name, by_request)| (name, by_request.into_values().collect()))
            .collect()
    }

    /// Per count name, every recorded value in recording order.
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for c in &self.counts {
            per.entry(c.name).or_default().push(c.value);
        }
        per
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::default();
        let root = t.push(span("query", None, 0, 100));
        let a = t.push(span("search", Some(root), 10, 30));
        t.push(span("align", Some(root), 30, 50));
        let d = t.push(span("diversify", Some(root), 60, 95));
        t.push(span("diversify.matrix", Some(d), 60, 80));
        // an overlapping child (e.g. a parallel part) is not subtracted twice
        t.push(span("diversify.rerank", Some(d), 70, 90));
        assert_eq!(t.self_ns(root), 100 - 20 - 20 - 35);
        assert_eq!(t.self_ns(a), 20);
        assert_eq!(t.self_ns(d), 35 - 30);
        // grandchildren do not reduce the root's self time a second time
        assert_eq!(t.total_ns(root), 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Trace::default();
        let root = t.push(span("query", None, 10, 20));
        t.push(span("late", Some(root), 15, 40));
        assert_eq!(t.self_ns(root), 5);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Trace::default();
        t.span(7, "query", |t| {
            t.span(7, "search", |_| ());
            t.span(7, "diversify", |t| t.span(7, "diversify.matrix", |_| ()));
        });
        let names: Vec<(&str, Option<usize>)> =
            t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("query", None),
                ("search", Some(0)),
                ("diversify", Some(0)),
                ("diversify.matrix", Some(2)),
            ]
        );
        let root_self = t.self_ns(0);
        let children: u64 = t.total_ns(1) + t.total_ns(2);
        assert_eq!(root_self + children, t.total_ns(0));
        assert_eq!(t.self_ms_by_request()["search"].len(), 1);
    }
}
