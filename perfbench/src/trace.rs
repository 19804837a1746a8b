//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start and an end (ns since the run's clock
//! started), the span that caused it, and the id of the election,
//! request or session it belongs to. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.push(name, op, parent, self.ns(start), self.ns(end))
    }

    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Total self time per span name, in ns.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// Spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.name, sp.op, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

/// Duration minus the part covered by direct children. Children of one
/// parent never overlap each other: they are calls made one after the
/// other by a single thread.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let parent = &spans[p];
            let lo = sp.start_ns.max(parent.start_ns);
            let hi = sp.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(sp, c)| sp.dur_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("elect", None, 0, 100),
            span("canon", Some(0), 10, 30),
            span("prepare", Some(0), 30, 90),
            span("inner", Some(2), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 20]);
        // Self times add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("request", None, 50, 100),
            span("queue", Some(0), 30, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 40]);
    }

    #[test]
    fn totals_group_by_name() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let root = tr.push("elect", 1, None, 0, 50);
        tr.push("canon", 1, Some(root), 0, 20);
        tr.push("canon", 2, None, 100, 110);
        let by = tr.self_by_name();
        assert_eq!(by["elect"], 30);
        assert_eq!(by["canon"], 30);
        assert_eq!(tr.to_jsonl().lines().count(), 3);
    }
}
