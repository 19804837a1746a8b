//! Move and whiteboard-access accounting.
//!
//! Theorem 3.1 bounds protocol ELECT by **O(r·|E|) moves and whiteboard
//! accesses**; the experiment suite measures both. Counters are atomics
//! so observers on other threads can snapshot them while a run is live.
//!
//! Two layers of attribution sit on the raw counters:
//!
//! * [`Checkpoint`] — a labeled *cumulative* reading at a
//!   protocol-chosen moment ("map-drawing done: 34 moves so far").
//! * [`PhaseSpan`] — a named *interval*: the counter deltas between a
//!   `span_open`/`span_close` pair, nestable, with time inside child
//!   spans subtracted out so every move/access/wait is attributed to
//!   exactly one phase. [`Metrics::phase_breakdown`] folds the spans of
//!   a run into per-phase totals that sum — by construction — back to
//!   the run totals (any work outside every span lands in the
//!   [`UNSPANNED`] bucket).

use qelect_graph::cache::CacheStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A cumulative `(moves, accesses, waits)` counter triple.
pub type Counters = (u64, u64, u64);

fn add3(a: Counters, b: Counters) -> Counters {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2)
}

fn sub3(a: Counters, b: Counters) -> Counters {
    (
        a.0.saturating_sub(b.0),
        a.1.saturating_sub(b.1),
        a.2.saturating_sub(b.2),
    )
}

fn max3(a: Counters, b: Counters) -> Counters {
    (a.0.max(b.0), a.1.max(b.1), a.2.max(b.2))
}

/// Per-agent counters.
#[derive(Debug, Default)]
pub struct AgentMetrics {
    /// Edge traversals.
    pub moves: AtomicU64,
    /// Whiteboard accesses (reads and read-modify-writes).
    pub accesses: AtomicU64,
    /// Completed waits (wake-ups whose predicate held).
    pub waits: AtomicU64,
}

impl AgentMetrics {
    /// Snapshot as plain numbers — a **consistent** triple even while
    /// the owning agent is still incrementing.
    ///
    /// The counters are monotone and only the owning agent increments
    /// them, but observers may snapshot from other threads,
    /// so three independent loads could observe a torn state that never
    /// existed (e.g. a `moves` value from before an increment paired
    /// with an `accesses` value from after a later one). The fix reads
    /// the triple twice and retries until both passes agree: if
    /// `moves` matched across the two passes it was constant over an
    /// interval covering the other first-pass loads, and likewise for
    /// each counter, so the three constancy intervals overlap and the
    /// returned triple is the actual state at some instant inside the
    /// overlap. `SeqCst` keeps the pass ordering from being reordered
    /// away.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        loop {
            let first = (
                self.moves.load(Ordering::SeqCst),
                self.accesses.load(Ordering::SeqCst),
                self.waits.load(Ordering::SeqCst),
            );
            let second = (
                self.moves.load(Ordering::SeqCst),
                self.accesses.load(Ordering::SeqCst),
                self.waits.load(Ordering::SeqCst),
            );
            if first == second {
                return first;
            }
        }
    }
}

impl Clone for AgentMetrics {
    fn clone(&self) -> Self {
        let (m, a, w) = self.snapshot();
        AgentMetrics {
            moves: AtomicU64::new(m),
            accesses: AtomicU64::new(a),
            waits: AtomicU64::new(w),
        }
    }
}

/// A labeled checkpoint: cumulative totals at a protocol-chosen moment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The label the protocol supplied (e.g. `"map-drawing done"`).
    pub label: String,
    /// The agent that recorded it.
    pub agent: usize,
    /// Cumulative moves of that agent at the moment of recording.
    pub moves: u64,
    /// Cumulative accesses of that agent at the moment of recording.
    pub accesses: u64,
}

/// Name of the synthetic [`Metrics::phase_breakdown`] bucket holding
/// work done outside every span.
pub const UNSPANNED: &str = "(unspanned)";

/// One closed (or virtually closed) phase interval of one agent.
///
/// `start` and `end` are cumulative counter readings of the owning
/// agent's [`AgentMetrics`]; the span's **inclusive** cost is their
/// difference. `covered` accumulates the inclusive cost of the span's
/// *direct* children, so the **exclusive** cost — what the phase itself
/// spent, with nested phases subtracted out — is `inclusive − covered`.
/// Summing exclusive costs over all spans of an agent therefore counts
/// every increment at most once, which is what lets
/// [`Metrics::phase_breakdown`] telescope back to the run totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpan {
    /// Phase name (e.g. `"map-drawing"`).
    pub name: String,
    /// The agent the span belongs to.
    pub agent: usize,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
    /// Cumulative `(moves, accesses, waits)` at open.
    pub start: Counters,
    /// Cumulative `(moves, accesses, waits)` at close.
    pub end: Counters,
    /// Sum of the inclusive costs of direct child spans.
    pub covered: Counters,
    /// Canonical-form cache activity during the span (delta of the
    /// process-global counters; superset semantics under concurrency,
    /// like [`Metrics::canon_cache`]). `None` if not plumbed.
    pub cache: Option<CacheStats>,
}

impl PhaseSpan {
    /// `(moves, accesses, waits)` spent between open and close,
    /// including nested child spans.
    pub fn inclusive(&self) -> Counters {
        sub3(self.end, self.start)
    }

    /// `(moves, accesses, waits)` attributed to this phase itself:
    /// inclusive cost minus the cost covered by direct children.
    pub fn exclusive(&self) -> Counters {
        sub3(self.inclusive(), self.covered)
    }

    /// `moves + accesses` of [`PhaseSpan::exclusive`] — the per-phase
    /// share of the quantity Theorem 3.1 bounds.
    pub fn work(&self) -> u64 {
        let (m, a, _) = self.exclusive();
        m + a
    }
}

/// An open span awaiting its close.
#[derive(Debug)]
struct OpenSpan {
    name: String,
    depth: usize,
    start: Counters,
    covered: Counters,
    cache_start: Option<CacheStats>,
}

#[derive(Debug, Default)]
struct TrackerState {
    open: Vec<OpenSpan>,
    closed: Vec<PhaseSpan>,
}

/// Per-agent span bookkeeping: an open-span stack plus the closed list.
///
/// Only the owning agent opens and closes spans, but — exactly like the
/// raw [`AgentMetrics`] counters — other threads may observe mid-run via
/// [`SpanTracker::snapshot`], which pairs the locked span read with the
/// double-read counter discipline so the returned spans are consistent
/// with a counter state that actually existed.
#[derive(Debug, Default)]
pub struct SpanTracker {
    agent: usize,
    state: Mutex<TrackerState>,
}

impl SpanTracker {
    /// A tracker for agent `agent`.
    pub fn new(agent: usize) -> Self {
        SpanTracker {
            agent,
            state: Mutex::new(TrackerState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TrackerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span named `name` at counter reading `now`.
    pub fn open(&self, name: &str, now: Counters, cache: Option<CacheStats>) {
        let mut st = self.lock();
        let depth = st.open.len();
        st.open.push(OpenSpan {
            name: name.to_string(),
            depth,
            start: now,
            covered: (0, 0, 0),
            cache_start: cache,
        });
    }

    /// Close the innermost open span at counter reading `now`. The
    /// `name` must match the innermost open span (checked in debug
    /// builds); a close with nothing open is ignored.
    pub fn close(&self, name: &str, now: Counters, cache: Option<CacheStats>) {
        let mut st = self.lock();
        let Some(open) = st.open.pop() else {
            debug_assert!(false, "span_close(\"{name}\") with no open span");
            return;
        };
        debug_assert_eq!(
            open.name, name,
            "span_close(\"{name}\") does not match innermost open span"
        );
        let span = seal(open, self.agent, now, cache);
        if let Some(parent) = st.open.last_mut() {
            parent.covered = add3(parent.covered, span.inclusive());
        }
        st.closed.push(span);
    }

    /// Close every still-open span (innermost first) at counter reading
    /// `now`. The engines call this after an agent's program returns, so
    /// a span left open by an interrupt (budget exhaustion, unsolvable
    /// detection) still reports the work it did.
    pub fn force_close_all(&self, now: Counters, cache: Option<CacheStats>) {
        let mut st = self.lock();
        while let Some(open) = st.open.pop() {
            let span = seal(open, self.agent, now, cache);
            if let Some(parent) = st.open.last_mut() {
                parent.covered = add3(parent.covered, span.inclusive());
            }
            st.closed.push(span);
        }
    }

    /// Drain the closed spans (run teardown).
    pub fn take(&self) -> Vec<PhaseSpan> {
        std::mem::take(&mut self.lock().closed)
    }

    /// Consistent mid-run view: closed spans plus still-open spans
    /// virtually closed at the current counter reading.
    ///
    /// Mirrors [`AgentMetrics::snapshot`]: the counters are read before
    /// and after the locked span read and the whole observation retries
    /// until both readings agree, so the spans returned are consistent
    /// with a `(moves, accesses, waits)` state the agent actually passed
    /// through. Virtual ends are clamped to each span's start
    /// (`max` component-wise), so a span opened concurrently with the
    /// observation never yields an underflowed delta. Open spans carry
    /// no cache delta: a cache reading taken by the observer could
    /// predate the span's own opening reading.
    pub fn snapshot(&self, counters: &AgentMetrics) -> Vec<PhaseSpan> {
        loop {
            let before = counters.snapshot();
            let mut spans = {
                let st = self.lock();
                let mut spans = st.closed.clone();
                // Walk the open stack innermost-first so each span's
                // virtual covered includes its (single) open child.
                let mut child_inclusive = (0, 0, 0);
                for open in st.open.iter().rev() {
                    let end = max3(open.start, before);
                    let span = PhaseSpan {
                        name: open.name.clone(),
                        agent: self.agent,
                        depth: open.depth,
                        start: open.start,
                        end,
                        covered: add3(open.covered, child_inclusive),
                        cache: None,
                    };
                    child_inclusive = span.inclusive();
                    spans.push(span);
                }
                spans
            };
            let after = counters.snapshot();
            if before == after {
                spans.sort_by_key(|s| s.depth);
                return spans;
            }
        }
    }
}

fn seal(open: OpenSpan, agent: usize, now: Counters, cache: Option<CacheStats>) -> PhaseSpan {
    PhaseSpan {
        name: open.name,
        agent,
        depth: open.depth,
        start: open.start,
        end: max3(open.start, now),
        covered: open.covered,
        cache: match (open.cache_start, cache) {
            (Some(s), Some(now)) => Some(s.delta(&now)),
            _ => None,
        },
    }
}

/// Aggregated exclusive cost of one phase across a run's spans.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Phase name (span name, or [`UNSPANNED`]).
    pub phase: String,
    /// Number of spans folded into this row (0 for [`UNSPANNED`]).
    pub spans: u64,
    /// Exclusive moves.
    pub moves: u64,
    /// Exclusive whiteboard accesses.
    pub accesses: u64,
    /// Exclusive completed waits.
    pub waits: u64,
    /// Merged cache deltas of the folded spans (`None` if no span
    /// carried one, and always `None` for [`UNSPANNED`]).
    pub cache: Option<CacheStats>,
}

impl PhaseBreakdown {
    /// `moves + accesses` — this phase's share of [`Metrics::total_work`].
    pub fn work(&self) -> u64 {
        self.moves + self.accesses
    }
}

/// Whole-run metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// One entry per agent.
    pub per_agent: Vec<(u64, u64, u64)>,
    /// Checkpoints in recording order.
    pub checkpoints: Vec<Checkpoint>,
    /// Scheduler grants issued (gated engine only).
    pub steps: u64,
    /// Preemptive context switches: grants where the scheduler switched
    /// away from an agent that was still ready (gated engine only; the
    /// quantity Chess-style exploration bounds).
    pub preemptions: u64,
    /// Canonical-form cache activity observed over this run: the delta
    /// of the process-global `qelect_graph::cache` counters between run
    /// start and end. `None` for engines that do not plumb it.
    /// Counters are process-global, so concurrent runs (e.g. parallel
    /// sweep workers) each see a superset of their own traffic.
    pub canon_cache: Option<CacheStats>,
    /// Closed phase spans of every agent, in close order per agent.
    /// Empty for engines (or protocols) that emit none.
    pub spans: Vec<PhaseSpan>,
    /// Fault-injection activity (all zero for crash-free runs).
    pub faults: crate::fault::FaultSummary,
}

impl Metrics {
    /// Total moves across agents.
    pub fn total_moves(&self) -> u64 {
        self.per_agent.iter().map(|&(m, _, _)| m).sum()
    }

    /// Total whiteboard accesses across agents.
    pub fn total_accesses(&self) -> u64 {
        self.per_agent.iter().map(|&(_, a, _)| a).sum()
    }

    /// Total completed waits across agents.
    pub fn total_waits(&self) -> u64 {
        self.per_agent.iter().map(|&(_, _, w)| w).sum()
    }

    /// `moves + accesses` — the quantity Theorem 3.1 bounds by O(r·|E|).
    pub fn total_work(&self) -> u64 {
        self.total_moves() + self.total_accesses()
    }

    /// Fold the run's spans into per-phase exclusive totals, ordered by
    /// first appearance, with work outside every span in a final
    /// [`UNSPANNED`] row. The rows' moves/accesses/waits columns sum
    /// exactly to [`Metrics::total_moves`] / [`Metrics::total_accesses`]
    /// / [`Metrics::total_waits`] (the property the span-coverage
    /// proptest pins), provided spans nest properly — which the
    /// [`SpanTracker`] stack discipline guarantees.
    pub fn phase_breakdown(&self) -> Vec<PhaseBreakdown> {
        let mut rows: Vec<PhaseBreakdown> = Vec::new();
        for span in &self.spans {
            let (m, a, w) = span.exclusive();
            let row = match rows.iter_mut().find(|r| r.phase == span.name) {
                Some(row) => row,
                None => {
                    rows.push(PhaseBreakdown {
                        phase: span.name.clone(),
                        spans: 0,
                        moves: 0,
                        accesses: 0,
                        waits: 0,
                        cache: None,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.spans += 1;
            row.moves += m;
            row.accesses += a;
            row.waits += w;
            if let Some(delta) = span.cache {
                row.cache = Some(row.cache.unwrap_or_default().merge(&delta));
            }
        }
        let spanned = rows.iter().fold((0, 0, 0), |acc, r| {
            add3(acc, (r.moves, r.accesses, r.waits))
        });
        let (um, ua, uw) = sub3(
            (
                self.total_moves(),
                self.total_accesses(),
                self.total_waits(),
            ),
            spanned,
        );
        if um + ua + uw > 0 || rows.is_empty() {
            rows.push(PhaseBreakdown {
                phase: UNSPANNED.to_string(),
                spans: 0,
                moves: um,
                accesses: ua,
                waits: uw,
                cache: None,
            });
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_per_agent() {
        let m = Metrics {
            per_agent: vec![(10, 20, 1), (5, 7, 0)],
            steps: 42,
            ..Metrics::default()
        };
        assert_eq!(m.total_moves(), 15);
        assert_eq!(m.total_accesses(), 27);
        assert_eq!(m.total_work(), 42);
        assert_eq!(m.total_waits(), 1);
    }

    #[test]
    fn nested_spans_attribute_exclusively() {
        let t = SpanTracker::new(0);
        t.open("outer", (0, 0, 0), None);
        t.open("inner", (3, 1, 0), None);
        t.close("inner", (5, 4, 0), None);
        t.close("outer", (6, 4, 1), None);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.inclusive(), (2, 3, 0));
        assert_eq!(inner.exclusive(), (2, 3, 0));
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.inclusive(), (6, 4, 1));
        assert_eq!(outer.covered, (2, 3, 0));
        assert_eq!(outer.exclusive(), (4, 1, 1));
        // Exclusive costs telescope: inner + outer = outer inclusive.
        assert_eq!(add3(inner.exclusive(), outer.exclusive()), (6, 4, 1));
    }

    #[test]
    fn force_close_seals_open_stack() {
        let t = SpanTracker::new(2);
        t.open("a", (0, 0, 0), None);
        t.open("b", (1, 0, 0), None);
        t.force_close_all((4, 2, 0), None);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.inclusive(), (3, 2, 0));
        assert_eq!(a.covered, b.inclusive());
        assert_eq!(a.exclusive(), (1, 0, 0));
        assert!(spans.iter().all(|s| s.agent == 2));
    }

    #[test]
    fn breakdown_sums_to_totals_with_unspanned_bucket() {
        let t = SpanTracker::new(0);
        t.open("map-drawing", (2, 1, 0), None);
        t.close("map-drawing", (10, 5, 1), None);
        t.open("classes", (10, 5, 1), None);
        t.close("classes", (10, 9, 1), None);
        let m = Metrics {
            per_agent: vec![(12, 11, 2)],
            spans: t.take(),
            ..Metrics::default()
        };
        let rows = m.phase_breakdown();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].phase, "map-drawing");
        assert_eq!((rows[0].moves, rows[0].accesses, rows[0].waits), (8, 4, 1));
        assert_eq!(rows[1].phase, "classes");
        assert_eq!(rows[2].phase, UNSPANNED);
        let sum = rows.iter().fold((0, 0, 0), |acc, r| {
            add3(acc, (r.moves, r.accesses, r.waits))
        });
        assert_eq!(sum, (m.total_moves(), m.total_accesses(), m.total_waits()));
    }

    #[test]
    fn breakdown_merges_cache_deltas_per_phase() {
        let cs = |hits, misses| CacheStats {
            hits,
            misses,
            evictions: 0,
            collisions: 0,
        };
        let t = SpanTracker::new(0);
        t.open("classes", (0, 0, 0), Some(cs(0, 0)));
        t.close("classes", (1, 1, 0), Some(cs(2, 1)));
        t.open("classes", (1, 1, 0), Some(cs(2, 1)));
        t.close("classes", (2, 2, 0), Some(cs(5, 1)));
        let m = Metrics {
            per_agent: vec![(2, 2, 0)],
            spans: t.take(),
            ..Metrics::default()
        };
        let rows = m.phase_breakdown();
        assert_eq!(rows[0].spans, 2);
        assert_eq!(rows[0].cache, Some(cs(5, 1)));
    }

    #[test]
    fn snapshot_virtually_closes_open_spans() {
        let am = AgentMetrics::default();
        am.moves.fetch_add(4, Ordering::SeqCst);
        am.accesses.fetch_add(2, Ordering::SeqCst);
        let t = SpanTracker::new(0);
        t.open("outer", (0, 0, 0), None);
        t.open("inner", (3, 1, 0), None);
        let spans = t.snapshot(&am);
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.end, (4, 2, 0));
        assert_eq!(inner.exclusive(), (1, 1, 0));
        // The open child's virtual inclusive is covered by the parent.
        assert_eq!(outer.covered, (1, 1, 0));
        assert_eq!(outer.exclusive(), (3, 1, 0));
        // Snapshotting does not consume anything.
        assert!(t.take().is_empty());
    }

    #[test]
    fn atomic_counters_snapshot() {
        let am = AgentMetrics::default();
        am.moves.fetch_add(3, Ordering::Relaxed);
        am.accesses.fetch_add(2, Ordering::Relaxed);
        assert_eq!(am.snapshot(), (3, 2, 0));
        let cloned = am.clone();
        assert_eq!(cloned.snapshot(), (3, 2, 0));
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_increments() {
        // A writer increments the triple in the fixed order moves →
        // accesses → waits, so every state the system ever passes
        // through satisfies waits ≤ accesses ≤ moves ≤ waits + 1.
        // A torn snapshot (e.g. pre-increment moves with post-increment
        // waits) violates the invariant; the stable double-read in
        // `snapshot` must never surface one. This also exercises the
        // Clone path, which goes through `snapshot`.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let am = Arc::new(AgentMetrics::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let am = Arc::clone(&am);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    am.moves.fetch_add(1, Ordering::SeqCst);
                    am.accesses.fetch_add(1, Ordering::SeqCst);
                    am.waits.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        for _ in 0..20_000 {
            let (m, a, w) = am.clone().snapshot();
            assert!(
                w <= a && a <= m && m <= w + 1,
                "torn snapshot: moves {m}, accesses {a}, waits {w}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
