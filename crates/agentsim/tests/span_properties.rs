//! Property and concurrency tests of the phase-span layer.
//!
//! The load-bearing invariant: for *any* properly nested open/close
//! sequence, the per-phase exclusive totals of `Metrics::phase_breakdown`
//! (including the `(unspanned)` bucket) sum **exactly** to the run
//! totals — every counted move/access/wait is attributed to exactly one
//! phase. The concurrency test mirrors the torn-read discipline of
//! `AgentMetrics::snapshot` for `SpanTracker::snapshot`.

use proptest::prelude::*;
use qelect_agentsim::metrics::Counters;
use qelect_agentsim::{AgentMetrics, Metrics, SpanTracker, UNSPANNED};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One step of a simulated agent: bump a counter or touch the span stack.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Add `(moves, accesses, waits)` to the counters.
    Bump(u8, u8, u8),
    /// Open a span named by the index into `NAMES`.
    Open(u8),
    /// Close the innermost open span (no-op on an empty stack).
    Close,
}

const NAMES: [&str; 4] = ["map-drawing", "classes", "agent-reduce", "node-reduce"];

fn ops() -> impl Strategy<Value = Vec<Op>> {
    (any::<u64>(), 0usize..60).prop_map(|(seed, len)| {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..len)
            .map(|_| match next() % 3 {
                0 => Op::Bump((next() % 5) as u8, (next() % 5) as u8, (next() % 3) as u8),
                1 => Op::Open((next() % NAMES.len() as u64) as u8),
                _ => Op::Close,
            })
            .collect()
    })
}

/// Replay `ops` against a tracker, returning the final counters and the
/// sealed spans (any span still open at the end is force-closed, the
/// same backstop the engines apply after an agent's program returns).
fn replay(ops: &[Op]) -> (Counters, Metrics) {
    let tracker = SpanTracker::new(0);
    let mut now: Counters = (0, 0, 0);
    // Shadow name stack: `SpanTracker::close` checks (in debug builds)
    // that the name matches the innermost open span.
    let mut stack: Vec<&str> = Vec::new();
    for op in ops {
        match *op {
            Op::Bump(m, a, w) => {
                now.0 += m as u64;
                now.1 += a as u64;
                now.2 += w as u64;
            }
            Op::Open(name) => {
                let name = NAMES[name as usize];
                tracker.open(name, now, None);
                stack.push(name);
            }
            Op::Close => {
                if let Some(name) = stack.pop() {
                    tracker.close(name, now, None);
                }
            }
        }
    }
    tracker.force_close_all(now, None);
    let metrics = Metrics {
        per_agent: vec![now],
        spans: tracker.take(),
        ..Metrics::default()
    };
    (now, metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Phase rows (plus the unspanned bucket) sum exactly to run totals
    /// for arbitrary nesting and arbitrary interleaved counting.
    #[test]
    fn breakdown_sums_exactly_to_totals(ops in ops()) {
        let (now, metrics) = replay(&ops);
        let rows = metrics.phase_breakdown();
        let sum = rows.iter().fold((0u64, 0u64, 0u64), |acc, r| {
            (acc.0 + r.moves, acc.1 + r.accesses, acc.2 + r.waits)
        });
        prop_assert_eq!(sum, now, "rows: {:?}", rows);
        // Exclusive attribution never goes negative (no underflow) and
        // every span's inclusive cost is within the run totals.
        for span in &metrics.spans {
            let inc = span.inclusive();
            prop_assert!(inc.0 <= now.0 && inc.1 <= now.1 && inc.2 <= now.2);
            let exc = span.exclusive();
            prop_assert!(exc.0 <= inc.0 && exc.1 <= inc.1 && exc.2 <= inc.2);
        }
        // The unspanned bucket appears at most once, and last.
        let unspanned: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.phase == UNSPANNED)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(unspanned.len() <= 1);
        if let Some(&i) = unspanned.first() {
            prop_assert_eq!(i, rows.len() - 1);
        }
    }
}

/// Mirror of `snapshot_is_consistent_under_concurrent_increments` for
/// spans: a writer repeatedly wraps exactly one move + access + wait in
/// a span while a reader snapshots the tracker. The double-read
/// discipline must make every observed span consistent with a counter
/// state that actually existed: closed spans cost exactly `(1,1,1)`
/// inclusive, a virtually-closed open span at most that, and the
/// exclusive sum never exceeds the (monotone) counters read afterwards.
#[test]
fn span_snapshot_is_torn_read_free_under_concurrent_spans() {
    let am = Arc::new(AgentMetrics::default());
    let tracker = Arc::new(SpanTracker::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let am = Arc::clone(&am);
        let tracker = Arc::clone(&tracker);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                tracker.open("w", am.snapshot(), None);
                am.moves.fetch_add(1, Ordering::SeqCst);
                am.accesses.fetch_add(1, Ordering::SeqCst);
                am.waits.fetch_add(1, Ordering::SeqCst);
                tracker.close("w", am.snapshot(), None);
                // Drain sealed spans (as the engines do at teardown) so
                // the closed list — which `snapshot` clones under the
                // lock — stays O(1) and the reader's double-read
                // discipline can converge. Sealed spans cost exactly
                // one of each counter.
                for span in tracker.take() {
                    assert_eq!(span.inclusive(), (1, 1, 1));
                }
            }
        })
    };
    for _ in 0..5_000 {
        let spans = tracker.snapshot(&am);
        let mut sum = (0u64, 0u64, 0u64);
        for span in &spans {
            let inc = span.inclusive();
            assert!(
                inc.0 <= 1 && inc.1 <= 1 && inc.2 <= 1,
                "torn span: inclusive {inc:?} (writer does exactly one of each per span)"
            );
            let exc = span.exclusive();
            sum = (sum.0 + exc.0, sum.1 + exc.1, sum.2 + exc.2);
        }
        let (m, a, w) = am.snapshot();
        assert!(
            sum.0 <= m && sum.1 <= a && sum.2 <= w,
            "span total {sum:?} exceeds counters ({m}, {a}, {w})"
        );
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}
