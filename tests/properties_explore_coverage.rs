//! Property tests for the coverage model behind `ExploreSession`:
//!
//! * **Worker-count invariance** — a swarm exploration reports the same
//!   covered-signature set (and the same coverage stats) for 1, 2, and 8
//!   workers, which is what makes swarm results reproducible.

use qelect::prelude::*;
use qelect_graph::{families, Bicolored};

#[test]
fn swarm_covered_sets_are_worker_count_invariant() {
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    let entry = qelect::registry::resolve("anonymous").unwrap();
    let run_cfg = RunConfig::new(9).record_trace(true);
    let session = ExploreSession::from_entry(entry, &bc, &run_cfg).unwrap();
    let explore_with = |workers: usize| {
        session.explore(&ExploreConfig {
            max_schedules: 40,
            swarm_runs: 600,
            workers,
            max_counterexamples: 8,
            ..ExploreConfig::default()
        })
    };
    let one = explore_with(1);
    assert!(one.swarm_used, "the C6 tree is too large for a 40-run DFS");
    assert!(
        one.coverage.unique >= 2,
        "a swarm this size covers something"
    );
    for workers in [2usize, 8] {
        let many = explore_with(workers);
        assert_eq!(
            one.covered, many.covered,
            "covered-signature set changed between 1 and {workers} workers"
        );
        assert_eq!(one.schedules_explored, many.schedules_explored);
        assert_eq!(one.coverage, many.coverage, "{workers} workers");
        assert_eq!(one.max_ticks, many.max_ticks);
        assert_eq!(one.violations, many.violations, "{workers} workers");
        assert_eq!(
            one.counterexamples.len(),
            many.counterexamples.len(),
            "{workers} workers"
        );
        for (a, b) in one.counterexamples.iter().zip(&many.counterexamples) {
            assert_eq!(a.schedule, b.schedule, "{workers} workers");
            assert_eq!(a.violation, b.violation, "{workers} workers");
        }
    }
}
