//! Integration tests for the parallel sweep engine and its canonical-form
//! cache — the differential layer of the PR:
//!
//! * aggregate tables are bit-identical whatever the worker count and
//!   whatever the cache state (determinism of the work-stealing driver);
//! * the cache observes real traffic during a sweep (hit rate > 0) and
//!   disabling it changes timing only, never results;
//! * the Petersen counterexample of §4 is pinned: a non-Cayley instance
//!   where ELECT correctly reports impossibility (gcd 2) under the
//!   cached class path;
//! * the committed C6 double-election witness replays bit-for-bit
//!   through the cached path, cold and warm.

use qelect::prelude::{gcd_of_class_sizes, Trace};
use qelect::solvability::elect_succeeds;
use qelect_agentsim::gated::{run_gated_faulty, RunConfig, RunReport};
use qelect_agentsim::FaultPlan;
use qelect_bench::sweep::{run_sweep, SweepBucket, SweepConfig};
use qelect_graph::cache;
use qelect_graph::{families, Bicolored};

/// Crash-free ELECT through the non-deprecated typed entry.
fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
    use qelect::elect::{elect_agents, ElectFault};
    run_gated_faulty(
        bc,
        cfg,
        &FaultPlan::none(),
        elect_agents(bc.r(), ElectFault::default()),
    )
    .expect("gated run failed")
}

fn small_config(workers: usize) -> SweepConfig {
    SweepConfig {
        trials: 8,
        workers,
        seed0: 42,
        repeats: 2,
        buckets: vec![
            SweepBucket {
                n_lo: 5,
                n_hi: 8,
                p: 0.3,
            },
            SweepBucket {
                n_lo: 8,
                n_hi: 11,
                p: 0.2,
            },
        ],
        ..Default::default()
    }
}

/// Satellite (b): the aggregate table is a pure function of the config —
/// 1, 2 and 8 workers (the last heavily oversubscribed relative to the
/// trial count) must produce identical per-bucket statistics, including
/// the order-sensitive floating-point work-ratio averages.
#[test]
fn worker_count_does_not_change_aggregates() {
    let base = run_sweep(&small_config(1));
    assert!(base.all_agree(), "ELECT must agree with the gcd oracle");
    assert!(
        base.total_valid > 0,
        "the seed range must produce counted trials"
    );
    for workers in [2usize, 8] {
        let got = run_sweep(&small_config(workers));
        assert_eq!(got.buckets, base.buckets, "{workers} workers");
        assert_eq!(got.total_valid, base.total_valid);
        assert_eq!(got.total_agree, base.total_agree);
        assert_eq!(got.workers, workers, "the report records its worker count");
    }
}

/// The cache is a pure accelerator: cold, warm and disabled runs of the
/// same sweep agree bucket-for-bucket, and the warm run's stats window
/// shows the memo actually being hit, at every worker count. All
/// global-flag manipulation stays inside this one test so parallel
/// tests in this binary never observe a disabled cache.
#[test]
fn cache_changes_timing_never_results() {
    cache::global().set_enabled(true);
    cache::global().clear();
    let cold = run_sweep(&small_config(1));
    let warm = run_sweep(&small_config(1));
    assert_eq!(warm.buckets, cold.buckets, "warm cache, same table");
    assert!(
        warm.cache.hits > 0,
        "a warm sweep must answer some class lookups from the memo: {:?}",
        warm.cache
    );
    assert!(warm.cache.hit_rate() > 0.0);

    cache::global().set_enabled(false);
    for workers in [1usize, 2, 8] {
        let uncached = run_sweep(&small_config(workers));
        assert_eq!(
            uncached.buckets, cold.buckets,
            "disabled cache, {workers} workers, same table"
        );
        assert_eq!(uncached.total_valid, cold.total_valid);
        assert_eq!(uncached.total_agree, cold.total_agree);
    }
    cache::global().set_enabled(true);

    // Re-enabled and already warm: still the same table at every
    // worker count (workers share the memo).
    for workers in [2usize, 8] {
        let rewarm = run_sweep(&small_config(workers));
        assert_eq!(
            rewarm.buckets, cold.buckets,
            "warm cache, {workers} workers, same table"
        );
    }
}

/// Forced fingerprint collisions never corrupt cached results: with
/// every key mapped to one fingerprint, the chain's full-key fallback
/// must still return exactly the value computed for each distinct
/// instance, and every value must equal the cold path's.
#[test]
fn forced_collisions_keep_cached_results_exact() {
    use qelect_graph::cache::{encode_digraph, ShardedCache};
    use qelect_graph::canon::{canonicalize, CanonResult};
    use qelect_graph::surrounding::{classes_from_canon, ordered_classes};
    use qelect_graph::ColoredDigraph;

    fn constant(_: &[u64]) -> u64 {
        7
    }
    let cache: ShardedCache<CanonResult> = ShardedCache::with_fingerprinter(2, 64, constant);
    // A chain of near-identical instances (the sweep drivers' regime).
    let mut keys = Vec::new();
    for homes in [vec![0usize, 17], vec![0, 16], vec![1, 18], vec![2, 19]] {
        let bc = Bicolored::new(families::cycle(40).unwrap(), &homes).unwrap();
        let d = ColoredDigraph::from_bicolored(&bc);
        let key = encode_digraph(&d);
        let cached = cache.get_or_insert_with(key.clone(), || canonicalize(&d));
        let cold = canonicalize(&d);
        assert_eq!(cached.form, cold.form, "{homes:?}: word");
        assert_eq!(cached.labeling, cold.labeling, "{homes:?}: labeling");
        assert_eq!(cached.orbits, cold.orbits, "{homes:?}: orbits");
        assert_eq!(classes_from_canon(&bc, &cached), ordered_classes(&bc));
        keys.push((key, cold));
    }
    let before = cache.stats();
    assert_eq!(
        before.misses,
        keys.len() as u64,
        "each distinct key computed once"
    );
    assert!(
        before.collisions > 0,
        "distinct keys on one fingerprint must walk the chain: {before:?}"
    );
    // Re-look up every key: all hits, all byte-identical to cold.
    for (key, cold) in &keys {
        let again = cache.get_or_insert_with(key.clone(), || unreachable!("must hit"));
        assert_eq!(again.form, cold.form);
        assert_eq!(again.labeling, cold.labeling);
    }
    let after = cache.stats();
    assert_eq!(after.hits - before.hits, keys.len() as u64);
    assert_eq!(after.misses, before.misses, "re-lookups never recompute");
}

/// Satellite (d), part 1: the §4 counterexample. The Petersen graph is
/// vertex-transitive but not a Cayley graph; with two adjacent agents
/// the class sizes are [2, 4, 4], so gcd = 2 and election is impossible
/// — and the agents, computing their classes through the cached path,
/// unanimously report exactly that.
#[test]
fn petersen_counterexample_is_pinned() {
    let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
    assert_eq!(gcd_of_class_sizes(&bc), 2);
    assert!(!elect_succeeds(&bc));

    let oc = cache::ordered_classes_cached(&bc);
    let sizes: Vec<usize> = oc.classes.iter().map(|c| c.nodes.len()).collect();
    assert_eq!(sizes, vec![2, 4, 4], "two black, the whites split 4+4");
    assert_eq!(oc.ell, 1, "both agents occupy one equivalence class");

    let report = run_elect(&bc, RunConfig::default());
    assert!(report.interrupted.is_none(), "{:?}", report.outcomes);
    assert!(!report.clean_election());
    assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
}

/// Satellite (d), part 2: the committed C6 double-election witness must
/// replay bit-for-bit when the ring probers' computations go through the
/// cached path — once cold (caches just cleared) and once warm.
#[test]
fn committed_c6_trace_replays_identically_under_cached_path() {
    use qelect_agentsim::AgentOutcome;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/c6_two_leaders.json"
    );
    let trace = Trace::load(path).expect("committed trace parses");
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();

    cache::global().clear();
    let cold = qelect::replay::replay_ring_probe(&bc, &trace, true);
    let warm = qelect::replay::replay_ring_probe(&bc, &trace, true);

    for (label, report) in [("cold", &cold), ("warm", &warm)] {
        let leaders = report
            .outcomes
            .iter()
            .filter(|o| **o == AgentOutcome::Leader)
            .count();
        assert_eq!(
            leaders, 2,
            "{label}: the witness double-elects: {:?}",
            report.outcomes
        );
        assert!(!report.clean_election(), "{label}");
        assert_eq!(
            report.trace, trace.schedule,
            "{label}: schedule re-recorded"
        );
        assert_eq!(
            report.events, trace.events,
            "{label}: event log re-recorded"
        );
    }
    assert_eq!(cold.outcomes, warm.outcomes);
}
