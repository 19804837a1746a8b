//! Acceptance for the discrete-event sim engine against independent
//! references: the gcd oracle, the committed trace corpus, and its own
//! reruns — same outcomes, leader, per-phase span metrics, per-agent
//! counters, fault counters, recorded schedule, event log, and
//! serialized `qelect-trace/1` artifact.
//!
//! Coverage:
//! * a proptest sweep over random instances × seeds × generated fault
//!   plans against the gcd oracle;
//! * every committed `tests/traces/*.json` regression witness (the §1.3
//!   C6 double election and the ddmin-shrunk C8–C14 corpus),
//!   round-trip-pinned byte-for-byte and strictly replayed;
//! * the canonical-form cache's state (cold / warm / disabled) and its
//!   forced-collision fallback paths;
//! * `RunError`/interrupt surfaces (restart-budget abort, checkpoint
//!   recovery);
//! * a 10⁴-node election inside a tier-1 wall-clock budget.
//!
//! Every registry protocol's event log is also pinned against recorded
//! digests in `tests/integration_elect.rs`.

use proptest::prelude::*;
use qelect::anonymous::RingProbeProtocol;
use qelect::prelude::*;
use qelect::replay::{faulty_run_matches_oracle, run_elect_with_plan};
use qelect::solvability::elect_succeeds;
use qelect_agentsim::{
    AgentOutcome, ElectionRun, FaultAction, FaultEvent, Interrupt, RecoveryPolicy,
};
use qelect_graph::cache::{self, encode_digraph, ShardedCache};
use qelect_graph::canon::{canonicalize, CanonResult};
use qelect_graph::surrounding::{classes_from_canon, ordered_classes};
use qelect_graph::{families, Bicolored, ColoredDigraph};

/// Everything two identical runs must share, formatted for assert_eq
/// diffs (the shape `tests/integration_faults.rs` pins for replays).
/// Cache counters are process-global and deliberately excluded: the
/// claim is about run behavior, not memo traffic.
fn fingerprint(report: &RunReport) -> String {
    let spans: Vec<String> = report
        .metrics
        .spans
        .iter()
        .map(|s| {
            let (m, a, w) = s.exclusive();
            format!("{}:{}:{m}:{a}:{w}", s.agent, s.name)
        })
        .collect();
    format!(
        "outcomes={:?}\nleader={:?}\ntrace={:?}\nevents={:?}\nper_agent={:?}\nfaults={:?}\nspans={}",
        report.outcomes,
        report.leader,
        report.trace,
        report.events,
        report.metrics.per_agent,
        report.metrics.faults,
        spans.join(","),
    )
}

/// Crash-free ELECT with recording on: its fingerprint and its
/// serialized `qelect-trace/1` artifact.
fn recorded_elect(bc: &Bicolored, seed: u64, label: &str) -> (String, String) {
    let run = run_election(bc, &RunConfig::new(seed).record_trace(true)).unwrap();
    (
        fingerprint(&run.report),
        run.report.to_trace(bc, seed, label).to_json(),
    )
}

fn suite() -> Vec<(&'static str, Bicolored)> {
    vec![
        (
            "C6/trio (gcd 1)",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap(),
        ),
        (
            "C6/antipodal (gcd 2)",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap(),
        ),
        (
            "Petersen/pair (gcd 2)",
            Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "C7/trio (gcd 1)",
            Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap(),
        ),
        (
            "Q3/antipodal",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap(),
        ),
        (
            "circulant12/trio",
            Bicolored::new(families::circulant(12, &[1, 3]).unwrap(), &[0, 1, 3]).unwrap(),
        ),
    ]
}

/// A deterministic pseudo-random instance: one of five graph shapes plus
/// 1–3 distinct home-bases derived from `agent_seed` by an LCG. Plain
/// code instead of nested proptest strategies so a failing case prints
/// as three small integers.
fn diverse_instance(kind: u8, size: u8, agent_seed: u64) -> Bicolored {
    let g = match kind % 5 {
        0 => families::cycle(4 + (size % 9) as usize).unwrap(),
        1 => families::circulant(6 + (size % 7) as usize, &[1, 2]).unwrap(),
        2 => families::complete(2 + (size % 4) as usize).unwrap(),
        3 => families::hypercube(2 + (size % 2) as usize).unwrap(),
        _ => families::random_connected(5 + (size % 6) as usize, 0.3, agent_seed).unwrap(),
    };
    let n = g.n();
    let r = 1 + (agent_seed % 3) as usize;
    let mut agents: Vec<usize> = Vec::new();
    let mut x = agent_seed | 1;
    while agents.len() < r.min(n) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = (x >> 33) as usize % n;
        if !agents.contains(&v) {
            agents.push(v);
        }
    }
    agents.sort_unstable();
    Bicolored::new(g, &agents).unwrap()
}

proptest! {
    // Each case is several full ELECT runs; keep the budget tier-1.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_instances_seeds_and_plans_meet_the_oracle(
        kind in any::<u8>(),
        size in any::<u8>(),
        agent_seed in any::<u64>(),
        seed in 0u64..1000,
        plan_seed in any::<u64>(),
        crashes in 0usize..3,
        delays in 0usize..2,
    ) {
        // Generated plans keep the eventually-restarting regime, so the
        // run must agree with the gcd oracle, and a rerun must repeat it.
        let bc = diverse_instance(kind, size, agent_seed);
        let plan = FaultPlan::generate(plan_seed, bc.r(), 25, crashes, delays);
        let run = run_elect_with_plan(&bc, seed, &plan).unwrap();
        faulty_run_matches_oracle(&bc, &run)
            .map_err(|e| TestCaseError::fail(format!("sim vs oracle: {e}")))?;
        let again = run_elect_with_plan(&bc, seed, &plan).unwrap();
        prop_assert_eq!(fingerprint(&run.report), fingerprint(&again.report));
    }
}

/// The committed regression corpus: every trace under `tests/traces/`,
/// with the instance each was recorded on.
fn committed_corpus() -> Vec<(&'static str, usize)> {
    vec![
        ("c6_two_leaders.json", 6),
        ("c8_two_leaders_min.json", 8),
        ("c10_two_leaders_min.json", 10),
        ("c12_two_leaders_min.json", 12),
        ("c14_two_leaders_min.json", 14),
    ]
}

#[test]
fn committed_corpus_replays_byte_identically_under_sim() {
    for (name, n) in committed_corpus() {
        let path = format!("{}/../../tests/traces/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed trace reads");
        let trace = Trace::from_json(&text).expect("committed trace parses");
        // Round-trip pin: the committed bytes are exactly what this
        // build's writer emits, so any serialization drift is loud.
        assert_eq!(trace.to_json(), text, "{name}: round-trip drift");
        assert_eq!(trace.agents, 2, "{name}");
        assert_eq!(trace.nodes, n, "{name}");

        let bc = Bicolored::new(families::cycle(n).unwrap(), &[0, n / 2]).unwrap();
        let cfg = RunConfig::new(trace.seed)
            .record_trace(true)
            .replay(trace.schedule.clone(), true);
        let run = qelect_agentsim::run(&bc, &cfg, &RingProbeProtocol)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let leaders = run
            .report
            .outcomes
            .iter()
            .filter(|o| **o == AgentOutcome::Leader)
            .count();
        assert_eq!(leaders, 2, "{name}: the witness double-elects");
        assert_eq!(
            run.report.trace, trace.schedule,
            "{name}: schedule re-recorded"
        );
        assert_eq!(
            run.report.events, trace.events,
            "{name}: event log re-recorded"
        );
        // The replaying scheduler names itself; every other field of the
        // re-emitted artifact is the committed one.
        let reemitted = Trace {
            policy: trace.policy.clone(),
            ..run.report.to_trace(&bc, trace.seed, &trace.label)
        };
        assert_eq!(
            reemitted.to_json(),
            text,
            "{name}: re-emitted qelect-trace/1 artifact"
        );
    }
}

#[test]
fn cache_state_never_perturbs_the_differential() {
    // The canonical-form memo is a pure accelerator: the fingerprint and
    // the trace artifact must be identical whether the global cache is
    // cold, warm, or disabled. All global-flag manipulation stays inside
    // this one test.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    cache::global().set_enabled(true);
    cache::global().clear();
    let cold = recorded_elect(&bc, 5, "cache state");
    let warm = recorded_elect(&bc, 5, "cache state");
    cache::global().set_enabled(false);
    let uncached = recorded_elect(&bc, 5, "cache state");
    cache::global().set_enabled(true);
    assert_eq!(cold, warm);
    assert_eq!(cold, uncached);
}

#[test]
fn forced_collision_cache_paths_stay_exact() {
    // Force every key onto one fingerprint in a capacity-1 shard: each
    // lookup walks the collision chain AND evicts — the two fallback
    // paths the global cache hits only rarely. The class structure that
    // feeds ELECT's COMPUTE & ORDER must come back exact anyway, which
    // is what makes elections immune to cache collisions by
    // construction.
    fn constant(_: &[u64]) -> u64 {
        0
    }
    let instances = suite();
    let forced: ShardedCache<CanonResult> = ShardedCache::with_fingerprinter(1, 1, constant);
    for (label, bc) in &instances {
        let d = ColoredDigraph::from_bicolored(bc);
        let got = forced.get_or_insert_with(encode_digraph(&d), || canonicalize(&d));
        assert_eq!(classes_from_canon(bc, &got), ordered_classes(bc), "{label}");
    }
    let stats = forced.stats();
    assert_eq!(stats.lookups(), instances.len() as u64);
    assert!(
        stats.evictions > 0,
        "capacity 1 must evict across {} distinct instances: {stats:?}",
        instances.len()
    );
    // And ELECT still meets the gcd oracle on the very instances that
    // just exercised the collision fallback.
    for (label, bc) in &instances {
        let run = run_election(bc, &RunConfig::new(9)).unwrap();
        assert_eq!(run.clean_election(), elect_succeeds(bc), "{label}");
    }
}

#[test]
fn sim_elects_on_ten_thousand_nodes_within_budget() {
    // The tentpole's reason to exist: a 10⁴-node instance is tier-1
    // material on the sim engine. The ring probe is the right protocol
    // at this scale — ELECT's COMPUTE & ORDER canonicalizes the full
    // map, which is engine-independent super-linear work, while the
    // probe isolates what the engine itself costs per step. One agent:
    // the lone prober is the sound case — it walks the full 10⁴-hop
    // circuit (~3 × 10⁴ primitive ops) and elects itself.
    let n = 10_000;
    let bc = Bicolored::new(families::cycle(n).unwrap(), &[0]).unwrap();
    let budget = std::time::Duration::from_secs(30);
    let t0 = std::time::Instant::now();
    let sim = qelect_agentsim::run(&bc, &RunConfig::new(0), &RingProbeProtocol).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        sim.clean_election(),
        "sim must elect exactly one leader: {:?}",
        sim.report.outcomes
    );
    assert!(
        elapsed < budget,
        "10⁴-node sim election took {elapsed:?} (budget {budget:?})"
    );
    assert_eq!(
        sim.report.metrics.total_moves(),
        n as u64,
        "one full circuit"
    );
}

#[test]
fn checkpoint_recovery_is_idempotent_under_sim() {
    // Crash-with-restart on the sim engine: the restarted incarnation
    // recovers from its journaled checkpoint, the run still elects, and
    // re-running the identical (instance, seed, plan) any number of
    // times is byte-identical — recovery adds no hidden state.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let plan = FaultPlan {
        events: vec![FaultEvent {
            agent: 1,
            at_op: 20,
            action: FaultAction::Crash { restart_after: 1 },
        }],
        recovery: Default::default(),
    };
    let runs: Vec<ElectionRun> = (0..3)
        .map(|_| run_elect_with_plan(&bc, 4, &plan).unwrap())
        .collect();
    for run in &runs[1..] {
        assert_eq!(fingerprint(&runs[0].report), fingerprint(&run.report));
    }
    assert!(runs[0].clean_election(), "{:?}", runs[0].report.outcomes);
    assert_eq!(runs[0].faults.crashes, 1);
    assert_eq!(runs[0].faults.restarts, 1);
    assert!(
        runs[0]
            .report
            .metrics
            .spans
            .iter()
            .any(|s| s.name == "recovery" && s.agent == 1),
        "the restarted incarnation must attribute its catch-up work"
    );
    // The crash-free verdict is unchanged by the recovered crash.
    let crash_free = run_election(&bc, &RunConfig::new(4)).unwrap();
    assert_eq!(runs[0].clean_election(), crash_free.clean_election());
}

#[test]
fn restart_budget_abort_is_typed_and_identical_under_sim() {
    // Exhausting the restart budget must surface as the typed
    // Interrupted(Crashed) outcome — never a hang or panic — with the
    // same bytes on every rerun.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                agent: 0,
                at_op: 5,
                action: FaultAction::Crash { restart_after: 0 },
            },
            FaultEvent {
                agent: 0,
                at_op: 6,
                action: FaultAction::Crash { restart_after: 0 },
            },
        ],
        recovery: RecoveryPolicy {
            max_restarts: 1,
            ..Default::default()
        },
    };
    let sim = run_elect_with_plan(&bc, 0, &plan).unwrap();
    let again = run_elect_with_plan(&bc, 0, &plan).unwrap();
    assert_eq!(
        sim.report.outcomes[0],
        AgentOutcome::Interrupted(Interrupt::Crashed)
    );
    assert_eq!(sim.faults.aborted, 1);
    assert_eq!(fingerprint(&again.report), fingerprint(&sim.report));
}
