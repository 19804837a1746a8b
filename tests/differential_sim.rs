//! Differential acceptance for the discrete-event sim engine: on every
//! workload the repo can express, `Engine::Sim` must be byte-identical
//! to `Engine::Gated` — same outcomes, leader, gcd verdict, per-phase
//! span metrics, per-agent counters, fault counters, recorded schedule,
//! event log, and serialized `qelect-trace/1` artifact. The gated
//! engine is the oracle; the sim engine is the thing on trial.
//!
//! Coverage, mirroring the PR's acceptance list:
//! * a fixed cross-family suite and a proptest sweep over random
//!   instances × seeds × generated fault plans;
//! * recorded gated schedules strictly replayed on sim;
//! * every committed `tests/traces/*.json` regression witness (the §1.3
//!   C6 double election and the ddmin-shrunk C8/C10/C12 corpus),
//!   round-trip-pinned byte-for-byte and replayed on both engines;
//! * the canonical-form cache's state (cold / warm / disabled) and its
//!   forced-collision fallback paths;
//! * `RunError`/interrupt surfaces (restart-budget abort, checkpoint
//!   recovery) under sim;
//! * a 10⁴-node election inside a tier-1 wall-clock budget.

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
/// diffs (the shape `tests/integration_faults.rs` pins for replays,
/// reused here for the cross-engine contract). Cache counters are
/// process-global and deliberately excluded: the differential claim is
/// about run behavior, not memo traffic.
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

/// Run crash-free ELECT with recording on both engines and assert the
/// full fingerprint AND the serialized `qelect-trace/1` artifact agree
/// byte-for-byte. Returns the gated run for further checks.
fn assert_elect_differential(bc: &Bicolored, seed: u64, label: &str) -> ElectionRun {
    let gated = run_election(bc, &RunConfig::new(seed).record_trace(true)).unwrap();
    let sim = run_election(
        bc,
        &RunConfig::new(seed).engine(Engine::Sim).record_trace(true),
    )
    .unwrap();
    assert_eq!(
        fingerprint(&gated.report),
        fingerprint(&sim.report),
        "{label} seed {seed}"
    );
    assert_eq!(
        gated.report.to_trace(bc, seed, label).to_json(),
        sim.report.to_trace(bc, seed, label).to_json(),
        "{label} seed {seed}: qelect-trace/1 artifacts must be byte-identical"
    );
    gated
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

#[test]
fn fixed_suite_is_byte_identical_across_engines() {
    for (label, bc) in suite() {
        let solvable = elect_succeeds(&bc);
        for seed in [0u64, 1, 2] {
            let gated = assert_elect_differential(&bc, seed, label);
            assert_eq!(
                gated.clean_election(),
                solvable,
                "{label} seed {seed}: verdict must match the gcd oracle"
            );
        }
    }
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
    fn random_instances_seeds_and_plans_match_gated(
        kind in any::<u8>(),
        size in any::<u8>(),
        agent_seed in any::<u64>(),
        seed in 0u64..1000,
        plan_seed in any::<u64>(),
        crashes in 0usize..3,
        delays in 0usize..2,
    ) {
        let bc = diverse_instance(kind, size, agent_seed);
        let plan = FaultPlan::generate(plan_seed, bc.r(), 25, crashes, delays);
        let gated = run_elect_with_plan(&bc, seed, Engine::Gated, &plan).unwrap();
        let sim = run_elect_with_plan(&bc, seed, Engine::Sim, &plan).unwrap();
        prop_assert_eq!(fingerprint(&gated.report), fingerprint(&sim.report));
        // Generated plans keep the eventually-restarting regime, so both
        // engines must also agree with the gcd oracle.
        faulty_run_matches_oracle(&bc, &sim)
            .map_err(|e| TestCaseError::fail(format!("sim vs oracle: {e}")))?;
    }

    #[test]
    fn recorded_gated_schedules_replay_identically_on_sim(
        kind in any::<u8>(),
        size in any::<u8>(),
        agent_seed in any::<u64>(),
        seed in 0u64..1000,
    ) {
        // The schedule-addressing contract: a schedule recorded on the
        // gated engine, strictly replayed on the sim engine, reproduces
        // the run byte-for-byte — sim steps ARE gated steps.
        let bc = diverse_instance(kind, size, agent_seed);
        let cfg = RunConfig::new(seed).record_trace(true);
        let recorded = run_election(&bc, &cfg).unwrap();
        let replayed = run_election(
            &bc,
            &cfg.clone()
                .engine(Engine::Sim)
                .replay(recorded.report.trace.clone(), true),
        )
        .unwrap();
        prop_assert_eq!(fingerprint(&recorded.report), fingerprint(&replayed.report));
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
        let mut reports = Vec::new();
        for engine in [Engine::Gated, Engine::Sim] {
            let cfg = RunConfig::new(trace.seed)
                .engine(engine)
                .record_trace(true)
                .replay(trace.schedule.clone(), true);
            let run = qelect_agentsim::run(&bc, &cfg, &RingProbeProtocol)
                .unwrap_or_else(|e| panic!("{name} {}: {e}", engine.name()));
            let leaders = run
                .report
                .outcomes
                .iter()
                .filter(|o| **o == AgentOutcome::Leader)
                .count();
            assert_eq!(
                leaders,
                2,
                "{name} {}: the witness double-elects",
                engine.name()
            );
            assert_eq!(
                run.report.trace,
                trace.schedule,
                "{name} {}: schedule re-recorded",
                engine.name()
            );
            assert_eq!(
                run.report.events,
                trace.events,
                "{name} {}: event log re-recorded",
                engine.name()
            );
            reports.push(run.report);
        }
        assert_eq!(
            fingerprint(&reports[0]),
            fingerprint(&reports[1]),
            "{name}: gated vs sim"
        );
        assert_eq!(
            reports[0].to_trace(&bc, trace.seed, &trace.label).to_json(),
            reports[1].to_trace(&bc, trace.seed, &trace.label).to_json(),
            "{name}: re-emitted qelect-trace/1 artifacts"
        );
    }
}

#[test]
fn cache_state_never_perturbs_the_differential() {
    // The canonical-form memo is a pure accelerator: the cross-engine
    // fingerprint must be the same whether the global cache is cold,
    // warm, or disabled — and identical across the three states. All
    // global-flag manipulation stays inside this one test.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    cache::global().set_enabled(true);
    cache::global().clear();
    let cold = assert_elect_differential(&bc, 5, "cold cache");
    let warm = assert_elect_differential(&bc, 5, "warm cache");
    cache::global().set_enabled(false);
    let uncached = assert_elect_differential(&bc, 5, "disabled cache");
    cache::global().set_enabled(true);
    assert_eq!(fingerprint(&cold.report), fingerprint(&warm.report));
    assert_eq!(fingerprint(&cold.report), fingerprint(&uncached.report));
}

#[test]
fn forced_collision_cache_paths_stay_exact() {
    // Force every key onto one fingerprint in a capacity-1 shard: each
    // lookup walks the collision chain AND evicts — the two fallback
    // paths the global cache hits only rarely. The class structure that
    // feeds ELECT's COMPUTE & ORDER must come back exact anyway, which
    // is what makes the cross-engine differential immune to cache
    // collisions by construction.
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
    // And the engines still agree on the very instances that just
    // exercised the collision fallback.
    for (label, bc) in &instances {
        assert_elect_differential(bc, 9, label);
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
    let sim = qelect_agentsim::run(
        &bc,
        &RunConfig::new(0).engine(Engine::Sim).record_trace(true),
        &RingProbeProtocol,
    )
    .unwrap();
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
    // The gated engine stays the oracle even at this scale (it is ~10×
    // slower per step but the probe is step-light).
    let gated = qelect_agentsim::run(
        &bc,
        &RunConfig::new(0).record_trace(true),
        &RingProbeProtocol,
    )
    .unwrap();
    assert_eq!(fingerprint(&gated.report), fingerprint(&sim.report));
}

#[test]
fn checkpoint_recovery_is_idempotent_under_sim() {
    // Crash-with-restart on the sim engine: the restarted incarnation
    // recovers from its journaled checkpoint, the run still elects, and
    // re-running the identical (instance, seed, plan) any number of
    // times is byte-identical — recovery adds no hidden state. The
    // gated engine must produce the very same bytes.
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
        .map(|_| run_elect_with_plan(&bc, 4, Engine::Sim, &plan).unwrap())
        .collect();
    for run in &runs[1..] {
        assert_eq!(fingerprint(&runs[0].report), fingerprint(&run.report));
    }
    let gated = run_elect_with_plan(&bc, 4, Engine::Gated, &plan).unwrap();
    assert_eq!(fingerprint(&gated.report), fingerprint(&runs[0].report));
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
    let crash_free = run_election(&bc, &RunConfig::new(4).engine(Engine::Sim)).unwrap();
    assert_eq!(runs[0].clean_election(), crash_free.clean_election());
}

#[test]
fn restart_budget_abort_is_typed_and_identical_under_sim() {
    // Exhausting the restart budget must surface as the typed
    // Interrupted(Crashed) outcome — never a hang or panic — with the
    // same bytes on both engines.
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
    let sim = run_elect_with_plan(&bc, 0, Engine::Sim, &plan).unwrap();
    let gated = run_elect_with_plan(&bc, 0, Engine::Gated, &plan).unwrap();
    assert_eq!(
        sim.report.outcomes[0],
        AgentOutcome::Interrupted(Interrupt::Crashed)
    );
    assert_eq!(sim.faults.aborted, 1);
    assert_eq!(fingerprint(&gated.report), fingerprint(&sim.report));
}
