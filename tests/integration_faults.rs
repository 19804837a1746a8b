//! Fault-injection acceptance: under any generated [`FaultPlan`] in the
//! eventually-restarting regime, crash-recovering ELECT must still
//! agree with the gcd oracle;
//! replaying an identical (plan, seed, schedule) must be
//! byte-identical; and a crash-free plan must not perturb behavior at
//! all — pinned against the committed C6 double-election trace.

use proptest::prelude::*;
use qelect::prelude::*;
use qelect::replay::{record_replay_elect_with_plan, shrink_failing_plan};
use qelect::solvability::elect_succeeds;
use qelect_agentsim::{try_run_sim_with, AgentOutcome, Interrupt, ReplayScheduler};
use qelect_graph::{families, Bicolored};

fn acceptance_suite() -> Vec<(&'static str, Bicolored)> {
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
    ]
}

/// Everything two identical runs must share, formatted for assert_eq
/// diffs: outcomes, leader, recorded schedule, events, raw per-agent
/// counters, fault activity, and every closed span's exclusive cost.
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

#[test]
fn generated_plans_agree_with_oracle() {
    // The acceptance criterion verbatim: with any generated plan whose
    // crashed agents all eventually restart, ELECT elects exactly when
    // gcd = 1 — checked against the oracle.
    let mut total_crashes = 0u64;
    for (label, bc) in acceptance_suite() {
        for seed in [0u64, 1] {
            for p in 0..2u64 {
                let plan = FaultPlan::generate(seed * 31 + p, bc.r(), 25, 2, 1);
                let run = qelect::replay::run_elect_with_plan(&bc, seed, &plan)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                qelect::replay::faulty_run_matches_oracle(&bc, &run).unwrap_or_else(|e| {
                    panic!("{label} seed {seed} plan {p}: {e}\nplan: {plan:?}")
                });
                total_crashes += run.faults.crashes;
            }
        }
    }
    assert!(total_crashes > 0, "the sweep never injected a crash");
}

#[test]
fn crashed_agents_recover_and_report_span_metrics() {
    // A crash that actually fires must show up in the fault summary and
    // open a `recovery` span on the restarted incarnation.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let plan = FaultPlan {
        events: vec![qelect_agentsim::fault::FaultEvent {
            agent: 0,
            at_op: 30,
            action: qelect_agentsim::fault::FaultAction::Crash { restart_after: 1 },
        }],
        recovery: Default::default(),
    };
    let run = qelect::replay::run_elect_with_plan(&bc, 0, &plan).unwrap();
    assert!(run.clean_election(), "{:?}", run.report.outcomes);
    assert_eq!(run.faults.crashes, 1);
    assert_eq!(run.faults.restarts, 1);
    assert!(run.faults.lost_ops >= 1, "the pending op must be lost");
    assert!(
        run.report
            .metrics
            .spans
            .iter()
            .any(|s| s.name == "recovery" && s.agent == 0),
        "restarted incarnation must attribute its catch-up work"
    );
}

#[test]
fn exhausted_restart_budget_surfaces_as_interrupt() {
    // Crash more often than the recovery policy allows: the agent is
    // aborted with a typed interrupt, not a panic or a hang.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let plan = FaultPlan {
        events: vec![
            qelect_agentsim::fault::FaultEvent {
                agent: 0,
                at_op: 5,
                action: qelect_agentsim::fault::FaultAction::Crash { restart_after: 0 },
            },
            qelect_agentsim::fault::FaultEvent {
                agent: 0,
                at_op: 6,
                action: qelect_agentsim::fault::FaultAction::Crash { restart_after: 0 },
            },
        ],
        recovery: qelect_agentsim::fault::RecoveryPolicy {
            max_restarts: 1,
            ..Default::default()
        },
    };
    let run = qelect::replay::run_elect_with_plan(&bc, 0, &plan).unwrap();
    assert_eq!(
        run.report.outcomes[0],
        AgentOutcome::Interrupted(Interrupt::Crashed)
    );
    assert_eq!(run.faults.aborted, 1);
}

#[test]
fn agent_panics_surface_as_typed_run_errors() {
    // Panic paths are typed errors through the unified API.
    #[derive(Clone)]
    struct Bomb;
    impl Protocol for Bomb {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            _ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            panic!("integration bomb");
        }
    }
    let bc = Bicolored::new(families::cycle(5).unwrap(), &[0]).unwrap();
    let err = qelect_agentsim::run(&bc, &RunConfig::new(0), &Bomb)
        .expect_err("a panicking agent must not look like a clean run");
    match err {
        RunError::AgentPanicked { agent, message } => {
            assert_eq!(agent, 0);
            assert!(message.contains("integration bomb"), "{message}");
        }
        other => panic!("expected AgentPanicked, got {other}"),
    }
}

#[test]
fn crash_free_plan_is_behaviorally_invisible() {
    // The empty plan must not perturb anything: same outcomes, same
    // schedule, same events, same metrics as a run with no fault plumbing.
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let plain = run_election(&bc, &RunConfig::new(3).record_trace(true)).unwrap();
    let with_plan = run_election(
        &bc,
        &RunConfig::new(3)
            .record_trace(true)
            .faults(FaultPlan::none()),
    )
    .unwrap();
    assert_eq!(fingerprint(&plain.report), fingerprint(&with_plan.report));
    assert!(!with_plan.faults.any());
}

#[test]
fn crash_free_plan_reproduces_committed_c6_trace() {
    // The committed §1.3 witness, driven through the fault-aware engine
    // entry point with an empty plan: byte-identical schedule, events
    // and double election. Crash-free plans cost nothing and change
    // nothing.
    use qelect::anonymous::RingProbeProtocol;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/c6_two_leaders.json"
    );
    let trace = Trace::load(path).expect("committed trace parses");
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    let cfg = RunConfig::new(trace.seed).record_trace(true).to_sim();
    let agents = vec![RingProbeProtocol; bc.r()];
    let mut scheduler = ReplayScheduler::strict(trace.schedule.clone());
    let report = try_run_sim_with(&bc, cfg, &FaultPlan::none(), agents, &mut scheduler)
        .expect("crash-free replay cannot fail");
    let leaders = report
        .outcomes
        .iter()
        .filter(|o| **o == AgentOutcome::Leader)
        .count();
    assert_eq!(leaders, 2, "{:?}", report.outcomes);
    assert_eq!(report.trace, trace.schedule);
    assert_eq!(report.events, trace.events);
    assert!(!report.metrics.faults.any());
}

#[test]
fn shrink_keeps_passing_plans_whole() {
    // The ddmin driver only shrinks while the failure reproduces; on a
    // healthy protocol no generated plan fails the oracle, so the
    // driver must return the plan untouched (and the plan must pass).
    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
    let plan = FaultPlan::generate(7, bc.r(), 25, 2, 1);
    let shrunk = shrink_failing_plan(&bc, 7, &plan);
    assert_eq!(shrunk, plan);
}

proptest! {
    // Simulation-heavy: each case is two full ELECT runs.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fault_plan_replay_is_byte_identical(
        seed in 0u64..1000,
        plan_seed in any::<u64>(),
        crashes in 0usize..4,
        delays in 0usize..3,
        trio in any::<bool>(),
    ) {
        // Determinism contract of schedule-addressed faults: recording
        // a run under any generated plan and strictly replaying
        // its schedule with the same plan reproduces outcomes, events,
        // per-agent counters, fault counters and span metrics exactly.
        let bc = if trio {
            Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap()
        } else {
            Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap()
        };
        let plan = FaultPlan::generate(plan_seed, bc.r(), 30, crashes, delays);
        let (first, second) = record_replay_elect_with_plan(&bc, seed, &plan).unwrap();
        prop_assert_eq!(fingerprint(&first.report), fingerprint(&second.report));
        // And both agree with the oracle (eventually-restarting regime).
        let solvable = elect_succeeds(&bc);
        prop_assert_eq!(first.clean_election(), solvable);
    }
}
