//! Record, replay, and systematically explore ELECT executions.
//!
//! The engine is deterministic given `(instance, seed, grant
//! sequence)`, which buys three capabilities, packaged here for the
//! election protocols:
//!
//! * **Record** — [`run_elect_recorded`] / [`run_translation_elect_recorded`]
//!   return the run together with its [`Trace`] (schedule + per-primitive
//!   events), suitable for committing under `tests/traces/`.
//! * **Replay** — [`replay_elect`] / [`replay_ring_probe`] re-execute a
//!   trace bit-for-bit (strict mode panics on the first divergence, the
//!   regression-test setting; lenient mode is what the shrinker uses).
//! * **Explore** — [`explore_elect`] builds an
//!   [`ExploreSession`] from ELECT's registry explore spec, checking the
//!   gcd solvability oracle as the property: solvable instances must
//!   produce a clean election under *every* schedule within the
//!   preemption bound, unsolvable ones must never produce a leader.
//!   [`explore_elect_with_fault`] seeds a deliberate bug (see
//!   [`ElectFault`]) through a bespoke session driver to prove the
//!   harness actually catches and shrinks violations.

use crate::anonymous::RingProbeProtocol;
use crate::elect::{run_election, ElectFault, ElectProtocol};
use crate::solvability::elect_succeeds;
use crate::translation_elect::run_translation_elect;
use qelect_agentsim::explore::{ExploreConfig, ExploreReport, ExploreSession};
use qelect_agentsim::fault::{shrink_plan, FaultPlan};
use qelect_agentsim::sched::{ReplayScheduler, Scheduler};
use qelect_agentsim::sim::{run_sim_faulty, try_run_sim_with, RunConfig, RunReport};
use qelect_agentsim::trace::Trace;
use qelect_agentsim::{ElectionRun, Protocol, RunError};
use qelect_graph::Bicolored;

/// ELECT, optionally faulty, on every agent.
fn elect_agents(r: usize, fault: ElectFault) -> Vec<ElectProtocol> {
    vec![ElectProtocol { fault }; r]
}

/// Run ELECT with trace recording on and package the result.
pub fn run_elect_recorded(bc: &Bicolored, cfg: RunConfig, label: &str) -> (RunReport, Trace) {
    let cfg = RunConfig {
        record_trace: true,
        ..cfg
    };
    let report = run_sim_faulty(
        bc,
        cfg,
        &FaultPlan::none(),
        elect_agents(bc.r(), ElectFault::default()),
    )
    .expect("sim run failed");
    let trace = report.to_trace(bc, cfg.seed, label);
    (report, trace)
}

/// Run the effectual Cayley variant with trace recording on.
pub fn run_translation_elect_recorded(
    bc: &Bicolored,
    cfg: RunConfig,
    label: &str,
) -> (RunReport, Trace) {
    let cfg = RunConfig {
        record_trace: true,
        ..cfg
    };
    let report = run_translation_elect(bc, cfg);
    let trace = report.to_trace(bc, cfg.seed, label);
    (report, trace)
}

fn check_instance(bc: &Bicolored, trace: &Trace) {
    assert_eq!(
        trace.agents,
        bc.r(),
        "trace was recorded with {} agents, instance has {}",
        trace.agents,
        bc.r()
    );
    assert_eq!(
        trace.nodes,
        bc.n(),
        "trace was recorded on {} nodes, instance has {}",
        trace.nodes,
        bc.n()
    );
}

/// Re-execute `trace` with `protocol` on every agent, under the trace's
/// seed (colors and port scrambles must match the recording for
/// bit-for-bit replay); `strict` panics on the first schedule divergence.
fn replay<P: Protocol + Clone>(
    bc: &Bicolored,
    trace: &Trace,
    strict: bool,
    protocol: P,
) -> RunReport {
    check_instance(bc, trace);
    let cfg = RunConfig {
        seed: trace.seed,
        record_trace: true,
        ..RunConfig::default()
    };
    let mut scheduler = if strict {
        ReplayScheduler::strict(trace.schedule.clone())
    } else {
        ReplayScheduler::new(trace.schedule.clone())
    };
    let agents = vec![protocol; bc.r()];
    try_run_sim_with(bc, cfg, &FaultPlan::none(), agents, &mut scheduler).expect("sim run failed")
}

/// Re-execute a recorded ELECT run (see `strict` above).
pub fn replay_elect(bc: &Bicolored, trace: &Trace, strict: bool) -> RunReport {
    replay(bc, trace, strict, ElectProtocol::default())
}

/// Re-execute a recorded anonymous ring-probe run (the §1.3
/// impossibility counterexample lives in a committed trace).
pub fn replay_ring_probe(bc: &Bicolored, trace: &Trace, strict: bool) -> RunReport {
    replay(bc, trace, strict, RingProbeProtocol)
}

/// The correctness property exploration checks, derived from the gcd
/// oracle (Theorem 3.1): on solvable instances every schedule must
/// yield a clean election; on unsolvable ones, a unanimous
/// `Unsolvable` verdict — and in particular **never** a leader.
pub fn elect_oracle_check(bc: &Bicolored, report: &RunReport) -> Result<(), String> {
    if let Some(i) = &report.interrupted {
        return Err(format!("run interrupted: {i}"));
    }
    let solvable = elect_succeeds(bc);
    match (
        solvable,
        report.clean_election(),
        report.unanimous_unsolvable(),
    ) {
        (true, true, _) => Ok(()),
        (false, _, true) => Ok(()),
        _ => Err(format!(
            "oracle says solvable={solvable} but outcomes are {:?}",
            report.outcomes
        )),
    }
}

/// An [`ExploreSession`] over ELECT's registry explore spec
/// ([`elect_oracle_check`] as the property) — the session
/// [`explore_elect`] runs, exposed so callers can also shrink and
/// replay through it.
pub fn elect_explore_session<'a>(bc: &'a Bicolored, run_cfg: RunConfig) -> ExploreSession<'a> {
    let entry = crate::registry::resolve("elect").expect("elect is registered");
    let spec = entry.explore.expect("elect is explorable");
    ExploreSession::from_spec(spec, bc, run_cfg)
}

/// Systematically explore ELECT schedules on `bc` under `run_cfg`'s
/// seed, checking [`elect_oracle_check`] on every schedule.
pub fn explore_elect(
    bc: &Bicolored,
    run_cfg: RunConfig,
    explore_cfg: &ExploreConfig,
) -> ExploreReport {
    elect_explore_session(bc, run_cfg).explore(explore_cfg)
}

/// [`explore_elect`] with an injected fault — the harness's self-test:
/// a broken gcd check must surface as a counterexample that shrinks and
/// replays (test-only; see [`ElectFault`]). The faulty agents have no
/// registry entry, so the session gets a bespoke driver.
pub fn explore_elect_with_fault(
    bc: &Bicolored,
    run_cfg: RunConfig,
    explore_cfg: &ExploreConfig,
    fault: ElectFault,
) -> ExploreReport {
    let session = ExploreSession::with_driver(
        run_cfg,
        false,
        move |cfg: &RunConfig, scheduler: &mut dyn Scheduler| {
            try_run_sim_with(
                bc,
                *cfg,
                &FaultPlan::none(),
                elect_agents(bc.r(), fault),
                scheduler,
            )
        },
        move |report: &RunReport| elect_oracle_check(bc, report),
    );
    session.explore(explore_cfg)
}

/// Run ELECT under a [`FaultPlan`] through the unified front door.
pub fn run_elect_with_plan(
    bc: &Bicolored,
    seed: u64,
    plan: &FaultPlan,
) -> Result<ElectionRun, RunError> {
    let cfg = qelect_agentsim::RunConfig::new(seed).faults(plan.clone());
    run_election(bc, &cfg)
}

/// The Theorem 3.1 oracle property for fault-injected runs: as long as
/// every crashed agent eventually restarts (which generated plans
/// guarantee — see [`FaultPlan::generate`]), crash-recovering ELECT
/// must reach the same verdict as the fault-free protocol: a clean
/// election exactly when `gcd(|C_1|, …, |C_k|) = 1`.
pub fn faulty_run_matches_oracle(bc: &Bicolored, run: &ElectionRun) -> Result<(), String> {
    elect_oracle_check(bc, &run.report)
}

/// Record an ELECT run under `plan`, then strictly replay the
/// recorded schedule with the identical plan. The pair must agree
/// byte-for-byte (outcomes, trace, events, per-agent metrics, fault
/// counters) — the determinism contract of schedule-addressed faults.
pub fn record_replay_elect_with_plan(
    bc: &Bicolored,
    seed: u64,
    plan: &FaultPlan,
) -> Result<(ElectionRun, ElectionRun), RunError> {
    let cfg = qelect_agentsim::RunConfig::new(seed)
        .record_trace(true)
        .faults(plan.clone());
    let first = run_election(bc, &cfg)?;
    let replay_cfg = cfg.replay(first.report.trace.clone(), true);
    let second = run_election(bc, &replay_cfg)?;
    Ok((first, second))
}

/// Systematically explore schedules under a fixed [`FaultPlan`],
/// checking [`elect_oracle_check`] — fault schedules join ordinary
/// schedules as first-class explorable adversaries.
pub fn explore_elect_with_plan(
    bc: &Bicolored,
    run_cfg: RunConfig,
    explore_cfg: &ExploreConfig,
    plan: &FaultPlan,
) -> ExploreReport {
    let session = ExploreSession::with_driver(
        run_cfg,
        false,
        move |cfg: &RunConfig, scheduler: &mut dyn Scheduler| {
            try_run_sim_with(
                bc,
                *cfg,
                plan,
                elect_agents(bc.r(), ElectFault::default()),
                scheduler,
            )
        },
        move |report: &RunReport| elect_oracle_check(bc, report),
    );
    session.explore(explore_cfg)
}

/// ddmin-shrink a fault plan whose run violates the oracle property (or
/// errors) on `bc` — the fault-schedule analogue of
/// [`shrink_schedule`](qelect_agentsim::explore::shrink_schedule).
pub fn shrink_failing_plan(bc: &Bicolored, seed: u64, plan: &FaultPlan) -> FaultPlan {
    shrink_plan(plan, |candidate| {
        match run_elect_with_plan(bc, seed, candidate) {
            Ok(run) => faulty_run_matches_oracle(bc, &run).is_err(),
            Err(_) => true,
        }
    })
}

/// Replay an (edited) ELECT schedule leniently and report whether the
/// oracle property still fails — the predicate
/// [`shrink_schedule`](qelect_agentsim::explore::shrink_schedule) needs.
pub fn elect_schedule_fails(
    bc: &Bicolored,
    run_cfg: RunConfig,
    fault: ElectFault,
    schedule: &[usize],
) -> bool {
    let run_cfg = RunConfig {
        record_trace: false,
        ..run_cfg
    };
    let mut scheduler = ReplayScheduler::new(schedule.to_vec());
    let report = try_run_sim_with(
        bc,
        run_cfg,
        &FaultPlan::none(),
        elect_agents(bc.r(), fault),
        &mut scheduler,
    )
    .expect("sim run failed");
    elect_oracle_check(bc, &report).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::AgentOutcome;
    use qelect_graph::families;

    fn c6_breaker() -> Bicolored {
        Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap()
    }

    #[test]
    fn recorded_run_replays_bit_for_bit() {
        let bc = c6_breaker();
        let cfg = RunConfig {
            seed: 13,
            ..RunConfig::default()
        };
        let (original, trace) = run_elect_recorded(&bc, cfg, "c6 breaker");
        assert!(original.clean_election());
        assert!(!trace.schedule.is_empty());
        assert!(
            !trace.events.is_empty(),
            "events recorded alongside the schedule"
        );

        let replayed = replay_elect(&bc, &trace, true);
        assert_eq!(replayed.outcomes, original.outcomes);
        assert_eq!(replayed.leader, original.leader);
        assert_eq!(replayed.metrics.per_agent, original.metrics.per_agent);
        assert_eq!(
            replayed.trace, trace.schedule,
            "the replay re-records the same schedule"
        );
        assert_eq!(replayed.events, trace.events, "and the same event log");
    }

    #[test]
    fn trace_survives_json_roundtrip_and_still_replays() {
        let bc = c6_breaker();
        let cfg = RunConfig {
            seed: 99,
            ..RunConfig::default()
        };
        let (original, trace) = run_elect_recorded(&bc, cfg, "roundtrip");
        let trace = Trace::from_json(&trace.to_json()).unwrap();
        let replayed = replay_elect(&bc, &trace, true);
        assert_eq!(replayed.outcomes, original.outcomes);
    }

    #[test]
    fn cayley_variant_records_too() {
        let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
        let cfg = RunConfig {
            seed: 3,
            ..RunConfig::default()
        };
        let (report, trace) = run_translation_elect_recorded(&bc, cfg, "c7 cayley");
        assert_eq!(trace.schedule.len() as u64, report.metrics.steps);
    }

    #[test]
    fn oracle_property_accepts_and_rejects() {
        let bc = c6_breaker();
        let cfg = RunConfig {
            seed: 4,
            ..RunConfig::default()
        };
        let report = run_sim_faulty(
            &bc,
            cfg,
            &FaultPlan::none(),
            elect_agents(bc.r(), ElectFault::default()),
        )
        .expect("sim run failed");
        assert!(elect_oracle_check(&bc, &report).is_ok());

        // A doctored report claiming two leaders must be rejected.
        let mut bad = report.clone();
        bad.outcomes = vec![
            AgentOutcome::Leader,
            AgentOutcome::Leader,
            AgentOutcome::Defeated,
        ];
        assert!(elect_oracle_check(&bc, &bad).is_err());
    }
}
