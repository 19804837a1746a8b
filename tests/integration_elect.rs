//! Cross-crate integration: Protocol ELECT against the solvability
//! oracles, across graph families, placements, schedulers and engines.

use qelect::prelude::*;
use qelect::solvability::{elect_succeeds, gcd_of_class_sizes};
use qelect_agentsim::sched::Policy;
use qelect_graph::{families, labeling, Bicolored};

fn suite() -> Vec<(&'static str, Bicolored)> {
    vec![
        (
            "C5/1",
            Bicolored::new(families::cycle(5).unwrap(), &[0]).unwrap(),
        ),
        (
            "C6/antipodal",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap(),
        ),
        (
            "C6/trio",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap(),
        ),
        (
            "C7/trio",
            Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap(),
        ),
        (
            "P4/pair",
            Bicolored::new(families::path(4).unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "Q3/antipodal",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap(),
        ),
        (
            "Q3/trio",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 1, 3]).unwrap(),
        ),
        (
            "Petersen/pair",
            Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "Torus3x3/pair",
            Bicolored::new(families::torus(&[3, 3]).unwrap(), &[0, 4]).unwrap(),
        ),
        (
            "Star/center+leaf",
            Bicolored::new(families::star(4).unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "K4/pair",
            Bicolored::new(families::complete(4).unwrap(), &[0, 1]).unwrap(),
        ),
        (
            "Tree/pair",
            Bicolored::new(families::binary_tree(2).unwrap(), &[0, 3]).unwrap(),
        ),
    ]
}

#[test]
fn elect_agrees_with_gcd_oracle_across_suite() {
    for (label, bc) in suite() {
        let expected = elect_succeeds(&bc);
        for seed in [1, 2] {
            let report = run_election(&bc, &RunConfig::new(seed)).unwrap().report;
            if expected {
                assert!(
                    report.clean_election(),
                    "{label}: expected election, got {:?} ({:?})",
                    report.outcomes,
                    report.interrupted
                );
            } else {
                assert!(
                    report.unanimous_unsolvable(),
                    "{label}: expected failure report, got {:?} ({:?})",
                    report.outcomes,
                    report.interrupted
                );
            }
        }
    }
}

#[test]
fn elect_is_labeling_independent() {
    // Effectual protocols must survive adversarial edge-labelings: run
    // ELECT on scrambled-port variants and require identical verdicts.
    for (label, bc) in suite() {
        let expected = elect_succeeds(&bc);
        for seed in [11, 12] {
            let scrambled = labeling::scramble(bc.graph(), seed).unwrap();
            let sc = Bicolored::new(scrambled, bc.homebases()).unwrap();
            // The oracle itself is labeling-independent:
            assert_eq!(
                gcd_of_class_sizes(&sc),
                gcd_of_class_sizes(&bc),
                "{label}: classes depend on ports?!"
            );
            let report = run_election(&sc, &RunConfig::new(seed)).unwrap().report;
            assert_eq!(
                report.clean_election(),
                expected,
                "{label} scrambled(seed {seed}): {:?}",
                report.outcomes
            );
        }
    }
}

#[test]
fn elect_consistent_across_scheduler_policies() {
    let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
    for policy in [
        Policy::Random,
        Policy::RoundRobin,
        Policy::Lockstep,
        Policy::GreedyLowest,
    ] {
        let report = run_election(&bc, &RunConfig::new(5).policy(policy))
            .unwrap()
            .report;
        assert!(report.clean_election(), "{policy:?}: {:?}", report.outcomes);
    }
}

#[test]
fn quantitative_baseline_is_universal_where_elect_fails() {
    // Table 1, quantitative row: success even on the gcd > 1 instances.
    for (label, bc) in suite() {
        let ids: Vec<u64> = (0..bc.r() as u64).map(|i| 100 + 7 * i).collect();
        let report = run_quantitative(&bc, RunConfig::default().to_gated(), &ids);
        assert!(
            report.clean_election(),
            "{label}: quantitative must be universal, got {:?}",
            report.outcomes
        );
        assert_eq!(report.leader, Some(bc.r() - 1), "{label}: max label wins");
    }
}

#[test]
fn elect_exhaustive_over_small_placements() {
    // Every placement of 1..=3 agents on C5 and C6, and of 1..=2 agents
    // on P4 and the star K_{1,3}: protocol verdict must equal the gcd
    // oracle on all of them (135+ full protocol executions).
    let mut checked = 0usize;
    let cases: Vec<(qelect_graph::Graph, usize)> = vec![
        (families::cycle(5).unwrap(), 3),
        (families::cycle(6).unwrap(), 3),
        (families::path(4).unwrap(), 2),
        (families::star(3).unwrap(), 2),
    ];
    for (g, max_r) in cases {
        for r in 1..=max_r {
            for bc in Bicolored::all_placements(&g, r) {
                let expected = elect_succeeds(&bc);
                let report = run_election(&bc, &RunConfig::default()).unwrap().report;
                if expected {
                    assert!(
                        report.clean_election(),
                        "{:?}: {:?}",
                        bc.homebases(),
                        report.outcomes
                    );
                } else {
                    assert!(
                        report.unanimous_unsolvable(),
                        "{:?}: {:?}",
                        bc.homebases(),
                        report.outcomes
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 86, "25 + 41 + 10 + 10 placements");
}

#[test]
fn gathering_inherits_election_verdicts() {
    use qelect::gathering::run_gather;
    for (label, bc) in suite() {
        let expected = elect_succeeds(&bc);
        let report = run_gather(&bc, RunConfig::default().to_gated());
        assert_eq!(
            report.clean_election(),
            expected,
            "{label}: {:?} ({:?})",
            report.outcomes,
            report.interrupted
        );
    }
}

#[test]
fn committed_c6_trace_replays_to_exactly_two_leaders() {
    // The §1.3 impossibility witness is a checked-in artifact: the
    // lockstep schedule under which both anonymous ring probers on C6
    // elect themselves. Strict replay must reproduce the double
    // election bit-for-bit — schedule, events, and verdict.
    use qelect_agentsim::AgentOutcome;
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/traces/c6_two_leaders.json"
    );
    let trace = Trace::load(path).expect("committed trace parses");
    assert_eq!(trace.agents, 2);
    assert_eq!(trace.nodes, 6);
    assert_eq!(trace.policy, "lockstep");

    let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    let report = qelect::replay::replay_ring_probe(&bc, &trace, true);
    let leaders = report
        .outcomes
        .iter()
        .filter(|o| **o == AgentOutcome::Leader)
        .count();
    assert_eq!(
        leaders, 2,
        "the committed witness must double-elect: {:?}",
        report.outcomes
    );
    assert!(!report.clean_election());
    assert_eq!(
        report.trace, trace.schedule,
        "replay re-records the committed schedule"
    );
    assert_eq!(report.events, trace.events, "and the committed event log");
}

#[test]
fn elect_work_scales_with_r_times_edges() {
    // Theorem 3.1's envelope, measured: work / (r·|E|) stays under a
    // fixed constant across sizes.
    let mut ratios = Vec::new();
    for n in [6usize, 8, 10, 12] {
        let bc = Bicolored::new(families::cycle(n).unwrap(), &[0, 1, 3]).unwrap();
        let report = run_election(&bc, &RunConfig::default()).unwrap().report;
        assert!(report.clean_election());
        let work = report.metrics.total_work() as f64;
        let re = (bc.r() * bc.graph().m()) as f64;
        ratios.push(work / re);
    }
    for r in &ratios {
        assert!(*r < 80.0, "constant blew up: {ratios:?}");
    }
}
