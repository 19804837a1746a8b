//! Cross-crate integration: Protocol ELECT against the solvability
//! oracles, across graph families, placements and schedulers.

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
        let report = run_quantitative(&bc, &RunConfig::default(), &ids)
            .unwrap()
            .report;
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
        let report = run_gather(&bc, &RunConfig::default()).unwrap().report;
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

/// FNV-1a, 64 bit: a dependency-free digest that is stable across
/// platforms and toolchains.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn elect_event_logs_match_the_parent() {
    // A wrong port translation, a different (still shortest) route or
    // another valid scramble could keep every oracle verdict and even the
    // audit's move counts. This pins the full event log, the per-agent costs and the outcomes of every suite instance
    // over seeds 0–2, scrambling on and off, crash-free and with one
    // crash-restart of agent 0. The digests were recorded before the
    // kernel's flat-topology rewrite; any change to the protocol's
    // observable execution changes them.
    const PINS: [(&str, u64); 12] = [
        ("C5/1", 0x1120_d786_cd1d_c247),
        ("C6/antipodal", 0xabc4_3584_162d_29d9),
        ("C6/trio", 0xa38c_d6f7_7f9e_e9db),
        ("C7/trio", 0x7295_a76c_634d_27ed),
        ("P4/pair", 0x4908_0ac3_4f0a_a849),
        ("Q3/antipodal", 0x1cc5_9e9c_a7d4_a41f),
        ("Q3/trio", 0x862b_bdec_f420_a92e),
        ("Petersen/pair", 0xbe93_2b25_beea_b8b2),
        ("Torus3x3/pair", 0x6fe7_ff22_4436_c5b1),
        ("Star/center+leaf", 0x3f4f_859f_4ae1_8aa5),
        ("K4/pair", 0xad0e_e513_4fa7_763d),
        ("Tree/pair", 0x7268_5acc_5f24_157d),
    ];
    let crash = FaultPlan {
        events: vec![qelect_agentsim::FaultEvent {
            agent: 0,
            at_op: 30,
            action: qelect_agentsim::FaultAction::Crash { restart_after: 1 },
        }],
        recovery: Default::default(),
    };
    let mut got = Vec::new();
    for (label, bc) in suite() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..3 {
            for scramble in [true, false] {
                for plan in [FaultPlan::none(), crash.clone()] {
                    let cfg = RunConfig::new(seed)
                        .scramble_ports(scramble)
                        .record_trace(true)
                        .faults(plan);
                    let report = run_election(&bc, &cfg).unwrap().report;
                    fnv1a(
                        &mut hash,
                        report.to_trace(&bc, seed, label).to_json().as_bytes(),
                    );
                    for (moves, accesses, waits) in &report.metrics.per_agent {
                        for word in [moves, accesses, waits] {
                            fnv1a(&mut hash, &word.to_le_bytes());
                        }
                    }
                    fnv1a(&mut hash, format!("{:?}", report.outcomes).as_bytes());
                }
            }
        }
        got.push((label, hash));
    }
    let want: Vec<(&str, u64)> = PINS.to_vec();
    assert_eq!(got, want, "event-log digests moved");
}

/// The digest of one recorded run: the `qelect-trace/1` JSON, the
/// per-agent (moves, accesses, waits) and the outcomes.
fn digest_run(hash: &mut u64, bc: &Bicolored, seed: u64, label: &str, report: &RunReport) {
    fnv1a(hash, report.to_trace(bc, seed, label).to_json().as_bytes());
    for (moves, accesses, waits) in &report.metrics.per_agent {
        for word in [moves, accesses, waits] {
            fnv1a(hash, &word.to_le_bytes());
        }
    }
    fnv1a(hash, format!("{:?}", report.outcomes).as_bytes());
}

fn placed(g: qelect_graph::Graph, homes: &[usize]) -> Bicolored {
    Bicolored::new(g, homes).unwrap()
}

/// ELECT with only `initiator` awake: everyone else sleeps at home until
/// a sign other than its `HomeBase` mark appears there.
fn staggered_elect(bc: &Bicolored, cfg: &RunConfig, initiator: usize) -> RunReport {
    let agents = vec![ElectProtocol::default(); bc.r()];
    qelect_agentsim::run_staggered(bc, cfg.to_sim(), agents, &[initiator]).unwrap()
}

/// The quantitative state machine driven natively, agent `i` with label
/// `100 + i`.
fn quant_machine_native(bc: &Bicolored, cfg: &RunConfig) -> RunReport {
    use qelect::stepquant::QuantMachineProtocol;
    let agents = (0..bc.r() as u64)
        .map(|i| QuantMachineProtocol { id: 100 + i })
        .collect();
    qelect_agentsim::run_each(bc, cfg, agents).unwrap().report
}

#[test]
fn registry_event_logs_match_the_parent() {
    // An independent reference for every registry protocol, the
    // staggered wake-up and the native state-machine drive: the full
    // event log, per-agent costs and outcomes over seeds 0–2 with
    // scrambling on and off. The digests were recorded before the
    // protocols moved to one engine; any change to a protocol's
    // observable execution changes them.
    const PINS: [(&str, u64); 11] = [
        ("elect", 0x5f6b_b642_e97d_55be),
        ("cayley", 0x2de2_1154_1f47_71a8),
        ("quantitative", 0x28c0_7b2f_c7d8_b948),
        ("view", 0xff44_b3b0_1085_5e4d),
        ("gather", 0x9699_1b55_7959_9fad),
        ("petersen", 0xe58d_8515_434d_aa08),
        ("anonymous", 0xbfd7_18a9_465e_7756),
        ("dp-anon", 0x66b7_9868_b0fa_b967),
        ("agent-elect", 0xd7c7_f64a_bbd8_206b),
        ("staggered-elect", 0x2de3_a8a7_0ac4_e95d),
        ("quant-machine", 0x19d7_d4f7_8c59_1969),
    ];
    let c7 = || placed(families::cycle(7).unwrap(), &[0, 1, 3]);
    let c6 = || placed(families::cycle(6).unwrap(), &[0, 3]);
    let q3 = || placed(families::hypercube(3).unwrap(), &[0, 5, 7]);
    let p5 = || placed(families::path(5).unwrap(), &[1, 3]);
    let instances = |name: &str| -> Vec<Bicolored> {
        match name {
            "petersen" => vec![
                placed(families::petersen().unwrap(), &[0, 1]),
                placed(families::petersen().unwrap(), &[5, 7]),
            ],
            "anonymous" => vec![c6(), c7()],
            "dp-anon" | "agent-elect" => vec![c7(), c6(), p5()],
            "staggered-elect" => vec![c7(), placed(families::cycle(6).unwrap(), &[0, 2, 3])],
            _ => vec![c7(), c6(), q3()],
        }
    };
    let mut got = Vec::new();
    for (name, _) in PINS {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for bc in instances(name) {
            for seed in 0..3 {
                for scramble in [true, false] {
                    let cfg = RunConfig::new(seed)
                        .scramble_ports(scramble)
                        .record_trace(true);
                    let reports = match name {
                        "staggered-elect" => (0..bc.r())
                            .map(|initiator| staggered_elect(&bc, &cfg, initiator))
                            .collect(),
                        "quant-machine" => vec![quant_machine_native(&bc, &cfg)],
                        _ => {
                            let entry = qelect::registry::resolve(name).unwrap();
                            vec![entry.run(&bc, &cfg).unwrap().report]
                        }
                    };
                    for report in &reports {
                        digest_run(&mut hash, &bc, seed, name, report);
                    }
                }
            }
        }
        got.push((name, hash));
    }
    let want: Vec<(&str, u64)> = PINS.to_vec();
    assert_eq!(got, want, "registry event-log digests moved");
}
