//! Fig. 1 end-to-end: the same agent state machine executed natively by
//! the mobile-agent engine and as messages on the anonymous processor
//! network must produce the same election result.

use qelect::stepquant::{QuantMachine, QuantMachineProtocol};
use qelect_agentsim::message_net::MessageNet;
use qelect_agentsim::stepagent::StepAgent;
use qelect_agentsim::{run_each, RunConfig};
use qelect_graph::{families, Bicolored};

fn native_leader(bc: &Bicolored, ids: &[u64], seed: u64) -> Option<usize> {
    let agents = ids.iter().map(|&id| QuantMachineProtocol { id }).collect();
    let report = run_each(bc, &RunConfig::new(seed), agents)
        .expect("sim run failed")
        .report;
    assert!(
        report.clean_election(),
        "native: {:?} ({:?})",
        report.outcomes,
        report.interrupted
    );
    report.leader
}

fn transformed_leader(bc: &Bicolored, ids: &[u64], seed: u64) -> Option<usize> {
    let net = MessageNet::new(bc.clone(), seed);
    let agents: Vec<Box<dyn StepAgent>> = ids
        .iter()
        .map(|&id| -> Box<dyn StepAgent> { Box::new(QuantMachine::new(id)) })
        .collect();
    let report = net.run(agents);
    assert!(!report.deadlocked, "transformed run deadlocked");
    assert!(
        report.clean_election(),
        "transformed: {:?}",
        report.outcomes
    );
    report.leader
}

#[test]
fn outcome_preserved_across_families() {
    let cases: Vec<(&str, Bicolored, Vec<u64>)> = vec![
        (
            "C6 antipodal",
            Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap(),
            vec![21, 9],
        ),
        (
            "C9 trio",
            Bicolored::new(families::cycle(9).unwrap(), &[0, 3, 6]).unwrap(),
            vec![4, 44, 14],
        ),
        (
            "Q3 pair",
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap(),
            vec![3, 1],
        ),
        (
            "Petersen pair",
            Bicolored::new(families::petersen().unwrap(), &[0, 6]).unwrap(),
            vec![8, 80],
        ),
        (
            "Torus 3x4 quartet",
            Bicolored::new(families::torus(&[3, 4]).unwrap(), &[0, 3, 6, 9]).unwrap(),
            vec![5, 2, 9, 1],
        ),
        (
            "Star graph S3",
            Bicolored::new(families::star_graph(3).unwrap(), &[0, 5]).unwrap(),
            vec![100, 50],
        ),
    ];
    for (label, bc, ids) in cases {
        let expected = ids
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| v)
            .map(|(i, _)| i);
        for seed in 0..4 {
            assert_eq!(
                native_leader(&bc, &ids, seed),
                expected,
                "{label}: native leader drifted (seed {seed})"
            );
            assert_eq!(
                transformed_leader(&bc, &ids, seed),
                expected,
                "{label}: transformed leader drifted (seed {seed})"
            );
        }
    }
}

#[test]
fn transformation_on_multigraph_gadget() {
    // The Fig. 2(c) gadget has loops and parallel edges; the DFS machine
    // must chart it correctly in both executions.
    let bc = Bicolored::new(families::fig2c_gadget().unwrap(), &[0]).unwrap();
    assert_eq!(native_leader(&bc, &[42], 1), Some(0));
    assert_eq!(transformed_leader(&bc, &[42], 1), Some(0));
}

#[test]
fn message_counts_are_reported() {
    let bc = Bicolored::new(families::cycle(8).unwrap(), &[0, 4]).unwrap();
    let net = MessageNet::new(bc, 3);
    let agents: Vec<Box<dyn StepAgent>> = vec![
        Box::new(QuantMachine::new(1)),
        Box::new(QuantMachine::new(2)),
    ];
    let report = net.run(agents);
    assert!(report.clean_election());
    // Each DFS move is one message: at least 2·|E| deliveries per agent
    // are plausible; just check the counter is live and bounded.
    assert!(report.deliveries > 8);
    assert!(report.deliveries < 10_000);
}
