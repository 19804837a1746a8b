//! The Theorem 4.1 effectual protocol, cross-validated on Cayley
//! instances (exhaustive small sweeps) and on the Petersen divergence.

use qelect::prelude::*;
use qelect::solvability::{election_possible_cayley, impossible_by_thm21};
// `run_translation_elect` takes the engine's per-run config.
use qelect_agentsim::sim::RunConfig;
use qelect_agentsim::AgentOutcome;
use qelect_graph::{families, Bicolored};
use qelect_group::marking::{marking_schedule, verify_witness_labeling};

/// Crash-free ELECT on the sim engine.
fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
    let agents = vec![ElectProtocol::default(); bc.r()];
    qelect_agentsim::run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
}
use qelect_group::recognition::RecognitionBudget;
use qelect_group::CayleyGraph;

#[test]
fn effectual_on_exhaustive_small_cycles() {
    // Every placement of 1..=3 agents on C4..C6: the protocol's verdict
    // must match the oracle, and the oracle must be decisive.
    for n in 4..=6usize {
        let g = families::cycle(n).unwrap();
        for r in 1..=3usize.min(n) {
            for bc in Bicolored::all_placements(&g, r) {
                let oracle = election_possible_cayley(&bc, RecognitionBudget::default());
                let report = run_translation_elect(&bc, RunConfig::default());
                match oracle {
                    Some(true) => assert!(
                        report.clean_election(),
                        "C{n} {:?}: expected election, got {:?}",
                        bc.homebases(),
                        report.outcomes
                    ),
                    Some(false) => assert!(
                        report.unanimous_unsolvable(),
                        "C{n} {:?}: expected impossibility, got {:?}",
                        bc.homebases(),
                        report.outcomes
                    ),
                    None => panic!(
                        "oracle indecisive on Cayley instance C{n} {:?}",
                        bc.homebases()
                    ),
                }
            }
        }
    }
}

#[test]
fn effectual_on_hypercube_placements() {
    let g = families::hypercube(3).unwrap();
    for bc in Bicolored::all_placements(&g, 2) {
        let oracle = election_possible_cayley(&bc, RecognitionBudget::default());
        let report = run_translation_elect(&bc, RunConfig::default());
        match oracle {
            Some(true) => assert!(report.clean_election(), "{:?}", bc.homebases()),
            Some(false) => {
                assert!(report.unanimous_unsolvable(), "{:?}", bc.homebases())
            }
            None => panic!("gray zone hit on Q3 {:?}", bc.homebases()),
        }
    }
}

#[test]
fn impossibility_verdicts_backed_by_thm21_witnesses() {
    // Wherever the Cayley protocol says "impossible", a Theorem 2.1
    // labeling witness must exist (checked exhaustively on C4; the
    // witness labeling itself comes from the Theorem 4.1 marking
    // construction).
    let g = families::cycle(4).unwrap();
    for r in 1..=4usize {
        for bc in Bicolored::all_placements(&g, r) {
            if election_possible_cayley(&bc, RecognitionBudget::default()) == Some(false) {
                assert_eq!(
                    impossible_by_thm21(&bc, 100_000),
                    Some(true),
                    "no Thm 2.1 witness for {:?}",
                    bc.homebases()
                );
            }
        }
    }
}

#[test]
fn marking_construction_produces_verified_witnesses() {
    // The executable Theorem 4.1 proof on constructed Cayley graphs.
    let cases: Vec<(CayleyGraph, Vec<usize>)> = vec![
        (CayleyGraph::cycle(6).unwrap(), vec![0, 3]),
        (CayleyGraph::cycle(8).unwrap(), vec![0, 4]),
        (CayleyGraph::hypercube(3).unwrap(), vec![0, 7]),
        (CayleyGraph::torus(&[3, 3]).unwrap(), vec![0, 4, 8]),
    ];
    for (cg, hbs) in cases {
        let d = cg.translation_gcd(&hbs);
        let trace = marking_schedule(&cg, &hbs);
        assert_eq!(trace.d, d);
        assert!(trace.final_classes.iter().all(|c| c.len() == d));
        if d > 1 {
            let lab = verify_witness_labeling(&cg, &hbs);
            assert!(lab >= d, "witness labeling must certify impossibility");
        }
    }
}

#[test]
fn petersen_divergence_elect_fails_bespoke_succeeds() {
    // The Fig. 5 story end-to-end: same instance, three protocols.
    let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();

    // 1. Plain ELECT reports failure (gcd = 2).
    let elect_report = run_elect(&bc, RunConfig::default());
    assert!(
        elect_report.unanimous_unsolvable(),
        "{:?}",
        elect_report.outcomes
    );

    // 2. The effectual Cayley protocol declines (not a Cayley graph).
    let eff_report = run_translation_elect(&bc, RunConfig::default());
    assert!(eff_report
        .outcomes
        .iter()
        .all(|o| *o == AgentOutcome::Undecided));

    // 3. The bespoke protocol elects.
    let bespoke = qelect::petersen::run_petersen(&bc, &qelect_agentsim::RunConfig::default())
        .unwrap()
        .report;
    assert!(bespoke.clean_election(), "{:?}", bespoke.outcomes);
}

#[test]
fn star_graph_instances() {
    // S_3 (= C6 as a graph) through the Cayley machinery.
    let g = families::star_graph(3).unwrap();
    let solvable = Bicolored::new(g.clone(), &[0, 1, 2]).unwrap();
    let oracle = election_possible_cayley(&solvable, RecognitionBudget::default());
    let report = run_translation_elect(&solvable, RunConfig::default());
    match oracle {
        Some(true) => assert!(report.clean_election(), "{:?}", report.outcomes),
        Some(false) => assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes),
        None => panic!("gray zone on S3"),
    }
}
