//! Why "just sort the views" fails without comparability — and why
//! anonymity is even worse.
//!
//! ```sh
//! cargo run --example qualitative_pitfall
//! ```
//!
//! Part 1 replays the paper's Fig. 2(b): two agents walking the same
//! path from opposite ends read different symbol sequences, yet the only
//! encoding available in the qualitative world (first-seen numbering)
//! collapses them to the same code.
//!
//! Part 2 replays the §1.3 impossibility argument: an anonymous protocol
//! that is perfectly correct for a lone agent on `C₃` elects *two*
//! leaders on `C₆` under the synchronous scheduler.

use qelect::anonymous::run_ring_probe;
use qelect::prelude::*;
use qelect_agentsim::sched::Policy;
use qelect_agentsim::AgentOutcome;
use qelect_graph::view::{first_seen_code, path_walk_symbols};
use qelect_graph::{families, Bicolored, GraphBuilder, Port};

fn main() {
    // ---- Part 1: the coding collision ----
    println!("Part 1 — the Fig. 2(b) coding collision\n");
    let mut b = GraphBuilder::new(3);
    b.add_edge_with_ports(0, 1, Port(10), Port(20)).unwrap(); // l_x = *, l_y = o
    b.add_edge_with_ports(1, 2, Port(30), Port(10)).unwrap(); // l_y = •, l_z = *
    let path = Bicolored::new(b.finish().unwrap(), &[0, 2]).unwrap();

    let from_x = path_walk_symbols(&path, 0);
    let from_z = path_walk_symbols(&path, 2);
    println!("agent from x reads symbols {from_x:?}");
    println!("agent from z reads symbols {from_z:?}");
    println!("first-seen code from x: {:?}", first_seen_code(&from_x));
    println!("first-seen code from z: {:?}", first_seen_code(&from_z));
    println!("→ different walks, identical codes: views cannot be sorted.\n");

    // ---- Part 2: anonymity is fatal ----
    println!("Part 2 — the §1.3 anonymous-agents impossibility\n");
    let lone = Bicolored::new(families::cycle(3).unwrap(), &[0]).unwrap();
    let report = run_ring_probe(&lone, RunConfig::default().to_sim());
    println!("C3, lone agent: {:?} (correct)", report.outcomes);

    let twins = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
    let cfg = RunConfig::new(0).policy(Policy::Lockstep).to_sim();
    let report = run_ring_probe(&twins, cfg);
    let leaders = report
        .outcomes
        .iter()
        .filter(|o| **o == AgentOutcome::Leader)
        .count();
    println!(
        "C6, antipodal twins under the synchronous scheduler: {:?} → {leaders} leaders!",
        report.outcomes
    );
    println!("→ the same protocol cannot distinguish the two worlds: no effectual");
    println!("  election protocol exists for anonymous agents (paper, Section 1.3).");
}
