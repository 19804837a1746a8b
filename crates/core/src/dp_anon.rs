//! Dereniowski–Pelc election for anonymous agents in arbitrary networks
//! (arXiv:1205.6249), on the whiteboard runtime.
//!
//! Dereniowski and Pelc characterize when *anonymous* asynchronous
//! agents in an arbitrary graph can elect: exactly when some agent's
//! initial position is distinguishable from every other agent's — in
//! this repo's vocabulary, when some Definition 2.1 equivalence class of
//! home-bases is a **singleton**. Agents in a common class have
//! isomorphic views and no identities to break the tie with, so no
//! deterministic protocol can separate them; an agent alone in its class
//! can be recognized (by everyone) from the class structure itself.
//!
//! The implementation rides the same machinery as ELECT's first phase:
//! each agent draws a complete map of the network by whiteboard DFS
//! ([`crate::mapdraw`]), computes the ordered equivalence classes of its
//! drawn copy (isomorphism-invariant, so every agent computes the same
//! ordered class-size sequence), and then decides locally:
//!
//! * no singleton home-base class → [`AgentOutcome::Unsolvable`];
//! * otherwise the agent whose home lands in the ≺-first singleton
//!   home-base class returns [`AgentOutcome::Leader`]; everyone else is
//!   [`AgentOutcome::Defeated`].
//!
//! No colors are compared (or even read): the only symmetry-breaking
//! input is the class structure, which is exactly the information an
//! anonymous agent can extract from the graph. Contrast with ELECT,
//! which additionally runs the gcd cascade of Theorem 3.1 over the
//! whiteboards and therefore also elects when gcd(|C₁|, …, |C_k|) = 1
//! *without* any singleton class — the zoo experiment
//! (`qelectctl zoo`) shows both regimes side by side.
//!
//! Crash recovery: the map DFS marks per-incarnation epochs, restarts
//! begin back at the home-base, and the decision is a pure function of
//! the redrawn map — so a restarted incarnation simply recomputes.

use crate::mapdraw::map_drawing_async;
use qelect_agentsim::{AgentOutcome, Interrupt, MobileCtxAsync};
use qelect_graph::cache::ordered_classes_cached;
use qelect_graph::Bicolored;

/// Whether Dereniowski–Pelc anonymous-agent election is solvable on an
/// instance: some home-base equivalence class is a singleton. This is
/// the protocol's ground-truth oracle (computed globally, no
/// simulation), the analogue of Theorem 3.1's gcd criterion for ELECT.
pub fn dp_solvable(bc: &Bicolored) -> bool {
    let oc = ordered_classes_cached(bc);
    oc.classes[..oc.ell].iter().any(|c| c.len() == 1)
}

/// The Dereniowski–Pelc decision, written once over [`MobileCtxAsync`]:
/// draw the map, order the classes, elect the singleton (see the module
/// docs for the argument).
pub async fn dp_anon_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    let map = map_drawing_async(ctx).await?;
    ctx.span_open("dp-decide");
    // Map node 0 is the agent's own home-base: the DFS roots there, and
    // crash-restarts reset the agent to its home before re-invoking.
    let bc = map.to_bicolored();
    let oc = ordered_classes_cached(&bc);
    let verdict = match oc.classes[..oc.ell].iter().position(|c| c.len() == 1) {
        None => AgentOutcome::Unsolvable,
        Some(first_singleton) => {
            if oc.class_of(0) == first_singleton {
                AgentOutcome::Leader
            } else {
                AgentOutcome::Defeated
            }
        }
    };
    ctx.span_close("dp-decide");
    Ok(verdict)
}

/// [`dp_anon_async`] as a [`Protocol`](qelect_agentsim::Protocol) for the
/// unified engine front door (wire name `dp-anon` in the registry).
#[derive(Debug, Clone, Copy, Default)]
pub struct DpAnonProtocol;

impl qelect_agentsim::Protocol for DpAnonProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        dp_anon_async(ctx).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvability::elect_succeeds;
    use qelect_agentsim::{run, RunConfig};
    use qelect_graph::families;

    fn instance(n: usize, homes: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), homes).unwrap()
    }

    fn run_on(bc: &Bicolored, seed: u64) -> qelect_agentsim::ElectionRun {
        run(bc, &RunConfig::new(seed), &DpAnonProtocol).expect("run failed")
    }

    #[test]
    fn asymmetric_cycle_elects_on_every_engine() {
        // C9 @ {0,1,3}: no automorphism preserves the marking, so every
        // home-base class is a singleton.
        let bc = instance(9, &[0, 1, 3]);
        assert!(dp_solvable(&bc));
        let run = run_on(&bc, 7);
        assert!(run.clean_election(), "{:?}", run.report.outcomes);
    }

    #[test]
    fn reflection_fixed_point_is_the_leader() {
        // C12 @ {0,3,6}: the reflection through node 3 swaps 0 and 6 and
        // fixes 3 — classes {3} and {0,6}, so the singleton elects.
        let bc = instance(12, &[0, 3, 6]);
        assert!(dp_solvable(&bc));
        let run = run_on(&bc, 1);
        assert!(run.clean_election(), "{:?}", run.report.outcomes);
        let leader = run.report.leader.expect("unique leader");
        assert_eq!(bc.homebases()[leader], 3, "the fixed home-base leads");
    }

    #[test]
    fn antipodal_twins_are_unsolvable() {
        // C6 @ {0,3}: the two home-bases form one class of size 2 — the
        // instance the §1.3 ring probe double-elects on. DP reports
        // Unsolvable instead of misbehaving.
        let bc = instance(6, &[0, 3]);
        assert!(!dp_solvable(&bc));
        let run = run_on(&bc, 3);
        assert!(run.unanimous_unsolvable(), "{:?}", run.report.outcomes);
    }

    #[test]
    fn dp_solvable_implies_elect_solvable() {
        // A singleton class forces gcd 1, so DP's domain is contained in
        // ELECT's (the zoo shows the containment is strict).
        let cases: Vec<Bicolored> = vec![
            instance(9, &[0, 1, 3]),
            instance(12, &[0, 3, 6]),
            instance(6, &[0, 3]),
            instance(8, &[0, 2, 4, 6]),
            Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 3, 5]).unwrap(),
        ];
        for bc in &cases {
            if dp_solvable(bc) {
                assert!(elect_succeeds(bc), "DP solvable but gcd > 1 on {bc:?}");
            }
        }
    }

    #[test]
    fn recovers_from_a_crash_fault() {
        use qelect_agentsim::{FaultAction, FaultEvent, FaultPlan};
        let bc = instance(9, &[0, 1, 3]);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 4,
                action: FaultAction::Crash { restart_after: 0 },
            }],
            ..FaultPlan::none()
        };
        let cfg = RunConfig::new(5).faults(plan);
        let run = run(&bc, &cfg, &DpAnonProtocol).expect("run failed");
        assert_eq!(run.faults.crashes, 1);
        assert!(run.clean_election(), "{:?}", run.report.outcomes);
    }
}
