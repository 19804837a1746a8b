//! Agent-based leader election with comparable identifiers
//! (arXiv:2403.13716), on the whiteboard runtime.
//!
//! Kshemkalyani, Kumar, Molla and Sharma study leader election *among
//! the agents themselves*: k labeled agents on an arbitrary anonymous
//! n-node graph elect one of the agents by traversing the graph and
//! comparing identifiers. Their headline is the complexity of doing so;
//! the feasibility row their model contributes to the zoo matrix is the
//! sharp contrast to this repo's source paper: with **comparable**
//! agent identifiers, election is solvable on *every* instance — the
//! title question ("can we elect if we cannot compare?") answers itself
//! trivially when we can.
//!
//! The runtime substitution, documented in DESIGN §16: the source
//! paper's agents carry distinct but *incomparable* colors, and every
//! color owns a `u64` nonce that the ELECT family deliberately never
//! orders. This protocol is exactly the one that breaks that taboo —
//! each agent draws a complete map of the network by whiteboard DFS
//! ([`crate::mapdraw`], which records every home-base's resident color
//! from the pre-placed `HomeBase` signs), then compares the nonces of
//! all home-base colors and elects the maximum. One comparison per
//! pair, no second phase, no solvability precondition: the oracle for
//! this protocol is the constant `true`.
//!
//! Crash recovery mirrors [`crate::dp_anon`]: the DFS marks
//! per-incarnation epochs, restarts re-enter at the home-base, and the
//! decision is a pure function of the redrawn map.

use crate::mapdraw::map_drawing_async;
use qelect_agentsim::{poll_now, AgentOutcome, Interrupt, MobileCtx, MobileCtxAsync, SyncCtx};

/// Blocking adapter over [`agent_elect_async`] (kept as a plain `fn` so
/// it coerces into a `GatedAgent` closure).
pub fn agent_elect<C: MobileCtx>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    poll_now(agent_elect_async(&mut SyncCtx(ctx)))
}

/// The labeled-agent election, written once over [`MobileCtxAsync`]:
/// draw the map, compare every home-base color's nonce, and let the
/// maximum win (see the module docs for the model).
pub async fn agent_elect_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    let me = ctx.color().nonce();
    let map = map_drawing_async(ctx).await?;
    ctx.span_open("id-compare");
    let max = map
        .homebases()
        .iter()
        .map(|&(_, c)| c.nonce())
        .max()
        .expect("an instance has at least one home-base");
    ctx.span_close("id-compare");
    Ok(if me == max {
        AgentOutcome::Leader
    } else {
        AgentOutcome::Defeated
    })
}

/// [`agent_elect`] as a [`Protocol`](qelect_agentsim::Protocol) for the
/// unified engine front door (wire name `agent-elect` in the registry).
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentElectProtocol;

impl qelect_agentsim::Protocol for AgentElectProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        agent_elect_async(ctx).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::{run, Engine, RunConfig};
    use qelect_graph::{families, Bicolored};

    fn run_on(bc: &Bicolored, engine: Engine, seed: u64) -> qelect_agentsim::ElectionRun {
        run(
            bc,
            &RunConfig::new(seed).engine(engine),
            &AgentElectProtocol,
        )
        .expect("run failed")
    }

    #[test]
    fn elects_even_on_perfectly_symmetric_instances() {
        // C6 @ {0,3}: the instance that defeats both ELECT (gcd 2) and
        // the anonymous protocols — comparable identifiers cut right
        // through the symmetry.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        for engine in Engine::ALL {
            let run = run_on(&bc, engine, 13);
            assert!(
                run.clean_election(),
                "{}: {:?}",
                engine.name(),
                run.report.outcomes
            );
        }
    }

    #[test]
    fn elects_across_families_and_seeds() {
        let cases: Vec<Bicolored> = vec![
            Bicolored::new(families::cycle(9).unwrap(), &[0, 1, 3]).unwrap(),
            Bicolored::new(families::cycle(8).unwrap(), &[0, 2, 4, 6]).unwrap(),
            Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
            Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap(),
            Bicolored::new(families::torus(&[3, 3]).unwrap(), &[0, 4]).unwrap(),
        ];
        for bc in &cases {
            for seed in [0u64, 5, 99] {
                let run = run_on(bc, Engine::Sim, seed);
                assert!(
                    run.clean_election(),
                    "seed {seed}: {:?}",
                    run.report.outcomes
                );
            }
        }
    }

    #[test]
    fn the_maximum_nonce_wins() {
        let bc = Bicolored::new(families::cycle(9).unwrap(), &[0, 1, 3]).unwrap();
        let run = run_on(&bc, Engine::Gated, 21);
        let leader = run.report.leader.expect("unique leader");
        let nonces: Vec<u64> = run.report.colors.iter().map(|c| c.nonce()).collect();
        let max = *nonces.iter().max().unwrap();
        assert_eq!(nonces[leader], max, "leader carries the maximum nonce");
    }

    #[test]
    fn engines_agree_on_the_leader() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        for seed in [1u64, 2, 3] {
            let gated = run_on(&bc, Engine::Gated, seed).report;
            let sim = run_on(&bc, Engine::Sim, seed).report;
            assert_eq!(gated.outcomes, sim.outcomes, "seed {seed}");
            assert_eq!(gated.leader, sim.leader, "seed {seed}");
        }
    }

    #[test]
    fn recovers_from_a_crash_fault() {
        use qelect_agentsim::{FaultAction, FaultEvent, FaultPlan};
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 1,
                at_op: 3,
                action: FaultAction::Crash { restart_after: 1 },
            }],
            ..FaultPlan::none()
        };
        for engine in [Engine::Gated, Engine::Sim] {
            let cfg = RunConfig::new(9).engine(engine).faults(plan.clone());
            let run = run(&bc, &cfg, &AgentElectProtocol).expect("run failed");
            assert_eq!(run.faults.crashes, 1, "{}", engine.name());
            assert!(
                run.clean_election(),
                "{}: {:?}",
                engine.name(),
                run.report.outcomes
            );
        }
    }
}
