//! The bespoke Petersen protocol (Fig. 5 of the paper).
//!
//! On the Petersen graph with two agents at **adjacent** home-bases,
//! protocol ELECT fails (`gcd(|C_b|, |C_g|, |C_w|) = gcd(2, 4, 4) = 2`),
//! yet election is possible via the paper's five-step protocol:
//!
//! 1. wake the other agent (all agents are awake in this runtime);
//! 2. go to a neighbor of your home-base distinct from the other
//!    home-base and mark its whiteboard;
//! 3. visit the other agent's neighbors to find which one it marked;
//! 4. try to acquire the **unique common neighbor** `x` of the two
//!    marked nodes;
//! 5. if you acquired `x`, you are the leader, else you are defeated.
//!
//! Step 4 relies on the Petersen graph being strongly regular with
//! parameters `(10, 3, 0, 1)`: adjacent vertices share no neighbor
//! (girth 5), so the two marked nodes are distinct, non-adjacent, and
//! have exactly one common neighbor — which is also distinct from both
//! home-bases. Mutual exclusion on `x`'s whiteboard breaks the tie.
//!
//! This is the paper's proof that ELECT is **not effectual** on
//! arbitrary graphs: an instance where ELECT reports failure but a
//! (graph-specific) protocol elects.

use crate::mapdraw::map_drawing_async;
use crate::reduce::Courier;
use qelect_agentsim::{
    AgentOutcome, ElectionRun, Interrupt, MobileCtxAsync, Protocol, RunConfig, RunError, Sign,
    SignKind,
};
use qelect_graph::Bicolored;

/// The mark of step 2.
pub const NEIGHBOR_MARK: SignKind = SignKind::Custom(21);
/// The acquisition sign of step 4.
pub const ACQUIRE_X: SignKind = SignKind::Custom(22);
/// Posted at an agent's own home-base once its step-2 mark is placed, so
/// the other agent can *wait* instead of polling (starvation-proof under
/// maximally unfair schedulers).
pub const MARK_DONE: SignKind = SignKind::Custom(23);

/// The two-agent Petersen protocol.
pub async fn petersen_elect_async<C: MobileCtxAsync>(
    ctx: &mut C,
) -> Result<AgentOutcome, Interrupt> {
    let me = ctx.color();
    let map = map_drawing_async(ctx).await?;
    assert_eq!(map.r(), 2, "the Fig. 5 protocol is specific to two agents");
    let my_home = 0usize;
    let other_home = map
        .homebases()
        .iter()
        .find(|&&(_, c)| c != me)
        .map(|&(v, _)| v)
        .expect("two agents");
    fn neighbors(map: &crate::map::AgentMap, v: usize) -> Vec<usize> {
        (0..map.degree(v))
            .map(|p| {
                map.edge(v, qelect_agentsim::LocalPort(p as u32))
                    .expect("complete")
                    .to
            })
            .collect()
    }
    assert!(
        neighbors(&map, my_home).contains(&other_home),
        "the Fig. 5 configuration has adjacent home-bases"
    );

    let mut cr = Courier::new(ctx, map);

    // Step 2: mark a neighbor of mine that is not the other home-base.
    let my_mark = *neighbors(&cr.map, my_home)
        .iter()
        .find(|&&v| v != other_home)
        .expect("degree 3 > 1");
    cr.goto(my_mark).await?;
    cr.post(NEIGHBOR_MARK, vec![]).await?;
    cr.goto(my_home).await?;
    cr.post(MARK_DONE, vec![]).await?;

    // Step 3: find which of the other agent's neighbors it marked. Wait
    // at its home-base for its MARK_DONE (posted unconditionally — no
    // deadlock, no polling), then inspect its neighbors once.
    let other_color = cr.map.color_at(other_home).expect("home-base");
    cr.goto(other_home).await?;
    cr.wait_for(MARK_DONE, vec![], other_color).await?;
    let other_candidates: Vec<usize> = neighbors(&cr.map, other_home)
        .into_iter()
        .filter(|&v| v != my_home)
        .collect();
    let mut their_mark = None;
    for &cand in &other_candidates {
        cr.goto(cand).await?;
        let signs = cr.ctx.read_board().await?;
        if signs
            .iter()
            .any(|s| s.kind == NEIGHBOR_MARK && s.color != me)
        {
            their_mark = Some(cand);
            break;
        }
    }
    let their_mark = their_mark.expect("the other agent marked one of its neighbors");

    // Step 4: the unique common neighbor of the two marked nodes.
    let my_mark_nbrs = neighbors(&cr.map, my_mark);
    let common: Vec<usize> = neighbors(&cr.map, their_mark)
        .into_iter()
        .filter(|v| my_mark_nbrs.contains(v))
        .collect();
    assert_eq!(
        common.len(),
        1,
        "strong regularity (10,3,0,1): unique common neighbor"
    );
    let x = common[0];
    cr.goto(x).await?;
    let won = cr
        .ctx
        .with_board(move |wb| {
            if wb.find_kind(ACQUIRE_X).is_none() {
                wb.post(Sign::tag(me, ACQUIRE_X));
                true
            } else {
                false
            }
        })
        .await?;

    // Step 5.
    Ok(if won {
        AgentOutcome::Leader
    } else {
        AgentOutcome::Defeated
    })
}

/// The two-agent Petersen protocol as a [`Protocol`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PetersenProtocol;

impl Protocol for PetersenProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        petersen_elect_async(ctx).await
    }
}

/// Run the Petersen protocol (two agents).
pub fn run_petersen(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    assert_eq!(bc.r(), 2);
    qelect_agentsim::run(bc, cfg, &PetersenProtocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::sched::Policy;
    use qelect_graph::families;

    fn petersen_pair() -> Bicolored {
        Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap()
    }

    #[test]
    fn elects_one_leader() {
        for seed in 0..6 {
            let report = run_petersen(&petersen_pair(), &RunConfig::new(seed))
                .unwrap()
                .report;
            assert!(
                report.clean_election(),
                "seed {seed}: {:?} ({:?})",
                report.outcomes,
                report.interrupted
            );
        }
    }

    #[test]
    fn elects_under_adversarial_schedulers() {
        for policy in [Policy::Lockstep, Policy::RoundRobin, Policy::GreedyLowest] {
            let cfg = RunConfig::default().policy(policy);
            let report = run_petersen(&petersen_pair(), &cfg).unwrap().report;
            assert!(report.clean_election(), "{policy:?}: {:?}", report.outcomes);
        }
    }

    #[test]
    fn works_for_any_adjacent_pair() {
        // Vertex-transitivity: the protocol must work wherever the two
        // adjacent agents start. Try a few edges.
        let g = families::petersen().unwrap();
        for (u, v) in [(0usize, 5usize), (5, 7), (2, 3), (4, 9)] {
            assert!(g.neighbors(u).any(|w| w == v), "({u},{v}) must be an edge");
            let bc = Bicolored::new(g.clone(), &[u, v]).unwrap();
            let report = run_petersen(&bc, &RunConfig::default()).unwrap().report;
            assert!(report.clean_election(), "({u},{v}): {:?}", report.outcomes);
        }
    }
}
