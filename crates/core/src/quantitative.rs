//! The quantitative baseline: universal election with comparable labels.
//!
//! "If agents are labeled with distinct elements that are also comparable
//! then there is a universal election protocol: during phase 1, every
//! agent performs a traversal of the graph to collect all agent labels;
//! during phase 2, every agent elects the agent of maximum label as the
//! leader." (§1.3)
//!
//! Here agents carry `u64` identifiers *in addition to* their colors —
//! the quantitative model's totally ordered labels. Each agent posts its
//! ID at its home-base as its very first action; traversing agents wait
//! at a home-base until its resident's ID sign appears (the resident
//! posts unconditionally, so the wait is deadlock-free). This protocol
//! succeeds on **every** instance — the top row of Table 1 — and serves
//! as the cost baseline for ELECT.

use crate::mapdraw::map_drawing_async;
use crate::reduce::Courier;
use qelect_agentsim::{
    run_each, AgentOutcome, ElectionRun, Interrupt, MobileCtxAsync, Protocol, RunConfig, RunError,
    SignKind,
};
use qelect_graph::Bicolored;

/// The `Custom` sign kind carrying a quantitative ID (payload: `[id]`).
pub const ID_SIGN: SignKind = SignKind::Custom(1);

/// The universal quantitative protocol, run by an agent with label `id`.
pub async fn quantitative_elect_async<C: MobileCtxAsync>(
    ctx: &mut C,
    id: u64,
) -> Result<AgentOutcome, Interrupt> {
    // Publish my label before anything else.
    let me = ctx.color();
    ctx.with_board(move |wb| wb.post(qelect_agentsim::Sign::with_payload(me, ID_SIGN, vec![id])))
        .await?;
    // Phase 1: traverse and collect.
    let map = map_drawing_async(ctx).await?;
    ctx.checkpoint("map-drawing done");
    let homes: Vec<usize> = map.homebases().iter().map(|&(v, _)| v).collect();
    let mut cr = Courier::new(ctx, map);
    let mut labels: Vec<u64> = Vec::with_capacity(homes.len());
    for home in homes {
        cr.goto(home).await?;
        // Wait for the resident's ID (it posts first thing).
        cr.ctx
            .wait_until(|wb| wb.signs().iter().any(|s| s.kind == ID_SIGN))
            .await?;
        let signs = cr.ctx.read_board().await?;
        let label = signs
            .iter()
            .find(|s| s.kind == ID_SIGN)
            .and_then(|s| s.word())
            .expect("waited for it");
        labels.push(label);
    }
    cr.goto(0).await?;
    cr.ctx.checkpoint("labels collected");
    // Phase 2: the maximum label wins.
    let max = *labels.iter().max().expect("r >= 1");
    Ok(if max == id {
        AgentOutcome::Leader
    } else {
        AgentOutcome::Defeated
    })
}

/// The quantitative protocol as run by the agent labeled `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantitativeProtocol {
    /// The agent's comparable label.
    pub id: u64,
}

impl Protocol for QuantitativeProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        quantitative_elect_async(ctx, self.id).await
    }
}

/// Run the quantitative protocol, assigning agent `i` the label `ids[i]`
/// (labels must be pairwise distinct).
pub fn run_quantitative(
    bc: &Bicolored,
    cfg: &RunConfig,
    ids: &[u64],
) -> Result<ElectionRun, RunError> {
    assert_eq!(ids.len(), bc.r(), "one label per agent");
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "labels must be distinct");
    let agents = ids.iter().map(|&id| QuantitativeProtocol { id }).collect();
    run_each(bc, cfg, agents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::RunReport;
    use qelect_graph::families;

    fn check(bc: &Bicolored, ids: &[u64], seed: u64) -> RunReport {
        let report = run_quantitative(bc, &RunConfig::new(seed), ids)
            .unwrap()
            .report;
        assert!(
            report.clean_election(),
            "{:?} ({:?})",
            report.outcomes,
            report.interrupted
        );
        report
    }

    #[test]
    fn max_id_wins_on_cycle() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 4]).unwrap();
        let report = check(&bc, &[10, 99, 55], 1);
        assert_eq!(report.leader, Some(1));
    }

    #[test]
    fn universal_on_symmetric_instances() {
        // The instances where ELECT fails are exactly where the
        // quantitative baseline shines: antipodal agents on C6.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let report = check(&bc, &[7, 3], 2);
        assert_eq!(report.leader, Some(0));

        // K2 with two agents — the paper's minimal counterexample for
        // the qualitative world — is solvable with comparable labels.
        let bc = Bicolored::new(families::complete(2).unwrap(), &[0, 1]).unwrap();
        let report = check(&bc, &[1, 2], 3);
        assert_eq!(report.leader, Some(1));
    }

    #[test]
    fn universal_on_petersen_pair() {
        let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
        let report = check(&bc, &[5, 6], 4);
        assert_eq!(report.leader, Some(1));
    }

    #[test]
    fn works_across_schedulers_and_seeds() {
        let bc = Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap();
        for seed in 0..4 {
            let report = check(&bc, &[40, 2], seed);
            assert_eq!(report.leader, Some(0));
        }
    }

    #[test]
    fn rejects_duplicate_ids() {
        let bc = Bicolored::new(families::cycle(4).unwrap(), &[0, 2]).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_quantitative(&bc, &RunConfig::default(), &[5, 5])
        }));
        assert!(
            result.is_err(),
            "distinctness is required (the paper's first failure mode)"
        );
    }
}
