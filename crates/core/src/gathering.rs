//! Gathering (rendezvous) on top of election.
//!
//! "Once a leader is elected, many other computational tasks become
//! straightforward. Such is the case for the gathering or rendezvous
//! problem." (footnote 2 of the paper). This module makes that remark
//! executable: run protocol ELECT; the leader stays put; every defeated
//! agent reads the leader's color from the announcement sign, routes to
//! the leader's home-base on its map, and reports arrival; the leader
//! waits for all `r − 1` arrivals. Gathering succeeds exactly when
//! election does.

use crate::elect::{compute_local_view_async, elect_from_view_async};
use crate::reduce::Courier;
use qelect_agentsim::{
    AgentOutcome, Color, ElectionRun, Interrupt, MobileCtxAsync, Protocol, RunConfig, RunError,
    SignKind,
};
use qelect_graph::Bicolored;

/// Posted at the leader's home-base by each arriving agent.
pub const GATHERED: SignKind = SignKind::Custom(31);

/// Elect, then gather at the leader's home-base.
///
/// Returns `Leader` for the rendezvous point's owner, `Defeated` for the
/// gathered agents (all physically at the leader's home when they
/// return), or `Unsolvable` when election — and hence deterministic
/// gathering — is impossible for the instance.
pub async fn gather_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    crate::elect::recovery_span_open(ctx);
    let view = compute_local_view_async(ctx).await?;
    let map = view.map.clone();
    let r = map.r();
    let outcome = elect_from_view_async(ctx, view).await?;
    let mut cr = Courier::new(ctx, map);
    match outcome {
        AgentOutcome::Leader => {
            // Wait at home until everyone else has arrived.
            let need = r - 1;
            cr.goto(0).await?;
            cr.ctx
                .wait_until(move |wb| {
                    let mut seen: Vec<Color> = Vec::new();
                    for s in wb.signs() {
                        if s.kind == GATHERED && !seen.contains(&s.color) {
                            seen.push(s.color);
                        }
                    }
                    seen.len() >= need
                })
                .await?;
            cr.ctx.checkpoint("gathering complete");
            Ok(AgentOutcome::Leader)
        }
        AgentOutcome::Defeated => {
            // Learn the leader's color from the announcement at home,
            // walk to its home-base, report arrival.
            let signs = cr.read_at(0).await?;
            let leader_color = signs
                .iter()
                .find(|s| s.kind == SignKind::Leader)
                .map(|s| s.color)
                .expect("defeated implies a Leader announcement");
            let target = cr
                .map
                .home_of(leader_color)
                .expect("leader's home-base is on the map");
            cr.goto(target).await?;
            cr.post(GATHERED, vec![]).await?;
            Ok(AgentOutcome::Defeated)
        }
        other => Ok(other),
    }
}

/// The gathering protocol as a [`Protocol`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GatherProtocol;

impl Protocol for GatherProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        gather_async(ctx).await
    }
}

/// Run the gathering protocol.
pub fn run_gather(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    qelect_agentsim::run(bc, cfg, &GatherProtocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    #[test]
    fn gathering_succeeds_where_election_does() {
        let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
        for seed in [1, 2, 3] {
            let report = run_gather(&bc, &RunConfig::new(seed)).unwrap().report;
            assert!(
                report.clean_election(),
                "seed {seed}: {:?} ({:?})",
                report.outcomes,
                report.interrupted
            );
            // The leader's wait completing is the proof of co-location.
            assert!(report
                .metrics
                .checkpoints
                .iter()
                .any(|c| c.label == "gathering complete"));
        }
    }

    #[test]
    fn gathering_fails_where_election_does() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let report = run_gather(&bc, &RunConfig::default()).unwrap().report;
        assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
    }

    #[test]
    fn single_agent_gathers_trivially() {
        let bc = Bicolored::new(families::path(4).unwrap(), &[2]).unwrap();
        let report = run_gather(&bc, &RunConfig::default()).unwrap().report;
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
    }

    #[test]
    fn gathering_on_hypercube() {
        let bc = Bicolored::new(families::hypercube(3).unwrap(), &[0, 1, 3]).unwrap();
        let report = run_gather(&bc, &RunConfig::default()).unwrap().report;
        assert!(report.clean_election(), "{:?}", report.outcomes);
    }
}
