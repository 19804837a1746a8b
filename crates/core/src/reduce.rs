//! AGENT-REDUCE and NODE-REDUCE — the GCD engines of Protocol ELECT.
//!
//! Both subroutines realize Euclid's algorithm on class sizes through
//! whiteboard interactions (§3.3 of the paper):
//!
//! * [`agent_reduce`] — *subtractive* Euclid between two sets of agents.
//!   Each round, the `|S|` searchers traverse the network and each
//!   matches the first unmatched waiting agent it reaches (mutual
//!   exclusion arbitrates); matched waiting agents become passive, and
//!   roles swap when `|W| − |S| < |S|`, exactly as in Fig. 4.
//! * [`node_reduce`] — *division* Euclid between agents and selected
//!   nodes. With `α` agents and `β` nodes: if `α > β` (`α = qβ + ρ`,
//!   `0 < ρ ≤ β`) each node absorbs `q` agents, which become passive; if
//!   `α < β` (`β = qα + ρ`) each agent acquires `q` nodes, which leave
//!   the selection.
//!
//! ### Bookkeeping discipline (implementation of the paper's sketches)
//!
//! Every coordination step is a *monotone* whiteboard sign (`Sync`,
//! `VisitDone`, `Match`, `RoundDone`, `Acquired`) tagged with
//! `(phase, round)`, and every wait blocks on a sign whose poster writes
//! it unconditionally — so no interleaving can deadlock. Agents that
//! change role reconstruct the settled set membership by replaying the
//! match history from the boards against the deterministic
//! [`Schedule`](crate::schedule::Schedule); all other membership
//! tracking is local. The move/access totals stay within the Theorem 3.1
//! envelope: searcher work is charged to matched agents (≤ 2 traversals
//! per match, plus O(log) swap reconstructions).
//!
//! Both subroutines are written once as `async` bodies over
//! [`MobileCtxAsync`] and run unchanged on every engine: the
//! single-threaded discrete-event simulator polls the futures directly,
//! while the thread-per-agent engines drive them through
//! [`SyncCtx`](qelect_agentsim::SyncCtx) (whose primitives block inside
//! the poll, so the future completes on its first poll).

use crate::map::{AgentMap, RouteScratch};
use crate::schedule::{AgentRound, NodeRound};
use qelect_agentsim::{Color, Interrupt, MobileCtxAsync, Sign, SignKind, Whiteboard};

/// Position-tracked navigation over the agent's map.
pub struct Courier<'c, C: MobileCtxAsync> {
    /// The runtime context.
    pub ctx: &'c mut C,
    /// The completed map.
    pub map: AgentMap,
    /// Current map node.
    pub pos: usize,
    /// Reused by every [`Courier::goto`].
    routes: RouteScratch,
}

impl<'c, C: MobileCtxAsync> Courier<'c, C> {
    /// Create a courier at the home-base (map node 0).
    pub fn new(ctx: &'c mut C, map: AgentMap) -> Self {
        Courier {
            ctx,
            map,
            pos: 0,
            routes: RouteScratch::default(),
        }
    }

    /// My color.
    pub fn me(&self) -> Color {
        self.ctx.color()
    }

    /// Travel to a map node by the shortest route.
    pub async fn goto(&mut self, node: usize) -> Result<(), Interrupt> {
        let route = self.map.route(self.pos, node, &mut self.routes);
        for &p in route {
            self.ctx.move_via(p).await?;
        }
        self.pos = node;
        Ok(())
    }

    /// Post a sign at the current node.
    pub async fn post(&mut self, kind: SignKind, payload: Vec<u64>) -> Result<(), Interrupt> {
        let me = self.me();
        self.ctx
            .with_board(move |wb| wb.post(Sign::with_payload(me, kind, payload)))
            .await
    }

    /// Post a tagged sign at every node in `targets` (visited in map
    /// order via shortest routes).
    pub async fn post_at_all(
        &mut self,
        targets: &[usize],
        kind: SignKind,
        payload: &[u64],
    ) -> Result<(), Interrupt> {
        for &t in targets {
            self.goto(t).await?;
            self.post(kind, payload.to_vec()).await?;
        }
        Ok(())
    }

    /// Wait at the current node for a sign of this kind, tag and color.
    pub async fn wait_for(
        &mut self,
        kind: SignKind,
        payload: Vec<u64>,
        color: Color,
    ) -> Result<(), Interrupt> {
        self.ctx
            .wait_until(move |wb| {
                wb.signs()
                    .iter()
                    .any(|s| s.kind == kind && s.color == color && s.payload == payload)
            })
            .await
    }

    /// Visit every node in `others` and wait for its resident's sign.
    pub async fn barrier_visit(
        &mut self,
        others: &[usize],
        kind: SignKind,
        payload: &[u64],
    ) -> Result<(), Interrupt> {
        for &home in others {
            let color = self
                .map
                .color_at(home)
                .expect("barrier targets are home-bases");
            if color == self.me() {
                continue;
            }
            self.goto(home).await?;
            self.wait_for(kind, payload.to_vec(), color).await?;
        }
        Ok(())
    }

    /// The paper's literal SYNCHRONIZE: "traversing the network and
    /// letting appropriate colored signs on the whiteboards". Every
    /// participant sweeps the whole graph posting the tagged sign on
    /// *every* node, then waits at home until all `group_size` distinct
    /// colors have shown up on its own board (they will: everyone posts
    /// everywhere). An alternative to [`Courier::barrier_visit`] measured
    /// by the E8 ablation — same barrier semantics, different constant.
    pub async fn barrier_sweep(
        &mut self,
        group_size: usize,
        kind: SignKind,
        payload: &[u64],
    ) -> Result<(), Interrupt> {
        let me = self.me();
        let pl = payload.to_vec();
        // Post at the current node, then along a full sweep.
        let plc = pl.clone();
        self.ctx
            .with_board(move |wb| wb.post(Sign::with_payload(me, kind, plc)))
            .await?;
        let route = self.map.sweep_route(self.pos);
        for p in route {
            self.ctx.move_via(p).await?;
            let plc = pl.clone();
            self.ctx
                .with_board(move |wb| wb.post(Sign::with_payload(me, kind, plc)))
                .await?;
        }
        // The sweep returns to its origin; head home and wait for all.
        self.goto(0).await?;
        let pl2 = pl.clone();
        self.ctx
            .wait_until(move |wb| {
                let mut seen: Vec<Color> = Vec::new();
                for s in wb.signs() {
                    if s.kind == kind && s.payload == pl2 && !seen.contains(&s.color) {
                        seen.push(s.color);
                    }
                }
                seen.len() >= group_size
            })
            .await?;
        Ok(())
    }

    /// Read a snapshot of a node's board.
    pub async fn read_at(&mut self, node: usize) -> Result<Vec<Sign>, Interrupt> {
        self.goto(node).await?;
        self.ctx.read_board().await
    }
}

fn has_tag(wb_signs: &[Sign], kind: SignKind, phase: u64, round: u64) -> Vec<Color> {
    wb_signs
        .iter()
        .filter(|s| s.kind == kind && s.payload == [phase, round])
        .map(|s| s.color)
        .collect()
}

fn count_distinct_tagged(wb: &Whiteboard, kind: SignKind, phase: u64, round: u64) -> usize {
    let mut seen: Vec<Color> = Vec::new();
    for s in wb.signs() {
        if s.kind == kind && s.payload == [phase, round] && !seen.contains(&s.color) {
            seen.push(s.color);
        }
    }
    seen.len()
}

/// How an agent left a reduction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReduceExit {
    /// Still active; carries the surviving agent homes (sorted).
    Active(Vec<usize>),
    /// Became passive (matched / acquired / final-W).
    Passive,
}

/// The role an agent plays entering a phase round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Searching,
    Waiting,
}

/// Replay the match history of rounds `0..upto` to recover the searcher
/// and waiting sets entering round `upto`.
fn replay_sets(
    rounds: &[AgentRound],
    s0: Vec<usize>,
    w0: Vec<usize>,
    matched_in: impl Fn(usize, u64) -> bool, // (home, round) → matched?
    upto: usize,
) -> (Vec<usize>, Vec<usize>) {
    let (mut s, mut w) = (s0, w0);
    for (t, round) in rounds.iter().enumerate().take(upto) {
        let p: Vec<usize> = w
            .iter()
            .copied()
            .filter(|&h| matched_in(h, t as u64))
            .collect();
        let rest: Vec<usize> = w.iter().copied().filter(|h| !p.contains(h)).collect();
        if round.swap {
            let old_s = std::mem::replace(&mut s, rest);
            w = old_s;
        } else {
            w = rest;
        }
        s.sort_unstable();
        w.sort_unstable();
    }
    (s, w)
}

/// Run AGENT-REDUCE for this agent.
///
/// * `phase` — the phase tag.
/// * `rounds` — the schedule's subtractive-Euclid rounds.
/// * `s0`, `w0` — initial searcher and waiting home sets (sorted; ties
///   already resolved by the caller: `S = D` when sizes are equal).
/// * `my_home` — this agent's home (always map node 0).
pub async fn agent_reduce<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
    phase: u64,
    rounds: &[AgentRound],
    s0: Vec<usize>,
    w0: Vec<usize>,
) -> Result<ReduceExit, Interrupt> {
    cr.ctx.span_open("agent-reduce");
    let out = agent_reduce_inner(cr, phase, rounds, s0, w0).await;
    cr.ctx.span_close("agent-reduce");
    out
}

async fn agent_reduce_inner<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
    phase: u64,
    rounds: &[AgentRound],
    s0: Vec<usize>,
    w0: Vec<usize>,
) -> Result<ReduceExit, Interrupt> {
    let my_home = 0usize;
    let mut s = s0.clone();
    let mut w = w0.clone();
    let mut role = if s.contains(&my_home) {
        Role::Searching
    } else {
        debug_assert!(w.contains(&my_home), "participant must be in S or W");
        Role::Waiting
    };

    for (t, round) in rounds.iter().enumerate() {
        let t64 = t as u64;
        debug_assert_eq!((s.len(), w.len()), (round.s, round.w), "schedule drift");
        match role {
            Role::Searching => {
                // 1. Enter the round barrier.
                cr.goto(my_home).await?;
                cr.post(SignKind::Sync, vec![phase, t64]).await?;
                cr.barrier_visit(&s, SignKind::Sync, &[phase, t64]).await?;
                // 2. Matching sweep over the waiting homes: mark every
                //    visit; match the first unmatched agent encountered.
                let mut i_matched = false;
                for &home in &w {
                    cr.goto(home).await?;
                    let me = cr.me();
                    let may_match = !i_matched;
                    let matched_here = cr
                        .ctx
                        .with_board(move |wb| {
                            wb.post(Sign::with_payload(
                                me,
                                SignKind::VisitDone,
                                vec![phase, t64],
                            ));
                            // Crash recovery: a restarted incarnation must
                            // recognize its own pre-crash match instead of
                            // matching a second waiting agent. Matches only
                            // accumulate, so the first unmatched home this
                            // sweep reaches is the one the pre-crash sweep
                            // committed to.
                            if wb.signs().iter().any(|x| {
                                x.kind == SignKind::Match
                                    && x.payload == [phase, t64]
                                    && x.color == me
                            }) {
                                return true;
                            }
                            let already_matched = wb
                                .signs()
                                .iter()
                                .any(|x| x.kind == SignKind::Match && x.payload == [phase, t64]);
                            if may_match && !already_matched {
                                wb.post(Sign::with_payload(me, SignKind::Match, vec![phase, t64]));
                                true
                            } else {
                                false
                            }
                        })
                        .await?;
                    i_matched = i_matched || matched_here;
                }
                // 3. Declare my round complete and wait for the others.
                cr.goto(my_home).await?;
                cr.post(SignKind::RoundDone, vec![phase, t64]).await?;
                cr.barrier_visit(&s, SignKind::RoundDone, &[phase, t64])
                    .await?;
                // 4. Read the settled matching.
                let mut p = Vec::new();
                for &home in &w {
                    let signs = cr.read_at(home).await?;
                    if !has_tag(&signs, SignKind::Match, phase, t64).is_empty() {
                        p.push(home);
                    }
                }
                debug_assert_eq!(p.len(), s.len(), "exactly |S| matches per round");
                // 5. Update sets and my role.
                let rest: Vec<usize> = w.iter().copied().filter(|h| !p.contains(h)).collect();
                if round.swap {
                    let old_s = std::mem::replace(&mut s, rest);
                    w = old_s;
                    role = Role::Waiting;
                    cr.goto(my_home).await?; // wait at home
                } else {
                    w = rest;
                }
                s.sort_unstable();
                w.sort_unstable();
            }
            Role::Waiting => {
                // Wait at home until all searchers have visited me.
                cr.goto(my_home).await?;
                let need = round.s;
                cr.ctx
                    .wait_until(move |wb| {
                        count_distinct_tagged(wb, SignKind::VisitDone, phase, t64) >= need
                    })
                    .await?;
                let signs = cr.ctx.read_board().await?;
                let matched = !has_tag(&signs, SignKind::Match, phase, t64).is_empty();
                if matched {
                    return Ok(ReduceExit::Passive);
                }
                if round.swap {
                    // I become a searcher next round. Reconstruct the
                    // settled sets: rounds < t are settled (round t ran);
                    // wait out round t, then replay the history.
                    // (a) Gather history of rounds 0..t over all
                    //     original participants' homes.
                    let participants: Vec<usize> = {
                        let mut v = s0.clone();
                        v.extend_from_slice(&w0);
                        v.sort_unstable();
                        v
                    };
                    let mut matched_at: Vec<(usize, u64)> = Vec::new();
                    for &home in &participants {
                        let signs = cr.read_at(home).await?;
                        for sgn in &signs {
                            if sgn.kind == SignKind::Match && sgn.payload[0] == phase {
                                matched_at.push((home, sgn.payload[1]));
                            }
                        }
                    }
                    let (s_t, w_t) = replay_sets(
                        rounds,
                        s0.clone(),
                        w0.clone(),
                        |h, r| matched_at.contains(&(h, r)),
                        t,
                    );
                    debug_assert_eq!(s_t.len(), round.s);
                    // (b) Wait for round t to settle.
                    cr.barrier_visit(&s_t, SignKind::RoundDone, &[phase, t64])
                        .await?;
                    // (c) Read round-t matches and step to round t+1.
                    let mut p = Vec::new();
                    for &home in &w_t {
                        let signs = cr.read_at(home).await?;
                        if !has_tag(&signs, SignKind::Match, phase, t64).is_empty() {
                            p.push(home);
                        }
                    }
                    s = w_t.into_iter().filter(|h| !p.contains(h)).collect();
                    w = s_t;
                    s.sort_unstable();
                    w.sort_unstable();
                    role = Role::Searching;
                }
                // No swap: stay waiting; only sizes matter to me and they
                // come from the schedule.
            }
        }
    }

    // Rounds exhausted: |S| = |W|. S survives; W becomes passive.
    match role {
        Role::Searching => {
            cr.goto(my_home).await?;
            Ok(ReduceExit::Active(s))
        }
        Role::Waiting => Ok(ReduceExit::Passive),
    }
}

/// Run NODE-REDUCE for this agent.
///
/// * `actives0` — the agent homes active at phase entry (sorted).
/// * `selected0` — the node class (sorted map nodes).
pub async fn node_reduce<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
    phase: u64,
    rounds: &[NodeRound],
    actives0: Vec<usize>,
    selected0: Vec<usize>,
) -> Result<ReduceExit, Interrupt> {
    cr.ctx.span_open("node-reduce");
    let out = node_reduce_inner(cr, phase, rounds, actives0, selected0).await;
    cr.ctx.span_close("node-reduce");
    out
}

async fn node_reduce_inner<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
    phase: u64,
    rounds: &[NodeRound],
    actives0: Vec<usize>,
    selected0: Vec<usize>,
) -> Result<ReduceExit, Interrupt> {
    let my_home = 0usize;
    let mut actives = actives0;
    let mut selected = selected0;

    for (t, round) in rounds.iter().enumerate() {
        let t64 = t as u64;
        debug_assert_eq!(
            (actives.len(), selected.len()),
            (round.alpha, round.beta),
            "schedule drift"
        );
        if round.agents_exceed_nodes {
            // Case 1: each node absorbs q agents; acquirers go passive.
            let q = round.q;
            let mut acquirers: Vec<Color> = Vec::new();
            let mut i_acquired = false;
            for &node in &selected {
                cr.goto(node).await?;
                let me = cr.me();
                let outcome = cr
                    .ctx
                    .with_board(move |wb| {
                        let mut colors: Vec<Color> = Vec::new();
                        for s in wb.signs() {
                            if s.kind == SignKind::Acquired
                                && s.payload == [phase, t64]
                                && !colors.contains(&s.color)
                            {
                                colors.push(s.color);
                            }
                        }
                        // Crash recovery: my pre-crash acquisition stands —
                        // don't post a duplicate, just honor it.
                        if colors.contains(&me) {
                            (true, colors)
                        } else if colors.len() < q {
                            wb.post(Sign::with_payload(me, SignKind::Acquired, vec![phase, t64]));
                            (true, colors)
                        } else {
                            (false, colors)
                        }
                    })
                    .await?;
                let (took, others) = outcome;
                if took {
                    i_acquired = true;
                    break;
                }
                for c in others {
                    if !acquirers.contains(&c) {
                        acquirers.push(c);
                    }
                }
            }
            if i_acquired {
                // "Agents that have acquired a node become passive."
                cr.goto(my_home).await?;
                return Ok(ReduceExit::Passive);
            }
            // Survivor: my sweep saw every node already full, so the
            // round is settled and `acquirers` is complete (q·β colors).
            debug_assert_eq!(acquirers.len(), q * round.beta);
            let acquirer_homes: Vec<usize> = acquirers
                .iter()
                .filter_map(|&c| cr.map.home_of(c))
                .collect();
            actives.retain(|h| !acquirer_homes.contains(h));
            actives.sort_unstable();
            // Selection unchanged.
        } else {
            // Case 2: each agent acquires q nodes; acquired nodes leave
            // the selection. Acquisitions are tracked by node (not a bare
            // counter) so a restarted incarnation counts its own
            // pre-crash `Acquired` signs exactly once each, and a fresh
            // run's repeat sweeps never double-count a node.
            let q = round.q;
            let mut mine_nodes: Vec<usize> = Vec::new();
            while mine_nodes.len() < q {
                let mut progressed = false;
                for &node in &selected {
                    if mine_nodes.len() >= q {
                        break;
                    }
                    if mine_nodes.contains(&node) {
                        continue;
                    }
                    cr.goto(node).await?;
                    let me = cr.me();
                    let took =
                        cr.ctx
                            .with_board(move |wb| {
                                if wb.signs().iter().any(|s| {
                                    s.kind == SignKind::Acquired
                                        && s.payload == [phase, t64]
                                        && s.color == me
                                }) {
                                    return true; // my pre-crash acquisition
                                }
                                let taken = wb.signs().iter().any(|s| {
                                    s.kind == SignKind::Acquired && s.payload == [phase, t64]
                                });
                                if !taken {
                                    wb.post(Sign::with_payload(
                                        me,
                                        SignKind::Acquired,
                                        vec![phase, t64],
                                    ));
                                    true
                                } else {
                                    false
                                }
                            })
                            .await?;
                    if took {
                        mine_nodes.push(node);
                        progressed = true;
                    }
                }
                if mine_nodes.len() < q && !progressed {
                    // All currently free nodes were contended away this
                    // sweep; capacity math (q·α < β) guarantees free
                    // nodes exist once other agents cap out, so sweep
                    // again. The runtime's step budget bounds pathology.
                    continue;
                }
            }
            // Declare my round done; wait for the other actives.
            cr.goto(my_home).await?;
            cr.post(SignKind::RoundDone, vec![phase, 1000 + t64])
                .await?;
            cr.barrier_visit(&actives, SignKind::RoundDone, &[phase, 1000 + t64])
                .await?;
            // Read the settled acquisition to shrink the selection.
            let mut still = Vec::new();
            for &node in &selected {
                let signs = cr.read_at(node).await?;
                let taken = signs
                    .iter()
                    .any(|s| s.kind == SignKind::Acquired && s.payload == [phase, t64]);
                if !taken {
                    still.push(node);
                }
            }
            debug_assert_eq!(still.len(), round.rho);
            selected = still;
        }
    }

    cr.goto(my_home).await?;
    Ok(ReduceExit::Active(actives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapdraw::map_drawing_async;
    use qelect_agentsim::gated::{run_gated_faulty, GatedAgent, RunConfig, RunReport};
    use qelect_agentsim::sched::Policy;
    use qelect_agentsim::{poll_now, AgentOutcome, FaultPlan, SyncCtx};
    use qelect_graph::{families, Bicolored};

    /// Crash-free run through the non-deprecated typed entry (shadows
    /// the legacy `run_gated` shim for every test below).
    fn run_gated(bc: &Bicolored, cfg: RunConfig, agents: Vec<GatedAgent>) -> RunReport {
        run_gated_faulty(bc, cfg, &FaultPlan::none(), agents).expect("gated run failed")
    }

    #[test]
    fn barrier_sweep_synchronizes_under_adversarial_policies() {
        // Three agents map the ring, then run the paper-literal sweep
        // barrier. Completion without deadlock under every policy is the
        // barrier's liveness; the sign counts at every node witness that
        // everyone swept everything.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
        for policy in [Policy::Random, Policy::Lockstep, Policy::GreedyLowest] {
            let mk = || -> GatedAgent {
                Box::new(|ctx| {
                    poll_now(async move {
                        let mut actx = SyncCtx(ctx);
                        let map = map_drawing_async(&mut actx).await?;
                        let mut cr = Courier::new(&mut actx, map);
                        cr.goto(0).await?;
                        cr.barrier_sweep(3, SignKind::Sync, &[77]).await?;
                        Ok(AgentOutcome::Defeated)
                    })
                })
            };
            let cfg = RunConfig {
                policy,
                ..RunConfig::default()
            };
            let report = run_gated(&bc, cfg, vec![mk(), mk(), mk()]);
            assert!(
                report.interrupted.is_none(),
                "{policy:?}: {:?}",
                report.outcomes
            );
            // Each agent swept all 6 nodes: ≥ 18 sync posts happened and
            // every sweep is bounded by 2(n−1) + routing moves.
            assert!(report.metrics.total_moves() >= 3 * 5);
        }
    }

    #[test]
    fn barrier_styles_have_different_costs() {
        // The ablation's kernel: visit-based barriers cost O(|X|·diam)
        // moves, sweep-based ones O(n) — measure both on one instance.
        let bc = Bicolored::new(families::cycle(8).unwrap(), &[0, 2, 5]).unwrap();
        let run = |sweep: bool| -> u64 {
            let mk = move || -> GatedAgent {
                Box::new(move |ctx| {
                    poll_now(async move {
                        let mut actx = SyncCtx(ctx);
                        let map = map_drawing_async(&mut actx).await?;
                        let homes: Vec<usize> = map.homebases().iter().map(|&(v, _)| v).collect();
                        let mut cr = Courier::new(&mut actx, map);
                        cr.goto(0).await?;
                        if sweep {
                            cr.barrier_sweep(3, SignKind::Sync, &[5]).await?;
                        } else {
                            cr.post(SignKind::Sync, vec![5]).await?;
                            cr.barrier_visit(&homes, SignKind::Sync, &[5]).await?;
                        }
                        Ok(AgentOutcome::Defeated)
                    })
                })
            };
            let report = run_gated(&bc, RunConfig::default(), vec![mk(), mk(), mk()]);
            assert!(report.interrupted.is_none(), "{:?}", report.outcomes);
            report.metrics.total_moves()
        };
        let visit_moves = run(false);
        let sweep_moves = run(true);
        // Both complete; with 3 agents on C8 the costs differ (the exact
        // ordering depends on diam vs n — what matters is both are
        // measured and finite).
        assert!(visit_moves > 0 && sweep_moves > 0);
        assert_ne!(visit_moves, sweep_moves);
    }

    #[test]
    fn replay_matches_direct_simulation() {
        use crate::schedule::agent_rounds;
        // 3 searchers vs 7 waiting: rounds (3,7)→(3,4)→swap(1,3)… check
        // replay against a hand-rolled forward simulation where matches
        // are "the first |S| waiting homes".
        let s0: Vec<usize> = vec![100, 101, 102];
        let w0: Vec<usize> = (0..7).collect();
        let rounds = agent_rounds(3, 7);
        // Synthetic match record: in round t, the first s homes of the
        // current W get matched. Build it by simulating forward.
        let mut record: Vec<(usize, u64)> = Vec::new();
        {
            let (mut s, mut w) = (s0.clone(), w0.clone());
            for (t, round) in rounds.iter().enumerate() {
                let p: Vec<usize> = w.iter().copied().take(round.s).collect();
                for &h in &p {
                    record.push((h, t as u64));
                }
                let rest: Vec<usize> = w.iter().copied().filter(|h| !p.contains(h)).collect();
                if round.swap {
                    let old_s = std::mem::replace(&mut s, rest);
                    w = old_s;
                } else {
                    w = rest;
                }
                s.sort_unstable();
                w.sort_unstable();
            }
            assert_eq!(s.len(), w.len());
            assert_eq!(s.len(), 1); // gcd(3,7) = 1
        }
        // Replay to every prefix and sanity-check sizes against the
        // schedule.
        for (t, round) in rounds.iter().enumerate() {
            let (s, w) = replay_sets(
                &rounds,
                s0.clone(),
                w0.clone(),
                |h, r| record.contains(&(h, r)),
                t,
            );
            assert_eq!(s.len(), round.s, "round {t}");
            assert_eq!(w.len(), round.w, "round {t}");
        }
    }

    /// Edge-case instances end to end: single-class and all-equal-size
    /// placements, gcd 1 vs gcd > 1 — the reduce phases the agents
    /// actually run (computed from the *cached* class path) must agree
    /// with the pure schedule and with the gcd oracle.
    #[test]
    fn reduce_edge_case_instances_end_to_end() {
        use crate::elect::{elect_agents, ElectFault};
        use crate::solvability::{elect_succeeds, gcd_of_class_sizes};
        use qelect_graph::cache::ordered_classes_cached;

        let cases: &[(usize, &[usize], usize)] = &[
            // (cycle length, home-bases, expected gcd)
            (4, &[0, 1, 2, 3], 4), // every node black: one class of size 4
            (5, &[0], 1),          // single agent: singleton class, elects
            (6, &[0, 2, 4], 3),    // all classes size 3 (blacks, whites)
            (6, &[0, 3], 2),       // all classes even: antipodal failure
            (6, &[0, 2, 3], 1),    // gcd 1: a clean election
        ];
        for &(n, homes, g) in cases {
            let bc = Bicolored::new(families::cycle(n).unwrap(), homes).unwrap();
            assert_eq!(gcd_of_class_sizes(&bc), g, "C{n} {homes:?}");

            // The schedule the agents will derive, via the cached path.
            let oc = ordered_classes_cached(&bc);
            let sizes: Vec<usize> = oc.classes.iter().map(|c| c.nodes.len()).collect();
            let schedule = crate::schedule::Schedule::from_class_sizes(&sizes, oc.ell);
            assert_eq!(schedule.final_d, g, "C{n} {homes:?}");
            assert_eq!(schedule.elects(), g == 1);

            let report = run_gated(
                &bc,
                RunConfig::default(),
                elect_agents(bc.r(), ElectFault::default()),
            );
            assert!(report.interrupted.is_none(), "C{n} {homes:?}");
            assert_eq!(report.clean_election(), g == 1, "C{n} {homes:?}");
            assert_eq!(report.unanimous_unsolvable(), g != 1, "C{n} {homes:?}");
            assert_eq!(elect_succeeds(&bc), g == 1);
        }
    }
}
