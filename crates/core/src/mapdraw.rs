//! MAP-DRAWING: the initial phase of Protocol ELECT.
//!
//! "An initial phase allows each agent placed by p in a network G to draw
//! a map of G, including the positions and the colors of the home-bases.
//! For that purpose, marking the whiteboards, each agent performs a DFS
//! traversal of G." (§3.2)
//!
//! The DFS uses the agent's own colored `Visited` signs (payload: the
//! agent's private node number) to recognize nodes it has seen; the
//! **distinctness** of colors is what makes this possible — the paper
//! notes the task is impossible without it, and the executable
//! counterexample lives in [`crate::anonymous`]. Concurrent agents do not
//! interfere: each reads only its own marks (plus the pre-placed
//! `HomeBase` signs, whose colors it records on its map).
//!
//! Cost: each edge is traversed at most 4 times (out-and-bounce from both
//! sides), so one agent spends `O(|E|)` moves and accesses — `O(r·|E|)`
//! in total, the map-drawing share of Theorem 3.1's bound.

use crate::map::AgentMap;
use qelect_agentsim::{Interrupt, LocalPort, MobileCtxAsync, Sign, SignKind};

/// Walk the whole graph by whiteboard DFS and return the completed map.
/// The agent ends back at its home-base (map node 0).
///
/// The traversal is wrapped in a `"map-drawing"` [`PhaseSpan`]
/// (`MobileCtxAsync::span_open`), so phase-resolved reports attribute
/// the DFS cost separately from the reduction phases.
///
/// [`PhaseSpan`]: qelect_agentsim::PhaseSpan
pub async fn map_drawing_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentMap, Interrupt> {
    ctx.span_open("map-drawing");
    let map = map_drawing_inner(ctx).await;
    ctx.span_close("map-drawing");
    map
}

/// `Visited` payload for the agent's private node number in a given
/// incarnation epoch: epoch 0 keeps the original one-word form, later
/// epochs append the epoch so a restarted agent's fresh DFS never
/// confuses its own stale pre-crash marks for current ones.
fn visited_payload(node: u64, epoch: u64) -> Vec<u64> {
    if epoch == 0 {
        vec![node]
    } else {
        vec![node, epoch]
    }
}

/// The epoch a `Visited` payload was written in (see [`visited_payload`]).
fn payload_epoch(payload: &[u64]) -> u64 {
    if payload.len() >= 2 {
        payload[1]
    } else {
        0
    }
}

async fn map_drawing_inner<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentMap, Interrupt> {
    let me = ctx.color();
    // After a crash-restart the private node numbers in pre-crash marks
    // are meaningless (the map they indexed was volatile), so each
    // incarnation marks in its own epoch and reads back only that epoch.
    let epoch = ctx.incarnation();
    let mut map = AgentMap::new();
    let root = map.add_node(ctx.degree());

    // Mark the root and record the resident (our own home-base sign).
    let hb_colors = ctx
        .with_board(move |wb| {
            wb.post(Sign::with_payload(
                me,
                SignKind::Visited,
                visited_payload(root as u64, epoch),
            ));
            wb.all_of_kind(SignKind::HomeBase)
                .map(|s| s.color)
                .collect::<Vec<_>>()
        })
        .await?;
    for c in hb_colors {
        map.record_homebase(root, c);
    }

    // DFS state: the retreat port of each discovered node (toward its
    // DFS parent), `None` for the root.
    let mut retreat: Vec<Option<LocalPort>> = vec![None];
    let mut current = root;

    loop {
        if let Some(p) = map.unexplored_port(current) {
            ctx.move_via(p).await?;
            let entry = ctx.entry().expect("entry is set after a move");
            let degree = ctx.degree();
            let candidate = map.n() as u64;
            // Atomically: am I new here? If so claim the candidate id.
            let (known, hb_colors) = ctx
                .with_board(move |wb| {
                    let known = wb
                        .signs()
                        .iter()
                        .find(|s| {
                            s.kind == SignKind::Visited
                                && s.color == me
                                && payload_epoch(&s.payload) == epoch
                        })
                        .and_then(|s| s.word());
                    if known.is_none() {
                        wb.post(Sign::with_payload(
                            me,
                            SignKind::Visited,
                            visited_payload(candidate, epoch),
                        ));
                    }
                    let hb: Vec<_> = wb
                        .all_of_kind(SignKind::HomeBase)
                        .map(|s| s.color)
                        .collect();
                    (known, hb)
                })
                .await?;
            match known {
                Some(k) => {
                    // Already-charted node: record the edge and bounce back.
                    map.record_edge(current, p, k as usize, entry);
                    ctx.move_via(entry).await?;
                }
                None => {
                    // Fresh node: chart it and descend.
                    let id = map.add_node(degree);
                    debug_assert_eq!(id as u64, candidate);
                    map.record_edge(current, p, id, entry);
                    for c in hb_colors {
                        map.record_homebase(id, c);
                    }
                    retreat.push(Some(entry));
                    current = id;
                }
            }
        } else if let Some(back) = retreat[current] {
            // All ports explored here: retreat toward the parent.
            let parent = map.edge(current, back).expect("retreat edge charted").to;
            ctx.move_via(back).await?;
            current = parent;
        } else {
            // Back at the root with everything explored.
            debug_assert!(map.is_complete(), "DFS must chart every port");
            return Ok(map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::sim::{run_sim_faulty, RunConfig, RunReport};
    use qelect_agentsim::{AgentOutcome, FaultPlan, Protocol};
    use qelect_graph::canon::are_isomorphic;
    use qelect_graph::{families, Bicolored, ColoredDigraph};
    use std::sync::mpsc;

    fn run_sim<P: Protocol>(bc: &Bicolored, cfg: RunConfig, agents: Vec<P>) -> RunReport {
        run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
    }

    /// Draw the map, hand it to the collector as agent `i`'s.
    struct DrawMap {
        i: usize,
        tx: mpsc::Sender<(usize, AgentMap)>,
    }
    impl Protocol for DrawMap {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            let map = map_drawing_async(ctx).await?;
            self.tx.send((self.i, map)).expect("collector alive");
            Ok(AgentOutcome::Defeated)
        }
    }

    /// Run map drawing for every agent and return the maps.
    fn draw_all(bc: &Bicolored, seed: u64) -> Vec<AgentMap> {
        let (tx, rx) = mpsc::channel::<(usize, AgentMap)>();
        let agents: Vec<DrawMap> = (0..bc.r()).map(|i| DrawMap { i, tx: tx.clone() }).collect();
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let report = run_sim(bc, cfg, agents);
        assert!(report.interrupted.is_none(), "{:?}", report.outcomes);
        drop(tx);
        let mut maps: Vec<(usize, AgentMap)> = rx.into_iter().collect();
        maps.sort_by_key(|&(i, _)| i);
        maps.into_iter().map(|(_, m)| m).collect()
    }

    fn assert_map_matches(bc: &Bicolored, map: &AgentMap) {
        assert!(map.is_complete());
        assert_eq!(map.n(), bc.n(), "node count");
        assert_eq!(map.r(), bc.r(), "home-base count");
        let drawn = map.to_bicolored();
        assert_eq!(drawn.graph().m(), bc.graph().m(), "edge count");
        // The drawn graph must be isomorphic to the real one as a
        // bi-colored graph (ports differ: the agent sees its private
        // numbering).
        let a = ColoredDigraph::from_bicolored(&drawn);
        let b = ColoredDigraph::from_bicolored(bc);
        assert!(are_isomorphic(&a, &b), "map not isomorphic to network");
    }

    #[test]
    fn single_agent_maps_cycle() {
        let bc = Bicolored::new(families::cycle(7).unwrap(), &[3]).unwrap();
        let maps = draw_all(&bc, 1);
        assert_map_matches(&bc, &maps[0]);
    }

    #[test]
    fn single_agent_maps_petersen() {
        let bc = Bicolored::new(families::petersen().unwrap(), &[0]).unwrap();
        let maps = draw_all(&bc, 2);
        assert_map_matches(&bc, &maps[0]);
    }

    #[test]
    fn single_agent_maps_hypercube() {
        let bc = Bicolored::new(families::hypercube(4).unwrap(), &[5]).unwrap();
        let maps = draw_all(&bc, 3);
        assert_map_matches(&bc, &maps[0]);
    }

    #[test]
    fn concurrent_agents_all_map_correctly() {
        let bc = Bicolored::new(families::torus(&[3, 3]).unwrap(), &[0, 4, 7]).unwrap();
        for seed in [1, 2, 3] {
            for map in draw_all(&bc, seed) {
                assert_map_matches(&bc, &map);
            }
        }
    }

    #[test]
    fn agents_see_each_others_homebases() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let maps = draw_all(&bc, 9);
        for map in &maps {
            assert_eq!(map.r(), 2);
            // Each map's own home is node 0.
            assert!(map.color_at(0).is_some());
        }
        // The two agents record the same *set* of colors.
        let colors = |m: &AgentMap| {
            let mut v: Vec<u64> = m.homebases().iter().map(|&(_, c)| c.nonce()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(colors(&maps[0]), colors(&maps[1]));
    }

    #[test]
    fn maps_multigraph_with_loops() {
        let bc = Bicolored::new(families::fig2c_gadget().unwrap(), &[1]).unwrap();
        let maps = draw_all(&bc, 4);
        let map = &maps[0];
        assert!(map.is_complete());
        assert_eq!(map.n(), 3);
        assert_eq!(map.to_bicolored().graph().m(), 6);
    }

    #[test]
    fn map_drawing_cost_is_linear_in_edges() {
        let bc = Bicolored::new(families::hypercube(4).unwrap(), &[0]).unwrap();
        let (tx, _rx) = mpsc::channel();
        let report = run_sim(&bc, RunConfig::default(), vec![DrawMap { i: 0, tx }]);
        let m = bc.graph().m() as u64;
        assert!(
            report.metrics.total_moves() <= 4 * m,
            "DFS moves {} exceed 4·|E| = {}",
            report.metrics.total_moves(),
            4 * m
        );
    }
}
