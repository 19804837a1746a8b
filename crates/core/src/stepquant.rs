//! The quantitative universal protocol as a state machine — the agent
//! value shipped by the Fig. 1 transformation.
//!
//! [`QuantMachine`] re-implements [`crate::quantitative`]'s protocol
//! (whiteboard DFS collecting every home-base label; maximum label wins)
//! as a [`StepAgent`]: one
//! whiteboard access per activation, explicit state in fields. The same
//! value therefore runs
//!
//! * natively on the mobile-agent engine via
//!   [`qelect_agentsim::stepagent::drive`] ([`QuantMachineProtocol`]), and
//! * as a **message** on the anonymous processor network of
//!   [`qelect_agentsim::message_net::MessageNet`] — the paper's Fig. 1
//!   construction, where "a message is an agent `(P, M)`".
//!
//! The E3 experiment (and `tests/integration_transform.rs`) checks the
//! two executions elect the same agent on every instance.

use crate::map::AgentMap;
use qelect_agentsim::stepagent::{drive, StepAction, StepAgent, StepEnv};
use qelect_agentsim::{AgentOutcome, Interrupt, LocalPort, MobileCtxAsync, Protocol, SignKind};

/// The `Custom` kind carrying the quantitative label (payload `[id]`) —
/// shared with [`crate::quantitative::ID_SIGN`].
pub const ID_SIGN: SignKind = crate::quantitative::ID_SIGN;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// First activation at the home-base.
    Start,
    /// Activated right after moving out of `from` through `port`.
    Arrived { from: usize, port: LocalPort },
    /// Activated back at a charted node after a bounce or retreat.
    Resume { at: usize },
}

/// The DFS + collect + decide machine.
pub struct QuantMachine {
    /// My label.
    pub id: u64,
    map: AgentMap,
    /// Retreat port per map node (`None` for the root).
    retreat: Vec<Option<LocalPort>>,
    labels: Vec<u64>,
    mode: Mode,
}

impl QuantMachine {
    /// A fresh machine with the given label.
    pub fn new(id: u64) -> QuantMachine {
        QuantMachine {
            id,
            map: AgentMap::new(),
            retreat: Vec::new(),
            labels: Vec::new(),
            mode: Mode::Start,
        }
    }

    /// Continue DFS from `current`: explore the next port, retreat, or
    /// finish.
    fn advance(&mut self, current: usize) -> StepAction {
        if let Some(p) = self.map.unexplored_port(current) {
            self.mode = Mode::Arrived {
                from: current,
                port: p,
            };
            StepAction::Move(p)
        } else if let Some(back) = self.retreat[current] {
            let parent = self.map.edge(current, back).expect("charted").to;
            self.mode = Mode::Resume { at: parent };
            StepAction::Move(back)
        } else {
            // DFS complete at the root: decide.
            debug_assert!(self.map.is_complete());
            debug_assert_eq!(self.labels.len(), self.map.r());
            let max = *self.labels.iter().max().expect("r >= 1");
            StepAction::Finish(if max == self.id {
                AgentOutcome::Leader
            } else {
                AgentOutcome::Defeated
            })
        }
    }

    /// At a home-base: its resident's label, if already posted.
    fn read_label(env: &StepEnv<'_>) -> Option<u64> {
        env.board
            .signs()
            .iter()
            .find(|s| s.kind == ID_SIGN)
            .and_then(|s| s.word())
    }
}

impl StepAgent for QuantMachine {
    fn step(&mut self, env: &mut StepEnv<'_>) -> StepAction {
        match self.mode {
            Mode::Start => {
                // Publish my label, chart the root, begin DFS.
                let me = env.color;
                env.board.post(qelect_agentsim::Sign::with_payload(
                    me,
                    ID_SIGN,
                    vec![self.id],
                ));
                let root = self.map.add_node(env.degree);
                self.retreat.push(None);
                // The root is my own home-base; my own label is on it.
                self.map.record_homebase(root, me);
                self.labels.push(self.id);
                env.board.post(qelect_agentsim::Sign::with_payload(
                    me,
                    SignKind::Visited,
                    vec![root as u64],
                ));
                self.advance(root)
            }
            Mode::Arrived { from, port } => {
                let me = env.color;
                let entry = env.entry.expect("just moved");
                let known = env
                    .board
                    .signs()
                    .iter()
                    .find(|s| s.kind == SignKind::Visited && s.color == me)
                    .and_then(|s| s.word());
                match known {
                    Some(k) => {
                        // Charted node: record the edge and bounce back.
                        self.map.record_edge(from, port, k as usize, entry);
                        self.mode = Mode::Resume { at: from };
                        StepAction::Move(entry)
                    }
                    None => {
                        // A home-base whose resident has not yet posted
                        // its label: park until the board changes.
                        let is_home = env.board.find_kind(SignKind::HomeBase).is_some();
                        let label = Self::read_label(env);
                        if is_home && label.is_none() {
                            // Stay *without* charting: we re-run this
                            // arrival when the resident posts.
                            return StepAction::Stay;
                        }
                        let id = self.map.add_node(env.degree);
                        self.retreat.push(Some(entry));
                        self.map.record_edge(from, port, id, entry);
                        if let Some(l) = label {
                            let hb = env
                                .board
                                .find_kind(SignKind::HomeBase)
                                .expect("label implies home-base")
                                .color;
                            self.map.record_homebase(id, hb);
                            self.labels.push(l);
                        }
                        env.board.post(qelect_agentsim::Sign::with_payload(
                            me,
                            SignKind::Visited,
                            vec![id as u64],
                        ));
                        self.advance(id)
                    }
                }
            }
            Mode::Resume { at } => self.advance(at),
        }
    }
}

/// A fresh [`QuantMachine`] driven natively on the mobile runtime, by
/// the agent labeled `id` (a restarted agent starts a new machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantMachineProtocol {
    /// The agent's label.
    pub id: u64,
}

impl Protocol for QuantMachineProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        drive(&mut QuantMachine::new(self.id), ctx).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::message_net::MessageNet;
    use qelect_agentsim::{run_each, RunConfig};
    use qelect_graph::{families, Bicolored};

    fn native_leader(bc: &Bicolored, ids: &[u64], seed: u64) -> Option<usize> {
        let agents = ids.iter().map(|&id| QuantMachineProtocol { id }).collect();
        let report = run_each(bc, &RunConfig::new(seed), agents)
            .expect("sim run failed")
            .report;
        assert!(report.clean_election(), "{:?}", report.outcomes);
        report.leader
    }

    fn transformed_leader(bc: &Bicolored, ids: &[u64], seed: u64) -> Option<usize> {
        let net = MessageNet::new(bc.clone(), seed);
        let agents: Vec<Box<dyn StepAgent>> = ids
            .iter()
            .map(|&id| -> Box<dyn StepAgent> { Box::new(QuantMachine::new(id)) })
            .collect();
        let report = net.run(agents);
        assert!(report.clean_election(), "{:?}", report.outcomes);
        assert!(!report.deadlocked);
        report.leader
    }

    #[test]
    fn machine_elects_max_natively() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 4]).unwrap();
        assert_eq!(native_leader(&bc, &[10, 99, 55], 1), Some(1));
    }

    #[test]
    fn transformation_preserves_the_leader() {
        let cases: Vec<(Bicolored, Vec<u64>)> = vec![
            (
                Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap(),
                vec![7, 3],
            ),
            (
                Bicolored::new(families::hypercube(3).unwrap(), &[0, 5, 7]).unwrap(),
                vec![2, 40, 11],
            ),
            (
                Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap(),
                vec![5, 6],
            ),
        ];
        for (bc, ids) in cases {
            let expected = ids
                .iter()
                .enumerate()
                .max_by_key(|&(_, v)| v)
                .map(|(i, _)| i);
            for seed in 0..3 {
                assert_eq!(native_leader(&bc, &ids, seed), expected);
                assert_eq!(transformed_leader(&bc, &ids, seed), expected);
            }
        }
    }
}
