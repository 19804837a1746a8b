//! Agents as explicit state machines.
//!
//! The Fig. 1 transformation of the paper turns a mobile-agent protocol
//! into a message-passing protocol by shipping "the program and the
//! memory content of the agent" as a message. That requires the agent to
//! be a *value* — an explicit state machine, not a thread with a stack.
//! [`StepAgent`] is that representation: one activation reads/writes the
//! local whiteboard atomically and decides to move, stay (park until the
//! node sees traffic), or finish.
//!
//! [`drive`] runs a `StepAgent` on any [`MobileCtxAsync`] context, so
//! the same machine executes both natively (mobile runtime) and
//! transformed ([`crate::message_net`]); the integration suite checks
//! the outcomes coincide — an executable reading of Fig. 1.

use crate::color::Color;
use crate::ctx::{AgentOutcome, Interrupt, LocalPort, MobileCtxAsync};
use crate::whiteboard::Whiteboard;

/// What an activation decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepAction {
    /// Leave through the given local port.
    Move(LocalPort),
    /// Park at this node until its whiteboard changes.
    Stay,
    /// Terminate with an outcome.
    Finish(AgentOutcome),
}

/// The local environment of one activation.
pub struct StepEnv<'a> {
    /// The agent's color.
    pub color: Color,
    /// Degree of the current node.
    pub degree: usize,
    /// Port of entry (`None` on the first activation at the home-base).
    pub entry: Option<LocalPort>,
    /// The whiteboard, held under mutual exclusion for the whole
    /// activation.
    pub board: &'a mut Whiteboard,
}

/// A mobile agent as a state machine.
pub trait StepAgent {
    /// One activation at the current node.
    fn step(&mut self, env: &mut StepEnv<'_>) -> StepAction;
}

/// Drive a [`StepAgent`] on a [`MobileCtxAsync`] context until it
/// finishes.
pub async fn drive<C: MobileCtxAsync>(
    agent: &mut dyn StepAgent,
    ctx: &mut C,
) -> Result<AgentOutcome, Interrupt> {
    loop {
        let degree = ctx.degree();
        let entry = ctx.entry();
        let color = ctx.color();
        let (action, version) = ctx
            .with_board(|wb| {
                let mut env = StepEnv {
                    color,
                    degree,
                    entry,
                    board: wb,
                };
                let action = agent.step(&mut env);
                (action, wb.version())
            })
            .await?;
        match action {
            StepAction::Move(p) => ctx.move_via(p).await?,
            StepAction::Stay => ctx.wait_until(move |wb| wb.version() > version).await?,
            StepAction::Finish(outcome) => return Ok(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Protocol;
    use crate::sign::{Sign, SignKind};
    use crate::sim::{run_sim_faulty, RunConfig};
    use crate::FaultPlan;
    use qelect_graph::{families, Bicolored};

    /// Walks `budget` hops always through local port 0, then finishes.
    struct Walker {
        budget: usize,
    }

    impl StepAgent for Walker {
        fn step(&mut self, env: &mut StepEnv<'_>) -> StepAction {
            env.board.post(Sign::tag(env.color, SignKind::Visited));
            if self.budget == 0 {
                return StepAction::Finish(AgentOutcome::Defeated);
            }
            self.budget -= 1;
            StepAction::Move(LocalPort(0))
        }
    }

    /// The test machines as agent programs, each driving a fresh
    /// machine per invocation.
    enum Program {
        Walker,
        Sleeper,
        Announcer,
    }

    impl Protocol for Program {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            match self {
                Program::Walker => drive(&mut Walker { budget: 7 }, ctx).await,
                Program::Sleeper => drive(&mut Sleeper, ctx).await,
                Program::Announcer => drive(&mut Announcer { remaining: 4 }, ctx).await,
            }
        }
    }

    #[test]
    fn walker_on_sim_engine() {
        let bc = Bicolored::new(families::cycle(5).unwrap(), &[0]).unwrap();
        let report = run_sim_faulty(
            &bc,
            RunConfig::default(),
            &FaultPlan::none(),
            vec![Program::Walker],
        )
        .expect("sim run failed");
        assert_eq!(report.outcomes, vec![AgentOutcome::Defeated]);
        assert_eq!(report.metrics.total_moves(), 7);
    }

    /// Parks until it sees a Leader sign; a companion posts it.
    struct Sleeper;
    impl StepAgent for Sleeper {
        fn step(&mut self, env: &mut StepEnv<'_>) -> StepAction {
            if env.board.find_kind(SignKind::Leader).is_some() {
                StepAction::Finish(AgentOutcome::Defeated)
            } else {
                StepAction::Stay
            }
        }
    }

    /// Walks around the ring (never back through the entry port) posting
    /// Leader signs everywhere.
    struct Announcer {
        remaining: usize,
    }
    impl StepAgent for Announcer {
        fn step(&mut self, env: &mut StepEnv<'_>) -> StepAction {
            if env.board.find_kind(SignKind::Leader).is_none() {
                let c = env.color;
                env.board.post(Sign::tag(c, SignKind::Leader));
            }
            if self.remaining == 0 {
                return StepAction::Finish(AgentOutcome::Leader);
            }
            self.remaining -= 1;
            let fwd = (0..env.degree as u32)
                .map(LocalPort)
                .find(|&p| Some(p) != env.entry)
                .expect("degree 2");
            StepAction::Move(fwd)
        }
    }

    #[test]
    fn stay_parks_until_board_changes() {
        let bc = Bicolored::new(families::cycle(4).unwrap(), &[0, 2]).unwrap();
        let report = run_sim_faulty(
            &bc,
            RunConfig::default(),
            &FaultPlan::none(),
            vec![Program::Sleeper, Program::Announcer],
        )
        .expect("sim run failed");
        assert!(report.clean_election(), "{:?}", report.outcomes);
    }
}
