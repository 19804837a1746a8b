//! The single-threaded discrete-event engine — the one engine every
//! protocol runs on.
//!
//! Protocols are written once against [`crate::MobileCtxAsync`] as
//! blocking-style `async` bodies. The compiler's `async` transform turns
//! each body into a resumable state machine, so one OS thread
//! interleaves thousands of agents deterministically, over virtual time,
//! with no per-step thread handoff.
//!
//! # Event model
//!
//! Each agent is a future parked at a gate. A gate announcement is the
//! engine's event: on its first poll the gate parks its agent with the
//! kernel's grant state; the scheduler's verdict (a tick, or an abort)
//! comes back through the agent's mailbox. Everything between the gates
//! — the world, the primitives, the fault gate, the grant decision and
//! the report — is the scheduler kernel's, and virtual time is the grant
//! counter, so:
//!
//! * **fault plans address by operation** — [`crate::fault`] counts
//!   whiteboard-access boundaries, which an agent crosses at the same
//!   operation indices under every schedule;
//! * **traces replay byte-identically** — the grant sequence and the
//!   per-primitive event log (`qelect-trace/1`) are a pure function of
//!   `(instance, protocol, policy, seed, plan)`, which is what lets
//!   [`crate::sched::ReplayScheduler`] replay a recording.
//!
//! # Why polling in index order is sound
//!
//! Between grants several agents may be running: after an abort, or
//! before their first gate. The only code that runs there is (a) the
//! pre-first-gate prefix of each agent and (b) post-abort unwinding, and
//! both only touch per-agent state (spans, outcome) or commute (panic
//! capture); every ordered effect on shared state (boards, events,
//! checkpoints) happens strictly *after* a grant, while exactly one
//! agent is active. The order in which those agents are polled therefore
//! cannot reach the shared-state sequence, and polling them in index
//! order fixes it deterministically. See DESIGN.md §12.

use crate::ctx::{AgentOutcome, Interrupt, MobileCtxAsync};
use crate::fault::FaultPlan;
use crate::kernel::{drive, Agent, Core, Grants, World};
pub use crate::kernel::{RunConfig, RunReport};
use crate::run::{Protocol, RunError};
use crate::sched::Scheduler;
use crate::sign::SignKind;
use qelect_graph::Bicolored;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One agent's whole life as a pollable state machine.
type Task<'a> = Pin<Box<dyn Future<Output = AgentOutcome> + 'a>>;

/// Run an election under a fault plan with a policy-built scheduler.
/// Agent `i` runs `agents[i]` from the `i`-th home-base.
pub fn run_sim_faulty<P: Protocol>(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    agents: Vec<P>,
) -> Result<RunReport, RunError> {
    let mut scheduler = cfg.policy.build(cfg.seed);
    try_run_sim_with(bc, cfg, faults, agents, scheduler.as_mut())
}

/// Run with the paper's wake-up semantics: only the agents listed in
/// `awake` start spontaneously; every other agent sleeps at its
/// home-base until some other agent writes on its whiteboard ("during
/// its traversal, if an agent meets a sleeping agent, then it wakes up
/// this agent" — a MAP-DRAWING `Visited` mark does exactly that).
///
/// `awake` must be non-empty (someone has to start).
pub fn run_staggered<P: Protocol>(
    bc: &Bicolored,
    cfg: RunConfig,
    agents: Vec<P>,
    awake: &[usize],
) -> Result<RunReport, RunError> {
    assert!(
        !awake.is_empty(),
        "at least one agent must wake spontaneously"
    );
    let agents = agents
        .into_iter()
        .enumerate()
        .map(|(i, program)| Staggered {
            asleep: !awake.contains(&i),
            program,
        })
        .collect();
    run_sim_faulty(bc, cfg, &FaultPlan::none(), agents)
}

/// A program that, when `asleep`, first waits for a sign other than the
/// pre-placed `HomeBase` mark on its home whiteboard.
struct Staggered<P> {
    asleep: bool,
    program: P,
}

impl<P: Protocol> Protocol for Staggered<P> {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        if self.asleep {
            ctx.wait_until(|wb| wb.signs().iter().any(|s| s.kind != SignKind::HomeBase))
                .await?;
        }
        self.program.run_async(ctx).await
    }
}

/// The full-featured entry point: caller-supplied scheduler, fault plan,
/// typed errors. One agent per home-base: agent `i` runs `agents[i]`,
/// starting at the `i`-th home-base (in sorted order) with a fresh
/// color; home-bases are pre-marked with a [`SignKind::HomeBase`] sign
/// of the resident's color, as the model prescribes.
///
/// Protocol-level interrupts (deadlock, step budget, exhausted restart
/// budgets) are *not* errors — they come back inside the report; `Err`
/// means the run lost integrity (an agent panicked, or an agent
/// suspended on something that is not a gate).
pub fn try_run_sim_with<P: Protocol>(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    agents: Vec<P>,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    let r = bc.r();
    assert_eq!(
        agents.len(),
        r,
        "one agent program per home-base ({} programs, {} home-bases)",
        agents.len(),
        r
    );
    let core = Rc::new(RefCell::new(Core {
        world: World::new(bc, &cfg),
        grants: Grants::new(r, &cfg),
        verdicts: vec![None; r],
    }));

    // One state machine per agent: the kernel's invoke-and-restart loop
    // around the protocol body.
    let mut tasks: Vec<Option<Task<'_>>> = agents
        .into_iter()
        .enumerate()
        .map(|(i, program)| {
            let mut agent = core.borrow().world.agent(i, Rc::clone(&core), faults);
            let task: Task<'_> = Box::pin(async move {
                let attempt = async |a: &mut Agent| program.run_async(a).await;
                drive(&mut agent, attempt).await
            });
            Some(task)
        })
        .collect();

    let mut cx = Context::from_waker(Waker::noop());
    let mut run_error: Option<RunError> = None;
    'sched: while core.borrow().grants.live() > 0 {
        // Every live agent parks (or finishes) before the next decision:
        // poll the running agents in index order — each poll runs that
        // agent's current segment synchronously to its next gate.
        for (i, slot) in tasks.iter_mut().enumerate() {
            if !core.borrow().grants.running(i) {
                continue;
            }
            let task = slot.as_mut().expect("running agent has a live task");
            match task.as_mut().poll(&mut cx) {
                Poll::Ready(outcome) => {
                    *slot = None;
                    core.borrow_mut().grants.finish(i, outcome);
                }
                Poll::Pending if core.borrow().grants.running(i) => {
                    // Pending without a park: the agent awaited something
                    // that is not a gate.
                    run_error = Some(RunError::ChannelDisconnected {
                        stage: "awaiting agent park",
                    });
                    break 'sched;
                }
                Poll::Pending => {}
            }
        }
        let mut core = core.borrow_mut();
        let Core {
            world,
            grants,
            verdicts,
        } = &mut *core;
        if grants.live() > 0 {
            let verdict = grants.decide(world, scheduler);
            grants.deliver(verdict, |agent, verdict| verdicts[agent] = Some(verdict));
        }
    }

    // Dropping the tasks cancels agents still parked (the break path)
    // and releases their handles on the core.
    drop(tasks);
    let Core { world, grants, .. } = Rc::into_inner(core)
        .expect("every agent task was dropped")
        .into_inner();
    grants.report(world, scheduler.name(), run_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Color;
    use crate::ctx::LocalPort;
    use crate::fault::{FaultAction, FaultEvent, RecoveryPolicy};
    use crate::run::{run, RunConfig as UnifiedConfig};
    use crate::sched::{Policy, ReplayScheduler};
    use crate::sign::Sign;
    use qelect_graph::families;
    use std::sync::{Arc, Mutex};

    fn instance(n: usize, hbs: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), hbs).unwrap()
    }

    fn run_on<P: Protocol + Clone>(bc: &Bicolored, cfg: UnifiedConfig, p: &P) -> RunReport {
        run(bc, &cfg, p)
            .unwrap_or_else(|e| panic!("run failed: {e}"))
            .report
    }

    /// Claim leadership iff my own HomeBase sign is on my board.
    #[derive(Clone)]
    struct ClaimHome;
    impl Protocol for ClaimHome {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            let me = ctx.color();
            let board = ctx.read_board().await?;
            Ok(
                if board
                    .iter()
                    .any(|s| s.kind == SignKind::HomeBase && s.color == me)
                {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                },
            )
        }
    }

    /// Walk `hops` times through local port 0, posting a Visited sign
    /// after each move.
    #[derive(Clone)]
    struct Walker {
        hops: usize,
    }
    impl Protocol for Walker {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            for _ in 0..self.hops {
                ctx.move_via(LocalPort(0)).await?;
                ctx.with_board(|wb| {
                    wb.post(Sign::tag(Color::from_nonce(0), SignKind::Visited));
                })
                .await?;
            }
            Ok(AgentOutcome::Defeated)
        }
    }

    #[test]
    fn single_agent_trivial_protocol() {
        let bc = instance(5, &[2]);
        let report = run_on(&bc, UnifiedConfig::new(0), &ClaimHome);
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.leader, Some(0));
        assert!(report.clean_election());
    }

    #[test]
    fn homebase_signs_are_premarked() {
        let bc = instance(5, &[0, 2]);
        let report = run_on(&bc, UnifiedConfig::new(0), &ClaimHome);
        // Both see their own home-base sign → both claim Leader.
        assert_eq!(
            report.outcomes,
            vec![AgentOutcome::Leader, AgentOutcome::Leader]
        );
        assert_eq!(report.leader, None, "two leaders is not a clean election");
    }

    #[test]
    fn deadlock_is_detected() {
        /// Wait for a sign nobody ever writes.
        #[derive(Clone)]
        struct Godot;
        impl Protocol for Godot {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                ctx.wait_until(|wb| wb.find_kind(SignKind::Leader).is_some())
                    .await?;
                Ok(AgentOutcome::Leader)
            }
        }
        let bc = instance(4, &[0, 2]);
        let report = run_on(&bc, UnifiedConfig::new(0), &Godot);
        assert_eq!(report.interrupted, Some(Interrupt::Deadlock));
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == AgentOutcome::Interrupted(Interrupt::Deadlock)));
    }

    #[test]
    fn step_limit_interrupts_livelock() {
        #[derive(Clone)]
        struct Forever;
        impl Protocol for Forever {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                loop {
                    ctx.move_via(LocalPort(0)).await?;
                }
            }
        }
        let bc = instance(4, &[0]);
        let report = run_on(&bc, UnifiedConfig::new(0).max_steps(100), &Forever);
        assert_eq!(report.interrupted, Some(Interrupt::StepLimit));
        assert_eq!(report.metrics.steps, 101);
    }

    #[test]
    fn wait_wakes_on_board_change() {
        // Both agents walk to the unmarked shared node of C3; whiteboard
        // arbitration there picks a winner. The loser parks in
        // wait_until; the winner wanders a hop and comes back to post
        // the wake sign — a genuine park-then-wake.
        #[derive(Clone)]
        struct WaitOrWake;
        impl Protocol for WaitOrWake {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                // Walk forward (never back through the entry port) to
                // the node with no HomeBase sign.
                loop {
                    let board = ctx.read_board().await?;
                    if !board.iter().any(|s| s.kind == SignKind::HomeBase) {
                        break;
                    }
                    let entry = ctx.entry();
                    let fwd = ctx
                        .ports()
                        .into_iter()
                        .find(|&p| Some(p) != entry)
                        .expect("degree 2");
                    ctx.move_via(fwd).await?;
                }
                let won = ctx
                    .with_board(|wb| {
                        if wb.find_kind(SignKind::Custom(9)).is_none() {
                            wb.post(Sign::tag(Color::from_nonce(0), SignKind::Custom(9)));
                            true
                        } else {
                            false
                        }
                    })
                    .await?;
                if won {
                    let out = ctx.entry().expect("arrived through a port");
                    ctx.move_via(out).await?;
                    let back = ctx.entry().expect("entry set after move");
                    ctx.move_via(back).await?;
                    ctx.with_board(|wb| {
                        wb.post(Sign::tag(Color::from_nonce(1), SignKind::Custom(7)))
                    })
                    .await?;
                    Ok(AgentOutcome::Leader)
                } else {
                    ctx.wait_until(|wb| wb.find_kind(SignKind::Custom(7)).is_some())
                        .await?;
                    Ok(AgentOutcome::Defeated)
                }
            }
        }
        let bc = instance(3, &[0, 1]);
        for seed in 0..5 {
            let report = run_on(&bc, UnifiedConfig::new(seed), &WaitOrWake);
            assert!(
                report.clean_election(),
                "seed {seed}: {:?}",
                report.outcomes
            );
            assert!(report.metrics.total_waits() >= 1);
        }
    }

    #[test]
    fn deterministic_given_seed_and_policy() {
        let bc = instance(6, &[0, 3]);
        let walker = Walker { hops: 10 };
        let run_once = |seed| {
            let cfg = UnifiedConfig::new(seed).record_trace(true);
            let rep = run_on(&bc, cfg, &walker);
            (rep.metrics.per_agent.clone(), rep.trace, rep.events)
        };
        assert_eq!(run_once(11), run_once(11));
        // Different seeds may interleave differently, but the totals
        // of this fixed-work protocol are stable.
        assert_eq!(run_once(11).0, run_once(12).0);
    }

    #[test]
    fn panic_inside_a_board_access_is_a_typed_error() {
        // The closure runs while the agent borrows the world; unwinding
        // must release the borrow, so the panic is recorded and every
        // other agent still runs to the end.
        #[derive(Clone)]
        struct PanicsInAccess;
        impl Protocol for PanicsInAccess {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                ctx.with_board(|_| panic!("board access panic")).await?;
                Ok(AgentOutcome::Leader)
            }
        }
        let bc = instance(4, &[0, 2]);
        let err =
            run(&bc, &UnifiedConfig::new(0), &PanicsInAccess).expect_err("the panic must surface");
        assert!(
            matches!(&err, RunError::AgentPanicked { message, .. } if message == "board access panic"),
            "{err:?}"
        );
    }

    #[test]
    fn invalid_local_port_is_a_typed_error() {
        // Ports are `0..degree`; one past the last is a protocol bug,
        // caught at the agent-program boundary like any other panic.
        #[derive(Clone)]
        struct PastTheLastPort;
        impl Protocol for PastTheLastPort {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                let degree = ctx.degree() as u32;
                ctx.move_via(LocalPort(degree)).await?;
                Ok(AgentOutcome::Leader)
            }
        }
        let bc = instance(4, &[0]);
        let err = run(&bc, &UnifiedConfig::new(0), &PastTheLastPort)
            .expect_err("the invalid port must surface");
        assert!(
            matches!(&err, RunError::AgentPanicked { agent: 0, message }
                if message == "agent 0 used invalid local port lp2"),
            "{err:?}"
        );
    }

    #[test]
    fn crash_restarts_at_home_with_volatile_state_lost() {
        // The program walks two hops, then posts a Visited sign wherever
        // it stands. A crash at op 2 (the second move) loses that move;
        // the restart re-runs from the home-base with entry() cleared.
        /// `(incarnation, entry port)` at each program entry.
        type Entries = Arc<Mutex<Vec<(u64, Option<LocalPort>)>>>;
        #[derive(Clone)]
        struct TwoHopsThenPost {
            seen: Entries,
        }
        impl Protocol for TwoHopsThenPost {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                self.seen
                    .lock()
                    .unwrap()
                    .push((ctx.incarnation(), ctx.entry()));
                ctx.move_via(LocalPort(0)).await?;
                ctx.move_via(LocalPort(0)).await?;
                ctx.with_board(|wb| wb.post(Sign::tag(Color::from_nonce(7), SignKind::Visited)))
                    .await?;
                Ok(AgentOutcome::Leader)
            }
        }
        let bc = instance(6, &[0]);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 2,
                action: FaultAction::Crash { restart_after: 1 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let program = TwoHopsThenPost {
            seen: Arc::default(),
        };
        let cfg = UnifiedConfig::new(0).faults(plan.clone());
        let report = run_on(&bc, cfg, &program);
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.metrics.faults.crashes, 1);
        assert_eq!(report.metrics.faults.restarts, 1);
        assert!(report.metrics.faults.backoff_ticks >= 1);
        assert_eq!(
            *program.seen.lock().unwrap(),
            vec![(0, None), (1, None)],
            "restart re-enters the program at home (entry cleared) with a bumped incarnation"
        );
        // The lost move means the restart walks the full two hops
        // again: 1 (pre-crash) + 2 (restart) = 3 moves.
        assert_eq!(report.metrics.total_moves(), 3);
    }

    fn run_sim<P: Protocol>(bc: &Bicolored, cfg: RunConfig, agents: Vec<P>) -> RunReport {
        run_sim_faulty(bc, cfg, &FaultPlan::none(), agents).expect("sim run failed")
    }

    /// Move `hops` times through local port 0.
    #[derive(Clone)]
    struct Hops(usize);
    impl Protocol for Hops {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            for _ in 0..self.0 {
                ctx.move_via(LocalPort(0)).await?;
            }
            Ok(AgentOutcome::Defeated)
        }
    }

    #[test]
    fn moves_are_counted_and_entry_ports_work() {
        /// Walk through local port 0 and immediately return through the
        /// entry port: we must be back at the home-base (its HomeBase
        /// sign of our color proves it).
        struct OutAndBack;
        impl Protocol for OutAndBack {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                assert_eq!(ctx.entry(), None);
                assert_eq!(ctx.degree(), 2);
                ctx.move_via(LocalPort(0)).await?;
                let back = ctx.entry().expect("entry set after move");
                ctx.move_via(back).await?;
                let board = ctx.read_board().await?;
                let home = board
                    .iter()
                    .any(|s| s.kind == SignKind::HomeBase && s.color == ctx.color());
                Ok(if home {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                })
            }
        }
        let bc = instance(6, &[0]);
        let report = run_sim(&bc, RunConfig::default(), vec![OutAndBack]);
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        assert_eq!(report.metrics.total_moves(), 2);
        assert_eq!(report.metrics.total_accesses(), 1);
    }

    #[test]
    fn with_board_is_atomic_arbitration() {
        /// On C3 the agents at 0 and 1 share the unmarked neighbor 2:
        /// walk there (never back through the entry port) and race to
        /// write the first Custom(1) sign.
        #[derive(Clone)]
        struct RaceToTheSharedNode;
        impl Protocol for RaceToTheSharedNode {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                for _ in 0..3 {
                    let board = ctx.read_board().await?;
                    if !board.iter().any(|s| s.kind == SignKind::HomeBase) {
                        break;
                    }
                    let entry = ctx.entry();
                    let fwd = ctx
                        .ports()
                        .into_iter()
                        .find(|&p| Some(p) != entry)
                        .expect("degree 2");
                    ctx.move_via(fwd).await?;
                }
                let won = ctx
                    .with_board(|wb| {
                        if wb.find_kind(SignKind::Custom(1)).is_none() {
                            wb.post(Sign::tag(Color::from_nonce(0), SignKind::Custom(1)));
                            true
                        } else {
                            false
                        }
                    })
                    .await?;
                Ok(if won {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                })
            }
        }
        let bc = instance(3, &[0, 1]);
        for seed in 0..5 {
            let cfg = RunConfig {
                seed,
                ..RunConfig::default()
            };
            let report = run_sim(&bc, cfg, vec![RaceToTheSharedNode; 2]);
            // Whatever the schedule, both reach node 2 and exactly one
            // agent wins.
            assert!(
                report.clean_election(),
                "seed {seed}: {:?}",
                report.outcomes
            );
        }
    }

    #[test]
    fn scrambled_ports_differ_between_agents_but_are_stable() {
        let bc = instance(6, &[0, 3]);
        let world = World::new(&bc, &RunConfig::default());
        let table = |agent, node| {
            let mut ports = Vec::new();
            world.port_table(agent, node, &mut ports);
            ports
        };
        let m0 = table(0, 2);
        assert_eq!(m0, table(0, 2), "stable per (agent, node)");
        // Across many nodes, the two agents' scrambles must differ
        // somewhere (overwhelmingly likely with 6 binary choices).
        assert!((0..6).any(|v| table(0, v) != table(1, v)));
    }

    #[test]
    fn trace_is_deterministic_and_replayable() {
        let bc = instance(6, &[0, 3]);
        let walkers = || vec![Walker { hops: 12 }; 2];
        let run = |seed| {
            let cfg = RunConfig {
                seed,
                record_trace: true,
                ..RunConfig::default()
            };
            run_sim(&bc, cfg, walkers()).trace
        };
        let t1 = run(5);
        let t2 = run(5);
        assert!(!t1.is_empty());
        assert_eq!(t1, t2, "same seed ⇒ identical grant sequence");
        let t3 = run(6);
        assert_ne!(t1, t3, "different seed ⇒ different interleaving (whp)");
        // Tracing off ⇒ empty trace.
        let cfg = RunConfig {
            seed: 5,
            ..RunConfig::default()
        };
        assert!(run_sim(&bc, cfg, walkers()).trace.is_empty());
    }

    #[test]
    fn exhausted_restart_budget_terminates_crashed() {
        #[derive(Clone)]
        struct ReadTwice;
        impl Protocol for ReadTwice {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                ctx.read_board().await?;
                ctx.read_board().await?;
                Ok(AgentOutcome::Defeated)
            }
        }
        let bc = instance(4, &[0, 2]);
        // Agent 0 crashes at its first op in every incarnation: two
        // events, budget one restart.
        let plan = FaultPlan {
            events: vec![
                FaultEvent {
                    agent: 0,
                    at_op: 1,
                    action: FaultAction::Crash { restart_after: 0 },
                },
                FaultEvent {
                    agent: 0,
                    at_op: 2,
                    action: FaultAction::Crash { restart_after: 0 },
                },
            ],
            recovery: RecoveryPolicy {
                max_restarts: 1,
                ..RecoveryPolicy::default()
            },
        };
        let report = run_sim_faulty(&bc, RunConfig::default(), &plan, vec![ReadTwice; 2]).unwrap();
        assert_eq!(
            report.outcomes[0],
            AgentOutcome::Interrupted(Interrupt::Crashed),
            "budget exhausted ⇒ the agent stays down"
        );
        assert_eq!(report.outcomes[1], AgentOutcome::Defeated);
        assert_eq!(report.metrics.faults.aborted, 1);
    }

    #[test]
    fn delays_stall_but_do_not_change_outcomes() {
        let bc = instance(5, &[0, 2]);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 1,
                at_op: 2,
                action: FaultAction::Delay { ticks: 5 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let faulty = run_sim_faulty(&bc, RunConfig::default(), &plan, vec![Hops(3); 2]).unwrap();
        let clean = run_sim(&bc, RunConfig::default(), vec![Hops(3); 2]);
        assert_eq!(faulty.outcomes, clean.outcomes);
        assert_eq!(faulty.metrics.total_moves(), clean.metrics.total_moves());
        assert_eq!(faulty.metrics.faults.delay_ticks, 5);
        assert_eq!(faulty.metrics.steps, clean.metrics.steps + 5);
    }

    #[test]
    fn identical_fault_plans_replay_bit_for_bit() {
        let bc = instance(6, &[0, 3]);
        let plan = FaultPlan {
            events: vec![FaultEvent {
                agent: 0,
                at_op: 4,
                action: FaultAction::Crash { restart_after: 2 },
            }],
            recovery: RecoveryPolicy::default(),
        };
        let cfg = RunConfig {
            seed: 21,
            record_trace: true,
            ..RunConfig::default()
        };
        let walkers = || vec![Walker { hops: 6 }; 2];
        let first = run_sim_faulty(&bc, cfg, &plan, walkers()).unwrap();
        assert_eq!(first.metrics.faults.crashes, 1);
        let mut replay = ReplayScheduler::strict(first.trace.clone());
        let second = try_run_sim_with(&bc, cfg, &plan, walkers(), &mut replay).unwrap();
        assert_eq!(second.outcomes, first.outcomes);
        assert_eq!(second.trace, first.trace);
        assert_eq!(second.events, first.events);
        assert_eq!(second.metrics.per_agent, first.metrics.per_agent);
        assert_eq!(second.metrics.faults, first.metrics.faults);
    }

    #[test]
    fn lockstep_policy_runs() {
        let bc = instance(4, &[0, 2]);
        let cfg = RunConfig {
            policy: Policy::Lockstep,
            ..RunConfig::default()
        };
        let report = run_sim(&bc, cfg, vec![Hops(4); 2]);
        assert_eq!(report.metrics.total_moves(), 8);
        assert!(report.interrupted.is_none());
    }
}
