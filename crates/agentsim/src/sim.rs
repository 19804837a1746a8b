//! The single-threaded discrete-event simulation engine.
//!
//! [`crate::gated`] runs one OS thread per agent and pays two
//! cross-thread handoffs per scheduler grant, which caps instances at a
//! few hundred agents and makes every grant cost microseconds. This
//! engine executes the *same* protocols — written once against
//! [`crate::MobileCtxAsync`] — on **one** thread, as event-driven state
//! machines over virtual time: the compiler's `async` transform turns
//! each blocking-style agent body into a resumable state machine, and
//! every primitive (whiteboard op, gate wait, fault stall) becomes an
//! entry the scheduler grants in the same order a gated run would.
//!
//! # Event model
//!
//! Each agent is a future parked at a `Gate`. A gate announcement is
//! the sim's event: on its first poll the gate parks its agent with the
//! kernel's grant state; the scheduler's verdict (a tick, or an abort)
//! comes back through the agent's mailbox. Everything between the gates
//! — the world, the primitives, the fault gate, the grant decision and
//! the report — is the scheduler kernel's, shared with the gated engine,
//! and virtual time is the grant counter, so:
//!
//! * **fault plans address identically** — [`crate::fault`] counts
//!   whiteboard-access boundaries, which this engine crosses in the same
//!   order at the same operation indices;
//! * **traces are byte-identical** — the grant sequence and the
//!   per-primitive event log (`qelect-trace/1`) match the gated engine's
//!   for the same `(instance, protocol, policy, seed, plan)`, which is
//!   what lets [`crate::sched::ReplayScheduler`] replay a gated
//!   recording under sim and vice versa.
//!
//! # Why polling in index order is equivalent to gated's park-all
//!
//! Between grants the gated engine lets *all* unparked threads run
//! concurrently until each parks — but the only code that runs there is
//! (a) the pre-first-gate prefix of each agent and (b) post-abort
//! unwinding, and both only touch per-agent state (spans, outcome) or
//! commute (panic capture); every ordered effect on shared state
//! (boards, events, checkpoints) happens strictly *after* a grant, while
//! exactly one agent is active. Polling the parked-out set in index
//! order therefore produces the same shared-state sequence. See
//! DESIGN.md §12 for the full argument.

use crate::ctx::{AgentOutcome, Interrupt};
use crate::fault::FaultPlan;
use crate::kernel::{drive, Agent, Grants, Link, Park, RunConfig, RunReport, World};
use crate::run::{Protocol, RunError};
use crate::sched::Scheduler;
use qelect_graph::Bicolored;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Everything the scheduler loop and the agents share. One thread runs
/// it all, so a `RefCell` stands in for the gated engine's lock and a
/// mailbox per agent for its channels.
struct SimCore {
    world: World,
    grants: Grants,
    /// The verdict for each parked agent, consumed by its gate's next
    /// poll.
    verdicts: Vec<Option<Result<u64, Interrupt>>>,
}

/// One agent's whole life as a pollable state machine.
type Task<'a> = Pin<Box<dyn Future<Output = AgentOutcome> + 'a>>;

/// A sim agent's link to the core.
struct SimLink(Rc<RefCell<SimCore>>);

impl Link for SimLink {
    fn world<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        f(&mut self.0.borrow_mut().world)
    }

    fn park(&mut self, agent: usize, at: Park) -> impl Future<Output = Result<u64, Interrupt>> {
        Gate {
            core: &self.0,
            agent,
            at,
            announced: false,
        }
    }
}

/// A parked primitive: parks its agent on first poll, then resolves
/// when the scheduler deposits a verdict in the agent's mailbox.
struct Gate<'a> {
    core: &'a RefCell<SimCore>,
    agent: usize,
    at: Park,
    announced: bool,
}

impl Future for Gate<'_> {
    type Output = Result<u64, Interrupt>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut core = this.core.borrow_mut();
        if let Some(verdict) = core.verdicts[this.agent].take() {
            return Poll::Ready(verdict);
        }
        if !this.announced {
            this.announced = true;
            core.grants.park(this.agent, this.at);
        }
        Poll::Pending
    }
}

/// Run a sim election under a fault plan with a policy-built scheduler
/// (the sim twin of [`crate::gated::run_gated_faulty`]).
pub fn run_sim_faulty<P: Protocol + Clone>(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    protocol: &P,
) -> Result<RunReport, RunError> {
    let mut scheduler = cfg.policy.build(cfg.seed);
    try_run_sim_with(bc, cfg, faults, protocol, scheduler.as_mut())
}

/// The full-featured sim entry point: caller-supplied scheduler, fault
/// plan, typed errors — the sim twin of
/// [`crate::gated::try_run_gated_with`], with the same contract:
/// protocol-level interrupts come back inside the report, `Err` means
/// the run lost integrity (an agent panicked, or an agent suspended on
/// something that is not a sim gate).
///
/// The engine clones one `protocol` per home-base (agent `i` starts at
/// the `i`-th home-base with a fresh color), exactly like
/// [`crate::run::run`] does for the gated engine.
pub fn try_run_sim_with<P: Protocol + Clone>(
    bc: &Bicolored,
    cfg: RunConfig,
    faults: &FaultPlan,
    protocol: &P,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    let r = bc.r();
    let core = Rc::new(RefCell::new(SimCore {
        world: World::new(bc, &cfg),
        grants: Grants::new(r, &cfg),
        verdicts: vec![None; r],
    }));

    // One state machine per agent: the kernel's invoke-and-restart loop
    // around the protocol body.
    let mut tasks: Vec<Option<Task<'_>>> = (0..r)
        .map(|i| {
            let link = SimLink(Rc::clone(&core));
            let mut agent = core.borrow().world.agent(i, link, faults);
            let p = protocol.clone();
            let task: Task<'_> = Box::pin(async move {
                let attempt = async |a: &mut Agent<SimLink>| p.run_async(a).await;
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
                    // that is not a sim gate.
                    run_error = Some(RunError::ChannelDisconnected {
                        stage: "awaiting agent park",
                    });
                    break 'sched;
                }
                Poll::Pending => {}
            }
        }
        let mut core = core.borrow_mut();
        let SimCore {
            world,
            grants,
            verdicts,
        } = &mut *core;
        if grants.live() > 0 {
            let verdict = grants.decide(world, scheduler);
            grants.deliver(verdict, |agent, verdict| verdicts[agent] = Some(verdict));
        }
    }

    // Dropping the tasks cancels agents still parked (the break path),
    // matching the gated engine's dropped grant channels, and releases
    // their links to the core.
    drop(tasks);
    let SimCore { world, grants, .. } = Rc::into_inner(core)
        .expect("every agent task was dropped")
        .into_inner();
    grants.report(world, scheduler.name(), run_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::contract::Walker;
    use crate::run::{run, Engine, RunConfig as UnifiedConfig};
    use crate::{MobileCtx, MobileCtxAsync};
    use qelect_graph::families;

    crate::kernel::contract_tests!(Engine::Sim);

    fn instance(n: usize, hbs: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), hbs).unwrap()
    }

    #[test]
    fn sim_matches_gated_byte_for_byte_on_a_fixed_walk() {
        // The in-crate differential smoke (the full proptest suite lives
        // in the workspace tests): same instance, seed, policy and
        // protocol on both engines ⇒ identical traces, events, metrics.
        let bc = instance(6, &[0, 3]);
        for seed in [0u64, 5, 21] {
            let cfg = UnifiedConfig::new(seed).record_trace(true);
            let gated = run(&bc, &cfg, &Walker { hops: 12 }).unwrap();
            let sim = run(&bc, &cfg.clone().engine(Engine::Sim), &Walker { hops: 12 }).unwrap();
            assert_eq!(sim.report.outcomes, gated.report.outcomes);
            assert_eq!(sim.report.trace, gated.report.trace, "seed {seed}");
            assert_eq!(sim.report.events, gated.report.events, "seed {seed}");
            assert_eq!(sim.report.metrics.per_agent, gated.report.metrics.per_agent);
            assert_eq!(sim.report.metrics.steps, gated.report.metrics.steps);
        }
    }

    #[test]
    fn sync_protocols_still_run_on_sim_via_the_async_default() {
        // A protocol written against the *blocking* trait only: the
        // provided `run` adapter is its author's view, but `run_async`
        // is what sim executes — this pins that hand-written sync impls
        // (pre-PR-6 style, now expressed via run_async + SyncCtx) work.
        #[derive(Clone)]
        struct SyncStyle;
        impl Protocol for SyncStyle {
            async fn run_async<C: MobileCtxAsync>(
                &self,
                ctx: &mut C,
            ) -> Result<AgentOutcome, Interrupt> {
                sync_body_async(ctx).await
            }
        }
        async fn sync_body_async<C: MobileCtxAsync>(
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            let board = ctx.read_board().await?;
            assert!(!board.is_empty());
            Ok(AgentOutcome::Leader)
        }
        // And the inverse direction: the sync adapter drives the async
        // body through a blocking MobileCtx.
        fn sync_entry<C: MobileCtx>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
            SyncStyle.run(ctx)
        }
        let bc = instance(5, &[2]);
        let report =
            run_sim_faulty(&bc, RunConfig::default(), &FaultPlan::none(), &SyncStyle).unwrap();
        assert_eq!(report.outcomes, vec![AgentOutcome::Leader]);
        let agents: Vec<crate::gated::GatedAgent> = vec![Box::new(sync_entry)];
        let gated =
            crate::gated::run_gated_faulty(&bc, RunConfig::default(), &FaultPlan::none(), agents)
                .unwrap();
        assert_eq!(gated.outcomes, vec![AgentOutcome::Leader]);
    }
}
