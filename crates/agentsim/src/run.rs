//! The unified front door for running a protocol: one [`RunConfig`]
//! builder, one [`Engine`] choice, one [`ElectionRun`] result.
//!
//! Describe the run declaratively with a [`RunConfig`], hand over
//! anything implementing [`Protocol`], and [`run`] returns an
//! [`ElectionRun`] or a typed [`RunError`]. Every caller comes through
//! this path (protocols with stable wire names resolve here via
//! [`crate::registry`]).
//!
//! Fault injection rides the same door: [`RunConfig::faults`] attaches a
//! [`FaultPlan`], and the run's fault activity comes back in
//! [`ElectionRun::faults`].

use crate::ctx::{poll_now, AgentOutcome, Interrupt, MobileCtx, MobileCtxAsync, SyncCtx};
use crate::fault::{FaultPlan, FaultSummary};
use crate::gated::{self, RunReport};
use crate::registry::protocol_agents;
use crate::sched::{Policy, ReplayScheduler, Scheduler};
use qelect_graph::Bicolored;
use std::fmt;

/// Which execution engine carries the run. Both are deterministic and
/// run on one scheduler kernel, so they produce byte-identical reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The scheduler-gated engine (default): one OS thread per agent,
    /// every primitive passes through a grant gate, the run is a pure
    /// function of `(instance, protocol, policy, seed, fault plan)`.
    Gated,
    /// The single-threaded discrete-event engine ([`crate::sim`]):
    /// agents are event-driven state machines over virtual time, no OS
    /// threads — and orders of magnitude faster per step, which makes
    /// 10⁴-node instances tier-1 test material.
    Sim,
}

impl Engine {
    /// Every engine, in the order reports list them.
    pub const ALL: [Engine; 2] = [Engine::Gated, Engine::Sim];

    /// Stable lowercase name (used in reports and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Gated => "gated",
            Engine::Sim => "sim",
        }
    }

    /// The engine named `name` (the inverse of [`Engine::name`]).
    pub fn parse(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.name() == name)
    }
}

/// A recorded grant schedule to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySpec {
    /// The grant sequence (agent index per scheduler step).
    pub schedule: Vec<usize>,
    /// Strict mode panics on the first divergence (the regression-test
    /// setting); lenient mode records it and falls back to the lowest
    /// ready agent (what the shrinker wants).
    pub strict: bool,
}

/// Declarative description of one run, consumed by [`run`].
///
/// Build it fluently: `RunConfig::new(7).engine(Engine::Sim).faults(plan)`.
/// Defaults mirror the engine config defaults ([`gated::RunConfig`]).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed: colors, port scrambles, and the random policy.
    pub seed: u64,
    /// Which engine executes the run.
    pub engine: Engine,
    /// Scheduling policy.
    pub policy: Policy,
    /// Step budget (scheduler grants).
    pub max_steps: u64,
    /// Per-agent scrambled port numberings.
    pub scramble_ports: bool,
    /// Record the grant schedule + per-primitive event log.
    pub record_trace: bool,
    /// Faults to inject (empty plan = crash-free run).
    pub faults: FaultPlan,
    /// Replay a recorded schedule instead of consulting `policy`.
    pub replay: Option<ReplaySpec>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::new(0)
    }
}

impl RunConfig {
    /// A gated-engine config with the given seed and all defaults.
    pub fn new(seed: u64) -> RunConfig {
        let g = gated::RunConfig::default();
        RunConfig {
            seed,
            engine: Engine::Gated,
            policy: g.policy,
            max_steps: g.max_steps,
            scramble_ports: g.scramble_ports,
            record_trace: false,
            faults: FaultPlan::none(),
            replay: None,
        }
    }

    /// Select the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Select the scheduling policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the step budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Enable/disable per-agent port scrambling.
    pub fn scramble_ports(mut self, on: bool) -> Self {
        self.scramble_ports = on;
        self
    }

    /// Enable/disable trace recording.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Attach a fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Replay a recorded grant schedule.
    pub fn replay(mut self, schedule: Vec<usize>, strict: bool) -> Self {
        self.replay = Some(ReplaySpec { schedule, strict });
        self
    }

    /// The engine slice of this config.
    pub fn to_gated(&self) -> gated::RunConfig {
        gated::RunConfig {
            seed: self.seed,
            policy: self.policy,
            max_steps: self.max_steps,
            scramble_ports: self.scramble_ports,
            record_trace: self.record_trace,
        }
    }
}

/// Why a run could not produce a report. These are *runtime-integrity*
/// failures (an agent program panicked, an engine channel died) —
/// protocol-level interrupts (deadlock, step budget, crashes) are
/// normal results, reported inside [`RunReport`].
///
/// On whiteboard "lock poisoning": the gated engine guards the world
/// with a `parking_lot` mutex, which does not poison — a panic inside a
/// board access releases the lock cleanly. The panic that *would* have
/// poisoned a std mutex is caught at the agent-program boundary and
/// surfaced here as [`RunError::AgentPanicked`] instead of unwinding
/// through `expect` calls in the engine loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An agent program panicked (assertion failure, invalid port, …).
    /// The engine keeps the remaining agents coherent — the panicking
    /// agent reports Finished so the scheduler never hangs — and
    /// surfaces the payload here.
    AgentPanicked {
        /// The panicking agent's index.
        agent: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// An engine channel disconnected while the run was live (an agent
    /// thread died without reporting — should be unreachable given the
    /// panic guard, but typed rather than `expect`ed).
    ChannelDisconnected {
        /// Which handoff broke.
        stage: &'static str,
    },
    /// The protocol's registry entry does not support the requested
    /// engine (capability flags in [`crate::registry::ProtocolCaps`]).
    UnsupportedEngine {
        /// The protocol's wire name.
        protocol: &'static str,
        /// The rejected engine's name.
        engine: &'static str,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::AgentPanicked { agent, message } => {
                write!(f, "agent {agent} panicked: {message}")
            }
            RunError::ChannelDisconnected { stage } => {
                write!(f, "engine channel disconnected at {stage}")
            }
            RunError::UnsupportedEngine { protocol, engine } => {
                write!(
                    f,
                    "protocol '{protocol}' does not support engine '{engine}'"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// An agent protocol, written once over [`MobileCtxAsync`] and runnable
/// on every engine. The runner clones one instance per agent, so any
/// per-run configuration lives in the implementing type's fields.
///
/// Implement [`Protocol::run_async`] only: the blocking-style body with
/// `.await` on each primitive. The gated engine executes it through the
/// provided [`Protocol::run`] adapter, whose [`SyncCtx`]
/// resolves every primitive inside the poll, so the body runs exactly
/// as the pre-async blocking code did. The sim engine polls the same
/// body as a state machine over virtual time. `run_async` is required
/// (not defaulted) precisely so that no protocol can exist that the sim
/// engine cannot execute.
pub trait Protocol {
    /// Execute the protocol to a terminal outcome (the one body every
    /// engine runs).
    #[allow(async_fn_in_trait)]
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt>;

    /// Blocking adapter for the gated engine: drive [`run_async`]
    /// against a [`SyncCtx`], which never suspends.
    ///
    /// [`run_async`]: Protocol::run_async
    fn run<C: MobileCtx>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        poll_now(self.run_async(&mut SyncCtx(ctx)))
    }
}

/// The result of a [`run`]: the engine's report plus run-level context.
#[derive(Debug, Clone)]
pub struct ElectionRun {
    /// Which engine produced the report.
    pub engine: &'static str,
    /// Fault activity (duplicated from `report.metrics.faults` for
    /// direct access).
    pub faults: FaultSummary,
    /// The engine report (outcomes, leader, metrics, trace, …).
    pub report: RunReport,
}

impl ElectionRun {
    /// See [`RunReport::clean_election`].
    pub fn clean_election(&self) -> bool {
        self.report.clean_election()
    }

    /// See [`RunReport::unanimous_unsolvable`].
    pub fn unanimous_unsolvable(&self) -> bool {
        self.report.unanimous_unsolvable()
    }
}

/// Run `protocol` on `bc` as described by `cfg`.
///
/// One protocol instance is cloned per agent (agent `i` starts at the
/// `i`-th home-base, as always). A replay schedule, when set, replaces
/// the policy.
pub fn run<P>(bc: &Bicolored, cfg: &RunConfig, protocol: &P) -> Result<ElectionRun, RunError>
where
    P: Protocol + Clone + Send + 'static,
{
    let mut scheduler: Box<dyn Scheduler> = match &cfg.replay {
        Some(spec) if spec.strict => Box::new(ReplayScheduler::strict(spec.schedule.clone())),
        Some(spec) => Box::new(ReplayScheduler::new(spec.schedule.clone())),
        None => cfg.policy.build(cfg.seed),
    };
    let report = match cfg.engine {
        Engine::Gated => gated::try_run_gated_with(
            bc,
            cfg.to_gated(),
            &cfg.faults,
            protocol_agents(protocol.clone(), bc),
            scheduler.as_mut(),
        )?,
        Engine::Sim => crate::sim::try_run_sim_with(
            bc,
            cfg.to_gated(),
            &cfg.faults,
            protocol,
            scheduler.as_mut(),
        )?,
    };
    Ok(ElectionRun {
        engine: cfg.engine.name(),
        faults: report.metrics.faults,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::SignKind;
    use qelect_graph::families;

    fn instance(n: usize, hbs: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), hbs).unwrap()
    }

    /// A protocol that reads its home board and claims leadership iff it
    /// sees its own HomeBase sign (always true) — enough to exercise the
    /// plumbing on both engines.
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

    #[test]
    fn builder_defaults_mirror_engine_defaults() {
        let cfg = RunConfig::new(9);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.engine, Engine::Gated);
        let g = cfg.to_gated();
        assert_eq!(g.max_steps, gated::RunConfig::default().max_steps);
        assert_eq!(g.seed, 9);
        assert!(!g.record_trace);
    }

    #[test]
    fn runs_on_all_engines() {
        let bc = instance(5, &[1]);
        for engine in Engine::ALL {
            let cfg = RunConfig::new(3).engine(engine);
            let run = run(&bc, &cfg, &ClaimHome).unwrap();
            assert_eq!(run.engine, engine.name());
            assert_eq!(run.report.outcomes, vec![AgentOutcome::Leader]);
            assert!(!run.faults.any());
        }
    }

    #[test]
    fn record_and_replay_through_the_front_door() {
        let bc = instance(6, &[0, 3]);
        let cfg = RunConfig::new(11).record_trace(true);
        let first = run(&bc, &cfg, &ClaimHome).unwrap();
        assert!(!first.report.trace.is_empty());
        // A gated recording replays byte-identically on gated *and* sim
        // (the engines' determinism-equivalence contract).
        for engine in [Engine::Gated, Engine::Sim] {
            let replay_cfg = cfg
                .clone()
                .engine(engine)
                .replay(first.report.trace.clone(), true);
            let second = run(&bc, &replay_cfg, &ClaimHome).unwrap();
            assert_eq!(second.report.outcomes, first.report.outcomes);
            assert_eq!(second.report.trace, first.report.trace);
            assert_eq!(second.report.events, first.report.events);
        }
    }

    /// A protocol that panics — the typed-error path.
    #[derive(Clone)]
    struct Panics;

    impl Protocol for Panics {
        async fn run_async<C: MobileCtxAsync>(
            &self,
            ctx: &mut C,
        ) -> Result<AgentOutcome, Interrupt> {
            let _ = ctx.read_board().await?;
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn agent_panic_is_a_typed_error_not_a_hang() {
        let bc = instance(4, &[0, 2]);
        let cfg = RunConfig::new(0);
        match run(&bc, &cfg, &Panics) {
            Err(RunError::AgentPanicked { message, .. }) => {
                assert!(message.contains("deliberate test panic"), "{message}");
            }
            other => panic!("expected AgentPanicked, got {other:?}"),
        }
        // Sim surfaces it too.
        assert!(matches!(
            run(&bc, &cfg.engine(Engine::Sim), &Panics),
            Err(RunError::AgentPanicked { .. })
        ));
    }
}
