//! # qelect-agentsim — the mobile-agent runtime
//!
//! The paper's computational model (Section 1.2): asynchronous mobile
//! agents move along the labeled ports of an anonymous network and
//! communicate *only* through **whiteboards** — one per node, accessed
//! under fair mutual exclusion — by reading and writing **colored signs**.
//! Each agent carries a distinct [`color::Color`], and colors (like port
//! symbols) can be tested for equality but carry **no order**.
//!
//! This crate is the boundary where the qualitative model is enforced:
//!
//! * [`color::Color`] implements `Eq`/`Hash` but deliberately **not**
//!   `Ord`; nonce randomization makes any accidental use of the bit
//!   pattern unstable across runs.
//! * Protocols see ports as per-agent [`ctx::LocalPort`] encodings — each
//!   agent gets its own scrambled numbering of the ports at every node
//!   ("relative or local comparable labels", as the paper's tourist in
//!   Athens), so no protocol can rely on a globally agreed port order.
//! * Every primitive operation (move, board access, wait) is gated by a
//!   pluggable [`sched::Scheduler`], making asynchrony an explicit,
//!   replayable adversary. The synchronous-lockstep scheduler of the
//!   paper's Section 1.3 impossibility argument is provided.
//!
//! Protocols are written once against the [`ctx::MobileCtxAsync`]
//! trait and run on one deterministic engine, [`sim`]:
//! **single-threaded**, agents are futures parked at gates, a
//! discrete-event simulation over virtual time with no per-step thread
//! handoffs. Its scheduler kernel holds the world, the primitives, the
//! grant decision (ready set, deadlock, step budget) and the report.
//! ELECT on a 10⁴-node cycle with three agents runs end to end in about
//! 0.45 s (`BENCH_canon.json`, a 2-core host); the step-light ring
//! prober runs that cycle in milliseconds.
//!
//! The engine detects deadlocks and enforces step budgets (so
//! impossibility arguments terminate), and a run — its metrics, trace
//! and fault addressing — is a pure function of `(instance, protocol,
//! policy, seed, fault plan)`.
//!
//! [`message_net`] implements the paper's Fig. 1 transformation: a
//! mobile-agent protocol expressed as an explicit state machine
//! ([`stepagent::StepAgent`]) is executed by an anonymous processor
//! network in which *messages are agents*.
//!
//! The [`mod@run`] module is the unified front door: a [`RunConfig`]
//! builder selects the policy, an optional [`fault::FaultPlan`] and a
//! replay schedule, and [`run()`] executes any [`Protocol`]
//! implementation, returning an [`ElectionRun`] or a typed [`RunError`].
//! [`fault`] provides deterministic, schedule-addressed fault injection:
//! crash an agent at any whiteboard-access boundary, lose or delay its
//! pending move, and restart it with only whiteboard-persisted state.
//!
//! ```
//! use qelect_agentsim::{run, AgentOutcome, Interrupt, MobileCtxAsync, Protocol, RunConfig};
//! use qelect_graph::{families, Bicolored};
//!
//! // A one-agent protocol: read the home whiteboard, claim leadership.
//! #[derive(Clone)]
//! struct ClaimHome;
//! impl Protocol for ClaimHome {
//!     async fn run_async<C: MobileCtxAsync>(
//!         &self,
//!         ctx: &mut C,
//!     ) -> Result<AgentOutcome, Interrupt> {
//!         let board = ctx.read_board().await?;
//!         assert!(!board.is_empty()); // the pre-placed HomeBase sign
//!         Ok(AgentOutcome::Leader)
//!     }
//! }
//! let bc = Bicolored::new(families::cycle(5).unwrap(), &[2]).unwrap();
//! let election = run(&bc, &RunConfig::new(0), &ClaimHome).unwrap();
//! assert_eq!(election.report.leader, Some(0));
//! assert_eq!(election.engine, "sim");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod color;
pub mod coverage;
pub mod ctx;
pub mod explore;
pub mod fault;
pub mod json;
mod kernel;
pub mod message_net;
pub mod metrics;
pub mod registry;
pub mod run;
pub mod sched;
pub mod shuffle;
pub mod sign;
pub mod sim;
pub mod stepagent;
pub mod trace;
pub mod whiteboard;

pub use color::{Color, ColorRegistry};
pub use coverage::{signature, signature_with, CoverageMap, CoverageStats, PHASE_WINDOWS};
pub use ctx::{AgentOutcome, Interrupt, LocalPort, MobileCtxAsync};
pub use explore::{
    shrink_schedule, shrink_trace, CounterExample, ExploreConfig, ExploreReport, ExploreSession,
    GuidedScheduler, RecordingScheduler,
};
pub use fault::{shrink_plan, FaultAction, FaultEvent, FaultPlan, FaultSummary, RecoveryPolicy};
pub use metrics::{AgentMetrics, Metrics, PhaseBreakdown, PhaseSpan, SpanTracker, UNSPANNED};
pub use registry::{ExploreSpec, ProtocolCaps, ProtocolEntry, ProtocolId, Registry};
pub use run::{run, run_each, ElectionRun, Engine, Protocol, ReplaySpec, RunConfig, RunError};
pub use sched::{
    LockstepScheduler, RandomScheduler, ReplayScheduler, RoundRobinScheduler, Scheduler,
};
pub use sign::{Sign, SignKind};
pub use sim::{run_sim_faulty, run_staggered, try_run_sim_with, RunReport};
pub use trace::{Trace, TraceEvent};
pub use whiteboard::Whiteboard;
