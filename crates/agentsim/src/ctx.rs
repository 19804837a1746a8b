//! The agent's view of the world: the [`MobileCtxAsync`] trait.
//!
//! Protocol code is written once, generically over [`MobileCtxAsync`],
//! and runs on the sim engine. The trait exposes exactly the
//! capabilities the paper's model grants an agent at a node: its own
//! color, the local degree, the port it entered through, the whiteboard
//! (read or atomic read-modify-write under mutual exclusion), moving
//! through a port, and waiting for the board to change.

use crate::color::Color;
use crate::sign::Sign;
use crate::whiteboard::Whiteboard;
use std::fmt;

/// An agent-local port name at the current node: values `0..degree`.
///
/// The runtime maps each agent's local numbering to the underlying port
/// symbols through a per-(agent, node) scramble, so two agents at the
/// same node generally disagree on which local number denotes which
/// edge — "local comparable labels" with no global meaning, as the
/// qualitative model prescribes. The numbering is *stable* for one agent
/// across visits, which is what lets an agent build and use a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalPort(pub u32);

impl fmt::Display for LocalPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lp{}", self.0)
    }
}

/// Why a primitive operation was interrupted by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupt {
    /// Every live agent is waiting on an unchanged whiteboard — the
    /// configuration can never progress.
    Deadlock,
    /// The global step budget was exhausted (the runtime's livelock
    /// detector for impossibility experiments).
    StepLimit,
    /// The run was cancelled (the engine stopped it, e.g. after an
    /// agent panicked).
    Cancelled,
    /// The agent was crashed by an injected fault
    /// (see [`crate::fault::FaultPlan`]). The engine catches this,
    /// restarts the agent at its home-base with volatile state lost, and
    /// re-invokes the program; it only surfaces as a terminal outcome
    /// when the recovery policy's restart budget is exhausted.
    Crashed,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Deadlock => write!(f, "deadlock: all agents waiting"),
            Interrupt::StepLimit => write!(f, "step budget exhausted"),
            Interrupt::Cancelled => write!(f, "run cancelled"),
            Interrupt::Crashed => write!(f, "crashed by fault injection"),
        }
    }
}

/// The terminal state of an agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AgentOutcome {
    /// Elected leader.
    Leader,
    /// Learned the leader's color and stepped down.
    Defeated,
    /// Determined that election is unsolvable on this instance.
    Unsolvable,
    /// The protocol could neither elect nor certify impossibility (the
    /// documented Theorem 4.1 corner; see `qelect-group` crate docs).
    Undecided,
    /// Interrupted by the runtime.
    Interrupted(Interrupt),
}

/// The capabilities of an agent at its current node, with the four
/// environment-touching primitives (`read_board`, `with_board`,
/// `move_via`, `wait_until`) expressed as futures.
///
/// Protocol code is written **once** against this trait (see
/// [`crate::run::Protocol::run_async`]). On the discrete-event engine
/// ([`crate::sim`]) the futures *park*: a pending primitive suspends the
/// agent's state machine until the scheduler grants it a step, which is
/// how one OS thread interleaves thousands of blocking-style agents
/// deterministically.
///
/// Every primitive is *fallible*: the runtime may interrupt (deadlock
/// detection, step budget, an injected crash), and protocol code
/// propagates the interrupt with `?`. The non-primitive methods (color,
/// degree, checkpoints, spans, …) stay synchronous: they never gate on
/// the scheduler.
#[allow(async_fn_in_trait)]
pub trait MobileCtxAsync {
    /// This agent's own color.
    fn color(&self) -> Color;

    /// Degree of the current node (the number of local ports).
    fn degree(&mut self) -> usize;

    /// The local port through which the agent entered the current node
    /// (`None` at the home-base before the first move).
    fn entry(&self) -> Option<LocalPort>;

    /// Snapshot the current node's whiteboard (one mutual-exclusion
    /// access).
    async fn read_board(&mut self) -> Result<Vec<Sign>, Interrupt>;

    /// Atomically inspect-and-mutate the current node's whiteboard (one
    /// mutual-exclusion access). This is the primitive behind "the first
    /// agent to write wins" arbitration.
    async fn with_board<R>(&mut self, f: impl FnOnce(&mut Whiteboard) -> R)
        -> Result<R, Interrupt>;

    /// Traverse the edge behind the given local port.
    async fn move_via(&mut self, port: LocalPort) -> Result<(), Interrupt>;

    /// Suspend until the current node's whiteboard satisfies the
    /// predicate. The runtime re-evaluates only when the board version
    /// changes, and detects global deadlocks.
    async fn wait_until(&mut self, pred: impl Fn(&Whiteboard) -> bool) -> Result<(), Interrupt>;

    /// Record a named checkpoint in the metrics stream (free: does not
    /// count as a move or board access).
    fn checkpoint(&mut self, label: &str);

    /// Open a named phase span (free: does not count as a move or board
    /// access). Spans nest; every open must be matched by a
    /// [`MobileCtxAsync::span_close`] with the same name, innermost
    /// first.
    fn span_open(&mut self, _name: &str) {}

    /// Close the innermost open phase span, which must be named `name`.
    /// The engine closes any span left open when the agent's program
    /// returns, so early exits via `?` don't lose the phase's work.
    fn span_close(&mut self, _name: &str) {}

    /// All local ports at the current node: `0..degree`.
    fn ports(&mut self) -> Vec<LocalPort> {
        (0..self.degree() as u32).map(LocalPort).collect()
    }

    /// How many times this agent has been crash-restarted: `0` on the
    /// original incarnation, incremented by the engine each time an
    /// injected crash ([`Interrupt::Crashed`]) restarts the agent at its
    /// home-base. The index is environment-supplied (the standard
    /// convention in replacement-agent fault models): the restarted
    /// agent knows it is a restart but retains no other volatile state.
    fn incarnation(&self) -> u64 {
        0
    }

    /// Whether the current run's fault plan can crash agents. Protocols
    /// consult this to decide whether to journal recovery checkpoints to
    /// the whiteboard; crash-free runs skip the journal entirely so
    /// their board contents, wait wakeups, and traces stay byte-identical
    /// to pre-fault-layer recordings.
    fn crash_faults_armed(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interrupt_display() {
        assert!(Interrupt::Deadlock.to_string().contains("deadlock"));
        assert!(Interrupt::StepLimit.to_string().contains("budget"));
    }

    #[test]
    fn outcome_equality() {
        assert_eq!(AgentOutcome::Leader, AgentOutcome::Leader);
        assert_ne!(
            AgentOutcome::Leader,
            AgentOutcome::Interrupted(Interrupt::Deadlock)
        );
    }
}
