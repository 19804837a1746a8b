//! # qelect — qualitative leader election for mobile agents
//!
//! A production-grade implementation of the protocols and theory of
//! *“Can we elect if we cannot compare?”* (Barrière, Flocchini,
//! Fraigniaud, Santoro; SPAA 2003): deterministic leader election among
//! asynchronous mobile agents whose identities are **distinct but
//! incomparable colors**, on anonymous port-labeled networks with
//! whiteboards.
//!
//! ## The protocols
//!
//! * [`elect`] — **Protocol ELECT** (Fig. 3 of the paper): whiteboard DFS
//!   map drawing, computation and canonical ordering of the equivalence
//!   classes of `(G, p)`, then GCD-reduction phases — [`reduce`]
//!   implements AGENT-REDUCE (Fig. 4, subtractive Euclid via matchings)
//!   and NODE-REDUCE (§3.3.2, division Euclid via node acquisition).
//!   Elects iff `gcd(|C_1|, …, |C_k|) = 1`, in O(r·|E|) moves and
//!   whiteboard accesses (Theorem 3.1).
//! * [`translation_elect`] — the **effectual protocol for Cayley graphs**
//!   (Theorem 4.1): recognizes the Cayley structure after map drawing and
//!   certifies impossibility through translation classes, electing
//!   otherwise.
//! * [`quantitative`] — the folklore **universal protocol** of the
//!   quantitative world (comparable labels): collect all IDs, the maximum
//!   wins. The baseline of Table 1.
//! * [`anonymous`] — executable §1.3 impossibility argument: an anonymous
//!   protocol that is correct alone on `C_3` but elects *two* leaders on
//!   `C_6` under the synchronous scheduler.
//! * [`petersen`] — the bespoke two-agent protocol on the Petersen graph
//!   (Fig. 5) that elects where ELECT fails.
//! * [`dp_anon`] — **Dereniowski–Pelc anonymous-agent election**
//!   (arXiv:1205.6249): elects exactly when some home-base equivalence
//!   class is a singleton — a strictly smaller domain than ELECT's.
//! * [`agent_elect`] — **agent-based election with comparable
//!   identifiers** (arXiv:2403.13716): the engine-portable labeled-agent
//!   protocol, solvable on every instance.
//!
//! All of them are addressable by stable wire name through [`registry`],
//! the single protocol-name resolution path shared by the CLI, the
//! `qelectd` request envelopes, the load generator and the zoo
//! experiment.
//!
//! ## The oracles
//!
//! [`solvability`] provides ground truth: the gcd condition on classes,
//! Theorem 2.1 checkers, and the cross-validation predicates the
//! experiment suite uses to confirm every protocol outcome.
//!
//! ## Quick start
//!
//! ```
//! use qelect::prelude::*;
//!
//! // Five agents on a 9-cycle — classes have gcd 1, so ELECT elects.
//! let g = qelect_graph::families::cycle(9).unwrap();
//! let bc = qelect_graph::Bicolored::new(g, &[0, 1, 2, 3, 4]).unwrap();
//! let election = run_election(&bc, &RunConfig::new(0)).unwrap();
//! assert!(election.clean_election());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent_elect;
pub mod anonymous;
pub mod dp_anon;
pub mod elect;
pub mod gathering;
pub mod map;
pub mod mapdraw;
pub mod petersen;
pub mod quantitative;
pub mod reduce;
pub mod registry;
pub mod replay;
pub mod schedule;
pub mod service;
pub mod solvability;
pub mod stepquant;
pub mod translation_elect;
pub mod view_elect;

/// Convenient re-exports for downstream users.
///
/// `RunConfig` here is the unified builder ([`qelect_agentsim::RunConfig`]);
/// the engine's per-run kernel config is [`qelect_agentsim::sim::RunConfig`]
/// (see [`qelect_agentsim::RunConfig::to_sim`]).
pub mod prelude {
    pub use crate::agent_elect::{agent_elect_async, AgentElectProtocol};
    pub use crate::dp_anon::{dp_anon_async, dp_solvable, DpAnonProtocol};
    pub use crate::elect::{elect_async, run_election, ElectProtocol};
    pub use crate::quantitative::{
        quantitative_elect_async, run_quantitative, QuantitativeProtocol,
    };
    pub use crate::replay::{
        explore_elect, faulty_run_matches_oracle, replay_elect, run_elect_recorded,
        run_elect_with_plan,
    };
    pub use crate::service::PreparedElection;
    pub use crate::solvability::{election_possible_cayley, gcd_of_class_sizes};
    pub use crate::translation_elect::{
        run_translation_elect, translation_elect_async, TranslationElectProtocol,
    };
    pub use qelect_agentsim::explore::{ExploreConfig, ExploreReport, ExploreSession};
    pub use qelect_agentsim::trace::Trace;
    pub use qelect_agentsim::{
        AgentOutcome, ElectionRun, Engine, FaultPlan, MobileCtxAsync, Protocol, RunConfig,
        RunError, RunReport,
    };
}

pub use map::AgentMap;
pub use schedule::Schedule;
