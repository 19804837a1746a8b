//! A `Sync` election entry for long-lived services.
//!
//! `qelectd` (the serving daemon in `qelect-bench`) answers many
//! requests for the *same* instance: the graph construction, the
//! placement check and the gcd-oracle verdict are all pure functions of
//! the spec, so a service should pay them once and share the result
//! across its worker threads. [`PreparedElection`] is that shareable
//! unit — build it once, stash it behind an `Arc` in an instance cache,
//! and call [`PreparedElection::run`] concurrently from as many threads
//! as you like (`&self`; each run derives everything else from its own
//! [`RunConfig`]).

use qelect_agentsim::{ElectionRun, RunConfig, RunError};
use qelect_graph::{Bicolored, GraphError};

use crate::elect::run_election;
use crate::solvability::gcd_of_class_sizes;

/// An instance prepared for repeated election runs: the placed graph
/// plus its precomputed oracle verdict.
///
/// The type is `Send + Sync` (asserted by a compile-time test below), so
/// one `Arc<PreparedElection>` can back every in-flight request for the
/// instance. Runs themselves stay pure functions of `(instance,
/// config)` — sharing the preparation shares no mutable state.
#[derive(Debug, Clone)]
pub struct PreparedElection {
    bc: Bicolored,
    gcd: usize,
    solvable: bool,
}

impl PreparedElection {
    /// Prepare an already-placed instance: compute the class gcd once
    /// and derive the Theorem 3.1 solvability verdict from it. The
    /// canonicalization behind the classes is memoized process-wide by
    /// `qelect_graph::cache`.
    pub fn new(bc: Bicolored) -> PreparedElection {
        let gcd = gcd_of_class_sizes(&bc);
        PreparedElection {
            bc,
            gcd,
            solvable: gcd == 1,
        }
    }

    /// Build and place the instance, then prepare it.
    pub fn place(graph: qelect_graph::Graph, homebases: &[usize]) -> Result<Self, GraphError> {
        Ok(PreparedElection::new(Bicolored::new(graph, homebases)?))
    }

    /// The placed instance.
    pub fn instance(&self) -> &Bicolored {
        &self.bc
    }

    /// The gcd of the equivalence-class sizes.
    pub fn gcd(&self) -> usize {
        self.gcd
    }

    /// The gcd oracle's verdict: whether ELECT must elect here.
    pub fn solvable(&self) -> bool {
        self.solvable
    }

    /// Run ELECT on the prepared instance — `&self`, safe to call from
    /// any number of threads concurrently.
    pub fn run(&self, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
        run_election(&self.bc, cfg)
    }

    /// Whether a finished run agrees with the precomputed oracle
    /// verdict: a clean election where the oracle says solvable, a
    /// unanimous impossibility verdict where it says unsolvable.
    pub fn agrees(&self, run: &ElectionRun) -> bool {
        if self.solvable {
            run.clean_election()
        } else {
            run.unanimous_unsolvable()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn prepared_election_is_send_sync() {
        assert_send_sync::<PreparedElection>();
        assert_send_sync::<std::sync::Arc<PreparedElection>>();
    }

    #[test]
    fn preparation_precomputes_the_oracle() {
        let solvable = PreparedElection::place(families::cycle(9).unwrap(), &[0, 1, 3]).unwrap();
        assert!(solvable.solvable());
        assert_eq!(solvable.gcd(), 1);
        let broken = PreparedElection::place(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        assert!(!broken.solvable());
        assert_eq!(broken.gcd(), 2);
    }

    #[test]
    fn concurrent_runs_share_one_preparation() {
        let prep = std::sync::Arc::new(
            PreparedElection::place(families::cycle(9).unwrap(), &[0, 1, 3]).unwrap(),
        );
        std::thread::scope(|scope| {
            for seed in 0..4u64 {
                let prep = std::sync::Arc::clone(&prep);
                scope.spawn(move || {
                    let run = prep.run(&RunConfig::new(seed)).unwrap();
                    assert!(prep.agrees(&run), "seed {seed}");
                });
            }
        });
    }

    #[test]
    fn agrees_matches_unsolvable_verdicts_too() {
        let prep = PreparedElection::place(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let run = prep.run(&RunConfig::new(1)).unwrap();
        assert!(prep.agrees(&run));
        assert!(!run.clean_election());
    }

    #[test]
    fn place_rejects_bad_homebases() {
        assert!(PreparedElection::place(families::cycle(6).unwrap(), &[0, 0]).is_err());
        assert!(PreparedElection::place(families::cycle(6).unwrap(), &[99]).is_err());
    }
}
