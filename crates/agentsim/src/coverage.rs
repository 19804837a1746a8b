//! Coverage signatures over the schedule space.
//!
//! Exploring millions of schedules is only useful if the explorer can
//! tell when two schedules exercised the *same* behavior. This module
//! defines the coverage feature the swarm driver deduplicates on:
//!
//! * [`signature`] — a phase-interleaving fingerprint of one run. The
//!   grant sequence is split into [`PHASE_WINDOWS`] equal windows and
//!   every context switch contributes its `(window, from-agent,
//!   to-agent)` triple; the terminal outcomes and leader are folded in
//!   so distinct verdicts never collide. Two schedules that preempt the
//!   same agents at the same relative phase of the run and reach the
//!   same verdict share a signature — the frontier treats them as one
//!   behavior and spends its budget elsewhere.
//! * [`CoverageMap`] — the concurrent dedup set plus counters, kept
//!   under one lock so [`CoverageMap::stats`] never sees half of an
//!   observation.
//!
//! Because both deterministic engines produce byte-identical grant
//! sequences, outcomes and leaders for the same `(instance, seed,
//! schedule)`, the signature is engine-portable: `--engine gated` and
//! `--engine sim` cover the same points (pinned by a property test).

use crate::gated::RunReport;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Number of equal phase windows the grant sequence is split into for
/// the interleaving features. Coarse on purpose: the point is to group
/// schedules that differ only in when exactly a switch happened, while
/// separating early-phase from late-phase preemptions.
pub const PHASE_WINDOWS: usize = 8;

/// The coverage signature of a run whose grant sequence was recorded
/// into `report.trace` (`record_trace` on).
pub fn signature(report: &RunReport) -> u64 {
    signature_with(&report.trace, report)
}

/// The coverage signature of `report` under the grant sequence
/// `schedule`. The hot exploration loop records grants on the scheduler
/// side (cheaper than engine-side trace recording) and calls this;
/// [`signature`] is the same function applied to an engine-recorded
/// trace, so the two agree on the same run.
pub fn signature_with(schedule: &[usize], report: &RunReport) -> u64 {
    let mut h = DefaultHasher::new();
    // Terminal verdict: outcomes + leader. Distinct verdicts are always
    // distinct coverage points.
    format!("{:?}/{:?}", report.outcomes, report.leader).hash(&mut h);
    // Phase-interleaving features: one (window, from, to) triple per
    // context switch, at PHASE_WINDOWS granularity.
    let len = schedule.len().max(1);
    for i in 1..schedule.len() {
        if schedule[i] != schedule[i - 1] {
            let window = i * PHASE_WINDOWS / len;
            (window as u64, schedule[i - 1] as u64, schedule[i] as u64).hash(&mut h);
        }
    }
    h.finish()
}

/// A point-in-time view of a [`CoverageMap`], read under its lock, so
/// `schedules == unique + revisits` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Schedules observed (every [`CoverageMap::observe`] call).
    pub schedules: u64,
    /// Distinct signatures seen.
    pub unique: u64,
    /// Observations whose signature was already covered.
    pub revisits: u64,
    /// Longest observed run, in scheduler ticks.
    pub max_ticks: u64,
}

/// The concurrent coverage dedup set: swarm workers observe signatures,
/// readers snapshot consistent stats while the swarm is live.
#[derive(Debug, Default)]
pub struct CoverageMap {
    inner: Mutex<Covered>,
}

/// The set and its counters, updated together under one lock.
#[derive(Debug, Default)]
struct Covered {
    set: HashSet<u64>,
    stats: CoverageStats,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Record one run: returns `true` iff the signature is novel (the
    /// frontier uses this to decide which schedules to mutate).
    pub fn observe(&self, sig: u64, ticks: u64) -> bool {
        let mut inner = self.inner.lock();
        let novel = inner.set.insert(sig);
        let stats = &mut inner.stats;
        stats.schedules += 1;
        if novel {
            stats.unique += 1;
        } else {
            stats.revisits += 1;
        }
        stats.max_ticks = stats.max_ticks.max(ticks);
        novel
    }

    /// Whether `sig` has been observed.
    pub fn contains(&self, sig: u64) -> bool {
        self.inner.lock().set.contains(&sig)
    }

    /// Number of distinct signatures covered.
    pub fn len(&self) -> usize {
        self.inner.lock().set.len()
    }

    /// Whether nothing has been covered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The covered signatures, sorted ascending — the comparable
    /// "covered set" the worker-count determinism contract is stated
    /// over.
    pub fn signatures(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.inner.lock().set.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// The counters, read under the lock every observation holds while
    /// it bumps them.
    pub fn stats(&self) -> CoverageStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_and_dedups() {
        let map = CoverageMap::new();
        assert!(map.is_empty());
        assert!(map.observe(7, 10));
        assert!(map.observe(9, 30), "new signature is novel");
        assert!(!map.observe(7, 20), "revisit is not novel");
        let s = map.stats();
        assert_eq!(s.schedules, 3);
        assert_eq!(s.unique, 2);
        assert_eq!(s.revisits, 1);
        assert_eq!(s.max_ticks, 30);
        assert_eq!(map.len(), 2);
        assert!(map.contains(9));
        assert!(!map.contains(8));
        assert_eq!(map.signatures(), vec![7, 9]);
    }

    #[test]
    fn snapshot_is_consistent_under_concurrent_observers() {
        let map = CoverageMap::new();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let map = &map;
                scope.spawn(move || {
                    for i in 0..2000u64 {
                        map.observe(w * 10_000 + i % 700, i);
                    }
                });
            }
            for _ in 0..200 {
                let s = map.stats();
                assert_eq!(
                    s.schedules,
                    s.unique + s.revisits,
                    "snapshot must never tear"
                );
            }
        });
        let s = map.stats();
        assert_eq!(s.schedules, 8000);
        assert_eq!(s.unique, map.len() as u64);
    }

    #[test]
    fn signature_separates_interleavings_and_ignores_jitter() {
        use crate::ctx::AgentOutcome;
        use crate::gated::RunReport;
        let rep = |outcomes: Vec<AgentOutcome>, leader: Option<usize>| RunReport {
            outcomes,
            leader,
            colors: Vec::new(),
            metrics: Default::default(),
            interrupted: None,
            policy: "test",
            trace: Vec::new(),
            events: Vec::new(),
        };
        let base = rep(vec![AgentOutcome::Leader, AgentOutcome::Defeated], Some(0));

        // Same verdict, same switch structure: equal signatures.
        let a = signature_with(&[0, 0, 1, 1], &base);
        let b = signature_with(&[0, 0, 1, 1], &base);
        assert_eq!(a, b);

        // A switch in a different phase window is new coverage.
        let c = signature_with(&[0, 1, 1, 1, 1, 1, 1, 1], &base);
        let d = signature_with(&[0, 0, 0, 0, 0, 0, 0, 1], &base);
        assert_ne!(c, d);

        // A different verdict is new coverage even on the same schedule.
        let flipped = rep(vec![AgentOutcome::Defeated, AgentOutcome::Leader], Some(1));
        assert_ne!(
            signature_with(&[0, 0, 1, 1], &base),
            signature_with(&[0, 0, 1, 1], &flipped)
        );

        // signature() is signature_with() over the recorded trace.
        let mut recorded = base.clone();
        recorded.trace = vec![0, 0, 1, 1];
        assert_eq!(signature(&recorded), a);
    }
}
