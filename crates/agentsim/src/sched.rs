//! Schedulers: the asynchrony adversary.
//!
//! Agents are asynchronous — "every action takes a finite but otherwise
//! unpredictable amount of time". The engine reifies that
//! unpredictability as a scheduler which, at every tick, picks which of
//! the ready agents performs its next primitive. Protocol correctness
//! claims are tested across scheduler policies and seeds; impossibility
//! demonstrations use the *lockstep* policy, the paper's Section 1.3
//! synchronous adversary that keeps symmetric agents in symmetric states
//! forever.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Picks the next agent to run among those ready.
pub trait Scheduler: Send {
    /// `ready` is non-empty and sorted ascending; return one element.
    fn pick(&mut self, ready: &[usize], tick: u64) -> usize;
    /// Human-readable policy name (for reports).
    fn name(&self) -> &'static str;
}

/// Uniformly random choice (seeded, reproducible).
#[derive(Debug)]
pub struct RandomScheduler(StdRng);

impl RandomScheduler {
    /// Seeded constructor.
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler(StdRng::seed_from_u64(seed ^ 0x5EED))
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, ready: &[usize], _tick: u64) -> usize {
        ready[self.0.gen_range(0..ready.len())]
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// Round-robin over agent ids.
#[derive(Debug, Default)]
pub struct RoundRobinScheduler {
    last: usize,
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, ready: &[usize], _tick: u64) -> usize {
        // Next ready agent strictly after `last`, wrapping.
        let next = ready
            .iter()
            .copied()
            .find(|&a| a > self.last)
            .unwrap_or(ready[0]);
        self.last = next;
        next
    }
    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// The synchronous-lockstep adversary of the paper's Section 1.3: all
/// agents advance in rounds, one primitive each per round, in a fixed
/// order. Against deterministic agents started in symmetric states on a
/// symmetric instance, this scheduler preserves the symmetry forever —
/// the engine's step budget then exposes the livelock.
#[derive(Debug, Default)]
pub struct LockstepScheduler {
    served_this_round: Vec<usize>,
}

impl Scheduler for LockstepScheduler {
    fn pick(&mut self, ready: &[usize], _tick: u64) -> usize {
        if let Some(&a) = ready.iter().find(|a| !self.served_this_round.contains(a)) {
            self.served_this_round.push(a);
            return a;
        }
        // Everyone ready has been served: new round.
        self.served_this_round.clear();
        let a = ready[0];
        self.served_this_round.push(a);
        a
    }
    fn name(&self) -> &'static str {
        "lockstep"
    }
}

/// An adversarial scheduler that starves the highest-id agents as long
/// as lower-id ones are ready (a maximally unfair—but still weakly
/// fair—policy, useful for robustness tests).
#[derive(Debug, Default)]
pub struct GreedyLowestScheduler;

impl Scheduler for GreedyLowestScheduler {
    fn pick(&mut self, ready: &[usize], _tick: u64) -> usize {
        ready[0]
    }
    fn name(&self) -> &'static str {
        "greedy-lowest"
    }
}

/// Replays a recorded (or hand-written) grant sequence: at tick `t` it
/// picks the `t`-th agent of the schedule. Because a run is a
/// deterministic function of the grant sequence, replaying a recorded
/// schedule reproduces the original execution bit-for-bit.
///
/// Two divergence modes:
///
/// * **strict** ([`ReplayScheduler::strict`]) — panics if the scheduled
///   agent is not ready, i.e. the schedule does not correspond to a real
///   execution of this protocol on this instance. Regression tests use
///   this to catch silent drift.
/// * **lenient** ([`ReplayScheduler::new`]) — falls back to the lowest
///   ready agent and records the first divergent tick; the trace
///   shrinker relies on this to evaluate edited schedules.
///
/// Once the schedule is exhausted the scheduler keeps granting the
/// lowest ready agent (so runs longer than the recording still finish).
#[derive(Debug, Clone)]
pub struct ReplayScheduler {
    schedule: Vec<usize>,
    pos: usize,
    strict: bool,
    diverged: Option<u64>,
}

impl ReplayScheduler {
    /// Lenient replayer for `schedule`.
    pub fn new(schedule: Vec<usize>) -> ReplayScheduler {
        ReplayScheduler {
            schedule,
            pos: 0,
            strict: false,
            diverged: None,
        }
    }

    /// Strict replayer: panic on the first divergence.
    pub fn strict(schedule: Vec<usize>) -> ReplayScheduler {
        ReplayScheduler {
            schedule,
            pos: 0,
            strict: true,
            diverged: None,
        }
    }

    /// First tick where the scheduled agent was not ready, if any.
    pub fn diverged_at(&self) -> Option<u64> {
        self.diverged
    }

    /// Whether the run consumed the whole schedule.
    pub fn exhausted(&self) -> bool {
        self.pos >= self.schedule.len()
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, ready: &[usize], tick: u64) -> usize {
        if self.pos < self.schedule.len() {
            let want = self.schedule[self.pos];
            self.pos += 1;
            if ready.contains(&want) {
                return want;
            }
            if self.strict {
                panic!(
                    "replay diverged at tick {tick}: scheduled agent {want} \
                     is not ready (ready: {ready:?})"
                );
            }
            if self.diverged.is_none() {
                self.diverged = Some(tick);
            }
        }
        ready[0]
    }
    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Convenience constructor used by configuration code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Seeded random.
    Random,
    /// Round-robin.
    RoundRobin,
    /// Synchronous lockstep (the §1.3 adversary).
    Lockstep,
    /// Greedy lowest id.
    GreedyLowest,
}

impl Policy {
    /// Instantiate the scheduler (the seed is used by `Random` only).
    pub fn build(self, seed: u64) -> Box<dyn Scheduler> {
        match self {
            Policy::Random => Box::new(RandomScheduler::new(seed)),
            Policy::RoundRobin => Box::new(RoundRobinScheduler::default()),
            Policy::Lockstep => Box::new(LockstepScheduler::default()),
            Policy::GreedyLowest => Box::new(GreedyLowestScheduler),
        }
    }

    /// The policy's report name (same as its scheduler's
    /// [`Scheduler::name`]).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Random => "random",
            Policy::RoundRobin => "round-robin",
            Policy::Lockstep => "lockstep",
            Policy::GreedyLowest => "greedy-lowest",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_reproducible() {
        let ready = vec![0, 1, 2, 3];
        let mut a = RandomScheduler::new(9);
        let mut b = RandomScheduler::new(9);
        for t in 0..50 {
            assert_eq!(a.pick(&ready, t), b.pick(&ready, t));
        }
    }

    #[test]
    fn round_robin_cycles() {
        let ready = vec![0, 1, 2];
        let mut s = RoundRobinScheduler::default();
        let picks: Vec<usize> = (0..6).map(|t| s.pick(&ready, t)).collect();
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn lockstep_serves_all_each_round() {
        let ready = vec![0, 1, 2];
        let mut s = LockstepScheduler::default();
        let picks: Vec<usize> = (0..6).map(|t| s.pick(&ready, t)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn lockstep_handles_shrinking_ready_set() {
        let mut s = LockstepScheduler::default();
        assert_eq!(s.pick(&[0, 1], 0), 0);
        assert_eq!(s.pick(&[0, 1], 1), 1);
        // Agent 1 left; new round starts with 0.
        assert_eq!(s.pick(&[0], 2), 0);
    }

    #[test]
    fn greedy_always_lowest() {
        let mut s = GreedyLowestScheduler;
        assert_eq!(s.pick(&[2, 5, 9], 0), 2);
    }

    #[test]
    fn policy_builders() {
        for p in [
            Policy::Random,
            Policy::RoundRobin,
            Policy::Lockstep,
            Policy::GreedyLowest,
        ] {
            let s = p.build(1);
            assert_eq!(s.name(), p.name(), "Policy::name matches its scheduler");
        }
    }

    #[test]
    fn replay_follows_schedule_then_falls_back() {
        let mut s = ReplayScheduler::new(vec![2, 0, 2]);
        assert_eq!(s.pick(&[0, 2], 1), 2);
        assert_eq!(s.pick(&[0, 2], 2), 0);
        assert_eq!(s.pick(&[0, 2], 3), 2);
        assert!(s.exhausted());
        // Schedule spent: lowest ready from now on.
        assert_eq!(s.pick(&[1, 3], 4), 1);
        assert_eq!(s.diverged_at(), None);
    }

    #[test]
    fn replay_lenient_records_divergence() {
        let mut s = ReplayScheduler::new(vec![5, 0]);
        assert_eq!(s.pick(&[0, 1], 1), 0, "agent 5 not ready → lowest ready");
        assert_eq!(s.diverged_at(), Some(1));
        assert_eq!(s.pick(&[0, 1], 2), 0, "rest of schedule still honored");
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn replay_strict_panics_on_divergence() {
        let mut s = ReplayScheduler::strict(vec![5]);
        s.pick(&[0, 1], 1);
    }
}
