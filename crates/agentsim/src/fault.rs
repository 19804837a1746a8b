//! Deterministic fault injection: seeded plans that crash, delay, and
//! restart agents at whiteboard-access boundaries.
//!
//! A [`FaultPlan`] is *schedule-addressed*: every agent counts its own
//! primitive operations (moves, board reads, board read-modify-writes,
//! and wait entries) with a monotone per-agent counter, and a
//! [`FaultEvent`] fires when that counter reaches the event's `at_op`.
//! The counter depends only on the agent's own program order, never on
//! the interleaving, so one plan addresses the same boundary under every
//! schedule and on both engines, and replaying a plan under a recorded
//! schedule reproduces the run bit-for-bit.
//!
//! The fault model is the classical *crash with persistent whiteboards*:
//! a crashed agent loses its pending operation and its entire volatile
//! memory (position, entry port, local maps) but every sign it wrote
//! stays on the boards; the engine restarts it at its home-base after a
//! bounded backoff, with only the incarnation index
//! ([`crate::MobileCtx::incarnation`]) distinguishing the restart from a
//! fresh start. Recovery correctness then rests on the protocol's signs
//! being monotone (ELECT never erases), which is exactly what the
//! paper's whiteboard discipline provides.

use crate::json::{envelope, escape, get, parse, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// What an injected fault does to the agent at the addressed boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the agent *before* the addressed operation is performed
    /// (the pending move or board access is lost). The engine restarts
    /// the agent at its home-base after `restart_after` extra stall
    /// ticks on top of the recovery policy's exponential backoff.
    Crash {
        /// Extra stall ticks before the restart re-enters the protocol.
        restart_after: u64,
    },
    /// Stall the agent for `ticks` scheduler grants before the addressed
    /// operation proceeds — the "delayed pending move" of the fault
    /// model.
    Delay {
        /// Stall length in engine ticks.
        ticks: u64,
    },
}

/// One injected fault: `action` fires when `agent`'s own operation
/// counter reaches `at_op` (1-based: `at_op == 1` addresses the agent's
/// first primitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The agent the fault targets.
    pub agent: usize,
    /// The 1-based per-agent operation index the fault fires at.
    pub at_op: u64,
    /// What happens there.
    pub action: FaultAction,
}

/// How the engine restarts crashed agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// First-restart backoff in engine ticks; doubles per incarnation.
    pub backoff_base: u64,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: u64,
    /// Restart budget per agent. An agent crashed more than this many
    /// times is *not* restarted and terminates with
    /// `Interrupted(Crashed)` — the "agent never comes back" regime.
    pub max_restarts: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            backoff_base: 1,
            backoff_cap: 64,
            max_restarts: 16,
        }
    }
}

impl RecoveryPolicy {
    /// Bounded exponential backoff for the given (1-based) incarnation:
    /// `backoff_base << (incarnation - 1)`, capped at `backoff_cap`.
    pub fn backoff(&self, incarnation: u64) -> u64 {
        let exp = incarnation.saturating_sub(1).min(63) as u32;
        self.backoff_base
            .checked_shl(exp)
            .unwrap_or(u64::MAX)
            .min(self.backoff_cap)
    }
}

/// A deterministic fault schedule for one run.
///
/// The empty plan (`FaultPlan::default()`) injects nothing and is free:
/// engines skip every fault check that could perturb a crash-free run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The injected faults, in any order (each agent's events are sorted
    /// by `at_op` when the plan is armed).
    pub events: Vec<FaultEvent>,
    /// Restart/backoff discipline for crashed agents.
    pub recovery: RecoveryPolicy,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether any event is a crash (protocols arm recovery journaling
    /// exactly when this holds; see [`crate::MobileCtx::crash_faults_armed`]).
    pub fn has_crashes(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.action, FaultAction::Crash { .. }))
    }

    /// Generate a seeded random plan for `agents` agents whose operation
    /// counters are expected to reach about `horizon` ops: `crashes`
    /// crash events and `delays` delay events, addressed uniformly over
    /// `1..=horizon`. Crashes per agent are capped at the recovery
    /// policy's `max_restarts`, so every crashed agent eventually
    /// restarts — the regime the acceptance oracle covers.
    pub fn generate(seed: u64, agents: usize, horizon: u64, crashes: usize, delays: usize) -> Self {
        assert!(agents > 0, "a plan needs at least one agent to target");
        let horizon = horizon.max(1);
        let recovery = RecoveryPolicy::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_FA17);
        let mut events = Vec::with_capacity(crashes + delays);
        let mut crash_count = vec![0u64; agents];
        for _ in 0..crashes {
            let agent = rng.gen_range(0..agents);
            if crash_count[agent] >= recovery.max_restarts {
                continue;
            }
            crash_count[agent] += 1;
            events.push(FaultEvent {
                agent,
                at_op: rng.gen_range(1..=horizon),
                action: FaultAction::Crash {
                    restart_after: rng.gen_range(0..4),
                },
            });
        }
        for _ in 0..delays {
            events.push(FaultEvent {
                agent: rng.gen_range(0..agents),
                at_op: rng.gen_range(1..=horizon),
                action: FaultAction::Delay {
                    ticks: rng.gen_range(1..=4),
                },
            });
        }
        FaultPlan { events, recovery }
    }

    /// This agent's events, sorted by firing position (stable, so two
    /// events at the same `at_op` fire in plan order).
    pub fn for_agent(&self, agent: usize) -> Vec<(u64, FaultAction)> {
        let mut evs: Vec<(u64, FaultAction)> = self
            .events
            .iter()
            .filter(|e| e.agent == agent)
            .map(|e| (e.at_op, e.action))
            .collect();
        evs.sort_by_key(|&(at, _)| at);
        evs
    }

    /// Serialize as a `qelect-faults/1` plan document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema\": {},\n  \"kind\": \"plan\",\n",
            escape(envelope::FAULTS)
        ));
        out.push_str(&format!(
            "  \"recovery\": {{\"backoff_base\": {}, \"backoff_cap\": {}, \"max_restarts\": {}}},\n",
            self.recovery.backoff_base, self.recovery.backoff_cap, self.recovery.max_restarts
        ));
        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            match e.action {
                FaultAction::Crash { restart_after } => out.push_str(&format!(
                    "{{\"agent\": {}, \"at_op\": {}, \"crash\": {{\"restart_after\": {}}}}}",
                    e.agent, e.at_op, restart_after
                )),
                FaultAction::Delay { ticks } => out.push_str(&format!(
                    "{{\"agent\": {}, \"at_op\": {}, \"delay\": {{\"ticks\": {}}}}}",
                    e.agent, e.at_op, ticks
                )),
            }
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parse a `qelect-faults/1` plan document (schema-checked through
    /// the shared envelope module).
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let value = parse(text)?;
        let obj = value.as_object().ok_or("fault plan must be an object")?;
        envelope::check(obj, envelope::FAULTS)?;
        if get(obj, "kind").and_then(Value::as_str) != Some("plan") {
            return Err("fault document is not a plan (\"kind\" != \"plan\")".into());
        }
        let num = |o: &[(String, Value)], k: &str| -> Result<u64, String> {
            get(o, k)
                .and_then(Value::as_num)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let rec = get(obj, "recovery")
            .and_then(Value::as_object)
            .ok_or("missing \"recovery\"")?;
        let recovery = RecoveryPolicy {
            backoff_base: num(rec, "backoff_base")?,
            backoff_cap: num(rec, "backoff_cap")?,
            max_restarts: num(rec, "max_restarts")?,
        };
        let mut events = Vec::new();
        for item in get(obj, "events")
            .and_then(Value::as_array)
            .ok_or("missing \"events\"")?
        {
            let e = item.as_object().ok_or("event must be an object")?;
            let action = if let Some(c) = get(e, "crash").and_then(Value::as_object) {
                FaultAction::Crash {
                    restart_after: num(c, "restart_after")?,
                }
            } else if let Some(d) = get(e, "delay").and_then(Value::as_object) {
                FaultAction::Delay {
                    ticks: num(d, "ticks")?,
                }
            } else {
                return Err("event carries neither \"crash\" nor \"delay\"".into());
            };
            events.push(FaultEvent {
                agent: num(e, "agent")? as usize,
                at_op: num(e, "at_op")?,
                action,
            });
        }
        Ok(FaultPlan { events, recovery })
    }
}

/// Shrink a failing plan to a locally minimal one, ddmin-style (the
/// fault-space analogue of
/// [`shrink_schedule`](crate::explore::shrink_schedule)): repeatedly
/// delete halving-size chunks of events while `still_fails` keeps
/// holding, until no single event can be removed.
pub fn shrink_plan(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut best = plan.clone();
    let mut chunk = (best.events.len() / 2).max(1);
    while !best.events.is_empty() {
        let mut progressed = false;
        let mut start = 0;
        while start < best.events.len() {
            let end = (start + chunk).min(best.events.len());
            let mut candidate = best.clone();
            candidate.events.drain(start..end);
            if still_fails(&candidate) {
                best = candidate;
                progressed = true;
                // Re-test from the same offset: the tail shifted left.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progressed {
            break;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }
    best
}

/// Per-agent runtime cursor over a plan: the monotone operation counter
/// plus the agent's pending events and incarnation index. Engines own
/// one per agent.
#[derive(Debug, Clone)]
pub struct FaultClock {
    events: Vec<(u64, FaultAction)>,
    next: usize,
    ops: u64,
    incarnation: u64,
    pending_restart: u64,
}

impl FaultClock {
    /// The cursor for `agent` under `plan`.
    pub fn new(plan: &FaultPlan, agent: usize) -> FaultClock {
        FaultClock {
            events: plan.for_agent(agent),
            next: 0,
            ops: 0,
            incarnation: 0,
            pending_restart: 0,
        }
    }

    /// An inert cursor (no plan).
    pub fn idle() -> FaultClock {
        FaultClock {
            events: Vec::new(),
            next: 0,
            ops: 0,
            incarnation: 0,
            pending_restart: 0,
        }
    }

    /// Advance the operation counter past one boundary.
    pub fn advance(&mut self) {
        self.ops += 1;
    }

    /// The next action due at the current counter value, consuming it.
    /// Call repeatedly until `None` — several events may share an
    /// `at_op`.
    pub fn take_due(&mut self) -> Option<FaultAction> {
        match self.events.get(self.next) {
            Some(&(at, action)) if at == self.ops => {
                self.next += 1;
                Some(action)
            }
            _ => None,
        }
    }

    /// Record that a crash fired with the given `restart_after`; the
    /// engine reads it back with [`FaultClock::take_restart_stall`].
    pub fn note_crash(&mut self, restart_after: u64) {
        self.pending_restart = restart_after;
    }

    /// The crash's extra stall, cleared on read.
    pub fn take_restart_stall(&mut self) -> u64 {
        std::mem::take(&mut self.pending_restart)
    }

    /// Bump the incarnation index for a restart.
    pub fn restart(&mut self) {
        self.incarnation += 1;
    }

    /// Current incarnation (0 = original).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

/// Aggregated fault activity of one run (a plain-data snapshot of
/// [`FaultStats`], carried in [`crate::metrics::Metrics::faults`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Crash events that fired.
    pub crashes: u64,
    /// Restarts the engine performed.
    pub restarts: u64,
    /// Agents whose restart budget ran out (terminated crashed).
    pub aborted: u64,
    /// Pending operations lost to crashes (one per crash, by the
    /// crash-before-op semantics).
    pub lost_ops: u64,
    /// Stall ticks spent on delay events.
    pub delay_ticks: u64,
    /// Stall ticks spent on restart backoff.
    pub backoff_ticks: u64,
}

impl FaultSummary {
    /// Whether the run saw any fault activity at all.
    pub fn any(&self) -> bool {
        *self != FaultSummary::default()
    }
}

/// Engine-side atomic accumulator behind [`FaultSummary`].
#[derive(Debug, Default)]
pub struct FaultStats {
    /// See [`FaultSummary::crashes`].
    pub crashes: AtomicU64,
    /// See [`FaultSummary::restarts`].
    pub restarts: AtomicU64,
    /// See [`FaultSummary::aborted`].
    pub aborted: AtomicU64,
    /// See [`FaultSummary::lost_ops`].
    pub lost_ops: AtomicU64,
    /// See [`FaultSummary::delay_ticks`].
    pub delay_ticks: AtomicU64,
    /// See [`FaultSummary::backoff_ticks`].
    pub backoff_ticks: AtomicU64,
}

impl FaultStats {
    /// Plain-data snapshot. The engines take it only after every agent
    /// thread has joined, so no writer is live and the counters (one
    /// crash bumps `crashes` and `lost_ops` together) are never torn.
    pub fn snapshot(&self) -> FaultSummary {
        FaultSummary {
            crashes: self.crashes.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            lost_ops: self.lost_ops.load(Ordering::Relaxed),
            delay_ticks: self.delay_ticks.load(Ordering::Relaxed),
            backoff_ticks: self.backoff_ticks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(agent: usize, at_op: u64) -> FaultEvent {
        FaultEvent {
            agent,
            at_op,
            action: FaultAction::Crash { restart_after: 0 },
        }
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let a = FaultPlan::generate(42, 3, 100, 5, 4);
        let b = FaultPlan::generate(42, 3, 100, 5, 4);
        assert_eq!(a, b, "same seed ⇒ same plan");
        assert_ne!(a, FaultPlan::generate(43, 3, 100, 5, 4));
        assert!(a.has_crashes());
        for e in &a.events {
            assert!(e.agent < 3);
            assert!((1..=100).contains(&e.at_op));
        }
        // Crashes per agent never exceed the restart budget.
        for agent in 0..3 {
            let crashes = a
                .events
                .iter()
                .filter(|e| e.agent == agent && matches!(e.action, FaultAction::Crash { .. }))
                .count() as u64;
            assert!(crashes <= a.recovery.max_restarts);
        }
    }

    #[test]
    fn clock_fires_events_in_op_order() {
        let plan = FaultPlan {
            events: vec![
                crash(1, 5),
                FaultEvent {
                    agent: 1,
                    at_op: 2,
                    action: FaultAction::Delay { ticks: 3 },
                },
                crash(0, 1),
            ],
            recovery: RecoveryPolicy::default(),
        };
        let mut c1 = FaultClock::new(&plan, 1);
        let mut fired = Vec::new();
        for _ in 0..6 {
            c1.advance();
            while let Some(a) = c1.take_due() {
                fired.push((c1.ops(), a));
            }
        }
        assert_eq!(
            fired,
            vec![
                (2, FaultAction::Delay { ticks: 3 }),
                (5, FaultAction::Crash { restart_after: 0 }),
            ]
        );
        // Agent 0's clock only sees its own event.
        let mut c0 = FaultClock::new(&plan, 0);
        c0.advance();
        assert_eq!(c0.take_due(), Some(FaultAction::Crash { restart_after: 0 }));
        assert_eq!(c0.take_due(), None);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let pol = RecoveryPolicy {
            backoff_base: 2,
            backoff_cap: 10,
            max_restarts: 16,
        };
        assert_eq!(pol.backoff(1), 2);
        assert_eq!(pol.backoff(2), 4);
        assert_eq!(pol.backoff(3), 8);
        assert_eq!(pol.backoff(4), 10, "capped");
        assert_eq!(pol.backoff(60), 10, "no overflow");
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan::generate(7, 4, 50, 3, 2);
        let text = plan.to_json();
        assert!(text.contains("qelect-faults/1"));
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        // The empty plan round-trips too.
        let none = FaultPlan::none();
        assert_eq!(FaultPlan::from_json(&none.to_json()).unwrap(), none);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let doc = r#"{"schema": "qelect-audit/1", "kind": "plan", "recovery": {"backoff_base":1,"backoff_cap":64,"max_restarts":16}, "events": []}"#;
        assert!(FaultPlan::from_json(doc).is_err());
        let doc = r#"{"kind": "plan", "events": []}"#;
        assert!(FaultPlan::from_json(doc).is_err(), "schema is mandatory");
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        let mut plan = FaultPlan::generate(9, 4, 100, 0, 8);
        plan.events.push(crash(2, 33)); // the one event that "fails"
        let culprit = |p: &FaultPlan| {
            p.events
                .iter()
                .any(|e| e.agent == 2 && matches!(e.action, FaultAction::Crash { .. }))
        };
        let small = shrink_plan(&plan, culprit);
        assert_eq!(small.events.len(), 1);
        assert_eq!(small.events[0].agent, 2);
        assert!(matches!(small.events[0].action, FaultAction::Crash { .. }));
    }

    #[test]
    fn summary_any_discriminates() {
        assert!(!FaultSummary::default().any());
        let stats = FaultStats::default();
        stats.crashes.fetch_add(1, Ordering::Relaxed);
        assert!(stats.snapshot().any());
    }
}
