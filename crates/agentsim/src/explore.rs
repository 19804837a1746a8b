//! Systematic schedule exploration — the adversary, exhaustively, then
//! at swarm scale.
//!
//! The deterministic engines make a run a pure function of the grant
//! sequence, so the space of behaviors on an instance is exactly the
//! tree of scheduler choices. This module walks that tree behind one
//! registry-native entry point, [`ExploreSession`]:
//!
//! * [`GuidedScheduler`] replays a *branch prefix* and logs every
//!   decision point (which agents were ready, which branch was taken,
//!   how many preemptions had been spent);
//! * [`ExploreSession::explore`] first performs a depth-first search
//!   over branch prefixes under an **iterative preemption bound**
//!   (Chess-style context bounding: most concurrency bugs manifest with
//!   very few preemptive switches, so bounding them tames the
//!   exponential tree while keeping the bug-finding power);
//! * when the bounded tree is too large for the DFS budget, exploration
//!   continues as a **coverage-guided swarm**: work-stealing workers run
//!   seeded randomized schedules, every run is fingerprinted by its
//!   phase-interleaving [`signature`](crate::coverage), and schedules
//!   that reached *novel* signatures join a frontier whose prefixes are
//!   spliced into later rounds — the budget concentrates on
//!   interleavings not seen before;
//! * counterexamples flow through [`shrink_schedule`] (chunked deletion,
//!   then agent-run coalescing) so committed corpus witnesses stay
//!   readable.
//!
//! **Determinism contract.** The swarm proceeds in rounds; each round's
//! task list (seeds and splice prefixes) is a pure function of the
//! round index and the frontier state at the round boundary, and worker
//! results are re-assembled in task order before any state is updated.
//! Work stealing therefore only changes *when* a task executes, never
//! what is explored: the covered-signature set, the counterexample list
//! and every counter are identical for any `workers` count, and a
//! single-worker run is byte-deterministic end to end (pinned by
//! property tests).
//!
//! Branch encoding: at each decision the candidates are canonicalized
//! as *continue the last agent first* (`[last] ++ others ascending`),
//! so branch index 0 is always the preemption-free choice and any
//! branch > 0 taken while the last agent was still ready costs one
//! preemption. The DFS therefore enumerates exactly the schedules with
//! at most `preemption_bound` preemptions.

use crate::coverage::{signature_with, CoverageMap, CoverageStats};
use crate::gated::{self, RunReport};
use crate::registry::{ExploreSpec, ProtocolEntry};
use crate::run::{Engine, RunConfig, RunError};
use crate::sched::{RandomScheduler, ReplayScheduler, Scheduler};
use crate::trace::Trace;
use parking_lot::Mutex;
use qelect_graph::Bicolored;
use std::collections::{HashSet, VecDeque};

/// One logged decision point of a [`GuidedScheduler`] run.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Number of candidate branches at this point.
    pub n_candidates: usize,
    /// The branch taken (0 = continue the last agent / lowest ready).
    pub branch: usize,
    /// Whether the previously-run agent was still ready (so branches
    /// > 0 cost a preemption).
    pub last_ready: bool,
    /// Preemptions spent strictly before this decision.
    pub preemptions_before: usize,
}

/// A scheduler steered by a branch prefix; decisions past the prefix
/// default to branch 0 (run the last agent while it stays ready).
#[derive(Debug)]
pub struct GuidedScheduler {
    prefix: Vec<usize>,
    /// The decision log of the last run (one entry per grant).
    pub log: Vec<Decision>,
    last: Option<usize>,
    preemptions: usize,
}

impl GuidedScheduler {
    /// A scheduler following `prefix`, then branch 0 forever.
    pub fn new(prefix: Vec<usize>) -> GuidedScheduler {
        GuidedScheduler {
            prefix,
            log: Vec::new(),
            last: None,
            preemptions: 0,
        }
    }

    /// Candidates in canonical order: the last-run agent first (if still
    /// ready), then the remaining ready agents ascending.
    fn candidates(&self, ready: &[usize]) -> (Vec<usize>, bool) {
        let last_ready = self.last.is_some_and(|l| ready.contains(&l));
        let mut cands = Vec::with_capacity(ready.len());
        if last_ready {
            cands.push(self.last.unwrap());
        }
        cands.extend(ready.iter().copied().filter(|&a| Some(a) != self.last));
        (cands, last_ready)
    }
}

impl Scheduler for GuidedScheduler {
    fn pick(&mut self, ready: &[usize], _tick: u64) -> usize {
        let (cands, last_ready) = self.candidates(ready);
        let i = self.log.len();
        let branch = if i < self.prefix.len() {
            self.prefix[i]
        } else {
            0
        };
        assert!(
            branch < cands.len(),
            "guided prefix branch {branch} out of range at decision {i} \
             ({} candidates) — the prefix does not match this execution",
            cands.len()
        );
        self.log.push(Decision {
            n_candidates: cands.len(),
            branch,
            last_ready,
            preemptions_before: self.preemptions,
        });
        if last_ready && branch > 0 {
            self.preemptions += 1;
        }
        let pick = cands[branch];
        self.last = Some(pick);
        pick
    }
    fn name(&self) -> &'static str {
        "guided-dfs"
    }
}

/// Wraps any scheduler and records the grant sequence it produced —
/// the scheduler-side equivalent of `record_trace`, cheap enough for
/// the million-schedule hot loop (no per-primitive event log).
pub struct RecordingScheduler<'s> {
    inner: &'s mut dyn Scheduler,
    /// The grants picked so far (agent index per scheduler step).
    pub log: Vec<usize>,
}

impl<'s> RecordingScheduler<'s> {
    /// Record on top of `inner`.
    pub fn new(inner: &'s mut dyn Scheduler) -> RecordingScheduler<'s> {
        RecordingScheduler {
            inner,
            log: Vec::new(),
        }
    }
}

impl Scheduler for RecordingScheduler<'_> {
    fn pick(&mut self, ready: &[usize], tick: u64) -> usize {
        let pick = self.inner.pick(ready, tick);
        self.log.push(pick);
        pick
    }
    fn name(&self) -> &'static str {
        "recording"
    }
}

/// Replays a frontier schedule's prefix (lenient: the first divergence
/// abandons the rest), then continues with seeded random picks — the
/// swarm's mutation operator: "reach a novel interleaving, then explore
/// around it".
#[derive(Debug)]
struct SpliceScheduler {
    prefix: Vec<usize>,
    pos: usize,
    rng: RandomScheduler,
}

impl SpliceScheduler {
    fn new(prefix: Vec<usize>, seed: u64) -> SpliceScheduler {
        SpliceScheduler {
            prefix,
            pos: 0,
            rng: RandomScheduler::new(seed),
        }
    }
}

impl Scheduler for SpliceScheduler {
    fn pick(&mut self, ready: &[usize], tick: u64) -> usize {
        if self.pos < self.prefix.len() {
            let want = self.prefix[self.pos];
            self.pos += 1;
            if ready.contains(&want) {
                return want;
            }
            // Diverged: the rest of the prefix described a different
            // execution — fall through to random from here on.
            self.pos = self.prefix.len();
        }
        self.rng.pick(ready, tick)
    }
    fn name(&self) -> &'static str {
        "swarm-splice"
    }
}

/// Next DFS prefix after a run logged `log`, honoring the preemption
/// bound; `None` when the bounded tree is exhausted.
fn next_prefix(log: &[Decision], bound: usize) -> Option<Vec<usize>> {
    for i in (0..log.len()).rev() {
        let d = &log[i];
        let next_branch = d.branch + 1;
        if next_branch >= d.n_candidates {
            continue;
        }
        // All branches > 0 cost one preemption when the last agent was
        // ready; if the first untried one is over budget they all are.
        let cost = usize::from(d.last_ready && next_branch > 0);
        if d.preemptions_before + cost > bound {
            continue;
        }
        let mut prefix: Vec<usize> = log[..i].iter().map(|d| d.branch).collect();
        prefix.push(next_branch);
        return Some(prefix);
    }
    None
}

/// Exploration budget and strategy knobs.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum preemptive context switches per schedule (the Chess
    /// bound). Bound 0 explores only cooperative schedules.
    pub preemption_bound: usize,
    /// DFS schedule budget: how many guided schedules to run before
    /// giving up on exhausting the bounded tree.
    pub max_schedules: usize,
    /// Coverage-guided swarm schedules to run *in addition* when the
    /// DFS budget runs out without completing the tree. 0 disables the
    /// swarm.
    pub swarm_runs: usize,
    /// Base seed for swarm schedulers.
    pub swarm_seed: u64,
    /// Worker threads for the swarm phase (1 = fully sequential). The
    /// explored set and every reported number are identical for any
    /// value — workers only change wall-clock.
    pub workers: usize,
    /// How many distinct-signature counterexamples to keep (at least 1
    /// is always kept). Only protocols whose violations are *expected*
    /// keep exploring after a hit; a bug-hunting exploration stops at
    /// the first counterexample regardless.
    pub max_counterexamples: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            preemption_bound: 2,
            max_schedules: 1000,
            swarm_runs: 64,
            swarm_seed: 0xADE5_ADE5,
            workers: 1,
            max_counterexamples: 1,
        }
    }
}

/// A schedule that violated the property, with the violation message
/// and the full report of the violating run.
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The violating grant sequence (replayable).
    pub schedule: Vec<usize>,
    /// The property's error message.
    pub violation: String,
    /// The violating run's report (re-recorded with the full event log).
    pub report: RunReport,
}

impl CounterExample {
    /// Package the counterexample as a labeled [`Trace`] (instance
    /// metadata comes from the caller, which knows the run config).
    pub fn to_trace(&self, seed: u64, nodes: usize, label: &str) -> Trace {
        Trace {
            label: format!("{label}: {}", self.violation),
            seed,
            policy: "guided-dfs".into(),
            agents: self.report.outcomes.len(),
            nodes,
            schedule: self.schedule.clone(),
            events: self.report.events.clone(),
        }
    }
}

/// Coverage summary of an exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules actually executed (DFS + swarm).
    pub schedules_explored: usize,
    /// Schedules executed by the bounded DFS phase.
    pub dfs_schedules: usize,
    /// Schedules executed by the coverage-guided swarm phase.
    pub swarm_schedules: usize,
    /// Coverage counters (tear-free snapshot taken at the end).
    pub coverage: CoverageStats,
    /// The covered signatures, sorted ascending — the set the
    /// worker-count determinism contract is stated over.
    pub covered: Vec<u64>,
    /// Longest run seen, in scheduler ticks.
    pub max_ticks: u64,
    /// Whether the DFS exhausted the whole bounded tree (a *proof* that
    /// no schedule within the preemption bound violates the property).
    pub complete: bool,
    /// Whether the coverage-guided swarm phase ran.
    pub swarm_used: bool,
    /// Total violating runs observed (every violation counts, including
    /// signature-duplicates of an already-kept counterexample).
    pub violations: usize,
    /// Distinct-signature counterexamples, in discovery order, capped at
    /// [`ExploreConfig::max_counterexamples`].
    pub counterexamples: Vec<CounterExample>,
}

impl ExploreReport {
    /// `true` iff no violation was found (which is a verification only
    /// when [`ExploreReport::complete`] also holds).
    pub fn passed(&self) -> bool {
        self.violations == 0
    }

    /// The first counterexample found, if any.
    pub fn counterexample(&self) -> Option<&CounterExample> {
        self.counterexamples.first()
    }
}

/// Tasks per swarm round. Rounds are the determinism barrier: the task
/// list is fixed at the round boundary, results are folded in task
/// order. Large enough to amortize worker spawn, small enough that
/// frontier feedback reaches the next round quickly.
const SWARM_ROUND: usize = 1024;

/// Frontier capacity (novel schedules eligible for splicing). Oldest
/// entries are evicted first.
const FRONTIER_CAP: usize = 256;

type ExploreDriver<'a> = Box<
    dyn Fn(&gated::RunConfig, Engine, &mut dyn Scheduler) -> Result<RunReport, RunError>
        + Sync
        + 'a,
>;
type ExploreProperty<'a> = Box<dyn Fn(&RunReport) -> Result<(), String> + Sync + 'a>;

struct SwarmTask {
    seed: u64,
    prefix: Vec<usize>,
}

struct SwarmOutcome {
    schedule: Vec<usize>,
    sig: u64,
    ticks: u64,
    violation: Option<String>,
}

/// A configured exploration of one protocol's schedule space on one
/// instance — the registry-native replacement for the old closure-based
/// `explore_schedules` free function.
///
/// Build it with [`ExploreSession::from_entry`] (any registry protocol
/// whose `caps.explorable` is set), or [`ExploreSession::with_driver`]
/// for bespoke drivers (fault-injection self-tests). The session owns
/// the run configuration; [`ExploreSession::explore`] runs the bounded
/// DFS + coverage-guided swarm, and the shrinking/replay helpers
/// ([`shrink`](ExploreSession::shrink),
/// [`replay_fails`](ExploreSession::replay_fails),
/// [`rerecord`](ExploreSession::rerecord)) evaluate candidate schedules
/// under the same driver.
pub struct ExploreSession<'a> {
    /// Hot-loop config: trace recording off (grants are recorded on the
    /// scheduler side instead).
    hot_cfg: gated::RunConfig,
    /// Artifact config: full trace + event recording, for
    /// counterexamples and emitted witnesses.
    full_cfg: gated::RunConfig,
    engine: Engine,
    violation_expected: bool,
    driver: ExploreDriver<'a>,
    property: ExploreProperty<'a>,
}

impl<'a> ExploreSession<'a> {
    /// A session for a registry protocol: `entry` must be explorable and
    /// support `cfg.engine`. The engine slice of `cfg` (seed, policy, step budget, scrambling)
    /// configures every run of the session.
    pub fn from_entry(
        entry: &'static ProtocolEntry,
        bc: &'a Bicolored,
        cfg: &RunConfig,
    ) -> Result<ExploreSession<'a>, String> {
        let spec = entry.explore.ok_or_else(|| {
            format!(
                "protocol '{}' is not explorable (no schedule-space property to check)",
                entry.id
            )
        })?;
        if !entry.supports(cfg.engine) {
            return Err(format!(
                "protocol '{}' does not support engine '{}'",
                entry.id,
                cfg.engine.name()
            ));
        }
        Ok(ExploreSession::from_spec(
            spec,
            bc,
            cfg.to_gated(),
            cfg.engine,
        ))
    }

    /// A session directly from an [`ExploreSpec`] (the registry-native
    /// building block [`ExploreSession::from_entry`] wraps; callers that
    /// already hold a spec and have validated the engine use this).
    pub fn from_spec(
        spec: &'static ExploreSpec,
        bc: &'a Bicolored,
        run_cfg: gated::RunConfig,
        engine: Engine,
    ) -> ExploreSession<'a> {
        ExploreSession::with_driver(
            run_cfg,
            engine,
            spec.violation_expected,
            move |cfg: &gated::RunConfig, engine: Engine, sched: &mut dyn Scheduler| {
                (spec.run)(bc, cfg, engine, sched)
            },
            move |rep: &RunReport| (spec.property)(bc, rep),
        )
    }

    /// A session over a bespoke driver + property (used by the
    /// fault-injection self-tests, which explore deliberately broken
    /// protocol variants that have no registry entry).
    pub fn with_driver<F, P>(
        run_cfg: gated::RunConfig,
        engine: Engine,
        violation_expected: bool,
        driver: F,
        property: P,
    ) -> ExploreSession<'a>
    where
        F: Fn(&gated::RunConfig, Engine, &mut dyn Scheduler) -> Result<RunReport, RunError>
            + Sync
            + 'a,
        P: Fn(&RunReport) -> Result<(), String> + Sync + 'a,
    {
        ExploreSession {
            hot_cfg: gated::RunConfig {
                record_trace: false,
                ..run_cfg
            },
            full_cfg: gated::RunConfig {
                record_trace: true,
                ..run_cfg
            },
            engine,
            violation_expected,
            driver: Box::new(driver),
            property: Box::new(property),
        }
    }

    /// The engine every run of this session uses.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The session's master seed.
    pub fn seed(&self) -> u64 {
        self.full_cfg.seed
    }

    /// Whether violations are the expected demonstration (drives
    /// stop-at-first-hit vs. keep-exploring semantics).
    pub fn violation_expected(&self) -> bool {
        self.violation_expected
    }

    /// Evaluate the session's property on a report.
    pub fn check(&self, report: &RunReport) -> Result<(), String> {
        (self.property)(report)
    }

    fn run_hot(&self, sched: &mut dyn Scheduler) -> RunReport {
        (self.driver)(&self.hot_cfg, self.engine, sched).expect("explore driver failed")
    }

    /// Re-run `schedule` under strict replay with full recording — the
    /// counterexample packager (determinism makes this byte-exact).
    fn package(&self, schedule: Vec<usize>, violation: String) -> CounterExample {
        let mut replayer = ReplayScheduler::strict(schedule.clone());
        let report = (self.driver)(&self.full_cfg, self.engine, &mut replayer)
            .expect("explore driver failed while re-recording a counterexample");
        CounterExample {
            schedule,
            violation,
            report,
        }
    }

    /// Lenient replay of a candidate schedule; `true` iff the property
    /// still fails — the shrinker's oracle.
    pub fn replay_fails(&self, schedule: &[usize]) -> bool {
        let mut replayer = ReplayScheduler::new(schedule.to_vec());
        let rep = (self.driver)(&self.hot_cfg, self.engine, &mut replayer)
            .expect("explore driver failed");
        self.check(&rep).is_err()
    }

    /// ddmin-shrink a counterexample's schedule under this session's
    /// driver and property.
    pub fn shrink(&self, ce: &CounterExample) -> Vec<usize> {
        shrink_schedule(&ce.schedule, |cand| self.replay_fails(cand))
    }

    /// Lenient replay of `schedule` with full trace + event recording
    /// (for emitting witness artifacts from shrunk schedules).
    pub fn rerecord(&self, schedule: &[usize]) -> RunReport {
        let mut replayer = ReplayScheduler::new(schedule.to_vec());
        (self.driver)(&self.full_cfg, self.engine, &mut replayer).expect("explore driver failed")
    }

    /// One policy-scheduled run with full recording (the "reference run"
    /// artifact emitted when exploration finds no violation).
    pub fn record_reference(&self) -> RunReport {
        let mut sched = self.full_cfg.policy.build(self.full_cfg.seed);
        (self.driver)(&self.full_cfg, self.engine, sched.as_mut()).expect("explore driver failed")
    }

    /// Explore the schedule space: bounded DFS, then the coverage-guided
    /// swarm if the DFS budget ran out before the bounded tree did.
    ///
    /// Bug-hunting sessions (violations *not* expected) stop at the
    /// first counterexample; demonstration sessions keep exploring to
    /// the full budget, collecting up to `cfg.max_counterexamples`
    /// distinct-signature counterexamples.
    pub fn explore(&self, cfg: &ExploreConfig) -> ExploreReport {
        let cap = cfg.max_counterexamples.max(1);
        let coverage = CoverageMap::new();
        let mut violation_sigs: HashSet<u64> = HashSet::new();
        let mut report = ExploreReport::default();
        let mut bug_found = false;

        // Phase 1: bounded DFS (sequential — each prefix depends on the
        // previous run's decision log).
        let mut prefix: Vec<usize> = Vec::new();
        while report.dfs_schedules < cfg.max_schedules {
            let mut guided = GuidedScheduler::new(prefix.clone());
            let (schedule, rep) = {
                let mut rec = RecordingScheduler::new(&mut guided);
                let rep = self.run_hot(&mut rec);
                (std::mem::take(&mut rec.log), rep)
            };
            report.dfs_schedules += 1;
            let sig = signature_with(&schedule, &rep);
            coverage.observe(sig, rep.metrics.steps);
            if let Err(violation) = self.check(&rep) {
                report.violations += 1;
                if violation_sigs.insert(sig) && report.counterexamples.len() < cap {
                    report
                        .counterexamples
                        .push(self.package(schedule, violation));
                }
                if !self.violation_expected {
                    bug_found = true;
                    break;
                }
            }
            match next_prefix(&guided.log, cfg.preemption_bound) {
                Some(p) => prefix = p,
                None => {
                    report.complete = true;
                    break;
                }
            }
        }

        // Phase 2: coverage-guided swarm.
        if !report.complete && !bug_found && cfg.swarm_runs > 0 {
            report.swarm_used = true;
            self.swarm(cfg, cap, &coverage, &mut violation_sigs, &mut report);
        }

        report.schedules_explored = report.dfs_schedules + report.swarm_schedules;
        report.coverage = coverage.stats();
        report.max_ticks = report.coverage.max_ticks;
        report.covered = coverage.signatures();
        report
    }

    fn swarm(
        &self,
        cfg: &ExploreConfig,
        cap: usize,
        coverage: &CoverageMap,
        violation_sigs: &mut HashSet<u64>,
        report: &mut ExploreReport,
    ) {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let workers = cfg.workers.max(1);
        let mut frontier: VecDeque<Vec<usize>> = VecDeque::new();
        let mut done = 0usize;
        'rounds: while done < cfg.swarm_runs {
            let round = (cfg.swarm_runs - done).min(SWARM_ROUND);
            // The round's task list is a pure function of the global
            // task index and the frontier frozen at the round boundary.
            let tasks: Vec<SwarmTask> = (0..round)
                .map(|k| {
                    let g = (done + k) as u64;
                    let seed = cfg.swarm_seed.wrapping_add(g.wrapping_mul(GOLDEN));
                    // Alternate pure-random probes (breadth) with
                    // frontier-prefix mutations (depth around novelty).
                    let prefix = if frontier.is_empty() || g.is_multiple_of(2) {
                        Vec::new()
                    } else {
                        let src = &frontier[(g as usize / 2) % frontier.len()];
                        let cut = ((seed >> 17) as usize) % (src.len() + 1);
                        src[..cut].to_vec()
                    };
                    SwarmTask { seed, prefix }
                })
                .collect();
            // Fold results in task order — the determinism barrier.
            for outcome in self.run_round(tasks, workers) {
                done += 1;
                report.swarm_schedules += 1;
                let novel = coverage.observe(outcome.sig, outcome.ticks);
                if novel {
                    frontier.push_back(outcome.schedule.clone());
                    if frontier.len() > FRONTIER_CAP {
                        frontier.pop_front();
                    }
                }
                if let Some(violation) = outcome.violation {
                    report.violations += 1;
                    if violation_sigs.insert(outcome.sig) && report.counterexamples.len() < cap {
                        report
                            .counterexamples
                            .push(self.package(outcome.schedule, violation));
                    }
                    if !self.violation_expected {
                        break 'rounds;
                    }
                }
            }
        }
    }

    fn run_task(&self, task: &SwarmTask) -> SwarmOutcome {
        let mut inner = SpliceScheduler::new(task.prefix.clone(), task.seed);
        let mut rec = RecordingScheduler::new(&mut inner);
        let rep = self.run_hot(&mut rec);
        let schedule = std::mem::take(&mut rec.log);
        let sig = signature_with(&schedule, &rep);
        SwarmOutcome {
            schedule,
            sig,
            ticks: rep.metrics.steps,
            violation: self.check(&rep).err(),
        }
    }

    /// Execute one round's tasks on a work-stealing pool and return the
    /// outcomes re-assembled in task order (so callers never observe
    /// execution order).
    fn run_round(&self, tasks: Vec<SwarmTask>, workers: usize) -> Vec<SwarmOutcome> {
        let n = tasks.len();
        if workers <= 1 || n <= 1 {
            return tasks.iter().map(|t| self.run_task(t)).collect();
        }
        // Deal round-robin into per-worker deques; idle workers steal
        // from victims' backs (same scheme as the bench sweep pool).
        let pool: Vec<Mutex<VecDeque<(usize, SwarmTask)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            pool[i % workers].lock().push_back((i, task));
        }
        fn steal(
            pool: &[Mutex<VecDeque<(usize, SwarmTask)>>],
            me: usize,
        ) -> Option<(usize, SwarmTask)> {
            if let Some(t) = pool[me].lock().pop_front() {
                return Some(t);
            }
            for off in 1..pool.len() {
                if let Some(t) = pool[(me + off) % pool.len()].lock().pop_back() {
                    return Some(t);
                }
            }
            None
        }
        let (tx, rx) = crossbeam::channel::unbounded();
        std::thread::scope(|scope| {
            for me in 0..workers {
                let tx = tx.clone();
                let pool = &pool;
                scope.spawn(move || {
                    while let Some((idx, task)) = steal(pool, me) {
                        if tx.send((idx, self.run_task(&task))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<SwarmOutcome>> = (0..n).map(|_| None).collect();
            while let Ok((idx, out)) = rx.recv() {
                slots[idx] = Some(out);
            }
            slots
                .into_iter()
                .map(|s| s.expect("every dealt task runs exactly once"))
                .collect()
        })
    }
}

/// Greedily shrink a failing schedule: `still_fails` must re-run the
/// protocol under a **lenient** replay of the candidate schedule and
/// report whether the original failure reproduces.
///
/// Two passes, both standard trace-minimization moves:
///
/// 1. **Chunked deletion** (ddmin-lite): try dropping halves, quarters,
///    … single ticks; keep any deletion that still fails. Lenient
///    replay absorbs the divergence a deletion causes downstream.
/// 2. **Agent coalescing**: try extending each agent's run over the
///    following tick (`[…a, b…] → […a, a…]`), which lowers the
///    context-switch count and makes the schedule human-readable.
pub fn shrink_schedule<F>(schedule: &[usize], mut still_fails: F) -> Vec<usize>
where
    F: FnMut(&[usize]) -> bool,
{
    let mut current = schedule.to_vec();

    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate; // same start: the next chunk slid in
            } else {
                start += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }

    for i in 1..current.len() {
        if current[i] != current[i - 1] {
            let mut candidate = current.clone();
            candidate[i] = candidate[i - 1];
            if still_fails(&candidate) {
                current = candidate;
            }
        }
    }
    current
}

/// [`shrink_schedule`] lifted to [`Trace`]: returns the input trace with
/// a minimized schedule (events are dropped — they describe the original
/// execution, not the shrunk one).
pub fn shrink_trace<F>(trace: &Trace, still_fails: F) -> Trace
where
    F: FnMut(&[usize]) -> bool,
{
    let schedule = shrink_schedule(&trace.schedule, still_fails);
    Trace {
        label: format!(
            "{} (shrunk {} → {} ticks)",
            trace.label,
            trace.schedule.len(),
            schedule.len()
        ),
        schedule,
        events: Vec::new(),
        ..trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{AgentOutcome, MobileCtx};
    use crate::fault::FaultPlan;
    use crate::gated::{try_run_gated_with, GatedAgent, RunConfig};
    use crate::sign::{Sign, SignKind};
    use qelect_graph::{families, Bicolored};

    /// Two racers walk to C3's shared free node (2) and race to claim
    /// it; whoever posts first wins. Every schedule yields exactly one
    /// winner — so the "exactly one leader" property holds universally.
    fn race_run(bc: &Bicolored, cfg: &RunConfig, scheduler: &mut dyn Scheduler) -> RunReport {
        let mk = || -> GatedAgent {
            Box::new(|ctx| {
                for _ in 0..3 {
                    let board = ctx.read_board()?;
                    if !board.iter().any(|s| s.kind == SignKind::HomeBase) {
                        break;
                    }
                    let entry = ctx.entry();
                    let fwd = ctx
                        .ports()
                        .into_iter()
                        .find(|&p| Some(p) != entry)
                        .expect("degree 2");
                    ctx.move_via(fwd)?;
                }
                let me = ctx.color();
                let won = ctx.with_board(move |wb| {
                    if wb.find_kind(SignKind::Custom(1)).is_none() {
                        wb.post(Sign::tag(me, SignKind::Custom(1)));
                        true
                    } else {
                        false
                    }
                })?;
                Ok(if won {
                    AgentOutcome::Leader
                } else {
                    AgentOutcome::Defeated
                })
            })
        };
        try_run_gated_with(bc, *cfg, &FaultPlan::none(), vec![mk(), mk()], scheduler)
            .expect("gated run failed")
    }

    fn race_session<'a, P>(
        bc: &'a Bicolored,
        violation_expected: bool,
        property: P,
    ) -> ExploreSession<'a>
    where
        P: Fn(&RunReport) -> Result<(), String> + Sync + 'a,
    {
        ExploreSession::with_driver(
            RunConfig {
                seed: 7,
                ..RunConfig::default()
            },
            Engine::Gated,
            violation_expected,
            move |cfg, _engine, sched| Ok(race_run(bc, cfg, sched)),
            property,
        )
    }

    fn clean_election(rep: &RunReport) -> Result<(), String> {
        if rep.clean_election() {
            Ok(())
        } else {
            Err(format!("not a clean election: {:?}", rep.outcomes))
        }
    }

    fn agent0_wins(rep: &RunReport) -> Result<(), String> {
        if rep.outcomes[0] == AgentOutcome::Leader {
            Ok(())
        } else {
            Err("agent 1 won".into())
        }
    }

    fn c3_two_agents() -> Bicolored {
        Bicolored::new(families::cycle(3).unwrap(), &[0, 1]).unwrap()
    }

    #[test]
    fn guided_branch0_is_preemption_free() {
        let bc = c3_two_agents();
        let cfg = RunConfig {
            seed: 7,
            record_trace: true,
            ..RunConfig::default()
        };
        let mut sched = GuidedScheduler::new(Vec::new());
        let rep = race_run(&bc, &cfg, &mut sched);
        assert_eq!(rep.metrics.preemptions, 0, "default path never preempts");
        assert!(rep.clean_election());
        assert!(!sched.log.is_empty());
    }

    #[test]
    fn recording_scheduler_matches_engine_trace() {
        let bc = c3_two_agents();
        let cfg = RunConfig {
            seed: 7,
            record_trace: true,
            ..RunConfig::default()
        };
        let mut inner = GuidedScheduler::new(Vec::new());
        let mut rec = RecordingScheduler::new(&mut inner);
        let rep = race_run(&bc, &cfg, &mut rec);
        assert_eq!(
            rec.log, rep.trace,
            "scheduler-side grants equal the engine-recorded trace"
        );
    }

    #[test]
    fn exploration_verifies_race_arbitration() {
        let bc = c3_two_agents();
        let session = race_session(&bc, false, clean_election);
        let cfg = ExploreConfig {
            preemption_bound: 2,
            max_schedules: 5000,
            swarm_runs: 0,
            ..ExploreConfig::default()
        };
        let report = session.explore(&cfg);
        assert!(
            report.passed(),
            "{:?}",
            report.counterexample().map(|c| &c.violation)
        );
        assert!(report.complete, "bounded tree should be exhaustible");
        assert!(report.schedules_explored > 1, "tree has real branching");
        assert!(
            report.coverage.unique >= 2,
            "both winners are reachable: {:?}",
            report.coverage
        );
        assert_eq!(
            report.covered.len() as u64,
            report.coverage.unique,
            "covered set matches the unique counter"
        );
        assert_eq!(
            report.coverage.schedules, report.schedules_explored as u64,
            "every run is observed"
        );
    }

    #[test]
    fn exploration_finds_injected_violation() {
        // Property claims agent 0 always wins — false under schedules
        // that let agent 1 get to the free node first.
        let bc = c3_two_agents();
        let session = race_session(&bc, false, agent0_wins);
        let cfg = ExploreConfig {
            preemption_bound: 2,
            max_schedules: 5000,
            swarm_runs: 0,
            ..ExploreConfig::default()
        };
        let report = session.explore(&cfg);
        let ce = report
            .counterexample()
            .expect("must find the losing schedule");
        assert!(!ce.schedule.is_empty());
        assert_eq!(report.violations, 1, "bug hunts stop at the first hit");
        assert_eq!(
            ce.report.trace, ce.schedule,
            "packaged report re-recorded the same schedule"
        );

        // The counterexample replays to the same violation…
        let cfg2 = RunConfig {
            seed: 7,
            ..RunConfig::default()
        };
        let mut replayer = crate::sched::ReplayScheduler::strict(ce.schedule.clone());
        let rep = race_run(&bc, &cfg2, &mut replayer);
        assert_ne!(rep.outcomes[0], AgentOutcome::Leader);

        // …and the session-shrunk schedule still reproduces it.
        let shrunk = session.shrink(ce);
        assert!(shrunk.len() <= ce.schedule.len());
        assert!(session.replay_fails(&shrunk), "{shrunk:?}");
        let rerecorded = session.rerecord(&shrunk);
        assert_ne!(rerecorded.outcomes[0], AgentOutcome::Leader);
        assert!(!rerecorded.trace.is_empty(), "rerecord captures the trace");
    }

    #[test]
    fn expected_violations_keep_exploring_and_dedup_by_signature() {
        let bc = c3_two_agents();
        let session = race_session(&bc, true, agent0_wins);
        let cfg = ExploreConfig {
            preemption_bound: 2,
            max_schedules: 5000,
            swarm_runs: 0,
            max_counterexamples: 8,
            ..ExploreConfig::default()
        };
        let report = session.explore(&cfg);
        assert!(
            report.complete,
            "expected violations do not stop the sweep: {report:?}"
        );
        assert!(report.violations > 1, "many losing schedules exist");
        assert!(!report.counterexamples.is_empty());
        assert!(
            report.counterexamples.len() <= 8,
            "cap respected: {}",
            report.counterexamples.len()
        );
        assert!(
            report.counterexamples.len() < report.violations,
            "signature dedup keeps fewer counterexamples than violations"
        );
    }

    #[test]
    fn preemption_bound_zero_is_single_schedule_per_blocking_pattern() {
        let bc = c3_two_agents();
        let session = race_session(&bc, false, |_| Ok(()));
        let cfg = ExploreConfig {
            preemption_bound: 0,
            max_schedules: 1000,
            swarm_runs: 0,
            ..ExploreConfig::default()
        };
        let report = session.explore(&cfg);
        assert!(report.complete);
        // With no preemptions allowed, branching only happens where the
        // running agent blocks (here: when it finishes), so the tree is
        // tiny but not necessarily a single path.
        assert!(
            report.schedules_explored <= 8,
            "{}",
            report.schedules_explored
        );
    }

    #[test]
    fn swarm_fallback_kicks_in_when_budget_truncates_dfs() {
        let bc = c3_two_agents();
        let session = race_session(&bc, false, |_| Ok(()));
        let cfg = ExploreConfig {
            preemption_bound: 2,
            max_schedules: 3, // far below the tree size
            swarm_runs: 5,
            ..ExploreConfig::default()
        };
        let report = session.explore(&cfg);
        assert!(!report.complete);
        assert!(report.swarm_used);
        assert_eq!(
            report.schedules_explored,
            3 + 5,
            "DFS budget, then the full swarm"
        );
        assert_eq!(report.dfs_schedules, 3);
        assert_eq!(report.swarm_schedules, 5);
        let cfg = ExploreConfig {
            swarm_runs: 0,
            ..cfg
        };
        let report = session.explore(&cfg);
        assert!(!report.swarm_used);
        assert_eq!(report.schedules_explored, 3, "the DFS budget is a hard cap");
    }

    #[test]
    fn swarm_results_are_identical_for_any_worker_count() {
        let bc = c3_two_agents();
        let session = race_session(&bc, false, clean_election);
        let explore_with = |workers: usize| {
            session.explore(&ExploreConfig {
                preemption_bound: 1,
                max_schedules: 4,
                swarm_runs: 300,
                swarm_seed: 0x51AB,
                workers,
                ..ExploreConfig::default()
            })
        };
        let one = explore_with(1);
        for workers in [2, 8] {
            let many = explore_with(workers);
            assert_eq!(one.covered, many.covered, "workers={workers}");
            assert_eq!(one.schedules_explored, many.schedules_explored);
            assert_eq!(one.coverage, many.coverage);
            assert_eq!(one.violations, many.violations);
        }
        // And byte-deterministic across repeated single-worker runs.
        let again = explore_with(1);
        assert_eq!(one.covered, again.covered);
        assert_eq!(one.coverage, again.coverage);
    }

    #[test]
    fn shrinker_minimizes_a_synthetic_predicate() {
        // Failure = schedule contains at least three 1s. Minimal failing
        // schedules under deletion+coalescing have exactly three ticks.
        let schedule = vec![0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0];
        let shrunk = shrink_schedule(&schedule, |c| c.iter().filter(|&&a| a == 1).count() >= 3);
        assert_eq!(shrunk, vec![1, 1, 1]);
    }
}
