//! The scheduler kernel of the discrete-event engine ([`crate::sim`]).
//!
//! Agents are futures parked at gates; everything they share lives
//! here, once:
//!
//! * **the world** (`World`): the flat topology, the whiteboards,
//!   metrics, span trackers, checkpoints, the event log, fault
//!   statistics, caught panics, port scrambling and home-base
//!   premarking;
//! * **the primitives** (`Agent`): the fault gate, crash restart, and
//!   the read / write / move / wait bookkeeping, written once as async
//!   code that parks at a `Gate` until the scheduler answers;
//! * **the grant decision** (`Grants`): the ready set, deadlock
//!   detection, the step limit, the preemption count and the recorded
//!   grant sequence;
//! * **report assembly** (`Grants::report`).
//!
//! [`crate::sim`] is only the scheduler loop that polls the agents and
//! hands out verdicts (DESIGN.md §12).

use crate::color::{Color, ColorRegistry};
use crate::ctx::{AgentOutcome, Interrupt, LocalPort, MobileCtxAsync};
use crate::fault::{FaultAction, FaultClock, FaultPlan, FaultStats, RecoveryPolicy};
use crate::metrics::{AgentMetrics, Checkpoint, Metrics, SpanTracker};
use crate::run::RunError;
use crate::sched::{Policy, Scheduler};
use crate::sign::{Sign, SignKind};
use crate::trace::{sign_kind_code, PrimOp, Trace, TraceEvent};
use crate::whiteboard::Whiteboard;
use qelect_graph::cache::{self, CacheStats};
use qelect_graph::{Bicolored, End, Graph, Incidence};
use std::cell::RefCell;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::task::{Context, Poll};

/// Configuration of a deterministic run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Master seed: colors, port scrambles, and the random policy derive
    /// from it.
    pub seed: u64,
    /// Scheduling policy.
    pub policy: Policy,
    /// Global step budget (scheduler grants). Exhaustion interrupts all
    /// agents with [`Interrupt::StepLimit`].
    pub max_steps: u64,
    /// Whether each agent sees its own scrambled local port numbering
    /// (the qualitative model's "private encodings"; disable only for
    /// debugging).
    pub scramble_ports: bool,
    /// Record the grant sequence (which agent ran at each scheduler
    /// step) into [`RunReport::trace`], plus the per-primitive event log
    /// into [`RunReport::events`] — the replayable witness of a
    /// deterministic execution.
    pub record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            policy: Policy::Random,
            max_steps: 5_000_000,
            scramble_ports: true,
            record_trace: false,
        }
    }
}

/// Result of a deterministic run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Terminal state per agent (indexed like the home-base list).
    pub outcomes: Vec<AgentOutcome>,
    /// Index of the (unique) leader, if exactly one agent won.
    pub leader: Option<usize>,
    /// Colors the agents carried (for validating announcements).
    pub colors: Vec<Color>,
    /// Metrics.
    pub metrics: Metrics,
    /// The interrupt that ended the run, if any.
    pub interrupted: Option<Interrupt>,
    /// The scheduler policy name.
    pub policy: &'static str,
    /// The grant sequence (agent index per scheduler step), recorded
    /// only when [`RunConfig::record_trace`] is set. Two runs with the
    /// same `(instance, protocol, policy, seed)` produce identical
    /// traces — the engine's determinism contract.
    pub trace: Vec<usize>,
    /// Per-primitive event log (what each grant was spent on), recorded
    /// only when [`RunConfig::record_trace`] is set.
    pub events: Vec<TraceEvent>,
}

impl RunReport {
    /// Whether the run elected exactly one leader and every other agent
    /// was defeated.
    pub fn clean_election(&self) -> bool {
        let leaders = self
            .outcomes
            .iter()
            .filter(|o| **o == AgentOutcome::Leader)
            .count();
        leaders == 1
            && self
                .outcomes
                .iter()
                .all(|o| matches!(o, AgentOutcome::Leader | AgentOutcome::Defeated))
    }

    /// Whether every agent unanimously reported the instance unsolvable.
    pub fn unanimous_unsolvable(&self) -> bool {
        self.outcomes.iter().all(|o| *o == AgentOutcome::Unsolvable)
    }

    /// Package the recorded schedule and events as a [`Trace`] (the run
    /// must have been made with [`RunConfig::record_trace`] set for the
    /// trace to be non-trivial).
    pub fn to_trace(&self, bc: &Bicolored, seed: u64, label: &str) -> Trace {
        Trace {
            label: label.to_string(),
            seed,
            policy: self.policy.to_string(),
            agents: self.outcomes.len(),
            nodes: bc.n(),
            schedule: self.trace.clone(),
            events: self.events.clone(),
        }
    }
}

/// Where a parked agent is parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// At an op gate.
    Op,
    /// Waiting for the board at `node` to move past version `seen`.
    Wait { node: usize, seen: Option<u64> },
}

/// The state every agent of one run shares. Between grants only the
/// granted agent changes its shared parts (boards, events, checkpoints;
/// DESIGN.md §12.1), and the scheduler reads it only while every agent
/// is parked.
pub(crate) struct World {
    /// The topology, flat (CSR): the incidences at node `v` are the
    /// slots `offsets[v]..offsets[v + 1]`, in increasing port order.
    offsets: Vec<u32>,
    /// `far[slot]`: the node across the slot's edge, and the slot of the
    /// same edge there.
    far: Vec<(u32, u32)>,
    homes: Vec<usize>,
    colors: Vec<Color>,
    boards: Vec<Whiteboard>,
    metrics: Vec<AgentMetrics>,
    trackers: Vec<SpanTracker>,
    checkpoints: Vec<Checkpoint>,
    /// The per-primitive event log, in grant order.
    events: Vec<TraceEvent>,
    record_events: bool,
    port_seed: u64,
    scramble_ports: bool,
    /// Fault-injection accumulators (all zero on crash-free runs).
    fault_stats: FaultStats,
    /// Panic payloads caught at the agent-program boundary, surfaced as
    /// [`RunError::AgentPanicked`] when the report is assembled.
    panics: Vec<(usize, String)>,
    /// The global canon-cache counters when the run started.
    cache_before: CacheStats,
}

impl World {
    /// The world of one run on `bc`: one fresh color per agent and each
    /// home-base pre-marked with a [`SignKind::HomeBase`] sign of its
    /// resident's color, as the model prescribes.
    pub(crate) fn new(bc: &Bicolored, cfg: &RunConfig) -> World {
        let cache_before = cache::global().stats();
        let r = bc.r();
        let colors = ColorRegistry::new(cfg.seed).fresh_many(r);
        let mut boards: Vec<Whiteboard> = (0..bc.n()).map(|_| Whiteboard::new()).collect();
        for (&hb, &color) in bc.homebases().iter().zip(&colors) {
            boards[hb].post(Sign::tag(color, SignKind::HomeBase));
        }
        let (offsets, far) = flat_topology(bc.graph());
        World {
            offsets,
            far,
            homes: bc.homebases().to_vec(),
            colors,
            boards,
            metrics: (0..r).map(|_| AgentMetrics::default()).collect(),
            trackers: (0..r).map(SpanTracker::new).collect(),
            checkpoints: Vec::new(),
            events: Vec::new(),
            record_events: cfg.record_trace,
            port_seed: cfg.seed.wrapping_add(0x9047_5EED),
            scramble_ports: cfg.scramble_ports,
            fault_stats: FaultStats::default(),
            panics: Vec::new(),
            cache_before,
        }
    }

    /// Agent `id` before its first step: at its home-base, carrying its
    /// color, with its slice of the fault plan, sharing `core`.
    pub(crate) fn agent(&self, id: usize, core: Rc<RefCell<Core>>, faults: &FaultPlan) -> Agent {
        let home = self.homes[id];
        let mut ports = Vec::new();
        self.port_table(id, home, &mut ports);
        Agent {
            core,
            id,
            color: self.colors[id],
            node: home,
            home,
            entry: None,
            ports,
            faults: FaultClock::new(faults, id),
            recovery: faults.recovery,
            armed: faults.has_crashes(),
        }
    }

    /// Fill `ports` with the agent's local-port → slot table at `node`:
    /// entry `i` is the slot behind `LocalPort(i)`.
    pub(crate) fn port_table(&self, agent: usize, node: usize, ports: &mut Vec<u32>) {
        ports.clear();
        ports.extend(self.offsets[node]..self.offsets[node + 1]);
        if self.scramble_ports {
            crate::shuffle::scramble(self.port_seed, agent, node, ports);
        }
    }

    /// The agent crosses the edge at `slot`: returns the destination and
    /// the agent's entry port there, and leaves the agent's table at the
    /// destination in `ports`.
    pub(crate) fn cross(&self, agent: usize, slot: u32, ports: &mut Vec<u32>) -> (usize, u32) {
        let (dest, far) = self.far[slot as usize];
        self.port_table(agent, dest as usize, ports);
        let entry = ports
            .iter()
            .position(|&s| s == far)
            .expect("the far slot is at the destination");
        (dest as usize, entry as u32)
    }

    fn record(&mut self, tick: u64, agent: usize, op: PrimOp) {
        if self.record_events {
            self.events.push(TraceEvent { tick, agent, op });
        }
    }

    fn span_now(&self, agent: usize) -> ((u64, u64, u64), Option<CacheStats>) {
        (
            self.metrics[agent].snapshot(),
            Some(cache::global().stats()),
        )
    }
}

/// The world's topology of `g`: the CSR `offsets` and the `far` table
/// (see [`World`]).
fn flat_topology(g: &Graph) -> (Vec<u32>, Vec<(u32, u32)>) {
    // Slots and nodes are stored as u32; a connected graph has fewer
    // nodes than edge ends plus two.
    assert!(
        2 * g.m() < u32::MAX as usize,
        "too many edge ends for u32 slots"
    );
    // The slot of every edge end, indexed `2 · edge + end`.
    let end_key = |inc: Incidence| 2 * inc.edge as usize + usize::from(inc.end == End::V);
    let mut slot_of = vec![0u32; 2 * g.m()];
    let mut offsets = Vec::with_capacity(g.n() + 1);
    offsets.push(0u32);
    for v in 0..g.n() {
        let start = offsets[v];
        for (k, &inc) in g.incidences(v).iter().enumerate() {
            slot_of[end_key(inc)] = start + k as u32;
        }
        offsets.push(start + g.degree(v) as u32);
    }
    let far = (0..g.n())
        .flat_map(|v| g.incidences(v))
        .map(|&inc| {
            let there = Incidence {
                end: inc.end.flip(),
                ..inc
            };
            (g.node_of(there) as u32, slot_of[end_key(there)])
        })
        .collect();
    (offsets, far)
}

/// Everything the scheduler loop and the agents of one run share. One
/// thread runs it all, so a `RefCell` guards it and a mailbox per agent
/// carries the scheduler's verdicts.
pub(crate) struct Core {
    pub(crate) world: World,
    pub(crate) grants: Grants,
    /// The verdict for each parked agent, consumed by its gate's next
    /// poll.
    pub(crate) verdicts: Vec<Option<Result<u64, Interrupt>>>,
}

/// Run `f` on the world behind `core`.
fn with_world<R>(core: &RefCell<Core>, f: impl FnOnce(&mut World) -> R) -> R {
    f(&mut core.borrow_mut().world)
}

/// A parked primitive: parks its agent on first poll, then resolves to
/// the granted tick (or the aborting interrupt) when the scheduler
/// deposits a verdict in the agent's mailbox.
struct Gate<'a> {
    core: &'a RefCell<Core>,
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

/// One agent's context: its volatile state (position, entry port, port
/// table, fault clock) plus the run's shared [`Core`]. Implements every
/// primitive of [`MobileCtxAsync`]; each suspends at a [`Gate`] until
/// the scheduler grants it a step.
pub(crate) struct Agent {
    core: Rc<RefCell<Core>>,
    id: usize,
    color: Color,
    node: usize,
    home: usize,
    entry: Option<LocalPort>,
    /// The local-port → slot table at `node` (see
    /// [`World::port_table`]), one entry per incidence there.
    ports: Vec<u32>,
    faults: FaultClock,
    recovery: RecoveryPolicy,
    /// Whether the plan can crash agents (see
    /// [`MobileCtxAsync::crash_faults_armed`]).
    armed: bool,
}

impl Agent {
    /// Run `f` on the world.
    fn world<R>(&self, f: impl FnOnce(&mut World) -> R) -> R {
        with_world(&self.core, f)
    }

    /// Park at the gate `at` until the scheduler answers.
    fn park(&self, at: Park) -> Gate<'_> {
        Gate {
            core: &self.core,
            agent: self.id,
            at,
            announced: false,
        }
    }

    /// Stall for `ticks` grants, each recorded as an unwoken wait at the
    /// current node (delay faults and restart backoff).
    async fn stall(&mut self, ticks: u64) -> Result<(), Interrupt> {
        for _ in 0..ticks {
            let tick = self.park(Park::Op).await?;
            let (id, node) = (self.id, self.node);
            self.world(|w| w.record(tick, id, PrimOp::Wait { node, woke: false }));
        }
        Ok(())
    }

    /// The whiteboard-access boundary hook: advance this agent's
    /// operation counter and apply any fault due here. Runs *before* the
    /// gate, so a crash loses the pending operation without consuming a
    /// grant; delays consume extra grants (visible stall ticks in the
    /// recorded trace).
    async fn fault_gate(&mut self) -> Result<(), Interrupt> {
        self.faults.advance();
        while let Some(action) = self.faults.take_due() {
            match action {
                FaultAction::Delay { ticks } => {
                    self.world(|w| {
                        w.fault_stats
                            .delay_ticks
                            .fetch_add(ticks, Ordering::Relaxed)
                    });
                    self.stall(ticks).await?;
                }
                FaultAction::Crash { restart_after } => {
                    self.faults.note_crash(restart_after);
                    self.world(|w| {
                        w.fault_stats.crashes.fetch_add(1, Ordering::Relaxed);
                        w.fault_stats.lost_ops.fetch_add(1, Ordering::Relaxed);
                    });
                    return Err(Interrupt::Crashed);
                }
            }
        }
        Ok(())
    }

    /// Park at an op gate behind the fault boundary; on grant, returns
    /// the tick.
    async fn op(&mut self) -> Result<u64, Interrupt> {
        self.fault_gate().await?;
        self.park(Park::Op).await
    }

    /// Prepare a post-crash restart: seal the spans the crash tore
    /// through, reset volatile state to the home-base, bump the
    /// incarnation, and stall for the crash's `restart_after` plus the
    /// recovery policy's bounded exponential backoff (the ticks model
    /// re-acquiring board access after coming back up). Fails with
    /// [`Interrupt::Crashed`] when the restart budget is exhausted — the
    /// agent then terminates crashed.
    async fn begin_restart(&mut self) -> Result<(), Interrupt> {
        let incarnation = self.faults.incarnation() + 1;
        if incarnation > self.recovery.max_restarts {
            self.world(|w| w.fault_stats.aborted.fetch_add(1, Ordering::Relaxed));
            return Err(Interrupt::Crashed);
        }
        self.seal_spans();
        self.faults.restart();
        self.node = self.home;
        self.entry = None;
        let stall = self.faults.take_restart_stall() + self.recovery.backoff(incarnation);
        let (id, home, ports) = (self.id, self.home, &mut self.ports);
        with_world(&self.core, |w| {
            w.port_table(id, home, ports);
            w.fault_stats.restarts.fetch_add(1, Ordering::Relaxed);
            w.fault_stats
                .backoff_ticks
                .fetch_add(stall, Ordering::Relaxed);
        });
        self.stall(stall).await
    }

    /// Close every span this agent left open, so its work still reaches
    /// the phase breakdown.
    fn seal_spans(&self) {
        let id = self.id;
        self.world(|w| {
            let (now, cache) = w.span_now(id);
            w.trackers[id].force_close_all(now, cache);
        });
    }
}

impl MobileCtxAsync for Agent {
    fn color(&self) -> Color {
        self.color
    }

    fn degree(&mut self) -> usize {
        self.ports.len()
    }

    fn entry(&self) -> Option<LocalPort> {
        self.entry
    }

    async fn read_board(&mut self) -> Result<Vec<Sign>, Interrupt> {
        let tick = self.op().await?;
        let (id, node) = (self.id, self.node);
        Ok(self.world(|w| {
            w.metrics[id].accesses.fetch_add(1, Ordering::Relaxed);
            w.record(tick, id, PrimOp::Read { node });
            w.boards[node].signs().to_vec()
        }))
    }

    async fn with_board<R>(
        &mut self,
        f: impl FnOnce(&mut Whiteboard) -> R,
    ) -> Result<R, Interrupt> {
        let tick = self.op().await?;
        let (id, node) = (self.id, self.node);
        Ok(self.world(|w| {
            w.metrics[id].accesses.fetch_add(1, Ordering::Relaxed);
            let before = w.boards[node].signs().len();
            let result = f(&mut w.boards[node]);
            if w.record_events {
                // Signs appended during the access (erasures shorten the
                // board instead; they leave `posted` empty).
                let posted = w.boards[node]
                    .signs()
                    .get(before..)
                    .unwrap_or(&[])
                    .iter()
                    .map(|s| sign_kind_code(s.kind))
                    .collect();
                w.record(tick, id, PrimOp::Write { node, posted });
            }
            result
        }))
    }

    async fn move_via(&mut self, port: LocalPort) -> Result<(), Interrupt> {
        let tick = self.op().await?;
        let (id, from) = (self.id, self.node);
        let slot = *self
            .ports
            .get(port.0 as usize)
            .unwrap_or_else(|| panic!("agent {id} used invalid local port {port}"));
        let ports = &mut self.ports;
        let (dest, entry) = with_world(&self.core, |w| {
            let (dest, entry) = w.cross(id, slot, ports);
            w.metrics[id].moves.fetch_add(1, Ordering::Relaxed);
            w.record(tick, id, PrimOp::Move { from, to: dest });
            (dest, entry)
        });
        self.node = dest;
        self.entry = Some(LocalPort(entry));
        Ok(())
    }

    async fn wait_until(&mut self, pred: impl Fn(&Whiteboard) -> bool) -> Result<(), Interrupt> {
        // One fault boundary per wait *entry*: how often the predicate
        // is re-checked depends on the interleaving, so counting the
        // re-checks would make fault addresses schedule-dependent.
        self.fault_gate().await?;
        let (id, node) = (self.id, self.node);
        let mut seen: Option<u64> = None;
        loop {
            let tick = self.park(Park::Wait { node, seen }).await?;
            let (woke, version) = self.world(|w| {
                w.metrics[id].accesses.fetch_add(1, Ordering::Relaxed);
                let board = &w.boards[node];
                let (woke, version) = (pred(board), board.version());
                w.record(tick, id, PrimOp::Wait { node, woke });
                if woke {
                    w.metrics[id].waits.fetch_add(1, Ordering::Relaxed);
                }
                (woke, version)
            });
            if woke {
                return Ok(());
            }
            seen = Some(version);
        }
    }

    fn checkpoint(&mut self, label: &str) {
        let id = self.id;
        self.world(|w| {
            let (moves, accesses, _) = w.metrics[id].snapshot();
            w.checkpoints.push(Checkpoint {
                label: label.to_string(),
                agent: id,
                moves,
                accesses,
            });
        });
    }

    fn span_open(&mut self, name: &str) {
        let id = self.id;
        self.world(|w| {
            let (now, cache) = w.span_now(id);
            w.trackers[id].open(name, now, cache);
        });
    }

    fn span_close(&mut self, name: &str) {
        let id = self.id;
        self.world(|w| {
            let (now, cache) = w.span_now(id);
            w.trackers[id].close(name, now, cache);
        });
    }

    fn incarnation(&self) -> u64 {
        self.faults.incarnation()
    }

    fn crash_faults_armed(&self) -> bool {
        self.armed
    }
}

/// An agent's whole life. Runs `attempt` (one incarnation of the
/// program on `ctx`), restarts it after each crash until the recovery
/// budget runs out, and catches a panic so the scheduler always hears
/// the agent finish — the payload surfaces as
/// [`RunError::AgentPanicked`]. Finally seals the spans an interrupt (or
/// a sloppy protocol) left open, so their work still reaches the
/// breakdown.
pub(crate) async fn drive(
    agent: &mut Agent,
    mut attempt: impl AsyncFnMut(&mut Agent) -> Result<AgentOutcome, Interrupt>,
) -> AgentOutcome {
    let outcome = loop {
        match CatchPanic(Box::pin(attempt(agent))).await {
            Ok(Ok(outcome)) => break outcome,
            Ok(Err(Interrupt::Crashed)) => match agent.begin_restart().await {
                Ok(()) => continue,
                Err(int) => break AgentOutcome::Interrupted(int),
            },
            Ok(Err(int)) => break AgentOutcome::Interrupted(int),
            Err(message) => {
                let id = agent.id;
                agent.world(|w| w.panics.push((id, message)));
                break AgentOutcome::Interrupted(Interrupt::Cancelled);
            }
        }
    };
    agent.seal_spans();
    outcome
}

/// Poll-level panic guard: a panic anywhere in the wrapped future's
/// current segment surfaces as `Err(message)` instead of unwinding
/// through the engine. Boxing the inner future keeps this type `Unpin`
/// without unsafe projection.
struct CatchPanic<F>(Pin<Box<F>>);

impl<F: Future> Future for CatchPanic<F> {
    type Output = Result<F::Output, String>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = &mut self.get_mut().0;
        match std::panic::catch_unwind(AssertUnwindSafe(|| inner.as_mut().poll(cx))) {
            Ok(Poll::Ready(v)) => Poll::Ready(Ok(v)),
            Ok(Poll::Pending) => Poll::Pending,
            Err(payload) => Poll::Ready(Err(panic_message(payload.as_ref()))),
        }
    }
}

/// Best-effort extraction of a caught panic's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// An agent as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum St {
    /// Running its current segment (not at a gate yet).
    Running,
    /// Parked at a gate.
    Parked(Park),
    /// Finished.
    Done,
}

/// What the scheduler answers parked agents.
pub(crate) enum Verdict {
    /// Grant tick `.1` to agent `.0`.
    Grant(usize, u64),
    /// Abort every parked agent with this interrupt.
    Abort(Interrupt),
}

/// The grant decision: which agents are parked where, and which one
/// runs next.
pub(crate) struct Grants {
    st: Vec<St>,
    outcomes: Vec<AgentOutcome>,
    live: usize,
    max_steps: u64,
    record_trace: bool,
    steps: u64,
    preemptions: u64,
    last_pick: Option<usize>,
    /// Set once, by a deadlock or the step limit; the run then aborts
    /// every agent that parks.
    aborting: Option<Interrupt>,
    trace: Vec<usize>,
    /// The ready set, rebuilt in place at every decision.
    ready: Vec<usize>,
}

impl Grants {
    /// `r` agents, all running their first segment.
    pub(crate) fn new(r: usize, cfg: &RunConfig) -> Grants {
        Grants {
            st: vec![St::Running; r],
            outcomes: vec![AgentOutcome::Interrupted(Interrupt::Cancelled); r],
            live: r,
            max_steps: cfg.max_steps,
            record_trace: cfg.record_trace,
            steps: 0,
            preemptions: 0,
            last_pick: None,
            aborting: None,
            trace: Vec::new(),
            ready: Vec::with_capacity(r),
        }
    }

    /// Agents not yet finished.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Whether `agent` is running (neither parked nor finished).
    pub(crate) fn running(&self, agent: usize) -> bool {
        self.st[agent] == St::Running
    }

    /// `agent` parked at a gate.
    pub(crate) fn park(&mut self, agent: usize, at: Park) {
        self.st[agent] = St::Parked(at);
    }

    /// `agent` finished with `outcome`.
    pub(crate) fn finish(&mut self, agent: usize, outcome: AgentOutcome) {
        self.st[agent] = St::Done;
        self.outcomes[agent] = outcome;
        self.live -= 1;
    }

    /// The next decision, taken while every live agent is parked: grant
    /// one ready agent the next tick, or abort on a deadlock (every live
    /// agent waits on an unchanged board) or an exhausted step budget.
    pub(crate) fn decide(&mut self, world: &World, scheduler: &mut dyn Scheduler) -> Verdict {
        if let Some(reason) = &self.aborting {
            return Verdict::Abort(reason.clone());
        }
        // Ready set: ops, plus waits whose board has changed.
        self.ready.clear();
        for (i, s) in self.st.iter().enumerate() {
            let ready = match *s {
                St::Parked(Park::Op) | St::Parked(Park::Wait { seen: None, .. }) => true,
                St::Parked(Park::Wait {
                    node,
                    seen: Some(v),
                }) => world.boards[node].version() > v,
                St::Running | St::Done => false,
            };
            if ready {
                self.ready.push(i);
            }
        }
        if self.ready.is_empty() {
            self.aborting = Some(Interrupt::Deadlock);
            return Verdict::Abort(Interrupt::Deadlock);
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            self.aborting = Some(Interrupt::StepLimit);
            return Verdict::Abort(Interrupt::StepLimit);
        }
        let pick = scheduler.pick(&self.ready, self.steps);
        debug_assert!(
            self.ready.contains(&pick),
            "scheduler must pick a ready agent"
        );
        if let Some(prev) = self.last_pick {
            // A switch away from a still-ready agent is a preemption —
            // the quantity context-bounded exploration budgets. A switch
            // forced by `prev` blocking is not.
            if prev != pick && self.ready.contains(&prev) {
                self.preemptions += 1;
            }
        }
        self.last_pick = Some(pick);
        if self.record_trace {
            self.trace.push(pick);
        }
        Verdict::Grant(pick, self.steps)
    }

    /// Mark the agents `verdict` answers as running, handing each its
    /// answer through `send`.
    pub(crate) fn deliver(
        &mut self,
        verdict: Verdict,
        mut send: impl FnMut(usize, Result<u64, Interrupt>),
    ) {
        match verdict {
            Verdict::Grant(agent, tick) => {
                self.st[agent] = St::Running;
                send(agent, Ok(tick));
            }
            Verdict::Abort(reason) => {
                for (i, s) in self.st.iter_mut().enumerate() {
                    if let St::Parked(_) = s {
                        *s = St::Running;
                        send(i, Err(reason.clone()));
                    }
                }
            }
        }
    }

    /// Assemble the run's report. Every agent has finished or been
    /// dropped, so `world` has no other owner. An agent panic wins over
    /// `run_error`; protocol-level interrupts are not errors.
    pub(crate) fn report(
        self,
        world: World,
        policy: &'static str,
        run_error: Option<RunError>,
    ) -> Result<RunReport, RunError> {
        if let Some((agent, message)) = world.panics.into_iter().next() {
            return Err(RunError::AgentPanicked { agent, message });
        }
        if let Some(e) = run_error {
            return Err(e);
        }
        let mut leaders = self
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == AgentOutcome::Leader)
            .map(|(i, _)| i);
        let leader = match (leaders.next(), leaders.next()) {
            (Some(i), None) => Some(i),
            _ => None,
        };
        let metrics = Metrics {
            per_agent: world.metrics.iter().map(|m| m.snapshot()).collect(),
            checkpoints: world.checkpoints,
            steps: self.steps,
            preemptions: self.preemptions,
            canon_cache: Some(world.cache_before.delta(&cache::global().stats())),
            spans: world.trackers.iter().flat_map(|t| t.take()).collect(),
            faults: world.fault_stats.snapshot(),
        };
        Ok(RunReport {
            outcomes: self.outcomes,
            leader,
            colors: world.colors,
            metrics,
            interrupted: self.aborting,
            policy,
            trace: self.trace,
            events: world.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::scrambled_ports;
    use qelect_graph::families;

    /// The move as the graph defines it: the agent's symbol behind
    /// `port`, the edge across, and the arrival symbol's position in the
    /// agent's scramble at the destination.
    fn reference_move(
        g: &Graph,
        cfg: &RunConfig,
        agent: usize,
        node: usize,
        port: usize,
    ) -> (usize, u32) {
        let table = |v| {
            if cfg.scramble_ports {
                scrambled_ports(cfg.seed.wrapping_add(0x9047_5EED), agent, v, g.ports_at(v))
            } else {
                g.ports_at(v)
            }
        };
        let (dest, arrival) = g.move_along(node, table(node)[port]).unwrap();
        let entry = table(dest).iter().position(|&p| p == arrival).unwrap();
        (dest, entry as u32)
    }

    #[test]
    fn moves_match_the_graph_on_loops_parallel_edges_and_random_graphs() {
        let graphs = [
            ("fig2c", families::fig2c_gadget().unwrap()),
            ("Q4", families::hypercube(4).unwrap()),
            ("random", families::random_connected(24, 0.2, 5).unwrap()),
        ];
        for (label, g) in graphs {
            let bc = Bicolored::new(g.clone(), &[0]).unwrap();
            for scramble_ports in [true, false] {
                let cfg = RunConfig {
                    seed: 17,
                    scramble_ports,
                    ..RunConfig::default()
                };
                let world = World::new(&bc, &cfg);
                let mut ports = Vec::new();
                for agent in 0..3 {
                    for node in 0..g.n() {
                        for port in 0..g.degree(node) {
                            world.port_table(agent, node, &mut ports);
                            assert_eq!(ports.len(), g.degree(node));
                            let got = world.cross(agent, ports[port], &mut ports);
                            assert_eq!(
                                got,
                                reference_move(&g, &cfg, agent, node, port),
                                "{label} scramble={scramble_ports}: agent {agent} at {node} via {port}"
                            );
                        }
                    }
                }
            }
        }
    }
}
