//! Protocol ELECT (Fig. 3 of the paper).
//!
//! ```text
//! MAP-DRAWING;
//! COMPUTE & ORDER classes C_1 … C_ℓ, C_{ℓ+1} … C_k;
//! D := C_1;  SYNCHRONIZE(D);
//! while i ≤ ℓ and |D| > 1:  D ← AGENT-REDUCE(D, C_i)   (stage agent-agent)
//! while i ≤ k and |D| > 1:  D ← NODE-REDUCE(D, C_i)    (stage agent-node)
//! if |D| = 1 the unique agent in D is the leader, else election fails.
//! ```
//!
//! Every agent executes [`elect_async`]; the control flow is driven by the
//! deterministic [`Schedule`] derived from the
//! canonically-ordered class sizes (Lemma 3.1), which all agents agree on
//! because canonical forms are isomorphism-invariant. Class `C_{i+1}` is
//! *activated* at the start of its phase by the current active set `D`
//! sweeping `Activate` signs over its home-bases ("agents in D start
//! activating the agents of C by visiting them; an agent becomes active
//! when it has been visited by all agents in D") — the activators'
//! colors are exactly the membership of `D`, which is how late-waking
//! agents learn it.
//!
//! The final agent announces `Leader` on every whiteboard (the
//! "shoulder tap"); if `gcd(|C_1|, …, |C_k|) > 1`, the remaining active
//! agents announce `Unsolvable` instead, as Theorem 3.1 prescribes.
//!
//! The protocol body is written once as an `async` function over
//! [`MobileCtxAsync`], which the single-threaded simulator polls as a
//! future.

use crate::map::AgentMap;
use crate::mapdraw::map_drawing_async;
use crate::reduce::{agent_reduce, node_reduce, Courier, ReduceExit};
use crate::schedule::{PhaseKind, Schedule};
use qelect_agentsim::{AgentOutcome, Color, Interrupt, MobileCtxAsync, SignKind, Whiteboard};
use qelect_graph::cache::ordered_classes_cached;
use qelect_graph::Bicolored;

/// The `Custom` sign kind used for phase activation.
pub const ACTIVATE: SignKind = SignKind::Custom(3);

/// The `Custom` sign kind used for the crash-recovery checkpoint
/// journal: after completing a reduction phase, an agent (only when
/// crash faults are armed — see [`MobileCtxAsync::crash_faults_armed`])
/// posts a `CKPT` sign at its home-base whose payload word is the
/// number of reduction phases it has completed. A restarted incarnation
/// reads its own highest journal entry to know how much of its re-run
/// is *redundant* recovery work, which the `"recovery"` phase span
/// attributes separately in the metrics breakdown.
pub const CKPT: SignKind = SignKind::Custom(4);

/// Everything an agent derives locally right after MAP-DRAWING.
pub struct LocalView {
    /// The completed map.
    pub map: AgentMap,
    /// Ordered class node-sets over map nodes (black classes first).
    pub classes: Vec<Vec<usize>>,
    /// Number of black classes.
    pub ell: usize,
    /// The phase/round schedule.
    pub schedule: Schedule,
    /// Index of this agent's own class.
    pub my_class: usize,
}

/// MAP-DRAWING + COMPUTE & ORDER.
pub async fn compute_local_view_async<C: MobileCtxAsync>(
    ctx: &mut C,
) -> Result<LocalView, Interrupt> {
    let map = map_drawing_async(ctx).await?;
    ctx.checkpoint("map-drawing done");
    // COMPUTE & ORDER is pure local computation (no moves or board
    // accesses); its span exists to attribute canonical-form cache
    // traffic to the phase.
    ctx.span_open("classes");
    let bc = map.to_bicolored();
    // One canonicalization of the map gives the classes and their
    // order; both are isomorphism-invariant, so every agent agrees.
    let oc = ordered_classes_cached(&bc);
    let classes: Vec<Vec<usize>> = oc.classes.iter().map(|c| c.nodes.clone()).collect();
    let sizes: Vec<usize> = classes.iter().map(|c| c.len()).collect();
    let schedule = Schedule::from_class_sizes(&sizes, oc.ell);
    let my_class = oc.class_of(0);
    ctx.span_close("classes");
    ctx.checkpoint("classes ordered");
    Ok(LocalView {
        map,
        classes,
        ell: oc.ell,
        schedule,
        my_class,
    })
}

fn board_has_final(wb: &Whiteboard) -> bool {
    wb.find_kind(SignKind::Leader).is_some() || wb.find_kind(SignKind::Unsolvable).is_some()
}

/// Park at home until the election's verdict arrives, then report it.
async fn final_wait<C: MobileCtxAsync>(cr: &mut Courier<'_, C>) -> Result<AgentOutcome, Interrupt> {
    cr.ctx.span_open("final-wait");
    let out = final_wait_inner(cr).await;
    cr.ctx.span_close("final-wait");
    out
}

async fn final_wait_inner<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
) -> Result<AgentOutcome, Interrupt> {
    cr.goto(0).await?;
    cr.ctx.wait_until(board_has_final).await?;
    let signs = cr.ctx.read_board().await?;
    if signs.iter().any(|s| s.kind == SignKind::Leader) {
        Ok(AgentOutcome::Defeated)
    } else {
        Ok(AgentOutcome::Unsolvable)
    }
}

/// Sweep the whole network posting a sign at every node.
async fn announce_all<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
    kind: SignKind,
) -> Result<(), Interrupt> {
    cr.ctx.span_open("announce");
    let out = announce_all_inner(cr, kind).await;
    cr.ctx.span_close("announce");
    out
}

async fn announce_all_inner<C: MobileCtxAsync>(
    cr: &mut Courier<'_, C>,
    kind: SignKind,
) -> Result<(), Interrupt> {
    let me = cr.me();
    cr.ctx
        .with_board(move |wb| {
            wb.post(qelect_agentsim::Sign::tag(me, kind));
        })
        .await?;
    let route = cr.map.sweep_route(cr.pos);
    for p in route {
        cr.ctx.move_via(p).await?;
        let me = cr.me();
        cr.ctx
            .with_board(move |wb| {
                if wb.find_kind(kind).is_none() {
                    wb.post(qelect_agentsim::Sign::tag(me, kind));
                }
            })
            .await?;
    }
    Ok(())
}

/// **Test-only** fault injection for the exploration harness: seeded
/// bugs that a correct exploration run must find and shrink. Production
/// entry points always pass [`ElectFault::default`] (no faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElectFault {
    /// Invert the final gcd-derived solvability check: announce a
    /// leader exactly when `gcd(|C_1|, …, |C_k|) > 1`. On unsolvable
    /// instances every surviving agent then declares itself leader —
    /// the multi-leader violation the schedule explorer must catch.
    pub invert_gcd_check: bool,
}

/// Protocol ELECT, as run by one agent.
///
/// Crash-recoverable: when crash faults are armed and this invocation is
/// a restarted incarnation, everything from the fresh MAP-DRAWING up to
/// the last journaled checkpoint (see [`CKPT`]) runs inside a
/// `"recovery"` phase span, so redundant re-execution is attributed
/// separately per phase in the metrics breakdown.
pub async fn elect_async<C: MobileCtxAsync>(ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
    elect_with_fault_async(ctx, ElectFault::default()).await
}

/// [`elect_async`] with an injected fault (test-only; see [`ElectFault`]).
pub async fn elect_with_fault_async<C: MobileCtxAsync>(
    ctx: &mut C,
    fault: ElectFault,
) -> Result<AgentOutcome, Interrupt> {
    // A restarted incarnation redoes MAP-DRAWING and COMPUTE & ORDER
    // from scratch (its map was volatile); that redundant work belongs
    // to the recovery span, which elect_from_view_with_async closes once the
    // re-run is past the journaled progress.
    recovery_span_open(ctx);
    let view = compute_local_view_async(ctx).await?;
    elect_from_view_with_async(ctx, view, fault).await
}

/// Open the `"recovery"` span when this invocation is a restarted
/// incarnation under armed crash faults. Every entry point that later
/// reaches [`elect_from_view_with_async`] (which closes the span by the
/// same predicate) must call this before [`compute_local_view_async`],
/// so the redone MAP-DRAWING is attributed to recovery.
pub(crate) fn recovery_span_open<C: MobileCtxAsync>(ctx: &mut C) -> bool {
    if ctx.crash_faults_armed() && ctx.incarnation() > 0 {
        ctx.span_open("recovery");
        true
    } else {
        false
    }
}

/// ELECT after the local view is computed (shared with the Cayley
/// variant, which performs additional recognition work on the view).
pub async fn elect_from_view_async<C: MobileCtxAsync>(
    ctx: &mut C,
    view: LocalView,
) -> Result<AgentOutcome, Interrupt> {
    elect_from_view_with_async(ctx, view, ElectFault::default()).await
}

/// [`elect_from_view_async`] with an injected fault (test-only).
pub async fn elect_from_view_with_async<C: MobileCtxAsync>(
    ctx: &mut C,
    view: LocalView,
    fault: ElectFault,
) -> Result<AgentOutcome, Interrupt> {
    let LocalView {
        map,
        classes,
        schedule,
        my_class,
        ..
    } = view;
    let mut cr = Courier::new(ctx, map);

    // Crash-recovery bookkeeping (no-ops unless crash faults are armed;
    // see `CKPT`). `completed` counts reduction phases this agent has
    // participated in; the journal persists it on the home whiteboard so
    // a restarted incarnation can tell redundant re-execution (attributed
    // to the `"recovery"` span its entry point opened) from fresh
    // progress.
    let armed = cr.ctx.crash_faults_armed();
    let mut in_recovery = armed && cr.ctx.incarnation() > 0;
    let resume_from: u64 = if in_recovery {
        let me = cr.me();
        let signs = cr.ctx.read_board().await?;
        signs
            .iter()
            .filter(|s| s.kind == CKPT && s.color == me)
            .filter_map(|s| s.word())
            .max()
            .unwrap_or(0)
    } else {
        0
    };
    let mut completed: u64 = 0;
    let close_recovery_when_caught_up =
        |cr: &mut Courier<'_, C>, in_recovery: &mut bool, completed: u64| {
            if *in_recovery && completed >= resume_from {
                cr.ctx.span_close("recovery");
                *in_recovery = false;
            }
        };
    // Crashed before completing any phase: the redone MAP-DRAWING was
    // the whole recovery.
    close_recovery_when_caught_up(&mut cr, &mut in_recovery, completed);

    // Current active set, tracked only while this agent is active.
    // C_1 members start active; everyone else waits for activation (or
    // the final verdict).
    let mut active: Option<Vec<usize>> = if my_class == 0 {
        Some(classes[0].clone())
    } else {
        None
    };

    for phase in &schedule.phases {
        let tag = phase.number as u64;
        match &phase.kind {
            PhaseKind::AgentAgent { rounds } => {
                let class_set = classes[phase.class_index].clone();
                let joining = my_class == phase.class_index;
                if active.is_none() && !joining {
                    continue; // not my phase (yet)
                }
                let d_set: Vec<usize> = if let Some(d) = &active {
                    // Activate the joining class: visit every member.
                    let d = d.clone();
                    cr.post_at_all(&class_set, ACTIVATE, &[tag]).await?;
                    d
                } else {
                    // I am being activated: wait for all |D| activators,
                    // whose colors reveal D's membership.
                    cr.goto(0).await?;
                    let need = phase.d_in;
                    cr.ctx
                        .wait_until(move |wb| {
                            let mut seen: Vec<Color> = Vec::new();
                            for s in wb.signs() {
                                if s.kind == ACTIVATE
                                    && s.payload == [tag]
                                    && !seen.contains(&s.color)
                                {
                                    seen.push(s.color);
                                }
                            }
                            seen.len() >= need
                        })
                        .await?;
                    let signs = cr.ctx.read_board().await?;
                    let mut d: Vec<usize> = signs
                        .iter()
                        .filter(|s| s.kind == ACTIVATE && s.payload == [tag])
                        .filter_map(|s| cr.map.home_of(s.color))
                        .collect();
                    d.sort_unstable();
                    d.dedup();
                    debug_assert_eq!(d.len(), phase.d_in);
                    d
                };
                // Roles: S = the smaller set; ties go to D.
                let (s0, w0) = if class_set.len() < d_set.len() {
                    (class_set, d_set)
                } else {
                    (d_set, class_set)
                };
                match agent_reduce(&mut cr, tag, rounds, s0, w0).await? {
                    ReduceExit::Active(survivors) => {
                        debug_assert_eq!(survivors.len(), phase.d_out);
                        active = Some(survivors);
                    }
                    ReduceExit::Passive => return final_wait(&mut cr).await,
                }
                cr.ctx.checkpoint(&format!("phase {} done", phase.number));
                completed += 1;
                if armed {
                    cr.post(CKPT, vec![completed]).await?;
                }
                close_recovery_when_caught_up(&mut cr, &mut in_recovery, completed);
            }
            PhaseKind::AgentNode { rounds } => {
                let d_set = match &active {
                    Some(d) => d.clone(),
                    None => continue, // passive agents never see node phases
                };
                let selected = classes[phase.class_index].clone();
                match node_reduce(&mut cr, tag, rounds, d_set, selected).await? {
                    ReduceExit::Active(survivors) => {
                        debug_assert_eq!(survivors.len(), phase.d_out);
                        active = Some(survivors);
                    }
                    ReduceExit::Passive => return final_wait(&mut cr).await,
                }
                cr.ctx.checkpoint(&format!("phase {} done", phase.number));
                completed += 1;
                if armed {
                    cr.post(CKPT, vec![completed]).await?;
                }
                close_recovery_when_caught_up(&mut cr, &mut in_recovery, completed);
            }
        }
    }

    let elects = (schedule.final_d == 1) != fault.invert_gcd_check;
    match active {
        Some(survivors) if elects => {
            debug_assert!(
                fault != ElectFault::default() || survivors.len() == 1,
                "without faults the lone survivor is me"
            );
            announce_all(&mut cr, SignKind::Leader).await?;
            cr.goto(0).await?;
            Ok(AgentOutcome::Leader)
        }
        Some(_) => {
            // gcd(|C_1|, …, |C_k|) > 1: the protocol reports failure.
            announce_all(&mut cr, SignKind::Unsolvable).await?;
            cr.goto(0).await?;
            Ok(AgentOutcome::Unsolvable)
        }
        None => final_wait(&mut cr).await,
    }
}

/// Protocol ELECT as a [`Protocol`](qelect_agentsim::Protocol) for the
/// unified engine front door ([`qelect_agentsim::run()`]): one value
/// selects the protocol, the [`RunConfig`](qelect_agentsim::RunConfig)
/// builder selects scheduler, faults and replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElectProtocol {
    /// Test-only injected protocol fault (see [`ElectFault`]).
    pub fault: ElectFault,
}

impl qelect_agentsim::Protocol for ElectProtocol {
    async fn run_async<C: MobileCtxAsync>(&self, ctx: &mut C) -> Result<AgentOutcome, Interrupt> {
        elect_with_fault_async(ctx, self.fault).await
    }
}

/// Run ELECT through the unified engine API: scheduler policy, fault
/// plan and replay schedule all come from the one
/// [`RunConfig`](qelect_agentsim::RunConfig) builder.
pub fn run_election(
    bc: &Bicolored,
    cfg: &qelect_agentsim::RunConfig,
) -> Result<qelect_agentsim::ElectionRun, qelect_agentsim::RunError> {
    qelect_agentsim::run(bc, cfg, &ElectProtocol::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::sched::Policy;
    use qelect_agentsim::sim::{run_sim_faulty, run_staggered, RunConfig, RunReport};
    use qelect_agentsim::FaultPlan;
    use qelect_graph::families;

    /// Crash-free ELECT on the sim engine.
    fn run_elect(bc: &Bicolored, cfg: RunConfig) -> RunReport {
        run_sim_faulty(
            bc,
            cfg,
            &FaultPlan::none(),
            vec![ElectProtocol::default(); bc.r()],
        )
        .expect("sim run failed")
    }

    fn check_elects(bc: &Bicolored, seed: u64) -> RunReport {
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let report = run_elect(bc, cfg);
        assert!(
            report.clean_election(),
            "expected clean election, got {:?} (interrupt {:?})",
            report.outcomes,
            report.interrupted
        );
        report
    }

    fn check_fails(bc: &Bicolored, seed: u64) {
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        let report = run_elect(bc, cfg);
        assert!(
            report.unanimous_unsolvable(),
            "expected unanimous failure, got {:?} (interrupt {:?})",
            report.outcomes,
            report.interrupted
        );
    }

    #[test]
    fn single_agent_is_leader() {
        let bc = Bicolored::new(families::cycle(5).unwrap(), &[2]).unwrap();
        let report = check_elects(&bc, 1);
        assert_eq!(report.leader, Some(0));
    }

    #[test]
    fn two_agents_asymmetric_on_path() {
        // Path of 4, agents at 0 and 1: classes are singletons → gcd 1.
        let bc = Bicolored::new(families::path(4).unwrap(), &[0, 1]).unwrap();
        check_elects(&bc, 2);
    }

    #[test]
    fn antipodal_agents_on_even_cycle_fail() {
        // Classes sizes {2, 4} → gcd 2: ELECT must report failure.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        check_fails(&bc, 3);
    }

    #[test]
    fn two_adjacent_agents_on_even_cycle_fail() {
        // C4 adjacent: classes {2, 2} → gcd 2.
        let bc = Bicolored::new(families::cycle(4).unwrap(), &[0, 1]).unwrap();
        check_fails(&bc, 4);
    }

    #[test]
    fn three_agents_on_cycle_elect() {
        // C7 with agents at 0, 1, 3: all classes singletons (asymmetric
        // placement on odd cycle) → election succeeds.
        let bc = Bicolored::new(families::cycle(7).unwrap(), &[0, 1, 3]).unwrap();
        check_elects(&bc, 5);
    }

    #[test]
    fn symmetric_pair_plus_breaker_elects() {
        // C6 with agents at 0, 2, 3: classes have gcd 1 thanks to the
        // asymmetry, and an agent-agent reduction actually runs.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
        for seed in [1, 2, 3, 4] {
            check_elects(&bc, seed);
        }
    }

    #[test]
    fn all_schedulers_agree() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
        for policy in [
            Policy::Random,
            Policy::RoundRobin,
            Policy::Lockstep,
            Policy::GreedyLowest,
        ] {
            let cfg = RunConfig {
                seed: 7,
                policy,
                ..RunConfig::default()
            };
            let report = run_elect(&bc, cfg);
            assert!(
                report.clean_election(),
                "{policy:?}: {:?} ({:?})",
                report.outcomes,
                report.interrupted
            );
        }
    }

    #[test]
    fn petersen_two_agents_protocol_fails() {
        // Fig. 5: gcd = 2 → ELECT reports failure although election is
        // possible (the bespoke protocol elects; see crate::petersen).
        let bc = Bicolored::new(families::petersen().unwrap(), &[0, 1]).unwrap();
        check_fails(&bc, 6);
    }

    #[test]
    fn hypercube_antipodal_fails_star_like_breaks() {
        let bc = Bicolored::new(families::hypercube(3).unwrap(), &[0, 7]).unwrap();
        check_fails(&bc, 7);
        // Adding a third agent breaks the symmetry (sizes become coprime).
        let bc = Bicolored::new(families::hypercube(3).unwrap(), &[0, 7, 1]).unwrap();
        check_elects(&bc, 8);
    }

    #[test]
    fn star_center_agent_wins_instantly() {
        // Star K_{1,4} with the agent at the center: singleton class.
        let bc = Bicolored::new(families::star(4).unwrap(), &[0]).unwrap();
        let report = check_elects(&bc, 9);
        assert_eq!(report.leader, Some(0));
    }

    #[test]
    fn elect_navigates_multigraphs_with_loops() {
        // One agent on the Fig. 2(c) gadget (loops + parallel edges):
        // the whole pipeline — DFS, classes, announcement — must cope.
        let bc = Bicolored::new(families::fig2c_gadget().unwrap(), &[1]).unwrap();
        let report = check_elects(&bc, 20);
        assert_eq!(report.leader, Some(0));
    }

    #[test]
    fn elect_on_complete_bipartite() {
        // K_{3,3} with two same-side agents: an automorphism swaps them,
        // classes have gcd > 1 → failure. With agents on *opposite*
        // sides at asymmetric positions it still fails or succeeds per
        // the oracle — just cross-check both.
        for hbs in [vec![0usize, 1], vec![0, 3]] {
            let bc = Bicolored::new(families::complete_bipartite(3, 3).unwrap(), &hbs).unwrap();
            let expected = crate::solvability::elect_succeeds(&bc);
            let report = run_elect(&bc, RunConfig::default());
            assert_eq!(
                report.clean_election(),
                expected,
                "{hbs:?}: {:?}",
                report.outcomes
            );
        }
    }

    #[test]
    fn staggered_wakeup_still_elects() {
        // The paper's wake-up semantics: only one agent starts
        // spontaneously; its MAP-DRAWING marks wake the others.
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 2, 3]).unwrap();
        for initiator in 0..3 {
            let agents = vec![ElectProtocol::default(); 3];
            let report = run_staggered(&bc, RunConfig::default(), agents, &[initiator]).unwrap();
            assert!(
                report.clean_election(),
                "initiator {initiator}: {:?} ({:?})",
                report.outcomes,
                report.interrupted
            );
        }
    }

    #[test]
    fn staggered_wakeup_on_failure_instance() {
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let agents = vec![ElectProtocol::default(); 2];
        let report = run_staggered(&bc, RunConfig::default(), agents, &[1]).unwrap();
        assert!(report.unanimous_unsolvable(), "{:?}", report.outcomes);
    }

    #[test]
    fn moves_within_theorem_3_1_bound() {
        // Measure r·|E| scaling with a generous constant.
        for (bc, label) in [
            (
                Bicolored::new(families::cycle(8).unwrap(), &[0, 1, 3]).unwrap(),
                "C8",
            ),
            (
                Bicolored::new(families::hypercube(3).unwrap(), &[0, 1, 3]).unwrap(),
                "Q3",
            ),
        ] {
            let report = check_elects(&bc, 10);
            let bound = 64 * (bc.r() as u64) * (bc.graph().m() as u64);
            assert!(
                report.metrics.total_work() <= bound,
                "{label}: work {} exceeds 64·r·|E| = {}",
                report.metrics.total_work(),
                bound
            );
        }
    }
}
