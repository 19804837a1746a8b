//! The concrete protocol registry: every protocol this repo can run,
//! under its stable wire name, with capability flags — the single
//! source of truth every surface resolves protocol names through
//! (`qelectctl run/explore/load/zoo`, the `qelectd` request envelopes).
//!
//! The generic machinery ([`ProtocolId`], [`ProtocolCaps`],
//! [`ProtocolEntry`], [`Registry`]) lives in
//! [`qelect_agentsim::registry`]; this module supplies the entries,
//! because the protocol implementations live in this crate.
//!
//! Every entry runs on the one engine ([`qelect_agentsim::sim`]).
//!
//! | wire name | paper | oracle |
//! |---|---|---|
//! | `elect` | SPAA 2003 (source) | gcd of class sizes = 1 |
//! | `cayley` | SPAA 2003 §4 | Theorem 4.1 (when decided) |
//! | `quantitative` | SPAA 2003 §1.3 | always elects |
//! | `view` | SPAA 2003 §2 | — |
//! | `gather` | SPAA 2003 §5 | — |
//! | `petersen` | SPAA 2003 §4 | — |
//! | `anonymous` | SPAA 2003 §1.3 | — (the counterexample) |
//! | `dp-anon` | arXiv:1205.6249 | some singleton home-base class |
//! | `agent-elect` | arXiv:2403.13716 | always elects |

use crate::agent_elect::AgentElectProtocol;
use crate::anonymous::{ring_probe_counterexample, RingProbeProtocol};
use crate::dp_anon::{dp_solvable, DpAnonProtocol};
use crate::elect::{run_election, ElectProtocol};
use crate::gathering::run_gather;
use crate::petersen::run_petersen;
use crate::quantitative::run_quantitative;
use crate::solvability::{elect_succeeds, election_possible_cayley};
use crate::translation_elect::TranslationElectProtocol;
use crate::view_elect::run_view_elect;
use qelect_agentsim::fault::FaultPlan;
use qelect_agentsim::json::envelope;
use qelect_agentsim::sched::Scheduler;
use qelect_agentsim::sim::{self, RunReport};
use qelect_agentsim::{
    try_run_sim_with, AgentOutcome, ElectionRun, ExploreSpec, Protocol, ProtocolCaps,
    ProtocolEntry, ProtocolId, Registry, RunConfig, RunError, Trace,
};
use qelect_graph::Bicolored;
use qelect_group::recognition::RecognitionBudget;

/// The default protocol every surface assumes when none is named (the
/// absent `"protocol"` field in a `qelectd` request, the bare `run`
/// default, the load generator's default mix).
pub const DEFAULT_PROTOCOL: &str = "elect";

fn run_elect_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    run_election(bc, cfg)
}

fn run_cayley_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    qelect_agentsim::run(bc, cfg, &TranslationElectProtocol)
}

fn run_anonymous_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    qelect_agentsim::run(bc, cfg, &RingProbeProtocol)
}

fn run_dp_anon_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    qelect_agentsim::run(bc, cfg, &DpAnonProtocol)
}

fn run_agent_elect_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    qelect_agentsim::run(bc, cfg, &AgentElectProtocol)
}

/// The label block the quantitative baseline assigns (agent `i` gets
/// `100 + i`, matching the historical `qelectctl` convention).
pub fn quantitative_ids(r: usize) -> Vec<u64> {
    (0..r as u64).map(|i| 100 + i).collect()
}

fn run_quantitative_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    run_quantitative(bc, cfg, &quantitative_ids(bc.r()))
}

fn run_view_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    run_view_elect(bc, cfg)
}

fn run_gather_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    run_gather(bc, cfg)
}

fn run_petersen_entry(bc: &Bicolored, cfg: &RunConfig) -> Result<ElectionRun, RunError> {
    run_petersen(bc, cfg)
}

/// One exploration schedule for a [`Protocol`] implementation — the
/// uniform `ExploreSpec::run` body.
fn explore_run_for<P: Protocol + Clone>(
    protocol: P,
    bc: &Bicolored,
    cfg: &sim::RunConfig,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    let agents = vec![protocol; bc.r()];
    try_run_sim_with(bc, *cfg, &FaultPlan::none(), agents, scheduler)
}

fn elect_explore_run(
    bc: &Bicolored,
    cfg: &sim::RunConfig,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    explore_run_for(ElectProtocol::default(), bc, cfg, scheduler)
}

fn anonymous_explore_run(
    bc: &Bicolored,
    cfg: &sim::RunConfig,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    explore_run_for(RingProbeProtocol, bc, cfg, scheduler)
}

fn dp_anon_explore_run(
    bc: &Bicolored,
    cfg: &sim::RunConfig,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    explore_run_for(DpAnonProtocol, bc, cfg, scheduler)
}

fn agent_elect_explore_run(
    bc: &Bicolored,
    cfg: &sim::RunConfig,
    scheduler: &mut dyn Scheduler,
) -> Result<RunReport, RunError> {
    explore_run_for(AgentElectProtocol, bc, cfg, scheduler)
}

fn elect_explore_property(bc: &Bicolored, report: &RunReport) -> Result<(), String> {
    crate::replay::elect_oracle_check(bc, report)
}

/// The safety property every election protocol owes under *every*
/// schedule: never two leaders. (The anonymous §1.3 probe violates it by
/// design — that violation is the artifact exploration exists to find.)
fn at_most_one_leader(_bc: &Bicolored, report: &RunReport) -> Result<(), String> {
    let leaders = report
        .outcomes
        .iter()
        .filter(|o| **o == AgentOutcome::Leader)
        .count();
    if leaders > 1 {
        Err(format!("{leaders} agents claimed leadership"))
    } else {
        Ok(())
    }
}

/// The committed §1.3 witness: lockstep antipodal twins double-electing
/// on an even cycle. Only defined on that instance shape — anything else
/// is a typed error telling the caller what the witness needs.
fn anonymous_canonical_witness(bc: &Bicolored) -> Result<Trace, String> {
    let n = bc.n();
    if bc.r() != 2 || n < 4 || !n.is_multiple_of(2) || bc.homebases() != [0, n / 2] {
        return Err(format!(
            "the canonical \u{a7}1.3 witness needs antipodal twins on an even cycle \
             (cycle:n with --agents 0,n/2); got {} agent(s) at {:?} on {} nodes",
            bc.r(),
            bc.homebases(),
            n
        ));
    }
    Ok(ring_probe_counterexample(n).1)
}

static ELECT_EXPLORE: ExploreSpec = ExploreSpec {
    run: elect_explore_run,
    property: elect_explore_property,
    property_line:
        "Theorem 3.1 oracle: clean election iff gcd of class sizes is 1, on every schedule",
    violation_expected: false,
    canonical_witness: None,
};

static ANON_EXPLORE: ExploreSpec = ExploreSpec {
    run: anonymous_explore_run,
    property: at_most_one_leader,
    property_line:
        "at most one leader — violated by design (the \u{a7}1.3 impossibility demonstration)",
    violation_expected: true,
    canonical_witness: Some(anonymous_canonical_witness),
};

static DP_ANON_EXPLORE: ExploreSpec = ExploreSpec {
    run: dp_anon_explore_run,
    property: at_most_one_leader,
    property_line: "at most one leader, on every schedule",
    violation_expected: false,
    canonical_witness: None,
};

static AGENT_ELECT_EXPLORE: ExploreSpec = ExploreSpec {
    run: agent_elect_explore_run,
    property: at_most_one_leader,
    property_line: "at most one leader, on every schedule",
    violation_expected: false,
    canonical_witness: None,
};

fn elect_oracle(bc: &Bicolored) -> Option<bool> {
    Some(elect_succeeds(bc))
}

fn cayley_oracle(bc: &Bicolored) -> Option<bool> {
    election_possible_cayley(bc, RecognitionBudget::default())
}

fn dp_anon_oracle(bc: &Bicolored) -> Option<bool> {
    Some(dp_solvable(bc))
}

fn always_elects(_bc: &Bicolored) -> Option<bool> {
    Some(true)
}

fn no_oracle(_bc: &Bicolored) -> Option<bool> {
    None
}

static ENTRIES: [ProtocolEntry; 9] = [
    ProtocolEntry {
        id: ProtocolId::new("elect"),
        aliases: &[],
        summary: "Protocol ELECT: comparison-free election over whiteboards (Theorem 3.1)",
        paper: "SPAA 2003 (the source paper)",
        caps: ProtocolCaps {
            fault_recoverable: true,
            explorable: true,
            servable: true,
            audit_schema: Some(envelope::AUDIT),
        },
        runner: run_elect_entry,
        explore: Some(&ELECT_EXPLORE),
        oracle: elect_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("cayley"),
        aliases: &[],
        summary: "translation election on Cayley graphs (Theorem 4.1 verdict first)",
        paper: "SPAA 2003 \u{a7}4",
        caps: ProtocolCaps {
            fault_recoverable: false,
            explorable: false,
            servable: true,
            audit_schema: None,
        },
        runner: run_cayley_entry,
        explore: None,
        oracle: cayley_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("quantitative"),
        aliases: &["quant"],
        summary: "universal election with externally assigned comparable labels (\u{a7}1.3)",
        paper: "SPAA 2003 \u{a7}1.3",
        caps: ProtocolCaps {
            fault_recoverable: false,
            explorable: false,
            servable: false,
            audit_schema: None,
        },
        runner: run_quantitative_entry,
        explore: None,
        oracle: always_elects,
    },
    ProtocolEntry {
        id: ProtocolId::new("view"),
        aliases: &[],
        summary: "view-based election (quotient-graph views, \u{a7}2 machinery)",
        paper: "SPAA 2003 \u{a7}2",
        caps: ProtocolCaps {
            fault_recoverable: false,
            explorable: false,
            servable: false,
            audit_schema: None,
        },
        runner: run_view_entry,
        explore: None,
        oracle: no_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("gather"),
        aliases: &[],
        summary: "gathering: all agents meet at one node (\u{a7}5 reduction)",
        paper: "SPAA 2003 \u{a7}5",
        caps: ProtocolCaps {
            fault_recoverable: false,
            explorable: false,
            servable: false,
            audit_schema: None,
        },
        runner: run_gather_entry,
        explore: None,
        oracle: no_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("petersen"),
        aliases: &[],
        summary: "the \u{a7}4 two-agent Petersen-graph special case (r = 2 only)",
        paper: "SPAA 2003 \u{a7}4",
        caps: ProtocolCaps {
            fault_recoverable: false,
            explorable: false,
            servable: false,
            audit_schema: None,
        },
        runner: run_petersen_entry,
        explore: None,
        oracle: no_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("anonymous"),
        aliases: &["anon"],
        summary: "the \u{a7}1.3 anonymous ring probe (the executable impossibility argument)",
        paper: "SPAA 2003 \u{a7}1.3",
        caps: ProtocolCaps {
            fault_recoverable: false,
            explorable: true,
            servable: false,
            audit_schema: None,
        },
        runner: run_anonymous_entry,
        explore: Some(&ANON_EXPLORE),
        oracle: no_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("dp-anon"),
        aliases: &["dp", "dereniowski-pelc"],
        summary: "Dereniowski\u{2013}Pelc anonymous-agent election (singleton-class criterion)",
        paper: "arXiv:1205.6249",
        caps: ProtocolCaps {
            fault_recoverable: true,
            explorable: true,
            servable: true,
            audit_schema: Some(envelope::AUDIT),
        },
        runner: run_dp_anon_entry,
        explore: Some(&DP_ANON_EXPLORE),
        oracle: dp_anon_oracle,
    },
    ProtocolEntry {
        id: ProtocolId::new("agent-elect"),
        aliases: &["agent", "kkms"],
        summary: "agent-based election with comparable identifiers (always solvable)",
        paper: "arXiv:2403.13716",
        caps: ProtocolCaps {
            fault_recoverable: true,
            explorable: true,
            servable: true,
            audit_schema: Some(envelope::AUDIT),
        },
        runner: run_agent_elect_entry,
        explore: Some(&AGENT_ELECT_EXPLORE),
        oracle: always_elects,
    },
];

static REGISTRY: Registry = Registry::new(&ENTRIES);

/// The protocol registry (every entry, declaration order).
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// Resolve a wire name or alias — the one protocol-name parsing path.
pub fn resolve(name: &str) -> Result<&'static ProtocolEntry, String> {
    REGISTRY.resolve(name)
}

/// Look up an entry by id (ids originate from this registry).
pub fn get(id: ProtocolId) -> &'static ProtocolEntry {
    REGISTRY.get(id)
}

/// The default entry ([`DEFAULT_PROTOCOL`]).
pub fn default_entry() -> &'static ProtocolEntry {
    resolve(DEFAULT_PROTOCOL).expect("the default protocol is registered")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn cycle(n: usize, homes: &[usize]) -> Bicolored {
        Bicolored::new(families::cycle(n).unwrap(), homes).unwrap()
    }

    #[test]
    fn names_and_aliases_are_unique() {
        let mut seen: Vec<&str> = Vec::new();
        for e in registry().entries() {
            for name in std::iter::once(e.id.name()).chain(e.aliases.iter().copied()) {
                assert!(!seen.contains(&name), "duplicate protocol name {name:?}");
                seen.push(name);
            }
        }
    }

    #[test]
    fn aliases_resolve_to_their_entries() {
        for (alias, target) in [
            ("quant", "quantitative"),
            ("anon", "anonymous"),
            ("dp", "dp-anon"),
            ("dereniowski-pelc", "dp-anon"),
            ("agent", "agent-elect"),
            ("kkms", "agent-elect"),
        ] {
            assert_eq!(resolve(alias).unwrap().id.name(), target);
        }
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = resolve("warp").unwrap_err();
        assert!(err.contains("unknown protocol"), "{err}");
        for e in registry().entries() {
            assert!(err.contains(e.id.name()), "{err} lacks {}", e.id);
        }
    }

    #[test]
    fn explorable_entries_carry_explore_specs_and_vice_versa() {
        for e in registry().entries() {
            assert_eq!(
                e.caps.explorable,
                e.explore.is_some(),
                "{}: the explorable cap and the explore spec must agree",
                e.id
            );
        }
    }

    #[test]
    fn audit_schemas_cover_the_span_instrumented_protocols() {
        for name in ["elect", "dp-anon", "agent-elect"] {
            assert_eq!(
                resolve(name).unwrap().caps.audit_schema,
                Some(envelope::AUDIT),
                "{name} emits phase spans and must be auditable"
            );
        }
        for name in [
            "cayley",
            "quantitative",
            "view",
            "gather",
            "petersen",
            "anonymous",
        ] {
            assert_eq!(
                resolve(name).unwrap().caps.audit_schema,
                None,
                "{name} has no audit schema"
            );
        }
    }

    #[test]
    fn anonymous_witness_validates_its_instance() {
        let spec = resolve("anonymous").unwrap().explore.unwrap();
        let witness = spec.canonical_witness.expect("anonymous has a witness");
        let good = cycle(6, &[0, 3]);
        let trace = witness(&good).expect("C6 antipodal twins are the witness shape");
        assert!(!trace.schedule.is_empty());
        assert_eq!(trace.agents, 2);
        assert_eq!(trace.nodes, 6);
        let bad = cycle(9, &[0, 1, 3]);
        let err = witness(&bad).unwrap_err();
        assert!(err.contains("antipodal twins"), "{err}");
    }

    #[test]
    fn every_servable_entry_runs_on_a_small_instance() {
        // The serving layer routes arbitrary instances at every servable
        // protocol, so each must at least complete without panicking on
        // the quickstart families.
        let cases = [cycle(9, &[0, 1, 3]), cycle(6, &[0, 3])];
        for e in registry().entries().iter().filter(|e| e.caps.servable) {
            for bc in &cases {
                let run = e
                    .run(bc, &RunConfig::new(3))
                    .unwrap_or_else(|err| panic!("{}: {err}", e.id));
                if let Some(expect) = (e.oracle)(bc) {
                    assert_eq!(
                        run.clean_election(),
                        expect,
                        "{} vs oracle on {:?}",
                        e.id,
                        bc.homebases()
                    );
                }
            }
        }
    }

    #[test]
    fn entry_runs_honour_replay_schedules_and_fault_plans() {
        use qelect_agentsim::sched::Policy;
        use qelect_agentsim::{FaultAction, FaultEvent, FaultPlan};
        let bc = cycle(7, &[0, 1, 3]);
        for name in ["quantitative", "gather"] {
            let entry = resolve(name).unwrap();
            // A schedule recorded under the random policy replays
            // strictly, whatever policy the replaying config names.
            let recorded = RunConfig::new(5).policy(Policy::Random).record_trace(true);
            let first = entry.run(&bc, &recorded).unwrap().report;
            let replay = RunConfig::new(5)
                .policy(Policy::RoundRobin)
                .record_trace(true)
                .replay(first.trace.clone(), true);
            let second = entry.run(&bc, &replay).unwrap().report;
            assert_eq!(second.trace, first.trace, "{name}");
            assert_eq!(second.events, first.events, "{name}");
            assert_eq!(second.outcomes, first.outcomes, "{name}");
            assert_eq!(second.metrics.per_agent, first.metrics.per_agent, "{name}");
            // A one-crash plan reaches the run and its fault summary.
            let plan = FaultPlan {
                events: vec![FaultEvent {
                    agent: 1,
                    at_op: 3,
                    action: FaultAction::Crash { restart_after: 1 },
                }],
                ..FaultPlan::none()
            };
            let run = entry.run(&bc, &RunConfig::new(5).faults(plan)).unwrap();
            assert_eq!(run.faults.crashes, 1, "{name}");
        }
    }

    #[test]
    fn default_entry_is_elect() {
        assert_eq!(default_entry().id.name(), "elect");
        assert_eq!(default_entry().id, resolve("elect").unwrap().id);
    }

    #[test]
    fn oracles_are_consistent_on_known_instances() {
        let solvable = cycle(9, &[0, 1, 3]);
        let symmetric = cycle(6, &[0, 3]);
        assert_eq!((resolve("elect").unwrap().oracle)(&solvable), Some(true));
        assert_eq!((resolve("elect").unwrap().oracle)(&symmetric), Some(false));
        assert_eq!((resolve("dp").unwrap().oracle)(&solvable), Some(true));
        assert_eq!((resolve("dp").unwrap().oracle)(&symmetric), Some(false));
        assert_eq!((resolve("agent").unwrap().oracle)(&solvable), Some(true));
        assert_eq!((resolve("agent").unwrap().oracle)(&symmetric), Some(true));
        // ELECT beats DP on the path P5 @ {1,3}: the white midpoint is a
        // singleton class (gcd 1) but both home-bases share a class.
        let path = Bicolored::new(families::path(5).unwrap(), &[1, 3]).unwrap();
        assert_eq!((resolve("elect").unwrap().oracle)(&path), Some(true));
        assert_eq!((resolve("dp").unwrap().oracle)(&path), Some(false));
    }
}
