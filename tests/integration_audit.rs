//! Integration tests of the phase-resolved audit pipeline (E11).
//!
//! Pins three things end to end:
//!
//! 1. **Theorem 3.1** — `total_work ≤ c·r·|E|` on cycles and the
//!    Petersen graph, with the generous-but-finite envelope constant the
//!    paper's O(r·|E|) bound promises exists.
//! 2. **Attribution exactness** — the per-phase rows of every audited
//!    instance sum exactly to the run totals (the span invariant,
//!    observed through the full `run_audit` pipeline rather than a unit
//!    fixture).
//! 3. **The regression gate** — a JSON report round-trips through the
//!    baseline parser and the gate accepts/rejects as configured, the
//!    same path `qelectctl audit` and CI exercise.

use qelect_bench::report::{check_against_baseline, run_audit, AuditConfig, AuditInstance};
use qelect_graph::families;

/// The envelope constant: generous (the measured fits sit below 10 on
/// every standard family) but finite and fixed, so a complexity
/// regression that breaks the O(r·|E|) shape fails loudly.
const C_ENVELOPE: f64 = 40.0;

fn audit_instances() -> Vec<AuditInstance> {
    vec![
        AuditInstance {
            spec: "cycle:12".to_string(),
            graph: families::cycle(12).unwrap(),
            agents: vec![0, 1, 3],
        },
        AuditInstance {
            spec: "cycle:9".to_string(),
            graph: families::cycle(9).unwrap(),
            agents: vec![0, 3],
        },
        AuditInstance {
            spec: "petersen".to_string(),
            graph: families::petersen().unwrap(),
            agents: vec![0, 1],
        },
    ]
}

fn config() -> AuditConfig {
    AuditConfig {
        instances: audit_instances(),
        seeds: vec![0, 1],
        ..AuditConfig::default()
    }
}

#[test]
fn theorem_3_1_bound_holds_under_the_sim_engine() {
    let report = run_audit(&config()).unwrap();
    for inst in &report.instances {
        assert!(
            inst.fitted_c <= C_ENVELOPE,
            "{}: fitted c = {:.2} blows the O(r·|E|) envelope {C_ENVELOPE}",
            inst.key,
            inst.fitted_c
        );
        assert!(inst.fitted_c > 0.0, "{}: protocol did no work", inst.key);
    }
}

#[test]
fn phase_totals_sum_to_run_totals_on_every_instance() {
    let report = run_audit(&config()).unwrap();
    for inst in &report.instances {
        let sum = inst.phases.iter().fold((0u64, 0u64, 0u64), |acc, p| {
            (acc.0 + p.moves, acc.1 + p.accesses, acc.2 + p.waits)
        });
        assert_eq!(sum, inst.total, "{}: spans must telescope", inst.key);
        // The protocol's named phases all surface.
        assert!(
            inst.phases.iter().any(|p| p.phase == "map-drawing"),
            "{}: missing the map-drawing span",
            inst.key
        );
        assert!(
            inst.phases.iter().any(|p| p.phase == "classes"),
            "{}: missing the classes span",
            inst.key
        );
        // The classes phase is pure local computation: its cost is in
        // cache traffic, not moves.
        let classes = inst.phases.iter().find(|p| p.phase == "classes").unwrap();
        assert_eq!(classes.moves, 0, "{}: classes phase moved", inst.key);
        assert!(classes.cache.is_some(), "{}: classes cache delta", inst.key);
    }
}

#[test]
fn json_report_gates_like_the_ci_job() {
    let report = run_audit(&config()).unwrap();
    let json = report.to_json();
    // Self-comparison passes (tiny tolerance absorbs serialization
    // rounding); a baseline claiming half the constant regresses.
    assert!(check_against_baseline(&report, &json, 1e-6)
        .unwrap()
        .is_empty());
    let rows: Vec<String> = report
        .families
        .iter()
        .map(|f| {
            format!(
                "{{\"family\": \"{}\", \"instances\": {}, \"fitted_c\": {:.6}}}",
                f.family,
                f.instances,
                f.fitted_c / 2.0
            )
        })
        .collect();
    let halved = format!(
        "{{\"schema\": \"qelect-audit/1\", \"families\": [{}]}}",
        rows.join(",")
    );
    let msgs = check_against_baseline(&report, &halved, 0.25).unwrap();
    assert_eq!(msgs.len(), report.families.len(), "{msgs:?}");
}
