//! Schema-versioned exploration reports — the `qelectctl explore --json`
//! export and the `BENCH_explore.json` artifact benchgate validates.
//!
//! [`ExploreRunReport`] wraps one [`qelect_agentsim::explore::ExploreReport`]
//! with the configuration that produced it (protocol, instance, worker
//! count, bounds) and the wall-clock measurement, and serializes
//! the whole thing under the [`EXPLORE_SCHEMA`] envelope. The document is
//! self-describing enough for the gate to re-check the headline claims:
//! total schedules visited, unique coverage signatures, and the pass
//! verdict.
//!
//! The `covered` signature set itself is *not* serialized — at swarm
//! scale it is millions of entries; the worker-count determinism
//! contract is checked in-process by the property tests instead, and the
//! JSON carries only its cardinality (`unique_signatures`).

use std::time::Duration;

use qelect_agentsim::explore::ExploreReport;
use qelect_agentsim::{json, Engine};

/// Schema tag embedded in every exploration JSON document (the shared
/// envelope declaration, [`json::envelope::EXPLORE`]).
pub const EXPLORE_SCHEMA: &str = json::envelope::EXPLORE;

/// One exploration run plus the configuration that produced it.
#[derive(Debug, Clone)]
pub struct ExploreRunReport {
    /// Wire name of the explored protocol.
    pub protocol: String,
    /// The instance family spec as parsed (e.g. `cycle:14`).
    pub family_spec: String,
    /// Home-base nodes.
    pub agents: Vec<usize>,
    /// Base run seed (the swarm seed is derived from it).
    pub seed: u64,
    /// Worker threads used (results are worker-count invariant).
    pub workers: usize,
    /// DFS preemption bound.
    pub preemption_bound: usize,
    /// DFS schedule budget.
    pub max_schedules: usize,
    /// Swarm schedule budget.
    pub swarm_runs: usize,
    /// Whether the registry spec *expects* violations (impossibility
    /// exhibits like `anonymous`): violations then confirm the paper's
    /// argument instead of failing the run.
    pub violation_expected: bool,
    /// The exploration result.
    pub report: ExploreReport,
    /// `(original, shrunk)` schedule lengths when a counterexample was
    /// ddmin-minimized.
    pub shrunk: Option<(usize, usize)>,
    /// Wall-clock time of the exploration.
    pub wall: Duration,
}

impl ExploreRunReport {
    /// The gate verdict: a violation-expected exploration passes by
    /// finding its violations (or none — the budget may be tiny); a
    /// verification run passes only when no violation was found.
    pub fn passed(&self) -> bool {
        self.violation_expected || self.report.passed()
    }

    /// Throughput over the whole exploration.
    pub fn schedules_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.report.schedules_explored as f64 / secs
        }
    }

    /// Stable instance key, e.g. `cycle:14@0,7`.
    pub fn instance_key(&self) -> String {
        let agents: Vec<String> = self.agents.iter().map(|a| a.to_string()).collect();
        format!("{}@{}", self.family_spec, agents.join(","))
    }

    /// Serialize as schema-versioned JSON ([`EXPLORE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(EXPLORE_SCHEMA));
        s.push_str(&format!(
            "  \"protocol\": {},\n",
            json::escape(&self.protocol)
        ));
        s.push_str(&format!(
            "  \"instance\": {},\n",
            json::escape(&self.instance_key())
        ));
        let agents: Vec<String> = self.agents.iter().map(|a| a.to_string()).collect();
        s.push_str(&format!(
            "  \"family\": {}, \"agents\": [{}],\n",
            json::escape(crate::spec::family_of(&self.family_spec)),
            agents.join(",")
        ));
        s.push_str(&format!(
            "  \"seed\": {}, \"engine\": {}, \"workers\": {},\n",
            self.seed,
            json::escape(Engine::Sim.name()),
            self.workers
        ));
        s.push_str(&format!(
            "  \"preemption_bound\": {}, \"max_schedules\": {}, \"swarm_runs\": {},\n",
            self.preemption_bound, self.max_schedules, self.swarm_runs
        ));
        s.push_str(&format!(
            "  \"violation_expected\": {},\n",
            self.violation_expected
        ));
        s.push_str(&format!(
            "  \"schedules_total\": {}, \"dfs_schedules\": {}, \"swarm_schedules\": {},\n",
            r.schedules_explored, r.dfs_schedules, r.swarm_schedules
        ));
        s.push_str(&format!(
            "  \"unique_signatures\": {}, \"revisits\": {}, \"max_ticks\": {},\n",
            r.coverage.unique, r.coverage.revisits, r.max_ticks
        ));
        s.push_str(&format!(
            "  \"complete\": {}, \"swarm_used\": {},\n",
            r.complete, r.swarm_used
        ));
        s.push_str(&format!(
            "  \"violations\": {}, \"counterexamples\": {},\n",
            r.violations,
            r.counterexamples.len()
        ));
        if let Some((from, to)) = self.shrunk {
            s.push_str(&format!(
                "  \"shrunk\": {{\"from\": {from}, \"to\": {to}}},\n"
            ));
        }
        s.push_str(&format!(
            "  \"wall_ms\": {}, \"schedules_per_sec\": {:.1},\n",
            self.wall.as_millis(),
            self.schedules_per_sec()
        ));
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }

    /// Render the human-readable coverage summary `qelectctl explore`
    /// prints.
    pub fn render(&self) -> String {
        let r = &self.report;
        let mut out = String::new();
        out.push_str(&format!(
            "schedules: {} ({} DFS + {} swarm), workers: {}\n",
            r.schedules_explored, r.dfs_schedules, r.swarm_schedules, self.workers
        ));
        out.push_str(&format!(
            "coverage: {} unique signatures, {} revisits, longest run {} ticks\n",
            r.coverage.unique, r.coverage.revisits, r.max_ticks
        ));
        out.push_str(&format!(
            "bounded tree: {}, swarm phase: {}\n",
            if r.complete {
                "exhausted (proof within the preemption bound)"
            } else {
                "truncated by budget"
            },
            if r.swarm_used { "ran" } else { "skipped" }
        ));
        out.push_str(&format!(
            "wall: {} ms ({:.0} schedules/s)\n",
            self.wall.as_millis(),
            self.schedules_per_sec()
        ));
        if r.violations > 0 {
            out.push_str(&format!(
                "violations: {} run(s), {} distinct counterexample(s){}\n",
                r.violations,
                r.counterexamples.len(),
                if self.violation_expected {
                    " — expected for this protocol"
                } else {
                    ""
                }
            ));
        }
        if let Some((from, to)) = self.shrunk {
            out.push_str(&format!(
                "ddmin: first counterexample shrunk {from} -> {to} grants\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::explore::ExploreConfig;
    use qelect_agentsim::RunConfig;
    use qelect_graph::{families, Bicolored};

    fn tiny_run() -> ExploreRunReport {
        let entry = qelect::registry::resolve("anonymous").unwrap();
        let bc = Bicolored::new(families::cycle(6).unwrap(), &[0, 3]).unwrap();
        let run_cfg = RunConfig::new(7).record_trace(true);
        let session = qelect::prelude::ExploreSession::from_entry(entry, &bc, &run_cfg).unwrap();
        let report = session.explore(&ExploreConfig {
            max_schedules: 64,
            swarm_runs: 200,
            workers: 2,
            max_counterexamples: 4,
            ..ExploreConfig::default()
        });
        let shrunk = report
            .counterexample()
            .map(|ce| (ce.schedule.len(), session.shrink(ce).len()));
        ExploreRunReport {
            protocol: entry.id.name().to_string(),
            family_spec: "cycle:6".into(),
            agents: vec![0, 3],
            seed: 7,
            workers: 2,
            preemption_bound: 2,
            max_schedules: 64,
            swarm_runs: 200,
            violation_expected: session.violation_expected(),
            report,
            shrunk,
            wall: Duration::from_millis(125),
        }
    }

    #[test]
    fn explore_json_is_schema_versioned_and_self_consistent() {
        let run = tiny_run();
        assert!(run.violation_expected, "anonymous is an exhibit");
        assert!(run.passed());
        let text = run.to_json();
        let obj = json::envelope::check_document(&text, EXPLORE_SCHEMA).unwrap();
        assert_eq!(
            json::get(&obj, "protocol").unwrap().as_str(),
            Some("anonymous")
        );
        assert_eq!(
            json::get(&obj, "instance").unwrap().as_str(),
            Some("cycle:6@0,3")
        );
        let total = json::get(&obj, "schedules_total")
            .unwrap()
            .as_num()
            .unwrap();
        let dfs = json::get(&obj, "dfs_schedules").unwrap().as_num().unwrap();
        let swarm = json::get(&obj, "swarm_schedules")
            .unwrap()
            .as_num()
            .unwrap();
        assert_eq!(total, dfs + swarm);
        assert!(
            json::get(&obj, "unique_signatures")
                .unwrap()
                .as_num()
                .unwrap()
                >= 1.0
        );
        assert_eq!(json::get(&obj, "passed").unwrap().as_bool(), Some(true));
        // The impossibility exhibit double-elects somewhere in this
        // budget, and the shrunk witness is never longer than the
        // original.
        let (from, to) = run.shrunk.expect("C6 anonymous double-elects");
        assert!(to <= from, "ddmin grew the schedule: {from} -> {to}");
        assert!(text.contains("\"shrunk\""));
    }

    #[test]
    fn render_summarizes_coverage_and_shrinking() {
        let run = tiny_run();
        let text = run.render();
        assert!(text.contains("unique signatures"), "{text}");
        assert!(text.contains("ddmin"), "{text}");
        assert!(text.contains("expected for this protocol"), "{text}");
    }
}
