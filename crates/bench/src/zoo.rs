//! The cross-protocol experiment behind `qelectctl zoo` and the
//! committed `BENCH_zoo.json` record.
//!
//! One panel of instances, every registered protocol the config names:
//! each (instance, protocol) cell runs the protocol through its
//! [`ProtocolEntry`] — the same resolution and dispatch path the CLI,
//! the daemon and the load generator use — and records the outcome next
//! to the entry's ground-truth oracle. The report is the paper's
//! Table 1 made empirical: the same instance panel, one column per
//! protocol, each column showing where that protocol's solvability
//! boundary falls (ELECT follows the gcd criterion, `dp-anon` the
//! stricter singleton-class criterion of arXiv:1205.6249, `agent-elect`
//! and `quantitative` elect everywhere because their agents are
//! comparable).
//!
//! A cell with an oracle verdict is *gated*: the run must elect exactly
//! when the oracle says so (and report a unanimous unsolvable verdict
//! otherwise) or the whole report fails. A cell whose oracle returns
//! `None` (e.g. `cayley` on a non-Cayley family, where the protocol's
//! own criterion does not apply) is recorded but not gated.
//!
//! Every cell runs on the sim engine and records its name.

use qelect::registry as protocol_registry;
use qelect_agentsim::json;
use qelect_agentsim::registry::{ProtocolEntry, ProtocolId};
use qelect_agentsim::{Engine, RunConfig};
use qelect_graph::Bicolored;

use crate::report::AuditInstance;
use crate::{header, row};

/// Schema tag embedded in every zoo JSON document (the shared envelope
/// declaration, [`json::envelope::ZOO`]).
pub const ZOO_SCHEMA: &str = json::envelope::ZOO;

/// Configuration of one cross-protocol experiment.
#[derive(Debug)]
pub struct ZooConfig {
    /// The instance panel (rows of the empirical Table 1).
    pub instances: Vec<AuditInstance>,
    /// The protocols to run (columns), in report order.
    pub protocols: Vec<ProtocolId>,
    /// Run seed (colors + port scrambles), shared by every cell.
    pub seed: u64,
}

impl Default for ZooConfig {
    fn default() -> Self {
        let protocols = ["elect", "cayley", "quantitative", "dp-anon", "agent-elect"]
            .iter()
            .map(|name| {
                protocol_registry::resolve(name)
                    .expect("default zoo protocols are registered")
                    .id
            })
            .collect();
        ZooConfig {
            instances: Vec::new(),
            protocols,
            seed: 0,
        }
    }
}

/// One (instance, protocol) cell of the experiment.
#[derive(Debug, Clone)]
pub struct ZooCell {
    /// Instance key (`family-spec@agents`).
    pub instance: String,
    /// Protocol wire name.
    pub protocol: &'static str,
    /// The engine the cell ran on.
    pub engine: &'static str,
    /// Whether the run elected a unique leader.
    pub elected: bool,
    /// The elected leader's home-base, when one was elected.
    pub leader: Option<usize>,
    /// The entry's oracle verdict (`None`: recorded, not gated).
    pub expected: Option<bool>,
    /// A typed run error, when the run failed outright.
    pub error: Option<String>,
    /// Whether the cell passes its gate (always `true` when ungated).
    pub ok: bool,
}

/// The full cross-protocol report.
#[derive(Debug, Clone)]
pub struct ZooReport {
    /// Every (instance, protocol) cell, instance-major.
    pub cells: Vec<ZooCell>,
    /// Protocol wire names, in column order.
    pub protocols: Vec<&'static str>,
    /// Seed shared by every cell.
    pub seed: u64,
}

impl ZooReport {
    /// Whether every gated cell agreed with its oracle and no cell
    /// errored. An empty report fails — it gates nothing.
    pub fn passed(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(|c| c.ok)
    }

    /// How many cells carry an oracle verdict.
    pub fn gated_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.expected.is_some()).count()
    }

    /// Render the human-facing table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&header(&[
            "instance", "protocol", "engine", "outcome", "expected", "ok",
        ]));
        out.push('\n');
        for c in &self.cells {
            let outcome = if let Some(err) = &c.error {
                format!("error: {err}")
            } else if let Some(leader) = c.leader {
                format!("leader {leader}")
            } else {
                "unsolvable".to_string()
            };
            let expected = match c.expected {
                Some(true) => "elect",
                Some(false) => "unsolvable",
                None => "-",
            };
            out.push_str(&row(&[
                c.instance.clone(),
                c.protocol.to_string(),
                c.engine.to_string(),
                outcome,
                expected.to_string(),
                c.ok.to_string(),
            ]));
            out.push('\n');
        }
        out.push_str(&format!(
            "zoo: {} cells ({} gated), seed {}, passed: {}\n",
            self.cells.len(),
            self.gated_cells(),
            self.seed,
            self.passed(),
        ));
        out
    }

    /// Serialize as the schema-versioned `qelect-zoo/1` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(ZOO_SCHEMA));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"protocols\": [{}],\n",
            self.protocols
                .iter()
                .map(|p| json::escape(p))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  \"cells\": [\n");
        for (idx, c) in self.cells.iter().enumerate() {
            let leader = match c.leader {
                Some(l) => l.to_string(),
                None => "null".to_string(),
            };
            let expected = match c.expected {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            let error = match &c.error {
                Some(e) => json::escape(e),
                None => "null".to_string(),
            };
            s.push_str(&format!(
                "    {{\"instance\": {}, \"protocol\": {}, \"engine\": {}, \
                 \"elected\": {}, \"leader\": {}, \"expected\": {}, \
                 \"error\": {}, \"ok\": {}}}{}\n",
                json::escape(&c.instance),
                json::escape(c.protocol),
                json::escape(c.engine),
                c.elected,
                leader,
                expected,
                error,
                c.ok,
                if idx + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"gated_cells\": {},\n", self.gated_cells()));
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// Run one (instance, protocol) cell.
fn run_cell(bc: &Bicolored, key: &str, entry: &'static ProtocolEntry, cfg: &ZooConfig) -> ZooCell {
    let expected = (entry.oracle)(bc);
    match entry.run(bc, &RunConfig::new(cfg.seed)) {
        Ok(run) => {
            let elected = run.clean_election();
            let ok = match expected {
                Some(true) => elected,
                Some(false) => !elected && run.unanimous_unsolvable(),
                None => true,
            };
            ZooCell {
                instance: key.to_string(),
                protocol: entry.id.name(),
                engine: run.engine,
                elected,
                leader: run.report.leader,
                expected,
                error: None,
                ok,
            }
        }
        Err(e) => ZooCell {
            instance: key.to_string(),
            protocol: entry.id.name(),
            engine: Engine::Sim.name(),
            elected: false,
            leader: None,
            expected,
            error: Some(e.to_string()),
            ok: false,
        },
    }
}

/// Run the cross-protocol experiment: every configured protocol on
/// every instance, one cell each, instance-major.
pub fn run_zoo(cfg: &ZooConfig) -> ZooReport {
    let mut cells = Vec::new();
    for inst in &cfg.instances {
        let bc = Bicolored::new(inst.graph.clone(), &inst.agents).expect("valid instance");
        let key = inst.key();
        for &id in &cfg.protocols {
            cells.push(run_cell(&bc, &key, protocol_registry::get(id), cfg));
        }
    }
    ZooReport {
        cells,
        protocols: cfg.protocols.iter().map(|p| p.name()).collect(),
        seed: cfg.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn instance(spec: &str, n: usize, agents: &[usize]) -> AuditInstance {
        let graph = match spec {
            "path" => families::path(n).unwrap(),
            _ => families::cycle(n).unwrap(),
        };
        AuditInstance {
            spec: format!("{spec}:{n}"),
            graph,
            agents: agents.to_vec(),
        }
    }

    fn panel() -> Vec<AuditInstance> {
        vec![
            instance("path", 5, &[1, 3]),     // ELECT yes, dp-anon no
            instance("cycle", 6, &[0, 3]),    // both no (gcd 2)
            instance("cycle", 9, &[0, 1, 3]), // both yes (asymmetric)
        ]
    }

    #[test]
    fn zoo_matches_every_oracle_on_the_regime_panel() {
        let cfg = ZooConfig {
            instances: panel(),
            ..ZooConfig::default()
        };
        let report = run_zoo(&cfg);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.cells.len(), 3 * cfg.protocols.len());
        // The regimes diverge exactly as Table 1 claims: ELECT follows
        // gcd, dp-anon is strictly stronger, the comparable-agent
        // protocols always elect.
        let verdict = |proto: &str, inst: &str| {
            report
                .cells
                .iter()
                .find(|c| c.protocol == proto && c.instance == inst)
                .map(|c| c.elected)
                .unwrap()
        };
        assert!(verdict("elect", "path:5@1,3"));
        assert!(!verdict("dp-anon", "path:5@1,3"));
        assert!(!verdict("elect", "cycle:6@0,3"));
        assert!(!verdict("dp-anon", "cycle:6@0,3"));
        assert!(verdict("agent-elect", "cycle:6@0,3"));
        assert!(verdict("quantitative", "cycle:6@0,3"));
        assert!(verdict("elect", "cycle:9@0,1,3"));
        assert!(verdict("dp-anon", "cycle:9@0,1,3"));
    }

    #[test]
    fn zoo_json_roundtrips_with_envelope() {
        let report = run_zoo(&ZooConfig {
            instances: vec![instance("cycle", 6, &[0, 3])],
            ..ZooConfig::default()
        });
        let doc = report.to_json();
        let fields = json::envelope::check_document(&doc, ZOO_SCHEMA).unwrap();
        let cells = json::get(&fields, "cells")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(cells.len(), report.cells.len());
        let passed = json::get(&fields, "passed")
            .and_then(json::Value::as_bool)
            .unwrap();
        assert!(passed);
    }

    #[test]
    fn render_has_one_row_per_cell() {
        let report = run_zoo(&ZooConfig {
            instances: vec![instance("cycle", 6, &[0, 3])],
            ..ZooConfig::default()
        });
        let text = report.render();
        assert_eq!(text.matches("cycle:6@0,3").count(), report.cells.len());
        assert!(text.contains("passed: true"), "{text}");
    }
}
