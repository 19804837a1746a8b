//! The engine-throughput benchmark behind `qelectctl simbench` and the
//! committed `BENCH_sim.json` record.
//!
//! Every instance in the config is run as a batch of crash-free ELECT
//! elections (seeds × repeats) on the discrete-event sim engine, in
//! [`PASSES`] timed passes. The report records the elections/second
//! (median, min and max over the passes), the scheduler grants per
//! election, the wall time per grant, and the host it ran on. The
//! benchmark doubles as a check: every run must agree with the gcd
//! oracle, and every pass must re-elect each seed's leader, or the whole
//! report fails.
//!
//! Numbers are a record of the machine that produced them (like
//! `BENCH_serve.json`), not a portable constant. CI gates on the
//! committed report's presence and schema, never on its timings.

use std::time::Instant;

use qelect::prelude::*;
use qelect::solvability::elect_succeeds;
use qelect_agentsim::json;
use qelect_agentsim::RunConfig;
use qelect_graph::Bicolored;

use crate::measure::{median, Host};
use crate::report::AuditInstance;
use crate::{header, row};

/// Schema tag embedded in every simbench JSON document (the shared
/// envelope declaration, [`json::envelope::SIMBENCH`]).
pub const SIMBENCH_SCHEMA: &str = json::envelope::SIMBENCH;

/// Timed passes per instance (`benchgate` rejects a committed report
/// with fewer).
pub const PASSES: usize = 5;

/// Configuration of one engine-throughput measurement.
#[derive(Debug, Clone)]
pub struct SimBenchConfig {
    /// The instances to time (the shared workload family).
    pub instances: Vec<AuditInstance>,
    /// Run seeds; each timed pass runs every seed `repeats` times.
    pub seeds: Vec<u64>,
    /// Elections per seed in one timed pass.
    pub repeats: usize,
}

impl Default for SimBenchConfig {
    fn default() -> Self {
        SimBenchConfig {
            instances: Vec::new(),
            seeds: vec![0, 1, 2],
            repeats: 8,
        }
    }
}

/// The spread of the throughput over the timed passes, elections per
/// second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Median pass.
    pub median: f64,
    /// Slowest pass.
    pub min: f64,
    /// Fastest pass.
    pub max: f64,
}

impl Throughput {
    /// The spread of per-pass rates.
    fn of(rates: &[f64]) -> Throughput {
        Throughput {
            median: median(rates),
            min: rates.iter().copied().fold(f64::INFINITY, f64::min),
            max: rates.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// One instance's timings.
#[derive(Debug, Clone)]
pub struct InstanceSimBench {
    /// Instance key (`family-spec@agents`).
    pub key: String,
    /// Node count.
    pub n: usize,
    /// Agent count `r`.
    pub r: usize,
    /// The gcd oracle's verdict for the instance.
    pub solvable: bool,
    /// Elections per timed pass (seeds × repeats).
    pub elections: usize,
    /// Scheduler grants per election, averaged over the seeds.
    pub grants: f64,
    /// Throughput over the passes.
    pub eps: Throughput,
    /// Every run agreed with the oracle and re-elected its seed's
    /// leader.
    pub agree: bool,
}

impl InstanceSimBench {
    /// Wall time per scheduler grant at the median pass, ns.
    pub fn ns_per_grant(&self) -> f64 {
        if self.eps.median > 0.0 && self.grants > 0.0 {
            1e9 / (self.eps.median * self.grants)
        } else {
            0.0
        }
    }
}

/// The full engine-throughput report.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Per-instance timings.
    pub instances: Vec<InstanceSimBench>,
    /// Seeds used.
    pub seeds: Vec<u64>,
    /// Elections per seed per timed pass.
    pub repeats: usize,
    /// Where it was measured.
    pub host: Host,
}

impl SimBenchReport {
    /// Whether every instance passed the built-in oracle check.
    pub fn passed(&self) -> bool {
        !self.instances.is_empty() && self.instances.iter().all(|i| i.agree)
    }

    /// Render the human-facing table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&header(&[
            "instance",
            "n",
            "r",
            "solvable",
            "grants",
            "el/s [min, max]",
            "ns/grant",
            "agree",
        ]));
        out.push('\n');
        for i in &self.instances {
            out.push_str(&row(&[
                i.key.clone(),
                i.n.to_string(),
                i.r.to_string(),
                i.solvable.to_string(),
                format!("{:.1}", i.grants),
                format!("{:.1} [{:.1}, {:.1}]", i.eps.median, i.eps.min, i.eps.max),
                format!("{:.0}", i.ns_per_grant()),
                i.agree.to_string(),
            ]));
            out.push('\n');
        }
        out.push_str(&format!(
            "{} elections/pass, medians of {} passes\n",
            self.seeds.len() * self.repeats,
            PASSES,
        ));
        out
    }

    /// Serialize as the schema-versioned `qelect-simbench/2` document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(SIMBENCH_SCHEMA));
        s.push_str(&format!(
            "  \"seeds\": [{}],\n",
            self.seeds
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("  \"passes\": {PASSES},\n"));
        s.push_str(&format!("  \"host\": {},\n", self.host.to_json()));
        s.push_str("  \"instances\": [\n");
        for (idx, i) in self.instances.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"key\": {}, \"n\": {}, \"r\": {}, \"solvable\": {}, \
                 \"elections\": {}, \"grants\": {:.1}, \
                 \"eps\": {:.2}, \"eps_min\": {:.2}, \"eps_max\": {:.2}, \
                 \"ns_per_grant\": {:.1}, \"agree\": {}}}{}\n",
                json::escape(&i.key),
                i.n,
                i.r,
                i.solvable,
                i.elections,
                i.grants,
                i.eps.median,
                i.eps.min,
                i.eps.max,
                i.ns_per_grant(),
                i.agree,
                if idx + 1 < self.instances.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// The timed passes over one instance.
struct Timed {
    /// Elections per second, one rate per pass.
    rates: Vec<f64>,
    /// The leader per seed.
    leaders: Vec<Option<usize>>,
    /// Scheduler grants of one pass.
    grants: u64,
    /// Every run agreed with the oracle and re-elected its seed's
    /// leader.
    agree: bool,
}

/// [`PASSES`] timed passes of `seeds × repeats` crash-free elections.
fn timed_passes(bc: &Bicolored, cfg: &SimBenchConfig, solvable: bool) -> Timed {
    let mut timed = Timed {
        rates: Vec::with_capacity(PASSES),
        leaders: vec![None; cfg.seeds.len()],
        grants: 0,
        agree: true,
    };
    for pass in 0..PASSES {
        let mut grants = 0;
        let t0 = Instant::now();
        for rep in 0..cfg.repeats {
            for (si, &seed) in cfg.seeds.iter().enumerate() {
                let run = run_election(bc, &RunConfig::new(seed))
                    .expect("crash-free deterministic runs cannot fail");
                grants += run.report.metrics.steps;
                let elected = run.clean_election();
                if elected != solvable || (!elected && !run.unanimous_unsolvable()) {
                    timed.agree = false;
                }
                if pass == 0 && rep == 0 {
                    timed.leaders[si] = run.report.leader;
                } else if timed.leaders[si] != run.report.leader {
                    // The deterministic engine re-running the same seed
                    // must re-elect the same leader.
                    timed.agree = false;
                }
            }
        }
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        timed
            .rates
            .push((cfg.seeds.len() * cfg.repeats) as f64 / secs);
        timed.grants = grants;
    }
    timed
}

/// Run the engine-throughput measurement.
///
/// Per instance: a warm-up election (populates the global
/// canonical-form cache so no timed pass pays the one-off
/// canonicalization), then [`PASSES`] timed passes over the same
/// (seeds × repeats) workload.
pub fn run_simbench(cfg: &SimBenchConfig) -> SimBenchReport {
    let mut instances = Vec::new();
    for inst in &cfg.instances {
        let bc = Bicolored::new(inst.graph.clone(), &inst.agents).expect("valid instance");
        let solvable = elect_succeeds(&bc);
        let _ = run_election(&bc, &RunConfig::new(cfg.seeds[0])).expect("warm-up run cannot fail");
        let timed = timed_passes(&bc, cfg, solvable);
        let elections = cfg.seeds.len() * cfg.repeats;
        instances.push(InstanceSimBench {
            key: inst.key(),
            n: bc.graph().n(),
            r: bc.r(),
            solvable,
            elections,
            grants: timed.grants as f64 / elections as f64,
            eps: Throughput::of(&timed.rates),
            agree: timed.agree,
        });
    }
    SimBenchReport {
        instances,
        seeds: cfg.seeds.clone(),
        repeats: cfg.repeats,
        host: Host::probe(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn cfg() -> SimBenchConfig {
        SimBenchConfig {
            instances: vec![
                AuditInstance {
                    spec: "cycle:6".into(),
                    graph: families::cycle(6).unwrap(),
                    agents: vec![0, 2, 3],
                },
                AuditInstance {
                    spec: "cycle:6".into(),
                    graph: families::cycle(6).unwrap(),
                    agents: vec![0, 3],
                },
            ],
            seeds: vec![0, 1],
            repeats: 2,
        }
    }

    #[test]
    fn simbench_agrees_and_reports_the_spread() {
        let report = run_simbench(&cfg());
        assert!(report.passed(), "{:#?}", report.instances);
        assert_eq!(report.instances.len(), 2);
        let solvable: Vec<bool> = report.instances.iter().map(|i| i.solvable).collect();
        assert_eq!(
            solvable,
            vec![true, false],
            "C6 trio solvable, antipodal not"
        );
        for i in &report.instances {
            assert_eq!(i.elections, 4);
            assert!(i.grants > 0.0 && i.ns_per_grant() > 0.0, "{}", i.key);
            let eps = i.eps;
            assert!(
                0.0 < eps.min && eps.min <= eps.median && eps.median <= eps.max,
                "{}: {eps:?}",
                i.key
            );
        }
    }

    #[test]
    fn simbench_json_roundtrips_with_envelope() {
        let report = run_simbench(&SimBenchConfig {
            repeats: 1,
            seeds: vec![0],
            ..cfg()
        });
        let doc = report.to_json();
        let fields = json::envelope::check_document(&doc, SIMBENCH_SCHEMA).unwrap();
        let items = json::get(&fields, "instances")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(items.len(), 2);
        let passed = json::get(&fields, "passed")
            .and_then(json::Value::as_bool)
            .unwrap();
        assert!(passed);
        assert_eq!(
            json::get(&fields, "passes").and_then(json::Value::as_num),
            Some(PASSES as f64)
        );
        let cores = json::get(&fields, "host")
            .and_then(json::Value::as_object)
            .and_then(|h| json::get(h, "cores"))
            .and_then(json::Value::as_num);
        assert!(cores.is_some_and(|c| c >= 1.0));
        let first = items[0].as_object().unwrap();
        for field in ["grants", "eps", "eps_min", "eps_max", "ns_per_grant"] {
            assert!(
                json::get(first, field)
                    .and_then(json::Value::as_num)
                    .is_some_and(|v| v > 0.0),
                "{field}"
            );
        }
    }

    #[test]
    fn render_has_one_row_per_instance() {
        let report = run_simbench(&SimBenchConfig {
            repeats: 1,
            seeds: vec![0],
            ..cfg()
        });
        let text = report.render();
        assert_eq!(text.matches("cycle:6@").count(), 2, "{text}");
        assert!(text.contains("medians of 5 passes"), "{text}");
    }
}
