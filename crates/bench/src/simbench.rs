//! The engine-throughput benchmark behind `qelectctl simbench` and the
//! committed `BENCH_sim.json` record.
//!
//! One workload, two engines: every instance in the config is run as a
//! batch of crash-free ELECT elections (seeds × repeats) on the gated
//! thread engine and again on the single-threaded discrete-event sim
//! engine, in [`PASSES`] timed passes per engine. The
//! report records each engine's elections/second (median, min and max
//! over the passes), the sim-over-gated speedup of the medians, the sim
//! engine's wall time per scheduler grant, and the host it ran on.
//! Because the engines are byte-identical by
//! contract (DESIGN §12), the benchmark doubles as a differential
//! check: every (instance, seed) pair must produce the same leader and
//! the same verdict against the gcd oracle on both engines, and any
//! disagreement fails the whole report.
//!
//! Numbers are a record of the machine that produced them (like
//! `BENCH_serve.json`), not a portable constant: the gated engine pays
//! two OS context switches per scheduler step, so its throughput — and
//! therefore the speedup — depends on the host's core count and
//! scheduler latency. CI gates on the committed report's presence and
//! schema, never on its timings.

use std::time::Instant;

use qelect::prelude::*;
use qelect::solvability::elect_succeeds;
use qelect_agentsim::json;
use qelect_agentsim::{Engine, RunConfig};
use qelect_graph::Bicolored;

use crate::measure::{median, Host};
use crate::report::AuditInstance;
use crate::{header, row};

/// Schema tag embedded in every simbench JSON document (the shared
/// envelope declaration, [`json::envelope::SIMBENCH`]).
pub const SIMBENCH_SCHEMA: &str = json::envelope::SIMBENCH;

/// Timed passes per engine and instance (`benchgate` rejects a
/// committed report with fewer).
pub const PASSES: usize = 5;

/// Configuration of one engine-throughput comparison.
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

/// The spread of one engine's throughput over the timed passes,
/// elections per second.
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

/// One instance's timings across both engines.
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
    /// Gated-engine throughput over the passes.
    pub gated_eps: Throughput,
    /// Sim-engine throughput over the passes.
    pub sim_eps: Throughput,
    /// Every (seed, engine) pair agreed with the oracle, and gated and
    /// sim produced the same leader per seed.
    pub agree: bool,
}

impl InstanceSimBench {
    /// Sim-over-gated ratio of the median throughputs.
    pub fn speedup(&self) -> f64 {
        if self.gated_eps.median > 0.0 {
            self.sim_eps.median / self.gated_eps.median
        } else {
            0.0
        }
    }

    /// Sim-engine wall time per scheduler grant at the median pass, ns.
    pub fn sim_ns_per_grant(&self) -> f64 {
        if self.sim_eps.median > 0.0 && self.grants > 0.0 {
            1e9 / (self.sim_eps.median * self.grants)
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
    /// Whether every instance passed the built-in differential check.
    pub fn passed(&self) -> bool {
        !self.instances.is_empty() && self.instances.iter().all(|i| i.agree)
    }

    /// The largest per-instance speedup observed.
    pub fn max_speedup(&self) -> f64 {
        self.instances
            .iter()
            .map(InstanceSimBench::speedup)
            .fold(0.0, f64::max)
    }

    /// Geometric-mean speedup across instances (0.0 when empty).
    pub fn geomean_speedup(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self
            .instances
            .iter()
            .map(|i| i.speedup().max(1e-12).ln())
            .sum();
        (log_sum / self.instances.len() as f64).exp()
    }

    /// Render the human-facing table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&header(&[
            "instance",
            "n",
            "r",
            "solvable",
            "gated el/s",
            "sim el/s [min, max]",
            "ns/grant",
            "speedup",
            "agree",
        ]));
        out.push('\n');
        for i in &self.instances {
            out.push_str(&row(&[
                i.key.clone(),
                i.n.to_string(),
                i.r.to_string(),
                i.solvable.to_string(),
                format!("{:.1}", i.gated_eps.median),
                format!(
                    "{:.1} [{:.1}, {:.1}]",
                    i.sim_eps.median, i.sim_eps.min, i.sim_eps.max
                ),
                format!("{:.0}", i.sim_ns_per_grant()),
                format!("{:.1}x", i.speedup()),
                i.agree.to_string(),
            ]));
            out.push('\n');
        }
        out.push_str(&format!(
            "speedup: geomean {:.1}x, max {:.1}x ({} elections/pass, medians of {} passes)\n",
            self.geomean_speedup(),
            self.max_speedup(),
            self.seeds.len() * self.repeats,
            PASSES,
        ));
        out
    }

    /// Serialize as the schema-versioned `qelect-simbench/1` document.
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
                 \"gated_eps\": {:.2}, \"gated_eps_min\": {:.2}, \"gated_eps_max\": {:.2}, \
                 \"sim_eps\": {:.2}, \"sim_eps_min\": {:.2}, \"sim_eps_max\": {:.2}, \
                 \"sim_ns_per_grant\": {:.1}, \"speedup\": {:.2}, \"agree\": {}}}{}\n",
                json::escape(&i.key),
                i.n,
                i.r,
                i.solvable,
                i.elections,
                i.grants,
                i.gated_eps.median,
                i.gated_eps.min,
                i.gated_eps.max,
                i.sim_eps.median,
                i.sim_eps.min,
                i.sim_eps.max,
                i.sim_ns_per_grant(),
                i.speedup(),
                i.agree,
                if idx + 1 < self.instances.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"geomean_speedup\": {:.2},\n",
            self.geomean_speedup()
        ));
        s.push_str(&format!("  \"max_speedup\": {:.2},\n", self.max_speedup()));
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// One engine's timed passes over one instance.
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

/// [`PASSES`] timed passes of `seeds × repeats` crash-free elections
/// on `engine`.
fn timed_passes(bc: &Bicolored, cfg: &SimBenchConfig, engine: Engine, solvable: bool) -> Timed {
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
                let run = run_election(bc, &RunConfig::new(seed).engine(engine))
                    .expect("crash-free deterministic runs cannot fail");
                grants += run.report.metrics.steps;
                let elected = run.clean_election();
                if elected != solvable || (!elected && !run.unanimous_unsolvable()) {
                    timed.agree = false;
                }
                if pass == 0 && rep == 0 {
                    timed.leaders[si] = run.report.leader;
                } else if timed.leaders[si] != run.report.leader {
                    // A deterministic engine re-running the same seed
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

/// Run the engine-throughput comparison.
///
/// Per instance: a warm-up election per engine (populates the global
/// canonical-form cache so no timed pass pays the one-off
/// canonicalization), then [`PASSES`] timed passes per engine over the
/// same (seeds × repeats) workload.
pub fn run_simbench(cfg: &SimBenchConfig) -> SimBenchReport {
    let mut instances = Vec::new();
    for inst in &cfg.instances {
        let bc = Bicolored::new(inst.graph.clone(), &inst.agents).expect("valid instance");
        let solvable = elect_succeeds(&bc);
        for engine in [Engine::Gated, Engine::Sim] {
            let _ = run_election(&bc, &RunConfig::new(cfg.seeds[0]).engine(engine))
                .expect("warm-up run cannot fail");
        }
        let gated = timed_passes(&bc, cfg, Engine::Gated, solvable);
        let sim = timed_passes(&bc, cfg, Engine::Sim, solvable);
        let elections = cfg.seeds.len() * cfg.repeats;
        instances.push(InstanceSimBench {
            key: inst.key(),
            n: bc.graph().n(),
            r: bc.r(),
            solvable,
            elections,
            grants: sim.grants as f64 / elections as f64,
            gated_eps: Throughput::of(&gated.rates),
            sim_eps: Throughput::of(&sim.rates),
            agree: gated.agree
                && sim.agree
                && gated.leaders == sim.leaders
                && gated.grants == sim.grants,
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
    fn simbench_agrees_and_reports_both_engines() {
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
            assert!(i.grants > 0.0 && i.sim_ns_per_grant() > 0.0, "{}", i.key);
            for eps in [i.gated_eps, i.sim_eps] {
                assert!(
                    0.0 < eps.min && eps.min <= eps.median && eps.median <= eps.max,
                    "{}: {eps:?}",
                    i.key
                );
            }
        }
        assert!(report.max_speedup() >= report.geomean_speedup());
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
        let geo = json::get(&fields, "geomean_speedup")
            .and_then(json::Value::as_num)
            .unwrap();
        assert!(geo > 0.0);
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
        for field in ["sim_eps", "sim_eps_min", "sim_eps_max", "sim_ns_per_grant"] {
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
        assert!(text.contains("speedup: geomean"), "{text}");
    }
}
