//! The canonicalization benchmark behind `qelectctl canonbench` and the
//! committed `BENCH_canon.json` scaling curves.
//!
//! Two sections:
//!
//! * **kernel** — for every instance in the ladder the surrounding
//!   `S(0)` (Definition 3.1) is canonicalized cold by the frozen
//!   pre-worklist oracle ([`qelect_graph::oracle`]) and by the
//!   production kernel ([`qelect_graph::canon`]). The kernels are
//!   byte-identical by contract (DESIGN §13), so the section doubles as
//!   a differential check: form, labeling, generators and orbits must
//!   agree exactly, and any disagreement fails the whole report.
//! * **elect** — ELECT end to end on `cycle:n@0,1,5` for
//!   [`ELECT_LADDER`]: preparation (COMPUTE & ORDER plus the gcd oracle, from an
//!   emptied memo) and one sim-engine run, repeated, with the median and
//!   the spread (min, max) of every repeat. Every run must agree with
//!   the gcd oracle.
//!
//! Numbers are a record of the machine that produced them (like
//! `BENCH_sim.json`): CI re-runs a fresh canonbench and gates the
//! committed report on schema validity and `passed`, never on exact
//! timings. `passed` additionally requires the cold kernel speedup on
//! the ladder's *largest* instance to reach 3× — the headline the
//! worklist kernel exists for, with margin to spare on every machine
//! tried.

use std::time::Instant;

use qelect::service::PreparedElection;
use qelect_agentsim::{json, Engine, RunConfig};
use qelect_graph::canon::canonicalize;
use qelect_graph::surrounding::surrounding;
use qelect_graph::{cache, families, oracle, Bicolored};

use crate::measure::{median, Host};
use crate::report::AuditInstance;
use crate::{header, row};

/// Schema tag embedded in every canonbench JSON document (the shared
/// envelope declaration, [`json::envelope::CANONBENCH`]).
pub const CANONBENCH_SCHEMA: &str = json::envelope::CANONBENCH;

/// Cold speedup the largest ladder instance must reach for the report
/// to pass (the ROADMAP "canonicalization that scales" acceptance bar).
pub const REQUIRED_LARGEST_SPEEDUP: f64 = 3.0;

/// Cycle sizes of the default ELECT end-to-end ladder.
pub const ELECT_LADDER: [usize; 8] = [100, 200, 400, 800, 1600, 3200, 6400, 10_000];

/// Configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct CanonBenchConfig {
    /// The kernel ladder (typically Cayley families of growing size).
    pub instances: Vec<AuditInstance>,
    /// Timed passes per kernel measurement (the mean is reported) and
    /// elections per ELECT rung.
    pub repeats: usize,
    /// Cycle sizes `n` of the ELECT ladder (`cycle:n@0,1,5`).
    pub elect_sizes: Vec<usize>,
}

impl Default for CanonBenchConfig {
    fn default() -> Self {
        CanonBenchConfig {
            instances: Vec::new(),
            repeats: 5,
            elect_sizes: ELECT_LADDER.to_vec(),
        }
    }
}

/// One instance's timings across both kernels.
#[derive(Debug, Clone)]
pub struct InstanceCanonBench {
    /// Instance key (`family-spec@agents`).
    pub key: String,
    /// Node count.
    pub n: usize,
    /// Arc count of the timed surrounding `S(0)`.
    pub arcs: usize,
    /// Mean cold canonicalization of `S(0)` by the frozen oracle, ms.
    pub oracle_ms: f64,
    /// Mean cold canonicalization of `S(0)` by the production kernel, ms.
    pub cold_ms: f64,
    /// Leaves the production search visited on `S(0)`.
    pub leaves: usize,
    /// Subtrees the quotient lower bound cut on `S(0)`.
    pub pruned: usize,
    /// Oracle and kernel results on `S(0)` agreed byte-for-byte (form,
    /// labeling, generators, orbits).
    pub identical: bool,
}

impl InstanceCanonBench {
    /// Oracle-over-production cold-canonicalization ratio.
    pub fn cold_speedup(&self) -> f64 {
        if self.cold_ms > 0.0 {
            self.oracle_ms / self.cold_ms
        } else {
            0.0
        }
    }
}

/// One rung of the ELECT end-to-end curve.
#[derive(Debug, Clone)]
pub struct ElectRung {
    /// The instance, `cycle:n@0,1,5`.
    pub spec: String,
    /// Node count.
    pub n: usize,
    /// Per-repeat preparation times, ms, in run order.
    pub prepare_ms: Vec<f64>,
    /// Per-repeat sim-run times, ms, in run order.
    pub run_ms: Vec<f64>,
    /// Every run agreed with the gcd oracle.
    pub ok: bool,
}

impl ElectRung {
    /// Per-repeat end-to-end times (prepare plus run), ms, sorted.
    pub fn totals(&self) -> Vec<f64> {
        let mut t: Vec<f64> = self
            .prepare_ms
            .iter()
            .zip(&self.run_ms)
            .map(|(p, r)| p + r)
            .collect();
        t.sort_by(f64::total_cmp);
        t
    }
}

/// The full report.
#[derive(Debug, Clone)]
pub struct CanonBenchReport {
    /// Per-instance kernel timings, in ladder order.
    pub instances: Vec<InstanceCanonBench>,
    /// The ELECT end-to-end curve, in ladder order.
    pub elect: Vec<ElectRung>,
    /// Timed passes per measurement.
    pub repeats: usize,
    /// Where it was measured.
    pub host: Host,
}

impl CanonBenchReport {
    /// The ladder's largest instance (by node count; latest wins ties).
    pub fn largest(&self) -> Option<&InstanceCanonBench> {
        self.instances.iter().max_by_key(|i| i.n)
    }

    /// Cold speedup on the largest instance (0.0 when empty).
    pub fn largest_cold_speedup(&self) -> f64 {
        self.largest().map_or(0.0, InstanceCanonBench::cold_speedup)
    }

    /// Whether every instance passed the built-in differential check,
    /// the largest instance reached [`REQUIRED_LARGEST_SPEEDUP`], and
    /// every ELECT run agreed with the oracle.
    pub fn passed(&self) -> bool {
        !self.instances.is_empty()
            && self.instances.iter().all(|i| i.identical)
            && self.largest_cold_speedup() >= REQUIRED_LARGEST_SPEEDUP
            && self.elect.iter().all(|r| r.ok)
    }

    /// The largest per-instance cold speedup observed.
    pub fn max_cold_speedup(&self) -> f64 {
        self.instances
            .iter()
            .map(InstanceCanonBench::cold_speedup)
            .fold(0.0, f64::max)
    }

    /// Geometric-mean cold speedup across instances (0.0 when empty).
    pub fn geomean_cold_speedup(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self
            .instances
            .iter()
            .map(|i| i.cold_speedup().max(1e-12).ln())
            .sum();
        (log_sum / self.instances.len() as f64).exp()
    }

    /// Render the human-facing scaling tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&header(&[
            "instance",
            "n",
            "oracle ms",
            "cold ms",
            "speedup",
            "leaves",
            "pruned",
            "identical",
        ]));
        out.push('\n');
        for i in &self.instances {
            out.push_str(&row(&[
                i.key.clone(),
                i.n.to_string(),
                format!("{:.3}", i.oracle_ms),
                format!("{:.3}", i.cold_ms),
                format!("{:.1}x", i.cold_speedup()),
                i.leaves.to_string(),
                i.pruned.to_string(),
                i.identical.to_string(),
            ]));
            out.push('\n');
        }
        out.push_str(&format!(
            "cold speedup: geomean {:.1}x, max {:.1}x, largest rung {:.1}x (gate ≥ {:.0}x)\n\n",
            self.geomean_cold_speedup(),
            self.max_cold_speedup(),
            self.largest_cold_speedup(),
            REQUIRED_LARGEST_SPEEDUP,
        ));
        out.push_str(&header(&[
            "ELECT (sim)",
            "n",
            "median ms",
            "min ms",
            "max ms",
            "prepare ms",
            "run ms",
            "ok",
        ]));
        out.push('\n');
        for r in &self.elect {
            let t = r.totals();
            out.push_str(&row(&[
                r.spec.clone(),
                r.n.to_string(),
                format!("{:.2}", median(&t)),
                format!("{:.2}", t.first().copied().unwrap_or(0.0)),
                format!("{:.2}", t.last().copied().unwrap_or(0.0)),
                format!("{:.2}", median(&r.prepare_ms)),
                format!("{:.2}", median(&r.run_ms)),
                r.ok.to_string(),
            ]));
            out.push('\n');
        }
        out.push_str(if self.passed() { "PASS\n" } else { "FAIL\n" });
        out
    }

    /// Serialize as the schema-versioned canonbench document.
    pub fn to_json(&self) -> String {
        fn list<T>(items: &[T], line: impl Fn(&T) -> String) -> String {
            let lines: Vec<String> = items.iter().map(line).collect();
            lines.join(",\n")
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(CANONBENCH_SCHEMA));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("  \"host\": {},\n", self.host.to_json()));
        s.push_str("  \"instances\": [\n");
        s.push_str(&list(&self.instances, |i| {
            format!(
                "    {{\"key\": {}, \"n\": {}, \"arcs\": {}, \"oracle_ms\": {:.4}, \
                 \"cold_ms\": {:.4}, \"cold_speedup\": {:.2}, \"leaves\": {}, \
                 \"pruned\": {}, \"identical\": {}}}",
                json::escape(&i.key),
                i.n,
                i.arcs,
                i.oracle_ms,
                i.cold_ms,
                i.cold_speedup(),
                i.leaves,
                i.pruned,
                i.identical,
            )
        }));
        s.push_str("\n  ],\n");
        s.push_str("  \"elect\": [\n");
        s.push_str(&list(&self.elect, |r| {
            let t = r.totals();
            format!(
                "    {{\"spec\": {}, \"n\": {}, \"engine\": \"sim\", \"repeats\": {}, \
                 \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}, \
                 \"prepare_median_ms\": {:.3}, \"run_median_ms\": {:.3}, \"ok\": {}}}",
                json::escape(&r.spec),
                r.n,
                t.len(),
                median(&t),
                t.first().copied().unwrap_or(0.0),
                t.last().copied().unwrap_or(0.0),
                median(&r.prepare_ms),
                median(&r.run_ms),
                r.ok,
            )
        }));
        s.push_str("\n  ],\n");
        s.push_str(&format!(
            "  \"geomean_cold_speedup\": {:.2},\n",
            self.geomean_cold_speedup()
        ));
        s.push_str(&format!(
            "  \"max_cold_speedup\": {:.2},\n",
            self.max_cold_speedup()
        ));
        s.push_str(&format!(
            "  \"largest_cold_speedup\": {:.2},\n",
            self.largest_cold_speedup()
        ));
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// Mean wall-clock milliseconds of `repeats` calls to `f`.
fn timed_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let reps = repeats.max(1);
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

/// Time the two kernels on `S(0)` of one instance.
fn kernel_rung(inst: &AuditInstance, repeats: usize) -> InstanceCanonBench {
    let bc = Bicolored::new(inst.graph.clone(), &inst.agents).expect("valid instance");
    let d0 = surrounding(&bc, 0);
    // Differential pass (untimed; also warms allocators).
    let slow = oracle::canonicalize(&d0);
    let fast = canonicalize(&d0);
    let identical = slow.form == fast.form
        && slow.labeling == fast.labeling
        && slow.generators == fast.generators
        && slow.orbits == fast.orbits;
    InstanceCanonBench {
        key: inst.key(),
        n: bc.n(),
        arcs: d0.arc_count(),
        oracle_ms: timed_ms(repeats, || {
            let _ = oracle::canonicalize(&d0);
        }),
        cold_ms: timed_ms(repeats, || {
            let _ = canonicalize(&d0);
        }),
        leaves: fast.leaves_visited,
        pruned: fast.pruned_branches,
        identical,
    }
}

/// Elect `cycle:n@0,1,5` `repeats` times, each from an emptied memo.
fn elect_rung(n: usize, repeats: usize) -> ElectRung {
    let bc = Bicolored::new(families::cycle(n).expect("n ≥ 3"), &[0, 1, 5])
        .expect("n ≥ 6 places three agents");
    let mut rung = ElectRung {
        spec: format!("cycle:{n}@0,1,5"),
        n,
        prepare_ms: Vec::new(),
        run_ms: Vec::new(),
        ok: true,
    };
    for seed in 0..repeats.max(1) as u64 {
        cache::global().clear();
        let t0 = Instant::now();
        let prep = PreparedElection::new(bc.clone());
        let t1 = Instant::now();
        let run = prep.run(&RunConfig::new(seed).engine(Engine::Sim));
        let t2 = Instant::now();
        rung.ok &= run.is_ok_and(|run| prep.agrees(&run));
        rung.prepare_ms.push((t1 - t0).as_secs_f64() * 1e3);
        rung.run_ms.push((t2 - t1).as_secs_f64() * 1e3);
    }
    rung
}

/// Run both sections.
pub fn run_canonbench(cfg: &CanonBenchConfig) -> CanonBenchReport {
    CanonBenchReport {
        instances: cfg
            .instances
            .iter()
            .map(|inst| kernel_rung(inst, cfg.repeats))
            .collect(),
        elect: cfg
            .elect_sizes
            .iter()
            .map(|&n| elect_rung(n, cfg.repeats))
            .collect(),
        repeats: cfg.repeats,
        host: Host::probe(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CanonBenchConfig {
        CanonBenchConfig {
            instances: vec![
                AuditInstance {
                    spec: "circulant:34:1,3".into(),
                    graph: families::circulant(34, &[1, 3]).unwrap(),
                    agents: vec![0, 17],
                },
                AuditInstance {
                    spec: "circulant:40:1,3".into(),
                    graph: families::circulant(40, &[1, 3]).unwrap(),
                    agents: vec![0, 1],
                },
            ],
            repeats: 1,
            elect_sizes: vec![9, 12],
        }
    }

    #[test]
    fn canonbench_kernels_agree() {
        let report = run_canonbench(&cfg());
        assert_eq!(report.instances.len(), 2);
        for i in &report.instances {
            assert!(i.identical, "{} diverged", i.key);
            assert!(i.oracle_ms > 0.0 && i.cold_ms > 0.0, "{}", i.key);
        }
        assert_eq!(report.largest().unwrap().n, 40);
        // cycle:9@0,1,5 has a reflection, cycle:12@0,1,5 none: both
        // must agree with the oracle.
        assert_eq!(report.elect.len(), 2);
        for r in &report.elect {
            assert!(r.ok, "{} disagreed with the oracle", r.spec);
            assert_eq!(r.totals().len(), 1);
        }
    }

    #[test]
    fn canonbench_json_roundtrips_with_envelope() {
        let report = run_canonbench(&cfg());
        let doc = report.to_json();
        let fields = json::envelope::check_document(&doc, CANONBENCH_SCHEMA).unwrap();
        let items = json::get(&fields, "instances")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(items.len(), 2);
        let elect = json::get(&fields, "elect")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(elect.len(), 2);
        let largest = json::get(&fields, "largest_cold_speedup")
            .and_then(json::Value::as_num)
            .unwrap();
        assert!(largest > 0.0);
        assert!(json::get(&fields, "passed")
            .and_then(json::Value::as_bool)
            .is_some());
        let host = json::get(&fields, "host")
            .and_then(json::Value::as_object)
            .unwrap();
        let cores = json::get(host, "cores").and_then(json::Value::as_num);
        assert!(cores.is_some_and(|c| c >= 1.0));
    }

    #[test]
    fn host_block_writes_null_for_commands_that_did_not_run() {
        let host = Host {
            cores: 2,
            rustc: Some("rustc 1.87.0 (\"quoted\")".into()),
            git_rev: None,
        };
        let doc = format!("{{\"host\": {}}}", host.to_json());
        let fields = json::parse(&doc).unwrap();
        let fields = fields.as_object().unwrap();
        let host = json::get(fields, "host")
            .and_then(json::Value::as_object)
            .unwrap();
        assert_eq!(
            json::get(host, "cores").and_then(json::Value::as_num),
            Some(2.0)
        );
        assert_eq!(
            json::get(host, "rustc").and_then(json::Value::as_str),
            Some("rustc 1.87.0 (\"quoted\")")
        );
        assert!(matches!(
            json::get(host, "git_rev"),
            Some(json::Value::Null)
        ));
    }

    #[test]
    fn render_has_one_row_per_instance_and_a_verdict() {
        let report = run_canonbench(&cfg());
        let text = report.render();
        assert_eq!(text.matches("circulant:").count(), 2, "{text}");
        assert_eq!(text.matches("@0,1,5").count(), 2, "{text}");
        assert!(text.contains("cold speedup: geomean"), "{text}");
    }

    #[test]
    fn empty_report_does_not_pass() {
        let report = run_canonbench(&CanonBenchConfig {
            elect_sizes: Vec::new(),
            ..CanonBenchConfig::default()
        });
        assert!(!report.passed());
        assert_eq!(report.largest_cold_speedup(), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
