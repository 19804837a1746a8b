//! Committed-benchmark gate: re-validate every `BENCH_*.json` in the
//! repository against its schema tag and hold the serving benchmark to
//! its throughput floor.
//!
//! The repo commits benchmark reports (`BENCH_audit.json`,
//! `BENCH_serve.json`, `BENCH_sim.json`, `BENCH_canon.json`) as
//! regression baselines. Nothing re-checks them after the commit that
//! produced them: a hand-edited file, a schema drift, or a silently
//! regressed re-measurement would all ride along unnoticed. `qelectctl
//! benchgate` closes that gap in CI:
//!
//! 1. every known `BENCH_*.json` present in `--dir` must parse and
//!    carry its expected `"schema"` tag (unknown `BENCH_*` files fail
//!    the gate — they are either typos or missing registry entries);
//! 2. any report with a top-level `"passed"` field must say `true`;
//! 3. `BENCH_canon.json` must carry its ELECT end-to-end curve up to
//!    [`ELECT_CURVE_TOP_N`] nodes, and the `host` it was measured on
//!    (at least one core);
//! 4. `BENCH_sim.json` must record its `host` the same way, and at
//!    least [`PASSES`] timed passes per engine;
//! 5. `BENCH_serve.json` must report warm throughput of at least
//!    `--min-warm-rps × (1 − --tolerance)`, where the floor defaults
//!    to [`REQUIRED_WARM_SPEEDUP`] × the PR 5 single-shard baseline
//!    ([`PR5_WARM_RPS`]), plus zero disagreements in every phase.
//!
//! The check is pure: it never runs a benchmark, so it is fast enough
//! to gate every CI run.

use std::fmt::Write as _;
use std::path::Path;

use qelect_agentsim::json::{self, envelope, Value};

use crate::simbench::PASSES;

/// Warm throughput of the PR 5 single-shard, single-request qelectd
/// baseline (rps), as committed in that PR's `BENCH_serve.json`.
pub const PR5_WARM_RPS: f64 = 636.57;

/// The serving-scale target: warm batched throughput must be at least
/// this multiple of [`PR5_WARM_RPS`].
pub const REQUIRED_WARM_SPEEDUP: f64 = 5.0;

/// The ELECT end-to-end curve in `BENCH_canon.json` must reach this
/// many nodes.
pub const ELECT_CURVE_TOP_N: f64 = 10_000.0;

/// Registry of benchmark reports this repo commits: file name and the
/// schema tag its envelope must carry.
pub const KNOWN_REPORTS: &[(&str, &str)] = &[
    ("BENCH_audit.json", envelope::AUDIT),
    ("BENCH_serve.json", envelope::LOAD),
    ("BENCH_sim.json", envelope::SIMBENCH),
    ("BENCH_canon.json", envelope::CANONBENCH),
    ("BENCH_zoo.json", envelope::ZOO),
    ("BENCH_explore.json", envelope::EXPLORE),
];

/// Gate configuration.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Directory holding the committed `BENCH_*.json` files.
    pub dir: String,
    /// Relative slack on the warm-rps floor (e.g. `0.15` = 15%).
    pub tolerance: f64,
    /// Absolute warm-rps floor before tolerance; `None` uses
    /// [`PR5_WARM_RPS`] × [`REQUIRED_WARM_SPEEDUP`].
    pub min_warm_rps: Option<f64>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            dir: ".".into(),
            tolerance: 0.15,
            min_warm_rps: None,
        }
    }
}

/// Outcome of one checked file.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// File name relative to the gate directory.
    pub name: String,
    /// Expected schema tag.
    pub schema: String,
    /// `None` if the check passed, `Some(reason)` otherwise.
    pub error: Option<String>,
}

/// Full gate outcome.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Per-file results, in registry order then unknown files.
    pub files: Vec<FileReport>,
    /// Warm rps read from `BENCH_serve.json` (if present and parsed).
    pub warm_rps: Option<f64>,
    /// The effective floor after tolerance.
    pub floor_rps: f64,
}

impl GateReport {
    /// True iff every file check passed.
    pub fn passed(&self) -> bool {
        self.files.iter().all(|f| f.error.is_none())
    }

    /// Human-readable summary, one line per file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            match &f.error {
                None => {
                    let _ = writeln!(out, "ok   {} ({})", f.name, f.schema);
                }
                Some(e) => {
                    let _ = writeln!(out, "FAIL {} ({}): {}", f.name, f.schema, e);
                }
            }
        }
        if let Some(rps) = self.warm_rps {
            let _ = writeln!(
                out,
                "warm throughput {rps:.2} rps (floor {:.2} rps)",
                self.floor_rps
            );
        }
        let _ = write!(
            out,
            "benchgate: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

fn check_passed_flag(obj: &[(String, Value)]) -> Result<(), String> {
    match json::get(obj, "passed") {
        None => Ok(()),
        Some(v) => match v.as_bool() {
            Some(true) => Ok(()),
            Some(false) => Err("report says \"passed\": false".into()),
            None => Err("\"passed\" is not a boolean".into()),
        },
    }
}

/// The report's `host` block must name at least one core.
fn check_host(obj: &[(String, Value)]) -> Result<(), String> {
    let cores = json::get(obj, "host")
        .and_then(Value::as_object)
        .and_then(|h| json::get(h, "cores"))
        .and_then(Value::as_num)
        .ok_or("missing the \"host\" block with numeric \"cores\"")?;
    if cores < 1.0 {
        return Err(format!("\"host\" reports {cores} cores (must be >= 1)"));
    }
    Ok(())
}

fn phase_disagreements(obj: &[(String, Value)], phase: &str) -> Result<f64, String> {
    let p = json::get(obj, phase)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("missing \"{phase}\" phase object"))?;
    json::get(p, "disagreements")
        .and_then(Value::as_num)
        .ok_or_else(|| format!("\"{phase}\" has no numeric \"disagreements\""))
}

/// Check one report body against its expected schema; for the serve
/// report also enforce the warm-rps floor and oracle agreement.
fn check_report(
    name: &str,
    schema: &str,
    text: &str,
    floor_rps: f64,
    warm_out: &mut Option<f64>,
) -> Result<(), String> {
    let obj = json::envelope::check_document(text, schema)?;
    check_passed_flag(&obj)?;
    if name == "BENCH_explore.json" {
        // The exploration report's headline claims must be non-trivial:
        // an empty exploration (zero schedules, zero coverage) passing
        // the gate would defeat its purpose as a baseline.
        for field in ["schedules_total", "unique_signatures"] {
            let v = json::get(&obj, field)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("missing numeric \"{field}\""))?;
            if v < 1.0 {
                return Err(format!("\"{field}\" is {v} (must be >= 1)"));
            }
        }
        return Ok(());
    }
    if name == "BENCH_canon.json" {
        let top = json::get(&obj, "elect")
            .and_then(Value::as_array)
            .ok_or("missing the \"elect\" curve")?
            .iter()
            .filter_map(|r| json::get(r.as_object()?, "n")?.as_num())
            .fold(0.0, f64::max);
        if top < ELECT_CURVE_TOP_N {
            return Err(format!(
                "the ELECT curve stops at n = {top} (must reach {ELECT_CURVE_TOP_N})"
            ));
        }
        return check_host(&obj);
    }
    if name == "BENCH_sim.json" {
        let passes = json::get(&obj, "passes")
            .and_then(Value::as_num)
            .ok_or("missing numeric \"passes\"")?;
        if passes < PASSES as f64 {
            return Err(format!(
                "{passes} timed passes per engine (must be >= {PASSES})"
            ));
        }
        return check_host(&obj);
    }
    if name != "BENCH_serve.json" {
        return Ok(());
    }
    for phase in ["cold", "warm"] {
        let d = phase_disagreements(&obj, phase)?;
        if d != 0.0 {
            return Err(format!("{phase} phase reports {d} oracle disagreements"));
        }
    }
    let warm = json::get(&obj, "warm")
        .and_then(Value::as_object)
        .and_then(|w| json::get(w, "throughput_rps"))
        .and_then(Value::as_num)
        .ok_or("warm phase has no numeric \"throughput_rps\"")?;
    *warm_out = Some(warm);
    if warm < floor_rps {
        return Err(format!(
            "warm throughput {warm:.2} rps is below the floor {floor_rps:.2} rps"
        ));
    }
    Ok(())
}

/// Run the gate over `cfg.dir`.
pub fn run(cfg: &GateConfig) -> std::io::Result<GateReport> {
    let dir = Path::new(&cfg.dir);
    let floor_rps = cfg
        .min_warm_rps
        .unwrap_or(PR5_WARM_RPS * REQUIRED_WARM_SPEEDUP)
        * (1.0 - cfg.tolerance);
    let mut files = Vec::new();
    let mut warm_rps = None;
    for (name, schema) in KNOWN_REPORTS {
        let path = dir.join(name);
        if !path.exists() {
            continue;
        }
        let error = match std::fs::read_to_string(&path) {
            Err(e) => Some(format!("unreadable: {e}")),
            Ok(text) => check_report(name, schema, &text, floor_rps, &mut warm_rps).err(),
        };
        files.push(FileReport {
            name: (*name).into(),
            schema: (*schema).into(),
            error,
        });
    }
    // Unknown BENCH_* files are either typos or missing registry
    // entries; surface them instead of silently skipping.
    let mut unknown: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| {
            n.starts_with("BENCH_")
                && n.ends_with(".json")
                && !KNOWN_REPORTS.iter().any(|(k, _)| k == n)
        })
        .collect();
    unknown.sort();
    for name in unknown {
        files.push(FileReport {
            name,
            schema: "?".into(),
            error: Some("not in the benchgate registry (crates/bench/src/benchgate.rs)".into()),
        });
    }
    Ok(GateReport {
        files,
        warm_rps,
        floor_rps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qelect-benchgate-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn serve_report(rps: f64, disagreements: u32, passed: bool) -> String {
        format!(
            concat!(
                "{{\n\"schema\": \"qelect-load/1\",\n",
                "\"cold\": {{\"disagreements\": {d}, \"throughput_rps\": 100.0}},\n",
                "\"warm\": {{\"disagreements\": {d}, \"throughput_rps\": {rps}}},\n",
                "\"passed\": {p}\n}}\n"
            ),
            d = disagreements,
            rps = rps,
            p = passed
        )
    }

    #[test]
    fn gate_passes_on_good_serve_report() {
        let dir = tmp_dir("good");
        std::fs::write(dir.join("BENCH_serve.json"), serve_report(4000.0, 0, true)).unwrap();
        let report = run(&GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        })
        .unwrap();
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.warm_rps, Some(4000.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_fails_below_floor_and_respects_tolerance() {
        let dir = tmp_dir("floor");
        // Floor = 1000 × (1 − 0.1) = 900: 950 passes, 850 fails.
        std::fs::write(dir.join("BENCH_serve.json"), serve_report(950.0, 0, true)).unwrap();
        let cfg = GateConfig {
            dir: dir.to_str().unwrap().into(),
            tolerance: 0.1,
            min_warm_rps: Some(1000.0),
        };
        assert!(run(&cfg).unwrap().passed());
        std::fs::write(dir.join("BENCH_serve.json"), serve_report(850.0, 0, true)).unwrap();
        let report = run(&cfg).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("below the floor"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_fails_on_disagreements_wrong_schema_and_unknown_files() {
        let dir = tmp_dir("bad");
        std::fs::write(dir.join("BENCH_serve.json"), serve_report(9999.0, 3, true)).unwrap();
        std::fs::write(
            dir.join("BENCH_sim.json"),
            "{\"schema\": \"qelect-audit/1\", \"passed\": true}",
        )
        .unwrap();
        std::fs::write(dir.join("BENCH_mystery.json"), "{}").unwrap();
        let report = run(&GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        })
        .unwrap();
        assert!(!report.passed());
        let rendered = report.render();
        assert!(rendered.contains("oracle disagreements"), "{rendered}");
        assert!(rendered.contains("BENCH_sim.json"), "{rendered}");
        assert!(rendered.contains("BENCH_mystery.json"), "{rendered}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_checks_explore_reports_for_nontrivial_coverage() {
        let dir = tmp_dir("explore");
        let good = concat!(
            "{\"schema\": \"qelect-explore/1\", \"schedules_total\": 1000000, ",
            "\"unique_signatures\": 5000, \"passed\": true}"
        );
        std::fs::write(dir.join("BENCH_explore.json"), good).unwrap();
        let cfg = GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        };
        assert!(run(&cfg).unwrap().passed());
        // Zero coverage fails even with "passed": true.
        let empty = concat!(
            "{\"schema\": \"qelect-explore/1\", \"schedules_total\": 1000000, ",
            "\"unique_signatures\": 0, \"passed\": true}"
        );
        std::fs::write(dir.join("BENCH_explore.json"), empty).unwrap();
        let report = run(&cfg).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("unique_signatures"));
        // Missing counts fail too.
        std::fs::write(
            dir.join("BENCH_explore.json"),
            "{\"schema\": \"qelect-explore/1\", \"passed\": true}",
        )
        .unwrap();
        let report = run(&cfg).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("schedules_total"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_checks_the_canon_report_for_its_elect_curve() {
        let dir = tmp_dir("canon");
        let cfg = GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        };
        let report = |top: u32| {
            format!(
                "{{\"schema\": \"qelect-canonbench/2\", \"host\": {{\"cores\": 2}}, \
                 \"elect\": [{{\"n\": 100}}, {{\"n\": {top}}}], \"passed\": true}}"
            )
        };
        std::fs::write(dir.join("BENCH_canon.json"), report(10_000)).unwrap();
        assert!(run(&cfg).unwrap().passed());
        std::fs::write(dir.join("BENCH_canon.json"), report(800)).unwrap();
        let out = run(&cfg).unwrap();
        assert!(!out.passed());
        assert!(out.render().contains("ELECT curve"), "{}", out.render());
        // The retired version-1 schema is refused.
        std::fs::write(
            dir.join("BENCH_canon.json"),
            "{\"schema\": \"qelect-canonbench/1\", \"passed\": true}",
        )
        .unwrap();
        assert!(!run(&cfg).unwrap().passed());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_requires_the_canon_report_to_record_its_host() {
        let dir = tmp_dir("canon-host");
        let cfg = GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        };
        let report = |host: &str| {
            format!(
                "{{\"schema\": \"qelect-canonbench/2\", {host}\
                 \"elect\": [{{\"n\": 10000}}], \"passed\": true}}"
            )
        };
        let with = "\"host\": {\"cores\": 1, \"rustc\": null, \"git_rev\": null}, ";
        std::fs::write(dir.join("BENCH_canon.json"), report(with)).unwrap();
        assert!(run(&cfg).unwrap().passed());
        for bad in [
            "",
            "\"host\": {\"cores\": 0}, ",
            "\"host\": {\"rustc\": null}, ",
        ] {
            std::fs::write(dir.join("BENCH_canon.json"), report(bad)).unwrap();
            let out = run(&cfg).unwrap();
            assert!(!out.passed(), "accepted host block {bad:?}");
            assert!(out.render().contains("host"), "{}", out.render());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_requires_the_sim_report_to_record_its_host_and_passes() {
        let dir = tmp_dir("sim-host");
        let cfg = GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        };
        let report = |fields: &str| {
            format!("{{\"schema\": \"qelect-simbench/1\", {fields}\"passed\": true}}")
        };
        let host = "\"host\": {\"cores\": 1, \"rustc\": null, \"git_rev\": null}, ";
        let good = format!("\"passes\": 5, {host}");
        std::fs::write(dir.join("BENCH_sim.json"), report(&good)).unwrap();
        assert!(run(&cfg).unwrap().passed());
        for (bad, reason) in [
            (host.to_string(), "passes"),
            (format!("\"passes\": 4, {host}"), "passes"),
            ("\"passes\": 5, ".to_string(), "host"),
            (
                "\"passes\": 5, \"host\": {\"cores\": 0}, ".to_string(),
                "host",
            ),
        ] {
            std::fs::write(dir.join("BENCH_sim.json"), report(&bad)).unwrap();
            let out = run(&cfg).unwrap();
            assert!(!out.passed(), "accepted {bad:?}");
            assert!(out.render().contains(reason), "{}", out.render());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gate_fails_on_passed_false() {
        let dir = tmp_dir("flag");
        std::fs::write(dir.join("BENCH_serve.json"), serve_report(9999.0, 0, false)).unwrap();
        let report = run(&GateConfig {
            dir: dir.to_str().unwrap().into(),
            ..GateConfig::default()
        })
        .unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("passed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_reports_pass_the_gate_defaults() {
        // The gate must hold for the files actually committed at the
        // repo root — otherwise CI would be red on merge. Tolerance and
        // floor use the CI defaults. Skip silently when the reports are
        // not present (e.g. `cargo test` from a packaged crate).
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if !root.join("BENCH_serve.json").exists() {
            return;
        }
        let report = run(&GateConfig {
            dir: root.to_str().unwrap().into(),
            ..GateConfig::default()
        })
        .unwrap();
        assert!(report.passed(), "{}", report.render());
    }
}
