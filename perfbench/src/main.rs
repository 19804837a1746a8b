//! The repository benchmark: one workload per invocation, every output
//! checked, metrics printed by name and unit, and a last line of JSON
//! with `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --qelectctl <path> --out <dir>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded around each layer call and prints the
//! per-layer metrics instead. README.md lists every metric.

mod elect_cold;
mod explore;
mod gen;
mod http;
mod openloop;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

pub const PHASES: [&str; 6] = [
    "map-drawing",
    "classes",
    "agent-reduce",
    "node-reduce",
    "announce",
    "final-wait",
];

/// Per-layer metrics with units. A workload that does not exercise a
/// layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("spec.build_us", "us"),
        ("canon.ms", "ms"),
        ("service.prepare_ms", "ms"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("elect.run_ms", "ms"),
        ("elect.moves", "count"),
        ("elect.accesses", "count"),
        ("elect.waits", "count"),
        ("elect.steps", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for phase in PHASES {
        for what in ["moves", "accesses", "waits"] {
            v.push((format!("elect.phase.{phase}.{what}"), "count"));
        }
    }
    for scope in ["serve", "serve.warm"] {
        for layer in ["front_ms", "queue_ms", "run_ms"] {
            for q in ["p50", "p99"] {
                v.push((format!("{scope}.{layer}.{q}"), "ms"));
            }
        }
    }
    for layer in ["front_ms", "queue_ms", "run_ms"] {
        v.push((format!("serve.cold.{layer}.p50"), "ms"));
    }
    let tail: [(&str, &'static str); 17] = [
        ("cold_p50_ms", "ms"),
        ("serve.coalesced", "count"),
        ("serve.rejected", "count"),
        ("store.written_canon", "count"),
        ("store.written_specs", "count"),
        ("store.bytes", "bytes"),
        ("explore.session_ms", "ms"),
        ("explore.run_ms", "ms"),
        ("explore.schedules", "count"),
        ("coverage.unique", "count"),
        ("coverage.revisits", "count"),
        ("explore.max_ticks", "count"),
        ("gen.late_p99_ms", "ms"),
        ("gen.achieved_rps", "1/s"),
        ("trace.overhead_frac", "frac"),
        ("elect.prepare_share", "frac"),
        ("trace.unattributed_frac", "frac"),
    ];
    v.extend(tail.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// What a workload is given.
pub struct Cfg {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub qelectctl: PathBuf,
    pub out: PathBuf,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct; empty when it is.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Lines for the human-readable part of the report.
    pub notes: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Set end-to-end times and rates as they would read on the host at
    /// reference speed (see `stats::HostSpeed`), noting the raw values.
    pub fn set_scaled(&mut self, raw: &[(&str, f64)], host: &stats::HostSpeed) {
        let slowdown = host.slowdown();
        let mut measured = Vec::new();
        for &(name, value) in raw {
            let rate = END_TO_END.iter().any(|&(n, u)| n == name && u == "1/s");
            let scaled = if rate {
                value * slowdown
            } else {
                value / slowdown
            };
            self.set(name, scaled);
            measured.push(format!("{name} {value:.6}"));
        }
        self.notes.push(host.note());
        self.notes
            .push(format!("as measured: {}", measured.join(", ")));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Look for a git repository here only, not in the directories above.
    let cwd = std::env::current_dir().unwrap_or_default();
    let above = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Core count, compiler and revision the result was measured with.
fn host_block() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"cores\": {cores}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

const WORKLOADS: [&str; 3] = ["elect-cold", "serve-mixed", "explore-swarm"];

fn parse_args() -> Result<(String, Cfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("bad arguments {args:?}")),
        }
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing --{k}"));
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} needs a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok((
        workload,
        Cfg {
            seed: num("seed")?,
            seconds: Duration::from_secs(seconds),
            trace,
            qelectctl: PathBuf::from(get("qelectctl")?),
            out: PathBuf::from(get("out")?),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out.display());
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "elect-cold" => elect_cold::run(&cfg),
        "serve-mixed" => serve::run(&cfg),
        "explore-swarm" => explore::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    report(&workload, &cfg, out)
}

fn report(workload: &str, cfg: &Cfg, mut out: Outcome) -> ExitCode {
    let host = host_block();
    let wanted: Vec<(String, &str)> = if cfg.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "perfbench {workload} seed {} seconds {} trace {}",
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace)
    );
    println!("host {host}");
    for note in &out.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for (name, unit) in &wanted {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if cfg.trace => 0.0,
            None => {
                out.errors
                    .push(format!("end-to-end metric {name} was not measured"));
                f64::NAN
            }
        };
        println!("  {name:<36} {value:>14.4} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(tracer) = &out.spans {
        let stem = cfg.out.join(format!("{workload}-seed{}", cfg.seed));
        let layers: Vec<String> = tracer
            .self_by_name()
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {}", *ns as f64 / 1e6))
            .collect();
        let summary = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"host\": {host}, \"self_ms\": {{{}}}}}\n",
            cfg.seed,
            layers.join(", ")
        );
        let written = std::fs::write(stem.with_extension("spans.jsonl"), tracer.to_jsonl())
            .and_then(|_| std::fs::write(stem.with_extension("layers.json"), summary));
        match written {
            Ok(()) => println!("  spans and per-layer self times in {}.*", stem.display()),
            Err(e) => out.errors.push(format!("writing the span file: {e}")),
        }
    }
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("perfbench: {workload}: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_agentsim::json::{self, get, Value};

    fn names(doc: &[(String, Value)], key: &str) -> Vec<(String, String)> {
        get(doc, key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("metric object");
                let field = |k| get(m, k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let doc = doc.as_object().unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names(doc, "per_layer"), layers);
        let workloads: Vec<String> = get(doc, "workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                get(w.as_object().unwrap(), "name")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
