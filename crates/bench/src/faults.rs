//! Fault-injection crash sweeps over the acceptance oracle.
//!
//! `qelectctl faults` (and the CI smoke job behind it) drives this
//! module: for every named instance, generate seeded [`FaultPlan`]s in
//! the eventually-restarting regime, run crash-recovering ELECT under
//! them, and gate on the Theorem 3.1 oracle —
//! with every crashed agent eventually restarting, the run must elect
//! exactly when `gcd(|C_i|) = 1`, crashes or not. Every trial is
//! additionally replayed (same plan, same seed, same scheduler) and must
//! reproduce identical outcomes and per-phase span metrics.
//!
//! The per-instance report attributes recovery cost explicitly: the
//! `recovery` phase span (opened by restarted incarnations until they
//! catch up with their journaled checkpoint) is folded out of the span
//! metrics as redundant work, and total work is compared against a
//! crash-free baseline run of the same instance.

use qelect::prelude::*;
use qelect::solvability::elect_succeeds;
use qelect_agentsim::fault::FaultSummary;
use qelect_agentsim::json;
use qelect_graph::Bicolored;

use crate::report::AuditInstance;
use crate::{header, row};

/// Schema tag embedded in every faults JSON document (the shared
/// envelope declaration, [`json::envelope::FAULTS`]).
pub const FAULTS_SCHEMA: &str = json::envelope::FAULTS;

/// Configuration of a crash sweep.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// The instances to sweep.
    pub instances: Vec<AuditInstance>,
    /// Run seeds; every (instance, seed, plan) tuple is one trial.
    pub seeds: Vec<u64>,
    /// Generated fault plans per (instance, seed).
    pub plans: usize,
    /// Crash events per generated plan.
    pub crashes: usize,
    /// Delay events per generated plan.
    pub delays: usize,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            instances: Vec::new(),
            seeds: vec![0, 1],
            plans: 3,
            crashes: 2,
            delays: 1,
        }
    }
}

/// One (seed, plan) trial of one instance.
#[derive(Debug, Clone)]
pub struct FaultTrial {
    /// Engine name (`"sim"`).
    pub engine: &'static str,
    /// Run seed.
    pub seed: u64,
    /// Index of the generated plan within the seed.
    pub plan: usize,
    /// Whether the verdict matched the gcd oracle.
    pub agree: bool,
    /// Whether an identical re-run reproduced identical outcomes and
    /// per-phase span metrics.
    pub replay_identical: bool,
    /// Fault activity of the run.
    pub summary: FaultSummary,
    /// Total work (moves + whiteboard accesses) of the run.
    pub work: u64,
    /// Work attributed to the `recovery` span — the redundant part
    /// restarted incarnations spend catching up with their checkpoint.
    pub recovery_work: u64,
}

/// The crash-sweep result of one instance across all trials.
#[derive(Debug, Clone)]
pub struct InstanceFaults {
    /// Instance key (`family-spec@agents`).
    pub key: String,
    /// Node count.
    pub n: usize,
    /// Agent count `r`.
    pub r: usize,
    /// The gcd oracle's verdict for the instance.
    pub solvable: bool,
    /// Total work of a crash-free run (the overhead baseline).
    pub baseline_work: u64,
    /// Every trial, in (seed, plan) order.
    pub trials: Vec<FaultTrial>,
}

impl InstanceFaults {
    /// Trials whose verdict matched the oracle.
    pub fn agreeing(&self) -> usize {
        self.trials.iter().filter(|t| t.agree).count()
    }

    /// Trials that failed the identical-replay check.
    pub fn replay_mismatches(&self) -> usize {
        self.trials.iter().filter(|t| !t.replay_identical).count()
    }

    /// Mean work overhead over the crash-free baseline (1.0 = free).
    pub fn mean_overhead(&self) -> f64 {
        if self.trials.is_empty() || self.baseline_work == 0 {
            return 1.0;
        }
        let sum: f64 = self
            .trials
            .iter()
            .map(|t| t.work as f64 / self.baseline_work as f64)
            .sum();
        sum / self.trials.len() as f64
    }

    fn totals(&self) -> FaultSummary {
        let mut acc = FaultSummary::default();
        for t in &self.trials {
            acc.crashes += t.summary.crashes;
            acc.restarts += t.summary.restarts;
            acc.aborted += t.summary.aborted;
            acc.lost_ops += t.summary.lost_ops;
            acc.delay_ticks += t.summary.delay_ticks;
            acc.backoff_ticks += t.summary.backoff_ticks;
        }
        acc
    }
}

/// A full crash-sweep report.
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// Per-instance sweeps, in configuration order.
    pub instances: Vec<InstanceFaults>,
}

impl FaultsReport {
    /// Whether every trial agreed with the gcd oracle.
    pub fn all_agree(&self) -> bool {
        self.instances
            .iter()
            .all(|i| i.agreeing() == i.trials.len())
    }

    /// Whether every trial replayed identically.
    pub fn all_replays_identical(&self) -> bool {
        self.instances.iter().all(|i| i.replay_mismatches() == 0)
    }

    /// Render the human-readable tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for inst in &self.instances {
            out.push_str(&format!(
                "## {} — n = {}, r = {}, oracle: election {}, baseline work {}\n",
                inst.key,
                inst.n,
                inst.r,
                if inst.solvable {
                    "possible"
                } else {
                    "impossible"
                },
                inst.baseline_work
            ));
            out.push_str(&header(&[
                "engine", "seed", "plan", "crashes", "restarts", "lost", "backoff", "work",
                "recovery", "agree", "replay",
            ]));
            out.push('\n');
            for t in &inst.trials {
                out.push_str(&row(&[
                    t.engine.to_string(),
                    t.seed.to_string(),
                    t.plan.to_string(),
                    t.summary.crashes.to_string(),
                    t.summary.restarts.to_string(),
                    t.summary.lost_ops.to_string(),
                    t.summary.backoff_ticks.to_string(),
                    t.work.to_string(),
                    t.recovery_work.to_string(),
                    if t.agree { "yes" } else { "NO" }.to_string(),
                    if t.replay_identical { "ok" } else { "MISMATCH" }.to_string(),
                ]));
                out.push('\n');
            }
            let tot = inst.totals();
            out.push_str(&format!(
                "agree {}/{}, mean overhead {:.2}x, {} crashes / {} restarts / {} aborted\n\n",
                inst.agreeing(),
                inst.trials.len(),
                inst.mean_overhead(),
                tot.crashes,
                tot.restarts,
                tot.aborted,
            ));
        }
        out
    }

    /// Serialize as schema-versioned JSON ([`FAULTS_SCHEMA`], `"kind":
    /// "sweep"` — plan documents use `"kind": "plan"`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(FAULTS_SCHEMA));
        s.push_str("  \"kind\": \"sweep\",\n");
        s.push_str(&format!(
            "  \"all_agree\": {}, \"all_replays_identical\": {},\n",
            self.all_agree(),
            self.all_replays_identical()
        ));
        s.push_str("  \"instances\": [\n");
        for (i, inst) in self.instances.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"key\": {},\n", json::escape(&inst.key)));
            s.push_str(&format!(
                "      \"n\": {}, \"r\": {}, \"solvable\": {}, \"baseline_work\": {},\n",
                inst.n, inst.r, inst.solvable, inst.baseline_work
            ));
            s.push_str(&format!(
                "      \"mean_overhead\": {:.6},\n",
                inst.mean_overhead()
            ));
            s.push_str("      \"trials\": [\n");
            for (j, t) in inst.trials.iter().enumerate() {
                s.push_str("        {");
                s.push_str(&format!(
                    "\"engine\": {}, \"seed\": {}, \"plan\": {}, \"agree\": {}, ",
                    json::escape(t.engine),
                    t.seed,
                    t.plan,
                    t.agree
                ));
                s.push_str(&format!("\"replay_identical\": {}, ", t.replay_identical));
                s.push_str(&format!(
                    "\"crashes\": {}, \"restarts\": {}, \"aborted\": {}, \
                     \"lost_ops\": {}, \"delay_ticks\": {}, \"backoff_ticks\": {}, \
                     \"work\": {}, \"recovery_work\": {}}}",
                    t.summary.crashes,
                    t.summary.restarts,
                    t.summary.aborted,
                    t.summary.lost_ops,
                    t.summary.delay_ticks,
                    t.summary.backoff_ticks,
                    t.work,
                    t.recovery_work
                ));
                s.push_str(if j + 1 < inst.trials.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            s.push_str("      ]\n");
            s.push_str(if i + 1 < self.instances.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Work attributed to the `recovery` phase span of a run.
fn recovery_work(report: &RunReport) -> u64 {
    report
        .metrics
        .phase_breakdown()
        .iter()
        .filter(|p| p.phase == "recovery")
        .map(|p| p.moves + p.accesses)
        .sum()
}

/// The deterministic fingerprint two replays of the same (plan, seed,
/// schedule) must share: outcomes, leader, schedule, fault activity,
/// and every closed phase span (name, agent, exclusive counters).
fn replay_fingerprint(report: &RunReport) -> String {
    let spans: Vec<String> = report
        .metrics
        .spans
        .iter()
        .map(|s| {
            let (m, a, w) = s.exclusive();
            format!("{}:{}:{m}:{a}:{w}", s.agent, s.name)
        })
        .collect();
    format!(
        "{:?}|{:?}|{:?}|{:?}|{}",
        report.outcomes,
        report.leader,
        report.trace,
        report.metrics.faults,
        spans.join(",")
    )
}

/// Derive the plan-generation horizon from a crash-free baseline run:
/// the smallest per-agent op count (moves + accesses + waits), so every
/// generated `at_op` lands inside every agent's actual execution.
fn probe_horizon(report: &RunReport) -> u64 {
    report
        .metrics
        .per_agent
        .iter()
        .map(|&(m, a, w)| m + a + w)
        .min()
        .unwrap_or(1)
        .max(2)
}

/// Run the crash sweep: every instance × seed × plan.
///
/// Errors on invalid placements, on an empty seed list or zero plans,
/// and on engine-level run failures (exhausted restart budgets cannot happen
/// here — generated plans stay inside the recovery policy's budget).
pub fn run_faults(cfg: &FaultsConfig) -> Result<FaultsReport, String> {
    if cfg.seeds.is_empty() {
        return Err("faults sweep needs at least one seed".into());
    }
    if cfg.plans == 0 {
        return Err("faults sweep needs at least one plan per seed".into());
    }
    let mut instances = Vec::new();
    for inst in &cfg.instances {
        let bc = Bicolored::new(inst.graph.clone(), &inst.agents)
            .map_err(|e| format!("bad instance '{}': {e}", inst.key()))?;
        let solvable = elect_succeeds(&bc);
        let baseline = run_election(&bc, &RunConfig::new(cfg.seeds[0]))
            .map_err(|e| format!("{}: baseline run failed: {e}", inst.key()))?;
        let horizon = probe_horizon(&baseline.report);
        let mut trials = Vec::new();
        for &seed in &cfg.seeds {
            for p in 0..cfg.plans {
                let plan_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(p as u64);
                let plan = FaultPlan::generate(plan_seed, bc.r(), horizon, cfg.crashes, cfg.delays);
                let run_cfg = RunConfig::new(seed).faults(plan);
                let run = run_election(&bc, &run_cfg)
                    .map_err(|e| format!("{}: run failed: {e}", inst.key()))?;
                let agree = if solvable {
                    run.clean_election()
                } else {
                    run.report.unanimous_unsolvable()
                };
                let again = run_election(&bc, &run_cfg)
                    .map_err(|e| format!("{}: replay failed: {e}", inst.key()))?;
                let replay_identical =
                    replay_fingerprint(&again.report) == replay_fingerprint(&run.report);
                trials.push(FaultTrial {
                    engine: run.engine,
                    seed,
                    plan: p,
                    agree,
                    replay_identical,
                    summary: run.faults,
                    work: run.report.metrics.total_work(),
                    recovery_work: recovery_work(&run.report),
                });
            }
        }
        instances.push(InstanceFaults {
            key: inst.key(),
            n: bc.n(),
            r: bc.r(),
            solvable,
            baseline_work: baseline.report.metrics.total_work(),
            trials,
        });
    }
    Ok(FaultsReport { instances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn tiny_config() -> FaultsConfig {
        FaultsConfig {
            instances: vec![
                AuditInstance {
                    spec: "cycle:6".to_string(),
                    graph: families::cycle(6).unwrap(),
                    agents: vec![0, 2, 3],
                },
                AuditInstance {
                    spec: "cycle:6".to_string(),
                    graph: families::cycle(6).unwrap(),
                    agents: vec![0, 3],
                },
            ],
            seeds: vec![0],
            plans: 2,
            crashes: 2,
            delays: 1,
        }
    }

    #[test]
    fn crash_sweep_agrees_with_oracle_and_replays() {
        let report = run_faults(&tiny_config()).unwrap();
        assert_eq!(report.instances.len(), 2);
        assert!(report.all_agree(), "{}", report.render());
        assert!(report.all_replays_identical(), "{}", report.render());
        assert!(report.instances[0].solvable, "gcd(1,2)=1");
        assert!(!report.instances[1].solvable, "gcd(2)=2");
        // The sweep actually injected something.
        let injected: u64 = report
            .instances
            .iter()
            .map(|i| i.totals().crashes + i.totals().delay_ticks)
            .sum();
        assert!(injected > 0, "no faults fired");
    }

    #[test]
    fn faults_json_is_schema_versioned() {
        let report = run_faults(&FaultsConfig {
            instances: vec![AuditInstance {
                spec: "cycle:5".to_string(),
                graph: families::cycle(5).unwrap(),
                agents: vec![0],
            }],
            seeds: vec![0],
            plans: 1,
            crashes: 1,
            delays: 0,
        })
        .unwrap();
        let text = report.to_json();
        let obj = json::envelope::check_document(&text, FAULTS_SCHEMA).unwrap();
        assert_eq!(
            json::get(&obj, "kind").and_then(|v| v.as_str()),
            Some("sweep")
        );
        assert_eq!(
            json::get(&obj, "instances")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );
        // A sweep document is not a plan document.
        assert!(FaultPlan::from_json(&text).is_err());
    }

    #[test]
    fn empty_configs_are_rejected() {
        let mut cfg = tiny_config();
        cfg.seeds.clear();
        assert!(run_faults(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.plans = 0;
        assert!(run_faults(&cfg).is_err());
    }
}
