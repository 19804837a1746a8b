//! Phase-resolved audit reports over the span-instrumented engine.
//!
//! `qelectctl audit` (and the CI job behind it) drives this module: run
//! an audit-capable registry protocol (default: Protocol ELECT; any
//! entry whose `caps.audit_schema` is set — others are rejected with a
//! typed error) on a set of named instances across seeds,
//! fold every run's [`PhaseSpan`]s (via `Metrics::phase_breakdown`) into
//! per-phase move/access/wait totals with power-of-two work histograms
//! and per-phase canonical-form cache deltas, fit the constant `c` of
//! Theorem 3.1's envelope `total_work ≤ c·r·|E|` per graph family, and
//! export the whole thing as schema-versioned JSON
//! ([`AUDIT_SCHEMA`]). [`check_against_baseline`] compares the fitted
//! constants against a committed baseline (`BENCH_audit.json`) with a
//! fractional tolerance — the regression gate CI consumes.
//!
//! Aggregation preserves the span invariant: within every instance the
//! phase rows (including the `(unspanned)` bucket) sum **exactly** to
//! the run totals, because `phase_breakdown` guarantees it per run and
//! this module only adds per-run rows together.
//!
//! [`PhaseSpan`]: qelect_agentsim::PhaseSpan

use qelect::prelude::*;
use qelect_agentsim::json;
use qelect_agentsim::Metrics;
use qelect_graph::cache::CacheStats;
use qelect_graph::{Bicolored, Graph};

use crate::{header, row};

/// Schema tag embedded in every audit JSON document (the shared
/// envelope declaration, [`json::envelope::AUDIT`]).
pub const AUDIT_SCHEMA: &str = json::envelope::AUDIT;

/// Schema tag embedded in the sweep JSON export
/// ([`json::envelope::SWEEP`]).
pub const SWEEP_SCHEMA: &str = json::envelope::SWEEP;

/// Default fractional tolerance of the baseline gate: the audit fails
/// when a family's fitted constant exceeds the committed one by more
/// than this fraction.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// One named instance of an audit: a family spec plus home-bases.
#[derive(Debug, Clone)]
pub struct AuditInstance {
    /// The family spec as parsed (e.g. `cycle:12`).
    pub spec: String,
    /// The constructed graph.
    pub graph: Graph,
    /// Home-base nodes.
    pub agents: Vec<usize>,
}

impl AuditInstance {
    /// Stable instance key, e.g. `cycle:12@0,1,3`.
    pub fn key(&self) -> String {
        let agents: Vec<String> = self.agents.iter().map(|a| a.to_string()).collect();
        format!("{}@{}", self.spec, agents.join(","))
    }

    /// The graph family, via the shared spec grammar.
    pub fn family(&self) -> &str {
        crate::spec::family_of(&self.spec)
    }
}

impl From<crate::spec::InstanceSpec> for AuditInstance {
    fn from(s: crate::spec::InstanceSpec) -> AuditInstance {
        AuditInstance {
            spec: s.family_spec,
            graph: s.graph,
            agents: s.agents,
        }
    }
}

/// Configuration of an audit run.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// The registry protocol to audit. Must carry an audit schema in its
    /// capability flags ([`run_audit`] rejects the rest with a typed
    /// error); the CLI enforces the same gate at parse time.
    pub protocol: qelect_agentsim::ProtocolId,
    /// The instances to audit.
    pub instances: Vec<AuditInstance>,
    /// Run seeds; every (instance, seed) pair is one trial.
    pub seeds: Vec<u64>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            protocol: qelect::registry::default_entry().id,
            instances: Vec::new(),
            seeds: vec![0, 1, 2],
        }
    }
}

/// A power-of-two bucketed histogram of per-trial work values.
///
/// Bucket 0 counts zeros; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. The vector is trimmed to the highest used bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkHistogram {
    /// Counts per bucket.
    pub buckets: Vec<u64>,
}

impl WorkHistogram {
    /// The bucket index a value falls into.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Human label of bucket `i` (`"0"`, `"[1,2)"`, `"[2,4)"`, …).
    pub fn bucket_label(i: usize) -> String {
        if i == 0 {
            "0".to_string()
        } else {
            format!("[{},{})", 1u128 << (i - 1), 1u128 << i)
        }
    }

    /// Count one value.
    pub fn add(&mut self, v: u64) {
        let i = Self::bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
    }

    /// Total count across buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Aggregated per-phase totals of one audited instance.
#[derive(Debug, Clone)]
pub struct PhaseAgg {
    /// Phase name (span name, or the `(unspanned)` bucket).
    pub phase: String,
    /// Spans folded in across all trials.
    pub spans: u64,
    /// Exclusive moves summed over trials.
    pub moves: u64,
    /// Exclusive whiteboard accesses summed over trials.
    pub accesses: u64,
    /// Exclusive completed waits summed over trials.
    pub waits: u64,
    /// Histogram of this phase's per-trial work (moves + accesses).
    pub hist: WorkHistogram,
    /// Merged canonical-form cache deltas (process-global counters, so a
    /// superset of the phase's own traffic under concurrency).
    pub cache: Option<CacheStats>,
}

/// The audit result of one instance across all seeds.
#[derive(Debug, Clone)]
pub struct InstanceAudit {
    /// Instance key (`family-spec@agents`).
    pub key: String,
    /// Graph family.
    pub family: String,
    /// Node count.
    pub n: usize,
    /// Edge count `|E|`.
    pub edges: usize,
    /// Agent count `r`.
    pub r: usize,
    /// Trials folded in (one per seed).
    pub trials: usize,
    /// Per-phase aggregates, ordered by first appearance.
    pub phases: Vec<PhaseAgg>,
    /// `(moves, accesses, waits)` run totals summed over trials — by
    /// construction equal to the column sums of `phases`.
    pub total: (u64, u64, u64),
    /// Fitted Theorem 3.1 constant: the max over trials of
    /// `total_work / (r·|E|)`.
    pub fitted_c: f64,
}

/// The fitted constant of one graph family (max over its instances).
#[derive(Debug, Clone)]
pub struct FamilyFit {
    /// Family name.
    pub family: String,
    /// Fitted constant `c` with `total_work ≤ c·r·|E|` over every trial
    /// of every instance of the family.
    pub fitted_c: f64,
    /// Instances contributing.
    pub instances: usize,
}

/// A full audit report.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Wire name of the audited protocol.
    pub protocol: String,
    /// Per-instance audits, in configuration order.
    pub instances: Vec<InstanceAudit>,
    /// Per-family fitted constants, in first-appearance order.
    pub families: Vec<FamilyFit>,
    /// The seeds driven.
    pub seeds: Vec<u64>,
}

fn run_one(
    entry: &'static qelect_agentsim::ProtocolEntry,
    bc: &Bicolored,
    seed: u64,
) -> Result<Metrics, String> {
    let election = entry
        .run(bc, &RunConfig::new(seed))
        .map_err(|e| format!("{} run failed: {e}", entry.id.name()))?;
    Ok(election.report.metrics)
}

/// Run the audit: every instance × seed, folded per instance.
///
/// Errors on invalid placements (out-of-range or colliding home-bases)
/// and on an empty seed list.
pub fn run_audit(cfg: &AuditConfig) -> Result<AuditReport, String> {
    if cfg.seeds.is_empty() {
        return Err("audit needs at least one seed".into());
    }
    let entry = qelect::registry::get(cfg.protocol);
    if entry.caps.audit_schema.is_none() {
        return Err(format!(
            "protocol '{}' is not auditable (no audit schema in its registry capability flags)",
            entry.id.name()
        ));
    }
    let mut instances = Vec::new();
    for inst in &cfg.instances {
        let bc = Bicolored::new(inst.graph.clone(), &inst.agents)
            .map_err(|e| format!("bad instance '{}': {e}", inst.key()))?;
        let denom = (bc.r() * bc.graph().m()) as f64;
        let mut phases: Vec<PhaseAgg> = Vec::new();
        let mut total = (0u64, 0u64, 0u64);
        let mut fitted_c = 0.0f64;
        let mut trials = 0usize;
        for &seed in &cfg.seeds {
            let metrics = run_one(entry, &bc, seed)?;
            trials += 1;
            total.0 += metrics.total_moves();
            total.1 += metrics.total_accesses();
            total.2 += metrics.total_waits();
            fitted_c = fitted_c.max(metrics.total_work() as f64 / denom);
            for r in metrics.phase_breakdown() {
                let agg = match phases.iter_mut().find(|p| p.phase == r.phase) {
                    Some(agg) => agg,
                    None => {
                        phases.push(PhaseAgg {
                            phase: r.phase.clone(),
                            spans: 0,
                            moves: 0,
                            accesses: 0,
                            waits: 0,
                            hist: WorkHistogram::default(),
                            cache: None,
                        });
                        phases.last_mut().expect("just pushed")
                    }
                };
                agg.spans += r.spans;
                agg.moves += r.moves;
                agg.accesses += r.accesses;
                agg.waits += r.waits;
                agg.hist.add(r.work());
                if let Some(delta) = r.cache {
                    agg.cache = Some(agg.cache.unwrap_or_default().merge(&delta));
                }
            }
        }
        instances.push(InstanceAudit {
            key: inst.key(),
            family: inst.family().to_string(),
            n: bc.n(),
            edges: bc.graph().m(),
            r: bc.r(),
            trials,
            phases,
            total,
            fitted_c,
        });
    }
    let mut families: Vec<FamilyFit> = Vec::new();
    for inst in &instances {
        match families.iter_mut().find(|f| f.family == inst.family) {
            Some(f) => {
                f.fitted_c = f.fitted_c.max(inst.fitted_c);
                f.instances += 1;
            }
            None => families.push(FamilyFit {
                family: inst.family.clone(),
                fitted_c: inst.fitted_c,
                instances: 1,
            }),
        }
    }
    Ok(AuditReport {
        protocol: entry.id.name().to_string(),
        instances,
        families,
        seeds: cfg.seeds.clone(),
    })
}

impl AuditReport {
    /// Render the human-readable tables (per-phase breakdowns plus the
    /// family fit summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for inst in &self.instances {
            out.push_str(&format!(
                "## {} — n = {}, |E| = {}, r = {}, {} trials, fitted c = {:.2}\n",
                inst.key, inst.n, inst.edges, inst.r, inst.trials, inst.fitted_c
            ));
            out.push_str(&header(&[
                "phase",
                "spans",
                "moves",
                "accesses",
                "waits",
                "cache h/m",
            ]));
            out.push('\n');
            for p in &inst.phases {
                let cache = match &p.cache {
                    Some(c) => format!("{}/{}", c.hits, c.misses),
                    None => "-".to_string(),
                };
                out.push_str(&row(&[
                    p.phase.clone(),
                    p.spans.to_string(),
                    p.moves.to_string(),
                    p.accesses.to_string(),
                    p.waits.to_string(),
                    cache,
                ]));
                out.push('\n');
            }
            let (m, a, w) = inst.total;
            out.push_str(&format!("total: {m} moves, {a} accesses, {w} waits\n\n"));
        }
        out.push_str(&header(&["family", "instances", "fitted c"]));
        out.push('\n');
        for f in &self.families {
            out.push_str(&row(&[
                f.family.clone(),
                f.instances.to_string(),
                format!("{:.2}", f.fitted_c),
            ]));
            out.push('\n');
        }
        out
    }

    /// Serialize as schema-versioned JSON ([`AUDIT_SCHEMA`]). The same
    /// document doubles as the committed baseline — only the `families`
    /// section is consulted by [`check_against_baseline`].
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&json::envelope::header(AUDIT_SCHEMA));
        s.push_str(&format!(
            "  \"protocol\": {},\n",
            json::escape(&self.protocol)
        ));
        let seeds: Vec<String> = self.seeds.iter().map(|v| v.to_string()).collect();
        s.push_str(&format!("  \"seeds\": [{}],\n", seeds.join(",")));
        s.push_str(&format!(
            "  \"engines\": [{}],\n",
            json::escape(Engine::Sim.name())
        ));
        s.push_str("  \"instances\": [\n");
        for (i, inst) in self.instances.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"key\": {},\n", json::escape(&inst.key)));
            s.push_str(&format!(
                "      \"family\": {},\n",
                json::escape(&inst.family)
            ));
            s.push_str(&format!(
                "      \"n\": {}, \"edges\": {}, \"r\": {}, \"trials\": {},\n",
                inst.n, inst.edges, inst.r, inst.trials
            ));
            s.push_str(&format!("      \"fitted_c\": {:.6},\n", inst.fitted_c));
            let (m, a, w) = inst.total;
            s.push_str(&format!(
                "      \"total\": {{\"moves\": {m}, \"accesses\": {a}, \"waits\": {w}}},\n"
            ));
            s.push_str("      \"phases\": [\n");
            for (j, p) in inst.phases.iter().enumerate() {
                s.push_str("        {");
                s.push_str(&format!("\"phase\": {}, ", json::escape(&p.phase)));
                s.push_str(&format!(
                    "\"spans\": {}, \"moves\": {}, \"accesses\": {}, \"waits\": {}, ",
                    p.spans, p.moves, p.accesses, p.waits
                ));
                let hist: Vec<String> = p.hist.buckets.iter().map(|c| c.to_string()).collect();
                s.push_str(&format!("\"work_hist\": [{}]", hist.join(",")));
                if let Some(c) = &p.cache {
                    s.push_str(&format!(
                        ", \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"collisions\": {}}}",
                        c.hits, c.misses, c.evictions, c.collisions
                    ));
                }
                s.push('}');
                s.push_str(if j + 1 < inst.phases.len() {
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
        s.push_str("  ],\n");
        s.push_str("  \"families\": [\n");
        for (i, f) in self.families.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"family\": {}, \"instances\": {}, \"fitted_c\": {:.6}}}{}\n",
                json::escape(&f.family),
                f.instances,
                f.fitted_c,
                if i + 1 < self.families.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Compare a fresh report against a committed baseline document.
///
/// Returns the list of regression messages — empty means the gate
/// passes. A family's fitted constant regresses when it exceeds the
/// baseline's by more than the fractional `tolerance`; a family absent
/// from the baseline is also flagged (commit a new baseline with
/// `--write-baseline` to admit it). Errors on malformed baseline JSON
/// or a schema mismatch.
pub fn check_against_baseline(
    report: &AuditReport,
    baseline_json: &str,
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let obj = json::envelope::check_document(baseline_json, AUDIT_SCHEMA)
        .map_err(|e| format!("baseline: {e}"))?;
    let families = json::get(&obj, "families")
        .and_then(|v| v.as_array())
        .ok_or("baseline: missing 'families' array")?;
    let mut base: Vec<(String, f64)> = Vec::new();
    for f in families {
        let fo = f.as_object().ok_or("baseline: family is not an object")?;
        let name = json::get(fo, "family")
            .and_then(|v| v.as_str())
            .ok_or("baseline: family without a name")?;
        let c = json::get(fo, "fitted_c")
            .and_then(|v| v.as_num())
            .ok_or("baseline: family without fitted_c")?;
        base.push((name.to_string(), c));
    }
    let mut regressions = Vec::new();
    for f in &report.families {
        match base.iter().find(|(name, _)| *name == f.family) {
            None => regressions.push(format!(
                "family '{}' has no committed baseline (fitted c = {:.2})",
                f.family, f.fitted_c
            )),
            Some((_, c0)) => {
                let limit = c0 * (1.0 + tolerance);
                if f.fitted_c > limit {
                    regressions.push(format!(
                        "family '{}': fitted c = {:.2} exceeds baseline {:.2} \
                         (+{:.0}% tolerance → limit {:.2})",
                        f.family,
                        f.fitted_c,
                        c0,
                        tolerance * 100.0,
                        limit
                    ));
                }
            }
        }
    }
    Ok(regressions)
}

/// Serialize a [`crate::sweep::SweepReport`] as schema-versioned JSON
/// ([`SWEEP_SCHEMA`]) — the `qelectctl sweep --json` export.
pub fn sweep_to_json(report: &crate::sweep::SweepReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&json::envelope::header(SWEEP_SCHEMA));
    s.push_str(&format!(
        "  \"total_valid\": {}, \"total_agree\": {}, \"workers\": {},\n",
        report.total_valid, report.total_agree, report.workers
    ));
    s.push_str(&format!("  \"wall_ms\": {},\n", report.wall.as_millis()));
    s.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"collisions\": {}}},\n",
        report.cache.hits, report.cache.misses, report.cache.evictions, report.cache.collisions
    ));
    s.push_str("  \"buckets\": [\n");
    for (i, b) in report.buckets.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"bucket\": {}, \"valid\": {}, \"agree\": {}, \"solvable\": {}, \
             \"unsolvable\": {}, \"avg_work_ratio\": {:.6}}}{}\n",
            json::escape(&b.label),
            b.valid,
            b.agree,
            b.solvable,
            b.unsolvable,
            b.avg_work_ratio,
            if i + 1 < report.buckets.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use qelect_graph::families;

    fn tiny_config() -> AuditConfig {
        AuditConfig {
            instances: vec![AuditInstance {
                spec: "cycle:6".to_string(),
                graph: families::cycle(6).unwrap(),
                agents: vec![0, 3],
            }],
            seeds: vec![0],
            ..AuditConfig::default()
        }
    }

    #[test]
    fn audit_generalizes_to_other_auditable_registry_protocols() {
        let cfg = AuditConfig {
            protocol: qelect::registry::resolve("dp-anon").unwrap().id,
            ..tiny_config()
        };
        let report = run_audit(&cfg).unwrap();
        assert_eq!(report.protocol, "dp-anon");
        let inst = &report.instances[0];
        assert!(inst.trials > 0);
        assert!(inst.phases.iter().any(|p| p.phase == "map-drawing"));
        let text = report.to_json();
        let obj = json::parse(&text).unwrap();
        let obj = obj.as_object().unwrap();
        assert_eq!(
            json::get(obj, "protocol").unwrap().as_str(),
            Some("dp-anon")
        );
    }

    #[test]
    fn audit_rejects_protocols_without_an_audit_schema() {
        let cfg = AuditConfig {
            protocol: qelect::registry::resolve("anonymous").unwrap().id,
            ..tiny_config()
        };
        let err = run_audit(&cfg).unwrap_err();
        assert!(err.contains("not auditable"), "{err}");
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(WorkHistogram::bucket_index(0), 0);
        assert_eq!(WorkHistogram::bucket_index(1), 1);
        assert_eq!(WorkHistogram::bucket_index(2), 2);
        assert_eq!(WorkHistogram::bucket_index(3), 2);
        assert_eq!(WorkHistogram::bucket_index(4), 3);
        assert_eq!(WorkHistogram::bucket_index(u64::MAX), 64);
        assert_eq!(WorkHistogram::bucket_label(0), "0");
        assert_eq!(WorkHistogram::bucket_label(3), "[4,8)");
        let mut h = WorkHistogram::default();
        h.add(0);
        h.add(3);
        h.add(3);
        assert_eq!(h.buckets, vec![1, 0, 2]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn audit_phase_totals_sum_to_run_totals() {
        let report = run_audit(&tiny_config()).unwrap();
        let inst = &report.instances[0];
        assert!(inst.fitted_c > 0.0);
        assert!(inst.phases.iter().any(|p| p.phase == "map-drawing"));
        let sum = inst.phases.iter().fold((0, 0, 0), |acc, p| {
            (acc.0 + p.moves, acc.1 + p.accesses, acc.2 + p.waits)
        });
        assert_eq!(sum, inst.total, "phase rows must telescope to totals");
        // Every phase contributed one histogram entry per trial.
        for p in &inst.phases {
            assert_eq!(p.hist.total() as usize, inst.trials, "{}", p.phase);
        }
    }

    #[test]
    fn audit_json_roundtrips_and_passes_its_own_baseline() {
        let report = run_audit(&tiny_config()).unwrap();
        let text = report.to_json();
        let doc = json::parse(&text).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(
            json::get(obj, "schema").unwrap().as_str(),
            Some(AUDIT_SCHEMA)
        );
        assert_eq!(
            json::get(obj, "instances")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            1
        );
        // A report compared against itself never regresses (tiny
        // tolerance absorbs the {:.6} serialization rounding).
        let msgs = check_against_baseline(&report, &text, 1e-6).unwrap();
        assert_eq!(msgs, Vec::<String>::new());
    }

    #[test]
    fn baseline_gate_detects_regressions() {
        let report = run_audit(&tiny_config()).unwrap();
        let c = report.families[0].fitted_c;
        let shrunk = format!(
            "{{\"schema\": \"{AUDIT_SCHEMA}\", \"families\": \
             [{{\"family\": \"cycle\", \"instances\": 1, \"fitted_c\": {:.6}}}]}}",
            c / 2.0
        );
        let msgs = check_against_baseline(&report, &shrunk, 0.25).unwrap();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("exceeds baseline"));
        // Within tolerance: the same baseline passes at 2x slack.
        assert!(check_against_baseline(&report, &shrunk, 1.5)
            .unwrap()
            .is_empty());
        // A family missing from the baseline is flagged.
        let other = format!(
            "{{\"schema\": \"{AUDIT_SCHEMA}\", \"families\": \
             [{{\"family\": \"petersen\", \"instances\": 1, \"fitted_c\": 9.0}}]}}"
        );
        let msgs = check_against_baseline(&report, &other, 0.25).unwrap();
        assert!(msgs[0].contains("no committed baseline"));
        // Malformed or mis-schema'd baselines error out.
        assert!(check_against_baseline(&report, "not json", 0.25).is_err());
        assert!(check_against_baseline(&report, "{\"schema\": \"x\"}", 0.25).is_err());
    }

    #[test]
    fn sweep_json_is_schema_versioned() {
        let cfg = crate::sweep::SweepConfig {
            trials: 2,
            workers: 1,
            seed0: 0,
            repeats: 1,
            buckets: vec![crate::sweep::SweepBucket {
                n_lo: 5,
                n_hi: 7,
                p: 0.2,
            }],
        };
        let report = crate::sweep::run_sweep(&cfg);
        let doc = json::parse(&sweep_to_json(&report)).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(
            json::get(obj, "schema").unwrap().as_str(),
            Some(SWEEP_SCHEMA)
        );
        assert_eq!(
            json::get(obj, "buckets").unwrap().as_array().unwrap().len(),
            1
        );
    }
}
