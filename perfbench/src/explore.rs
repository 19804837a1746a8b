//! `explore-swarm`: in-process schedule exploration of ELECT on
//! `cycle:9@0,1,2,3,4`, sim engine, 2 workers, in sessions of a fixed
//! DFS and swarm budget.
//!
//! The inputs are fixed (instance, budgets and seeds); `--seed` only
//! orders each pass, so every run explores the same schedules and the
//! coverage counts, and the memory they take, do not vary from seed to
//! seed.
//!
//! `explore` and `coverage` run in no other workload. A session must find
//! no violation, and its coverage counts are deterministic: every session
//! of one configuration must report the same counts, and configuration 0
//! must equal a single-worker reference taken during set-up (the
//! worker-count invariance the explorer promises).

use std::time::Instant;

use qelect::registry;
use qelect::service::PreparedElection;
use qelect_agentsim::explore::{ExploreConfig, ExploreReport, ExploreSession};
use qelect_agentsim::{Engine, RunConfig};
use qelect_bench::spec::InstanceSpec;
use qelect_graph::Bicolored;

use crate::stats::{self, HostSpeed, Rng};
use crate::trace::Tracer;
use crate::{Cfg, Outcome, PHASES};

const INSTANCE: &str = "cycle:9@0,1,2,3,4";
const WORKERS: usize = 2;
const DFS: usize = 100;
const SWARM: usize = 256;
/// Swarm seeds, one session each per pass: 100, so the p90
/// over them has ten beyond it.
const CONFIGS: usize = 100;
/// Every run explores every configuration at least this often.
const MIN_PASSES: usize = 2;
/// A set-up is timed again after every this many sessions: four times a
/// pass.
const SETUP_EVERY: usize = 25;
/// Run seed of every session (colours, port scrambles, policy).
const SEED: u64 = 9;

fn explore_cfg(config: usize, workers: usize) -> ExploreConfig {
    ExploreConfig {
        preemption_bound: 2,
        max_schedules: DFS,
        swarm_runs: SWARM,
        swarm_seed: (SEED ^ 0xADE5_ADE5).wrapping_add(config as u64),
        workers,
        max_counterexamples: 1,
    }
}

/// The counts a session must reproduce exactly.
fn counts(r: &ExploreReport) -> [u64; 5] {
    [
        r.schedules_explored as u64,
        r.coverage.unique,
        r.coverage.revisits,
        r.max_ticks,
        r.violations as u64,
    ]
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let entry = registry::resolve("elect")?;
    let bc: Bicolored = InstanceSpec::parse(INSTANCE)
        .and_then(|s| s.bicolored())
        .map_err(|e| e.to_string())?;
    let run_cfg = RunConfig::new(SEED).engine(Engine::Sim);

    // Set-up: build a session and take the single-worker reference of
    // configuration 0. It is taken again throughout the run, so that
    // `setup_s` is a median over the whole run rather than over one
    // moment of the host, and it must not change.
    let mut host = HostSpeed::new();
    let set_up = || -> Result<(f64, [u64; 5]), String> {
        let t = Instant::now();
        let session = ExploreSession::from_entry(entry, &bc, &run_cfg)?;
        let r = counts(&session.explore(&explore_cfg(0, 1)));
        Ok((t.elapsed().as_secs_f64(), r))
    };
    let (took, reference) = set_up()?;
    let mut setup = vec![took];
    let mut expected: Vec<Option<[u64; 5]>> = vec![None; CONFIGS];
    expected[0] = Some(reference);

    let mut rng = Rng::new(cfg.seed ^ 0xE4F1);
    let mut order: Vec<usize> = (0..CONFIGS).collect();
    let mut tracer = Tracer::new(Instant::now());
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut explore_ns = 0u128;
    let mut per_session = [0u64; 5];
    let mut max_ticks = 0u64;
    let mut best = vec![f64::INFINITY; CONFIGS];
    let mut sessions = 0usize;
    let mut passes = 0;
    let started = Instant::now();
    while passes < MIN_PASSES || started.elapsed() < cfg.seconds {
        rng.shuffle(&mut order);
        for (i, &config) in order.iter().enumerate() {
            if i % SETUP_EVERY == SETUP_EVERY - 1 {
                let (took, again) = set_up()?;
                setup.push(took);
                if again != reference {
                    out.errors
                        .push("the single-worker reference is not deterministic".into());
                }
            }
            // A traced run explores every configuration twice, traced and
            // untraced in alternating order, so the pairs give the tracing
            // overhead on identical work.
            let twice: &[bool] = match (cfg.trace, sessions % 2) {
                (false, _) => &[false],
                (true, 0) => &[true, false],
                (true, _) => &[false, true],
            };
            host.tick();
            for &traced in twice {
                let op = sessions as u64;
                sessions += 1;
                out.attempted += 1;
                let t0 = Instant::now();
                let session = ExploreSession::from_entry(entry, &bc, &run_cfg)?;
                let t1 = Instant::now();
                let report = session.explore(&explore_cfg(config, WORKERS));
                let t2 = Instant::now();
                if traced {
                    let root = tracer.record("explore.session", op, None, t0, t2);
                    tracer.record("explore.build", op, Some(root), t0, t1);
                    tracer.record("explore.run", op, Some(root), t1, t2);
                }
                let got = counts(&report);
                let want = expected[config].get_or_insert(got);
                if report.violations > 0 {
                    out.fail(format!(
                        "configuration {config}: {} ELECT violations",
                        report.violations
                    ));
                } else if *want != got {
                    out.fail(format!(
                        "configuration {config}: counts {got:?}, expected {want:?}"
                    ));
                }
                let ms = (t2 - t0).as_secs_f64() * 1e3;
                best[config] = best[config].min(ms);
                if traced {
                    traced_ms.push(ms);
                } else {
                    untraced_ms.push(ms);
                }
                explore_ns += (t2 - t1).as_nanos();
                for (acc, v) in per_session.iter_mut().zip(got) {
                    *acc += v;
                }
                max_ticks = max_ticks.max(got[3]);
            }
        }
        passes += 1;
    }
    let peak = crate::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    // Each configuration's best time over the passes: the host slows down
    // in stretches of seconds, and the fastest of several identical
    // sessions is the one it disturbed least.
    let lat = stats::sorted(best);
    let q = stats::tail_quantile(lat.len(), 0.9);
    let pass_schedules: u64 = expected.iter().flatten().map(|c| c[0]).sum();
    out.set("peak_rss_mb", peak);
    out.set_scaled(
        &[
            ("setup_s", stats::median(&stats::sorted(setup))),
            ("op_p50_ms", stats::median(&lat)),
            ("op_tail_ms", stats::percentile(&lat, q)),
            (
                "throughput_per_s",
                pass_schedules as f64 * 1e3 / lat.iter().sum::<f64>(),
            ),
        ],
        &host,
    );
    out.notes.push(format!(
        "{sessions} sessions in {passes} passes over {CONFIGS} configurations of \
         {DFS} DFS + {SWARM} swarm schedules on {WORKERS} workers, tail = p{}",
        q * 100.0
    ));
    if cfg.trace {
        let n = sessions as f64;
        let by = tracer.self_by_name();
        let traced_n = traced_ms.len().max(1) as f64;
        out.set(
            "explore.session_ms",
            *by.get("explore.build").unwrap_or(&0) as f64 / 1e6 / traced_n,
        );
        out.set("explore.run_ms", explore_ns as f64 / 1e6 / n);
        out.set("explore.schedules", per_session[0] as f64 / n);
        out.set("coverage.unique", per_session[1] as f64 / n);
        out.set("coverage.revisits", per_session[2] as f64 / n);
        out.set("explore.max_ticks", max_ticks as f64);
        let (t, u) = (stats::mean(&traced_ms), stats::mean(&untraced_ms));
        if u > 0.0 {
            out.set("trace.overhead_frac", t / u - 1.0);
        }
        elect_costs(&mut out, &bc)?;
        out.spans = Some(tracer);
    }
    Ok(out)
}

/// What one policy-scheduled ELECT run on the explored instance costs:
/// the per-run numbers behind the schedule rate.
fn elect_costs(out: &mut Outcome, bc: &Bicolored) -> Result<(), String> {
    const RUNS: u64 = 50;
    let prep = PreparedElection::new(bc.clone());
    let (mut ms, mut moves, mut accesses, mut waits, mut steps) = (0.0, 0, 0, 0, 0);
    let mut phases = vec![[0u64; 3]; PHASES.len()];
    for k in 0..RUNS {
        let t = Instant::now();
        let run = prep
            .run(&RunConfig::new(SEED + k).engine(Engine::Sim))
            .map_err(|e| e.to_string())?;
        ms += t.elapsed().as_secs_f64() * 1e3;
        if !prep.agrees(&run) {
            out.fail(format!("{INSTANCE}: run {k} disagrees with the oracle"));
        }
        let m = &run.report.metrics;
        moves += m.total_moves();
        accesses += m.total_accesses();
        waits += m.total_waits();
        steps += m.steps;
        for row in m.phase_breakdown() {
            if let Some(p) = PHASES.iter().position(|&p| p == row.phase) {
                for (acc, v) in phases[p]
                    .iter_mut()
                    .zip([row.moves, row.accesses, row.waits])
                {
                    *acc += v;
                }
            }
        }
    }
    let n = RUNS as f64;
    out.set("elect.run_ms", ms / n);
    out.set("elect.moves", moves as f64 / n);
    out.set("elect.accesses", accesses as f64 / n);
    out.set("elect.waits", waits as f64 / n);
    out.set("elect.steps", steps as f64 / n);
    for (p, phase) in PHASES.iter().enumerate() {
        for (k, what) in ["moves", "accesses", "waits"].iter().enumerate() {
            out.set(
                &format!("elect.phase.{phase}.{what}"),
                phases[p][k] as f64 / n,
            );
        }
    }
    Ok(())
}
