//! `elect-cold`: library elections on never-seen instances, closed loop,
//! one thread, sim engine.
//!
//! Each election runs the daemon's prepare path from outside: spec build
//! (`InstanceSpec::parse` + `bicolored`), `cache::canonicalize_cached`
//! (always a miss: the generator never repeats an instance up to
//! isomorphism), `PreparedElection::new` (COMPUTE & ORDER plus the
//! solvability verdict), then `PreparedElection::run`. Canonicalization
//! and COMPUTE & ORDER dominate, so this is the workload on which work in
//! the `graph` layer shows.

use std::time::Instant;

use qelect::service::PreparedElection;
use qelect_agentsim::{ElectionRun, Engine, RunConfig, RunError};
use qelect_bench::spec::InstanceSpec;
use qelect_graph::cache;
use qelect_graph::ColoredDigraph;

use crate::gen::{Generator, Instance};
use crate::stats::{self, HostSpeed, Rng};
use crate::trace::Tracer;
use crate::{Cfg, Outcome, PHASES};

/// Largest generated instance.
const N_MAX: usize = 320;
/// Size strata per family: a round is 7 families x 4 strata.
const STRATA: usize = 4;
/// Rounds in the pool, all drawn during set-up: 112 instances, so the
/// p90 over them has more than ten beyond it.
const POOL_ROUNDS: usize = 4;
/// Every run elects the whole pool at least this often.
const MIN_PASSES: usize = 3;
/// A set-up is timed again after every this many elections: four times
/// a pass.
const SETUP_EVERY: usize = 28;
/// The pool is the same for every `--seed`, which picks the order of
/// each pass and the run seeds. Which instances a run drew moved its
/// median and rate by a fifth from seed to seed, more than any bound a
/// regression check could use.
const STREAM_SEED: u64 = 0x5EED;

/// Per-election measurements.
struct Sample {
    total: f64,
    moves: u64,
    accesses: u64,
    waits: u64,
    steps: u64,
    phases: Vec<(String, [u64; 3])>,
}

/// One election through the prepare path; `Err` on any disagreement
/// with the oracle.
fn elect(
    inst: &Instance,
    seed: u64,
    op: u64,
    tracer: Option<&mut Tracer>,
) -> Result<Sample, String> {
    let begin = Instant::now();
    let canon_before = cache::global().canon.stats();
    let t0 = Instant::now();
    let spec = InstanceSpec::parse(&inst.spec).map_err(|e| e.to_string())?;
    let bc = spec.bicolored().map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let d = ColoredDigraph::from_bicolored(&bc);
    std::hint::black_box(cache::canonicalize_cached(&d));
    let t2 = Instant::now();
    let prep = PreparedElection::new(bc);
    let t3 = Instant::now();
    let run = prep.run(&RunConfig::new(seed).engine(Engine::Sim));
    let t4 = Instant::now();
    let checked = check(inst, &prep, run, canon_before);
    if let Some(tr) = tracer {
        // The root also spans the benchmark's own cache-counter reads and
        // checks, so its self time is what the layers leave unattributed.
        let root = tr.record("elect", op, None, begin, Instant::now());
        tr.record("spec.build", op, Some(root), t0, t1);
        tr.record("canon", op, Some(root), t1, t2);
        tr.record("service.prepare", op, Some(root), t2, t3);
        tr.record("elect.run", op, Some(root), t3, t4);
    }
    let run = checked?;
    let m = &run.report.metrics;
    Ok(Sample {
        total: (t4 - t0).as_secs_f64() * 1e3,
        moves: m.total_moves(),
        accesses: m.total_accesses(),
        waits: m.total_waits(),
        steps: m.steps,
        phases: m
            .phase_breakdown()
            .into_iter()
            .map(|p| (p.phase, [p.moves, p.accesses, p.waits]))
            .collect(),
    })
}

fn check(
    inst: &Instance,
    prep: &PreparedElection,
    run: Result<ElectionRun, RunError>,
    canon_before: cache::CacheStats,
) -> Result<ElectionRun, String> {
    let run = run.map_err(|e| format!("{}: run failed: {e}", inst.spec))?;
    let misses = canon_before.delta(&cache::global().canon.stats()).misses;
    if misses == 0 {
        return Err(format!("{}: canonicalization hit the cache", inst.spec));
    }
    if prep.gcd() != inst.gcd {
        return Err(format!(
            "{}: class gcd {} but orbit gcd {}",
            inst.spec,
            prep.gcd(),
            inst.gcd
        ));
    }
    let agrees = if inst.solvable() {
        run.clean_election()
    } else {
        run.unanimous_unsolvable()
    };
    if !agrees {
        return Err(format!(
            "{}: outcome {:?} disagrees with the oracle (gcd {})",
            inst.spec, run.report.outcomes, inst.gcd
        ));
    }
    Ok(run)
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: draw the pool. It is drawn again throughout the run, so
    // that `setup_s` is a median over the whole run rather than over one
    // moment of the host, and every draw must give the same instances.
    let mut host = HostSpeed::new();
    let draw = || {
        let t = Instant::now();
        let mut g = Generator::new(STREAM_SEED, N_MAX, STRATA);
        let drawn: Vec<Instance> = (0..POOL_ROUNDS).flat_map(|_| g.round()).collect();
        (t.elapsed().as_secs_f64(), drawn)
    };
    let (took, pool) = draw();
    let mut setup = vec![took];
    let specs: Vec<&str> = pool.iter().map(|i| i.spec.as_str()).collect();
    let redraw = |setup: &mut Vec<f64>, out: &mut Outcome| {
        let (took, again) = draw();
        setup.push(took);
        if again
            .iter()
            .map(|i| i.spec.as_str())
            .ne(specs.iter().copied())
        {
            out.errors.push("the generator is not deterministic".into());
        }
    };

    // Each instance keeps its run seed for the whole run, so every pass
    // does the same work on it; `--seed` picks the seeds and the order
    // of each pass.
    let mut rng = Rng::new(cfg.seed ^ 0xE1EC7);
    let seeds: Vec<u64> = pool.iter().map(|_| rng.next_u64()).collect();
    let unsolvable = pool.iter().filter(|i| !i.solvable()).count();
    let mut tracer = Tracer::new(Instant::now());
    let cache_before = cache::global().stats();
    let mut traced: Vec<Sample> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut best = vec![f64::INFINITY; pool.len()];
    let mut elections = 0usize;
    let mut busy_ms = 0.0;
    let started = Instant::now();
    let mut passes = 0;
    let mut peak = None;
    let mut op = 0u64;
    let mut order: Vec<usize> = (0..pool.len()).collect();
    while passes < MIN_PASSES || started.elapsed() < cfg.seconds {
        rng.shuffle(&mut order);
        for (i, &k) in order.iter().enumerate() {
            if i > 0 && i % SETUP_EVERY == 0 {
                redraw(&mut setup, &mut out);
            }
            let inst = &pool[k];
            // A traced run elects every instance twice, traced and
            // untraced in alternating order with the memo dropped in
            // between, so the pairs give the tracing overhead on
            // identical work.
            let twice: &[bool] = match (cfg.trace, op % 2) {
                (false, _) => &[false],
                (true, 0) => &[true, false],
                (true, _) => &[false, true],
            };
            host.tick();
            for &traced_pass in twice {
                op += 1;
                out.attempted += 1;
                if cfg.trace {
                    cache::global().clear();
                }
                match elect(inst, seeds[k], op, traced_pass.then_some(&mut tracer)) {
                    Ok(s) => {
                        elections += 1;
                        busy_ms += s.total;
                        best[k] = best[k].min(s.total);
                        if traced_pass {
                            traced.push(s);
                        } else {
                            untraced_ms.push(s.total);
                        }
                    }
                    Err(e) => out.fail(e),
                }
            }
        }
        passes += 1;
        // The pool's instances are pairwise non-isomorphic, so dropping
        // the memo before the next pass makes every election miss again.
        cache::global().clear();
        redraw(&mut setup, &mut out);
        if passes == MIN_PASSES {
            // Peak memory over the passes every run makes, so that it
            // does not depend on how many passes fit into the run.
            peak = crate::peak_rss_mb("self");
        }
    }
    let cache_delta = cache_before.delta(&cache::global().stats());
    let peak = peak.ok_or("cannot read VmHWM")?;

    // Each instance's best time over the passes: the host slows down in
    // stretches of seconds, and the fastest of several identical
    // elections is the one it disturbed least.
    let lat = stats::sorted(best.iter().copied().filter(|t| t.is_finite()).collect());
    let q = stats::tail_quantile(lat.len(), 0.9);
    out.set("peak_rss_mb", peak);
    let mut raw = vec![("setup_s", stats::median(&stats::sorted(setup)))];
    if !lat.is_empty() {
        raw.push(("op_p50_ms", stats::median(&lat)));
        raw.push(("op_tail_ms", stats::percentile(&lat, q)));
        raw.push((
            "throughput_per_s",
            lat.len() as f64 * 1e3 / lat.iter().sum::<f64>(),
        ));
    }
    out.set_scaled(&raw, &host);
    out.notes.push(format!(
        "{elections} elections in {passes} passes over {} instances ({unsolvable} with gcd > 1), \
         tail = p{}, {:.1} s busy of {:.1} s",
        pool.len(),
        q * 100.0,
        busy_ms / 1e3,
        started.elapsed().as_secs_f64()
    ));
    if cfg.trace {
        layer_metrics(&mut out, &tracer, &traced, &untraced_ms, cache_delta);
        out.spans = Some(tracer);
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    traced: &[Sample],
    untraced_ms: &[f64],
    cache_delta: cache::CacheStats,
) {
    let n = traced.len().max(1) as f64;
    let selfs = tracer.self_times();
    let mut by_name: std::collections::BTreeMap<&str, f64> = Default::default();
    let mut worst_gap: f64 = 0.0;
    for (span, own) in tracer.spans.iter().zip(&selfs) {
        *by_name.entry(span.name).or_default() += *own as f64;
        if span.name == "elect" {
            worst_gap = worst_gap.max(*own as f64 / span.dur_ns().max(1) as f64);
        }
    }
    let total_ns: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "elect")
        .map(|s| s.dur_ns() as f64)
        .sum();
    let per = |name: &str, unit_ns: f64| by_name.get(name).copied().unwrap_or(0.0) / n / unit_ns;
    out.set("spec.build_us", per("spec.build", 1e3));
    out.set("canon.ms", per("canon", 1e6));
    out.set("service.prepare_ms", per("service.prepare", 1e6));
    out.set("elect.run_ms", per("elect.run", 1e6));
    out.set("cache.hits", cache_delta.hits as f64);
    out.set("cache.misses", cache_delta.misses as f64);
    out.set(
        "elect.prepare_share",
        by_name.get("service.prepare").copied().unwrap_or(0.0) / total_ns.max(1.0),
    );
    out.set(
        "trace.unattributed_frac",
        by_name.get("elect").copied().unwrap_or(0.0) / total_ns.max(1.0),
    );
    let mean = |f: &dyn Fn(&Sample) -> u64| traced.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    out.set("elect.moves", mean(&|s| s.moves));
    out.set("elect.accesses", mean(&|s| s.accesses));
    out.set("elect.waits", mean(&|s| s.waits));
    out.set("elect.steps", mean(&|s| s.steps));
    for phase in PHASES {
        for (k, what) in ["moves", "accesses", "waits"].iter().enumerate() {
            let total: u64 = traced
                .iter()
                .flat_map(|s| s.phases.iter())
                .filter(|(p, _)| p == phase)
                .map(|(_, v)| v[k])
                .sum();
            out.set(&format!("elect.phase.{phase}.{what}"), total as f64 / n);
        }
    }
    let traced_mean = stats::mean(&traced.iter().map(|s| s.total).collect::<Vec<_>>());
    let untraced_mean = stats::mean(untraced_ms);
    if untraced_mean > 0.0 {
        out.set("trace.overhead_frac", traced_mean / untraced_mean - 1.0);
    }
    // Layer self times must account for each election's span: what the
    // four layers leave unattributed is the benchmark's own bookkeeping.
    const TOLERANCE: f64 = 0.02;
    if worst_gap > TOLERANCE {
        out.errors.push(format!(
            "an election's layer self times cover only {:.1} % of its span (tolerance {} %)",
            (1.0 - worst_gap) * 100.0,
            TOLERANCE * 100.0
        ));
    }
    out.notes.push(format!(
        "traced {} elections: prepare is {:.1} % of election time, worst unattributed share {:.3} %",
        traced.len(),
        100.0 * by_name.get("service.prepare").copied().unwrap_or(0.0) / total_ns.max(1.0),
        worst_gap * 100.0
    ));
}
