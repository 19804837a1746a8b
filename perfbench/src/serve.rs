//! `serve-mixed`: a `qelectctl serve` child process started with
//! `--store`, driven open loop over at most `nproc` keep-alive
//! connections.
//!
//! Warm requests from the default mix (a distinct seed per request, so
//! nothing coalesces) arrive beside never-seen instances from the
//! `elect-cold` generator; those prepare inside admission and append to
//! the store while warm requests wait. Every request sends
//! `"engine": "sim"`: with the gated engine, whose agents hand off
//! between OS threads, the latencies moved by a third between runs of the
//! same code on a shared 2-core host.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qelect_agentsim::json::{self, get, Value};

use crate::gen::{self, Generator};
use crate::http::Client;
use crate::openloop::{self, Fate};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{Cfg, Outcome, PHASES};

/// Client connections: one per core.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

const SETUP_REPEATS: usize = 5;
/// The bounded tail. The p99 moved by 40 % between runs of the same code
/// on a shared 2-core host (scheduling stalls); the p90 is the highest
/// percentile steady enough to bound.
const TAIL: f64 = 0.9;
/// Warm requests per second and never-seen instances per second.
const MIXED_RATE: f64 = 600.0;
const COLD_PER_S: f64 = 2.0;
const COLD_N_MAX: usize = 160;
/// The never-seen instances are the same for every `--seed` (the warm
/// arrivals and all seeds sent are not): which instances a run drew moved
/// the tail latency by a third from seed to seed.
const COLD_SEED: u64 = 0xC01D;
const WARM_UP: Duration = Duration::from_secs(1);
/// Unsent requests are given up this long after the schedule ends.
const GRACE: Duration = Duration::from_secs(3);

/// A running `qelectctl serve` child.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(qelectctl: &Path, store: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(qelectctl);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", qelectctl.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let line = line.map_err(|e| format!("daemon stdout: {e}"))?;
            if let Some(rest) = line.strip_prefix("qelectd listening on ") {
                addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the daemon never reported its address".into());
        };
        // Keep reading its stdout so the final metrics dump never blocks.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn get_json(&self, path: &str) -> Result<Vec<(String, Value)>, String> {
        let (code, body) = Client::connect(self.addr)?.request("GET", path, "")?;
        if code != 200 {
            return Err(format!("GET {path}: status {code}"));
        }
        match json::parse(&body)? {
            Value::Obj(fields) => Ok(fields),
            _ => Err(format!("GET {path}: not an object")),
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful drain through `POST /shutdown`; killed if it hangs.
    fn stop(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        match (asked, clean) {
            (Ok(_), true) => Ok(()),
            (Err(e), _) => Err(format!("shutdown request: {e}")),
            (Ok(_), false) => Err("the daemon did not drain and exit cleanly".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn num(obj: &[(String, Value)], path: &[&str]) -> f64 {
    let mut fields = obj;
    for (i, key) in path.iter().enumerate() {
        match get(fields, key) {
            Some(Value::Obj(inner)) if i + 1 < path.len() => fields = inner,
            Some(v) if i + 1 == path.len() => return v.as_num().unwrap_or(0.0),
            _ => return 0.0,
        }
    }
    0.0
}

/// Counters from `/metrics`.
struct Counters {
    values: Vec<(String, f64)>,
}

impl Counters {
    fn read(d: &Daemon) -> Result<Counters, String> {
        let m = d.get_json("/metrics")?;
        let mut values: Vec<(String, f64)> = [
            ("completed", &["completed"][..]),
            ("coalesced", &["coalesced"]),
            ("rejected_full", &["rejected_queue_full"]),
            ("rejected_draining", &["rejected_draining"]),
            ("cache.hits", &["cache", "hits"]),
            ("cache.misses", &["cache", "misses"]),
            ("moves", &["totals", "moves"]),
            ("accesses", &["totals", "accesses"]),
            ("waits", &["totals", "waits"]),
            ("store.written_canon", &["store", "written_canon"]),
            ("store.written_specs", &["store", "written_specs"]),
        ]
        .iter()
        .map(|(name, path)| (name.to_string(), num(&m, path)))
        .collect();
        for row in get(&m, "phases").and_then(Value::as_array).unwrap_or(&[]) {
            let Some(fields) = row.as_object() else {
                continue;
            };
            let phase = get(fields, "phase").and_then(Value::as_str).unwrap_or("");
            for what in ["moves", "accesses", "waits"] {
                values.push((format!("phase.{phase}.{what}"), num(fields, &[what])));
            }
        }
        Ok(Counters { values })
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    fn delta(&self, later: &Counters, name: &str) -> f64 {
        later.get(name) - self.get(name)
    }
}

/// A request kind: spec plus oracle verdict.
#[derive(Clone)]
struct Target {
    spec: String,
    gcd: usize,
    cold: bool,
}

fn body(t: &Target, seed: u64) -> String {
    format!(
        "{{\"schema\": \"qelect-request/1\", \"spec\": \"{}\", \"seed\": {seed}, \"engine\": \"sim\"}}",
        t.spec
    )
}

/// The checked fields of one election response.
struct Reply {
    queue_ms: f64,
    run_ms: f64,
    steps: f64,
}

fn check_reply(t: &Target, code: u16, text: &str) -> Result<Reply, String> {
    if code != 200 {
        return Err(format!("{}: status {code}: {}", t.spec, text.trim()));
    }
    let value = json::parse(text)?;
    let obj = value.as_object().ok_or("response is not an object")?;
    let outcome = get(obj, "outcome").and_then(Value::as_str).unwrap_or("");
    let want = if t.gcd == 1 { "elected" } else { "unsolvable" };
    if outcome != want {
        return Err(format!(
            "{}: outcome {outcome:?}, oracle says {want}",
            t.spec
        ));
    }
    if num(obj, &["gcd"]) != t.gcd as f64 {
        return Err(format!(
            "{}: gcd {} but orbit gcd {}",
            t.spec,
            num(obj, &["gcd"]),
            t.gcd
        ));
    }
    if get(obj, "coalesced").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{}: a distinct request was coalesced", t.spec));
    }
    Ok(Reply {
        queue_ms: num(obj, &["queue_us"]) / 1e3,
        run_ms: num(obj, &["run_us"]) / 1e3,
        steps: num(obj, &["steps"]),
    })
}

/// One request of a measured phase, after checking.
struct Done {
    cold: bool,
    traced: bool,
    due: Duration,
    sent: Duration,
    end: Duration,
    reply: Reply,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.end - self.due).as_secs_f64() * 1e3
    }
    fn front_ms(&self) -> f64 {
        (self.end - self.sent).as_secs_f64() * 1e3 - self.reply.queue_ms - self.reply.run_ms
    }
}

/// Phase results: every answered and checked request.
struct Phase {
    done: Vec<Done>,
    span: Duration,
}

impl Phase {
    /// Latencies grouped by due time into consecutive windows, each
    /// sorted; a short last window is merged into the one before.
    fn windows(&self, window: Duration) -> Vec<Vec<f64>> {
        let count = ((self.span.as_secs_f64() / window.as_secs_f64()).floor() as usize).max(1);
        let mut out = vec![Vec::new(); count];
        for d in &self.done {
            let w = ((d.due.as_secs_f64() / window.as_secs_f64()) as usize).min(count - 1);
            out[w].push(d.latency_ms());
        }
        out.into_iter()
            .filter(|w| !w.is_empty())
            .map(stats::sorted)
            .collect()
    }
}

/// Latency percentiles per window of about 1,200 requests (so that a
/// p99 has ten beyond it), then the median over windows, so that a few
/// host stalls move one window rather than the result: `(p50, tail, tail
/// percentile, windows)`.
fn windowed(phase: &Phase, rate: f64) -> (f64, f64, f64, usize) {
    let (mut p50s, mut tails, mut qs) = (Vec::new(), Vec::new(), Vec::new());
    for w in phase.windows(Duration::from_secs_f64(1200.0 / rate)) {
        let q = stats::tail_quantile(w.len(), TAIL);
        p50s.push(stats::median(&w));
        tails.push(stats::percentile(&w, q));
        qs.push(q);
    }
    if p50s.is_empty() {
        return (f64::INFINITY, f64::INFINITY, 0.0, 0);
    }
    let med = |v: Vec<f64>| stats::median(&stats::sorted(v));
    let n = p50s.len();
    (med(p50s), med(tails), med(qs), n)
}

/// Poisson arrivals at `rate` over `span`, each a mix item drawn at random
/// with a fresh seed.
fn warm_plan(
    rng: &mut Rng,
    next_seed: &mut impl FnMut() -> u64,
    mix: &[Target],
    rate: f64,
    span: Duration,
) -> Vec<(Duration, Target, u64)> {
    openloop::poisson(rng, rate, span)
        .into_iter()
        .map(|due| (due, mix[rng.range(0, mix.len() - 1)].clone(), next_seed()))
        .collect()
}

/// Run one schedule and check every reply; failures go to `out`.
fn measure(
    daemon: &Daemon,
    plan: &[(Duration, Target, u64)],
    span: Duration,
    trace: bool,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let wire: Vec<(Duration, String)> = plan
        .iter()
        .map(|(due, t, seed)| (*due, body(t, *seed)))
        .collect();
    let fates = openloop::drive(daemon.addr, connections(), &wire, span + GRACE)?;
    let mut done = Vec::with_capacity(fates.len());
    for (i, ((due, target, _), fate)) in plan.iter().zip(fates).enumerate() {
        out.attempted += 1;
        match fate {
            Fate::Answered(a) => match check_reply(target, a.code, &a.body) {
                Ok(reply) => done.push(Done {
                    cold: target.cold,
                    traced: trace && i % 2 == 0,
                    due: *due,
                    sent: a.sent,
                    end: a.done,
                    reply,
                }),
                Err(e) => out.fail(e),
            },
            Fate::Error(e) => out.fail(format!("{}: {e}", target.spec)),
            Fate::Unanswered => out.fail(format!("{}: due but unanswered", target.spec)),
        }
    }
    Ok(Phase { done, span })
}

fn mix_targets() -> Result<Vec<Target>, String> {
    qelect_bench::load::default_mix()
        .into_iter()
        .map(|spec| {
            let (_, gcd) = gen::oracle(&spec).ok_or(format!("mix item {spec} does not build"))?;
            Ok(Target {
                spec,
                gcd,
                cold: false,
            })
        })
        .collect()
}

/// Set-up: start the daemon on a fresh store, warm its cache with one
/// pass over the mix, and draw the never-seen instances.
fn set_up(cfg: &Cfg, store: &Path, mix: &[Target]) -> Result<(Daemon, Vec<Target>), String> {
    let daemon = Daemon::start(&cfg.qelectctl, store)?;
    let mut client = Client::connect(daemon.addr)?;
    for (i, t) in mix.iter().enumerate() {
        let (code, text) = client.request("POST", "/v1/elect", &body(t, 1_000_000 + i as u64))?;
        check_reply(t, code, &text)?;
    }
    let strata = ((cfg.seconds.as_secs_f64() * COLD_PER_S / gen::FAMILIES.len() as f64).round()
        as usize)
        .max(1);
    let mut g = Generator::new(COLD_SEED, COLD_N_MAX, strata);
    for t in mix {
        g.exclude(&t.spec);
    }
    let cold = g
        .round()
        .into_iter()
        .map(|inst| Target {
            spec: inst.spec,
            gcd: inst.gcd,
            cold: true,
        })
        .collect();
    Ok((daemon, cold))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mix = mix_targets()?;
    let dir = cfg.out.join(format!("store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store = |k: usize| dir.join(format!("store-{k}.bin"));
    let mut setup = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (daemon, cold) = set_up(cfg, &store(k), &mix)?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some((earlier, _)) = kept.replace((daemon, cold)) {
            Daemon::stop(earlier)?;
        }
    }
    let (daemon, cold) = kept.expect("at least one set-up");
    out.set("setup_s", stats::median(&stats::sorted(setup)));
    let store_path = store(SETUP_REPEATS - 1);
    let file_len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());

    let mut rng = Rng::new(cfg.seed);
    let mut seed = 0u64;
    let mut next_seed = move || {
        seed += 1;
        seed
    };
    // One untimed second of warm requests first, so the host's clocks and
    // the daemon's threads are up to speed when measuring starts.
    let warm_up = warm_plan(&mut rng, &mut next_seed, mix.as_slice(), 1000.0, WARM_UP);
    measure(&daemon, &warm_up, WARM_UP, false, &mut out)?;
    let before = Counters::read(&daemon)?;
    let bytes_before = file_len(&store_path);
    let span = cfg.seconds;
    let mut plan = warm_plan(&mut rng, &mut next_seed, &mix, MIXED_RATE, span);
    let gap = span.as_secs_f64() / cold.len() as f64;
    for (i, t) in cold.iter().enumerate() {
        let due = Duration::from_secs_f64(gap * (i as f64 + 0.25 + 0.5 * rng.f64()));
        plan.push((due, t.clone(), next_seed()));
    }
    plan.sort_by_key(|(due, _, _)| *due);
    let base = measure(&daemon, &plan, span, cfg.trace, &mut out)?;
    let after = Counters::read(&daemon)?;
    let bytes = file_len(&store_path) - bytes_before;

    let (p50, tail, q, windows) = windowed(&base, MIXED_RATE);
    if windows > 0 {
        out.set("op_p50_ms", p50);
        out.set("op_tail_ms", tail);
        out.notes.push(format!(
            "{} requests in {windows} windows, tail = p{}",
            base.done.len(),
            100.0 * q
        ));
    }
    out.set(
        "throughput_per_s",
        base.done.len() as f64 / base.span.as_secs_f64(),
    );
    let last = Counters::read(&daemon)?;
    let peak = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    out.set("peak_rss_mb", peak);
    for name in ["rejected_full", "rejected_draining", "coalesced"] {
        if before.delta(&last, name) != 0.0 {
            out.errors.push(format!(
                "/metrics reports {} {name}",
                before.delta(&last, name)
            ));
        }
    }
    daemon.stop()?;
    let _ = std::fs::remove_dir_all(&dir);
    if cfg.trace {
        layer_metrics(&mut out, &base, &before, &after, bytes as f64);
    }
    Ok(out)
}

fn layer_metrics(out: &mut Outcome, base: &Phase, before: &Counters, after: &Counters, bytes: f64) {
    let mut tracer = Tracer::new(Instant::now());
    let ms = |d: Duration| d.as_nanos() as u64;
    for (i, d) in base.done.iter().enumerate().filter(|(_, d)| d.traced) {
        // Client-side spans; the queue and run children come from the
        // response's queue_us and run_us, placed at the end of the request
        // (their durations are measured, their positions are not).
        let op = i as u64;
        let root = tracer.push("serve.due", op, None, ms(d.due), ms(d.end));
        let req = tracer.push("serve.request", op, Some(root), ms(d.sent), ms(d.end));
        let run_ns = (d.reply.run_ms * 1e6) as u64;
        let queue_ns = (d.reply.queue_ms * 1e6) as u64;
        let end = ms(d.end);
        tracer.push("serve.run", op, Some(req), end.saturating_sub(run_ns), end);
        tracer.push(
            "serve.queue",
            op,
            Some(req),
            end.saturating_sub(run_ns + queue_ns),
            end.saturating_sub(run_ns),
        );
    }
    let traced: Vec<&Done> = base.done.iter().filter(|d| d.traced).collect();
    let pick = |f: &dyn Fn(&Done) -> bool| -> Vec<&Done> {
        traced.iter().copied().filter(|d| f(d)).collect()
    };
    type Layer = (&'static str, fn(&Done) -> f64);
    let layers: [Layer; 3] = [
        ("front_ms", Done::front_ms),
        ("queue_ms", |d| d.reply.queue_ms),
        ("run_ms", |d| d.reply.run_ms),
    ];
    let all = pick(&|_| true);
    let warm = pick(&|d| !d.cold);
    let cold = pick(&|d| d.cold);
    for (layer, f) in layers {
        for (scope, set) in [("serve", &all), ("serve.warm", &warm)] {
            let v = stats::sorted(set.iter().map(|d| f(d)).collect());
            if !v.is_empty() {
                out.set(&format!("{scope}.{layer}.p50"), stats::median(&v));
                out.set(&format!("{scope}.{layer}.p99"), stats::percentile(&v, 0.99));
            }
        }
        let v = stats::sorted(cold.iter().map(|d| f(d)).collect());
        if !v.is_empty() {
            out.set(&format!("serve.cold.{layer}.p50"), stats::median(&v));
        }
    }
    let cold_all = stats::sorted(
        base.done
            .iter()
            .filter(|d| d.cold)
            .map(Done::latency_ms)
            .collect(),
    );
    if !cold_all.is_empty() {
        out.set("cold_p50_ms", stats::median(&cold_all));
    }
    let n = traced.len().max(1) as f64;
    out.set(
        "elect.run_ms",
        traced.iter().map(|d| d.reply.run_ms).sum::<f64>() / n,
    );
    out.set(
        "elect.steps",
        traced.iter().map(|d| d.reply.steps).sum::<f64>() / n,
    );
    let completed = before.delta(after, "completed").max(1.0);
    for (metric, counter) in [
        ("elect.moves", "moves"),
        ("elect.accesses", "accesses"),
        ("elect.waits", "waits"),
    ] {
        out.set(metric, before.delta(after, counter) / completed);
    }
    for phase in PHASES {
        for what in ["moves", "accesses", "waits"] {
            let name = format!("phase.{phase}.{what}");
            out.set(
                &format!("elect.{name}"),
                before.delta(after, &name) / completed,
            );
        }
    }
    for name in [
        "cache.hits",
        "cache.misses",
        "store.written_canon",
        "store.written_specs",
    ] {
        out.set(name, before.delta(after, name));
    }
    out.set("serve.coalesced", before.delta(after, "coalesced"));
    out.set(
        "serve.rejected",
        before.delta(after, "rejected_full") + before.delta(after, "rejected_draining"),
    );
    out.set("store.bytes", bytes);
    let late = stats::sorted(
        base.done
            .iter()
            .map(|d| (d.sent - d.due).as_secs_f64() * 1e3)
            .collect(),
    );
    if !late.is_empty() {
        out.set("gen.late_p99_ms", stats::percentile(&late, 0.99));
    }
    out.set(
        "gen.achieved_rps",
        base.done.len() as f64 / base.span.as_secs_f64(),
    );
    let mean_of = |traced: bool| {
        stats::mean(
            &base
                .done
                .iter()
                .filter(|d| d.traced == traced)
                .map(Done::latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    if mean_of(false) > 0.0 {
        out.set("trace.overhead_frac", mean_of(true) / mean_of(false) - 1.0);
    }
    let total: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "serve.due")
        .map(|s| s.dur_ns() as f64)
        .sum();
    let by = tracer.self_by_name();
    out.notes.push(format!(
        "traced {} requests: self time {}",
        traced.len(),
        by.iter()
            .map(|(k, v)| format!("{k} {:.1} %", 100.0 * *v as f64 / total.max(1.0)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.spans = Some(tracer);
}
