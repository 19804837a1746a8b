//! `qelectctl` — run any protocol on any instance from the command line.
//!
//! Protocol names (first positional of `run`, `--target`, `--protocols`)
//! resolve through the registry in `qelect::registry` — `qelectctl run
//! --help` names are the wire names the daemon serves.
//!
//! ```sh
//! cargo run -p qelect-bench --bin qelectctl -- elect cycle:9 --agents 0,1,3
//! cargo run -p qelect-bench --bin qelectctl -- cayley hypercube:3 --agents 0,7
//! cargo run -p qelect-bench --bin qelectctl -- dp-anon cycle:12 --agents 0,3,6
//! cargo run -p qelect-bench --bin qelectctl -- elect petersen --agents 0,1 --dot
//! cargo run -p qelect-bench --bin qelectctl -- explore cycle:9 --agents 0,1,2,3,4
//! cargo run -p qelect-bench --bin qelectctl -- explore cycle:6 --agents 0,3 \
//!     --target anon --emit-trace tests/traces/c6_two_leaders.json
//! cargo run -p qelect-bench --release --bin qelectctl -- explore cycle:14 --agents 0,7 \
//!     --target anon --engine sim --swarm 1000000 --workers 0 --json BENCH_explore.json
//! cargo run -p qelect-bench --release --bin qelectctl -- sweep --trials 100 --workers 8
//! cargo run -p qelect-bench --release --bin qelectctl -- audit cycle:12@0,1,3 petersen@0,1 \
//!     --json out.json
//! cargo run -p qelect-bench --release --bin qelectctl -- zoo --json BENCH_zoo.json
//! ```

use qelect::prelude::*;
use qelect_bench::cli::{
    parse_command, AuditInvocation, BenchGateInvocation, CanonBenchInvocation, Command,
    ExploreInvocation, FaultsInvocation, Invocation, LoadInvocation, ServeInvocation,
    SimBenchInvocation, SweepInvocation, ZooInvocation,
};
use qelect_bench::report;
use qelect_graph::Bicolored;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_command(&args) {
        Ok(Command::Run(inv)) => run(inv),
        Ok(Command::Explore(inv)) => explore(inv),
        Ok(Command::Sweep(inv)) => sweep(inv),
        Ok(Command::Audit(inv)) => audit(inv),
        Ok(Command::Faults(inv)) => faults(inv),
        Ok(Command::Serve(inv)) => serve(inv),
        Ok(Command::Load(inv)) => load(inv),
        Ok(Command::Simbench(inv)) => simbench(inv),
        Ok(Command::Canonbench(inv)) => canonbench(inv),
        Ok(Command::Benchgate(inv)) => benchgate(inv),
        Ok(Command::Zoo(inv)) => zoo(inv),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn serve(inv: ServeInvocation) {
    let handle = match qelect_bench::serve::start(inv.config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", inv.config.addr);
            std::process::exit(2);
        }
    };
    println!(
        "qelectd listening on {} ({} shards x {} workers, {} io threads, queue {})",
        handle.addr(),
        inv.config.shards,
        inv.config.workers,
        inv.config.io_threads,
        inv.config.queue_cap,
    );
    if let Some(store) = &inv.config.store {
        let (canon, specs) = handle.replay_counts();
        println!("store {store}: replayed {canon} canonical forms, {specs} instance specs");
    }
    match inv.duration_secs {
        Some(secs) => {
            println!("serving for {secs}s, then draining");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
        None => {
            println!("POST /shutdown to drain and exit");
            while !handle.draining() {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        }
    }
    let final_metrics = handle.shutdown();
    print!("{final_metrics}");
}

fn load(inv: LoadInvocation) {
    println!(
        "# qelectd load — {} clients × {}s per phase, engine {}{}{}{}\n",
        inv.config.clients,
        inv.config.duration_secs,
        inv.config.engine,
        match inv.config.batch {
            0 => String::new(),
            n => format!(", batch {n}"),
        },
        match inv.config.serve.shards {
            1 => String::new(),
            n => format!(", {n} shards"),
        },
        match &inv.config.addr {
            Some(addr) => format!(" against {addr}"),
            None => " (in-process server)".to_string(),
        },
    );
    let (mut report, final_metrics) = match qelect_bench::load::run(&inv.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    for phase in [&report.cold, &report.warm] {
        println!(
            "{:<5} {:>7.1} req/s  p50 {:>6}us  p99 {:>6}us  ok {}  disagree {}  \
             errors {}  retried {}",
            phase.name,
            phase.throughput_rps,
            phase.p50_us,
            phase.p99_us,
            phase.ok,
            phase.disagreements,
            phase.errors,
            phase.retried,
        );
    }
    println!(
        "warm speedup {:.2}x; drain: {} admitted, {} refused, {} dropped of {}",
        report.warm_speedup,
        report.drain.admitted,
        report.drain.refused,
        report.drain.dropped,
        report.drain.burst,
    );
    if let Some(r) = &report.recovery {
        println!(
            "recovery: replayed {} canon + {} specs, {} warm hits, {}/{} oracle-agreed — {}",
            r.replayed_canon,
            r.replayed_specs,
            r.warm_hits,
            r.agreed,
            r.requests,
            if r.passed() { "warm" } else { "COLD" },
        );
    }
    if inv.config.chaos > 0 {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: cannot locate qelectctl for chaos rounds: {e}");
                std::process::exit(2);
            }
        };
        println!(
            "chaos: {} SIGKILL rounds against {}…",
            inv.config.chaos,
            inv.config.serve.store.as_deref().unwrap_or("?"),
        );
        match qelect_bench::load::chaos_run(&inv.config, &exe) {
            Ok(chaos) => {
                println!(
                    "chaos: {} completed ok, {} disagreements, {} interrupted by kills; \
                     final restart replayed {} canon + {} specs, {}/{} oracle-agreed",
                    chaos.completed_ok,
                    chaos.disagreements,
                    chaos.interrupted,
                    chaos.final_replayed_canon,
                    chaos.final_replayed_specs,
                    chaos.final_ok,
                    chaos.final_requests,
                );
                report.chaos = Some(chaos);
            }
            Err(e) => {
                eprintln!("error: chaos run failed: {e}");
                std::process::exit(2);
            }
        }
    }
    write_file(&inv.json, &report.to_json());
    println!("qelect-load/1 report written to {}", inv.json);
    if final_metrics.is_some() {
        println!("(in-process daemon drained cleanly)");
    }
    if !report.passed() {
        eprintln!("FAIL: oracle disagreement, transport errors, or dropped responses");
        std::process::exit(1);
    }
    println!("PASS: 100% oracle agreement, zero dropped in-flight responses");
}

fn simbench(inv: SimBenchInvocation) {
    println!(
        "# Engine throughput — {} instances × {} seeds × {} repeats, {} passes, gated vs sim\n",
        inv.config.instances.len(),
        inv.config.seeds.len(),
        inv.config.repeats,
        qelect_bench::simbench::PASSES,
    );
    let report = qelect_bench::simbench::run_simbench(&inv.config);
    print!("{}", report.render());
    write_file(&inv.json, &report.to_json());
    println!("qelect-simbench/1 report written to {}", inv.json);
    if !report.passed() {
        eprintln!("FAIL: gated/sim divergence or oracle disagreement");
        std::process::exit(1);
    }
    println!("PASS: both engines agree with the oracle and with each other");
}

fn canonbench(inv: CanonBenchInvocation) {
    println!(
        "# Canonicalization — {} kernel instances, oracle vs worklist/pruned; \
         ELECT end to end at {} sizes; {} repeats\n",
        inv.config.instances.len(),
        inv.config.elect_sizes.len(),
        inv.config.repeats,
    );
    let report = qelect_bench::canonbench::run_canonbench(&inv.config);
    print!("{}", report.render());
    write_file(&inv.json, &report.to_json());
    println!(
        "{} report written to {}",
        qelect_bench::canonbench::CANONBENCH_SCHEMA,
        inv.json
    );
    if !report.passed() {
        eprintln!(
            "FAIL: kernel divergence from the IR oracle, largest-rung cold speedup below {}x, \
             or an ELECT run disagreeing with the gcd oracle",
            qelect_bench::canonbench::REQUIRED_LARGEST_SPEEDUP,
        );
        std::process::exit(1);
    }
    println!("PASS: byte-identical to the IR oracle, speedup gate met, every election agrees");
}

fn benchgate(inv: BenchGateInvocation) {
    println!(
        "# Committed-benchmark gate — dir {}, tolerance {:.0}%{}\n",
        inv.config.dir,
        inv.config.tolerance * 100.0,
        match inv.config.min_warm_rps {
            Some(rps) => format!(", warm floor {rps:.0} rps"),
            None => format!(
                ", warm floor {:.0} rps ({}x the PR 5 baseline)",
                qelect_bench::benchgate::PR5_WARM_RPS
                    * qelect_bench::benchgate::REQUIRED_WARM_SPEEDUP,
                qelect_bench::benchgate::REQUIRED_WARM_SPEEDUP,
            ),
        },
    );
    let report = match qelect_bench::benchgate::run(&inv.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", report.render());
    if !report.passed() {
        std::process::exit(1);
    }
}

fn write_file(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn audit(inv: AuditInvocation) {
    let engines: Vec<&str> = inv.config.engines.iter().map(|e| e.name()).collect();
    println!(
        "# Phase-resolved audit — protocol {}, {} instances × {} seeds × [{}]\n",
        inv.config.protocol,
        inv.config.instances.len(),
        inv.config.seeds.len(),
        engines.join(", "),
    );
    let audit = match report::run_audit(&inv.config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", audit.render());
    let json_text = audit.to_json();
    if let Some(path) = &inv.json {
        write_file(path, &json_text);
        println!("\nJSON report written to {path}");
    }
    if inv.write_baseline {
        write_file(&inv.baseline, &json_text);
        println!("baseline written to {}", inv.baseline);
        return;
    }
    // The committed default baseline holds ELECT's fitted constants —
    // comparing another protocol against it would gate apples on
    // oranges. Skip unless the user points at a protocol-specific
    // baseline explicitly.
    if audit.protocol != qelect::registry::default_entry().id.name()
        && inv.baseline == "BENCH_audit.json"
    {
        println!(
            "\nbaseline check: skipped (no committed baseline for protocol '{}'; \
             pass --baseline or --write-baseline)",
            audit.protocol
        );
        return;
    }
    let baseline_text = match std::fs::read_to_string(&inv.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: cannot read baseline {}: {e} (run with --write-baseline to create it)",
                inv.baseline
            );
            std::process::exit(2);
        }
    };
    match report::check_against_baseline(&audit, &baseline_text, inv.tolerance) {
        Ok(regressions) if regressions.is_empty() => {
            println!(
                "\nbaseline check: OK (tolerance {:.0}%)",
                inv.tolerance * 100.0
            );
        }
        Ok(regressions) => {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn faults(inv: FaultsInvocation) {
    let engines: Vec<&str> = inv.config.engines.iter().map(|e| e.name()).collect();
    println!(
        "# Fault-injection crash sweep — {} instances × {} seeds × {} plans \
         ({} crashes + {} delays each) × [{}]\n",
        inv.config.instances.len(),
        inv.config.seeds.len(),
        inv.config.plans,
        inv.config.crashes,
        inv.config.delays,
        engines.join(", "),
    );
    let report = match qelect_bench::faults::run_faults(&inv.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", report.render());
    if let Some(path) = &inv.json {
        write_file(path, &report.to_json());
        println!("JSON report written to {path}");
    }
    let mut failed = false;
    if !report.all_agree() {
        eprintln!("error: a faulted run disagreed with the gcd oracle");
        failed = true;
    }
    if !report.all_replays_identical() {
        eprintln!("error: a replay did not reproduce its run exactly");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("oracle agreement and replay determinism: OK");
}

fn sweep(inv: SweepInvocation) {
    println!(
        "# Parallel random-instance sweep — ELECT vs gcd oracle \
         ({} trials/bucket × {} buckets, {} repeats, {} workers, cache {})\n",
        inv.config.trials,
        inv.config.buckets.len(),
        inv.config.repeats,
        inv.config.workers,
        if inv.no_cache { "off" } else { "on" },
    );
    qelect_graph::cache::global().set_enabled(!inv.no_cache);
    let report = qelect_bench::sweep::run_sweep(&inv.config);
    qelect_graph::cache::global().set_enabled(true);
    print!("{}", report.render());
    if let Some(path) = &inv.json {
        write_file(path, &qelect_bench::report::sweep_to_json(&report));
        println!("JSON report written to {path}");
    }
    if !report.all_agree() {
        eprintln!("error: ELECT disagreed with the gcd oracle on some trial");
        std::process::exit(1);
    }
}

fn run(inv: Invocation) {
    let entry = qelect::registry::get(inv.protocol);
    let bc = match Bicolored::new(inv.graph.clone(), &inv.agents) {
        Ok(bc) => bc,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "protocol {}: {} (n = {}, |E| = {}), agents at {:?}, seed {}, policy {:?}, engine {}",
        entry.id,
        inv.family_spec,
        bc.n(),
        bc.graph().m(),
        bc.homebases(),
        inv.seed,
        inv.policy,
        inv.engine.name(),
    );
    if inv.dot {
        println!("{}", qelect_graph::dot::classes_to_dot(&bc));
        return;
    }
    if entry.id.name() == "quantitative" {
        println!("labels: {:?}", qelect::registry::quantitative_ids(bc.r()));
    }
    let cfg = RunConfig::new(inv.seed)
        .policy(inv.policy)
        .engine(inv.engine);
    let report = match entry.run(&bc, &cfg) {
        Ok(election) => election.report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    for (i, outcome) in report.outcomes.iter().enumerate() {
        println!("agent {i} ({}): {outcome:?}", report.colors[i]);
    }
    match report.leader {
        Some(i) => println!("leader: agent {i}"),
        None => println!("no unique leader"),
    }
    if let Some(int) = &report.interrupted {
        println!("interrupted: {int}");
    }
    println!(
        "cost: {} moves, {} whiteboard accesses, {} scheduler steps",
        report.metrics.total_moves(),
        report.metrics.total_accesses(),
        report.metrics.steps
    );
    println!(
        "oracle: class gcd = {}, {}",
        qelect::solvability::gcd_of_class_sizes(&bc),
        match (entry.oracle)(&bc) {
            Some(true) => format!("'{}' should elect on this instance", entry.id),
            Some(false) => format!("'{}' cannot elect on this instance", entry.id),
            None => format!("no verdict for '{}' on this instance", entry.id),
        },
    );
}

fn save_trace(trace: &Trace, path: &str) {
    if let Err(e) = trace.save(std::path::Path::new(path)) {
        eprintln!("error: cannot write trace to {path}: {e}");
        std::process::exit(2);
    }
    println!("trace written to {path} ({} ticks)", trace.schedule.len());
}

/// Registry-native schedule exploration: resolve the `--target` entry,
/// open an [`ExploreSession`] from its [`ExploreSpec`], run the bounded
/// DFS plus the coverage-guided swarm, then package any counterexample
/// (ddmin-shrink → strict re-record) and emit the requested artifacts.
///
/// Exit codes: 1 when a protocol that must never violate did; 2 on
/// configuration errors (unexplorable target, bad instance, an
/// unsatisfiable `--emit-*` request).
///
/// [`ExploreSpec`]: qelect_agentsim::ExploreSpec
fn explore(inv: ExploreInvocation) {
    let entry = qelect::registry::get(inv.target);
    let bc = match Bicolored::new(inv.graph.clone(), &inv.agents) {
        Ok(bc) => bc,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "explore {}: {} (n = {}, |E| = {}), agents at {:?}, seed {}, engine {}",
        entry.id,
        inv.family_spec,
        bc.n(),
        bc.graph().m(),
        bc.homebases(),
        inv.seed,
        inv.engine.name(),
    );
    let run_cfg = RunConfig::new(inv.seed)
        .engine(inv.engine)
        .record_trace(true);
    let session = match ExploreSession::from_entry(entry, &bc, &run_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec = entry.explore.expect("the session just resolved this spec");
    println!("property: {}", spec.property_line);
    println!(
        "bound: {} preemptions, budget {} DFS schedules (+{} swarm), {} workers",
        inv.preemption_bound, inv.max_schedules, inv.swarm_runs, inv.workers
    );
    let ecfg = ExploreConfig {
        preemption_bound: inv.preemption_bound,
        max_schedules: inv.max_schedules,
        swarm_runs: inv.swarm_runs,
        swarm_seed: inv.seed ^ 0xADE5_ADE5,
        workers: inv.workers,
        max_counterexamples: if session.violation_expected() { 16 } else { 1 },
    };
    let t0 = std::time::Instant::now();
    let report = session.explore(&ecfg);
    let wall = t0.elapsed();

    // Package the first counterexample: ddmin-shrink its schedule, then
    // strictly re-record the shrunk run so the witness trace carries the
    // exact replayable schedule and event log.
    let mut shrunk_lens = None;
    let mut witness_trace = None;
    if let Some(ce) = report.counterexample() {
        let shrunk = session.shrink(ce);
        let rep = session.rerecord(&shrunk);
        if session.check(&rep).is_ok() {
            eprintln!("error: shrunk witness no longer violates on replay");
            std::process::exit(2);
        }
        shrunk_lens = Some((ce.schedule.len(), shrunk.len()));
        let label = format!(
            "{} ddmin witness on {} agents {:?}: {}",
            entry.id, inv.family_spec, inv.agents, ce.violation
        );
        witness_trace = Some(rep.to_trace(&bc, inv.seed, &label));
    }

    let bench = qelect_bench::explore::ExploreRunReport {
        protocol: entry.id.name().to_string(),
        family_spec: inv.family_spec.clone(),
        agents: inv.agents.clone(),
        seed: inv.seed,
        engine: inv.engine,
        workers: inv.workers,
        preemption_bound: inv.preemption_bound,
        max_schedules: inv.max_schedules,
        swarm_runs: inv.swarm_runs,
        violation_expected: session.violation_expected(),
        report,
        shrunk: shrunk_lens,
        wall,
    };
    print!("{}", bench.render());
    if let Some(ce) = bench.report.counterexample() {
        if bench.violation_expected {
            println!("violation found (as the paper predicts): {}", ce.violation);
        } else {
            println!("VIOLATION: {}", ce.violation);
        }
    }

    if let Some(path) = &inv.emit_shrunk {
        match &witness_trace {
            Some(trace) => save_trace(trace, path),
            None => {
                eprintln!("error: --emit-shrunk needs a violation to shrink, and none was found");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &inv.emit_trace {
        // Prefer the spec's canonical committed witness (byte-stable
        // across runs); fall back to the shrunk violation witness, then
        // to a policy-scheduled reference recording.
        let trace = if let Some(witness) = spec.canonical_witness {
            match witness(&bc) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        } else if let Some(t) = witness_trace.clone() {
            t
        } else {
            let rep = session.record_reference();
            let label = format!(
                "{} reference run on {} agents {:?}",
                entry.id, inv.family_spec, inv.agents
            );
            rep.to_trace(&bc, inv.seed, &label)
        };
        save_trace(&trace, path);
    }
    if let Some(path) = &inv.json {
        write_file(path, &bench.to_json());
        println!("qelect-explore/1 report written to {path}");
    }
    if !bench.passed() {
        std::process::exit(1);
    }
    if !bench.violation_expected && bench.report.passed() {
        println!("PASS: no schedule violated the property");
    }
}

fn zoo(inv: ZooInvocation) {
    println!(
        "# Protocol zoo — {} instances × {} protocols, engine {}, seed {}\n",
        inv.config.instances.len(),
        inv.config.protocols.len(),
        inv.config.engine.name(),
        inv.config.seed,
    );
    let report = qelect_bench::zoo::run_zoo(&inv.config);
    print!("{}", report.render());
    write_file(&inv.json, &report.to_json());
    println!("qelect-zoo/1 report written to {}", inv.json);
    if !report.passed() {
        eprintln!("FAIL: a protocol run disagreed with its oracle verdict");
        std::process::exit(1);
    }
    println!("PASS: every oracle-decided cell matched");
}
