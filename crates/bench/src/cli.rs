//! Command-line parsing for `qelectctl`, the instance driver.
//!
//! Spec syntax (hand-rolled; no CLI dependency):
//!
//! ```text
//! qelectctl <protocol> <family> [options]
//!
//! protocols: any wire name or alias in [`qelect::registry`] — elect,
//!            cayley, quantitative, view, gather, petersen, anonymous,
//!            dp-anon, agent-elect
//! families:  cycle:N | path:N | complete:N | hypercube:D | torus:AxB[xC…]
//!            | petersen | gp:N:K | star:N | circulant:N:o1,o2 | ccc:D
//!            | butterfly:D | stargraph:K | random:N:P:SEED | tree:D | grid:WxH
//! options:   --agents 0,1,3   home-bases (default: 0)
//!            --seed N         run seed (default 0)
//!            --policy P       random | round-robin | lockstep | greedy
//!            --engine E       gated | sim (default gated; must be in the
//!                             protocol's registry capability flags)
//!            --dot            print the instance as Graphviz DOT
//! ```
//!
//! The `explore` subcommand runs the registry-native schedule
//! exploration (bounded DFS + coverage-guided swarm) instead of a
//! single schedule:
//!
//! ```text
//! qelectctl explore <family> [options]
//!
//! options:   --agents 0,1,3        home-bases (default: 0)
//!            --seed N              run seed (default 0)
//!            --target NAME         protocol under exploration (default
//!                                  elect; any registry entry whose
//!                                  capability flags say explorable)
//!            --engine E            gated | sim (default gated; must be
//!                                  supported by the target's registry
//!                                  capability flags)
//!            --max-schedules N     DFS schedule budget (default 1000)
//!            --preemption-bound N  Chess-style bound (default 2)
//!            --swarm N             coverage-guided swarm runs on top of
//!                                  the DFS budget (default 64)
//!            --workers N           swarm worker threads; 0 = all cores
//!                                  (default 0; results are identical
//!                                  for any worker count)
//!            --emit-trace PATH     write the witness trace as JSON
//!            --emit-shrunk PATH    write the ddmin-shrunk witness trace
//!                                  (requires a violation to shrink)
//!            --json PATH           write the qelect-explore/1 report
//! ```
//!
//! The `sweep` subcommand drives the parallel random-instance sweep
//! engine (ELECT vs the gcd oracle, work-stealing workers, memoized
//! canonical forms):
//!
//! ```text
//! qelectctl sweep [options]
//!
//! options:   --trials N            trials per bucket (default 60)
//!            --workers N           worker threads; 0 = all cores (default 0)
//!            --seed N              base seed (default 0)
//!            --repeats N           protocol runs per instance (default 2)
//!            --bucket LO:HI:P      add a size/density bucket (repeatable;
//!                                  default: the three E5 buckets)
//!            --engine E            gated | sim (default gated)
//!            --no-cache            disable the canonical-form memo cache
//!            --json PATH           also write the schema-versioned JSON report
//! ```
//!
//! The `audit` subcommand runs the phase-resolved observability report
//! (per-phase move/access/wait breakdowns, work histograms, cache
//! deltas, and the fitted Theorem 3.1 constant per family) and gates on
//! a committed baseline:
//!
//! ```text
//! qelectctl audit <spec[@a0,a1,…]> [more specs…] [options]
//!
//! specs:     a family spec plus optional home-bases, e.g. cycle:12@0,1,3
//!            (default home-base: node 0)
//! options:   --protocol NAME       audited protocol (default elect; any
//!                                  registry entry with an audit schema —
//!                                  others are rejected with a typed error)
//!            --seeds 0,1,2         run seeds (default 0,1,2)
//!            --engine E            gated | sim | all (default all: both
//!                                  engines)
//!            --json PATH           write the schema-versioned JSON report
//!            --baseline PATH       baseline file (default BENCH_audit.json)
//!            --tolerance F         fractional regression tolerance (default 0.25)
//!            --write-baseline      write the baseline instead of checking it
//! ```
//!
//! The `faults` subcommand runs the deterministic fault-injection crash
//! sweep (generated crash/delay plans in the eventually-restarting
//! regime, gated on the gcd oracle and on identical replays):
//!
//! ```text
//! qelectctl faults <spec[@a0,a1,…]> [more specs…] [options]
//!
//! options:   --seeds 0,1           run seeds (default 0,1)
//!            --plans N             generated plans per seed (default 3)
//!            --crashes N           crash events per plan (default 2)
//!            --delays N            delay events per plan (default 1)
//!            --engine E            gated | sim | all (default all: both
//!                                  engines)
//!            --json PATH           write the schema-versioned JSON report
//! ```
//!
//! The `serve` subcommand starts `qelectd`, the long-running election
//! daemon (see [`crate::serve`]):
//!
//! ```text
//! qelectctl serve [options]
//!
//! options:   --addr HOST:PORT      bind address (default 127.0.0.1:7007)
//!            --workers N           election worker threads (default 4)
//!            --io-threads N        connection handler threads (default 16)
//!            --queue-cap N         admission queue bound (default 64)
//!            --retry-after-ms N    503 retry hint (default 50)
//!            --duration N          serve N seconds, then drain and exit
//!                                  (default: run until POST /shutdown)
//!            --debug               honor debug_sleep_ms request fields
//! ```
//!
//! The `load` subcommand runs the closed-loop serving benchmark
//! (see [`crate::load`]): cold phase, warm phase, drain check, gated on
//! the gcd oracle:
//!
//! ```text
//! qelectctl load [options]
//!
//! options:   --addr HOST:PORT      target daemon (default: in-process)
//!            --workers N           client threads (default 4)
//!            --duration N          seconds per phase (default 5)
//!            --policy P            random | round-robin | lockstep | greedy
//!            --mix SPEC            add an instance to the mix (repeatable;
//!                                  default: the E13 five-instance mix)
//!            --drain-burst N       requests in the shutdown race (default 16)
//!            --json PATH           report path (default BENCH_serve.json)
//! ```
//!
//! The `simbench` subcommand runs the gated-vs-sim engine-throughput
//! benchmark (see [`crate::simbench`]): the same crash-free ELECT
//! workload timed on both deterministic engines, with a built-in
//! differential check (same leader, same oracle verdict per seed):
//!
//! ```text
//! qelectctl simbench [spec[@a0,a1,…]…] [options]
//!
//! specs:     instances to time (default: a circulant-family ladder up
//!            to C24 with r=12)
//! options:   --seeds 0,1,2         run seeds (default 0,1,2)
//!            --repeats N           elections per seed per engine and pass
//!                                  (default 8; 5 timed passes)
//!            --json PATH           report path (default BENCH_sim.json)
//! ```
//!
//! The `canonbench` subcommand runs the canonicalization benchmark
//! (see [`crate::canonbench`]): cold canonicalization of the
//! surrounding `S(0)` timed on the frozen pre-worklist oracle and on
//! the production kernel, with a built-in byte-identity check, plus
//! ELECT end to end (prepare and one sim run) on `cycle:n@0,1,5`:
//!
//! ```text
//! qelectctl canonbench [spec[@a0,a1,…]…] [options]
//!
//! specs:     kernel instances (default: a Cayley ladder — circulants
//!            to n=512, an 8×8 torus, Q6, a wrapped butterfly)
//! options:   --repeats N           timed passes per measurement (default 5)
//!            --json PATH           report path (default BENCH_canon.json)
//! ```
//!
//! The `zoo` subcommand runs the cross-protocol experiment (see
//! [`crate::zoo`]): every named protocol on every instance, each verdict
//! gated on its protocol's own oracle — the empirical Table 1:
//!
//! ```text
//! qelectctl zoo [spec[@a0,a1,…]…] [options]
//!
//! specs:     instances to cover (default: the solvability-regime set —
//!            always ⊋ gcd = 1 ⊋ singleton-class)
//! options:   --protocols a,b,c     registry names to run (default:
//!                                  elect,cayley,quantitative,dp-anon,agent-elect)
//!            --seed N              run seed (default 0)
//!            --engine E            preferred engine, gated | sim (default
//!                                  gated; per-cell fallback to a supported one)
//!            --json PATH           report path (default BENCH_zoo.json)
//! ```

use qelect_agentsim::sched::Policy;
use qelect_agentsim::{Engine, ProtocolId};
use qelect_graph::Graph;

/// A fully parsed invocation.
#[derive(Debug)]
pub struct Invocation {
    /// The protocol, resolved through [`qelect::registry`].
    pub protocol: ProtocolId,
    /// The constructed graph.
    pub graph: Graph,
    /// Home-bases.
    pub agents: Vec<usize>,
    /// Run seed.
    pub seed: u64,
    /// Scheduler policy.
    pub policy: Policy,
    /// The engine to drive (gated or sim; the protocol's registry
    /// capability flags say which engines it supports).
    pub engine: Engine,
    /// Print DOT instead of metrics detail.
    pub dot: bool,
    /// The family spec (echoed in output).
    pub family_spec: String,
}

/// A fully parsed `explore` invocation.
#[derive(Debug)]
pub struct ExploreInvocation {
    /// The constructed graph.
    pub graph: Graph,
    /// Home-bases.
    pub agents: Vec<usize>,
    /// Run seed (colors + port scrambles; swarm seeds derive from it).
    pub seed: u64,
    /// Protocol under exploration — a registry entry whose capability
    /// flags say explorable.
    pub target: ProtocolId,
    /// The deterministic engine to explore on (gated or sim; coverage
    /// signatures are identical on both).
    pub engine: Engine,
    /// DFS schedule budget.
    pub max_schedules: usize,
    /// Chess-style preemption bound for the DFS.
    pub preemption_bound: usize,
    /// Coverage-guided swarm runs when the DFS budget runs out.
    pub swarm_runs: usize,
    /// Swarm worker threads (already resolved; never 0).
    pub workers: usize,
    /// Where to write the witness trace as JSON, if anywhere.
    pub emit_trace: Option<String>,
    /// Where to write the ddmin-shrunk witness trace as JSON, if
    /// anywhere (requires a violation to shrink).
    pub emit_shrunk: Option<String>,
    /// Where to write the `qelect-explore/1` report, if anywhere.
    pub json: Option<String>,
    /// The family spec (echoed in output).
    pub family_spec: String,
}

/// A fully parsed `sweep` invocation.
#[derive(Debug)]
pub struct SweepInvocation {
    /// The sweep configuration (trials, workers, seed, repeats, buckets).
    pub config: crate::sweep::SweepConfig,
    /// Run with the canonical-form memo cache disabled.
    pub no_cache: bool,
    /// Where to also write the schema-versioned JSON report, if anywhere.
    pub json: Option<String>,
}

/// A fully parsed `audit` invocation.
#[derive(Debug)]
pub struct AuditInvocation {
    /// The audit configuration (instances, seeds, engines).
    pub config: crate::report::AuditConfig,
    /// Where to write the schema-versioned JSON report, if anywhere.
    pub json: Option<String>,
    /// The committed baseline file the gate compares against.
    pub baseline: String,
    /// Fractional regression tolerance of the gate.
    pub tolerance: f64,
    /// Write the baseline file instead of checking against it.
    pub write_baseline: bool,
}

/// A fully parsed `faults` invocation.
#[derive(Debug)]
pub struct FaultsInvocation {
    /// The crash-sweep configuration (instances, seeds, plans, engines).
    pub config: crate::faults::FaultsConfig,
    /// Where to write the schema-versioned JSON report, if anywhere.
    pub json: Option<String>,
}

/// A fully parsed `serve` invocation.
#[derive(Debug)]
pub struct ServeInvocation {
    /// The daemon shape (bind address, pools, queue bound).
    pub config: crate::serve::ServeConfig,
    /// Serve this many seconds, then drain and exit (`None`: run until
    /// `POST /shutdown`).
    pub duration_secs: Option<u64>,
}

/// A fully parsed `load` invocation.
#[derive(Debug)]
pub struct LoadInvocation {
    /// The load shape (target, clients, phase duration, mix).
    pub config: crate::load::LoadConfig,
    /// Where the `qelect-load/1` report is written.
    pub json: String,
}

/// A fully parsed `simbench` invocation.
#[derive(Debug)]
pub struct SimBenchInvocation {
    /// The throughput-comparison configuration (instances, seeds, repeats).
    pub config: crate::simbench::SimBenchConfig,
    /// Where the `qelect-simbench/1` report is written.
    pub json: String,
}

/// A fully parsed `benchgate` invocation.
#[derive(Debug)]
pub struct BenchGateInvocation {
    /// The gate shape (directory, tolerance, throughput floor).
    pub config: crate::benchgate::GateConfig,
}

/// A fully parsed `canonbench` invocation.
#[derive(Debug)]
pub struct CanonBenchInvocation {
    /// The benchmark configuration (ladders, repeats).
    pub config: crate::canonbench::CanonBenchConfig,
    /// Where the canonbench report is written.
    pub json: String,
}

/// A fully parsed `zoo` invocation.
#[derive(Debug)]
pub struct ZooInvocation {
    /// The cross-protocol experiment shape (instances, protocols, seed,
    /// preferred engine).
    pub config: crate::zoo::ZooConfig,
    /// Where the `qelect-zoo/1` report is written.
    pub json: String,
}

/// A single-schedule run, a schedule exploration, a batch sweep, a
/// phase-resolved audit, a fault-injection crash sweep, the serving
/// daemon, its load benchmark, or one of the kernel benchmarks
/// (engine throughput, canonicalization).
#[derive(Debug)]
pub enum Command {
    /// `qelectctl <protocol> <family> …`
    Run(Invocation),
    /// `qelectctl explore <family> …`
    Explore(ExploreInvocation),
    /// `qelectctl sweep …`
    Sweep(SweepInvocation),
    /// `qelectctl audit …`
    Audit(AuditInvocation),
    /// `qelectctl faults …`
    Faults(FaultsInvocation),
    /// `qelectctl serve …`
    Serve(ServeInvocation),
    /// `qelectctl load …`
    Load(LoadInvocation),
    /// `qelectctl simbench …`
    Simbench(SimBenchInvocation),
    /// `qelectctl canonbench …`
    Canonbench(CanonBenchInvocation),
    /// `qelectctl benchgate …`
    Benchgate(BenchGateInvocation),
    /// `qelectctl zoo …`
    Zoo(ZooInvocation),
}

/// Parse errors, with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<crate::spec::SpecError> for ParseError {
    fn from(e: crate::spec::SpecError) -> ParseError {
        ParseError(e.to_string())
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parse a protocol name or alias — a thin adapter over the one
/// resolution path, [`qelect::registry::resolve`].
pub fn parse_protocol(s: &str) -> Result<ProtocolId, ParseError> {
    qelect::registry::resolve(s)
        .map(|entry| entry.id)
        .map_err(ParseError)
}

fn parse_usize(s: &str, what: &str) -> Result<usize, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("bad {what}: '{s}'")))
}

/// Parse a family spec like `cycle:9` or `torus:3x4` — a thin adapter
/// over the shared grammar in [`crate::spec`].
pub fn parse_family(spec: &str) -> Result<Graph, ParseError> {
    Ok(crate::spec::parse_family(spec)?)
}

/// Parse the value of a path-taking flag (`--emit-trace`, `--emit-shrunk`,
/// `--json`, …): one validated parser instead of per-flag string
/// handling. Advances `i` past the consumed value. Rejects a missing
/// value, an empty path, and a following flag mistaken for a path.
fn parse_path_flag(args: &[String], i: &mut usize, flag: &str) -> Result<String, ParseError> {
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| ParseError(format!("{flag} needs a path")))?;
    if v.is_empty() || v.starts_with("--") {
        return Err(ParseError(format!("{flag} needs a path, got '{v}'")));
    }
    Ok(v.clone())
}

/// Parse a full argv (without the binary name).
pub fn parse_args(args: &[String]) -> Result<Invocation, ParseError> {
    if args.len() < 2 {
        return err(
            "usage: qelectctl <protocol> <family> [--agents 0,1,3] [--seed N] \
             [--policy P] [--engine gated|sim] [--dot]",
        );
    }
    let protocol = parse_protocol(&args[0])?;
    let family_spec = args[1].clone();
    let graph = parse_family(&family_spec)?;
    let mut agents = vec![0usize];
    let mut seed = 0u64;
    let mut policy = Policy::Random;
    let mut engine = Engine::Gated;
    let mut dot = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--agents" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or(ParseError("--agents needs a list".into()))?;
                let parsed: Result<Vec<usize>, _> = list
                    .split(',')
                    .map(|a| parse_usize(a, "agent node"))
                    .collect();
                agents = parsed?;
            }
            "--seed" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seed needs a value".into()))?;
                seed = parse_usize(v, "seed")? as u64;
            }
            "--policy" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--policy needs a value".into()))?;
                policy = match v.as_str() {
                    "random" => Policy::Random,
                    "round-robin" | "rr" => Policy::RoundRobin,
                    "lockstep" => Policy::Lockstep,
                    "greedy" => Policy::GreedyLowest,
                    other => return err(format!("unknown policy '{other}'")),
                };
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                engine = parse_single_engine(v)?;
            }
            "--dot" => dot = true,
            other => return err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    Ok(Invocation {
        protocol,
        graph,
        agents,
        seed,
        policy,
        engine,
        dot,
        family_spec,
    })
}

/// Parse an `explore` argv (without the binary name and the `explore`
/// token itself).
pub fn parse_explore(args: &[String]) -> Result<ExploreInvocation, ParseError> {
    if args.is_empty() {
        return err(
            "usage: qelectctl explore <family> [--agents 0,1,3] [--seed N] \
             [--target elect|anon|dp|agent] [--engine gated|sim] \
             [--max-schedules N] [--preemption-bound N] [--swarm N] \
             [--workers N] [--emit-trace PATH] [--emit-shrunk PATH] \
             [--json PATH]",
        );
    }
    let family_spec = args[0].clone();
    let graph = parse_family(&family_spec)?;
    let mut inv = ExploreInvocation {
        graph,
        agents: vec![0usize],
        seed: 0,
        target: qelect::registry::default_entry().id,
        engine: Engine::Gated,
        max_schedules: 1000,
        preemption_bound: 2,
        swarm_runs: 64,
        workers: 0,
        emit_trace: None,
        emit_shrunk: None,
        json: None,
        family_spec,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--agents" => {
                i += 1;
                let list = args
                    .get(i)
                    .ok_or(ParseError("--agents needs a list".into()))?;
                let parsed: Result<Vec<usize>, _> = list
                    .split(',')
                    .map(|a| parse_usize(a, "agent node"))
                    .collect();
                inv.agents = parsed?;
            }
            "--seed" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seed needs a value".into()))?;
                inv.seed = parse_usize(v, "seed")? as u64;
            }
            "--target" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--target needs a value".into()))?;
                let entry = qelect::registry::resolve(v).map_err(ParseError)?;
                if !entry.caps.explorable {
                    return err(format!(
                        "protocol '{}' is not explorable (no schedule-space \
                         property to check)",
                        entry.id.name()
                    ));
                }
                inv.target = entry.id;
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                inv.engine = parse_single_engine(v)?;
            }
            "--max-schedules" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--max-schedules needs a value".into()))?;
                inv.max_schedules = parse_usize(v, "schedule budget")?;
            }
            "--preemption-bound" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--preemption-bound needs a value".into()))?;
                inv.preemption_bound = parse_usize(v, "preemption bound")?;
            }
            "--swarm" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--swarm needs a value".into()))?;
                inv.swarm_runs = parse_usize(v, "swarm runs")?;
            }
            "--workers" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--workers needs a value".into()))?;
                inv.workers = parse_usize(v, "worker count")?;
            }
            "--emit-trace" => inv.emit_trace = Some(parse_path_flag(args, &mut i, "--emit-trace")?),
            "--emit-shrunk" => {
                inv.emit_shrunk = Some(parse_path_flag(args, &mut i, "--emit-shrunk")?)
            }
            "--json" => inv.json = Some(parse_path_flag(args, &mut i, "--json")?),
            other => return err(format!("unknown explore option '{other}'")),
        }
        i += 1;
    }
    // The engine must be in the target's capability flags — checked here
    // so the rejection is order-independent in `--target`/`--engine`.
    let entry = qelect::registry::get(inv.target);
    if !entry.supports(inv.engine) {
        return err(format!(
            "protocol '{}' does not support engine '{}'",
            entry.id.name(),
            inv.engine.name()
        ));
    }
    if inv.workers == 0 {
        inv.workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    }
    Ok(inv)
}

/// Parse a `sweep` argv (without the binary name and the `sweep` token
/// itself). `--workers 0` means "use every available core".
pub fn parse_sweep(args: &[String]) -> Result<SweepInvocation, ParseError> {
    let mut config = crate::sweep::SweepConfig {
        workers: 0,
        ..Default::default()
    };
    let mut buckets: Vec<crate::sweep::SweepBucket> = Vec::new();
    let mut no_cache = false;
    let mut json = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--trials needs a value".into()))?;
                config.trials = parse_usize(v, "trial count")?;
            }
            "--workers" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--workers needs a value".into()))?;
                config.workers = parse_usize(v, "worker count")?;
            }
            "--seed" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seed needs a value".into()))?;
                config.seed0 = parse_usize(v, "seed")? as u64;
            }
            "--repeats" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--repeats needs a value".into()))?;
                config.repeats = parse_usize(v, "repeat count")?;
                if config.repeats == 0 {
                    return err("--repeats must be at least 1");
                }
            }
            "--bucket" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--bucket needs LO:HI:P".into()))?;
                let parts: Vec<&str> = v.split(':').collect();
                let [lo, hi, p] = parts.as_slice() else {
                    return err(format!("bad bucket '{v}': expected LO:HI:P"));
                };
                let bucket = crate::sweep::SweepBucket {
                    n_lo: parse_usize(lo, "bucket low")?,
                    n_hi: parse_usize(hi, "bucket high")?,
                    p: p.parse()
                        .map_err(|_| ParseError(format!("bad bucket p '{p}'")))?,
                };
                if bucket.n_hi <= bucket.n_lo || bucket.n_lo == 0 {
                    return err(format!("bad bucket '{v}': need 0 < LO < HI"));
                }
                buckets.push(bucket);
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                config.engine = parse_single_engine(v)?;
            }
            "--no-cache" => no_cache = true,
            "--json" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--json needs a path".into()))?;
                json = Some(v.clone());
            }
            other => return err(format!("unknown sweep option '{other}'")),
        }
        i += 1;
    }
    if !buckets.is_empty() {
        config.buckets = buckets;
    }
    if config.workers == 0 {
        config.workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    }
    Ok(SweepInvocation {
        config,
        no_cache,
        json,
    })
}

/// Parse an audit instance spec: a family spec with optional home-bases
/// appended after `@`, e.g. `cycle:12@0,1,3` (default home-base: 0) —
/// the shared grammar of [`crate::spec`].
pub fn parse_audit_instance(spec: &str) -> Result<crate::report::AuditInstance, ParseError> {
    Ok(crate::report::AuditInstance::from(
        crate::spec::InstanceSpec::parse(spec)?,
    ))
}

/// Parse an engine name (`gated` or `sim`).
fn parse_single_engine(v: &str) -> Result<Engine, ParseError> {
    Engine::parse(v)
        .ok_or_else(|| ParseError(format!("unknown engine '{v}' (expected gated or sim)")))
}

/// Parse an `--engine` selector shared by `audit` and `faults`: one
/// engine name, or `all` (both engines, the default).
fn parse_engine_list(v: &str) -> Result<Vec<Engine>, ParseError> {
    match (v, Engine::parse(v)) {
        ("all", _) => Ok(Engine::ALL.to_vec()),
        (_, Some(engine)) => Ok(vec![engine]),
        _ => err(format!("unknown engine '{v}' (expected gated, sim or all)")),
    }
}

/// Parse an `audit` argv (without the binary name and the `audit` token
/// itself).
pub fn parse_audit(args: &[String]) -> Result<AuditInvocation, ParseError> {
    if args.is_empty() {
        return err(
            "usage: qelectctl audit <spec[@a0,a1,…]>… [--protocol NAME] \
             [--seeds 0,1,2] [--engine gated|sim|all] [--json PATH] \
             [--baseline PATH] [--tolerance F] [--write-baseline]",
        );
    }
    let mut config = crate::report::AuditConfig::default();
    let mut inv_json = None;
    let mut baseline = "BENCH_audit.json".to_string();
    let mut tolerance = crate::report::DEFAULT_TOLERANCE;
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--protocol" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--protocol needs a name".into()))?;
                let entry = qelect::registry::resolve(v).map_err(ParseError)?;
                if entry.caps.audit_schema.is_none() {
                    return err(format!(
                        "protocol '{}' is not auditable (no audit schema in its \
                         registry capability flags)",
                        entry.id.name()
                    ));
                }
                config.protocol = entry.id;
            }
            "--seeds" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seeds needs a list".into()))?;
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|s| parse_usize(s, "seed")).collect();
                config.seeds = parsed?.into_iter().map(|s| s as u64).collect();
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                config.engines = parse_engine_list(v)?;
            }
            "--json" => inv_json = Some(parse_path_flag(args, &mut i, "--json")?),
            "--baseline" => baseline = parse_path_flag(args, &mut i, "--baseline")?,
            "--tolerance" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--tolerance needs a value".into()))?;
                tolerance = v
                    .parse()
                    .map_err(|_| ParseError(format!("bad tolerance '{v}'")))?;
                if !(0.0..=100.0).contains(&tolerance) {
                    return err(format!("tolerance {tolerance} out of range"));
                }
            }
            "--write-baseline" => write_baseline = true,
            flag if flag.starts_with("--") => {
                return err(format!("unknown audit option '{flag}'"));
            }
            spec => config.instances.push(parse_audit_instance(spec)?),
        }
        i += 1;
    }
    if config.instances.is_empty() {
        return err("audit needs at least one instance spec");
    }
    Ok(AuditInvocation {
        config,
        json: inv_json,
        baseline,
        tolerance,
        write_baseline,
    })
}

/// Parse a `faults` argv (without the binary name and the `faults`
/// token itself).
pub fn parse_faults(args: &[String]) -> Result<FaultsInvocation, ParseError> {
    if args.is_empty() {
        return err("usage: qelectctl faults <spec[@a0,a1,…]>… [--seeds 0,1] \
             [--plans N] [--crashes N] [--delays N] \
             [--engine gated|sim|all] [--json PATH]");
    }
    let mut config = crate::faults::FaultsConfig::default();
    let mut inv_json = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seeds needs a list".into()))?;
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|s| parse_usize(s, "seed")).collect();
                config.seeds = parsed?.into_iter().map(|s| s as u64).collect();
            }
            "--plans" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--plans needs a value".into()))?;
                config.plans = parse_usize(v, "plan count")?;
                if config.plans == 0 {
                    return err("--plans must be at least 1");
                }
            }
            "--crashes" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--crashes needs a value".into()))?;
                config.crashes = parse_usize(v, "crash count")?;
            }
            "--delays" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--delays needs a value".into()))?;
                config.delays = parse_usize(v, "delay count")?;
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                config.engines = parse_engine_list(v)?;
            }
            "--json" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--json needs a path".into()))?;
                inv_json = Some(v.clone());
            }
            flag if flag.starts_with("--") => {
                return err(format!("unknown faults option '{flag}'"));
            }
            spec => config.instances.push(parse_audit_instance(spec)?),
        }
        i += 1;
    }
    if config.instances.is_empty() {
        return err("faults sweep needs at least one instance spec");
    }
    Ok(FaultsInvocation {
        config,
        json: inv_json,
    })
}

/// The default `simbench` workload: a circulant-family ladder with
/// growing node and agent counts (r = n/2 at the top, where the gated
/// engine's per-step OS handoffs dominate and the sim advantage peaks).
fn default_simbench_instances() -> Result<Vec<crate::report::AuditInstance>, ParseError> {
    [
        "cycle:6@0,2,3",
        "cycle:6@0,3",
        "circulant:12:1,3@0,1,3",
        "cycle:12@0,1,2,3,4,5",
        "cycle:24@0,1,2,3,4,5,6,7,8,9,10,11",
    ]
    .iter()
    .map(|s| parse_audit_instance(s))
    .collect()
}

/// Parse a `simbench` argv (without the binary name and the `simbench`
/// token itself).
pub fn parse_simbench(args: &[String]) -> Result<SimBenchInvocation, ParseError> {
    let mut config = crate::simbench::SimBenchConfig::default();
    let mut json = "BENCH_sim.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seeds needs a list".into()))?;
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|s| parse_usize(s, "seed")).collect();
                config.seeds = parsed?.into_iter().map(|s| s as u64).collect();
            }
            "--repeats" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--repeats needs a value".into()))?;
                config.repeats = parse_usize(v, "repeat count")?;
                if config.repeats == 0 {
                    return err("--repeats must be at least 1");
                }
            }
            "--json" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--json needs a path".into()))?;
                json = v.clone();
            }
            flag if flag.starts_with("--") => {
                return err(format!("unknown simbench option '{flag}'"));
            }
            spec => config.instances.push(parse_audit_instance(spec)?),
        }
        i += 1;
    }
    if config.seeds.is_empty() {
        return err("simbench needs at least one seed");
    }
    if config.instances.is_empty() {
        config.instances = default_simbench_instances()?;
    }
    Ok(SimBenchInvocation { config, json })
}

/// The default `canonbench` workload: the scaling ladder of the ROADMAP
/// "canonicalization that scales" item — circulant {1,3} rungs doubling
/// to n = 512 (the headline curve), plus an 8×8 torus, the Q6
/// hypercube, and a dimension-4 wrapped butterfly at n = 64 for family
/// breadth.
fn default_canonbench_instances() -> Result<Vec<crate::report::AuditInstance>, ParseError> {
    [
        "circulant:64:1,3@0,1",
        "torus:8x8@0,1",
        "hypercube:6@0,1",
        "butterfly:4@0,1",
        "circulant:128:1,3@0,1",
        "circulant:256:1,3@0,1",
        "circulant:512:1,3@0,1",
    ]
    .iter()
    .map(|s| parse_audit_instance(s))
    .collect()
}

/// Parse a `canonbench` argv (without the binary name and the
/// `canonbench` token itself).
pub fn parse_canonbench(args: &[String]) -> Result<CanonBenchInvocation, ParseError> {
    let mut config = crate::canonbench::CanonBenchConfig::default();
    let mut json = "BENCH_canon.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--repeats" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--repeats needs a value".into()))?;
                config.repeats = parse_usize(v, "repeat count")?;
                if config.repeats == 0 {
                    return err("--repeats must be at least 1");
                }
            }
            "--json" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--json needs a path".into()))?;
                json = v.clone();
            }
            flag if flag.starts_with("--") => {
                return err(format!("unknown canonbench option '{flag}'"));
            }
            spec => config.instances.push(parse_audit_instance(spec)?),
        }
        i += 1;
    }
    if config.instances.is_empty() {
        config.instances = default_canonbench_instances()?;
    }
    Ok(CanonBenchInvocation { config, json })
}

/// Parse a `serve` argv (without the binary name and the `serve` token
/// itself).
pub fn parse_serve(args: &[String]) -> Result<ServeInvocation, ParseError> {
    let mut config = crate::serve::ServeConfig {
        addr: "127.0.0.1:7007".to_string(),
        ..Default::default()
    };
    let mut duration_secs = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--addr needs HOST:PORT".into()))?;
                config.addr = v.clone();
            }
            "--workers" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--workers needs a value".into()))?;
                config.workers = parse_usize(v, "worker count")?;
                if config.workers == 0 {
                    return err("--workers must be at least 1");
                }
            }
            "--io-threads" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--io-threads needs a value".into()))?;
                config.io_threads = parse_usize(v, "io thread count")?;
                if config.io_threads == 0 {
                    return err("--io-threads must be at least 1");
                }
            }
            "--queue-cap" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--queue-cap needs a value".into()))?;
                config.queue_cap = parse_usize(v, "queue capacity")?;
                if config.queue_cap == 0 {
                    return err("--queue-cap must be at least 1");
                }
            }
            "--retry-after-ms" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--retry-after-ms needs a value".into()))?;
                config.retry_after_ms = parse_usize(v, "retry-after")? as u64;
            }
            "--shards" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--shards needs a value".into()))?;
                config.shards = parse_usize(v, "shard count")?;
                if config.shards == 0 {
                    return err("--shards must be at least 1");
                }
            }
            "--store" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--store needs a path".into()))?;
                config.store = Some(v.clone());
            }
            "--duration" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--duration needs seconds".into()))?;
                duration_secs = Some(parse_usize(v, "duration")? as u64);
            }
            "--debug" => config.debug = true,
            other => return err(format!("unknown serve option '{other}'")),
        }
        i += 1;
    }
    Ok(ServeInvocation {
        config,
        duration_secs,
    })
}

/// Parse a `load` argv (without the binary name and the `load` token
/// itself).
pub fn parse_load(args: &[String]) -> Result<LoadInvocation, ParseError> {
    let mut config = crate::load::LoadConfig::default();
    let mut json = "BENCH_serve.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--addr needs HOST:PORT".into()))?;
                config.addr = Some(v.clone());
            }
            "--workers" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--workers needs a value".into()))?;
                config.clients = parse_usize(v, "client count")?;
                if config.clients == 0 {
                    return err("--workers must be at least 1");
                }
            }
            "--duration" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--duration needs seconds".into()))?;
                config.duration_secs = parse_usize(v, "duration")? as u64;
            }
            "--policy" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--policy needs a value".into()))?;
                config.policy = crate::serve::parse_policy(v)
                    .ok_or_else(|| ParseError(format!("unknown policy '{v}'")))?;
            }
            "--mix" => {
                i += 1;
                let v = args.get(i).ok_or(ParseError("--mix needs a spec".into()))?;
                // Validate through the shared grammar at parse time,
                // placement included.
                crate::spec::InstanceSpec::parse(v)?.bicolored()?;
                config.mix.push(v.clone());
            }
            "--drain-burst" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--drain-burst needs a value".into()))?;
                config.drain_burst = parse_usize(v, "drain burst")?;
            }
            "--batch" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--batch needs a value".into()))?;
                config.batch = parse_usize(v, "batch size")?;
                if config.batch > crate::serve::MAX_BATCH {
                    return err(format!(
                        "--batch must be at most {}",
                        crate::serve::MAX_BATCH
                    ));
                }
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                config.engine = parse_single_engine(v)?.name().to_string();
            }
            "--protocol" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--protocol needs a name".into()))?;
                let entry = qelect::registry::resolve(v).map_err(ParseError)?;
                if !entry.caps.servable {
                    return err(format!(
                        "protocol '{}' is not servable (the daemon rejects it)",
                        entry.id.name()
                    ));
                }
                config.protocol = entry.id.name().to_string();
            }
            "--shards" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--shards needs a value".into()))?;
                config.serve.shards = parse_usize(v, "shard count")?;
                if config.serve.shards == 0 {
                    return err("--shards must be at least 1");
                }
            }
            "--store" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--store needs a path".into()))?;
                config.serve.store = Some(v.clone());
            }
            "--chaos" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--chaos needs a round count".into()))?;
                config.chaos = parse_usize(v, "chaos rounds")?;
            }
            "--json" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--json needs a path".into()))?;
                json = v.clone();
            }
            other => return err(format!("unknown load option '{other}'")),
        }
        i += 1;
    }
    if config.chaos > 0 && config.serve.store.is_none() {
        return err("--chaos needs --store (durability across kills is the point)");
    }
    if config.chaos > 0 && config.addr.is_some() {
        return err("--chaos owns the daemon lifecycle; it cannot target --addr");
    }
    Ok(LoadInvocation { config, json })
}

/// Parse a `zoo` argv (without the binary name and the `zoo` token
/// itself). Positional arguments are instance specs in the shared
/// `family[:params][@a0,a1,…]` grammar; with none, a default panel
/// spanning the three solvability regimes is used.
pub fn parse_zoo(args: &[String]) -> Result<ZooInvocation, ParseError> {
    let mut config = crate::zoo::ZooConfig::default();
    let mut json = "BENCH_zoo.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--protocols" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--protocols needs a comma list".into()))?;
                let mut ids = Vec::new();
                for name in v.split(',') {
                    let entry = qelect::registry::resolve(name).map_err(ParseError)?;
                    if !ids.contains(&entry.id) {
                        ids.push(entry.id);
                    }
                }
                if ids.is_empty() {
                    return err("--protocols needs at least one name");
                }
                config.protocols = ids;
            }
            "--seed" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--seed needs a value".into()))?;
                config.seed = parse_usize(v, "seed")? as u64;
            }
            "--engine" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--engine needs a value".into()))?;
                config.engine = parse_single_engine(v)?;
            }
            "--json" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--json needs a path".into()))?;
                json = v.clone();
            }
            other if other.starts_with("--") => {
                return err(format!("unknown zoo option '{other}'"));
            }
            spec => {
                config.instances.push(parse_audit_instance(spec)?);
            }
        }
        i += 1;
    }
    if config.instances.is_empty() {
        config.instances = default_zoo_instances()?;
    }
    Ok(ZooInvocation { config, json })
}

/// The default `zoo` panel: small instances spanning the paper's Table 1
/// regimes — DP-solvable (a singleton black class), ELECT-solvable but
/// not DP (gcd 1 with no singleton class), and unsolvable (gcd > 1) —
/// so every registered oracle is exercised in both directions.
fn default_zoo_instances() -> Result<Vec<crate::report::AuditInstance>, ParseError> {
    [
        "path:5@1,3",
        "cycle:6@0,3",
        "cycle:9@0,1,3",
        "cycle:12@0,3,6",
    ]
    .iter()
    .map(|s| parse_audit_instance(s))
    .collect()
}

/// Parse a `benchgate` argv (without the binary name and the
/// `benchgate` token itself).
pub fn parse_benchgate(args: &[String]) -> Result<BenchGateInvocation, ParseError> {
    let mut config = crate::benchgate::GateConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                let v = args.get(i).ok_or(ParseError("--dir needs a path".into()))?;
                config.dir = v.clone();
            }
            "--tolerance" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--tolerance needs a fraction".into()))?;
                config.tolerance = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..1.0).contains(t))
                    .ok_or(ParseError(
                        "--tolerance must be a fraction in [0, 1)".into(),
                    ))?;
            }
            "--min-warm-rps" => {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or(ParseError("--min-warm-rps needs a value".into()))?;
                config.min_warm_rps = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|r| *r > 0.0)
                        .ok_or(ParseError("--min-warm-rps must be positive".into()))?,
                );
            }
            other => return err(format!("unknown benchgate option '{other}'")),
        }
        i += 1;
    }
    Ok(BenchGateInvocation { config })
}

/// Parse a full argv (without the binary name), dispatching between the
/// single-run, `explore`, `sweep`, `audit`, `faults`, `serve` and
/// `load` forms.
pub fn parse_command(args: &[String]) -> Result<Command, ParseError> {
    match args.first().map(String::as_str) {
        Some("explore") => parse_explore(&args[1..]).map(Command::Explore),
        Some("sweep") => parse_sweep(&args[1..]).map(Command::Sweep),
        Some("audit") => parse_audit(&args[1..]).map(Command::Audit),
        Some("faults") => parse_faults(&args[1..]).map(Command::Faults),
        Some("serve") => parse_serve(&args[1..]).map(Command::Serve),
        Some("load") => parse_load(&args[1..]).map(Command::Load),
        Some("simbench") => parse_simbench(&args[1..]).map(Command::Simbench),
        Some("canonbench") => parse_canonbench(&args[1..]).map(Command::Canonbench),
        Some("benchgate") => parse_benchgate(&args[1..]).map(Command::Benchgate),
        Some("zoo") => parse_zoo(&args[1..]).map(Command::Zoo),
        _ => parse_args(args).map(Command::Run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_minimal() {
        let inv = parse_args(&argv("elect cycle:9")).unwrap();
        assert_eq!(inv.protocol.name(), "elect");
        assert_eq!(inv.graph.n(), 9);
        assert_eq!(inv.agents, vec![0]);
        assert_eq!(inv.seed, 0);
    }

    #[test]
    fn parses_full_options() {
        let inv = parse_args(&argv(
            "cayley hypercube:3 --agents 0,7 --seed 42 --policy lockstep --dot",
        ))
        .unwrap();
        assert_eq!(inv.protocol.name(), "cayley");
        assert_eq!(inv.graph.n(), 8);
        assert_eq!(inv.agents, vec![0, 7]);
        assert_eq!(inv.seed, 42);
        assert_eq!(inv.policy, Policy::Lockstep);
        assert!(inv.dot);
    }

    #[test]
    fn parses_every_family() {
        for spec in [
            "cycle:5",
            "path:4",
            "complete:4",
            "hypercube:3",
            "torus:3x4",
            "petersen",
            "gp:7:2",
            "star:4",
            "circulant:8:1,3",
            "ccc:3",
            "butterfly:3",
            "stargraph:3",
            "random:8:0.3:7",
            "tree:2",
            "grid:3x3",
        ] {
            assert!(parse_family(spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn rejects_nonsense() {
        assert!(parse_args(&argv("elect")).is_err());
        assert!(parse_args(&argv("blah cycle:5")).is_err());
        assert!(parse_args(&argv("elect cycle:x")).is_err());
        assert!(parse_args(&argv("elect cycle:5 --policy warp")).is_err());
        assert!(parse_args(&argv("elect nosuch:5")).is_err());
        assert!(parse_args(&argv("elect cycle:5 --frobnicate")).is_err());
    }

    #[test]
    fn protocol_aliases() {
        // Aliases come from the registry entries, not a CLI-private table.
        assert_eq!(parse_protocol("quant").unwrap().name(), "quantitative");
        assert_eq!(parse_protocol("anon").unwrap().name(), "anonymous");
        assert_eq!(parse_protocol("dp").unwrap().name(), "dp-anon");
        assert_eq!(parse_protocol("agent").unwrap().name(), "agent-elect");
        let err = parse_protocol("warp").unwrap_err();
        assert!(err.0.contains("known protocols"), "{}", err.0);
    }

    #[test]
    fn parses_explore_defaults() {
        let cmd = parse_command(&argv("explore cycle:9")).unwrap();
        let Command::Explore(inv) = cmd else {
            panic!("expected explore")
        };
        assert_eq!(inv.graph.n(), 9);
        assert_eq!(inv.agents, vec![0]);
        assert_eq!(inv.target.name(), "elect");
        assert_eq!(inv.engine, Engine::Gated);
        assert_eq!(inv.max_schedules, 1000);
        assert_eq!(inv.preemption_bound, 2);
        assert_eq!(inv.swarm_runs, 64);
        assert!(inv.workers >= 1, "0 must resolve to the core count");
        assert!(inv.emit_trace.is_none());
        assert!(inv.json.is_none());
    }

    #[test]
    fn parses_explore_full_options() {
        let cmd = parse_command(&argv(
            "explore cycle:6 --agents 0,3 --seed 7 --target anon \
             --engine sim --max-schedules 50 --preemption-bound 1 --swarm 5 \
             --workers 2 --emit-trace /tmp/t.json --json /tmp/e.json",
        ))
        .unwrap();
        let Command::Explore(inv) = cmd else {
            panic!("expected explore")
        };
        assert_eq!(inv.agents, vec![0, 3]);
        assert_eq!(inv.seed, 7);
        assert_eq!(inv.target.name(), "anonymous");
        assert_eq!(inv.engine, Engine::Sim);
        assert_eq!(inv.max_schedules, 50);
        assert_eq!(inv.preemption_bound, 1);
        assert_eq!(inv.swarm_runs, 5);
        assert_eq!(inv.workers, 2);
        assert_eq!(inv.emit_trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(inv.json.as_deref(), Some("/tmp/e.json"));
    }

    #[test]
    fn parse_command_still_handles_plain_runs() {
        let cmd = parse_command(&argv("elect cycle:9 --agents 0,1,3")).unwrap();
        let Command::Run(inv) = cmd else {
            panic!("expected run")
        };
        assert_eq!(inv.protocol.name(), "elect");
        assert_eq!(inv.agents, vec![0, 1, 3]);
    }

    #[test]
    fn parses_sweep_defaults() {
        let cmd = parse_command(&argv("sweep")).unwrap();
        let Command::Sweep(inv) = cmd else {
            panic!("expected sweep")
        };
        assert_eq!(inv.config.trials, 60);
        assert!(inv.config.workers >= 1, "0 must resolve to the core count");
        assert_eq!(inv.config.seed0, 0);
        assert_eq!(inv.config.repeats, 2);
        assert_eq!(inv.config.buckets, crate::sweep::default_buckets());
        assert!(!inv.no_cache);
    }

    #[test]
    fn parses_sweep_full_options() {
        let cmd = parse_command(&argv(
            "sweep --trials 10 --workers 4 --seed 9 --repeats 3 \
             --bucket 5:8:0.2 --bucket 8:12:0.3 --no-cache",
        ))
        .unwrap();
        let Command::Sweep(inv) = cmd else {
            panic!("expected sweep")
        };
        assert_eq!(inv.config.trials, 10);
        assert_eq!(inv.config.workers, 4);
        assert_eq!(inv.config.seed0, 9);
        assert_eq!(inv.config.repeats, 3);
        assert_eq!(inv.config.buckets.len(), 2);
        assert_eq!(inv.config.buckets[0].n_lo, 5);
        assert_eq!(inv.config.buckets[1].p, 0.3);
        assert!(inv.no_cache);
    }

    #[test]
    fn parses_sweep_json_flag() {
        let cmd = parse_command(&argv("sweep --trials 5 --json out.json")).unwrap();
        let Command::Sweep(inv) = cmd else {
            panic!("expected sweep")
        };
        assert_eq!(inv.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn parses_audit_defaults() {
        let cmd = parse_command(&argv("audit cycle:12@0,1,3 petersen")).unwrap();
        let Command::Audit(inv) = cmd else {
            panic!("expected audit")
        };
        assert_eq!(inv.config.instances.len(), 2);
        assert_eq!(inv.config.instances[0].spec, "cycle:12");
        assert_eq!(inv.config.instances[0].agents, vec![0, 1, 3]);
        assert_eq!(inv.config.instances[0].key(), "cycle:12@0,1,3");
        assert_eq!(inv.config.instances[0].family(), "cycle");
        assert_eq!(inv.config.instances[1].agents, vec![0], "default home-base");
        assert_eq!(inv.config.instances[1].family(), "petersen");
        assert_eq!(inv.config.seeds, vec![0, 1, 2]);
        assert_eq!(inv.config.engines, Engine::ALL, "default: both engines");
        assert_eq!(inv.config.protocol.name(), "elect", "default protocol");
        assert_eq!(inv.baseline, "BENCH_audit.json");
        assert!((inv.tolerance - crate::report::DEFAULT_TOLERANCE).abs() < 1e-12);
        assert!(!inv.write_baseline);
        assert!(inv.json.is_none());
        let Command::Audit(all) = parse_command(&argv("audit cycle:6 --engine all")).unwrap()
        else {
            panic!("expected audit")
        };
        assert_eq!(all.config.engines, Engine::ALL);
    }

    #[test]
    fn parses_audit_full_options() {
        let cmd = parse_command(&argv(
            "audit circulant:12:1,3@0,1,3 --seeds 4,5 --engine gated \
             --json out.json --baseline B.json --tolerance 0.5 --write-baseline",
        ))
        .unwrap();
        let Command::Audit(inv) = cmd else {
            panic!("expected audit")
        };
        assert_eq!(inv.config.instances[0].spec, "circulant:12:1,3");
        assert_eq!(inv.config.instances[0].agents, vec![0, 1, 3]);
        assert_eq!(inv.config.seeds, vec![4, 5]);
        assert_eq!(inv.config.engines, vec![Engine::Gated]);
        assert_eq!(inv.json.as_deref(), Some("out.json"));
        assert_eq!(inv.baseline, "B.json");
        assert!((inv.tolerance - 0.5).abs() < 1e-12);
        assert!(inv.write_baseline);
    }

    #[test]
    fn audit_protocol_flag_resolves_and_gates_on_audit_schema() {
        // Aliases resolve through the registry, like every other surface.
        let cmd = parse_command(&argv("audit cycle:6@0,3 --protocol dp")).unwrap();
        let Command::Audit(inv) = cmd else {
            panic!("expected audit")
        };
        assert_eq!(inv.config.protocol.name(), "dp-anon");
        // A protocol without an audit schema is rejected with a typed
        // capability error, not an unknown-name error (and not a panic
        // later in the run).
        let err = parse_command(&argv("audit cycle:6 --protocol anonymous")).unwrap_err();
        assert!(err.0.contains("not auditable"), "{}", err.0);
        assert!(parse_command(&argv("audit cycle:6 --protocol warp")).is_err());
        assert!(parse_command(&argv("audit cycle:6 --protocol")).is_err());
    }

    #[test]
    fn audit_rejects_nonsense() {
        assert!(parse_command(&argv("audit")).is_err());
        assert!(parse_command(&argv("audit nosuch:5")).is_err());
        assert!(parse_command(&argv("audit cycle:6@x")).is_err());
        for engine in ["warp", "free", "both"] {
            let err =
                parse_command(&argv(&format!("audit cycle:6 --engine {engine}"))).unwrap_err();
            assert!(err.0.contains("unknown engine"), "{engine}: {}", err.0);
        }
        assert!(parse_command(&argv("audit cycle:6 --tolerance -1")).is_err());
        assert!(parse_command(&argv("audit cycle:6 --tolerance x")).is_err());
        assert!(parse_command(&argv("audit cycle:6 --frobnicate")).is_err());
        assert!(parse_command(&argv("audit --seeds 1")).is_err());
    }

    #[test]
    fn parses_faults_defaults() {
        let cmd = parse_command(&argv("faults cycle:6@0,2,3 petersen@0,1")).unwrap();
        let Command::Faults(inv) = cmd else {
            panic!("expected faults")
        };
        assert_eq!(inv.config.instances.len(), 2);
        assert_eq!(inv.config.instances[0].key(), "cycle:6@0,2,3");
        assert_eq!(inv.config.instances[1].agents, vec![0, 1]);
        assert_eq!(inv.config.seeds, vec![0, 1]);
        assert_eq!(inv.config.plans, 3);
        assert_eq!(inv.config.crashes, 2);
        assert_eq!(inv.config.delays, 1);
        assert_eq!(inv.config.engines, Engine::ALL, "default: both engines");
        assert!(inv.json.is_none());
    }

    #[test]
    fn parses_faults_full_options() {
        let cmd = parse_command(&argv(
            "faults cycle:6@0,3 --seeds 4,5 --plans 2 --crashes 3 --delays 0 \
             --engine gated --json f.json",
        ))
        .unwrap();
        let Command::Faults(inv) = cmd else {
            panic!("expected faults")
        };
        assert_eq!(inv.config.seeds, vec![4, 5]);
        assert_eq!(inv.config.plans, 2);
        assert_eq!(inv.config.crashes, 3);
        assert_eq!(inv.config.delays, 0);
        assert_eq!(inv.config.engines, vec![Engine::Gated]);
        assert_eq!(inv.json.as_deref(), Some("f.json"));
    }

    #[test]
    fn faults_rejects_nonsense() {
        assert!(parse_command(&argv("faults")).is_err());
        assert!(parse_command(&argv("faults nosuch:5")).is_err());
        assert!(parse_command(&argv("faults cycle:6@x")).is_err());
        for engine in ["warp", "free", "both"] {
            let err =
                parse_command(&argv(&format!("faults cycle:6 --engine {engine}"))).unwrap_err();
            assert!(err.0.contains("unknown engine"), "{engine}: {}", err.0);
        }
        assert!(parse_command(&argv("faults cycle:6 --plans 0")).is_err());
        assert!(parse_command(&argv("faults cycle:6 --crashes x")).is_err());
        assert!(parse_command(&argv("faults cycle:6 --frobnicate")).is_err());
        assert!(parse_command(&argv("faults --seeds 1")).is_err());
    }

    #[test]
    fn sweep_rejects_nonsense() {
        assert!(parse_command(&argv("sweep --frobnicate")).is_err());
        assert!(parse_command(&argv("sweep --trials")).is_err());
        assert!(parse_command(&argv("sweep --trials x")).is_err());
        assert!(parse_command(&argv("sweep --repeats 0")).is_err());
        assert!(parse_command(&argv("sweep --bucket 8:5:0.2")).is_err());
        assert!(parse_command(&argv("sweep --bucket 5:8")).is_err());
        assert!(parse_command(&argv("sweep --bucket 5:8:x")).is_err());
    }

    #[test]
    fn parses_serve_defaults_and_options() {
        let cmd = parse_command(&argv("serve")).unwrap();
        let Command::Serve(inv) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(inv.config.addr, "127.0.0.1:7007");
        assert_eq!(inv.config.workers, 4);
        assert!(inv.duration_secs.is_none());
        assert!(!inv.config.debug);
        let cmd = parse_command(&argv(
            "serve --addr 127.0.0.1:0 --workers 2 --io-threads 8 \
             --queue-cap 5 --retry-after-ms 20 --duration 3 --debug",
        ))
        .unwrap();
        let Command::Serve(inv) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(inv.config.addr, "127.0.0.1:0");
        assert_eq!(inv.config.workers, 2);
        assert_eq!(inv.config.io_threads, 8);
        assert_eq!(inv.config.queue_cap, 5);
        assert_eq!(inv.config.retry_after_ms, 20);
        assert_eq!(inv.duration_secs, Some(3));
        assert!(inv.config.debug);
    }

    #[test]
    fn serve_rejects_nonsense() {
        assert!(parse_command(&argv("serve --workers 0")).is_err());
        assert!(parse_command(&argv("serve --queue-cap 0")).is_err());
        assert!(parse_command(&argv("serve --io-threads 0")).is_err());
        assert!(parse_command(&argv("serve --shards 0")).is_err());
        assert!(parse_command(&argv("serve --duration x")).is_err());
        assert!(parse_command(&argv("serve --frobnicate")).is_err());
    }

    #[test]
    fn parses_serve_shards_and_store() {
        let cmd = parse_command(&argv("serve --shards 4 --store /tmp/q.bin")).unwrap();
        let Command::Serve(inv) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(inv.config.shards, 4);
        assert_eq!(inv.config.store.as_deref(), Some("/tmp/q.bin"));
        let cmd = parse_command(&argv("serve")).unwrap();
        let Command::Serve(inv) = cmd else {
            panic!("expected serve")
        };
        assert_eq!(inv.config.shards, 1, "single shard by default");
        assert!(inv.config.store.is_none(), "no store by default");
    }

    #[test]
    fn parses_load_defaults_and_options() {
        let cmd = parse_command(&argv("load")).unwrap();
        let Command::Load(inv) = cmd else {
            panic!("expected load")
        };
        assert!(inv.config.addr.is_none(), "default: in-process server");
        assert_eq!(inv.config.clients, 4);
        assert_eq!(inv.config.duration_secs, 5);
        assert!(inv.config.mix.is_empty(), "empty mix selects the default");
        assert_eq!(inv.json, "BENCH_serve.json");
        let cmd = parse_command(&argv(
            "load --addr 127.0.0.1:7007 --workers 8 --duration 2 \
             --policy lockstep --mix cycle:9@0,1,3 --mix petersen@0,1 \
             --drain-burst 4 --json L.json",
        ))
        .unwrap();
        let Command::Load(inv) = cmd else {
            panic!("expected load")
        };
        assert_eq!(inv.config.addr.as_deref(), Some("127.0.0.1:7007"));
        assert_eq!(inv.config.clients, 8);
        assert_eq!(inv.config.duration_secs, 2);
        assert_eq!(inv.config.policy, Policy::Lockstep);
        assert_eq!(inv.config.mix, vec!["cycle:9@0,1,3", "petersen@0,1"]);
        assert_eq!(inv.config.drain_burst, 4);
        assert_eq!(inv.json, "L.json");
    }

    #[test]
    fn load_rejects_nonsense() {
        assert!(parse_command(&argv("load --workers 0")).is_err());
        assert!(parse_command(&argv("load --mix nosuch:5")).is_err());
        assert!(parse_command(&argv("load --mix cycle:6@0,0")).is_err());
        assert!(parse_command(&argv("load --policy warp")).is_err());
        assert!(parse_command(&argv("load --engine warp")).is_err());
        assert!(parse_command(&argv("load --engine free")).is_err());
        assert!(parse_command(&argv("load --batch 100000")).is_err());
        assert!(parse_command(&argv("load --shards 0")).is_err());
        assert!(
            parse_command(&argv("load --chaos 2")).is_err(),
            "chaos without a store is meaningless"
        );
        assert!(
            parse_command(&argv(
                "load --chaos 2 --store /tmp/q.bin --addr 127.0.0.1:1"
            ))
            .is_err(),
            "chaos owns the daemon lifecycle"
        );
        assert!(parse_command(&argv("load --frobnicate")).is_err());
    }

    #[test]
    fn parses_load_batch_shards_store_chaos() {
        let cmd = parse_command(&argv(
            "load --batch 16 --engine sim --shards 4 --store /tmp/q.bin --chaos 2",
        ))
        .unwrap();
        let Command::Load(inv) = cmd else {
            panic!("expected load")
        };
        assert_eq!(inv.config.batch, 16);
        assert_eq!(inv.config.engine, "sim");
        assert_eq!(inv.config.serve.shards, 4);
        assert_eq!(inv.config.serve.store.as_deref(), Some("/tmp/q.bin"));
        assert_eq!(inv.config.chaos, 2);
        let cmd = parse_command(&argv("load")).unwrap();
        let Command::Load(inv) = cmd else {
            panic!("expected load")
        };
        assert_eq!(inv.config.batch, 0, "single-request mode by default");
        assert_eq!(inv.config.engine, "gated");
        assert_eq!(inv.config.chaos, 0);
    }

    #[test]
    fn parses_benchgate_defaults_and_options() {
        let cmd = parse_command(&argv("benchgate")).unwrap();
        let Command::Benchgate(inv) = cmd else {
            panic!("expected benchgate")
        };
        assert_eq!(inv.config.dir, ".");
        assert_eq!(inv.config.tolerance, 0.15);
        assert!(inv.config.min_warm_rps.is_none());
        let cmd = parse_command(&argv(
            "benchgate --dir bench --tolerance 0.05 --min-warm-rps 1000",
        ))
        .unwrap();
        let Command::Benchgate(inv) = cmd else {
            panic!("expected benchgate")
        };
        assert_eq!(inv.config.dir, "bench");
        assert_eq!(inv.config.tolerance, 0.05);
        assert_eq!(inv.config.min_warm_rps, Some(1000.0));
    }

    #[test]
    fn benchgate_rejects_nonsense() {
        assert!(parse_command(&argv("benchgate --tolerance 1.5")).is_err());
        assert!(parse_command(&argv("benchgate --min-warm-rps -3")).is_err());
        assert!(parse_command(&argv("benchgate --frobnicate")).is_err());
    }

    #[test]
    fn parses_simbench_defaults_and_options() {
        let cmd = parse_command(&argv("simbench")).unwrap();
        let Command::Simbench(inv) = cmd else {
            panic!("expected simbench")
        };
        assert_eq!(inv.config.seeds, vec![0, 1, 2]);
        assert_eq!(inv.config.repeats, 8);
        assert_eq!(inv.json, "BENCH_sim.json");
        assert!(
            inv.config.instances.len() >= 4,
            "the default ladder has several rungs"
        );
        assert!(
            inv.config.instances.iter().any(|i| i.agents.len() == 12),
            "the ladder tops out at r=12"
        );
        let cmd = parse_command(&argv(
            "simbench cycle:6@0,3 circulant:12:1,3@0,1,3 --seeds 4,5 \
             --repeats 2 --json S.json",
        ))
        .unwrap();
        let Command::Simbench(inv) = cmd else {
            panic!("expected simbench")
        };
        assert_eq!(inv.config.seeds, vec![4, 5]);
        assert_eq!(inv.config.repeats, 2);
        assert_eq!(inv.json, "S.json");
        let keys: Vec<String> = inv.config.instances.iter().map(|i| i.key()).collect();
        assert_eq!(keys, vec!["cycle:6@0,3", "circulant:12:1,3@0,1,3"]);
    }

    #[test]
    fn simbench_rejects_nonsense() {
        assert!(parse_command(&argv("simbench --repeats 0")).is_err());
        assert!(parse_command(&argv("simbench --seeds")).is_err());
        assert!(parse_command(&argv("simbench nosuch:5")).is_err());
        assert!(parse_command(&argv("simbench --frobnicate")).is_err());
    }

    #[test]
    fn parses_canonbench_defaults_and_options() {
        let cmd = parse_command(&argv("canonbench")).unwrap();
        let Command::Canonbench(inv) = cmd else {
            panic!("expected canonbench")
        };
        assert_eq!(inv.config.repeats, 5);
        assert_eq!(
            inv.config.elect_sizes,
            crate::canonbench::ELECT_LADDER.to_vec()
        );
        assert_eq!(inv.json, "BENCH_canon.json");
        assert_eq!(
            inv.config.instances.len(),
            7,
            "the default ladder has seven rungs"
        );
        assert!(
            inv.config
                .instances
                .iter()
                .any(|i| i.key() == "circulant:512:1,3@0,1"),
            "the ladder tops out at circulant:512"
        );
        let cmd = parse_command(&argv(
            "canonbench circulant:34:1,3@0,17 torus:4x4@0,1 --repeats 5 \
             --json C.json",
        ))
        .unwrap();
        let Command::Canonbench(inv) = cmd else {
            panic!("expected canonbench")
        };
        assert_eq!(inv.config.repeats, 5);
        assert_eq!(inv.json, "C.json");
        let keys: Vec<String> = inv.config.instances.iter().map(|i| i.key()).collect();
        assert_eq!(keys, vec!["circulant:34:1,3@0,17", "torus:4x4@0,1"]);
    }

    #[test]
    fn canonbench_rejects_nonsense() {
        assert!(parse_command(&argv("canonbench --repeats 0")).is_err());
        assert!(parse_command(&argv("canonbench nosuch:5")).is_err());
        assert!(parse_command(&argv("canonbench --frobnicate")).is_err());
    }

    #[test]
    fn explore_rejects_nonsense() {
        assert!(parse_command(&argv("explore")).is_err());
        assert!(parse_command(&argv("explore nosuch:5")).is_err());
        assert!(parse_command(&argv("explore cycle:5 --target warp")).is_err());
        assert!(parse_command(&argv("explore cycle:5 --engine warp")).is_err());
        assert!(parse_command(&argv("explore cycle:5 --engine free")).is_err());
        assert!(parse_command(&argv("explore cycle:5 --workers x")).is_err());
        assert!(parse_command(&argv("explore cycle:5 --frobnicate")).is_err());
        assert!(parse_command(&argv("explore cycle:5 --emit-trace")).is_err());
        // A registered protocol that is not explorable is rejected with a
        // capability error, not an unknown-name error.
        let err = parse_command(&argv("explore cycle:5 --target view")).unwrap_err();
        assert!(err.0.contains("not explorable"), "{}", err.0);
    }

    #[test]
    fn path_flags_share_one_validated_parser() {
        // Every path-taking explore flag rejects a missing value and a
        // following flag mistaken for its value, with the same shape of
        // message — the single `parse_path_flag` path.
        for flag in ["--emit-trace", "--emit-shrunk", "--json"] {
            let err = parse_command(&argv(&format!("explore cycle:5 {flag}"))).unwrap_err();
            assert!(err.0.contains("needs a path"), "{flag}: {}", err.0);
            let err =
                parse_command(&argv(&format!("explore cycle:5 {flag} --seed 3"))).unwrap_err();
            assert!(err.0.contains("needs a path"), "{flag}: {}", err.0);
        }
        // The audit path flags route through the same parser.
        let err = parse_command(&argv("audit cycle:6 --json --baseline B.json")).unwrap_err();
        assert!(err.0.contains("needs a path"), "{}", err.0);
    }

    #[test]
    fn explore_targets_new_protocols() {
        for (name, resolved) in [("dp", "dp-anon"), ("agent-elect", "agent-elect")] {
            let cmd = parse_command(&argv(&format!("explore cycle:6 --target {name}"))).unwrap();
            let Command::Explore(inv) = cmd else {
                panic!("expected explore")
            };
            assert_eq!(inv.target.name(), resolved);
        }
    }

    #[test]
    fn parses_zoo_defaults() {
        let cmd = parse_command(&argv("zoo")).unwrap();
        let Command::Zoo(inv) = cmd else {
            panic!("expected zoo")
        };
        assert_eq!(inv.json, "BENCH_zoo.json");
        assert_eq!(inv.config.instances.len(), 4);
        assert_eq!(inv.config.seed, 0);
        let names: Vec<&str> = inv.config.protocols.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["elect", "cayley", "quantitative", "dp-anon", "agent-elect"]
        );
    }

    #[test]
    fn parses_zoo_full_options() {
        let cmd = parse_command(&argv(
            "zoo cycle:6@0,3 path:5@1,3 --protocols elect,dp --seed 9 \
             --engine sim --json /tmp/z.json",
        ))
        .unwrap();
        let Command::Zoo(inv) = cmd else {
            panic!("expected zoo")
        };
        assert_eq!(inv.json, "/tmp/z.json");
        assert_eq!(inv.config.seed, 9);
        assert_eq!(inv.config.engine, Engine::Sim);
        assert_eq!(inv.config.instances.len(), 2);
        assert_eq!(inv.config.instances[0].key(), "cycle:6@0,3");
        let names: Vec<&str> = inv.config.protocols.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["elect", "dp-anon"]);
    }

    #[test]
    fn zoo_rejects_nonsense() {
        assert!(parse_command(&argv("zoo nosuch:5")).is_err());
        assert!(parse_command(&argv("zoo cycle:6@x")).is_err());
        assert!(parse_command(&argv("zoo --protocols warp")).is_err());
        assert!(parse_command(&argv("zoo --engine warp")).is_err());
        assert!(parse_command(&argv("zoo --frobnicate")).is_err());
    }

    #[test]
    fn load_parses_protocol_flag() {
        let cmd = parse_command(&argv("load --protocol dp")).unwrap();
        let Command::Load(inv) = cmd else {
            panic!("expected load")
        };
        assert_eq!(inv.config.protocol, "dp-anon");
        // Default stays the default wire name.
        let Command::Load(inv) = parse_command(&argv("load")).unwrap() else {
            panic!("expected load")
        };
        assert_eq!(inv.config.protocol, "elect");
        // Unservable and unknown protocols are parse errors.
        let err = parse_command(&argv("load --protocol view")).unwrap_err();
        assert!(err.0.contains("not servable"), "{}", err.0);
        assert!(parse_command(&argv("load --protocol warp")).is_err());
    }
}
