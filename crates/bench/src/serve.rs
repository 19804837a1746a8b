//! `qelectd` — the long-running election service behind
//! `qelectctl serve`.
//!
//! The daemon turns ELECT into a query service: HTTP/1.1 POSTs carrying
//! [`qelect-request/1`] JSON run on a bounded worker pool that shares
//! the process-wide canonical-form cache and the per-instance
//! [`PreparedElection`] cache across requests, so repeated instances pay
//! graph construction, the gcd oracle, and COMPUTE & ORDER once.
//!
//! Everything is `std` (the workspace builds offline): a
//! `TcpListener` shared by a fixed pool of I/O threads, the thread-pool
//! idioms of `sweep.rs` for the election workers, and hand-rolled
//! HTTP/1.1 framing (request line + headers + `Content-Length` body,
//! keep-alive connections).
//!
//! **Backpressure** — admission is a bounded queue. A request whose job
//! cannot be queued is answered `503` with a JSON body carrying
//! `retry_after_ms`; nothing is buffered beyond the bound. The fixed
//! I/O pool bounds concurrent connections the same way (excess
//! connections wait in the OS accept backlog).
//!
//! **Single-flight dedup** — identical `(instance, config)` requests
//! in flight share one execution: the second arrival attaches to the
//! first's result cell instead of consuming queue capacity. On either
//! engine a run is a pure function of `(instance, config)`, so a
//! coalesced response is bit-identical to a private run.
//!
//! **Graceful shutdown** — `POST /shutdown` (or
//! [`ServerHandle::shutdown`] in process, which `qelectctl serve
//! --duration` drives) flips the daemon to *draining*: new elections
//! are refused with `503`, every admitted job still runs, every parked
//! waiter gets its response, and the final `/metrics` snapshot is
//! flushed before the threads exit. (Catching SIGTERM directly would
//! need `unsafe` FFI, which the workspace forbids; the drain path is
//! the same either way.)
//!
//! **Instance-affine shards** — with `--shards N` the daemon runs N
//! in-process shards, each owning its own admission queue, worker
//! pool and prepared-instance map.
//! Requests are routed by the *canonical* fingerprint of their
//! instance (isomorphic presentations share one canonical form, so
//! they land on the same shard), which keeps warm per-instance state
//! unduplicated across shards. `--shards 1` (the default) is the
//! original single-queue daemon.
//!
//! **Protocol routing** — every request envelope (single and per batch
//! item) accepts an optional `"protocol"` field naming a registry
//! protocol with the `servable` capability (`qelect::registry`). An
//! absent field means the default protocol (`elect`) and parses,
//! executes and renders exactly as before the field existed; an
//! explicit `"protocol": "elect"` coalesces with the absent form. The
//! `solvable`/`gcd` response fields stay instance-level gcd-oracle
//! facts for every protocol.
//!
//! **Batching** — `POST /v1/batch` carries a `requests` array; the
//! envelope is parsed once, every item fans out through the same
//! admission/single-flight machinery (across all shards concurrently),
//! and one aggregated response carries a per-item result array in
//! request order. Per-item failures (bad spec, queue-full) are
//! per-item error objects; the batch itself still answers `200`.
//!
//! **Durable canonical-form store** — with `--store PATH` the daemon
//! appends every canonical form it computes (via the canon-cache
//! observer) and every instance spec it prepares to an append-only,
//! CRC-checked record log ([`crate::store`]). On startup the log is
//! replayed: canonical forms seed the cache, specs rebuild the
//! prepared-instance maps on their home shards — so a restarted
//! daemon, even after a SIGKILL, answers its first requests from a
//! warm cache.
//!
//! Endpoints: `POST /v1/elect`, `POST /v1/batch`, `GET /healthz`,
//! `GET /metrics`, `POST /admin/cache`, `POST /shutdown`. All
//! responses are schema-versioned [`qelect-response/1`] documents.
//!
//! [`qelect-request/1`]: qelect_agentsim::json::envelope::REQUEST
//! [`qelect-response/1`]: qelect_agentsim::json::envelope::RESPONSE
//! [`PreparedElection`]: qelect::service::PreparedElection

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use qelect::registry as protocol_registry;
use qelect::service::PreparedElection;
use qelect_agentsim::json::{self, envelope, escape, get, Value};
use qelect_agentsim::registry::ProtocolEntry;
use qelect_agentsim::sched::Policy;
use qelect_agentsim::{Engine, FaultPlan, FaultSummary, RunConfig};
use qelect_graph::cache as gcache;
use qelect_graph::ColoredDigraph;

use crate::spec::InstanceSpec;
use crate::store::Store;

/// Configuration of one daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Election worker threads *per shard* (the compute pool).
    pub workers: usize,
    /// Connection-handler threads (bounds concurrent connections).
    pub io_threads: usize,
    /// Admission-queue capacity *per shard* (queued, not-yet-running
    /// jobs).
    pub queue_cap: usize,
    /// The `retry_after_ms` hint sent with queue-full 503s.
    pub retry_after_ms: u64,
    /// Instance-affine shards (1 = the original single-queue daemon).
    pub shards: usize,
    /// Path of the durable canonical-form store (`None`: memory only).
    pub store: Option<String>,
    /// Honor the `debug_sleep_ms` request field (integration tests use
    /// it to hold workers busy deterministically). Off in production.
    pub debug: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            io_threads: 16,
            queue_cap: 64,
            retry_after_ms: 50,
            shards: 1,
            store: None,
            debug: false,
        }
    }
}

/// Largest `requests` array `POST /v1/batch` accepts.
pub const MAX_BATCH: usize = 256;

/// Daemon lifecycle states.
const RUNNING: u8 = 0;
/// Draining: new elections are refused with 503, admitted jobs finish,
/// and the observability endpoints keep answering.
const DRAINING: u8 = 1;
/// Stopping: the owner is joining the threads; acceptors exit.
const STOPPING: u8 = 2;

/// A validated election job, ready for the worker pool.
struct Job {
    key: String,
    class: String,
    prepared: Arc<PreparedElection>,
    entry: &'static ProtocolEntry,
    cfg: RunConfig,
    sleep_ms: u64,
    cell: Arc<JobCell>,
    enqueued: Instant,
}

/// The fields of a finished election every waiter renders its response
/// from (the single-flight shared result).
#[derive(Debug, Clone)]
struct ElectionResult {
    outcome: &'static str,
    leader: Option<usize>,
    moves: u64,
    accesses: u64,
    steps: u64,
    faults: FaultSummary,
    queue_us: u64,
    run_us: u64,
}

/// A single-flight result cell: the first identical request creates it,
/// later ones park on it.
struct JobCell {
    done: Mutex<Option<Result<ElectionResult, String>>>,
    cond: Condvar,
}

impl JobCell {
    fn new() -> JobCell {
        JobCell {
            done: Mutex::new(None),
            cond: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<ElectionResult, String>) {
        *self.done.lock() = Some(result);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<ElectionResult, String> {
        let mut done = self.done.lock();
        while done.is_none() {
            self.cond.wait(&mut done);
        }
        done.clone().expect("checked above")
    }
}

/// Per-request-class (graph family) counters.
#[derive(Debug, Clone, Default)]
struct ClassStats {
    requests: u64,
    coalesced: u64,
    rejected: u64,
    completed: u64,
    queued_now: u64,
}

/// Tear-free daemon-wide counters: everything `/metrics` reports.
#[derive(Default)]
struct ServerStats {
    requests: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_draining: AtomicU64,
    bad_requests: AtomicU64,
    /// `POST /v1/batch` envelopes accepted.
    batches: AtomicU64,
    /// Items fanned out of batch envelopes (each also counts in
    /// `requests`).
    batch_items: AtomicU64,
    /// Aggregated run totals (moves, accesses, waits) over completed
    /// elections — the AgentMetrics aggregate.
    moves: AtomicU64,
    accesses: AtomicU64,
    waits: AtomicU64,
    run_us: AtomicU64,
    queue_us: AtomicU64,
    /// Per-phase SpanTracker aggregates: phase → (spans, moves,
    /// accesses, waits), first-appearance order.
    phases: Mutex<Vec<(String, [u64; 4])>>,
    /// Per-class counters, first-appearance order.
    classes: Mutex<Vec<(String, ClassStats)>>,
}

impl ServerStats {
    fn class<R>(&self, class: &str, f: impl FnOnce(&mut ClassStats) -> R) -> R {
        let mut classes = self.classes.lock();
        if let Some(idx) = classes.iter().position(|(name, _)| name == class) {
            return f(&mut classes[idx].1);
        }
        classes.push((class.to_string(), ClassStats::default()));
        let last = classes.len() - 1;
        f(&mut classes[last].1)
    }

    fn record_run(&self, metrics: &qelect_agentsim::Metrics, queue_us: u64, run_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.moves
            .fetch_add(metrics.total_moves(), Ordering::Relaxed);
        self.accesses
            .fetch_add(metrics.total_accesses(), Ordering::Relaxed);
        self.waits
            .fetch_add(metrics.total_waits(), Ordering::Relaxed);
        self.queue_us.fetch_add(queue_us, Ordering::Relaxed);
        self.run_us.fetch_add(run_us, Ordering::Relaxed);
        let mut phases = self.phases.lock();
        for row in metrics.phase_breakdown() {
            let agg = match phases.iter_mut().find(|(name, _)| *name == row.phase) {
                Some((_, agg)) => agg,
                None => {
                    phases.push((row.phase.clone(), [0; 4]));
                    &mut phases.last_mut().expect("just pushed").1
                }
            };
            agg[0] += row.spans;
            agg[1] += row.moves;
            agg[2] += row.accesses;
            agg[3] += row.waits;
        }
    }
}

/// One instance-affine shard: its own admission queue, single-flight
/// table and prepared-instance map. Warm state for an instance lives on exactly one shard (the
/// one its canonical fingerprint routes to).
struct ShardState {
    queue: Mutex<VecDeque<Job>>,
    queue_cond: Condvar,
    inflight: Mutex<HashMap<String, Arc<JobCell>>>,
    instances: Mutex<HashMap<String, Arc<PreparedElection>>>,
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            instances: Mutex::new(HashMap::new()),
        }
    }
}

/// The shared daemon state every thread hangs off.
struct Daemon {
    cfg: ServeConfig,
    addr: SocketAddr,
    state: AtomicU8,
    shards: Vec<ShardState>,
    /// Spec key → shard index, memoizing the canonical-fingerprint
    /// routing decision. Isomorphic specs get distinct entries but the
    /// same index (their canonical forms coincide). Survives
    /// `/admin/cache` clears: routes are pure functions of the spec.
    routes: Mutex<HashMap<String, usize>>,
    store: Option<Arc<Store>>,
    /// `(canon entries, spec keys)` recovered from the store at boot.
    replayed: (usize, usize),
    stats: ServerStats,
    started: Instant,
}

impl Daemon {
    fn draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) != RUNNING
    }

    fn stopping(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STOPPING
    }
}

/// What admission decided for one election request.
enum Admission {
    /// Wait on this cell; `bool` is the coalesced flag.
    Wait(Arc<JobCell>, bool),
    /// Queue full — 503 with retry-after.
    Full,
    /// Draining — 503 without retry (the daemon is going away).
    Draining,
}

/// A parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: String,
    keep_alive: bool,
}

/// Largest request body the daemon accepts.
const MAX_BODY: usize = 1 << 20;

fn read_request(stream: &mut BufReader<TcpStream>) -> Result<Option<HttpRequest>, String> {
    let mut line = String::new();
    match stream.read_line(&mut line) {
        Ok(0) => return Ok(None), // clean EOF between requests
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => return Ok(None),
        Err(e) => return Err(format!("read: {e}")),
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(format!("malformed request line {line:?}"));
    }
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    loop {
        let mut header = String::new();
        stream.read_line(&mut header).map_err(|e| format!("{e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(format!("malformed header {header:?}"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| format!("body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Some(HttpRequest {
        method,
        path,
        body,
        keep_alive,
    }))
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status_text(code),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// An error body: `qelect-response/1` with `kind: "error"`.
fn error_body(message: &str, retry_after_ms: Option<u64>) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&envelope::header(envelope::RESPONSE));
    s.push_str("  \"kind\": \"error\",\n");
    s.push_str(&format!("  \"error\": {}", escape(message)));
    if let Some(ms) = retry_after_ms {
        s.push_str(&format!(",\n  \"retry_after_ms\": {ms}"));
    }
    s.push_str("\n}\n");
    s
}

/// Stable name of a policy (the CLI's vocabulary).
pub fn policy_name(policy: Policy) -> &'static str {
    match policy {
        Policy::Random => "random",
        Policy::RoundRobin => "round-robin",
        Policy::Lockstep => "lockstep",
        Policy::GreedyLowest => "greedy",
    }
}

/// Parse a policy name (the CLI's vocabulary).
pub fn parse_policy(s: &str) -> Option<Policy> {
    Some(match s {
        "random" => Policy::Random,
        "round-robin" | "rr" => Policy::RoundRobin,
        "lockstep" => Policy::Lockstep,
        "greedy" => Policy::GreedyLowest,
        _ => return None,
    })
}

/// A parsed, validated `qelect-request/1` body.
struct ElectRequest {
    spec: InstanceSpec,
    /// The registry entry the optional `"protocol"` field resolved to
    /// (the default entry when the field is absent).
    protocol: &'static ProtocolEntry,
    policy: Policy,
    seed: u64,
    faults: FaultPlan,
    faults_key: String,
    sleep_ms: u64,
}

impl ElectRequest {
    fn parse(body: &str, debug: bool) -> Result<ElectRequest, String> {
        let obj = envelope::check_document(body, envelope::REQUEST)?;
        ElectRequest::from_obj(&obj, debug)
    }

    /// Parse one request object — the single-request document after its
    /// envelope check, or one item of a batch's `requests` array (batch
    /// items carry no per-item `schema`; the envelope was checked once).
    fn from_obj(obj: &[(String, Value)], debug: bool) -> Result<ElectRequest, String> {
        let spec_text = get(obj, "spec")
            .and_then(Value::as_str)
            .ok_or("request needs a \"spec\" string")?;
        let spec = InstanceSpec::parse(spec_text).map_err(|e| e.to_string())?;
        spec.bicolored().map_err(|e| e.to_string())?;
        // The optional `"protocol"` field resolves through the one
        // registry path; absent means the default protocol, so requests
        // predating the field parse (and execute) exactly as before.
        let protocol = match get(obj, "protocol") {
            None => protocol_registry::default_entry(),
            Some(v) => {
                let name = v.as_str().ok_or("\"protocol\" must be a string")?;
                let entry = protocol_registry::resolve(name)?;
                if !entry.caps.servable {
                    return Err(format!("protocol {:?} is not servable", entry.id.name()));
                }
                entry
            }
        };
        // `engine` and `policy` are optional, but a present value must
        // be a known name: a mistyped one is a bad request, never the
        // default. The one engine is `sim`, so a valid `engine` field
        // changes nothing.
        if let Some(v) = get(obj, "engine") {
            let name = v.as_str().ok_or("\"engine\" must be a string")?;
            Engine::parse(name).ok_or_else(|| format!("unknown engine {name:?}"))?;
        }
        let policy = match get(obj, "policy") {
            None => Policy::Random,
            Some(v) => {
                let name = v.as_str().ok_or("\"policy\" must be a string")?;
                parse_policy(name).ok_or_else(|| format!("unknown policy {name:?}"))?
            }
        };
        let seed = match get(obj, "seed") {
            None => 0,
            Some(v) => v
                .as_num()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .ok_or("\"seed\" must be a non-negative integer")? as u64,
        };
        let (faults, faults_key) = match get(obj, "faults") {
            None | Some(Value::Null) => (FaultPlan::none(), String::new()),
            Some(v) => {
                let text = json::write(v);
                let plan = FaultPlan::from_json(&text).map_err(|e| format!("faults: {e}"))?;
                (plan, text)
            }
        };
        let sleep_ms = match get(obj, "debug_sleep_ms") {
            Some(v) if debug => v
                .as_num()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .ok_or("\"debug_sleep_ms\" must be a non-negative integer")?
                as u64,
            _ => 0,
        };
        Ok(ElectRequest {
            spec,
            protocol,
            policy,
            seed,
            faults,
            faults_key,
            sleep_ms,
        })
    }

    /// Whether the request names a protocol other than the default.
    fn non_default_protocol(&self) -> bool {
        self.protocol.id.name() != protocol_registry::DEFAULT_PROTOCOL
    }

    /// The single-flight key: every field that affects the execution.
    /// The protocol participates only when non-default, so an explicit
    /// `"protocol": "elect"` coalesces with the absent-field form (they
    /// are the same execution).
    fn key(&self) -> String {
        let mut key = format!(
            "{}|{}|{}|{}|{}",
            self.spec.key(),
            policy_name(self.policy),
            self.seed,
            self.sleep_ms,
            self.faults_key,
        );
        if self.non_default_protocol() {
            key.push('|');
            key.push_str(self.protocol.id.name());
        }
        key
    }

    fn run_config(&self) -> RunConfig {
        RunConfig::new(self.seed)
            .policy(self.policy)
            .faults(self.faults.clone())
    }
}

impl Daemon {
    /// The shard an instance is affine to: the canonical fingerprint
    /// of its bi-colored digraph, mod the shard count. Isomorphic
    /// presentations share one canonical form, so they always route to
    /// the same shard — warm state is never duplicated. The decision
    /// is memoized per spec key; a single-shard daemon skips the
    /// canonicalization entirely (byte-compat with the PR 5 daemon).
    fn shard_of(&self, spec: &InstanceSpec) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let key = spec.key();
        if let Some(&idx) = self.routes.lock().get(&key) {
            return idx;
        }
        let bc = spec.bicolored().expect("placement validated at parse time");
        let d = ColoredDigraph::from_bicolored(&bc);
        let canon = gcache::canonicalize_cached(&d);
        let idx = (gcache::fnv_fingerprint(&canon.form.0) % self.shards.len() as u64) as usize;
        self.routes.lock().insert(key, idx);
        idx
    }

    /// Admit an election request on its affine shard: coalesce onto an
    /// identical in-flight job, or enqueue a fresh one within the
    /// shard's admission bound.
    fn admit(&self, req: &ElectRequest) -> Admission {
        let shard_idx = self.shard_of(&req.spec);
        let shard = &self.shards[shard_idx];
        let key = req.key();
        let class = req.spec.family().to_string();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.class(&class, |c| c.requests += 1);
        let mut inflight = shard.inflight.lock();
        if let Some(cell) = inflight.get(&key) {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            self.stats.class(&class, |c| c.coalesced += 1);
            return Admission::Wait(Arc::clone(cell), true);
        }
        if self.draining() {
            self.stats.rejected_draining.fetch_add(1, Ordering::Relaxed);
            self.stats.class(&class, |c| c.rejected += 1);
            return Admission::Draining;
        }
        let mut queue = shard.queue.lock();
        if queue.len() >= self.cfg.queue_cap {
            self.stats
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            self.stats.class(&class, |c| c.rejected += 1);
            return Admission::Full;
        }
        let prepared = self.prepared_on(shard_idx, &req.spec);
        let cell = Arc::new(JobCell::new());
        inflight.insert(key.clone(), Arc::clone(&cell));
        self.stats.class(&class, |c| c.queued_now += 1);
        queue.push_back(Job {
            key,
            class,
            prepared,
            entry: req.protocol,
            cfg: req.run_config(),
            sleep_ms: req.sleep_ms,
            cell: Arc::clone(&cell),
            enqueued: Instant::now(),
        });
        drop(queue);
        shard.queue_cond.notify_one();
        Admission::Wait(cell, false)
    }

    /// The routed equivalent of the old per-daemon instance cache.
    fn prepared(&self, spec: &InstanceSpec) -> Arc<PreparedElection> {
        self.prepared_on(self.shard_of(spec), spec)
    }

    /// The per-instance cache of one shard: spec key → prepared
    /// instance (graph + placement + oracle verdict), shared across
    /// requests. A miss prepares the instance (warming the
    /// canonical-form cache) and records the spec in the durable store.
    fn prepared_on(&self, shard_idx: usize, spec: &InstanceSpec) -> Arc<PreparedElection> {
        let shard = &self.shards[shard_idx];
        let key = spec.key();
        let mut instances = shard.instances.lock();
        if let Some(prep) = instances.get(&key) {
            return Arc::clone(prep);
        }
        let bc = spec.bicolored().expect("placement validated at parse time");
        let prep = Arc::new(PreparedElection::new(bc));
        if let Some(store) = &self.store {
            let _ = store.record_spec(&key);
        }
        instances.insert(key, Arc::clone(&prep));
        prep
    }

    /// The election-worker loop of one shard: drain its admission
    /// queue until the daemon stops. During draining the queue is
    /// still emptied — that is the graceful part.
    fn worker_loop(&self, shard_idx: usize) {
        let shard = &self.shards[shard_idx];
        loop {
            let job = {
                let mut queue = shard.queue.lock();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.draining() {
                        return;
                    }
                    shard
                        .queue_cond
                        .wait_for(&mut queue, Duration::from_millis(100));
                }
            };
            self.stats.class(&job.class, |c| {
                c.queued_now = c.queued_now.saturating_sub(1);
            });
            let queue_us = job.enqueued.elapsed().as_micros() as u64;
            if job.sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(job.sleep_ms));
            }
            let started = Instant::now();
            // Uniform dispatch through the registry entry: for the
            // default protocol this is exactly `PreparedElection::run`
            // (both call `run_election`, a pure function of instance
            // and config), so pre-registry responses are byte-stable.
            let result = match job.entry.run(job.prepared.instance(), &job.cfg) {
                Ok(run) => {
                    let run_us = started.elapsed().as_micros() as u64;
                    let outcome = if run.clean_election() {
                        "elected"
                    } else if run.unanimous_unsolvable() {
                        "unsolvable"
                    } else {
                        "indeterminate"
                    };
                    self.stats.record_run(&run.report.metrics, queue_us, run_us);
                    self.stats.class(&job.class, |c| c.completed += 1);
                    Ok(ElectionResult {
                        outcome,
                        leader: run.report.leader,
                        moves: run.report.metrics.total_moves(),
                        accesses: run.report.metrics.total_accesses(),
                        steps: run.report.metrics.steps,
                        faults: run.faults,
                        queue_us,
                        run_us,
                    })
                }
                Err(e) => Err(format!("run failed: {e}")),
            };
            // Publish before retiring the key: a request arriving in
            // between coalesces onto the already-filled cell and reads
            // the result immediately.
            job.cell.fill(result);
            shard.inflight.lock().remove(&job.key);
        }
    }

    /// Render the response body for one waiter.
    fn election_body(
        &self,
        req: &ElectRequest,
        result: &ElectionResult,
        coalesced: bool,
    ) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&envelope::header(envelope::RESPONSE));
        s.push_str("  \"kind\": \"election\",\n");
        s.push_str(&format!("  \"spec\": {},\n", escape(&req.spec.key())));
        // The protocol field appears only when non-default, keeping
        // default responses byte-identical to the pre-registry daemon.
        if req.non_default_protocol() {
            s.push_str(&format!(
                "  \"protocol\": {},\n",
                escape(req.protocol.id.name())
            ));
        }
        s.push_str(&format!(
            "  \"engine\": {}, \"policy\": {}, \"seed\": {},\n",
            escape(Engine::Sim.name()),
            escape(policy_name(req.policy)),
            req.seed
        ));
        s.push_str(&format!("  \"outcome\": {},\n", escape(result.outcome)));
        match result.leader {
            Some(i) => s.push_str(&format!("  \"leader\": {i},\n")),
            None => s.push_str("  \"leader\": null,\n"),
        }
        let prep = self.prepared(&req.spec);
        s.push_str(&format!(
            "  \"solvable\": {}, \"gcd\": {},\n",
            prep.solvable(),
            prep.gcd()
        ));
        s.push_str(&format!(
            "  \"moves\": {}, \"accesses\": {}, \"steps\": {},\n",
            result.moves, result.accesses, result.steps
        ));
        if result.faults.any() {
            s.push_str(&format!(
                "  \"faults\": {{\"crashes\": {}, \"restarts\": {}, \"aborted\": {}}},\n",
                result.faults.crashes, result.faults.restarts, result.faults.aborted
            ));
        }
        s.push_str(&format!(
            "  \"coalesced\": {coalesced}, \"queue_us\": {}, \"run_us\": {}\n",
            result.queue_us, result.run_us
        ));
        s.push_str("}\n");
        s
    }

    /// One batch item's result object (single line). The deterministic
    /// fields (spec, engine, policy, seed, outcome, leader, solvable,
    /// gcd, moves, accesses, steps) carry exactly the values a
    /// single-request response would: a run is a pure function of
    /// `(instance, config)`, so the
    /// batch-vs-sequential differential pins this projection
    /// byte-for-byte. Timing fields (`queue_us`, `run_us`) are
    /// measured, not deterministic.
    fn batch_item_body(
        &self,
        req: &ElectRequest,
        result: &ElectionResult,
        coalesced: bool,
    ) -> String {
        let prep = self.prepared(&req.spec);
        let mut s = String::new();
        s.push_str(&format!("{{\"spec\": {}, ", escape(&req.spec.key())));
        if req.non_default_protocol() {
            s.push_str(&format!(
                "\"protocol\": {}, ",
                escape(req.protocol.id.name())
            ));
        }
        s.push_str(&format!(
            "\"engine\": {}, \"policy\": {}, \"seed\": {}, ",
            escape(Engine::Sim.name()),
            escape(policy_name(req.policy)),
            req.seed
        ));
        s.push_str(&format!("\"outcome\": {}, ", escape(result.outcome)));
        match result.leader {
            Some(i) => s.push_str(&format!("\"leader\": {i}, ")),
            None => s.push_str("\"leader\": null, "),
        }
        s.push_str(&format!(
            "\"solvable\": {}, \"gcd\": {}, \"moves\": {}, \"accesses\": {}, \"steps\": {}, ",
            prep.solvable(),
            prep.gcd(),
            result.moves,
            result.accesses,
            result.steps
        ));
        if result.faults.any() {
            s.push_str(&format!(
                "\"faults\": {{\"crashes\": {}, \"restarts\": {}, \"aborted\": {}}}, ",
                result.faults.crashes, result.faults.restarts, result.faults.aborted
            ));
        }
        s.push_str(&format!(
            "\"coalesced\": {coalesced}, \"queue_us\": {}, \"run_us\": {}}}",
            result.queue_us, result.run_us
        ));
        s
    }

    /// `POST /v1/batch`: parse the envelope once, fan every item out
    /// through admission (admit-all-then-wait-all, so items land on
    /// their shards concurrently), and aggregate one response in
    /// request order. Item-level failures are per-item error objects;
    /// only a malformed envelope fails the whole batch.
    fn batch_route(&self, body: &str) -> (u16, String) {
        let obj = match envelope::check_document(body, envelope::REQUEST) {
            Ok(obj) => obj,
            Err(msg) => {
                self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                return (400, error_body(&msg, None));
            }
        };
        let Some(items) = get(&obj, "requests").and_then(Value::as_array) else {
            self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            return (400, error_body("batch needs a \"requests\" array", None));
        };
        if items.is_empty() || items.len() > MAX_BATCH {
            self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            return (
                400,
                error_body(
                    &format!("batch size must be in 1..={MAX_BATCH}, got {}", items.len()),
                    None,
                ),
            );
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .batch_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        // Parse every item, then admit every parsed item before waiting
        // on any: in-flight work spreads over all shards at once.
        let parsed: Vec<Result<ElectRequest, String>> = items
            .iter()
            .map(|item| match item.as_object() {
                Some(fields) => ElectRequest::from_obj(fields, self.cfg.debug),
                None => Err("batch items must be objects".to_string()),
            })
            .collect();
        let admissions: Vec<Option<Admission>> = parsed
            .iter()
            .map(|p| p.as_ref().ok().map(|req| self.admit(req)))
            .collect();
        let mut ok = 0u64;
        let mut failed = 0u64;
        let mut results = Vec::with_capacity(items.len());
        for (p, admission) in parsed.iter().zip(admissions) {
            if let (Ok(req), Some(Admission::Wait(cell, coalesced))) = (p, &admission) {
                if let Ok(result) = cell.wait() {
                    ok += 1;
                    results.push(self.batch_item_body(req, &result, *coalesced));
                    continue;
                }
            }
            failed += 1;
            let rendered = match (p, admission) {
                (Err(msg), _) => {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    format!("{{\"kind\": \"bad_request\", \"error\": {}}}", escape(msg))
                }
                (Ok(_), Some(Admission::Wait(cell, _))) => {
                    let msg = cell.wait().expect_err("success handled above");
                    format!("{{\"kind\": \"failed\", \"error\": {}}}", escape(&msg))
                }
                (Ok(_), Some(Admission::Full)) => format!(
                    "{{\"kind\": \"rejected\", \"error\": \"admission queue full\", \
                     \"retry_after_ms\": {}}}",
                    self.cfg.retry_after_ms
                ),
                (Ok(_), Some(Admission::Draining)) => {
                    "{\"kind\": \"rejected\", \"error\": \"daemon is draining\"}".to_string()
                }
                (Ok(_), None) => unreachable!("parsed items are admitted"),
            };
            results.push(rendered);
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&envelope::header(envelope::RESPONSE));
        s.push_str("  \"kind\": \"batch\",\n");
        s.push_str(&format!(
            "  \"count\": {}, \"ok\": {ok}, \"failed\": {failed},\n",
            results.len()
        ));
        s.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            s.push_str("    ");
            s.push_str(r);
            s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        (200, s)
    }

    fn health_body(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&envelope::header(envelope::RESPONSE));
        s.push_str("  \"kind\": \"health\",\n");
        s.push_str(&format!(
            "  \"status\": {},\n",
            escape(if self.draining() { "draining" } else { "ok" })
        ));
        s.push_str(&format!(
            "  \"uptime_ms\": {}\n",
            self.started.elapsed().as_millis()
        ));
        s.push_str("}\n");
        s
    }

    /// The `/metrics` document: request counters, the aggregated
    /// tear-free run metrics, per-phase span totals, per-class queue
    /// depths, and the canonical-form cache counters.
    fn metrics_body(&self) -> String {
        let s_ = &self.stats;
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&envelope::header(envelope::RESPONSE));
        s.push_str("  \"kind\": \"metrics\",\n");
        s.push_str(&format!(
            "  \"requests\": {}, \"completed\": {}, \"coalesced\": {},\n",
            s_.requests.load(Ordering::Relaxed),
            s_.completed.load(Ordering::Relaxed),
            s_.coalesced.load(Ordering::Relaxed),
        ));
        s.push_str(&format!(
            "  \"rejected_queue_full\": {}, \"rejected_draining\": {}, \"bad_requests\": {},\n",
            s_.rejected_queue_full.load(Ordering::Relaxed),
            s_.rejected_draining.load(Ordering::Relaxed),
            s_.bad_requests.load(Ordering::Relaxed),
        ));
        s.push_str(&format!(
            "  \"batches\": {}, \"batch_items\": {},\n",
            s_.batches.load(Ordering::Relaxed),
            s_.batch_items.load(Ordering::Relaxed),
        ));
        let depths: Vec<usize> = self.shards.iter().map(|sh| sh.queue.lock().len()).collect();
        s.push_str(&format!(
            "  \"queue_depth\": {}, \"queue_cap\": {}, \"workers\": {},\n",
            depths.iter().sum::<usize>(),
            self.cfg.queue_cap,
            self.cfg.workers,
        ));
        s.push_str(&format!(
            "  \"shards\": {}, \"shard_queue_depths\": [{}],\n",
            self.shards.len(),
            depths
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        ));
        {
            // The affinity-routing table: spec → shard, sorted by spec
            // so the document is deterministic.
            let routes = self.routes.lock();
            let mut rows: Vec<(&String, &usize)> = routes.iter().collect();
            rows.sort();
            s.push_str("  \"routes\": [");
            for (i, (spec, shard)) in rows.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"spec\": {}, \"shard\": {shard}}}",
                    escape(spec)
                ));
            }
            s.push_str("],\n");
        }
        if let Some(store) = &self.store {
            let (canon_written, specs_written) = store.written();
            s.push_str(&format!(
                "  \"store\": {{\"replayed_canon\": {}, \"replayed_specs\": {}, \
                 \"written_canon\": {canon_written}, \"written_specs\": {specs_written}}},\n",
                self.replayed.0, self.replayed.1,
            ));
        }
        s.push_str(&format!(
            "  \"totals\": {{\"moves\": {}, \"accesses\": {}, \"waits\": {}, \"queue_us\": {}, \"run_us\": {}}},\n",
            s_.moves.load(Ordering::Relaxed),
            s_.accesses.load(Ordering::Relaxed),
            s_.waits.load(Ordering::Relaxed),
            s_.queue_us.load(Ordering::Relaxed),
            s_.run_us.load(Ordering::Relaxed),
        ));
        let cache = qelect_graph::cache::global().stats();
        s.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \"evictions\": {}, \"collisions\": {}, \"enabled\": {}}},\n",
            cache.hits,
            cache.misses,
            cache.hit_rate(),
            cache.evictions,
            cache.collisions,
            qelect_graph::cache::global().is_enabled(),
        ));
        s.push_str("  \"phases\": [\n");
        {
            let phases = s_.phases.lock();
            for (i, (name, agg)) in phases.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"phase\": {}, \"spans\": {}, \"moves\": {}, \"accesses\": {}, \"waits\": {}}}{}\n",
                    escape(name),
                    agg[0],
                    agg[1],
                    agg[2],
                    agg[3],
                    if i + 1 < phases.len() { "," } else { "" }
                ));
            }
        }
        s.push_str("  ],\n");
        s.push_str("  \"classes\": [\n");
        {
            let classes = s_.classes.lock();
            for (i, (name, c)) in classes.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"class\": {}, \"requests\": {}, \"coalesced\": {}, \"rejected\": {}, \"completed\": {}, \"queue_depth\": {}}}{}\n",
                    escape(name),
                    c.requests,
                    c.coalesced,
                    c.rejected,
                    c.completed,
                    c.queued_now,
                    if i + 1 < classes.len() { "," } else { "" }
                ));
            }
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Apply an `/admin/cache` body: `{"enabled": bool?, "clear": bool?}`.
    fn admin_cache(&self, body: &str) -> Result<String, String> {
        let value = json::parse(body)?;
        let obj = value.as_object().ok_or("admin body must be an object")?;
        if let Some(v) = get(obj, "enabled") {
            match v {
                Value::Bool(on) => qelect_graph::cache::global().set_enabled(*on),
                _ => return Err("\"enabled\" must be a boolean".into()),
            }
        }
        if let Some(Value::Bool(true)) = get(obj, "clear") {
            qelect_graph::cache::global().clear();
            for shard in &self.shards {
                shard.instances.lock().clear();
            }
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&envelope::header(envelope::RESPONSE));
        s.push_str("  \"kind\": \"admin\",\n");
        s.push_str(&format!(
            "  \"cache_enabled\": {}\n",
            qelect_graph::cache::global().is_enabled()
        ));
        s.push_str("}\n");
        Ok(s)
    }

    /// Serve one connection (keep-alive loop).
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        loop {
            let req = match read_request(&mut reader) {
                Ok(Some(req)) => req,
                Ok(None) => return, // idle close / EOF
                Err(msg) => {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    let _ = write_response(&mut writer, 400, &error_body(&msg, None), false);
                    return;
                }
            };
            let keep = req.keep_alive;
            let (code, body) = self.route(&req);
            if write_response(&mut writer, code, &body, keep).is_err() || !keep {
                return;
            }
        }
    }

    /// Dispatch one parsed request to its endpoint.
    fn route(&self, req: &HttpRequest) -> (u16, String) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => (200, self.health_body()),
            ("GET", "/metrics") => (200, self.metrics_body()),
            ("POST", "/shutdown") => {
                self.state.store(DRAINING, Ordering::SeqCst);
                for shard in &self.shards {
                    shard.queue_cond.notify_all();
                }
                (200, self.health_body())
            }
            ("POST", "/admin/cache") => match self.admin_cache(&req.body) {
                Ok(body) => (200, body),
                Err(msg) => {
                    self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                    (400, error_body(&msg, None))
                }
            },
            ("POST", "/v1/elect") => {
                let parsed = match ElectRequest::parse(&req.body, self.cfg.debug) {
                    Ok(parsed) => parsed,
                    Err(msg) => {
                        self.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                        return (400, error_body(&msg, None));
                    }
                };
                match self.admit(&parsed) {
                    Admission::Wait(cell, coalesced) => match cell.wait() {
                        Ok(result) => (200, self.election_body(&parsed, &result, coalesced)),
                        Err(msg) => (500, error_body(&msg, None)),
                    },
                    Admission::Full => (
                        503,
                        error_body("admission queue full", Some(self.cfg.retry_after_ms)),
                    ),
                    Admission::Draining => (503, error_body("daemon is draining", None)),
                }
            }
            ("POST", "/v1/batch") => self.batch_route(&req.body),
            ("GET" | "POST", _) => (404, error_body("no such endpoint", None)),
            _ => (405, error_body("method not allowed", None)),
        }
    }
}

/// A started daemon: its address plus the join handles.
pub struct ServerHandle {
    daemon: Arc<Daemon>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Whether this daemon installed the process-global canon observer
    /// (true iff it owns a store) — shutdown uninstalls it.
    installed_observer: bool,
}

impl ServerHandle {
    /// The bound address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// Whether a shutdown has been requested (e.g. via `POST /shutdown`).
    pub fn draining(&self) -> bool {
        self.daemon.draining()
    }

    /// `(canon entries, spec keys)` replayed from the durable store at
    /// boot — `(0, 0)` without a store or on a fresh file.
    pub fn replay_counts(&self) -> (usize, usize) {
        self.daemon.replayed
    }

    /// Drain and stop: refuse new elections, finish every admitted job,
    /// deliver every parked response, join all threads, and return the
    /// final metrics snapshot.
    pub fn shutdown(self) -> String {
        self.daemon.state.store(STOPPING, Ordering::SeqCst);
        for shard in &self.daemon.shards {
            shard.queue_cond.notify_all();
        }
        // Unblock acceptors parked in accept() with dummy self-connects.
        // A thread still busy serving a drained request returns to
        // accept() only afterwards, so keep nudging until every thread
        // has actually exited.
        for t in self.threads {
            while !t.is_finished() {
                let _ = TcpStream::connect_timeout(&self.daemon.addr, Duration::from_millis(200));
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = t.join();
        }
        if self.installed_observer {
            qelect_graph::cache::global().set_canon_observer(None);
        }
        self.daemon.metrics_body()
    }
}

/// Start a daemon on `cfg.addr`. Returns once the listener is bound,
/// the store (if any) is replayed, and every thread is running; the
/// caller owns the lifecycle through the returned [`ServerHandle`].
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    assert!(cfg.workers >= 1, "qelectd needs at least one worker");
    assert!(cfg.io_threads >= 1, "qelectd needs at least one I/O thread");
    assert!(cfg.queue_cap >= 1, "qelectd needs queue capacity");
    assert!(cfg.shards >= 1, "qelectd needs at least one shard");
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // Open and replay the durable store before accepting traffic:
    // replayed canonical forms seed the process-wide cache directly
    // (which never re-fires the persistence observer), replayed spec
    // keys rebuild the prepared-instance maps below.
    let mut store = None;
    let mut replayed = (0usize, 0usize);
    let mut replayed_specs = Vec::new();
    if let Some(path) = &cfg.store {
        let (s, replay) = Store::open(std::path::Path::new(path))?;
        replayed = (replay.canon.len(), replay.specs.len());
        let caches = qelect_graph::cache::global();
        for (key, res) in replay.canon {
            caches.canon.get_or_insert_with(key, move || res);
        }
        replayed_specs = replay.specs;
        store = Some(Arc::new(s));
    }
    let daemon = Arc::new(Daemon {
        cfg: cfg.clone(),
        addr,
        state: AtomicU8::new(RUNNING),
        shards: (0..cfg.shards).map(|_| ShardState::new()).collect(),
        routes: Mutex::new(HashMap::new()),
        store: store.clone(),
        replayed,
        stats: ServerStats::default(),
        started: Instant::now(),
    });
    // Rebuild the prepared instances the previous incarnation served,
    // each on its affine shard (re-validated through the spec grammar —
    // the store's CRC protects bytes, not meaning).
    for spec_key in replayed_specs {
        if let Ok(spec) = InstanceSpec::parse(&spec_key) {
            if spec.bicolored().is_ok() {
                let _ = daemon.prepared(&spec);
            }
        }
    }
    // From here on, persist every fresh canonicalization write-through.
    let installed_observer = match &store {
        Some(store) => {
            let store = Arc::clone(store);
            qelect_graph::cache::global().set_canon_observer(Some(Arc::new(
                move |key: &[u64], res: &qelect_graph::canon::CanonResult| {
                    let _ = store.record_canon(key, res);
                },
            )));
            true
        }
        None => false,
    };
    let mut threads = Vec::new();
    for sh in 0..cfg.shards {
        for w in 0..cfg.workers {
            let daemon = Arc::clone(&daemon);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qelectd-s{sh}-w{w}"))
                    .spawn(move || daemon.worker_loop(sh))
                    .expect("spawn worker"),
            );
        }
    }
    for io in 0..cfg.io_threads {
        let daemon = Arc::clone(&daemon);
        let listener = listener.try_clone()?;
        threads.push(
            std::thread::Builder::new()
                .name(format!("qelectd-io-{io}"))
                .spawn(move || loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // While merely draining, connections are
                            // still served (503s, /metrics, /healthz);
                            // only the owner's shutdown() — via its
                            // dummy self-connects — retires acceptors.
                            if daemon.stopping() {
                                return;
                            }
                            daemon.handle_connection(stream);
                        }
                        Err(_) => {
                            if daemon.stopping() {
                                return;
                            }
                        }
                    }
                })
                .expect("spawn io thread"),
        );
    }
    Ok(ServerHandle {
        daemon,
        threads,
        installed_observer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_roundtrip() {
        for p in [
            Policy::Random,
            Policy::RoundRobin,
            Policy::Lockstep,
            Policy::GreedyLowest,
        ] {
            assert_eq!(parse_policy(policy_name(p)), Some(p));
        }
        assert_eq!(parse_policy("warp"), None);
    }

    #[test]
    fn request_parsing_validates() {
        let ok = r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 7,
                      "engine": "sim", "policy": "lockstep"}"#;
        let req = ElectRequest::parse(ok, false).unwrap();
        assert_eq!(req.seed, 7);
        assert_eq!(req.policy, Policy::Lockstep);
        assert_eq!(req.spec.key(), "cycle:9@0,1,3");
        // Defaults.
        let min = r#"{"schema": "qelect-request/1", "spec": "petersen@0,1"}"#;
        let req = ElectRequest::parse(min, false).unwrap();
        assert_eq!(req.seed, 0);
        assert!(req.faults.is_empty());
        // Rejections.
        for bad in [
            r#"{"spec": "cycle:9"}"#,
            r#"{"schema": "qelect-audit/1", "spec": "cycle:9"}"#,
            r#"{"schema": "qelect-request/1"}"#,
            r#"{"schema": "qelect-request/1", "spec": "nosuch:9"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,0"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "engine": "warp"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "engine": "gated"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "policy": "warp"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "seed": -1}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "faults": {"x": 1}}"#,
            "not json",
        ] {
            assert!(ElectRequest::parse(bad, false).is_err(), "{bad}");
        }
    }

    #[test]
    fn mistyped_engine_and_policy_are_bad_requests() {
        let parse_err = |fields: &str| {
            let body =
                format!(r#"{{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3"{fields}}}"#);
            ElectRequest::parse(&body, false)
                .err()
                .expect("mistyped field accepted")
        };
        assert_eq!(
            parse_err(r#", "engine": 5"#),
            r#""engine" must be a string"#
        );
        assert_eq!(
            parse_err(r#", "engine": null, "policy": 7"#),
            r#""engine" must be a string"#
        );
        assert_eq!(
            parse_err(r#", "policy": 7"#),
            r#""policy" must be a string"#
        );
        assert_eq!(
            parse_err(r#", "policy": null"#),
            r#""policy" must be a string"#
        );
        assert_eq!(
            parse_err(r#", "engine": "free""#),
            r#"unknown engine "free""#
        );
        assert_eq!(
            parse_err(r#", "engine": "gated""#),
            r#"unknown engine "gated""#
        );
    }

    #[test]
    fn the_engine_field_is_optional_and_only_names_sim() {
        let server = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            io_threads: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let post = |fields: &str| {
            let body = format!(
                r#"{{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 4{fields}}}"#
            );
            crate::load::one_shot(server.addr(), "POST", "/v1/elect", &body).unwrap()
        };
        // Drop the measured timings' line; the rest is deterministic.
        let stable =
            |body: &str| -> String { body.lines().filter(|l| !l.contains("queue_us")).collect() };
        let absent = post("");
        let sim = post(r#", "engine": "sim""#);
        assert_eq!(absent.code, 200, "{}", absent.body);
        assert_eq!(sim.code, 200, "{}", sim.body);
        assert_eq!(stable(&absent.body), stable(&sim.body));
        assert!(
            absent.body.contains(r#""engine": "sim""#),
            "{}",
            absent.body
        );
        let gated = post(r#", "engine": "gated""#);
        assert_eq!(gated.code, 400, "{}", gated.body);
        assert!(
            gated.body.contains(r#"unknown engine \"gated\""#),
            "{}",
            gated.body
        );
        server.shutdown();
    }

    #[test]
    fn debug_sleep_is_gated_behind_debug_mode() {
        let body = r#"{"schema": "qelect-request/1", "spec": "cycle:9", "debug_sleep_ms": 50}"#;
        assert_eq!(ElectRequest::parse(body, false).unwrap().sleep_ms, 0);
        assert_eq!(ElectRequest::parse(body, true).unwrap().sleep_ms, 50);
        // The sleep participates in the single-flight key only in debug.
        let a = ElectRequest::parse(body, true).unwrap();
        let b = ElectRequest::parse(body, false).unwrap();
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn single_flight_keys_separate_configs() {
        let mk = |body: &str| ElectRequest::parse(body, false).unwrap().key();
        let base = mk(r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1}"#);
        assert_eq!(
            base,
            mk(r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1}"#)
        );
        for other in [
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 2}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,2", "seed": 1}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1, "policy": "lockstep"}"#,
        ] {
            assert_ne!(base, mk(other), "{other}");
        }
        // Naming the one engine is the same execution as omitting it.
        assert_eq!(
            base,
            mk(
                r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1, "engine": "sim"}"#
            )
        );
    }

    #[test]
    fn protocol_field_resolves_through_the_registry() {
        let req = ElectRequest::parse(
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "protocol": "dp"}"#,
            false,
        )
        .unwrap();
        assert_eq!(req.protocol.id.name(), "dp-anon");
        // Absent field = the default entry.
        let req = ElectRequest::parse(
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3"}"#,
            false,
        )
        .unwrap();
        assert_eq!(req.protocol.id.name(), "elect");
        // Rejections: unknown names, unservable protocols, non-string
        // values.
        for bad in [
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": "warp"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": "view"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": "quantitative"}"#,
            r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": 7}"#,
        ] {
            assert!(ElectRequest::parse(bad, false).is_err(), "{bad}");
        }
    }

    #[test]
    fn single_flight_keys_treat_explicit_default_as_absent() {
        let mk = |body: &str| ElectRequest::parse(body, false).unwrap().key();
        let absent = mk(r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1}"#);
        let explicit = mk(
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1, "protocol": "elect"}"#,
        );
        assert_eq!(absent, explicit, "explicit default must coalesce");
        let dp = mk(
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1, "protocol": "dp"}"#,
        );
        assert_ne!(absent, dp, "different protocols are different jobs");
        let dp_alias = mk(
            r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,1,3", "seed": 1, "protocol": "dp-anon"}"#,
        );
        assert_eq!(dp, dp_alias, "aliases resolve before keying");
    }

    #[test]
    fn error_bodies_are_versioned_json() {
        let body = error_body("queue full", Some(25));
        let obj = envelope::check_document(&body, envelope::RESPONSE).unwrap();
        assert_eq!(get(&obj, "kind").unwrap().as_str(), Some("error"));
        assert_eq!(get(&obj, "retry_after_ms").unwrap().as_num(), Some(25.0));
    }
}
