//! `qelectctl load` — the closed-loop load generator for `qelectd`.
//!
//! The generator is the daemon's acceptance harness: N client threads
//! drive keep-alive connections against a server (an in-process one by
//! default, so one command measures the whole stack), check **every**
//! response against the local gcd oracle, and write a schema-versioned
//! [`qelect-load/1`] report.
//!
//! A run has three acts:
//!
//! 1. **Cold phase** — the canonical-form cache is disabled and cleared
//!    through `POST /admin/cache`, so every election pays the full
//!    COMPUTE & ORDER cost. Closed-loop clients hammer the mix for
//!    `duration_secs` and record per-request latency.
//! 2. **Warm phase** — the cache is re-enabled (cleared again, then
//!    warmed by one pass over the mix), and the same closed loop runs
//!    again. `warm_speedup` = warm throughput / cold throughput; the
//!    serving benchmark gates on ≥ 2x.
//! 3. **Drain check** — a burst of in-flight requests races a graceful
//!    shutdown. Every request must still receive a well-formed response
//!    (`200` for admitted jobs, `503` for refused ones); a connection
//!    that dies without an answer counts as *dropped* and fails the run.
//! 4. **Recovery check** (with `--store`, in-process server only) — the
//!    daemon is shut down, every in-memory cache is wiped to simulate
//!    process death, and a fresh daemon boots from the same store. It
//!    must come up warm: replayed records > 0, canonical-form cache
//!    hits > 0 from the replay-driven rebuild alone, and one pass over
//!    the mix in 100% oracle agreement.
//!
//! `--batch N` changes *how* the closed loop drives the daemon: it
//! sends `N` elections per round-trip through `POST /v1/batch` instead
//! of one through `/v1/elect`. Throughput still counts *elections* per
//! second (so batch and single runs are comparable); the latency
//! histogram records per-*round-trip* latencies in batch mode.
//!
//! [`chaos_run`] is the unclean sibling of the drain check: it spawns
//! the daemon as a *subprocess*, SIGKILLs it mid-load, restarts it on
//! the same store, and asserts that every completed response agreed
//! with the oracle and that the final restart comes up warm.
//!
//! [`LoadReport::passed`] is the exit gate: 100% oracle agreement, zero
//! transport errors, zero dropped in-flight responses, and a warm
//! recovery when one was run.
//!
//! [`qelect-load/1`]: qelect_agentsim::json::envelope::LOAD

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qelect_agentsim::json::{envelope, escape, get, Value};
use qelect_agentsim::sched::Policy;
use qelect_agentsim::Engine;

use crate::report::WorkHistogram;
use crate::serve::{self, policy_name, ServeConfig, ServerHandle};
use crate::spec::InstanceSpec;

/// Configuration of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Target daemon; `None` spawns an in-process server (and owns its
    /// lifecycle, including the drain check's shutdown).
    pub addr: Option<String>,
    /// Client threads (closed loop: each sends, waits, repeats).
    pub clients: usize,
    /// Seconds per measured phase (cold, then warm).
    pub duration_secs: u64,
    /// Scheduler policy sent with every request.
    pub policy: Policy,
    /// Request mix (instance specs); empty selects [`default_mix`].
    pub mix: Vec<String>,
    /// Requests in the shutdown-drain burst.
    pub drain_burst: usize,
    /// Elections per round-trip via `POST /v1/batch` (0 = one per
    /// `POST /v1/elect`).
    pub batch: usize,
    /// Protocol wire name sent with every request. The default
    /// ([`qelect::registry::DEFAULT_PROTOCOL`]) is *omitted* from the
    /// request body, pinning the absent-field wire format.
    pub protocol: String,
    /// Chaos rounds: each SIGKILLs a subprocess daemon mid-load and
    /// restarts it on the same store (0 = off; needs `serve.store`).
    pub chaos: usize,
    /// Server shape when spawning in process (shards, store, queue).
    pub serve: ServeConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: None,
            clients: 4,
            duration_secs: 5,
            policy: Policy::Random,
            mix: Vec::new(),
            drain_burst: 16,
            batch: 0,
            protocol: qelect::registry::DEFAULT_PROTOCOL.to_string(),
            chaos: 0,
            serve: ServeConfig::default(),
        }
    }
}

/// The default request mix: solvable and unsolvable instances across
/// the cycle, circulant and Petersen families, so oracle gating
/// exercises both verdicts and the cache sees several graph families.
/// The two large instances keep canonical-form preparation (the
/// cacheable part of a request) on the serving hot path, so the
/// warm-vs-cold comparison measures what the cache actually buys.
pub fn default_mix() -> Vec<String> {
    [
        "cycle:12@0,1,3",
        "cycle:9@0,1,2,3,4",
        "circulant:12:1,3@0,1,3",
        "petersen@0,1",
        "cycle:6@0,3",
        "cycle:48@0,1,5",
        "circulant:40:1,3@0,1,3",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// One mix item with its locally computed oracle verdict.
struct MixItem {
    spec: String,
    solvable: bool,
}

fn resolve_mix(specs: &[String], protocol: &str) -> Result<Vec<MixItem>, String> {
    let entry = qelect::registry::resolve(protocol)?;
    let specs = if specs.is_empty() {
        default_mix()
    } else {
        specs.to_vec()
    };
    specs
        .iter()
        .map(|raw| {
            let spec = InstanceSpec::parse(raw).map_err(|e| e.to_string())?;
            let bc = spec.bicolored().map_err(|e| e.to_string())?;
            // Oracle gating is the generator's point: a mix item whose
            // verdict the protocol's oracle cannot decide would make
            // every response uncheckable, so refuse it up front.
            let solvable = (entry.oracle)(&bc).ok_or_else(|| {
                format!(
                    "protocol '{}' has no oracle verdict for mix item '{raw}'",
                    entry.id.name()
                )
            })?;
            Ok(MixItem {
                spec: spec.key(),
                solvable,
            })
        })
        .collect()
}

/// A minimal keep-alive HTTP/1.1 client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
}

/// One parsed HTTP response: status code and body text.
pub(crate) struct HttpResponse {
    /// The status code from the response line.
    pub code: u16,
    /// The response body (JSON for every qelectd endpoint).
    pub body: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            addr,
        })
    }

    /// Send one request; reconnect once if the keep-alive connection
    /// went away (the server closes idle connections).
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
        match http_roundtrip(&mut self.reader, &mut self.writer, method, path, body) {
            Ok(resp) => Ok(resp),
            Err(_) => {
                *self = Client::connect(self.addr)?;
                http_roundtrip(&mut self.reader, &mut self.writer, method, path, body)
            }
        }
    }
}

fn http_roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    use std::io::{BufRead, Read, Write};
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: qelectd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    writer
        .write_all(head.as_bytes())
        .and_then(|_| writer.write_all(body.as_bytes()))
        .and_then(|_| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut status = String::new();
    reader
        .read_line(&mut status)
        .map_err(|e| format!("recv: {e}"))?;
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status:?}"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader
        .read_exact(&mut buf)
        .map_err(|e| format!("recv body: {e}"))?;
    Ok(HttpResponse {
        code,
        body: String::from_utf8(buf).map_err(|_| "body is not UTF-8".to_string())?,
    })
}

/// Fire one request at `addr` on a fresh connection.
pub(crate) fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    Client::connect(addr)?.request(method, path, body)
}

/// The optional `"protocol"` request field: empty for the default
/// protocol (the absent-field wire format stays pinned), the explicit
/// field otherwise.
fn protocol_field(protocol: &str) -> String {
    if protocol == qelect::registry::DEFAULT_PROTOCOL {
        String::new()
    } else {
        format!(", \"protocol\": {}", escape(protocol))
    }
}

fn elect_body(spec: &str, policy: Policy, protocol: &str, seed: u64) -> String {
    format!(
        "{{\"schema\": {}, \"spec\": {}, \"policy\": {}, \"seed\": {seed}{}}}",
        escape(envelope::REQUEST),
        escape(spec),
        escape(policy_name(policy)),
        protocol_field(protocol),
    )
}

/// Build one `POST /v1/batch` body from `(spec, seed)` pairs.
fn batch_body(items: &[(String, u64)], policy: Policy, protocol: &str) -> String {
    let mut s = format!(
        "{{\"schema\": {}, \"requests\": [",
        escape(envelope::REQUEST)
    );
    for (i, (spec, seed)) in items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"spec\": {}, \"policy\": {}, \"seed\": {seed}{}}}",
            escape(spec),
            escape(policy_name(policy)),
            protocol_field(protocol),
        ));
    }
    s.push_str("]}");
    s
}

/// Per-item tallies of one checked batch response.
#[derive(Debug, Default, PartialEq, Eq)]
struct BatchTally {
    ok: u64,
    disagreements: u64,
    errors: u64,
    rejected: u64,
}

/// Check a `200` batch response item by item against the oracle map.
fn check_batch_response(
    body: &str,
    solvable: &std::collections::HashMap<String, bool>,
) -> Result<BatchTally, String> {
    let obj = envelope::check_document(body, envelope::RESPONSE)?;
    let results = get(&obj, "results")
        .and_then(Value::as_array)
        .ok_or("batch response lacks \"results\"")?;
    let mut tally = BatchTally::default();
    for item in results {
        let Some(fields) = item.as_object() else {
            tally.errors += 1;
            continue;
        };
        match get(fields, "outcome").and_then(Value::as_str) {
            Some(outcome) => {
                let spec = get(fields, "spec").and_then(Value::as_str).unwrap_or("");
                let agrees = match (outcome, solvable.get(spec)) {
                    ("elected", Some(s)) => *s,
                    ("unsolvable", Some(s)) => !*s,
                    _ => false,
                };
                if agrees {
                    tally.ok += 1;
                } else {
                    tally.disagreements += 1;
                }
            }
            // Error items carry a "kind" instead of an "outcome";
            // backpressure rejections are retried, not failures.
            None => match get(fields, "kind").and_then(Value::as_str) {
                Some("rejected") => tally.rejected += 1,
                _ => tally.errors += 1,
            },
        }
    }
    Ok(tally)
}

/// Latency + correctness tallies of one measured phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase label (`"cold"` / `"warm"`).
    pub name: String,
    /// Completed elections (200s that agreed with the oracle).
    pub ok: u64,
    /// Responses disagreeing with the local gcd oracle.
    pub disagreements: u64,
    /// Transport/protocol errors.
    pub errors: u64,
    /// 503 backpressure rejections retried (not failures).
    pub retried: u64,
    /// Measured wall-clock of the phase, in milliseconds.
    pub wall_ms: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Exact latency percentiles, in microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, in microseconds.
    pub p99_us: u64,
    /// Power-of-two latency histogram (microsecond buckets).
    pub histogram: WorkHistogram,
}

/// Outcome of the shutdown-drain check.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Requests in the burst.
    pub burst: u64,
    /// Answered `200` — admitted before the drain and completed.
    pub admitted: u64,
    /// Answered `503` — refused by backpressure or the drain.
    pub refused: u64,
    /// No well-formed response at all. Must be zero.
    pub dropped: u64,
}

/// Outcome of the crash-recovery check: a fresh daemon booted from the
/// durable store after every in-memory cache was wiped.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Canonical-form entries replayed from the store at boot.
    pub replayed_canon: u64,
    /// Instance-spec keys replayed from the store at boot.
    pub replayed_specs: u64,
    /// Canonical-form cache hits attributable to the restart (replay
    /// seeding + prepared-instance rebuild + one mix pass). Must be
    /// positive: that is what "comes up warm" means.
    pub warm_hits: u64,
    /// Requests in the post-restart verification pass.
    pub requests: u64,
    /// Of those, answered `200` in agreement with the gcd oracle.
    pub agreed: u64,
}

impl RecoveryReport {
    /// The restart came up warm and stayed correct.
    pub fn passed(&self) -> bool {
        self.replayed_canon > 0
            && self.replayed_specs > 0
            && self.warm_hits > 0
            && self.requests > 0
            && self.agreed == self.requests
    }
}

/// Outcome of the chaos check: SIGKILL-style daemon restarts raced
/// against in-flight load (see [`chaos_run`]).
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Kill/restart rounds driven.
    pub rounds: u64,
    /// Elections completed (200 + oracle agreement) across all rounds.
    pub completed_ok: u64,
    /// Completed responses disagreeing with the oracle. Must be zero:
    /// a crash may *lose* a response, never corrupt one.
    pub disagreements: u64,
    /// Requests cut off by a kill (no well-formed response). Expected
    /// and tolerated — this is what SIGKILL does.
    pub interrupted: u64,
    /// Transport errors *before* the kill fired. Must be zero.
    pub errors: u64,
    /// Canon entries the final (clean) restart replayed from the store.
    pub final_replayed_canon: u64,
    /// Spec keys the final restart replayed from the store.
    pub final_replayed_specs: u64,
    /// Oracle-agreeing responses in the final restart's mix pass.
    pub final_ok: u64,
    /// Requests in that final pass.
    pub final_requests: u64,
}

impl ChaosReport {
    /// Every completed response agreed; the survivors came up warm.
    pub fn passed(&self) -> bool {
        self.rounds > 0
            && self.completed_ok > 0
            && self.disagreements == 0
            && self.errors == 0
            && self.final_replayed_specs > 0
            && self.final_requests > 0
            && self.final_ok == self.final_requests
    }
}

/// The full `qelect-load/1` report.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Client threads driving the closed loop.
    pub clients: usize,
    /// Request mix (instance spec keys).
    pub mix: Vec<String>,
    /// Elections per round-trip (0 = single-request mode).
    pub batch: usize,
    /// Shards of the (in-process) daemon under test.
    pub shards: usize,
    /// Cold-cache phase.
    pub cold: PhaseReport,
    /// Warm-cache phase.
    pub warm: PhaseReport,
    /// Warm throughput / cold throughput.
    pub warm_speedup: f64,
    /// The shutdown-drain check.
    pub drain: DrainReport,
    /// The crash-recovery check (runs when a store is configured and
    /// the server is in-process).
    pub recovery: Option<RecoveryReport>,
    /// The chaos check (filled in by [`chaos_run`] when requested).
    pub chaos: Option<ChaosReport>,
}

impl LoadReport {
    /// The exit gate: every response agreed with the gcd oracle, no
    /// transport errors, the drain dropped nothing, and any recovery /
    /// chaos checks came up warm and correct.
    pub fn passed(&self) -> bool {
        self.cold.disagreements == 0
            && self.warm.disagreements == 0
            && self.cold.errors == 0
            && self.warm.errors == 0
            && self.drain.dropped == 0
            && self.recovery.as_ref().is_none_or(RecoveryReport::passed)
            && self.chaos.as_ref().is_none_or(ChaosReport::passed)
    }

    /// Serialize as a `qelect-load/1` document.
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseReport| {
            let mut s = String::new();
            s.push_str(&format!(
                "{{\"ok\": {}, \"disagreements\": {}, \"errors\": {}, \"retried\": {}, \
                 \"wall_ms\": {}, \"throughput_rps\": {:.2}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"latency_us_histogram\": [",
                p.ok,
                p.disagreements,
                p.errors,
                p.retried,
                p.wall_ms,
                p.throughput_rps,
                p.p50_us,
                p.p99_us,
            ));
            for (i, count) in p.histogram.buckets.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"bucket\": {}, \"count\": {count}}}",
                    escape(&WorkHistogram::bucket_label(i))
                ));
            }
            s.push_str("]}");
            s
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&envelope::header(envelope::LOAD));
        s.push_str(&format!("  \"clients\": {},\n", self.clients));
        s.push_str("  \"mix\": [");
        for (i, spec) in self.mix.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&escape(spec));
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"engine\": {}, \"batch\": {}, \"shards\": {},\n",
            escape(Engine::Sim.name()),
            self.batch,
            self.shards
        ));
        s.push_str(&format!("  \"cold\": {},\n", phase(&self.cold)));
        s.push_str(&format!("  \"warm\": {},\n", phase(&self.warm)));
        s.push_str(&format!("  \"warm_speedup\": {:.2},\n", self.warm_speedup));
        s.push_str(&format!(
            "  \"drain\": {{\"burst\": {}, \"admitted\": {}, \"refused\": {}, \"dropped\": {}}},\n",
            self.drain.burst, self.drain.admitted, self.drain.refused, self.drain.dropped
        ));
        if let Some(r) = &self.recovery {
            s.push_str(&format!(
                "  \"recovery\": {{\"replayed_canon\": {}, \"replayed_specs\": {}, \
                 \"warm_hits\": {}, \"requests\": {}, \"agreed\": {}, \"passed\": {}}},\n",
                r.replayed_canon,
                r.replayed_specs,
                r.warm_hits,
                r.requests,
                r.agreed,
                r.passed()
            ));
        }
        if let Some(c) = &self.chaos {
            s.push_str(&format!(
                "  \"chaos\": {{\"rounds\": {}, \"completed_ok\": {}, \"disagreements\": {}, \
                 \"interrupted\": {}, \"errors\": {}, \"final_replayed_canon\": {}, \
                 \"final_replayed_specs\": {}, \"final_ok\": {}, \"final_requests\": {}, \
                 \"passed\": {}}},\n",
                c.rounds,
                c.completed_ok,
                c.disagreements,
                c.interrupted,
                c.errors,
                c.final_replayed_canon,
                c.final_replayed_specs,
                c.final_ok,
                c.final_requests,
                c.passed()
            ));
        }
        s.push_str(&format!("  \"passed\": {}\n", self.passed()));
        s.push_str("}\n");
        s
    }
}

/// Check one `200` election body against the local oracle verdict.
fn response_agrees(body: &str, solvable: bool) -> Result<bool, String> {
    let obj = envelope::check_document(body, envelope::RESPONSE)?;
    let outcome = get(&obj, "outcome")
        .and_then(Value::as_str)
        .ok_or("election response lacks \"outcome\"")?;
    Ok(match outcome {
        "elected" => solvable,
        "unsolvable" => !solvable,
        _ => false,
    })
}

/// Drive one measured closed-loop phase against `addr`.
fn run_phase(
    name: &str,
    addr: SocketAddr,
    cfg: &LoadConfig,
    mix: &[MixItem],
    seed_base: u64,
) -> PhaseReport {
    let deadline = Instant::now() + Duration::from_secs(cfg.duration_secs);
    let ok = AtomicU64::new(0);
    let disagreements = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let latencies = parking_lot::Mutex::new(Vec::<u64>::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client_id in 0..cfg.clients {
            let (ok, disagreements, errors, retried, latencies) =
                (&ok, &disagreements, &errors, &retried, &latencies);
            let client_seed = seed_base + client_id as u64 * 1_000_003;
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                let solvable: std::collections::HashMap<String, bool> =
                    mix.iter().map(|m| (m.spec.clone(), m.solvable)).collect();
                let mut local: Vec<u64> = Vec::new();
                let mut n = 0u64;
                while Instant::now() < deadline {
                    if cfg.batch > 0 {
                        // Batch mode: `batch` elections per round-trip.
                        // Distinct seeds within and across batches keep
                        // every item a real election.
                        let items: Vec<(String, u64)> = (0..cfg.batch as u64)
                            .map(|j| {
                                let item = &mix[((n + j) as usize + client_id) % mix.len()];
                                (item.spec.clone(), client_seed + n + j)
                            })
                            .collect();
                        n += cfg.batch as u64;
                        let body = batch_body(&items, cfg.policy, &cfg.protocol);
                        let sent = Instant::now();
                        match client.request("POST", "/v1/batch", &body) {
                            Ok(resp) if resp.code == 200 => {
                                local.push(sent.elapsed().as_micros() as u64);
                                match check_batch_response(&resp.body, &solvable) {
                                    Ok(tally) => {
                                        ok.fetch_add(tally.ok, Ordering::Relaxed);
                                        disagreements
                                            .fetch_add(tally.disagreements, Ordering::Relaxed);
                                        errors.fetch_add(tally.errors, Ordering::Relaxed);
                                        if tally.rejected > 0 {
                                            retried.fetch_add(tally.rejected, Ordering::Relaxed);
                                            std::thread::sleep(Duration::from_millis(10));
                                        }
                                    }
                                    Err(_) => {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Ok(_) | Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        continue;
                    }
                    let item = &mix[(n as usize + client_id) % mix.len()];
                    // Distinct seeds across clients keep the phase free
                    // of single-flight coalescing: every request is a
                    // real election.
                    let body = elect_body(&item.spec, cfg.policy, &cfg.protocol, client_seed + n);
                    n += 1;
                    let sent = Instant::now();
                    match client.request("POST", "/v1/elect", &body) {
                        Ok(resp) if resp.code == 200 => {
                            local.push(sent.elapsed().as_micros() as u64);
                            match response_agrees(&resp.body, item.solvable) {
                                Ok(true) => ok.fetch_add(1, Ordering::Relaxed),
                                Ok(false) => disagreements.fetch_add(1, Ordering::Relaxed),
                                Err(_) => errors.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                        Ok(resp) if resp.code == 503 => {
                            // Backpressure: honor the retry hint.
                            retried.fetch_add(1, Ordering::Relaxed);
                            let ms = envelope::check_document(&resp.body, envelope::RESPONSE)
                                .ok()
                                .and_then(|obj| get(&obj, "retry_after_ms").and_then(Value::as_num))
                                .unwrap_or(10.0) as u64;
                            std::thread::sleep(Duration::from_millis(ms.min(200)));
                        }
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().extend(local);
            });
        }
    });
    let wall_ms = started.elapsed().as_millis() as u64;
    let mut lat = latencies.into_inner();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx.min(lat.len() - 1)]
    };
    let mut histogram = WorkHistogram::default();
    for &v in &lat {
        histogram.add(v);
    }
    let completed = ok.load(Ordering::Relaxed) + disagreements.load(Ordering::Relaxed);
    PhaseReport {
        name: name.to_string(),
        ok: ok.load(Ordering::Relaxed),
        disagreements: disagreements.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        retried: retried.load(Ordering::Relaxed),
        wall_ms,
        throughput_rps: completed as f64 / (wall_ms.max(1) as f64 / 1000.0),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        histogram,
    }
}

/// Configure the daemon's cache for a phase via `POST /admin/cache`.
fn set_cache(addr: SocketAddr, enabled: bool) -> Result<(), String> {
    let body = format!("{{\"enabled\": {enabled}, \"clear\": true}}");
    let resp = one_shot(addr, "POST", "/admin/cache", &body)?;
    if resp.code != 200 {
        return Err(format!("admin/cache answered {}", resp.code));
    }
    Ok(())
}

/// The shutdown-drain check: race `drain_burst` slow in-flight requests
/// against a graceful shutdown; every request must be answered.
fn drain_check(
    addr: SocketAddr,
    cfg: &LoadConfig,
    mix: &[MixItem],
    server: Option<ServerHandle>,
) -> (DrainReport, Option<String>) {
    let admitted = AtomicU64::new(0);
    let refused = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let fired = AtomicBool::new(false);
    let mut final_metrics = None;
    std::thread::scope(|scope| {
        for i in 0..cfg.drain_burst {
            let (admitted, refused, dropped, fired) = (&admitted, &refused, &dropped, &fired);
            let spec = mix[i % mix.len()].spec.clone();
            let policy = cfg.policy;
            let protocol = cfg.protocol.clone();
            scope.spawn(move || {
                // Seeds disjoint from the measured phases, distinct per
                // request, so the burst is `drain_burst` real jobs.
                let body = elect_body(&spec, policy, &protocol, 0xD4A1_0000 + i as u64);
                fired.store(true, Ordering::SeqCst);
                match one_shot(addr, "POST", "/v1/elect", &body) {
                    Ok(resp) if resp.code == 200 => admitted.fetch_add(1, Ordering::Relaxed),
                    Ok(resp) if resp.code == 503 => refused.fetch_add(1, Ordering::Relaxed),
                    _ => dropped.fetch_add(1, Ordering::Relaxed),
                };
            });
        }
        // Let the burst land in the queue, then pull the plug.
        while !fired.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        match server {
            Some(handle) => final_metrics = Some(handle.shutdown()),
            None => {
                let _ = one_shot(addr, "POST", "/shutdown", "");
            }
        }
    });
    (
        DrainReport {
            burst: cfg.drain_burst as u64,
            admitted: admitted.load(Ordering::Relaxed),
            refused: refused.load(Ordering::Relaxed),
            dropped: dropped.load(Ordering::Relaxed),
        },
        final_metrics,
    )
}

/// The crash-recovery check: wipe every in-memory cache (simulating
/// process death — the daemon itself was already shut down), boot a
/// fresh daemon on the same store, and verify it comes up warm and
/// correct.
fn recovery_check(cfg: &LoadConfig, mix: &[MixItem]) -> Result<RecoveryReport, String> {
    let caches = qelect_graph::cache::global();
    caches.clear();
    let before_hits = caches.stats().hits;
    let server = serve::start(cfg.serve.clone()).map_err(|e| format!("restart: {e}"))?;
    let (replayed_canon, replayed_specs) = server.replay_counts();
    let addr = server.addr();
    let mut agreed = 0u64;
    for (i, item) in mix.iter().enumerate() {
        let body = elect_body(
            &item.spec,
            cfg.policy,
            &cfg.protocol,
            0x4EC0_0000 + i as u64,
        );
        let resp = one_shot(addr, "POST", "/v1/elect", &body)?;
        if resp.code == 200 && response_agrees(&resp.body, item.solvable).unwrap_or(false) {
            agreed += 1;
        }
    }
    let warm_hits = caches.stats().hits.saturating_sub(before_hits);
    let _ = server.shutdown();
    Ok(RecoveryReport {
        replayed_canon: replayed_canon as u64,
        replayed_specs: replayed_specs as u64,
        warm_hits,
        requests: mix.len() as u64,
        agreed,
    })
}

/// Run the full load benchmark. Returns the report and, when the server
/// was spawned in process, its final metrics snapshot.
pub fn run(cfg: &LoadConfig) -> Result<(LoadReport, Option<String>), String> {
    assert!(cfg.clients >= 1, "load needs at least one client");
    let mix = resolve_mix(&cfg.mix, &cfg.protocol)?;
    let (addr, server) = match &cfg.addr {
        Some(addr) => {
            let addr: SocketAddr = one_shot_resolve(addr)?;
            (addr, None)
        }
        None => {
            let server = serve::start(cfg.serve.clone()).map_err(|e| format!("spawn: {e}"))?;
            (server.addr(), Some(server))
        }
    };
    let in_process = server.is_some();
    // Sanity: the daemon is up.
    let health = one_shot(addr, "GET", "/healthz", "")?;
    if health.code != 200 {
        return Err(format!("healthz answered {}", health.code));
    }

    // Cold: no canonical-form cache at all.
    set_cache(addr, false)?;
    let cold = run_phase("cold", addr, cfg, &mix, 1);

    // Warm: cache on, cleared, then primed with one pass over the mix.
    set_cache(addr, true)?;
    for (i, item) in mix.iter().enumerate() {
        let body = elect_body(&item.spec, cfg.policy, &cfg.protocol, 0xAAAA + i as u64);
        let _ = one_shot(addr, "POST", "/v1/elect", &body);
    }
    let warm = run_phase("warm", addr, cfg, &mix, 1_000_000_007);

    let warm_speedup = if cold.throughput_rps > 0.0 {
        warm.throughput_rps / cold.throughput_rps
    } else {
        0.0
    };
    let (drain, final_metrics) = drain_check(addr, cfg, &mix, server);
    // With a durable store and an in-process server, prove that a
    // restart comes up warm: the drain already stopped the daemon, so
    // the store is quiesced and free for a second incarnation.
    let recovery = if in_process && cfg.serve.store.is_some() {
        Some(recovery_check(cfg, &mix)?)
    } else {
        None
    };
    Ok((
        LoadReport {
            clients: cfg.clients,
            mix: mix.into_iter().map(|m| m.spec).collect(),
            batch: cfg.batch,
            shards: cfg.serve.shards,
            cold,
            warm,
            warm_speedup,
            drain,
            recovery,
            chaos: None,
        },
        final_metrics,
    ))
}

/// Spawn `exe serve …` as a subprocess on an ephemeral port with the
/// run's shard/store shape, and parse the bound address off its
/// "listening" line.
fn spawn_daemon(
    exe: &std::path::Path,
    serve: &ServeConfig,
) -> Result<(std::process::Child, SocketAddr), String> {
    use std::io::BufRead;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg(serve.workers.to_string())
        .arg("--io-threads")
        .arg(serve.io_threads.to_string())
        .arg("--queue-cap")
        .arg(serve.queue_cap.to_string())
        .arg("--shards")
        .arg(serve.shards.to_string())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if let Some(store) = &serve.store {
        cmd.arg("--store").arg(store);
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {exe:?}: {e}"))?;
    let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.map_err(|e| format!("daemon stdout: {e}"))?;
        if let Some(rest) = line.strip_prefix("qelectd listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| format!("unparseable listening line {line:?}"))?;
            // Drain the rest of the subprocess's stdout in the
            // background so its final metrics dump can never block it.
            std::thread::spawn(move || for _ in lines {});
            return Ok((child, addr));
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    Err("daemon exited before printing its listening line".into())
}

/// The chaos check: race SIGKILL-style daemon restarts against
/// in-flight load. Each round spawns `exe serve` as a subprocess on the
/// configured store, hammers it with the load mix (oracle-checking
/// every completed response), kills it with SIGKILL mid-load, and moves
/// on. A final clean round proves the store survived every unclean
/// death: the restart must replay records, come up warm, and answer one
/// mix pass in full oracle agreement.
///
/// Requires `cfg.serve.store` (the whole point is durability across
/// kills); `exe` is the `qelectctl` binary to re-invoke.
pub fn chaos_run(cfg: &LoadConfig, exe: &std::path::Path) -> Result<ChaosReport, String> {
    if cfg.serve.store.is_none() {
        return Err("chaos mode needs --store (durability across kills is the point)".into());
    }
    let mix = resolve_mix(&cfg.mix, &cfg.protocol)?;
    let mut report = ChaosReport {
        rounds: cfg.chaos as u64,
        ..ChaosReport::default()
    };
    for round in 0..cfg.chaos {
        let (mut child, addr) = spawn_daemon(exe, &cfg.serve)?;
        let completed_ok = AtomicU64::new(0);
        let disagreements = AtomicU64::new(0);
        let interrupted = AtomicU64::new(0);
        let errors = AtomicU64::new(0);
        let kill_sent = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for client_id in 0..cfg.clients {
                let (completed_ok, disagreements, interrupted, errors, kill_sent) = (
                    &completed_ok,
                    &disagreements,
                    &interrupted,
                    &errors,
                    &kill_sent,
                );
                let mix = &mix;
                let seed_base =
                    0xC4A0_0000_0000 + ((round as u64) << 20) + (client_id as u64) * 10_007;
                scope.spawn(move || {
                    let solvable: std::collections::HashMap<String, bool> =
                        mix.iter().map(|m| (m.spec.clone(), m.solvable)).collect();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    let mut n = 0u64;
                    loop {
                        let outcome = if cfg.batch > 0 {
                            let items: Vec<(String, u64)> = (0..cfg.batch as u64)
                                .map(|j| {
                                    let item = &mix[((n + j) as usize + client_id) % mix.len()];
                                    (item.spec.clone(), seed_base + n + j)
                                })
                                .collect();
                            n += cfg.batch as u64;
                            let body = batch_body(&items, cfg.policy, &cfg.protocol);
                            client.request("POST", "/v1/batch", &body).map(|resp| {
                                if resp.code == 200 {
                                    if let Ok(t) = check_batch_response(&resp.body, &solvable) {
                                        completed_ok.fetch_add(t.ok, Ordering::Relaxed);
                                        disagreements.fetch_add(t.disagreements, Ordering::Relaxed);
                                    }
                                }
                            })
                        } else {
                            let item = &mix[(n as usize + client_id) % mix.len()];
                            let body =
                                elect_body(&item.spec, cfg.policy, &cfg.protocol, seed_base + n);
                            n += 1;
                            let solvable = item.solvable;
                            client.request("POST", "/v1/elect", &body).map(|resp| {
                                if resp.code == 200 {
                                    match response_agrees(&resp.body, solvable) {
                                        Ok(true) => {
                                            completed_ok.fetch_add(1, Ordering::Relaxed);
                                        }
                                        Ok(false) => {
                                            disagreements.fetch_add(1, Ordering::Relaxed);
                                        }
                                        Err(_) => {}
                                    }
                                }
                            })
                        };
                        if outcome.is_err() {
                            // A dead connection after the kill is the
                            // expected SIGKILL signature; before it, a
                            // real failure.
                            if kill_sent.load(Ordering::SeqCst) {
                                interrupted.fetch_add(1, Ordering::Relaxed);
                            } else {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            return;
                        }
                    }
                });
            }
            // Let load build, then pull the plug — no drain, no flush.
            std::thread::sleep(Duration::from_millis(600));
            kill_sent.store(true, Ordering::SeqCst);
            let _ = child.kill();
        });
        let _ = child.wait();
        report.completed_ok += completed_ok.load(Ordering::Relaxed);
        report.disagreements += disagreements.load(Ordering::Relaxed);
        report.interrupted += interrupted.load(Ordering::Relaxed);
        report.errors += errors.load(Ordering::Relaxed);
    }
    // Final clean round: the store must have survived every kill.
    let (mut child, addr) = spawn_daemon(exe, &cfg.serve)?;
    let metrics = one_shot(addr, "GET", "/metrics", "")?;
    if let Ok(Value::Obj(obj)) = qelect_agentsim::json::parse(&metrics.body) {
        if let Some(store) = get(&obj, "store").and_then(Value::as_object) {
            report.final_replayed_canon = get(store, "replayed_canon")
                .and_then(Value::as_num)
                .unwrap_or(0.0) as u64;
            report.final_replayed_specs = get(store, "replayed_specs")
                .and_then(Value::as_num)
                .unwrap_or(0.0) as u64;
        }
    }
    report.final_requests = mix.len() as u64;
    for (i, item) in mix.iter().enumerate() {
        let body = elect_body(
            &item.spec,
            cfg.policy,
            &cfg.protocol,
            0xF1A1_0000 + i as u64,
        );
        let resp = one_shot(addr, "POST", "/v1/elect", &body)?;
        if resp.code == 200 && response_agrees(&resp.body, item.solvable).unwrap_or(false) {
            report.final_ok += 1;
        }
    }
    let _ = one_shot(addr, "POST", "/shutdown", "");
    let _ = child.wait();
    Ok(report)
}

fn one_shot_resolve(addr: &str) -> Result<SocketAddr, String> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("no address for {addr}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_resolves_with_oracle_verdicts() {
        let mix = resolve_mix(&[], "elect").unwrap();
        assert_eq!(mix.len(), 7);
        let by_spec: Vec<(&str, bool)> =
            mix.iter().map(|m| (m.spec.as_str(), m.solvable)).collect();
        assert!(by_spec.contains(&("cycle:6@0,3", false)), "{by_spec:?}");
        assert!(by_spec.contains(&("petersen@0,1", false)), "{by_spec:?}");
        assert!(by_spec.contains(&("cycle:12@0,1,3", true)), "{by_spec:?}");
    }

    #[test]
    fn bad_mix_specs_are_rejected() {
        assert!(resolve_mix(&["nosuch:4".to_string()], "elect").is_err());
        assert!(resolve_mix(&["cycle:6@0,0".to_string()], "elect").is_err());
    }

    #[test]
    fn mix_verdicts_follow_the_protocol_oracle() {
        // dp-anon draws its own solvability boundary: the default mix's
        // asymmetric instances stay solvable, but an oracle resolved for
        // a different protocol can disagree with the gcd verdict.
        let mix = resolve_mix(&["path:5@1,3".to_string()], "elect").unwrap();
        assert!(mix[0].solvable);
        let mix = resolve_mix(&["path:5@1,3".to_string()], "dp-anon").unwrap();
        assert!(!mix[0].solvable);
        assert!(resolve_mix(&[], "warp").is_err());
    }

    #[test]
    fn protocol_field_is_omitted_for_the_default() {
        let body = elect_body("cycle:6@0,3", Policy::Random, "elect", 7);
        assert!(!body.contains("protocol"), "{body}");
        let body = elect_body("cycle:6@0,3", Policy::Random, "dp-anon", 7);
        assert!(body.contains("\"protocol\": \"dp-anon\""), "{body}");
        let batch = batch_body(&[("cycle:6@0,3".into(), 1)], Policy::Random, "agent-elect");
        assert!(batch.contains("\"protocol\": \"agent-elect\""), "{batch}");
    }

    #[test]
    fn report_json_is_versioned_and_gates() {
        let phase = |ok| PhaseReport {
            name: "cold".into(),
            ok,
            disagreements: 0,
            errors: 0,
            retried: 2,
            wall_ms: 1000,
            throughput_rps: ok as f64,
            p50_us: 150,
            p99_us: 900,
            histogram: {
                let mut h = WorkHistogram::default();
                h.add(150);
                h.add(900);
                h
            },
        };
        let report = LoadReport {
            clients: 4,
            mix: default_mix(),
            batch: 16,
            shards: 4,
            cold: phase(100),
            warm: phase(260),
            warm_speedup: 2.6,
            drain: DrainReport {
                burst: 16,
                admitted: 12,
                refused: 4,
                dropped: 0,
            },
            recovery: Some(RecoveryReport {
                replayed_canon: 9,
                replayed_specs: 7,
                warm_hits: 12,
                requests: 7,
                agreed: 7,
            }),
            chaos: None,
        };
        assert!(report.passed());
        let obj = envelope::check_document(&report.to_json(), envelope::LOAD).unwrap();
        assert_eq!(get(&obj, "warm_speedup").unwrap().as_num(), Some(2.6));
        assert_eq!(get(&obj, "passed").unwrap().as_bool(), Some(true));
        assert_eq!(get(&obj, "batch").unwrap().as_num(), Some(16.0));
        assert_eq!(get(&obj, "shards").unwrap().as_num(), Some(4.0));
        assert_eq!(get(&obj, "engine").unwrap().as_str(), Some("sim"));
        let recovery = get(&obj, "recovery").unwrap().as_object().unwrap();
        assert_eq!(get(recovery, "warm_hits").unwrap().as_num(), Some(12.0));
        assert_eq!(get(recovery, "passed").unwrap().as_bool(), Some(true));
        let mut failing = report.clone();
        failing.drain.dropped = 1;
        assert!(!failing.passed());
        let mut cold_restart = report.clone();
        cold_restart.recovery.as_mut().unwrap().warm_hits = 0;
        assert!(!cold_restart.passed(), "a cold restart fails the gate");
        let mut disagreeing = report;
        disagreeing.warm.disagreements = 1;
        assert!(!disagreeing.passed());
    }

    #[test]
    fn batch_bodies_parse_and_check() {
        let body = batch_body(
            &[("cycle:6@0,3".into(), 7), ("cycle:12@0,1,3".into(), 8)],
            Policy::Random,
            "elect",
        );
        let obj = envelope::check_document(&body, envelope::REQUEST).unwrap();
        let items = get(&obj, "requests").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        let first = items[0].as_object().unwrap();
        assert_eq!(get(first, "spec").unwrap().as_str(), Some("cycle:6@0,3"));
        assert!(
            get(first, "engine").is_none(),
            "the one engine needs no field"
        );
        assert_eq!(get(first, "seed").unwrap().as_num(), Some(7.0));
    }

    #[test]
    fn batch_responses_tally_per_item() {
        let solvable: std::collections::HashMap<String, bool> = [
            ("cycle:12@0,1,3".to_string(), true),
            ("cycle:6@0,3".to_string(), false),
        ]
        .into_iter()
        .collect();
        let body = r#"{"schema": "qelect-response/1", "kind": "batch",
            "count": 4, "ok": 2, "failed": 2,
            "results": [
              {"spec": "cycle:12@0,1,3", "outcome": "elected"},
              {"spec": "cycle:6@0,3", "outcome": "elected"},
              {"kind": "rejected", "error": "admission queue full", "retry_after_ms": 25},
              {"kind": "bad_request", "error": "request needs a \"spec\" string"}
            ]}"#;
        let tally = check_batch_response(body, &solvable).unwrap();
        assert_eq!(
            tally,
            BatchTally {
                ok: 1,
                disagreements: 1,
                errors: 1,
                rejected: 1
            }
        );
        assert!(check_batch_response("{}", &solvable).is_err());
    }

    #[test]
    fn chaos_report_gates() {
        let good = ChaosReport {
            rounds: 2,
            completed_ok: 120,
            disagreements: 0,
            interrupted: 8,
            errors: 0,
            final_replayed_canon: 9,
            final_replayed_specs: 7,
            final_ok: 7,
            final_requests: 7,
        };
        assert!(good.passed());
        // Interrupted requests are the SIGKILL signature, not failures…
        let mut noisy = good.clone();
        noisy.interrupted = 1000;
        assert!(noisy.passed());
        // …but a corrupted completed response is.
        let mut corrupt = good.clone();
        corrupt.disagreements = 1;
        assert!(!corrupt.passed());
        let mut cold = good.clone();
        cold.final_replayed_specs = 0;
        assert!(!cold.passed(), "the final restart must replay the store");
        let mut pre_kill_error = good;
        pre_kill_error.errors = 1;
        assert!(!pre_kill_error.passed());
    }

    #[test]
    fn oracle_agreement_checks_outcomes() {
        let elected = r#"{"schema": "qelect-response/1", "outcome": "elected"}"#;
        let unsolvable = r#"{"schema": "qelect-response/1", "outcome": "unsolvable"}"#;
        assert!(response_agrees(elected, true).unwrap());
        assert!(!response_agrees(elected, false).unwrap());
        assert!(response_agrees(unsolvable, false).unwrap());
        assert!(!response_agrees(unsolvable, true).unwrap());
        assert!(response_agrees("not json", true).is_err());
    }
}
