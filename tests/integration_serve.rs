//! Loopback integration tests for `qelectd` (the serving daemon of
//! `qelect-bench`): concurrent clients, single-flight dedup,
//! malformed-request 400s, queue-full 503s, graceful shutdown draining
//! every admitted job, the batch endpoint's deterministic projection,
//! instance-affine shard routing, and durable-store warm restarts.
//!
//! Each test talks real HTTP/1.1 over a loopback `TcpStream` through
//! its own minimal client, so the daemon's wire format is exercised
//! end to end rather than through the crate's internal client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use qelect_agentsim::json::{envelope, get, Value};
use qelect_bench::serve::{start, ServeConfig, ServerHandle};

/// Store-owning daemons install a process-global canon observer, so
/// tests that use stores serialize on this lock to keep one test's
/// shutdown from uninstalling another's observer mid-flight.
static STORE_TESTS: Mutex<()> = Mutex::new(());

/// POST (or GET) once on a fresh connection; returns (status, body).
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let code: u16 = status
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut buf = vec![0u8; content_length];
    reader.read_exact(&mut buf).expect("body");
    (code, String::from_utf8(buf).expect("utf8 body"))
}

fn parse_response(body: &str) -> Vec<(String, Value)> {
    envelope::check_document(body, envelope::RESPONSE).unwrap_or_else(|e| panic!("{e}: {body}"))
}

fn elect_body(spec: &str, seed: u64, extra: &str) -> String {
    format!(r#"{{"schema": "qelect-request/1", "spec": "{spec}", "seed": {seed}{extra}}}"#)
}

fn spawn(cfg: ServeConfig) -> ServerHandle {
    start(cfg).expect("bind loopback daemon")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    }
}

#[test]
fn healthz_metrics_and_elections_answer_versioned_json() {
    let server = spawn(test_config());
    let addr = server.addr();

    let (code, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(code, 200);
    let health = parse_response(&body);
    assert_eq!(get(&health, "status").unwrap().as_str(), Some("ok"));

    // A solvable instance elects; the response carries the oracle facts.
    let (code, body) = http(
        addr,
        "POST",
        "/v1/elect",
        &elect_body("cycle:9@0,1,3", 7, ""),
    );
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(get(&resp, "outcome").unwrap().as_str(), Some("elected"));
    assert_eq!(get(&resp, "solvable").unwrap().as_bool(), Some(true));
    assert_eq!(get(&resp, "gcd").unwrap().as_num(), Some(1.0));
    assert!(get(&resp, "leader").unwrap().as_num().is_some());
    assert_eq!(get(&resp, "coalesced").unwrap().as_bool(), Some(false));

    // An unsolvable one reports the unanimous verdict.
    let (code, body) = http(addr, "POST", "/v1/elect", &elect_body("cycle:6@0,3", 7, ""));
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(get(&resp, "outcome").unwrap().as_str(), Some("unsolvable"));
    assert_eq!(get(&resp, "solvable").unwrap().as_bool(), Some(false));
    assert_eq!(get(&resp, "gcd").unwrap().as_num(), Some(2.0));

    let (code, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(code, 200);
    let metrics = parse_response(&body);
    assert_eq!(get(&metrics, "completed").unwrap().as_num(), Some(2.0));
    assert!(get(&metrics, "cache").is_some());
    assert!(get(&metrics, "phases").unwrap().as_array().is_some());
    assert!(get(&metrics, "classes").unwrap().as_array().is_some());

    let (code, _) = http(addr, "GET", "/nope", "");
    assert_eq!(code, 404);
    server.shutdown();
}

#[test]
fn concurrent_clients_all_agree_with_the_oracle() {
    let server = spawn(test_config());
    let addr = server.addr();
    let mix = [
        ("cycle:9@0,1,3", "elected"),
        ("cycle:6@0,3", "unsolvable"),
        ("petersen@0,1", "unsolvable"),
        ("cycle:12@0,1,3", "elected"),
    ];
    std::thread::scope(|scope| {
        for client in 0..8usize {
            let mix = &mix;
            scope.spawn(move || {
                for round in 0..4u64 {
                    let (spec, expected) = mix[(client + round as usize) % mix.len()];
                    // Distinct seeds: every request is a private run.
                    let seed = client as u64 * 1000 + round;
                    let (code, body) = http(addr, "POST", "/v1/elect", &elect_body(spec, seed, ""));
                    assert_eq!(code, 200, "{body}");
                    let resp = parse_response(&body);
                    assert_eq!(
                        get(&resp, "outcome").unwrap().as_str(),
                        Some(expected),
                        "{spec} seed {seed}"
                    );
                }
            });
        }
    });
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = parse_response(&body);
    assert_eq!(get(&metrics, "completed").unwrap().as_num(), Some(32.0));
    server.shutdown();
}

#[test]
fn identical_inflight_requests_coalesce_to_one_run() {
    let server = spawn(ServeConfig {
        debug: true,
        workers: 2,
        ..test_config()
    });
    let addr = server.addr();
    // Two byte-identical requests; the debug sleep holds the first in a
    // worker long enough for the second to attach to its result cell.
    let body = elect_body("cycle:9@0,1,3", 42, r#", "debug_sleep_ms": 300"#);
    let coalesced_count = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for wait_ms in [0u64, 100] {
            let (body, coalesced_count) = (&body, &coalesced_count);
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(wait_ms));
                let (code, resp_body) = http(addr, "POST", "/v1/elect", body);
                assert_eq!(code, 200, "{resp_body}");
                let resp = parse_response(&resp_body);
                assert_eq!(get(&resp, "outcome").unwrap().as_str(), Some("elected"));
                if get(&resp, "coalesced").unwrap().as_bool() == Some(true) {
                    coalesced_count.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    assert_eq!(
        coalesced_count.load(Ordering::SeqCst),
        1,
        "exactly the second arrival coalesces"
    );
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = parse_response(&body);
    assert_eq!(
        get(&metrics, "completed").unwrap().as_num(),
        Some(1.0),
        "one run served both requests"
    );
    assert_eq!(get(&metrics, "coalesced").unwrap().as_num(), Some(1.0));
    server.shutdown();
}

#[test]
fn malformed_requests_get_400_without_touching_the_queue() {
    let server = spawn(test_config());
    let addr = server.addr();
    for bad in [
        "not json at all",
        r#"{"spec": "cycle:9"}"#,
        r#"{"schema": "qelect-sweep/1", "spec": "cycle:9"}"#,
        r#"{"schema": "qelect-request/1"}"#,
        r#"{"schema": "qelect-request/1", "spec": "nosuch:9"}"#,
        r#"{"schema": "qelect-request/1", "spec": "cycle:9@0,0"}"#,
        r#"{"schema": "qelect-request/1", "spec": "cycle:9", "engine": "warp"}"#,
        r#"{"schema": "qelect-request/1", "spec": "cycle:9", "policy": "warp"}"#,
        r#"{"schema": "qelect-request/1", "spec": "cycle:9", "faults": {"bogus": 1}}"#,
    ] {
        let (code, body) = http(addr, "POST", "/v1/elect", bad);
        assert_eq!(code, 400, "{bad} -> {body}");
        let resp = parse_response(&body);
        assert_eq!(get(&resp, "kind").unwrap().as_str(), Some("error"));
        assert!(get(&resp, "error").unwrap().as_str().is_some());
    }
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = parse_response(&body);
    assert_eq!(get(&metrics, "bad_requests").unwrap().as_num(), Some(9.0));
    assert_eq!(get(&metrics, "requests").unwrap().as_num(), Some(0.0));
    assert_eq!(get(&metrics, "completed").unwrap().as_num(), Some(0.0));
    server.shutdown();
}

#[test]
fn queue_overflow_answers_503_with_retry_hint() {
    let server = spawn(ServeConfig {
        debug: true,
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 25,
        ..test_config()
    });
    let addr = server.addr();
    let slow = |seed| elect_body("cycle:9@0,1,3", seed, r#", "debug_sleep_ms": 500"#);
    std::thread::scope(|scope| {
        // Seed 1 occupies the single worker; seed 2 fills the queue.
        scope.spawn(|| {
            let (code, body) = http(addr, "POST", "/v1/elect", &slow(1));
            assert_eq!(code, 200, "{body}");
        });
        std::thread::sleep(Duration::from_millis(150));
        scope.spawn(|| {
            let (code, body) = http(addr, "POST", "/v1/elect", &slow(2));
            assert_eq!(code, 200, "{body}");
        });
        std::thread::sleep(Duration::from_millis(150));
        // Seed 3 finds the queue full: backpressure, not buffering.
        let (code, body) = http(addr, "POST", "/v1/elect", &slow(3));
        assert_eq!(code, 503, "{body}");
        let resp = parse_response(&body);
        assert_eq!(get(&resp, "kind").unwrap().as_str(), Some("error"));
        assert_eq!(get(&resp, "retry_after_ms").unwrap().as_num(), Some(25.0));
    });
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = parse_response(&body);
    assert_eq!(
        get(&metrics, "rejected_queue_full").unwrap().as_num(),
        Some(1.0)
    );
    assert_eq!(get(&metrics, "completed").unwrap().as_num(), Some(2.0));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_admitted_job() {
    let server = spawn(ServeConfig {
        debug: true,
        workers: 2,
        queue_cap: 32,
        ..test_config()
    });
    let addr = server.addr();
    let answered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Eight slow jobs: two run, six sit in the queue when the
        // shutdown lands. All eight must still be answered.
        for seed in 0..8u64 {
            let answered = &answered;
            scope.spawn(move || {
                let body = elect_body("cycle:9@0,1,3", seed, r#", "debug_sleep_ms": 150"#);
                let (code, resp_body) = http(addr, "POST", "/v1/elect", &body);
                assert_eq!(code, 200, "seed {seed}: {resp_body}");
                let resp = parse_response(&resp_body);
                assert_eq!(get(&resp, "outcome").unwrap().as_str(), Some("elected"));
                answered.fetch_add(1, Ordering::SeqCst);
            });
        }
        std::thread::sleep(Duration::from_millis(80));
        let (code, body) = http(addr, "POST", "/shutdown", "");
        assert_eq!(code, 200, "{body}");
        let resp = parse_response(&body);
        assert_eq!(get(&resp, "status").unwrap().as_str(), Some("draining"));
        // New elections are refused while the queue drains.
        let late = elect_body("cycle:6@0,3", 99, "");
        let (code, body) = http(addr, "POST", "/v1/elect", &late);
        assert_eq!(code, 503, "{body}");
    });
    assert_eq!(answered.load(Ordering::SeqCst), 8, "no dropped responses");
    let final_metrics = server.shutdown();
    let metrics = parse_response(&final_metrics);
    assert_eq!(get(&metrics, "completed").unwrap().as_num(), Some(8.0));
    assert_eq!(
        get(&metrics, "rejected_draining").unwrap().as_num(),
        Some(1.0)
    );
}

/// The deterministic projection of one election result: every field the
/// batch endpoint promises to carry byte-for-byte identically to a
/// single `/v1/elect` response (timing fields excluded by design).
fn deterministic_projection(obj: &[(String, Value)]) -> String {
    [
        "spec", "engine", "policy", "seed", "outcome", "leader", "solvable", "gcd", "moves",
        "accesses", "steps",
    ]
    .iter()
    .map(|field| {
        format!(
            "{field}={}",
            get(obj, field)
                .map(qelect_agentsim::json::write)
                .unwrap_or_else(|| "<absent>".to_string())
        )
    })
    .collect::<Vec<_>>()
    .join("|")
}

#[test]
fn batch_matches_sequential_elections_byte_for_byte() {
    let server = spawn(ServeConfig {
        shards: 4,
        workers: 2,
        ..test_config()
    });
    let addr = server.addr();
    // A mixed batch: solvable/unsolvable, the engine field absent or
    // naming the one engine, distinct seeds — every item a private run
    // on its affine shard.
    let sim = r#", "engine": "sim""#;
    let items = [
        ("cycle:9@0,1,3", "", 101u64),
        ("cycle:6@0,3", "", 102),
        ("petersen@0,1", sim, 103),
        ("cycle:12@0,1,3", sim, 104),
        ("circulant:12:1,3@0,1,3", "", 105),
    ];
    let reqs: Vec<String> = items
        .iter()
        .map(|(spec, engine, seed)| format!(r#"{{"spec": "{spec}"{engine}, "seed": {seed}}}"#))
        .collect();
    let batch = format!(
        r#"{{"schema": "qelect-request/1", "requests": [{}]}}"#,
        reqs.join(", ")
    );
    let (code, body) = http(addr, "POST", "/v1/batch", &batch);
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(get(&resp, "kind").unwrap().as_str(), Some("batch"));
    assert_eq!(get(&resp, "count").unwrap().as_num(), Some(5.0));
    assert_eq!(get(&resp, "ok").unwrap().as_num(), Some(5.0));
    assert_eq!(get(&resp, "failed").unwrap().as_num(), Some(0.0));
    let results = get(&resp, "results").unwrap().as_array().unwrap();

    // The differential: replay every item through /v1/elect and compare
    // the deterministic projections. The batch completed first, so the
    // sequential runs cannot coalesce with it — each re-executes and
    // must land on identical bytes (runs are pure in (instance, config)).
    for (result, (spec, engine, seed)) in results.iter().zip(items) {
        let body = format!(
            r#"{{"schema": "qelect-request/1", "spec": "{spec}"{engine}, "seed": {seed}}}"#
        );
        let (code, single_body) = http(addr, "POST", "/v1/elect", &body);
        assert_eq!(code, 200, "{single_body}");
        let single = parse_response(&single_body);
        assert_eq!(
            deterministic_projection(result.as_object().unwrap()),
            deterministic_projection(&single),
            "batch item for {spec} seed {seed} diverged from its sequential run"
        );
    }
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = parse_response(&body);
    assert_eq!(get(&metrics, "batches").unwrap().as_num(), Some(1.0));
    assert_eq!(get(&metrics, "batch_items").unwrap().as_num(), Some(5.0));
    assert_eq!(get(&metrics, "shards").unwrap().as_num(), Some(4.0));
    server.shutdown();
}

#[test]
fn isomorphic_specs_route_to_the_same_shard() {
    let server = spawn(ServeConfig {
        shards: 4,
        ..test_config()
    });
    let addr = server.addr();
    // cycle:6@1,4 is cycle:6@0,3 rotated by one: same canonical form,
    // so affinity routing must put both on one shard even though the
    // spec keys differ.
    for spec in ["cycle:6@0,3", "cycle:6@1,4", "cycle:9@0,1,3"] {
        let (code, body) = http(addr, "POST", "/v1/elect", &elect_body(spec, 5, ""));
        assert_eq!(code, 200, "{body}");
    }
    let (_, body) = http(addr, "GET", "/metrics", "");
    let metrics = parse_response(&body);
    let routes = get(&metrics, "routes").unwrap().as_array().unwrap();
    let shard_of = |spec: &str| -> u64 {
        routes
            .iter()
            .filter_map(Value::as_object)
            .find(|r| get(r, "spec").and_then(Value::as_str) == Some(spec))
            .and_then(|r| get(r, "shard").and_then(Value::as_num))
            .unwrap_or_else(|| panic!("no route for {spec} in {body}")) as u64
    };
    assert_eq!(
        shard_of("cycle:6@0,3"),
        shard_of("cycle:6@1,4"),
        "isomorphic presentations must share a shard"
    );
    server.shutdown();
}

#[test]
fn batch_envelope_failures_and_per_item_errors() {
    let server = spawn(ServeConfig {
        shards: 2,
        ..test_config()
    });
    let addr = server.addr();
    // Envelope-level failures reject the whole batch with a 400.
    for bad in [
        r#"{"schema": "qelect-request/1"}"#,
        r#"{"schema": "qelect-request/1", "requests": []}"#,
        r#"{"schema": "qelect-request/1", "requests": 7}"#,
    ] {
        let (code, body) = http(addr, "POST", "/v1/batch", bad);
        assert_eq!(code, 400, "{bad} -> {body}");
    }
    // An oversized batch is a 400, not a truncation.
    let huge = format!(
        r#"{{"schema": "qelect-request/1", "requests": [{}]}}"#,
        vec![r#"{"spec": "cycle:6@0,3"}"#; 257].join(", ")
    );
    let (code, body) = http(addr, "POST", "/v1/batch", &huge);
    assert_eq!(code, 400, "{body}");

    // Item-level failures stay per-item: the good items still run.
    let mixed = r#"{"schema": "qelect-request/1", "requests": [
        {"spec": "cycle:9@0,1,3", "seed": 1},
        {"spec": "nosuch:9"},
        {"spec": "cycle:6@0,3", "seed": 2, "engine": "sim"},
        "not an object",
        {"spec": "cycle:9@0,1,3", "engine": 5}
    ]}"#;
    let (code, body) = http(addr, "POST", "/v1/batch", mixed);
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(get(&resp, "count").unwrap().as_num(), Some(5.0));
    assert_eq!(get(&resp, "ok").unwrap().as_num(), Some(2.0));
    assert_eq!(get(&resp, "failed").unwrap().as_num(), Some(3.0));
    let results = get(&resp, "results").unwrap().as_array().unwrap();
    let kinds: Vec<Option<&str>> = results
        .iter()
        .map(|r| {
            r.as_object()
                .and_then(|o| get(o, "kind").and_then(Value::as_str))
        })
        .collect();
    assert_eq!(kinds[0], None, "good item carries an outcome, not a kind");
    assert_eq!(kinds[1], Some("bad_request"));
    assert_eq!(kinds[2], None);
    assert_eq!(kinds[3], Some("bad_request"));
    // A mistyped engine is a bad request, not a silent default.
    assert_eq!(kinds[4], Some("bad_request"));
    assert_eq!(
        get(results[4].as_object().unwrap(), "error")
            .unwrap()
            .as_str(),
        Some(r#""engine" must be a string"#)
    );
    assert_eq!(
        get(results[0].as_object().unwrap(), "outcome")
            .unwrap()
            .as_str(),
        Some("elected")
    );
    server.shutdown();
}

#[test]
fn batch_backpressure_rejects_items_not_connections() {
    let server = spawn(ServeConfig {
        debug: true,
        workers: 1,
        queue_cap: 1,
        retry_after_ms: 25,
        ..test_config()
    });
    let addr = server.addr();
    let slow = |seed| elect_body("cycle:9@0,1,3", seed, r#", "debug_sleep_ms": 500"#);
    std::thread::scope(|scope| {
        // Occupy the single worker, then fill the one queue slot.
        scope.spawn(|| {
            let (code, body) = http(addr, "POST", "/v1/elect", &slow(41));
            assert_eq!(code, 200, "{body}");
        });
        std::thread::sleep(Duration::from_millis(150));
        scope.spawn(|| {
            let (code, body) = http(addr, "POST", "/v1/elect", &slow(42));
            assert_eq!(code, 200, "{body}");
        });
        std::thread::sleep(Duration::from_millis(150));
        // A batch arriving now is answered 200, with each item
        // individually rejected and carrying the retry hint.
        let batch = r#"{"schema": "qelect-request/1", "requests": [
            {"spec": "cycle:9@0,1,3", "seed": 43, "debug_sleep_ms": 500},
            {"spec": "cycle:9@0,1,3", "seed": 44, "debug_sleep_ms": 500}
        ]}"#;
        let (code, body) = http(addr, "POST", "/v1/batch", batch);
        assert_eq!(code, 200, "{body}");
        let resp = parse_response(&body);
        assert_eq!(get(&resp, "ok").unwrap().as_num(), Some(0.0));
        assert_eq!(get(&resp, "failed").unwrap().as_num(), Some(2.0));
        for r in get(&resp, "results").unwrap().as_array().unwrap() {
            let r = r.as_object().unwrap();
            assert_eq!(get(r, "kind").unwrap().as_str(), Some("rejected"));
            assert_eq!(get(r, "retry_after_ms").unwrap().as_num(), Some(25.0));
        }
    });
    server.shutdown();
}

#[test]
fn absent_protocol_field_is_byte_identical_to_explicit_elect() {
    let server = spawn(test_config());
    let addr = server.addr();
    // The pre-registry wire format: no "protocol" field. The explicit
    // default must parse, execute, and render as the same request —
    // same deterministic projection, and neither response grows a
    // "protocol" field (the default is never echoed).
    let absent = elect_body("cycle:9@0,1,3", 11, "");
    let explicit = elect_body("cycle:9@0,1,3", 11, r#", "protocol": "elect""#);
    let (code, absent_body) = http(addr, "POST", "/v1/elect", &absent);
    assert_eq!(code, 200, "{absent_body}");
    let (code, explicit_body) = http(addr, "POST", "/v1/elect", &explicit);
    assert_eq!(code, 200, "{explicit_body}");
    let absent_resp = parse_response(&absent_body);
    let explicit_resp = parse_response(&explicit_body);
    assert_eq!(
        deterministic_projection(&absent_resp),
        deterministic_projection(&explicit_resp),
        "explicit \"protocol\": \"elect\" must coalesce with the absent field"
    );
    assert!(get(&absent_resp, "protocol").is_none(), "{absent_body}");
    assert!(get(&explicit_resp, "protocol").is_none(), "{explicit_body}");
    server.shutdown();
}

#[test]
fn unknown_protocols_are_bad_requests_per_surface() {
    let server = spawn(test_config());
    let addr = server.addr();
    // Single endpoint: a 400 error envelope, queue untouched.
    for bad in [
        r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": "warp"}"#,
        r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": "view"}"#,
        r#"{"schema": "qelect-request/1", "spec": "cycle:9", "protocol": 7}"#,
    ] {
        let (code, body) = http(addr, "POST", "/v1/elect", bad);
        assert_eq!(code, 400, "{bad} -> {body}");
        let resp = parse_response(&body);
        assert_eq!(get(&resp, "kind").unwrap().as_str(), Some("error"));
    }
    // Batch endpoint: the bad item fails alone; its neighbors still run.
    let mixed = r#"{"schema": "qelect-request/1", "requests": [
        {"spec": "cycle:9@0,1,3", "seed": 1},
        {"spec": "cycle:9@0,1,3", "seed": 1, "protocol": "warp"}
    ]}"#;
    let (code, body) = http(addr, "POST", "/v1/batch", mixed);
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(get(&resp, "ok").unwrap().as_num(), Some(1.0));
    assert_eq!(get(&resp, "failed").unwrap().as_num(), Some(1.0));
    let results = get(&resp, "results").unwrap().as_array().unwrap();
    let bad = results[1].as_object().unwrap();
    assert_eq!(get(bad, "kind").unwrap().as_str(), Some("bad_request"));
    assert!(
        get(bad, "error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("unknown protocol"),
        "{body}"
    );
    server.shutdown();
}

#[test]
fn mixed_protocol_batch_round_trips() {
    let server = spawn(ServeConfig {
        shards: 2,
        ..test_config()
    });
    let addr = server.addr();
    // One batch spanning the servable zoo: the default, both new
    // protocols (one via its alias), and an instance where their
    // verdicts diverge — ELECT solves cycle:12@0,3,6 (gcd 1) and so
    // does dp-anon (the reflection stabilizer leaves {3} a singleton
    // class), while dp-anon cannot solve path:5@1,3.
    let batch = r#"{"schema": "qelect-request/1", "requests": [
        {"spec": "cycle:9@0,1,3", "seed": 5},
        {"spec": "cycle:12@0,3,6", "seed": 5, "protocol": "dp-anon"},
        {"spec": "path:5@1,3", "seed": 5, "protocol": "dp"},
        {"spec": "cycle:6@0,3", "seed": 5, "protocol": "agent-elect", "engine": "sim"}
    ]}"#;
    let (code, body) = http(addr, "POST", "/v1/batch", batch);
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(get(&resp, "ok").unwrap().as_num(), Some(4.0));
    let results = get(&resp, "results").unwrap().as_array().unwrap();
    let expect = [
        (None, "elected"),
        (Some("dp-anon"), "elected"),
        (Some("dp-anon"), "unsolvable"),
        (Some("agent-elect"), "elected"),
    ];
    for (result, (protocol, outcome)) in results.iter().zip(expect) {
        let obj = result.as_object().unwrap();
        assert_eq!(
            get(obj, "protocol").and_then(Value::as_str),
            protocol,
            "{body}"
        );
        assert_eq!(
            get(obj, "outcome").unwrap().as_str(),
            Some(outcome),
            "{body}"
        );
    }
    // Non-default single requests echo the resolved wire name too.
    let (code, body) = http(
        addr,
        "POST",
        "/v1/elect",
        &elect_body("cycle:6@0,3", 5, r#", "protocol": "agent""#),
    );
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert_eq!(
        get(&resp, "protocol").unwrap().as_str(),
        Some("agent-elect")
    );
    assert_eq!(get(&resp, "outcome").unwrap().as_str(), Some("elected"));
    // The gcd-oracle facts stay instance-level: cycle:6@0,3 is not
    // ELECT-solvable even though agent-elect elects on it.
    assert_eq!(get(&resp, "solvable").unwrap().as_bool(), Some(false));
    server.shutdown();
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("qelstor-it-{}-{name}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn store_config(path: &std::path::Path, shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        store: Some(path.to_str().unwrap().to_string()),
        ..test_config()
    }
}

#[test]
fn store_restart_comes_up_warm() {
    let _guard = STORE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_store("warm");
    // Specs unique to this test, so their canonical forms are cache
    // misses here (a hit would skip the write-through observer).
    let specs = ["cycle:30@0,2,9", "circulant:14:1,3@0,1"];
    let first = spawn(store_config(&path, 2));
    assert_eq!(first.replay_counts(), (0, 0), "fresh store replays nothing");
    for (i, spec) in specs.iter().enumerate() {
        let (code, body) = http(
            first.addr(),
            "POST",
            "/v1/elect",
            &elect_body(spec, i as u64, ""),
        );
        assert_eq!(code, 200, "{body}");
    }
    first.shutdown();

    let second = spawn(store_config(&path, 2));
    let (canon, replayed_specs) = second.replay_counts();
    assert!(canon >= 2, "canonical forms were persisted and replayed");
    assert_eq!(replayed_specs, 2, "both instance specs were replayed");
    let (_, body) = http(second.addr(), "GET", "/metrics", "");
    let metrics = parse_response(&body);
    let store = get(&metrics, "store").unwrap().as_object().unwrap();
    assert_eq!(
        get(store, "replayed_specs").unwrap().as_num(),
        Some(2.0),
        "{body}"
    );
    // The replayed state still serves correct elections.
    let (code, body) = http(
        second.addr(),
        "POST",
        "/v1/elect",
        &elect_body(specs[0], 99, ""),
    );
    assert_eq!(code, 200, "{body}");
    let resp = parse_response(&body);
    assert!(get(&resp, "outcome").unwrap().as_str().is_some());
    second.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_store_tail_is_tolerated() {
    let _guard = STORE_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    let path = temp_store("torn");
    let specs = ["cycle:33@0,4,12", "circulant:18:1,5@0,2"];
    let first = spawn(store_config(&path, 1));
    for (i, spec) in specs.iter().enumerate() {
        let (code, body) = http(
            first.addr(),
            "POST",
            "/v1/elect",
            &elect_body(spec, i as u64, ""),
        );
        assert_eq!(code, 200, "{body}");
    }
    first.shutdown();

    // Tear the last record, as a crash mid-append would.
    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let second = spawn(store_config(&path, 1));
    let (_, replayed_specs) = second.replay_counts();
    assert!(
        replayed_specs >= 1,
        "records before the torn tail must survive"
    );
    // Serving the mix again re-persists whatever the tear destroyed.
    for spec in &specs {
        let (code, body) = http(second.addr(), "POST", "/v1/elect", &elect_body(spec, 7, ""));
        assert_eq!(code, 200, "{body}");
    }
    second.shutdown();

    // The truncated-then-reopened store replays cleanly a third time:
    // open() cut the torn bytes, so the file is whole again.
    let third = spawn(store_config(&path, 1));
    let (_, replayed_specs) = third.replay_counts();
    assert_eq!(replayed_specs, 2, "both specs persisted across the tear");
    third.shutdown();
    let _ = std::fs::remove_file(&path);
}
