//! End-to-end tests for the tracing surface: the `metrics` request's
//! schema and determinism contract, the phase-conservation invariant,
//! trace-ID round-trips into the span log, and chaos-driven cache events.
//!
//! Schema tests here are deliberately brittle: the `stats` and `metrics`
//! key sets are wire contract, read by exact field name (braid-perf's
//! `serve-mix`, the root `tests/daemon.rs`). Renaming a field must fail a test, not silently
//! break a dashboard.

mod common;

use braid_serve::chaos::ChaosSpec;
use braid_serve::server::ServerConfig;
use braid_sweep::json::{self, Json};
use common::{start, Client, TempDir};

/// Top-level keys of an object, in rendering order.
fn keys(doc: &Json) -> Vec<String> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

/// Recursively drops every object field whose key ends in `_us` — the
/// documented nondeterministic remainder of a metrics document.
fn strip_host_time(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| !k.ends_with("_us"))
                .map(|(k, v)| (k.clone(), strip_host_time(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_host_time).collect()),
        other => other.clone(),
    }
}

/// The request sequence both determinism-test servers replay.
const MIX: [&str; 7] = [
    r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"braid"}"#,
    r#"{"id":2,"kind":"simulate","workload":"stencil","core":"ooo","tier":"func"}"#,
    r#"{"id":3,"kind":"translate","workload":"fig2_life"}"#,
    r#"{"id":4,"kind":"check","workload":"dot_product"}"#,
    // Cache hit: byte-identical to request 1 modulo the id.
    r#"{"id":5,"kind":"simulate","workload":"dot_product","core":"braid"}"#,
    // A protocol error is part of the deterministic surface too.
    r#"{"id":6,"kind":"no-such-kind"}"#,
    r#"{"id":7,"kind":"simulate","workload":"histogram","core":"inorder"}"#,
];

#[test]
fn metrics_schema_is_pinned_and_phases_conserve() {
    let (addr, handle) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);
    for line in MIX {
        c.round_trip(line);
    }

    let stats = c.round_trip(r#"{"id":90,"kind":"stats"}"#);
    let stats = stats.get("result").expect("stats result");
    assert_eq!(
        keys(stats),
        ["requests", "protocol_errors", "request_errors", "retries", "shed", "cache", "pool",
         "latency_us", "cpi"],
        "stats document key set is wire contract"
    );

    let doc = c.round_trip(r#"{"id":91,"kind":"metrics"}"#);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    let m = doc.get("result").expect("metrics result");
    assert_eq!(
        keys(m),
        ["requests", "protocol_errors", "request_errors", "retries", "shed", "cache", "trace"],
        "metrics document key set is wire contract"
    );
    let trace = m.get("trace").expect("trace block");
    assert_eq!(keys(trace), ["spans", "status", "phases", "classes", "events", "conserved"]);
    assert_eq!(
        keys(trace.get("phases").unwrap()),
        ["read", "parse", "queue_wait", "cache_probe", "execute", "serialize", "write"],
        "phase taxonomy in lifetime order"
    );
    for (_, summary) in match trace.get("phases").unwrap() {
        Json::Obj(fields) => fields.iter(),
        _ => unreachable!(),
    } {
        assert_eq!(
            keys(summary),
            ["count", "total_us", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"]
        );
    }

    // Conservation, checked remotely: 6 parsed requests + 1 protocol
    // error had completed spans when metrics was served, every phase
    // histogram saw every span, and phase time sums to class time.
    let spans = trace.get("spans").and_then(Json::as_u64).expect("spans");
    assert_eq!(spans, MIX.len() as u64 + 1, "mix spans plus the stats span");
    for p in ["read", "parse", "queue_wait", "cache_probe", "execute", "serialize", "write"] {
        let count =
            trace.get("phases").unwrap().get(p).unwrap().get("count").unwrap().as_u64();
        assert_eq!(count, Some(spans), "phase {p} saw every span");
    }
    assert_eq!(trace.get("conserved").and_then(Json::as_bool), Some(true));

    // Classes and statuses reflect the mix.
    let classes = trace.get("classes").expect("classes");
    assert_eq!(
        classes.get("simulate").unwrap().get("count").unwrap().as_u64(),
        Some(4),
        "four simulate spans (including the cache hit)"
    );
    assert_eq!(classes.get("invalid").unwrap().get("count").unwrap().as_u64(), Some(1));
    let status = trace.get("status").expect("status");
    assert_eq!(status.get("ok").unwrap().as_u64(), Some(MIX.len() as u64));
    assert_eq!(status.get("protocol_error").unwrap().as_u64(), Some(1));

    // The cache verdictless stats request probed nothing; compute spans
    // carried hit/miss — visible indirectly through the cache counters.
    assert_eq!(m.get("cache").unwrap().get("hits").unwrap().as_u64(), Some(1));

    c.round_trip(r#"{"id":99,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn metrics_is_byte_deterministic_modulo_host_time() {
    let fetch = || {
        let (addr, handle) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
        let mut c = Client::connect(&addr);
        for line in MIX {
            c.round_trip(line);
        }
        let doc = c.round_trip(r#"{"id":91,"kind":"metrics"}"#);
        c.round_trip(r#"{"id":99,"kind":"shutdown"}"#);
        handle.join().unwrap().unwrap();
        doc.get("result").expect("metrics result").clone()
    };
    let a = fetch();
    let b = fetch();
    assert_eq!(
        strip_host_time(&a).compact(),
        strip_host_time(&b).compact(),
        "same request sequence, same metrics bytes modulo *_us fields"
    );
    // And the stripped document still carries the deterministic core.
    let stripped = strip_host_time(&a);
    assert!(stripped.get("trace").unwrap().get("spans").is_some());
    assert!(stripped.compact().contains("\"count\""));
    assert!(!stripped.compact().contains("_us\""), "no host-time key survives the strip");
}

#[test]
fn trace_ids_round_trip_into_the_span_log() {
    let tmp = TempDir::new("spanlog");
    std::fs::create_dir_all(&tmp.0).expect("mkdir");
    let log_path = tmp.0.join("spans.jsonl");
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        trace_log: Some(log_path.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&addr);
    let traced = r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"braid","trace":"cafe-d00d-0001"}"#;
    assert_eq!(
        c.round_trip(traced).get("status").and_then(Json::as_str),
        Some("ok"),
        "the trace field must not perturb request handling"
    );
    c.round_trip(r#"{"id":2,"kind":"translate","workload":"stencil"}"#);
    c.round_trip(r#"{"id":9,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();

    let log = std::fs::read_to_string(&log_path).expect("span log written");
    let spans: Vec<Json> = log
        .lines()
        .map(|l| json::parse(l).expect("every log line is JSON"))
        .filter(|d| d.get("event").and_then(Json::as_str) == Some("span"))
        .collect();
    assert_eq!(spans.len(), 3, "simulate + translate + shutdown spans");

    let traced_span = spans
        .iter()
        .find(|s| s.get("trace").and_then(Json::as_str) == Some("cafe-d00d-0001"))
        .expect("client-supplied trace ID lands in the log verbatim");
    assert_eq!(traced_span.get("kind").and_then(Json::as_str), Some("simulate"));
    assert_eq!(traced_span.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(traced_span.get("cache").and_then(Json::as_str), Some("miss"));
    assert!(
        traced_span.get("cycles").and_then(Json::as_u64).unwrap() > 0,
        "a full-tier simulate attributes simulated cycles to its span"
    );

    for span in &spans {
        // Requests without a trace field get generated `t-` IDs.
        let trace = span.get("trace").and_then(Json::as_str).unwrap();
        assert!(trace == "cafe-d00d-0001" || trace.starts_with("t-"), "{trace}");
        // Per-span conservation in the exported record.
        let phases = span.get("phases_us").expect("phase object");
        let sum: u64 = ["read", "parse", "queue_wait", "cache_probe", "execute", "serialize",
                        "write"]
            .iter()
            .map(|p| phases.get(p).and_then(Json::as_u64).expect("every phase present"))
            .sum();
        assert_eq!(span.get("total_us").and_then(Json::as_u64), Some(sum));
    }

    // Trace IDs never leak into response lines (checked above implicitly:
    // the simulate response parsed as ok). The cache-hit path must be
    // insensitive to the trace too: replay on a fresh server.
    let (addr2, handle2) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut c2 = Client::connect(&addr2);
    let untraced = r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"braid"}"#;
    let with_trace = c2.round_trip(traced).compact();
    let without = c2.round_trip(untraced).compact();
    assert_eq!(with_trace, without, "trace field never reaches the response bytes");
    c2.round_trip(r#"{"id":9,"kind":"shutdown"}"#);
    handle2.join().unwrap().unwrap();
}

#[test]
fn oversized_trace_field_is_a_structured_error() {
    let (addr, handle) = start(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);
    let long = "x".repeat(braid_serve::protocol::MAX_TRACE_LEN + 1);
    let doc = c.round_trip(&format!(
        r#"{{"id":5,"kind":"simulate","workload":"dot_product","core":"braid","trace":"{long}"}}"#
    ));
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(5), "error still correlates by id");
    c.round_trip(r#"{"id":9,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn chaos_cache_faults_surface_as_trace_events() {
    // Corruption: every insert writes a corrupt disk entry (and skips
    // RAM), so re-requesting forces a disk read → quarantine → event.
    let tmp = TempDir::new("chaos-events");
    let log_path = tmp.0.join("spans.jsonl");
    let cache_dir = tmp.0.join("cache");
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        cache_dir: Some(cache_dir),
        trace_log: Some(log_path.clone()),
        chaos: Some(ChaosSpec::parse("seed=3,corrupt=1.0").expect("spec")),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&addr);
    let req = r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"braid"}"#;
    c.round_trip(req);
    c.round_trip(req); // forced disk read detects the corruption
    let m = c.round_trip(r#"{"id":2,"kind":"metrics"}"#);
    let events = m.get("result").unwrap().get("trace").unwrap().get("events").unwrap();
    assert!(
        events.get("cache-quarantined").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "quarantine is a countable event, not just an stderr line: {}",
        events.compact()
    );
    c.round_trip(r#"{"id":9,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
    let log = std::fs::read_to_string(&log_path).expect("span log");
    assert!(
        log.lines().any(|l| l.contains("\"event\":\"cache-quarantined\"")),
        "quarantine event exported to the span log"
    );

    // Disk-full: the first insert fails and demotes the tier — once.
    let tmp2 = TempDir::new("chaos-demote");
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        cache_dir: Some(tmp2.0.join("cache")),
        chaos: Some(ChaosSpec::parse("seed=3,enospc=1.0").expect("spec")),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&addr);
    c.round_trip(req);
    c.round_trip(r#"{"id":2,"kind":"translate","workload":"stencil"}"#);
    let m = c.round_trip(r#"{"id":3,"kind":"metrics"}"#);
    let events = m.get("result").unwrap().get("trace").unwrap().get("events").unwrap();
    assert_eq!(
        events.get("cache-demoted").and_then(Json::as_u64),
        Some(1),
        "demotion is log-once: {}",
        events.compact()
    );
    c.round_trip(r#"{"id":9,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}
