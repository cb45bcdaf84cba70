//! End-to-end tests: a live daemon on an ephemeral port, real sockets,
//! real threads. Each test owns its own server and shuts it down via the
//! protocol, so the tests double as drain-semantics coverage.

mod common;

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

use braid_serve::chaos::ChaosSpec;
use braid_serve::loadgen::{run_loadgen, LoadgenConfig};
use braid_serve::server::ServerConfig;
use braid_sweep::json::{self, Json};
use common::{start, Client, TempDir};

fn status(doc: &Json) -> &str {
    doc.get("status").and_then(Json::as_str).expect("status field")
}

#[test]
fn simulate_is_served_cached_and_drained() {
    let (addr, handle) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    let req = r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"braid"}"#;
    c.send(req);
    let first = c.recv();
    let doc = json::parse(&first).unwrap();
    assert_eq!(status(&doc), "ok");
    assert!(doc.get("result").unwrap().get("cycles").unwrap().as_u64().unwrap() > 0);

    // Same content, different id: byte-identical modulo the id field.
    c.send(r#"{"id":2,"kind":"simulate","workload":"dot_product","core":"braid"}"#);
    let second = c.recv();
    assert_eq!(first.replace("\"id\":1", "\"id\":2"), second);

    let stats = c.round_trip(r#"{"id":3,"kind":"stats"}"#);
    let cache = stats.get("result").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));

    let bye = c.round_trip(r#"{"id":4,"kind":"shutdown"}"#);
    assert_eq!(status(&bye), "ok");
    handle.join().unwrap().unwrap();
}

#[test]
fn responses_come_back_in_request_order() {
    let (addr, handle) = start(ServerConfig { threads: 4, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    // Pipeline a burst of differently-sized jobs; the pool finishes them
    // out of order, the writer must not.
    let n = 16u64;
    for id in 0..n {
        let workload = ["dot_product", "stencil", "histogram", "pointer_chase"][id as usize % 4];
        let core = ["braid", "ooo", "inorder", "dep"][(id as usize / 4) % 4];
        c.send(&format!(
            r#"{{"id":{id},"kind":"simulate","workload":"{workload}","core":"{core}"}}"#
        ));
    }
    for id in 0..n {
        let doc = json::parse(&c.recv()).unwrap();
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(id), "in-order delivery");
        assert_eq!(status(&doc), "ok");
    }

    c.send(r#"{"id":99,"kind":"shutdown"}"#);
    let _ = c.recv();
    handle.join().unwrap().unwrap();
}

#[test]
fn deadline_aborts_return_structured_errors() {
    let (addr, handle) = start(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    let doc = c.round_trip(
        r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"ooo","deadline":50}"#,
    );
    assert_eq!(status(&doc), "error");
    assert_eq!(doc.get("code").unwrap().as_str(), Some("deadline"));
    let msg = doc.get("message").unwrap().as_str().unwrap();
    assert!(msg.contains("deadline exceeded"), "structured deadline message, got {msg}");

    // The server-wide default applies when the request carries none.
    let (addr2, handle2) =
        start(ServerConfig { threads: 1, deadline_cycles: 50, ..ServerConfig::default() });
    let mut c2 = Client::connect(&addr2);
    let doc = c2
        .round_trip(r#"{"id":1,"kind":"simulate","workload":"dot_product","core":"ooo"}"#);
    assert_eq!(doc.get("code").unwrap().as_str(), Some("deadline"));
    let _ = c2.round_trip(r#"{"id":2,"kind":"shutdown"}"#);
    handle2.join().unwrap().unwrap();

    let _ = c.round_trip(r#"{"id":2,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn protocol_errors_are_replied_not_fatal() {
    let (addr, handle) = start(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    let doc = c.round_trip("this is not json");
    assert_eq!(status(&doc), "error");
    assert_eq!(doc.get("code").unwrap().as_str(), Some("bad-request"));

    let doc = c.round_trip(r#"{"id":5,"kind":"simulate","workload":"nonesuch","core":"ooo"}"#);
    assert_eq!(status(&doc), "error");
    assert_eq!(doc.get("code").unwrap().as_str(), Some("unknown-workload"));
    assert_eq!(doc.get("id").unwrap().as_u64(), Some(5));

    // The connection survived both errors.
    let doc = c.round_trip(r#"{"id":6,"kind":"translate","workload":"fig2_life"}"#);
    assert_eq!(status(&doc), "ok");
    assert!(doc.get("result").unwrap().get("braids").unwrap().as_u64().unwrap() > 0);

    let _ = c.round_trip(r#"{"id":7,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn check_requests_return_the_full_report() {
    let (addr, handle) = start(ServerConfig { threads: 1, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);
    let doc = c.round_trip(r#"{"id":1,"kind":"check","workload":"stencil"}"#);
    assert_eq!(status(&doc), "ok");
    assert_eq!(doc.get("result").unwrap().get("errors").unwrap().as_u64(), Some(0));
    let _ = c.round_trip(r#"{"id":2,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn execution_tiers_are_distinct_cache_entries_with_identical_hits() {
    let (addr, handle) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    // The same workload/core at three tiers: three distinct computations
    // (the tier joins the cache digest), then one byte-identical hit each.
    let req = |id: u64, tier: &str| {
        format!(
            r#"{{"id":{id},"kind":"simulate","workload":"dot_product","core":"braid","tier":"{tier}"}}"#
        )
    };
    let mut cold = Vec::new();
    for (i, tier) in ["full", "func", "sampled"].iter().enumerate() {
        c.send(&req(i as u64, tier));
        cold.push(c.recv());
    }
    let full = json::parse(&cold[0]).unwrap();
    assert_eq!(status(&full), "ok");
    // The full tier answers exactly as an untiered request would — the
    // tier field must not perturb the original payload or its digest.
    c.send(r#"{"id":9,"kind":"simulate","workload":"dot_product","core":"braid"}"#);
    assert_eq!(c.recv(), cold[0].replace("\"id\":0", "\"id\":9"), "tier full == untiered, cached");

    let func = json::parse(&cold[1]).unwrap();
    let fr = func.get("result").unwrap();
    assert_eq!(fr.get("tier").unwrap().as_str(), Some("func"));
    assert_eq!(fr.get("digest").unwrap().as_str().map(str::len), Some(16));
    assert!(fr.get("cycles").is_none(), "functional tier reports no timing");

    let sampled = json::parse(&cold[2]).unwrap();
    let sr = sampled.get("result").unwrap();
    assert_eq!(sr.get("tier").unwrap().as_str(), Some("sampled"));
    assert!(sr.get("est_cycles").unwrap().as_u64().unwrap() > 0);
    assert!(sr.get("intervals").unwrap().as_u64().unwrap() > 0);
    let est = sr.get("est_cycles").unwrap().as_u64().unwrap();
    let exact = full.get("result").unwrap().get("cycles").unwrap().as_u64().unwrap();
    let err = (est as f64 / exact as f64 - 1.0).abs();
    assert!(err <= 0.05, "sampled estimate within 5% of exact: {est} vs {exact}");
    assert!(sr.get("ci95_cycles").is_none(), "a fully windowed kernel has no interval");

    // All three tiers, plus the untiered alias of full, share the
    // instruction count: tiers agree on the executed stream.
    let insts = |d: &Json| d.get("result").unwrap().get("instructions").unwrap().as_u64();
    assert_eq!(insts(&full), insts(&func));
    assert_eq!(insts(&full), insts(&sampled));

    // Second round: every tier hits its own cache entry byte-for-byte.
    for (i, tier) in ["full", "func", "sampled"].iter().enumerate() {
        let id = 20 + i as u64;
        c.send(&req(id, tier));
        let warm = c.recv();
        assert_eq!(
            warm,
            cold[i].replace(&format!("\"id\":{i}"), &format!("\"id\":{id}")),
            "tier {tier} cache hit is byte-identical"
        );
    }
    let stats = c.round_trip(r#"{"id":40,"kind":"stats"}"#);
    let cache = stats.get("result").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(3), "one computation per tier");
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(4), "untiered full + three repeats");

    // Sampling knobs are part of the digest: a different window is a new
    // computation, not a stale hit. A 512-instruction period ends the
    // dense phase after 1K instructions, so the kernel extrapolates
    // several intervals and reports a confidence interval.
    let doc = c.round_trip(
        r#"{"id":41,"kind":"simulate","workload":"dot_product","core":"braid","tier":"sampled","sample_period":512,"sample_warmup":64,"sample_len":128}"#,
    );
    assert_eq!(status(&doc), "ok");
    assert!(doc.get("result").unwrap().get("ci95_cycles").unwrap().as_u64().is_some());
    let stats = c.round_trip(r#"{"id":42,"kind":"stats"}"#);
    let cache = stats.get("result").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(4));

    // Tiered sweep points carry the estimate alongside the exact run.
    let doc = c.round_trip(
        r#"{"id":43,"kind":"sweep-point","workload":"dot_product","core":"ooo","tier":"sampled"}"#,
    );
    assert_eq!(status(&doc), "ok");
    let r = doc.get("result").unwrap();
    assert!(r.get("key").unwrap().as_str().unwrap().ends_with(":tsampled"));
    assert!(r.get("cycles").unwrap().as_u64().unwrap() > 0, "exact run rides along");
    assert!(r.get("est_cycles").unwrap().as_u64().unwrap() > 0);
    assert!(r.get("ipc_err").unwrap().as_f64().unwrap().abs() <= 0.05);

    let _ = c.round_trip(r#"{"id":50,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn full_connection_table_refuses_with_retry() {
    let (addr, handle) =
        start(ServerConfig { threads: 1, max_connections: 0, ..ServerConfig::default() });
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read retry line");
    let doc = json::parse(line.trim_end()).unwrap();
    assert_eq!(status(&doc), "retry");
    assert!(doc.get("retry_after_ms").unwrap().as_u64().unwrap() > 0);

    // With zero connection slots no shutdown request can ever be
    // delivered; the daemon thread dies with the test process.
    drop(reader);
    drop(handle);
}

#[test]
fn loadgen_verifies_concurrent_equals_sequential() {
    let (addr, handle) = start(ServerConfig { threads: 4, ..ServerConfig::default() });
    let cfg = LoadgenConfig {
        addr,
        connections: 3,
        requests: 60,
        seed: 7,
        verify: true,
        shutdown: true,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg).expect("loadgen run");
    assert!(report.verified(), "replay digest must match");
    assert_eq!(report.ok, report.sent, "kernel mix produces no errors");
    assert!(report.cache_hits > 0, "repeated content must hit the cache");
    assert_eq!(report.digest.len(), 16, "canonical digest rendering");
    handle.join().unwrap().unwrap();
}

#[test]
fn disk_cache_survives_restart_with_byte_identical_hits() {
    let tmp = TempDir::new("restart");
    let req = r#"{"id":1,"kind":"simulate","workload":"stencil","core":"braid","width":8}"#;

    // First daemon computes and persists the result.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        cache_dir: Some(tmp.0.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&addr);
    c.send(req);
    let cold = c.recv();
    assert_eq!(status(&json::parse(&cold).unwrap()), "ok");
    let _ = c.round_trip(r#"{"id":2,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();

    // A fresh daemon over the same directory serves the same bytes from
    // the disk tier without recomputing.
    let (addr, handle) = start(ServerConfig {
        threads: 1,
        cache_dir: Some(tmp.0.clone()),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(&addr);
    c.send(req);
    let warm = c.recv();
    assert_eq!(warm, cold, "disk-tier hit must be byte-identical to the cold compute");

    let stats = c.round_trip(r#"{"id":2,"kind":"stats"}"#);
    let cache = stats.get("result").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1), "served as a hit, not recomputed");
    assert_eq!(cache.get("misses").unwrap().as_u64(), Some(0));
    let disk = cache.get("disk").expect("disk counters present with a cache dir");
    assert_eq!(disk.get("hits").unwrap().as_u64(), Some(1));
    assert_eq!(disk.get("quarantined").unwrap().as_u64(), Some(0));
    assert_eq!(disk.get("enabled").unwrap().as_bool(), Some(true));

    let _ = c.round_trip(r#"{"id":3,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn chaos_faults_are_injected_and_fully_recovered() {
    let tmp = TempDir::new("chaos");
    let spec = ChaosSpec::parse("seed=11,torn=0.08,drop=0.05,stall=0.05,stall_ms=5,panic=0.04,corrupt=0.15")
        .expect("valid spec");
    let (addr, handle) = start(ServerConfig {
        threads: 2,
        cache_dir: Some(tmp.0.clone()),
        chaos: Some(spec),
        ..ServerConfig::default()
    });

    // The resilient load generator must absorb every injected fault and
    // still verify byte-identical responses against the single-connection
    // replay.
    let cfg = LoadgenConfig {
        addr: addr.clone(),
        connections: 3,
        requests: 60,
        seed: 9,
        verify: true,
        shutdown: false,
        timeout_ms: 30_000,
        max_attempts: 32,
    };
    let report = run_loadgen(&cfg).expect("loadgen survives chaos");
    assert!(report.verified(), "responses under chaos must match the replay byte for byte");
    assert_eq!(report.ok, report.sent, "every request eventually succeeds");

    // Control traffic is exempt from injection, so stats is reliable:
    // the harness must have actually fired.
    let mut c = Client::connect(&addr);
    let stats = c.round_trip(r#"{"id":1,"kind":"stats"}"#);
    let chaos = stats.get("result").unwrap().get("chaos").expect("chaos block armed");
    assert_eq!(chaos.get("seed").unwrap().as_u64(), Some(11));
    let injected = chaos.get("injected").unwrap();
    let total: u64 = ["torn", "drop", "stall", "panic", "corrupt", "enospc"]
        .iter()
        .map(|k| injected.get(k).unwrap().as_u64().unwrap())
        .sum();
    assert!(total > 0, "chaos schedule injected at least one fault across the run");

    let _ = c.round_trip(r#"{"id":2,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn oversized_request_lines_get_an_error_then_a_close() {
    let (addr, handle) =
        start(ServerConfig { threads: 1, max_line_bytes: 128, ..ServerConfig::default() });
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);

    // Far past the limit, and never a newline until the end: a slowloris
    // frame. The server must answer with a structured error and hang up
    // rather than buffer or stall.
    let long = "x".repeat(4096);
    writeln!(writer, "{long}").unwrap();
    writer.flush().unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).expect("error response");
    let doc = json::parse(line.trim_end()).unwrap();
    assert_eq!(status(&doc), "error");
    assert_eq!(doc.get("code").unwrap().as_str(), Some("line-too-long"));

    line.clear();
    let n = reader.read_line(&mut line).expect("read after error");
    assert_eq!(n, 0, "server closes the abusive connection");

    // The daemon itself is unharmed.
    let mut c = Client::connect(&addr);
    let doc = c.round_trip(r#"{"id":1,"kind":"check","workload":"stencil"}"#);
    assert_eq!(status(&doc), "ok");
    let _ = c.round_trip(r#"{"id":2,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}

#[test]
fn overload_sheds_heavy_requests_and_recovers() {
    // One worker, a small queue: pipelining distinct heavy simulations
    // faster than they execute must trip the class watermark and shed
    // with `retry`, never hang or drop.
    let (addr, handle) =
        start(ServerConfig { threads: 1, queue_bound: 8, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    let mut reqs = Vec::new();
    for (i, core) in ["inorder", "dep", "ooo", "braid"].iter().enumerate() {
        for (j, width) in [0u32, 4, 8].iter().enumerate() {
            let id = (i * 3 + j) as u64;
            reqs.push(format!(
                r#"{{"id":{id},"kind":"simulate","workload":"pointer_chase","core":"{core}","width":{width}}}"#
            ));
        }
    }
    for r in &reqs {
        c.send(r);
    }

    let mut shed_ids = Vec::new();
    for _ in 0..reqs.len() {
        let doc = json::parse(&c.recv()).unwrap();
        match status(&doc) {
            "ok" => {}
            "retry" => {
                assert!(doc.get("retry_after_ms").unwrap().as_u64().unwrap() > 0);
                shed_ids.push(doc.get("id").unwrap().as_u64().unwrap());
            }
            other => panic!("unexpected status under overload: {other}"),
        }
    }
    assert!(!shed_ids.is_empty(), "the queue-depth watermark must shed some heavy requests");

    // Shed requests succeed on resend once pressure drains.
    for id in shed_ids {
        let doc = c.round_trip(&reqs[id as usize]);
        assert_eq!(status(&doc), "ok", "shed request succeeds on retry");
    }

    let stats = c.round_trip(r#"{"id":90,"kind":"stats"}"#);
    assert!(
        stats.get("result").unwrap().get("shed").unwrap().as_u64().unwrap() > 0,
        "shed counter is visible in stats"
    );
    let _ = c.round_trip(r#"{"id":91,"kind":"shutdown"}"#);
    handle.join().unwrap().unwrap();
}
