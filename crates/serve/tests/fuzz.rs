//! Fuzz-style property tests: seeded, reproducible hostile input.
//!
//! Real fuzzing needs a corpus and a coverage engine; what a hermetic
//! test suite can afford is the next best thing — a seeded generator
//! (`braid-prng`, so every failure is a replayable seed) that mangles
//! known-valid request lines through truncation, byte flips, splices,
//! garbage injection, and oversizing, then asserts the two properties
//! that matter:
//!
//! 1. [`parse_request`] is **total**: any input returns `Ok` or a
//!    structured error — it never panics, whatever the bytes.
//! 2. A live daemon fed the same hostile stream on one connection stays
//!    coherent: every complete line gets exactly one response, framing
//!    never desynchronizes, and afterwards the daemon still serves
//!    correct results.

mod common;

use std::io::BufRead;

use braid_prng::Rng;
use braid_serve::loadgen::generate_requests;
use braid_serve::protocol::parse_request;
use braid_serve::server::ServerConfig;
use braid_sweep::json::{self, Json};
use braid_sweep::{MAX_BEUS, MAX_WIDTH, MAX_WINDOW};
use common::{start, Client};

/// How many mangled cases each property sees.
const CASES: usize = 256;

/// Produces one mangled line from a pool of valid ones. The result never
/// contains `\n`/`\r` (the transport test sends each case as exactly one
/// frame) but is otherwise arbitrary bytes rendered as lossy UTF-8.
fn mangle(rng: &mut Rng, pool: &[String]) -> String {
    let base = rng.choose(pool).clone().into_bytes();
    let mut bytes = base;
    match rng.gen_range(0..6) {
        // Truncate at an arbitrary byte offset.
        0 => {
            let cut = rng.gen_range(0..=bytes.len());
            bytes.truncate(cut);
        }
        // Flip 1..=8 bytes anywhere in the line.
        1 => {
            for _ in 0..rng.gen_range(1..9) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= rng.gen_range(1..=255u8);
            }
        }
        // Splice the tail of one request onto the head of another.
        2 => {
            let other = rng.choose(pool).as_bytes();
            let cut = rng.gen_range(0..bytes.len());
            let from = rng.gen_range(0..other.len());
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[from..]);
        }
        // Insert raw garbage at a random offset.
        3 => {
            let at = rng.gen_range(0..=bytes.len());
            let garbage: Vec<u8> =
                (0..rng.gen_range(1..32)).map(|_| rng.gen_range(0..=255u8)).collect();
            bytes.splice(at..at, garbage);
        }
        // Duplicate the whole line back to back (interleaved objects).
        4 => {
            let copy = bytes.clone();
            bytes.extend_from_slice(&copy);
        }
        // Oversize a field value (still under the server's line bound).
        5 => {
            let at = rng.gen_range(0..=bytes.len());
            let run = vec![b'A'; rng.gen_range(64..512usize)];
            bytes.splice(at..at, run);
        }
        _ => unreachable!(),
    }
    String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ")
}

#[test]
fn parse_request_is_total_over_mangled_input() {
    let pool = generate_requests(32, 41);
    let mut rng = Rng::seed_from_u64(42);
    for case in 0..CASES {
        let line = mangle(&mut rng, &pool);
        // The property is totality: parsing must terminate without
        // panicking for every input. (A mangled line may still be valid.)
        let _ = parse_request(&line);
        if case % 8 == 0 {
            // And known-good lines must keep parsing between the attacks.
            let good = rng.choose(&pool);
            assert!(parse_request(good).is_ok(), "valid line rejected: {good}");
        }
    }
    // Degenerate shapes, explicitly.
    for line in ["", " ", "{}", "[]", "null", "\"id\"", "{\"id\":", "\u{0}\u{1}\u{2}"] {
        let _ = parse_request(line);
    }
}

#[test]
fn daemon_survives_a_mangled_frame_stream() {
    let (addr, handle) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);
    c.reader
        .get_ref()
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("arm client timeout");

    let pool = generate_requests(32, 43);
    let mut rng = Rng::seed_from_u64(44);
    let mut protocol_errors_sent = 0u64;
    for case in 0..CASES {
        let line = mangle(&mut rng, &pool);
        c.send(&line);
        // One complete line in, exactly one response line out — whatever
        // the bytes were. Anything else means the framing desynchronized.
        let mut resp = String::new();
        let n = c.reader.read_line(&mut resp).expect("one response per line");
        assert!(n > 0, "case {case}: server closed on a bounded, newline-terminated line");
        let doc = json::parse(resp.trim_end())
            .unwrap_or_else(|e| panic!("case {case}: response not JSON ({e}): {resp:?}"));
        let status = doc.get("status").and_then(Json::as_str).expect("status field");
        assert!(
            matches!(status, "ok" | "error" | "retry"),
            "case {case}: unknown status {status}"
        );
        if status == "error" {
            protocol_errors_sent += 1;
        }
    }
    assert!(
        protocol_errors_sent > 0,
        "the mangler never produced an invalid line — generator is broken"
    );

    // After all of that, the daemon still computes correct results on the
    // very same connection.
    let doc =
        c.round_trip(r#"{"id":7,"kind":"simulate","workload":"dot_product","core":"braid"}"#);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(7));
    assert!(doc.get("result").unwrap().get("cycles").unwrap().as_u64().unwrap() > 0);

    // And its stats counted the abuse.
    let doc = c.round_trip(r#"{"id":8,"kind":"stats"}"#);
    let counted =
        doc.get("result").unwrap().get("protocol_errors").unwrap().as_u64().unwrap();
    assert!(counted > 0, "protocol errors show up in stats");

    c.round_trip(r#"{"id":9,"kind":"shutdown"}"#);
    handle.join().expect("accept loop").expect("clean exit");
}

#[test]
fn scale_is_range_checked_at_every_request_kind() {
    let kinds = [
        r#""kind":"simulate","core":"ooo""#,
        r#""kind":"translate""#,
        r#""kind":"check""#,
        r#""kind":"sweep-point","core":"ooo""#,
        r#""kind":"trace","core":"ooo""#,
    ];
    for kind in kinds {
        let line = |scale: &str| format!(r#"{{"id":3,{kind},"workload":"gcc","scale":{scale}}}"#);
        assert!(parse_request(&line("1000")).is_ok(), "{kind}: MAX_SCALE is accepted");
        for scale in ["1e300", "-1", "0", "1000.5"] {
            let err = parse_request(&line(scale)).expect_err("out-of-range scale");
            assert_eq!((err.id, err.code), (3, "bad-request"), "{kind} scale {scale}");
            assert!(err.message.contains("`scale`"), "{kind} scale {scale}: {}", err.message);
        }
    }
    // The fields that size the simulated machine: `width` on every kind
    // that carries it, and the sweep-point axes `window` and `beus`.
    let sized = [
        (r#""kind":"simulate","core":"ooo""#, "width", MAX_WIDTH),
        (r#""kind":"sweep-point","core":"ooo""#, "width", MAX_WIDTH),
        (r#""kind":"trace","core":"ooo""#, "width", MAX_WIDTH),
        (r#""kind":"sweep-point","core":"braid""#, "window", MAX_WINDOW),
        (r#""kind":"sweep-point","core":"braid""#, "beus", MAX_BEUS),
    ];
    for (kind, key, max) in sized {
        let line = |v: u64| format!(r#"{{"id":3,{kind},"workload":"gcc","{key}":{v}}}"#);
        assert!(parse_request(&line(max.into())).is_ok(), "{kind}: {key} {max} is accepted");
        for v in [u64::from(max) + 1, 1_000_000, u32::MAX.into()] {
            let err = parse_request(&line(v)).expect_err("out-of-range size");
            assert_eq!((err.id, err.code), (3, "bad-request"), "{kind} {key} {v}");
            assert!(err.message.contains(&format!("`{key}`")), "{kind} {key} {v}: {}", err.message);
        }
    }
}

#[test]
fn daemon_refuses_extreme_scales_and_keeps_serving() {
    let (addr, handle) = start(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut c = Client::connect(&addr);

    for (id, scale) in [(1, "1e300"), (2, "-1"), (3, "0")] {
        let doc = c.round_trip(&format!(
            r#"{{"id":{id},"kind":"simulate","workload":"gcc","core":"inorder","scale":{scale}}}"#
        ));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"), "scale {scale}");
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("bad-request"), "scale {scale}");
    }
    // A machine too large to allocate is refused the same way.
    for (id, request) in [
        (11, r#""kind":"simulate","core":"ooo","width":1000000"#),
        (12, r#""kind":"sweep-point","core":"braid","window":1000000000"#),
        (13, r#""kind":"sweep-point","core":"braid","beus":100000000"#),
    ] {
        let doc = c.round_trip(&format!(r#"{{"id":{id},{request},"workload":"dot_product"}}"#));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("error"), "{request}");
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("bad-request"), "{request}");
    }
    let ok = r#"{"id":4,"kind":"simulate","workload":"gcc","core":"inorder","scale":0.05}"#;
    let doc = c.round_trip(ok);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert!(doc.get("result").unwrap().get("cycles").unwrap().as_u64().unwrap() > 0);

    c.round_trip(r#"{"id":5,"kind":"shutdown"}"#);
    handle.join().expect("accept loop").expect("clean exit");
}
