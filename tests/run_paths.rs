//! Golden pins for the two front doors of full-tier timing: the `braidsim`
//! CLI and braidd's `simulate` request. Both build a paper configuration
//! for a core at a width (optionally with the perfect front end and
//! caches) and run it, so these fixtures hold the exact bytes each door
//! produces on `@dot_product`:
//!
//! * `braidsim all @dot_product` stdout at the default width, at
//!   `--width 4` and with `--perfect`, minus the `host:` lines (host
//!   throughput is not deterministic);
//! * `braidsim all @dot_product --width 0`, which must match the default
//!   width's fixture (width 0 is the 8-wide paper default everywhere);
//! * braidd's response line for every core × `width` {0, 4} × `perfect`
//!   {false, true}.
//!
//! The functional and sampled tiers' report JSON is pinned the same way:
//! `braidsim ooo @dot_product --report-json` at `--tier func`, at `--tier
//! sampled`, and at `--tier sampled` with a window small enough to sample
//! sparsely (so `ci95_cycles` shows), plus braidd's `simulate` response at
//! the same three settings.
//!
//! The trace and search paths are pinned as well: `trace-record` file
//! digests (binary and `--jsonl`) and `trace-replay` stdout for four
//! compiled loop nests, `braidc -O --json` on `@dot_product` and
//! `@ln_chains_c4_u2`, and braidd's `trace` response on `@dot_product`
//! for all four cores.
//!
//! Regenerate after an intentional timing or format change with:
//!
//! ```text
//! BRAID_UPDATE_GOLDEN=1 cargo test --test run_paths
//! ```

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::Command;
use std::thread;

use braid::serve::server::{Server, ServerConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_paths")
}

/// Compares `current` with the fixture `name`, or rewrites the fixture
/// when `BRAID_UPDATE_GOLDEN=1`.
fn check_golden(name: &str, current: &str) {
    let path = golden_dir().join(name);
    if std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        fs::create_dir_all(golden_dir()).expect("create tests/golden/run_paths");
        fs::write(&path, current).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(regenerate with BRAID_UPDATE_GOLDEN=1 cargo test --test run_paths)",
            path.display()
        )
    });
    if golden != current {
        let changed: Vec<String> = golden
            .lines()
            .zip(current.lines())
            .filter(|(g, c)| g != c)
            .map(|(g, c)| format!("  golden `{g}`\n  current `{c}`"))
            .collect();
        panic!(
            "{name} drifted ({} vs {} lines):\n{}",
            golden.lines().count(),
            current.lines().count(),
            changed.join("\n")
        );
    }
}

fn braidsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_braidsim")).args(args).output().expect("braidsim runs")
}

/// Stdout of a successful full-tier braidsim run without its `host:`
/// lines.
fn full_tier_stdout(args: &[&str]) -> String {
    let out = braidsim(args);
    assert!(out.status.success(), "braidsim {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    stdout.lines().filter(|l| !l.trim_start().starts_with("host:")).fold(String::new(), |mut s, l| {
        s.push_str(l);
        s.push('\n');
        s
    })
}

/// The `--report-json` line of a functional- or sampled-tier braidsim run.
fn tier_json_line(args: &[&str]) -> String {
    let out = braidsim(args);
    assert!(out.status.success(), "braidsim {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let json: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(json.len(), 1, "braidsim {args:?}: one JSON line expected in:\n{stdout}");
    format!("{}\n", json[0])
}

/// Sends each request line to a fresh in-process braidd, then shuts it
/// down; returns the response lines in order.
fn braidd_responses(requests: &[String]) -> String {
    let server =
        Server::bind(ServerConfig { threads: 2, ..ServerConfig::default() }).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run());
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut round_trip = |line: &str| {
        writeln!(writer, "{line}").expect("send");
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).expect("recv") > 0, "daemon hung up");
        resp
    };
    let mut current = String::new();
    for line in requests {
        let resp = round_trip(line);
        assert!(resp.contains(r#""status":"ok""#), "{line}: {resp}");
        current.push_str(&resp);
    }
    round_trip(r#"{"id":0,"kind":"shutdown"}"#);
    handle.join().expect("daemon thread").expect("daemon drains");
    current
}

#[test]
fn braidsim_full_tier_output_is_pinned() {
    check_golden("braidsim_all.golden", &full_tier_stdout(&["all", "@dot_product"]));
    check_golden("braidsim_all_w4.golden", &full_tier_stdout(&["all", "@dot_product", "--width", "4"]));
    check_golden("braidsim_all_perfect.golden", &full_tier_stdout(&["all", "@dot_product", "--perfect"]));
}

#[test]
fn braidsim_zero_width_is_the_paper_default() {
    check_golden(
        "braidsim_all.golden",
        &full_tier_stdout(&["all", "@dot_product", "--width", "0"]),
    );
}

#[test]
fn braidd_full_tier_simulate_bytes_are_pinned() {
    let mut requests = Vec::new();
    for core in ["inorder", "dep", "ooo", "braid"] {
        for width in [0, 4] {
            for perfect in [false, true] {
                requests.push(format!(
                    r#"{{"id":{},"kind":"simulate","workload":"dot_product","core":"{core}","width":{width},"perfect":{perfect}}}"#,
                    requests.len() + 1
                ));
            }
        }
    }
    check_golden("braidd_simulate.golden", &braidd_responses(&requests));
}

/// The sparse sampling window of the tier pins: two 512-instruction
/// periods are dense, so `@dot_product` (2,310 instructions) samples the
/// rest sparsely.
const SPARSE: [(&str, u64); 3] = [("period", 512), ("warmup", 64), ("len", 128)];

#[test]
fn braidsim_tier_report_json_is_pinned() {
    let sparse: Vec<String> =
        SPARSE.iter().flat_map(|(k, v)| [format!("--sample-{k}"), v.to_string()]).collect();
    let run = |tier: &str, extra: &[String]| {
        let mut args = vec!["ooo", "@dot_product", "--report-json", "--tier", tier];
        args.extend(extra.iter().map(String::as_str));
        tier_json_line(&args)
    };
    let current = run("func", &[]) + &run("sampled", &[]) + &run("sampled", &sparse);
    check_golden("braidsim_tiers.golden", &current);
}

#[test]
fn braidd_tier_simulate_bytes_are_pinned() {
    let request = |id: u32, tier: &str, extra: &str| {
        format!(
            r#"{{"id":{id},"kind":"simulate","workload":"dot_product","core":"ooo","tier":"{tier}"{extra}}}"#
        )
    };
    let sparse: String = SPARSE.iter().map(|(k, v)| format!(r#","sample_{k}":{v}"#)).collect();
    let requests =
        [request(1, "func", ""), request(2, "sampled", ""), request(3, "sampled", &sparse)];
    check_golden("braidd_tiers.golden", &braidd_responses(&requests));
}

/// The loop nests whose recorded traces are pinned.
const NESTS: [&str; 4] = ["ln_saxpy_u2", "ln_stencil_u1", "ln_matmul_n8", "ln_chains_c4_u2"];

/// A scratch directory for trace files, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("braid-run-paths-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Records `@name` into `path` (JSON-lines when `jsonl`) and returns the
/// file's content digest plus braidsim's stdout, with the temporary path
/// replaced by `name`.
fn record(name: &str, path: &std::path::Path, jsonl: bool) -> String {
    let path_str = path.to_str().expect("UTF-8 temp path");
    let spec = format!("@{name}");
    let mut args = vec!["trace-record", spec.as_str(), path_str];
    if jsonl {
        args.push("--jsonl");
    }
    let out = braidsim(&args);
    assert!(out.status.success(), "braidsim {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout").replace(path_str, name);
    let bytes = fs::read(path).expect("trace file written");
    format!("file {}\n{stdout}", braid::sweep::digest::hex(&bytes))
}

#[test]
fn trace_record_and_replay_bytes_are_pinned() {
    let dir = TempDir::new("trace");
    let mut current = String::new();
    for name in NESTS {
        let bin = dir.0.join(format!("{name}.btrace"));
        let jsonl = dir.0.join(format!("{name}.jsonl"));
        current += &record(name, &bin, false);
        current += &record(name, &jsonl, true);
        current += &full_tier_stdout(&["trace-replay", bin.to_str().expect("UTF-8 temp path")]);
    }
    check_golden("trace_paths.golden", &current);
}

#[test]
fn braidc_opt_json_is_pinned() {
    let mut current = String::new();
    for spec in ["@dot_product", "@ln_chains_c4_u2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_braidc"))
            .args(["-O", spec, "--json"])
            .output()
            .expect("braidc runs");
        assert!(out.status.success(), "braidc -O {spec}: {}", String::from_utf8_lossy(&out.stderr));
        current += &String::from_utf8(out.stdout).expect("utf-8 stdout");
    }
    check_golden("braidc_opt.golden", &current);
}

#[test]
fn braidd_trace_bytes_are_pinned() {
    let requests: Vec<String> = ["inorder", "dep", "ooo", "braid"]
        .iter()
        .enumerate()
        .map(|(i, core)| {
            format!(r#"{{"id":{},"kind":"trace","workload":"dot_product","core":"{core}"}}"#, i + 1)
        })
        .collect();
    check_golden("braidd_trace.golden", &braidd_responses(&requests));
}
