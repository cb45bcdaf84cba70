//! The daemon smokes: the shipped `braidd` and `braid-loadgen` binaries
//! driven as separate processes over real sockets, through one [`Daemon`]
//! helper that boots, queries, drains and kills.
//!
//! - `serve`: the seeded mix verifies byte-identical, hits the cache, and
//!   the daemon drains and stops on the client's `--shutdown`;
//! - `metrics`: the client reports latency percentiles and the server's
//!   metrics document reports its phase decomposition as conserved;
//! - `chaos`: under every armed fault class the client still verifies;
//! - `crash recovery`: after `kill -9` a restart over the same cache
//!   directory answers the same mix with the same response digest;
//! - `trace`: a multi-million-instruction trace request streams, so the
//!   daemon's peak resident set stays far below the trace's size.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use braid::sweep::json::{self, Json};

/// A `braidd` child process listening on an ephemeral loopback port.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `braidd` with two workers plus `args`, and waits for its
    /// `listening on` line.
    fn boot(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_braidd"))
            .args(["--addr", "127.0.0.1:0", "--threads", "2"])
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("braidd starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        while !line.contains("listening on") {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read braidd stdout");
            assert!(n > 0, "braidd exited before listening: {:?}", child.wait());
        }
        let addr = line.split_whitespace().last().expect("address field").to_string();
        Daemon { child, stdout, addr }
    }

    /// Runs `braid-loadgen --json` against the daemon and returns its
    /// report; a failed run (a verify mismatch included) fails the test.
    fn loadgen(&self, args: &[&str]) -> Json {
        let out = Command::new(env!("CARGO_BIN_EXE_braid-loadgen"))
            .args(["--addr", &self.addr, "--json"])
            .args(args)
            .output()
            .expect("braid-loadgen runs");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "braid-loadgen {args:?} failed: {}{text}",
            String::from_utf8_lossy(&out.stderr)
        );
        json::parse(text.trim_end()).expect("the loadgen report is JSON")
    }

    /// Sends one request line on a fresh connection and returns the
    /// response.
    fn request(&self, line: &str) -> Json {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut resp = String::new();
        BufReader::new(stream).read_line(&mut resp).expect("recv");
        json::parse(resp.trim_end()).expect("response is JSON")
    }

    /// Waits for the daemon to exit on its own after a drain: exit 0 and
    /// `drained and stopped` on stdout.
    fn stopped(mut self) {
        let status = self.child.wait().expect("wait for braidd");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read braidd stdout");
        assert!(status.success(), "braidd exited with {status}: {rest}");
        assert!(rest.contains("braidd drained and stopped"), "no drain line: {rest:?}");
    }

    /// Kills the daemon with SIGKILL (`kill -9`) and reaps it.
    fn kill(mut self) {
        self.child.kill().expect("kill braidd");
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    /// A failed test must not leave a daemon behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A scratch cache directory, removed on drop.
struct CacheDir(PathBuf);

impl CacheDir {
    fn new(tag: &str) -> CacheDir {
        let dir = std::env::temp_dir().join(format!("braid-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheDir(dir)
    }

    fn arg(&self) -> &str {
        self.0.to_str().expect("UTF-8 temp path")
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().fold(doc, |d, k| d.get(k).unwrap_or_else(|| panic!("no `{k}` in {}", d.compact())))
}

fn int(doc: &Json, path: &[&str]) -> u64 {
    field(doc, path).as_u64().unwrap_or_else(|| panic!("{path:?} is not an integer"))
}

/// `--verify` held: the single-connection replay produced the concurrent
/// run's response digest.
fn assert_byte_identical(report: &Json) {
    assert_eq!(field(report, &["verified"]).as_bool(), Some(true), "{}", report.compact());
    assert_eq!(
        field(report, &["replay_digest"]).as_str(),
        field(report, &["digest"]).as_str(),
        "replay digest equals the concurrent digest"
    );
}

#[test]
fn serve_verifies_hits_the_cache_and_drains() {
    let d = Daemon::boot(&[]);
    let report = d.loadgen(&[
        "--connections", "2", "--requests", "50", "--seed", "7", "--verify", "--shutdown",
    ]);
    assert_byte_identical(&report);
    assert!(int(&report, &["cache", "hits"]) > 0, "repeated content hits the cache");
    d.stopped();
}

#[test]
fn metrics_report_conserved_phases_and_client_percentiles() {
    let d = Daemon::boot(&[]);
    let report = d.loadgen(&["--connections", "2", "--requests", "30", "--seed", "11"]);
    assert_eq!(field(&report, &["verified"]).as_bool(), Some(true));
    int(&report, &["latency", "p99_us"]);

    let doc = d.request(r#"{"id":1,"kind":"metrics"}"#);
    let trace = field(&doc, &["result", "trace"]);
    assert_eq!(field(trace, &["conserved"]).as_bool(), Some(true), "{}", trace.compact());
    int(trace, &["phases", "queue_wait", "count"]);

    d.request(r#"{"id":2,"kind":"shutdown"}"#);
    d.stopped();
}

#[test]
fn chaos_faults_are_absorbed_and_responses_still_verify() {
    let cache = CacheDir::new("chaos");
    let d = Daemon::boot(&[
        "--cache-dir",
        cache.arg(),
        "--chaos",
        "seed=7,torn=0.08,drop=0.04,stall=0.04,stall_ms=5,panic=0.03,corrupt=0.12,enospc=0",
    ]);
    let report = d.loadgen(&[
        "--connections", "3", "--requests", "60", "--seed", "9", "--timeout-ms", "30000",
        "--attempts", "32", "--verify", "--shutdown",
    ]);
    assert_byte_identical(&report);
    d.stopped();
}

#[test]
fn crash_recovery_serves_the_same_bytes_after_kill_9() {
    let cache = CacheDir::new("crash");
    let mix = ["--connections", "2", "--requests", "40", "--seed", "5"];

    // Populate the disk tier, then kill the daemon while it may still be
    // writing.
    let d = Daemon::boot(&["--cache-dir", cache.arg()]);
    let cold = d.loadgen(&mix);
    d.kill();

    // Torn leftovers are swept or quarantined, never served: the same mix
    // verifies, hits the cache, and answers with the pre-crash digest.
    let d = Daemon::boot(&["--cache-dir", cache.arg()]);
    let warm = d.loadgen(&[&mix[..], &["--verify", "--shutdown"]].concat());
    d.stopped();
    assert_byte_identical(&warm);
    assert!(int(&warm, &["cache", "hits"]) > 0, "the warm run hits the cache");
    assert_eq!(
        field(&warm, &["digest"]).as_str(),
        field(&cold, &["digest"]).as_str(),
        "cold and warm response digests"
    );
}

/// The peak resident set (`VmHWM`) of process `pid`, in kB.
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("read status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line")
}

#[cfg(target_os = "linux")]
#[test]
fn trace_requests_stream_in_bounded_memory() {
    let d = Daemon::boot(&[]);
    let doc = d.request(
        r#"{"id":1,"kind":"trace","workload":"lucas","core":"inorder","scale":100}"#,
    );
    let entries = int(&doc, &["result", "entries"]);
    assert!(entries >= 5_000_000, "a long trace: {}", doc.compact());
    // Holding the trace would take 24 bytes an entry, plus its file form.
    let hwm_kb = vm_hwm_kb(d.child.id());
    assert!(hwm_kb < 64 * 1024, "braidd peaked at {hwm_kb} kB for {entries} entries");
    d.request(r#"{"id":2,"kind":"shutdown"}"#);
    d.stopped();
}
