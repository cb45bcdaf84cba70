//! The `serve-mix` workload: open-loop requests to a spawned `braidd`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use braid_sweep::json::{self, Json};

use crate::layers::{Layers, SERVE_CLASSES, SERVE_PHASES};
use crate::mix::{generate, hot_keys, MixRequest};
use crate::openloop::{self, Outcome};
use crate::procfs::vm_hwm_kb;
use crate::report::RunResult;
use crate::span::Span;
use crate::stats::{median, percentile_checked};

/// Offered load in requests per second.
pub const RATE: f64 = 200.0;
/// Start-ups per group; `setup_s` is the median over the groups of each
/// group's fastest start-up, which the shared host's noise disturbs least.
const SETUP_GROUP: usize = 3;
/// Groups started before the measured load; as many less one start after
/// it, so the median spans the run's host conditions rather than one burst.
const SETUP_GROUPS_BEFORE: usize = 4;
/// How long after the last due time a response may still arrive.
const GRACE: Duration = Duration::from_secs(1);

/// One request on a fresh blocking connection to `addr`.
fn request(addr: &str, line: &str) -> Result<String, String> {
    let io = |e: std::io::Error| format!("{line}: {e}");
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    writeln!(s, "{line}").map_err(io)?;
    let mut resp = String::new();
    BufReader::new(s).read_line(&mut resp).map_err(io)?;
    Ok(resp.trim_end().to_string())
}

/// A running `braidd`, stopped (and waited for) when dropped.
struct Daemon {
    child: Child,
    /// Keeps the pipe open so the daemon's last line cannot fail.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    pid: String,
}

impl Daemon {
    /// Starts `braidd` on an ephemeral port with two worker threads and
    /// returns it with the time from spawn to its first `stats` reply.
    fn start(braidd: &Path, trace_log: Option<&Path>) -> Result<(Daemon, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(braidd);
        cmd.args(["--addr", "127.0.0.1:0", "--threads", "2"]);
        if let Some(log) = trace_log {
            cmd.arg("--trace-log").arg(log);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", braidd.display()))?;
        let pid = child.id().to_string();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let _ = stdout.read_line(&mut first);
        let mut d = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            pid,
        };
        d.addr = first
            .trim()
            .strip_prefix("braidd listening on ")
            .ok_or_else(|| format!("braidd did not start: {first:?}"))?
            .to_string();
        let stats = d.request("{\"id\":0,\"kind\":\"stats\"}")?;
        if !stats.starts_with("{\"id\":0,\"status\":\"ok\"") {
            return Err(format!("stats failed: {stats}"));
        }
        Ok((d, t0.elapsed().as_secs_f64()))
    }

    fn request(&self, line: &str) -> Result<String, String> {
        request(&self.addr, line)
    }

    fn metrics(&self) -> Result<Json, String> {
        let line = self.request("{\"id\":0,\"kind\":\"metrics\"}")?;
        let doc = json::parse(&line).map_err(|e| format!("metrics: {e}"))?;
        doc.get("result")
            .cloned()
            .ok_or_else(|| format!("metrics failed: {line}"))
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        self.request("{\"id\":0,\"kind\":\"shutdown\"}")?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("braidd exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("braidd did not stop after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `result` payload of an `ok` response to request `id`.
fn ok_payload(line: &str, id: usize) -> Option<&str> {
    line.strip_prefix(&format!("{{\"id\":{id},\"status\":\"ok\",\"result\":"))?
        .strip_suffix('}')
}

/// Checks every response of one open-loop phase.
fn check(
    r: &mut RunResult,
    reqs: &[MixRequest],
    first_id: usize,
    out: &Outcome,
    seen: &mut BTreeMap<String, String>,
) {
    for (k, req) in reqs.iter().enumerate() {
        r.attempted += 1;
        let id = first_id + k;
        let Some(line) = &out.responses[k] else {
            r.fail(format!(
                "request {id}: no response within {GRACE:?} of the last send"
            ));
            continue;
        };
        let Some(payload) = ok_payload(line, id) else {
            r.fail(format!("request {id}: {line}"));
            continue;
        };
        // Cached or computed, one request must always get the same bytes.
        if let Some(prev) = seen.insert(req.body.clone(), payload.to_string()) {
            if prev != payload {
                r.fail(format!(
                    "request {id}: response differs from an earlier one to {}",
                    req.body
                ));
            }
        }
    }
}

/// What one daemon's measured phase produced.
struct Phase {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    inflight_max: usize,
    rss_kb: u64,
    metrics: Json,
    spans: Vec<Span>,
}

/// Warms the cache with every hot key once, then offers `reqs` at
/// [`RATE`], checking every response and the daemon's cache counters.
fn measure(r: &mut RunResult, d: Daemon, reqs: &[MixRequest]) -> Result<Phase, String> {
    let hot = hot_keys();
    let lines = |reqs: &[MixRequest], first: usize| -> Vec<String> {
        reqs.iter()
            .enumerate()
            .map(|(k, q)| q.line((first + k) as u64))
            .collect()
    };
    let mut seen = BTreeMap::new();
    let warm = openloop::run(&d.addr, &lines(&hot, 1), RATE, GRACE).map_err(|e| e.to_string())?;
    check(r, &hot, 1, &warm, &mut seen);
    let first = 1 + hot.len();
    let out =
        openloop::run(&d.addr, &lines(reqs, first), RATE, GRACE).map_err(|e| e.to_string())?;
    check(r, reqs, first, &out, &mut seen);
    let metrics = d.metrics()?;
    // Each hot key was computed once during warm-up; afterwards hot
    // requests hit and every unique request misses.
    let cache = |k: &str| {
        metrics
            .get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let uniques = reqs.iter().filter(|q| !q.hot).count() as u64;
    if cache("misses") != hot.len() as u64 + uniques || cache("hits") != reqs.len() as u64 - uniques
    {
        r.fail(format!(
            "cache counters: {} hits, {} misses; expected {} and {}",
            cache("hits"),
            cache("misses"),
            reqs.len() as u64 - uniques,
            hot.len() as u64 + uniques
        ));
    }
    let rss_kb = vm_hwm_kb(&d.pid).unwrap_or(0);
    d.stop()?;
    let samples: Vec<_> = out.samples.iter().flatten().collect();
    let ms = |x: Duration| x.as_secs_f64() * 1e3;
    let spans = out
        .samples
        .iter()
        .enumerate()
        .filter_map(|(k, s)| {
            let s = s.as_ref()?;
            let (start, end) = (s.due.as_nanos() as u64, s.done.as_nanos() as u64);
            Some(Span {
                name: "client.request".into(),
                start,
                end,
                parent: None,
                run: (first + k) as u64,
            })
        })
        .collect();
    Ok(Phase {
        latency_ms: samples.iter().map(|s| ms(s.latency())).collect(),
        lag_ms: samples.iter().map(|s| ms(s.lag())).collect(),
        inflight_max: out.inflight_max,
        rss_kb,
        metrics,
        spans,
    })
}

/// Runs `serve-mix` for `seconds` of offered load.
///
/// # Errors
///
/// Returns a daemon that cannot start or stop, which leaves nothing to
/// measure.
pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    braidd: &Path,
    trace_log: &Path,
) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let n = (RATE * seconds as f64) as usize;
    let reqs = generate(seed, n);
    let mut setup = Vec::new();
    let start_stop = |setup: &mut Vec<f64>, groups: usize| -> Result<(), String> {
        for _ in 0..groups {
            let mut fastest = f64::INFINITY;
            for _ in 0..SETUP_GROUP {
                let (d, t) = Daemon::start(braidd, None)?;
                fastest = fastest.min(t);
                d.stop()?;
            }
            setup.push(fastest);
        }
        Ok(())
    };
    start_stop(&mut setup, SETUP_GROUPS_BEFORE)?;
    let (d, _) = Daemon::start(braidd, None)?;
    // A traced run measures half the load untraced and half against a
    // daemon writing its span log, for the tracing overhead.
    let plain = measure(&mut r, d, if traced { &reqs[..n / 2] } else { &reqs })?;
    if !traced {
        start_stop(&mut setup, SETUP_GROUPS_BEFORE - 1)?;
        r.push("setup_s", median(&setup).unwrap_or(0.0), "s", setup.len());
        r.push(
            "op_ms",
            median(&plain.latency_ms).unwrap_or(0.0),
            "ms",
            plain.latency_ms.len(),
        );
        r.push("peak_rss_mb", plain.rss_kb as f64 / 1024.0, "MB", 1);
        return Ok(r);
    }
    let (d, _) = Daemon::start(braidd, Some(trace_log))?;
    let t = measure(&mut r, d, &reqs[n / 2..])?;
    let mut layers = Layers::default();
    let doc = &t.metrics;
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(doc, |d, k| d.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let spans = at(&["trace", "spans"]) as usize;
    for phase in SERVE_PHASES {
        for p in ["p50_us", "p99_us"] {
            layers.set(
                &format!("serve.{phase}.{p}"),
                at(&["trace", "phases", phase, p]),
                spans,
            );
        }
    }
    for class in SERVE_CLASSES {
        let count = at(&["trace", "classes", class, "count"]) as usize;
        layers.set(
            &format!("serve.{class}.p99_us"),
            at(&["trace", "classes", class, "p99_us"]),
            count,
        );
    }
    let (hits, misses) = (at(&["cache", "hits"]), at(&["cache", "misses"]));
    let lookups = (hits + misses) as usize;
    layers.set(
        "serve.cache.hit_pct",
        hits / (hits + misses).max(1.0) * 100.0,
        lookups,
    );
    layers.set("serve.shed", at(&["shed"]), spans);
    layers.set("serve.retry", at(&["retries"]), spans);
    let n_lat = t.latency_ms.len();
    if let Some(lag) = percentile_checked(&t.lag_ms, 0.99) {
        layers.set("client.lag_p99_ms", lag, t.lag_ms.len());
    }
    layers.set("client.inflight_max", t.inflight_max as f64, n_lat);
    if let Some(p99) = percentile_checked(&t.latency_ms, 0.99) {
        layers.set("client.p99_ms", p99, n_lat);
    }
    if let (Some(a), Some(b)) = (median(&plain.latency_ms), median(&t.latency_ms)) {
        layers.set("bench.trace_overhead_pct", (b / a - 1.0) * 100.0, n_lat);
    }
    layers.spans = t.spans;
    layers.finish(&mut r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_serve::{Server, ServerConfig};

    #[test]
    fn unique_requests_miss_the_daemon_cache() {
        let server = Server::bind(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let daemon = thread::spawn(move || server.run());
        let uniques: Vec<MixRequest> = generate(9, 60).into_iter().filter(|r| !r.hot).collect();
        let lines: Vec<String> = uniques
            .iter()
            .enumerate()
            .map(|(i, r)| r.line(i as u64))
            .collect();
        let out = openloop::run(&addr, &lines, 500.0, Duration::from_secs(30)).unwrap();
        for (i, line) in out.responses.iter().enumerate() {
            let line = line.as_deref().expect("every request is answered");
            assert!(ok_payload(line, i).is_some(), "{line}");
        }
        let stats = json::parse(&request(&addr, "{\"id\":0,\"kind\":\"stats\"}").unwrap()).unwrap();
        let cache = stats.get("result").and_then(|r| r.get("cache")).unwrap();
        assert_eq!(
            cache.get("misses").and_then(Json::as_u64),
            Some(uniques.len() as u64)
        );
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(0));
        request(&addr, "{\"id\":0,\"kind\":\"shutdown\"}").unwrap();
        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn ok_payload_requires_status_ok_and_the_right_id() {
        assert_eq!(
            ok_payload(r#"{"id":4,"status":"ok","result":{"a":1}}"#, 4),
            Some(r#"{"a":1}"#)
        );
        assert_eq!(
            ok_payload(r#"{"id":4,"status":"ok","result":{"a":1}}"#, 5),
            None
        );
        assert_eq!(
            ok_payload(r#"{"id":4,"status":"error","code":"x","message":"y"}"#, 4),
            None
        );
    }
}
