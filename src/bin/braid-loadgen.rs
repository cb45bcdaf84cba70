//! `braid-loadgen` — deterministic traffic for a `braidd` daemon.
//!
//! ```text
//! braid-loadgen --addr HOST:PORT [--connections N] [--requests N]
//!               [--seed N] [--timeout-ms N] [--attempts N]
//!               [--percentile P] [--json] [--verify] [--shutdown]
//!               [--version]
//! ```
//!
//! Generates a seeded mix of `simulate`, `sweep-point`, `translate`, and
//! `check` requests, drives them over `--connections` concurrent sockets,
//! and reports throughput, error, and cache statistics. With `--verify`
//! the identical mix is replayed on a single connection and the response
//! bytes must match the concurrent run's — a live determinism check of
//! the whole service. With `--shutdown` the daemon is drained and stopped
//! afterwards.
//!
//! Every connection is a resilient client: backpressure (`retry`)
//! responses are resent after the server's hint, and transport faults —
//! torn frames, dropped connections, responses lost to chaos injection —
//! are absorbed by reconnect-and-replay with seeded bounded backoff.
//! `--timeout-ms` bounds each request's wall-clock budget across all
//! attempts and `--attempts` bounds how many transport faults a single
//! request may survive. Because recovery is part of the client, `--verify`
//! holds even against a daemon running under `--chaos`.
//!
//! The report includes client-observed latency (merged across all
//! connections of the concurrent phase): p50/p95/p99 overall and per
//! request kind. `--percentile P` (0 < P ≤ 100, fractions allowed) adds
//! one extra quantile line; `--json` replaces the text report with one
//! machine-readable JSON document on stdout.
//!
//! Exits nonzero on usage errors, transport failures, lost requests, or a
//! verification mismatch.

use std::process::ExitCode;

use braid::serve::{run_loadgen, LoadgenConfig};
use braid::uarch::Histogram;

fn usage() -> ExitCode {
    eprintln!(
        "usage: braid-loadgen --addr HOST:PORT [--connections N] [--requests N]\n       \
         [--seed N] [--timeout-ms N] [--attempts N] [--percentile P] [--json]\n       \
         [--verify] [--shutdown] [--version]\n\
         exit codes: 0 clean, 1 lost requests/failure, 2 usage error"
    );
    ExitCode::from(2)
}

/// One text-report latency line: `label: p50 A p95 B p99 C max D (N reqs)`.
fn latency_line(label: &str, h: &Histogram) {
    let p = |q| h.percentile_checked(q).unwrap_or(0);
    println!(
        "{label}: p50 {}us p95 {}us p99 {}us max {}us ({} reqs)",
        p(0.50),
        p(0.95),
        p(0.99),
        h.max().unwrap_or(0),
        h.total()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("braid-loadgen {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let mut cfg = LoadgenConfig { verify: false, ..LoadgenConfig::default() };
    let mut json_out = false;
    let mut extra_percentile: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--verify" => {
                cfg.verify = true;
                i += 1;
                continue;
            }
            "--shutdown" => {
                cfg.shutdown = true;
                i += 1;
                continue;
            }
            "--json" => {
                json_out = true;
                i += 1;
                continue;
            }
            flag => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("braid-loadgen: {flag} needs a value");
                    return usage();
                };
                match (flag, value.parse::<u64>()) {
                    ("--addr", _) => cfg.addr = value.clone(),
                    ("--connections", Ok(n)) => cfg.connections = n as usize,
                    ("--requests", Ok(n)) => cfg.requests = n as usize,
                    ("--seed", Ok(n)) => cfg.seed = n,
                    ("--timeout-ms", Ok(n)) => cfg.timeout_ms = n,
                    ("--attempts", Ok(n)) => cfg.max_attempts = n as u32,
                    ("--percentile", _) => {
                        // Validated here, at the CLI boundary: the
                        // histogram's checked accessor would just return
                        // None, which a user would misread as "no data".
                        match value.parse::<f64>() {
                            Ok(p) if p > 0.0 && p <= 100.0 => extra_percentile = Some(p),
                            _ => {
                                eprintln!(
                                    "braid-loadgen: --percentile needs a number in (0, 100], \
                                     got {value:?}"
                                );
                                return usage();
                            }
                        }
                    }
                    (_, Err(_))
                        if ["--connections", "--requests", "--seed", "--timeout-ms", "--attempts"]
                            .contains(&flag) =>
                    {
                        eprintln!(
                            "braid-loadgen: {flag} needs a non-negative integer, got {value:?}"
                        );
                        return usage();
                    }
                    _ => {
                        eprintln!("braid-loadgen: unknown option {flag}");
                        return usage();
                    }
                }
                i += 2;
            }
        }
    }
    if cfg.addr.is_empty() {
        eprintln!("braid-loadgen: --addr is required");
        return usage();
    }

    let report = match run_loadgen(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("braid-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json_out {
        println!("{}", report.to_json().compact());
        return ExitCode::SUCCESS;
    }
    println!(
        "sent {} requests over {} connections (seed {}): {} ok, {} errors, {} retries",
        report.sent, cfg.connections, cfg.seed, report.ok, report.errors, report.retries
    );
    if report.replays > 0 || report.reconnects > 0 {
        println!(
            "resilience: {} replays after transport faults, {} reconnects",
            report.replays, report.reconnects
        );
    }
    println!("response digest {}", report.digest);
    if let Some(replay) = &report.replay_digest {
        println!("replay digest   {replay} — responses byte-identical, service is deterministic");
    }
    println!("server cache: {} hits, {} misses", report.cache_hits, report.cache_misses);
    if report.disk_hits > 0 || report.quarantined > 0 {
        println!(
            "disk tier: {} hits, {} entries quarantined",
            report.disk_hits, report.quarantined
        );
    }
    latency_line("latency", &report.latency);
    for (kind, h) in &report.by_class {
        latency_line(&format!("latency[{kind}]"), h);
    }
    if let Some(p) = extra_percentile {
        println!(
            "latency p{p}: {}us",
            report.latency.percentile_checked(p / 100.0).unwrap_or(0)
        );
    }
    ExitCode::SUCCESS
}
