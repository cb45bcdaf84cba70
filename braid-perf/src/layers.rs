//! Per-layer metrics of a traced run.
//!
//! Every workload reports the whole list, so one result schema covers all
//! of them; a layer a workload never enters reads `0` with a sample count
//! of `0`.

use std::collections::BTreeMap;

use braid_core::Tier;
use braid_sweep::json::Json;
use braid_sweep::CoreModel;

use crate::report::RunResult;
use crate::sim::TRACE_ENTRY_BYTES;
use crate::span::{self_times, Span};
use crate::stats::median;

/// Span names whose median self time per call is reported as `<name>_ms`.
const TIMED_SPANS: [&str; 6] = [
    "lang.compile",
    "workloads.generate",
    "compiler.translate",
    "check.check",
    "core.functional.trace",
    "obs.report",
];

/// Phases of a braidd request span, in lifetime order.
pub const SERVE_PHASES: [&str; 7] = [
    "read",
    "parse",
    "queue_wait",
    "cache_probe",
    "execute",
    "serialize",
    "write",
];

/// Request classes whose latency tail the serve layer reports.
pub const SERVE_CLASSES: [&str; 3] = ["simulate", "translate", "check"];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = TIMED_SPANS
        .iter()
        .map(|s| (format!("{s}_ms"), "ms"))
        .collect();
    v.push(("core.functional.trace_mb".into(), "MB"));
    for core in CoreModel::ALL {
        v.push((format!("core.cores.{core}.engine_minsts_per_s"), "Minst/s"));
        v.push((format!("core.cores.{core}.rss_mb"), "MB"));
    }
    v.push(("core.func.minsts_per_s".into(), "Minst/s"));
    v.push(("core.sampled.func_ms".into(), "ms"));
    v.push(("core.sampled.timing_ms".into(), "ms"));
    v.push(("core.sampled.timed_pct".into(), "%"));
    v.push(("core.sampled.ipc_err_pct".into(), "%"));
    v.push(("sweep.busy_pct".into(), "%"));
    v.push(("sweep.straggler_ms".into(), "ms"));
    for phase in SERVE_PHASES {
        v.push((format!("serve.{phase}.p50_us"), "us"));
        v.push((format!("serve.{phase}.p99_us"), "us"));
    }
    for class in SERVE_CLASSES {
        v.push((format!("serve.{class}.p99_us"), "us"));
    }
    v.push(("serve.cache.hit_pct".into(), "%"));
    v.push(("serve.shed".into(), "count"));
    v.push(("serve.retry".into(), "count"));
    v.push(("client.lag_p99_ms".into(), "ms"));
    v.push(("client.inflight_max".into(), "count"));
    v.push(("client.p99_ms".into(), "ms"));
    v.push(("bench.unattributed_pct".into(), "%"));
    v.push(("bench.trace_overhead_pct".into(), "%"));
    v
}

/// Accumulates what the traced children report.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, (f64, usize)>,
    self_ns: BTreeMap<String, Vec<u64>>,
    /// Per core: instructions and engine nanoseconds.
    engine: BTreeMap<&'static str, (u64, u64)>,
    rss_kb: BTreeMap<&'static str, (u64, usize)>,
    trace_bytes: (u64, usize),
    func: (u64, u64, usize),
    sampled_func_ns: Vec<f64>,
    sampled_timing_ns: Vec<f64>,
    sampled_insts: (u64, u64, usize),
    /// Sampled-tier cycle estimates by cell label, for the IPC error.
    pub sampled_cycles: BTreeMap<String, u64>,
    wall_ns: u64,
    unattributed_ns: u64,
    children: usize,
    /// All spans absorbed so far, re-indexed into one list.
    pub spans: Vec<Span>,
}

fn u(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

impl Layers {
    /// Sets a metric measured directly.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.values.insert(name.to_string(), (value, samples));
    }

    /// Takes in one child's output. `cell` names the cell the child ran
    /// (`None` for the suite's sweep and walk children); `wall_ns` is its
    /// spawn-to-exit time as the parent saw it.
    pub fn absorb(
        &mut self,
        cell: Option<(Tier, &str, CoreModel)>,
        doc: &Json,
        spans: &[Span],
        wall_ns: u64,
    ) {
        if let Some((Tier::Sampled, nest, core)) = cell {
            let label = format!("sampled:{nest}:{core}");
            self.sampled_cycles.insert(label, u(doc, "cycles"));
        }
        if doc.get("busy_ns").is_some() {
            let wall = u(doc, "wall_ns").max(1) as f64;
            let busy = u(doc, "busy_ns") as f64 / (crate::sim::SWEEP_THREADS as f64 * wall) * 100.0;
            let points = doc
                .get("points")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            self.set("sweep.busy_pct", busy, points);
            self.set(
                "sweep.straggler_ms",
                u(doc, "straggler_ns") as f64 / 1e6,
                points,
            );
        }
        if spans.is_empty() {
            return;
        }
        let base = self.spans.len();
        let selfs = self_times(spans);
        // Instructions per engine span, in span order: one per cell, one
        // per grid point of a walk.
        let mut insts: Vec<u64> = match doc.get("points").and_then(Json::as_arr) {
            Some(points) => points
                .iter()
                .filter_map(|p| p.as_arr().and_then(|p| p.get(2)).and_then(Json::as_u64))
                .collect(),
            None => vec![u(doc, "insts")],
        };
        insts.reverse();
        let mut covered = 0;
        for (s, own) in spans.iter().zip(&selfs) {
            if s.parent == Some(0) {
                covered += s.dur();
            }
            if let Some(core) = s.name.strip_prefix("core.cores.") {
                let core = CoreModel::parse(core).map_or("?", CoreModel::name);
                let e = self.engine.entry(core).or_default();
                e.0 += insts.pop().unwrap_or(0);
                e.1 += own;
            } else if s.name == "core.func" {
                self.func.0 += u(doc, "insts");
                self.func.1 += own;
                self.func.2 += 1;
            }
            self.self_ns.entry(s.name.clone()).or_default().push(*own);
            self.spans.push(Span {
                parent: s.parent.map(|p| p + base),
                run: self.children as u64,
                ..s.clone()
            });
        }
        self.children += 1;
        self.wall_ns += wall_ns;
        self.unattributed_ns += wall_ns.saturating_sub(covered);
        if let Some((tier @ (Tier::Full | Tier::Sampled), _, core)) = cell {
            let e = self.rss_kb.entry(core.name()).or_default();
            e.0 = e.0.max(u(doc, "rss_kb"));
            e.1 += 1;
            if tier == Tier::Sampled {
                self.sampled_func_ns.push(u(doc, "func_ns") as f64);
                self.sampled_timing_ns.push(u(doc, "timing_ns") as f64);
                self.sampled_insts.0 += u(doc, "timed_insts");
                self.sampled_insts.1 += u(doc, "insts");
                self.sampled_insts.2 += 1;
            }
        }
        if doc.get("trace_entries").is_some() {
            let bytes = u(doc, "trace_entries") * TRACE_ENTRY_BYTES as u64;
            self.trace_bytes = (self.trace_bytes.0.max(bytes), self.trace_bytes.1 + 1);
        }
    }

    /// Derives every per-layer metric and adds them all to `r`.
    pub fn finish(mut self, r: &mut RunResult) {
        for name in TIMED_SPANS {
            if let Some(ns) = self.self_ns.get(name) {
                let ms: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
                self.set(&format!("{name}_ms"), median(&ms).unwrap_or(0.0), ms.len());
            }
        }
        let rate = |insts: u64, ns: u64| {
            if ns == 0 {
                0.0
            } else {
                insts as f64 * 1e3 / ns as f64
            }
        };
        for (core, (insts, ns)) in std::mem::take(&mut self.engine) {
            let n = self
                .self_ns
                .get(&format!("core.cores.{core}"))
                .map_or(0, Vec::len);
            self.set(
                &format!("core.cores.{core}.engine_minsts_per_s"),
                rate(insts, ns),
                n,
            );
        }
        for (core, (kb, n)) in std::mem::take(&mut self.rss_kb) {
            self.set(&format!("core.cores.{core}.rss_mb"), kb as f64 / 1024.0, n);
        }
        if self.trace_bytes.1 > 0 {
            self.set(
                "core.functional.trace_mb",
                self.trace_bytes.0 as f64 / (1 << 20) as f64,
                self.trace_bytes.1,
            );
        }
        if self.func.2 > 0 {
            self.set(
                "core.func.minsts_per_s",
                rate(self.func.0, self.func.1),
                self.func.2,
            );
        }
        let (timed, total, n) = self.sampled_insts;
        if n > 0 {
            let f = median(&self.sampled_func_ns).unwrap_or(0.0) / 1e6;
            let t = median(&self.sampled_timing_ns).unwrap_or(0.0) / 1e6;
            self.set("core.sampled.func_ms", f, n);
            self.set("core.sampled.timing_ms", t, n);
            self.set(
                "core.sampled.timed_pct",
                timed as f64 / total.max(1) as f64 * 100.0,
                n,
            );
        }
        if self.wall_ns > 0 {
            let pct = self.unattributed_ns as f64 / self.wall_ns as f64 * 100.0;
            self.set("bench.unattributed_pct", pct, self.children);
        }
        for (name, unit) in per_layer() {
            let (value, samples) = self.values.get(&name).copied().unwrap_or((0.0, 0));
            r.push(name, value, unit, samples);
        }
        r.spans = self.spans;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (n, unit) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(unit.len() <= 16);
        }
        assert!(names.len() <= 128);
    }

    #[test]
    fn unattributed_time_is_wall_minus_top_level_spans() {
        let mut l = Layers::default();
        let spans = vec![
            Span {
                name: "cell".into(),
                start: 0,
                end: 90,
                parent: None,
                run: 0,
            },
            Span {
                name: "lang.compile".into(),
                start: 0,
                end: 10,
                parent: Some(0),
                run: 0,
            },
            Span {
                name: "core.cores.ooo".into(),
                start: 10,
                end: 85,
                parent: Some(0),
                run: 0,
            },
        ];
        let doc = braid_sweep::json::parse(r#"{"insts":150,"rss_kb":2048}"#).unwrap();
        l.absorb(
            Some((Tier::Full, "accum", CoreModel::Ooo)),
            &doc,
            &spans,
            100,
        );
        let mut r = RunResult::default();
        l.finish(&mut r);
        let get = |n: &str| r.metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("bench.unattributed_pct"), 15.0);
        assert_eq!(
            get("core.cores.ooo.engine_minsts_per_s"),
            150.0 * 1e3 / 75.0
        );
        assert_eq!(get("core.cores.ooo.rss_mb"), 2.0);
        assert_eq!(get("lang.compile_ms"), 10.0 / 1e6);
        assert_eq!(get("serve.shed"), 0.0);
        assert_eq!(r.metrics.len(), per_layer().len());
    }
}
