//! The metrics registry: braidd's one aggregate. It holds per-phase and
//! per-class histograms over finished spans, named event counters, and
//! the service counters (requests by kind, protocol and request errors,
//! retries, shed requests, the latency of executed jobs, and the merged
//! CPI stack of computed simulations), all behind one lock.
//!
//! Aggregation preserves the span-level conservation invariant: a
//! recorded span bumps **every** phase histogram exactly once (zero
//! charges included) and one class histogram once, so
//!
//! - each phase histogram's sample count equals the span count, and
//! - the phase histograms' value sums add up to the class histograms'
//!   value sums (both are the same `total_us` population).
//!
//! [`Registry::conserved`] checks both, and the rendered document carries
//! the verdict as a `conserved` boolean so a remote client (or a test)
//! can assert the invariant without re-deriving it.
//!
//! ## Determinism contract
//!
//! The JSON key set and ordering are fixed; every host-time *value* lives
//! under a key ending in `_us` (`mean_us`, `p50_us`, `latency_us`, ...).
//! Counters (`count`, `spans`, `status`, `events`, `requests`, `retries`,
//! ...) are deterministic for a deterministic request sequence, so
//! stripping `_us`-suffixed keys yields a byte-comparable document — the
//! schema test pins this.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use braid_sweep::json::Json;
use braid_sweep::CpiStack;
use braid_uarch::Histogram;

use crate::log::TraceLog;
use crate::span::{Phase, RequestSpan, SpanRecord};

#[derive(Default)]
struct RegistryInner {
    spans: u64,
    status: BTreeMap<&'static str, u64>,
    phases: [Histogram; Phase::COUNT],
    classes: BTreeMap<&'static str, Histogram>,
    events: BTreeMap<String, u64>,
    requests: BTreeMap<&'static str, u64>,
    protocol_errors: u64,
    request_errors: u64,
    retries: u64,
    shed: u64,
    latency_us: Histogram,
    cpi: CpiStack,
}

impl RegistryInner {
    /// See [`Registry::conserved`].
    fn conserved(&self) -> bool {
        let counts_ok = self.phases.iter().all(|h| h.total() == self.spans);
        let phase_sum: u128 = self.phases.iter().map(Histogram::sum).sum();
        let class_sum: u128 = self.classes.values().map(Histogram::sum).sum();
        counts_ok && phase_sum == class_sum
    }
}

/// Thread-safe metrics aggregation over finished spans, named events and
/// the service counters.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

/// Renders one histogram of microsecond samples as the standard summary
/// object: `count` (deterministic) plus `total_us`, `mean_us`, `p50_us`,
/// `p95_us`, `p99_us`, `max_us` (host time, `0` when empty). Shared by
/// the registry, the sweep timing summary, and the loadgen report so
/// every latency block in the system reads the same.
pub fn hist_summary_json(h: &Histogram) -> Json {
    let pct = |p: f64| Json::Int(h.percentile_checked(p).unwrap_or(0));
    Json::Obj(vec![
        ("count".into(), Json::Int(h.total())),
        ("total_us".into(), Json::Int(h.sum() as u64)),
        ("mean_us".into(), Json::Float(h.mean())),
        ("p50_us".into(), pct(0.50)),
        ("p95_us".into(), pct(0.95)),
        ("p99_us".into(), pct(0.99)),
        ("max_us".into(), Json::Int(h.max().unwrap_or(0))),
    ])
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // Poison recovery: every mutation is a handful of counter and
        // histogram bumps; state behind a panicked thread is coherent.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Aggregates one finished span: every phase histogram records its
    /// (possibly zero) charge, the span's class records the total.
    pub fn record(&self, rec: &SpanRecord) {
        let mut inner = self.lock();
        inner.spans += 1;
        *inner.status.entry(rec.status).or_insert(0) += 1;
        for (hist, us) in inner.phases.iter_mut().zip(rec.phase_us) {
            hist.record(us);
        }
        inner.classes.entry(rec.kind).or_default().record(rec.total_us);
    }

    /// Bumps a named structured-event counter (e.g. `cache-demoted`).
    pub fn record_event(&self, kind: &str) {
        *self.lock().events.entry(kind.to_string()).or_insert(0) += 1;
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> u64 {
        self.lock().spans
    }

    /// Count of one named event (`0` if never recorded).
    pub fn event_count(&self, kind: &str) -> u64 {
        self.lock().events.get(kind).copied().unwrap_or(0)
    }

    /// The conservation invariant over the aggregate: every phase
    /// histogram holds exactly one sample per span, and phase time sums
    /// to class time (the same `total_us` population seen two ways).
    pub fn conserved(&self) -> bool {
        self.lock().conserved()
    }

    /// Counts one accepted request of `kind`.
    pub fn record_request(&self, kind: &'static str) {
        *self.lock().requests.entry(kind).or_insert(0) += 1;
    }

    /// Counts a line the protocol layer rejected.
    pub fn record_protocol_error(&self) {
        self.lock().protocol_errors += 1;
    }

    /// Counts a request that executed but failed (error response).
    pub fn record_request_error(&self) {
        self.lock().request_errors += 1;
    }

    /// Counts a backpressure (`retry`) response.
    pub fn record_retry(&self) {
        self.lock().retries += 1;
    }

    /// Counts a request shed by class under overload (also answered
    /// `retry`, but before reaching the job queue, so it counts as a
    /// retry too).
    pub fn record_shed(&self) {
        let mut inner = self.lock();
        inner.shed += 1;
        inner.retries += 1;
    }

    /// Records one executed job's service latency in microseconds.
    pub fn record_latency_us(&self, us: u64) {
        self.lock().latency_us.record(us);
    }

    /// Merges the CPI stack of one **computed** (non-cached) simulation.
    /// Cache hits skip the simulation, so they add nothing here — the
    /// stack attributes the cycles this server actually simulated.
    pub fn merge_cpi(&self, cpi: &CpiStack) {
        self.lock().cpi.merge(cpi);
    }

    /// The latency histogram of executed jobs (host time).
    pub fn latency_us(&self) -> Histogram {
        self.lock().latency_us.clone()
    }

    /// The merged CPI stack of every computed simulation.
    pub fn cpi(&self) -> CpiStack {
        self.lock().cpi
    }

    /// Renders the service counters as the leading fields of the `stats`
    /// and `metrics` documents: `requests` (by kind, sorted),
    /// `protocol_errors`, `request_errors`, `retries`, `shed`.
    pub fn counters_json(&self) -> Vec<(String, Json)> {
        let inner = self.lock();
        let requests =
            inner.requests.iter().map(|(k, n)| ((*k).to_string(), Json::Int(*n))).collect();
        vec![
            ("requests".into(), Json::Obj(requests)),
            ("protocol_errors".into(), Json::Int(inner.protocol_errors)),
            ("request_errors".into(), Json::Int(inner.request_errors)),
            ("retries".into(), Json::Int(inner.retries)),
            ("shed".into(), Json::Int(inner.shed)),
        ]
    }

    /// Renders the span aggregate: `spans`, `status`, `phases` (lifetime
    /// order), `classes` (sorted), `events` (sorted), `conserved` — the
    /// `trace` block of the `metrics` document. See the module docs for
    /// the determinism contract.
    pub fn to_json(&self) -> Json {
        let inner = self.lock();
        let status = inner.status.iter().map(|(k, n)| ((*k).to_string(), Json::Int(*n))).collect();
        let phases = Phase::ALL
            .iter()
            .map(|p| (p.key().to_string(), hist_summary_json(&inner.phases[*p as usize])))
            .collect();
        let classes = inner
            .classes
            .iter()
            .map(|(k, h)| ((*k).to_string(), hist_summary_json(h)))
            .collect();
        let events = inner.events.iter().map(|(k, n)| (k.clone(), Json::Int(*n))).collect();
        Json::Obj(vec![
            ("spans".into(), Json::Int(inner.spans)),
            ("status".into(), Json::Obj(status)),
            ("phases".into(), Json::Obj(phases)),
            ("classes".into(), Json::Obj(classes)),
            ("events".into(), Json::Obj(events)),
            ("conserved".into(), Json::Bool(inner.conserved())),
        ])
    }
}

/// The registry and the optional span log behind one handle — what the
/// serving stack threads through readers, pool workers, writers, and the
/// cache. The registry is always on (it is cheap); the log is armed by
/// `braidd --trace-log`.
#[derive(Default)]
pub struct TraceHub {
    registry: Registry,
    log: Option<TraceLog>,
}

impl TraceHub {
    /// A hub over a fresh registry, exporting spans to `log` when given.
    pub fn new(log: Option<TraceLog>) -> TraceHub {
        TraceHub { registry: Registry::new(), log }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span log's path, when one is armed.
    pub fn log_path(&self) -> Option<&std::path::Path> {
        self.log.as_ref().map(TraceLog::path)
    }

    /// Finishes a span: aggregates it into the registry and appends it
    /// to the span log when one is armed.
    pub fn complete(&self, span: RequestSpan) {
        let rec = span.finish();
        self.registry.record(&rec);
        if let Some(log) = &self.log {
            log.write(&rec.to_json());
        }
    }

    /// Emits a structured event: counts it in the registry and appends
    /// `{"event":kind, ...fields}` to the span log when armed.
    pub fn event(&self, kind: &str, fields: Vec<(String, Json)>) {
        self.registry.record_event(kind);
        if let Some(log) = &self.log {
            let mut doc = vec![("event".to_string(), Json::Str(kind.into()))];
            doc.extend(fields);
            log.write(&Json::Obj(doc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::RequestSpan;

    fn span(kind: &'static str, status: &'static str) -> SpanRecord {
        let mut s = RequestSpan::begin();
        s.describe(crate::span::next_trace_id(), kind, 1);
        s.set_status(status);
        s.mark(Phase::Read);
        s.mark(Phase::Execute);
        s.finish()
    }

    #[test]
    fn aggregation_conserves_phases_and_classes() {
        let r = Registry::new();
        assert!(r.conserved(), "empty registry is trivially conserved");
        r.record(&span("simulate", "ok"));
        r.record(&span("simulate", "ok"));
        r.record(&span("check", "error"));
        assert_eq!(r.spans(), 3);
        assert!(r.conserved());
        let doc = r.to_json();
        assert_eq!(doc.get("conserved").and_then(Json::as_bool), Some(true));
        for p in Phase::ALL {
            let count = doc
                .get("phases")
                .and_then(|o| o.get(p.key()))
                .and_then(|o| o.get("count"))
                .and_then(Json::as_u64);
            assert_eq!(count, Some(3), "phase {} counts every span", p.key());
        }
        let sim = doc.get("classes").and_then(|c| c.get("simulate")).expect("simulate class");
        assert_eq!(sim.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("status").and_then(|s| s.get("error")).and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn summary_fields_split_into_deterministic_and_host_time() {
        let h: Histogram = (1..=100).collect();
        let doc = hist_summary_json(&h);
        let Json::Obj(fields) = &doc else { panic!("summary is an object") };
        for (key, _) in fields {
            assert!(
                key == "count" || key.ends_with("_us"),
                "host-time fields must end in _us, counters must be `count`: {key}"
            );
        }
        assert_eq!(doc.get("p95_us").and_then(Json::as_u64), Some(95));
        assert_eq!(doc.get("p99_us").and_then(Json::as_u64), Some(99));
        // Empty histograms render zeros, not nulls, keeping the schema fixed.
        let empty = hist_summary_json(&Histogram::new());
        assert_eq!(empty.get("p99_us").and_then(Json::as_u64), Some(0));
        assert_eq!(empty.get("max_us").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn events_count_and_render_sorted() {
        let r = Registry::new();
        r.record_event("cache-demoted");
        r.record_event("cache-quarantined");
        r.record_event("cache-quarantined");
        assert_eq!(r.event_count("cache-quarantined"), 2);
        assert_eq!(r.event_count("nonesuch"), 0);
        let doc = r.to_json();
        let events = doc.get("events").expect("events object");
        assert_eq!(events.get("cache-demoted").and_then(Json::as_u64), Some(1));
        assert_eq!(events.get("cache-quarantined").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn hub_without_log_still_aggregates() {
        let hub = TraceHub::new(None);
        let mut s = RequestSpan::begin();
        s.describe("x".into(), "stats", 9);
        s.mark(Phase::Read);
        hub.complete(s);
        hub.event("cache-demoted", vec![]);
        assert_eq!(hub.registry().spans(), 1);
        assert_eq!(hub.registry().event_count("cache-demoted"), 1);
        assert!(hub.log_path().is_none());
    }
}
