//! The daemon: TCP accept loop, per-connection ordering, dispatch, drain.
//!
//! ## Threading model
//!
//! One accept loop, two threads per connection (reader and writer), one
//! shared [`JobPool`] sized to the host. The reader parses each line,
//! stamps it with a per-connection sequence number, and submits the work
//! to the pool; the pool finishes jobs in whatever order the machine
//! likes; the writer holds a reorder buffer keyed by sequence number and
//! releases lines strictly in request order. Clients therefore see an
//! in-order protocol over an out-of-order core — the same bargain the
//! simulated machine makes.
//!
//! ## Backpressure and load shedding
//!
//! Both queues are bounded and both refusals are explicit protocol
//! events, never stalls or silent drops:
//!
//! - job queue full → `{"status":"retry","retry_after_ms":N}` for that
//!   request; the client resends later.
//! - connection table full → a single `retry` line at accept time, then
//!   the connection closes.
//!
//! Before the queue is full, requests shed **by class**
//! ([`protocol::ShedClass`]): the expensive simulation classes are
//! refused first (3/4 occupancy), `translate` next (7/8), `check` only
//! when the queue is actually full, and `stats`/`shutdown` — answered
//! inline by the reader — never. Overload therefore degrades the service
//! deterministically from the most expensive work inward, and a loaded
//! daemon stays introspectable.
//!
//! ## Hostile clients
//!
//! Every connection carries socket read/write timeouts and a bounded
//! request-line length: a slowloris connection costs one worker at most
//! `io_timeout_ms` of patience and `max_line_bytes` of memory, then a
//! structured error and a close — never a wedged worker.
//!
//! ## Fault injection
//!
//! With a [`crate::chaos`] spec armed, pooled response writes, worker
//! jobs, and disk-cache inserts absorb seeded faults. Inline responses
//! (`stats`, `shutdown`, protocol errors) are exempt so control traffic
//! stays reliable. See the chaos module docs for the class table.
//!
//! ## Tracing
//!
//! Every request is wrapped in a [`braid_trace::RequestSpan`]: the reader
//! opens it before blocking on the socket, phases are charged as the
//! request moves through parse → shed/queue → cache probe → execute →
//! serialize, and the **writer** closes it after the response line is
//! flushed — so a span's total covers the full on-server lifetime and its
//! phases sum to that total by construction. Completed spans feed the
//! always-on [`braid_trace::Registry`] and, when
//! [`ServerConfig::trace_log`] is set, a JSON-lines span log.
//! Trace IDs (client-supplied via the `trace` field or generated) appear
//! only in that log — never in response lines or cache keys, so tracing
//! cannot perturb the byte-determinism contract `--verify` checks.
//!
//! ## Metrics
//!
//! The registry is the daemon's one aggregate: besides the spans it
//! counts requests by kind, protocol and request errors, retries and
//! shed requests, and holds the latency histogram of executed jobs and
//! the merged CPI stack of computed simulations. The `stats` and
//! `metrics` documents are rendered from it plus the live gauges kept
//! outside it — pool depth and panics, the cache counters, and the chaos
//! injection counts.
//!
//! ## Shutdown and drain
//!
//! A `shutdown` request closes the pool's intake (queued jobs still run),
//! stops the accept loop, and answers `ok` once the drain is underway.
//! Requests already queued — on any connection — complete and are
//! delivered; compute requests arriving after the drain began get an
//! `error` with code `shutting-down`. [`Server::run`] returns once every
//! connection thread has exited and the pool is empty, so a caller that
//! joins `run` observes a fully quiesced daemon.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use braid_core::processor::{run_tier, CoreConfig, RunError, TierReport};
use braid_core::{FuncStream, Tier};
use braid_obs::{cpi_json, hist_json, report_json, tier_json};
use braid_sweep::digest::{hex, ContentDigest};
use braid_sweep::grid::CoreModel;
use braid_sweep::json::Json;
use braid_sweep::pool::{JobPool, SubmitError};
use braid_sweep::{run_point, SweepError};

use braid_trace::{next_trace_id, Phase, RequestSpan, TraceHub, TraceLog};

use crate::cache::{DiskFault, ResultCache};
use crate::chaos::{Chaos, ChaosSpec, WriteFault};
use crate::protocol::{self, BoundedLine, ParsedRequest, Request};

/// Daemon configuration. The defaults suit tests and smoke runs; the
/// `braidd` binary maps its flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads in the shared job pool (`0` = available
    /// parallelism).
    pub threads: usize,
    /// Bound on queued (not yet running) jobs; beyond it requests get
    /// `retry` responses, and class-based shedding starts at 3/4 of it.
    pub queue_bound: usize,
    /// Maximum simultaneous connections; beyond it connections are
    /// refused with a `retry` line.
    pub max_connections: usize,
    /// Result-cache capacity in payloads (the RAM tier).
    pub cache_capacity: usize,
    /// Directory for the crash-safe disk cache tier (`None` = RAM-only).
    /// An unusable directory demotes to RAM-only with a warning, never a
    /// refusal to start.
    pub cache_dir: Option<PathBuf>,
    /// Default simulated-cycle deadline applied to `simulate` requests
    /// that do not carry their own (`0` = none).
    pub deadline_cycles: u64,
    /// The `retry_after_ms` hint sent with backpressure responses.
    pub retry_after_ms: u64,
    /// Socket read/write timeout per connection in milliseconds (`0` =
    /// none). A connection idle or stalled past this is closed.
    pub io_timeout_ms: u64,
    /// Maximum request-line length in bytes; longer lines get a
    /// structured `line-too-long` error and the connection closes.
    pub max_line_bytes: usize,
    /// Fault-injection schedule (`None` = no chaos).
    pub chaos: Option<ChaosSpec>,
    /// Span-log file for JSON-lines trace export (`None` = registry
    /// only). Unlike the cache directory, an unusable path is a bind
    /// error: a requested-but-silently-absent trace log would defeat the
    /// point of asking for one.
    pub trace_log: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            queue_bound: 256,
            max_connections: 32,
            cache_capacity: 4096,
            cache_dir: None,
            deadline_cycles: 0,
            retry_after_ms: 25,
            io_timeout_ms: 30_000,
            max_line_bytes: 64 * 1024,
            chaos: None,
            trace_log: None,
        }
    }
}

/// State shared by the accept loop, every connection, and every job.
struct Shared {
    cfg: ServerConfig,
    cache: ResultCache,
    pool: JobPool,
    chaos: Option<Chaos>,
    trace: Arc<TraceHub>,
    shutdown: AtomicBool,
    active: AtomicUsize,
}

impl Shared {
    /// One chaos roll for a disk-cache insert (never rolls unarmed).
    fn disk_fault(&self) -> Option<DiskFault> {
        self.chaos.as_ref().and_then(Chaos::disk_fault)
    }
}

/// The simulation daemon. [`Server::bind`] claims the socket (so callers
/// can learn the ephemeral port before any client connects);
/// [`Server::run`] serves until a `shutdown` request drains it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket and builds the shared state. A configured
    /// but unusable cache directory falls back to RAM-only (warned, not
    /// fatal) — the disk tier is an accelerator, not a dependency.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let threads = if cfg.threads == 0 {
            thread::available_parallelism().map_or(4, usize::from)
        } else {
            cfg.threads
        };
        let cache = match &cfg.cache_dir {
            Some(dir) => ResultCache::with_disk(cfg.cache_capacity, dir).unwrap_or_else(|e| {
                eprintln!(
                    "braidd: cache dir {} unusable ({e}); running RAM-only",
                    dir.display()
                );
                ResultCache::new(cfg.cache_capacity)
            }),
            None => ResultCache::new(cfg.cache_capacity),
        };
        let log = cfg.trace_log.as_ref().map(|p| TraceLog::create(p)).transpose()?;
        let trace = Arc::new(TraceHub::new(log));
        cache.arm_trace(Arc::clone(&trace));
        let shared = Arc::new(Shared {
            cache,
            pool: JobPool::new(threads, cfg.queue_bound),
            chaos: cfg.chaos.clone().map(Chaos::new),
            trace,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            cfg,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a `shutdown` request, then drains: waits
    /// for every connection thread to exit and every queued job to
    /// finish before returning.
    ///
    /// # Errors
    ///
    /// Returns accept-loop I/O errors; per-connection I/O errors only end
    /// that connection.
    pub fn run(&self) -> io::Result<()> {
        let mut handles = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = Arc::clone(&self.shared);
            if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
                shared.trace.registry().record_retry();
                let mut w = BufWriter::new(&stream);
                let _ = writeln!(w, "{}", protocol::retry_line(0, shared.cfg.retry_after_ms));
                let _ = w.flush();
                continue;
            }
            shared.active.fetch_add(1, Ordering::SeqCst);
            let addr = self.local_addr()?;
            handles.push(thread::spawn(move || {
                let _ = handle_connection(stream, &shared, addr);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        self.shared.pool.drain();
        Ok(())
    }
}

/// One line bound for the wire: `(sequence, line, chaos_exempt, span)`.
/// Inline responses (stats, shutdown, protocol errors) are exempt from
/// write faults so control traffic stays reliable under chaos. The span,
/// when present, is completed by the writer when the line is released in
/// order — the `write` phase covers the reorder-buffer wait. A `None`
/// span marks responses whose span was lost to the pool's
/// submit-refusal path (the closure is consumed either way).
type Outgoing = (u64, String, bool, Option<RequestSpan>);

/// Writer half of a connection: reorders [`Outgoing`] messages back into
/// request order and flushes each line as soon as it is releasable,
/// applying any armed chaos write fault to non-exempt lines.
///
/// Spans complete when their line is *released* to the socket — after the
/// chaos fault roll, before the flush. Completing before the flush keeps
/// the metrics document deterministic for a sequential client: by the
/// time a response is observable on the wire, its span is in the
/// registry, so a follow-up `metrics` request always counts it. Spans of
/// chaos-severed responses are dropped, not completed — the client never
/// saw those lines, so they must not count as served.
fn writer_loop(stream: &TcpStream, rx: &Receiver<Outgoing>, shared: &Shared, dead: &AtomicBool) {
    let mut out = BufWriter::new(stream);
    let mut pending = std::collections::BTreeMap::new();
    let mut next = 0u64;
    let sever = || {
        let _ = stream.shutdown(Shutdown::Both);
        dead.store(true, Ordering::Relaxed);
    };
    for (seq, line, exempt, span) in rx {
        pending.insert(seq, (line, exempt, span));
        while let Some((line, exempt, span)) = pending.remove(&next) {
            if !exempt {
                match shared.chaos.as_ref().and_then(Chaos::write_fault) {
                    Some(WriteFault::Torn { keep }) if line.len() >= 2 => {
                        // A strict prefix of the line, never the newline:
                        // the client sees a frame that cannot parse and
                        // must reconnect and replay.
                        let b = line.as_bytes();
                        let cut = ((keep * b.len() as f64) as usize).clamp(1, b.len() - 1);
                        let _ = out.write_all(&b[..cut]).and_then(|()| out.flush());
                        sever();
                        return;
                    }
                    Some(WriteFault::Drop) => {
                        sever();
                        return;
                    }
                    Some(WriteFault::Stall(d)) => thread::sleep(d),
                    Some(WriteFault::Torn { .. }) | None => {}
                }
            }
            if let Some(mut span) = span {
                span.mark(Phase::Write);
                shared.trace.complete(span);
            }
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                sever();
                return;
            }
            next += 1;
        }
    }
}

/// Prepares an accepted socket: `TCP_NODELAY`, so a small response goes
/// out at once instead of waiting for the ACK that rides on the client's
/// next request, and the read/write timeouts (`0` = none).
fn configure_socket(stream: &TcpStream, io_timeout_ms: u64) -> io::Result<()> {
    stream.set_nodelay(true)?;
    if io_timeout_ms > 0 {
        let t = Some(Duration::from_millis(io_timeout_ms));
        stream.set_read_timeout(t)?;
        stream.set_write_timeout(t)?;
    }
    Ok(())
}

/// Reader half of a connection: parse (bounded), shed or stamp, dispatch.
fn handle_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    addr: std::net::SocketAddr,
) -> io::Result<()> {
    configure_socket(&stream, shared.cfg.io_timeout_ms)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let (tx, rx) = mpsc::channel::<Outgoing>();
    // The writer observes chaos-severed or broken connections; the reader
    // polls this flag to stop accepting work for a dead socket.
    let dead = Arc::new(AtomicBool::new(false));
    let writer = {
        let shared = Arc::clone(shared);
        let dead = Arc::clone(&dead);
        thread::spawn(move || writer_loop(&stream, &rx, &shared, &dead))
    };
    let mut seq = 0u64;
    while !dead.load(Ordering::Relaxed) {
        // The span opens before the blocking read: its `read` phase is
        // the time spent waiting for (and receiving) the request bytes.
        let mut span = RequestSpan::begin();
        let line = match protocol::read_bounded_line(&mut reader, shared.cfg.max_line_bytes) {
            Ok(BoundedLine::Line(l)) => l,
            Ok(BoundedLine::TooLong) => {
                // Slowloris / runaway frame: answer structurally, then
                // close — the line framing cannot be trusted afterwards.
                span.mark(Phase::Read);
                span.describe(next_trace_id(), "invalid", 0);
                span.set_status("protocol_error");
                shared.trace.registry().record_protocol_error();
                let msg =
                    format!("request line exceeds {} bytes", shared.cfg.max_line_bytes);
                let line = protocol::error_line(0, "line-too-long", &msg);
                span.mark(Phase::Serialize);
                let _ = tx.send((seq, line, true, Some(span)));
                break;
            }
            Ok(BoundedLine::Eof) | Err(_) => break,
        };
        span.mark(Phase::Read);
        if line.trim().is_empty() {
            continue;
        }
        let this_seq = seq;
        seq += 1;
        let send = |line: String, span: Option<RequestSpan>| {
            // The writer only exits once every sender is dropped, so a
            // failed send means the socket died; the reader will see EOF.
            let _ = tx.send((this_seq, line, true, span));
        };
        match protocol::parse_request_traced(&line) {
            Err(e) => {
                span.mark(Phase::Parse);
                span.describe(next_trace_id(), "invalid", e.id);
                span.set_status("protocol_error");
                shared.trace.registry().record_protocol_error();
                let line = protocol::error_line(e.id, e.code, &e.message);
                span.mark(Phase::Serialize);
                send(line, Some(span));
            }
            Ok(ParsedRequest { id, trace, request }) => {
                span.mark(Phase::Parse);
                span.describe(trace.unwrap_or_else(next_trace_id), request.kind(), id);
                match request {
                    Request::Stats | Request::Metrics => {
                        let metrics = matches!(request, Request::Metrics);
                        shared.trace.registry().record_request(request.kind());
                        let doc = service_json(shared, metrics);
                        span.mark(Phase::Execute);
                        let line = protocol::ok_line(id, &doc.compact());
                        span.mark(Phase::Serialize);
                        send(line, Some(span));
                    }
                    Request::Shutdown => {
                        shared.trace.registry().record_request("shutdown");
                        shared.shutdown.store(true, Ordering::SeqCst);
                        shared.pool.close();
                        span.mark(Phase::Execute);
                        let line = protocol::ok_line(id, "\"draining\"");
                        span.mark(Phase::Serialize);
                        send(line, Some(span));
                        // Wake the accept loop out of `incoming()` so it
                        // can observe the flag; the dummy connection is
                        // discarded.
                        drop(TcpStream::connect(addr));
                        break;
                    }
                    req => {
                        shared.trace.registry().record_request(req.kind());
                        // Deterministic load shedding by class: expensive
                        // work is refused early so cheap introspection
                        // stays live.
                        let depth = shared.pool.depth().queued;
                        if req.shed_class().sheds(depth, shared.cfg.queue_bound) {
                            shared.trace.registry().record_shed();
                            span.set_status("retry");
                            let line = protocol::retry_line(id, shared.cfg.retry_after_ms);
                            span.mark(Phase::Serialize);
                            send(line, Some(span));
                            continue;
                        }
                        let tx_job = tx.clone();
                        let job_shared = Arc::clone(shared);
                        // The span moves into the closure; when the pool
                        // refuses the submission the closure (and span)
                        // is consumed anyway, so the refusal responses
                        // below travel span-less.
                        let submitted = shared.pool.try_submit(move || {
                            span.mark(Phase::QueueWait);
                            if job_shared.chaos.as_ref().is_some_and(Chaos::job_panic) {
                                // Contained by the pool (counted in
                                // `panics`); the response never arrives
                                // and the client's per-request timeout
                                // must recover. `resume_unwind` skips
                                // the panic hook, so an injected panic
                                // prints nothing.
                                std::panic::resume_unwind(Box::new("chaos: injected worker panic"));
                            }
                            let started = Instant::now();
                            let line = execute(&job_shared, id, &req, &mut span);
                            job_shared
                                .trace
                                .registry()
                                .record_latency_us(started.elapsed().as_micros() as u64);
                            let _ = tx_job.send((this_seq, line, false, Some(span)));
                        });
                        match submitted {
                            Ok(()) => {}
                            Err(SubmitError::Saturated) => {
                                shared.trace.registry().record_retry();
                                send(protocol::retry_line(id, shared.cfg.retry_after_ms), None);
                            }
                            Err(SubmitError::Closing) => {
                                shared.trace.registry().record_request_error();
                                send(
                                    protocol::error_line(
                                        id,
                                        "shutting-down",
                                        "server is draining; no new work accepted",
                                    ),
                                    None,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
    Ok(())
}

/// Renders the `stats` document, or with `metrics` set the `metrics`
/// document, from the registry and the live gauges.
///
/// Both open with the registry's service counters and the cache block.
/// `stats` goes on with the pool depths, the latency histogram of
/// executed jobs and the merged CPI stack; `metrics` with the registry's
/// span aggregate (the `trace` block). An armed chaos harness adds its
/// spec seed and per-class injection counts last.
///
/// Determinism contract of `metrics`: for the same request sequence the
/// document is byte-identical modulo fields whose keys end in `_us` — the
/// racy pool depths and the host-latency histogram of `stats` stay out.
fn service_json(shared: &Shared, metrics: bool) -> Json {
    let registry = shared.trace.registry();
    let mut doc = registry.counters_json();
    doc.push(("cache".into(), cache_json(&shared.cache)));
    if metrics {
        doc.push(("trace".into(), registry.to_json()));
    } else {
        let depth = shared.pool.depth();
        let pool = Json::Obj(vec![
            ("queued".into(), Json::Int(depth.queued as u64)),
            ("running".into(), Json::Int(depth.running as u64)),
            ("panics".into(), Json::Int(shared.pool.panics())),
        ]);
        doc.push(("pool".into(), pool));
        doc.push(("latency_us".into(), hist_json(&registry.latency_us())));
        doc.push(("cpi".into(), cpi_json(&registry.cpi())));
    }
    if let Some(chaos) = &shared.chaos {
        doc.push(("chaos".into(), chaos.to_json()));
    }
    Json::Obj(doc)
}

/// The cache counter block of the `stats` and `metrics` documents; the
/// `disk` object appears only when the disk tier is configured.
fn cache_json(cache: &ResultCache) -> Json {
    let (hits, misses) = cache.counters();
    let mut fields = vec![
        ("hits".into(), Json::Int(hits)),
        ("misses".into(), Json::Int(misses)),
        ("entries".into(), Json::Int(cache.len() as u64)),
        ("capacity".into(), Json::Int(cache.capacity() as u64)),
    ];
    if let Some(d) = cache.disk_counters() {
        fields.push((
            "disk".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Int(d.hits)),
                ("writes".into(), Json::Int(d.writes)),
                ("quarantined".into(), Json::Int(d.quarantined)),
                ("errors".into(), Json::Int(d.errors)),
                ("enabled".into(), Json::Bool(d.enabled)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Runs one compute request to a finished response line. Infallible at
/// this layer: failures become `error` lines (with the span's status set
/// to match). The span picks up its cache-probe/execute phase charges
/// inside [`run_request`] and its serialize charge here.
fn execute(shared: &Shared, id: u64, req: &Request, span: &mut RequestSpan) -> String {
    let line = match run_request(shared, req, span) {
        Ok(payload) => protocol::ok_line(id, &payload),
        Err(e) => {
            shared.trace.registry().record_request_error();
            span.set_status("error");
            // Whatever ran before the failure is execute time.
            span.mark(Phase::Execute);
            protocol::error_line(id, e.code(), &e.to_string())
        }
    };
    span.mark(Phase::Serialize);
    line
}

/// Resolves a workload and digests its container bytes — the
/// program-identity half of every cache key.
fn program_digest(workload: &str, scale: f64) -> Result<(braid_workloads::Workload, String), SweepError> {
    let w = braid_workloads::by_name_any(workload, scale)
        .ok_or_else(|| SweepError::UnknownWorkload { workload: workload.to_string() })?;
    let bytes = braid_isa::container::to_bytes(&w.program).map_err(|e| SweepError::Malformed {
        path: std::path::PathBuf::from(&w.name),
        msg: format!("workload failed container serialization: {e}"),
    })?;
    let digest = hex(&bytes);
    Ok((w, digest))
}

/// Executes a compute request, serving the payload from the cache when
/// the content digest matches a previous computation. Cache inserts roll
/// the chaos disk-fault schedule when one is armed.
///
/// Span accounting: key derivation and the cache lookup are charged to
/// `cache_probe` (with the hit/miss verdict recorded); the simulation or
/// translation itself to `execute`, along with its simulated-cycle count
/// where the payload carries one.
fn run_request(shared: &Shared, req: &Request, span: &mut RequestSpan) -> Result<String, SweepError> {
    let probe = |span: &mut RequestSpan, hit: bool| {
        span.mark(Phase::CacheProbe);
        span.set_cache(if hit { "hit" } else { "miss" });
    };
    match req {
        Request::Simulate { workload, core, width, scale, perfect, deadline, tier, sampling } => {
            let (w, pdigest) = program_digest(workload, *scale)?;
            let deadline = if *deadline > 0 { *deadline } else { shared.cfg.deadline_cycles };
            let mut key = ContentDigest::new()
                .field("kind", "simulate")
                .field("program", &pdigest)
                .field("core", core.name())
                .field("config", format!("w{width}:p{perfect}:d{deadline}"));
            if *tier != Tier::Full {
                // Full-tier digests predate execution tiers; the tier
                // fields join the key only for the new tiers so existing
                // cache entries (RAM and disk) keep matching.
                key = key.field("tier", tier.name()).field("sampling", sampling.digest_key());
            }
            let key = key.finish();
            if let Some(hit) = shared.cache.get(&key) {
                probe(span, true);
                return Ok(hit);
            }
            probe(span, false);
            let cfg = paper_core(*core, *width, *perfect, deadline);
            let rep = run_tier(&w.program, &cfg, *tier, w.fuel, sampling)
                .map_err(|source| SweepError::Point { key: w.name.clone(), source })?;
            let payload = match &rep {
                TierReport::Full(r) => {
                    shared.trace.registry().merge_cpi(&r.cpi);
                    span.add_cycles(r.cycles);
                    report_json(r)
                }
                TierReport::Sampled(r) => {
                    shared.trace.registry().merge_cpi(&r.cpi);
                    span.add_cycles(r.est_cycles);
                    tier_json(("workload", &w.name), *tier, &rep)
                }
                TierReport::Func(_) => tier_json(("workload", &w.name), *tier, &rep),
            }
            .compact();
            span.mark(Phase::Execute);
            shared.cache.insert_faulty(key, payload.clone(), shared.disk_fault());
            Ok(payload)
        }
        Request::Translate { workload, scale } => {
            let (w, pdigest) = program_digest(workload, *scale)?;
            let key = ContentDigest::new()
                .field("kind", "translate")
                .field("program", &pdigest)
                .finish();
            if let Some(hit) = shared.cache.get(&key) {
                probe(span, true);
                return Ok(hit);
            }
            probe(span, false);
            let t = braid_compiler::translate(&w.program, &braid_compiler::TranslatorConfig::default())
                .map_err(|e| SweepError::Point { key: w.name.clone(), source: RunError::Translate(e) })?;
            let payload = translation_json(&w.name, &t).compact();
            span.mark(Phase::Execute);
            shared.cache.insert_faulty(key, payload.clone(), shared.disk_fault());
            Ok(payload)
        }
        Request::Check { workload, scale } => {
            let (w, pdigest) = program_digest(workload, *scale)?;
            let key =
                ContentDigest::new().field("kind", "check").field("program", &pdigest).finish();
            if let Some(hit) = shared.cache.get(&key) {
                probe(span, true);
                return Ok(hit);
            }
            probe(span, false);
            let t = braid_compiler::translate(&w.program, &braid_compiler::TranslatorConfig::default())
                .map_err(|e| SweepError::Point { key: w.name.clone(), source: RunError::Translate(e) })?;
            let report = t.check(&w.program, &braid_check::CheckConfig::default());
            let doc = braid_sweep::json::parse(&report.to_json()).map_err(|e| {
                SweepError::Malformed { path: std::path::PathBuf::from(&w.name), msg: e.to_string() }
            })?;
            let payload = doc.compact();
            span.mark(Phase::Execute);
            shared.cache.insert_faulty(key, payload.clone(), shared.disk_fault());
            Ok(payload)
        }
        Request::SweepPoint { point } => {
            let (_, pdigest) = program_digest(&point.workload, point.scale)?;
            let key = ContentDigest::new()
                .field("kind", "sweep-point")
                .field("program", &pdigest)
                .field("core", point.core.name())
                .field("config", point.key())
                .field("perfect", format!("{}", point.perfect))
                .finish();
            if let Some(hit) = shared.cache.get(&key) {
                probe(span, true);
                return Ok(hit);
            }
            probe(span, false);
            let stats = run_point(point)?;
            shared.trace.registry().merge_cpi(&stats.cpi);
            span.add_cycles(stats.cycles);
            let mut fields = vec![
                ("key".into(), Json::Str(point.key())),
                ("instructions".into(), Json::Int(stats.instructions)),
                ("cycles".into(), Json::Int(stats.cycles)),
                ("ipc".into(), Json::Float(stats.ipc())),
                ("cpi".into(), cpi_json(&stats.cpi)),
            ];
            if point.tier == Tier::Sampled {
                fields.push(("est_cycles".into(), Json::Int(stats.est_cycles)));
                fields.push(("ipc_est".into(), Json::Float(stats.ipc_est())));
                fields.push(("ipc_err".into(), Json::Float(stats.ipc_err)));
            }
            let payload = Json::Obj(fields).compact();
            span.mark(Phase::Execute);
            shared.cache.insert_faulty(key, payload.clone(), shared.disk_fault());
            Ok(payload)
        }
        Request::Trace { workload, core, width, scale } => {
            let (w, pdigest) = program_digest(workload, *scale)?;
            let key = ContentDigest::new()
                .field("kind", "trace")
                .field("program", &pdigest)
                .field("core", core.name())
                .field("config", format!("w{width}"))
                .finish();
            if let Some(hit) = shared.cache.get(&key) {
                probe(span, true);
                return Ok(hit);
            }
            probe(span, false);
            let malformed = |w: &braid_workloads::Workload, msg: String| SweepError::Malformed {
                path: std::path::PathBuf::from(&w.name),
                msg,
            };
            // The trace is never held: one pass counts it, one streams the
            // file form into a hashing sink for its digest, and a
            // trace-driven core times the fast interpreter's stream of the
            // same program (the braid core runs its translation).
            let file = braid_tracein::TraceFile::record(&w.program, w.fuel)
                .map_err(|e| malformed(&w, format!("trace record failed: {e}")))?;
            let trace_digest = file
                .write_binary(std::io::sink())
                .map_err(|e| malformed(&w, format!("trace digest failed: {e}")))?;
            let cfg = paper_core(*core, *width, false, shared.cfg.deadline_cycles);
            let report = if cfg.is_braid() {
                braid_tracein::replay_braid(&file, &cfg)
            } else {
                FuncStream::read(&file.program, file.fuel, |s| cfg.run(&file.program, s))
                    .map_err(RunError::Exec)
                    .and_then(|timed| timed.map_err(RunError::Sim))
                    .map_err(braid_tracein::ReplayError::Run)
            }
            .map_err(|e| malformed(&w, format!("trace replay failed: {e}")))?;
            shared.trace.registry().merge_cpi(&report.cpi);
            span.add_cycles(report.cycles);
            let cycle_digest =
                braid_tracein::cycle_digest_of(&trace_digest, &[(core.name(), &report)]);
            let payload = Json::Obj(vec![
                ("workload".into(), Json::Str(w.name.clone())),
                ("core".into(), Json::Str(core.name().into())),
                ("entries".into(), Json::Int(file.entries)),
                ("trace_digest".into(), Json::Str(trace_digest)),
                ("instructions".into(), Json::Int(report.instructions)),
                ("cycles".into(), Json::Int(report.cycles)),
                ("cycle_digest".into(), Json::Str(cycle_digest)),
            ])
            .compact();
            span.mark(Phase::Execute);
            shared.cache.insert_faulty(key, payload.clone(), shared.disk_fault());
            Ok(payload)
        }
        // Handled inline by the reader; never dispatched to the pool.
        Request::Stats | Request::Metrics | Request::Shutdown => {
            unreachable!("inline request reached the pool")
        }
    }
}

/// The paper configuration of `core` at `width` (`0` = the 8-wide paper
/// default), with the perfect-hardware switch and the simulated-cycle
/// deadline applied.
fn paper_core(core: CoreModel, width: u32, perfect: bool, deadline: u64) -> CoreConfig {
    let mut cfg = core.paper_config(width, perfect);
    cfg.common_mut().deadline_cycles = deadline;
    cfg
}

/// The `translate` result payload: program shape plus the paper's braid
/// statistics (means over the program's braids).
fn translation_json(name: &str, t: &braid_compiler::Translation) -> Json {
    let s = &t.stats;
    Json::Obj(vec![
        ("workload".into(), Json::Str(name.into())),
        ("instructions".into(), Json::Int(t.program.insts.len() as u64)),
        ("braids".into(), Json::Int(t.braids.len() as u64)),
        ("size_mean".into(), Json::Float(s.size.mean())),
        ("width_mean".into(), Json::Float(s.width.mean())),
        ("internals_mean".into(), Json::Float(s.internals.mean())),
        ("ext_inputs_mean".into(), Json::Float(s.ext_inputs.mean())),
        ("ext_outputs_mean".into(), Json::Float(s.ext_outputs.mean())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_get_nodelay_and_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");

        configure_socket(&server, 250).expect("configure");
        assert!(server.nodelay().expect("nodelay"));
        // The kernel stores timeouts in clock ticks, so allow rounding.
        let near_250ms = |t: Option<Duration>| {
            t.is_some_and(|t| t.abs_diff(Duration::from_millis(250)) < Duration::from_millis(20))
        };
        assert!(near_250ms(server.read_timeout().expect("read timeout")));
        assert!(near_250ms(server.write_timeout().expect("write timeout")));

        // A zero timeout means none, and Nagle stays off.
        configure_socket(&client, 0).expect("configure");
        assert!(client.nodelay().expect("nodelay"));
        assert_eq!(client.read_timeout().expect("read timeout"), None);
    }

    /// The state of a bound daemon that is not serving.
    fn idle_server() -> Server {
        Server::bind(ServerConfig { threads: 1, ..ServerConfig::default() }).expect("bind loopback")
    }

    #[test]
    fn stats_document_reflects_recorded_events() {
        let server = idle_server();
        let shared = &server.shared;
        let registry = shared.trace.registry();
        registry.record_request("simulate");
        registry.record_request("simulate");
        registry.record_request("stats");
        registry.record_retry();
        registry.record_protocol_error();
        registry.record_latency_us(120);
        let mut cpi = braid_core::CpiStack::new();
        cpi.add(braid_core::StallCause::Base, 10);
        registry.merge_cpi(&cpi);
        shared.cache.insert("k".into(), "v".into());
        let _ = shared.cache.get("k");

        registry.record_shed();

        let doc = service_json(shared, false);
        assert_eq!(doc.get("requests").unwrap().get("simulate").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("retries").unwrap().as_u64(), Some(2), "shed also counts as a retry");
        assert_eq!(doc.get("shed").unwrap().as_u64(), Some(1));
        assert!(doc.get("chaos").is_none(), "no chaos object when the harness is unarmed");
        assert!(doc.get("cache").unwrap().get("disk").is_none(), "RAM-only cache: no disk object");
        assert_eq!(doc.get("protocol_errors").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("cache").unwrap().get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("latency_us").unwrap().get("samples").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("cpi").unwrap().get("base").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn metrics_document_folds_service_counters_around_the_registry() {
        let server = idle_server();
        let shared = &server.shared;
        shared.trace.registry().record_request("simulate");
        shared.trace.registry().record_shed();
        let mut span = RequestSpan::begin();
        span.describe("t-1".into(), "simulate", 1);
        span.mark(Phase::Read);
        span.mark(Phase::Execute);
        shared.trace.complete(span);
        shared.trace.event("cache-demoted", vec![]);

        let doc = service_json(shared, true);
        assert_eq!(doc.get("requests").unwrap().get("simulate").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("shed").unwrap().as_u64(), Some(1));
        let trace = doc.get("trace").expect("registry block");
        assert_eq!(trace.get("spans").unwrap().as_u64(), Some(1));
        assert_eq!(trace.get("conserved").unwrap().as_bool(), Some(true));
        assert_eq!(trace.get("events").unwrap().get("cache-demoted").unwrap().as_u64(), Some(1));
        assert!(doc.get("pool").is_none(), "racy pool depths stay out of metrics");
        assert!(doc.get("latency_us").is_none(), "host latency block stays out of metrics");
    }
}
