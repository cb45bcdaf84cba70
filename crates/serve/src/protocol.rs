//! The JSON-lines wire protocol.
//!
//! One request object per line; every request carries a client-chosen
//! numeric `id` and a `kind`. Responses echo the `id` with a `status` of
//! `ok`, `error`, or `retry`:
//!
//! ```text
//! → {"id":1,"kind":"simulate","workload":"dot_product","core":"braid","width":8}
//! ← {"id":1,"status":"ok","result":{...}}
//! → {"id":2,"kind":"simulate","workload":"nonesuch","core":"ooo"}
//! ← {"id":2,"status":"error","code":"unknown-workload","message":"..."}
//! ← {"id":3,"status":"retry","retry_after_ms":25}
//! ```
//!
//! Response lines are built by splicing a cached compact-JSON payload into
//! a fixed frame, so a cache hit and the original computation emit
//! **byte-identical** lines — the load generator's verify mode depends on
//! this.
//!
//! Error `code` strings are a wire contract (extend, never repurpose):
//! `bad-request` for lines this module rejects, `shutting-down` for work
//! refused mid-drain, and [`braid_sweep::SweepError::code`]'s codes
//! (`unknown-workload`, `livelock`, `deadline`, `translate`, ...) for
//! simulation failures.

use braid_core::{SamplingConfig, Tier};
use braid_sweep::grid::{CoreModel, MAX_BEUS, MAX_WIDTH, MAX_WINDOW};
use braid_sweep::json::{self, Json};
use braid_workloads::MAX_SCALE;

/// A parsed request, minus the `id` (returned alongside by
/// [`parse_request`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one workload on one core and return the full simulation report.
    Simulate {
        /// Workload name (synthetic suite or kernel).
        workload: String,
        /// Core model to run.
        core: CoreModel,
        /// Machine width (`0` = the model's 8-wide paper default).
        width: u32,
        /// Synthetic-suite scale (kernels ignore it).
        scale: f64,
        /// Perfect front end and caches.
        perfect: bool,
        /// Simulated-cycle deadline override (`0` = the server default).
        deadline: u64,
        /// Execution tier (`full`, `func`, or `sampled`; default `full`).
        tier: Tier,
        /// Sampling knobs for the `sampled` tier (`sample_period`,
        /// `sample_warmup`, `sample_len` on the wire; lockstep is always
        /// off in the daemon). Ignored, and not validated, by the other
        /// tiers.
        sampling: SamplingConfig,
    },
    /// Translate a workload into braids and return the Table 1–3 statistics.
    Translate {
        /// Workload name.
        workload: String,
        /// Synthetic-suite scale.
        scale: f64,
    },
    /// Translate a workload and run the static braid-contract checker.
    Check {
        /// Workload name.
        workload: String,
        /// Synthetic-suite scale.
        scale: f64,
    },
    /// Run one sweep grid point (the full axis set) and return its stats.
    SweepPoint {
        /// The grid point to run (its `index` is ignored).
        point: braid_sweep::GridPoint,
    },
    /// Record a workload's committed trace and replay it through a
    /// timing core, returning the cycle count and the trace's content
    /// digest (the braid-tracein path).
    Trace {
        /// Workload name.
        workload: String,
        /// Core model to replay on.
        core: CoreModel,
        /// Machine width (`0` = the model's 8-wide paper default).
        width: u32,
        /// Synthetic-suite scale (kernels and `ln_*` nests ignore it).
        scale: f64,
    },
    /// Return server statistics: cache counters, queue depths, latency
    /// histogram, aggregated CPI stack.
    Stats,
    /// Return the trace metrics document: request spans decomposed into
    /// lifetime phases, per-class latency histograms, structured-event
    /// counters, with cache/chaos/shed counters folded in.
    Metrics,
    /// Drain queued work and stop the daemon.
    Shutdown,
}

/// A request the protocol layer rejected, with the response fields to
/// report it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The request id if one could be recovered, else `0`.
    pub id: u64,
    /// Stable machine-readable code (`bad-request`).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ProtocolError {
    fn new(id: u64, message: impl Into<String>) -> ProtocolError {
        ProtocolError { id, code: "bad-request", message: message.into() }
    }
}

fn opt_u64(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn opt_u32(obj: &Json, key: &str, default: u32) -> Result<u32, String> {
    let v = opt_u64(obj, key, u64::from(default))?;
    u32::try_from(v).map_err(|_| format!("`{key}` is out of range"))
}

fn opt_f64(obj: &Json, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_f64().ok_or_else(|| format!("`{key}` must be a number")),
    }
}

/// The optional `scale` field (default 0.05), which sizes synthetic
/// workloads: anything outside `(0, MAX_SCALE]` is rejected here, before
/// generation could overflow.
fn opt_scale(obj: &Json) -> Result<f64, String> {
    let scale = opt_f64(obj, "scale", 0.05)?;
    if scale > 0.0 && scale <= MAX_SCALE {
        Ok(scale)
    } else {
        Err(format!("`scale` must be in (0, {MAX_SCALE}]"))
    }
}

/// An optional field that sizes the simulated machine (`width`, `window`,
/// `beus`; `0` = the paper default): anything above `max` is rejected
/// here, before a core could allocate for it.
fn opt_size(obj: &Json, key: &str, max: u32) -> Result<u32, String> {
    let v = opt_u32(obj, key, 0)?;
    if v <= max {
        Ok(v)
    } else {
        Err(format!("`{key}` must be at most {max}"))
    }
}

fn opt_bool(obj: &Json, key: &str, default: bool) -> Result<bool, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn req_workload(obj: &Json) -> Result<String, String> {
    obj.get("workload")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "`workload` (string) is required".to_string())
}

fn opt_tier(obj: &Json) -> Result<Tier, String> {
    match obj.get("tier") {
        None => Ok(Tier::Full),
        Some(v) => {
            let name = v.as_str().ok_or("`tier` must be a string")?;
            Tier::parse(name).ok_or_else(|| format!("unknown tier `{name}`"))
        }
    }
}

/// Parses the sampling knobs, defaulting each to the library default.
/// On the sampled tier a degenerate window is rejected here so it never
/// reaches a worker; the other tiers ignore the knobs. Lockstep
/// validation is forced off: it never changes results and the daemon's
/// payloads must not depend on the build profile.
fn opt_sampling(obj: &Json, tier: Tier) -> Result<SamplingConfig, String> {
    let d = SamplingConfig::default();
    let cfg = SamplingConfig {
        period: opt_u64(obj, "sample_period", d.period)?,
        warmup: opt_u64(obj, "sample_warmup", d.warmup)?,
        sample: opt_u64(obj, "sample_len", d.sample)?,
        lockstep: false,
    };
    if tier == Tier::Sampled {
        cfg.validate().map_err(|e| e.to_string())?;
    }
    Ok(cfg)
}

fn req_core(obj: &Json) -> Result<CoreModel, String> {
    let name = obj
        .get("core")
        .and_then(Json::as_str)
        .ok_or_else(|| "`core` (string) is required".to_string())?;
    CoreModel::parse(name).ok_or_else(|| format!("unknown core model `{name}`"))
}

/// A fully parsed request line: the id, the optional client-supplied
/// trace ID, and the request itself.
///
/// The `trace` field exists purely for observability — it names the
/// request's span in the trace log and is **never** part of a cache key
/// or a response line, so supplying one cannot perturb the service's
/// byte-determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRequest {
    /// The client-chosen request id (echoed in the response).
    pub id: u64,
    /// Client-supplied trace ID, when the line carried a `trace` field.
    pub trace: Option<String>,
    /// The request.
    pub request: Request,
}

/// Longest accepted client-supplied trace ID; anything longer is a
/// `bad-request`, bounding what a hostile client can pump into the span
/// log per request.
pub const MAX_TRACE_LEN: usize = 128;

/// Parses one request line into `(id, request)`, discarding any `trace`
/// field — the compatibility wrapper around [`parse_request_traced`].
///
/// # Errors
///
/// Returns a [`ProtocolError`] (always code `bad-request`) for anything
/// that is not a JSON object with a numeric `id` and a recognized `kind`
/// with well-typed fields. The error carries the request's `id` when one
/// was readable so the reply still correlates.
pub fn parse_request(line: &str) -> Result<(u64, Request), ProtocolError> {
    parse_request_traced(line).map(|p| (p.id, p.request))
}

/// Parses one request line, including the optional `trace` field (a
/// string of at most [`MAX_TRACE_LEN`] bytes).
///
/// # Errors
///
/// Everything [`parse_request`] rejects, plus a `trace` field that is
/// not a string or exceeds the length bound.
pub fn parse_request_traced(line: &str) -> Result<ParsedRequest, ProtocolError> {
    let doc = json::parse(line).map_err(|e| ProtocolError::new(0, format!("not JSON: {e}")))?;
    let id = match doc.get("id") {
        Some(v) => v.as_u64().ok_or_else(|| ProtocolError::new(0, "`id` must be a non-negative integer"))?,
        None => return Err(ProtocolError::new(0, "`id` is required")),
    };
    let fail = |msg: String| ProtocolError::new(id, msg);
    let trace = match doc.get("trace") {
        None => None,
        Some(v) => {
            let t = v.as_str().ok_or_else(|| fail("`trace` must be a string".into()))?;
            if t.len() > MAX_TRACE_LEN {
                return Err(fail(format!("`trace` exceeds {MAX_TRACE_LEN} bytes")));
            }
            Some(t.to_string())
        }
    };
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("`kind` (string) is required".into()))?;
    let req = match kind {
        "simulate" => {
            let tier = opt_tier(&doc).map_err(fail)?;
            Request::Simulate {
                workload: req_workload(&doc).map_err(fail)?,
                core: req_core(&doc).map_err(fail)?,
                width: opt_size(&doc, "width", MAX_WIDTH).map_err(fail)?,
                scale: opt_scale(&doc).map_err(fail)?,
                perfect: opt_bool(&doc, "perfect", false).map_err(fail)?,
                deadline: opt_u64(&doc, "deadline", 0).map_err(fail)?,
                tier,
                sampling: opt_sampling(&doc, tier).map_err(fail)?,
            }
        }
        "translate" => Request::Translate {
            workload: req_workload(&doc).map_err(fail)?,
            scale: opt_scale(&doc).map_err(fail)?,
        },
        "check" => Request::Check {
            workload: req_workload(&doc).map_err(fail)?,
            scale: opt_scale(&doc).map_err(fail)?,
        },
        "sweep-point" => Request::SweepPoint {
            point: braid_sweep::GridPoint {
                index: 0,
                workload: req_workload(&doc).map_err(fail)?,
                core: req_core(&doc).map_err(fail)?,
                width: opt_size(&doc, "width", MAX_WIDTH).map_err(fail)?,
                beus: opt_size(&doc, "beus", MAX_BEUS).map_err(fail)?,
                fifo: opt_u32(&doc, "fifo", 0).map_err(fail)?,
                window: opt_size(&doc, "window", MAX_WINDOW).map_err(fail)?,
                bypass: opt_u32(&doc, "bypass", 0).map_err(fail)?,
                scale: opt_scale(&doc).map_err(fail)?,
                perfect: opt_bool(&doc, "perfect", false).map_err(fail)?,
                tier: opt_tier(&doc).map_err(fail)?,
            },
        },
        "trace" => Request::Trace {
            workload: req_workload(&doc).map_err(fail)?,
            core: req_core(&doc).map_err(fail)?,
            width: opt_size(&doc, "width", MAX_WIDTH).map_err(fail)?,
            scale: opt_scale(&doc).map_err(fail)?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        other => return Err(fail(format!("unknown kind `{other}`"))),
    };
    Ok(ParsedRequest { id, trace, request: req })
}

/// How early a request class is shed under overload. Lower water marks
/// shed first: the expensive simulation classes go long before the cheap
/// introspection ones, and `stats`/`shutdown` (handled inline, never
/// queued) cannot be shed at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedClass {
    /// `simulate` and `sweep-point`: full timing simulations, shed first
    /// (at 3/4 queue occupancy).
    Heavy,
    /// `translate`: compiler-only, shed next (at 7/8 occupancy).
    Medium,
    /// `check`: static analysis, shed last (only when the queue is
    /// actually full).
    Light,
    /// `stats`/`metrics`/`shutdown`: answered inline by the reader,
    /// never shed.
    Inline,
}

impl ShedClass {
    /// Whether a request of this class is shed when `queued` jobs are
    /// waiting behind a queue bounded at `bound`. Deterministic in the
    /// observable queue state; the full queue (`try_submit` saturation)
    /// remains the backstop for every class.
    pub fn sheds(self, queued: usize, bound: usize) -> bool {
        let mark = match self {
            ShedClass::Heavy => (bound * 3).div_ceil(4),
            ShedClass::Medium => (bound * 7).div_ceil(8),
            ShedClass::Light | ShedClass::Inline => return false,
        };
        queued >= mark.max(1)
    }
}

impl Request {
    /// The request's wire kind, used for per-kind stats counters.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Simulate { .. } => "simulate",
            Request::Translate { .. } => "translate",
            Request::Check { .. } => "check",
            Request::SweepPoint { .. } => "sweep-point",
            Request::Trace { .. } => "trace",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// The request's load-shedding class (see [`ShedClass`]).
    pub fn shed_class(&self) -> ShedClass {
        match self {
            Request::Simulate { .. } | Request::SweepPoint { .. } | Request::Trace { .. } => {
                ShedClass::Heavy
            }
            Request::Translate { .. } => ShedClass::Medium,
            Request::Check { .. } => ShedClass::Light,
            Request::Stats | Request::Metrics | Request::Shutdown => ShedClass::Inline,
        }
    }
}

/// One bounded read from the wire (see [`read_bounded_line`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedLine {
    /// A complete line (without the newline), within the bound. Invalid
    /// UTF-8 is replaced lossily — the JSON parser then rejects it with a
    /// structured error rather than the connection dying.
    Line(String),
    /// The line exceeded the bound before a newline arrived. The caller
    /// should answer a structured error and close: the framing cannot be
    /// resynchronized.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-terminated line without ever buffering more than
/// `max` bytes — the slowloris defense: a client feeding an endless
/// unterminated line costs O(`max`) memory and one structured error, not
/// a wedged worker.
///
/// # Errors
///
/// Propagates transport I/O errors (including read timeouts) from the
/// underlying stream.
pub fn read_bounded_line(r: &mut impl std::io::BufRead, max: usize) -> std::io::Result<BoundedLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                BoundedLine::Eof
            } else {
                // EOF mid-line: surface what arrived; the parser will
                // reject a torn request with a structured error.
                BoundedLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > max {
                r.consume(pos + 1);
                return Ok(BoundedLine::TooLong);
            }
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(BoundedLine::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        let n = chunk.len();
        if buf.len() + n > max {
            r.consume(n);
            return Ok(BoundedLine::TooLong);
        }
        buf.extend_from_slice(chunk);
        r.consume(n);
    }
}

/// Builds an `ok` response line by splicing a compact-JSON `result`
/// payload into the frame. The payload is exactly what the result cache
/// stores, so hits and misses emit byte-identical lines.
pub fn ok_line(id: u64, payload: &str) -> String {
    format!("{{\"id\":{id},\"status\":\"ok\",\"result\":{payload}}}")
}

/// Builds an `error` response line.
pub fn error_line(id: u64, code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("id".into(), Json::Int(id)),
        ("status".into(), Json::Str("error".into())),
        ("code".into(), Json::Str(code.into())),
        ("message".into(), Json::Str(message.into())),
    ])
    .compact()
}

/// Builds a `retry` (backpressure) response line: the request was not
/// queued; resend it after roughly `retry_after_ms`.
pub fn retry_line(id: u64, retry_after_ms: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"retry\",\"retry_after_ms\":{retry_after_ms}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_round_trips_with_defaults() {
        let (id, req) =
            parse_request(r#"{"id":7,"kind":"simulate","workload":"dot_product","core":"braid"}"#)
                .unwrap();
        assert_eq!(id, 7);
        assert_eq!(
            req,
            Request::Simulate {
                workload: "dot_product".into(),
                core: CoreModel::Braid,
                width: 0,
                scale: 0.05,
                perfect: false,
                deadline: 0,
                tier: Tier::Full,
                sampling: SamplingConfig {
                    lockstep: false,
                    ..SamplingConfig::default()
                },
            }
        );
    }

    #[test]
    fn tier_and_sampling_knobs_parse() {
        let line = r#"{"id":2,"kind":"simulate","workload":"stencil","core":"ooo","tier":"sampled","sample_period":8192,"sample_warmup":256,"sample_len":1024}"#;
        let (_, req) = parse_request(line).unwrap();
        let Request::Simulate { tier, sampling, .. } = req else { panic!("wrong kind") };
        assert_eq!(tier, Tier::Sampled);
        assert_eq!(
            sampling,
            SamplingConfig { period: 8192, warmup: 256, sample: 1024, lockstep: false }
        );
        // Lockstep is never negotiable over the wire, whatever the build.
        let (_, req) =
            parse_request(r#"{"id":3,"kind":"simulate","workload":"x","core":"braid","tier":"func"}"#)
                .unwrap();
        let Request::Simulate { tier, sampling, .. } = req else { panic!("wrong kind") };
        assert_eq!(tier, Tier::Func);
        assert!(!sampling.lockstep);
        // An unknown tier is a bad request, not a silent default.
        let e = parse_request(r#"{"id":4,"kind":"simulate","workload":"x","core":"ooo","tier":"warp"}"#)
            .unwrap_err();
        assert!(e.message.contains("warp"));
    }

    #[test]
    fn degenerate_sampling_windows_are_bad_requests() {
        for knob in ["sample_len", "sample_period"] {
            let line = format!(
                r#"{{"id":6,"kind":"simulate","workload":"x","core":"ooo","tier":"sampled","{knob}":0}}"#
            );
            let e = parse_request(&line).unwrap_err();
            assert_eq!((e.id, e.code), (6, "bad-request"), "{knob}");
            assert!(e.message.contains("at least 1"), "{knob}: {}", e.message);
            // The other tiers ignore the sampling knobs, so they accept
            // them as before.
            for tier in ["full", "func"] {
                let line = line.replace("\"sampled\"", &format!("\"{tier}\""));
                let (_, req) = parse_request(&line).unwrap_or_else(|e| panic!("{tier}: {e:?}"));
                assert!(matches!(req, Request::Simulate { .. }), "{tier} {knob}");
            }
        }
    }

    #[test]
    fn sweep_point_accepts_a_tier() {
        let line = r#"{"id":5,"kind":"sweep-point","workload":"x","core":"braid","tier":"sampled"}"#;
        let (_, req) = parse_request(line).unwrap();
        let Request::SweepPoint { point } = req else { panic!("wrong kind") };
        assert_eq!(point.tier, Tier::Sampled);
        assert!(point.key().ends_with(":tsampled"), "tier rides the point key: {}", point.key());
    }

    #[test]
    fn sweep_point_carries_every_axis() {
        let line = r#"{"id":1,"kind":"sweep-point","workload":"x","core":"ooo","width":4,"fifo":16,"window":32,"bypass":2,"scale":0.02,"perfect":true}"#;
        let (_, req) = parse_request(line).unwrap();
        let Request::SweepPoint { point } = req else { panic!("wrong kind") };
        assert_eq!(point.key(), "x:ooo:w4:b0:f16:v32:y2");
        assert!(point.perfect);
    }

    #[test]
    fn bad_lines_keep_the_id_when_readable() {
        assert_eq!(parse_request("not json").unwrap_err().id, 0);
        assert_eq!(parse_request(r#"{"kind":"stats"}"#).unwrap_err().id, 0);
        let e = parse_request(r#"{"id":9,"kind":"warp"}"#).unwrap_err();
        assert_eq!((e.id, e.code), (9, "bad-request"));
        let e = parse_request(r#"{"id":3,"kind":"simulate","core":"braid"}"#).unwrap_err();
        assert!(e.message.contains("workload"));
        let e = parse_request(r#"{"id":4,"kind":"simulate","workload":"x","core":"vliw"}"#)
            .unwrap_err();
        assert!(e.message.contains("vliw"));
    }

    #[test]
    fn shed_classes_order_the_degradation() {
        let bound = 256;
        // Heavy sheds at 3/4, medium at 7/8, light and inline never (the
        // saturated queue is their backstop).
        assert!(!ShedClass::Heavy.sheds(191, bound));
        assert!(ShedClass::Heavy.sheds(192, bound));
        assert!(!ShedClass::Medium.sheds(223, bound));
        assert!(ShedClass::Medium.sheds(224, bound));
        assert!(!ShedClass::Light.sheds(bound, bound));
        assert!(!ShedClass::Inline.sheds(bound, bound));
        // Tiny bounds degenerate to shedding only at a non-empty queue.
        assert!(!ShedClass::Heavy.sheds(0, 1));
        assert!(ShedClass::Heavy.sheds(1, 1));
        // Class assignment.
        let (_, sim) = parse_request(
            r#"{"id":1,"kind":"simulate","workload":"x","core":"braid"}"#,
        )
        .unwrap();
        assert_eq!(sim.shed_class(), ShedClass::Heavy);
        let (_, tr) = parse_request(r#"{"id":1,"kind":"translate","workload":"x"}"#).unwrap();
        assert_eq!(tr.shed_class(), ShedClass::Medium);
        let (_, ck) = parse_request(r#"{"id":1,"kind":"check","workload":"x"}"#).unwrap();
        assert_eq!(ck.shed_class(), ShedClass::Light);
        let (_, st) = parse_request(r#"{"id":1,"kind":"stats"}"#).unwrap();
        assert_eq!(st.shed_class(), ShedClass::Inline);
    }

    #[test]
    fn bounded_reads_enforce_the_line_limit() {
        use std::io::Cursor;
        let mut ok = Cursor::new(b"{\"id\":1}\nrest".to_vec());
        assert_eq!(
            read_bounded_line(&mut ok, 64).unwrap(),
            BoundedLine::Line("{\"id\":1}".into())
        );
        let mut crlf = Cursor::new(b"abc\r\n".to_vec());
        assert_eq!(read_bounded_line(&mut crlf, 64).unwrap(), BoundedLine::Line("abc".into()));
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_bounded_line(&mut empty, 64).unwrap(), BoundedLine::Eof);
        let mut torn = Cursor::new(b"no newline at all".to_vec());
        assert_eq!(
            read_bounded_line(&mut torn, 64).unwrap(),
            BoundedLine::Line("no newline at all".into())
        );
        // An endless unterminated line trips the bound, buffering at most
        // `max` bytes.
        let mut slowloris = Cursor::new(vec![b'x'; 10_000]);
        assert_eq!(read_bounded_line(&mut slowloris, 64).unwrap(), BoundedLine::TooLong);
        // A too-long *terminated* line is also refused, and the stream
        // resynchronizes on the byte after its newline.
        let mut long = Cursor::new([vec![b'y'; 100], b"\nshort\n".to_vec()].concat());
        assert_eq!(read_bounded_line(&mut long, 64).unwrap(), BoundedLine::TooLong);
        assert_eq!(read_bounded_line(&mut long, 64).unwrap(), BoundedLine::Line("short".into()));
        // Non-UTF-8 bytes survive as a (lossy) line for the JSON parser
        // to reject — never a panic or a dropped connection.
        let mut binary = Cursor::new(vec![0xff, 0xfe, b'\n']);
        assert!(matches!(read_bounded_line(&mut binary, 64).unwrap(), BoundedLine::Line(_)));
    }

    #[test]
    fn trace_field_is_optional_validated_and_separated() {
        // Absent: no trace, same request as before.
        let p = parse_request_traced(r#"{"id":1,"kind":"stats"}"#).unwrap();
        assert_eq!((p.id, p.trace, p.request), (1, None, Request::Stats));
        // Present: carried out-of-band, never inside the Request (so it
        // cannot reach a cache key).
        let p = parse_request_traced(
            r#"{"id":2,"kind":"simulate","workload":"x","core":"braid","trace":"req-77"}"#,
        )
        .unwrap();
        assert_eq!(p.trace.as_deref(), Some("req-77"));
        let (_, bare) =
            parse_request(r#"{"id":2,"kind":"simulate","workload":"x","core":"braid","trace":"req-77"}"#)
                .unwrap();
        assert_eq!(bare, p.request, "trace does not change the parsed request");
        // Wrong type and oversized traces are bad requests.
        let e = parse_request_traced(r#"{"id":3,"kind":"stats","trace":9}"#).unwrap_err();
        assert!(e.message.contains("trace"));
        let long = format!(r#"{{"id":4,"kind":"stats","trace":"{}"}}"#, "x".repeat(200));
        let e = parse_request_traced(&long).unwrap_err();
        assert!(e.message.contains("exceeds"));
    }

    #[test]
    fn metrics_kind_parses_and_is_inline() {
        let (id, req) = parse_request(r#"{"id":6,"kind":"metrics"}"#).unwrap();
        assert_eq!((id, &req), (6, &Request::Metrics));
        assert_eq!(req.kind(), "metrics");
        assert_eq!(req.shed_class(), ShedClass::Inline, "metrics must survive overload");
    }

    #[test]
    fn response_lines_are_stable() {
        assert_eq!(ok_line(5, r#"{"cycles":10}"#), r#"{"id":5,"status":"ok","result":{"cycles":10}}"#);
        assert_eq!(
            error_line(6, "deadline", "too slow"),
            r#"{"id":6,"status":"error","code":"deadline","message":"too slow"}"#
        );
        assert_eq!(retry_line(8, 25), r#"{"id":8,"status":"retry","retry_after_ms":25}"#);
    }
}
