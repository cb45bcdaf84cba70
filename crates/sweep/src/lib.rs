//! # braid-sweep: the parallel design-space sweep engine
//!
//! Runs a declarative (workload × core × config) grid — a [`SweepSpec`] —
//! across OS threads on a std-only work-stealing pool ([`pool`]), and
//! aggregates the per-point [`SimReport`]s **deterministically**: the
//! aggregate JSON is byte-identical whether the sweep ran on 1 thread or
//! 16, because results are keyed by grid index (the fixed expansion
//! order) and host wall-clock numbers are excluded from serialization.
//!
//! Long sweeps snapshot partial results to JSON under `results/` after
//! every completed point; [`run_sweep`] can resume from such a snapshot,
//! re-running only the missing points. Snapshots carry the spec's
//! [`digest`](SweepSpec::digest) so results from a different grid are
//! refused rather than silently mixed.
//!
//! ```
//! use braid_sweep::{run_sweep, SweepSpec};
//!
//! let mut spec = SweepSpec::new("doc");
//! spec.workloads = vec!["dot_product".into()];
//! spec.cores = vec![braid_sweep::CoreModel::Braid];
//! let run = run_sweep(&spec, 2, None, false).unwrap();
//! assert_eq!(run.outcomes.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod grid;
pub mod json;
pub mod pool;

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use braid_core::processor::{run_tier, CoreConfig, RunError, TierReport};
use braid_core::report::SimReport;
use braid_core::{SamplingConfig, SimError, StallCause, Tier};

pub use grid::{CoreModel, GridPoint, SweepSpec, MAX_BEUS, MAX_WIDTH, MAX_WINDOW};
pub use json::Json;
/// The CPI stack type of [`PointStats::cpi`], re-exported so crates that
/// aggregate point results need no direct braid-core dependency.
pub use braid_core::CpiStack;

/// The deterministic slice of a [`SimReport`] a sweep keeps per point.
///
/// `host_nanos` rides along in memory for throughput summaries but is
/// **never serialized** — it is the one non-deterministic field, and the
/// aggregate must be byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Loads forwarded from older stores.
    pub forwarded_loads: u64,
    /// Front-end refill stall cycles after mispredictions.
    pub mispredict_stall_cycles: u64,
    /// Dispatch stalls: register buffer / external registers full.
    pub stall_regs: u64,
    /// Dispatch stalls: scheduler / FIFO space exhausted.
    pub stall_window: u64,
    /// Dispatch stalls: load-store queue full.
    pub stall_lsq: u64,
    /// Dispatch stalls: allocation/rename bandwidth exhausted.
    pub stall_alloc_bw: u64,
    /// Load issues rejected by memory-ordering waits.
    pub lsq_wait_events: u64,
    /// External values produced per cycle (braid §5.1).
    pub external_values_per_cycle: f64,
    /// Checkpoint state words saved.
    pub checkpoint_words: u64,
    /// Exceptions taken.
    pub exceptions_taken: u64,
    /// The CPI stack: cycles attributed per [`StallCause`] (sums to
    /// `cycles`).
    pub cpi: CpiStack,
    /// Execution tier the point ran at ([`Tier::Full`] for snapshots that
    /// predate tiers).
    pub tier: Tier,
    /// Sampled-tier cycle estimate (`0` outside [`Tier::Sampled`]; the
    /// exact `cycles` ride along because sampled points run the full tier
    /// too, precisely to measure the estimate's error).
    pub est_cycles: u64,
    /// Signed relative IPC error of the estimate, `(est - exact) / exact`
    /// (`0` outside [`Tier::Sampled`]).
    pub ipc_err: f64,
    /// Host wall-clock nanoseconds (in-memory only; `0` after resume).
    pub host_nanos: u64,
}

impl PointStats {
    fn from_report(r: &SimReport) -> PointStats {
        PointStats {
            instructions: r.instructions,
            cycles: r.cycles,
            forwarded_loads: r.forwarded_loads,
            mispredict_stall_cycles: r.mispredict_stall_cycles,
            stall_regs: r.stall_regs,
            stall_window: r.stall_window,
            stall_lsq: r.stall_lsq,
            stall_alloc_bw: r.stall_alloc_bw,
            lsq_wait_events: r.lsq_wait_events,
            external_values_per_cycle: r.external_values_per_cycle,
            checkpoint_words: r.checkpoint_words,
            exceptions_taken: r.exceptions_taken,
            cpi: r.cpi,
            tier: Tier::Full,
            est_cycles: 0,
            ipc_err: 0.0,
            host_nanos: r.host_nanos,
        }
    }

    /// Retired instructions per cycle (exact; `0` for functional-only
    /// points, which have no timing).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Sampled-tier estimated IPC (`0` outside [`Tier::Sampled`]).
    pub fn ipc_est(&self) -> f64 {
        if self.est_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.est_cycles as f64
        }
    }
}

/// One completed grid point: the point plus its stats or error text.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The grid point that ran.
    pub point: GridPoint,
    /// Its stats, or the simulation error rendered to a string (errors are
    /// results too: a config that livelocks is a data point of the sweep).
    pub stats: Result<PointStats, String>,
}

/// A finished sweep: every grid point in expansion order.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The spec that ran.
    pub spec: SweepSpec,
    /// One outcome per grid point, sorted by grid index.
    pub outcomes: Vec<PointOutcome>,
    /// Points satisfied from the resume snapshot instead of re-running.
    pub reused: usize,
    /// Total wall-clock nanoseconds for the sweep (not serialized).
    pub host_nanos: u64,
    /// First snapshot-write failure, if any (the sweep itself still
    /// completed; partial snapshots are best-effort).
    pub snapshot_error: Option<String>,
}

impl SweepRun {
    /// Summed simulated cycles across successful points.
    pub fn total_cycles(&self) -> u64 {
        self.outcomes.iter().filter_map(|o| o.stats.as_ref().ok()).map(|s| s.cycles).sum()
    }

    /// Host throughput: simulated cycles per wall-clock second across the
    /// whole sweep.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.total_cycles() as f64 * 1e9 / self.host_nanos as f64
        }
    }
}

/// Errors from sweep snapshot and aggregate I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum SweepError {
    /// Reading or writing a file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A snapshot failed to parse as JSON.
    Parse {
        /// The snapshot file.
        path: PathBuf,
        /// The parse error.
        source: json::ParseError,
    },
    /// A snapshot belongs to a different grid than the spec being resumed.
    DigestMismatch {
        /// The snapshot file.
        path: PathBuf,
        /// Digest recorded in the snapshot.
        found: String,
        /// Digest of the spec being resumed.
        want: String,
    },
    /// A snapshot parsed as JSON but does not look like a sweep snapshot.
    Malformed {
        /// The snapshot file.
        path: PathBuf,
        /// What is wrong with it.
        msg: String,
    },
    /// A grid point named a workload the suite does not contain.
    UnknownWorkload {
        /// The unresolvable name.
        workload: String,
    },
    /// A grid point's simulation failed: impossible configuration,
    /// livelock, deadline, translation or functional failure. The typed
    /// cause is preserved so servers can map it to structured protocol
    /// errors instead of string-matching.
    Point {
        /// The failing point's key ([`GridPoint::key`]).
        key: String,
        /// The underlying pipeline failure.
        source: RunError,
    },
}

impl SweepError {
    /// A short stable machine-readable code for the error class, used as
    /// the `code` field of braid-serve protocol errors. These strings are
    /// a wire contract; extend, never repurpose.
    pub fn code(&self) -> &'static str {
        match self {
            SweepError::Io { .. } => "io",
            SweepError::Parse { .. } => "parse",
            SweepError::DigestMismatch { .. } => "digest-mismatch",
            SweepError::Malformed { .. } => "malformed",
            SweepError::UnknownWorkload { .. } => "unknown-workload",
            SweepError::Point { source, .. } => match source {
                RunError::Exec(_) => "exec",
                RunError::Translate(_) => "translate",
                RunError::Check(_) => "check",
                RunError::Sim(SimError::Config(_)) => "config",
                RunError::Sim(SimError::Livelock(_)) => "livelock",
                RunError::Sim(SimError::Deadline { .. }) => "deadline",
                RunError::Sim(_) => "sim",
                _ => "run",
            },
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            SweepError::Parse { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            SweepError::DigestMismatch { path, found, want } => write!(
                f,
                "{}: snapshot is for a different grid (digest {found}, expected {want}); \
                 delete it or run without --resume",
                path.display()
            ),
            SweepError::Malformed { path, msg } => {
                write!(f, "{}: malformed snapshot: {msg}", path.display())
            }
            SweepError::UnknownWorkload { workload } => {
                write!(f, "unknown workload `{workload}`")
            }
            SweepError::Point { key, source } => write!(f, "{key}: {source}"),
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::Io { source, .. } => Some(source),
            SweepError::Parse { source, .. } => Some(source),
            SweepError::Point { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Runs one grid point to completion.
///
/// # Errors
///
/// Returns the typed failure: [`SweepError::UnknownWorkload`] for an
/// unresolvable workload name, [`SweepError::Point`] wrapping the
/// [`RunError`] for a bad configuration or a simulation failure (livelock,
/// deadline, out of fuel). [`SweepError::code`] maps these to stable
/// protocol codes.
pub fn run_point(p: &GridPoint) -> Result<PointStats, SweepError> {
    let w = braid_workloads::by_name_any(&p.workload, p.scale)
        .ok_or_else(|| SweepError::UnknownWorkload { workload: p.workload.clone() })?;
    let core = core_config(p);
    // Lockstep snapshot comparison is a debugging aid; sweeps run release
    // grids, so keep the production behavior on both build profiles.
    let sampling = SamplingConfig { lockstep: false, ..SamplingConfig::default() };
    let point_err = |source| SweepError::Point { key: p.key(), source };
    let tiered = |tier| run_tier(&w.program, &core, tier, w.fuel, &sampling).map_err(point_err);
    match p.tier {
        Tier::Full => match tiered(Tier::Full)? {
            TierReport::Full(r) => Ok(PointStats::from_report(&r)),
            _ => unreachable!("full tier returns a full report"),
        },
        Tier::Func => match tiered(Tier::Func)? {
            TierReport::Func(r) => Ok(PointStats {
                instructions: r.instructions,
                tier: Tier::Func,
                host_nanos: r.host_nanos,
                ..PointStats::from_report(&SimReport::default())
            }),
            _ => unreachable!("func tier returns a func report"),
        },
        // A sampled point is an accuracy measurement: run both tiers and
        // carry the estimated-vs-exact IPC error alongside the exact stats.
        Tier::Sampled => {
            let exact = match tiered(Tier::Full)? {
                TierReport::Full(r) => r,
                _ => unreachable!("full tier returns a full report"),
            };
            let est = match tiered(Tier::Sampled)? {
                TierReport::Sampled(r) => r,
                _ => unreachable!("sampled tier returns a sampled report"),
            };
            let mut stats = PointStats::from_report(&exact);
            stats.tier = Tier::Sampled;
            stats.est_cycles = est.est_cycles;
            stats.ipc_err =
                if exact.ipc() > 0.0 { stats.ipc_est() / exact.ipc() - 1.0 } else { 0.0 };
            stats.host_nanos = exact.host_nanos.saturating_add(est.host_nanos());
            Ok(stats)
        }
    }
}

/// Builds the typed core configuration a grid point describes (knob value
/// `0` = the model's paper default).
fn core_config(p: &GridPoint) -> CoreConfig {
    fn knob(field: &mut u32, value: u32) {
        if value > 0 {
            *field = value;
        }
    }
    let mut core = p.core.paper_config(p.width, p.perfect);
    // The window axis is the in-flight limit everywhere but on the braid
    // machine, where it is the BEU scheduling window.
    if p.window > 0 && !core.is_braid() {
        core.common_mut().window = p.window as usize;
    }
    match &mut core {
        CoreConfig::Dep(cfg) => {
            knob(&mut cfg.fifo_entries, p.fifo);
            knob(&mut cfg.bypass_per_cycle, p.bypass);
        }
        CoreConfig::Ooo(cfg) => {
            knob(&mut cfg.sched_entries, p.fifo);
            knob(&mut cfg.bypass_per_cycle, p.bypass);
        }
        CoreConfig::Braid(cfg) => {
            knob(&mut cfg.beus, p.beus);
            knob(&mut cfg.fifo_entries, p.fifo);
            knob(&mut cfg.window_size, p.window);
            knob(&mut cfg.bypass_per_cycle, p.bypass);
        }
        _ => {}
    }
    core
}

/// Runs a sweep on `threads` workers.
///
/// With `snapshot` set, partial results are written there (best-effort)
/// after every completed point; with `resume` also set and the snapshot
/// present, completed points whose grid digest matches are reused instead
/// of re-run.
///
/// # Errors
///
/// Returns [`SweepError`] when an existing snapshot cannot be read,
/// parsed, or belongs to a different grid. Per-point simulation failures
/// do **not** fail the sweep; they land in
/// [`PointOutcome::stats`] as `Err` strings.
pub fn run_sweep(
    spec: &SweepSpec,
    threads: usize,
    snapshot: Option<&Path>,
    resume: bool,
) -> Result<SweepRun, SweepError> {
    let started = Instant::now();
    let points = spec.expand();
    let mut done: Vec<Option<Result<PointStats, String>>> = vec![None; points.len()];

    let mut reused = 0usize;
    if resume {
        if let Some(path) = snapshot {
            if path.exists() {
                reused = load_into(path, spec, &points, &mut done)?;
            }
        }
    }

    let tasks: Vec<(usize, GridPoint)> = points
        .iter()
        .enumerate()
        .filter(|(i, _)| done[*i].is_none())
        .map(|(i, p)| (i, p.clone()))
        .collect();

    let shared = Mutex::new(done);
    let write_failure: Mutex<Option<String>> = Mutex::new(None);
    pool::run_indexed(threads, tasks, |_, (idx, point)| {
        // Errors stay results of the sweep (a livelocking config is a data
        // point); the snapshot format stores them rendered to strings.
        let stats = run_point(&point).map_err(|e| e.to_string());
        let mut done = shared.lock().expect("sweep state poisoned");
        done[idx] = Some(stats);
        if let Some(path) = snapshot {
            let doc = sweep_json(spec, &points, &done);
            if let Err(e) = write_json(path, &doc) {
                let mut slot = write_failure.lock().expect("failure slot poisoned");
                if slot.is_none() {
                    *slot = Some(e.to_string());
                }
            }
        }
    });

    let done = shared.into_inner().expect("sweep state poisoned");
    let outcomes = points
        .into_iter()
        .zip(done)
        .map(|(point, stats)| PointOutcome {
            point,
            stats: stats.expect("pool ran every missing point"),
        })
        .collect();
    Ok(SweepRun {
        spec: spec.clone(),
        outcomes,
        reused,
        host_nanos: started.elapsed().as_nanos() as u64,
        snapshot_error: write_failure.into_inner().expect("failure slot poisoned"),
    })
}

/// Serializes a finished sweep to its deterministic aggregate document:
/// points sorted by grid index, no host wall-clock fields, byte-identical
/// across thread counts.
pub fn aggregate(run: &SweepRun) -> Json {
    let points: Vec<GridPoint> = run.outcomes.iter().map(|o| o.point.clone()).collect();
    let done: Vec<Option<Result<PointStats, String>>> =
        run.outcomes.iter().map(|o| Some(o.stats.clone())).collect();
    sweep_json(&run.spec, &points, &done)
}

/// Writes `doc` to `path` (with a trailing newline), creating parent
/// directories as needed.
///
/// # Errors
///
/// Returns [`SweepError::Io`] on filesystem failure.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), SweepError> {
    let io = |source| SweepError::Io { path: path.to_path_buf(), source };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(io)?;
        }
    }
    fs::write(path, format!("{doc}\n")).map_err(io)
}

/// Reads and parses a snapshot or aggregate file.
///
/// # Errors
///
/// Returns [`SweepError::Io`] or [`SweepError::Parse`].
pub fn load_json(path: &Path) -> Result<Json, SweepError> {
    let text = fs::read_to_string(path)
        .map_err(|source| SweepError::Io { path: path.to_path_buf(), source })?;
    json::parse(&text).map_err(|source| SweepError::Parse { path: path.to_path_buf(), source })
}

/// The shared snapshot/aggregate document. Partial snapshots simply have
/// fewer entries in `points` than `grid_points`.
fn sweep_json(
    spec: &SweepSpec,
    points: &[GridPoint],
    done: &[Option<Result<PointStats, String>>],
) -> Json {
    let completed = done.iter().filter(|d| d.is_some()).count();
    let mut entries = Vec::with_capacity(completed);
    for (point, stats) in points.iter().zip(done) {
        let Some(stats) = stats else { continue };
        entries.push(point_json(point, stats));
    }
    Json::Obj(vec![
        ("sweep".into(), Json::Str(spec.name.clone())),
        ("digest".into(), Json::Str(spec.digest())),
        ("scale".into(), Json::Float(spec.scale)),
        ("perfect".into(), Json::Bool(spec.perfect)),
        ("grid_points".into(), Json::Int(points.len() as u64)),
        ("completed".into(), Json::Int(completed as u64)),
        ("points".into(), Json::Arr(entries)),
        ("summary".into(), summary_json(points, done)),
    ])
}

/// Per-core geometric-mean IPC over the successful points (deterministic:
/// computed in grid-index order from serialized-precision inputs).
/// Functional-only points have no timing and are excluded.
fn summary_json(points: &[GridPoint], done: &[Option<Result<PointStats, String>>]) -> Json {
    let mut fields = Vec::new();
    for core in CoreModel::ALL {
        let mut log_sum = 0.0f64;
        let mut n = 0usize;
        for (point, stats) in points.iter().zip(done) {
            if point.core != core || point.tier == Tier::Func {
                continue;
            }
            if let Some(Ok(s)) = stats {
                log_sum += s.ipc().max(1e-12).ln();
                n += 1;
            }
        }
        if n > 0 {
            let label = format!("geomean_ipc_{core}");
            fields.push((label, Json::Float((log_sum / n as f64).exp())));
        }
    }
    Json::Obj(fields)
}

fn point_json(point: &GridPoint, stats: &Result<PointStats, String>) -> Json {
    let mut fields = vec![
        ("index".into(), Json::Int(u64::from(point.index))),
        ("key".into(), Json::Str(point.key())),
        ("workload".into(), Json::Str(point.workload.clone())),
        ("core".into(), Json::Str(point.core.name().into())),
        ("width".into(), Json::Int(u64::from(point.width))),
        ("beus".into(), Json::Int(u64::from(point.beus))),
        ("fifo".into(), Json::Int(u64::from(point.fifo))),
        ("window".into(), Json::Int(u64::from(point.window))),
        ("bypass".into(), Json::Int(u64::from(point.bypass))),
        ("tier".into(), Json::Str(point.tier.name().into())),
    ];
    match stats {
        Ok(s) => {
            fields.push(("status".into(), Json::Str("ok".into())));
            fields.push(("instructions".into(), Json::Int(s.instructions)));
            fields.push(("cycles".into(), Json::Int(s.cycles)));
            fields.push(("ipc".into(), Json::Float(s.ipc())));
            if s.tier == Tier::Sampled {
                fields.push(("est_cycles".into(), Json::Int(s.est_cycles)));
                fields.push(("ipc_est".into(), Json::Float(s.ipc_est())));
                fields.push(("ipc_err".into(), Json::Float(s.ipc_err)));
            }
            fields.push(("forwarded_loads".into(), Json::Int(s.forwarded_loads)));
            fields
                .push(("mispredict_stall_cycles".into(), Json::Int(s.mispredict_stall_cycles)));
            fields.push(("stall_regs".into(), Json::Int(s.stall_regs)));
            fields.push(("stall_window".into(), Json::Int(s.stall_window)));
            fields.push(("stall_lsq".into(), Json::Int(s.stall_lsq)));
            fields.push(("stall_alloc_bw".into(), Json::Int(s.stall_alloc_bw)));
            fields.push(("lsq_wait_events".into(), Json::Int(s.lsq_wait_events)));
            fields.push((
                "external_values_per_cycle".into(),
                Json::Float(s.external_values_per_cycle),
            ));
            fields.push(("checkpoint_words".into(), Json::Int(s.checkpoint_words)));
            fields.push(("exceptions_taken".into(), Json::Int(s.exceptions_taken)));
            fields.push((
                "cpi".into(),
                Json::Obj(
                    s.cpi.iter().map(|(c, n)| (c.key().to_string(), Json::Int(n))).collect(),
                ),
            ));
        }
        Err(msg) => {
            fields.push(("status".into(), Json::Str("error".into())));
            fields.push(("error".into(), Json::Str(msg.clone())));
        }
    }
    Json::Obj(fields)
}

/// Loads a snapshot into `done`, returning how many points were reused.
fn load_into(
    path: &Path,
    spec: &SweepSpec,
    points: &[GridPoint],
    done: &mut [Option<Result<PointStats, String>>],
) -> Result<usize, SweepError> {
    let doc = load_json(path)?;
    let malformed = |msg: &str| SweepError::Malformed {
        path: path.to_path_buf(),
        msg: msg.to_string(),
    };
    let found = doc
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing `digest`"))?;
    let want = spec.digest();
    if found != want {
        return Err(SweepError::DigestMismatch {
            path: path.to_path_buf(),
            found: found.to_string(),
            want,
        });
    }
    let entries =
        doc.get("points").and_then(Json::as_arr).ok_or_else(|| malformed("missing `points`"))?;
    let mut reused = 0;
    for entry in entries {
        let Some(idx) = entry.get("index").and_then(Json::as_u64) else { continue };
        let idx = idx as usize;
        if idx >= points.len() {
            return Err(malformed(&format!("point index {idx} outside the grid")));
        }
        let key = entry.get("key").and_then(Json::as_str).unwrap_or("");
        if key != points[idx].key() {
            return Err(malformed(&format!(
                "point {idx} key `{key}` does not match grid key `{}`",
                points[idx].key()
            )));
        }
        let Some(stats) = stats_from_json(entry) else {
            return Err(malformed(&format!("point {idx} has no readable result")));
        };
        done[idx] = Some(stats);
        reused += 1;
    }
    Ok(reused)
}

/// Reconstructs a CPI stack from its snapshot object; a missing or
/// malformed object (a snapshot predating CPI accounting) yields an
/// all-zero stack rather than refusing the whole snapshot.
fn cpi_from_json(obj: Option<&Json>) -> CpiStack {
    let mut cpi = CpiStack::new();
    if let Some(Json::Obj(fields)) = obj {
        for (key, v) in fields {
            if let (Some(cause), Some(n)) = (StallCause::from_key(key), v.as_u64()) {
                cpi.add(cause, n);
            }
        }
    }
    cpi
}

/// Reconstructs a point result from its snapshot entry. `host_nanos`
/// is not serialized, so it comes back as `0`. Tier fields are read
/// zero-tolerantly (mirroring [`cpi_from_json`]): a snapshot written
/// before execution tiers existed simply has no `tier` / `est_cycles` /
/// `ipc_err` fields and loads as a full-tier point with no estimate.
fn stats_from_json(entry: &Json) -> Option<Result<PointStats, String>> {
    match entry.get("status").and_then(Json::as_str)? {
        "error" => Some(Err(entry.get("error").and_then(Json::as_str)?.to_string())),
        "ok" => {
            let int = |k: &str| entry.get(k).and_then(Json::as_u64);
            Some(Ok(PointStats {
                tier: entry
                    .get("tier")
                    .and_then(Json::as_str)
                    .and_then(Tier::parse)
                    .unwrap_or(Tier::Full),
                est_cycles: int("est_cycles").unwrap_or(0),
                ipc_err: entry.get("ipc_err").and_then(Json::as_f64).unwrap_or(0.0),
                instructions: int("instructions")?,
                cycles: int("cycles")?,
                forwarded_loads: int("forwarded_loads")?,
                mispredict_stall_cycles: int("mispredict_stall_cycles")?,
                stall_regs: int("stall_regs")?,
                stall_window: int("stall_window")?,
                stall_lsq: int("stall_lsq")?,
                stall_alloc_bw: int("stall_alloc_bw")?,
                lsq_wait_events: int("lsq_wait_events")?,
                external_values_per_cycle: entry
                    .get("external_values_per_cycle")
                    .and_then(Json::as_f64)?,
                checkpoint_words: int("checkpoint_words")?,
                exceptions_taken: int("exceptions_taken")?,
                cpi: cpi_from_json(entry.get("cpi")),
                host_nanos: 0,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(name: &str) -> SweepSpec {
        let mut spec = SweepSpec::new(name);
        spec.workloads = vec!["dot_product".into(), "fig2_life".into()];
        spec.cores = vec![CoreModel::InOrder, CoreModel::Braid];
        spec
    }

    fn temp_path(file: &str) -> PathBuf {
        std::env::temp_dir().join(format!("braid-sweep-{}-{file}", std::process::id()))
    }

    #[test]
    fn run_point_works_on_every_core() {
        let mut insts = Vec::new();
        for core in CoreModel::ALL {
            let p = GridPoint {
                index: 0,
                workload: "dot_product".into(),
                core,
                width: 0,
                beus: 0,
                fifo: 0,
                window: 0,
                bypass: 0,
                scale: 0.05,
                perfect: false,
                tier: Tier::Full,
            };
            let s = run_point(&p).unwrap_or_else(|e| panic!("{core}: {e}"));
            assert!(s.cycles > 0, "{core} simulated no cycles");
            assert_eq!(s.cpi.total(), s.cycles, "{core}: CPI stack must sum to cycles");
            insts.push(s.instructions);
        }
        assert!(insts.windows(2).all(|w| w[0] == w[1]), "same retire count on every core");
    }

    #[test]
    fn cpi_stacks_survive_snapshot_and_aggregate() {
        let spec = tiny_spec("cpi");
        let run = run_sweep(&spec, 2, None, false).unwrap();

        // Serialized points carry the full 10-cause object and it parses
        // back to the same stack.
        let doc = aggregate(&run);
        let pts = doc.get("points").and_then(Json::as_arr).unwrap();
        for (entry, o) in pts.iter().zip(&run.outcomes) {
            let s = o.stats.as_ref().unwrap();
            let cpi = entry.get("cpi").expect("cpi object serialized");
            let total: u64 = StallCause::ALL
                .iter()
                .map(|c| cpi.get(c.key()).and_then(Json::as_u64).expect("every cause present"))
                .sum();
            assert_eq!(total, s.cycles);
            assert_eq!(cpi_from_json(Some(cpi)), s.cpi);
        }
        // A pre-CPI snapshot entry degrades to a zero stack.
        assert_eq!(cpi_from_json(None), CpiStack::new());
    }

    #[test]
    fn unknown_workload_is_reported() {
        let mut p = GridPoint {
            index: 0,
            workload: "nonesuch".into(),
            core: CoreModel::Ooo,
            width: 0,
            beus: 0,
            fifo: 0,
            window: 0,
            bypass: 0,
            scale: 0.05,
            perfect: false,
            tier: Tier::Full,
        };
        let err = run_point(&p).unwrap_err();
        assert_eq!(err.code(), "unknown-workload");
        assert!(err.to_string().contains("nonesuch"));
        // A bad configuration is an Err string, not a panic.
        p.workload = "dot_product".into();
        p.window = 1;
        let _ = run_point(&p);
    }

    #[test]
    fn aggregate_is_thread_count_invariant() {
        let spec = tiny_spec("det");
        let serial = aggregate(&run_sweep(&spec, 1, None, false).unwrap()).to_string();
        let threaded = aggregate(&run_sweep(&spec, 3, None, false).unwrap()).to_string();
        assert_eq!(serial, threaded, "aggregate must not depend on thread count");
    }

    #[test]
    fn snapshot_resume_round_trip() {
        let spec = tiny_spec("resume");
        let path = temp_path("resume.json");
        let _ = fs::remove_file(&path);

        // Full run with snapshotting; the snapshot ends up complete.
        let full = run_sweep(&spec, 2, Some(&path), false).unwrap();
        assert!(full.snapshot_error.is_none());
        let full_doc = aggregate(&full).to_string();
        let on_disk = load_json(&path).unwrap();
        assert_eq!(on_disk.get("completed").and_then(Json::as_u64), Some(4));

        // Resuming reuses every point and reproduces the aggregate bytes.
        let resumed = run_sweep(&spec, 2, Some(&path), true).unwrap();
        assert_eq!(resumed.reused, 4);
        assert_eq!(aggregate(&resumed).to_string(), full_doc);

        // A *partial* snapshot re-runs only the missing points.
        let points = spec.expand();
        let mut half: Vec<Option<Result<PointStats, String>>> =
            full.outcomes.iter().map(|o| Some(o.stats.clone())).collect();
        half[1] = None;
        half[3] = None;
        write_json(&path, &sweep_json(&spec, &points, &half)).unwrap();
        let resumed = run_sweep(&spec, 2, Some(&path), true).unwrap();
        assert_eq!(resumed.reused, 2);
        assert_eq!(aggregate(&resumed).to_string(), full_doc);

        // A different grid is refused.
        let mut other = spec.clone();
        other.widths = vec![4];
        assert!(matches!(
            run_sweep(&other, 1, Some(&path), true),
            Err(SweepError::DigestMismatch { .. })
        ));

        let _ = fs::remove_file(&path);
    }

    #[test]
    fn errors_are_data_points() {
        let mut spec = SweepSpec::new("err");
        spec.workloads = vec!["nonesuch".into()];
        spec.cores = vec![CoreModel::Ooo];
        let run = run_sweep(&spec, 1, None, false).unwrap();
        assert!(run.outcomes[0].stats.is_err());
        let doc = aggregate(&run);
        let pts = doc.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(pts[0].get("status").and_then(Json::as_str), Some("error"));
        // Summary skips error points entirely.
        assert_eq!(doc.get("summary"), Some(&Json::Obj(vec![])));
    }
}
