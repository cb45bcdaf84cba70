//! One-call pipelines: program → (translate) → functional trace → timing,
//! and the streamed trace producer they share.

use std::error::Error;
use std::fmt;

use braid_compiler::{translate, TranslateError, Translation, TranslatorConfig};
use braid_isa::Program;
use braid_uarch::cache::MemoryHierarchy;

use crate::config::{BraidConfig, CommonConfig, DepConfig, InOrderConfig, OooConfig};
use crate::cores::{BraidCore, DepSteerCore, InOrderCore, OooCore};
use crate::func::{
    run_func, run_sampled, FastMachine, FuncReport, FuncTable, SampledReport, SamplingConfig, Tier,
};
use crate::functional::{ExecError, Machine};
use crate::obs::{NoopObserver, Observer};
use crate::report::SimReport;
use crate::trace::{Trace, TraceEntry, TraceSource};

/// Errors from the one-call pipelines.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// Functional execution failed.
    Exec(ExecError),
    /// Braid translation failed.
    Translate(TranslateError),
    /// The translated program failed the static braid-contract check; the
    /// braid machine refuses to run it.
    Check(Box<braid_check::CheckReport>),
    /// Timing simulation failed (bad config or livelock).
    Sim(crate::error::SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Exec(e) => write!(f, "functional execution failed: {e}"),
            RunError::Translate(e) => write!(f, "braid translation failed: {e}"),
            RunError::Check(r) => write!(f, "braid contract violated: {r}"),
            RunError::Sim(e) => write!(f, "timing simulation failed: {e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Exec(e) => Some(e),
            RunError::Translate(e) => Some(e),
            RunError::Check(_) => None,
            RunError::Sim(e) => Some(e),
        }
    }
}

impl From<ExecError> for RunError {
    fn from(e: ExecError) -> RunError {
        RunError::Exec(e)
    }
}

impl From<TranslateError> for RunError {
    fn from(e: TranslateError) -> RunError {
        RunError::Translate(e)
    }
}

impl From<crate::error::SimError> for RunError {
    fn from(e: crate::error::SimError) -> RunError {
        RunError::Sim(e)
    }
}

/// One of the four timing cores with its configuration — the unit the
/// tier driver dispatches over.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreConfig {
    /// The in-order machine.
    InOrder(InOrderConfig),
    /// The FIFO dependence-steering machine.
    Dep(DepConfig),
    /// The conventional out-of-order machine.
    Ooo(OooConfig),
    /// The braid machine (implies translation).
    Braid(BraidConfig),
}

impl CoreConfig {
    /// Stable core name, matching the CLI / sweep / serve spelling.
    pub fn name(&self) -> &'static str {
        match self {
            CoreConfig::InOrder(_) => "inorder",
            CoreConfig::Dep(_) => "dep",
            CoreConfig::Ooo(_) => "ooo",
            CoreConfig::Braid(_) => "braid",
        }
    }

    /// Whether this core runs the braid-translated program.
    pub fn is_braid(&self) -> bool {
        matches!(self, CoreConfig::Braid(_))
    }

    /// The pipeline/memory configuration shared by every core kind.
    pub(crate) fn common(&self) -> &CommonConfig {
        match self {
            CoreConfig::InOrder(c) => &c.common,
            CoreConfig::Dep(c) => &c.common,
            CoreConfig::Ooo(c) => &c.common,
            CoreConfig::Braid(c) => &c.common,
        }
    }

    /// Mutable access to the shared pipeline/memory configuration, for
    /// settings every core kind honours alike (deadline, watchdog,
    /// perfect hardware).
    pub fn common_mut(&mut self) -> &mut CommonConfig {
        match self {
            CoreConfig::InOrder(c) => &mut c.common,
            CoreConfig::Dep(c) => &mut c.common,
            CoreConfig::Ooo(c) => &mut c.common,
            CoreConfig::Braid(c) => &mut c.common,
        }
    }

    /// Fetch/dispatch/retire width in instructions per cycle. Retirement
    /// never exceeds this on any core, which makes `ceil(n / width)` a
    /// sound cycle lower bound for an `n`-instruction trace.
    pub fn width(&self) -> u32 {
        self.common().width
    }

    /// Load/store queue capacity. Every memory instruction occupies an
    /// entry from dispatch to retirement (at least one full cycle).
    pub fn lsq_entries(&self) -> usize {
        self.common().lsq_entries
    }

    /// Maximum instructions the core can begin executing per cycle:
    /// the FU count on the conventional cores, `beus * fus_per_beu`
    /// on the braid core.
    pub fn issue_slots(&self) -> u32 {
        match self {
            CoreConfig::InOrder(c) => c.fus,
            CoreConfig::Dep(c) => c.fus,
            CoreConfig::Ooo(c) => c.fus,
            CoreConfig::Braid(c) => c.beus * c.fus_per_beu,
        }
    }

    /// Braid execution unit count (braid core only).
    pub fn beus(&self) -> Option<u32> {
        match self {
            CoreConfig::Braid(c) => Some(c.beus),
            _ => None,
        }
    }

    /// Functional units per BEU (braid core only).
    pub fn fus_per_beu(&self) -> Option<u32> {
        match self {
            CoreConfig::Braid(c) => Some(c.fus_per_beu),
            _ => None,
        }
    }

    /// Internal register file size per BEU (braid core only); the
    /// translator's split threshold must not exceed this.
    pub fn internal_regs(&self) -> Option<u32> {
        match self {
            CoreConfig::Braid(c) => Some(c.internal_regs),
            _ => None,
        }
    }

    /// Times the committed stream of `program` that `source` supplies on a
    /// fresh core instance: the full tier's timing step, for callers that
    /// bring their own source (a trace-file reader, or a [`FuncStream`]).
    ///
    /// # Errors
    ///
    /// Bad configuration, deadline and livelock failures.
    pub fn run(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
    ) -> Result<SimReport, crate::error::SimError> {
        self.run_source(program, source, &mut NoopObserver, None)
    }

    /// Times the stream `source` supplies on a **fresh** core instance,
    /// seeded with the pre-warmed memory hierarchy `warm` when given (the
    /// warm-up subtraction of sampling relies on every window starting
    /// from identical pipeline state).
    pub(crate) fn run_source<O: Observer>(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
        obs: &mut O,
        warm: Option<MemoryHierarchy>,
    ) -> Result<SimReport, crate::error::SimError> {
        match self {
            CoreConfig::InOrder(c) => InOrderCore::new(c.clone()).run_inner(program, source, obs, warm),
            CoreConfig::Dep(c) => DepSteerCore::new(c.clone()).run_inner(program, source, obs, warm),
            CoreConfig::Ooo(c) => OooCore::new(c.clone()).run_inner(program, source, obs, warm),
            CoreConfig::Braid(c) => {
                BraidCore::new(c.clone()).run_inner(program, source, &[], 0, obs, warm)
            }
        }
    }
}

/// What a tiered run produced — shaped by the [`Tier`] requested.
#[derive(Debug, Clone)]
pub enum TierReport {
    /// Full cycle-level simulation: exact cycles and CPI stack.
    Full(SimReport),
    /// Functional only: instruction count, throughput, state digest.
    Func(FuncReport),
    /// Sampled timing: extrapolated cycles and CPI stack.
    Sampled(SampledReport),
}

impl TierReport {
    /// Dynamic instructions executed (exact on every tier).
    pub fn instructions(&self) -> u64 {
        match self {
            TierReport::Full(r) => r.instructions,
            TierReport::Func(r) => r.instructions,
            TierReport::Sampled(r) => r.instructions,
        }
    }

    /// Retired instructions per cycle — exact for [`Tier::Full`], an
    /// estimate for [`Tier::Sampled`], `None` for [`Tier::Func`] (no
    /// timing at all).
    pub fn ipc(&self) -> Option<f64> {
        match self {
            TierReport::Full(r) => Some(r.ipc()),
            TierReport::Func(_) => None,
            TierReport::Sampled(r) => Some(r.est_ipc()),
        }
    }

    /// Host wall-clock nanoseconds of the run. **Not deterministic.**
    pub fn host_nanos(&self) -> u64 {
        match self {
            TierReport::Full(r) => r.host_nanos,
            TierReport::Func(r) => r.host_nanos,
            TierReport::Sampled(r) => r.host_nanos(),
        }
    }
}

/// Translates `program` into braids and vets the result with the static
/// braid-contract checker, in debug *and* release builds, so the braid
/// machine never executes an ill-formed program. The translator's own
/// debug self-check is turned off to avoid checking twice. Pass the
/// returned `program` to [`run_full`] on the braid core to time it while
/// keeping the translation for braid statistics or observer output.
///
/// # Errors
///
/// Returns [`RunError::Translate`] when translation fails and
/// [`RunError::Check`] when the translation violates the braid contract.
pub fn translate_checked(program: &Program) -> Result<Translation, RunError> {
    let tconfig = TranslatorConfig { self_check: false, ..Default::default() };
    let translation = translate(program, &tconfig)?;
    let report = translation.check(
        program,
        &braid_check::CheckConfig { max_internal_regs: tconfig.max_internal_regs },
    );
    if report.has_errors() {
        return Err(RunError::Check(Box::new(report)));
    }
    Ok(translation)
}

/// Runs `program` on `core` at the requested execution [`Tier`] — the
/// single entry point behind `braidsim --tier`, the sweep engine and
/// braidd. The braid core translates (and statically vets) the program
/// first on every tier, so tiers always agree on the executed
/// instruction stream. `sampling` is only consulted for
/// [`Tier::Sampled`].
///
/// # Errors
///
/// Propagates translation, functional-execution and timing failures.
pub fn run_tier(
    program: &Program,
    core: &CoreConfig,
    tier: Tier,
    max_insts: u64,
    sampling: &SamplingConfig,
) -> Result<TierReport, RunError> {
    let translated = if core.is_braid() { Some(translate_checked(program)?.program) } else { None };
    let program = translated.as_ref().unwrap_or(program);
    match tier {
        Tier::Full => Ok(TierReport::Full(run_streamed(program, core, max_insts, &mut NoopObserver)?)),
        Tier::Func => Ok(TierReport::Func(run_func(program, max_insts)?)),
        Tier::Sampled => Ok(TierReport::Sampled(run_sampled(program, core, max_insts, sampling)?)),
    }
}

/// Functionally executes `program` for at most `max_insts` instructions on
/// the golden interpreter and returns the committed trace. This is the
/// oracle that the differential tests and braid-verify check the fast
/// interpreter against; it holds the whole run in memory. Every production
/// consumer (timing, trace files, bounds, the partition search, the
/// experiments) reads [`FuncStream`] instead.
///
/// # Errors
///
/// Propagates functional-execution failures, including
/// [`ExecError::OutOfFuel`] when the budget is hit before `halt`.
pub fn trace_program(program: &Program, max_insts: u64) -> Result<Trace, RunError> {
    let mut m = Machine::new(program);
    Ok(m.run(program, max_insts)?)
}

/// The committed stream of a program, produced by the fast interpreter
/// chunk by chunk as a consumer pulls it: the one trace producer behind
/// the full tier, trace files, bounds, the partition search and the
/// experiments, so that no run materializes its trace. The interpreter
/// (with its memory image) is dropped as soon as the program halts, so a
/// program short enough to fit one refill never holds its functional and
/// timing state at once. An execution error ends the stream; the
/// consumer gets it from [`FuncStream::read`].
pub struct FuncStream<'t> {
    fast: Option<FastMachine<'t>>,
    fuel: u64,
    error: Option<ExecError>,
}

impl<'t> FuncStream<'t> {
    fn new(program: &Program, table: &'t FuncTable, fuel: u64) -> FuncStream<'t> {
        FuncStream { fast: Some(FastMachine::new(program, table)), fuel, error: None }
    }

    /// Ends the stream. Whatever the consumer did not pull is executed
    /// without recording (fuel-bounded, constant memory), so the result
    /// is the whole program's: the first execution error, if any.
    fn finish(mut self) -> Result<(), ExecError> {
        if self.error.is_none() {
            if let Some(fast) = self.fast.as_mut() {
                self.error = fast.run(self.fuel).err();
            }
        }
        self.error.map_or(Ok(()), Err)
    }
}

impl FuncStream<'_> {
    /// Executes `program` once under `fuel` and hands its committed stream
    /// to `consume`, which pulls as much of it as it needs (fold it with
    /// [`for_each_entry`], time it with [`CoreConfig::run`], write it);
    /// the rest is executed without recording.
    ///
    /// # Errors
    ///
    /// The first [`ExecError`] of the whole program, which wins over
    /// whatever `consume` returned.
    ///
    /// [`for_each_entry`]: crate::trace::for_each_entry
    pub fn read<T>(
        program: &Program,
        fuel: u64,
        consume: impl FnOnce(&mut FuncStream<'_>) -> T,
    ) -> Result<T, ExecError> {
        let table = FuncTable::new(program);
        let mut stream = FuncStream::new(program, &table, fuel);
        let out = consume(&mut stream);
        stream.finish()?;
        Ok(out)
    }
}

impl TraceSource for FuncStream<'_> {
    fn fill(&mut self, out: &mut Vec<TraceEntry>, max: usize) {
        let Some(fast) = self.fast.as_mut().filter(|_| self.error.is_none()) else {
            return;
        };
        let stop = fast.executed().saturating_add(max as u64);
        if let Err(e) = fast.run_recording_until(stop, self.fuel, out) {
            self.error = Some(e);
        } else if fast.halted() {
            self.fast = None;
        }
    }
}

/// Full-tier timing of `program` on `core` with trace production and
/// timing interleaved: memory stays bounded by the core's window whatever
/// the run length, and the report's `host_nanos` covers both.
///
/// An [`ExecError`] always wins over a timing error, as it did when the
/// whole trace was produced before timing started: when timing fails
/// first (deadline, livelock, bad configuration), finishing the stream
/// executes the rest of the program, and an execution error found there
/// is returned instead.
fn run_streamed<O: Observer>(
    program: &Program,
    core: &CoreConfig,
    max_insts: u64,
    obs: &mut O,
) -> Result<SimReport, RunError> {
    let table = FuncTable::new(program);
    let mut stream = FuncStream::new(program, &table, max_insts);
    let timed = core.run_source(program, &mut stream, obs, None);
    stream.finish()?;
    Ok(timed?)
}

/// Full-tier timing of `program` on `core` **as given** — no translation,
/// even for the braid core — with pipeline events sent to `obs` (pass
/// [`NoopObserver`] for none; the core monomorphizes over the observer,
/// so that path costs nothing). Braid-core callers pass a program that is
/// already annotated: the output of [`translate_checked`], or a candidate
/// partition of their own (the `braidc -O` search scores its candidates
/// here). On the braid core the program is vetted by the static
/// braid-contract checker first, so the braid machine never executes an
/// ill-formed program; the other cores ignore annotations entirely.
///
/// # Errors
///
/// Propagates functional-execution and timing failures; returns
/// [`RunError::Check`] when a braid-core program violates the contract.
pub fn run_full<O: Observer>(
    program: &Program,
    core: &CoreConfig,
    max_insts: u64,
    obs: &mut O,
) -> Result<SimReport, RunError> {
    if let CoreConfig::Braid(c) = core {
        let report = braid_check::check_program(
            program,
            &braid_check::CheckConfig { max_internal_regs: c.internal_regs },
        );
        if report.has_errors() {
            return Err(RunError::Check(Box::new(report)));
        }
    }
    run_streamed(program, core, max_insts, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_isa::asm::assemble;

    const LOOP: &str = r#"
        addi r0, #2000, r1
    loop:
        addq r1, r1, r2
        addq r2, r1, r2
        addq r2, r1, r2
        stq  r2, 0(r9) @stack:1
        addq r1, r1, r3
        addq r3, r1, r3
        stq  r3, 8(r9) @stack:2
        subi r1, #1, r1
        bne  r1, loop
        halt
    "#;

    /// The paper-default configuration of every core, with `edit` applied
    /// to the shared pipeline settings.
    fn cores_with(edit: impl Fn(&mut CommonConfig)) -> [CoreConfig; 4] {
        let mut cores = [
            CoreConfig::InOrder(InOrderConfig::paper_8wide()),
            CoreConfig::Dep(DepConfig::paper_8wide()),
            CoreConfig::Ooo(OooConfig::paper_8wide()),
            CoreConfig::Braid(BraidConfig::paper_default()),
        ];
        for core in &mut cores {
            edit(core.common_mut());
        }
        cores
    }

    /// A full-tier run through the tier driver.
    fn full(program: &Program, core: &CoreConfig, fuel: u64) -> Result<SimReport, RunError> {
        match run_tier(program, core, Tier::Full, fuel, &SamplingConfig::default())? {
            TierReport::Full(r) => Ok(r),
            other => panic!("expected a full report, got {other:?}"),
        }
    }

    #[test]
    fn all_four_cores_run_the_same_workload() {
        let p = assemble(LOOP).unwrap();
        let [io, dep, ooo, braid] = cores_with(|_| {}).map(|c| full(&p, &c, 100_000).unwrap());
        for r in [&ooo, &io, &dep, &braid] {
            assert_eq!(r.instructions, ooo.instructions);
        }
        // The canonical ordering of the paper's Figure 13.
        assert!(ooo.ipc() >= braid.ipc() * 0.85, "ooo {} braid {}", ooo.ipc(), braid.ipc());
        assert!(braid.ipc() >= io.ipc() * 0.9, "braid {} io {}", braid.ipc(), io.ipc());
    }

    #[test]
    fn deadline_aborts_deterministically_on_every_core() {
        use crate::error::SimError;
        let p = assemble(LOOP).unwrap();
        let fuel = 100_000;
        let deadline = 50;
        let extract = |e: RunError| match e {
            RunError::Sim(SimError::Deadline { cycle, deadline_cycles, retired }) => {
                assert_eq!(deadline_cycles, deadline);
                assert!(cycle >= deadline);
                (cycle, retired)
            }
            other => panic!("expected a deadline error, got: {other}"),
        };
        for core in cores_with(|c| c.deadline_cycles = deadline) {
            let first = extract(full(&p, &core, fuel).unwrap_err());
            let again = extract(full(&p, &core, fuel).unwrap_err());
            assert_eq!(first, again, "{}: deadline aborts must be reproducible", core.name());
        }

        // A deadline past the natural run length never fires.
        for core in cores_with(|c| c.deadline_cycles = 10_000_000) {
            assert!(full(&p, &core, fuel).is_ok(), "{}", core.name());
        }
    }

    #[test]
    fn out_of_fuel_is_reported() {
        let p = assemble("loop: br loop\nhalt").unwrap();
        assert!(matches!(
            full(&p, &CoreConfig::Ooo(OooConfig::paper_8wide()), 100),
            Err(RunError::Exec(ExecError::OutOfFuel))
        ));
    }

    /// Full-tier runs of `program` on `core` through both entry points:
    /// the tier driver and [`run_full`] (on the braid core, fed the
    /// program [`translate_checked`] produced).
    fn both_entry_points(program: &Program, core: &CoreConfig, fuel: u64) -> [Result<u64, RunError>; 2] {
        let tiered = full(program, core, fuel).map(|r| r.instructions);
        let direct = if core.is_braid() {
            translate_checked(program)
                .and_then(|t| run_full(&t.program, core, fuel, &mut NoopObserver))
        } else {
            run_full(program, core, fuel, &mut NoopObserver)
        };
        [tiered, direct.map(|r| r.instructions)]
    }

    #[test]
    fn exec_errors_beat_deadlines_on_every_core() {
        let spin = assemble("loop: br loop\nhalt").unwrap();
        for core in cores_with(|c| c.deadline_cycles = 10) {
            // Fuel 100 fails inside the first chunk the engine pulls;
            // 100 000 only in the drain after the deadline fired.
            for fuel in [100, 100_000] {
                for r in both_entry_points(&spin, &core, fuel) {
                    assert!(
                        matches!(r, Err(RunError::Exec(ExecError::OutOfFuel))),
                        "{} fuel {fuel}: {r:?}",
                        core.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exec_errors_beat_livelock_on_every_core() {
        // Thousands of instructions, then a return far outside the text
        // segment. A one-cycle watchdog livelocks every core on its first
        // cold I-cache miss, long before the stream reaches the escape.
        let escape = assemble(
            "addi r0, #3000, r1\nloop: subi r1, #1, r1\nbne r1, loop\naddi r0, #100, r2\nret r2\nhalt",
        )
        .unwrap();
        let halts = assemble("addi r0, #3000, r1\nloop: subi r1, #1, r1\nbne r1, loop\nhalt").unwrap();
        for core in cores_with(|c| c.watchdog_cycles = 1) {
            for r in both_entry_points(&halts, &core, 100_000) {
                assert!(
                    matches!(r, Err(RunError::Sim(crate::error::SimError::Livelock(_)))),
                    "{}: the timing run must livelock on its own: {r:?}",
                    core.name()
                );
            }
            for r in both_entry_points(&escape, &core, 100_000) {
                assert!(
                    matches!(r, Err(RunError::Exec(ExecError::PcOutOfRange(100)))),
                    "{}: {r:?}",
                    core.name()
                );
            }
        }
    }

    #[test]
    fn tiers_agree_on_instruction_counts() {
        let p = assemble(LOOP).unwrap();
        let fuel = 100_000;
        let sampling = SamplingConfig { period: 512, warmup: 32, sample: 128, lockstep: true };
        for core in cores_with(|_| {}) {
            let full = run_tier(&p, &core, Tier::Full, fuel, &sampling).unwrap();
            let func = run_tier(&p, &core, Tier::Func, fuel, &sampling).unwrap();
            let sampled = run_tier(&p, &core, Tier::Sampled, fuel, &sampling).unwrap();
            assert_eq!(full.instructions(), func.instructions(), "{}", core.name());
            assert_eq!(full.instructions(), sampled.instructions(), "{}", core.name());
            // The sampled estimate must be in the ballpark of the exact
            // IPC on this steady loop (tight bounds live in the golden
            // fixtures; this is the smoke check).
            let exact = full.ipc().unwrap();
            let est = sampled.ipc().unwrap();
            assert!(
                (est - exact).abs() / exact < 0.25,
                "{}: exact {exact} vs est {est}",
                core.name()
            );
        }
    }

    #[test]
    fn sampled_cpi_stack_totals_estimated_cycles() {
        let p = assemble(LOOP).unwrap();
        let sampling = SamplingConfig::default();
        let core = CoreConfig::InOrder(InOrderConfig::paper_8wide());
        match run_tier(&p, &core, Tier::Sampled, 100_000, &sampling).unwrap() {
            TierReport::Sampled(r) => assert_eq!(r.cpi.total(), r.est_cycles),
            other => panic!("expected a sampled report, got {other:?}"),
        }
    }
}
