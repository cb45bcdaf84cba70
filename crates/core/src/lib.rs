//! # braid-core: the braid microarchitecture and its baselines
//!
//! Cycle-level execution-core models for *Achieving Out-of-Order
//! Performance with Almost In-Order Complexity* (Tseng & Patt, ISCA 2008):
//!
//! * [`functional`] — an architectural (braid-aware) executor for BRISC
//!   programs; it honours the `S`/`T`/`I`/`E` annotation bits, so it both
//!   produces dynamic traces and validates that translated programs compute
//!   the same results as their originals.
//! * [`trace`] — the dynamic instruction trace consumed by the timing
//!   models.
//! * [`frontend`] — the shared aggressive front end (8-wide fetch, up to 3
//!   branches per cycle, perceptron or perfect prediction, I-cache).
//! * [`cores`] — the four execution cores of the paper's Figure 13:
//!   conventional out-of-order, the **braid microarchitecture**, in-order,
//!   and FIFO dependence-based steering (Palacharla-style).
//! * [`config`] — Table 4 processor configurations with builders.
//! * [`report`] — per-run statistics ([`SimReport`]).
//! * [`obs`] — the cycle-accounting taxonomy (CPI stacks) and the
//!   zero-overhead-when-disabled pipeline [`obs::Observer`] trait.
//! * [`profile`] — dynamic value fanout/lifetime profiling (the paper's §1
//!   characterization).
//! * [`processor`] — the run API: [`run_tier`] (translate when the core
//!   is braid, then time at any tier), [`run_full`] (full-tier timing of a
//!   program as given, with an observer), [`translate_checked`],
//!   [`FuncStream`] (the streamed committed stream every production
//!   consumer reads) and [`trace_program`] (the golden oracle).
//! * [`func`] — the fast functional tier (block-batched interpreter over
//!   the predecode tables) and the sampled-timing driver that extrapolates
//!   IPC/CPI stacks from timed intervals.
//!
//! ## Quick start
//!
//! ```
//! use braid_core::config::{BraidConfig, OooConfig};
//! use braid_core::processor::{run_tier, CoreConfig};
//! use braid_core::{SamplingConfig, Tier};
//! use braid_isa::asm::assemble;
//!
//! let program = assemble(
//!     r#"
//!         addi r0, #100, r1
//!     loop:
//!         subi r1, #1, r1
//!         addq r2, r1, r2
//!         bne  r1, loop
//!         halt
//!     "#,
//! )?;
//! let sampling = SamplingConfig::default();
//! let ooo = CoreConfig::Ooo(OooConfig::paper_8wide());
//! let ooo = run_tier(&program, &ooo, Tier::Full, 10_000, &sampling)?;
//! // The braid core translates (and vets) the program before timing it.
//! let braid = CoreConfig::Braid(BraidConfig::paper_default());
//! let braid = run_tier(&program, &braid, Tier::Full, 10_000, &sampling)?;
//! assert!(braid.ipc().unwrap() > 0.0 && ooo.ipc().unwrap() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cores;
pub mod error;
pub mod frontend;
pub mod func;
pub mod functional;
pub mod obs;
pub mod predecode;
pub mod processor;
pub mod profile;
pub mod report;
pub mod trace;

pub use config::{BraidConfig, CommonConfig, DepConfig, InOrderConfig, OooConfig};
pub use error::{LivelockReport, SimError};
pub use func::{
    ArchSnapshot, FastMachine, FuncReport, FuncTable, SampledReport, SamplingConfig, Tier,
};
pub use functional::{ExecError, Machine};
pub use obs::{CpiStack, NoopObserver, Observer, StallCause};
pub use processor::{
    run_full, run_tier, trace_program, translate_checked, CoreConfig, FuncStream, RunError,
    TierReport,
};
pub use report::SimReport;
pub use trace::{Trace, TraceEntry};
