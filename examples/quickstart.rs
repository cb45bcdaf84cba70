//! Quickstart: assemble a small program, translate it into braids, and
//! compare the braid microarchitecture against the paper's three baselines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use braid::compiler::{translate, TranslatorConfig};
use braid::core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid::core::processor::{run_tier, CoreConfig, RunError, TierReport};
use braid::core::{SamplingConfig, SimReport, Tier};
use braid::isa::asm::assemble;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop with two independent dataflow chains per iteration — two
    // braids, in the paper's terms — plus the usual induction overhead.
    let program = assemble(
        r#"
            addi r0, #0x100000, r20   ; array base
            addi r0, #5000, r1        ; iterations
        loop:
            ldq  r10, 0(r20) @global:1
            addq r10, r4, r10
            xori r10, #129, r10
            stq  r10, 512(r20) @global:1

            addq r4, r4, r11
            subi r11, #3, r11
            addq r2, r11, r2

            lda  r20, 8(r20)
            lda  r4, 1(r4)
            subi r1, #1, r1
            bne  r1, loop
            halt
        "#,
    )?;

    // What does the compiler see? Braids, sizes, internal/external values.
    let translation = translate(&program, &TranslatorConfig::default())?;
    println!("== braid statistics ==\n{}\n", translation.stats);

    // Run the same workload through all four execution-core models at the
    // full (cycle-exact) tier; the braid core translates it first.
    let fuel = 1_000_000;
    let sampling = SamplingConfig::default();
    let run = |core: CoreConfig| -> Result<SimReport, RunError> {
        match run_tier(&program, &core, Tier::Full, fuel, &sampling)? {
            TierReport::Full(r) => Ok(r),
            _ => unreachable!("the full tier returns a full report"),
        }
    };
    let ooo = run(CoreConfig::Ooo(OooConfig::paper_8wide()))?;
    let braid = run(CoreConfig::Braid(BraidConfig::paper_default()))?;
    let dep = run(CoreConfig::Dep(DepConfig::paper_8wide()))?;
    let inorder = run(CoreConfig::InOrder(InOrderConfig::paper_8wide()))?;

    println!("== performance (paper Figure 13, one workload) ==");
    println!("out-of-order : IPC {:.3}", ooo.ipc());
    println!("braid        : IPC {:.3}  ({:.1}% of out-of-order)", braid.ipc(), 100.0 * braid.ipc() / ooo.ipc());
    println!("dep-steering : IPC {:.3}", dep.ipc());
    println!("in-order     : IPC {:.3}", inorder.ipc());
    println!();
    println!(
        "braid checkpoints saved {} state words; the conventional machine saved {}",
        braid.checkpoint_words, ooo.checkpoint_words
    );
    Ok(())
}
