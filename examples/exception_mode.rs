//! The paper's §3.4 exception handling, demonstrated: when an exception is
//! raised, the braid machine rolls back to the last checkpoint, disables
//! all but one BEU (becoming a strict in-order machine), re-executes until
//! the excepting instruction retires, runs the handler, and resumes.
//!
//! ```text
//! cargo run --release --example exception_mode
//! ```

use braid::compiler::{translate, TranslatorConfig};
use braid::core::config::BraidConfig;
use braid::core::cores::BraidCore;
use braid::core::functional::Machine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = braid::workloads::by_name("perlbmk", 1.0).ok_or("missing benchmark")?;
    let t = translate(&workload.program, &TranslatorConfig::default())?;
    let mut m = Machine::new(&t.program);
    let trace = m.run(&t.program, workload.fuel)?;
    let core = BraidCore::new(BraidConfig::paper_default());

    let clean = core.run(&t.program, &trace)?;
    println!("clean run      : {} cycles, IPC {:.3}", clean.cycles, clean.ipc());

    for (label, every, handler) in [
        ("rare (1/20k)  ", 20_000usize, 200u64),
        ("common (1/2k) ", 2_000, 200),
        ("frequent (1/500)", 500, 200),
    ] {
        let points: Vec<u64> = (0..trace.len() as u64).step_by(every).skip(1).collect();
        let mut source = trace.entries.as_slice();
        let r = core.run_with_exceptions(&t.program, &mut source, &points, handler)?;
        println!(
            "{label}: {} cycles, IPC {:.3}  ({} exceptions, {:.1}% slowdown)",
            r.cycles,
            r.ipc(),
            r.exceptions_taken,
            100.0 * (r.cycles as f64 / clean.cycles as f64 - 1.0),
        );
    }
    println!(
        "\nthe paper (§3.4): \"Due to the rarity of exceptions in general-purpose\n\
         processing, simplicity was chosen over speed for handling them.\""
    );
    Ok(())
}
