//! `exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! exp <experiment>...        run the named experiments
//! exp all                    run everything
//! ```
//!
//! Experiments: tab1 tab2 tab3 chars splits fig1 fig5 fig6 fig7 fig8 fig9
//! fig10 fig11 fig12 fig13 fig14 pipeline clusters exceptions
//! disambiguation predictors mshrs fig13perfect widthsweep cpistack
//! sampled opt frontier. Set `BRAID_SCALE` to change the dynamic
//! instruction count (default 1.0 ≈ 60k per benchmark; `sampled`, `opt`,
//! and `frontier` run the hand-written kernels and compiled loop nests
//! and ignore the scale).
//!
//! Each experiment prints its table and writes `results/<name>.txt`.

use std::fs;
use std::time::Instant;

use braid_bench::experiments as exp;
use braid_bench::table::Table;
use braid_bench::{prepare_suite, scale, Prepared};

/// How an experiment runs: over the prepared synthetic suite, or on the
/// hand-written kernels and compiled loop nests alone.
#[derive(Clone, Copy)]
enum Experiment {
    Suite(fn(&[Prepared]) -> Table),
    Kernels(fn() -> Table),
}

use Experiment::{Kernels, Suite};

/// Every experiment, in `exp all` order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("tab1", Suite(exp::tab1)),
    ("tab2", Suite(exp::tab2)),
    ("tab3", Suite(exp::tab3)),
    ("chars", Suite(exp::chars)),
    ("splits", Suite(exp::splits)),
    ("fig1", Suite(exp::fig1)),
    ("fig5", Suite(exp::fig5)),
    ("fig6", Suite(exp::fig6)),
    ("fig7", Suite(exp::fig7)),
    ("fig8", Suite(exp::fig8)),
    ("fig9", Suite(exp::fig9)),
    ("fig10", Suite(exp::fig10)),
    ("fig11", Suite(exp::fig11)),
    ("fig12", Suite(exp::fig12)),
    ("fig13", Suite(exp::fig13)),
    ("fig14", Suite(exp::fig14)),
    ("pipeline", Suite(exp::pipeline)),
    ("clusters", Suite(exp::clusters)),
    ("exceptions", Suite(exp::exceptions)),
    ("disambiguation", Suite(exp::disambiguation)),
    ("predictors", Suite(exp::predictors)),
    ("mshrs", Suite(exp::mshrs)),
    ("fig13perfect", Suite(exp::fig13perfect)),
    ("widthsweep", Suite(exp::widthsweep)),
    ("cpistack", Suite(exp::cpistack)),
    ("sampled", Kernels(exp::sampled)),
    ("opt", Kernels(exp::opt)),
    ("frontier", Kernels(exp::frontier)),
];

fn main() {
    let names = EXPERIMENTS.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(" ");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: exp <experiment>... | all\nexperiments: {names}");
        std::process::exit(2);
    }
    let wanted: Vec<(&str, Experiment)> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter()
            .map(|a| {
                EXPERIMENTS.iter().find(|(name, _)| name == a).copied().unwrap_or_else(|| {
                    eprintln!("unknown experiment {a:?}; known: {names}");
                    std::process::exit(2)
                })
            })
            .collect()
    };

    let suite = if wanted.iter().any(|(_, e)| matches!(e, Suite(_))) {
        let t0 = Instant::now();
        eprintln!("preparing 26-benchmark suite at scale {} ...", scale());
        let suite = prepare_suite(scale());
        eprintln!("prepared in {:.1}s", t0.elapsed().as_secs_f64());
        suite
    } else {
        Vec::new()
    };

    let _ = fs::create_dir_all("results");
    for (name, experiment) in wanted {
        let t1 = Instant::now();
        let table = match experiment {
            Suite(run) => run(&suite),
            Kernels(run) => run(),
        };
        let text = table.render();
        println!("{text}");
        eprintln!("[{name} took {:.1}s]", t1.elapsed().as_secs_f64());
        if let Err(e) = fs::write(format!("results/{name}.txt"), &text) {
            eprintln!("warning: could not write results/{name}.txt: {e}");
        }
    }
}
