//! `braid-perf`: the braid benchmark.
//!
//! ```text
//! braid-perf run --workload W --seed N --seconds S --trace 0|1 --braidd PATH
//! braid-perf series --runs N --seed S --seconds S --braidd PATH --out FILE
//! braid-perf compare A.json B.json
//! ```
//!
//! Run from the repository root. `run` measures one workload, writes its
//! files under `braid-perf/out/` and prints its metrics, ending with one
//! JSON result line; `series` repeats `run` over consecutive seeds and
//! collects the results for `compare`, which reads the bounds from
//! `BENCHMARK.json`. The `cell`, `sweep` and `walk` subcommands are the
//! child processes `run` spawns for each simulation.

mod compare;
mod layers;
mod mix;
mod openloop;
mod procfs;
mod report;
mod serve;
mod sim;
mod span;
mod stats;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use braid_core::Tier;
use braid_sweep::json::{self, Json};
use braid_sweep::CoreModel;

use crate::sim::SimWorkload;

/// The workloads, in the order `series` runs them.
const WORKLOADS: [&str; 4] = ["sim-long", "sim-sampled", "sim-suite", "serve-mix"];

/// `--flag value` pairs after the subcommand, and the other arguments in
/// order.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let v = it.next().ok_or(format!("--{flag} needs a value"))?;
                    flags.insert(flag.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn str(&self, flag: &str) -> Result<&str, String> {
        self.flags
            .get(flag)
            .map(String::as_str)
            .ok_or(format!("--{flag} is required"))
    }

    fn num(&self, flag: &str, default: Option<u64>) -> Result<u64, String> {
        match self.flags.get(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} needs a whole number, got {v:?}")),
            None => default.ok_or(format!("--{flag} is required")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.num("trace", Some(0))? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("--trace is 0 or 1, got {t}")),
        }
    }
}

fn exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let workload = a.str("workload")?;
    let seed = a.num("seed", Some(42))?;
    let seconds = a.num("seconds", Some(25))?.max(1);
    let traced = a.trace()?;
    let out = Path::new("braid-perf/out");
    let label = format!("{workload}-s{seed}-t{}", u8::from(traced));
    let sim = |w| sim::run(w, seed, seconds, traced, &exe()?);
    let result = match workload {
        "sim-long" => sim(SimWorkload::Long)?,
        "sim-sampled" => sim(SimWorkload::Sampled)?,
        "sim-suite" => sim(SimWorkload::Suite)?,
        "serve-mix" => {
            fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
            let log = out.join(format!("{label}.braidd.jsonl"));
            serve::run(seed, seconds, traced, Path::new(a.str("braidd")?), &log)?
        }
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    result
        .write(out, &label)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    result.print(workload);
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn child(sub: &str, a: &Args) -> Result<ExitCode, String> {
    let seed = a.num("seed", None)?;
    let doc = match sub {
        "cell" => {
            let tier = Tier::parse(a.str("tier")?).ok_or("unknown --tier")?;
            let core = CoreModel::parse(a.str("core")?).ok_or("unknown --core")?;
            sim::cell(tier, a.str("nest")?, core, seed, a.trace()?)?
        }
        "sweep" => sim::sweep(seed)?,
        _ => sim::walk(seed, a.trace()?)?,
    };
    println!("{}", doc.compact());
    Ok(ExitCode::SUCCESS)
}

fn series(a: &Args) -> Result<ExitCode, String> {
    let runs = a.num("runs", Some(10))?;
    let first_seed = a.num("seed", Some(42))?;
    let seconds = a.num("seconds", Some(25))?.to_string();
    let braidd = a.str("braidd")?;
    let out = PathBuf::from(a.str("out")?);
    let mut docs = Vec::new();
    for i in 0..runs {
        let seed = (first_seed + i).to_string();
        for w in WORKLOADS {
            let args = [
                "run",
                "--workload",
                w,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                "0",
            ];
            let o = Command::new(exe()?)
                .args(args)
                .args(["--braidd", braidd])
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&o.stdout);
            let last = text.lines().last().unwrap_or_default();
            let result =
                json::parse(last).map_err(|e| format!("{w} seed {seed}: {e}: {last:?}"))?;
            eprintln!("{w} seed {seed}: {last}");
            docs.push(Json::Obj(vec![
                ("workload".into(), Json::Str(w.to_string())),
                ("seed".into(), Json::Int(first_seed + i)),
                ("result".into(), result),
            ]));
        }
    }
    let doc = Json::Obj(vec![("runs".into(), Json::Arr(docs))]);
    fs::write(&out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(ExitCode::SUCCESS)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(a: &Args) -> Result<ExitCode, String> {
    let [x, y] = a.positional.as_slice() else {
        return Err("usage: braid-perf compare A.json B.json".into());
    };
    let spec = read_json("BENCHMARK.json")?;
    let (table, ok) = compare::compare(&spec, &read_json(x)?, &read_json(y)?)?;
    print!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = argv.split_first() else {
        eprintln!("usage: braid-perf <run|series|compare> ... (see the crate docs)");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|a| match sub.as_str() {
        "run" => run(&a),
        "series" => series(&a),
        "compare" => compare(&a),
        "cell" | "sweep" | "walk" => child(sub, &a),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("braid-perf: {e}");
        ExitCode::from(2)
    })
}
