//! Exit-code contract of the `braidc` and `braidsim` CLIs: `0` clean, `1`
//! findings or failure, `2` usage error — including the `--deny-warnings`
//! promotion of a warnings-only report to exit `1`, for `check` and
//! `build` alike, and malformed numeric flags, which are usage errors. A
//! corrupt trace file makes `trace-replay` exit `1` with a pinned message
//! and nothing on stdout; a trace piped in replays as the file does.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use braid::isa::{container, BraidBits, Inst, Opcode, Program, Reg};

fn braidc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_braidc"))
}

fn braidsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_braidsim"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("braidc-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn r(n: u8) -> Reg {
    Reg::int(n).expect("in range")
}

/// An annotated program whose only finding is the BC006 warning: the `I`
/// bit is set but nothing ever reads the internal copy.
fn warnings_only_program() -> Program {
    let mut add = Inst::alu(Opcode::Add, r(1), r(2), r(3)).expect("shape");
    add.braid = BraidBits { start: true, t: [false, false], internal: true, external: true };
    let mut halt = Inst::halt();
    halt.braid = BraidBits::unannotated(false);
    Program::from_insts("warn-only", vec![add, halt])
}

/// An annotated program with a hard error: a block leader without `S`.
fn error_program() -> Program {
    let mut add = Inst::alu(Opcode::Add, r(1), r(2), r(3)).expect("shape");
    add.braid = BraidBits { start: false, t: [false, false], internal: false, external: true };
    let mut halt = Inst::halt();
    halt.braid = BraidBits::unannotated(false);
    Program::from_insts("bad-leader", vec![add, halt])
}

fn write_brisc(name: &str, p: &Program) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, container::to_bytes(p).expect("encodes")).expect("writes");
    path
}

fn exit_code(cmd: &mut Command) -> i32 {
    cmd.output().expect("braidc runs").status.code().expect("has exit code")
}

#[test]
fn check_clean_exits_zero() {
    assert_eq!(exit_code(braidc().args(["check", "@dot_product"])), 0);
}

#[test]
fn check_warnings_only_exits_zero_without_deny() {
    let path = write_brisc("warn.brisc", &warnings_only_program());
    let out = braidc().args(["check", path.to_str().unwrap()]).output().expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("BC006"), "expected a BC006 warning, got:\n{text}");
    assert!(!text.contains("error["), "must be warnings-only, got:\n{text}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn deny_warnings_promotes_warnings_to_exit_one() {
    let path = write_brisc("warn-deny.brisc", &warnings_only_program());
    assert_eq!(
        exit_code(braidc().args(["check", path.to_str().unwrap(), "--deny-warnings"])),
        1
    );
}

#[test]
fn check_errors_exit_one() {
    let path = write_brisc("error.brisc", &error_program());
    assert_eq!(exit_code(braidc().args(["check", path.to_str().unwrap()])), 1);
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(exit_code(&mut braidc()), 2);
    assert_eq!(exit_code(braidc().args(["check", "@dot_product", "--bogus"])), 2);
    assert_eq!(exit_code(braidc().args(["frobnicate", "@dot_product"])), 2);
}

#[test]
fn missing_input_exits_one() {
    assert_eq!(exit_code(braidc().args(["check", "@nonesuch_kernel"])), 1);
}

fn write_bl(name: &str, source: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, source).expect("writes");
    path
}

#[test]
fn build_clean_exits_zero_and_emits_a_check_clean_container() {
    let src = write_bl(
        "ok.bl",
        "array a[8] = [1, 2, 3];\nlet s = 0;\nfor i in 0..8 { s = s + a[i]; }\na[0] = s;\n",
    );
    let out = tmp("ok.brisc");
    let built = braidc()
        .args(["build", src.to_str().unwrap(), "--emit", out.to_str().unwrap()])
        .output()
        .expect("runs");
    assert_eq!(built.status.code(), Some(0), "{}", String::from_utf8_lossy(&built.stderr));
    // The emitted container passes the checker standalone: annotated
    // clean by construction.
    assert_eq!(exit_code(braidc().args(["check", out.to_str().unwrap()])), 0);
}

#[test]
fn build_diagnostics_exit_one() {
    let src = write_bl("bad.bl", "let s = nosuch + 1;\n");
    let out = braidc().args(["build", src.to_str().unwrap()]).output().expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("BL00"), "expected a BL diagnostic on stderr, got:\n{text}");
}

#[test]
fn build_deny_warnings_promotes_unused_binding_to_exit_one() {
    let src = write_bl("warn.bl", "array a[4];\nlet unused = 3;\na[0] = 1;\n");
    assert_eq!(exit_code(braidc().args(["build", src.to_str().unwrap()])), 0);
    assert_eq!(
        exit_code(braidc().args(["build", src.to_str().unwrap(), "--deny-warnings"])),
        1
    );
}

#[test]
fn build_usage_errors_exit_two() {
    assert_eq!(exit_code(braidc().args(["build"])), 2);
    let src = write_bl("flags.bl", "array a[4];\na[0] = 1;\n");
    assert_eq!(exit_code(braidc().args(["build", src.to_str().unwrap(), "--bogus"])), 2);
}

#[test]
fn bound_clean_exits_zero_and_verifies() {
    let out = braidc().args(["bound", "@dot_product", "--verify"]).output().expect("runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{text}");
    assert_eq!(text.matches(": sound (").count(), 4, "all four cores verified:\n{text}");
}

#[test]
fn opt_exits_zero_and_never_loses_to_canonical() {
    let out = braidc().args(["-O", "@dot_product", "--json"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = braid::sweep::json::parse(&text).expect("valid json");
    let winner_cycles = doc
        .get("candidates")
        .and_then(braid::sweep::Json::as_arr)
        .and_then(|cands| {
            let winner = doc.get("winner")?.as_str()?;
            cands
                .iter()
                .find(|c| c.get("name").and_then(braid::sweep::Json::as_str) == Some(winner))?
                .get("cycles")?
                .as_u64()
        })
        .expect("winner cycles");
    let canonical = doc.get("canonical_cycles").and_then(braid::sweep::Json::as_u64).unwrap();
    let bound = doc.get("bound_cycles").and_then(braid::sweep::Json::as_u64).unwrap();
    assert!(winner_cycles <= canonical, "winner {winner_cycles} > canonical {canonical}");
    assert!(bound <= winner_cycles, "bound {bound} > winner {winner_cycles}");
}

#[test]
fn braidsim_malformed_numbers_exit_two() {
    for (flag, value) in [
        ("--fuel", "x"),
        ("--width", "x"),
        ("--width", "-8"),
        ("--sample-period", "4k"),
        ("--sample-warmup", "x"),
        ("--sample-len", ""),
        ("--sample-period", "1e6"),
    ] {
        let out = braidsim()
            .args(["ooo", "@dot_product", "--tier", "sampled", flag, value])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains(flag) && text.contains("usage:"), "{flag}: {text}");
    }
    let record = ["trace-record", "@dot_product", "x.btrace", "--fuel", "x"];
    assert_eq!(exit_code(braidsim().args(record)), 2);
    assert_eq!(exit_code(braidsim().args(["trace-replay", "x.btrace", "--width", "x"])), 2);
}

#[test]
fn braidsim_sweep_scale_out_of_range_exits_two() {
    for value in ["0", "-1", "1e300", "1000.5", "nan", "inf", "x"] {
        let out = braidsim().args(["sweep", "--scale", value]).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "--scale {value:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        assert!(text.contains("--scale") && text.contains("usage:"), "{value}: {text}");
    }
}

#[test]
fn braidsim_machine_sizes_out_of_range_exit_two() {
    let cases: [&[&str]; 6] = [
        &["ooo", "@dot_product", "--width", "1000000"],
        &["all", "@dot_product", "--width", "65"],
        &["trace-replay", "missing.btrace", "--width", "4294967295"],
        &["sweep", "--widths", "4,65"],
        &["sweep", "--windows", "1000000000"],
        &["sweep", "--beus", "100000000"],
    ];
    for args in cases {
        let out = braidsim().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let text = String::from_utf8_lossy(&out.stderr);
        let refused = text.contains("exceeds the maximum") && text.contains("usage:");
        assert!(refused, "{args:?}: {text}");
    }
    // The largest accepted values run.
    assert_eq!(exit_code(braidsim().args(["all", "@dot_product", "--width", "64"])), 0);
    let out = tmp("max-sizes.json");
    let sweep = [
        "sweep", "--name", "cli-max-sizes", "--workloads", "dot_product", "--widths", "64",
        "--windows", "4096", "--beus", "64", "--out",
    ];
    assert_eq!(exit_code(braidsim().args(sweep).arg(&out)), 0);
}

#[test]
fn braidsim_unknown_core_exits_two_before_running() {
    // Exactly a core name or `all`; the parse aliases `io` and `depsteer`
    // are refused too. Nothing runs, so nothing reaches stdout.
    for core in ["foo", "io", "depsteer"] {
        for tier in ["full", "func", "sampled"] {
            let args = [core, "@dot_product", "--tier", tier];
            let out = braidsim().args(args).output().expect("runs");
            assert_eq!(out.status.code(), Some(2), "{core} --tier {tier}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.is_empty(), "{core} --tier {tier}: {stdout}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{core}");
        }
    }
}

#[test]
fn braidsim_zero_width_runs_the_paper_default() {
    let run = |width: &str| {
        let out = braidsim().args(["ooo", "@dot_product", "--width", width]).output();
        let out = out.expect("runs");
        assert_eq!(out.status.code(), Some(0), "--width {width}");
        // Host throughput lines differ from run to run.
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let lines = stdout.lines().filter(|l| !l.trim_start().starts_with("host:"));
        lines.collect::<Vec<_>>().join("\n")
    };
    assert_eq!(run("0"), run("8"));
}

#[test]
fn braidsim_degenerate_sampling_exits_two() {
    for flag in ["--sample-period", "--sample-len"] {
        let out = braidsim()
            .args(["ooo", "@dot_product", "--tier", "sampled", flag, "0"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{flag} 0");
        assert!(String::from_utf8_lossy(&out.stderr).contains("at least 1"), "{flag}");
        // The other tiers ignore the sampling knobs.
        let full = ["ooo", "@dot_product", "--tier", "full", flag, "0"];
        assert_eq!(exit_code(braidsim().args(full)), 0, "--tier full {flag} 0");
    }
}

#[test]
fn braidsim_sampled_run_exits_zero() {
    let out = braidsim()
        .args(["ooo", "@dot_product", "--tier", "sampled", "--sample-period", "512"])
        .args(["--sample-warmup", "64", "--sample-len", "128", "--report-json"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Past the first two periods the run is sampled sparsely.
    assert!(stdout.contains("\"est_cycles\":") && stdout.contains("\"ci95_cycles\":"), "{stdout}");
}

/// Runs `trace-replay` on a recorded `@dot_product` trace after `mangle`
/// edits its bytes, and returns (exit code, stdout, stderr with the file
/// path replaced by `FILE`).
fn replay_mangled(name: &str, mangle: impl FnOnce(&mut Vec<u8>)) -> (i32, String, String) {
    let path = tmp(name);
    let path_str = path.to_str().expect("UTF-8 temp path");
    assert_eq!(exit_code(braidsim().args(["trace-record", "@dot_product", path_str])), 0);
    let mut bytes = std::fs::read(&path).expect("trace written");
    mangle(&mut bytes);
    std::fs::write(&path, &bytes).expect("rewrite trace");
    let out = braidsim().args(["trace-replay", path_str]).output().expect("runs");
    (
        out.status.code().expect("has exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).replace(path_str, "FILE"),
    )
}

#[test]
fn trace_replay_of_a_truncated_file_exits_one_before_printing() {
    let (code, stdout, stderr) = replay_mangled("truncated.btrace", |b| {
        b.pop();
    });
    assert_eq!((code, stdout.as_str()), (1, ""), "stderr: {stderr}");
    assert_eq!(stderr, "braidsim: FILE: trace frame did not verify: missing or unknown frame magic\n");
}

#[test]
fn trace_replay_of_a_bit_flipped_file_exits_one_before_printing() {
    let (code, stdout, stderr) = replay_mangled("flipped.btrace", |b| {
        let mid = b.len() / 2;
        b[mid] ^= 0x10;
    });
    assert_eq!((code, stdout.as_str()), (1, ""), "stderr: {stderr}");
    assert_eq!(stderr, concat!(
            "braidsim: FILE: trace frame did not verify: ",
            "footer digest 3f6bc962e75061f1 != payload digest 786f000130b60ee1\n"
        ));
}

#[test]
fn trace_replay_reads_a_pipe_as_it_reads_a_file() {
    // Host throughput lines are not deterministic.
    let timed = |out: std::process::Output| {
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        text.lines().filter(|l| !l.trim_start().starts_with("host:")).collect::<Vec<_>>().join("\n")
    };
    for (name, form) in [("piped.btrace", None), ("piped.jsonl", Some("--jsonl"))] {
        let path = tmp(name);
        let path_str = path.to_str().expect("UTF-8 temp path");
        let record = braidsim().args(["trace-record", "@dot_product", path_str]).args(form).output();
        assert_eq!(record.expect("runs").status.code(), Some(0));
        let from_file = timed(braidsim().args(["trace-replay", path_str]).output().expect("runs"));
        let mut child = braidsim()
            .args(["trace-replay", "/dev/stdin"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns");
        let bytes = std::fs::read(&path).expect("trace written");
        child.stdin.take().expect("piped stdin").write_all(&bytes).expect("pipe accepts the trace");
        let from_pipe = timed(child.wait_with_output().expect("runs"));
        assert_eq!(from_pipe, from_file, "{name}");
    }
}
