//! Figures time the prepared suite they are handed: a cell of a figure is
//! the full-tier run of that prepared program, at the suite's own scale,
//! even when the process has already timed the same workload at another
//! scale (cells are timed once per process, keyed by program content).

use braid::core::processor::run_full;
use braid::core::NoopObserver;
use braid::sweep::CoreModel;
use braid_bench::experiments as exp;
use braid_bench::prepare;

#[test]
fn widthsweep_cells_time_the_prepared_programs() {
    let suite: Vec<_> = ["gcc", "swim"]
        .iter()
        .map(|n| prepare(braid::workloads::by_name(n, 0.05).expect("known benchmark")))
        .collect();
    let t = exp::widthsweep(&suite);
    let col = t.headers.iter().position(|h| h == "ooo8").expect("an 8-wide ooo column") - 1;
    let core = CoreModel::Ooo.paper_config(8, false);
    for p in &suite {
        let want = run_full(&p.workload.program, &core, p.workload.fuel, &mut NoopObserver)
            .expect("runs")
            .ipc();
        let row = t.row(&p.workload.name).expect("one row per workload");
        assert_eq!(row.values[col], want, "{}: ooo8 cell", p.workload.name);
    }
}

#[test]
fn one_process_keeps_two_scales_of_a_workload_apart() {
    let core = CoreModel::Ooo.paper_config(8, false);
    let mut seen = Vec::new();
    for scale in [0.05, 0.1, 0.05] {
        let p = prepare(braid::workloads::by_name("gcc", scale).expect("known benchmark"));
        let t = exp::widthsweep(std::slice::from_ref(&p));
        let col = t.headers.iter().position(|h| h == "ooo8").expect("an ooo8 column") - 1;
        let want = run_full(&p.workload.program, &core, p.workload.fuel, &mut NoopObserver)
            .expect("runs")
            .ipc();
        assert_eq!(t.row("gcc").expect("a gcc row").values[col], want, "scale {scale}");
        seen.push(want);
    }
    assert_ne!(seen[0], seen[1], "the two scales must time differently");
}
