//! Deterministic JSON renderings of reports, CPI stacks and collector
//! state.
//!
//! Everything here builds [`Json`] values with `braid-sweep`'s
//! dependency-free writer, so the output is byte-stable across runs and
//! thread counts. The one intentionally omitted field is
//! `SimReport::host_nanos`: it measures host wall-clock time, is different
//! on every run, and would break byte-for-byte comparisons of otherwise
//! identical simulations — consumers that want host throughput can time
//! the simulator themselves.

use braid_core::{CpiStack, SimReport, Tier, TierReport};
use braid_isa::Program;
use braid_sweep::json::Json;
use braid_uarch::{Histogram, Ratio};

use crate::record::PipelineObserver;

fn ratio_json(r: &Ratio) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::Int(r.hits())),
        ("total".into(), Json::Int(r.total())),
        ("rate".into(), Json::Float(r.rate())),
    ])
}

/// Renders a CPI stack as an object keyed by [`StallCause::key`]
/// (canonical order, zero entries included so consumers see the full
/// taxonomy).
///
/// [`StallCause::key`]: braid_core::StallCause::key
pub fn cpi_json(cpi: &CpiStack) -> Json {
    Json::Obj(cpi.iter().map(|(c, n)| (c.key().to_string(), Json::Int(n))).collect())
}

/// Renders a histogram's summary statistics (sample count, mean, max and
/// the 50th/90th/99th percentiles; `max`/percentiles are `null` when
/// empty).
pub fn hist_json(h: &Histogram) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::Int);
    Json::Obj(vec![
        ("samples".into(), Json::Int(h.total())),
        ("mean".into(), Json::Float(h.mean())),
        ("max".into(), opt(h.max())),
        ("p50".into(), opt(h.percentile_checked(0.5))),
        ("p90".into(), opt(h.percentile_checked(0.9))),
        ("p99".into(), opt(h.percentile_checked(0.99))),
    ])
}

/// Renders a full [`SimReport`] as deterministic JSON.
///
/// Every field is included **except `host_nanos`** (host wall-clock time,
/// not deterministic — see the module docs). Derived conveniences (`ipc`,
/// `stall_total`) are included so downstream tooling does not have to
/// recompute them.
pub fn report_json(r: &SimReport) -> Json {
    Json::Obj(vec![
        ("cycles".into(), Json::Int(r.cycles)),
        ("instructions".into(), Json::Int(r.instructions)),
        ("ipc".into(), Json::Float(r.ipc())),
        ("branch_accuracy".into(), ratio_json(&r.branch_accuracy)),
        ("ras_accuracy".into(), ratio_json(&r.ras_accuracy)),
        ("l1i".into(), ratio_json(&r.l1i)),
        ("l1d".into(), ratio_json(&r.l1d)),
        ("l2".into(), ratio_json(&r.l2)),
        ("forwarded_loads".into(), Json::Int(r.forwarded_loads)),
        ("mispredict_stall_cycles".into(), Json::Int(r.mispredict_stall_cycles)),
        ("stall_regs".into(), Json::Int(r.stall_regs)),
        ("stall_window".into(), Json::Int(r.stall_window)),
        ("stall_lsq".into(), Json::Int(r.stall_lsq)),
        ("lsq_wait_events".into(), Json::Int(r.lsq_wait_events)),
        ("stall_alloc_bw".into(), Json::Int(r.stall_alloc_bw)),
        ("stall_total".into(), Json::Int(r.stall_total())),
        ("external_values_per_cycle".into(), Json::Float(r.external_values_per_cycle)),
        ("checkpoint_words".into(), Json::Int(r.checkpoint_words)),
        ("exceptions_taken".into(), Json::Int(r.exceptions_taken)),
        ("retire_slots".into(), Json::Int(r.retire_slots)),
        ("cpi".into(), cpi_json(&r.cpi)),
    ])
}

/// Renders a functional- or sampled-tier [`TierReport`] as deterministic
/// JSON: `lead` first (braidsim names the core, braidd the workload), then
/// `tier`, the instruction count and the tier's own fields. Host time is
/// excluded and IPC is integer micro-IPC, so the bytes are host-stable:
/// braidd's cache hits and `braid-loadgen --verify` compare them.
///
/// # Panics
///
/// Panics on a [`TierReport::Full`]; render that with [`report_json`].
pub fn tier_json(lead: (&str, &str), tier: Tier, rep: &TierReport) -> Json {
    let mut fields = vec![
        (lead.0.into(), Json::Str(lead.1.into())),
        ("tier".into(), Json::Str(tier.name().into())),
        ("instructions".into(), Json::Int(rep.instructions())),
    ];
    match rep {
        TierReport::Full(_) => panic!("full-tier reports render through report_json"),
        TierReport::Func(r) => {
            fields.push(("digest".into(), Json::Str(format!("{:016x}", r.digest))));
        }
        TierReport::Sampled(r) => {
            fields.push(("est_cycles".into(), Json::Int(r.est_cycles)));
            fields.push(("est_ipc_micro".into(), Json::Int((r.est_ipc() * 1e6).round() as u64)));
            fields.push(("intervals".into(), Json::Int(r.intervals)));
            fields.push(("timed_insts".into(), Json::Int(r.timed_insts)));
            fields.push(("measured_insts".into(), Json::Int(r.measured_insts)));
            fields.push(("measured_cycles".into(), Json::Int(r.measured_cycles)));
            fields.push(("overhead_cycles".into(), Json::Int(r.overhead_cycles)));
            // Only sparse runs have one, so fully windowed reports keep
            // their bytes.
            if let Some(ci) = r.ci95_cycles {
                fields.push(("ci95_cycles".into(), Json::Int(ci)));
            }
            fields.push(("cpi".into(), cpi_json(&r.cpi)));
        }
    }
    Json::Obj(fields)
}

/// Renders the collector's full state — occupancy timelines, hotspots,
/// per-braid profiles and event totals — together with the run's report.
///
/// `program` must be the program the core actually ran (for the braid
/// machine, the *translated* program), so hotspot indices resolve to the
/// right disassembly and braid ids.
pub fn metrics_json(
    program: &Program,
    core: &str,
    report: &SimReport,
    obs: &PipelineObserver,
) -> Json {
    let braid_of = program.braid_ids();

    let units = Json::Arr(
        obs.unit_histograms()
            .iter()
            .map(|(unit, h)| {
                Json::Obj(vec![
                    ("unit".into(), Json::Int(*unit as u64)),
                    ("occupancy".into(), hist_json(h)),
                ])
            })
            .collect(),
    );

    // Hotspots: hottest first, index ascending on ties (deterministic).
    let mut hot: Vec<(u32, u64)> = obs.hotspots().iter().map(|(&i, &n)| (i, n)).collect();
    hot.sort_by_key(|&(idx, n)| (std::cmp::Reverse(n), idx));
    let hotspots = Json::Arr(
        hot.iter()
            .map(|&(idx, stall)| {
                let text = program
                    .insts
                    .get(idx as usize)
                    .map_or_else(|| "<unknown>".to_string(), |i| i.to_string());
                let braid = braid_of.get(idx as usize).copied().unwrap_or(0);
                Json::Obj(vec![
                    ("idx".into(), Json::Int(idx as u64)),
                    ("inst".into(), Json::Str(text)),
                    ("braid".into(), Json::Int(braid as u64)),
                    ("head_stall_cycles".into(), Json::Int(stall)),
                ])
            })
            .collect(),
    );

    // Fold per-PC hotspots into per-braid profiles.
    let mut by_braid: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for &(idx, stall) in &hot {
        let b = braid_of.get(idx as usize).copied().unwrap_or(0);
        *by_braid.entry(b).or_insert(0) += stall;
    }
    let braids = Json::Arr(
        by_braid
            .iter()
            .map(|(&b, &stall)| {
                Json::Obj(vec![
                    ("braid".into(), Json::Int(b as u64)),
                    ("head_stall_cycles".into(), Json::Int(stall)),
                ])
            })
            .collect(),
    );

    Json::Obj(vec![
        ("program".into(), Json::Str(program.name.clone())),
        ("core".into(), Json::Str(core.to_string())),
        ("report".into(), report_json(report)),
        ("events".into(), Json::Obj(vec![
            ("records".into(), Json::Int(obs.records().len() as u64)),
            ("retired".into(), Json::Int(obs.retired_count())),
            ("flushed".into(), Json::Int(obs.flushed_count())),
            ("squashes".into(), Json::Int(obs.squashes())),
        ])),
        ("unit_occupancy".into(), units),
        ("lsq_occupancy".into(), hist_json(obs.lsq_histogram())),
        ("hotspots".into(), hotspots),
        ("braids".into(), braids),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_core::{Observer, StallCause};

    #[test]
    fn report_json_excludes_host_nanos_and_round_trips() {
        let mut r = SimReport { cycles: 10, instructions: 20, host_nanos: 12345, ..SimReport::default() };
        r.cpi.add(StallCause::Base, 7);
        r.cpi.add(StallCause::DCache, 3);
        let v = report_json(&r);
        let text = v.to_string();
        assert!(!text.contains("host_nanos"), "{text}");
        assert!(!text.contains("12345"), "{text}");
        let back = braid_sweep::json::parse(&text).expect("round-trips");
        assert_eq!(back.get("cycles").and_then(Json::as_u64), Some(10));
        assert_eq!(back.get("cpi").and_then(|c| c.get("dcache")).and_then(Json::as_u64), Some(3));
        assert_eq!(back.get("cpi").and_then(|c| c.get("regs")).and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn report_json_is_insensitive_to_host_nanos() {
        let a = SimReport { cycles: 5, host_nanos: 1, ..SimReport::default() };
        let b = SimReport { cycles: 5, host_nanos: 999_999, ..SimReport::default() };
        assert_eq!(report_json(&a).to_string(), report_json(&b).to_string());
    }

    #[test]
    fn hist_json_handles_empty_and_filled() {
        let empty = hist_json(&Histogram::new());
        assert_eq!(empty.get("max"), Some(&Json::Null));
        let h: Histogram = (1..=100).collect();
        let v = hist_json(&h);
        assert_eq!(v.get("p50").and_then(Json::as_u64), Some(50));
        assert_eq!(v.get("samples").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn metrics_json_sorts_hotspots_and_folds_braids() {
        let program = braid_isa::asm::assemble("addi r0, #1, r1\naddq r1, r1, r2\nhalt")
            .expect("assembles");
        let mut o = PipelineObserver::new();
        o.cycle_cause(0, 2, StallCause::DCache, 0);
        o.cycle_cause(2, 9, StallCause::BeuSerial, 1);
        o.unit_occupancy(0, 3);
        let v = metrics_json(&program, "ooo", &SimReport::default(), &o);
        let hot = v.get("hotspots").and_then(Json::as_arr).expect("hotspot array");
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].get("idx").and_then(Json::as_u64), Some(1), "hottest first");
        assert_eq!(hot[0].get("head_stall_cycles").and_then(Json::as_u64), Some(9));
        assert!(hot[0].get("inst").and_then(Json::as_str).expect("text").contains("addq"));
        let braids = v.get("braids").and_then(Json::as_arr).expect("braid array");
        assert_eq!(braids.len(), 2, "two braids carry stalls");
        let text = v.to_string();
        assert_eq!(braid_sweep::json::parse(&text).expect("round-trips").to_string(), text);
    }
}
