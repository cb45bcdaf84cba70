//! `braid-perf compare A.json B.json`: per (metric, workload) verdicts
//! between two series of runs, by the rules the bounds in
//! `BENCHMARK.json` were set for.
//!
//! * **better** — B wins at least nine tenths of the pairs (ties count for
//!   neither) and the medians differ by more than A's interquartile
//!   range; or A's spread exceeds the bound but every B run beats every A
//!   run.
//! * **unresolved** — the run-to-run spread is wider than the bound.
//! * **worse** — B's median is worse than A's by more than the bound.
//! * **same** — none of the above.

use std::collections::BTreeMap;
use std::fmt;

use braid_sweep::json::Json;

use crate::stats::{median, quartiles};

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improved on A.
    Better,
    /// No change beyond the bound.
    Same,
    /// B regressed beyond the bound.
    Worse,
    /// The spread is too wide to tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges series `b` against series `a` (pairs are the runs at equal
/// positions). `bound` is the share of A's median by which B may be worse.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (Some(ma), Some(mb), Some((a1, a3)), Some((b1, b3))) =
        (median(a), median(b), quartiles(a), quartiles(b))
    else {
        return Verdict::Unresolved;
    };
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * (*y - *x) > 0.0)
        .count();
    let gain = sign * (mb - ma);
    if wins * 10 >= pairs * 9 && gain > a3 - a1 {
        return Verdict::Better;
    }
    let spread = ((a3 - a1) / ma.abs()).max((b3 - b1) / mb.abs());
    if spread > bound {
        let worst_b = b.iter().map(|y| sign * y).fold(f64::INFINITY, f64::min);
        let best_a = a.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
        return if worst_b > best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Direction and bound of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds(spec: &Json) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), (better == "higher", bound)))
        })
        .collect()
}

/// Values per (workload, metric) of a series file, in run order.
pub fn series_values(doc: &Json) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("series file has no `runs`")?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{workload}: run without metrics"));
        };
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Renders the comparison table; returns it with whether every pair read
/// "same" or "better".
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let bounds = bounds(spec)?;
    let (va, vb) = (series_values(a)?, series_values(b)?);
    let mut text = String::new();
    let mut ok = true;
    let q = |v: &[f64]| {
        let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        format!(
            "{:.4} [{:.4}, {:.4}] n={}",
            median(v).unwrap_or(f64::NAN),
            q1,
            q3,
            v.len()
        )
    };
    for ((workload, metric), xs) in &va {
        let Some(&(higher, bound)) = bounds.get(metric) else {
            continue;
        };
        let ys = vb
            .get(&(workload.clone(), metric.clone()))
            .map_or(&[][..], Vec::as_slice);
        let v = verdict(xs, ys, higher, bound);
        ok &= matches!(v, Verdict::Same | Verdict::Better);
        let wins = xs
            .iter()
            .zip(ys)
            .filter(|(x, y)| if higher { y > x } else { y < x })
            .count();
        text.push_str(&format!(
            "{workload:<12} {metric:<18} A {} | B {} | B wins {wins}/{} | bound {bound} | {v}\n",
            q(xs),
            q(ys),
            xs.len().min(ys.len())
        ));
    }
    Ok((text, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center * (1.0 + j)).collect()
    }

    const NOISE: [f64; 10] = [
        0.01, -0.01, 0.005, -0.005, 0.0, 0.008, -0.008, 0.003, -0.003, 0.002,
    ];
    const SHUFFLED: [f64; 10] = [
        -0.005, 0.008, 0.0, 0.01, -0.003, 0.002, -0.01, 0.005, 0.003, -0.008,
    ];

    #[test]
    fn verdict_table() {
        let a = around(100.0, &NOISE);
        let cases: [(&str, Vec<f64>, bool, Verdict); 7] = [
            (
                "same noise, reshuffled",
                around(100.0, &SHUFFLED),
                false,
                Verdict::Same,
            ),
            (
                "20% lower time",
                around(80.0, &NOISE),
                false,
                Verdict::Better,
            ),
            (
                "20% higher throughput",
                around(120.0, &NOISE),
                true,
                Verdict::Better,
            ),
            (
                "20% higher time",
                around(120.0, &NOISE),
                false,
                Verdict::Worse,
            ),
            (
                "5% higher time, inside the bound",
                around(105.0, &NOISE),
                false,
                Verdict::Same,
            ),
            (
                "wide spread, overlapping",
                around(
                    100.0,
                    &[0.3, -0.3, 0.2, -0.2, 0.0, 0.25, -0.25, 0.1, -0.1, 0.05],
                ),
                false,
                Verdict::Unresolved,
            ),
            (
                "wide spread, every run better",
                around(
                    50.0,
                    &[0.3, -0.3, 0.2, -0.2, 0.0, 0.25, -0.25, 0.1, -0.1, 0.05],
                ),
                false,
                Verdict::Better,
            ),
        ];
        for (what, b, higher, want) in cases {
            assert_eq!(verdict(&a, &b, higher, 0.10), want, "{what}");
        }
        assert_eq!(
            verdict(&a, &[], false, 0.10),
            Verdict::Unresolved,
            "no B runs"
        );
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs() {
        let a = around(100.0, &NOISE);
        // Eight of ten pairs won by a median margin wider than A's spread
        // is not a gain; the medians stay within the bound, so "same".
        let mut b = around(95.0, &NOISE);
        b[0] = 101.0;
        b[1] = 101.0;
        assert_eq!(verdict(&a, &b, false, 0.10), Verdict::Same);
    }
}
