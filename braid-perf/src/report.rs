//! The run result: metric lines for people, one JSON line for machines.

use std::fs;
use std::io;
use std::path::Path;

use braid_sweep::json::Json;

use crate::span::Span;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (cells, sweeps, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Why each failure counted, for the log.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest over every simulated cycle count of the run.
    pub sim_stats_digest: Option<u64>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Adds a metric.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object: `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.attempted)),
            ("failed".into(), Json::Int(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Prints one line per failure and per metric (workload, name,
    /// value, unit, sample count), then the digest, then the result
    /// object as the last line of standard output.
    pub fn print(&self, workload: &str) {
        for why in &self.failures {
            println!("{workload} FAILED {why}");
        }
        for m in &self.metrics {
            println!(
                "{workload} {} {} {} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        if let Some(d) = self.sim_stats_digest {
            println!("{workload} sim_stats_digest {d:016x}");
        }
        println!("{}", self.to_json().compact());
    }

    /// Writes `<dir>/<label>.json` (the result plus sample counts) and
    /// `<dir>/<label>.spans.jsonl`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of either write.
    pub fn write(&self, dir: &Path, label: &str) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let samples = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), Json::Int(m.samples as u64)))
            .collect();
        let mut doc = self.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.push(("samples".into(), Json::Obj(samples)));
            if let Some(d) = self.sim_stats_digest {
                fields.push(("sim_stats_digest".into(), Json::Str(format!("{d:016x}"))));
            }
        }
        fs::write(dir.join(format!("{label}.json")), format!("{doc}\n"))?;
        let spans: String = self
            .spans
            .iter()
            .map(|s| s.to_json().compact() + "\n")
            .collect();
        fs::write(dir.join(format!("{label}.spans.jsonl")), spans)
    }
}

/// Incremental FNV-1a 64 over a stream of `u64`s.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes in one value (little-endian bytes).
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_shared_byte_digest() {
        let mut f = Fnv::default();
        f.add(0x0102_0304_0506_0708);
        let bytes = 0x0102_0304_0506_0708u64.to_le_bytes();
        assert_eq!(f.finish(), braid_sweep::digest::fnv1a64(&bytes));
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.push("op_ms", 1.25, "ms", 3);
        let doc = r.to_json();
        let Json::Obj(fields) = &doc else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.compact(),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
