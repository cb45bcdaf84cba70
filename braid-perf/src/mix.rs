//! The `serve-mix` request generator.
//!
//! It lives here rather than in `braid-serve`'s load generator so that the
//! workload cannot drift when that code changes. About 70% of requests
//! come from a finite hot key space (kernel `simulate` across tiers, cores
//! and widths, plus `translate` and `check`), which the daemon's cache
//! serves after first sight; the rest are full-tier `simulate` requests on
//! synthetic programs, each with a cache key no earlier request had, so
//! every one of them misses the cache.

use braid_prng::Rng;

const KERNELS: [&str; 5] = [
    "dot_product",
    "fig2_life",
    "stencil",
    "pointer_chase",
    "histogram",
];
const CORES: [&str; 4] = ["inorder", "dep", "ooo", "braid"];
const WIDTHS: [u32; 3] = [0, 4, 8];
const TIERS: [&str; 3] = ["full", "func", "sampled"];
/// Share of requests drawn from the hot key space.
const HOT_SHARE: f64 = 0.7;

/// One request of the mix, without its id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixRequest {
    /// The request's fields after `id`, starting with `,"kind":…`.
    pub body: String,
    /// Whether it comes from the hot key space.
    pub hot: bool,
}

impl MixRequest {
    /// The wire line for request `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id}{}}}", self.body)
    }
}

/// Every hot request, each exactly once, in a fixed order.
pub fn hot_keys() -> Vec<MixRequest> {
    let mut v = Vec::new();
    for w in KERNELS {
        for core in CORES {
            for width in WIDTHS {
                for tier in TIERS {
                    v.push(format!(
                        ",\"kind\":\"simulate\",\"workload\":\"{w}\",\"core\":\"{core}\",\
                         \"width\":{width},\"tier\":\"{tier}\""
                    ));
                }
            }
        }
        v.push(format!(",\"kind\":\"translate\",\"workload\":\"{w}\""));
        v.push(format!(",\"kind\":\"check\",\"workload\":\"{w}\""));
    }
    v.into_iter()
        .map(|body| MixRequest { body, hot: true })
        .collect()
}

/// Simulated-cycle deadline of unique request `i`: far beyond any run, so
/// it never fires, and distinct, so the request's cache key is new. A
/// distinct scale alone would not do: nearby scales round to the same
/// iteration counts, and braidd keys its cache on program content.
fn unique_deadline(i: usize) -> u64 {
    1_000_000_000_000 + i as u64
}

/// `n` requests drawn from `seed`. Unique requests pick a synthetic
/// workload, a core and a scale in [0.05, 0.15].
pub fn generate(seed: u64, n: usize) -> Vec<MixRequest> {
    let hot = hot_keys();
    let names: Vec<&str> = braid_workloads::PROFILES.iter().map(|p| p.name).collect();
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if rng.next_f64() < HOT_SHARE {
                return rng.choose(&hot).clone();
            }
            let workload = *rng.choose(&names);
            let core = *rng.choose(&CORES);
            let scale = 0.05 + 0.1 * rng.next_f64();
            let deadline = unique_deadline(i);
            let body = format!(
                ",\"kind\":\"simulate\",\"workload\":\"{workload}\",\"core\":\"{core}\",\
                 \"scale\":{scale:.5},\"deadline\":{deadline},\"tier\":\"full\""
            );
            MixRequest { body, hot: false }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let a = generate(42, 200);
        assert_eq!(a, generate(42, 200));
        assert_ne!(a, generate(43, 200));
        let hot = a.iter().filter(|r| r.hot).count();
        assert!((110..=170).contains(&hot), "about 70% hot, got {hot}/200");
        let unique: BTreeSet<&str> = a
            .iter()
            .filter(|r| !r.hot)
            .map(|r| r.body.as_str())
            .collect();
        assert_eq!(unique.len(), 200 - hot, "no unique request repeats");
    }

    #[test]
    fn hot_lines_parse_as_requests() {
        for (i, r) in hot_keys()
            .iter()
            .enumerate()
            .chain(generate(1, 20).iter().enumerate())
        {
            let line = r.line(i as u64);
            braid_serve::parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }
}
