//! Declarative sweep grids: (workload × core × config) cross products.
//!
//! A [`SweepSpec`] names the axes; [`SweepSpec::expand`] flattens them
//! into a deterministic list of [`GridPoint`]s, one per simulation. The
//! expansion order is fixed (workloads outermost, then cores, widths,
//! BEUs, FIFO depths, windows, bypasses, execution tiers), so a grid
//! index identifies the same point on every run and every thread count —
//! resume and deterministic aggregation both key off it.
//!
//! An axis value of `0` means "the model's paper default" for that knob.
//! Axes a core model ignores (BEUs on anything but the braid machine,
//! FIFO depth and bypass bandwidth on the in-order core) are collapsed to
//! their first value for that core, so the grid never contains two points
//! that would run the identical simulation.

use std::fmt;

use braid_core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid_core::{CoreConfig, SamplingConfig, Tier};

/// Largest accepted machine width. A width sizes the slot ring and every
/// per-cycle structure of a core; the paper and the repo's sweeps go up to
/// 16, and at 64 `@dot_product` runs on all four cores in 128 MiB of
/// address space.
pub const MAX_WIDTH: u32 = 64;

/// Largest accepted instruction window (the in-flight limit, or the braid
/// machine's BEU scheduling window). The 16-wide paper machines keep 512
/// instructions in flight.
pub const MAX_WINDOW: u32 = 4096;

/// Largest accepted BEU count of the braid machine; its paper-wide
/// configuration has one BEU per unit of width.
pub const MAX_BEUS: u32 = MAX_WIDTH;

/// Which timing core a grid point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreModel {
    /// The in-order baseline.
    InOrder,
    /// FIFO dependence-based steering (Palacharla-style).
    DepSteer,
    /// The conventional out-of-order machine.
    Ooo,
    /// The braid microarchitecture.
    Braid,
}

impl CoreModel {
    /// Every model, in the canonical (Figure 13) order.
    pub const ALL: [CoreModel; 4] =
        [CoreModel::InOrder, CoreModel::DepSteer, CoreModel::Ooo, CoreModel::Braid];

    /// The short stable name used in keys, JSON, and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            CoreModel::InOrder => "inorder",
            CoreModel::DepSteer => "dep",
            CoreModel::Ooo => "ooo",
            CoreModel::Braid => "braid",
        }
    }

    /// Parses a CLI/JSON name (the inverse of [`CoreModel::name`]).
    pub fn parse(s: &str) -> Option<CoreModel> {
        match s {
            "inorder" | "io" => Some(CoreModel::InOrder),
            "dep" | "depsteer" => Some(CoreModel::DepSteer),
            "ooo" => Some(CoreModel::Ooo),
            "braid" => Some(CoreModel::Braid),
            _ => None,
        }
    }

    /// The paper configuration of this core at `width` (the builders'
    /// `paper_wide`), with the perfect front end and caches of Figure 1
    /// when `perfect` is set. Width 8 is each core's paper default, and
    /// width 0 means that default on every front end.
    pub fn paper_config(self, width: u32, perfect: bool) -> CoreConfig {
        let width = if width == 0 { 8 } else { width };
        let mut core = match self {
            CoreModel::InOrder => CoreConfig::InOrder(InOrderConfig::paper_wide(width)),
            CoreModel::DepSteer => CoreConfig::Dep(DepConfig::paper_wide(width)),
            CoreModel::Ooo => CoreConfig::Ooo(OooConfig::paper_wide(width)),
            CoreModel::Braid => CoreConfig::Braid(BraidConfig::paper_wide(width)),
        };
        if perfect {
            let common = core.common_mut();
            *common = common.clone().perfect();
        }
        core
    }
}

impl fmt::Display for CoreModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative sweep: the cross product of every non-empty axis.
///
/// Empty numeric axes behave as `[0]` ("paper default"). `workloads` and
/// `cores` must be non-empty for the grid to contain any points.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name; names the snapshot and aggregate files under `results/`.
    pub name: String,
    /// Workload names, resolved via `braid_workloads::by_name_any`.
    pub workloads: Vec<String>,
    /// Core models to run.
    pub cores: Vec<CoreModel>,
    /// Machine widths (`0` = the model's 8-wide paper default).
    pub widths: Vec<u32>,
    /// Braid execution unit counts (braid only; `0` = default).
    pub beus: Vec<u32>,
    /// Issue-queue depths: BEU/dep FIFO entries, ooo scheduler entries
    /// (`0` = default; the in-order core ignores this axis).
    pub fifo_depths: Vec<u32>,
    /// Instruction windows: braid in-order scheduling window, max
    /// in-flight instructions elsewhere (`0` = default).
    pub windows: Vec<u32>,
    /// Bypass network bandwidths in values/cycle (`0` = default; the
    /// in-order core ignores this axis).
    pub bypasses: Vec<u32>,
    /// Dynamic-length scale for synthetic suite workloads (kernels ignore
    /// it).
    pub scale: f64,
    /// Run with the perfect front end and perfect caches of Figure 1.
    pub perfect: bool,
    /// Execution tiers to run each point at (empty = `[Tier::Full]`,
    /// which also keeps the grid digest identical to pre-tier sweeps).
    /// [`Tier::Sampled`] points run the full tier too and carry the
    /// estimated-vs-exact IPC error.
    pub tiers: Vec<Tier>,
}

impl SweepSpec {
    /// A spec with every numeric axis at the paper default, all four
    /// cores, no workloads, and a small scale suitable for smoke runs.
    pub fn new(name: &str) -> SweepSpec {
        SweepSpec {
            name: name.to_string(),
            workloads: Vec::new(),
            cores: CoreModel::ALL.to_vec(),
            widths: Vec::new(),
            beus: Vec::new(),
            fifo_depths: Vec::new(),
            windows: Vec::new(),
            bypasses: Vec::new(),
            scale: 0.05,
            perfect: false,
            tiers: Vec::new(),
        }
    }

    /// Flattens the spec into grid points in the fixed expansion order.
    pub fn expand(&self) -> Vec<GridPoint> {
        fn axis(values: &[u32]) -> Vec<u32> {
            if values.is_empty() {
                vec![0]
            } else {
                values.to_vec()
            }
        }
        /// Collapses an axis the core ignores to its first value.
        fn effective(values: &[u32], applies: bool) -> &[u32] {
            if applies || values.len() <= 1 {
                values
            } else {
                &values[..1]
            }
        }

        let widths = axis(&self.widths);
        let beus = axis(&self.beus);
        let fifos = axis(&self.fifo_depths);
        let windows = axis(&self.windows);
        let bypasses = axis(&self.bypasses);
        let tiers = if self.tiers.is_empty() { vec![Tier::Full] } else { self.tiers.clone() };

        let mut points = Vec::new();
        for workload in &self.workloads {
            for &core in &self.cores {
                let is_braid = core == CoreModel::Braid;
                let is_inorder = core == CoreModel::InOrder;
                for &width in &widths {
                    for &beus in effective(&beus, is_braid) {
                        for &fifo in effective(&fifos, !is_inorder) {
                            for &window in &windows {
                                for &bypass in effective(&bypasses, !is_inorder) {
                                    for &tier in &tiers {
                                        points.push(GridPoint {
                                            index: points.len() as u32,
                                            workload: workload.clone(),
                                            core,
                                            width,
                                            beus,
                                            fifo,
                                            window,
                                            bypass,
                                            scale: self.scale,
                                            perfect: self.perfect,
                                            tier,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// A stable hex digest of everything that affects the grid and its
    /// results (axes, scale, perfect mode — not the name). Snapshots carry
    /// it so resume refuses to mix results from a different grid.
    pub fn digest(&self) -> String {
        let mut canon = String::new();
        canon.push_str("workloads=");
        canon.push_str(&self.workloads.join(","));
        canon.push_str(";cores=");
        for c in &self.cores {
            canon.push_str(c.name());
            canon.push(',');
        }
        for (label, axis) in [
            ("widths", &self.widths),
            ("beus", &self.beus),
            ("fifos", &self.fifo_depths),
            ("windows", &self.windows),
            ("bypasses", &self.bypasses),
        ] {
            canon.push(';');
            canon.push_str(label);
            canon.push('=');
            for v in axis {
                canon.push_str(&v.to_string());
                canon.push(',');
            }
        }
        canon.push_str(&format!(";scale={};perfect={}", self.scale, self.perfect));
        // Appended only for non-default tier axes so pre-tier snapshots
        // (whose specs could not name tiers at all) keep their digests.
        if !self.tiers.is_empty() && self.tiers != [Tier::Full] {
            canon.push_str(";tiers=");
            for t in &self.tiers {
                canon.push_str(t.name());
                canon.push(',');
            }
        }
        // Sampled points depend on the sampling schedule too, so a
        // snapshot taken under another schedule is refused, not reused.
        if self.tiers.contains(&Tier::Sampled) {
            canon.push_str(";sampling=");
            canon.push_str(&SamplingConfig::default().digest_key());
        }
        crate::digest::hex(canon.as_bytes())
    }
}

/// One simulation of the grid: a workload on a core with concrete knobs.
///
/// Numeric knobs of `0` mean "the model's paper default".
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Position in the expansion order; the stable sort key for
    /// aggregation and the resume index.
    pub index: u32,
    /// Workload name.
    pub workload: String,
    /// Core model.
    pub core: CoreModel,
    /// Machine width.
    pub width: u32,
    /// Braid execution units (braid only).
    pub beus: u32,
    /// Issue-queue depth (FIFO / scheduler entries).
    pub fifo: u32,
    /// Instruction window.
    pub window: u32,
    /// Bypass bandwidth in values/cycle.
    pub bypass: u32,
    /// Synthetic-suite scale.
    pub scale: f64,
    /// Perfect front end and caches.
    pub perfect: bool,
    /// Execution tier this point runs at.
    pub tier: Tier,
}

impl GridPoint {
    /// A human-readable key unique within the grid, e.g.
    /// `dot_product:braid:w8:b4:f16:v2:y2`. Non-full tiers append a
    /// `:t<tier>` suffix; full-tier keys are identical to pre-tier keys so
    /// old snapshots still resume. Snapshots store it next to the index as
    /// a corruption check.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}:{}:w{}:b{}:f{}:v{}:y{}",
            self.workload, self.core, self.width, self.beus, self.fifo, self.window, self.bypass
        );
        if self.tier != Tier::Full {
            key.push_str(":t");
            key.push_str(self.tier.name());
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_names_round_trip() {
        for c in CoreModel::ALL {
            assert_eq!(CoreModel::parse(c.name()), Some(c));
        }
        assert_eq!(CoreModel::parse("nonesuch"), None);
    }

    #[test]
    fn eight_wide_paper_config_is_the_paper_default() {
        let defaults = [
            format!("{:?}", CoreConfig::InOrder(InOrderConfig::paper_8wide())),
            format!("{:?}", CoreConfig::Dep(DepConfig::paper_8wide())),
            format!("{:?}", CoreConfig::Ooo(OooConfig::paper_8wide())),
            format!("{:?}", CoreConfig::Braid(BraidConfig::paper_default())),
        ];
        for (core, default) in CoreModel::ALL.into_iter().zip(defaults) {
            assert_eq!(format!("{:?}", core.paper_config(8, false)), default, "{core}");
            assert_eq!(format!("{:?}", core.paper_config(0, false)), default, "{core} at 0");
        }
    }

    #[test]
    fn default_axes_give_one_point_per_workload_core() {
        let mut spec = SweepSpec::new("t");
        spec.workloads = vec!["a".into(), "b".into()];
        let pts = spec.expand();
        assert_eq!(pts.len(), 2 * 4);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index as usize, i);
        }
    }

    #[test]
    fn ignored_axes_collapse_without_duplicate_points() {
        let mut spec = SweepSpec::new("t");
        spec.workloads = vec!["a".into()];
        spec.beus = vec![4, 8];
        spec.bypasses = vec![2, 4];
        let pts = spec.expand();
        // braid: 2 beus × 2 bypasses; ooo/dep: 1 × 2; inorder: 1 × 1.
        assert_eq!(pts.len(), 4 + 2 + 2 + 1);
        let keys: std::collections::HashSet<String> = pts.iter().map(GridPoint::key).collect();
        assert_eq!(keys.len(), pts.len(), "keys are unique");
    }

    #[test]
    fn expansion_order_is_stable() {
        let mut spec = SweepSpec::new("t");
        spec.workloads = vec!["x".into()];
        spec.cores = vec![CoreModel::Braid];
        spec.widths = vec![4, 8];
        spec.windows = vec![2, 4];
        let keys: Vec<String> = spec.expand().iter().map(GridPoint::key).collect();
        assert_eq!(
            keys,
            [
                "x:braid:w4:b0:f0:v2:y0",
                "x:braid:w4:b0:f0:v4:y0",
                "x:braid:w8:b0:f0:v2:y0",
                "x:braid:w8:b0:f0:v4:y0",
            ]
        );
    }

    #[test]
    fn tier_axis_expands_with_suffixed_keys() {
        let mut spec = SweepSpec::new("t");
        spec.workloads = vec!["x".into()];
        spec.cores = vec![CoreModel::Ooo];
        spec.tiers = vec![Tier::Full, Tier::Func, Tier::Sampled];
        let keys: Vec<String> = spec.expand().iter().map(GridPoint::key).collect();
        assert_eq!(
            keys,
            [
                "x:ooo:w0:b0:f0:v0:y0",
                "x:ooo:w0:b0:f0:v0:y0:tfunc",
                "x:ooo:w0:b0:f0:v0:y0:tsampled",
            ]
        );
    }

    #[test]
    fn full_only_tier_axis_keeps_pre_tier_digest_and_keys() {
        let mut bare = SweepSpec::new("t");
        bare.workloads = vec!["x".into()];
        let mut explicit = bare.clone();
        explicit.tiers = vec![Tier::Full];
        assert_eq!(bare.digest(), explicit.digest());
        assert_eq!(
            bare.expand().iter().map(GridPoint::key).collect::<Vec<_>>(),
            explicit.expand().iter().map(GridPoint::key).collect::<Vec<_>>(),
        );
        let mut sampled = bare.clone();
        sampled.tiers = vec![Tier::Sampled];
        assert_ne!(bare.digest(), sampled.digest());
    }

    #[test]
    fn digest_tracks_grid_changes_only() {
        let mut a = SweepSpec::new("one");
        a.workloads = vec!["x".into()];
        let mut b = a.clone();
        b.name = "two".into();
        assert_eq!(a.digest(), b.digest(), "name does not change the grid");
        b.widths = vec![4];
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.scale = 0.1;
        assert_ne!(a.digest(), c.digest());
    }
}
