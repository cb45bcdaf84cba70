//! Set-associative caches and the simulated memory hierarchy.

use crate::stats::Ratio;

/// Geometry and latency of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's 64KB 4-way 3-cycle instruction cache.
    pub fn paper_l1i() -> CacheConfig {
        CacheConfig { size_bytes: 64 << 10, ways: 4, line_bytes: 64, latency: 3 }
    }

    /// The paper's 64KB 2-way 3-cycle data cache.
    pub fn paper_l1d() -> CacheConfig {
        CacheConfig { size_bytes: 64 << 10, ways: 2, line_bytes: 64, latency: 3 }
    }

    /// The paper's 1MB 8-way 6-cycle unified L2.
    pub fn paper_l2() -> CacheConfig {
        CacheConfig { size_bytes: 1 << 20, ways: 8, line_bytes: 64, latency: 6 }
    }

    fn sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes / self.ways as u64).max(1)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher is more recently used.
    lru: u64,
}

/// Per-cache access statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Hit ratio over all accesses.
    pub hits: Ratio,
    /// Dirty lines evicted (write-backs to the next level).
    pub writebacks: u64,
}

/// One set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// ```
/// use braid_uarch::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::paper_l1d());
/// assert!(!l1.access(0x1000, false)); // cold miss
/// assert!(l1.access(0x1000, false));  // now a hit
/// assert!(l1.access(0x1030, true));   // same 64-byte line
/// ```
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

/// `clone_from` copies into the existing `lines` allocation, so a
/// checkpoint refreshed every sampling interval allocates nothing.
impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache { config: self.config, lines: self.lines.clone(), tick: self.tick, stats: self.stats }
    }

    fn clone_from(&mut self, source: &Cache) {
        self.config = source.config;
        self.lines.clone_from(&source.lines);
        self.tick = source.tick;
        self.stats = source.stats;
    }
}

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or the geometry is
    /// degenerate.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways >= 1 && config.size_bytes >= config.line_bytes);
        let lines = vec![Line::default(); (config.sets() * config.ways as u64) as usize];
        Cache { config, lines, tick: 0, stats: CacheStats::default() }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_range(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr / self.config.line_bytes;
        let set = (line_addr % self.config.sets()) as usize;
        let tag = line_addr / self.config.sets();
        let ways = self.config.ways as usize;
        (set * ways..(set + 1) * ways, tag)
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate the line,
    /// evicting LRU (recording a write-back if the victim was dirty).
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (range, tag) = self.set_range(addr);
        let set = &mut self.lines[range];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.stats.hits.record(true);
            return true;
        }
        self.stats.hits.record(false);
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("cache sets are non-empty");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line { tag, valid: true, dirty: is_write, lru: tick };
        false
    }

    /// Touches `addr` like [`Cache::access`] — allocating on miss and
    /// updating LRU — but without recording statistics. Used for functional
    /// warming, where the access is part of the program's history rather
    /// than the measured window.
    pub fn touch(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (range, tag) = self.set_range(addr);
        let set = &mut self.lines[range];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            return true;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("cache sets are non-empty");
        *victim = Line { tag, valid: true, dirty: is_write, lru: tick };
        false
    }

    /// Probes without modifying replacement state; `true` if present.
    pub fn contains(&self, addr: u64) -> bool {
        let (range, tag) = self.set_range(addr);
        self.lines[range].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything (back to a cold cache), keeping statistics.
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
    }
}

/// The kind of access presented to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Instruction fetch (L1I → L2 → memory).
    Fetch,
    /// Data load (L1D → L2 → memory).
    Load,
    /// Data store (L1D → L2 → memory, write-allocate).
    Store,
}

/// Configuration of the simulated memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryHierarchyConfig {
    /// Instruction cache.
    pub l1i: CacheConfig,
    /// Data cache.
    pub l1d: CacheConfig,
    /// Unified second level.
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles (the paper uses 400).
    pub memory_latency: u64,
    /// Outstanding-miss registers for the data side (`0` = unlimited
    /// memory-level parallelism). When every MSHR is busy, a new miss
    /// waits for the oldest one to retire.
    pub mshrs: u32,
    /// When set, every access hits in L1 (the paper's Figure 1 mode).
    pub perfect: bool,
}

impl Default for MemoryHierarchyConfig {
    fn default() -> MemoryHierarchyConfig {
        MemoryHierarchyConfig {
            l1i: CacheConfig::paper_l1i(),
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            memory_latency: 400,
            mshrs: 0,
            perfect: false,
        }
    }
}

impl MemoryHierarchyConfig {
    /// The perfect-cache configuration of the paper's Figure 1.
    pub fn perfect() -> MemoryHierarchyConfig {
        MemoryHierarchyConfig { perfect: true, ..MemoryHierarchyConfig::default() }
    }
}

/// The two-level cache hierarchy plus main memory (paper Table 4).
///
/// The hierarchy is a latency model: [`MemoryHierarchy::access`] walks the
/// levels, allocates lines, and returns the total access latency in cycles.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: MemoryHierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// Completion times of in-flight data-side misses (MSHR occupancy).
    miss_slots: Vec<u64>,
}

/// `clone_from` reuses every allocation of the target (see [`Cache`]).
impl Clone for MemoryHierarchy {
    fn clone(&self) -> MemoryHierarchy {
        MemoryHierarchy {
            config: self.config,
            l1i: self.l1i.clone(),
            l1d: self.l1d.clone(),
            l2: self.l2.clone(),
            miss_slots: self.miss_slots.clone(),
        }
    }

    fn clone_from(&mut self, source: &MemoryHierarchy) {
        self.config = source.config;
        self.l1i.clone_from(&source.l1i);
        self.l1d.clone_from(&source.l1d);
        self.l2.clone_from(&source.l2);
        self.miss_slots.clone_from(&source.miss_slots);
    }
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy.
    pub fn new(config: MemoryHierarchyConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            miss_slots: Vec::new(),
            config,
        }
    }

    /// The configuration the hierarchy was built with.
    pub fn config(&self) -> &MemoryHierarchyConfig {
        &self.config
    }

    /// Performs an access and returns its latency in cycles. Latency-only
    /// model: misses fill immediately, so later accesses to the line hit.
    pub fn access(&mut self, kind: Access, addr: u64) -> u64 {
        self.access_at(kind, addr, 0)
    }

    /// Like [`MemoryHierarchy::access`], with the current `cycle` so a
    /// finite MSHR pool (when configured) can serialize excess data-side
    /// misses.
    pub fn access_at(&mut self, kind: Access, addr: u64, cycle: u64) -> u64 {
        let is_write = kind == Access::Store;
        let (l1, l1_latency) = match kind {
            Access::Fetch => (&mut self.l1i, self.config.l1i.latency),
            Access::Load | Access::Store => (&mut self.l1d, self.config.l1d.latency),
        };
        if self.config.perfect {
            // Perfect caches still record accesses so reports stay complete.
            l1.stats.hits.record(true);
            return l1_latency;
        }
        if l1.access(addr, is_write) {
            return l1_latency;
        }
        let miss_latency = if self.l2.access(addr, is_write) {
            l1_latency + self.config.l2.latency
        } else {
            l1_latency + self.config.l2.latency + self.config.memory_latency
        };
        if kind == Access::Fetch || self.config.mshrs == 0 {
            return miss_latency;
        }
        // Book an MSHR: if all are busy at `cycle`, the miss starts when
        // the oldest outstanding one retires.
        self.miss_slots.retain(|&done| done > cycle);
        let start = if self.miss_slots.len() < self.config.mshrs as usize {
            cycle
        } else {
            let oldest = self.miss_slots.iter().copied().min().expect("non-empty");
            let pos = self.miss_slots.iter().position(|&d| d == oldest).expect("found");
            self.miss_slots.swap_remove(pos);
            oldest
        };
        let done = start + miss_latency;
        self.miss_slots.push(done);
        done - cycle
    }

    /// Warms the hierarchy with an access that is part of the program's
    /// history but not of the measured window: lines are allocated and LRU
    /// state advances exactly as in [`MemoryHierarchy::access`], but no
    /// statistics are recorded and no MSHRs are booked. A no-op under
    /// perfect caches. Used by sampled simulation (SMARTS-style functional
    /// warming) so timed windows start from the cache state a continuous
    /// run would have.
    pub fn warm(&mut self, kind: Access, addr: u64) {
        if self.config.perfect {
            return;
        }
        let is_write = kind == Access::Store;
        let l1 = match kind {
            Access::Fetch => &mut self.l1i,
            Access::Load | Access::Store => &mut self.l1d,
        };
        if !l1.touch(addr, is_write) {
            self.l2.touch(addr, is_write);
        }
    }

    /// Statistics for (L1I, L1D, L2).
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (*self.l1i.stats(), *self.l1d.stats(), *self.l2.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, latency: 1 }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(tiny());
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false), "same line");
        assert!(!c.access(64, false), "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        // tiny(): 2 sets, 2 ways. Set 0 holds line addresses 0, 128, 256...
        let mut c = Cache::new(tiny());
        c.access(0, false);
        c.access(128, false);
        c.access(0, false); // touch 0, so 128 is LRU
        c.access(256, false); // evicts 128
        assert!(c.contains(0));
        assert!(!c.contains(128));
        assert!(c.contains(256));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = Cache::new(tiny());
        c.access(0, true);
        c.access(128, false);
        c.access(256, false); // evicts dirty 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(tiny());
        c.access(0, false);
        c.flush();
        assert!(!c.contains(0));
    }

    #[test]
    fn paper_geometry_is_sane() {
        assert_eq!(CacheConfig::paper_l1i().sets(), 256);
        assert_eq!(CacheConfig::paper_l1d().sets(), 512);
        assert_eq!(CacheConfig::paper_l2().sets(), 2048);
    }

    #[test]
    fn touch_allocates_without_stats() {
        let mut c = Cache::new(tiny());
        assert!(!c.touch(0, false));
        assert!(c.touch(0, false));
        assert!(c.access(0, false), "touch made the later access a hit");
        assert_eq!(c.stats().hits.total(), 1, "only the real access counted");
    }

    #[test]
    fn warm_fills_both_levels_silently() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        h.warm(Access::Load, 0x1000);
        assert_eq!(h.access(Access::Load, 0x1000), 3, "L1D warmed");
        assert_eq!(h.access(Access::Fetch, 0x1000), 9, "L2 warmed too");
        let (_, l1d, _) = h.stats();
        assert_eq!(l1d.hits.total(), 1, "warming left no statistics");
    }

    #[test]
    fn warm_is_noop_under_perfect_caches() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        h.warm(Access::Load, 0x1000);
        assert_eq!(h.access(Access::Load, 0x1000), 3);
        let (_, l1d, _) = h.stats();
        assert_eq!(l1d.hits.total(), 1);
    }

    #[test]
    fn clone_from_reuses_the_line_storage() {
        let mut warm = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        warm.access(Access::Load, 0x1000);
        let mut copy = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        let storage = copy.l2.lines.as_ptr();
        copy.clone_from(&warm);
        assert_eq!(copy.l2.lines.as_ptr(), storage, "no reallocation");
        assert_eq!(copy.access(Access::Load, 0x1000), 3, "the copy holds the warmed line");
        assert_eq!(copy.stats().1.hits.total(), 2, "statistics are copied too");
        assert_eq!(warm.stats().1.hits.total(), 1, "the source is untouched");
    }

    #[test]
    fn hierarchy_latencies_follow_levels() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        // Cold: L1 (3) + L2 (6) + memory (400).
        assert_eq!(h.access(Access::Load, 0x1000), 409);
        // Warm in L1.
        assert_eq!(h.access(Access::Load, 0x1000), 3);
        // L1I and L1D are separate: a fetch to the same address misses L1I
        // but hits the L2 that the load filled.
        assert_eq!(h.access(Access::Fetch, 0x1000), 9);
    }

    #[test]
    fn perfect_mode_always_hits() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        assert_eq!(h.access(Access::Load, 0xdead_0000), 3);
        assert_eq!(h.access(Access::Fetch, 0xbeef_0000), 3);
        assert_eq!(h.access(Access::Store, 0x0), 3);
    }

    #[test]
    fn streaming_misses_every_line() {
        let mut h = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        let mut misses = 0;
        for i in 0..100u64 {
            if h.access(Access::Load, i * 64) > 3 {
                misses += 1;
            }
        }
        assert_eq!(misses, 100);
        let (_, l1d, _) = h.stats();
        assert_eq!(l1d.hits.misses(), 100);
    }
}

#[cfg(test)]
mod mshr_tests {
    use super::*;

    fn mshr_config(n: u32) -> MemoryHierarchyConfig {
        MemoryHierarchyConfig { mshrs: n, ..MemoryHierarchyConfig::default() }
    }

    #[test]
    fn unlimited_mshrs_overlap_misses() {
        let mut h = MemoryHierarchy::new(mshr_config(0));
        let a = h.access_at(Access::Load, 0x0000, 100);
        let b = h.access_at(Access::Load, 0x4000, 100);
        assert_eq!(a, b, "independent misses overlap fully");
    }

    #[test]
    fn finite_mshrs_serialize_excess_misses() {
        let mut h = MemoryHierarchy::new(mshr_config(1));
        let a = h.access_at(Access::Load, 0x0000, 100);
        let b = h.access_at(Access::Load, 0x4000, 100);
        assert!(b >= 2 * a, "second miss waits for the single MSHR: {a} then {b}");
        // After both retire, a new miss at a later cycle is unimpeded.
        let c = h.access_at(Access::Load, 0x8000, 100 + b + 1);
        assert_eq!(c, a);
    }

    #[test]
    fn hits_never_consume_mshrs() {
        let mut h = MemoryHierarchy::new(mshr_config(1));
        let miss = h.access_at(Access::Load, 0x0000, 0);
        for i in 0..8 {
            assert_eq!(h.access_at(Access::Load, i, 1), 3, "hits bypass MSHRs");
        }
        let second = h.access_at(Access::Load, 0x4000, 1);
        assert!(second > miss, "the busy MSHR still delays a second miss");
    }

    #[test]
    fn fetch_side_is_unaffected() {
        let mut h = MemoryHierarchy::new(mshr_config(1));
        let _ = h.access_at(Access::Load, 0x0000, 0);
        let f = h.access_at(Access::Fetch, 0x10000, 0);
        assert_eq!(f, 409, "instruction misses do not compete for data MSHRs");
    }
}
