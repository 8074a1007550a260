//! Cache hierarchy: per-core private L1s over a shared L2, with
//! write-invalidate (MESI-style) coherence between the L1s.
//!
//! Assignment 3 has students explain shared-memory architecture and why
//! "scope matters"; the coherence traffic modelled here is what makes
//! false sharing and racy updates slow on real hardware, and is what the
//! [`crate::machine`] charges memory latency against.
//!
//! There is no sharer directory. A write probes every peer L1 and
//! invalidates the line wherever it is present. That is exact: a line
//! enters an L1 only through its own core's access, and a write removes
//! it from every other L1, so the peers holding the line are exactly
//! the L1s a write must invalidate. A directory of possible sharers
//! could only skip probing caches that cannot hold the line; it grows
//! with every line ever touched, while a probe reads one set per peer.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Bytes per line.
    pub line_bytes: u64,
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The Cortex-A53's 32 KiB, 4-way, 64-byte-line L1 data cache.
    pub fn pi_l1() -> Self {
        CacheConfig {
            line_bytes: 64,
            sets: 128,
            ways: 4,
        }
    }

    /// The BCM2837's 512 KiB, 16-way shared L2.
    pub fn pi_l2() -> Self {
        CacheConfig {
            line_bytes: 64,
            sets: 512,
            ways: 16,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.line_bytes * (self.sets * self.ways) as u64
    }
}

/// One set-associative cache with true-LRU replacement, addressed by
/// line (address / line size) and set index, which the hierarchy
/// computes once per access.
#[derive(Debug, Clone)]
struct SetAssocCache {
    config: CacheConfig,
    /// sets[set] = lines (address / line_bytes) ordered most- to
    /// least-recently used. Empty until the first access installs a
    /// line: a run that never touches memory builds no set.
    sets: Vec<Vec<u64>>,
}

impl SetAssocCache {
    fn new(config: CacheConfig) -> Self {
        SetAssocCache {
            config,
            sets: Vec::new(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.config.sets as u64) as usize
    }

    /// The lines of set `set`, most recently used first (none before
    /// the first access).
    fn lines(&self, set: usize) -> &[u64] {
        self.sets.get(set).map_or(&[], Vec::as_slice)
    }

    /// Touches `line` in set `set`; returns true on hit. Misses install
    /// the line, evicting LRU if needed.
    fn access(&mut self, set: usize, line: u64) -> bool {
        if self.sets.is_empty() {
            self.sets = vec![Vec::with_capacity(self.config.ways); self.config.sets];
        }
        let set = &mut self.sets[set];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            // Move to MRU position.
            let l = set.remove(pos);
            set.insert(0, l);
            true
        } else {
            if set.len() == self.config.ways {
                set.pop();
            }
            set.insert(0, line);
            false
        }
    }

    /// Drops `line` from set `set` if present; returns true if it was
    /// present.
    fn invalidate(&mut self, set: usize, line: u64) -> bool {
        let Some(set) = self.sets.get_mut(set) else {
            return false;
        };
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            true
        } else {
            false
        }
    }
}

/// Two caches are equal when they hold the same lines in the same
/// order: one never accessed equals one whose sets are all empty.
impl PartialEq for SetAssocCache {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && (0..self.config.sets).all(|set| self.lines(set) == other.lines(set))
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Shared L2 hit (L1 miss).
    L2,
    /// Main memory (missed both levels).
    Memory,
}

/// Outcome of a single memory access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Deepest level consulted.
    pub level: HitLevel,
    /// Number of peer L1s that had to invalidate the line (writes only).
    pub invalidations: usize,
}

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses satisfied by the private L1.
    pub l1_hits: u64,
    /// Accesses satisfied by the shared L2.
    pub l2_hits: u64,
    /// Accesses that went to memory.
    pub memory_accesses: u64,
    /// Invalidations this core's L1 received from peers' writes.
    pub invalidations_received: u64,
}

impl CacheStats {
    /// Total accesses issued.
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.memory_accesses
    }

    /// L1 hit rate in [0, 1]; 0 when no accesses were made.
    pub fn l1_hit_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.l1_hits as f64 / t as f64
        }
    }
}

/// The full hierarchy: one L1 per core over one shared L2, with
/// write-invalidate coherence between the L1s.
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy {
    /// Every L1 has the same geometry, so one set index serves them all.
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    line_bytes: u64,
    /// Per-core statistics.
    pub stats: Vec<CacheStats>,
}

impl Hierarchy {
    /// Builds a hierarchy for `cores` cores with the Pi's geometry.
    pub fn pi(cores: usize) -> Self {
        Self::new(cores, CacheConfig::pi_l1(), CacheConfig::pi_l2())
    }

    /// Builds a hierarchy with explicit geometries, for any number of
    /// cores: coherence keeps no sharer set to bound them (see the
    /// module docs).
    ///
    /// # Panics
    /// Panics if `cores` is 0, if either level has no byte per line, no
    /// set or no way, or if the two levels disagree on line size.
    pub fn new(cores: usize, l1: CacheConfig, l2: CacheConfig) -> Self {
        assert!(cores >= 1, "need at least one core");
        for (level, geometry) in [("L1", l1), ("L2", l2)] {
            assert!(
                geometry.line_bytes >= 1 && geometry.sets >= 1 && geometry.ways >= 1,
                "{level} needs at least one byte per line, one set and one way: {geometry:?}"
            );
        }
        assert_eq!(
            l1.line_bytes, l2.line_bytes,
            "levels must share a line size"
        );
        Hierarchy {
            l1: (0..cores).map(|_| SetAssocCache::new(l1)).collect(),
            l2: SetAssocCache::new(l2),
            line_bytes: l1.line_bytes,
            stats: vec![CacheStats::default(); cores],
        }
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Exports the accumulated statistics, aggregated over cores, as
    /// `pi_sim/cache/*` counters. Called once at the end of a run; the
    /// counters add across runs sharing a registry.
    pub fn export_metrics(&self, registry: &obs::Registry) {
        let mut agg = CacheStats::default();
        for s in &self.stats {
            agg.l1_hits += s.l1_hits;
            agg.l2_hits += s.l2_hits;
            agg.memory_accesses += s.memory_accesses;
            agg.invalidations_received += s.invalidations_received;
        }
        let counter = |name, value| {
            registry.counter(name, obs::Domain::Virtual).add(value);
        };
        counter("pi_sim/cache/l1_hits", agg.l1_hits);
        counter("pi_sim/cache/l2_hits", agg.l2_hits);
        counter("pi_sim/cache/memory_accesses", agg.memory_accesses);
        counter("pi_sim/cache/invalidations", agg.invalidations_received);
    }

    /// Appends, for the line holding `addr`, its set in every L1 and then
    /// in the L2, each as its length followed by its lines from most to
    /// least recently used: all the line state an access to `addr`
    /// reads or changes.
    pub(crate) fn push_line_sets(&self, addr: u64, out: &mut Vec<u64>) {
        let line = addr / self.line_bytes;
        let l1_set = self.l1[0].set_of(line);
        let l2_set = self.l2.lines(self.l2.set_of(line));
        for set in self.l1.iter().map(|l1| l1.lines(l1_set)).chain([l2_set]) {
            out.push(set.len() as u64);
            out.extend_from_slice(set);
        }
    }

    /// Performs a read (`write = false`) or write access by `core` to
    /// byte address `addr`.
    pub fn access(&mut self, core: usize, addr: u64, write: bool) -> AccessOutcome {
        assert!(core < self.l1.len(), "core {core} out of range");
        let line = addr / self.line_bytes;
        let l1_set = self.l1[core].set_of(line);
        let mut invalidations = 0;

        // Write-invalidate: kick the line out of every peer L1.
        if write {
            for (peer, (l1, stats)) in self.l1.iter_mut().zip(&mut self.stats).enumerate() {
                if peer != core && l1.invalidate(l1_set, line) {
                    invalidations += 1;
                    stats.invalidations_received += 1;
                }
            }
        }

        let level = if self.l1[core].access(l1_set, line) {
            self.stats[core].l1_hits += 1;
            HitLevel::L1
        } else if self.l2.access(self.l2.set_of(line), line) {
            self.stats[core].l2_hits += 1;
            HitLevel::L2
        } else {
            self.stats[core].memory_accesses += 1;
            HitLevel::Memory
        };
        AccessOutcome {
            level,
            invalidations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_capacities_match_the_pi() {
        assert_eq!(CacheConfig::pi_l1().capacity(), 32 * 1024);
        assert_eq!(CacheConfig::pi_l2().capacity(), 512 * 1024);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut h = Hierarchy::pi(4);
        assert_eq!(h.access(0, 0x1000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0, 0x1000, false).level, HitLevel::L1);
        // Same line, different byte → still an L1 hit.
        assert_eq!(h.access(0, 0x1030, false).level, HitLevel::L1);
        // Next line was never fetched → misses all the way to memory.
        assert_eq!(h.access(0, 0x1040, false).level, HitLevel::Memory);
    }

    #[test]
    fn sets_are_built_on_the_first_install() {
        let mut h = Hierarchy::pi(2);
        let unbuilt = |c: &SetAssocCache| c.sets.is_empty();
        assert!(h.l1.iter().chain([&h.l2]).all(unbuilt));
        let mut lines = Vec::new();
        h.push_line_sets(0x4000, &mut lines);
        assert_eq!(lines, [0, 0, 0], "two empty L1 sets, then the L2's");
        // Equal to a hierarchy whose sets exist but hold nothing.
        let mut built = h.clone();
        for cache in built.l1.iter_mut().chain([&mut built.l2]) {
            cache.sets = vec![Vec::new(); cache.config.sets];
        }
        assert!(h == built);
        // A write probes core 1's unbuilt L1 and finds nothing there.
        let out = h.access(0, 0x4000, true);
        assert_eq!((out.level, out.invalidations), (HitLevel::Memory, 0));
        assert!(unbuilt(&h.l1[1]) && !unbuilt(&h.l1[0]) && !unbuilt(&h.l2));
        lines.clear();
        h.push_line_sets(0x4000, &mut lines);
        let line = 0x4000 / 64;
        assert_eq!(lines, [1, line, 0, 1, line]);
        assert!(h != built);
    }

    #[test]
    fn l2_serves_peer_cores() {
        let mut h = Hierarchy::pi(4);
        h.access(0, 0x2000, false); // memory → installs in L1(0) and L2
        let out = h.access(1, 0x2000, false);
        assert_eq!(out.level, HitLevel::L2, "core 1 finds it in shared L2");
    }

    #[test]
    fn write_invalidates_peer_l1s() {
        let mut h = Hierarchy::pi(4);
        h.access(0, 0x3000, false);
        h.access(1, 0x3000, false);
        h.access(2, 0x3000, false);
        let out = h.access(3, 0x3000, true);
        assert_eq!(out.invalidations, 3, "cores 0, 1, and 2 each held the line");
    }

    #[test]
    fn invalidated_line_misses_in_l1_afterwards() {
        let mut h = Hierarchy::pi(2);
        h.access(0, 0x4000, false);
        h.access(0, 0x4000, false); // L1 hit established
        h.access(1, 0x4000, true); // peer write invalidates
        let out = h.access(0, 0x4000, false);
        assert_ne!(out.level, HitLevel::L1, "coherence miss after peer write");
        assert_eq!(h.stats[0].invalidations_received, 1);
    }

    #[test]
    fn ping_pong_writes_generate_invalidation_traffic() {
        // The false-sharing / racy-counter pathology: two cores writing
        // the same line alternately.
        let mut h = Hierarchy::pi(2);
        for _ in 0..50 {
            h.access(0, 0x5000, true);
            h.access(1, 0x5000, true);
        }
        assert!(h.stats[0].invalidations_received >= 49);
        assert!(h.stats[1].invalidations_received >= 49);
        // Disjoint lines produce none.
        let mut h2 = Hierarchy::pi(2);
        for _ in 0..50 {
            h2.access(0, 0x5000, true);
            h2.access(1, 0x6000, true);
        }
        assert_eq!(h2.stats[0].invalidations_received, 0);
        assert_eq!(h2.stats[1].invalidations_received, 0);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // 4-way L1 with 128 sets: five lines mapping to the same set
        // evict the least recently used.
        let mut h = Hierarchy::pi(1);
        let set_stride = 64 * 128; // same set every stride
        for i in 0..5u64 {
            h.access(0, i * set_stride, false);
        }
        // Line 0 was LRU → evicted from L1 (still in L2).
        let out = h.access(0, 0, false);
        assert_eq!(out.level, HitLevel::L2);
        // Line 4 is MRU → L1 hit.
        assert_eq!(h.access(0, 4 * set_stride, false).level, HitLevel::L1);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = Hierarchy::pi(1);
        h.access(0, 0, false);
        h.access(0, 0, false);
        h.access(0, 64, false);
        let s = h.stats[0];
        assert_eq!(s.total(), 3);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.memory_accesses, 2);
        assert!((s.l1_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_hit_rate_is_zero() {
        assert_eq!(CacheStats::default().l1_hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let mut h = Hierarchy::pi(2);
        h.access(5, 0, false);
    }

    #[test]
    fn a_33_core_hierarchy_invalidates_every_peer() {
        let mut h = Hierarchy::pi(33);
        for core in 0..33 {
            h.access(core, 0x7000, false);
        }
        assert_eq!(h.access(32, 0x7000, true).invalidations, 32);
        assert_eq!(h.access(0, 0x7000, false).level, HitLevel::L2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = Hierarchy::pi(0);
    }

    #[test]
    #[should_panic(expected = "L1 needs at least one byte per line, one set and one way")]
    fn zero_way_l1_panics() {
        let l1 = CacheConfig {
            ways: 0,
            ..CacheConfig::pi_l1()
        };
        let _ = Hierarchy::new(2, l1, CacheConfig::pi_l2());
    }

    #[test]
    #[should_panic(expected = "L2 needs at least one byte per line, one set and one way")]
    fn zero_set_l2_panics() {
        let l2 = CacheConfig {
            sets: 0,
            ..CacheConfig::pi_l2()
        };
        let _ = Hierarchy::new(2, CacheConfig::pi_l1(), l2);
    }

    #[test]
    #[should_panic(expected = "L1 needs at least one byte per line, one set and one way")]
    fn zero_byte_lines_panic() {
        let zero_lines = |c: CacheConfig| CacheConfig { line_bytes: 0, ..c };
        let _ = Hierarchy::new(
            2,
            zero_lines(CacheConfig::pi_l1()),
            zero_lines(CacheConfig::pi_l2()),
        );
    }
}
