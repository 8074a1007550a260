//! pi-sim's cache hierarchy against the sharer-map model it replaced.
//!
//! `pi_sim::cache::Hierarchy` finds the L1 copies a write must
//! invalidate by probing every peer L1. It used to keep a map from each
//! line to a bitmask of the cores whose L1 might hold it, and probe only
//! those. That map is kept here as the reference model. The goldens run
//! the Pi geometry, which their programs rarely fill; these streams run
//! over a dozen lines in tiny geometries, so LRU evictions leave sharer
//! bits set for lines an L1 no longer holds.

use std::collections::HashMap;

use pi_sim::cache::{AccessOutcome, CacheConfig, CacheStats, Hierarchy, HitLevel};

/// One set-associative cache level with true-LRU replacement.
struct RefCache {
    config: CacheConfig,
    /// sets[set] = lines ordered most- to least-recently used.
    sets: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        RefCache {
            config,
            sets: vec![Vec::new(); config.sets],
        }
    }

    fn set_and_line(&mut self, addr: u64) -> (&mut Vec<u64>, u64) {
        let line = addr / self.config.line_bytes;
        let set = (line % self.config.sets as u64) as usize;
        (&mut self.sets[set], line)
    }

    fn access(&mut self, addr: u64) -> bool {
        let ways = self.config.ways;
        let (set, line) = self.set_and_line(addr);
        let hit = match set.iter().position(|&l| l == line) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => {
                if set.len() == ways {
                    set.pop();
                }
                false
            }
        };
        set.insert(0, line);
        hit
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (set, line) = self.set_and_line(addr);
        match set.iter().position(|&l| l == line) {
            Some(pos) => {
                set.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// The hierarchy with a sharer map: a read sets the reader's bit, and a
/// write probes only the peers whose bit is set, then sets the mask to
/// the writer's bit alone. Evictions clear no bit.
struct SharerMapHierarchy {
    l1: Vec<RefCache>,
    l2: RefCache,
    line_bytes: u64,
    sharers: HashMap<u64, u32>,
    stats: Vec<CacheStats>,
    /// Set bits a write found for an L1 that no longer held the line.
    stale_bits: u64,
}

impl SharerMapHierarchy {
    fn new(cores: usize, l1: CacheConfig, l2: CacheConfig) -> Self {
        SharerMapHierarchy {
            l1: (0..cores).map(|_| RefCache::new(l1)).collect(),
            l2: RefCache::new(l2),
            line_bytes: l1.line_bytes,
            sharers: HashMap::new(),
            stats: vec![CacheStats::default(); cores],
            stale_bits: 0,
        }
    }

    fn access(&mut self, core: usize, addr: u64, write: bool) -> AccessOutcome {
        let line = addr / self.line_bytes;
        let mut invalidations = 0;
        if write {
            let mask = self.sharers.get(&line).copied().unwrap_or(0);
            for peer in 0..self.l1.len() {
                if peer == core || mask & (1 << peer) == 0 {
                    continue;
                }
                if self.l1[peer].invalidate(addr) {
                    invalidations += 1;
                    self.stats[peer].invalidations_received += 1;
                } else {
                    self.stale_bits += 1;
                }
            }
            self.sharers.insert(line, 1 << core);
        } else {
            *self.sharers.entry(line).or_insert(0) |= 1 << core;
        }
        let level = if self.l1[core].access(addr) {
            self.stats[core].l1_hits += 1;
            HitLevel::L1
        } else if self.l2.access(addr) {
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded random read/write streams from 1–8 cores over 12 lines: every
/// access outcome and the final per-core statistics match the model, and
/// the streams do leave stale sharer bits behind.
#[test]
fn probing_every_peer_matches_the_sharer_map() {
    let geometry = |line_bytes, sets, ways| CacheConfig {
        line_bytes,
        sets,
        ways,
    };
    // (L1, L2): the 12 lines overflow every L1, and the L2 in all but
    // the first.
    let geometries = [
        (geometry(8, 2, 2), geometry(8, 4, 4)),
        (geometry(8, 1, 1), geometry(8, 2, 2)),
        (geometry(1, 2, 1), geometry(1, 1, 4)),
        (geometry(64, 3, 2), geometry(64, 2, 3)),
    ];
    let mut stale_bits = 0;
    for cores in 1..=8usize {
        for (l1, l2) in geometries {
            for seed in 0..8u64 {
                let mut hierarchy = Hierarchy::new(cores, l1, l2);
                let mut model = SharerMapHierarchy::new(cores, l1, l2);
                let mut rng = seed << 8 | cores as u64;
                for step in 0..400 {
                    let r = splitmix64(&mut rng);
                    let core = (r % cores as u64) as usize;
                    let line = (r >> 8) % 12;
                    let addr = line * l1.line_bytes + (r >> 16) % l1.line_bytes;
                    let write = (r >> 32).is_multiple_of(3);
                    assert_eq!(
                        hierarchy.access(core, addr, write),
                        model.access(core, addr, write),
                        "{cores} cores, {l1:?} over {l2:?}, seed {seed}, step {step}"
                    );
                }
                assert_eq!(
                    hierarchy.stats, model.stats,
                    "{cores} cores, {l1:?} over {l2:?}, seed {seed}"
                );
                stale_bits += model.stale_bits;
            }
        }
    }
    assert!(stale_bits > 0, "no stream left a stale sharer bit");
}
