//! A single set-associative cache with true LRU replacement.

use crate::config::CacheConfig;

/// One cache way: a tag plus an LRU stamp.
#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    /// Monotone counter value of the most recent touch.
    lru: u64,
}

/// A set-associative, write-allocate cache over 64-bit addresses.
///
/// Only presence is tracked (no data), which is all a locality simulator
/// needs. The cache is a *filter*: [`SetAssocCache::access`] reports hit
/// or miss and installs the line on miss.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    ways: Vec<Way>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// An empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets() as usize;
        let assoc = config.associativity as usize;
        SetAssocCache {
            config,
            ways: vec![Way { tag: 0, valid: false, lru: 0 }; sets * assoc],
            assoc,
            set_mask: config.sets() - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Touch `addr`; returns `true` on hit. On miss the line is installed,
    /// evicting the LRU way of its set (write-allocate: reads and writes
    /// behave identically for presence).
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.config.sets().trailing_zeros();
        let base = set * self.assoc;
        let set_ways = &mut self.ways[base..base + self.assoc];

        if let Some(way) = set_ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects assoc == 0, so every set slice is non-empty"
        )]
        let victim = set_ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("associativity >= 1");
        victim.tag = tag;
        victim.valid = true;
        victim.lru = self.clock;
        false
    }

    /// Check presence without updating LRU or counters.
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.config.sets().trailing_zeros();
        let base = set * self.assoc;
        self.ways[base..base + self.assoc].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidate every line (e.g. to model the cache pollution left
    /// behind by an SMM handler's working set).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }

    /// Invalidate an approximate fraction of lines, front-to-back per set;
    /// `fraction` in `[0, 1]`. Models partial pollution.
    pub fn pollute(&mut self, fraction: f64) {
        assert!((0.0..=1.0).contains(&fraction), "pollute: fraction {fraction}");
        let per_set = ((self.assoc as f64) * fraction).round() as usize;
        let sets = self.ways.len() / self.assoc;
        for s in 0..sets {
            // Evict the least recently used `per_set` ways of each set.
            let base = s * self.assoc;
            let set_ways = &mut self.ways[base..base + self.assoc];
            let mut order: Vec<usize> = (0..set_ways.len()).collect();
            order.sort_by_key(|&i| set_ways[i].lru);
            for &i in order.iter().take(per_set) {
                set_ways[i].valid = false;
            }
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
    /// Miss ratio; zero before any access.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
    /// Reset counters but keep contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        SetAssocCache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1020)); // same 64B line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn distinct_lines_in_same_set_coexist_up_to_assoc() {
        let mut c = small();
        // Set index = bits [6..8); stride 256 B keeps the same set.
        assert!(!c.access(0x0000));
        assert!(!c.access(0x0100));
        assert!(c.access(0x0000));
        assert!(c.access(0x0100));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        c.access(0x0000); // A
        c.access(0x0100); // B
        c.access(0x0000); // touch A: B is now LRU
        c.access(0x0200); // C evicts B
        assert!(c.probe(0x0000), "A should survive");
        assert!(!c.probe(0x0100), "B should be evicted");
        assert!(c.probe(0x0200));
    }

    #[test]
    fn conflict_thrashing_in_direct_mapped() {
        let mut c = SetAssocCache::new(CacheConfig::new(256, 64, 1)); // 4 sets
                                                                      // Two addresses mapping to set 0 alternate: always miss after warmup.
        for _ in 0..10 {
            c.access(0x0000);
            c.access(0x0100);
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 20);
    }

    #[test]
    fn fully_associative_holds_working_set() {
        let mut c = SetAssocCache::new(CacheConfig::new(512, 64, 8)); // 1 set, 8 ways
        for i in 0..8u64 {
            c.access(i * 4096); // all map to the single set
        }
        c.reset_counters();
        for i in 0..8u64 {
            assert!(c.access(i * 4096), "line {i} should hit");
        }
        assert_eq!(c.miss_ratio(), 0.0);
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0x40);
        assert_eq!(c.occupancy(), 1);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(0x40));
    }

    #[test]
    fn pollute_half_keeps_mru() {
        let mut c = small();
        c.access(0x0000); // older in its set
        c.access(0x0100); // newer in the same set
        c.pollute(0.5);
        assert!(!c.probe(0x0000), "LRU way should be polluted away");
        assert!(c.probe(0x0100), "MRU way should survive 50% pollution");
    }

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = small();
        for addr in (0..4096u64).step_by(8) {
            c.access(addr);
        }
        // 4096/64 = 64 lines, each missed exactly once (streaming).
        assert_eq!(c.misses(), 64);
        assert_eq!(c.accesses(), 512);
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = small();
        c.access(0x0000);
        c.access(0x0100);
        let _ = c.probe(0x0000); // must NOT refresh LRU
        c.access(0x0200); // evicts true LRU = 0x0000
        assert!(!c.probe(0x0000));
    }
}
