//! A single set-associative cache level with LRU replacement.

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in cycles, measured from the start of the access
    /// (absolute, not additive across levels — Table 1 style).
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent or not a power of two.
    #[must_use]
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets.is_power_of_two() && sets > 0, "sets must be a power of two");
        sets
    }
}

/// Tag store of one cache level (data values live in the functional
/// emulator; the timing model only needs presence).
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets × ways` of `(tag, last_used, valid)`.
    lines: Vec<Line>,
    sets: usize,
    line_shift: u32,
    tick: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    last_used: u64,
    valid: bool,
}

impl Cache {
    /// Builds the cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Self {
            lines: vec![Line::default(); sets * cfg.ways],
            sets,
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
            tick: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line address (byte address shifted by line size) of `addr`.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Probes for `addr`; a hit makes its line the most recently used.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.touch_line(line)
    }

    /// Probes for `addr` without touching LRU state (used by prefetch
    /// filtering).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == line)
    }

    fn touch_line(&mut self, line: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways = &mut self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        for l in ways.iter_mut() {
            if l.valid && l.tag == line {
                l.last_used = tick;
                return true;
            }
        }
        false
    }

    /// Fills the line containing `addr`, evicting LRU. Returns the evicted
    /// line address, if a valid line was displaced.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let line = self.line_of(addr);
        if self.touch_line(line) {
            return None; // already present
        }
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways = &mut self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_used } else { 0 })
            .expect("ways > 0");
        let evicted = victim.valid.then_some(victim.tag);
        *victim = Line { tag: line, last_used: tick, valid: true };
        evicted
    }

    /// Invalidates the line containing `addr` (coherence traffic in the
    /// lockdown harness). Returns whether it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let ways = &mut self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways];
        for l in ways.iter_mut() {
            if l.valid && l.tag == line {
                l.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates every line in place, keeping the tag-store allocation
    /// (core reset path).
    pub fn clear(&mut self) {
        self.lines.fill(Line::default());
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, latency: 4 })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.line_of(0x7F), 1);
        assert_eq!(c.line_of(0x80), 2);
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x100));
        c.fill(0x100);
        assert!(c.access(0x100));
        assert!(c.access(0x13F)); // same 64B line as 0x100
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to set 0: line addresses 0, 4, 8.
        c.fill(0);
        c.fill(4 * 64);
        assert!(c.access(0)); // touch line 0 so line 4 is LRU
        let evicted = c.fill(8 * 64);
        assert_eq!(evicted, Some(4));
        assert!(c.access(0));
        assert!(!c.access(4 * 64));
    }

    #[test]
    fn fill_of_present_line_is_noop() {
        let mut c = small();
        c.fill(0x40);
        assert_eq!(c.fill(0x40), None);
        assert!(c.contains(0x40));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x200);
        assert!(c.invalidate(0x200));
        assert!(!c.contains(0x200));
        assert!(!c.invalidate(0x200));
    }

    #[test]
    fn contains_does_not_touch_lru() {
        let mut c = small();
        // Line 0 is the older of set 0's two lines; probing it with
        // `contains` must leave it the eviction victim.
        c.fill(0);
        c.fill(4 * 64);
        assert!(c.contains(0));
        assert!(!c.contains(0x540));
        assert_eq!(c.fill(8 * 64), Some(0));
    }
}
