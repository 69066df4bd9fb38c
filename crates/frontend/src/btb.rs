//! Branch target buffer and return-address stack.

/// A set-associative branch target buffer with LRU replacement.
///
/// # Examples
///
/// ```
/// use orinoco_frontend::Btb;
///
/// let mut btb = Btb::new(256, 4);
/// assert_eq!(btb.lookup(0x40), None);
/// btb.insert(0x40, 0x100);
/// assert_eq!(btb.lookup(0x40), Some(0x100));
/// ```
#[derive(Clone, Debug)]
pub struct Btb {
    /// `sets × ways` entries of `(tag, target, lru)`.
    entries: Vec<Vec<BtbEntry>>,
    set_mask: u64,
    tick: u64,
}

#[derive(Clone, Copy, Debug)]
struct BtbEntry {
    tag: u64,
    target: u64,
    last_used: u64,
    valid: bool,
}

impl Btb {
    /// Creates a BTB with `sets` sets of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "at least one way");
        Self {
            entries: vec![
                vec![
                    BtbEntry { tag: 0, target: 0, last_used: 0, valid: false };
                    ways
                ];
                sets
            ],
            set_mask: sets as u64 - 1,
            tick: 0,
        }
    }

    fn set_of(&self, pc: u64) -> usize {
        (((pc >> 2) ^ (pc >> 12)) & self.set_mask) as usize
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(pc);
        self.entries[set].iter_mut().find_map(|e| {
            (e.valid && e.tag == pc).then(|| {
                e.last_used = tick;
                e.target
            })
        })
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn insert(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(pc);
        let ways = &mut self.entries[set];
        if let Some(e) = ways.iter_mut().find(|e| e.valid && e.tag == pc) {
            e.target = target;
            e.last_used = tick;
            return;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.last_used } else { 0 })
            .expect("ways > 0");
        *victim = BtbEntry { tag: pc, target, last_used: tick, valid: true };
    }

    /// Invalidates every entry in place, keeping the allocation (core
    /// reset path).
    pub fn reset(&mut self) {
        for set in &mut self.entries {
            set.fill(BtbEntry { tag: 0, target: 0, last_used: 0, valid: false });
        }
        self.tick = 0;
    }
}

/// A return-address stack for call/return target prediction.
///
/// Overflow wraps (oldest entries are silently lost), underflow predicts
/// nothing — both standard behaviours for hardware RAS.
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    capacity: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address on a call.
    pub fn push(&mut self, return_pc: u64) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(return_pc);
    }

    /// Pops the predicted return address on a return.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Empties the stack in place, keeping the allocation (core reset
    /// path).
    pub fn clear(&mut self) {
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_hit() {
        let mut btb = Btb::new(64, 2);
        assert_eq!(btb.lookup(0x1000), None);
        btb.insert(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
    }

    #[test]
    fn update_changes_target() {
        let mut btb = Btb::new(64, 2);
        btb.insert(0x1000, 0x2000);
        btb.insert(0x1000, 0x3000);
        assert_eq!(btb.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: three conflicting PCs.
        let mut btb = Btb::new(1, 2);
        btb.insert(0x10, 0xA);
        btb.insert(0x20, 0xB);
        let _ = btb.lookup(0x10); // touch 0x10 so 0x20 is LRU
        btb.insert(0x30, 0xC); // evicts 0x20
        assert_eq!(btb.lookup(0x10), Some(0xA));
        assert_eq!(btb.lookup(0x20), None);
        assert_eq!(btb.lookup(0x30), Some(0xC));
    }

    #[test]
    fn ras_lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_sets_panics() {
        let _ = Btb::new(3, 2);
    }
}
