//! Functional-unit occupancy and the timing-event queue.

use crate::config::{FuPools, Pool};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-pool functional units with busy tracking (unpipelined units stay
/// busy until completion; pipelined units accept one issue per cycle).
#[derive(Clone, Debug)]
pub struct FuBank {
    units: [Vec<u64>; 4],
}

impl FuBank {
    /// Creates the bank from the configured pool sizes.
    #[must_use]
    pub fn new(p: FuPools) -> Self {
        Self {
            units: [
                vec![0; p.int_alu],
                vec![0; p.muldiv],
                vec![0; p.fp],
                vec![0; p.mem],
            ],
        }
    }

    /// Free units per pool at cycle `now` (the select budget).
    #[must_use]
    pub fn budget(&self, now: u64) -> [usize; 4] {
        let mut b = [0; 4];
        for (i, pool) in self.units.iter().enumerate() {
            b[i] = pool.iter().filter(|&&busy| busy <= now).count();
        }
        b
    }

    /// Claims a unit of `pool` at cycle `now`, keeping it busy until
    /// `until` (pass `now + 1` for pipelined classes).
    ///
    /// # Panics
    ///
    /// Panics if no unit of the pool is free — callers must respect the
    /// budget returned by [`FuBank::budget`].
    pub fn occupy(&mut self, pool: Pool, now: u64, until: u64) {
        let unit = self.units[pool.idx()]
            .iter_mut()
            .find(|busy| **busy <= now)
            .unwrap_or_else(|| panic!("no free unit in pool {pool:?}"));
        *unit = until;
    }

    /// Total units across pools.
    #[must_use]
    pub fn total(&self) -> usize {
        self.units.iter().map(Vec::len).sum()
    }

    /// Frees every unit in place (core reset path).
    pub fn reset(&mut self) {
        for pool in &mut self.units {
            pool.fill(0);
        }
    }
}

/// Timing events delivered to the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A non-memory instruction finished executing.
    ExecDone,
    /// A load/store finished address generation.
    AguDone,
    /// A load's data returned from the memory system.
    MemDone,
    /// A load's cache access was rejected (MSHRs full); retry.
    MemRetry,
}

/// A scheduled event, tagged with the ROB slot generation so events for
/// squashed instructions go stale harmlessly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Delivery cycle.
    pub at: u64,
    /// Kind.
    pub kind: EventKind,
    /// ROB index.
    pub rob_idx: usize,
    /// ROB slot generation at scheduling time.
    pub gen: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.rob_idx, self.kind as u8).cmp(&(other.at, other.rob_idx, other.kind as u8))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Calendar-wheel horizon in cycles. Every event latency of the default
/// memory hierarchy (DRAM ≈ 200, exec ≤ tens) lands well inside it; the
/// rare beyond-horizon event (extreme `memlat` sweeps, pathological bank
/// contention) overflows into a small far heap.
const WHEEL: usize = 1024;
const WHEEL_WORDS: usize = WHEEL / 64;

/// The timing-event queue: a calendar wheel with a far-event overflow
/// heap.
///
/// The per-cycle heap was the costliest fixed overhead of the simulation
/// loop: every push/pop paid `O(log n)` sifts through a `BinaryHeap`.
/// Events are instead binned by delivery cycle into `WHEEL` buckets
/// (`at % WHEEL`); a 1024-bit occupancy bitmap answers [`EventQueue::
/// next_at`] with a couple of word scans, and [`EventQueue::pop_due`]
/// drains one bucket at a time through a scratch buffer sorted by the
/// exact [`Event`] order, so pops observe the same total order as the
/// heap did — `(at, rob_idx, kind)`; events that tie on all three are
/// stale/live duplicates whose relative order is behaviour-neutral.
///
/// Invariants: every queued event has `at >= cursor`; wheel-resident
/// events lie in `[cursor, cursor + WHEEL)`, so a bucket never mixes
/// cycles; `drain` holds the partially-delivered bucket of cycle
/// `cursor` in descending order (pops come off the tail).
///
/// Bucket storage is a single slab of `(event, next)` nodes threaded
/// into per-bucket singly-linked lists (freed nodes chain onto
/// `free_head`), so the steady-state push/drain cycle is allocation-free
/// once the slab has grown to the peak outstanding-event count — the
/// same warmup behaviour the binary heap had, preserved for
/// `tests/alloc_free.rs`.
#[derive(Clone, Debug)]
pub struct EventQueue {
    nodes: Vec<(Event, u32)>,
    free_head: u32,
    heads: Vec<u32>,
    occupied: [u64; WHEEL_WORDS],
    far: BinaryHeap<Reverse<Event>>,
    drain: Vec<Event>,
    cursor: u64,
    len: usize,
}

/// Slab/list terminator.
const NIL: u32 = u32::MAX;

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free_head: NIL,
            heads: vec![NIL; WHEEL],
            occupied: [0; WHEEL_WORDS],
            far: BinaryHeap::new(),
            drain: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Schedules an event.
    pub fn push(&mut self, e: Event) {
        debug_assert!(e.at >= self.cursor, "event scheduled into the past");
        debug_assert!(
            self.drain.is_empty() || e.at > self.cursor,
            "push into the cycle currently being drained",
        );
        self.len += 1;
        if e.at < self.cursor + WHEEL as u64 {
            let b = (e.at as usize) & (WHEEL - 1);
            let node = if self.free_head != NIL {
                let n = self.free_head;
                self.free_head = self.nodes[n as usize].1;
                n
            } else {
                self.nodes.push((e, NIL));
                (self.nodes.len() - 1) as u32
            };
            debug_assert!(
                self.heads[b] == NIL || self.nodes[self.heads[b] as usize].0.at == e.at,
                "wheel bucket mixes cycles",
            );
            self.nodes[node as usize] = (e, self.heads[b]);
            self.heads[b] = node;
            self.occupied[b >> 6] |= 1 << (b & 63);
        } else {
            self.far.push(Reverse(e));
        }
    }

    /// Earliest occupied wheel cycle at or after `cursor`, from the
    /// occupancy bitmap (rotated word scan: at most `WHEEL_WORDS + 1`
    /// word probes).
    fn wheel_next_at(&self) -> Option<u64> {
        let start = (self.cursor as usize) & (WHEEL - 1);
        let mut idx = start;
        let mut scanned = 0;
        while scanned < WHEEL {
            let off = idx & 63;
            let bits = self.occupied[idx >> 6] >> off;
            if bits != 0 {
                let b = idx + bits.trailing_zeros() as usize;
                let dist = (b + WHEEL - start) % WHEEL;
                return Some(self.cursor + dist as u64);
            }
            let step = 64 - off;
            scanned += step;
            idx = (idx + step) & (WHEEL - 1);
        }
        None
    }

    /// Moves every event of `cycle` (wheel bucket plus due far events)
    /// into the drain buffer, sorted descending so tail pops deliver the
    /// exact heap order.
    fn refill(&mut self, cycle: u64) {
        debug_assert!(self.drain.is_empty());
        self.cursor = cycle;
        let b = (cycle as usize) & (WHEEL - 1);
        let mut n = self.heads[b];
        self.heads[b] = NIL;
        self.occupied[b >> 6] &= !(1 << (b & 63));
        while n != NIL {
            let (e, next) = self.nodes[n as usize];
            debug_assert_eq!(e.at, cycle, "wheel bucket mixed cycles");
            self.drain.push(e);
            self.nodes[n as usize].1 = self.free_head;
            self.free_head = n;
            n = next;
        }
        while self.far.peek().is_some_and(|&Reverse(e)| e.at == cycle) {
            let Reverse(e) = self.far.pop().expect("peeked event");
            self.drain.push(e);
        }
        self.drain.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Pops the next event due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<Event> {
        loop {
            if let Some(&e) = self.drain.last() {
                if e.at > now {
                    return None;
                }
                self.drain.pop();
                self.len -= 1;
                return Some(e);
            }
            let far_at = self.far.peek().map(|&Reverse(e)| e.at);
            let next = match (self.wheel_next_at(), far_at) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => a.or(b)?,
            };
            if next > now {
                return None;
            }
            self.refill(next);
        }
    }

    /// Earliest scheduled cycle, if any (idle-cycle skipping).
    #[must_use]
    pub fn next_at(&self) -> Option<u64> {
        let drained = self.drain.last().map(|e| e.at);
        let far_at = self.far.peek().map(|&Reverse(e)| e.at);
        [drained, self.wheel_next_at(), far_at].into_iter().flatten().min()
    }

    /// Outstanding events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every scheduled event, keeping the slab and heap
    /// allocations (core reset path).
    pub fn clear(&mut self) {
        for w in 0..WHEEL_WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let b = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.heads[b] = NIL;
            }
            self.occupied[w] = 0;
        }
        self.nodes.clear();
        self.free_head = NIL;
        self.far.clear();
        self.drain.clear();
        self.cursor = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_counts_free_units() {
        let mut fb = FuBank::new(FuPools { int_alu: 2, muldiv: 1, fp: 1, mem: 2 });
        assert_eq!(fb.budget(0), [2, 1, 1, 2]);
        fb.occupy(Pool::Int, 0, 1);
        assert_eq!(fb.budget(0)[Pool::Int.idx()], 1);
        // pipelined unit frees next cycle
        assert_eq!(fb.budget(1)[Pool::Int.idx()], 2);
    }

    #[test]
    fn unpipelined_blocks_until_done() {
        let mut fb = FuBank::new(FuPools { int_alu: 1, muldiv: 1, fp: 1, mem: 1 });
        fb.occupy(Pool::MulDiv, 0, 20);
        assert_eq!(fb.budget(5)[Pool::MulDiv.idx()], 0);
        assert_eq!(fb.budget(20)[Pool::MulDiv.idx()], 1);
    }

    #[test]
    fn total_counts_all() {
        let fb = FuBank::new(FuPools { int_alu: 3, muldiv: 1, fp: 2, mem: 2 });
        assert_eq!(fb.total(), 8);
    }

    #[test]
    fn event_queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Event { at: 5, kind: EventKind::ExecDone, rob_idx: 1, gen: 0 });
        q.push(Event { at: 2, kind: EventKind::MemDone, rob_idx: 2, gen: 0 });
        q.push(Event { at: 9, kind: EventKind::AguDone, rob_idx: 3, gen: 0 });
        assert_eq!(q.next_at(), Some(2));
        assert!(q.pop_due(1).is_none());
        assert_eq!(q.pop_due(5).unwrap().rob_idx, 2);
        assert_eq!(q.pop_due(5).unwrap().rob_idx, 1);
        assert!(q.pop_due(5).is_none());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// The calendar wheel pops the same events in the same order as a
    /// plain binary min-heap over randomized pushes — including far
    /// events beyond the wheel horizon — with matching `next_at` answers
    /// at every step.
    #[test]
    fn wheel_matches_heap_reference() {
        let mut rng = 0x0E11_AB1E_CAFE_D00Du64;
        let mut next = move || orinoco_util::xorshift64star(&mut rng);
        let mut wheel = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut tag = 0usize;
        for round in 0..4000 {
            for _ in 0..next() % 4 {
                // Unique rob_idx per event keeps the reference order
                // total, so both queues must agree exactly. Every ~8th
                // push crosses the wheel horizon into the far heap.
                let lat = if next() % 8 == 0 { 900 + next() % 2000 } else { 1 + next() % 250 };
                let kind = match next() % 4 {
                    0 => EventKind::ExecDone,
                    1 => EventKind::AguDone,
                    2 => EventKind::MemDone,
                    _ => EventKind::MemRetry,
                };
                tag += 1;
                let e = Event { at: now + lat, kind, rob_idx: tag, gen: 0 };
                wheel.push(e);
                heap.push(Reverse(e));
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.next_at(), heap.peek().map(|&Reverse(e)| e.at));
            // Advance: mostly single steps, occasionally a fast-forward
            // jump straight to the next event (or past everything).
            now += match next() % 8 {
                0 => wheel.next_at().map_or(50, |a| a.saturating_sub(now)) + (next() % 2),
                _ => 1 + next() % 3,
            };
            loop {
                let want =
                    if heap.peek().is_some_and(|&Reverse(e)| e.at <= now) { heap.pop() } else { None };
                let got = wheel.pop_due(now);
                assert_eq!(got, want.map(|Reverse(e)| e), "pop divergence at round {round}");
                if got.is_none() {
                    break;
                }
            }
            if round % 1000 == 999 {
                wheel.clear();
                heap.clear();
            }
        }
    }

    #[test]
    #[should_panic(expected = "no free unit")]
    fn over_occupy_panics() {
        let mut fb = FuBank::new(FuPools { int_alu: 1, muldiv: 1, fp: 1, mem: 1 });
        fb.occupy(Pool::Int, 0, 1);
        fb.occupy(Pool::Int, 0, 1);
    }
}
