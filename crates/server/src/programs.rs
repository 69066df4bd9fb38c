//! A per-worker cache of rewindable programs.
//!
//! A sweep runs each program under many configurations and instruction
//! budgets, and building one (`Workload::build`) allocates and fills its
//! whole memory image: 16 MiB for `memlat_like`. A worker therefore keeps
//! the programs its jobs ran, each marked right after it was built
//! ([`Emulator::mark`]) and rewound after every job ([`Emulator::rewind`]),
//! which copies back only the pages the job stored to. A rewound program
//! is indistinguishable from a fresh build, so a job's result does not
//! depend on whether its program was cached.
//!
//! Programs are keyed by `Workload::build`'s arguments and held under a
//! byte budget with least-recently-used eviction; a worker's order of jobs
//! fixes which programs it evicts. A program bigger than the budget is
//! built for each job and dropped after it. A job that panics drops its
//! program with its lane, so the next job on that program builds it again.

use orinoco_isa::Emulator;
use orinoco_workloads::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes of parked programs one worker may hold. One `server_sweep` sweep
/// runs eight programs of about 42 MiB together (two seeds of
/// `memlat_like`'s 16 MiB, `hashjoin_like`'s 4 MiB, `gemm_like`'s 1 MiB
/// and `exchange_like`'s 64 KiB), so they never evict each other.
pub const PROGRAM_BUDGET_BYTES: usize = 64 << 20;

/// What identifies a program: the workload, seed and scale it was built
/// from.
pub(crate) type ProgramKey = (Workload, u64, u32);

/// Program-cache counters, summed over a server's workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Jobs that found their program parked.
    pub hits: u64,
    /// Programs built, those too big to park included.
    pub builds: u64,
    /// Parked programs dropped to make room for another.
    pub evictions: u64,
    /// Bytes of parked programs now ([`Emulator::heap_bytes`]).
    pub bytes_held: u64,
    /// The most bytes one worker has held parked at once.
    pub peak_bytes_held: u64,
}

/// The shared side of every worker's cache: statistics only, so each
/// counter is `Relaxed` (it publishes no other data).
#[derive(Default)]
pub(crate) struct ProgramCounters {
    hits: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
    bytes_held: AtomicU64,
    peak_bytes_held: AtomicU64,
}

impl ProgramCounters {
    pub(crate) fn snapshot(&self) -> ProgramStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ProgramStats {
            hits: get(&self.hits),
            builds: get(&self.builds),
            evictions: get(&self.evictions),
            bytes_held: get(&self.bytes_held),
            peak_bytes_held: get(&self.peak_bytes_held),
        }
    }
}

struct Parked {
    key: ProgramKey,
    emu: Emulator,
    bytes: usize,
}

/// One worker's parked programs. See the module docs.
pub(crate) struct ProgramCache {
    budget: usize,
    /// Least recently checked in first: a checkout takes its program out
    /// and the check-in appends it.
    parked: Vec<Parked>,
    held: usize,
    counters: Arc<ProgramCounters>,
}

impl ProgramCache {
    pub(crate) fn new(budget: usize, counters: Arc<ProgramCounters>) -> Self {
        Self { budget, parked: Vec::new(), held: 0, counters }
    }

    /// The marked program `key` names: the parked one, or a fresh build.
    ///
    /// # Panics
    ///
    /// Panics if the scale is zero (`Workload::build`); keys made from a
    /// spec have had their scale checked.
    pub(crate) fn checkout(&mut self, key: ProgramKey) -> Emulator {
        if let Some(i) = self.parked.iter().position(|p| p.key == key) {
            let p = self.parked.remove(i);
            self.release(p.bytes);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return p.emu;
        }
        self.counters.builds.fetch_add(1, Ordering::Relaxed);
        let (workload, seed, scale) = key;
        let mut emu = workload.build(seed, scale);
        emu.mark();
        emu
    }

    /// Rewinds a program [`ProgramCache::checkout`] handed out and parks
    /// it, evicting the least recently used programs until it fits. A
    /// program bigger than the whole budget is dropped instead.
    pub(crate) fn checkin(&mut self, key: ProgramKey, mut emu: Emulator) {
        let bytes = emu.heap_bytes();
        if bytes > self.budget {
            return;
        }
        emu.rewind();
        while self.held + bytes > self.budget {
            let evicted = self.parked.remove(0);
            self.release(evicted.bytes);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.parked.push(Parked { key, emu, bytes });
        self.held += bytes;
        self.counters.bytes_held.fetch_add(bytes as u64, Ordering::Relaxed);
        self.counters.peak_bytes_held.fetch_max(self.held as u64, Ordering::Relaxed);
    }

    fn release(&mut self, bytes: usize) {
        self.held -= bytes;
        self.counters.bytes_held.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: usize) -> (ProgramCache, Arc<ProgramCounters>) {
        let counters = Arc::new(ProgramCounters::default());
        (ProgramCache::new(budget, Arc::clone(&counters)), counters)
    }

    fn cycle(c: &mut ProgramCache, key: ProgramKey) {
        let emu = c.checkout(key);
        c.checkin(key, emu);
    }

    #[test]
    fn evicts_the_least_recently_used_and_drops_what_cannot_fit() {
        // exchange_like holds 64 KiB of memory: room for two, not three.
        let one = Workload::ExchangeLike.build(1, 1).heap_bytes() + 4096;
        let (mut c, counters) = cache(2 * one);
        let [a, b, d] = [1, 2, 3].map(|seed| (Workload::ExchangeLike, seed, 1));
        cycle(&mut c, a);
        cycle(&mut c, b);
        cycle(&mut c, a); // hit; b is now least recently used
        cycle(&mut c, d); // evicts b
        cycle(&mut c, a); // hit
        cycle(&mut c, b); // rebuilt, evicts d
        let s = counters.snapshot();
        assert_eq!((s.hits, s.builds, s.evictions), (2, 4, 2));
        assert!(s.peak_bytes_held <= 2 * one as u64);
        // A 1 MiB gemm_like image exceeds the budget: built, never parked.
        cycle(&mut c, (Workload::GemmLike, 1, 1));
        cycle(&mut c, (Workload::GemmLike, 1, 1));
        let s = counters.snapshot();
        assert_eq!((s.hits, s.builds, s.evictions), (2, 6, 2));
        assert_eq!(s.bytes_held, c.held as u64);
    }
}
