//! The non-collapsible reorder buffer: free-list allocation into any
//! slot, the `SPEC` vector of the merged commit scheduler (§3.2), and the
//! dispatch-order list that is the ROB's one program order.
//!
//! Program order is an intrusive doubly linked list over the physical
//! slots: dispatch links an entry at the tail and [`Rob::free`] unlinks
//! it, so every walk visits live entries only. The Orinoco commit grants
//! and the any-grant stall probe walk it oldest first and stop at the
//! first `SPEC` entry; the in-order commit policies take its prefix of
//! non-retired entries; a squash takes its suffix, walked youngest first.
//! The age matrix of the paper is the oracle, not a second scheduler:
//! [`Rob::grants_orinoco_matrix`] rebuilds the merged [`CommitScheduler`]
//! from the live entries and must grant exactly what the walk grants.

use crate::rename::PhysReg;
use orinoco_isa::{ArchReg, DynInst, InstClass, Opcode};
use orinoco_matrix::{BitVec64, CommitScheduler};

/// The null link of the order list.
const NIL: usize = usize::MAX;

/// A ROB entry: the instruction's rename state, queue locations and
/// execution status.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Dynamic sequence number (wrong-path instructions get their own).
    pub seq: u64,
    /// Byte PC.
    pub pc: u64,
    /// Operation.
    pub op: Opcode,
    /// Functional-unit class.
    pub class: InstClass,
    /// Fetched down a mispredicted path (will be squashed, never commits).
    pub wrong_path: bool,
    /// Destination rename: `(arch, new phys, previous phys)`.
    pub dst: Option<(ArchReg, PhysReg, PhysReg)>,
    /// Renamed sources.
    pub srcs: [Option<PhysReg>; 2],
    /// Operands have been read (consumer counters decremented).
    pub srcs_read: bool,
    /// Issue-queue location while waiting to issue: `(queue, slot)` —
    /// queue 0 is the unified IQ; split-IQ cores use one queue per pool.
    pub iq_slot: Option<(usize, usize)>,
    /// LQ slot for loads.
    pub lq_slot: Option<usize>,
    /// SQ slot for stores.
    pub sq_slot: Option<usize>,
    /// Issued from the IQ.
    pub issued: bool,
    /// Address generation finished (memory ops).
    pub agu_done: bool,
    /// Store data operand is available (stores complete when both the
    /// address resolved and the data arrived; the AGU no longer waits for
    /// the data register).
    pub store_data_ready: bool,
    /// Execution finished (loads: data returned).
    pub completed: bool,
    /// Branch outcome mismatch detected at fetch; realised at resolution.
    pub mispredicted: bool,
    /// Injected page fault (never becomes safe; handled as a precise
    /// exception when it reaches the oldest position).
    pub fault: bool,
    /// Effective address (oracle) for loads/stores.
    pub mem_addr: Option<u64>,
    /// Oracle next PC (branch redirect target).
    pub next_pc: u64,
    /// Oracle direction for branches.
    pub taken: bool,
    /// Criticality tag at dispatch.
    pub critical: bool,
    /// Left the logical ROB while still executing (post-commit zombie).
    pub retired: bool,
    /// Resources released early but ROB entry still held (the
    /// "SPEC w/o ROB" ablation, where Cherry reserves ROB entries).
    pub released: bool,
    /// The original dynamic instruction, for re-injection after an
    /// exception or replay squash (`None` only in unit tests).
    pub dyn_inst: Option<DynInst>,
}

/// The reorder buffer.
///
/// Physical slot storage is twice the logical capacity: policies with
/// post-commit execution (VB/BR/ECL) *retire* instructions early — the
/// logical entry is released for dispatch while the in-flight "zombie"
/// keeps its physical slot until execution completes.
#[derive(Clone, Debug)]
pub struct Rob {
    slots: Vec<Option<RobEntry>>,
    free: Vec<usize>,
    /// The `SPEC` vector of the merged commit scheduler (§3.2): the
    /// occupant may still misspeculate or fault.
    spec: BitVec64,
    completed: BitVec64,
    /// Program order (dispatch order), the ROB's one order: an intrusive
    /// doubly linked list over the physical slots. `next[i]`/`prev[i]`
    /// link the occupant of slot `i` to its younger/older neighbour
    /// (`NIL` at the ends; a free slot's links are stale and never read);
    /// `first`/`last` are the oldest and youngest live slots. Every live entry is linked,
    /// retired zombies included, from `install` until `free`, so a walk
    /// never meets a freed slot.
    ///
    /// The list is strictly seq-ascending: fetch numbers in order,
    /// wrong-path synthetics start above `1 << 62` and only grow, and
    /// squashes remove suffixes and re-inject in seq order. So the squash
    /// set of [`Rob::from_seq_into`] is a suffix of the list.
    next: Vec<usize>,
    prev: Vec<usize>,
    first: usize,
    last: usize,
    /// Per-slot generation counters (bumped on free) to invalidate stale
    /// events.
    gens: Vec<u64>,
    /// Compact retired-zombie bits, mirroring `RobEntry::retired`.
    retired_bits: BitVec64,
    logical_cap: usize,
    logical_used: usize,
}

impl Rob {
    /// Creates a ROB with `cap` (logical) entries.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let physical = cap * 2;
        Self {
            slots: vec![None; physical],
            free: (0..physical).rev().collect(),
            spec: BitVec64::new(physical),
            completed: BitVec64::new(physical),
            next: vec![NIL; physical],
            prev: vec![NIL; physical],
            first: NIL,
            last: NIL,
            gens: vec![0; physical],
            retired_bits: BitVec64::new(physical),
            logical_cap: cap,
            logical_used: 0,
        }
    }

    /// Logical capacity in entries (the Table 1 ROB size).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.logical_cap
    }

    /// Logically occupied entries (dispatched, not yet retired).
    #[must_use]
    pub fn len(&self) -> usize {
        self.logical_used
    }

    /// `true` when no live entries remain, including zombies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Free logical entries.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.logical_cap - self.logical_used
    }

    /// Retired-but-executing zombies (post-commit execution occupancy).
    #[must_use]
    pub fn zombie_count(&self) -> usize {
        let physical_used = self.slots.len() - self.free.len();
        physical_used - self.logical_used
    }

    /// Generation of `idx`, for event tagging.
    #[must_use]
    pub fn generation(&self, idx: usize) -> u64 {
        self.gens[idx]
    }

    /// `true` if `(idx, gen)` still names the same instruction.
    #[must_use]
    pub fn is_live(&self, idx: usize, gen: u64) -> bool {
        self.slots[idx].is_some() && self.gens[idx] == gen
    }

    /// Allocates an entry (random allocation into any free slot). Returns
    /// the slot, or `None` when the logical capacity is exhausted.
    /// `speculative` instructions set their `SPEC` bit.
    pub fn alloc(&mut self, entry: RobEntry, speculative: bool) -> Option<usize> {
        if self.logical_used == self.logical_cap {
            return None;
        }
        let idx = self.free.pop().expect("zombie slack exhausted");
        self.install(idx, entry, speculative);
        Some(idx)
    }

    /// The horizontal bank (of `nbanks`) that physical slot `idx` belongs
    /// to (§4.3: the age-matrix SRAM is split into `dispatch width` banks).
    #[must_use]
    pub fn bank_of(&self, idx: usize, nbanks: usize) -> usize {
        idx * nbanks / self.slots.len()
    }

    /// Allocates like [`Rob::alloc`] but honouring the single-write-port-
    /// per-bank constraint: the chosen slot's bank must not be in
    /// `used_banks`. Returns the entry back (`Err`) on logical exhaustion
    /// **or** when every free slot lies in an already-written bank (a
    /// dispatch port conflict), so the caller can stash it without cloning.
    // Returning the entry by value on failure is the point: the caller
    // stashes it without a clone, so the wide Err variant stays.
    #[allow(clippy::result_large_err)]
    pub fn alloc_banked(
        &mut self,
        entry: RobEntry,
        speculative: bool,
        used_banks: &[bool],
    ) -> Result<usize, RobEntry> {
        if self.logical_used == self.logical_cap {
            return Err(entry);
        }
        let nbanks = used_banks.len();
        // Prefer the emptiest eligible bank (load balancing, §4.3);
        // approximation: latest-freed slot in any eligible bank.
        let Some(pos) = self
            .free
            .iter()
            .rposition(|&i| !used_banks[self.bank_of(i, nbanks)])
        else {
            return Err(entry);
        };
        let idx = self.free.remove(pos);
        self.install(idx, entry, speculative);
        Ok(idx)
    }

    fn install(&mut self, idx: usize, entry: RobEntry, speculative: bool) {
        self.logical_used += 1;
        self.spec.assign(idx, speculative);
        self.completed.clear(idx);
        // Link at the tail: the youngest instruction.
        self.prev[idx] = self.last;
        self.next[idx] = NIL;
        match self.last {
            NIL => self.first = idx,
            tail => self.next[tail] = idx,
        }
        self.last = idx;
        self.retired_bits.clear(idx);
        self.slots[idx] = Some(entry);
    }

    /// Takes `idx` out of the order list, joining its neighbours.
    fn unlink(&mut self, idx: usize) {
        let (p, n) = (self.prev[idx], self.next[idx]);
        match p {
            NIL => self.first = n,
            p => self.next[p] = n,
        }
        match n {
            NIL => self.last = p,
            n => self.prev[n] = p,
        }
    }

    /// The live slots, oldest first.
    fn oldest_first(&self) -> Links<'_> {
        Links { links: &self.next, cur: self.first }
    }

    /// The live slots, youngest first.
    fn youngest_first(&self) -> Links<'_> {
        Links { links: &self.prev, cur: self.last }
    }

    /// Entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[must_use]
    pub fn entry(&self, idx: usize) -> &RobEntry {
        self.slots[idx].as_ref().unwrap_or_else(|| panic!("empty ROB slot {idx}"))
    }

    /// Mutable entry accessor.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn entry_mut(&mut self, idx: usize) -> &mut RobEntry {
        self.slots[idx].as_mut().unwrap_or_else(|| panic!("empty ROB slot {idx}"))
    }

    /// `Some(entry)` if the slot is occupied.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&RobEntry> {
        self.slots[idx].as_ref()
    }

    /// Marks execution complete.
    pub fn mark_completed(&mut self, idx: usize) {
        self.entry_mut(idx).completed = true;
        self.completed.set(idx);
    }

    /// Clears the `SPEC` bit (the instruction can no longer misspeculate
    /// or fault).
    pub fn mark_safe(&mut self, idx: usize) {
        self.spec.clear(idx);
    }

    /// Re-sets the `SPEC` bit (replay). Not for a retired zombie: it has
    /// already committed.
    pub fn mark_speculative(&mut self, idx: usize) {
        self.spec.set(idx);
    }

    /// `true` if the instruction's own `SPEC` bit is clear.
    #[must_use]
    pub fn is_safe_self(&self, idx: usize) -> bool {
        !self.spec.get(idx)
    }

    /// The one walk behind every Orinoco grant query (see
    /// [`Rob::grants_orinoco_into`]): the grantable entries, oldest first.
    /// Only the compact side arrays (links, bit vectors) are read: the
    /// wide `RobEntry` slots would cost a cache miss per step.
    fn grantable(&self, depth: Option<usize>) -> impl Iterator<Item = usize> + '_ {
        self.oldest_first()
            .take_while(|&i| !self.spec.get(i))
            .filter(move |&i| depth.is_none() || !self.retired_bits.get(i))
            .take(depth.unwrap_or(usize::MAX))
            .filter(|&i| self.completed.get(i))
    }

    /// The out-of-order commit grants of the Orinoco policy: up to `width`
    /// oldest completed instructions whose older speculation has resolved
    /// and whose own `SPEC` bit is clear.
    #[must_use]
    pub fn grants_orinoco(&self, width: usize) -> Vec<usize> {
        self.grants_orinoco_depth(width, None)
    }

    /// `true` if at least one instruction would be granted commit this
    /// cycle — the allocation-free stall test (equivalent to
    /// `!grants_orinoco(1).is_empty()`).
    #[must_use]
    pub fn any_grant_orinoco(&self) -> bool {
        self.grantable(None).next().is_some()
    }

    /// Allocating form of [`Rob::grants_orinoco_into`].
    #[must_use]
    pub fn grants_orinoco_depth(&self, width: usize, depth: Option<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        self.grants_orinoco_into(width, depth, &mut out);
        out
    }

    /// The Orinoco commit grants, oldest first, written into the
    /// caller-owned `out` (cleared first) without allocating — the
    /// per-cycle hot path of [`crate::Core`].
    ///
    /// The merged scheduler's grant condition — completed ∧ ¬SPEC ∧ no
    /// older live `SPEC` entry (`row & SPEC` reduction-NORs to zero) — is
    /// monotone in age: the oldest live `SPEC` entry blocks every younger
    /// entry and nothing older. So the grants are the first `width`
    /// completed entries of a walk over the order list that stops at the
    /// first `SPEC` entry. `Some(d)` restricts them to the `d` oldest
    /// live, non-retired entries — the "limited commit depth" ablation of
    /// §6.2 (how far the core can scan to find instructions to commit out
    /// of order). Retired zombies sit outside that window but still block
    /// through their `SPEC` bit.
    pub fn grants_orinoco_into(&self, width: usize, depth: Option<usize>, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.grantable(depth).take(width));
    }

    /// The matrix oracle of [`Rob::grants_orinoco_depth`]: the merged
    /// [`CommitScheduler`] of §3.2 is rebuilt from every live entry in
    /// dispatch order and asked for its `width` oldest grants among the
    /// completed entries of the `depth` window. Rebuilding costs O(n²) per
    /// call; the invariant checks of [`crate::Core`] and the tests call
    /// it, the pipeline never does.
    ///
    /// # Panics
    ///
    /// Panics if live dispatch order is not strictly seq-ascending — the
    /// invariant the squash walk and the issue queue's key ranking rest
    /// on.
    #[doc(hidden)]
    #[must_use]
    pub fn grants_orinoco_matrix(&self, width: usize, depth: Option<usize>) -> Vec<usize> {
        let n = self.slots.len();
        let mut sched = CommitScheduler::new(n);
        let mut window = BitVec64::new(n);
        let mut room = depth.unwrap_or(usize::MAX);
        let mut prev = None;
        for i in self.oldest_first() {
            let seq = self.entry(i).seq;
            assert!(prev < Some(seq), "live dispatch order not seq-ascending at seq {seq}");
            prev = Some(seq);
            sched.dispatch(i, self.spec.get(i));
            if room > 0 && (depth.is_none() || !self.retired_bits.get(i)) {
                room -= 1;
                window.assign(i, self.completed.get(i));
            }
        }
        sched.commit_grants(&window, width)
    }

    /// The oldest live, non-retired instruction (the "head" of the logical
    /// FIFO). Retired zombies stay linked until they are freed: a resolved
    /// one is never completed (the pipeline frees a zombie the moment it
    /// completes), so it is never granted, and its clear `SPEC` bit blocks
    /// nothing; an unresolved one (a BR branch retired before it resolved)
    /// blocks every younger grant until it resolves, as its row ∧ `SPEC`
    /// does in the matrix.
    #[must_use]
    pub fn head(&self) -> Option<usize> {
        self.unretired().next()
    }

    /// Live, non-retired entries in program order.
    fn unretired(&self) -> impl Iterator<Item = usize> + '_ {
        self.oldest_first().filter(|&i| !self.retired_bits.get(i))
    }

    /// Every linked slot, oldest first (test oracle of the order list).
    ///
    /// # Panics
    ///
    /// Panics if the backward links do not mirror the forward ones.
    #[doc(hidden)]
    #[must_use]
    pub fn linked_order(&self) -> Vec<usize> {
        let order: Vec<usize> = self.oldest_first().take(self.slots.len() + 1).collect();
        let mut back: Vec<usize> = self.youngest_first().take(self.slots.len() + 1).collect();
        back.reverse();
        assert_eq!(order, back, "backward links do not mirror the forward ones");
        order
    }

    /// The first `k` live, non-retired entries in program order.
    #[must_use]
    pub fn in_order(&self, k: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.in_order_into(k, &mut out);
        out
    }

    /// Allocation-free counterpart of [`Rob::in_order`]: the program-order
    /// prefix is written into the caller-owned `out` (cleared first).
    pub fn in_order_into(&self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.unretired().take(k));
    }

    /// Live entries younger than sequence `seq`, youngest first — the
    /// squash set. Retired zombies are always older than any squash point
    /// (commit is non-speculative), so they never appear here.
    #[must_use]
    pub fn younger_than_seq(&self, seq: u64) -> Vec<usize> {
        match seq.checked_add(1) {
            Some(from) => self.from_seq(from),
            None => Vec::new(),
        }
    }

    /// Live entries with sequence `>= from`, youngest first — the
    /// inclusive squash set used for exceptions and replay traps.
    #[must_use]
    pub fn from_seq(&self, from: u64) -> Vec<usize> {
        let mut v = Vec::new();
        self.from_seq_into(from, &mut v);
        v
    }

    /// Allocation-free counterpart of [`Rob::from_seq`]: the squash set is
    /// written into the caller-owned `out` (cleared first). Live dispatch
    /// order is seq-ascending, so the set is a suffix of the order list,
    /// collected by walking it youngest first.
    pub fn from_seq_into(&self, from: u64, out: &mut Vec<usize>) {
        out.clear();
        for i in self.youngest_first() {
            let e = self.entry(i);
            if e.seq < from {
                break;
            }
            debug_assert!(!e.retired, "squash of retired zombie");
            out.push(i);
        }
    }

    /// Retires an instruction early (post-commit execution): its logical
    /// ROB entry is released for dispatch while the physical slot lives on
    /// until execution completes.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty or already retired.
    pub fn retire_early(&mut self, idx: usize) {
        let e = self.entry_mut(idx);
        assert!(!e.retired, "double retire of slot {idx}");
        e.retired = true;
        self.retired_bits.set(idx);
        self.logical_used -= 1;
    }

    /// Frees a committed or squashed entry — the one place an entry
    /// leaves the order list — bumping its generation so in-flight events
    /// for it become stale.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn free(&mut self, idx: usize) -> RobEntry {
        let entry = self.slots[idx]
            .take()
            .unwrap_or_else(|| panic!("free of empty ROB slot {idx}"));
        if !entry.retired {
            self.logical_used -= 1;
        }
        self.unlink(idx);
        self.spec.clear(idx);
        self.completed.clear(idx);
        self.gens[idx] += 1;
        self.retired_bits.clear(idx);
        self.free.push(idx);
        entry
    }

    /// Restores the freshly-constructed state in place, keeping every
    /// allocation (core reset path). The free list is rebuilt in pristine
    /// pop order so slot placement — and therefore every downstream
    /// random-allocation decision — matches a newly built ROB exactly.
    pub fn reset(&mut self) {
        self.slots.fill(None);
        self.gens.fill(0);
        self.spec.clear_all();
        self.completed.clear_all();
        self.retired_bits.clear_all();
        self.first = NIL;
        self.last = NIL;
        self.free.clear();
        self.free.extend((0..self.slots.len()).rev());
        self.logical_used = 0;
    }
}

/// A walk along one direction of the order list.
struct Links<'a> {
    links: &'a [usize],
    cur: usize,
}

impl Iterator for Links<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let i = self.cur;
        if i == NIL {
            return None;
        }
        self.cur = self.links[i];
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orinoco_isa::InstClass;

    fn mk(seq: u64) -> RobEntry {
        RobEntry {
            seq,
            pc: seq * 4,
            op: Opcode::Add,
            class: InstClass::IntAlu,
            wrong_path: false,
            dst: None,
            srcs: [None, None],
            srcs_read: false,
            iq_slot: None,
            lq_slot: None,
            sq_slot: None,
            issued: false,
            agu_done: false,
            store_data_ready: false,
            completed: false,
            mispredicted: false,
            fault: false,
            mem_addr: None,
            next_pc: seq * 4 + 4,
            taken: false,
            critical: false,
            retired: false,
            released: false,
            dyn_inst: None,
        }
    }

    #[test]
    fn alloc_and_head_in_program_order() {
        let mut rob = Rob::new(8);
        let a = rob.alloc(mk(0), false).unwrap();
        let b = rob.alloc(mk(1), false).unwrap();
        assert_eq!(rob.head(), Some(a));
        rob.free(a);
        assert_eq!(rob.head(), Some(b));
        assert_eq!(rob.in_order(8), vec![b]);
    }

    #[test]
    fn orinoco_grants_pass_stalled_head() {
        let mut rob = Rob::new(8);
        let a = rob.alloc(mk(0), false).unwrap(); // long-latency, incomplete
        let b = rob.alloc(mk(1), false).unwrap();
        rob.mark_completed(b);
        assert_eq!(rob.grants_orinoco(4), vec![b]);
        let _ = a;
    }

    #[test]
    fn spec_bit_blocks_younger_grants() {
        let mut rob = Rob::new(8);
        let br = rob.alloc(mk(0), true).unwrap(); // unresolved branch
        let c = rob.alloc(mk(1), false).unwrap();
        rob.mark_completed(c);
        assert!(rob.grants_orinoco(4).is_empty());
        rob.mark_safe(br);
        assert_eq!(rob.grants_orinoco(4), vec![c]);
        assert_eq!(rob.grants_orinoco_matrix(4, None), vec![c]);
    }

    #[test]
    fn generation_invalidates_stale_events() {
        let mut rob = Rob::new(4);
        let a = rob.alloc(mk(0), false).unwrap();
        let g = rob.generation(a);
        assert!(rob.is_live(a, g));
        rob.free(a);
        assert!(!rob.is_live(a, g));
        let a2 = rob.alloc(mk(1), false).unwrap();
        assert_eq!(a2, a); // slot recycled
        assert!(!rob.is_live(a, g)); // old generation still stale
        assert!(rob.is_live(a2, rob.generation(a2)));
    }

    #[test]
    fn younger_than_seq_is_youngest_first() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.alloc(mk(s), false).unwrap();
        }
        let squash = rob.younger_than_seq(1);
        let seqs: Vec<u64> = squash.iter().map(|&i| rob.entry(i).seq).collect();
        assert_eq!(seqs, vec![4, 3, 2]);
    }

    #[test]
    fn in_order_skips_freed() {
        let mut rob = Rob::new(8);
        let a = rob.alloc(mk(0), false).unwrap();
        let b = rob.alloc(mk(1), false).unwrap();
        let c = rob.alloc(mk(2), false).unwrap();
        rob.free(b);
        let order = rob.in_order(8);
        assert_eq!(order, vec![a, c]);
    }

    #[test]
    fn full_rob_rejects() {
        let mut rob = Rob::new(2);
        rob.alloc(mk(0), false).unwrap();
        rob.alloc(mk(1), false).unwrap();
        assert!(rob.alloc(mk(2), false).is_none());
        assert_eq!(rob.free_count(), 0);
    }

    #[test]
    fn early_retire_releases_logical_capacity() {
        let mut rob = Rob::new(2);
        let a = rob.alloc(mk(0), false).unwrap(); // incomplete (post-commit exec)
        let b = rob.alloc(mk(1), false).unwrap();
        assert!(rob.alloc(mk(2), false).is_none());
        rob.retire_early(a);
        assert_eq!(rob.free_count(), 1);
        // Zombie no longer blocks the in-order head...
        assert_eq!(rob.head(), Some(b));
        // ...and dispatch proceeds while the zombie still executes.
        let c = rob.alloc(mk(2), false).unwrap();
        assert_ne!(c, a, "zombie slot must not be reused");
        // Completion finally frees the physical slot.
        rob.free(a);
        assert_eq!(rob.len(), 2);
        let _ = b;
    }

    #[test]
    #[should_panic(expected = "double retire")]
    fn double_retire_panics() {
        let mut rob = Rob::new(2);
        let a = rob.alloc(mk(0), false).unwrap();
        rob.retire_early(a);
        rob.retire_early(a);
    }

    #[test]
    fn replay_restores_spec_bit() {
        let mut rob = Rob::new(4);
        let l = rob.alloc(mk(0), true).unwrap();
        rob.mark_safe(l);
        assert!(rob.is_safe_self(l));
        rob.mark_speculative(l);
        assert!(!rob.is_safe_self(l));
    }
}
