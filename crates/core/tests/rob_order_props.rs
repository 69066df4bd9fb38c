//! Property tests for the ROB's one program order: the linked dispatch-
//! order list whose walks produce every Orinoco commit grant, the
//! any-grant stall probe and the squash set.
//!
//! Random histories drive `alloc`/`alloc_banked`, `mark_completed`,
//! `mark_safe`/`mark_speculative`, `retire_early`, out-of-order `free`
//! (the one place an entry is unlinked), `head` and squashes through
//! `from_seq_into` that re-allocate the squashed seqs into recycled slots
//! — the shape that once left a stale order entry identical to a live
//! one. As in the pipeline, a zombie is freed the moment it completes. A
//! plain model (live entries in seq order) tracks the truth. After every
//! step:
//!
//! * the list, walked forward and backward, visits exactly the model's
//!   live slots (retired zombies included) in seq order;
//! * the walk's grants at widths 1–8, for depth `None` and 1–8, equal the
//!   paper's merged age-matrix + `SPEC` scheduler rebuilt from the model;
//! * `any_grant_orinoco()` equals `!grants_orinoco(1).is_empty()`;
//! * `from_seq_into` equals a naive filter-and-sort of the model.
//!
//! Logical capacities 31/32/33/64/65 put the physical slot count (twice
//! the logical one) on both sides of the 64-bit word boundary.

use orinoco_core::{Rob, RobEntry};
use orinoco_isa::{InstClass, Opcode};
use orinoco_matrix::{BitVec64, CommitScheduler};
use orinoco_util::{prop, Rng};

const CAPS: [usize; 5] = [31, 32, 33, 64, 65];

fn entry(seq: u64) -> RobEntry {
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

/// One live ROB entry as the model sees it.
#[derive(Clone, Copy, Debug)]
struct Live {
    slot: usize,
    seq: u64,
    spec: bool,
    completed: bool,
    retired: bool,
}

/// The model: live entries in dispatch (= seq) order, the next seq
/// fetch would hand out, and the `(seq, slot)` pairs of the last squash.
struct Model {
    live: Vec<Live>,
    next_seq: u64,
    squashed: Vec<(u64, usize)>,
}

/// How often the histories hit the cases the properties are about.
#[derive(Default)]
struct Coverage {
    /// Steps where the walk granted something.
    granted: u64,
    /// Steps where a `SPEC` bit held back some completed entry.
    blocked: u64,
    /// Refetched seqs that landed in the slot they were squashed from.
    same_slot_refetch: u64,
    /// `head` calls made while the oldest live entry was a `SPEC` zombie.
    spec_zombie_heads: u64,
}

impl Model {
    /// Seqs at or above this may be squashed: retired zombies are older
    /// than any squash point.
    fn squash_floor(&self) -> u64 {
        self.live.iter().filter(|e| e.retired).map(|e| e.seq + 1).max().unwrap_or(0)
    }

    /// The squash set from `from`, youngest first.
    fn squash_set(&self, from: u64) -> Vec<usize> {
        let mut v: Vec<&Live> = self.live.iter().filter(|e| e.seq >= from).collect();
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
        v.into_iter().map(|e| e.slot).collect()
    }

    fn pick(&self, rng: &mut Rng) -> Option<usize> {
        (!self.live.is_empty()).then(|| rng.gen_range(0..self.live.len()))
    }
}

/// The merged commit scheduler of §3.2, rebuilt from the model: every
/// live entry dispatched in seq order with its `SPEC` bit.
fn rebuild(phys: usize, model: &Model) -> CommitScheduler {
    let mut sched = CommitScheduler::new(phys);
    for e in &model.live {
        sched.dispatch(e.slot, e.spec);
    }
    sched
}

/// The completed entries the matrix may grant under `depth`: all of them,
/// or those among the `d` oldest live, non-retired entries.
fn window(phys: usize, model: &Model, depth: Option<usize>) -> BitVec64 {
    BitVec64::from_indices(
        phys,
        model
            .live
            .iter()
            .filter(|e| depth.is_none() || !e.retired)
            .take(depth.unwrap_or(usize::MAX))
            .filter(|e| e.completed)
            .map(|e| e.slot),
    )
}

fn step(rng: &mut Rng, rob: &mut Rob, model: &mut Model, phys: usize, cov: &mut Coverage) {
    match rng.gen_range(0..20u32) {
        // Dispatch, half of the time under the banked write-port rule.
        0..=7 => {
            let seq = model.next_seq;
            let spec = rng.gen_bool(0.3);
            let slot = if rng.gen::<bool>() {
                rob.alloc(entry(seq), spec)
            } else {
                let nbanks = [2, 4][rng.gen_range(0..2)];
                let used: Vec<bool> = (0..nbanks).map(|_| rng.gen_bool(0.5)).collect();
                rob.alloc_banked(entry(seq), spec, &used).ok()
            };
            if let Some(slot) = slot {
                assert!(slot < phys, "slot {slot} beyond the physical ROB");
                if model.squashed.contains(&(seq, slot)) {
                    cov.same_slot_refetch += 1;
                }
                model.live.push(Live { slot, seq, spec, completed: false, retired: false });
                model.next_seq += 1;
            }
        }
        8..=10 => {
            if let Some(k) = model.pick(rng) {
                rob.mark_completed(model.live[k].slot);
                model.live[k].completed = true;
                if model.live[k].retired {
                    // A zombie that finishes executing leaves at once.
                    rob.free(model.live.remove(k).slot);
                }
            }
        }
        11..=12 => {
            if let Some(k) = model.pick(rng) {
                let e = &mut model.live[k];
                if rng.gen_bool(0.75) {
                    rob.mark_safe(e.slot);
                    e.spec = false;
                } else if !e.retired {
                    // A replay re-arms an instruction that has not left the
                    // ROB; a zombie already committed.
                    rob.mark_speculative(e.slot);
                    e.spec = true;
                }
            }
        }
        // Out-of-order commit.
        13..=14 => {
            if let Some(k) = model.pick(rng) {
                let e = model.live.remove(k);
                assert_eq!(rob.free(e.slot).seq, e.seq);
            }
        }
        // The pipeline asks for the head every cycle.
        15 => {
            let oldest = model.live.first();
            cov.spec_zombie_heads += u64::from(oldest.is_some_and(|e| e.retired && e.spec));
            let want = model.live.iter().find(|e| !e.retired).map(|e| e.slot);
            assert_eq!(rob.head(), want, "head");
        }
        // Post-commit execution, with the zombie slack bounded as the
        // pipeline bounds it.
        16..=17 => {
            if let Some(k) = model.pick(rng) {
                let e = &mut model.live[k];
                // Only an incomplete instruction leaves the ROB early; a
                // completed one is freed at commit.
                if !e.retired && !e.completed && rob.zombie_count() < rob.capacity() {
                    rob.retire_early(e.slot);
                    e.retired = true;
                }
            }
        }
        // Squash from a random seq, then refetch from it: the squashed
        // seqs come back, and the LIFO free list hands back their slots.
        _ => {
            let lo = model.squash_floor();
            let from = rng.gen_range(lo..model.next_seq.max(lo) + 1);
            let mut squash = Vec::new();
            rob.from_seq_into(from, &mut squash);
            assert_eq!(squash, model.squash_set(from), "squash set from seq {from}");
            model.squashed.clear();
            for &slot in &squash {
                model.squashed.push((rob.free(slot).seq, slot));
            }
            model.live.retain(|e| e.seq < from);
            model.next_seq = from;
        }
    }
}

fn check(rng: &mut Rng, rob: &Rob, model: &Model, phys: usize, cov: &mut Coverage) {
    let live: Vec<usize> = model.live.iter().map(|e| e.slot).collect();
    assert_eq!(rob.linked_order(), live, "the order list does not hold exactly the live slots");
    let sched = rebuild(phys, model);
    let all = rob.grants_orinoco(usize::MAX);
    cov.granted += u64::from(!all.is_empty());
    cov.blocked += u64::from(model.live.iter().filter(|e| e.completed).count() > all.len());
    for depth in std::iter::once(None).chain((1..=8).map(Some)) {
        let cands = window(phys, model, depth);
        for width in 1..=8 {
            assert_eq!(
                rob.grants_orinoco_depth(width, depth),
                sched.commit_grants(&cands, width),
                "width {width} depth {depth:?}: walk diverged from the rebuilt matrix",
            );
        }
    }
    // The ROB's own matrix oracle (what the pipeline's invariant check
    // runs) agrees with the model's, on one random query.
    let width = rng.gen_range(1..9);
    let depth = rng.gen_bool(0.5).then(|| rng.gen_range(1..9));
    assert_eq!(
        rob.grants_orinoco_matrix(width, depth),
        sched.commit_grants(&window(phys, model, depth), width),
        "width {width} depth {depth:?}: ROB oracle diverged from the model",
    );
    assert_eq!(rob.any_grant_orinoco(), !rob.grants_orinoco(1).is_empty());
    let lo = model.squash_floor();
    let from = rng.gen_range(lo..model.next_seq.max(lo) + 2);
    let mut got = Vec::new();
    rob.from_seq_into(from, &mut got);
    assert_eq!(got, model.squash_set(from), "from_seq_into({from})");
}

#[test]
fn linked_walk_matches_rebuilt_matrix_under_churn() {
    let mut cov = Coverage::default();
    prop::forall("rob_order_walk_vs_matrix", 0x50B0, 16, |rng| {
        for cap in CAPS {
            let phys = 2 * cap;
            let mut rob = Rob::new(cap);
            let mut model = Model { live: Vec::new(), next_seq: 0, squashed: Vec::new() };
            // Long enough to recycle every physical slot many times over.
            for _ in 0..16 * cap {
                step(rng, &mut rob, &mut model, phys, &mut cov);
                check(rng, &rob, &model, phys, &mut cov);
            }
            assert_eq!(rob.len(), model.live.iter().filter(|e| !e.retired).count());
        }
    });
    assert!(cov.granted > 0, "no history ever granted commit");
    assert!(cov.blocked > 0, "no SPEC bit ever held back a completed entry");
    assert!(cov.same_slot_refetch > 0, "no refetch reused its squashed slot");
    assert!(cov.spec_zombie_heads > 0, "no head call behind a SPEC zombie");
}
