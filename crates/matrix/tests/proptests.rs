//! Property-based tests: every matrix scheduler is checked against a naive
//! oracle that tracks instructions with explicit sequence numbers (the
//! "timestamps" the paper argues hardware cannot afford — software can).
//!
//! Runs on the in-workspace [`orinoco_util::prop`] harness: each property
//! executes 256 deterministic cases and prints a replay seed on failure.

use orinoco_matrix::{
    AgeMatrix, BitMatrix, BitVec64, CommitDepMatrix, CommitScheduler, WakeupMatrix,
};
use orinoco_util::{prop, Rng};

/// Capacities of the sequence-number properties: 48 entries, the word
/// boundaries 63/64/65 and the two-word 128, where tail-masking and
/// word-straddling bugs live.
const CAPS: [usize; 5] = [48, 63, 64, 65, 128];

/// Oracle: slot -> sequence number of the instruction occupying it, plus
/// its `SPEC` bit.
struct Oracle {
    seq: Vec<Option<u64>>,
    spec: Vec<bool>,
    next: u64,
}

impl Oracle {
    fn new(n: usize) -> Self {
        Self { seq: vec![None; n], spec: vec![false; n], next: 0 }
    }
    fn live(&self, slot: usize) -> bool {
        self.seq[slot].is_some()
    }
    fn dispatch(&mut self, slot: usize, speculative: bool) {
        assert!(!self.live(slot));
        self.seq[slot] = Some(self.next);
        self.spec[slot] = speculative;
        self.next += 1;
    }
    fn free(&mut self, slot: usize) {
        assert!(self.live(slot));
        self.seq[slot] = None;
        self.spec[slot] = false;
    }
    /// Live slots in age (dispatch) order, oldest first.
    fn age_order(&self) -> Vec<usize> {
        let mut v: Vec<(u64, usize)> =
            self.seq.iter().enumerate().filter_map(|(s, q)| q.map(|q| (q, s))).collect();
        v.sort_unstable();
        v.into_iter().map(|(_, s)| s).collect()
    }
    /// The `width` oldest live entries among `request`, oldest first.
    fn oldest(&self, request: &BitVec64, width: usize) -> Vec<usize> {
        self.age_order().into_iter().filter(|&s| request.get(s)).take(width).collect()
    }
}

/// Drives a commit scheduler (and with it its age matrix) and the oracle
/// through a random history of `n`-entry ROB events: dispatches (each
/// speculative or not), unordered frees, safety resolutions, and squashes
/// that free every live entry younger than a random survivor — the
/// wrong-path flush shape that fragments the valid set across words.
fn random_history(rng: &mut Rng, n: usize) -> (CommitScheduler, Oracle) {
    let mut rob = CommitScheduler::new(n);
    let mut oracle = Oracle::new(n);
    for _ in 0..rng.gen_range(1..3 * n) {
        let slot = rng.gen_range(0..n);
        match rng.gen_range(0..10u32) {
            0..=4 => {
                if !oracle.live(slot) {
                    let speculative = rng.gen::<bool>();
                    rob.dispatch(slot, speculative);
                    oracle.dispatch(slot, speculative);
                }
            }
            5..=6 => {
                if oracle.live(slot) {
                    rob.free(slot);
                    oracle.free(slot);
                }
            }
            7..=8 => {
                if oracle.live(slot) && oracle.spec[slot] {
                    rob.mark_safe(slot);
                    oracle.spec[slot] = false;
                }
            }
            _ => {
                let live = oracle.age_order();
                if live.is_empty() {
                    continue;
                }
                let pivot = oracle.seq[live[rng.gen_range(0..live.len())]].unwrap();
                for s in 0..n {
                    if oracle.seq[s].is_some_and(|q| q > pivot) {
                        rob.free(s);
                        oracle.free(s);
                    }
                }
            }
        }
    }
    (rob, oracle)
}

/// A random request vector over `0..n`, live or not, at a random density
/// from empty to full.
fn random_request(rng: &mut Rng, n: usize) -> BitVec64 {
    let density = rng.gen_range(0..5u32);
    BitVec64::from_indices(n, (0..n).filter(|_| rng.gen_range(0..4u32) < density))
}

/// A random select width: usually a few entries, sometimes the whole
/// queue (as the issue-queue oracle asks) or more.
fn random_width(rng: &mut Rng, n: usize) -> usize {
    if rng.gen_range(0..4u32) == 0 {
        n + rng.gen_range(0..2usize)
    } else {
        rng.gen_range(0..10usize)
    }
}

/// The bit count encoding grants exactly the `width` oldest requesting
/// valid entries, in age order, for any allocation history and any
/// request set; `grant_mask` is the same set and `select_single_oldest`
/// the oldest of it.
#[test]
fn select_oldest_matches_oracle() {
    prop::check("select_oldest_matches_oracle", 0xA9E1, |rng| {
        for n in CAPS {
            let (rob, oracle) = random_history(rng, n);
            let age = rob.age();
            let req = random_request(rng, n);
            let width = random_width(rng, n);
            let want = oracle.oldest(&req, width);
            assert_eq!(age.select_oldest(&req, width), want, "n={n} width={width}");
            let mut sorted = want.clone();
            sorted.sort_unstable();
            assert_eq!(
                age.grant_mask(&req, width).iter_ones().collect::<Vec<_>>(),
                sorted,
                "n={n} width={width}"
            );
            assert_eq!(
                age.select_single_oldest(&req),
                oracle.oldest(&req, 1).first().copied(),
                "n={n}"
            );
        }
    });
}

/// `select_oldest` equals a *naive O(n²)* reference computed purely from
/// pairwise `is_older` comparisons — no sequence numbers involved — for
/// random dispatch/free/squash sequences. (Checks the bit-count encoding
/// against the matrix's own transitive order, independently of the
/// timestamp oracle above.)
#[test]
fn select_oldest_matches_naive_pairwise_reference() {
    prop::check("select_oldest_naive_reference", 0xA9E2, |rng| {
        for n in CAPS {
            let (rob, _) = random_history(rng, n);
            let age = rob.age();
            let req = random_request(rng, n);
            let width = random_width(rng, n);
            // Naive O(n²): a requesting valid entry is granted iff fewer
            // than `width` requesting valid entries are older than it;
            // grants are ordered by their count of older requesters.
            let live: Vec<usize> = req.iter_ones().filter(|&s| age.is_valid(s)).collect();
            let mut ranked: Vec<(usize, usize)> = live
                .iter()
                .map(|&s| {
                    let older = live.iter().filter(|&&o| o != s && age.is_older(o, s)).count();
                    (older, s)
                })
                .filter(|&(older, _)| older < width)
                .collect();
            ranked.sort_unstable();
            let want: Vec<usize> = ranked.into_iter().map(|(_, s)| s).collect();
            assert_eq!(age.select_oldest(&req, width), want, "n={n} width={width}");
        }
    });
}

/// Classic single-oldest AGE equals the head of the bit-count grant.
#[test]
fn single_oldest_is_first_grant() {
    prop::check("single_oldest_is_first_grant", 0xA9E3, |rng| {
        for n in CAPS {
            let (rob, _) = random_history(rng, n);
            let req = random_request(rng, n);
            let single = rob.age().select_single_oldest(&req);
            let multi = rob.age().select_oldest(&req, 1);
            assert_eq!(single, multi.first().copied(), "n={n}");
        }
    });
}

/// `oldest_valid` always returns the entry with the smallest sequence
/// number.
#[test]
fn oldest_valid_matches_oracle() {
    prop::check("oldest_valid_matches_oracle", 0xA9E4, |rng| {
        for n in CAPS {
            let (rob, oracle) = random_history(rng, n);
            let want = oracle.age_order().first().copied();
            assert_eq!(rob.age().oldest_valid(), want, "n={n}");
            assert_eq!(rob.oldest_blocking(), want, "n={n}");
        }
    });
}

/// `younger_than(s)` is exactly the valid entries with larger sequence
/// numbers.
#[test]
fn younger_than_matches_oracle() {
    prop::check("younger_than_matches_oracle", 0xA9E5, |rng| {
        for n in CAPS {
            let (rob, oracle) = random_history(rng, n);
            for s in (0..n).filter(|&s| oracle.live(s)) {
                let sq = oracle.seq[s].unwrap();
                let want: Vec<usize> =
                    (0..n).filter(|&t| oracle.seq[t].is_some_and(|q| q > sq)).collect();
                let got: Vec<usize> = rob.younger_than(s).iter_ones().collect();
                assert_eq!(got, want, "n={n} slot={s}");
            }
        }
    });
}

/// `is_older` agrees with sequence numbers for every live pair.
#[test]
fn pairwise_order_matches_oracle() {
    prop::check("pairwise_order_matches_oracle", 0xA9E6, |rng| {
        for n in CAPS {
            let (rob, oracle) = random_history(rng, n);
            let live = oracle.age_order();
            for &a in &live {
                for &b in &live {
                    if a == b {
                        continue;
                    }
                    let want = oracle.seq[a].unwrap() < oracle.seq[b].unwrap();
                    assert_eq!(rob.age().is_older(a, b), want, "n={n} a={a} b={b}");
                }
            }
        }
    });
}

/// Commit grants equal the sequence-number model under random
/// speculation, resolution, completion and squash histories:
/// `commit_grants` takes the `width` oldest live entries that are
/// completed, not speculative and have no older live speculative entry;
/// `commit_grants_in_order` takes the `width` oldest live entries and
/// stops at the first that is not completed-and-safe. Completion bits of
/// empty slots must be ignored.
#[test]
fn commit_grants_match_oracle() {
    prop::check("commit_grants_match_oracle", 0xA9F0, |rng| {
        for n in CAPS {
            let (rob, oracle) = random_history(rng, n);
            let comp = random_request(rng, n);
            let width = random_width(rng, n);
            let order = oracle.age_order();
            let want: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|&(i, &s)| {
                    comp.get(s) && !oracle.spec[s] && order[..i].iter().all(|&o| !oracle.spec[o])
                })
                .map(|(_, &s)| s)
                .take(width)
                .collect();
            assert_eq!(rob.commit_grants(&comp, width), want, "n={n} width={width}");
            let want_ioc: Vec<usize> = order
                .iter()
                .copied()
                .take(width)
                .take_while(|&s| comp.get(s) && !oracle.spec[s])
                .collect();
            assert_eq!(
                rob.commit_grants_in_order(&comp, width),
                want_ioc,
                "n={n} width={width}"
            );
        }
    });
}

/// Merged commit scheduler (age matrix + SPEC vector) is equivalent to
/// the standalone commit dependency matrix for any dispatch order and
/// any safety-resolution order.
#[test]
fn merged_commit_equals_standalone() {
    prop::check("merged_commit_equals_standalone", 0xA9E7, |rng| {
        let n = 32;
        let live = rng.gen_range(1..n);
        let spec_flags: Vec<bool> = (0..live).map(|_| rng.gen::<bool>()).collect();
        let resolves = rng.gen_range(0..64usize);
        let mut merged = CommitScheduler::new(n);
        let mut standalone = CommitDepMatrix::new(n);
        let mut spec_now = BitVec64::new(n);
        for (slot, &speculative) in spec_flags.iter().enumerate() {
            standalone.dispatch(slot, &spec_now);
            merged.dispatch(slot, speculative);
            if speculative {
                spec_now.set(slot);
            }
        }
        for _ in 0..resolves {
            let r = rng.gen_range(0..n);
            if r < live && merged.is_speculative(r) {
                merged.mark_safe(r);
                standalone.clear_safe(r);
            }
            for slot in 0..live {
                assert_eq!(
                    merged.globally_safe(slot),
                    standalone.can_commit(slot),
                    "slot {slot}"
                );
            }
        }
    });
}

/// Out-of-order commit grants: (a) only completed, valid, globally safe
/// and locally safe entries; (b) exactly the CW oldest such entries;
/// (c) never an entry with an older live speculative instruction.
#[test]
fn commit_grants_sound_and_maximal() {
    prop::check("commit_grants_sound_and_maximal", 0xA9E8, |rng| {
        let n = 32;
        let live = rng.gen_range(1..n);
        let spec_flags: Vec<bool> = (0..live).map(|_| rng.gen::<bool>()).collect();
        let completed: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
        let safe_subset: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
        let width = rng.gen_range(1..8usize);
        let mut rob = CommitScheduler::new(n);
        for (slot, &sp) in spec_flags.iter().enumerate() {
            rob.dispatch(slot, sp);
        }
        for slot in 0..live {
            if spec_flags[slot] && safe_subset[slot] {
                rob.mark_safe(slot);
            }
        }
        let comp = BitVec64::from_indices(n, (0..live).filter(|&s| completed[s]));
        let grants = rob.commit_grants(&comp, width);
        assert!(grants.len() <= width);
        // Oracle: dispatch order is slot order here.
        let committable: Vec<usize> = (0..live)
            .filter(|&s| {
                completed[s]
                    && !rob.is_speculative(s)
                    && (0..s).all(|o| !rob.is_speculative(o))
            })
            .collect();
        let want: Vec<usize> = committable.into_iter().take(width).collect();
        assert_eq!(grants, want);
    });
}

/// Wakeup matrix: an instruction is ready iff all its producers have
/// issued, under any issue order.
#[test]
fn wakeup_matches_dataflow() {
    prop::check("wakeup_matches_dataflow", 0xA9E9, |rng| {
        let n = 16;
        let mut wm = WakeupMatrix::new(n);
        // Build a DAG: instruction i may depend only on j < i.
        let mut producers: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let p: Vec<usize> = (0..i).filter(|_| rng.gen::<bool>()).collect();
            wm.dispatch(i, &BitVec64::from_indices(n, p.iter().copied()));
            producers.push(p);
        }
        let mut issued = vec![false; n];
        // Issue in dataflow order until drained; matrix must agree at every
        // step.
        loop {
            let ready = wm.ready_set();
            for i in 0..n {
                let want = !issued[i] && producers[i].iter().all(|&p| issued[p]);
                assert_eq!(ready.get(i), want, "slot {i}");
            }
            match ready.iter_ones().next() {
                Some(i) => {
                    wm.issue(i);
                    issued[i] = true;
                }
                None => break,
            }
        }
        assert!(issued.iter().all(|&b| b));
    });
}

/// Criticality dispatch: criticals always outrank non-criticals while
/// each class stays in temporal order.
#[test]
fn criticality_total_order() {
    prop::check("criticality_total_order", 0xA9EB, |rng| {
        let n = 24;
        let live = rng.gen_range(1..n);
        let flags: Vec<bool> = (0..live).map(|_| rng.gen::<bool>()).collect();
        let width = rng.gen_range(1..6usize);
        let mut age = AgeMatrix::new(n);
        let mut cri = BitVec64::new(n);
        for (slot, &critical) in flags.iter().enumerate() {
            if critical {
                age.dispatch_critical(slot, &cri);
                cri.set(slot);
            } else {
                age.dispatch(slot);
            }
        }
        let req = BitVec64::from_indices(n, 0..live);
        let got = age.select_oldest(&req, width);
        // Oracle order: criticals by slot (== dispatch) order, then
        // non-criticals by slot order.
        let mut want: Vec<usize> = (0..live).filter(|&s| flags[s]).collect();
        want.extend((0..live).filter(|&s| !flags[s]));
        want.truncate(width);
        assert_eq!(got, want);
    });
}

/// Memory disambiguation matrix vs a naive oracle: a load is
/// non-speculative iff every older-at-issue unresolved store has since
/// resolved without being marked conflicting for it.
#[test]
fn memdis_matches_oracle() {
    use orinoco_matrix::MemDisambigMatrix;
    prop::check("memdis_matches_oracle", 0xA9EC, |rng| {
        let (lq, sq) = (32usize, 16usize);
        let nloads = rng.gen_range(1..24usize);
        let nresolves = rng.gen_range(0..32usize);
        let mut mdm = MemDisambigMatrix::new(lq, sq);
        // oracle: per load, the set of stores still pending
        let mut pending: Vec<Option<u16>> = vec![None; lq];
        for (slot, p) in pending.iter_mut().enumerate().take(nloads) {
            let mask = rng.gen::<u16>();
            let stores =
                BitVec64::from_indices(sq, (0..16).filter(|&b| mask >> b & 1 == 1));
            mdm.load_issue(slot, &stores);
            *p = Some(mask);
        }
        for _ in 0..nresolves {
            let store = rng.gen_range(0..sq);
            let conflict_mask = rng.gen::<u32>();
            // loads NOT in the conflict mask are released
            let mut ok = BitVec64::new(lq);
            for slot in 0..lq {
                if conflict_mask >> (slot % 32) & 1 == 0 {
                    ok.set(slot);
                }
            }
            mdm.store_resolved(store, &ok);
            for (slot, p) in pending.iter_mut().enumerate() {
                if let Some(m) = p.as_mut() {
                    if conflict_mask >> (slot % 32) & 1 == 0 {
                        *m &= !(1 << store);
                    }
                }
            }
            for (slot, p) in pending.iter().enumerate() {
                if let Some(m) = p {
                    assert_eq!(mdm.load_nonspeculative(slot), *m == 0, "slot {slot}");
                }
            }
        }
    });
}

/// Lockdown matrix vs oracle: a committed load is ordered iff every
/// older non-performed load it recorded has performed.
#[test]
fn lockdown_matches_oracle() {
    use orinoco_matrix::LockdownMatrix;
    prop::check("lockdown_matches_oracle", 0xA9ED, |rng| {
        let (ldt, lq) = (8usize, 16usize);
        let ncommits = rng.gen_range(1..12usize);
        let nperforms = rng.gen_range(0..24usize);
        let mut ldm = LockdownMatrix::new(ldt, lq);
        let mut oracle: Vec<Option<u16>> = vec![None; ldt];
        for i in 0..ncommits {
            let mask = rng.gen::<u16>();
            let row = i % ldt;
            let older = BitVec64::from_indices(lq, (0..16).filter(|&b| mask >> b & 1 == 1));
            ldm.commit_load(row, &older);
            oracle[row] = Some(mask);
        }
        for _ in 0..nperforms {
            let lq_slot = rng.gen_range(0..lq);
            ldm.load_performed(lq_slot);
            for o in oracle.iter_mut().flatten() {
                *o &= !(1 << lq_slot);
            }
            for (row, o) in oracle.iter().enumerate() {
                if let Some(m) = o {
                    assert_eq!(ldm.ordered(row), *m == 0, "row {row}");
                }
            }
        }
    });
}

/// Lockdown table: acknowledgements are withheld while any lockdown on
/// the line is live and all withheld acks flush on the last release.
#[test]
fn lockdown_table_refcount_oracle() {
    use orinoco_matrix::LockdownTable;
    use std::collections::HashMap;
    prop::check("lockdown_table_refcount_oracle", 0xA9EE, |rng| {
        let nops = rng.gen_range(1..64usize);
        let mut ldt = LockdownTable::new();
        let mut live: HashMap<u64, u32> = HashMap::new();
        let mut withheld: HashMap<u64, u32> = HashMap::new();
        for _ in 0..nops {
            let op = rng.gen_range(0..3u8);
            let line = rng.gen_range(0..4u64);
            match op {
                0 => {
                    ldt.acquire(line);
                    *live.entry(line).or_default() += 1;
                }
                1 => {
                    if live.get(&line).copied().unwrap_or(0) > 0 {
                        let released = ldt.release(line);
                        let l = live.get_mut(&line).expect("live");
                        *l -= 1;
                        if *l == 0 {
                            live.remove(&line);
                            let want = withheld.remove(&line).unwrap_or(0);
                            assert_eq!(released, want);
                        } else {
                            assert_eq!(released, 0);
                        }
                    }
                }
                _ => {
                    let acked = ldt.incoming_invalidation(line);
                    let locked = live.contains_key(&line);
                    assert_eq!(acked, !locked);
                    if locked {
                        *withheld.entry(line).or_default() += 1;
                    }
                }
            }
        }
        let total_live: usize = live.values().map(|&v| v as usize).sum();
        assert_eq!(ldt.active(), total_live);
    });
}

/// `read_row_into` / `read_col_into` agree with the
/// allocating `read_row` / `read_col` on random bit matrices, even when
/// the destination vector arrives dirty.
#[test]
fn bitmatrix_into_readers_equal_allocating() {
    prop::check("bitmatrix_into_readers_equal_allocating", 0xA9F3, |rng| {
        let rows = rng.gen_range(1..80usize);
        let cols = rng.gen_range(1..80usize);
        let mut m = BitMatrix::new(rows, cols);
        for _ in 0..rng.gen_range(0..256usize) {
            m.set(rng.gen_range(0..rows), rng.gen_range(0..cols));
        }
        let mut row_buf = BitVec64::ones(cols); // dirty
        let mut col_buf = BitVec64::ones(rows); // dirty
        for r in 0..rows {
            let want = m.read_row(r);
            m.read_row_into(r, &mut row_buf);
            assert_eq!(
                row_buf.iter_ones().collect::<Vec<_>>(),
                want.iter_ones().collect::<Vec<_>>(),
                "row {r}"
            );
        }
        for c in 0..cols {
            let want = m.read_col(c);
            m.read_col_into(c, &mut col_buf);
            assert_eq!(
                col_buf.iter_ones().collect::<Vec<_>>(),
                want.iter_ones().collect::<Vec<_>>(),
                "col {c}"
            );
        }
    });
}

/// The wakeup matrix handles arbitrary DAGs with slot reuse: after a
/// producer issues, its recycled slot must never spuriously wake (or
/// block) a consumer of the *old* occupant.
#[test]
fn wakeup_slot_reuse_oracle() {
    prop::check("wakeup_slot_reuse_oracle", 0xA9EF, |rng| {
        let n = 12;
        let nrounds = rng.gen_range(1..60usize);
        let mut wm = WakeupMatrix::new(n);
        // oracle: per slot, the set of producer slots still pending
        let mut deps: Vec<Option<Vec<usize>>> = vec![None; n];
        for _ in 0..nrounds {
            let slot = rng.gen_range(0..n);
            let nproducers = rng.gen_range(0..3usize);
            if deps[slot].is_some() {
                // occupied: issue it if ready, else skip the round
                if wm.is_ready(slot) {
                    wm.issue(slot);
                    deps[slot] = None;
                    for d in deps.iter_mut().flatten() {
                        d.retain(|&p| p != slot);
                    }
                }
                continue;
            }
            // producers must be live, distinct and not self
            let ps: Vec<usize> = (0..nproducers)
                .map(|_| rng.gen_range(0..n))
                .filter(|&p| p != slot && deps[p].is_some())
                .collect();
            let mut uniq = ps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            wm.dispatch(slot, &BitVec64::from_indices(n, uniq.iter().copied()));
            deps[slot] = Some(uniq);
            // invariant check across all live entries
            for (s, dep) in deps.iter().enumerate() {
                if let Some(d) = dep {
                    assert_eq!(wm.is_ready(s), d.is_empty(), "slot {s}");
                }
            }
        }
    });
}
