//! TSO litmus tests (MP, SB, LB) and per-location coherence shapes
//! (CoRR, CoWW) over the lockdown machinery of §3.3.
//!
//! A two-core abstract machine is explored exhaustively: each core runs a
//! short load/store program; stores drain through a FIFO store buffer;
//! the observer cores execute loads out of order and may *commit* a load
//! over older non-performed loads — Orinoco's unordered commit. The
//! lockdown bookkeeping uses the **real** [`LockdownMatrix`] and
//! [`LockdownTable`]: committing over older non-performed loads records
//! them in a matrix row and locks the load's line in the table; a store
//! drain targeting a locked line has its invalidation acknowledgement
//! withheld until every recorded older load performs.
//!
//! The enumerator visits *every* interleaving (DFS with memoisation) and
//! collects the set of reachable final outcomes. For each named pattern
//! we assert:
//!
//! * with lockdown enabled, no TSO-forbidden outcome is reachable while
//!   every TSO-allowed outcome is;
//! * with lockdown disabled (the "bug mode" that commits over older
//!   loads without locking), the forbidden outcome *is* reachable —
//!   proving the matrix is load-bearing, not decorative.

use orinoco_matrix::{BitVec64, LockdownMatrix, LockdownTable};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// One operation of a litmus-test thread. Variables are indices into the
/// shared location array (each on its own cache line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LitmusOp {
    /// Load from variable.
    Ld(usize),
    /// Store value to variable.
    St(usize, u64),
}

/// A named litmus pattern: two thread programs, which loads form the
/// outcome tuple, and the TSO-forbidden / required-allowed outcome sets.
#[derive(Clone, Debug)]
pub struct Litmus {
    /// Pattern name (MP, SB, LB).
    pub name: &'static str,
    /// Per-core programs.
    pub progs: [Vec<LitmusOp>; 2],
    /// `(core, op index)` of each load in the outcome tuple, in order.
    pub outcome_loads: Vec<(usize, usize)>,
    /// Outcomes TSO forbids.
    pub forbidden: Vec<Vec<u64>>,
    /// Outcomes TSO allows that the machine must be able to produce.
    pub must_allow: Vec<Vec<u64>>,
    /// The lockdown matrix is the mechanism blocking the forbidden
    /// outcomes (true for MP; SB has none and LB is blocked by in-order
    /// store execution instead). When set, disabling lockdown must
    /// expose a forbidden outcome.
    pub lockdown_protected: bool,
}

/// Message passing: P0 publishes data then flag; P1 reads flag then data.
/// Seeing the flag without the data (`r_flag=1, r_data=0`) is forbidden.
#[must_use]
pub fn mp() -> Litmus {
    Litmus {
        name: "MP",
        progs: [
            vec![LitmusOp::St(0, 1), LitmusOp::St(1, 1)],
            vec![LitmusOp::Ld(1), LitmusOp::Ld(0)],
        ],
        outcome_loads: vec![(1, 0), (1, 1)],
        forbidden: vec![vec![1, 0]],
        must_allow: vec![vec![0, 0], vec![0, 1], vec![1, 1]],
        lockdown_protected: true,
    }
}

/// Store buffering: each core stores its own variable then loads the
/// other's. TSO allows all four outcomes — including both loads reading
/// zero, the store-buffer signature the machine must exhibit.
#[must_use]
pub fn sb() -> Litmus {
    Litmus {
        name: "SB",
        progs: [
            vec![LitmusOp::St(0, 1), LitmusOp::Ld(1)],
            vec![LitmusOp::St(1, 1), LitmusOp::Ld(0)],
        ],
        outcome_loads: vec![(0, 1), (1, 1)],
        forbidden: vec![],
        must_allow: vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]],
        lockdown_protected: false,
    }
}

/// Load buffering: each core loads one variable then stores the other.
/// Both loads observing the other core's (program-order later) store
/// (`1,1`) is forbidden under TSO.
#[must_use]
pub fn lb() -> Litmus {
    Litmus {
        name: "LB",
        progs: [
            vec![LitmusOp::Ld(0), LitmusOp::St(1, 1)],
            vec![LitmusOp::Ld(1), LitmusOp::St(0, 1)],
        ],
        outcome_loads: vec![(0, 0), (1, 0)],
        forbidden: vec![vec![1, 1]],
        must_allow: vec![vec![0, 0], vec![0, 1], vec![1, 0]],
        lockdown_protected: false,
    }
}

/// Coherence, read-read: P0 writes a single variable once; P1 reads it
/// twice. The second (program-order later) read observing an *older*
/// value than the first (`1,0`) violates per-location coherence — exactly
/// the shape an unprotected unordered load commit produces when the
/// younger read commits early with 0 and the older read later sees 1.
#[must_use]
pub fn corr() -> Litmus {
    Litmus {
        name: "CoRR",
        progs: [
            vec![LitmusOp::St(0, 1)],
            vec![LitmusOp::Ld(0), LitmusOp::Ld(0)],
        ],
        outcome_loads: vec![(1, 0), (1, 1)],
        forbidden: vec![vec![1, 0]],
        must_allow: vec![vec![0, 0], vec![0, 1], vec![1, 1]],
        lockdown_protected: true,
    }
}

/// Coherence, write-write order: P0 writes the same variable twice
/// (draining in FIFO order, so memory goes 0 → 1 → 2); P1 reads it
/// twice. Any outcome where the second read observes an older value than
/// the first (`1,0`, `2,0`, `2,1`) would mean the two writes were
/// observed out of order.
#[must_use]
pub fn coww() -> Litmus {
    Litmus {
        name: "CoWW",
        progs: [
            vec![LitmusOp::St(0, 1), LitmusOp::St(0, 2)],
            vec![LitmusOp::Ld(0), LitmusOp::Ld(0)],
        ],
        outcome_loads: vec![(1, 0), (1, 1)],
        forbidden: vec![vec![1, 0], vec![2, 0], vec![2, 1]],
        must_allow: vec![
            vec![0, 0],
            vec![0, 1],
            vec![0, 2],
            vec![1, 1],
            vec![1, 2],
            vec![2, 2],
        ],
        lockdown_protected: true,
    }
}

const VARS: usize = 2;

#[derive(Clone)]
struct CoreSt {
    executed: Vec<bool>,
    committed: Vec<bool>,
    val: Vec<Option<u64>>,
    sb: VecDeque<(usize, u64)>,
    ldm: LockdownMatrix,
    ldt: LockdownTable,
    /// Per-op active lockdown row: the locked line.
    row_line: Vec<Option<u64>>,
}

impl CoreSt {
    fn new(n: usize) -> Self {
        Self {
            executed: vec![false; n],
            committed: vec![false; n],
            val: vec![None; n],
            sb: VecDeque::new(),
            ldm: LockdownMatrix::new(n, n),
            ldt: LockdownTable::new(),
            row_line: vec![None; n],
        }
    }
}

#[derive(Clone)]
struct Machine {
    mem: [u64; VARS],
    cores: [CoreSt; 2],
}

impl Machine {
    fn new(lit: &Litmus) -> Self {
        Self {
            mem: [0; VARS],
            cores: [CoreSt::new(lit.progs[0].len()), CoreSt::new(lit.progs[1].len())],
        }
    }

    /// Memoisation key: the full observable state.
    fn key(&self) -> String {
        use std::fmt::Write as _;
        let mut k = String::new();
        let _ = write!(k, "m{:?}", self.mem);
        for c in &self.cores {
            let _ = write!(
                k,
                "|e{:?}c{:?}v{:?}s{:?}l{:?}p{:?}",
                c.executed,
                c.committed,
                c.val,
                c.sb,
                c.ldt.locked_lines(),
                c.ldm.pending_rows(),
            );
        }
        k
    }

    fn done(&self) -> bool {
        self.cores.iter().all(|c| c.committed.iter().all(|&x| x) && c.sb.is_empty())
    }

    fn outcome(&self, lit: &Litmus) -> Vec<u64> {
        lit.outcome_loads
            .iter()
            .map(|&(c, j)| self.cores[c].val[j].expect("outcome load committed without a value"))
            .collect()
    }
}

#[derive(Clone, Copy)]
enum Act {
    Exec(usize, usize),
    Commit(usize, usize),
    Drain(usize),
}

fn line_of(var: usize) -> u64 {
    var as u64
}

fn older_nonperformed_loads(prog: &[LitmusOp], c: &CoreSt, j: usize) -> Vec<usize> {
    (0..j)
        .filter(|&k| matches!(prog[k], LitmusOp::Ld(_)) && !c.executed[k])
        .collect()
}

fn enabled(m: &Machine, lit: &Litmus, lockdown: bool) -> Vec<Act> {
    let mut acts = Vec::new();
    for c in 0..2 {
        let prog = &lit.progs[c];
        let st = &m.cores[c];
        for j in 0..prog.len() {
            if !st.executed[j] {
                match prog[j] {
                    // Loads execute out of order, any time.
                    LitmusOp::Ld(_) => acts.push(Act::Exec(c, j)),
                    // Stores execute (enter the store buffer) strictly
                    // after every program-order earlier op executed: TSO
                    // forbids load→store and store→store reordering.
                    LitmusOp::St(..) => {
                        if (0..j).all(|k| st.executed[k]) {
                            acts.push(Act::Exec(c, j));
                        }
                    }
                }
            }
            if !st.committed[j] && st.executed[j] {
                let ok = match prog[j] {
                    // Orinoco: a load may commit over older *loads*
                    // (performed or not); every older store must have
                    // committed. With lockdown disabled this models the
                    // broken commit matrix — the commit still happens,
                    // unprotected.
                    LitmusOp::Ld(_) => (0..j)
                        .all(|k| st.committed[k] || matches!(prog[k], LitmusOp::Ld(_))),
                    // Stores commit in order (FIFO store queue).
                    LitmusOp::St(..) => (0..j).all(|k| st.committed[k]),
                };
                let _ = lockdown;
                if ok {
                    acts.push(Act::Commit(c, j));
                }
            }
        }
        if let Some(&(var, _)) = st.sb.front() {
            // A drain is an invalidation of the line in the other core;
            // while the other core holds a lockdown on it, the
            // acknowledgement is withheld and the store cannot complete.
            if !m.cores[1 - c].ldt.is_locked(line_of(var)) {
                acts.push(Act::Drain(c));
            }
        }
    }
    acts
}

fn apply(m: &mut Machine, lit: &Litmus, lockdown: bool, act: Act) {
    match act {
        Act::Exec(c, j) => match lit.progs[c][j] {
            LitmusOp::Ld(var) => {
                let fwd = m.cores[c]
                    .sb
                    .iter()
                    .rev()
                    .find(|&&(v, _)| v == var)
                    .map(|&(_, val)| val);
                let st = &mut m.cores[c];
                st.executed[j] = true;
                st.val[j] = Some(fwd.unwrap_or(m.mem[var]));
                // The load performed: clear its lockdown column and
                // release rows that became ordered.
                st.ldm.load_performed(j);
                for r in 0..st.row_line.len() {
                    if let Some(line) = st.row_line[r] {
                        if st.ldm.ordered(r) {
                            let _acks = st.ldt.release(line);
                            st.row_line[r] = None;
                        }
                    }
                }
            }
            LitmusOp::St(var, val) => {
                let st = &mut m.cores[c];
                st.executed[j] = true;
                st.sb.push_back((var, val));
            }
        },
        Act::Commit(c, j) => {
            let prog = &lit.progs[c];
            let older_np = older_nonperformed_loads(prog, &m.cores[c], j);
            let st = &mut m.cores[c];
            st.committed[j] = true;
            if let LitmusOp::Ld(var) = prog[j] {
                if !older_np.is_empty() && lockdown {
                    let n = prog.len();
                    st.ldm.commit_load(j, &BitVec64::from_indices(n, older_np));
                    st.ldt.acquire(line_of(var));
                    st.row_line[j] = Some(line_of(var));
                }
            }
        }
        Act::Drain(c) => {
            let (var, val) = m.cores[c].sb.pop_front().expect("drain of empty store buffer");
            // The remote invalidation acks immediately (the enabled set
            // excluded locked lines).
            assert!(
                m.cores[1 - c].ldt.incoming_invalidation(line_of(var)),
                "drain enabled against a locked line"
            );
            m.mem[var] = val;
            // Invalidation squashes the other core's performed-but-unordered
            // uncommitted loads to this variable: they will re-execute and
            // re-read. Ordered loads (no older non-performed load) keep
            // their value — the oldest load can never be misordered.
            let prog = &lit.progs[1 - c];
            let other = &mut m.cores[1 - c];
            for j in 0..prog.len() {
                if let LitmusOp::Ld(v) = prog[j] {
                    if v == var && other.executed[j] && !other.committed[j] {
                        let unordered = (0..j).any(|k| {
                            matches!(prog[k], LitmusOp::Ld(_)) && !other.executed[k]
                        });
                        if unordered {
                            other.executed[j] = false;
                            other.val[j] = None;
                        }
                    }
                }
            }
        }
    }
}

/// Exhaustively explores every interleaving of `lit` and returns the set
/// of reachable outcome tuples.
#[must_use]
pub fn explore(lit: &Litmus, lockdown: bool) -> BTreeSet<Vec<u64>> {
    explore_counting(lit, lockdown).0
}

/// [`explore`], additionally counting the reachable states in which some
/// store-buffer drain was *blocked* by a remote lockdown — the abstract
/// machine's version of the pipeline's lockdown-held stall reason. Zero
/// with lockdown disabled (nothing ever locks); nonzero for the patterns
/// whose forbidden interleavings the matrix actually intercepts.
#[must_use]
pub fn explore_counting(lit: &Litmus, lockdown: bool) -> (BTreeSet<Vec<u64>>, u64) {
    let mut outcomes = BTreeSet::new();
    let mut lockdown_held_states = 0u64;
    let mut seen = HashSet::new();
    let mut stack = vec![Machine::new(lit)];
    while let Some(m) = stack.pop() {
        if !seen.insert(m.key()) {
            continue;
        }
        if (0..2).any(|c| {
            m.cores[c]
                .sb
                .front()
                .is_some_and(|&(var, _)| m.cores[1 - c].ldt.is_locked(line_of(var)))
        }) {
            lockdown_held_states += 1;
        }
        if m.done() {
            outcomes.insert(m.outcome(lit));
            continue;
        }
        for act in enabled(&m, lit, lockdown) {
            let mut next = m.clone();
            apply(&mut next, lit, lockdown, act);
            stack.push(next);
        }
    }
    (outcomes, lockdown_held_states)
}

/// Verdict of one litmus pattern under both lockdown modes.
#[derive(Clone, Debug)]
pub struct LitmusVerdict {
    /// Pattern name.
    pub name: &'static str,
    /// Outcomes reachable with the lockdown machinery active.
    pub outcomes: BTreeSet<Vec<u64>>,
    /// Outcomes reachable with lockdown disabled (bug mode).
    pub outcomes_unprotected: BTreeSet<Vec<u64>>,
    /// No forbidden outcome is reachable with lockdown active.
    pub forbidden_blocked: bool,
    /// Every TSO-allowed outcome is reachable with lockdown active.
    pub all_allowed_seen: bool,
    /// Disabling lockdown exposes a forbidden outcome (trivially true
    /// for patterns the lockdown matrix does not protect).
    pub matrix_load_bearing: bool,
    /// Reachable states (lockdown active) where a store-buffer drain was
    /// blocked by a remote lockdown — the interleavings the matrix
    /// actually intercepted.
    pub lockdown_held_states: u64,
}

impl LitmusVerdict {
    /// `true` when the pattern behaves exactly as TSO requires.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.forbidden_blocked && self.all_allowed_seen
    }
}

/// Runs one pattern under both modes and scores it.
#[must_use]
pub fn run(lit: &Litmus) -> LitmusVerdict {
    let (outcomes, lockdown_held_states) = explore_counting(lit, true);
    let outcomes_unprotected = explore(lit, false);
    let forbidden_blocked = lit.forbidden.iter().all(|o| !outcomes.contains(o));
    let all_allowed_seen = lit.must_allow.iter().all(|o| outcomes.contains(o));
    let matrix_load_bearing = !lit.lockdown_protected
        || lit.forbidden.iter().any(|o| outcomes_unprotected.contains(o));
    LitmusVerdict {
        name: lit.name,
        outcomes,
        outcomes_unprotected,
        forbidden_blocked,
        all_allowed_seen,
        matrix_load_bearing,
        lockdown_held_states,
    }
}

/// Runs the full pattern suite (MP, SB, LB, CoRR, CoWW).
#[must_use]
pub fn run_all() -> Vec<LitmusVerdict> {
    [mp(), sb(), lb(), corr(), coww()].iter().map(run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mp_forbidden_outcome_blocked_and_matrix_load_bearing() {
        let v = run(&mp());
        assert!(v.holds(), "MP verdict: {v:?}");
        assert!(
            v.matrix_load_bearing,
            "disabling lockdown must expose the forbidden MP outcome: {v:?}"
        );
        assert!(!v.outcomes.contains(&vec![1, 0]));
        assert!(v.outcomes_unprotected.contains(&vec![1, 0]));
    }

    #[test]
    fn sb_allows_store_buffering() {
        let v = run(&sb());
        assert!(v.holds(), "SB verdict: {v:?}");
        assert!(v.outcomes.contains(&vec![0, 0]), "store-buffer outcome missing");
    }

    #[test]
    fn lb_forbidden_outcome_blocked() {
        let v = run(&lb());
        assert!(v.holds(), "LB verdict: {v:?}");
        assert!(!v.outcomes.contains(&vec![1, 1]));
    }

    #[test]
    fn corr_coherence_holds_and_matrix_is_load_bearing() {
        let v = run(&corr());
        assert!(v.holds(), "CoRR verdict: {v:?}");
        assert!(v.matrix_load_bearing, "CoRR must be lockdown-protected: {v:?}");
        assert!(!v.outcomes.contains(&vec![1, 0]));
        assert!(v.outcomes_unprotected.contains(&vec![1, 0]));
    }

    #[test]
    fn coww_write_order_holds_and_matrix_is_load_bearing() {
        let v = run(&coww());
        assert!(v.holds(), "CoWW verdict: {v:?}");
        assert!(v.matrix_load_bearing, "CoWW must be lockdown-protected: {v:?}");
        for f in &coww().forbidden {
            assert!(!v.outcomes.contains(f), "forbidden {f:?} reachable");
        }
    }

    #[test]
    fn lockdown_held_states_attribute_the_intercepted_interleavings() {
        // Protected patterns reach states where the matrix withholds a
        // drain; with lockdown disabled nothing ever locks.
        for lit in [mp(), corr(), coww()] {
            let v = run(&lit);
            assert!(
                v.lockdown_held_states > 0,
                "{}: no lockdown-held state with the matrix active",
                lit.name
            );
            let (_, unprotected_held) = explore_counting(&lit, false);
            assert_eq!(unprotected_held, 0, "{}: lock without lockdown", lit.name);
        }
    }
}
