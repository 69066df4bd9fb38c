//! The commit-stream digest of a [`SimResult`](crate::SimResult), computed
//! without formatting.
//!
//! `SimResult::commit_digest` is defined as FNV-1a, from the canonical
//! basis, over every commit event's `Debug` line (`{:?}` and `\n`), in
//! commit order (DESIGN.md §14). Stored references and clients' cached
//! results pin that value, so the definition cannot change; this module
//! computes the same value without building any text.
//!
//! Most of an event's `Debug` text is constant: field labels, `"Some("`,
//! `"None"`. [`FnvSkip`] hashes such a string in one step, whatever its
//! length, and [`fold_commit_event`] walks the fields in derived-`Debug`
//! order, jumping over every constant and hashing only the variable
//! bytes — decimal digits rendered on the stack, register names and enum
//! variant names.

use crate::protocol::{fnv64_from, FNV_PRIME};
use orinoco_core::CommitEvent;
use orinoco_isa::{ArchReg, DynInst, InstClass, Opcode};

/// FNV-1a over a fixed string `s` of `n` bytes as one step:
/// `fnv64_from(h, s) == h·Pⁿ + C[h & 0xff]` (wrapping), with
/// `C[v] = fnv64_from(v, s) − v·Pⁿ`.
///
/// Why the correction depends only on `h`'s low byte: XOR with a byte
/// changes only the low 8 bits, so `h ^ b = h + d` with `d` a function of
/// `h & 0xff`, giving `(h ^ b)·P = h·P + d·P`; and the low 8 bits of a
/// product depend only on the low 8 bits of its factors, so the next
/// step's `d` again depends only on the starting low byte. By induction
/// over the bytes, `fnv64_from(h, s) − h·Pⁿ` is a function of `h & 0xff`.
pub struct FnvSkip {
    /// `Pⁿ`, wrapping.
    pow: u64,
    /// `C[v]` for every starting low byte `v`.
    corr: [u64; 256],
}

impl FnvSkip {
    /// Builds the jump over `s` (256 FNV-1a passes over `s`).
    #[must_use]
    pub const fn new(s: &[u8]) -> Self {
        let mut pow = 1u64;
        let mut i = 0;
        while i < s.len() {
            pow = pow.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut corr = [0u64; 256];
        let mut v = 0;
        while v < corr.len() {
            corr[v] = fnv64_from(v as u64, s).wrapping_sub((v as u64).wrapping_mul(pow));
            v += 1;
        }
        Self { pow, corr }
    }

    /// `fnv64_from(hash, s)` for the `s` this jump was built over.
    #[must_use]
    #[inline]
    pub fn apply(&self, hash: u64) -> u64 {
        hash.wrapping_mul(self.pow).wrapping_add(self.corr[(hash & 0xff) as usize])
    }
}

// The constant runs of an event's `Debug` line, in field order.
static EVENT_SEQ: FnvSkip = FnvSkip::new(b"CommitEvent { seq: ");
static CYCLE: FnvSkip = FnvSkip::new(b", cycle: ");
static OLDEST_LIVE_SEQ: FnvSkip = FnvSkip::new(b", oldest_live_seq: ");
static INST_SEQ: FnvSkip = FnvSkip::new(b", dyn_inst: DynInst { seq: ");
static INDEX: FnvSkip = FnvSkip::new(b", index: ");
static PC: FnvSkip = FnvSkip::new(b", pc: ");
static OP: FnvSkip = FnvSkip::new(b", op: ");
static CLASS: FnvSkip = FnvSkip::new(b", class: ");
static DST: FnvSkip = FnvSkip::new(b", dst: ");
static SRC1: FnvSkip = FnvSkip::new(b", src1: ");
static SRC2: FnvSkip = FnvSkip::new(b", src2: ");
static MEM_ADDR: FnvSkip = FnvSkip::new(b", mem_addr: ");
static TAKEN: FnvSkip = FnvSkip::new(b", taken: ");
static NEXT_PC: FnvSkip = FnvSkip::new(b", next_pc: ");
static END: FnvSkip = FnvSkip::new(b" } }\n");
static SOME: FnvSkip = FnvSkip::new(b"Some(");
static NONE: FnvSkip = FnvSkip::new(b"None");

/// Derived-`Debug` names of [`Opcode`], indexed by discriminant.
const OPCODE_NAMES: [&str; Opcode::ALL.len()] = [
    "Add", "Sub", "And", "Or", "Xor", "Sll", "Srl", "Slt", "Addi", "Andi", "Xori", "Slli", "Srli",
    "Slti", "Li", "Mul", "Div", "Rem", "Fadd", "Fsub", "Fmul", "Fdiv", "Fcvt", "Fmov", "Ld", "St",
    "Beq", "Bne", "Blt", "Bge", "Jal", "Jalr", "Fence", "Nop", "Halt",
];

/// Derived-`Debug` names of [`InstClass`], indexed by discriminant.
const CLASS_NAMES: [&str; InstClass::ALL.len()] =
    ["IntAlu", "IntMul", "IntDiv", "FpAlu", "FpMul", "FpDiv", "Load", "Store", "Branch", "Barrier"];

/// Folds `ev`'s `Debug` line into `hash`: equal to
/// `fnv64_from(hash, format!("{:?}\n", ev).as_bytes())`, with no formatting
/// and no allocation. `tests/commit_digest.rs` holds it to that equation.
#[must_use]
pub fn fold_commit_event(hash: u64, ev: &CommitEvent) -> u64 {
    // Exhaustive patterns: a new field fails to compile here instead of
    // silently leaving the digest's definition.
    let CommitEvent { seq, cycle, oldest_live_seq, dyn_inst } = ev;
    let DynInst { seq: inst_seq, index, pc, op, class, dst, src1, src2, mem_addr, taken, next_pc } =
        dyn_inst;
    let mut h = fold_u64(EVENT_SEQ.apply(hash), *seq);
    h = fold_u64(CYCLE.apply(h), *cycle);
    h = fold_opt_u64(OLDEST_LIVE_SEQ.apply(h), *oldest_live_seq);
    h = fold_u64(INST_SEQ.apply(h), *inst_seq);
    h = fold_u64(INDEX.apply(h), *index as u64);
    h = fold_u64(PC.apply(h), *pc);
    h = fnv64_from(OP.apply(h), OPCODE_NAMES[*op as usize].as_bytes());
    h = fnv64_from(CLASS.apply(h), CLASS_NAMES[*class as usize].as_bytes());
    h = fold_opt_reg(DST.apply(h), *dst);
    h = fold_opt_reg(SRC1.apply(h), *src1);
    h = fold_opt_reg(SRC2.apply(h), *src2);
    h = fold_opt_u64(MEM_ADDR.apply(h), *mem_addr);
    h = fnv64_from(TAKEN.apply(h), if *taken { b"true" } else { b"false" });
    h = fold_u64(NEXT_PC.apply(h), *next_pc);
    END.apply(h)
}

/// `v`'s decimal digits, as `Debug` prints them.
fn fold_u64(hash: u64, mut v: u64) -> u64 {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    fnv64_from(hash, &buf[start..])
}

fn fold_opt_u64(hash: u64, v: Option<u64>) -> u64 {
    match v {
        Some(v) => fnv64_from(fold_u64(SOME.apply(hash), v), b")"),
        None => NONE.apply(hash),
    }
}

/// `Some(x5)`, `Some(f3)` or `None`.
fn fold_opt_reg(hash: u64, r: Option<ArchReg>) -> u64 {
    match r {
        Some(r) => {
            let h = fnv64_from(SOME.apply(hash), if r.is_fp() { b"f" } else { b"x" });
            fnv64_from(fold_u64(h, u64::from(r.number())), b")")
        }
        None => NONE.apply(hash),
    }
}
