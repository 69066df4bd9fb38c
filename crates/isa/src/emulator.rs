//! The functional emulator: executes programs architecturally and emits the
//! dynamic instruction stream ([`DynInst`]) that drives the timing model.
//!
//! The emulator is the simulator's oracle: the pipeline may fetch down
//! wrong paths, replay loads and squash freely, but the architectural state
//! it commits must equal what this interpreter computes.

use crate::{ArchReg, Inst, InstClass, Opcode, Program, NUM_ARCH_REGS};

/// One dynamically executed instruction, as consumed by the timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct DynInst {
    /// Global dynamic sequence number (0-based).
    pub seq: u64,
    /// Static instruction index.
    pub index: usize,
    /// Byte program counter (`index * 4`).
    pub pc: u64,
    /// Operation.
    pub op: Opcode,
    /// Functional-unit class.
    pub class: InstClass,
    /// Destination register (zero-register writes filtered out).
    pub dst: Option<ArchReg>,
    /// First source register (zero-register reads filtered out).
    pub src1: Option<ArchReg>,
    /// Second source register (zero-register reads filtered out).
    pub src2: Option<ArchReg>,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Branch outcome (meaningful for `class == Branch`).
    pub taken: bool,
    /// Byte PC of the next instruction actually executed.
    pub next_pc: u64,
}

impl DynInst {
    /// `true` for loads.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.class == InstClass::Load
    }

    /// `true` for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.class == InstClass::Store
    }

    /// `true` for control-flow instructions.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.class == InstClass::Branch
    }
}

/// Why the emulator stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HaltReason {
    /// A `Halt` instruction was executed.
    Halted,
    /// Control flow ran past the end of the program.
    RanOff,
    /// The configured step limit was reached.
    StepLimit,
}

/// A point-in-time copy of the architectural state, as captured by
/// [`Emulator::snapshot`]. Two executions are architecturally equivalent
/// at a commit point iff their snapshots (plus memory images) are equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Architectural register file (integer + FP).
    pub regs: [u64; NUM_ARCH_REGS],
    /// Static index of the next instruction.
    pub pc_index: usize,
    /// Dynamic instructions executed so far.
    pub executed: u64,
}

/// A restorable architectural checkpoint: everything the emulator needs to
/// resume mid-program except the (static, regenerable) [`Program`] itself.
///
/// Captured by [`Emulator::checkpoint`] and reattached to a program by
/// [`Emulator::restore`]. The restored emulator **rebases its dynamic
/// sequence numbers to zero**: the timing model requires a dense 0-based
/// seq stream for its commit checksums, so a simulation started from a
/// checkpoint looks exactly like a fresh program whose initial state
/// happens to be the checkpointed one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EmuCheckpoint {
    /// Architectural register file at the checkpoint.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Full memory image at the checkpoint.
    pub memory: Vec<u8>,
    /// Static index of the next instruction to execute.
    pub pc_index: usize,
    /// Dynamic instructions executed before the checkpoint (bookkeeping
    /// only — the restored emulator starts counting from zero).
    pub executed: u64,
    /// Halt state at capture. A `StepLimit` halt is *not* preserved on
    /// restore (the limit was a capture artefact, not program state);
    /// `Halted`/`RanOff` are.
    pub halted: Option<HaltReason>,
}

/// Bytes per undo-log page: a marked emulator saves memory at this
/// granularity before the first store to it after the mark.
const UNDO_PAGE: usize = 4096;

/// The restore point of a marked emulator ([`Emulator::mark`]): the
/// architectural state at the mark, and the pre-mark bytes of every page
/// stored to since.
#[derive(Clone, Debug)]
struct UndoLog {
    regs: [u64; NUM_ARCH_REGS],
    pc_index: usize,
    seq: u64,
    halted: Option<HaltReason>,
    /// One bit per page, set once the page is saved.
    saved: Vec<u64>,
    /// The saved pages, in first-store order.
    pages: Vec<usize>,
    /// Their pre-mark bytes, back to back.
    old: Vec<u8>,
}

impl UndoLog {
    /// Saves the page holding `addr` unless it already is. Out of line,
    /// so that [`Emulator::store_word`] stays small enough to inline.
    #[inline(never)]
    fn save_page(&mut self, memory: &[u8], addr: usize) {
        let page = addr / UNDO_PAGE;
        let (word, bit) = (page / 64, 1u64 << (page % 64));
        if self.saved[word] & bit == 0 {
            self.saved[word] |= bit;
            self.pages.push(page);
            let start = page * UNDO_PAGE;
            self.old.extend_from_slice(&memory[start..memory.len().min(start + UNDO_PAGE)]);
        }
    }
}

/// Architectural-state interpreter for micro-ISA [`Program`]s.
///
/// Memory is a flat byte array; addresses are masked to its (power-of-two)
/// size and aligned down to 8 bytes, so every program is memory-safe by
/// construction and loads/stores cannot fault functionally — page faults
/// are a *timing-model* event injected by the pipeline (mirroring RISC-V,
/// where the paper confines exceptions to memory operations and FP flags).
///
/// # Examples
///
/// ```
/// use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let x1 = ArchReg::int(1);
/// b.li(x1, 7);
/// b.addi(x1, x1, 35);
/// b.halt();
/// let mut emu = Emulator::new(b.build(), 1 << 12);
/// while emu.step().is_some() {}
/// assert_eq!(emu.reg(x1), 42);
/// ```
///
/// Memory changes only through [`Emulator::store_word`] (and the `St`
/// instructions that call it), so a marked emulator's undo log sees every
/// write and [`Emulator::rewind`] is exact.
#[derive(Clone, Debug)]
pub struct Emulator {
    program: Program,
    regs: [u64; NUM_ARCH_REGS],
    memory: Vec<u8>,
    addr_mask: u64,
    pc_index: usize,
    seq: u64,
    halted: Option<HaltReason>,
    step_limit: u64,
    undo: Option<Box<UndoLog>>,
}

impl Emulator {
    /// Creates an emulator with `mem_bytes` of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` is not a power of two or is smaller than 8.
    #[must_use]
    pub fn new(program: Program, mem_bytes: usize) -> Self {
        assert!(
            mem_bytes.is_power_of_two() && mem_bytes >= 8,
            "memory size must be a power of two >= 8"
        );
        Self {
            program,
            regs: [0; NUM_ARCH_REGS],
            memory: vec![0; mem_bytes],
            addr_mask: (mem_bytes as u64 - 1) & !7,
            pc_index: 0,
            seq: 0,
            halted: None,
            step_limit: u64::MAX,
            undo: None,
        }
    }

    /// Limits the number of dynamic instructions executed.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Reads an architectural register.
    #[must_use]
    pub fn reg(&self, r: ArchReg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes an architectural register (`x0` stays zero).
    pub fn set_reg(&mut self, r: ArchReg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Full architectural register file (for equivalence checks).
    #[must_use]
    pub fn regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.regs
    }

    /// Read-only view of memory.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        &self.memory
    }

    /// Reads the 8-byte word at (masked, aligned) `addr`.
    #[must_use]
    pub fn load_word(&self, addr: u64) -> u64 {
        let a = (addr & self.addr_mask) as usize;
        u64::from_le_bytes(self.memory[a..a + 8].try_into().expect("aligned read"))
    }

    /// Writes the 8-byte word at (masked, aligned) `addr`. On a marked
    /// emulator, the first write to a page since the mark saves the page.
    #[inline]
    pub fn store_word(&mut self, addr: u64, value: u64) {
        let a = (addr & self.addr_mask) as usize;
        if let Some(log) = self.undo.as_deref_mut() {
            log.save_page(&self.memory, a);
        }
        self.memory[a..a + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Makes the current state the restore point that
    /// [`Emulator::rewind`] returns to. From here on, the first store to
    /// each 4 KiB page saves that page's bytes. Marking again moves the
    /// restore point to the then-current state. A `StepLimit` halt is not
    /// part of the restore point.
    pub fn mark(&mut self) {
        self.undo = Some(Box::new(UndoLog {
            regs: self.regs,
            pc_index: self.pc_index,
            seq: self.seq,
            halted: self.halted.filter(|&h| h != HaltReason::StepLimit),
            saved: vec![0; self.memory.len().div_ceil(UNDO_PAGE).div_ceil(64)],
            pages: Vec::new(),
            old: Vec::new(),
        }));
    }

    /// Returns the emulator to its restore point ([`Emulator::mark`]):
    /// writes back every page stored to since, restores the registers,
    /// the next PC, the executed count and the halt state, and clears the
    /// step limit. The restore point stays, so the emulator can run and
    /// rewind again; an emulator marked right after it was built is then
    /// indistinguishable from a fresh build. Costs one page copy per page
    /// written since the mark.
    ///
    /// # Panics
    ///
    /// Panics if the emulator was never marked.
    pub fn rewind(&mut self) {
        let log = self.undo.as_deref_mut().expect("rewind needs a restore point (Emulator::mark)");
        let page_len = UNDO_PAGE.min(self.memory.len());
        for (&page, old) in log.pages.iter().zip(log.old.chunks_exact(page_len)) {
            self.memory[page * UNDO_PAGE..][..page_len].copy_from_slice(old);
            log.saved[page / 64] &= !(1 << (page % 64));
        }
        log.pages.clear();
        log.old.clear();
        self.regs = log.regs;
        self.pc_index = log.pc_index;
        self.seq = log.seq;
        self.halted = log.halted;
        self.step_limit = u64::MAX;
    }

    /// Heap bytes the emulator holds: its memory image, its code and, once
    /// marked, its undo log (saved pages included).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let log = self.undo.as_deref().map_or(0, |l| {
            std::mem::size_of::<UndoLog>()
                + l.saved.capacity() * 8
                + l.pages.capacity() * std::mem::size_of::<usize>()
                + l.old.capacity()
        });
        self.memory.capacity() + self.program.len() * std::mem::size_of::<Inst>() + log
    }

    /// The canonical (masked, aligned) form of `addr` — the address that
    /// appears in [`DynInst::mem_addr`].
    #[must_use]
    pub fn canonical_addr(&self, addr: u64) -> u64 {
        addr & self.addr_mask
    }

    /// Why the emulator stopped, if it has.
    #[must_use]
    pub fn halt_reason(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Dynamic instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.seq
    }

    /// Static index of the next instruction to execute.
    #[must_use]
    pub fn pc_index(&self) -> usize {
        self.pc_index
    }

    /// Captures the complete architectural state (registers, next PC,
    /// instruction count) for differential checking. Memory is summarised
    /// separately by [`Emulator::mem_fingerprint`]; byte-exact comparison
    /// uses [`Emulator::memory`].
    #[must_use]
    pub fn snapshot(&self) -> ArchSnapshot {
        ArchSnapshot {
            regs: self.regs,
            pc_index: self.pc_index,
            executed: self.seq,
        }
    }

    /// Captures a restorable architectural checkpoint (registers, memory
    /// image, next PC, halt state). Pair with [`Emulator::restore`] to
    /// resume the program mid-flight in a fresh emulator.
    #[must_use]
    pub fn checkpoint(&self) -> EmuCheckpoint {
        EmuCheckpoint {
            regs: self.regs,
            memory: self.memory.clone(),
            pc_index: self.pc_index,
            executed: self.seq,
            halted: self.halted,
        }
    }

    /// Builds an emulator resuming `program` from checkpoint `ck`.
    ///
    /// Sequence numbers restart at zero (see [`EmuCheckpoint`]) and no
    /// step limit is carried over, so the result behaves like a fresh
    /// program whose initial architectural state is the checkpointed one.
    /// A `StepLimit` halt at capture is cleared; `Halted`/`RanOff` stick.
    ///
    /// # Panics
    ///
    /// Panics if the checkpointed memory size is not a power of two `>= 8`
    /// (cannot happen for a checkpoint taken by [`Emulator::checkpoint`]).
    #[must_use]
    pub fn restore(program: Program, ck: &EmuCheckpoint) -> Self {
        assert!(
            ck.memory.len().is_power_of_two() && ck.memory.len() >= 8,
            "checkpoint memory size must be a power of two >= 8"
        );
        Self {
            program,
            regs: ck.regs,
            memory: ck.memory.clone(),
            addr_mask: (ck.memory.len() as u64 - 1) & !7,
            pc_index: ck.pc_index,
            seq: 0,
            halted: ck.halted.filter(|&h| h != HaltReason::StepLimit),
            step_limit: u64::MAX,
            undo: None,
        }
    }

    /// Clones the emulator with sequence numbers rebased to zero, any
    /// `StepLimit` halt cleared and no step limit — the in-memory
    /// equivalent of checkpoint-then-restore, used by the interval sampler
    /// to spawn a detailed-simulation emulator at the master's current
    /// position.
    #[must_use]
    pub fn fork_rebased(&self) -> Self {
        let mut forked = self.clone();
        forked.seq = 0;
        forked.step_limit = u64::MAX;
        if forked.halted == Some(HaltReason::StepLimit) {
            forked.halted = None;
        }
        forked
    }

    /// The program being executed (static code is not part of a
    /// checkpoint; restore needs it back).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// FNV-1a fingerprint of the full memory image — cheap equality
    /// evidence for two architectural memories without copying either.
    #[must_use]
    pub fn mem_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for chunk in self.memory.chunks_exact(8) {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Executes one instruction; `None` once halted.
    #[allow(clippy::too_many_lines)]
    pub fn step(&mut self) -> Option<DynInst> {
        if self.halted.is_some() {
            return None;
        }
        if self.seq >= self.step_limit {
            self.halted = Some(HaltReason::StepLimit);
            return None;
        }
        let Some(&inst) = self.program.get(self.pc_index) else {
            self.halted = Some(HaltReason::RanOff);
            return None;
        };
        let index = self.pc_index;
        let pc = Program::pc_of(index);
        let r = |reg: Option<ArchReg>, regs: &[u64; NUM_ARCH_REGS]| -> u64 {
            reg.map_or(0, |r| regs[r.index()])
        };
        let a = r(inst.rs1, &self.regs);
        let b = r(inst.rs2, &self.regs);
        let fa = f64::from_bits(a);
        let fb = f64::from_bits(b);
        let mut taken = false;
        let mut mem_addr = None;
        let mut next_index = index + 1;
        let mut result: Option<u64> = None;

        match inst.op {
            Opcode::Add => result = Some(a.wrapping_add(b)),
            Opcode::Sub => result = Some(a.wrapping_sub(b)),
            Opcode::And => result = Some(a & b),
            Opcode::Or => result = Some(a | b),
            Opcode::Xor => result = Some(a ^ b),
            Opcode::Sll => result = Some(a.wrapping_shl((b & 63) as u32)),
            Opcode::Srl => result = Some(a.wrapping_shr((b & 63) as u32)),
            Opcode::Slt => result = Some(u64::from((a as i64) < (b as i64))),
            Opcode::Addi => result = Some(a.wrapping_add(inst.imm as u64)),
            Opcode::Andi => result = Some(a & (inst.imm as u64)),
            Opcode::Xori => result = Some(a ^ (inst.imm as u64)),
            Opcode::Slli => result = Some(a.wrapping_shl((inst.imm & 63) as u32)),
            Opcode::Srli => result = Some(a.wrapping_shr((inst.imm & 63) as u32)),
            Opcode::Slti => result = Some(u64::from((a as i64) < inst.imm)),
            Opcode::Li => result = Some(inst.imm as u64),
            Opcode::Mul => result = Some(a.wrapping_mul(b)),
            Opcode::Div => {
                // RISC-V M semantics: no trap on zero or overflow.
                let (ai, bi) = (a as i64, b as i64);
                result = Some(if bi == 0 {
                    u64::MAX
                } else {
                    ai.wrapping_div(bi) as u64
                });
            }
            Opcode::Rem => {
                let (ai, bi) = (a as i64, b as i64);
                result = Some(if bi == 0 { a } else { ai.wrapping_rem(bi) as u64 });
            }
            Opcode::Fadd => result = Some((fa + fb).to_bits()),
            Opcode::Fsub => result = Some((fa - fb).to_bits()),
            Opcode::Fmul => result = Some((fa * fb).to_bits()),
            Opcode::Fdiv => result = Some((fa / fb).to_bits()),
            Opcode::Fcvt => result = Some(((a as i64) as f64).to_bits()),
            Opcode::Fmov => result = Some(fa as i64 as u64),
            Opcode::Ld => {
                let addr = self.canonical_addr(a.wrapping_add(inst.imm as u64));
                mem_addr = Some(addr);
                result = Some(self.load_word(addr));
            }
            Opcode::St => {
                let addr = self.canonical_addr(a.wrapping_add(inst.imm as u64));
                mem_addr = Some(addr);
                self.store_word(addr, b);
            }
            Opcode::Beq => taken = a == b,
            Opcode::Bne => taken = a != b,
            Opcode::Blt => taken = (a as i64) < (b as i64),
            Opcode::Bge => taken = (a as i64) >= (b as i64),
            Opcode::Jal => {
                taken = true;
                result = Some((index + 1) as u64);
            }
            Opcode::Jalr => {
                taken = true;
                next_index = a as usize;
                result = Some((index + 1) as u64);
            }
            Opcode::Fence | Opcode::Nop => {}
            Opcode::Halt => {
                self.halted = Some(HaltReason::Halted);
            }
        }

        if taken && inst.op != Opcode::Jalr {
            next_index = inst.imm as usize;
        }
        if let (Some(rd), Some(v)) = (inst.dest(), result) {
            self.regs[rd.index()] = v;
        }
        self.pc_index = next_index;

        let dyn_inst = DynInst {
            seq: self.seq,
            index,
            pc,
            op: inst.op,
            class: inst.class(),
            dst: inst.dest(),
            src1: inst.rs1.filter(|r| !r.is_zero()),
            src2: inst.rs2.filter(|r| !r.is_zero()),
            mem_addr,
            taken,
            next_pc: Program::pc_of(next_index),
        };
        self.seq += 1;
        Some(dyn_inst)
    }

    /// Runs to completion (or the step limit), returning the full dynamic
    /// trace. Intended for tests and small traces; big simulations stream
    /// via [`Emulator::step`].
    pub fn run(&mut self) -> Vec<DynInst> {
        let mut trace = Vec::new();
        while let Some(d) = self.step() {
            trace.push(d);
        }
        trace
    }
}

impl Iterator for Emulator {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProgramBuilder;

    fn x(i: u8) -> ArchReg {
        ArchReg::int(i)
    }
    fn f(i: u8) -> ArchReg {
        ArchReg::fp(i)
    }

    #[test]
    fn arithmetic_basics() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 6);
        b.li(x(2), 7);
        b.mul(x(3), x(1), x(2));
        b.sub(x(4), x(3), x(1));
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        emu.run();
        assert_eq!(emu.reg(x(3)), 42);
        assert_eq!(emu.reg(x(4)), 36);
        assert_eq!(emu.halt_reason(), Some(HaltReason::Halted));
    }

    #[test]
    fn division_riscv_semantics() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), -7i64);
        b.li(x(2), 2);
        b.div(x(3), x(1), x(2));
        b.rem(x(4), x(1), x(2));
        b.li(x(5), 0);
        b.div(x(6), x(1), x(5)); // divide by zero -> all ones
        b.rem(x(7), x(1), x(5)); // rem by zero -> dividend
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        emu.run();
        assert_eq!(emu.reg(x(3)) as i64, -3);
        assert_eq!(emu.reg(x(4)) as i64, -1);
        assert_eq!(emu.reg(x(6)), u64::MAX);
        assert_eq!(emu.reg(x(7)) as i64, -7);
    }

    #[test]
    fn memory_roundtrip_and_addressing() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 64);
        b.li(x(2), 0xDEAD);
        b.st(x(2), x(1), 8); // mem[72] = 0xDEAD
        b.ld(x(3), x(1), 8);
        b.halt();
        let mut emu = Emulator::new(b.build(), 1 << 10);
        let trace = emu.run();
        assert_eq!(emu.reg(x(3)), 0xDEAD);
        let st = &trace[2];
        assert!(st.is_store());
        assert_eq!(st.mem_addr, Some(72));
        let ld = &trace[3];
        assert!(ld.is_load());
        assert_eq!(ld.mem_addr, Some(72));
    }

    #[test]
    fn addresses_are_masked_and_aligned() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), (1 << 10) + 13); // beyond the 1 KiB memory, unaligned
        b.st(x(1), x(1), 0);
        b.halt();
        let mut emu = Emulator::new(b.build(), 1 << 10);
        let trace = emu.run();
        // 1037 & (1024-1) = 13, aligned down to 8
        assert_eq!(trace[1].mem_addr, Some(8));
    }

    #[test]
    fn loop_executes_expected_count() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 10);
        b.li(x(2), 0);
        let top = b.label();
        b.bind(top);
        b.addi(x(2), x(2), 3);
        b.addi(x(1), x(1), -1);
        b.bne(x(1), ArchReg::ZERO, top);
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        let trace = emu.run();
        assert_eq!(emu.reg(x(2)), 30);
        // 2 setup + 10 * 3 loop body + halt
        assert_eq!(trace.len(), 2 + 30 + 1);
        // The final bne is not taken.
        let last_branch = trace.iter().rfind(|d| d.is_branch()).unwrap();
        assert!(!last_branch.taken);
    }

    #[test]
    fn branch_records_taken_and_next_pc() {
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.li(x(1), 1);
        b.bne(x(1), ArchReg::ZERO, skip);
        b.li(x(2), 99); // skipped
        b.bind(skip);
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        let trace = emu.run();
        assert_eq!(emu.reg(x(2)), 0);
        let br = &trace[1];
        assert!(br.taken);
        assert_eq!(br.next_pc, Program::pc_of(3));
    }

    #[test]
    fn jal_and_jalr_link_and_jump() {
        let mut b = ProgramBuilder::new();
        let func = b.label();
        b.li(x(10), 0);
        b.jal(x(1), func); // call
        b.halt(); // return lands here (index 2)
        b.bind(func);
        b.li(x(10), 5);
        b.jalr(ArchReg::ZERO, x(1)); // return
        let mut emu = Emulator::new(b.build(), 256);
        emu.run();
        assert_eq!(emu.reg(x(10)), 5);
        assert_eq!(emu.halt_reason(), Some(HaltReason::Halted));
        assert_eq!(emu.reg(x(1)), 2); // link register holds return index
    }

    #[test]
    fn fp_pipeline() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 3);
        b.fcvt(f(0), x(1));
        b.fadd(f(1), f(0), f(0));
        b.fmul(f(2), f(1), f(0));
        b.fdiv(f(3), f(2), f(1));
        b.fmov(x(2), f(3));
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        emu.run();
        assert_eq!(emu.reg(x(2)), 3); // ((3+3)*3)/6 = 3
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut b = ProgramBuilder::new();
        b.li(ArchReg::ZERO, 77);
        b.add(x(1), ArchReg::ZERO, ArchReg::ZERO);
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        emu.run();
        assert_eq!(emu.reg(ArchReg::ZERO), 0);
        assert_eq!(emu.reg(x(1)), 0);
    }

    #[test]
    fn run_off_end_halts() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let mut emu = Emulator::new(b.build(), 256);
        emu.run();
        assert_eq!(emu.halt_reason(), Some(HaltReason::RanOff));
    }

    #[test]
    fn step_limit_halts() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.jal(ArchReg::ZERO, top); // infinite loop
        let mut emu = Emulator::new(b.build(), 256);
        emu.set_step_limit(100);
        let trace = emu.run();
        assert_eq!(trace.len(), 100);
        assert_eq!(emu.halt_reason(), Some(HaltReason::StepLimit));
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.nop();
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        let trace = emu.run();
        for (i, d) in trace.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
    }

    #[test]
    fn iterator_interface() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.nop();
        b.halt();
        let emu = Emulator::new(b.build(), 256);
        assert_eq!(emu.count(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_memory_size_panics() {
        let _ = Emulator::new(Program::new(), 1000);
    }

    /// A store-heavy loop for checkpoint tests: state lives in both the
    /// register file and memory.
    fn store_loop(n: i64) -> Emulator {
        let mut b = ProgramBuilder::new();
        b.li(x(1), n);
        b.li(x(2), 0);
        let top = b.label();
        b.bind(top);
        b.st(x(1), x(2), 64);
        b.addi(x(2), x(2), 8);
        b.addi(x(1), x(1), -1);
        b.bne(x(1), ArchReg::ZERO, top);
        b.halt();
        Emulator::new(b.build(), 1 << 12)
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut emu = store_loop(40);
        for _ in 0..50 {
            emu.step();
        }
        let ck = emu.checkpoint();
        assert_eq!(ck.executed, 50);
        let mut resumed = Emulator::restore(emu.program().clone(), &ck);
        // Sequence numbers rebase to zero...
        assert_eq!(resumed.executed(), 0);
        let first = resumed.step().unwrap();
        assert_eq!(first.seq, 0);
        // ...but execution continues exactly where the original left off.
        let mut rest = vec![first];
        rest.extend(resumed.by_ref());
        let tail = emu.run();
        assert_eq!(rest.len(), tail.len());
        for (a, b) in rest.iter().zip(tail.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.op, b.op);
            assert_eq!(a.mem_addr, b.mem_addr);
            assert_eq!(a.taken, b.taken);
            assert_eq!(b.seq - a.seq, 50);
        }
        assert_eq!(resumed.regs(), emu.regs());
        assert_eq!(resumed.mem_fingerprint(), emu.mem_fingerprint());
        assert_eq!(resumed.halt_reason(), emu.halt_reason());
    }

    #[test]
    fn fork_rebased_clears_step_limit_halt() {
        let mut emu = store_loop(40);
        emu.set_step_limit(10);
        while emu.step().is_some() {}
        assert_eq!(emu.halt_reason(), Some(HaltReason::StepLimit));
        let mut forked = emu.fork_rebased();
        assert_eq!(forked.halt_reason(), None);
        assert_eq!(forked.executed(), 0);
        let d = forked.step().expect("fork resumes past the step limit");
        assert_eq!(d.seq, 0);
    }

    #[test]
    fn rewind_returns_to_the_mark_on_a_sub_page_memory() {
        let mut b = ProgramBuilder::new();
        b.li(x(1), 7);
        b.st(x(1), ArchReg::ZERO, 128);
        b.halt();
        let mut emu = Emulator::new(b.build(), 256);
        emu.store_word(8, 1);
        emu.mark();
        emu.set_step_limit(2);
        emu.run();
        assert_eq!((emu.load_word(128), emu.halt_reason()), (7, Some(HaltReason::StepLimit)));
        emu.rewind();
        assert_eq!((emu.load_word(128), emu.load_word(8), emu.reg(x(1))), (0, 1, 0));
        assert_eq!((emu.executed(), emu.pc_index(), emu.halt_reason()), (0, 0, None));
        // The step limit is gone and the mark stays: run to the halt twice.
        for _ in 0..2 {
            assert_eq!(emu.run().len(), 3);
            assert_eq!(emu.halt_reason(), Some(HaltReason::Halted));
            emu.rewind();
        }
        // Marking again moves the restore point.
        emu.step();
        emu.step();
        emu.mark();
        emu.store_word(8, 2);
        emu.rewind();
        assert_eq!((emu.load_word(128), emu.load_word(8), emu.executed()), (7, 1, 2));
    }

    #[test]
    #[should_panic(expected = "restore point")]
    fn rewind_without_mark_panics() {
        store_loop(1).rewind();
    }
}
