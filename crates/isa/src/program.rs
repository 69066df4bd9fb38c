//! Programs and an assembler-style builder with labels.

use crate::{ArchReg, Inst, Opcode};
use std::fmt;

/// A static program: a sequence of instructions addressed by index.
///
/// The program counter used throughout the simulator is
/// `instruction index * 4` to mimic fixed-width RISC encodings (branch
/// predictors hash PCs, so realistic spacing matters).
#[derive(Clone, Debug, Default)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instruction at `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Inst> {
        self.insts.get(index)
    }

    /// Byte PC of instruction `index`.
    #[must_use]
    pub fn pc_of(index: usize) -> u64 {
        (index as u64) * 4
    }

    /// Instruction index of byte PC `pc`.
    #[must_use]
    pub fn index_of(pc: u64) -> usize {
        (pc / 4) as usize
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, inst) in self.insts.iter().enumerate() {
            writeln!(f, "{i:6}: {inst}")?;
        }
        Ok(())
    }
}

/// A forward-referencable label handle issued by [`ProgramBuilder::label`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

/// Assembler-style program builder with labels and the usual mnemonics.
///
/// # Examples
///
/// A count-down loop:
///
/// ```
/// use orinoco_isa::{ArchReg, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let x1 = ArchReg::int(1);
/// let x2 = ArchReg::int(2);
/// b.li(x1, 10);
/// let top = b.label();
/// b.bind(top);
/// b.addi(x1, x1, -1);
/// b.bne(x1, ArchReg::ZERO, top);
/// b.halt();
/// let program = b.build();
/// assert_eq!(program.len(), 4);
/// # let _ = x2;
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: Vec<Option<usize>>,
    /// (instruction index, label) pairs to patch at build time.
    fixups: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.insts.len());
    }

    /// Current instruction index (where the next instruction will land).
    #[must_use]
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    fn rrr(&mut self, op: Opcode, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.push(Inst::new(op, Some(rd), Some(rs1), Some(rs2), 0))
    }

    fn rri(&mut self, op: Opcode, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.push(Inst::new(op, Some(rd), Some(rs1), None, imm))
    }

    fn branch(&mut self, op: Opcode, rs1: ArchReg, rs2: ArchReg, target: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), target));
        self.push(Inst::new(op, None, Some(rs1), Some(rs2), 0))
    }

    /// `rd = rs1 + rs2`
    pub fn add(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Add, rd, rs1, rs2)
    }
    /// `rd = rs1 - rs2`
    pub fn sub(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Sub, rd, rs1, rs2)
    }
    /// `rd = rs1 & rs2`
    pub fn and(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::And, rd, rs1, rs2)
    }
    /// `rd = rs1 | rs2`
    pub fn or(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Or, rd, rs1, rs2)
    }
    /// `rd = rs1 ^ rs2`
    pub fn xor(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Xor, rd, rs1, rs2)
    }
    /// `rd = rs1 << rs2`
    pub fn sll(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Sll, rd, rs1, rs2)
    }
    /// `rd = rs1 >> rs2`
    pub fn srl(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Srl, rd, rs1, rs2)
    }
    /// `rd = rs1 < rs2` (signed)
    pub fn slt(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Slt, rd, rs1, rs2)
    }
    /// `rd = rs1 * rs2`
    pub fn mul(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Mul, rd, rs1, rs2)
    }
    /// `rd = rs1 / rs2`
    pub fn div(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Div, rd, rs1, rs2)
    }
    /// `rd = rs1 % rs2`
    pub fn rem(&mut self, rd: ArchReg, rs1: ArchReg, rs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Rem, rd, rs1, rs2)
    }
    /// `rd = rs1 + imm`
    pub fn addi(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.rri(Opcode::Addi, rd, rs1, imm)
    }
    /// `rd = rs1 & imm`
    pub fn andi(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.rri(Opcode::Andi, rd, rs1, imm)
    }
    /// `rd = rs1 ^ imm`
    pub fn xori(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.rri(Opcode::Xori, rd, rs1, imm)
    }
    /// `rd = rs1 << imm`
    pub fn slli(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.rri(Opcode::Slli, rd, rs1, imm)
    }
    /// `rd = rs1 >> imm`
    pub fn srli(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.rri(Opcode::Srli, rd, rs1, imm)
    }
    /// `rd = rs1 < imm` (signed)
    pub fn slti(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.rri(Opcode::Slti, rd, rs1, imm)
    }
    /// `rd = imm`
    pub fn li(&mut self, rd: ArchReg, imm: i64) -> &mut Self {
        self.push(Inst::new(Opcode::Li, Some(rd), None, None, imm))
    }
    /// `fd = fs1 + fs2`
    pub fn fadd(&mut self, fd: ArchReg, fs1: ArchReg, fs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Fadd, fd, fs1, fs2)
    }
    /// `fd = fs1 - fs2`
    pub fn fsub(&mut self, fd: ArchReg, fs1: ArchReg, fs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Fsub, fd, fs1, fs2)
    }
    /// `fd = fs1 * fs2`
    pub fn fmul(&mut self, fd: ArchReg, fs1: ArchReg, fs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Fmul, fd, fs1, fs2)
    }
    /// `fd = fs1 / fs2`
    pub fn fdiv(&mut self, fd: ArchReg, fs1: ArchReg, fs2: ArchReg) -> &mut Self {
        self.rrr(Opcode::Fdiv, fd, fs1, fs2)
    }
    /// `fd = (rs1 as i64) as f64`
    pub fn fcvt(&mut self, fd: ArchReg, rs1: ArchReg) -> &mut Self {
        self.push(Inst::new(Opcode::Fcvt, Some(fd), Some(rs1), None, 0))
    }
    /// `rd = fs1 as i64`
    pub fn fmov(&mut self, rd: ArchReg, fs1: ArchReg) -> &mut Self {
        self.push(Inst::new(Opcode::Fmov, Some(rd), Some(fs1), None, 0))
    }
    /// `rd = mem[rs1 + imm]`
    pub fn ld(&mut self, rd: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.push(Inst::new(Opcode::Ld, Some(rd), Some(rs1), None, imm))
    }
    /// `mem[rs1 + imm] = rs2`
    pub fn st(&mut self, rs2: ArchReg, rs1: ArchReg, imm: i64) -> &mut Self {
        self.push(Inst::new(Opcode::St, None, Some(rs1), Some(rs2), imm))
    }
    /// branch if equal
    pub fn beq(&mut self, rs1: ArchReg, rs2: ArchReg, target: Label) -> &mut Self {
        self.branch(Opcode::Beq, rs1, rs2, target)
    }
    /// branch if not equal
    pub fn bne(&mut self, rs1: ArchReg, rs2: ArchReg, target: Label) -> &mut Self {
        self.branch(Opcode::Bne, rs1, rs2, target)
    }
    /// branch if less than (signed)
    pub fn blt(&mut self, rs1: ArchReg, rs2: ArchReg, target: Label) -> &mut Self {
        self.branch(Opcode::Blt, rs1, rs2, target)
    }
    /// branch if greater or equal (signed)
    pub fn bge(&mut self, rs1: ArchReg, rs2: ArchReg, target: Label) -> &mut Self {
        self.branch(Opcode::Bge, rs1, rs2, target)
    }
    /// unconditional jump, `rd` receives the return index
    pub fn jal(&mut self, rd: ArchReg, target: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), target));
        self.push(Inst::new(Opcode::Jal, Some(rd), None, None, 0))
    }
    /// indirect jump to the instruction index in `rs1`
    pub fn jalr(&mut self, rd: ArchReg, rs1: ArchReg) -> &mut Self {
        self.push(Inst::new(Opcode::Jalr, Some(rd), Some(rs1), None, 0))
    }
    /// memory fence
    pub fn fence(&mut self) -> &mut Self {
        self.push(Inst::new(Opcode::Fence, None, None, None, 0))
    }
    /// no-op
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::new(Opcode::Nop, None, None, None, 0))
    }
    /// halt the program
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::new(Opcode::Halt, None, None, None, 0))
    }

    /// Resolves labels and produces the program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    #[must_use]
    pub fn build(mut self) -> Program {
        for (idx, label) in self.fixups.drain(..) {
            let target = self.labels[label.0]
                .unwrap_or_else(|| panic!("label {label:?} used but never bound"));
            self.insts[idx].imm = target as i64;
        }
        Program { insts: self.insts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchReg;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let x1 = ArchReg::int(1);
        let fwd = b.label();
        b.beq(x1, x1, fwd); // forward reference
        b.nop();
        b.bind(fwd);
        let back = b.label();
        b.bind(back);
        b.bne(x1, ArchReg::ZERO, back); // backward reference
        let p = b.build();
        assert_eq!(p.get(0).unwrap().imm, 2);
        assert_eq!(p.get(2).unwrap().imm, 2);
    }

    #[test]
    fn pc_mapping_roundtrips() {
        assert_eq!(Program::pc_of(3), 12);
        assert_eq!(Program::index_of(12), 3);
        for i in 0..100 {
            assert_eq!(Program::index_of(Program::pc_of(i)), i);
        }
    }

    #[test]
    fn builder_emits_expected_shapes() {
        let mut b = ProgramBuilder::new();
        let x1 = ArchReg::int(1);
        let x2 = ArchReg::int(2);
        b.ld(x1, x2, 8);
        b.st(x1, x2, 16);
        let p = b.build();
        let ld = p.get(0).unwrap();
        assert_eq!(ld.op, Opcode::Ld);
        assert_eq!(ld.rd, Some(x1));
        assert_eq!(ld.rs1, Some(x2));
        let st = p.get(1).unwrap();
        assert_eq!(st.op, Opcode::St);
        assert_eq!(st.rd, None);
        assert_eq!(st.rs2, Some(x1));
    }

    #[test]
    fn display_lists_instructions() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.halt();
        let p = b.build();
        let s = p.to_string();
        assert!(s.contains("Nop"));
        assert!(s.contains("Halt"));
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jal(ArchReg::ZERO, l);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }
}
