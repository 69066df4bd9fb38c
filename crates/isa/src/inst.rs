//! Static instructions of the micro-ISA.
//!
//! A deliberately small RISC-V-flavoured instruction set: enough operations
//! to express realistic kernels (integer/FP arithmetic of several latency
//! classes, 8-byte loads and stores, conditional branches, jumps, fences)
//! while keeping the functional emulator trivially verifiable.

use crate::ArchReg;
use std::fmt;

/// Functional-unit class of an instruction — the granularity at which the
/// issue logic arbitrates (paper §5, Figure 13) and functional units are
/// provisioned (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum InstClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Pipelined integer multiply.
    IntMul,
    /// Unpipelined integer divide.
    IntDiv,
    /// Floating-point add/sub/compare.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide (long latency).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch or unconditional jump.
    Branch,
    /// Memory ordering fence / synchronisation barrier.
    Barrier,
}

impl InstClass {
    /// All classes, for iteration in configuration tables.
    pub const ALL: [InstClass; 10] = [
        InstClass::IntAlu,
        InstClass::IntMul,
        InstClass::IntDiv,
        InstClass::FpAlu,
        InstClass::FpMul,
        InstClass::FpDiv,
        InstClass::Load,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Barrier,
    ];

    /// `true` for loads and stores.
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }

    /// `true` for control-flow instructions.
    #[must_use]
    pub fn is_ctrl(self) -> bool {
        matches!(self, InstClass::Branch)
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::IntAlu => "int-alu",
            InstClass::IntMul => "int-mul",
            InstClass::IntDiv => "int-div",
            InstClass::FpAlu => "fp-alu",
            InstClass::FpMul => "fp-mul",
            InstClass::FpDiv => "fp-div",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Barrier => "barrier",
        };
        f.write_str(s)
    }
}

/// Operation codes of the micro-ISA.
///
/// Register-register forms read `rs1`/`rs2`; immediate forms read `rs1` and
/// the instruction's `imm`. Memory operations compute
/// `address = rs1 + imm`; stores take data from `rs2`. Branches compare
/// `rs1` with `rs2` and jump to the instruction-index target in `imm`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    /// `rd = rs1 + rs2`
    Add,
    /// `rd = rs1 - rs2`
    Sub,
    /// `rd = rs1 & rs2`
    And,
    /// `rd = rs1 | rs2`
    Or,
    /// `rd = rs1 ^ rs2`
    Xor,
    /// `rd = rs1 << (rs2 & 63)`
    Sll,
    /// `rd = rs1 >> (rs2 & 63)` (logical)
    Srl,
    /// `rd = (rs1 as i64) < (rs2 as i64)`
    Slt,
    /// `rd = rs1 + imm`
    Addi,
    /// `rd = rs1 & imm`
    Andi,
    /// `rd = rs1 ^ imm`
    Xori,
    /// `rd = rs1 << (imm & 63)`
    Slli,
    /// `rd = rs1 >> (imm & 63)` (logical)
    Srli,
    /// `rd = (rs1 as i64) < imm`
    Slti,
    /// `rd = imm`
    Li,
    /// `rd = rs1 * rs2` (low 64 bits)
    Mul,
    /// `rd = rs1 / rs2` (signed; RISC-V semantics on zero divisor)
    Div,
    /// `rd = rs1 % rs2` (signed; RISC-V semantics on zero divisor)
    Rem,
    /// `fd = fs1 + fs2`
    Fadd,
    /// `fd = fs1 - fs2`
    Fsub,
    /// `fd = fs1 * fs2`
    Fmul,
    /// `fd = fs1 / fs2`
    Fdiv,
    /// `fd = (rs1 as i64) as f64` — int→fp move/convert (FP ALU class)
    Fcvt,
    /// `rd = fs1 as i64` — fp→int convert (FP ALU class)
    Fmov,
    /// `rd = mem[rs1 + imm]` (8 bytes)
    Ld,
    /// `mem[rs1 + imm] = rs2` (8 bytes)
    St,
    /// branch to `imm` if `rs1 == rs2`
    Beq,
    /// branch to `imm` if `rs1 != rs2`
    Bne,
    /// branch to `imm` if `(rs1 as i64) < (rs2 as i64)`
    Blt,
    /// branch to `imm` if `(rs1 as i64) >= (rs2 as i64)`
    Bge,
    /// unconditional jump to `imm`, `rd = return index`
    Jal,
    /// indirect jump to `rs1`, `rd = return index`
    Jalr,
    /// memory ordering fence (synchronisation barrier)
    Fence,
    /// no operation
    Nop,
    /// stop the program
    Halt,
}

impl Opcode {
    /// Every opcode, in declaration order: an opcode's position here is
    /// its discriminant.
    pub const ALL: [Opcode; 35] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::Slt,
        Opcode::Addi,
        Opcode::Andi,
        Opcode::Xori,
        Opcode::Slli,
        Opcode::Srli,
        Opcode::Slti,
        Opcode::Li,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::Fadd,
        Opcode::Fsub,
        Opcode::Fmul,
        Opcode::Fdiv,
        Opcode::Fcvt,
        Opcode::Fmov,
        Opcode::Ld,
        Opcode::St,
        Opcode::Beq,
        Opcode::Bne,
        Opcode::Blt,
        Opcode::Bge,
        Opcode::Jal,
        Opcode::Jalr,
        Opcode::Fence,
        Opcode::Nop,
        Opcode::Halt,
    ];

    /// Functional-unit class of the opcode.
    #[must_use]
    pub fn class(self) -> InstClass {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Sll | Srl | Slt | Addi | Andi | Xori | Slli
            | Srli | Slti | Li | Nop | Halt => InstClass::IntAlu,
            Mul => InstClass::IntMul,
            Div | Rem => InstClass::IntDiv,
            Fadd | Fsub | Fcvt | Fmov => InstClass::FpAlu,
            Fmul => InstClass::FpMul,
            Fdiv => InstClass::FpDiv,
            Ld => InstClass::Load,
            St => InstClass::Store,
            Beq | Bne | Blt | Bge | Jal | Jalr => InstClass::Branch,
            Fence => InstClass::Barrier,
        }
    }

    /// `true` for conditional branches (not unconditional jumps).
    #[must_use]
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge)
    }

    /// `true` for indirect jumps.
    #[must_use]
    pub fn is_indirect(self) -> bool {
        matches!(self, Opcode::Jalr)
    }
}

/// A static instruction.
///
/// `imm` doubles as the branch/jump target (an instruction index) for
/// control-flow opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Inst {
    /// Operation.
    pub op: Opcode,
    /// Destination register, if the instruction writes one.
    pub rd: Option<ArchReg>,
    /// First source register.
    pub rs1: Option<ArchReg>,
    /// Second source register (data operand for stores).
    pub rs2: Option<ArchReg>,
    /// Immediate operand / displacement / branch target.
    pub imm: i64,
}

impl Inst {
    /// Creates an instruction, validating the operand shape for the opcode.
    #[must_use]
    pub fn new(
        op: Opcode,
        rd: Option<ArchReg>,
        rs1: Option<ArchReg>,
        rs2: Option<ArchReg>,
        imm: i64,
    ) -> Self {
        Self { op, rd, rs1, rs2, imm }
    }

    /// Functional-unit class.
    #[must_use]
    pub fn class(&self) -> InstClass {
        self.op.class()
    }

    /// Destination register, filtered of writes to the zero register
    /// (which are architectural no-ops).
    #[must_use]
    pub fn dest(&self) -> Option<ArchReg> {
        self.rd.filter(|r| !r.is_zero())
    }

    /// Source registers, with reads of the zero register removed (they
    /// never create dependences).
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        [self.rs1, self.rs2]
            .into_iter()
            .flatten()
            .filter(|r| !r.is_zero())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.op)?;
        if let Some(rd) = self.rd {
            write!(f, " {rd}")?;
        }
        if let Some(rs1) = self.rs1 {
            write!(f, ", {rs1}")?;
        }
        if let Some(rs2) = self.rs2 {
            write!(f, ", {rs2}")?;
        }
        write!(f, ", {}", self.imm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_classes() {
        assert_eq!(Opcode::Add.class(), InstClass::IntAlu);
        assert_eq!(Opcode::Mul.class(), InstClass::IntMul);
        assert_eq!(Opcode::Div.class(), InstClass::IntDiv);
        assert_eq!(Opcode::Fadd.class(), InstClass::FpAlu);
        assert_eq!(Opcode::Fdiv.class(), InstClass::FpDiv);
        assert_eq!(Opcode::Ld.class(), InstClass::Load);
        assert_eq!(Opcode::St.class(), InstClass::Store);
        assert_eq!(Opcode::Beq.class(), InstClass::Branch);
        assert_eq!(Opcode::Fence.class(), InstClass::Barrier);
    }

    #[test]
    fn class_predicates() {
        assert!(InstClass::Load.is_mem());
        assert!(InstClass::Store.is_mem());
        assert!(!InstClass::IntAlu.is_mem());
        assert!(InstClass::Branch.is_ctrl());
        assert!(!InstClass::Load.is_ctrl());
    }

    #[test]
    fn branch_predicates() {
        assert!(Opcode::Bne.is_cond_branch());
        assert!(!Opcode::Jal.is_cond_branch());
        assert!(Opcode::Jalr.is_indirect());
        assert!(!Opcode::Jal.is_indirect());
    }

    #[test]
    fn zero_register_filtered() {
        let i = Inst::new(
            Opcode::Add,
            Some(ArchReg::ZERO),
            Some(ArchReg::ZERO),
            Some(ArchReg::int(3)),
            0,
        );
        assert_eq!(i.dest(), None);
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![ArchReg::int(3)]);
    }

    #[test]
    fn display_is_readable() {
        let i = Inst::new(
            Opcode::Addi,
            Some(ArchReg::int(1)),
            Some(ArchReg::int(2)),
            None,
            42,
        );
        assert_eq!(i.to_string(), "Addi x1, x2, 42");
    }

    #[test]
    fn all_classes_covered() {
        assert_eq!(InstClass::ALL.len(), 10);
    }
}
