//! A RISC-V-flavoured micro-ISA, assembler-style program builder and
//! functional emulator for the Orinoco reproduction.
//!
//! The paper evaluates on RISC-V, chosen because it "limits exceptions to
//! floating-point instructions and memory operations" — precisely the
//! property that lets Orinoco clear `SPEC` bits early and commit out of
//! order. This crate provides the equivalent substrate:
//!
//! * [`Inst`]/[`Opcode`]/[`InstClass`] — a compact instruction set with
//!   integer, multiply/divide, floating-point, memory, branch and fence
//!   operations spanning the latency classes of the paper's FU mix.
//! * [`ProgramBuilder`] — labels and mnemonics for writing kernels;
//!   a built [`Program`] prints one instruction per line through
//!   `Display`.
//! * [`Emulator`] — the architectural oracle producing the [`DynInst`]
//!   stream that drives the cycle-level pipeline.
//!
//! # Example
//!
//! ```
//! use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let (x1, x2) = (ArchReg::int(1), ArchReg::int(2));
//! b.li(x1, 5);
//! let top = b.label();
//! b.bind(top);
//! b.addi(x2, x2, 2);
//! b.addi(x1, x1, -1);
//! b.bne(x1, ArchReg::ZERO, top);
//! b.halt();
//!
//! let mut emu = Emulator::new(b.build(), 4096);
//! let trace: Vec<_> = emu.by_ref().collect();
//! assert_eq!(emu.reg(x2), 10);
//! assert!(trace.iter().filter(|d| d.is_branch()).count() == 5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod emulator;
mod inst;
mod program;
mod reg;

pub use emulator::{ArchSnapshot, DynInst, EmuCheckpoint, Emulator, HaltReason};
pub use inst::{Inst, InstClass, Opcode};
pub use program::{Label, Program, ProgramBuilder};
pub use reg::{ArchReg, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
