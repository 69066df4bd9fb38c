//! Architectural registers of the micro-ISA.
//!
//! The register file mirrors RISC-V: 32 integer registers (`x0` hardwired
//! to zero) and 32 floating-point registers. Both spaces are folded into a
//! single 64-wide architectural namespace so the renamer can treat them
//! uniformly.

use std::fmt;

/// Number of integer architectural registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point architectural registers.
pub const NUM_FP_REGS: usize = 32;
/// Total architectural register namespace (int + fp).
pub const NUM_ARCH_REGS: usize = NUM_INT_REGS + NUM_FP_REGS;

/// An architectural register: `x0..x31` (integer) or `f0..f31` (floating
/// point).
///
/// # Examples
///
/// ```
/// use orinoco_isa::ArchReg;
///
/// let a = ArchReg::int(5);
/// assert!(!a.is_fp());
/// assert_eq!(a.index(), 5);
/// let f = ArchReg::fp(3);
/// assert!(f.is_fp());
/// assert_eq!(f.index(), 35); // folded namespace
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(u8);

impl ArchReg {
    /// The hardwired-zero integer register `x0`.
    pub const ZERO: ArchReg = ArchReg(0);

    /// Integer register `x{i}`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    #[must_use]
    pub fn int(i: u8) -> Self {
        assert!((i as usize) < NUM_INT_REGS, "x{i} out of range");
        ArchReg(i)
    }

    /// Floating-point register `f{i}`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    #[must_use]
    pub fn fp(i: u8) -> Self {
        assert!((i as usize) < NUM_FP_REGS, "f{i} out of range");
        ArchReg(i + NUM_INT_REGS as u8)
    }

    /// Index into the folded 64-register namespace.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// `true` for a floating-point register.
    #[must_use]
    pub fn is_fp(self) -> bool {
        (self.0 as usize) >= NUM_INT_REGS
    }

    /// `true` for the hardwired-zero register `x0`.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Register number within its own space (e.g. `f3` -> 3).
    #[must_use]
    pub fn number(self) -> u8 {
        if self.is_fp() {
            self.0 - NUM_INT_REGS as u8
        } else {
            self.0
        }
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.number())
        } else {
            write!(f, "x{}", self.number())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_folding() {
        assert_eq!(ArchReg::int(0).index(), 0);
        assert_eq!(ArchReg::int(31).index(), 31);
        assert_eq!(ArchReg::fp(0).index(), 32);
        assert_eq!(ArchReg::fp(31).index(), 63);
    }

    #[test]
    fn classification() {
        assert!(ArchReg::ZERO.is_zero());
        assert!(!ArchReg::int(1).is_zero());
        assert!(ArchReg::fp(0).is_fp());
        assert!(!ArchReg::int(7).is_fp());
    }

    #[test]
    fn display_forms() {
        assert_eq!(ArchReg::int(5).to_string(), "x5");
        assert_eq!(ArchReg::fp(9).to_string(), "f9");
        assert_eq!(format!("{:?}", ArchReg::fp(9)), "f9");
    }

    #[test]
    fn number_within_space() {
        assert_eq!(ArchReg::fp(11).number(), 11);
        assert_eq!(ArchReg::int(11).number(), 11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_out_of_range_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_out_of_range_panics() {
        let _ = ArchReg::fp(32);
    }
}
