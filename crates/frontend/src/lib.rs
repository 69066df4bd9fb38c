//! Branch-prediction front-end for the Orinoco simulator: a TAGE direction
//! predictor, a set-associative branch target buffer and a return-address
//! stack.
//!
//! The paper's baseline core (Table 1) uses a TAGE-SC-L-8KB predictor;
//! [`Tage::new`]`(10)` provides the equivalent storage budget and is the
//! only predictor the core builds. [`Bimodal`] and [`AlwaysTaken`] remain
//! as the yardsticks TAGE's tests measure it against.
//!
//! # Example
//!
//! ```
//! use orinoco_frontend::{DirectionPredictor, Tage};
//!
//! let mut p = Tage::new(10);
//! let taken = p.predict(0x40);
//! p.update(0x40, true);
//! # let _ = taken;
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod btb;
mod predictor;
mod tage;

pub use btb::{Btb, ReturnAddressStack};
pub use predictor::{AlwaysTaken, Bimodal, DirectionPredictor};
pub use tage::Tage;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tage_outpredicts_always_taken_on_biased_not_taken() {
        let mut tage = Tage::new(10);
        let mut at = AlwaysTaken;
        let mut tage_ok = 0;
        let mut at_ok = 0;
        for i in 0..500 {
            let taken = false;
            if tage.predict(0x100) == taken && i > 50 {
                tage_ok += 1;
            }
            if at.predict(0x100) == taken && i > 50 {
                at_ok += 1;
            }
            tage.update(0x100, taken);
            at.update(0x100, taken);
        }
        assert!(tage_ok > 400);
        assert_eq!(at_ok, 0);
    }
}
