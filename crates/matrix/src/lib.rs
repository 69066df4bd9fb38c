//! Matrix schedulers for **ordered issue and unordered commit with
//! non-collapsible queues** — the core data structures of the Orinoco
//! microarchitecture (Chen et al., ISCA 2023).
//!
//! Out-of-order processors traditionally derive the age of an instruction
//! from its *position* in the IQ and ROB, forcing a choice between
//! expensive collapsible queues and pseudo-ordered random queues. This
//! crate decouples temporal order from queue position by tracking it in bit
//! matrices:
//!
//! * [`AgeMatrix`] — relative age with the **bit count encoding**, which
//!   selects up to `IW` oldest ready instructions in O(1) (§3.1), supports
//!   criticality-aware dispatch and locates the oldest instruction for
//!   precise exceptions.
//! * [`CommitDepMatrix`] / [`CommitScheduler`] — commit dependencies for
//!   non-speculative **out-of-order commit**; the merged scheduler reuses
//!   the ROB age matrix with a `SPEC` vector (§3.2).
//! * [`MemDisambigMatrix`] — load/store disambiguation so loads turn
//!   non-speculative before older stores perform (§3.3).
//! * [`LockdownMatrix`] and [`LockdownTable`] — non-speculative load→load
//!   reordering under TSO (§3.3).
//! * [`WakeupMatrix`] — CAM-free IQ wakeup (§3.4).
//!
//! The physical PIM implementation of these matrices (8T SRAM bit-line
//! computing) is modelled separately in the `orinoco-circuit` crate; here
//! every operation is an exact functional model of what the arrays
//! compute, written once as the paper's scalar definition.
//!
//! # Who runs what
//!
//! * The pipeline (`orinoco-core`) runs [`MemDisambigMatrix`],
//!   [`LockdownMatrix`] and [`LockdownTable`] every cycle.
//! * [`AgeMatrix`] and [`CommitScheduler`] are oracles: the core keeps
//!   program order in a linked list (ROB) and a `(!critical, seq)` key
//!   (IQ), and its order checks rebuild these matrices from the live
//!   entries to confirm both.
//! * [`CommitDepMatrix`] and [`WakeupMatrix`] are standalone models of
//!   the paper's designs, checked by this crate's tests; no simulated
//!   path uses them.
//! * The multibank write-port constraint of §4.3 (one dispatch per bank
//!   per cycle) is not a matrix: the core models it as a slot-steering
//!   rule in its ROB (`Rob::alloc_banked`, under
//!   `CoreConfig::banked_dispatch`).
//!
//! # Example: ordered issue out of a random queue
//!
//! ```
//! use orinoco_matrix::{AgeMatrix, BitVec64, WakeupMatrix};
//!
//! let mut age = AgeMatrix::new(16);
//! let mut wakeup = WakeupMatrix::new(16);
//!
//! // Three instructions dispatched to arbitrary free entries:
//! //   i0 -> slot 9, i1 (uses i0) -> slot 2, i2 -> slot 13.
//! age.dispatch(9);
//! wakeup.dispatch(9, &BitVec64::new(16));
//! age.dispatch(2);
//! wakeup.dispatch(2, &BitVec64::from_indices(16, [9]));
//! age.dispatch(13);
//! wakeup.dispatch(13, &BitVec64::new(16));
//!
//! // i0 and i2 are ready; a 2-wide issue grants them oldest-first.
//! let bid = wakeup.ready_set();
//! assert_eq!(age.select_oldest(&bid, 2), vec![9, 13]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod age;
mod bitvec;
mod commit;
mod lockdown;
mod matrix;
mod memdis;
mod wakeup;

pub use age::AgeMatrix;
pub use bitvec::{BitVec64, IterOnes, IterOnesAnd};
pub use commit::{CommitDepMatrix, CommitScheduler};
pub use lockdown::{LockdownMatrix, LockdownTable};
pub use matrix::BitMatrix;
pub use memdis::MemDisambigMatrix;
pub use wakeup::WakeupMatrix;
