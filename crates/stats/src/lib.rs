//! Statistics utilities for the Orinoco simulator: histograms, top-down
//! stall attribution, aggregation (geometric means, speedups) and the
//! plain-text table renderer used by every figure/table harness.
//!
//! # Example
//!
//! ```
//! use orinoco_stats::{geomean, improvement_pct};
//!
//! let speedups = [1.065, 1.136, 1.148];
//! let agg = geomean(&speedups);
//! assert!(agg > 1.1);
//! assert!(improvement_pct(agg, 1.0) > 10.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod histogram;
mod stall;
mod summary;
mod table;

pub use histogram::Histogram;
pub use stall::{Resource, StallBreakdown, StallCause, StallTaxonomy};
pub use summary::{geomean, improvement_pct, mean, speedup};
pub use table::TextTable;
