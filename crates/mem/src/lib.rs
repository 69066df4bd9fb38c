//! Memory-system substrate for the Orinoco simulator: a three-level
//! set-associative cache hierarchy with MSHRs, a 64-stream stride
//! prefetcher and a fixed-latency DRAM backend, configured per Table 1 of
//! the paper (32 KB L1 / 256 KB L2 / 1 MB LLC / DDR4-2400).
//!
//! The model is latency-based: an access returns the cycle at which its
//! data is available and which level served it; MSHR occupancy provides
//! back-pressure (a full L1 miss queue rejects the access and the core
//! retries), which is what creates the memory-level-parallelism headroom
//! that out-of-order commit exploits.
//!
//! # Example
//!
//! ```
//! use orinoco_mem::{MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let out = mem.access(0x1000, 0).unwrap();
//! assert!(out.complete_at >= 200); // cold miss to DRAM
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod cache;
pub mod coherence;
mod hierarchy;
mod prefetch;

pub use cache::{Cache, CacheConfig};
pub use coherence::{CohConfig, CohDelivery, CohStats, CoherenceHub, CoreId, LineState, WriteId};
pub use hierarchy::{AccessOutcome, HitLevel, MemConfig, MemStats, MemorySystem};
pub use prefetch::StreamPrefetcher;
