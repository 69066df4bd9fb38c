//! The Orinoco out-of-order core: a cycle-level simulator implementing
//! **ordered issue and unordered commit with non-collapsible queues**
//! (Chen et al., ISCA 2023) alongside every baseline the paper evaluates.
//!
//! * Issue schedulers (§2.1/§6.2, Figure 14): SHIFT, CIRC, RAND, AGE,
//!   MULT, Orinoco (age matrix + bit count), CRI w/ AGE, CRI w/ Orinoco.
//! * Commit policies (§2.2/§6.2, Figure 15): IOC, Orinoco (non-speculative
//!   OoO commit over a non-collapsible ROB), VB, BR, SPEC (± ROB
//!   reclamation), ECL, with the "w/o ECL" ablations.
//! * Counter-based renaming with a register status table (§5), memory
//!   disambiguation matrix in the LSQ (§3.3), lockdown matrix/table for
//!   TSO load→load reordering, precise exceptions over a non-collapsible
//!   ROB (§3.2), criticality tables (CCT + IST/IBDA, §6.2), and the
//!   Base/Pro/Ultra configurations of Table 1.
//!
//! # Example
//!
//! ```
//! use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
//! use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let x1 = ArchReg::int(1);
//! b.li(x1, 100);
//! let top = b.label();
//! b.bind(top);
//! b.addi(x1, x1, -1);
//! b.bne(x1, ArchReg::ZERO, top);
//! b.halt();
//!
//! let emu = Emulator::new(b.build(), 1 << 16);
//! let cfg = CoreConfig::base()
//!     .with_scheduler(SchedulerKind::Orinoco)
//!     .with_commit(CommitKind::Orinoco);
//! let mut core = Core::new(emu, cfg);
//! let stats = core.run(1_000_000);
//! assert!(stats.ipc() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod crit;
pub mod exec;
pub mod fetch;
pub mod fleet;
pub mod iq;
pub mod lsq;
pub mod pipeline;
pub mod rename;
pub mod rob;
pub mod sample;
pub mod stats;
pub mod system;

pub use config::{
    exec_latency, is_unpipelined, CommitKind, CoreConfig, FuPools, Pool, SchedulerKind,
};
pub use crit::CriticalityEngine;
pub use fetch::{FetchStats, FetchUnit, Fetched, FrontendWarm};
pub use fleet::Fleet;
pub use iq::{IqEntry, IssueQueue};
pub use lsq::{LoadSearch, Lsq};
pub use pipeline::{CohEvent, CommitEvent, Core, WarmState};
pub use sample::{
    cluster_bbvs, collect_bbvs, run_sampled, IntervalSample, SampleConfig, SampledStats,
    DEFAULT_JITTER_SEED, DEFAULT_MAX_CYCLES_PER_INTERVAL,
};
pub use system::{System, SystemConfig, SystemStats};
pub use orinoco_stats::{StallCause, StallTaxonomy};
pub use orinoco_trace::{TraceEventKind, TraceRecord, Tracer, STALL_SEQ};
pub use rename::{PhysReg, RenameUnit};
pub use rob::{Rob, RobEntry};
pub use stats::SimStats;
