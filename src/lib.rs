//! # Orinoco
//!
//! A full reproduction of **"Orinoco: Ordered Issue and Unordered Commit
//! with Non-Collapsible Queues"** (Chen et al., ISCA 2023): the matrix
//! schedulers, a from-scratch cycle-level out-of-order core with every
//! baseline the paper evaluates, the synthetic workload suite, and an
//! analytical model of the processing-in-memory circuit implementation.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`matrix`] | `orinoco-matrix` | age/commit/disambiguation/lockdown/wakeup matrices |
//! | [`isa`] | `orinoco-isa` | micro-ISA, program builder, functional emulator |
//! | [`frontend`] | `orinoco-frontend` | TAGE predictor, BTB, RAS |
//! | [`mem`] | `orinoco-mem` | 3-level cache hierarchy, MSHRs, prefetcher |
//! | [`core`] | `orinoco-core` | the cycle-level OoO pipeline and all policies |
//! | [`circuit`] | `orinoco-circuit` | PIM 8T-SRAM analytical area/latency/power model |
//! | [`workloads`] | `orinoco-workloads` | 12 SPEC-like synthetic kernels |
//! | [`stats`] | `orinoco-stats` | histograms, stall attribution, reporting |
//!
//! # Quickstart
//!
//! ```
//! use orinoco::core::{CommitKind, Core, CoreConfig, SchedulerKind};
//! use orinoco::workloads::Workload;
//!
//! // Simulate a small hash-join on the paper's Base core with the full
//! // Orinoco design (ordered issue + unordered commit).
//! let emu = Workload::HashjoinLike.build(42, 1);
//! let cfg = CoreConfig::base()
//!     .with_scheduler(SchedulerKind::Orinoco)
//!     .with_commit(CommitKind::Orinoco);
//! let mut core = Core::new(emu, cfg);
//! let stats = core.run(100_000_000);
//! println!("IPC = {:.3}", stats.ipc());
//! assert!(stats.ipc() > 0.1);
//! ```

#![warn(missing_docs)]

pub use orinoco_circuit as circuit;
pub use orinoco_core as core;
pub use orinoco_frontend as frontend;
pub use orinoco_isa as isa;
pub use orinoco_matrix as matrix;
pub use orinoco_mem as mem;
pub use orinoco_stats as stats;
pub use orinoco_workloads as workloads;
