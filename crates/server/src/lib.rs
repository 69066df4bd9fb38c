//! `orinoco-server`: simulation-as-a-service for batched sweeps.
//!
//! A one-shot sweep binary pays full process and setup cost for every
//! query and shares nothing between queries. This crate serves sweep
//! jobs — `Sim`, one workload run to completion on one core
//! configuration — from one warm process:
//!
//! * **Dispatch** — jobs shard across worker threads through the
//!   strict-FIFO-per-queue mailbox dispatcher
//!   ([`orinoco_util::mailbox`]); each worker keeps a warm
//!   [`orinoco_core::Fleet`] so core construction amortises across jobs,
//!   and a budgeted cache of rewindable programs so a sweep builds each
//!   program once per worker, not once per job ([`programs`]).
//! * **Dedup + cache** — completed results are cached under a canonical
//!   hash of the job spec ([`protocol::JobSpec::cache_key`]); concurrent
//!   identical submissions compute once and everyone gets byte-identical
//!   results ([`cache`]).
//! * **Transports** — an in-process [`Client`] (tests and embedded use
//!   need no network) and a length-prefixed, checksummed TCP wire
//!   protocol ([`net`], [`protocol`]).
//! * **Streaming** — long sims report incremental cycle/commit/stall-
//!   taxonomy progress between submission and completion.
//!
//! Verification campaigns and sampled estimates are not jobs: callers run
//! them in process (`orinoco-verif`'s campaigns,
//! `orinoco_core::run_sampled`), and each shards its work over threads
//! itself (`orinoco_util::pool::ordered_pipeline_map`). This crate does
//! not depend on `orinoco-verif`.
//!
//! The ordering and determinism contracts — per-queue FIFO completion
//! under contention, byte-identical results cached or fresh, serial
//! one-shot equivalence — are spelled out in DESIGN.md §14 and enforced
//! by this crate's test battery.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod digest;
pub mod net;
pub mod programs;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use net::{TcpClient, TcpFront};
pub use programs::{ProgramStats, PROGRAM_BUDGET_BYTES};
pub use protocol::{
    ConfigSpec, JobResult, JobSpec, Preset, Request, Response, SimResult, SimSpec, WireError,
};
pub use server::{run_one_shot, Client, Server};
