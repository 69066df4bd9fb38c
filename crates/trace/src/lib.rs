//! Structured instruction-lifecycle tracing for the Orinoco pipeline.
//!
//! The trace layer records **one event per pipeline transition per
//! instruction** — fetch, rename, dispatch, wakeup, issue (with the
//! age-matrix grant rank), execute, complete, commit-eligible (the `SPEC`
//! bit cleared), commit, squash — plus one per-cycle stall-attribution
//! record whenever a cycle retires nothing (see
//! [`orinoco_stats::StallCause`]). Together they turn the paper's temporal
//! claims (ordered issue, non-speculative unordered commit) into a
//! diffable artifact instead of end-of-run aggregates.
//!
//! Two design rules govern the hot path:
//!
//! * **Zero cost when disabled** — the core guards every hook behind an
//!   `Option` that is `None` by default, so a tracing-off build path is a
//!   single predictable branch per hook site.
//! * **Allocation-free when enabled** — [`Tracer`] is a fixed-capacity
//!   ring buffer allocated once at [`Tracer::new`]; recording overwrites
//!   the oldest events and only bumps a drop counter. Every sink
//!   ([`Tracer::write_jsonl`], [`Tracer::write_binary`],
//!   [`Tracer::write_konata`]) is a post-hoc dump that may allocate.
//!
//! # Examples
//!
//! ```
//! use orinoco_trace::{TraceEventKind, Tracer};
//!
//! let mut t = Tracer::new(4);
//! t.record(10, TraceEventKind::Fetch, 0, 0x40);
//! t.record(12, TraceEventKind::Issue, 0, 0);
//! assert_eq!(t.len(), 2);
//! assert_eq!(t.dropped(), 0);
//! let jsonl = t.to_jsonl();
//! assert!(jsonl.contains("\"event\":\"fetch\""));
//! assert!(jsonl.contains("\"rank\":0"));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod konata;
mod ring;
mod sink;

pub use ring::{TraceEventKind, TraceRecord, Tracer, STALL_SEQ};
pub use sink::{read_binary, BINARY_MAGIC, BINARY_RECORD_BYTES};
