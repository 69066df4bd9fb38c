//! The campaign server: submission, dispatch, execution, caching.
//!
//! One [`Server`] owns a [`Dispatcher`] of worker threads (each holding a
//! warm [`Fleet`] so lane reuse carries across jobs, and a cache of the
//! programs its `Sim` jobs ran, `crate::programs`), a [`ResultCache`],
//! and a job-id counter. Clients — in-process [`Client`]s or TCP
//! connections (`crate::net`) — submit [`JobSpec`]s on a logical queue
//! and receive [`Response`]s on a channel.
//!
//! # Ordering guarantee
//!
//! For one queue, `Accepted`/`Done`/`Failed` responses arrive in
//! submission order, whatever mix of cache hits, in-flight dedup
//! subscriptions and fresh computations the jobs resolve to. This falls
//! out of three decisions:
//!
//! 1. every submission — including a cache *hit* — is dispatched as a job
//!    on the submitter's queue, so a hit cannot jump ahead of an earlier
//!    uncached job on the same queue;
//! 2. the dispatcher pins a queue to one worker mailbox and mailboxes are
//!    strict FIFO (see `orinoco_util::mailbox`);
//! 3. submissions are serialised under one lock, so "submitted earlier"
//!    is a total order that both the cache and the mailboxes observe
//!    consistently — which also makes subscriber-waits-on-primary edges
//!    point strictly backwards in time, so dedup blocking cannot deadlock
//!    (the proof is in the `cache` module docs).
//!
//! # Failure model
//!
//! A job that panics its core (deadlock, cycle-budget overrun, broken
//! invariant) yields `Failed` on the submitter's queue — in order — and
//! the worker survives: the poisoned core is out of the worker's
//! [`Fleet`] while it runs, so the unwind drops it together with the
//! program it ran, the mailbox loop catches the unwind, and the next job
//! on that queue runs on a fresh core (and a freshly built program).
//! Failures are not cached.

use crate::cache::{Admission, CacheStats, ResultCache, Ticket};
use crate::digest::fold_commit_event;
use crate::programs::{
    ProgramCache, ProgramCounters, ProgramKey, ProgramStats, PROGRAM_BUDGET_BYTES,
};
use crate::protocol::{fnv64, workload_scale, JobResult, JobSpec, Response, SimResult, SimSpec};
use orinoco_core::{Core, Fleet};
use orinoco_isa::Emulator;
use orinoco_util::mailbox::Dispatcher;
use orinoco_util::panic_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, Once};

/// Per-worker long-lived state: a warm core pool and the programs its
/// `Sim` jobs ran. Lives on the worker thread for the server's whole
/// life, so same-shape jobs reuse lanes and same-program jobs reuse
/// programs.
pub struct WorkerCtx {
    fleet: Fleet,
    programs: ProgramCache,
}

/// Shared server state reachable from jobs and transports.
pub struct ServerInner {
    dispatcher: Dispatcher<WorkerCtx>,
    cache: ResultCache,
    programs: Arc<ProgramCounters>,
    next_job: AtomicU64,
    next_queue: AtomicU64,
    /// Serialises submissions: cache admission and mailbox enqueue happen
    /// atomically, giving the total submission order the ordering and
    /// deadlock-freedom arguments rely on.
    submit_lock: Mutex<()>,
}

/// Expected panics (deadlocked or overrun lanes) must not spam stderr
/// for the lifetime of a server process; installed once, process-global.
fn silence_panics_once() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name().is_some_and(|n| n.starts_with("orinoco-worker-")) {
                return;
            }
            prev(info);
        }));
    });
}

/// The campaign server. Dropping the last handle (server + clients)
/// drains queued jobs and joins the workers.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Starts a server with `workers` worker threads, each with its own
    /// warm [`Fleet`] and a program cache of [`PROGRAM_BUDGET_BYTES`].
    #[must_use]
    pub fn new(workers: usize) -> Self {
        silence_panics_once();
        let programs = Arc::new(ProgramCounters::default());
        let counters = Arc::clone(&programs);
        let inner = Arc::new(ServerInner {
            dispatcher: Dispatcher::new(workers, move |_| WorkerCtx {
                fleet: Fleet::new(),
                programs: ProgramCache::new(PROGRAM_BUDGET_BYTES, Arc::clone(&counters)),
            }),
            cache: ResultCache::new(),
            programs,
            next_job: AtomicU64::new(1),
            next_queue: AtomicU64::new(1),
            submit_lock: Mutex::new(()),
        });
        Server { inner }
    }

    /// Worker thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.dispatcher.workers()
    }

    /// Cache counter snapshot.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Program-cache counter snapshot, summed over the workers.
    #[must_use]
    pub fn program_stats(&self) -> ProgramStats {
        self.inner.programs.snapshot()
    }

    /// Jobs that panicked a worker lane so far.
    #[must_use]
    pub fn job_panics(&self) -> u64 {
        self.inner.dispatcher.panics()
    }

    /// A fresh in-process client on its own logical queue.
    #[must_use]
    pub fn client(&self) -> Client {
        let (tx, rx) = std::sync::mpsc::channel();
        Client {
            inner: Arc::clone(&self.inner),
            queue: self.inner.next_queue.fetch_add(1, Ordering::Relaxed),
            tx,
            rx,
        }
    }

    /// Shared state handle for transports (`crate::net`).
    #[must_use]
    pub(crate) fn inner(&self) -> Arc<ServerInner> {
        Arc::clone(&self.inner)
    }
}

impl ServerInner {
    /// Admits `spec` on `queue`, sending `Accepted` and eventually
    /// `Progress`*/`Done`/`Failed` through `tx`. Returns the job id.
    /// The transport-agnostic submission path: in-process clients and TCP
    /// connections both land here.
    pub(crate) fn submit_on(self: &Arc<Self>, queue: u64, spec: JobSpec, tx: &Sender<Response>) -> u64 {
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        let key = spec.cache_key();
        let guard = self.submit_lock.lock().expect("submit lock poisoned");
        let admission = self.cache.admit(key);
        let cached = matches!(admission, Admission::Hit(_));
        // Accepted is sent under the lock so even responses from two racing
        // submitters on a shared queue order consistently with their jobs.
        let _ = tx.send(Response::Accepted { job_id, cached });
        match admission {
            Admission::Hit(result) => {
                // Still a dispatched job: a hit completing out of line would
                // overtake earlier uncached jobs on this queue.
                let tx = tx.clone();
                self.dispatcher.submit(queue, move |_ctx| {
                    let _ = tx.send(Response::Done { job_id, result: (*result).clone() });
                });
            }
            Admission::Subscribe(ticket) => {
                let tx = tx.clone();
                self.dispatcher.submit(queue, move |_ctx| {
                    let resp = match ticket.wait() {
                        Ok(result) => Response::Done { job_id, result: (*result).clone() },
                        Err(reason) => Response::Failed { job_id, reason },
                    };
                    let _ = tx.send(resp);
                });
            }
            Admission::Compute(ticket) => {
                let tx = tx.clone();
                let inner = Arc::clone(self);
                self.dispatcher.submit(queue, move |ctx| {
                    run_primary(&inner, ctx, job_id, key, &ticket, spec, &tx);
                });
            }
        }
        drop(guard);
        job_id
    }
}

/// Executes a first-submission job on a worker, publishes the outcome to
/// the cache, and answers the submitter. Panics out of the simulation are
/// converted to `Failed` here — then re-raised so the mailbox panic
/// counter still sees them, keeping "jobs that panicked a lane"
/// observable at the dispatcher. Jobs can also fail *politely* (an
/// invalid core configuration or scale): those yield `Failed` without
/// unwinding — no lane was poisoned, so nothing is discarded or counted.
fn run_primary(
    inner: &Arc<ServerInner>,
    ctx: &mut WorkerCtx,
    job_id: u64,
    key: u128,
    ticket: &Ticket,
    spec: JobSpec,
    tx: &Sender<Response>,
) {
    let progress = |cycles, committed, stalls: String| {
        let _ = tx.send(Response::Progress { job_id, cycles, committed, stalls });
    };
    let JobSpec::Sim(sim) = spec;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_sim_on_fleet(ctx, &sim, progress).map(JobResult::Sim)
    }));
    match outcome {
        Ok(Ok(result)) => {
            let result = Arc::new(result);
            inner.cache.complete(key, ticket, Arc::clone(&result));
            let _ = tx.send(Response::Done { job_id, result: (*result).clone() });
        }
        Ok(Err(reason)) => {
            inner.cache.fail(key, ticket, reason.clone());
            let _ = tx.send(Response::Failed { job_id, reason });
        }
        Err(payload) => {
            let reason = panic_message(&*payload);
            inner.cache.fail(key, ticket, reason.clone());
            let _ = tx.send(Response::Failed { job_id, reason });
            std::panic::resume_unwind(payload);
        }
    }
}

/// The program a [`SimSpec`] runs, or why its scale names none.
fn program_key(spec: &SimSpec) -> Result<ProgramKey, String> {
    Ok((spec.workload, spec.seed, workload_scale(spec.scale)?))
}

/// Sets the step limit a [`SimSpec`] asks for.
fn limit_steps(emu: &mut Emulator, spec: &SimSpec) {
    if spec.max_instrs > 0 {
        emu.set_step_limit(spec.max_instrs);
    }
}

/// Runs a sim to completion on `core`, streaming progress every
/// `progress_cycles` cycles, and harvests the observables. Shared by the
/// pooled server path and the serial one-shot reference path — the
/// cache-determinism contract is that both produce byte-identical
/// [`SimResult`]s.
///
/// # Panics
///
/// Panics if the core fails to finish within the cycle budget (deadlock
/// or overrun), mirroring `Core::run`.
fn execute_sim(core: &mut Core, spec: &SimSpec, mut progress: impl FnMut(u64, u64, String)) -> SimResult {
    let max_cycles =
        if spec.max_cycles == 0 { SimSpec::DEFAULT_MAX_CYCLES } else { spec.max_cycles };
    let slice = if spec.progress_cycles == 0 { max_cycles } else { spec.progress_cycles };
    core.enable_commit_trace();
    let mut commit_digest = fnv64(b"");
    let mut limit = 0u64;
    loop {
        limit = limit.saturating_add(slice).min(max_cycles);
        let finished = core.run_until(limit);
        commit_digest = core.drain_commit_trace().iter().fold(commit_digest, fold_commit_event);
        if finished {
            break;
        }
        assert!(
            limit < max_cycles,
            "sim deadlock or overrun at cycle {max_cycles} ({} seed {})",
            spec.workload,
            spec.seed,
        );
        // Mid-run, `SimStats::cycles` is not yet finalised; the live
        // clock is `Core::cycle` (same counter `run_to_commit` documents).
        let cycle = core.cycle();
        let stats = core.stats();
        progress(cycle, stats.committed, format!("{:?}", stats.stall_taxonomy));
    }
    let stats = core.stats();
    let stats_debug = format!("{stats:?}");
    SimResult {
        cycles: stats.cycles,
        committed: stats.committed,
        stats_digest: fnv64(stats_debug.as_bytes()),
        commit_digest,
        stats_debug,
    }
}

/// Server-side sim execution: the program comes out of the worker's
/// program cache and the core out of its warm fleet, and both go back
/// after the run; a panicking run drops both (`Fleet::with_lane`). An
/// invalid configuration or scale comes back as `Err` (→ a `Failed`
/// response) before any program or core is touched: a bad spec is a
/// client mistake, not a poisoned lane.
fn run_sim_on_fleet(
    ctx: &mut WorkerCtx,
    spec: &SimSpec,
    progress: impl FnMut(u64, u64, String),
) -> Result<SimResult, String> {
    let cfg = spec.config.to_core_config(spec.seed);
    cfg.validate()?;
    let key = program_key(spec)?;
    let mut emu = ctx.programs.checkout(key);
    limit_steps(&mut emu, spec);
    let (result, emu) = ctx.fleet.with_lane(cfg, emu, |core| {
        (execute_sim(core, spec, progress), core.take_emulator())
    });
    ctx.programs.checkin(key, emu);
    Ok(result)
}

/// Reference path: the exact computation a one-shot sweep binary performs
/// — freshly built program, fresh core, no pool, no server. The
/// multi-client determinism tests diff server results against this byte
/// for byte.
///
/// # Errors
///
/// An invalid configuration ([`orinoco_core::CoreConfig::validate`]) or
/// scale (0 or above `u32::MAX`), or the message of a run that panicked.
pub fn run_one_shot(spec: &SimSpec) -> Result<SimResult, String> {
    let cfg = spec.config.to_core_config(spec.seed);
    cfg.validate()?;
    let (workload, seed, scale) = program_key(spec)?;
    let mut emu = workload.build(seed, scale);
    limit_steps(&mut emu, spec);
    catch_unwind(AssertUnwindSafe(|| {
        let mut core = Core::new(emu, cfg);
        execute_sim(&mut core, spec, |_, _, _| {})
    }))
    .map_err(|p| panic_message(&*p))
}

/// An in-process client: its own logical queue plus the response channel.
/// Dropping the client abandons its queue (in-flight responses go to a
/// disconnected channel, which the server ignores).
pub struct Client {
    inner: Arc<ServerInner>,
    queue: u64,
    tx: Sender<Response>,
    rx: Receiver<Response>,
}

impl Client {
    /// This client's logical queue id.
    #[must_use]
    pub fn queue(&self) -> u64 {
        self.queue
    }

    /// Submits a job; responses arrive on this client's channel in
    /// submission order (`Accepted` immediately, then `Progress`* and one
    /// terminal `Done`/`Failed`).
    pub fn submit(&self, spec: JobSpec) -> u64 {
        self.inner.submit_on(self.queue, spec, &self.tx)
    }

    /// Blocking receive of the next response.
    ///
    /// # Panics
    ///
    /// Panics if the server dropped the channel (it never does while the
    /// client holds `inner`).
    #[must_use]
    pub fn recv(&self) -> Response {
        self.rx.recv().expect("server hung up")
    }

    /// Receives until the terminal response for `job_id`, collecting any
    /// `Progress` updates along the way. Responses for other jobs
    /// submitted earlier on this queue must already have been consumed —
    /// per-queue FIFO means interleaving job waits would misattribute.
    pub fn wait(&self, job_id: u64) -> (Result<JobResult, String>, Vec<Response>) {
        let mut progress = Vec::new();
        loop {
            match self.recv() {
                Response::Done { job_id: id, result } if id == job_id => {
                    return (Ok(result), progress);
                }
                Response::Failed { job_id: id, reason } if id == job_id => {
                    return (Err(reason), progress);
                }
                Response::Progress { job_id: id, .. } if id != job_id => {
                    // A progress line from an earlier job on this queue
                    // that raced the drain; drop it.
                }
                Response::Accepted { .. } | Response::Pong => {}
                other => progress.push(other),
            }
        }
    }

    /// Convenience: submit and block until the terminal response.
    pub fn run(&self, spec: JobSpec) -> Result<JobResult, String> {
        let id = self.submit(spec);
        self.wait(id).0
    }
}
