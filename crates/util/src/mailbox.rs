//! A persistent worker pool with per-worker FIFO mailboxes and a
//! strict-FIFO-per-queue dispatcher — the execution layer of the campaign
//! server (`orinoco-server`).
//!
//! [`pool::ordered_pipeline_map`](crate::pool::ordered_pipeline_map) is
//! the right shape for one-shot campaigns: one serial producer, scoped
//! workers, ordered merge. A long-running job server needs the opposite:
//! workers that outlive any one batch, jobs that arrive continuously, and
//! an ordering guarantee that holds *per logical queue* while unrelated
//! queues share the machine freely.
//!
//! # Ordering model
//!
//! Every job is submitted to a logical **queue** (a client connection, in
//! the server). A queue is pinned to one worker's mailbox — `queue %
//! workers` — so its jobs run serially on a single consumer, in arrival
//! order, with no cross-worker hand-off that could reorder them. This is
//! the mailbox/dispatcher shape of actor runtimes, chosen deliberately
//! over a shared injection deque with idle-worker stealing: the stolen
//! path is exactly where a LIFO or CAS-retry fallback silently reverses a
//! FIFO batch under contention (the fraktor-rs `SystemQueue` BugBot bug —
//! a failed `compare_exchange` pushed a FIFO chain back onto a LIFO head
//! node by node, reversing the batch). Here there is no fallback path to
//! get wrong: one mailbox, one consumer, `VecDeque` push-back/pop-front
//! under one mutex.
//!
//! Concretely, for two jobs on the same queue, `submit(q, a)` returning
//! before `submit(q, b)` is called guarantees `a` **starts and finishes**
//! before `b` starts, even when workers stall or jobs panic. Jobs on
//! different queues have no ordering relationship. The regression tests
//! in `orinoco-server` hammer this with stalling/panicking jobs at ≥ 8
//! workers.
//!
//! # Panics in jobs
//!
//! A panicking job must not take its mailbox down — the queue behind it
//! still owns a completion order. The worker catches the unwind, counts
//! it (see [`Dispatcher::panics`]) and moves on. The worker context `C`
//! handed to a panicking job may have been left mid-mutation; jobs that
//! mutate `C` non-atomically must keep it consistent across an unwind
//! (the server's sim jobs take their core out of the worker's `Fleet`
//! for the run, so a panic drops the poisoned core and leaves the fleet
//! intact — see `Fleet::with_lane`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A job: runs once on the pinned worker, with access to that worker's
/// long-lived context.
type Job<C> = Box<dyn FnOnce(&mut C) + Send + 'static>;

/// One worker's mailbox: a FIFO of jobs behind a mutex, with a condvar
/// the worker parks on when it runs dry.
struct Mailbox<C> {
    state: Mutex<MailboxState<C>>,
    available: Condvar,
}

struct MailboxState<C> {
    jobs: VecDeque<Job<C>>,
    shutdown: bool,
}

impl<C> Mailbox<C> {
    fn new() -> Self {
        Self {
            state: Mutex::new(MailboxState { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        }
    }

    /// Appends a job at the tail and wakes the (single) consumer. The
    /// push happens-before the notified pickup, so a worker that parks
    /// while the queue refills can only ever observe a longer FIFO — it
    /// re-checks `jobs` under the same mutex before parking again, which
    /// is what makes the park/refill race inversion-free.
    fn push(&self, job: Job<C>) {
        let mut st = self.state.lock().expect("mailbox poisoned");
        st.jobs.push_back(job);
        drop(st);
        self.available.notify_one();
    }

    /// Blocks until a job is available (returning it) or shutdown is
    /// signalled with the mailbox drained (returning `None`). Jobs still
    /// queued at shutdown are executed before the worker exits.
    fn pop(&self) -> Option<Job<C>> {
        let mut st = self.state.lock().expect("mailbox poisoned");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.shutdown {
                return None;
            }
            st = self.available.wait(st).expect("mailbox poisoned");
        }
    }

    fn len(&self) -> usize {
        self.state.lock().expect("mailbox poisoned").jobs.len()
    }

    fn shutdown(&self) {
        self.state.lock().expect("mailbox poisoned").shutdown = true;
        self.available.notify_one();
    }
}

/// A persistent pool of worker threads, each owning a FIFO mailbox and a
/// long-lived context of type `C` (the server stores a warm
/// `orinoco_core::Fleet` per worker). See the module docs for the
/// per-queue ordering guarantee.
pub struct Dispatcher<C: 'static> {
    mailboxes: Vec<Arc<Mailbox<C>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    panics: Arc<AtomicU64>,
}

impl<C: Send + 'static> Dispatcher<C> {
    /// Spawns `workers` worker threads; `make_ctx(worker_index)` builds
    /// each worker's context **on the worker thread**, so `C` itself does
    /// not need to cross threads after construction.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn new(workers: usize, make_ctx: impl Fn(usize) -> C + Send + Sync + 'static) -> Self {
        assert!(workers > 0, "a dispatcher needs at least one worker");
        let mailboxes: Vec<Arc<Mailbox<C>>> =
            (0..workers).map(|_| Arc::new(Mailbox::new())).collect();
        let panics = Arc::new(AtomicU64::new(0));
        let make_ctx = Arc::new(make_ctx);
        let handles = mailboxes
            .iter()
            .enumerate()
            .map(|(idx, mb)| {
                let mb = Arc::clone(mb);
                let panics = Arc::clone(&panics);
                let make_ctx = Arc::clone(&make_ctx);
                std::thread::Builder::new()
                    .name(format!("orinoco-worker-{idx}"))
                    .spawn(move || {
                        let mut ctx = make_ctx(idx);
                        while let Some(job) = mb.pop() {
                            if catch_unwind(AssertUnwindSafe(|| job(&mut ctx))).is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self { mailboxes, workers: handles, panics }
    }

    /// Number of worker threads (= mailboxes).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.mailboxes.len()
    }

    /// The worker index queue `queue` is pinned to.
    #[must_use]
    pub fn worker_for(&self, queue: u64) -> usize {
        (queue % self.mailboxes.len() as u64) as usize
    }

    /// Enqueues `job` on `queue`. Jobs on the same queue execute — and
    /// therefore complete — in the order their `submit` calls happen;
    /// callers racing on the *same* queue from several threads get
    /// whatever arrival order their own synchronisation produces.
    pub fn submit(&self, queue: u64, job: impl FnOnce(&mut C) + Send + 'static) {
        self.mailboxes[self.worker_for(queue)].push(Box::new(job));
    }

    /// Total jobs queued (not yet picked up) across all mailboxes.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.mailboxes.iter().map(|m| m.len()).sum()
    }

    /// Jobs that panicked (the worker survived and kept its queue going).
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Drains every mailbox (queued jobs still run) and joins the
    /// workers. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        for mb in &self.mailboxes {
            mb.shutdown();
        }
        for h in self.workers.drain(..) {
            h.join().expect("worker thread itself panicked");
        }
    }
}

impl<C: 'static> Drop for Dispatcher<C> {
    fn drop(&mut self) {
        for mb in &self.mailboxes {
            mb.shutdown();
        }
        for h in self.workers.drain(..) {
            // Worker bodies catch job panics, so a join error here means
            // the dispatcher loop itself is broken; surfacing it from a
            // destructor would abort, so settle for best-effort.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn per_queue_fifo_single_worker() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let mut d: Dispatcher<()> = Dispatcher::new(1, |_| ());
        for i in 0..64u64 {
            let log = Arc::clone(&log);
            d.submit(7, move |()| log.lock().unwrap().push(i));
        }
        d.shutdown();
        assert_eq!(*log.lock().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn queues_pin_to_workers_and_interleave_freely() {
        let mut d: Dispatcher<usize> = Dispatcher::new(4, |idx| idx);
        assert_eq!(d.workers(), 4);
        // Same queue, same worker, every time.
        assert_eq!(d.worker_for(5), d.worker_for(5));
        let seen = Arc::new(StdMutex::new(std::collections::HashMap::new()));
        for q in 0..16u64 {
            for _ in 0..8 {
                let seen = Arc::clone(&seen);
                d.submit(q, move |ctx| {
                    let mut s = seen.lock().unwrap();
                    let w = s.entry(q).or_insert(*ctx);
                    assert_eq!(*w, *ctx, "queue {q} migrated between workers");
                });
            }
        }
        d.shutdown();
        assert_eq!(seen.lock().unwrap().len(), 16);
    }

    #[test]
    fn panicking_job_does_not_break_the_queue() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let mut d: Dispatcher<()> = Dispatcher::new(2, |_| ());
        {
            let log = Arc::clone(&log);
            d.submit(0, move |()| log.lock().unwrap().push(1));
        }
        d.submit(0, |()| panic!("job blew up"));
        {
            let log = Arc::clone(&log);
            d.submit(0, move |()| log.lock().unwrap().push(3));
        }
        d.shutdown();
        assert_eq!(*log.lock().unwrap(), vec![1, 3]);
        assert_eq!(d.panics(), 1);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let count = Arc::new(AtomicU64::new(0));
        let mut d: Dispatcher<()> = Dispatcher::new(2, |_| ());
        for q in 0..32u64 {
            let count = Arc::clone(&count);
            d.submit(q, move |()| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        d.shutdown();
        assert_eq!(count.load(Ordering::Relaxed), 32);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn context_persists_across_jobs() {
        let out = Arc::new(AtomicU64::new(0));
        let mut d: Dispatcher<u64> = Dispatcher::new(1, |_| 0u64);
        for _ in 0..10 {
            d.submit(0, |acc| *acc += 1);
        }
        {
            let out = Arc::clone(&out);
            d.submit(0, move |acc| out.store(*acc, Ordering::Relaxed));
        }
        d.shutdown();
        assert_eq!(out.load(Ordering::Relaxed), 10);
    }
}
