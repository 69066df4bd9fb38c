//! An order-preserving scoped thread pool: ordered issue, unordered
//! completion, ordered merge.
//!
//! Parallelism in this workspace must never change observable output: the
//! verif campaigns, the `results/` sweeps and the sampler are contractually
//! byte-identical whether they run on 1 thread or 64.
//! [`ordered_pipeline_map`] guarantees this by construction — a serial
//! producer numbers every item as it issues it, workers tag each result
//! with that number, and the merge sorts by it. Interleaving affects only
//! wall-clock time, never the output. Failures follow the same rule: a
//! panicking item re-raises the panic the serial loop would have raised.
//!
//! Built on `std::thread::scope` so borrowed inputs work without `Arc` and
//! without any external crate.
//!
//! # Ordering audit: multi-consumer pickup
//!
//! Audited for the fraktor-rs `SystemQueue` failure mode, where a
//! contended CAS fallback on the idle-pickup path re-enqueued a FIFO batch
//! in reverse. The pool is immune for two separate reasons:
//!
//! 1. There is no fallback path to get wrong. The queue is one `VecDeque`
//!    under one mutex: the producer pushes at the back in production
//!    order, workers pop from the front, and nothing is ever re-enqueued.
//! 2. Output order never depends on pop or completion order anyway. Every
//!    result is tagged with its production index and the final merge
//!    sorts by that tag — even an adversarial scheduler that finishes
//!    items in reverse produces byte-identical output.
//!
//! The `pipeline_stalled_workers_never_invert_order` test below pins this:
//! workers stall pseudo-randomly mid-item (forcing maximal completion
//! reordering) while the bounded queue blocks the producer, and the output
//! must still equal the serial map. Long-lived queues live in
//! [`crate::mailbox`], which sidesteps the bug class differently: each
//! queue has a single consumer, so there is no contended multi-consumer
//! pickup at all.
//!
//! # Example
//!
//! ```
//! use orinoco_util::pool::ordered_pipeline_map;
//!
//! let mut items = vec![1u64, 2, 3, 4, 5].into_iter();
//! let out = ordered_pipeline_map(4, |_| (), || items.next(), |(), _, x| x * x);
//! assert_eq!(out, vec![1, 4, 9, 16, 25]);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Number of worker threads to use by default: the `ORINOCO_JOBS`
/// environment variable if set, otherwise the machine's available
/// parallelism (1 if that cannot be determined).
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("ORINOCO_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The producer → worker queue and its two wake-ups.
struct Channel<T> {
    state: Mutex<Queue<T>>,
    /// Signalled when an item is pushed, production ends or a worker fails.
    not_empty: Condvar,
    /// Signalled when an item is popped or a worker fails.
    not_full: Condvar,
}

struct Queue<T> {
    items: VecDeque<(usize, T)>,
    /// Production has ended: workers drain what is left, then exit.
    closed: bool,
    /// A worker panicked: the producer stops and no worker takes another item.
    failed: bool,
}

impl<T> Channel<T> {
    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        self.state.lock().expect("pipeline queue poisoned")
    }

    /// Waits for room and enqueues `entry`; `false` once a worker failed.
    fn push(&self, entry: (usize, T), capacity: usize) -> bool {
        let mut q = self.lock();
        while q.items.len() >= capacity && !q.failed {
            q = self.not_full.wait(q).expect("pipeline queue poisoned");
        }
        if q.failed {
            return false;
        }
        q.items.push_back(entry);
        drop(q);
        self.not_empty.notify_one();
        true
    }

    /// The oldest queued item, or `None` once the queue is closed and
    /// drained or a worker failed.
    fn pop(&self) -> Option<(usize, T)> {
        let mut q = self.lock();
        loop {
            if q.failed {
                return None;
            }
            if let Some(entry) = q.items.pop_front() {
                drop(q);
                self.not_full.notify_one();
                return Some(entry);
            }
            if q.closed {
                return None;
            }
            q = self.not_empty.wait(q).expect("pipeline queue poisoned");
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    fn fail(&self) {
        self.lock().failed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Streams items from a serial producer through up to `jobs` workers and
/// returns the results **in production order**, regardless of scheduling.
///
/// The producer runs on the calling thread (it may borrow mutable state —
/// a master emulator, a seed iterator) and hands each item into a queue
/// bounded at `jobs + 2` items, which keeps memory flat when items are
/// large (checkpoints, warm-state images). Workers pull, transform, and
/// tag results with the production index; the final merge sorts by that
/// tag. A worker starts when the producer issues an item and fewer than
/// `jobs` workers have started, so no more workers start than there are
/// items.
///
/// `init` builds one long-lived state value per worker (a warm core pool,
/// a scratch buffer) when that worker starts; `work` receives
/// `(&mut state, index, item)`. With `jobs <= 1` everything runs inline
/// on the calling thread, producing the exact same output.
///
/// Determinism contract: `work` must be a pure function of its arguments
/// (plus state it synchronises itself) and `init` must not make results
/// depend on the worker id; under that contract the returned vector is
/// byte-identical across any thread count.
///
/// # Panics
///
/// Re-raises (with [`resume_unwind`]) the panic of the lowest-indexed item
/// whose `work` panicked — the panic the serial loop raises. The first
/// failure stops the producer and keeps the workers from taking further
/// items; every item issued before it has already been taken, so each
/// finishes and a lower-indexed panic still wins. A panic in `produce`
/// counts as one of the item it was producing, and a panic in a worker's
/// `init` as one of the item that started the worker. Callers that want
/// per-item retry catch panics inside `work`.
pub fn ordered_pipeline_map<T, R, S>(
    jobs: usize,
    init: impl Fn(usize) -> S + Sync,
    mut produce: impl FnMut() -> Option<T>,
    work: impl Fn(&mut S, usize, T) -> R + Sync,
) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let jobs = jobs.max(1);
    if jobs == 1 {
        let mut state = init(0);
        let mut out = Vec::new();
        while let Some(item) = produce() {
            out.push(work(&mut state, out.len(), item));
        }
        return out;
    }
    let capacity = jobs.saturating_add(2);
    let channel = Channel {
        state: Mutex::new(Queue { items: VecDeque::new(), closed: false, failed: false }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    };

    let mut tagged: Vec<(usize, R)> = Vec::new();
    // Each caught panic, with the index of the item it is charged to.
    let mut panics = Vec::new();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        let mut index = 0usize;
        loop {
            // Production runs on the calling thread, outside the lock, so a
            // slow producer never blocks consumers (and vice versa, up to
            // the capacity bound).
            let item = match catch_unwind(AssertUnwindSafe(&mut produce)) {
                Ok(Some(item)) => item,
                Ok(None) => break,
                Err(payload) => {
                    panics.push((index, payload));
                    break;
                }
            };
            if workers.len() < jobs {
                let id = workers.len();
                let (channel, init, work) = (&channel, &init, &work);
                workers.push(scope.spawn(move || {
                    let mut charged = index;
                    let mut local: Vec<(usize, R)> = Vec::new();
                    catch_unwind(AssertUnwindSafe(|| {
                        let mut state = init(id);
                        while let Some((i, item)) = channel.pop() {
                            charged = i;
                            local.push((i, work(&mut state, i, item)));
                        }
                    }))
                    .map(|()| local)
                    .map_err(|payload| {
                        channel.fail();
                        (charged, payload)
                    })
                }));
            }
            if !channel.push((index, item), capacity) {
                break;
            }
            index += 1;
        }
        channel.close();
        for h in workers {
            match h.join().unwrap_or_else(|payload| Err((usize::MAX, payload))) {
                Ok(local) => tagged.extend(local),
                Err(panicked) => panics.push(panicked),
            }
        }
    });

    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(i, _)| i) {
        resume_unwind(payload);
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A producer issuing `0..n`.
    fn counter(n: u64) -> impl FnMut() -> Option<u64> {
        let mut next = 0;
        move || {
            next += 1;
            (next <= n).then_some(next - 1)
        }
    }

    /// Runs `f` on a helper thread and returns its panic message, failing
    /// (instead of stalling the suite) if it neither panics nor returns
    /// within 60 s.
    fn panic_message_within_timeout(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(f));
            let _ = tx.send(r.map_err(|p| crate::panic_message(&*p)));
        });
        let r = rx.recv_timeout(Duration::from_secs(60)).expect("the map hung");
        helper.join().expect("the helper thread catches the map's panic");
        r.expect_err("the map returned instead of panicking")
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn pipeline_matches_serial_for_any_jobs_and_length() {
        for n in [0u64, 1, 300] {
            let serial: Vec<u64> = (0..n).map(|x| x.wrapping_mul(0x9E37_79B9)).collect();
            for jobs in [1, 2, 4, 7] {
                let out = ordered_pipeline_map(jobs, |_| (), counter(n), |(), _, x| {
                    x.wrapping_mul(0x9E37_79B9)
                });
                assert_eq!(out, serial, "n={n} jobs={jobs}");
            }
        }
    }

    #[test]
    fn pipeline_reuses_per_worker_state() {
        // Each worker counts how many items it processed; the counts must
        // sum to the item count (state lives across items, one per worker).
        let per_worker: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let out = ordered_pipeline_map(
            4,
            |w| w,
            counter(97),
            |w, i, x| {
                per_worker[*w].fetch_add(1, Ordering::Relaxed);
                assert_eq!(i as u64, x);
                x
            },
        );
        assert_eq!(out, (0..97).collect::<Vec<u64>>());
        let total: usize = per_worker.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 97);
    }

    /// No more workers start than items are produced: at 64 jobs over 3
    /// items, only three workers (three threads) ever exist.
    #[test]
    fn pipeline_starts_no_more_workers_than_items() {
        let inits = AtomicUsize::new(0);
        let out = ordered_pipeline_map(
            64,
            |_| inits.fetch_add(1, Ordering::Relaxed),
            counter(3),
            |_, _, x| x,
        );
        assert_eq!(out, vec![0, 1, 2]);
        let inits = inits.into_inner();
        assert!(inits <= 3, "{inits} workers for 3 items");
    }

    /// Stalls force completion order to diverge wildly from production
    /// order and the bounded queue forces the producer to block
    /// mid-stream; the merge must still return production order.
    #[test]
    fn pipeline_stalled_workers_never_invert_order() {
        let serial: Vec<u64> = (0..256u64).map(|x| x.wrapping_mul(0x9E37_79B9)).collect();
        for round in 0..3u64 {
            let out = ordered_pipeline_map(8, |_| (), counter(256), |(), i, x| {
                let h = (i as u64 ^ (round << 32)).wrapping_mul(0x2545_F491_4F6C_DD1D);
                if h.is_multiple_of(5) {
                    std::thread::sleep(Duration::from_micros(h % 300));
                }
                x.wrapping_mul(0x9E37_79B9)
            });
            assert_eq!(out, serial, "round={round}");
        }
    }

    /// Every worker dies on its first item: the producer must stop waiting
    /// for room in the queue and the map must re-raise item 0's panic.
    #[test]
    fn pipeline_panicking_workers_end_in_the_first_items_panic() {
        let msg = panic_message_within_timeout(|| {
            ordered_pipeline_map(2, |_| (), counter(100), |(), i, _| -> u64 {
                panic!("item {i} failed")
            });
        });
        assert_eq!(msg, "item 0 failed");
    }

    /// A low-indexed failure still wins over a later item that fails
    /// first, as in the serial loop: item 3 fails only once item 10 has
    /// begun to.
    #[test]
    fn pipeline_reraises_the_lowest_indexed_panic() {
        let msg = panic_message_within_timeout(|| {
            let (tx, rx) = mpsc::channel();
            let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
            ordered_pipeline_map(4, |_| (), counter(100), |(), i, x| {
                if i == 10 {
                    tx.lock().expect("sender").send(()).expect("item 3 waits");
                } else if i == 3 {
                    rx.lock().expect("receiver").recv().expect("item 10 sends");
                } else {
                    return x;
                }
                panic!("item {i} failed")
            });
        });
        assert_eq!(msg, "item 3 failed");
    }
}
