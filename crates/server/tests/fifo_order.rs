//! FIFO-under-contention regression battery — the fraktor-rs BugBot
//! scenario. That bug: a contended CAS fallback on a queue's idle-pickup
//! path re-enqueued a FIFO batch in reverse, silently, only under load.
//! These tests submit tagged batches through the dispatcher and the full
//! server while workers stall, panic and retry, and assert per-queue
//! completion order equals submission order every time — including the
//! panic-lane-discard path inherited from `Fleet::with_lane`.
//!
//! Run at 8+ worker threads (the ISSUE's contention floor) and green
//! under `--release` (CI's server-smoke job runs this file with
//! `cargo test --release -p orinoco-server`).

use orinoco_server::{ConfigSpec, JobResult, JobSpec, Response, Server, SimSpec};
use orinoco_util::mailbox::Dispatcher;
use orinoco_util::Rng;
use orinoco_workloads::Workload;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const WORKERS: usize = 8;

fn quick_sim(workload: Workload, seed: u64) -> SimSpec {
    SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload,
        scale: 1,
        seed,
        max_instrs: 4_000,
        max_cycles: 0,
        progress_cycles: 0,
    }
}

/// A sim guaranteed to overrun its cycle budget: the budget is absurdly
/// small, so the lane panics ("deadlock or overrun"), exercising the
/// fleet's discard path and the server's Failed response.
fn doomed_sim(seed: u64) -> SimSpec {
    SimSpec { max_cycles: 2, ..quick_sim(Workload::GemmLike, seed) }
}

#[test]
fn dispatcher_fifo_per_queue_under_stall_and_panic_contention() {
    // 32 queues over 8 workers: 4 queues share each mailbox, so every
    // queue runs under constant cross-queue contention. Jobs stall
    // pseudo-randomly and some panic; the per-queue completion log must
    // still equal the submission order exactly.
    const QUEUES: u64 = 32;
    const JOBS_PER_QUEUE: u64 = 40;

    let logs: Arc<Vec<Mutex<Vec<u64>>>> =
        Arc::new((0..QUEUES).map(|_| Mutex::new(Vec::new())).collect());
    let mut d: Dispatcher<()> = Dispatcher::new(WORKERS, |_| ());
    let mut rng = Rng::seed_from_u64(0xF1F0);
    let mut expected: Vec<Vec<u64>> = vec![Vec::new(); QUEUES as usize];
    let mut panics_submitted = 0u64;

    // Interleave submissions across queues (round-robin with a twist) so
    // mailboxes refill while workers are mid-job and mid-park.
    for tag in 0..JOBS_PER_QUEUE {
        for q in 0..QUEUES {
            let stall = rng.gen_range(0..4u64);
            let blow_up = rng.gen_range(0..16u64) == 0;
            let logs = Arc::clone(&logs);
            if blow_up {
                panics_submitted += 1;
                // A panicking job still occupies its FIFO slot; it just
                // reports nothing. The worker must survive it.
                d.submit(q, move |()| panic!("chaos job q{q} tag{tag}"));
            } else {
                expected[q as usize].push(tag);
                d.submit(q, move |()| {
                    if stall > 0 {
                        std::thread::sleep(std::time::Duration::from_micros(stall * 50));
                    }
                    logs[q as usize].lock().unwrap().push(tag);
                });
            }
        }
    }
    d.shutdown();

    assert_eq!(d.panics(), panics_submitted, "every chaos panic must be counted");
    for q in 0..QUEUES as usize {
        let got = logs[q].lock().unwrap();
        assert_eq!(
            *got, expected[q],
            "queue {q}: completion order diverged from submission order"
        );
    }
}

#[test]
fn server_terminal_responses_arrive_in_submission_order() {
    // One queue, a mix of fresh sims, exact duplicates (cache hits /
    // in-flight dedup) and doomed sims (panic → Failed): the terminal
    // response stream must follow submission order regardless of which
    // path each job resolves to — a cached job must NOT complete ahead
    // of an earlier uncached one.
    let server = Server::new(WORKERS);
    let client = server.client();

    let specs: Vec<(JobSpec, bool)> = vec![
        (JobSpec::Sim(quick_sim(Workload::GemmLike, 1)), true),
        (JobSpec::Sim(doomed_sim(2)), false),
        (JobSpec::Sim(quick_sim(Workload::GemmLike, 1)), true), // dup of job 0
        (JobSpec::Sim(quick_sim(Workload::McfLike, 3)), true),
        (JobSpec::Sim(quick_sim(Workload::GemmLike, 1)), true), // dup again
        (JobSpec::Sim(doomed_sim(2)), false),                   // failed jobs are not cached: retries recompute
        (JobSpec::Sim(quick_sim(Workload::StreamLike, 4)), true),
    ];
    let ids: Vec<u64> = specs.iter().map(|(s, _)| client.submit(*s)).collect();

    // Drain terminal responses; they must reference the submitted job ids
    // in exactly submission order.
    let mut terminal = Vec::new();
    while terminal.len() < ids.len() {
        match client.recv() {
            Response::Done { job_id, .. } => terminal.push((job_id, true)),
            Response::Failed { job_id, .. } => terminal.push((job_id, false)),
            Response::Accepted { .. } | Response::Progress { .. } | Response::Pong => {}
        }
    }
    let got_ids: Vec<u64> = terminal.iter().map(|&(id, _)| id).collect();
    assert_eq!(got_ids, ids, "terminal responses out of submission order");
    for (i, ((_, want_ok), &(_, got_ok))) in specs.iter().zip(&terminal).enumerate() {
        assert_eq!(got_ok, *want_ok, "job {i}: wrong outcome kind");
    }
    // The second doomed sim either recomputed (and panicked a second
    // lane) or subscribed to the first one's in-flight failure; both are
    // correct, so only the first panic is guaranteed.
    let panics = server.job_panics();
    assert!((1..=2).contains(&panics), "expected 1-2 lane panics, saw {panics}");
}

#[test]
fn panicked_lane_is_discarded_and_the_worker_keeps_serving() {
    // Alternate doomed and healthy jobs on ONE queue (= one worker, one
    // fleet): each panic discards the lane, each healthy job must then
    // succeed on a rebuilt lane with results identical to a fresh core.
    let server = Server::new(WORKERS);
    let client = server.client();

    for round in 0..4u64 {
        // Distinct seeds every round: no cache interference, every
        // healthy job is a fresh computation on the post-panic fleet.
        let doomed = doomed_sim(100 + round);
        let healthy = quick_sim(Workload::HashjoinLike, 7 + round);
        let reference = orinoco_server::run_one_shot(&healthy).expect("reference run");
        let id_bad = client.submit(JobSpec::Sim(doomed));
        let id_good = client.submit(JobSpec::Sim(healthy));
        let (bad, _) = client.wait(id_bad);
        let reason = bad.expect_err("doomed sim must fail");
        assert!(
            reason.contains("deadlock or overrun"),
            "round {round}: unexpected failure reason: {reason}"
        );
        let (good, _) = client.wait(id_good);
        let JobResult::Sim(r) = good.expect("healthy sim must succeed after a lane panic");
        assert_eq!(r, reference, "round {round}: post-panic result drifted");
    }
    assert_eq!(server.job_panics(), 4);
}

#[test]
fn many_clients_hammering_shared_work_each_keep_fifo() {
    // 12 clients (more queues than the 8 workers) each submit the same
    // shared sweep in their own order permutation; heavy dedup plus
    // cross-client contention. Each client's terminal stream must follow
    // its own submission order.
    let server = Server::new(WORKERS);
    let sweep: Vec<SimSpec> = (0..6)
        .map(|i| quick_sim(Workload::ALL[i % Workload::ALL.len()], 50 + (i % 3) as u64))
        .collect();

    let drift = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for c in 0..12usize {
            let server = &server;
            let sweep = &sweep;
            let drift = Arc::clone(&drift);
            scope.spawn(move || {
                let client = server.client();
                // Per-client permutation: rotate the sweep by the client index.
                let ids: Vec<u64> = (0..sweep.len())
                    .map(|i| client.submit(JobSpec::Sim(sweep[(i + c) % sweep.len()])))
                    .collect();
                let mut seen = Vec::new();
                while seen.len() < ids.len() {
                    match client.recv() {
                        Response::Done { job_id, .. } => seen.push(job_id),
                        Response::Failed { job_id, reason } => {
                            panic!("client {c} job {job_id} failed: {reason}")
                        }
                        _ => {}
                    }
                }
                if seen != ids {
                    drift.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(drift.load(Ordering::Relaxed), 0, "a client observed out-of-order completion");
    // 3 distinct (workload, seed) points… the sweep has 6 entries over 3
    // seeds and up to 6 workloads; exact distinct count:
    let distinct = {
        let mut keys: Vec<u128> = sweep.iter().map(|s| JobSpec::Sim(*s).cache_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    };
    let stats = server.cache_stats();
    assert_eq!(stats.misses, distinct, "shared sweep must compute each distinct job once");
}
