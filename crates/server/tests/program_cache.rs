//! The per-worker program cache must not change a single result byte.
//!
//! Jobs share programs across three configurations and two instruction
//! budgets: the store-heavy `stream_like` and `exchange_like`, `gemm_like`
//! and five seeds of the 16 MiB `memlat_like`, about 85 MiB of programs
//! together, so a worker's `PROGRAM_BUDGET_BYTES` cannot park them all and
//! must evict. They run in shuffled orders on one and two workers, and
//! every `Done` must equal `run_one_shot` byte for byte. The cache's
//! counters must show every computation as one hit or one build, and no
//! worker ever holding more than its budget. A job that panics its lane
//! on a cached program must not leave a half-run program behind for the
//! next job.

use orinoco_core::{CommitKind, SchedulerKind};
use orinoco_server::{
    run_one_shot, ConfigSpec, JobResult, JobSpec, Preset, ProgramStats, Server, SimResult,
    SimSpec, PROGRAM_BUDGET_BYTES,
};
use orinoco_util::Rng;
use orinoco_workloads::Workload;

const PROGRAMS: [(Workload, u64); 8] = [
    (Workload::StreamLike, 3),
    (Workload::ExchangeLike, 5),
    (Workload::GemmLike, 9),
    (Workload::MemlatLike, 7),
    (Workload::MemlatLike, 8),
    (Workload::MemlatLike, 10),
    (Workload::MemlatLike, 11),
    (Workload::MemlatLike, 12),
];

fn configs() -> [ConfigSpec; 3] {
    let base = ConfigSpec::orinoco_base();
    [
        base,
        ConfigSpec { scheduler: SchedulerKind::Age, commit: CommitKind::InOrder, ..base },
        ConfigSpec { preset: Preset::Ultra, ..base },
    ]
}

fn spec(workload: Workload, seed: u64, config: ConfigSpec, max_instrs: u64) -> SimSpec {
    SimSpec { config, workload, scale: 1, seed, max_instrs, max_cycles: 0, progress_cycles: 0 }
}

/// Every job of the battery with its one-shot reference, program by
/// program: each program's six jobs are consecutive.
fn jobs() -> Vec<(SimSpec, SimResult)> {
    let mut out = Vec::new();
    for (w, seed) in PROGRAMS {
        for config in configs() {
            for budget in [2_500, 10_000] {
                let s = spec(w, seed, config, budget);
                out.push((s, run_one_shot(&s).expect("one-shot reference")));
            }
        }
    }
    out
}

fn sim_result(outcome: Result<JobResult, String>, what: &str) -> SimResult {
    match outcome {
        Ok(JobResult::Sim(r)) => r,
        other => panic!("{what}: unexpected outcome {other:?}"),
    }
}

#[test]
fn shuffled_jobs_on_shared_programs_equal_their_one_shots() {
    let jobs = jobs();
    let parked: usize = PROGRAMS.iter().map(|&(w, seed)| w.build(seed, 1).heap_bytes()).sum();
    assert!(parked > PROGRAM_BUDGET_BYTES, "the programs must not all fit: {parked} bytes");
    for workers in [1, 2] {
        let server = Server::new(workers);
        // One client, and so one worker, per `j % workers`: every worker
        // runs some jobs of every program, and so must evict. Each
        // client's jobs are shuffled.
        std::thread::scope(|s| {
            for c in 0..workers {
                let (server, jobs) = (&server, &jobs);
                s.spawn(move || {
                    let client = server.client();
                    let mut mine: Vec<usize> = (c..jobs.len()).step_by(workers).collect();
                    Rng::seed_from_u64((workers * 10 + c) as u64).shuffle(&mut mine);
                    let ids: Vec<u64> =
                        mine.iter().map(|&j| client.submit(JobSpec::Sim(jobs[j].0))).collect();
                    for (j, id) in mine.into_iter().zip(ids) {
                        let (s, want) = &jobs[j];
                        let what = format!(
                            "{workers} workers: {} seed {} budget {}",
                            s.workload, s.seed, s.max_instrs
                        );
                        assert_eq!(&sim_result(client.wait(id).0, &what), want, "{what}");
                    }
                });
            }
        });
        let p = server.program_stats();
        let what = format!("{workers} workers: {p:?}");
        assert_eq!(p.hits + p.builds, jobs.len() as u64, "{what}: one checkout per job");
        assert!(p.hits > 0, "{what}: no job reused a program");
        assert!(p.evictions > 0, "{what}: the budget forced no eviction");
        assert!(p.peak_bytes_held <= PROGRAM_BUDGET_BYTES as u64, "{what}: over budget");
        assert!(p.bytes_held <= (workers * PROGRAM_BUDGET_BYTES) as u64, "{what}: over budget");
    }
}

#[test]
fn a_job_panicking_on_a_cached_program_leaves_no_trace_in_the_next_job() {
    let server = Server::new(1);
    let client = server.client();
    let (w, seed) = PROGRAMS[0];
    let [base, ioc, ultra] = configs();
    let first = spec(w, seed, base, 10_000);
    // A cycle budget far too small for the job: the lane panics after
    // fetch has stepped (and stored through) the cached program.
    let doomed = SimSpec { max_cycles: 500, ..spec(w, seed, ioc, 10_000) };
    let after = spec(w, seed, ultra, 10_000);

    let want = run_one_shot(&first).expect("one-shot reference");
    assert_eq!(sim_result(client.run(JobSpec::Sim(first)), "first"), want);
    let reason = client.run(JobSpec::Sim(doomed)).expect_err("the doomed job must fail");
    assert!(reason.contains("deadlock or overrun"), "unexpected failure: {reason}");
    let want = run_one_shot(&after).expect("one-shot reference");
    assert_eq!(sim_result(client.run(JobSpec::Sim(after)), "after the panic"), want);

    assert_eq!(server.job_panics(), 1);
    // The doomed job took the parked program and dropped it with its lane,
    // so the job after it built the program again.
    let p: ProgramStats = server.program_stats();
    assert_eq!((p.hits, p.builds, p.evictions), (1, 2, 0), "{p:?}");
}
