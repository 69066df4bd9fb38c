//! Campaign-over-client equivalence: sweeps and verification campaigns
//! routed through the server must be byte-identical to their serial
//! one-shot counterparts — same merge discipline as the PR 2
//! deterministic seed-order merge, now across server queues.

use orinoco_server::{
    run_one_shot, ChunkSpec, ConfigSpec, JobResult, JobSpec, Request, Response, SampleSpec,
    Server, SimSpec, TcpClient, TcpFront,
};
use orinoco_core::{CommitKind, SampleConfig, SchedulerKind};
use orinoco_verif::{ff_equivalence_campaign, fuzz_campaign, CampaignChunk, FfEqChunk};
use orinoco_workloads::Workload;

/// A small sweep grid: 3 workloads x 2 configs x 2 seeds.
fn sweep_grid() -> Vec<SimSpec> {
    let mut specs = Vec::new();
    for w in [Workload::GemmLike, Workload::McfLike, Workload::ExchangeLike] {
        for cfg in [
            ConfigSpec::orinoco_base(),
            ConfigSpec {
                scheduler: SchedulerKind::Age,
                commit: CommitKind::InOrder,
                ..ConfigSpec::orinoco_base()
            },
        ] {
            for seed in [5, 17] {
                specs.push(SimSpec {
                    config: cfg,
                    workload: w,
                    scale: 1,
                    seed,
                    max_instrs: 5_000,
                    max_cycles: 0,
                    progress_cycles: 0,
                });
            }
        }
    }
    specs
}

#[test]
fn concurrent_multi_client_sweep_matches_serial_one_shots() {
    let specs = sweep_grid();
    let serial: Vec<_> = specs.iter().map(|s| run_one_shot(s).expect("serial")).collect();

    let server = Server::new(8);
    std::thread::scope(|scope| {
        for c in 0..3usize {
            let server = &server;
            let specs = &specs;
            let serial = &serial;
            scope.spawn(move || {
                let client = server.client();
                let ids: Vec<u64> =
                    specs.iter().map(|s| client.submit(JobSpec::Sim(*s))).collect();
                for (i, id) in ids.into_iter().enumerate() {
                    match client.wait(id).0.expect("sweep job failed") {
                        JobResult::Sim(r) => assert_eq!(
                            r, serial[i],
                            "client {c} point {i} ({} seed {}) diverged from one-shot",
                            specs[i].workload, specs[i].seed
                        ),
                        other => panic!("unexpected result {other:?}"),
                    }
                }
            });
        }
    });
    // 3 identical sweeps: every grid point computed at most once.
    assert_eq!(server.cache_stats().misses, specs.len() as u64);
}

#[test]
fn verif_campaign_over_client_equals_direct_campaign() {
    // The whole-campaign reference, run directly (no server, no chunks).
    let whole = fuzz_campaign(8, 0xD1FF, None, |_, _| {});

    // The same campaign as four chunk jobs from two concurrent clients
    // (2 chunks each), merged in seed order.
    let server = Server::new(4);
    let chunks: Vec<ChunkSpec> = (0..4)
        .map(|i| ChunkSpec { campaign_seed: 0xD1FF, start: i * 2, count: 2, programs: 8 })
        .collect();
    let halves = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for half in chunks.chunks(2) {
            let server = &server;
            handles.push(scope.spawn(move || {
                let client = server.client();
                half.iter()
                    .map(|c| match client.run(JobSpec::VerifChunk(*c)).expect("chunk failed") {
                        JobResult::Verif(r) => r,
                        other => panic!("unexpected result {other:?}"),
                    })
                    .collect::<Vec<_>>()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    });
    let mut merged = CampaignChunk::default();
    for chunk in halves.into_iter().flatten() {
        merged.merge(&chunk);
    }

    assert_eq!(merged.programs_run, whole.programs_run);
    assert_eq!(merged.total_cycles, whole.total_cycles);
    assert_eq!(merged.total_commits, whole.total_commits);
    assert_eq!(merged.total_ooo_commits, whole.total_ooo_commits);
    assert_eq!(merged.injection_runs, whole.injection_runs);
    assert_eq!(merged.injection_fired, whole.injection_fired);
    assert_eq!(merged.injection_caught, whole.injection_caught);
    assert_eq!(
        merged.failure_seeds,
        whole.failures.iter().map(|f| f.program_seed).collect::<Vec<_>>()
    );
    assert!(whole.passed(), "reference campaign itself failed");
}

#[test]
fn ffeq_campaign_over_client_equals_direct_campaign() {
    let whole = ff_equivalence_campaign(6, 7, 1, |_, _| {});

    let server = Server::new(4);
    let client = server.client();
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            client.submit(JobSpec::FfeqChunk(ChunkSpec {
                campaign_seed: 7,
                start: i * 2,
                count: 2,
                programs: 6,
            }))
        })
        .collect();
    let mut merged = FfEqChunk::default();
    for id in ids {
        match client.wait(id).0.expect("ffeq chunk failed") {
            JobResult::Ffeq(r) => merged.merge(&r),
            other => panic!("unexpected result {other:?}"),
        }
    }
    assert_eq!(merged.programs_run, whole.programs_run);
    assert_eq!(merged.total_cycles, whole.total_cycles);
    assert_eq!(merged.total_commits, whole.total_commits);
    assert_eq!(
        merged.mismatch_seeds,
        whole.mismatches.iter().map(|m| m.program_seed).collect::<Vec<_>>()
    );
    assert!(whole.passed(), "reference ffeq campaign itself failed");
}

#[test]
fn progress_streams_between_accept_and_done() {
    let server = Server::new(2);
    let client = server.client();
    let spec = SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload: Workload::MemlatLike, // long latencies: plenty of cycles
        scale: 1,
        seed: 3,
        max_instrs: 20_000,
        max_cycles: 0,
        progress_cycles: 2_000, // several slices for a multi-thousand-cycle run
    };
    let id = client.submit(JobSpec::Sim(spec));
    let (result, progress) = client.wait(id);
    let result = result.expect("streamed sim failed");
    assert!(
        !progress.is_empty(),
        "expected at least one Progress update at a 2k-cycle cadence"
    );
    let mut last = 0;
    for p in &progress {
        match p {
            Response::Progress { job_id, cycles, stalls, .. } => {
                assert_eq!(*job_id, id);
                assert!(*cycles > last, "progress cycles must increase");
                assert!(!stalls.is_empty(), "stall taxonomy must be rendered");
                last = *cycles;
            }
            other => panic!("non-progress response collected: {other:?}"),
        }
    }
    // Streaming must not change the result: identical to the unstreamed
    // job (which also proves progress_cycles is outside the cache key —
    // this submission HITS the cache entry written by the streamed run).
    let quiet = SimSpec { progress_cycles: 0, ..spec };
    match client.run(JobSpec::Sim(quiet)).expect("quiet sim failed") {
        JobResult::Sim(_) => {}
        other => panic!("unexpected result {other:?}"),
    }
    assert_eq!(server.cache_stats().hits, 1, "quiet resubmit must hit the streamed entry");
    match result {
        JobResult::Sim(r) => {
            assert_eq!(r, run_one_shot(&quiet).expect("reference"), "streaming changed the result")
        }
        other => panic!("unexpected result {other:?}"),
    }
}

#[test]
fn tcp_transport_carries_a_mini_sweep() {
    let specs = &sweep_grid()[..4];
    let serial: Vec<_> = specs.iter().map(|s| run_one_shot(s).expect("serial")).collect();

    let server = Server::new(4);
    let front = TcpFront::spawn(&server, "127.0.0.1:0").expect("bind");
    let mut tcp = TcpClient::connect(front.addr()).expect("connect");
    tcp.send(&Request::Ping).expect("ping");
    assert_eq!(tcp.recv().expect("pong").expect("open"), Response::Pong);

    for s in specs {
        tcp.send(&Request::Submit { queue: 1, spec: JobSpec::Sim(*s) }).expect("submit");
    }
    let mut results = Vec::new();
    while results.len() < specs.len() {
        match tcp.recv().expect("recv").expect("open") {
            Response::Done { result: JobResult::Sim(r), .. } => results.push(r),
            Response::Failed { reason, .. } => panic!("tcp job failed: {reason}"),
            _ => {}
        }
    }
    assert_eq!(results, serial, "TCP-transported sweep diverged from one-shots");
    tcp.send(&Request::Bye).ok();
    front.stop();
}

/// A client-chosen core shape that fails validation (here an IQ larger
/// than the ROB) is answered with `Failed` — no worker panics — and the
/// next job on the same connection runs normally.
#[test]
fn invalid_core_config_fails_politely_over_tcp() {
    let good = sweep_grid()[0];
    let bad = SimSpec {
        config: ConfigSpec { rob_entries: 64, iq_entries: 97, ..good.config },
        ..good
    };
    let reason = run_one_shot(&bad).expect_err("one-shot must refuse the spec");
    assert!(reason.contains("IQ larger than ROB"), "unhelpful reason: {reason}");

    let server = Server::new(1);
    let front = TcpFront::spawn(&server, "127.0.0.1:0").expect("bind");
    let mut tcp = TcpClient::connect(front.addr()).expect("connect");
    let mut run = |spec: SimSpec| {
        tcp.send(&Request::Submit { queue: 1, spec: JobSpec::Sim(spec) }).expect("submit");
        loop {
            match tcp.recv().expect("recv").expect("open") {
                Response::Done { result: JobResult::Sim(r), .. } => return Ok(r),
                Response::Failed { reason, .. } => return Err(reason),
                _ => {}
            }
        }
    };
    let reason = run(bad).expect_err("invalid spec must fail");
    assert!(reason.contains("IQ larger than ROB"), "unhelpful reason: {reason}");
    assert_eq!(server.job_panics(), 0, "a bad spec must not unwind a worker");
    let r = run(good).expect("valid job after the failure");
    assert_eq!(r, run_one_shot(&good).expect("reference"));
    assert_eq!(server.job_panics(), 0);
    tcp.send(&Request::Bye).ok();
    front.stop();
}

/// A `Sample` job asking for more worker threads than
/// `SampleConfig::MAX_THREADS` is refused by validation before the
/// sampler starts any thread: the job gets `Failed`, no worker unwinds,
/// and the connection's next job still equals its one-shot. The thread
/// count is outside the cache key, so a serial twin of the same job runs
/// first: the oversized jobs must not be answered with its cached result.
/// Only the twin starts a sampler thread (one); every oversized count is
/// one validation refuses.
#[test]
fn oversized_sample_thread_count_fails_politely_over_tcp() {
    let server = Server::new(1);
    let front = TcpFront::spawn(&server, "127.0.0.1:0").expect("bind");
    let mut tcp = TcpClient::connect(front.addr()).expect("connect");
    let mut run = |spec: JobSpec| {
        tcp.send(&Request::Submit { queue: 1, spec }).expect("submit");
        loop {
            match tcp.recv().expect("recv").expect("open") {
                Response::Done { result, .. } => return Ok(result),
                Response::Failed { reason, .. } => return Err(reason),
                _ => {}
            }
        }
    };
    let twin = SampleSpec {
        workload: Workload::ExchangeLike,
        seed: 7,
        warmup_insts: 500,
        detail_insts: 2_000,
        period_insts: 10_000,
        threads: 1,
        ..SampleSpec::orinoco_base(Workload::ExchangeLike)
    };
    run(JobSpec::Sample(twin)).expect("serial twin");
    let ceiling = SampleConfig::MAX_THREADS as u64;
    for threads in [ceiling + 1, u64::MAX] {
        let spec = SampleSpec { threads, ..twin };
        let reason = run(JobSpec::Sample(spec)).expect_err("oversized thread count must fail");
        assert!(reason.contains("threads"), "unhelpful reason: {reason}");
        assert_eq!(
            server.job_panics(),
            0,
            "a bad spec must not unwind a worker"
        );
    }
    let good = sweep_grid()[0];
    let r = run(JobSpec::Sim(good)).expect("valid job after the failures");
    assert_eq!(r, JobResult::Sim(run_one_shot(&good).expect("reference")));
    assert_eq!(server.job_panics(), 0);
    tcp.send(&Request::Bye).ok();
    front.stop();
}
