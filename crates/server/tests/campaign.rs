//! Sweep-over-client equivalence: sweeps routed through the server, in
//! process or over TCP, must be byte-identical to their serial one-shot
//! counterparts, and bad specs must fail politely.

use orinoco_server::{
    run_one_shot, ConfigSpec, JobResult, JobSpec, Request, Response, Server, SimSpec, TcpClient,
    TcpFront,
};
use orinoco_core::{CommitKind, SchedulerKind};
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
                    let JobResult::Sim(r) = client.wait(id).0.expect("sweep job failed");
                    assert_eq!(
                        r, serial[i],
                        "client {c} point {i} ({} seed {}) diverged from one-shot",
                        specs[i].workload, specs[i].seed
                    );
                }
            });
        }
    });
    // 3 identical sweeps: every grid point computed at most once.
    assert_eq!(server.cache_stats().misses, specs.len() as u64);
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
    client.run(JobSpec::Sim(quiet)).expect("quiet sim failed");
    assert_eq!(server.cache_stats().hits, 1, "quiet resubmit must hit the streamed entry");
    let JobResult::Sim(r) = result;
    assert_eq!(r, run_one_shot(&quiet).expect("reference"), "streaming changed the result");
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

/// A scale `Workload::build` cannot take — 0, or more than a `u32` holds
/// — fails an in-process `Sim` job just as the wire decoder refuses it:
/// no lane unwinds, and 2^32 + 1 is not run as scale 1 under a second
/// cache key. The one-shot reference refuses it too instead of panicking
/// while it builds the program. The last, valid job on the one worker
/// makes the panic count final before it is read.
#[test]
fn out_of_range_scale_fails_politely_in_process() {
    let server = Server::new(1);
    let client = server.client();
    let good = sweep_grid()[0];
    for scale in [0, 1 << 32, (1 << 32) + 1] {
        let want = format!("scale {scale} is outside");
        let bad = SimSpec { scale, ..good };
        let reason = run_one_shot(&bad).expect_err("one-shot must refuse the scale");
        assert!(reason.contains(&want), "unhelpful reason: {reason}");
        let reason = client.run(JobSpec::Sim(bad)).expect_err("an out-of-range scale must fail");
        assert!(reason.contains(&want), "unhelpful reason: {reason}");
    }
    let r = client.run(JobSpec::Sim(good)).expect("valid job after the failures");
    assert_eq!(r, JobResult::Sim(run_one_shot(&good).expect("reference")));
    assert_eq!(server.job_panics(), 0, "a bad scale must not unwind a lane");
}
