//! CI smoke driver: a 3-client concurrent mini-sweep through the
//! in-process client, diffed byte-for-byte against serial one-shot
//! results; a one-worker phase in which each of the sweep's four programs
//! serves both configurations at two instruction budgets from the
//! worker's program cache, diffed the same way; and a round-trip over the
//! real TCP transport.
//!
//! Exits non-zero on any mismatch, so the `server-smoke` CI job is a
//! plain `cargo run --release -p orinoco-server --bin server_smoke`.

use orinoco_core::{CommitKind, SchedulerKind};
use orinoco_server::{
    run_one_shot, ConfigSpec, JobResult, JobSpec, Request, Response, Server, SimSpec, TcpClient,
    TcpFront,
};
use orinoco_workloads::Workload;
use std::process::ExitCode;

/// The mini-sweep: a handful of (workload, config) points, small enough
/// for CI, varied enough to cross scheduler/commit kinds and seeds.
fn sweep(max_instrs: u64) -> Vec<SimSpec> {
    let orinoco = ConfigSpec::orinoco_base();
    let ioc = ConfigSpec {
        scheduler: SchedulerKind::Age,
        commit: CommitKind::InOrder,
        ..ConfigSpec::orinoco_base()
    };
    let mut specs = Vec::new();
    for (w, seed) in [
        (Workload::GemmLike, 13),
        (Workload::McfLike, 7),
        (Workload::HashjoinLike, 3),
        (Workload::StreamLike, 11),
    ] {
        for cfg in [orinoco, ioc] {
            specs.push(SimSpec {
                config: cfg,
                workload: w,
                scale: 1,
                seed,
                max_instrs,
                max_cycles: 0,
                progress_cycles: 0,
            });
        }
    }
    specs
}

fn main() -> ExitCode {
    let specs = sweep(20_000);

    // Reference: the exact computation the one-shot sweep binaries do.
    let serial: Vec<_> = specs
        .iter()
        .map(|s| run_one_shot(s).expect("serial one-shot reference failed"))
        .collect();

    let server = Server::new(8);
    let mut failed = false;

    // Three clients race the identical sweep; per-queue FIFO means each
    // sees its results in submission order, and the cache means the work
    // happens roughly once.
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..3 {
            let server = &server;
            let specs = &specs;
            handles.push(scope.spawn(move || {
                let client = server.client();
                let ids: Vec<u64> =
                    specs.iter().map(|s| client.submit(JobSpec::Sim(*s))).collect();
                let mut results = Vec::with_capacity(ids.len());
                for id in ids {
                    match client.wait(id).0 {
                        Ok(JobResult::Sim(r)) => results.push(r),
                        other => panic!("client {c}: unexpected outcome {other:?}"),
                    }
                }
                results
            }));
        }
        for (c, h) in handles.into_iter().enumerate() {
            let results = h.join().expect("client thread panicked");
            for (i, (got, want)) in results.iter().zip(&serial).enumerate() {
                if got != want {
                    eprintln!(
                        "MISMATCH client {c} job {i} ({} seed {}):\n server {got:?}\n serial {want:?}",
                        specs[i].workload, specs[i].seed
                    );
                    failed = true;
                }
            }
        }
    });

    let cache = server.cache_stats();
    println!(
        "in-process sweep: 3 clients x {} jobs, cache hits={} misses={} deduped={}",
        specs.len(),
        cache.hits,
        cache.misses,
        cache.deduped
    );
    if cache.misses > specs.len() as u64 {
        eprintln!("MISMATCH: more computations ({}) than distinct jobs ({})", cache.misses, specs.len());
        failed = true;
    }

    // One worker, so every program's later jobs reuse (rewind) the one
    // its first job built.
    let short = sweep(5_000);
    let short_serial: Vec<_> =
        short.iter().map(|s| run_one_shot(s).expect("serial one-shot reference failed")).collect();
    let one = Server::new(1);
    let client = one.client();
    for (s, want) in specs.iter().chain(&short).zip(serial.iter().chain(&short_serial)) {
        match client.run(JobSpec::Sim(*s)) {
            Ok(JobResult::Sim(got)) if got == *want => {}
            other => {
                eprintln!(
                    "MISMATCH one-worker ({} seed {} budget {}):\n server {other:?}\n serial {want:?}",
                    s.workload, s.seed, s.max_instrs
                );
                failed = true;
            }
        }
    }
    let p = one.program_stats();
    let jobs = (specs.len() + short.len()) as u64;
    println!(
        "one-worker phase: {jobs} jobs, program builds={} hits={} evictions={}",
        p.builds, p.hits, p.evictions
    );
    if p.builds != 4 || p.hits != jobs - 4 {
        eprintln!("MISMATCH: expected one build per program (4), got {p:?}");
        failed = true;
    }

    // TCP round trip: ping, then one job over the wire, same bytes.
    let front = TcpFront::spawn(&server, "127.0.0.1:0").expect("bind TCP front");
    let mut tcp = TcpClient::connect(front.addr()).expect("connect");
    tcp.send(&Request::Ping).expect("send ping");
    match tcp.recv() {
        Ok(Some(Response::Pong)) => {}
        other => {
            eprintln!("MISMATCH: ping answered with {other:?}");
            failed = true;
        }
    }
    tcp.send(&Request::Submit { queue: 9001, spec: JobSpec::Sim(specs[0]) }).expect("submit");
    let mut tcp_result = None;
    while let Ok(Some(resp)) = tcp.recv() {
        match resp {
            Response::Done { result: JobResult::Sim(r), .. } => {
                tcp_result = Some(r);
                break;
            }
            Response::Failed { reason, .. } => {
                eprintln!("MISMATCH: TCP job failed: {reason}");
                failed = true;
                break;
            }
            _ => {}
        }
    }
    if let Some(r) = tcp_result {
        if r != serial[0] {
            eprintln!("MISMATCH: TCP result differs from serial one-shot");
            failed = true;
        } else {
            println!("tcp round-trip: ok ({} cycles, digest {:#018x})", r.cycles, r.commit_digest);
        }
    }
    tcp.send(&Request::Bye).ok();
    front.stop();

    if failed {
        eprintln!("server-smoke: FAILED");
        ExitCode::FAILURE
    } else {
        println!("server-smoke: ok — concurrent sweep byte-identical to serial one-shots");
        ExitCode::SUCCESS
    }
}
