//! `server_sweep`: a fig14/15-style sweep through the campaign server over
//! TCP, as closed loops.
//!
//! Two connections (one on a single-core host), each keeping [`WINDOW`]
//! `Sim` jobs outstanding and sending the next only when one completes. A
//! sweep crosses four kernels, four configurations, [`SWEEP_SEEDS`] spec
//! seeds and two instruction budgets, every connection getting the same
//! share of each point; every connection after the first repeats a fixed
//! quarter of the first connection's specs at the same position, so both
//! cache hits and in-flight dedup happen. Jobs are short, so result
//! harvest, codec, cache and queueing take most of the wall clock.
//!
//! A run repeats the same sweep, each time on a fresh server (so each
//! starts with an empty cache) whose lane warm-up jobs have built, in an
//! order the run seed shuffles anew, and reports the fastest: every sweep
//! does the same work, so, as with `detail_busy`'s repetitions, the
//! fastest is the one the rest of the host disturbed least.
//!
//! The server has one worker. With one worker per host core, on a host
//! whose cores are SMT siblings the workers slow each other, and the
//! throughput spread between runs was half as large again as with one.

use crate::refs::Refs;
use crate::stats::{highest_tail, median, percentile};
use crate::trace::{Trace, Tracer};
use crate::{catch, metric, Ctx, Metric, Outcome};
use orinoco_core::{CommitKind, Core, SchedulerKind};
use orinoco_server::protocol::fnv64_from;
use orinoco_server::{
    run_one_shot, ConfigSpec, JobResult, JobSpec, Preset, Request, Response, Server, SimResult,
    SimSpec, TcpClient, TcpFront,
};
use orinoco_workloads::Workload;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The kernels; in `memlat_like` jobs fast-forward does most core work.
pub const KERNELS: [Workload; 4] = [
    Workload::GemmLike,
    Workload::ExchangeLike,
    Workload::HashjoinLike,
    Workload::MemlatLike,
];

/// Instruction budgets of the jobs.
pub const BUDGETS: [u64; 2] = [2_500, 10_000];

/// Spec seeds per (kernel, config, budget) point.
pub const SEEDS_PER_POINT: u64 = 96;

/// Spec seeds per point in one sweep of the untraced run: 64 distinct
/// jobs and 72 submissions on two connections, about 2 s of work.
pub const SWEEP_SEEDS: u64 = 2;

/// Spec seeds per point in the traced sweep, which must carry at least
/// [`MIN_JOBS`] jobs.
pub const TRACED_SEEDS: u64 = 48;

/// Jobs each connection keeps outstanding. Windows of 3 and more keep
/// every worker busy (throughput then tracks compute); at 8 the p99 was the
/// steadiest of the windows tried (1, 3, 4, 8).
pub const WINDOW: usize = 8;

/// Jobs the traced sweep submits at least, so that more than ten jobs
/// lie beyond p99.
pub const MIN_JOBS: usize = 1050;

/// Every connection after the first repeats every this-many-th job.
const REPEAT_EVERY: usize = 4;

/// The four configurations of the sweep.
#[must_use]
pub fn configs() -> [(&'static str, ConfigSpec); 4] {
    let spec = |preset, scheduler, commit| ConfigSpec {
        preset,
        scheduler,
        commit,
        fast_forward: true,
        rob_entries: 0,
        iq_entries: 0,
    };
    [
        (
            "age_ioc",
            spec(Preset::Base, SchedulerKind::Age, CommitKind::InOrder),
        ),
        (
            "orinoco",
            spec(Preset::Base, SchedulerKind::Orinoco, CommitKind::Orinoco),
        ),
        (
            "cri_orinoco",
            spec(Preset::Base, SchedulerKind::CriOrinoco, CommitKind::Orinoco),
        ),
        (
            "ultra_orinoco",
            spec(Preset::Ultra, SchedulerKind::Orinoco, CommitKind::Orinoco),
        ),
    ]
}

/// One distinct job of the sweep.
#[derive(Clone)]
pub struct Job {
    /// Reference key: (workload seed, kernel, config, budget).
    pub key: (u64, String, String, u64),
    /// Spec seed index within its point.
    pub idx: usize,
    /// The job.
    pub spec: SimSpec,
}

/// Every distinct job of workload seed `wseed`, point by point.
#[must_use]
pub fn jobs(wseed: u64) -> Vec<Job> {
    let mut out = Vec::new();
    for k in KERNELS {
        for (name, config) in configs() {
            for budget in BUDGETS {
                for idx in 0..SEEDS_PER_POINT {
                    out.push(Job {
                        key: (wseed, k.name().into(), name.into(), budget),
                        idx: idx as usize,
                        spec: SimSpec {
                            config,
                            workload: k,
                            scale: 1,
                            seed: wseed * 1000 + idx,
                            max_instrs: budget,
                            max_cycles: 0,
                            progress_cycles: 0,
                        },
                    });
                }
            }
        }
    }
    out
}

/// The checked identity of a result: its stats and commit-stream digests.
#[must_use]
pub fn digest(r: &SimResult) -> u64 {
    fnv64_from(r.stats_digest, &r.commit_digest.to_le_bytes())
}

/// Recomputes the `served` references of workload seed `wseed` with
/// `run_one_shot`, on `threads` threads.
pub fn derive(wseed: u64, threads: usize, out: &mut Refs) {
    let all = jobs(wseed);
    let next = AtomicUsize::new(0);
    let results: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = all.get(i) else { break got };
                        let r = run_one_shot(&job.spec).expect("reference job must not fail");
                        got.push((i, digest(&r)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    for (i, d) in results.into_iter().flatten() {
        let job = &all[i];
        let v = out.served.entry(job.key.clone()).or_default();
        if v.len() <= job.idx {
            v.resize(job.idx + 1, 0);
        }
        v[job.idx] = d;
    }
}

/// The expected digest of `job`, if a reference exists.
fn expected(refs: &Refs, job: &Job) -> Option<u64> {
    refs.served
        .get(&job.key)
        .and_then(|v| v.get(job.idx))
        .copied()
}

/// Per-connection job lists (indices into `jobs`) of sweep `round`: the
/// first `seeds` spec seeds of every point, dealt so that every
/// connection gets the same number of each point, each list shuffled by
/// the run seed and the round; then every connection after the first
/// repeats the first one's job at every [`REPEAT_EVERY`]-th position.
#[must_use]
pub fn job_lists(seed: u64, round: u64, seeds: u64, conns: usize) -> Vec<Vec<usize>> {
    let mut rng = orinoco_util::Rng::seed_from_u64(seed ^ 0x5E7E_D5EE ^ round << 32);
    let points = KERNELS.len() * configs().len() * BUDGETS.len();
    let mut fresh: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for p in 0..points {
        for k in 0..seeds.min(SEEDS_PER_POINT) {
            fresh[k as usize % conns].push(p * SEEDS_PER_POINT as usize + k as usize);
        }
    }
    for f in &mut fresh {
        rng.shuffle(f);
    }
    let mut fresh = fresh.into_iter();
    let mut lists = vec![fresh.next().unwrap_or_default()];
    for mut f in fresh.map(VecDeque::from) {
        let mut l = Vec::new();
        while let Some(j) = ((l.len() + 1) % REPEAT_EVERY == 0)
            .then(|| lists[0].get(l.len()).copied())
            .flatten()
            .or_else(|| f.pop_front())
        {
            l.push(j);
        }
        lists.push(l);
    }
    lists
}

/// A server with its TCP front end and one client connection per loop.
/// Fields drop in order: the connections close first, so the front end's
/// drop can join its connection threads, and the server drains last.
pub struct Rig {
    clients: Vec<TcpClient>,
    _front: TcpFront,
    server: Server,
}

/// Starts a server with `workers` workers and `conns` connections.
///
/// # Errors
///
/// Socket errors binding or connecting on the loopback interface.
pub fn start(workers: usize, conns: usize) -> std::io::Result<Rig> {
    let server = Server::new(workers);
    let front = TcpFront::spawn(&server, "127.0.0.1:0")?;
    let clients = (0..conns)
        .map(|_| TcpClient::connect(front.addr()))
        .collect::<std::io::Result<_>>()?;
    Ok(Rig {
        clients,
        _front: front,
        server,
    })
}

/// The `k`-th warm-up job, on configuration `config`: spec seeds below
/// 1000 lie outside every sweep.
fn warm_spec(config: ConfigSpec, k: u64) -> SimSpec {
    SimSpec {
        config,
        workload: Workload::GemmLike,
        scale: 1,
        seed: k,
        max_instrs: BUDGETS[0],
        max_cycles: 0,
        progress_cycles: 0,
    }
}

/// [`start`], then one warm-up job per configuration through the
/// in-process client, each waited for, so that a sweep finds the worker's
/// lane built for every configuration. (Over TCP, a second job on one
/// connection waited out the client's 40 ms delayed ACK, which would make
/// the set-up time a timer's.)
///
/// # Errors
///
/// Socket errors, or a warm-up job that did not complete.
pub fn start_warm(workers: usize, conns: usize) -> std::io::Result<Rig> {
    let rig = start(workers, conns)?;
    let client = rig.server.client();
    for (k, (_, config)) in configs().into_iter().enumerate() {
        client.submit(JobSpec::Sim(warm_spec(config, k as u64)));
        loop {
            match client.recv() {
                Response::Done { .. } => break,
                Response::Failed { reason, .. } => {
                    return Err(std::io::Error::other(format!(
                        "warm-up job failed: {reason}"
                    )))
                }
                _ => {}
            }
        }
    }
    Ok(rig)
}

/// One completed job as the client saw it.
pub struct Seen {
    /// Index into the run's jobs.
    pub job: usize,
    /// Submit-to-terminal latency, seconds.
    pub latency_s: f64,
    /// Whether `Accepted` said the result came from the cache.
    pub cached: bool,
    /// Instructions the result committed.
    pub committed: u64,
    /// Cycles the result took.
    pub cycles: u64,
    /// The `Done` response (kept only while tracing, for codec timing).
    pub done: Option<Response>,
}

/// What one closed loop produced.
#[derive(Default)]
pub struct LoopOut {
    /// Completed jobs.
    pub seen: Vec<Seen>,
    /// Jobs submitted.
    pub submitted: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Spans of this loop's thread.
    pub trace: Trace,
}

struct Pending {
    job: usize,
    sent: Instant,
    job_id: Option<u64>,
    cached: bool,
}

/// Drives one connection: keeps [`WINDOW`] jobs outstanding until the
/// list runs out or `deadline` passes with at least `min_jobs` submitted
/// across all loops, then drains.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    ctx: &Ctx,
    client: &mut TcpClient,
    queue: u64,
    list: &[usize],
    all: &[Job],
    deadline: Instant,
    min_jobs: usize,
    submitted: &AtomicUsize,
    trace: bool,
) -> LoopOut {
    let mut tr = Tracer::new(ctx.epoch, trace);
    let mut out = LoopOut::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut next = 0usize;
    loop {
        while pending.len() < WINDOW
            && next < list.len()
            && (Instant::now() < deadline || submitted.load(Ordering::Relaxed) < min_jobs)
        {
            let job = list[next];
            let req = Request::Submit {
                queue,
                spec: JobSpec::Sim(all[job].spec),
            };
            let sent = Instant::now();
            let sent_ok = tr.time("server.send", job as u64, || client.send(&req));
            if let Err(e) = sent_ok {
                out.failures.push(format!("send failed: {e}"));
                break;
            }
            submitted.fetch_add(1, Ordering::Relaxed);
            out.submitted += 1;
            pending.push_back(Pending {
                job,
                sent,
                job_id: None,
                cached: false,
            });
            next += 1;
        }
        if pending.is_empty() {
            break;
        }
        match client.recv() {
            Ok(Some(Response::Accepted { job_id, cached })) => {
                if let Some(p) = pending.iter_mut().find(|p| p.job_id.is_none()) {
                    p.job_id = Some(job_id);
                    p.cached = cached;
                    tr.record("server.accept_wait", p.job as u64, p.sent, Instant::now());
                }
            }
            Ok(Some(resp @ (Response::Done { .. } | Response::Failed { .. }))) => {
                let now = Instant::now();
                let p = pending
                    .pop_front()
                    .expect("a terminal response answers a pending job");
                let (mut committed, mut cycles) = (0, 0);
                let (id, problem) = match &resp {
                    Response::Done {
                        job_id,
                        result: JobResult::Sim(r),
                    } => {
                        let ok = expected(&ctx.refs, &all[p.job]) == Some(digest(r));
                        (committed, cycles) = (r.committed, r.cycles);
                        (
                            *job_id,
                            (!ok).then(|| {
                                "result digest differs from the run_one_shot reference".to_string()
                            }),
                        )
                    }
                    Response::Done { job_id, .. } => (*job_id, Some("not a Sim result".into())),
                    Response::Failed { job_id, reason } => {
                        (*job_id, Some(format!("Failed: {reason}")))
                    }
                    _ => unreachable!(),
                };
                let problem = problem.or_else(|| {
                    (p.job_id != Some(id)).then(|| format!("answer for job {id} out of order"))
                });
                if let Some(why) = problem {
                    let j = &all[p.job];
                    out.failures.push(format!(
                        "served {} {} {} seed {}: {why}",
                        j.key.1, j.key.2, j.key.3, j.spec.seed
                    ));
                } else {
                    out.seen.push(Seen {
                        job: p.job,
                        latency_s: (now - p.sent).as_secs_f64(),
                        cached: p.cached,
                        committed,
                        cycles,
                        done: trace.then_some(resp),
                    });
                }
            }
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => {
                out.failures.extend(
                    pending
                        .drain(..)
                        .map(|p| format!("job {} lost: connection closed", p.job)),
                );
                break;
            }
        }
    }
    out.trace = tr.finish();
    out
}

/// One sweep on a started rig: a closed loop per connection.
pub fn sweep(
    ctx: &Ctx,
    rig: &mut Rig,
    all: &[Job],
    lists: &[Vec<usize>],
    deadline: Instant,
    min_jobs: usize,
    trace: bool,
) -> (Vec<LoopOut>, f64) {
    let submitted = AtomicUsize::new(0);
    let t = Instant::now();
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(lists)
            .enumerate()
            .map(|(q, (client, list))| {
                let submitted = &submitted;
                s.spawn(move || {
                    closed_loop(
                        ctx,
                        client,
                        q as u64 + 1,
                        list,
                        all,
                        deadline,
                        min_jobs,
                        submitted,
                        trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client loop panicked"))
            .collect::<Vec<_>>()
    });
    (outs, t.elapsed().as_secs_f64())
}

fn tally(outs: &[LoopOut], out: &mut Outcome) {
    for o in outs {
        out.attempted += o.submitted;
        out.failed += o.failures.len() as u64;
        out.failures.extend(o.failures.iter().cloned());
    }
}

/// Counts the jobs that panicked a lane of `rig` as failures.
fn count_panics(rig: &Rig, out: &mut Outcome) {
    let panics = rig.server.job_panics();
    if panics > 0 {
        out.failed += panics;
        out.failures
            .push(format!("{panics} jobs panicked a server lane"));
    }
}

fn latencies(outs: &[LoopOut]) -> Vec<f64> {
    outs.iter()
        .flat_map(|o| o.seen.iter().map(|s| s.latency_s))
        .collect()
}

/// Server workers.
pub const WORKERS: usize = 1;

/// Client connections: two, so that hits and dedup happen, unless the
/// host has a single core.
fn conns(ctx: &Ctx) -> usize {
    ctx.threads.clamp(1, 2)
}

fn start_rig(ctx: &Ctx) -> Rig {
    start_warm(WORKERS, conns(ctx)).expect("loopback server must start")
}

/// Untraced sweeps of [`SWEEP_SEEDS`] seeds per point until `deadline`
/// (at least one), the first on `rig` and each later one on a fresh rig
/// started outside the timed sweep. Returns each sweep's kinst per wall
/// second and the latencies of all. A sweep's instructions and cycles are
/// those of its distinct jobs, each counted once: which jobs the second
/// connection repeats changes with the shuffle, the distinct jobs do not.
fn sweeps(
    ctx: &Ctx,
    all: &[Job],
    rig: Rig,
    deadline: Instant,
    out: &mut Outcome,
    totals: &mut (u64, u64),
) -> (Vec<f64>, Vec<f64>) {
    let (mut kips, mut lat) = (Vec::new(), Vec::new());
    let mut rig = Some(rig);
    for round in 0.. {
        if round > 0 && Instant::now() >= deadline {
            break;
        }
        let mut r = rig.take().unwrap_or_else(|| start_rig(ctx));
        let lists = job_lists(ctx.seed, round, SWEEP_SEEDS, conns(ctx));
        let (outs, wall) = sweep(ctx, &mut r, all, &lists, Instant::now(), usize::MAX, false);
        tally(&outs, out);
        count_panics(&r, out);
        drop(r);
        let distinct: BTreeMap<usize, (u64, u64)> = outs
            .iter()
            .flat_map(|o| &o.seen)
            .map(|s| (s.job, (s.committed, s.cycles)))
            .collect();
        let (insts, cycles) = distinct
            .values()
            .fold((0, 0), |(i, c), &(si, sc)| (i + si, c + sc));
        *totals = (totals.0 + insts, totals.1 + cycles);
        kips.push(insts as f64 / wall / 1e3);
        lat.extend(latencies(&outs));
    }
    (kips, lat)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let all = jobs(ctx.wseed);
    let mut tr = Tracer::new(ctx.epoch, ctx.trace);
    let (setup_s, rig) = crate::repeat_setup(|| tr.time("server.start", 0, || start_rig(ctx)));
    let begin = Instant::now();
    let mut totals = (0, 0);
    if !ctx.trace {
        let (kips, _) = sweeps(
            ctx,
            &all,
            rig,
            begin + ctx.duration(),
            &mut out,
            &mut totals,
        );
        out.metrics = vec![
            metric("setup_s", "s", setup_s),
            metric(
                "sim_kips",
                "kinst/s",
                kips.iter().copied().fold(0.0, f64::max),
            ),
            metric("sim_ipc", "inst/cycle", totals.0 as f64 / totals.1 as f64),
        ];
        return out;
    }
    // Traced: untraced sweeps for half the time, then a traced sweep of at
    // least MIN_JOBS jobs on a fresh rig.
    let (_, plain) = sweeps(
        ctx,
        &all,
        rig,
        begin + ctx.duration() / 2,
        &mut out,
        &mut totals,
    );
    let traced = traced_sweep(ctx, &all, begin + ctx.duration(), &mut tr, &mut out);
    tr.count("trace.untraced_op_s", median(&plain));
    tr.count("trace.traced_op_s", median(&latencies(&traced)));
    finish(ctx, &all, traced, tr, &mut out);
    out
}

/// The layers of this workload in another workload's traced run: one
/// traced sweep of [`MIN_JOBS`] jobs and the off-server probes.
pub fn probe(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let all = jobs(ctx.wseed);
    let mut tr = Tracer::new(ctx.epoch, true);
    let traced = traced_sweep(ctx, &all, Instant::now(), &mut tr, &mut out);
    finish(ctx, &all, traced, tr, &mut out);
    out
}

/// A traced sweep of [`TRACED_SEEDS`] seeds per point on a fresh rig
/// until `deadline`, with at least [`MIN_JOBS`] jobs, and the server's
/// counters after it.
fn traced_sweep(
    ctx: &Ctx,
    all: &[Job],
    deadline: Instant,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<LoopOut> {
    let mut rig = tr.time("server.start", 0, || start_rig(ctx));
    let lists = job_lists(ctx.seed, 0, TRACED_SEEDS, conns(ctx));
    let (traced, wall) = sweep(ctx, &mut rig, all, &lists, deadline, MIN_JOBS, true);
    tally(&traced, out);
    count_panics(&rig, out);
    let cache = rig.server.cache_stats();
    tr.count("server.job_panics", rig.server.job_panics() as f64);
    drop(rig);
    for (k, v) in [
        ("server.hits", cache.hits),
        ("server.misses", cache.misses),
        ("server.deduped", cache.deduped),
    ] {
        tr.count(k, v as f64);
    }
    tr.count(
        "server.submissions",
        traced.iter().map(|o| o.submitted as f64).sum(),
    );
    let lat = latencies(&traced);
    if let Err(e) = percentile(&lat, 99.0) {
        let best =
            highest_tail(&lat).map_or("none".into(), |(p, v)| format!("p{p} = {:.3} ms", v * 1e3));
        out.failures
            .push(format!("server.job_p99_ms: {e}; highest supported: {best}"));
    }
    for l in lat {
        tr.count_sample("server.latency_s", l);
    }
    tr.count("server.sweep_s", wall);
    traced
}

/// Probes the off-server layers on the traced sweep's jobs and merges
/// every connection's spans into the run's trace.
fn finish(ctx: &Ctx, all: &[Job], traced: Vec<LoopOut>, mut tr: Tracer, out: &mut Outcome) {
    probe_compute(ctx, all, &traced, &mut tr, out);
    let mut trace = tr.finish();
    for o in traced {
        trace.merge(o.trace);
    }
    out.trace = Some(trace);
}

/// Off-server layers, on the run's own specs and messages: `run_one_shot`
/// and `Core::run` of two specs per sweep point, each miss's wait (its
/// latency minus its point's median compute time), and the codec.
fn probe_compute(ctx: &Ctx, all: &[Job], outs: &[LoopOut], tr: &mut Tracer, out: &mut Outcome) {
    let points = all.len() / SEEDS_PER_POINT as usize;
    let mut compute_s = vec![Vec::new(); points];
    for (p, times) in compute_s.iter_mut().enumerate() {
        for idx in 0..2 {
            let i = p * SEEDS_PER_POINT as usize + idx;
            let job = &all[i];
            let t = Instant::now();
            let r = tr.time("server.run_one_shot", i as u64, || run_one_shot(&job.spec));
            times.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            if r.map(|r| expected(&ctx.refs, job) != Some(digest(&r)))
                .unwrap_or(true)
            {
                out.failed += 1;
                out.failures.push(format!(
                    "run_one_shot of served job {i} differs from its reference"
                ));
            }
            let mut emu = job.spec.workload.build(job.spec.seed, 1);
            emu.set_step_limit(job.spec.max_instrs);
            let mut core = Core::new(emu, job.spec.config.to_core_config(job.spec.seed));
            let _ = tr.time("core.run", i as u64, || catch(|| core.run(u64::MAX).cycles));
        }
    }
    let point_compute: Vec<f64> = compute_s.iter().map(|t| median(t)).collect();
    for s in outs.iter().flat_map(|o| &o.seen).filter(|s| !s.cached) {
        let wait = s.latency_s - point_compute[s.job / SEEDS_PER_POINT as usize];
        tr.count_sample("server.wait_s", wait);
    }
    for (q, s) in outs
        .iter()
        .enumerate()
        .flat_map(|(q, o)| o.seen.iter().map(move |s| (q, s)))
    {
        let Some(done) = &s.done else { continue };
        let spec = JobSpec::Sim(all[s.job].spec);
        let bytes = tr.time("server.codec", s.job as u64, || {
            let req = Request::Submit {
                queue: q as u64 + 1,
                spec,
            }
            .encode();
            let resp = done.encode();
            let back = Response::decode(&resp).expect("a received response re-decodes");
            std::hint::black_box((req, back, spec.cache_key()));
            resp.len()
        });
        tr.count_sample("server.done_bytes", bytes as f64);
    }
}

fn span_median_us(t: &Trace, name: &str) -> f64 {
    median(&t.self_ns(name)) / 1e3
}

/// This workload's per-layer metrics from a traced run.
#[must_use]
pub fn layer_metrics(t: &Trace) -> Vec<Metric> {
    let lat = t.samples("server.latency_s");
    let waits = t.samples("server.wait_s");
    let one_shot = t.total_self_s("server.run_one_shot");
    let core_run = t.total_self_s("core.run");
    let codec = t.self_ns("server.codec");
    let (hits, deduped) = (t.count("server.hits"), t.count("server.deduped"));
    vec![
        metric("server.job_p50_ms", "ms", median(&lat) * 1e3),
        metric(
            "server.job_p99_ms",
            "ms",
            percentile(&lat, 99.0).unwrap_or(f64::NAN) * 1e3,
        ),
        metric(
            "server.jobs_per_s",
            "1/s",
            lat.len() as f64 / t.count("server.sweep_s"),
        ),
        metric(
            "server.start_ms",
            "ms",
            median(&t.self_ns("server.start")) / 1e6,
        ),
        metric("server.send_us_p50", "us", span_median_us(t, "server.send")),
        metric(
            "server.accept_us_p50",
            "us",
            span_median_us(t, "server.accept_wait"),
        ),
        metric(
            "server.compute_ms_p50",
            "ms",
            median(&t.self_ns("server.run_one_shot")) / 1e6,
        ),
        metric("server.harvest_share", "ratio", 1.0 - core_run / one_shot),
        metric("server.wait_ms_p50", "ms", median(&waits) * 1e3),
        metric(
            "server.wait_ms_p99",
            "ms",
            percentile(&waits, 99.0).unwrap_or(f64::NAN) * 1e3,
        ),
        metric(
            "server.codec_us_per_job",
            "us",
            codec.iter().sum::<f64>() / codec.len() as f64 / 1e3,
        ),
        metric(
            "server.done_bytes_p50",
            "bytes",
            median(&t.samples("server.done_bytes")),
        ),
        metric("server.hits", "count", hits),
        metric("server.misses", "count", t.count("server.misses")),
        metric("server.deduped", "count", deduped),
        metric(
            "server.reuse_ratio",
            "ratio",
            (hits + deduped) / t.count("server.submissions"),
        ),
        metric("server.job_panics", "count", t.count("server.job_panics")),
    ]
}
