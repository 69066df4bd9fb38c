//! `sampled_long`: checkpointed, phase-clustered sampling of a ~20M
//! instruction phased program on Base Orinoco.
//!
//! The end-to-end runs use one thread: on a two-way SMT host a second
//! thread shares the core with the producer, and its speed then varied by
//! a fifth from run to run. The traced run also times the run at one
//! worker thread per host core, for the parallel speed-up.
//!
//! `sim_kips` is the mean speed over the run's estimates (about 15 of
//! about 2 s each). The fastest estimate, which serves `detail_busy`'s
//! much shorter runs well, depends here on whether a run happens to
//! contain a quiet stretch of the host as long as an estimate: over two
//! sets of ten runs it spread 0.28 and 0.32 (IQR/median), while the
//! number of estimates a run finished, a coarse mean, spread about 0.12.
//!
//! Detailed intervals cover under 2% of the instructions, so the wall
//! clock goes to functional fast-forward and warming, the BBV pre-pass,
//! checkpointing and the ordered merge: sampler changes move this
//! workload and select/issue changes barely do. The geometry (one 76k
//! window per 80k stratum, 5 phases, the whole stream warmed) is the one
//! that kept the IPC error within 3% on every workload seed tried (1–6);
//! sparser stratified geometries and short warm horizons did not.

use crate::refs::Refs;
use crate::stats::median;
use crate::trace::{Trace, Tracer};
use crate::{catch, metric, Ctx, Metric, Outcome};
use orinoco_core::{
    cluster_bbvs, collect_bbvs, run_sampled, CommitKind, Core, CoreConfig, SampleConfig,
    SampledStats, SchedulerKind, DEFAULT_JITTER_SEED,
};
use orinoco_isa::Emulator;
use orinoco_workloads::long_program;
use std::time::Instant;

/// Instructions the program runs (`long_program` overshoots by ~2%).
pub const TARGET_INSTS: u64 = 20_000_000;

/// Largest accepted IPC error against the full-detail run (the limit
/// `sampled_check` enforces).
pub const MAX_IPC_ERR: f64 = 0.03;

const PERIOD: u64 = 80_000;
const PHASES: usize = 5;

/// The sampling geometry at `threads` worker threads.
#[must_use]
pub fn geometry(threads: usize) -> SampleConfig {
    SampleConfig::new(4_000, 76_000, PERIOD)
        .phases(PHASES)
        .with_threads(threads)
}

/// Base Orinoco.
#[must_use]
pub fn config() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

/// Recomputes the program length and full-detail IPC of workload seed
/// `wseed` (a ~15 s full-detail run).
pub fn derive(wseed: u64, out: &mut Refs) {
    let full = Core::new(long_program(wseed, TARGET_INSTS), config())
        .run(u64::MAX)
        .clone();
    out.sampled.insert(wseed, (full.committed, full.ipc()));
}

/// An estimate that passed its checks.
#[derive(Clone, Copy)]
pub struct Checked {
    /// Estimated IPC.
    pub ipc: f64,
    /// IPC error against the full-detail run, percent.
    pub err_pct: f64,
    /// The estimator's relative CI95, percent.
    pub ci95_pct: f64,
}

/// Checks an estimate against the references.
///
/// # Errors
///
/// Describes the failed check.
pub fn check(refs: &Refs, wseed: u64, est: &SampledStats) -> Result<Checked, String> {
    let &(len, ipc) = refs
        .sampled
        .get(&wseed)
        .ok_or_else(|| format!("no sampled reference for workload seed {wseed}"))?;
    if est.total_insts != len {
        return Err(format!(
            "sampled {} instructions, the program runs {len}",
            est.total_insts
        ));
    }
    let err = (est.est_ipc() - ipc).abs() / ipc;
    if err > MAX_IPC_ERR {
        return Err(format!(
            "IPC {:.5} is {:.2}% off the full-detail {ipc:.5}",
            est.est_ipc(),
            err * 100.0
        ));
    }
    Ok(Checked {
        ipc: est.est_ipc(),
        err_pct: err * 100.0,
        ci95_pct: est.rel_ci95() * 100.0,
    })
}

/// One sampled estimate, checked. Returns its wall time and, when it
/// passed, what was checked.
pub fn sample_once(
    ctx: &Ctx,
    template: &Emulator,
    threads: usize,
    span: &str,
    op: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (f64, Option<Checked>) {
    let emu = template.fork_rebased();
    let t = Instant::now();
    let id = tr.open(span, op);
    let est = catch(|| run_sampled(emu, config(), &geometry(threads)));
    tr.close(id);
    let secs = t.elapsed().as_secs_f64();
    out.attempted += 1;
    let checked = est.and_then(|e| {
        if tr.enabled() {
            tr.count("sample.intervals", e.intervals.len() as f64);
            tr.count("sample.detail_fraction", e.detail_fraction());
            tr.count("sample.estimates", 1.0);
        }
        check(&ctx.refs, ctx.wseed, &e)
    });
    match checked {
        Ok(c) => {
            tr.count("sample.ipc_err_pct", c.err_pct);
            tr.count("sample.ci95_pct", c.ci95_pct);
            tr.count("sample.checked", 1.0);
            (secs, Some(c))
        }
        Err(e) => {
            out.failed += 1;
            out.failures.push(format!("sampled op {op}: {e}"));
            (secs, None)
        }
    }
}

struct Series {
    secs: Vec<f64>,
    last: Option<Checked>,
}

fn series(
    ctx: &Ctx,
    template: &Emulator,
    deadline: Instant,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Series {
    let mut s = Series {
        secs: Vec::new(),
        last: None,
    };
    while s.secs.is_empty() || Instant::now() < deadline {
        let (secs, v) = sample_once(
            ctx,
            template,
            1,
            "sample.run_sampled",
            out.attempted,
            tr,
            out,
        );
        s.secs.push(secs);
        s.last = v.or(s.last);
    }
    s
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.epoch, ctx.trace);
    let (setup_s, template) = crate::repeat_setup(|| {
        tr.time("workloads.build", 0, || {
            long_program(ctx.wseed, TARGET_INSTS)
        })
    });
    let start = Instant::now();
    if !ctx.trace {
        let s = series(ctx, &template, start + ctx.duration(), &mut tr, &mut out);
        let total = ctx
            .refs
            .sampled
            .get(&ctx.wseed)
            .map_or(f64::NAN, |r| r.0 as f64);
        out.metrics = vec![
            metric("setup_s", "s", setup_s),
            metric(
                "sim_kips",
                "kinst/s",
                total * s.secs.len() as f64 / s.secs.iter().sum::<f64>() / 1e3,
            ),
            metric("sim_ipc", "inst/cycle", s.last.map_or(f64::NAN, |c| c.ipc)),
        ];
        return out;
    }
    let half = ctx.duration() / 2;
    let plain = series(
        ctx,
        &template,
        start + half,
        &mut Tracer::new(ctx.epoch, false),
        &mut out,
    );
    let traced = series(ctx, &template, start + ctx.duration(), &mut tr, &mut out);
    tr.count("trace.untraced_op_s", median(&plain.secs));
    tr.count("trace.traced_op_s", median(&traced.secs));
    probe_layers(ctx, &template, &mut tr, &mut out);
    out.trace = Some(tr.finish());
    out
}

/// The layers of this workload in another workload's traced run: one
/// traced build, one traced estimate and the layer probes.
pub fn probe(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.epoch, true);
    let template = tr.time("workloads.build", 0, || {
        long_program(ctx.wseed, TARGET_INSTS)
    });
    series(ctx, &template, Instant::now(), &mut tr, &mut out);
    probe_layers(ctx, &template, &mut tr, &mut out);
    out.trace = Some(tr.finish());
    out
}

/// Times the sampler's layers one at a time on the same program: pure
/// emulation, functional warming, the BBV pre-pass and clustering,
/// checkpoint capture at the representative strata, and a run at one
/// worker thread per host core.
fn probe_layers(ctx: &Ctx, template: &Emulator, tr: &mut Tracer, out: &mut Outcome) {
    let mut emu = template.fork_rebased();
    tr.time("isa.step_all", 0, || while emu.step().is_some() {});
    tr.count("isa.steps", emu.executed() as f64);

    let mut warm = Core::new(template.fork_rebased(), config()).save_warm_state();
    let mut emu = template.fork_rebased();
    let mut chunk = Vec::with_capacity(1 << 16);
    for op in 0.. {
        chunk.clear();
        chunk.extend(std::iter::from_fn(|| emu.step()).take(1 << 16));
        if chunk.is_empty() {
            break;
        }
        tr.time("core.warm_step", op, || {
            chunk.iter().for_each(|d| warm.warm_step(d))
        });
        tr.count("core.warm_steps", chunk.len() as f64);
    }

    let bbvs = tr.time("sample.collect_bbvs", 0, || {
        collect_bbvs(template.fork_rebased(), PERIOD)
    });
    tr.count("sample.strata", bbvs.len() as f64);
    let reps = tr.time("sample.cluster_bbvs", 0, || {
        cluster_bbvs(&bbvs, PHASES, DEFAULT_JITTER_SEED)
    });

    let mut emu = template.fork_rebased();
    for (rep, _) in reps {
        let at = rep as u64 * PERIOD;
        while emu.executed() < at && emu.step().is_some() {}
        let ck = tr.time("isa.checkpoint", rep as u64, || emu.checkpoint());
        std::hint::black_box(ck);
    }

    sample_once(
        ctx,
        template,
        ctx.threads,
        "sample.run_sampled_parallel",
        0,
        tr,
        out,
    );
}

/// This workload's per-layer metrics from a traced run.
#[must_use]
pub fn layer_metrics(t: &Trace) -> Vec<Metric> {
    let per_estimate = |k: &str| t.count(k) / t.count("sample.estimates");
    let per_checked = |k: &str| t.count(k) / t.count("sample.checked");
    let serial_s = median(&t.self_ns("sample.run_sampled")) / 1e9;
    let parallel_s = t.total_self_s("sample.run_sampled_parallel");
    vec![
        metric(
            "isa.functional_mips",
            "Minst/s",
            t.count("isa.steps") / t.total_self_s("isa.step_all") / 1e6,
        ),
        metric(
            "core.warm_step_mips",
            "Minst/s",
            t.count("core.warm_steps") / t.total_self_s("core.warm_step") / 1e6,
        ),
        metric(
            "isa.checkpoint_ms",
            "ms",
            median(&t.self_ns("isa.checkpoint")) / 1e6,
        ),
        metric("sample.bbv_s", "s", t.total_self_s("sample.collect_bbvs")),
        metric(
            "sample.cluster_ms",
            "ms",
            t.total_self_s("sample.cluster_bbvs") * 1e3,
        ),
        metric("sample.serial_s", "s", serial_s),
        metric("sample.parallel_s", "s", parallel_s),
        metric("sample.parallel_speedup", "ratio", serial_s / parallel_s),
        metric("sample.strata", "count", t.count("sample.strata")),
        metric(
            "sample.intervals",
            "count",
            per_estimate("sample.intervals"),
        ),
        metric(
            "sample.detail_fraction",
            "ratio",
            per_estimate("sample.detail_fraction"),
        ),
        metric("sample.ipc_err_pct", "%", per_checked("sample.ipc_err_pct")),
        metric("sample.ci95_pct", "%", per_checked("sample.ci95_pct")),
    ]
}
