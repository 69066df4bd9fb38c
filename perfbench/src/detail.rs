//! `detail_busy`: full-detail runs of three busy kernels on the paper's
//! baseline and on Orinoco, each to its natural halt.
//!
//! Select/issue and the commit walks do most of the work here and the
//! idle-cycle fast-forward skips little; `hashjoin_like` adds wrong-path
//! work, and Ultra's 224-entry IQ and 512-entry ROB take the multi-word
//! matrix paths. Cores are built during set-up and reset (to a state
//! identical to a fresh core, caches empty) between passes.

use crate::refs::Refs;
use crate::stats::{fastest, median};
use crate::trace::{Trace, Tracer};
use crate::{catch, metric, Ctx, Metric, Outcome};
use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind, SimStats, StallCause};
use orinoco_isa::Emulator;
use orinoco_server::protocol::fnv64;
use orinoco_workloads::Workload;
use std::time::Instant;

/// The kernels, at scale 1 (0.18–0.36M instructions each).
pub const KERNELS: [Workload; 3] = [
    Workload::GemmLike,
    Workload::ExchangeLike,
    Workload::HashjoinLike,
];

/// Cycle budget of one run; every kernel halts far below it.
const MAX_CYCLES: u64 = 100_000_000;

/// The three configurations: Base Age+IOC (the paper's baseline), Base
/// Orinoco (scheduler and commit) and Ultra Orinoco.
#[must_use]
pub fn configs() -> [(&'static str, CoreConfig); 3] {
    let orinoco = |c: CoreConfig| {
        c.with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco)
    };
    [
        (
            "age_ioc",
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Age)
                .with_commit(CommitKind::InOrder),
        ),
        ("orinoco", orinoco(CoreConfig::base())),
        ("ultra_orinoco", orinoco(CoreConfig::ultra())),
    ]
}

/// Digest of a run's complete statistics.
#[must_use]
pub fn digest(stats: &SimStats) -> u64 {
    fnv64(format!("{stats:?}").as_bytes())
}

/// Recomputes the `detail` references of workload seed `wseed` on fresh
/// cores.
pub fn derive(wseed: u64, out: &mut Refs) {
    for k in KERNELS {
        for (name, cfg) in configs() {
            let stats = Core::new(k.build(wseed, 1), cfg).run(MAX_CYCLES).clone();
            out.detail
                .insert((wseed, k.name().into(), name.into()), digest(&stats));
        }
    }
}

/// One (kernel, config) pair with its program template, its core, and
/// the `Core::run` times measured on it.
pub struct Slot {
    kernel: Workload,
    cfg: &'static str,
    template: Emulator,
    core: Core,
    span: String,
    fresh: bool,
    times: Vec<f64>,
    committed: u64,
    cycles: u64,
}

/// Builds every program and core, timing `Workload::build` and `Core::new`.
pub fn setup(ctx: &Ctx, tr: &mut Tracer) -> Vec<Slot> {
    let mut slots = Vec::new();
    for k in KERNELS {
        let template = tr.time("workloads.build", 0, || k.build(ctx.wseed, 1));
        for (name, cfg) in configs() {
            let emu = template.fork_rebased();
            let core = tr.time("core.new", 0, || Core::new(emu, cfg));
            let span = format!("core.run/{name}/{}", k.name());
            let template = template.fork_rebased();
            slots.push(Slot {
                kernel: k,
                cfg: name,
                template,
                core,
                span,
                fresh: true,
                times: Vec::new(),
                committed: 0,
                cycles: 0,
            });
        }
    }
    slots
}

/// Outcome of one pass over every slot.
#[derive(Default)]
pub struct Pass {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that panicked or whose digest differed from the reference.
    pub failures: Vec<String>,
    /// Seconds spent in `Core::run`.
    pub secs: f64,
}

/// Runs every slot once, in `order`, checking each run's digest.
pub fn pass(ctx: &Ctx, slots: &mut [Slot], order: &[usize], op: u64, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    for &i in order {
        let s = &mut slots[i];
        if !s.fresh {
            s.core.reset(s.template.fork_rebased());
        }
        s.fresh = false;
        let t = Instant::now();
        let id = tr.open(&s.span, op);
        let run = catch(|| s.core.run(MAX_CYCLES).clone());
        tr.close(id);
        let secs = t.elapsed().as_secs_f64();
        p.attempted += 1;
        let label = format!("detail {} {} (pass {op})", s.kernel.name(), s.cfg);
        let stats = match run {
            Ok(stats) => stats,
            Err(e) => {
                p.failures.push(format!("{label}: panicked: {e}"));
                continue;
            }
        };
        match ctx
            .refs
            .detail
            .get(&(ctx.wseed, s.kernel.name().into(), s.cfg.into()))
        {
            Some(&want) if want == digest(&stats) => {}
            Some(_) => p.failures.push(format!(
                "{label}: SimStats digest differs from the reference"
            )),
            None => p.failures.push(format!(
                "{label}: no reference for workload seed {}",
                ctx.wseed
            )),
        }
        s.times.push(secs);
        s.committed = stats.committed;
        s.cycles = stats.cycles;
        p.secs += secs;
        if tr.enabled() {
            count_stats(tr, &format!("{}/{}", s.cfg, s.kernel.name()), &stats);
        }
    }
    p
}

fn count_stats(tr: &mut Tracer, key: &str, s: &SimStats) {
    let fields = [
        ("committed", s.committed),
        ("cycles", s.cycles),
        ("squashed", s.squashed),
        ("iq_ready_sum", s.iq_ready_sum),
        ("iq_occ_sum", s.iq_occ_sum),
        ("rob_occ_sum", s.rob_occ_sum),
        ("issue_conflict_cycles", s.issue_conflict_cycles),
        ("ooo_commits", s.ooo_commits),
        ("mispredicts", s.fetch.mispredicts),
        ("l1_misses", s.mem.l1_misses),
    ];
    for (f, v) in fields {
        tr.count(&format!("core.{f}/{key}"), v as f64);
    }
    for c in StallCause::ALL {
        tr.count(
            &format!("core.stall.{}/{key}", c.label()),
            s.stall_taxonomy.count(c) as f64,
        );
    }
}

/// Committed kinst per second over every slot, each at its fastest
/// `Core::run` time in the run.
fn kips(slots: &[Slot]) -> f64 {
    let (insts, secs) = slots.iter().fold((0u64, 0.0), |(i, t), s| {
        (i + s.committed, t + fastest(&s.times))
    });
    insts as f64 / secs / 1e3
}

/// Passes until `deadline` (at least `min` of them); returns each pass's
/// `Core::run` seconds.
fn passes(
    ctx: &Ctx,
    slots: &mut [Slot],
    deadline: Instant,
    min: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut rng = orinoco_util::Rng::seed_from_u64(ctx.seed ^ 0xDE7A_11ED);
    let mut order: Vec<usize> = (0..slots.len()).collect();
    let mut per_pass = Vec::new();
    while (per_pass.len() as u64) < min || Instant::now() < deadline {
        rng.shuffle(&mut order);
        let p = pass(ctx, slots, &order, out.attempted / slots.len() as u64, tr);
        out.attempted += p.attempted;
        out.failed += p.failures.len() as u64;
        out.failures.extend(p.failures);
        per_pass.push(p.secs);
    }
    per_pass
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.epoch, ctx.trace);
    let (setup_s, mut slots) = crate::repeat_setup(|| setup(ctx, &mut tr));
    let start = Instant::now();
    if !ctx.trace {
        passes(
            ctx,
            &mut slots,
            start + ctx.duration(),
            3,
            &mut tr,
            &mut out,
        );
        let (insts, cycles) = slots
            .iter()
            .fold((0, 0), |(i, c), s| (i + s.committed, c + s.cycles));
        out.metrics = vec![
            metric("setup_s", "s", setup_s),
            metric("sim_kips", "kinst/s", kips(&slots)),
            metric("sim_ipc", "inst/cycle", insts as f64 / cycles as f64),
        ];
        return out;
    }
    // Traced: the first half runs untraced, the second traced, so the
    // difference is the tracing overhead.
    let mut off = Tracer::new(ctx.epoch, false);
    let plain = passes(
        ctx,
        &mut slots,
        start + ctx.duration() / 2,
        1,
        &mut off,
        &mut out,
    );
    let traced = traced_passes(ctx, &mut slots, start + ctx.duration(), &mut tr, &mut out);
    tr.count("trace.untraced_op_s", median(&plain));
    tr.count("trace.traced_op_s", median(&traced));
    out.trace = Some(tr.finish());
    out
}

/// Traced passes until `deadline` (at least one), counted for
/// [`layer_metrics`]; returns each pass's `Core::run` seconds.
fn traced_passes(
    ctx: &Ctx,
    slots: &mut [Slot],
    deadline: Instant,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let per_pass = passes(ctx, slots, deadline, 1, tr, out);
    tr.count("passes", per_pass.len() as f64);
    per_pass
}

/// The layers of this workload in another workload's traced run: one
/// traced set-up and one traced pass.
pub fn probe(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(ctx.epoch, true);
    let mut slots = setup(ctx, &mut tr);
    traced_passes(ctx, &mut slots, Instant::now(), &mut tr, &mut out);
    out.trace = Some(tr.finish());
    out
}

/// This workload's per-layer metrics from a traced run.
#[must_use]
pub fn layer_metrics(t: &Trace) -> Vec<Metric> {
    let runs: Vec<(String, f64)> = {
        let own = t.self_times();
        t.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name.starts_with("core.run/"))
            .map(|(s, ns)| (s.name.clone(), ns as f64))
            .collect()
    };
    // Sum of a counter over every (config, kernel) key containing `part`.
    let sum = |field: &str, part: &str| -> f64 {
        t.counts
            .iter()
            .filter(|(k, _)| k.starts_with(&format!("core.{field}/")) && k.contains(part))
            .map(|(_, v)| v)
            .sum()
    };
    let run_ns = |part: &str| -> f64 {
        runs.iter()
            .filter(|(n, _)| n.contains(part))
            .map(|(_, ns)| ns)
            .sum()
    };
    let ns_per_inst = |part: &str| run_ns(part) / sum("committed", part);
    let cycles = sum("cycles", "/");
    let committed = sum("committed", "/");
    let mut m = Vec::new();
    for (cfg, _) in configs() {
        m.push(metric(
            format!("core.ns_per_inst.{cfg}"),
            "ns",
            ns_per_inst(&format!("/{cfg}/")),
        ));
    }
    for k in KERNELS {
        m.push(metric(
            format!("core.ns_per_inst.{}", k.name()),
            "ns",
            ns_per_inst(&format!("/{}", k.name())),
        ));
    }
    m.push(metric("core.ns_per_cycle", "ns", run_ns("/") / cycles));
    m.push(metric(
        "core.sim_cycles",
        "count",
        cycles / t.count("passes"),
    ));
    let squashed = sum("squashed", "/");
    m.push(metric(
        "core.squash_ratio",
        "ratio",
        squashed / (squashed + committed),
    ));
    m.push(metric(
        "core.iq_ready_per_cycle",
        "count",
        sum("iq_ready_sum", "/") / cycles,
    ));
    m.push(metric(
        "core.iq_occupancy",
        "count",
        sum("iq_occ_sum", "/") / cycles,
    ));
    m.push(metric(
        "core.rob_occupancy",
        "count",
        sum("rob_occ_sum", "/") / cycles,
    ));
    m.push(metric(
        "core.issue_conflict_share",
        "ratio",
        sum("issue_conflict_cycles", "/") / cycles,
    ));
    m.push(metric(
        "core.ooo_commit_share",
        "ratio",
        sum("ooo_commits", "/") / committed,
    ));
    for c in StallCause::ALL {
        let name = format!("core.stall_share.{}", c.label().replace('-', "_"));
        m.push(metric(
            name,
            "ratio",
            sum(&format!("stall.{}", c.label()), "/") / cycles,
        ));
    }
    m.push(metric(
        "frontend.branch_mpki",
        "1/kinst",
        sum("mispredicts", "/") * 1e3 / committed,
    ));
    m.push(metric(
        "mem.l1_mpki",
        "1/kinst",
        sum("l1_misses", "/") * 1e3 / committed,
    ));
    m
}
