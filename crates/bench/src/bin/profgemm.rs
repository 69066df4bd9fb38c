//! Profiling harness: runs one full-detail configuration over the busy
//! kernels, each to its natural halt, in a loop, so a sampling profiler
//! can attribute where simulator time goes under that configuration:
//!
//! ```text
//! profgemm [age_ioc|orinoco|ultra_orinoco] [gemm_like|exchange_like|hashjoin_like|all] [iters]
//! gprofng collect app ./target/release/profgemm age_ioc all 5
//! ```
//!
//! The configurations (Base Age+IOC, Base Orinoco, Ultra Orinoco) and the
//! kernels (workload seed 1, scale 1) are those of perfbench's
//! `detail_busy` workload. Defaults: `orinoco all 3`. Each kernel runs
//! `iters` times on one core, reset to a fresh state between runs; the
//! best run's wall time per committed instruction is printed with its
//! cycle count, which doubles as a behavioural checksum while
//! optimising: it must not change unless simulated behaviour does.

use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_workloads::Workload;
use std::process::ExitCode;
use std::time::Instant;

/// The kernels, as in `detail_busy`.
const KERNELS: [Workload; 3] = [
    Workload::GemmLike,
    Workload::ExchangeLike,
    Workload::HashjoinLike,
];

/// Cycle budget of one run; every kernel halts far below it.
const MAX_CYCLES: u64 = 100_000_000;

fn config(name: &str) -> Option<CoreConfig> {
    let orinoco = |c: CoreConfig| {
        c.with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco)
    };
    match name {
        "age_ioc" => Some(
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Age)
                .with_commit(CommitKind::InOrder),
        ),
        "orinoco" => Some(orinoco(CoreConfig::base())),
        "ultra_orinoco" => Some(orinoco(CoreConfig::ultra())),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg_name = args.first().map_or("orinoco", String::as_str);
    let kernel = args.get(1).map_or("all", String::as_str);
    let iters = args
        .get(2)
        .map_or(Some(3), |s| s.parse::<u32>().ok().filter(|&n| n > 0));
    let kernels: Vec<Workload> = KERNELS
        .into_iter()
        .filter(|k| kernel == "all" || k.name() == kernel)
        .collect();
    let (Some(cfg), false, Some(iters)) = (config(cfg_name), kernels.is_empty(), iters) else {
        eprintln!(
            "usage: profgemm [age_ioc|orinoco|ultra_orinoco] \
             [gemm_like|exchange_like|hashjoin_like|all] [iters >= 1]"
        );
        return ExitCode::from(2);
    };
    let (mut total_s, mut total_insts) = (0.0, 0u64);
    for k in kernels {
        let template = k.build(1, 1);
        let mut core = Core::new(template.fork_rebased(), cfg.clone());
        let mut best = f64::INFINITY;
        let (mut insts, mut cycles) = (0, 0);
        for i in 0..iters {
            if i > 0 {
                core.reset(template.fork_rebased());
            }
            let t = Instant::now();
            let stats = core.run(MAX_CYCLES);
            best = best.min(t.elapsed().as_secs_f64());
            (insts, cycles) = (stats.committed, stats.cycles);
        }
        println!(
            "{cfg_name} {}: {insts} insts, {cycles} cycles, best of {iters}: {:.0} ns/inst",
            k.name(),
            best * 1e9 / insts as f64
        );
        total_s += best;
        total_insts += insts;
    }
    println!(
        "{cfg_name}: {:.0} ns/inst over the kernels",
        total_s * 1e9 / total_insts as f64
    );
    ExitCode::SUCCESS
}
