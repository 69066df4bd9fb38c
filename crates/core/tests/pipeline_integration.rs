//! End-to-end pipeline tests: every scheduler and commit policy drains
//! real workloads to completion with exact architectural bookkeeping
//! (enforced inside `Core::run`), and the relative performance shapes of
//! the paper hold.

use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_workloads::Workload;

const MAX_CYCLES: u64 = 200_000_000;

fn run(w: Workload, cfg: CoreConfig) -> orinoco_core::SimStats {
    let emu = w.build(13, 1);
    let mut core = Core::new(emu, cfg);
    core.run(MAX_CYCLES).clone()
}

fn run_small(w: Workload, cfg: CoreConfig) -> orinoco_core::SimStats {
    // Integration tests run unoptimised: keep runs short by capping the
    // emulator's dynamic length instead of rebuilding kernels.
    let mut emu = w.build(13, 1);
    emu.set_step_limit(12_000);
    let mut core = Core::new(emu, cfg);
    core.run(MAX_CYCLES).clone()
}

#[test]
fn every_scheduler_drains_cleanly() {
    for sched in SchedulerKind::ALL {
        let cfg = CoreConfig::base().with_scheduler(sched);
        let stats = run_small(Workload::ExchangeLike, cfg);
        assert!(stats.committed > 0, "{sched:?} committed nothing");
        assert!(stats.ipc() > 0.1, "{sched:?} ipc {}", stats.ipc());
    }
}

#[test]
fn every_commit_policy_drains_cleanly() {
    for commit in CommitKind::ALL {
        let cfg = CoreConfig::base().with_commit(commit);
        let stats = run_small(Workload::HashjoinLike, cfg);
        assert!(stats.committed > 0, "{commit:?} committed nothing");
    }
    // The ablations too.
    for cfg in [
        CoreConfig::base().with_commit(CommitKind::Vb).without_ecl(),
        CoreConfig::base().with_commit(CommitKind::Br).without_ecl(),
        CoreConfig::base().with_commit(CommitKind::Spec).without_rob_reclaim(),
    ] {
        let stats = run_small(Workload::HashjoinLike, cfg);
        assert!(stats.committed > 0);
    }
}

#[test]
fn all_workloads_drain_on_the_full_design() {
    let cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco);
    for w in Workload::ALL {
        let stats = run_small(w, cfg.clone());
        assert!(stats.committed > 10_000, "{w} committed {}", stats.committed);
    }
}

#[test]
fn vb_capacity_gates_post_commit_execution() {
    // Shrinking the validation buffer must not break anything and must
    // not help performance.
    let mut tiny = CoreConfig::base().with_commit(CommitKind::Vb);
    tiny.vb_entries = 2;
    let big = CoreConfig::base().with_commit(CommitKind::Vb);
    let a = run_small(Workload::StreamLike, tiny);
    let b = run_small(Workload::StreamLike, big);
    assert!(a.ipc() <= b.ipc() * 1.01, "tiny VB {} vs default {}", a.ipc(), b.ipc());
}

#[test]
fn shift_and_orinoco_schedule_identically() {
    // The collapsible queue and the bit-count age matrix produce the same
    // ideal issue order; their IPC must match exactly.
    let a = run_small(
        Workload::XzLike,
        CoreConfig::base().with_scheduler(SchedulerKind::Shift),
    );
    let b = run_small(
        Workload::XzLike,
        CoreConfig::base().with_scheduler(SchedulerKind::Orinoco),
    );
    assert_eq!(a.cycles, b.cycles, "SHIFT {} vs Orinoco {}", a.cycles, b.cycles);
}

#[test]
fn ordered_issue_beats_random() {
    // RAND perturbs the temporal ordering; ideal ordering should not lose.
    let rand = run_small(
        Workload::MixLike,
        CoreConfig::base().with_scheduler(SchedulerKind::Rand),
    );
    let orinoco = run_small(
        Workload::MixLike,
        CoreConfig::base().with_scheduler(SchedulerKind::Orinoco),
    );
    assert!(
        orinoco.ipc() >= rand.ipc() * 0.98,
        "orinoco {} vs rand {}",
        orinoco.ipc(),
        rand.ipc()
    );
}

#[test]
fn ooo_commit_beats_in_order_on_divide_chains() {
    // mix_like parks divides at the ROB head: the canonical win for
    // unordered commit.
    let ioc = run_small(Workload::MixLike, CoreConfig::base());
    let ooo = run_small(
        Workload::MixLike,
        CoreConfig::base().with_commit(CommitKind::Orinoco),
    );
    assert!(
        ooo.ipc() > ioc.ipc() * 1.02,
        "ooo {} should beat ioc {}",
        ooo.ipc(),
        ioc.ipc()
    );
}

#[test]
fn ooo_commit_reduces_full_window_stalls() {
    let ioc = run_small(Workload::LinkedlistLike, CoreConfig::base());
    let ooo = run_small(
        Workload::LinkedlistLike,
        CoreConfig::base().with_commit(CommitKind::Orinoco),
    );
    let a = ioc.dispatch_stalls.full_window_stalls();
    let b = ooo.dispatch_stalls.full_window_stalls();
    assert!(b < a, "full-window stalls {b} should drop below {a}");
}

#[test]
fn exceptions_are_handled_precisely() {
    let mut cfg = CoreConfig::base().with_commit(CommitKind::Orinoco);
    cfg.pagefault_per_million = 500; // aggressive fault injection
    let stats = run_small(Workload::StreamLike, cfg);
    assert!(stats.exceptions > 0, "no faults injected");
    // Architectural checksum inside run() already proves precision; the
    // squashes must have re-executed everything exactly once.
    assert!(stats.squashed > 0);
}

#[test]
fn exceptions_with_in_order_commit_too() {
    let mut cfg = CoreConfig::base();
    cfg.pagefault_per_million = 500;
    let stats = run_small(Workload::XzLike, cfg);
    assert!(stats.exceptions > 0);
}

#[test]
fn replay_traps_fire_on_store_load_aliases() {
    // xz_like stores into locations it later reloads with short distance:
    // speculation past unresolved stores must occasionally replay.
    let stats = run_small(
        Workload::XzLike,
        CoreConfig::base().with_commit(CommitKind::Orinoco),
    );
    // Not asserting replays > 0 strictly (forwarding may win), but the
    // machinery must not deadlock and commits must be exact — enforced in
    // run(). Record the count for visibility.
    let _ = stats.replays;
}

#[test]
fn branch_heavy_workload_recovers_from_mispredicts() {
    let stats = run_small(Workload::PerlLike, CoreConfig::base());
    assert!(stats.fetch.mispredicts > 10, "perl_like should mispredict");
    assert!(stats.fetch.wrong_path_insts > 0, "wrong path never exercised");
    assert!(stats.squashed > 0);
}

#[test]
fn deterministic_across_runs() {
    let a = run_small(Workload::DeepsjengLike, CoreConfig::base());
    let b = run_small(Workload::DeepsjengLike, CoreConfig::base());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.fetch.mispredicts, b.fetch.mispredicts);
}

#[test]
fn pro_and_ultra_configs_run() {
    for cfg in [CoreConfig::pro(), CoreConfig::ultra()] {
        let stats = run_small(Workload::StencilLike, cfg);
        assert!(stats.committed > 10_000);
    }
}

#[test]
fn wider_core_is_not_slower() {
    let base = run_small(Workload::GemmLike, CoreConfig::base());
    let ultra = run_small(Workload::GemmLike, CoreConfig::ultra());
    assert!(
        ultra.ipc() >= base.ipc() * 0.95,
        "ultra {} vs base {}",
        ultra.ipc(),
        base.ipc()
    );
}

#[test]
fn criticality_scheduler_runs_and_tags() {
    let cfg = CoreConfig::base().with_scheduler(SchedulerKind::CriOrinoco);
    let stats = run_small(Workload::McfLike, cfg);
    assert!(stats.committed > 10_000);
}

#[test]
#[ignore = "long; run with --ignored or --include-ignored"]
fn full_length_run_on_one_workload() {
    // One full-length (scale 1) run to exercise long-horizon behaviour:
    // cache warmup, predictor saturation, MSHR churn.
    let stats = run(
        Workload::ExchangeLike,
        CoreConfig::base().with_commit(CommitKind::Orinoco),
    );
    assert!(stats.committed > 100_000);
    assert!(stats.ipc() > 0.5, "exchange_like ipc {}", stats.ipc());
}

#[test]
fn limited_commit_depth_caps_ooo_gains() {
    // §6.2: a limited commit depth hinders reaping the full benefit.
    let unlimited = run_small(
        Workload::MixLike,
        CoreConfig::base().with_commit(CommitKind::Orinoco),
    );
    let shallow = run_small(
        Workload::MixLike,
        CoreConfig::base()
            .with_commit(CommitKind::Orinoco)
            .with_commit_depth(8),
    );
    let ioc = run_small(Workload::MixLike, CoreConfig::base());
    assert!(
        shallow.ipc() <= unlimited.ipc() * 1.001,
        "depth-8 {} should not beat unlimited {}",
        shallow.ipc(),
        unlimited.ipc()
    );
    assert!(
        shallow.ipc() >= ioc.ipc() * 0.999,
        "depth-8 {} should not lose to IOC {}",
        shallow.ipc(),
        ioc.ipc()
    );
}

#[test]
fn commit_depth_of_commit_width_approximates_in_order() {
    // Scanning only the CW oldest entries gives in-order-like behaviour:
    // same bandwidth, tiny reordering freedom within the window.
    let cfg = CoreConfig::base();
    let cw = cfg.commit_width;
    let shallow = run_small(
        Workload::StreamLike,
        cfg.clone().with_commit(CommitKind::Orinoco).with_commit_depth(cw),
    );
    let ioc = run_small(Workload::StreamLike, cfg);
    let ratio = shallow.ipc() / ioc.ipc();
    assert!(
        (0.95..=1.15).contains(&ratio),
        "depth-CW {} vs IOC {}",
        shallow.ipc(),
        ioc.ipc()
    );
}

#[test]
fn banked_dispatch_runs_and_costs_little() {
    let plain = run_small(Workload::ExchangeLike, CoreConfig::base());
    let banked = run_small(
        Workload::ExchangeLike,
        CoreConfig::base().with_banked_dispatch(),
    );
    // §4.3: the single write port per bank costs almost nothing here,
    // because the banks split the ROB's physical slots.
    assert!(
        banked.ipc() >= plain.ipc() * 0.97,
        "banked {} vs plain {}",
        banked.ipc(),
        plain.ipc()
    );
    assert_eq!(banked.committed, plain.committed);
}

#[test]
fn calls_and_returns_use_the_ras() {
    // A call/return-heavy program: `jal` pushes the RAS, `jalr` pops it.
    // With a 16-deep RAS and call depth 1, returns should be predicted
    // nearly perfectly; the run must drain with exact commit bookkeeping.
    use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
    let mut b = ProgramBuilder::new();
    let x = |i: u8| ArchReg::int(i);
    let (ctr, ra, acc) = (x(1), x(2), x(3));
    b.li(ctr, 2_000);
    let top = b.label();
    let func = b.label();
    b.bind(top);
    b.jal(ra, func); // call
    b.addi(ctr, ctr, -1);
    b.bne(ctr, ArchReg::ZERO, top);
    b.halt();
    b.bind(func);
    b.addi(acc, acc, 1);
    b.xor(acc, acc, ctr);
    b.jalr(ArchReg::ZERO, ra); // return
    let emu = Emulator::new(b.build(), 4096);

    let mut core = Core::new(emu, CoreConfig::base().with_commit(CommitKind::Orinoco));
    let stats = core.run(MAX_CYCLES);
    assert!(stats.committed > 10_000);
    assert!(stats.fetch.branches > 4_000);
    // Returns predicted by the RAS: mispredict rate must be tiny.
    let rate = stats.fetch.mispredicts as f64 / stats.fetch.branches as f64;
    assert!(rate < 0.02, "RAS should make returns predictable: {rate}");
}

#[test]
fn deep_recursion_overflows_the_ras_gracefully() {
    // Call depth 24 exceeds the 16-entry RAS: the oldest entries are
    // lost, so some returns mispredict — but the pipeline must still
    // recover precisely every time.
    use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
    let mut b = ProgramBuilder::new();
    let x = |i: u8| ArchReg::int(i);
    let (ctr, depth, sp, tmp) = (x(1), x(2), x(10), x(4));
    // Iterative "recursion": push return indices onto a software stack via
    // jal chains of depth 24.
    b.li(ctr, 300);
    let top = b.label();
    b.bind(top);
    b.li(depth, 24);
    b.li(sp, 2048);
    let call_loop = b.label();
    let unwind = b.label();
    let fn_lbl = b.label();
    b.bind(call_loop);
    b.jal(x(3), fn_lbl);
    b.addi(depth, depth, -1);
    b.bne(depth, ArchReg::ZERO, call_loop);
    b.jal(ArchReg::ZERO, unwind);
    b.bind(fn_lbl);
    b.st(x(3), sp, 0); // spill return index
    b.addi(sp, sp, 8);
    b.addi(tmp, tmp, 1);
    b.addi(sp, sp, -8);
    b.ld(x(3), sp, 0);
    b.jalr(ArchReg::ZERO, x(3));
    b.bind(unwind);
    b.addi(ctr, ctr, -1);
    b.bne(ctr, ArchReg::ZERO, top);
    b.halt();
    let emu = Emulator::new(b.build(), 8192);
    let mut core = Core::new(emu, CoreConfig::base());
    let stats = core.run(MAX_CYCLES);
    assert!(stats.committed > 10_000);
    // Precision is asserted inside run(); here we only require progress.
}

#[test]
fn split_iqs_run_and_cost_capacity_efficiency() {
    // §5: separate per-type IQs decentralise the matrices at the cost of
    // capacity efficiency — they must never *beat* the unified IQ by much
    // and typically trail it.
    let mut worse = 0;
    for w in [Workload::GemmLike, Workload::DeepsjengLike, Workload::XzLike] {
        let unified = run_small(w, CoreConfig::base());
        let split = run_small(w, CoreConfig::base().with_split_iq());
        assert!(
            split.ipc() <= unified.ipc() * 1.05,
            "{w}: split {} unexpectedly beats unified {}",
            split.ipc(),
            unified.ipc()
        );
        assert!(split.committed == unified.committed);
        if split.ipc() < unified.ipc() * 0.995 {
            worse += 1;
        }
    }
    assert!(worse >= 1, "capacity inefficiency should show somewhere");
}

#[test]
fn split_iqs_work_with_full_orinoco() {
    let cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
        .with_split_iq();
    let stats = run_small(Workload::MixLike, cfg);
    assert!(stats.committed > 10_000);
}

#[test]
fn tso_lockdowns_withhold_and_release_invalidation_acks() {
    // Drive the gather workload under Orinoco commit while a simulated
    // remote core invalidates lines — including ones under lockdown.
    let mut emu = Workload::LinkedlistLike.build(3, 1);
    emu.set_step_limit(15_000);
    let cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco);
    let mut core = Core::new(emu, cfg);
    let mut withheld = 0u64;
    let mut engaged = false;
    while !core.finished() && core.cycle() < 50_000_000 {
        core.step();
        if core.active_lockdowns() > 0 {
            engaged = true;
        }
        if core.cycle().is_multiple_of(32) {
            if let Some(line) = core.any_locked_line() {
                // An invalidation to a locked line must NOT be acked now.
                let ack_now = core.apply_remote_invalidation(line);
                assert!(!ack_now, "lockdown leaked an ack");
                withheld += 1;
            }
        }
    }
    assert!(engaged, "lockdowns never engaged");
    assert!(withheld > 0, "no invalidation ever hit a locked line");
    // The run drained: every withheld ack was eventually released (the
    // lockdown table panics on leaked releases), and every instruction,
    // replays included, committed exactly once.
    assert!(core.finished(), "the run did not drain");
    assert_eq!(core.active_lockdowns(), 0, "lockdowns leaked at drain");
    core.finalize_run_stats();
}
