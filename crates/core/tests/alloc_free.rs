//! Regression test for the allocation-free hot loop: after warmup, a
//! steady-state `Core::step` must perform **zero heap allocations** —
//! every per-cycle working set (selection scratch, commit windows, squash
//! lists, store-data waiters, fetch batches) lives in buffers owned by
//! the pipeline structures and is reused cycle after cycle.
//!
//! The binary installs [`orinoco_util::alloc_counter::CountingAlloc`] as
//! the global allocator and snapshots the calling thread's counter around
//! a measured run: the two tests run concurrently, and a process-wide
//! count would pick up the other test's allocations.
//! The kernel mixes ALU ops, long-latency multiplies, and data-dependent
//! (hence mispredicting) branches, so the measured window exercises the
//! issue, wakeup, unordered-commit, squash and re-inject paths — not just
//! the easy straight-line case.
//!
//! Both tracing states are covered: with the lifecycle tracer left
//! disabled (the default — the `Option<Box<Tracer>>` guard must stay off
//! the allocation path entirely) and with it enabled (the ring buffer is
//! allocated once at `enable_tracing` time; recording, including
//! overwrite once the ring is full, must not allocate again).

use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
use orinoco_util::alloc_counter::{thread_alloc_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An ALU + branch kernel with a register-resident LCG driving a
/// data-dependent branch: mispredicts (and thus squashes and re-injects)
/// keep happening in steady state, with no memory traffic that could hit
/// allocation paths in the cache model.
fn alu_branch_kernel(iters: i64) -> Emulator {
    let mut b = ProgramBuilder::new();
    let x = |i: u8| ArchReg::int(i);
    let (ctr, lcg, acc, bit, tmp) = (x(1), x(2), x(3), x(4), x(5));
    let (mula, addc) = (x(6), x(7));
    let (d1, d2, dq) = (x(8), x(9), x(10));

    b.li(ctr, iters);
    b.li(lcg, 0x2545_F491);
    b.li(acc, 0);
    b.li(mula, 6_364_136_223_846_793_005u64 as i64);
    b.li(addc, 1_442_695_040_888_963_407u64 as i64);
    b.li(d1, 0x7FFF_FFFF_FFFF);
    b.li(d2, 3);
    let top = b.label();
    let skip = b.label();
    b.bind(top);
    b.div(dq, d1, d2); //       independent long-latency op: younger ALU
    //                          work commits out of order past it.
    b.mul(lcg, lcg, mula); //   LCG step: long-latency mul on the
    b.add(lcg, lcg, addc); //   critical path keeps the window full.
    b.srli(bit, lcg, 33);
    b.andi(bit, bit, 1);
    b.add(acc, acc, lcg);
    b.xor(tmp, acc, lcg);
    b.beq(bit, ArchReg::ZERO, skip); // data-dependent: ~50% taken
    b.addi(acc, acc, 3);
    b.sub(acc, acc, tmp);
    b.bind(skip);
    b.addi(ctr, ctr, -1);
    b.bne(ctr, ArchReg::ZERO, top);
    b.halt();
    Emulator::new(b.build(), 1 << 16)
}

fn measure_steady_state(core: &mut Core) -> u64 {
    // Warmup: let every scratch buffer, queue and table reach its
    // steady-state capacity (including squash/re-inject paths).
    for _ in 0..50_000 {
        core.step();
    }
    assert!(!core.finished(), "kernel drained during warmup");

    // Positive control: the counter sees this thread's allocations, so a
    // zero below is a measurement, not a dead counter.
    let probe = thread_alloc_count();
    drop(std::hint::black_box(Box::new(0u64)));
    assert!(thread_alloc_count() > probe, "the thread allocation counter is not counting");

    const MEASURED: u64 = 20_000;
    if std::env::var_os("ORINOCO_ALLOC_TRAP").is_some() {
        orinoco_util::alloc_counter::trap_on_next_alloc(true);
    }
    let before = thread_alloc_count();
    for _ in 0..MEASURED {
        core.step();
    }
    orinoco_util::alloc_counter::trap_on_next_alloc(false);
    let allocs = thread_alloc_count() - before;

    assert!(!core.finished(), "kernel drained during measurement");
    let stats = core.stats();
    assert!(stats.squashed > 0, "kernel never exercised the squash path");
    assert!(stats.ooo_commits > 0, "kernel never committed out of order");
    allocs
}

/// Tracing compiled in but **disabled** (the shipping default): the
/// steady-state cycle must not allocate at all.
#[test]
fn steady_state_cycle_is_allocation_free() {
    let cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco);
    let mut core = Core::new(alu_branch_kernel(4_000_000), cfg);
    let allocs = measure_steady_state(&mut core);
    assert_eq!(
        allocs, 0,
        "steady-state Core::step allocated {allocs} times over the measured window"
    );
}

/// Tracing **enabled**: the ring buffer is the one allocation, made up
/// front by `enable_tracing`; recording events — including overwriting
/// the oldest once the ring wraps — must stay allocation-free.
#[test]
fn steady_state_cycle_is_allocation_free_with_tracing_enabled() {
    let cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco);
    let mut core = Core::new(alu_branch_kernel(4_000_000), cfg);
    // Small ring: guarantees the measured window runs in overwrite mode.
    core.enable_tracing(1 << 12);
    let allocs = measure_steady_state(&mut core);
    let tracer = core.tracer().expect("tracing enabled");
    assert!(tracer.dropped() > 0, "ring never wrapped; overwrite path untested");
    assert!(tracer.total() > 100_000, "tracer recorded implausibly few events");
    assert_eq!(
        allocs, 0,
        "traced Core::step allocated {allocs} times over the measured window"
    );
}

