//! Idle-cycle fast-forward (DESIGN.md §10) correctness tests.
//!
//! Two angles:
//!
//! 1. **Property test of the next-event computation**: on random programs
//!    and memory-bound workloads, drive a fast-forward-*disabled* core one
//!    cycle at a time as the naive reference. Whenever the core reports a
//!    frozen state with next event `ne` (via `debug_frozen_next_event`),
//!    every naive step strictly before `ne` must keep the machine frozen
//!    with the *same* next event and commit nothing — i.e. the cycles the
//!    fast-forward would skip are provably dead.
//! 2. **Observational equivalence on real workloads**: full runs with
//!    fast-forward on and off must produce byte-identical lifecycle-trace
//!    JSONL and identical `SimStats` (the verif `ffeq` campaign covers the
//!    same property over fuzz programs and rotated configurations).

use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
use orinoco_util::Rng;
use orinoco_workloads::Workload;

fn x(i: u8) -> ArchReg {
    ArchReg::int(i)
}

fn orinoco_cfg() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

/// A small random program with loads scattered over a region large enough
/// to miss in the caches, so frozen (memory-latency-bound) windows occur.
fn random_missy_program(rng: &mut Rng) -> Emulator {
    let mut b = ProgramBuilder::new();
    for i in 1..8u8 {
        b.li(x(i), rng.gen_range(-100..100));
    }
    b.li(x(10), 0);
    let trips = rng.gen_range(30..80);
    b.li(x(15), trips);
    let top = b.label();
    b.bind(top);
    for _ in 0..rng.gen_range(2..6) {
        let rd = x(rng.gen_range(1..8));
        match rng.gen_range(0..4) {
            0 => {
                // Dependent far load: next address derives from the data.
                b.ld(rd, x(10), rng.gen_range(0..64) * 8);
                b.xor(x(10), x(10), rd);
                b.slli(x(10), x(10), 3);
                b.andi(x(10), x(10), 0x3F_FFF8);
            }
            1 => {
                b.add(rd, rd, x(rng.gen_range(1..8)));
            }
            2 => {
                b.mul(rd, rd, x(rng.gen_range(1..8)));
            }
            _ => {
                b.st(rd, x(10), rng.gen_range(0..64) * 8);
            }
        }
    }
    b.addi(x(15), x(15), -1);
    b.bne(x(15), ArchReg::ZERO, top);
    b.halt();
    let mut emu = Emulator::new(b.build(), 8 << 20);
    for i in 0..(1u64 << 14) {
        emu.store_word(i * 8, rng.gen::<u64>() & 0x3F_FFF8);
    }
    emu
}

/// Naive reference check: steps `core` (fast-forward disabled) to
/// completion; inside every frozen window the machine must stay frozen
/// with an unchanged next event and zero commits until the event cycle.
/// Returns the number of frozen windows observed and the cycles they
/// span — the cycles fast-forward would skip.
fn check_frozen_windows(mut core: Core, max_cycles: u64) -> (u64, u64) {
    let mut windows = 0u64;
    let mut frozen_cycles = 0u64;
    while !core.finished() && core.cycle() < max_cycles {
        core.step();
        let Some(ne) = core.debug_frozen_next_event() else {
            continue;
        };
        assert!(ne >= core.cycle(), "next event {ne} in the past at cycle {}", core.cycle());
        assert!(
            ne - core.cycle() < 1_000_000,
            "next event {ne} unreasonably far from cycle {} (deadlock?)",
            core.cycle()
        );
        if ne > core.cycle() {
            windows += 1;
            frozen_cycles += ne - core.cycle();
        }
        // The skipped range [cycle, ne) must be provably dead: frozen,
        // same next event, nothing committed.
        while core.cycle() < ne {
            let committed = core.stats().committed;
            core.step();
            assert_eq!(
                core.stats().committed,
                committed,
                "commit inside a window fast-forward would skip (cycle {})",
                core.cycle()
            );
            if core.cycle() < ne {
                assert_eq!(
                    core.debug_frozen_next_event(),
                    Some(ne),
                    "frozen state not stable at cycle {} (window ends {ne})",
                    core.cycle()
                );
            }
        }
    }
    assert!(core.finished(), "reference run did not finish in {max_cycles} cycles");
    (windows, frozen_cycles)
}

#[test]
fn next_event_matches_naive_reference_on_random_programs() {
    let mut rng = Rng::seed_from_u64(0xFF_1D1E);
    let mut total_windows = 0u64;
    for _ in 0..8 {
        let emu = random_missy_program(&mut rng);
        let core = Core::new(emu, orinoco_cfg().without_fast_forward());
        total_windows += check_frozen_windows(core, 10_000_000).0;
    }
    assert!(total_windows > 0, "no frozen window ever engaged; property vacuous");
}

#[test]
fn next_event_matches_naive_reference_on_memlat() {
    let mut emu = Workload::MemlatLike.build(13, 1);
    emu.set_step_limit(3_000);
    let core = Core::new(emu, orinoco_cfg().without_fast_forward());
    let (windows, _) = check_frozen_windows(core, 10_000_000);
    assert!(windows > 10, "memlat_like produced only {windows} frozen windows");
}

/// Full run with tracing; returns the trace JSONL and the stats Debug
/// rendering.
fn traced_run(workload: Workload, cfg: CoreConfig) -> (String, String) {
    let mut emu = workload.build(21, 1);
    emu.set_step_limit(8_000);
    let mut core = Core::new(emu, cfg);
    core.enable_tracing(1 << 16);
    let stats = format!("{:?}", core.run(100_000_000));
    let trace = core.take_tracer().map(|t| t.to_jsonl()).unwrap_or_default();
    (trace, stats)
}

#[test]
fn traces_and_stats_are_byte_identical_with_and_without_fast_forward() {
    for w in [Workload::MemlatLike, Workload::McfLike, Workload::MixLike] {
        let (trace_ff, stats_ff) = traced_run(w, orinoco_cfg());
        let (trace_off, stats_off) = traced_run(w, orinoco_cfg().without_fast_forward());
        assert!(!trace_ff.is_empty(), "{w}: empty trace");
        assert_eq!(stats_ff, stats_off, "{w}: SimStats diverge under fast-forward");
        assert_eq!(trace_ff, trace_off, "{w}: lifecycle trace diverges under fast-forward");
    }
}

#[test]
fn fast_forward_is_on_by_default_and_skips_on_memlat() {
    assert!(CoreConfig::base().fast_forward, "fast-forward should default on");
    assert!(!CoreConfig::base().without_fast_forward().fast_forward);
    // With fast-forward on, run() must reach the same cycle count the
    // naive reference reaches, on a workload dominated by frozen windows,
    // while stepping only the cycles outside those windows. Equal cycle
    // counts alone would hold with the skip switched off.
    let mut emu = Workload::MemlatLike.build(13, 1);
    emu.set_step_limit(10_000);
    let mut ff_core = Core::new(emu.clone(), orinoco_cfg());
    let ff_cycles = ff_core.run(100_000_000).cycles;
    let mut naive = Core::new(emu.clone(), orinoco_cfg().without_fast_forward());
    let naive_cycles = naive.run(100_000_000).cycles;
    assert_eq!(ff_cycles, naive_cycles);
    assert_eq!(naive.debug_steps(), naive_cycles, "without fast-forward every cycle is a step");
    let (_, frozen_cycles) =
        check_frozen_windows(Core::new(emu, orinoco_cfg().without_fast_forward()), 100_000_000);
    let steps = ff_core.debug_steps();
    assert_eq!(steps, ff_cycles - frozen_cycles, "fast-forward stepped a frozen cycle");
    assert!(
        steps * 3 <= ff_cycles,
        "fast-forward stepped {steps} of {ff_cycles} cycles; memlat_like should skip over 2/3"
    );
}
