//! Integration tests for the unordered-commit invariants (§3.2): the
//! commit scheduler must never grant an instruction while an older live
//! instruction is still speculative, every correct-path instruction must
//! commit exactly once, and non-collapsible queue slots freed out of
//! order must never be read again stale.
//!
//! The pipeline is stepped manually (not via [`Core::run`]) so the naive
//! O(n²) cross-checks [`Core::debug_verify_commit_invariants`] and
//! [`Core::debug_verify_issue_order`] can run every cycle against the
//! live ROB and IQ state, independently of the walks and key rankings
//! they verify.

use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
use orinoco_util::Rng;

fn x(i: u8) -> ArchReg {
    ArchReg::int(i)
}

/// Small always-terminating random program (counted loop of mixed ops).
fn random_program(rng: &mut Rng) -> Emulator {
    let mut b = ProgramBuilder::new();
    for i in 1..10u8 {
        b.li(x(i), rng.gen_range(-1000..1000));
    }
    b.li(x(10), rng.gen_range(0..4096) & !7);
    b.li(x(15), rng.gen_range(10..40));
    let top = b.label();
    b.bind(top);
    for _ in 0..rng.gen_range(4..16) {
        let rd = x(rng.gen_range(1..10));
        let rs1 = x(rng.gen_range(1..11));
        let rs2 = x(rng.gen_range(1..11));
        match rng.gen_range(0..8) {
            0 => {
                b.add(rd, rs1, rs2);
            }
            1 => {
                b.mul(rd, rs1, rs2);
            }
            2 => {
                b.div(rd, rs1, rs2);
            }
            3 => {
                b.ld(rd, x(10), rng.gen_range(0..256) * 8);
            }
            4 => {
                b.st(rs1, x(10), rng.gen_range(0..256) * 8);
            }
            5 => {
                // Data-dependent forward branch: speculation pressure.
                let skip = b.label();
                b.andi(x(11), rs1, 3);
                b.bne(x(11), ArchReg::ZERO, skip);
                b.addi(rd, rd, 7);
                b.bind(skip);
            }
            6 => {
                b.fence();
            }
            _ => {
                b.xor(rd, rs1, rs2);
            }
        }
    }
    b.addi(x(15), x(15), -1);
    b.bne(x(15), ArchReg::ZERO, top);
    b.halt();
    let mut emu = Emulator::new(b.build(), 1 << 16);
    for i in 0..(1u64 << 10) {
        emu.store_word(i * 8, rng.gen::<u64>());
    }
    emu
}

fn tiny(mut cfg: CoreConfig) -> CoreConfig {
    cfg.rob_entries = 24;
    cfg.iq_entries = 12;
    cfg.lq_entries = 6;
    cfg.sq_entries = 5;
    cfg.phys_regs = 40;
    cfg.vb_entries = 4;
    cfg
}

/// Steps the core to completion, cross-checking the commit invariants
/// and the issue order every cycle. Returns (cycles, commit events).
fn run_checked(mut core: Core, max_cycles: u64) -> (u64, Vec<orinoco_core::CommitEvent>) {
    core.enable_commit_trace();
    let mut events = Vec::new();
    let mut cycles = 0;
    while !core.finished() {
        assert!(cycles < max_cycles, "deadlock after {cycles} cycles");
        core.step();
        cycles += 1;
        core.debug_verify_commit_invariants();
        core.debug_verify_issue_order();
        events.extend(core.drain_commit_trace());
    }
    assert_eq!(
        events.len() as u64,
        core.emulator().executed(),
        "commit count != architecturally executed count"
    );
    (cycles, events)
}

/// The scheduler never grants commit past an unresolved older speculative
/// instruction, on any cycle, across the stress configurations.
#[test]
fn never_commits_past_unresolved_older_speculative() {
    let mut rng = Rng::seed_from_u64(0x1217_0001);
    type ConfigMaker = fn() -> CoreConfig;
    let configs: [(&str, ConfigMaker); 7] = [
        ("orinoco-base", || {
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco)
        }),
        ("orinoco-tiny", || {
            tiny(
                CoreConfig::base()
                    .with_scheduler(SchedulerKind::Orinoco)
                    .with_commit(CommitKind::Orinoco),
            )
        }),
        ("orinoco-faults", || {
            let mut c = CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco);
            c.pagefault_per_million = 2_000;
            c
        }),
        ("agesched", || {
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Age)
                .with_commit(CommitKind::Orinoco)
        }),
        // The paper's baseline: the AGE select's single-oldest head and
        // in-order commit.
        ("age-ioc", || {
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Age)
                .with_commit(CommitKind::InOrder)
        }),
        // Criticality: the one place age order is not seq order.
        ("cri-age", || {
            CoreConfig::base()
                .with_scheduler(SchedulerKind::CriAge)
                .with_commit(CommitKind::InOrder)
        }),
        // Limited commit depth: the walk's depth-window path is
        // cross-checked against the matrix scan every cycle.
        ("orinoco-depth8", || {
            tiny(
                CoreConfig::base()
                    .with_scheduler(SchedulerKind::Orinoco)
                    .with_commit(CommitKind::Orinoco),
            )
            .with_commit_depth(8)
        }),
    ];
    for trial in 0..4 {
        let emu = random_program(&mut rng);
        for (label, mk) in configs {
            let core = Core::new(emu.clone(), mk());
            let (cycles, _) = run_checked(core, 10_000_000);
            assert!(cycles > 0, "trial {trial} {label}");
        }
    }
}

/// Every correct-path instruction commits exactly once: the sequence
/// numbers in the commit trace are dense (0..n with no gap and no
/// duplicate), even though their arrival order is scrambled.
#[test]
fn commit_trace_is_dense_and_exactly_once() {
    let mut rng = Rng::seed_from_u64(0x1217_0002);
    for _ in 0..4 {
        let emu = random_program(&mut rng);
        let cfg = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco);
        let (_, events) = run_checked(Core::new(emu, cfg), 10_000_000);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        for (want, got) in seqs.iter().enumerate() {
            assert_eq!(*got, want as u64, "gap or duplicate in commit sequence");
        }
    }
}

/// Unordered commit actually happens (the trace records commits ahead of
/// an older live instruction) — the invariants above are tested against
/// real out-of-order behaviour, not a degenerate in-order run.
#[test]
fn unordered_commits_are_observed() {
    let mut rng = Rng::seed_from_u64(0x1217_0003);
    let mut ooo = 0u64;
    for _ in 0..4 {
        let emu = random_program(&mut rng);
        let cfg = CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco);
        let (_, events) = run_checked(Core::new(emu, cfg), 10_000_000);
        ooo += events.iter().filter(|e| e.out_of_order()).count() as u64;
    }
    assert!(ooo > 0, "no out-of-order commit ever observed");
}

/// Freed ROB/LQ slots are never read stale: with tiny queues every slot
/// is reused many times over; the queues' generation checks panic on any
/// stale access, so a clean completion with commits far exceeding the
/// ROB capacity demonstrates the reuse is sound.
#[test]
fn freed_slots_are_reused_without_stale_reads() {
    let mut rng = Rng::seed_from_u64(0x1217_0004);
    for _ in 0..3 {
        let emu = random_program(&mut rng);
        let cfg = tiny(
            CoreConfig::base()
                .with_scheduler(SchedulerKind::Orinoco)
                .with_commit(CommitKind::Orinoco),
        );
        let rob_entries = cfg.rob_entries as u64;
        let (_, events) = run_checked(Core::new(emu, cfg), 20_000_000);
        assert!(
            events.len() as u64 > 4 * rob_entries,
            "program too small to exercise slot reuse"
        );
    }
}
