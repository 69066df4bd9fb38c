//! Architectural checkpoint/restore driving the detailed core: a restored
//! emulator must be timing-indistinguishable from the live emulator it
//! was checkpointed from.

use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco_isa::{Emulator, HaltReason};
use orinoco_workloads::Workload;

fn orinoco() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

fn advanced(wl: Workload, seed: u64, steps: u64) -> Emulator {
    let mut emu = wl.build(seed, 1);
    for _ in 0..steps {
        emu.step();
    }
    emu
}

#[test]
fn restored_emulator_times_identically_to_the_original() {
    let emu = advanced(Workload::HashjoinLike, 17, 30_000);
    let direct = Core::new(emu.fork_rebased(), orinoco()).run(200_000_000).clone();

    let restored = Emulator::restore(emu.program().clone(), &emu.checkpoint());
    let resumed = Core::new(restored.fork_rebased(), orinoco()).run(200_000_000).clone();

    assert_eq!(direct.cycles, resumed.cycles);
    assert_eq!(direct.committed, resumed.committed);
}

#[test]
fn stitched_checkpoint_halves_cover_the_whole_program() {
    let mut full = Workload::XzLike.build(8, 1);
    let total = full.by_ref().count() as u64;

    let emu = advanced(Workload::XzLike, 8, 40_000);
    let head = emu.executed();
    let mut tail_emu = Emulator::restore(emu.program().clone(), &emu.checkpoint());
    let tail = tail_emu.by_ref().count() as u64;
    assert_eq!(tail_emu.halt_reason(), Some(HaltReason::Halted));
    assert_eq!(head + tail, total);
}

#[test]
fn checkpoint_restore_is_idempotent() {
    let emu = advanced(Workload::PerlLike, 3, 25_000);
    let ck = emu.checkpoint();
    let once = Emulator::restore(emu.program().clone(), &ck);
    let twice = Emulator::restore(emu.program().clone(), &once.checkpoint());
    let a = Core::new(once.fork_rebased(), orinoco()).run(200_000_000).clone();
    let b = Core::new(twice.fork_rebased(), orinoco()).run(200_000_000).clone();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.committed, b.committed);
}
