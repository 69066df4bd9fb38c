//! Root-package smoke coverage for the checkpoint / sampled-simulation
//! stack.
//!
//! Tier-1 is `cargo test -q --workspace` (see ROADMAP.md); a bare
//! `cargo test -q` at the root only runs this package, so the
//! cross-crate feature seams that matter most are exercised here too —
//! a plain root test run still smoke-checks checkpoint/restore and the
//! sampled estimator end to end.

use orinoco::core::sample::{run_sampled, SampleConfig};
use orinoco::core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco::isa::{Emulator, HaltReason};
use orinoco::workloads::{long_program, Workload};

fn orinoco_cfg() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

#[test]
fn checkpoint_restore_resumes_mid_program() {
    let mut emu = Workload::XzLike.build(4, 1);
    for _ in 0..50_000 {
        emu.step();
    }
    let mut resumed = Emulator::restore(emu.program().clone(), &emu.checkpoint());
    let stats = Core::new(resumed.fork_rebased(), orinoco_cfg()).run(200_000_000).clone();
    assert!(stats.committed > 0);
    // The restored emulator finishes the remaining program exactly.
    let rest = resumed.by_ref().count() as u64;
    assert_eq!(resumed.halt_reason(), Some(HaltReason::Halted));
    assert_eq!(stats.committed, rest);
}

#[test]
fn sampled_run_tracks_full_run_ipc() {
    // ~1M instructions so the sampler draws enough intervals (~26) to
    // cover the program's long-period phase structure; at 400k insts the
    // same config under-samples and the error triples.
    let emu = long_program(13, 1_000_000);
    let full = Core::new(emu.fork_rebased(), orinoco_cfg()).run(20_000_000_000).clone();
    let est = run_sampled(emu, orinoco_cfg(), &SampleConfig::new(2_000, 10_000, 40_000));
    let err = (est.est_ipc() - full.ipc()).abs() / full.ipc();
    assert!(
        err < 0.03,
        "sampled IPC {:.4} vs full {:.4}: {:.2}% error",
        est.est_ipc(),
        full.ipc(),
        err * 100.0
    );
    assert_eq!(est.total_insts, full.committed);
    assert!(est.detail_fraction() < 0.5, "sampling simulated too much in detail");
}
