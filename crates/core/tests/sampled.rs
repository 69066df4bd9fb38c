//! Sampled-simulation accuracy against full detailed runs on real
//! workload kernels, plus regression coverage for the two mechanisms the
//! accuracy depends on: the functionally-reproduced mispredict sequence
//! and the wrong-path cache-pollution model.

use orinoco_core::sample::{run_sampled, SampleConfig};
use orinoco_core::{CommitKind, Core, CoreConfig, FetchUnit, SchedulerKind};
use orinoco_workloads::{long_program, Workload};

fn orinoco() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

fn scfg() -> SampleConfig {
    SampleConfig::new(2_000, 10_000, 40_000)
}

#[test]
fn sampled_ipc_tracks_full_run_on_workload_kernels() {
    // Calibrated at scale 2 so each program draws enough intervals
    // (~6–18) for the ratio estimator; the measured errors are all under
    // 1.2% with the pollution model on, so 3% gives headroom without
    // masking a real regression.
    for wl in [
        Workload::ExchangeLike,
        Workload::StreamLike,
        Workload::McfLike,
        Workload::HashjoinLike,
    ] {
        let emu = wl.build(7, 2);
        let full = Core::new(emu.fork_rebased(), orinoco()).run(20_000_000_000).clone();
        let est = run_sampled(emu, orinoco(), &scfg());
        let err = (est.est_ipc() - full.ipc()).abs() / full.ipc();
        assert!(
            err < 0.03,
            "{wl:?}: sampled IPC {:.4} vs full {:.4} ({:.2}% off, {} intervals)",
            est.est_ipc(),
            full.ipc(),
            err * 100.0,
            est.intervals.len()
        );
        assert_eq!(est.total_insts, full.committed, "{wl:?}");
        assert!(est.detail_fraction() < 0.5, "{wl:?}");
    }
}

#[test]
fn functional_mispredict_sequence_matches_detailed_core() {
    // Wrong-path instructions are synthetic and never branches, so the
    // detailed predictor trains only on the committed stream — which is
    // exactly the stream FrontendWarm::warm_update sees. The functional
    // mispredict count must therefore equal the detailed core's, branch
    // for branch; the adaptive pollution model relies on this.
    for wl in [Workload::PerlLike, Workload::DeepsjengLike] {
        let cfg = orinoco();
        let mut emu = wl.build(5, 1);
        let mut warm = FetchUnit::new(emu.fork_rebased(), &cfg).warm_snapshot();
        let mut functional = 0u64;
        let mut branches = 0u64;
        while let Some(d) = emu.step() {
            if warm.warm_update(&d) {
                functional += 1;
            }
            if d.class == orinoco_isa::InstClass::Branch {
                branches += 1;
            }
        }
        let detailed = Core::new(wl.build(5, 1), cfg).run(200_000_000).clone();
        assert_eq!(functional, detailed.fetch.mispredicts, "{wl:?}");
        assert_eq!(branches, detailed.fetch.branches, "{wl:?}");
        assert!(functional > 0, "{wl:?} should mispredict");
    }
}

#[test]
fn wrong_path_pollution_model_removes_branchy_bias() {
    // Detailed wrong-path loads scatter uniformly over the data footprint
    // and keep it LLC-resident; warming without that pollution leaves the
    // sampled estimate ~15% slow on this kernel. The adaptive model must
    // keep the error inside the normal envelope.
    let emu = Workload::PerlLike.build(7, 1);
    let full = Core::new(emu.fork_rebased(), orinoco()).run(20_000_000_000).clone();
    let with_model = run_sampled(emu.fork_rebased(), orinoco(), &scfg());
    let without = run_sampled(emu, orinoco(), &scfg().with_wrong_path_depth(0));
    let err_with = (with_model.est_ipc() - full.ipc()) / full.ipc();
    let err_without = (without.est_ipc() - full.ipc()) / full.ipc();
    assert!(
        err_with.abs() < 0.03,
        "adaptive pollution model off by {:.2}%",
        err_with * 100.0
    );
    assert!(
        err_without < -0.08,
        "pollution-free warming should read slow (got {:+.2}%) — if this \
         'fixes' itself the detailed core's wrong-path model changed",
        err_without * 100.0
    );
}

#[test]
fn sampling_is_deterministic_on_workloads() {
    let scfg = scfg();
    let a = run_sampled(Workload::HashjoinLike.build(9, 1), orinoco(), &scfg);
    let b = run_sampled(Workload::HashjoinLike.build(9, 1), orinoco(), &scfg);
    assert_eq!(a.est_cycles(), b.est_cycles());
    assert_eq!(a.intervals.len(), b.intervals.len());
    for (x, y) in a.intervals.iter().zip(&b.intervals) {
        assert_eq!((x.start_inst, x.insts, x.cycles), (y.start_inst, y.insts, y.cycles));
    }
}

#[test]
fn stratified_beats_systematic_on_a_periodic_program() {
    // Plain systematic sampling phase-locks onto program periodicities;
    // the stratified default must never be *worse* than systematic by
    // more than noise on a strongly periodic kernel.
    let emu = Workload::StreamLike.build(7, 2);
    let full = Core::new(emu.fork_rebased(), orinoco()).run(20_000_000_000).clone();
    let strat = run_sampled(emu.fork_rebased(), orinoco(), &scfg());
    let syst = run_sampled(emu, orinoco(), &scfg().systematic());
    let err_strat = (strat.est_ipc() - full.ipc()).abs() / full.ipc();
    let err_syst = (syst.est_ipc() - full.ipc()).abs() / full.ipc();
    assert!(
        err_strat <= err_syst + 0.01,
        "stratified {:.2}% vs systematic {:.2}%",
        err_strat * 100.0,
        err_syst * 100.0
    );
}

#[test]
fn phase_plan_respects_the_step_limit() {
    // The master stops at its step limit, so the phase pre-pass must too:
    // a plan drawn over the whole 2M-instruction program would place
    // representatives past the limit, where the master never gets, and
    // weigh the ones it reaches by strata it never runs.
    let limit = 1_000_000;
    let mut emu = long_program(1, 2_000_000);
    emu.set_step_limit(limit);
    let est = run_sampled(
        emu,
        orinoco(),
        &SampleConfig::new(2_000, 18_000, 20_000).phases(6),
    );
    assert_eq!(est.total_insts, limit);
    assert_eq!(est.intervals.len(), 6);
    assert_eq!(est.weight_sum(), limit / 20_000);
    assert!(
        est.intervals.iter().all(|s| s.start_inst < limit),
        "{est:?}"
    );
}
