//! `Fleet` lane-cache tests.
//!
//! The campaign server, the sampler and the verification campaigns run
//! programs on cores handed out by a shared [`Fleet`] instead of one
//! fresh [`Core`] each, so their results are only trustworthy if revived
//! cores are byte-identical to fresh ones: same `SimStats` Debug
//! rendering, run after run, shape after shape. The server also cuts
//! runs into `run_until` slices to report progress, so sliced runs must
//! match one-shot runs too.

use orinoco_core::{CommitKind, Core, CoreConfig, Fleet, SchedulerKind};
use orinoco_isa::Emulator;
use orinoco_workloads::Workload;

fn orinoco_cfg() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

fn emu_for(w: Workload, seed: u64) -> Emulator {
    let mut emu = w.build(seed, 1);
    emu.set_step_limit(5_000);
    emu
}

fn fresh_stats(w: Workload, seed: u64, cfg: CoreConfig) -> String {
    let mut core = Core::new(emu_for(w, seed), cfg);
    format!("{:?}", core.run(100_000_000))
}

/// Runs `w`/`seed` on a core handed out by `fleet` and renders its stats.
fn fleet_stats(fleet: &mut Fleet, w: Workload, seed: u64, cfg: CoreConfig) -> String {
    fleet.with_lane(cfg, emu_for(w, seed), |core| format!("{:?}", core.run(100_000_000)))
}

const BATCH: [(Workload, u64); 5] = [
    (Workload::GemmLike, 13),
    (Workload::HashjoinLike, 7),
    (Workload::MemlatLike, 3),
    (Workload::ExchangeLike, 11),
    (Workload::GemmLike, 29),
];

#[test]
fn sliced_runs_match_fresh_runs() {
    let mut fleet = Fleet::new();
    for (w, seed) in BATCH {
        // A tight 256-cycle slice cuts every run many times, across
        // fast-forward windows included.
        let (slices, sliced) = fleet.with_lane(orinoco_cfg(), emu_for(w, seed), |core| {
            let mut slices = 1u64;
            while !core.run_until(slices * 256) {
                slices += 1;
            }
            (slices, format!("{:?}", core.stats()))
        });
        assert!(slices > 1, "{w} seed {seed}: the run fit in one slice");
        assert_eq!(
            sliced,
            fresh_stats(w, seed, orinoco_cfg()),
            "{w} seed {seed}: sliced run diverges from a fresh core"
        );
    }
}

#[test]
fn reuse_across_runs_matches_fresh_runs() {
    let mut fleet = Fleet::new();
    // Warm-up runs dirty the parked core with different programs/seeds.
    for (w, seed) in BATCH {
        fleet_stats(&mut fleet, w, seed + 100, orinoco_cfg());
    }
    assert_eq!(fleet.capacity(), 1, "the core should be parked, not dropped");

    // Later runs must revive the parked core (no growth) and still match.
    for (w, seed) in BATCH {
        assert_eq!(
            fleet_stats(&mut fleet, w, seed, orinoco_cfg()),
            fresh_stats(w, seed, orinoco_cfg()),
            "{w} seed {seed}: reused core diverges from a fresh core"
        );
        assert_eq!(fleet.capacity(), 1, "same-shape handout grew the pool");
    }
}

#[test]
fn mixed_shapes_get_separate_lanes() {
    let tiny = {
        let mut cfg = orinoco_cfg();
        cfg.rob_entries = 24;
        cfg.iq_entries = 12;
        cfg.lq_entries = 6;
        cfg.sq_entries = 5;
        cfg.phys_regs = 40;
        cfg.vb_entries = 4;
        cfg
    };
    let mut fleet = Fleet::new();
    fleet_stats(&mut fleet, Workload::GemmLike, 13, orinoco_cfg());
    fleet_stats(&mut fleet, Workload::GemmLike, 13, tiny.clone());
    assert_eq!(fleet.capacity(), 2);

    // Alternate the shapes: each request must find its own parked core.
    for (cfg, name) in [(tiny.clone(), "tiny"), (orinoco_cfg(), "base"), (tiny, "tiny")] {
        assert_eq!(
            fleet_stats(&mut fleet, Workload::MixLike, 5, cfg.clone()),
            fresh_stats(Workload::MixLike, 5, cfg),
            "{name}-shape core diverges from a fresh core"
        );
        assert_eq!(fleet.capacity(), 2, "shape-matched handout grew the pool");
    }
}

#[test]
fn same_shape_different_seed_is_reused() {
    // config_for_seed in the verif campaigns varies only cfg.seed within
    // a shape; reuse must still rebuild all seeded state.
    let mut fleet = Fleet::new();
    let mut cfg = orinoco_cfg();
    cfg.seed = 1;
    fleet_stats(&mut fleet, Workload::McfLike, 3, cfg);

    let mut cfg2 = orinoco_cfg();
    cfg2.seed = 99;
    let reseeded = fleet_stats(&mut fleet, Workload::McfLike, 3, cfg2.clone());
    assert_eq!(fleet.capacity(), 1, "seed-only change must not grow the pool");
    assert_eq!(
        reseeded,
        fresh_stats(Workload::McfLike, 3, cfg2),
        "reseeded core diverges from a fresh core"
    );
}

#[test]
fn with_lane_discards_on_panic_and_stays_usable() {
    let mut fleet = Fleet::new();
    fleet_stats(&mut fleet, Workload::GemmLike, 13, orinoco_cfg());
    assert_eq!(fleet.capacity(), 1);

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fleet.with_lane(orinoco_cfg(), emu_for(Workload::McfLike, 3), |core| {
            // A deliberately absurd cycle budget: run_until cannot finish,
            // and the follow-up panic models a mid-run invariant failure.
            core.run_until(1);
            panic!("lane broke mid-run");
        })
    }));
    assert!(unwound.is_err(), "the body's panic must resume out of with_lane");
    assert_eq!(fleet.capacity(), 0, "a panicked core must be dropped, not parked");

    // The fleet itself survives and serves the next handout from scratch.
    assert_eq!(
        fleet_stats(&mut fleet, Workload::MixLike, 5, orinoco_cfg()),
        fresh_stats(Workload::MixLike, 5, orinoco_cfg())
    );
    assert_eq!(fleet.capacity(), 1);
}
