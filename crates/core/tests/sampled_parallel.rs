//! Parallel and phase-clustered sampling invariants: byte-identical
//! output across thread counts, the serial run's panic from a parallel
//! run whose intervals fail, BBV/k-means clustering properties,
//! phase-mode accuracy, and estimates pinned bit for bit.

use orinoco_core::sample::{cluster_bbvs, collect_bbvs, run_sampled, SampleConfig, SampledStats};
use orinoco_core::{CommitKind, Core, CoreConfig, SchedulerKind, StallCause};
use orinoco_isa::Emulator;
use orinoco_workloads::{long_program, phased_program, Workload};

fn orinoco() -> CoreConfig {
    CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco)
}

/// A heterogeneous, branchy program long enough for a dozen-plus strata.
fn workload() -> Emulator {
    long_program(13, 60_000)
}

fn scfg() -> SampleConfig {
    SampleConfig::new(500, 2_000, 5_000)
}

/// Full structural equality, field by field — stricter than comparing
/// `summary()` strings (which already round).
fn assert_identical(a: &SampledStats, b: &SampledStats, what: &str) {
    assert_eq!(a.summary(), b.summary(), "{what}: summary diverged");
    assert_eq!(a.total_insts, b.total_insts, "{what}");
    assert_eq!(a.detailed_insts, b.detailed_insts, "{what}");
    assert_eq!(a.warmup_insts, b.warmup_insts, "{what}");
    assert_eq!(a.est_cycles().to_bits(), b.est_cycles().to_bits(), "{what}");
    assert_eq!(a.cpi_ci95().to_bits(), b.cpi_ci95().to_bits(), "{what}");
    assert_eq!(a.intervals.len(), b.intervals.len(), "{what}");
    for (i, (x, y)) in a.intervals.iter().zip(&b.intervals).enumerate() {
        assert_eq!(x.start_inst, y.start_inst, "{what}: interval {i}");
        assert_eq!(x.insts, y.insts, "{what}: interval {i}");
        assert_eq!(x.cycles, y.cycles, "{what}: interval {i}");
        assert_eq!(x.weight, y.weight, "{what}: interval {i}");
        for c in StallCause::ALL {
            assert_eq!(
                x.taxonomy.count(c),
                y.taxonomy.count(c),
                "{what}: interval {i} cause {c:?}"
            );
        }
    }
    for (c, v) in a.scaled_taxonomy() {
        let w = b
            .scaled_taxonomy()
            .into_iter()
            .find(|(bc, _)| *bc == c)
            .expect("same cause set")
            .1;
        assert_eq!(v.to_bits(), w.to_bits(), "{what}: scaled taxonomy {c:?}");
    }
}

#[test]
fn parallel_matches_serial_byte_identical() {
    let serial = run_sampled(workload(), orinoco(), &scfg());
    assert!(serial.intervals.len() >= 8, "want a real interval count");
    for threads in [4usize, 8] {
        let par = run_sampled(workload(), orinoco(), &scfg().with_threads(threads));
        assert_identical(&serial, &par, &format!("threads={threads}"));
    }
}

#[test]
fn parallel_matches_serial_with_warm_horizon_and_phases() {
    let base = scfg().with_warm_horizon(3_000).phases(4);
    let serial = run_sampled(workload(), orinoco(), &base);
    let par = run_sampled(workload(), orinoco(), &base.with_threads(8));
    assert_identical(&serial, &par, "phases+horizon threads=8");
}

/// The panic message of a sampled run whose intervals cannot finish in
/// their 10-cycle budget, at `threads` threads. The run happens on a
/// helper thread, so a hang fails the test instead of stalling the suite.
fn overrun_message(threads: usize) -> String {
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let mut cfg = scfg().with_threads(threads);
        cfg.max_cycles_per_interval = 10;
        let emu = Workload::ExchangeLike.build(7, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_sampled(emu, orinoco(), &cfg);
        }));
        let _ = tx.send(r.map_err(|p| orinoco_util::panic_message(&*p)));
    });
    let r = rx.recv_timeout(std::time::Duration::from_secs(120)).expect("the sampled run hung");
    helper.join().expect("the helper thread catches the run's panic");
    r.expect_err("a 10-cycle interval budget cannot be met")
}

/// Every worker dies on an overrun interval: the parallel run must end in
/// the serial run's diagnosis (the first interval's), not a hang or an
/// opaque payload.
#[test]
fn overrun_interval_panics_with_the_serial_message_at_two_threads() {
    let serial = overrun_message(1);
    assert!(serial.contains("overran 10 cycles"), "unexpected serial panic: {serial}");
    assert_eq!(overrun_message(2), serial);
}

#[test]
fn phases_cut_intervals_and_track_full_run() {
    // Phase clustering extrapolates each representative window to its
    // whole cluster, so the window must *cover* its stratum (SimPoint
    // style): detail ≈ period − warmup. A window much smaller than the
    // period sub-samples a stratum that mixes phases and biases hard.
    let pcfg = SampleConfig::new(500, 4_000, 5_000);
    let emu = phased_program(5, 40);
    let full = Core::new(phased_program(5, 40), orinoco())
        .run(500_000_000)
        .clone();
    let stratified = run_sampled(emu, orinoco(), &pcfg);
    let clustered = run_sampled(phased_program(5, 40), orinoco(), &pcfg.phases(12));
    assert!(
        clustered.intervals.len() < stratified.intervals.len(),
        "phase clustering must spend fewer detailed intervals ({} vs {})",
        clustered.intervals.len(),
        stratified.intervals.len()
    );
    // Weights stand in for the strata the representatives cover.
    assert!(clustered.weight_sum() >= stratified.intervals.len() as u64);
    let full_ipc = full.ipc();
    let err = (clustered.est_ipc() - full_ipc).abs() / full_ipc;
    assert!(
        err < 0.05,
        "phase-clustered IPC {} vs full {} ({:.2}% off)",
        clustered.est_ipc(),
        full_ipc,
        err * 100.0
    );
}

#[test]
fn phases_one_degenerates_to_single_interval() {
    let est = run_sampled(workload(), orinoco(), &scfg().phases(1));
    assert_eq!(est.intervals.len(), 1);
    assert!(est.intervals[0].weight > 1);
    assert!(est.est_ipc() > 0.1);
}

#[test]
fn bbv_strata_cover_the_program() {
    let emu = workload();
    let total = {
        let mut e = workload();
        while e.step().is_some() {}
        e.executed()
    };
    let period = 5_000u64;
    let bbvs = collect_bbvs(emu, period);
    assert_eq!(bbvs.len() as u64, total.div_ceil(period));
    for (i, v) in bbvs.iter().enumerate() {
        // Code half (all but the trailing novelty dim) is L1-normalized;
        // the novelty dim is a fraction in [0, 1].
        let (code, novelty) = v.split_at(v.len() - 1);
        let l1: f64 = code.iter().sum();
        assert!((l1 - 1.0).abs() < 1e-9, "stratum {i} code half not L1-normalized: {l1}");
        assert!(v.iter().all(|&x| x >= 0.0));
        assert!(novelty[0] <= 1.0, "stratum {i} novelty out of range: {}", novelty[0]);
    }
    // Working-set novelty decays: the first stratum first-touches its
    // lines, later strata revisit them.
    assert!(bbvs[0][bbvs[0].len() - 1] > bbvs[bbvs.len() - 1][bbvs[0].len() - 1]);
}

#[test]
fn kmeans_is_deterministic_and_weights_sum() {
    let bbvs = collect_bbvs(phased_program(9, 30), 4_000);
    assert!(bbvs.len() >= 8);
    for k in [1usize, 2, 4, 7, bbvs.len(), bbvs.len() + 5] {
        let a = cluster_bbvs(&bbvs, k, 42);
        let b = cluster_bbvs(&bbvs, k, 42);
        assert_eq!(a, b, "k={k}: clustering must be deterministic");
        let wsum: u64 = a.iter().map(|&(_, w)| w).sum();
        assert_eq!(wsum, bbvs.len() as u64, "k={k}: weights must sum to n");
        assert!(a.len() <= k.min(bbvs.len()));
        assert!(!a.is_empty());
        // Representatives are distinct, sorted, in range.
        for win in a.windows(2) {
            assert!(win[0].0 < win[1].0);
        }
        assert!(a.iter().all(|&(i, _)| i < bbvs.len()));
    }
    // Different seeds may pick different clusterings, but stay valid.
    let other = cluster_bbvs(&bbvs, 3, 1234);
    let wsum: u64 = other.iter().map(|&(_, w)| w).sum();
    assert_eq!(wsum, bbvs.len() as u64);
}

#[test]
fn kmeans_one_cluster_picks_most_representative() {
    // Construct vectors where index 1 is the obvious medoid: two outliers
    // and two points near the mean.
    let bbvs = vec![
        vec![1.0, 0.0, 0.0],
        vec![0.4, 0.3, 0.3],
        vec![0.0, 1.0, 0.0],
        vec![0.45, 0.25, 0.3],
    ];
    let reps = cluster_bbvs(&bbvs, 1, 7);
    assert_eq!(reps.len(), 1);
    assert_eq!(reps[0].1, 4);
    // Mean is (0.4625, 0.3875? ...) — nearest member is one of the two
    // central points, never an outlier.
    assert!(reps[0].0 == 1 || reps[0].0 == 3);
}

#[test]
fn empty_bbvs_cluster_to_nothing() {
    assert!(cluster_bbvs(&[], 3, 9).is_empty());
}

#[test]
fn threads_zero_means_auto_and_still_matches() {
    let serial = run_sampled(
        Workload::ExchangeLike.build(7, 1),
        orinoco(),
        &SampleConfig::new(500, 2_000, 10_000),
    );
    let auto = run_sampled(
        Workload::ExchangeLike.build(7, 1),
        orinoco(),
        &SampleConfig::new(500, 2_000, 10_000).with_threads(0),
    );
    assert_identical(&serial, &auto, "threads=0");
}

/// FNV-1a over `format!("{est:?}")`: every interval's start, weight,
/// window and stall taxonomy, plus the totals, in one number.
fn est_digest(est: &SampledStats) -> u64 {
    format!("{est:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

#[test]
fn estimates_are_pinned_bit_for_bit() {
    // The producer's bookkeeping (the BBV pre-pass, where the master
    // stops, the prefetcher's stream search) may change how fast an
    // estimate comes out, never its bits. The phase-clustered geometries
    // leave a 9k-instruction tail after the last representative that the
    // master does not run.
    let phased = SampleConfig::new(500, 4_000, 5_000);
    let pinned: [(&str, SampleConfig, u64); 3] = [
        (
            "stratified",
            SampleConfig::new(500, 2_000, 10_000),
            0x68b3_17e9_df5c_75a4,
        ),
        ("phases", phased.phases(6), 0x5b06_5acc_8f41_c6e9),
        (
            "horizon+phases",
            phased.with_warm_horizon(3_000).phases(6),
            0x7c5d_acd9_50d1_019f,
        ),
    ];
    for (name, geometry, want) in pinned {
        for threads in [1usize, 2] {
            let est = run_sampled(
                phased_program(3, 24),
                orinoco(),
                &geometry.with_threads(threads),
            );
            assert_eq!(est.total_insts, 224_730, "{name} at {threads} threads");
            let got = est_digest(&est);
            assert_eq!(got, want, "{name} at {threads} threads: {got:#018x}");
        }
    }
}
