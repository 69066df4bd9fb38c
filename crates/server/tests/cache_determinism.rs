//! Cache-determinism battery: the same `(config, workload, seed)`
//! submitted concurrently from many clients must return byte-identical
//! `SimStats`/commit-stream digests whether served from cache, deduped
//! onto an in-flight computation, or computed fresh — and differing
//! seeds must never collide on the cache key (property test over the
//! canonical hash). Green under `--release` (CI runs this file with
//! `cargo test --release -p orinoco-server`).

use orinoco_server::{run_one_shot, ConfigSpec, JobResult, JobSpec, Preset, Server, SimSpec};
use orinoco_core::{CommitKind, SchedulerKind};
use orinoco_util::prop::forall;
use orinoco_util::Rng;
use orinoco_workloads::Workload;

fn spec(workload: Workload, seed: u64) -> SimSpec {
    SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload,
        scale: 1,
        seed,
        max_instrs: 6_000,
        max_cycles: 0,
        progress_cycles: 0,
    }
}

#[test]
fn concurrent_identical_submissions_are_byte_identical_and_computed_once() {
    let server = Server::new(8);
    let job = spec(Workload::GemmLike, 42);
    let reference = run_one_shot(&job).expect("reference");

    // 16 clients race the same spec; whichever path each submission
    // takes — primary compute, in-flight subscription, completed-cache
    // hit — the bytes must match the serial one-shot exactly.
    std::thread::scope(|scope| {
        for c in 0..16usize {
            let server = &server;
            let reference = &reference;
            scope.spawn(move || {
                let client = server.client();
                let JobResult::Sim(r) = client.run(JobSpec::Sim(job)).expect("job failed");
                assert_eq!(r.stats_debug, reference.stats_debug, "client {c}: stats drifted");
                assert_eq!(r.commit_digest, reference.commit_digest, "client {c}");
                assert_eq!(r.stats_digest, reference.stats_digest, "client {c}");
                assert_eq!(r, *reference, "client {c}: full result drifted");
            });
        }
    });
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1, "identical concurrent submissions must compute exactly once");
    assert_eq!(stats.hits + stats.deduped, 15);
}

#[test]
fn cached_and_fresh_results_are_byte_identical() {
    // Fresh compute on server A; cache hit on server A; fresh compute on
    // a brand-new server B (cold fleet). All equal, and equal to serial.
    let job = spec(Workload::MemlatLike, 9);
    let reference = run_one_shot(&job).expect("reference");

    let server_a = Server::new(2);
    let client_a = server_a.client();
    let fresh = client_a.run(JobSpec::Sim(job)).expect("fresh run");
    let cached = client_a.run(JobSpec::Sim(job)).expect("cached run");
    assert_eq!(server_a.cache_stats().hits, 1, "second submission must hit");

    let server_b = Server::new(2);
    let cold = server_b.client().run(JobSpec::Sim(job)).expect("cold run");

    for (label, JobResult::Sim(r)) in [("fresh", &fresh), ("cached", &cached), ("cold", &cold)] {
        assert_eq!(*r, reference, "{label} result differs from serial");
    }
}

#[test]
fn warm_lane_reuse_does_not_change_results() {
    // One queue = one worker fleet. Run a parade of different jobs so the
    // lane is revived over and over, then re-run the first job under a
    // *different* seed (so it's a cache miss on a thoroughly warmed lane)
    // and compare against a cold one-shot.
    let server = Server::new(1);
    let client = server.client();
    for (i, w) in Workload::ALL.iter().enumerate() {
        client.run(JobSpec::Sim(spec(*w, 1000 + i as u64))).expect("warm-up job");
    }
    let probe = spec(Workload::GemmLike, 31_337);
    let JobResult::Sim(r) = client.run(JobSpec::Sim(probe)).expect("probe");
    assert_eq!(r, run_one_shot(&probe).expect("reference"), "warm lane drifted");
}

// ---------------------------------------------------------------------------
// Canonical-hash property tests
// ---------------------------------------------------------------------------

/// Draws a pseudo-random but valid `SimSpec` from `rng`.
fn arb_spec(rng: &mut Rng) -> SimSpec {
    SimSpec {
        config: ConfigSpec {
            preset: Preset::ALL[rng.gen_range(0..Preset::ALL.len() as u64) as usize],
            scheduler: SchedulerKind::ALL[rng.gen_range(0..SchedulerKind::ALL.len() as u64) as usize],
            commit: CommitKind::ALL[rng.gen_range(0..CommitKind::ALL.len() as u64) as usize],
            fast_forward: rng.gen_range(0..2u64) == 0,
            rob_entries: rng.gen_range(0..4u64) * 32,
            iq_entries: rng.gen_range(0..3u64) * 16,
        },
        workload: Workload::ALL[rng.gen_range(0..Workload::ALL.len() as u64) as usize],
        scale: rng.gen_range(1..5u64),
        seed: rng.next_u64(),
        max_instrs: rng.gen_range(0..3u64) * 10_000,
        max_cycles: rng.gen_range(0..2u64) * 1_000_000,
        progress_cycles: rng.gen_range(0..3u64) * 1_000,
    }
}

#[test]
fn differing_seeds_never_collide_on_the_cache_key() {
    forall("seed-collision-freedom", 0xCA11, 2_000, |rng| {
        let base = arb_spec(rng);
        let other_seed = rng.next_u64();
        let a = JobSpec::Sim(base);
        let b = JobSpec::Sim(SimSpec { seed: other_seed, ..base });
        if base.seed == other_seed {
            assert_eq!(a.cache_key(), b.cache_key());
        } else {
            assert_ne!(
                a.cache_key(),
                b.cache_key(),
                "seed {} vs {} collided under {base:?}",
                base.seed,
                other_seed
            );
        }
    });
}

#[test]
fn cache_key_is_canonical_over_the_encoding() {
    // Key equality ⇔ canonical-encoding equality: two random specs share
    // a key only if they are the same job (modulo presentation fields),
    // and presentation knobs provably do NOT affect the key.
    forall("key-encoding-canonicity", 0xCAFE, 2_000, |rng| {
        let a = arb_spec(rng);
        let b = arb_spec(rng);
        let (ja, jb) = (JobSpec::Sim(a), JobSpec::Sim(b));
        let canonical_equal =
            SimSpec { progress_cycles: 0, ..a } == SimSpec { progress_cycles: 0, ..b };
        assert_eq!(
            ja.cache_key() == jb.cache_key(),
            canonical_equal,
            "key equality diverged from canonical spec equality:\n a={a:?}\n b={b:?}"
        );

        // Presentation-only: progress cadence never changes identity.
        let streamed = JobSpec::Sim(SimSpec { progress_cycles: 7_777, ..a });
        assert_eq!(ja.cache_key(), streamed.cache_key());
    });
}
