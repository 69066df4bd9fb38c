//! Functional warming walks the hierarchy with the detailed model's own
//! code: a run of [`MemorySystem::warm_access`] calls serves every access
//! from the level the same demand [`MemorySystem::access`] calls would,
//! and leaves L1, L2, the LLC and the stream prefetcher in the state those
//! calls leave them in. The demand calls are spaced beyond the DRAM
//! latency, so no MSHR merge or rejection (timing, which warming has none
//! of) intervenes. This is the memory-side twin of the core's
//! `functional_mispredict_sequence_matches_detailed_core`.

use orinoco_mem::{CacheConfig, HitLevel, MemConfig, MemorySystem};
use orinoco_util::Rng;

/// Drives a demand-accessed and a warm-accessed hierarchy with `addrs`,
/// checking each access's serving level and the final state. Returns how
/// many accesses each level served, indexed by [`HitLevel`], and the
/// number of prefetches the demand side issued.
fn warm_matches_demand(cfg: MemConfig, addrs: &[u64]) -> ([usize; 4], u64) {
    let mut demand = MemorySystem::new(cfg);
    let mut warm = MemorySystem::new(cfg);
    let mut served = [0; 4];
    for (i, &addr) in addrs.iter().enumerate() {
        let now = i as u64 * (cfg.dram_latency + 1);
        let d = demand
            .access(addr, now)
            .expect("a spaced access always finds a free MSHR");
        assert_eq!(warm.warm_access(addr), d.level, "access {i} to {addr:#x}");
        served[d.level as usize] += 1;
    }
    let stats = *demand.stats();
    assert_eq!((stats.mshr_merges, stats.mshr_rejections), (0, 0));
    // A warm snapshot drops what only the timed path keeps (in-flight
    // misses and statistics). Everything left — each level's tags, valid
    // bits and LRU stamps, and every trained stream — must be identical.
    assert_eq!(format!("{:?}", demand.warm_snapshot()), format!("{warm:?}"));
    (served, stats.prefetches)
}

/// A quarter of the Table 1 sizes, so a few thousand accesses evict from
/// every level.
fn small() -> MemConfig {
    let level = |size_bytes, ways, latency| CacheConfig {
        size_bytes,
        ways,
        line_bytes: 64,
        latency,
    };
    MemConfig {
        l1: level(8 << 10, 4, 4),
        l2: level(64 << 10, 8, 12),
        llc: level(256 << 10, 8, 36),
        ..MemConfig::default()
    }
}

/// Random lines over 1 MiB, a 16 KiB hot set and revisits of recent
/// addresses, so L1, L2, the LLC and DRAM all serve some of them.
fn mixed(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out: Vec<u64> = Vec::with_capacity(n);
    for _ in 0..n {
        let addr = match rng.gen_range(0..4u32) {
            0 | 1 => rng.gen_range(0..1u64 << 20),
            2 => 0x40_0000 + rng.gen_range(0..16u64 << 10),
            _ => out
                .get(out.len().saturating_sub(rng.gen_range(1..64usize)))
                .copied()
                .unwrap_or(0),
        };
        out.push(addr);
    }
    out
}

/// Interleaved unit, double and negative stride walkers with occasional
/// random lines between them, which train and retrain the prefetcher.
fn streaming(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut walkers = [(0x10_0000u64, 64i64), (0x30_0000, 128), (0x58_0000, -64)];
    (0..n)
        .map(|_| {
            if rng.gen_range(0..8u32) == 0 {
                return rng.gen_range(0..1u64 << 22);
            }
            let w = &mut walkers[rng.gen_range(0..walkers.len())];
            w.0 = w.0.wrapping_add_signed(w.1);
            w.0
        })
        .collect()
}

#[test]
fn warm_access_matches_spaced_demand_accesses() {
    for cfg in [MemConfig::default(), small()] {
        let (served, _) = warm_matches_demand(cfg, &mixed(0x5EED, 6000));
        assert!(
            served.iter().all(|&n| n > 0),
            "every level must serve: {served:?}"
        );
        let (served, prefetches) = warm_matches_demand(cfg, &streaming(0xA11, 6000));
        assert!(prefetches > 0, "the streams must train the prefetcher");
        assert!(
            served[HitLevel::L1 as usize] > served[HitLevel::Dram as usize],
            "{served:?}"
        );
    }
}
