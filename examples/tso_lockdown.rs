//! TSO lockdown in action (§3.3): while a gather workload commits loads
//! out of order past older non-performed loads, a second "core" fires
//! invalidations at its addresses. Acknowledgements to lines under
//! lockdown are withheld until the older loads perform, and a performed
//! but uncommitted load that read an invalidated line past an older
//! pending load replays, so the reordering can never be observed —
//! non-speculative load→load reordering under Total Store Order with a
//! non-collapsible LQ.
//!
//! Run with:
//! ```text
//! cargo run --release --example tso_lockdown
//! ```

use orinoco::core::{CommitKind, Core, CoreConfig, SchedulerKind};
use orinoco::workloads::Workload;

fn main() {
    let mut emu = Workload::LinkedlistLike.build(3, 1);
    emu.set_step_limit(60_000);
    let cfg = CoreConfig::base()
        .with_scheduler(SchedulerKind::Orinoco)
        .with_commit(CommitKind::Orinoco);
    let mut core = Core::new(emu, cfg);

    let mut rng: u64 = 0x1234_5678_9ABC_DEF1;
    let mut invalidations = 0u64;
    let mut withheld = 0u64;
    let mut replayed = 0u64;
    let mut max_lockdowns = 0usize;
    while !core.finished() && core.cycle() < 50_000_000 {
        core.step();
        max_lockdowns = max_lockdowns.max(core.active_lockdowns());
        // A remote core invalidates every ~64 cycles: usually a random
        // node line, sometimes (contended sharing) one that is currently
        // locked down.
        if core.cycle().is_multiple_of(64) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let addr = if rng.is_multiple_of(4) {
                core.any_locked_line().unwrap_or((rng % (4 << 20)) & !63)
            } else {
                (rng % (4 << 20)) & !63
            };
            invalidations += 1;
            let replays = core.stats().replays;
            if !core.apply_remote_invalidation(addr) {
                withheld += 1;
            }
            replayed += core.stats().replays - replays;
        }
    }
    let stats = core.stats();
    println!("committed {} instructions at IPC {:.3}", stats.committed, {
        stats.committed as f64 / core.cycle() as f64
    });
    println!("out-of-order commits: {}", stats.ooo_commits);
    println!("peak simultaneous lockdowns: {max_lockdowns}");
    println!(
        "remote invalidations: {invalidations}, acknowledgements withheld by lockdowns: {withheld}"
    );
    println!("loads replayed because an invalidation made their value stale: {replayed}");
    println!();
    println!(
        "Each withheld acknowledgement covered a committed-but-unordered load;\n\
         it was released automatically when every older load performed, so the\n\
         remote core never observed a load-load reordering (TSO preserved)."
    );
}
