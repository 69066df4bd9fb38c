//! The mcm campaign silences its expected DUT panics with the
//! process-global panic hook; after a parallel campaign the caller's hook
//! must be back in place. This file holds one test, so no other test in
//! the binary swaps the hook while it runs.

use orinoco_verif::mcm_campaign;
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Five short campaigns at two jobs, each followed by a probe panic that
/// the caller's counting hook must see. (Per-unit hook swaps lost the hook
/// in most such rounds, but not in every one.)
#[test]
fn parallel_mcm_campaign_restores_the_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let rounds: Vec<(u64, bool, bool)> = (42..47)
        .map(|seed| {
            let out = mcm_campaign(40, seed, 2, |_, _| {});
            let before = HOOK_CALLS.load(Ordering::SeqCst);
            let _ = std::panic::catch_unwind(|| panic!("probe"));
            (seed, out.passed(), HOOK_CALLS.load(Ordering::SeqCst) == before + 1)
        })
        .collect();
    // Back to the default hook, so a failing assertion below prints.
    drop(std::panic::take_hook());
    for (seed, passed, hook_kept) in rounds {
        assert!(passed, "campaign seed {seed} failed");
        assert!(hook_kept, "campaign seed {seed} left another panic hook installed");
    }
}
