//! `with_quiet_panics` swaps the process-global panic hook, so it must put
//! the caller's hook back even when its body panics: a campaign that dies
//! of a re-raised panic must not silence every later panic in the
//! process. This file holds one test, so no other test in the binary
//! swaps the hook while it runs.

use orinoco_verif::oracle::with_quiet_panics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// A body that returns and a body that panics, each followed by a probe
/// panic that the caller's counting hook must see. The panicking body's
/// payload must reach the caller unchanged, and the quiet hook must keep
/// the body's own panic from the counting hook.
#[test]
fn quiet_panics_restores_the_hook_when_its_body_panics() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let probe = || {
        let before = HOOK_CALLS.load(Ordering::SeqCst);
        let _ = catch_unwind(|| panic!("probe"));
        HOOK_CALLS.load(Ordering::SeqCst) - before
    };
    let returned = with_quiet_panics(|| 7);
    let after_return = probe();
    let before_body = HOOK_CALLS.load(Ordering::SeqCst);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        with_quiet_panics(|| -> u32 { panic!("body") })
    }));
    let body_calls = HOOK_CALLS.load(Ordering::SeqCst) - before_body;
    let after_panic = probe();
    // Back to the default hook, so a failing assertion below prints.
    drop(std::panic::take_hook());
    assert_eq!(returned, 7);
    assert_eq!(after_return, 1, "a returning body left another hook installed");
    let payload = caught.expect_err("the body's panic must reach the caller");
    assert_eq!(orinoco_util::panic_message(&*payload), "body");
    assert_eq!(body_calls, 0, "the body's panic reached the caller's hook");
    assert_eq!(after_panic, 1, "a panicking body left the quiet hook installed");
}
