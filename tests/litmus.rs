//! Workspace-level TSO litmus suite: the lockdown matrix must reject
//! every TSO-forbidden outcome while permitting every TSO-allowed one,
//! across the classic MP / SB / LB patterns (§3.3), and removing the
//! lockdown protection must expose the forbidden message-passing
//! outcome — proving the matrix is load-bearing.

use orinoco_verif::litmus;

/// MP: `r_flag=1, r_data=0` is forbidden under TSO. The lockdown matrix
/// is the mechanism that blocks it: with lockdown disabled the forbidden
/// outcome becomes reachable.
#[test]
fn mp_forbidden_outcome_rejected_allowed_permitted() {
    let v = litmus::run(&litmus::mp());
    assert!(v.forbidden_blocked, "MP forbidden outcome reachable: {:?}", v.outcomes);
    assert!(v.all_allowed_seen, "MP allowed outcome missing: {:?}", v.outcomes);
    assert!(
        v.outcomes_unprotected.contains(&vec![1, 0]),
        "disabling lockdown must expose the forbidden MP outcome: {:?}",
        v.outcomes_unprotected
    );
}

/// SB: all four outcomes are TSO-allowed; the machine must produce the
/// store-buffering signature `(0,0)` and the lockdown machinery must not
/// suppress any allowed outcome (no false positives).
#[test]
fn sb_all_allowed_outcomes_permitted() {
    let v = litmus::run(&litmus::sb());
    assert!(v.all_allowed_seen, "SB allowed outcome missing: {:?}", v.outcomes);
    assert!(v.outcomes.contains(&vec![0, 0]), "store-buffering outcome suppressed");
    assert_eq!(v.outcomes.len(), 4);
}

/// LB: `(1,1)` is forbidden under TSO (no load→store reordering).
#[test]
fn lb_forbidden_outcome_rejected() {
    let v = litmus::run(&litmus::lb());
    assert!(v.forbidden_blocked, "LB forbidden outcome reachable: {:?}", v.outcomes);
    assert!(v.all_allowed_seen, "LB allowed outcome missing: {:?}", v.outcomes);
}

/// Full suite verdict, as the `verif litmus` CLI computes it.
#[test]
fn full_suite_holds() {
    for v in litmus::run_all() {
        assert!(v.holds(), "{} failed: {v:?}", v.name);
        assert!(v.matrix_load_bearing, "{} lockdown not load-bearing: {v:?}", v.name);
    }
}
