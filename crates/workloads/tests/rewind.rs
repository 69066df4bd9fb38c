//! A rewound emulator is a fresh build. For every kernel at two seeds, one
//! emulator is marked right after it is built and then runs a
//! pseudo-random number of steps, past a step limit, to its natural halt
//! and a pseudo-random number of steps again, rewinding after each run.
//! After every rewind it must equal a fresh `Workload::build` in its
//! registers, PC index, executed count, halt reason and every memory byte,
//! and the next run must emit the same `DynInst` stream as the fresh
//! build's.

use orinoco_isa::{Emulator, HaltReason};
use orinoco_util::Rng;
use orinoco_workloads::Workload;

fn assert_same_state(got: &Emulator, fresh: &Emulator, what: &str) {
    assert_eq!(got.regs(), fresh.regs(), "{what}: registers");
    assert_eq!(got.pc_index(), fresh.pc_index(), "{what}: PC index");
    assert_eq!(got.executed(), fresh.executed(), "{what}: executed count");
    assert_eq!(got.halt_reason(), fresh.halt_reason(), "{what}: halt reason");
    let first_diff = got.memory().iter().zip(fresh.memory()).position(|(a, b)| a != b);
    assert_eq!(got.memory().len(), fresh.memory().len(), "{what}: memory size");
    assert_eq!(first_diff, None, "{what}: first differing memory byte");
}

/// Steps both emulators together until both halt or `n` steps ran,
/// requiring the same instruction at every step.
fn run_together(got: &mut Emulator, fresh: &mut Emulator, n: u64, what: &str) {
    for i in 0..n {
        let (a, b) = (got.step(), fresh.step());
        assert_eq!(a, b, "{what}: instruction {i}");
        if a.is_none() {
            return;
        }
    }
}

#[test]
fn a_rewound_emulator_equals_a_fresh_build() {
    for w in Workload::ALL {
        for seed in [1, 2] {
            let mut rng = Rng::seed_from_u64(seed << 8 | w as u64);
            let mut emu = w.build(seed, 1);
            emu.mark();
            for round in 0..4 {
                let what = format!("{w} seed {seed} run {round}");
                let mut fresh = w.build(seed, 1);
                assert_same_state(&emu, &fresh, &format!("{what}, before"));
                match round {
                    1 => {
                        let limit = rng.gen_range(1..20_000u64);
                        emu.set_step_limit(limit);
                        fresh.set_step_limit(limit);
                        run_together(&mut emu, &mut fresh, u64::MAX, &what);
                        assert_eq!(emu.executed(), limit, "{what}: stopped early");
                        assert_eq!(emu.step(), None, "{what}: stepped past the limit");
                        assert_eq!(emu.halt_reason(), Some(HaltReason::StepLimit));
                    }
                    2 => {
                        // The previous run's step limit must be gone.
                        run_together(&mut emu, &mut fresh, u64::MAX, &what);
                        assert_eq!(emu.halt_reason(), Some(HaltReason::Halted), "{what}");
                    }
                    _ => run_together(&mut emu, &mut fresh, rng.gen_range(1..50_000u64), &what),
                }
                emu.rewind();
            }
            assert_same_state(&emu, &w.build(seed, 1), &format!("{w} seed {seed}, last rewind"));
        }
    }
}
