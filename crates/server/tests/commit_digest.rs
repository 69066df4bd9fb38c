//! The commit digest's oracle: `SimResult::commit_digest` is defined as
//! FNV-1a over `format!("{ev:?}\n")` of every commit event, and the server
//! computes it with `digest::fold_commit_event`, which formats nothing.
//! These tests hold the fold to the definition on real commit streams and
//! on hand-built events at every variant and range boundary, and hold
//! `FnvSkip` to plain FNV-1a for every starting low byte.

use orinoco_core::{CommitEvent, CommitKind, Core, SchedulerKind};
use orinoco_isa::{ArchReg, DynInst, InstClass, Opcode};
use orinoco_server::digest::{fold_commit_event, FnvSkip};
use orinoco_server::protocol::{fnv64, fnv64_from};
use orinoco_server::{ConfigSpec, Preset};
use orinoco_util::prop::forall;
use orinoco_workloads::Workload;

/// The digest as defined: FNV-1a over the event's `Debug` line.
fn formatted(hash: u64, ev: &CommitEvent) -> u64 {
    fnv64_from(hash, format!("{ev:?}\n").as_bytes())
}

#[test]
fn skip_equals_fnv_for_every_low_byte() {
    forall("fnv_skip", 0xd16e57, 64, |rng| {
        let len = if rng.gen_bool(0.1) { 0 } else { rng.gen_range(1..48u64) };
        let s: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let skip = FnvSkip::new(&s);
        for low in 0..256u64 {
            let h = (rng.next_u64() & !0xff) | low;
            assert_eq!(skip.apply(h), fnv64_from(h, &s), "string {s:?}, hash {h:#x}");
        }
    });
}

#[test]
fn fold_equals_format_on_every_kernel_and_sweep_config() {
    let configs = [
        (Preset::Base, SchedulerKind::Age, CommitKind::InOrder),
        (Preset::Base, SchedulerKind::Orinoco, CommitKind::Orinoco),
        (Preset::Base, SchedulerKind::CriOrinoco, CommitKind::Orinoco),
        (Preset::Ultra, SchedulerKind::Orinoco, CommitKind::Orinoco),
    ];
    let mut ooo = 0;
    for workload in Workload::ALL {
        for (preset, scheduler, commit) in configs {
            let spec = ConfigSpec { preset, scheduler, commit, ..ConfigSpec::orinoco_base() };
            let mut emu = workload.build(3, 1);
            emu.set_step_limit(3_000);
            let mut core = Core::new(emu, spec.to_core_config(3));
            core.enable_commit_trace();
            core.run(10_000_000);
            let events = core.drain_commit_trace();
            assert!(!events.is_empty(), "{workload} committed nothing");
            ooo += events.iter().filter(|ev| ev.out_of_order()).count();
            let (mut folded, mut reference) = (fnv64(b""), fnv64(b""));
            for ev in &events {
                folded = fold_commit_event(folded, ev);
                reference = formatted(reference, ev);
                assert_eq!(folded, reference, "{workload} {scheduler:?}/{commit:?}: {ev:?}");
            }
        }
    }
    assert!(ooo > 0, "no run committed out of order");
}

fn event(seq: u64, cycle: u64, oldest_live_seq: Option<u64>, dyn_inst: DynInst) -> CommitEvent {
    CommitEvent { seq, cycle, oldest_live_seq, dyn_inst }
}

#[test]
fn fold_equals_format_on_hand_built_boundary_events() {
    let regs = [
        None,
        Some(ArchReg::int(0)),
        Some(ArchReg::int(1)),
        Some(ArchReg::int(9)),
        Some(ArchReg::int(10)),
        Some(ArchReg::int(31)),
        Some(ArchReg::fp(0)),
        Some(ArchReg::fp(31)),
    ];
    let opts = [None, Some(0), Some(9), Some(10), Some(u64::MAX)];
    let nums = [0, 1, 9, 10, 99, 100, 1 << 32, u64::MAX - 1, u64::MAX];
    let mut events = Vec::new();
    for (i, op) in Opcode::ALL.into_iter().enumerate() {
        for (j, class) in InstClass::ALL.into_iter().enumerate() {
            let k = i * InstClass::ALL.len() + j;
            let pick = |n: usize| n * 7 + k;
            let dyn_inst = DynInst {
                seq: nums[pick(0) % nums.len()],
                index: [0, 7, usize::MAX][pick(1) % 3],
                pc: nums[pick(2) % nums.len()],
                op,
                class,
                dst: regs[pick(3) % regs.len()],
                src1: regs[pick(4) % regs.len()],
                src2: regs[pick(5) % regs.len()],
                mem_addr: opts[pick(6) % opts.len()],
                taken: k.is_multiple_of(2),
                next_pc: nums[pick(7) % nums.len()],
            };
            let ev = event(
                nums[pick(8) % nums.len()],
                nums[pick(9) % nums.len()],
                opts[pick(10) % opts.len()],
                dyn_inst,
            );
            events.push(ev);
        }
    }
    // Every field at its extreme at once, and every register alone.
    let max = DynInst {
        seq: u64::MAX,
        index: usize::MAX,
        pc: u64::MAX,
        op: Opcode::Halt,
        class: InstClass::Barrier,
        dst: Some(ArchReg::fp(31)),
        src1: Some(ArchReg::int(31)),
        src2: Some(ArchReg::fp(0)),
        mem_addr: Some(u64::MAX),
        taken: true,
        next_pc: u64::MAX,
    };
    events.push(event(u64::MAX, u64::MAX, Some(u64::MAX), max.clone()));
    events.push(event(0, 0, None, DynInst { mem_addr: None, taken: false, ..max.clone() }));
    for reg in regs {
        for (dst, src1, src2) in [(reg, None, None), (None, reg, None), (None, None, reg)] {
            events.push(event(1, 2, Some(0), DynInst { dst, src1, src2, ..max.clone() }));
        }
    }

    forall("fold_boundary", 0xf01d, 16, |rng| {
        for ev in &events {
            let h = rng.next_u64();
            assert_eq!(fold_commit_event(h, ev), formatted(h, ev), "{ev:?} from {h:#x}");
        }
    });
}
