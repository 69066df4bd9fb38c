//! Differential test of [`collect_bbvs`] against the pre-pass it
//! replaced, kept here as the reference: a `HashSet` of touched lines,
//! and a stratum and a dimension found by division for every
//! instruction. The vectors feed k-means, whose picks decide which
//! intervals run, so they must come out bit-identical: for programs
//! shorter and longer than the 64 dimensions, for periods that do not
//! divide the program's length, for memories of fewer than 64 lines, and
//! for emulators that have already run or carry a step limit.

use orinoco_core::collect_bbvs;
use orinoco_isa::{ArchReg, Emulator, ProgramBuilder};
use orinoco_workloads::{phased_program, Workload};
use std::collections::HashSet;

/// The reference pre-pass: a `HashSet` of lines and two divisions per
/// instruction.
fn reference_bbvs(mut emu: Emulator, period_insts: u64) -> Vec<Vec<f64>> {
    let prog_len = emu.program().len().max(1);
    let dims = prog_len.min(64);
    let mut counts: Vec<Vec<u64>> = Vec::new();
    let mut novelty: Vec<(u64, u64)> = Vec::new();
    let mut seen_lines = HashSet::new();
    while let Some(d) = emu.step() {
        let stratum = usize::try_from((emu.executed() - 1) / period_insts).expect("fits");
        if counts.len() <= stratum {
            counts.resize_with(stratum + 1, || vec![0u64; dims]);
            novelty.resize(stratum + 1, (0, 0));
        }
        counts[stratum][d.index * dims / prog_len] += 1;
        if let Some(addr) = d.mem_addr {
            let (first, total) = &mut novelty[stratum];
            *total += 1;
            if seen_lines.insert(addr >> 6) {
                *first += 1;
            }
        }
    }
    counts
        .into_iter()
        .zip(novelty)
        .map(|(v, (first, total))| {
            let t = v.iter().sum::<u64>().max(1) as f64;
            let mut out: Vec<f64> = v.into_iter().map(|c| c as f64 / t).collect();
            out.push(first as f64 / total.max(1) as f64);
            out
        })
        .collect()
}

/// A counted loop that loads, stores and strides through memory, with
/// `pad` extra ALU instructions in its body.
fn strided_loop(iters: i64, stride: i64, pad: usize, mem_bytes: usize) -> Emulator {
    let (x1, x2, x3) = (ArchReg::int(1), ArchReg::int(2), ArchReg::int(3));
    let mut b = ProgramBuilder::new();
    b.li(x1, iters);
    let top = b.label();
    b.bind(top);
    b.ld(x3, x2, 0);
    b.st(x3, x2, 8);
    b.addi(x2, x2, stride);
    for _ in 0..pad {
        b.addi(x3, x3, 1);
    }
    b.addi(x1, x1, -1);
    b.bne(x1, ArchReg::ZERO, top);
    b.halt();
    Emulator::new(b.build(), mem_bytes)
}

fn assert_same(emu: &Emulator, period: u64, what: &str) -> usize {
    let got = collect_bbvs(emu.clone(), period);
    let want = reference_bbvs(emu.clone(), period);
    assert_eq!(
        got.len(),
        want.len(),
        "{what}, period {period}: stratum count"
    );
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let g: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
        let w: Vec<u64> = w.iter().map(|x| x.to_bits()).collect();
        assert_eq!(g, w, "{what}, period {period}: stratum {i}");
    }
    got.len()
}

#[test]
fn short_programs_and_small_memories_match() {
    // 7 and 97 static instructions; 1, 16 and 1024 lines of memory.
    for pad in [0usize, 90] {
        for mem_bytes in [8usize, 1 << 10, 1 << 16] {
            for stride in [8i64, 64, 200] {
                let emu = strided_loop(300, stride, pad, mem_bytes);
                let what = format!("pad {pad}, {mem_bytes} B, stride {stride}");
                for period in [1u64, 7, 333, 1_000, 1 << 20] {
                    assert!(assert_same(&emu, period, &what) > 0, "{what}");
                }
            }
        }
    }
}

#[test]
fn workload_programs_match() {
    // Static lengths 78, 16, 22 and 5 instructions.
    let programs = [
        ("phased", phased_program(5, 12)),
        ("xz_like", Workload::XzLike.build(3, 1)),
        ("perl_like", Workload::PerlLike.build(3, 1)),
        ("mcf_like", Workload::McfLike.build(3, 1)),
    ];
    for (what, emu) in &programs {
        for period in [997u64, 4_000, 12_345] {
            assert!(assert_same(emu, period, what) > 3, "{what}");
        }
    }
}

#[test]
fn part_run_and_step_limited_emulators_match() {
    // Strata are numbered by `executed()`, so an emulator that has
    // already run starts mid-stratum, after zero vectors; a step limit
    // ends the pass early.
    let mut started = phased_program(2, 8);
    for _ in 0..10_123 {
        started.step();
    }
    assert_same(&started, 4_000, "started");
    assert_same(&started, 10_000, "started, one stratum in");
    let mut limited = phased_program(2, 8);
    limited.set_step_limit(20_500);
    assert_eq!(assert_same(&limited, 1_000, "limited"), 21);
    let mut halted = strided_loop(10, 8, 0, 1 << 10);
    while halted.step().is_some() {}
    assert_eq!(assert_same(&halted, 7, "halted"), 0);
}
