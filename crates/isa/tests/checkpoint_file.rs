//! `ORCKPT1` checkpoint-file container properties: round-trip fidelity,
//! corruption rejection (truncation at every boundary, bit flips
//! anywhere, trailing bytes, unknown versions), and restore-from-file ≡
//! restore-from-bytes ≡ fork_rebased resumption.

use orinoco_isa::{
    ArchReg, EmuCheckpoint, Emulator, ProgramBuilder, CHECKPOINT_FILE_VERSION,
};
use orinoco_util::splitmix64;

/// A small program with enough state churn that a mid-flight checkpoint
/// carries non-trivial registers and memory.
fn churn_emu(n: i64, seed: u64) -> Emulator {
    let mut b = ProgramBuilder::new();
    let (x1, x2, x3) = (ArchReg::int(1), ArchReg::int(2), ArchReg::int(3));
    b.li(x1, n);
    b.li(x3, seed as i64 & 0xFFFF);
    let top = b.label();
    b.bind(top);
    b.add(x3, x3, x1);
    b.st(x3, x1, 128);
    b.ld(x2, x1, 128);
    b.addi(x1, x1, -1);
    b.bne(x1, ArchReg::ZERO, top);
    b.halt();
    Emulator::new(b.build(), 1 << 12)
}

/// Checkpoint taken `steps` instructions into the program.
fn ckpt_at(steps: u64, seed: u64) -> EmuCheckpoint {
    let mut emu = churn_emu(500, seed);
    for _ in 0..steps {
        emu.step();
    }
    emu.checkpoint()
}

#[test]
fn file_bytes_round_trip() {
    for steps in [0u64, 7, 123, 400] {
        let ck = ckpt_at(steps, 11);
        let decoded = EmuCheckpoint::from_file_bytes(&ck.to_file_bytes())
            .expect("round-trip must decode");
        assert_eq!(decoded, ck, "steps={steps}");
    }
}

#[test]
fn rejects_truncation_at_every_length() {
    let good = ckpt_at(57, 3).to_file_bytes();
    // Every strict prefix must be rejected — header boundaries, payload
    // interior and the checksum tail alike. Sample densely near the
    // header and sparsely through the (large) memory image.
    let mut lens: Vec<usize> = (0..64.min(good.len())).collect();
    let mut s = 0x1234_5678u64;
    for _ in 0..64 {
        lens.push((splitmix64(&mut s) as usize) % good.len());
    }
    for len in lens {
        assert!(
            EmuCheckpoint::from_file_bytes(&good[..len]).is_err(),
            "prefix of {len} bytes must not decode"
        );
    }
}

#[test]
fn rejects_any_bit_flip() {
    let good = ckpt_at(89, 5).to_file_bytes();
    let mut s = 0xDEAD_BEEFu64;
    for _ in 0..128 {
        let r = splitmix64(&mut s);
        let byte = (r as usize) % good.len();
        let bit = (r >> 48) % 8;
        let mut bad = good.clone();
        bad[byte] ^= 1 << bit;
        // A flip may land in the payload (checksum catches it), the
        // header (magic/version/length checks catch it) or the checksum
        // itself (mismatch). Nothing may decode successfully — except
        // the astronomically unlikely case of a colliding FNV, which the
        // fixed seed makes reproducible if it ever appears.
        assert!(
            EmuCheckpoint::from_file_bytes(&bad).is_err(),
            "flip at byte {byte} bit {bit} must not decode"
        );
    }
}

#[test]
fn rejects_trailing_bytes_and_unknown_version() {
    let ck = ckpt_at(33, 9);
    let mut trailing = ck.to_file_bytes();
    trailing.push(0);
    assert!(EmuCheckpoint::from_file_bytes(&trailing).is_err());

    let mut versioned = ck.to_file_bytes();
    versioned[7] = CHECKPOINT_FILE_VERSION + 1;
    let err = EmuCheckpoint::from_file_bytes(&versioned).unwrap_err();
    assert!(err.contains("version"), "got: {err}");

    let mut magic = ck.to_file_bytes();
    magic[0] ^= 0xFF;
    assert!(EmuCheckpoint::from_file_bytes(&magic).is_err());
}

#[test]
fn restore_from_file_equals_restore_from_bytes_and_fork() {
    let mut emu = churn_emu(300, 21);
    for _ in 0..173 {
        emu.step();
    }
    let ck = emu.checkpoint();

    let path = std::env::temp_dir().join(format!("orinoco-ckpt-file-test-{}", std::process::id()));
    ck.write_file(&path).expect("write checkpoint file");
    let from_file = EmuCheckpoint::read_file(&path).expect("read checkpoint file");
    let _ = std::fs::remove_file(&path);
    let from_bytes = EmuCheckpoint::from_bytes(&ck.to_bytes()).expect("decode bytes");
    assert_eq!(from_file, from_bytes);
    assert_eq!(from_file, ck);

    // All three resumption paths must replay the identical tail.
    let mut via_file = Emulator::restore(emu.program().clone(), &from_file);
    let mut via_bytes = Emulator::restore(emu.program().clone(), &from_bytes);
    let mut via_fork = emu.fork_rebased();
    loop {
        let (a, b, c) = (via_file.step(), via_bytes.step(), via_fork.step());
        assert_eq!(a, b);
        assert_eq!(a, c);
        if a.is_none() {
            break;
        }
    }
    assert_eq!(via_file.regs(), via_fork.regs());
    assert_eq!(via_file.memory(), via_fork.memory());
    assert_eq!(via_file.halt_reason(), via_fork.halt_reason());
}
