//! Ablation studies of the design choices `DESIGN.md` calls out:
//!
//! * **commit depth** — how far the Orinoco commit logic scans
//!   (§6.2: "a limited commit depth hinders reaping the maximum
//!   performance benefits"; the non-collapsible ROB makes unlimited depth
//!   free);
//! * **validation-buffer size** — the post-commit execution capacity
//!   behind VB;
//! * **banked dispatch** — the §4.3 one-write-port-per-bank constraint
//!   under the one steering policy the core runs (`Rob::alloc_banked`:
//!   the latest-freed ROB slot in a bank not yet written this cycle),
//!   with the conflict stalls it caused;
//! * **MSHRs** — how memory-level parallelism headroom scales the
//!   out-of-order-commit gain;
//! * **prefetcher** — stream prefetching on/off under both commit
//!   policies.

use orinoco_bench::{geomean_row, ipc, run, speedup_rows};
use orinoco_core::{CommitKind, CoreConfig};
use orinoco_stats::TextTable;
use orinoco_workloads::Workload;

/// Memory-sensitive subset used for the MLP-oriented ablations.
const MEM_SET: [Workload; 4] = [
    Workload::LinkedlistLike,
    Workload::MixLike,
    Workload::StreamLike,
    Workload::XzLike,
];

fn geo_ipc(configs: &CoreConfig) -> f64 {
    let vals: Vec<f64> = MEM_SET.iter().map(|&w| ipc(w, configs.clone())).collect();
    orinoco_stats::geomean(&vals)
}

fn main() {
    commit_depth();
    vb_size();
    banked_dispatch();
    split_iq();
    mshrs();
    prefetcher();
}

fn split_iq() {
    println!(
        "Ablation: unified vs split per-type IQs (§5), all {} kernels",
        Workload::ALL.len()
    );
    let baseline = CoreConfig::base();
    let rows = speedup_rows(&baseline, &[CoreConfig::base().with_split_iq()]);
    let g = geomean_row(&rows);
    let worst = rows
        .iter()
        .min_by(|a, b| a.1[0].total_cmp(&b.1[0]))
        .expect("non-empty");
    println!(
        "split vs unified: geomean {:.4} (worst {}: {:.4})",
        g[0], worst.0, worst.1[0]
    );
    println!("(decentralising the matrices costs capacity efficiency, as §5 predicts)");
    println!();
}

fn commit_depth() {
    println!("Ablation: Orinoco commit depth (geomean IPC over memory-bound kernels)");
    let mut t = TextTable::new(vec!["depth", "geomean IPC", "vs unlimited"]);
    let unlimited = geo_ipc(&CoreConfig::base().with_commit(CommitKind::Orinoco));
    for depth in [4usize, 16, 64, 128] {
        let v = geo_ipc(
            &CoreConfig::base()
                .with_commit(CommitKind::Orinoco)
                .with_commit_depth(depth),
        );
        t.row_f64(&depth.to_string(), &[v, v / unlimited], 3);
    }
    t.row_f64("unlimited", &[unlimited, 1.0], 3);
    println!("{t}");
    println!("(the paper's unlimited scan over the non-collapsible ROB is the rightmost point)");
    println!();
}

fn vb_size() {
    println!("Ablation: validation-buffer capacity (VB policy)");
    let mut t = TextTable::new(vec!["entries", "geomean IPC"]);
    for entries in [4usize, 16, 64, 256] {
        let mut cfg = CoreConfig::base().with_commit(CommitKind::Vb);
        cfg.vb_entries = entries;
        t.row_f64(&entries.to_string(), &[geo_ipc(&cfg)], 3);
    }
    println!("{t}");
    println!();
}

fn banked_dispatch() {
    println!(
        "Ablation: multibank dispatch steering (§4.3; each dispatch takes the latest-freed \
         ROB slot in a bank not yet written this cycle), all {} kernels",
        Workload::ALL.len()
    );
    let banked = CoreConfig::base().with_banked_dispatch();
    let rows = speedup_rows(&CoreConfig::base(), std::slice::from_ref(&banked));
    let stalls: u64 = Workload::ALL
        .iter()
        .map(|&w| run(w, banked.clone()).bank_conflict_stalls)
        .sum();
    let g = geomean_row(&rows);
    let worst = rows
        .iter()
        .min_by(|a, b| a.1[0].total_cmp(&b.1[0]))
        .expect("non-empty");
    println!(
        "banked vs unconstrained dispatch: geomean {:.4} (worst {}: {:.4})",
        g[0], worst.0, worst.1[0]
    );
    println!("bank-conflict stalls over all kernels: {stalls}");
    println!(
        "(the banks split the ROB's physical slots, twice its logical entries; with no \
         conflict stall the rule refused no dispatch, and the IPC differences come only \
         from which slot it picks)"
    );
    println!();
}

fn mshrs() {
    println!("Ablation: MSHR count vs out-of-order-commit gain");
    let mut t = TextTable::new(vec!["MSHRs", "IOC", "Orinoco", "gain"]);
    for mshrs in [8usize, 16, 32, 64] {
        let mut ioc = CoreConfig::base();
        ioc.mem.mshrs = mshrs;
        let mut ooo = CoreConfig::base().with_commit(CommitKind::Orinoco);
        ooo.mem.mshrs = mshrs;
        let a = geo_ipc(&ioc);
        let b = geo_ipc(&ooo);
        t.row_f64(&mshrs.to_string(), &[a, b, b / a], 3);
    }
    println!("{t}");
    println!("(early reclamation only pays off while the memory system can absorb more misses)");
    println!();
}

fn prefetcher() {
    println!("Ablation: stream prefetcher on/off");
    let mut t = TextTable::new(vec!["prefetcher", "IOC", "Orinoco"]);
    for (label, streams) in [("off", 0usize), ("64 streams", 64)] {
        let mut ioc = CoreConfig::base();
        ioc.mem.prefetch_streams = streams;
        let mut ooo = CoreConfig::base().with_commit(CommitKind::Orinoco);
        ooo.mem.prefetch_streams = streams;
        t.row_f64(label, &[geo_ipc(&ioc), geo_ipc(&ooo)], 3);
    }
    println!("{t}");
}
