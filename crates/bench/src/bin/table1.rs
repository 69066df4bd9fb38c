//! **Table 1** — the microarchitecture configurations (verification
//! printout of the Base/Pro/Ultra presets).

use orinoco_core::CoreConfig;
use orinoco_mem::MemConfig;
use orinoco_stats::TextTable;

fn main() {
    println!("Table 1: microarchitecture configurations");
    println!();
    let mem = MemConfig::default();
    println!("Clock frequency    3.2 GHz (memory latencies scaled to cycles)");
    println!("Branch predictor   TAGE (~8 KB budget; paper: TAGE-SC-L-8KB)");
    println!("Prefetcher         {} streams", mem.prefetch_streams);
    println!(
        "L1 cache           {} KB, {}-way, {}-cycle",
        mem.l1.size_bytes >> 10,
        mem.l1.ways,
        mem.l1.latency
    );
    println!(
        "L2 cache           {} KB, {}-way, {}-cycle",
        mem.l2.size_bytes >> 10,
        mem.l2.ways,
        mem.l2.latency
    );
    println!(
        "LLC                {} MB, {}-way, {}-cycle",
        mem.llc.size_bytes >> 20,
        mem.llc.ways,
        mem.llc.latency
    );
    println!("Memory             DDR4-2400 ({} cycles)", mem.dram_latency);
    println!();
    let mut t = TextTable::new(vec![
        "size", "IW/CW", "ROB", "IQ", "LQ/SQ", "RF", "FU",
    ]);
    for cfg in [CoreConfig::base(), CoreConfig::pro(), CoreConfig::ultra()] {
        cfg.validate().expect("Table 1 presets are valid");
        t.row(vec![
            cfg.name.to_string(),
            format!("{}/{}", cfg.width, cfg.commit_width),
            cfg.rob_entries.to_string(),
            cfg.iq_entries.to_string(),
            format!("{}/{}", cfg.lq_entries, cfg.sq_entries),
            cfg.phys_regs.to_string(),
            cfg.fu.total().to_string(),
        ]);
    }
    println!("{t}");
}
