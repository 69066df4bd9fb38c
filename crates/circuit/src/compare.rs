//! The implementation-technology comparison of §6.3: PIM SRAM versus 12T
//! dynamic logic versus static logic, plus the collapsible-queue power
//! wall and the whole-core overhead estimate.

use crate::model::{collapsible_queue_power_w, ArrayModel, SchedulerTech};

/// One row of the technology comparison for a given geometry.
#[derive(Clone, Copy, Debug)]
pub struct TechRow {
    /// Technology.
    pub tech: SchedulerTech,
    /// Area (mm²).
    pub area_mm2: f64,
    /// Read latency (ps).
    pub latency_ps: f64,
    /// Cell transistor count.
    pub transistors: u64,
}

/// Compares the three implementation technologies at `rows × cols`
/// (`banks` applies to the array-structured ones).
#[must_use]
pub fn compare_techs(rows: usize, cols: usize, banks: usize) -> Vec<TechRow> {
    [
        SchedulerTech::PimSram,
        SchedulerTech::DynamicLogic12T,
        SchedulerTech::StaticLogic,
    ]
    .into_iter()
    .map(|tech| {
        let m = ArrayModel::pim(rows, cols, banks).with_tech(tech);
        TechRow {
            tech,
            area_mm2: m.area_mm2(),
            latency_ps: m.read_latency_ps(),
            transistors: m.transistors(),
        }
    })
    .collect()
}

/// §6.3 headline: the area reduction of the PIM arrays over traditional
/// dynamic-logic matrix schedulers of the same size (the paper reports
/// 3.75×: a third fewer transistors at double density, plus peripheral
/// savings).
#[must_use]
pub fn area_reduction_vs_dynamic(rows: usize, cols: usize, banks: usize) -> f64 {
    let pim = ArrayModel::pim(rows, cols, banks);
    let dynl = pim.with_tech(SchedulerTech::DynamicLogic12T);
    dynl.area_mm2() / pim.area_mm2()
}

/// §6.3: power of a theoretical 96-entry collapsible IQ relative to the
/// IQ age matrix (the paper reports ~2.1 W, ~70×).
#[must_use]
pub fn collapsible_power_ratio() -> (f64, f64) {
    // A 96-entry IQ holds ~128-bit entries (tags, immediates, control);
    // compaction reads and writes every entry every cycle at 3.2 GHz.
    let collapsible_w = collapsible_queue_power_w(96, 128, 3.2);
    let age = ArrayModel::pim(96, 96, 4).power_w(7.8, 2.0);
    (collapsible_w, collapsible_w / age)
}

/// Whole-core overhead (§6.3): the paper measures the baseline OoO core
/// with McPAT at 22 nm — ~42.5 mm² and ~20 W per core class — and finds
/// the four matrix schedulers add 0.3% area and 0.6% power.
#[derive(Clone, Copy, Debug)]
pub struct CoreOverhead {
    /// Sum of scheduler areas (mm²).
    pub schedulers_mm2: f64,
    /// Assumed core area (mm²).
    pub core_mm2: f64,
    /// Area overhead fraction.
    pub area_fraction: f64,
    /// Sum of scheduler power (W).
    pub schedulers_w: f64,
    /// Assumed core power (W).
    pub core_w: f64,
    /// Power overhead fraction.
    pub power_fraction: f64,
}

/// Computes the whole-core overhead of the four Table 2 schedulers
/// against a Skylake-class core budget (the McPAT substitution).
#[must_use]
pub fn core_overhead() -> CoreOverhead {
    let rows = crate::table2::regenerate(None);
    let schedulers_mm2: f64 = rows.iter().map(|r| r.model.area_mm2).sum();
    let schedulers_w: f64 = rows.iter().map(|r| r.power_w).sum();
    // A Skylake-class core + private L2 is ~8.5 mm² at 14 nm; McPAT at
    // 22 nm as used by the paper lands near 8 mm² core-only with ~22 W.
    let core_mm2 = 8.0;
    let core_w = 22.0;
    CoreOverhead {
        schedulers_mm2,
        core_mm2,
        area_fraction: schedulers_mm2 / core_mm2,
        schedulers_w,
        core_w,
        power_fraction: schedulers_w / core_w,
    }
}

/// §6.4 scaling check: the 512-entry ROB age matrix of the Ultra core —
/// splitting the array vertically in addition to horizontal banking (the
/// paper's suggestion) restores the latency to the pipeline budget.
#[must_use]
pub fn ultra_rob_scaling() -> (f64, f64) {
    // Ultra is 8-wide, so its schedulers have 8 horizontal banks (§4.3).
    let monolithic = ArrayModel::pim(512, 512, 8).read_latency_ps();
    // Vertical split: each half holds 256 columns; the partial results
    // merge through one extra 2-input NOR (≈ 25 ps), per §6.4.
    let split = ArrayModel::pim(512, 256, 8).read_latency_ps() + 25.0;
    (monolithic, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech_comparison_orders_area() {
        let rows = compare_techs(96, 96, 4);
        assert!(rows[0].area_mm2 < rows[1].area_mm2);
        assert!(rows[1].area_mm2 <= rows[2].area_mm2);
        assert_eq!(rows[0].transistors, 96 * 96 * 8);
        assert_eq!(rows[1].transistors, 96 * 96 * 12);
    }

    #[test]
    fn area_reduction_near_paper() {
        // Paper: 3.75x. The model lands in the 2.5-4.5x band.
        let r = area_reduction_vs_dynamic(224, 224, 4);
        assert!((2.5..4.5).contains(&r), "area reduction {r}");
    }

    #[test]
    fn collapsible_power_wall() {
        let (watts, ratio) = collapsible_power_ratio();
        // Paper: ~2.1 W and ~70x the age matrix.
        assert!((1.0..4.0).contains(&watts), "collapsible {watts} W");
        assert!(ratio > 25.0, "ratio {ratio}");
    }

    #[test]
    fn overhead_fractions_sub_percent() {
        let o = core_overhead();
        // Paper: 0.3% area, 0.6% power.
        assert!(o.area_fraction < 0.01, "area {:.3}%", o.area_fraction * 100.0);
        assert!(o.power_fraction < 0.015, "power {:.3}%", o.power_fraction * 100.0);
        assert!(o.schedulers_mm2 > 0.0 && o.schedulers_w > 0.0);
    }

    #[test]
    fn ultra_rob_needs_vertical_split() {
        let (mono, split) = ultra_rob_scaling();
        assert!(mono > 575.0, "512x512 should miss the budget: {mono} ps");
        assert!(split < mono);
        // The split array lands within ~15% of the 500 ps budget; the
        // paper additionally drops the bit-count sensing for the ROB age
        // matrix (plain NOR), which relaxes the sense margin.
        assert!(split < 575.0, "split array {split} ps");
    }
}
