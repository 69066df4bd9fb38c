//! A TAGE branch predictor (TAgged GEometric history lengths), the
//! mechanism family behind the paper's TAGE-SC-L-8KB configuration.
//!
//! Eight tagged tables with geometrically increasing history lengths back a
//! bimodal base predictor. Indices and tags are computed from folded global
//! history (Seznec's incremental folding), the provider/alternate
//! prediction rule with `use_alt_on_newly_allocated` is implemented, and
//! allocation on misprediction steals not-useful entries in longer tables.
//! The statistical corrector and loop predictor of the full TAGE-SC-L are
//! omitted (they contribute fractions of a percent of accuracy); the
//! storage budget matches the paper's 8 KB at the default configuration.

use crate::predictor::{Counter2, DirectionPredictor};
use orinoco_util::xorshift64star;

const NUM_TABLES: usize = 8;
const HIST_LENGTHS: [usize; NUM_TABLES] = [4, 7, 13, 23, 41, 73, 130, 232];
const MAX_HIST: usize = 256;
const TAG_BITS: [u32; NUM_TABLES] = [8, 8, 9, 9, 10, 10, 11, 11];

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit prediction counter (-4..=3); >= 0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness counter.
    useful: u8,
}

/// Incrementally folded history register (Seznec).
#[derive(Clone, Debug)]
struct Folded {
    comp: u64,
    comp_len: u32,
    outpoint: u32,
}

impl Folded {
    fn new(orig_len: usize, comp_len: u32) -> Self {
        Self {
            comp: 0,
            comp_len,
            outpoint: (orig_len as u32) % comp_len,
        }
    }

    fn update(&mut self, in_bit: bool, out_bit: bool) {
        self.comp = (self.comp << 1) | u64::from(in_bit);
        self.comp ^= u64::from(out_bit) << self.outpoint;
        self.comp ^= self.comp >> self.comp_len;
        self.comp &= (1u64 << self.comp_len) - 1;
    }
}

/// The TAGE predictor.
///
/// # Examples
///
/// ```
/// use orinoco_frontend::{DirectionPredictor, Tage};
///
/// let mut t = Tage::new(10); // 2^10 entries per tagged table
/// // A pattern with period 6 is beyond bimodal but within TAGE history.
/// let pattern = [true, true, false, true, false, false];
/// let mut correct = 0;
/// for i in 0..3000 {
///     let outcome = pattern[i % pattern.len()];
///     if t.predict(0x400) == outcome && i >= 1500 {
///         correct += 1;
///     }
///     t.update(0x400, outcome);
/// }
/// assert!(correct > 1400); // > 93% accurate once warm
/// ```
#[derive(Clone, Debug)]
pub struct Tage {
    base: Vec<Counter2>,
    base_mask: u64,
    tables: Vec<Vec<TageEntry>>,
    table_mask: u64,
    index_bits: u32,
    /// Circular global-history buffer.
    hist: [bool; MAX_HIST],
    hist_pos: usize,
    folded_idx: Vec<Folded>,
    folded_tag0: Vec<Folded>,
    folded_tag1: Vec<Folded>,
    use_alt_on_na: i8,
    rng: u64,
    /// Stashed prediction context between `predict` and `update`.
    ctx: PredictCtx,
}

#[derive(Clone, Copy, Debug, Default)]
struct PredictCtx {
    pc: u64,
    provider: Option<usize>,
    provider_idx: usize,
    alt: Option<usize>,
    alt_idx: usize,
    provider_pred: bool,
    alt_pred: bool,
    pred: bool,
    provider_weak: bool,
}

impl Tage {
    /// Creates a TAGE predictor with `2^index_bits` entries per tagged
    /// table (the base bimodal gets four times that).
    ///
    /// With `index_bits = 10` the storage is ≈ 8 KB, matching the paper's
    /// TAGE-SC-L-8KB budget.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 20.
    #[must_use]
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=20).contains(&index_bits), "unreasonable index_bits");
        let entries = 1usize << index_bits;
        Self {
            base: vec![Counter2::new(1); entries * 4],
            base_mask: (entries as u64 * 4) - 1,
            tables: vec![vec![TageEntry::default(); entries]; NUM_TABLES],
            table_mask: entries as u64 - 1,
            index_bits,
            hist: [false; MAX_HIST],
            hist_pos: 0,
            folded_idx: HIST_LENGTHS
                .iter()
                .map(|&l| Folded::new(l, index_bits))
                .collect(),
            folded_tag0: (0..NUM_TABLES)
                .map(|t| Folded::new(HIST_LENGTHS[t], TAG_BITS[t]))
                .collect(),
            folded_tag1: (0..NUM_TABLES)
                .map(|t| Folded::new(HIST_LENGTHS[t], TAG_BITS[t] - 1))
                .collect(),
            use_alt_on_na: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            ctx: PredictCtx::default(),
        }
    }

    /// Returns the predictor to its freshly-constructed state in place,
    /// keeping all allocations (core reset path).
    pub fn reset(&mut self) {
        self.base.fill(Counter2::new(1));
        for t in &mut self.tables {
            t.fill(TageEntry::default());
        }
        self.hist = [false; MAX_HIST];
        self.hist_pos = 0;
        for f in self
            .folded_idx
            .iter_mut()
            .chain(self.folded_tag0.iter_mut())
            .chain(self.folded_tag1.iter_mut())
        {
            f.comp = 0;
        }
        self.use_alt_on_na = 0;
        self.rng = 0x9E37_79B9_7F4A_7C15;
        self.ctx = PredictCtx::default();
    }

    fn table_index(&self, table: usize, pc: u64) -> usize {
        let pc = pc >> 2;
        let f = self.folded_idx[table].comp;
        ((pc ^ (pc >> self.index_bits) ^ f) & self.table_mask) as usize
    }

    fn table_tag(&self, table: usize, pc: u64) -> u16 {
        let pc = pc >> 2;
        let t = pc ^ self.folded_tag0[table].comp ^ (self.folded_tag1[table].comp << 1);
        (t & ((1u64 << TAG_BITS[table]) - 1)) as u16
    }

    fn base_pred(&self, pc: u64) -> bool {
        self.base[((pc >> 2) & self.base_mask) as usize].taken()
    }

    fn push_history(&mut self, taken: bool) {
        self.hist_pos = (self.hist_pos + 1) % MAX_HIST;
        self.hist[self.hist_pos] = taken;
        for (t, &len) in HIST_LENGTHS.iter().enumerate() {
            let out_pos = (self.hist_pos + MAX_HIST - len) % MAX_HIST;
            let out_bit = self.hist[out_pos];
            self.folded_idx[t].update(taken, out_bit);
            self.folded_tag0[t].update(taken, out_bit);
            self.folded_tag1[t].update(taken, out_bit);
        }
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: u64) -> bool {
        let mut provider = None;
        let mut provider_idx = 0;
        let mut alt = None;
        let mut alt_idx = 0;
        for t in (0..NUM_TABLES).rev() {
            let idx = self.table_index(t, pc);
            if self.tables[t][idx].tag == self.table_tag(t, pc) {
                if provider.is_none() {
                    provider = Some(t);
                    provider_idx = idx;
                } else {
                    alt = Some(t);
                    alt_idx = idx;
                    break;
                }
            }
        }
        let alt_pred = match alt {
            Some(t) => self.tables[t][alt_idx].ctr >= 0,
            None => self.base_pred(pc),
        };
        let (pred, provider_pred, provider_weak) = match provider {
            Some(t) => {
                let e = &self.tables[t][provider_idx];
                let ppred = e.ctr >= 0;
                let weak = e.ctr == 0 || e.ctr == -1;
                // Newly allocated (weak, not yet useful) entries may be
                // worse than the alternate prediction.
                let p = if weak && e.useful == 0 && self.use_alt_on_na >= 0 {
                    alt_pred
                } else {
                    ppred
                };
                (p, ppred, weak)
            }
            None => (alt_pred, alt_pred, false),
        };
        self.ctx = PredictCtx {
            pc,
            provider,
            provider_idx,
            alt,
            alt_idx,
            provider_pred,
            alt_pred,
            pred,
            provider_weak,
        };
        pred
    }

    #[allow(clippy::too_many_lines)]
    fn update(&mut self, pc: u64, taken: bool) {
        // Re-derive the context if the caller skipped predict() for this pc
        // (robustness; the pipeline always pairs them).
        if self.ctx.pc != pc {
            let _ = self.predict(pc);
        }
        let ctx = self.ctx;
        let mispredicted = ctx.pred != taken;

        // use_alt_on_na bookkeeping.
        if let Some(t) = ctx.provider {
            let weak_na = ctx.provider_weak && self.tables[t][ctx.provider_idx].useful == 0;
            if weak_na && ctx.provider_pred != ctx.alt_pred {
                let delta = if ctx.alt_pred == taken { 1 } else { -1 };
                self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
            }
        }

        // Update provider counter (or base).
        match ctx.provider {
            Some(t) => {
                let e = &mut self.tables[t][ctx.provider_idx];
                e.ctr = if taken {
                    (e.ctr + 1).min(3)
                } else {
                    (e.ctr - 1).max(-4)
                };
                // usefulness: provider correct where alternate was wrong.
                if ctx.provider_pred != ctx.alt_pred {
                    if ctx.provider_pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
                // Also train the alternate/base when the provider entry is
                // still establishing itself.
                if ctx.provider_weak && self.tables[t][ctx.provider_idx].useful == 0 {
                    match ctx.alt {
                        Some(at) => {
                            let ae = &mut self.tables[at][ctx.alt_idx];
                            ae.ctr = if taken {
                                (ae.ctr + 1).min(3)
                            } else {
                                (ae.ctr - 1).max(-4)
                            };
                        }
                        None => {
                            let bi = ((pc >> 2) & self.base_mask) as usize;
                            self.base[bi].update(taken);
                        }
                    }
                }
            }
            None => {
                let bi = ((pc >> 2) & self.base_mask) as usize;
                self.base[bi].update(taken);
            }
        }

        // Allocate on misprediction in a longer-history table.
        if mispredicted {
            let start = ctx.provider.map_or(0, |t| t + 1);
            if start < NUM_TABLES {
                // Collect candidate tables with a non-useful victim
                // (fixed-size buffer: the hot loop is allocation-free).
                let mut candidates = [(0usize, 0usize); NUM_TABLES];
                let mut ncand = 0;
                for t in start..NUM_TABLES {
                    let idx = self.table_index(t, pc);
                    if self.tables[t][idx].useful == 0 {
                        candidates[ncand] = (t, idx);
                        ncand += 1;
                    }
                }
                let candidates = &candidates[..ncand];
                if candidates.is_empty() {
                    // Decay usefulness so future allocations succeed.
                    for t in start..NUM_TABLES {
                        let idx = self.table_index(t, pc);
                        let e = &mut self.tables[t][idx];
                        e.useful = e.useful.saturating_sub(1);
                    }
                } else {
                    // Prefer shorter history (first candidate) with a touch
                    // of randomisation, as in Seznec's implementation.
                    let pick = usize::from(
                        candidates.len() > 1 && xorshift64star(&mut self.rng).is_multiple_of(4),
                    );
                    let (t, idx) = candidates[pick];
                    let tag = self.table_tag(t, pc);
                    self.tables[t][idx] = TageEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                }
            }
        }

        self.push_history(taken);
        self.ctx = PredictCtx::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<P: DirectionPredictor>(
        p: &mut P,
        outcomes: impl Iterator<Item = (u64, bool)>,
        warmup: usize,
    ) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (i, (pc, taken)) in outcomes.enumerate() {
            let pred = p.predict(pc);
            if i >= warmup {
                total += 1;
                if pred == taken {
                    correct += 1;
                }
            }
            p.update(pc, taken);
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_strong_bias_immediately() {
        let mut t = Tage::new(8);
        let acc = accuracy(&mut t, (0..500).map(|_| (0x100, true)), 50);
        assert!(acc > 0.99, "biased-taken accuracy {acc}");
    }

    #[test]
    fn learns_long_period_pattern() {
        // Period-12 pattern: needs ~12 bits of history.
        let pat = [
            true, true, true, false, true, false, false, true, true, false, false, false,
        ];
        let mut t = Tage::new(10);
        let acc = accuracy(
            &mut t,
            (0..6000).map(|i| (0x200, pat[i % pat.len()])),
            3000,
        );
        assert!(acc > 0.9, "period-12 accuracy {acc}");
    }

    #[test]
    fn beats_bimodal_on_correlated_branches() {
        // Branch B is taken iff the last two As were taken; A alternates
        // with period 3: a correlation pattern bimodal cannot see.
        let make = || {
            let mut seq = Vec::new();
            let mut hist = [false, false];
            for i in 0..4000 {
                let a = i % 3 != 0;
                seq.push((0x40u64, a));
                let b = hist[0] && hist[1];
                seq.push((0x80u64, b));
                hist = [hist[1], a];
            }
            seq
        };
        let mut tage = Tage::new(10);
        let mut bim = crate::Bimodal::new(4096);
        let acc_t = accuracy(&mut tage, make().into_iter(), 2000);
        let acc_b = accuracy(&mut bim, make().into_iter(), 2000);
        assert!(
            acc_t > acc_b + 0.05,
            "tage {acc_t} should clearly beat bimodal {acc_b}"
        );
        assert!(acc_t > 0.95, "tage accuracy {acc_t}");
    }

    #[test]
    fn handles_many_branch_pcs_without_pathology() {
        let mut t = Tage::new(8);
        let acc = accuracy(
            &mut t,
            (0..20_000).map(|i| {
                let pc = 0x1000 + ((i * 37) % 128) * 4;
                (pc, (i / 7) % 3 == 0)
            }),
            10_000,
        );
        // Not asserting high accuracy (the pattern is deliberately messy),
        // only that the predictor stays sane.
        assert!(acc > 0.4, "degenerate accuracy {acc}");
    }

    #[test]
    fn folded_history_stays_within_width() {
        let mut f = Folded::new(100, 10);
        for i in 0..1000 {
            f.update(i % 3 == 0, i % 7 == 0);
            assert!(f.comp < (1 << 10));
        }
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = Tage::new(8);
        let mut b = a.clone();
        for i in 0..1000u64 {
            let pc = 0x40 + (i % 16) * 4;
            let taken = (i / 5) % 2 == 0;
            assert_eq!(a.predict(pc), b.predict(pc));
            a.update(pc, taken);
            b.update(pc, taken);
        }
    }

    #[test]
    #[should_panic(expected = "unreasonable")]
    fn zero_index_bits_panics() {
        let _ = Tage::new(0);
    }
}
