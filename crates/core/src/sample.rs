//! Checkpointed interval sampling: whole-program IPC and stall-taxonomy
//! estimates from detailed simulation of a small fraction of the
//! instruction stream (the SMARTS/SimPoint recipe the paper's SPEC2017
//! evaluation relies on).
//!
//! The [`run_sampled`] driver alternates two execution modes over one
//! master [`Emulator`]:
//!
//! * **Functional fast-forward** — the master steps architecturally
//!   (tens of millions of instructions per second, no timing model)
//!   between sample points.
//! * **Detailed intervals** — at each sample point the master is
//!   checkpointed in memory ([`EmuCheckpoint`]), a worker restores the
//!   checkpoint onto a pooled core,
//!   **W** warmup instructions refill the pipeline/caches/predictors,
//!   then the next **D** instructions are measured with the machine still
//!   in flight (the window closes at a commit count, not at a drain, so
//!   no artificial pipeline-drain tail biases the CPI).
//!
//! The fast-forward is not blind: every executed instruction (within the
//! [`SampleConfig::warm_horizon`], when one is set) also walks the cache
//! tag arrays and trains the branch predictor/BTB/RAS
//! ([`WarmState::warm_step`]), so each detailed interval starts from the
//! microarchitectural state a full run would have accumulated. This is
//! the load-bearing half of SMARTS: detailed warmup alone cannot rebuild
//! megabytes of cache contents in a few thousand instructions, and
//! without functional warming cache-resident workloads read 20%+ slow.
//! Interval *placement* is stratified ([`SampleConfig::jitter_seed`]):
//! each sample point sits at a deterministic pseudo-random offset within
//! its period, which breaks the phase-lock aliasing that plain systematic
//! sampling suffers on periodic programs.
//!
//! # Parallel detailed intervals
//!
//! Every detailed interval is independent given its checkpoint and warm
//! image, so [`SampleConfig::with_threads`] shards them across worker
//! threads (`orinoco_util::pool::ordered_pipeline_map`). The master
//! emulator stays on the calling thread as a *producer*: it
//! fast-forwards (warming as it goes), snapshots a checkpoint plus a
//! clone of the warm image at each sample point, and feeds a
//! bounded queue. Each worker holds a private [`Fleet`] and runs its
//! intervals through [`Fleet::with_lane`] — the core is revived
//! allocation-free across intervals, and a panicking interval discards
//! the lane (broken invariants are never revived) and ends the run with
//! the panic a serial run raises. Results merge **in production
//! order**, so [`SampledStats`] — estimates, CI95, taxonomy, and
//! [`SampledStats::summary`] — is byte-identical at any thread count;
//! the bounded queue caps how many checkpoints (each carrying a full
//! memory image) exist at once.
//!
//! # Phase clustering
//!
//! Stratified placement spends one detailed interval per period even
//! when the program spends millions of instructions in the same phase.
//! [`SampleConfig::phases`] instead runs a functional pre-pass that
//! collects one basic-block vector per period stratum
//! ([`collect_bbvs`]), clusters the strata with deterministic
//! splitmix-seeded k-means ([`cluster_bbvs`]), and runs a detailed
//! interval only for the most representative stratum of each cluster,
//! weighted by cluster size — the SimPoint recipe on top of the SMARTS
//! machinery. All estimators are weight-aware; with every weight 1 they
//! reduce exactly to the unweighted formulas. The pre-pass runs a clone
//! of the master, step limit included, so it also counts the program's
//! instructions: the master stops after the last representative.
//!
//! # Estimator and error model
//!
//! Interval `j` measures `insts_j` commits in `cycles_j` cycles with
//! weight `w_j` (1 unless phase clustering assigned it a cluster). The
//! whole-program estimate is the weighted ratio estimator —
//! `CPI = Σ w_j·cycles_j / Σ w_j·insts_j` — and the per-interval CPI
//! spread supplies the error bars: with effective sample size `Σw` and
//! frequency-weighted sample standard deviation `s`, the standard error
//! is `s/√Σw` and [`SampledStats::cpi_ci95`] reports the usual
//! `1.96·s/√Σw` 95% interval. Stall-taxonomy counts aggregate over the
//! measured windows (weighted) and scale by `total_insts / Σ w·insts`
//! for a whole-program estimate.
//!
//! # Example
//!
//! ```
//! use orinoco_core::sample::{run_sampled, SampleConfig};
//! use orinoco_core::{CommitKind, CoreConfig, SchedulerKind};
//! use orinoco_workloads::Workload;
//!
//! let emu = Workload::ExchangeLike.build(7, 1);
//! let cfg = CoreConfig::base()
//!     .with_scheduler(SchedulerKind::Orinoco)
//!     .with_commit(CommitKind::Orinoco);
//! let scfg = SampleConfig::new(2_000, 10_000, 30_000);
//! let est = run_sampled(emu, cfg, &scfg);
//! assert!(est.intervals.len() > 1);
//! assert!(est.est_ipc() > 0.1);
//! ```

use crate::config::CoreConfig;
use crate::fleet::Fleet;
use crate::pipeline::{Core, WarmState};
use orinoco_isa::{EmuCheckpoint, Emulator, Program};
use orinoco_stats::{StallCause, StallTaxonomy};
use orinoco_util::pool::{default_jobs, ordered_pipeline_map};
use orinoco_util::splitmix64;

/// Default stratified-placement seed ([`SampleConfig::jitter_seed`]).
pub const DEFAULT_JITTER_SEED: u64 = 0x0913_0C0D_E5EE_D001;

/// Default per-interval detailed-cycle budget
/// ([`SampleConfig::max_cycles_per_interval`]).
pub const DEFAULT_MAX_CYCLES_PER_INTERVAL: u64 = 2_000_000_000;

/// Interval-sampling parameters (instruction counts, not cycles).
#[derive(Clone, Copy, Debug)]
pub struct SampleConfig {
    /// Detailed warmup instructions per interval (committed before the
    /// measurement window opens).
    pub warmup_insts: u64,
    /// Measured instructions per interval.
    pub detail_insts: u64,
    /// Instructions between interval starts; the gap
    /// `period_insts - warmup_insts - detail_insts` is fast-forwarded
    /// functionally.
    pub period_insts: u64,
    /// Per-interval detailed-cycle budget; exceeding it is a deadlock
    /// panic, mirroring [`Core::run`].
    pub max_cycles_per_interval: u64,
    /// Stratified-sampling seed: each interval is placed at a
    /// deterministic pseudo-random offset within its period stratum
    /// instead of always at the stratum start. `None` degrades to plain
    /// systematic sampling (interval start = `k · period`), which aliases
    /// badly when the period is near a multiple of any program
    /// periodicity — a loop body, a buffer-wrap cycle — and can bias the
    /// estimate by 10%+ while the CI still looks tight. Leave this set
    /// (the default) unless deliberately studying that failure mode.
    pub jitter_seed: Option<u64>,
    /// Wrong-path pollution depth used by functional warming — synthetic
    /// wrong-path instructions emulated per functionally-detected
    /// misprediction. `None` (the default) uses the adaptive model that
    /// scales the episode with the branch's resolution slack; `Some(0)`
    /// disables pollution. See [`WarmState::warm_step`].
    pub wrong_path_depth: Option<u32>,
    /// Functional-warming horizon: when set, only the last `H`
    /// instructions before each sample point are warmed; the rest of the
    /// fast-forward runs as pure architectural emulation, which is ~6×
    /// faster than emulate-and-warm. `None` (the default) warms the whole
    /// stream — the accuracy-first mode.
    ///
    /// This is the speed/accuracy lever for 100M+ instruction runs: with
    /// sparse periods (≥1M instructions) full-stream warming dominates
    /// the wall clock and caps the speedup over detailed simulation at
    /// ~10×; a horizon of ~100k instructions restores near-raw-emulation
    /// fast-forward speed. The cost is image staleness — evictions and
    /// fills inside the skipped gap are lost — which is benign for
    /// programs whose working set is in steady state (the common case for
    /// long loop-dominated regions) but can bias workloads that migrate
    /// their footprint faster than the horizon re-warms it. Keep
    /// `H ≥ 10 × warmup_insts` or so; predictors retrain within a few
    /// thousand branches, caches are the binding constraint.
    pub warm_horizon: Option<u64>,
    /// Worker threads for the detailed intervals (default 1 = serial;
    /// 0 = one per available core, `ORINOCO_JOBS` respected). Output is
    /// byte-identical at any thread count — parallelism only changes
    /// wall-clock time. See the module docs.
    pub threads: usize,
    /// Phase clustering: `Some(k)` replaces one-interval-per-stratum
    /// placement with k-means over per-stratum basic-block vectors and
    /// runs only the k representative intervals, weighted by cluster
    /// size. `None` (the default) samples every stratum.
    pub phases: Option<usize>,
}

impl SampleConfig {
    /// A configuration with warmup `w`, detail `d` and period `p`
    /// instructions, functional warming and stratified placement on,
    /// serial (1 thread), no phase clustering.
    ///
    /// # Panics
    ///
    /// Panics if [`SampleConfig::validate`] rejects the parameters
    /// (`d == 0` or `p < w + d`).
    #[must_use]
    pub fn new(w: u64, d: u64, p: u64) -> Self {
        let cfg = Self {
            warmup_insts: w,
            detail_insts: d,
            period_insts: p,
            max_cycles_per_interval: DEFAULT_MAX_CYCLES_PER_INTERVAL,
            jitter_seed: Some(DEFAULT_JITTER_SEED),
            wrong_path_depth: None,
            warm_horizon: None,
            threads: 1,
            phases: None,
        };
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        cfg
    }

    /// The largest [`SampleConfig::threads`] a configuration may ask for.
    /// The pool starts a worker thread only when the producer issues an
    /// interval, so a run starts at most `min(threads, intervals)` OS
    /// threads, and its queue holds at most `threads + 2` checkpoints,
    /// each with a full memory image. The ceiling bounds both: 256 is far
    /// above the core count of any host the simulator runs on and far
    /// below the thread count that exhausts process ids.
    pub const MAX_THREADS: usize = 256;

    /// Checks the parameter invariants: `detail_insts > 0`,
    /// `period_insts >= warmup_insts + detail_insts`, `phases`, when set,
    /// at least 1, and `threads` at most [`SampleConfig::MAX_THREADS`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant. ([`SampleConfig::new`] and [`run_sampled`] panic on
    /// it.)
    pub fn validate(&self) -> Result<(), String> {
        if self.detail_insts == 0 {
            return Err("detail_insts must be positive".into());
        }
        let need = self.warmup_insts.checked_add(self.detail_insts);
        if need.is_none_or(|need| self.period_insts < need) {
            return Err(format!(
                "period {} shorter than warmup {} + detail {}",
                self.period_insts, self.warmup_insts, self.detail_insts,
            ));
        }
        if self.phases == Some(0) {
            return Err("phases requires at least one cluster".into());
        }
        if self.threads > Self::MAX_THREADS {
            return Err(format!(
                "threads {} above the ceiling of {}",
                self.threads,
                Self::MAX_THREADS,
            ));
        }
        Ok(())
    }

    /// Plain systematic sampling (no stratified jitter) — aliasing-prone;
    /// see [`SampleConfig::jitter_seed`].
    #[must_use]
    pub fn systematic(mut self) -> Self {
        self.jitter_seed = None;
        self
    }

    /// Overrides the wrong-path pollution depth used by functional
    /// warming (`0` disables pollution emulation).
    #[must_use]
    pub fn with_wrong_path_depth(mut self, depth: u32) -> Self {
        self.wrong_path_depth = Some(depth);
        self
    }

    /// Restricts functional warming to the last `insts` instructions
    /// before each sample point (see [`SampleConfig::warm_horizon`]).
    #[must_use]
    pub fn with_warm_horizon(mut self, insts: u64) -> Self {
        self.warm_horizon = Some(insts);
        self
    }

    /// Runs the detailed intervals on `n` worker threads (0 = one per
    /// available core). Byte-identical output at any thread count.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Phase-clustered placement: detailed-simulate only the `k` most
    /// representative strata (by basic-block-vector k-means), weighted by
    /// cluster size. See the module docs.
    #[must_use]
    pub fn phases(mut self, k: usize) -> Self {
        self.phases = Some(k);
        self
    }
}

/// One measured interval.
#[derive(Clone, Copy, Debug)]
pub struct IntervalSample {
    /// Whole-program instruction offset at which the *interval* (warmup
    /// included) began.
    pub start_inst: u64,
    /// Instructions committed inside the measurement window.
    pub insts: u64,
    /// Cycles the window spanned.
    pub cycles: u64,
    /// Zero-commit-cycle stall attribution inside the window.
    pub taxonomy: StallTaxonomy,
    /// Estimator weight: 1 under stratified/systematic placement, the
    /// cluster size under phase clustering (this interval stands in for
    /// `weight` strata).
    pub weight: u64,
}

impl IntervalSample {
    /// Cycles per instruction in this window.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.insts.max(1) as f64
    }
}

/// The sampled-simulation estimate produced by [`run_sampled`].
#[derive(Clone, Debug)]
pub struct SampledStats {
    /// Every measured interval, in program order.
    pub intervals: Vec<IntervalSample>,
    /// Dynamic instructions in the whole program (master emulator).
    pub total_insts: u64,
    /// Instructions simulated in detail inside measurement windows
    /// (actual work done — unweighted).
    pub detailed_insts: u64,
    /// Instructions simulated in detail as warmup (not measured).
    pub warmup_insts: u64,
    /// Aggregate stall taxonomy over the measurement windows (raw
    /// unweighted counts; scale with [`SampledStats::scaled_taxonomy`]).
    pub taxonomy: StallTaxonomy,
}

impl SampledStats {
    /// Sum of interval weights — the effective sample size `Σw` the error
    /// model divides by (equals the interval count unless phase
    /// clustering assigned weights).
    #[must_use]
    pub fn weight_sum(&self) -> u64 {
        self.intervals.iter().map(|s| s.weight).sum()
    }

    /// Weighted cycle and instruction sums `(Σ w·cycles, Σ w·insts)`.
    fn weighted_sums(&self) -> (u128, u128) {
        self.intervals.iter().fold((0u128, 0u128), |(c, i), s| {
            (
                c + u128::from(s.weight) * u128::from(s.cycles),
                i + u128::from(s.weight) * u128::from(s.insts),
            )
        })
    }

    /// Whole-program CPI estimate (weighted ratio estimator over all
    /// windows: `Σ w·cycles / Σ w·insts`).
    #[must_use]
    pub fn est_cpi(&self) -> f64 {
        let (cycles, insts) = self.weighted_sums();
        cycles as f64 / insts.max(1) as f64
    }

    /// Whole-program IPC estimate.
    #[must_use]
    pub fn est_ipc(&self) -> f64 {
        1.0 / self.est_cpi()
    }

    /// Estimated whole-program cycle count (`CPI × total instructions`).
    #[must_use]
    pub fn est_cycles(&self) -> f64 {
        self.est_cpi() * self.total_insts as f64
    }

    /// Frequency-weighted sample standard deviation of the per-interval
    /// CPIs (denominators `Σw`, `Σw − 1`; with all weights 1 this is the
    /// plain sample standard deviation).
    #[must_use]
    pub fn cpi_stddev(&self) -> f64 {
        let wsum = self.weight_sum();
        if wsum < 2 {
            return 0.0;
        }
        let mean = self
            .intervals
            .iter()
            .map(|s| s.weight as f64 * s.cpi())
            .sum::<f64>()
            / wsum as f64;
        let var = self
            .intervals
            .iter()
            .map(|s| s.weight as f64 * (s.cpi() - mean).powi(2))
            .sum::<f64>()
            / (wsum - 1) as f64;
        var.sqrt()
    }

    /// Standard error of the CPI estimate (`s/√Σw`).
    #[must_use]
    pub fn cpi_stderr(&self) -> f64 {
        let wsum = self.weight_sum();
        if wsum == 0 {
            return 0.0;
        }
        self.cpi_stddev() / (wsum as f64).sqrt()
    }

    /// Half-width of the 95% confidence interval on the CPI estimate
    /// (`1.96·s/√Σw`).
    #[must_use]
    pub fn cpi_ci95(&self) -> f64 {
        1.96 * self.cpi_stderr()
    }

    /// The 95% confidence half-width as a fraction of the CPI estimate —
    /// the relative error bar quoted next to the IPC figure.
    #[must_use]
    pub fn rel_ci95(&self) -> f64 {
        let cpi = self.est_cpi();
        if cpi == 0.0 {
            return 0.0;
        }
        self.cpi_ci95() / cpi
    }

    /// Fraction of the program simulated in detail (warmup included) —
    /// the work the sampler did relative to a full detailed run.
    #[must_use]
    pub fn detail_fraction(&self) -> f64 {
        (self.detailed_insts + self.warmup_insts) as f64 / self.total_insts.max(1) as f64
    }

    /// Whole-program stall-cycle estimate per cause: weighted window
    /// counts scaled by `total_insts / Σ w·insts`.
    #[must_use]
    pub fn scaled_taxonomy(&self) -> Vec<(StallCause, f64)> {
        let (_, insts) = self.weighted_sums();
        let scale = self.total_insts as f64 / insts.max(1) as f64;
        StallCause::ALL
            .iter()
            .map(|&c| {
                let weighted: u128 = self
                    .intervals
                    .iter()
                    .map(|s| u128::from(s.weight) * u128::from(s.taxonomy.count(c)))
                    .sum();
                (c, weighted as f64 * scale)
            })
            .collect()
    }

    /// One-line human summary (IPC ± relative error, coverage).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "IPC {:.4} ±{:.1}% (95% CI), {} intervals, {:.3}% of {} insts in detail",
            self.est_ipc(),
            self.rel_ci95() * 100.0,
            self.intervals.len(),
            self.detail_fraction() * 100.0,
            self.total_insts,
        )
    }
}

/// k-means seed used when [`SampleConfig::jitter_seed`] is `None` but
/// phase clustering is requested.
const PHASE_SEED: u64 = 0x0913_0C0D_E5EE_D002;

fn taxonomy_delta(now: &StallTaxonomy, before: &StallTaxonomy) -> StallTaxonomy {
    let mut d = StallTaxonomy::default();
    for c in StallCause::ALL {
        d.record_n(c, now.count(c) - before.count(c));
    }
    d
}

/// Collects one phase-signature vector per `period_insts` stratum of
/// `emu`'s remaining execution (the program runs functionally until it
/// halts or reaches its step limit; no timing model). Strata are
/// numbered by [`Emulator::executed`], as the sampler's producer numbers
/// them: an emulator that has already run `e` instructions starts in
/// stratum `e / period_insts`, and the strata before it come out as zero
/// vectors.
///
/// Each vector is an L1-normalized basic-block histogram — `min(64,
/// program length)` static-instruction buckets, each counting executed
/// instructions whose static index falls in it — plus one trailing
/// **working-set novelty** dimension: the fraction of the stratum's
/// memory accesses that touch a 64-byte line no earlier instruction has
/// touched. Two strata executing the same loops at the same ratios
/// produce (near-)identical code halves regardless of data values, which
/// is the signal SimPoint clusters on; the novelty dimension separates
/// the cases that signal is blind to — a kernel whose hot loop never
/// changes while its *cache regime* does (cold-start laps over a big
/// buffer, a hash table filling up). Without it, clustering pairs a
/// cache-cold stratum with a warm one on float noise and extrapolates
/// the wrong one (observed −19% on an xz-like kernel; within noise with
/// the dimension in place).
#[must_use]
pub fn collect_bbvs(mut emu: Emulator, period_insts: u64) -> Vec<Vec<f64>> {
    bbv_pass(&mut emu, period_insts)
}

/// [`collect_bbvs`] on a borrowed emulator, left halted so the caller
/// can read how many instructions the program ran.
///
/// Per instruction the pass does one table lookup (static index →
/// dimension), one countdown for the stratum boundary and, for a memory
/// access, one bit test in a bitmap over the memory's lines (every
/// `mem_addr` is canonical, so its line is in range).
fn bbv_pass(emu: &mut Emulator, period_insts: u64) -> Vec<Vec<f64>> {
    assert!(period_insts > 0, "period must be positive");
    let prog_len = emu.program().len().max(1);
    let dims = prog_len.min(64);
    let dim_of: Vec<usize> = (0..prog_len).map(|i| i * dims / prog_len).collect();
    let mut seen_lines = vec![0u64; emu.memory().len().div_ceil(64 * 64)];
    let zero_strata =
        usize::try_from(emu.executed() / period_insts).expect("stratum index overflows usize");
    let mut left = period_insts - emu.executed() % period_insts;
    let mut out: Vec<Vec<f64>> = Vec::new();
    loop {
        let mut counts = vec![0u64; dims];
        // (first-touch accesses, total accesses) in this stratum.
        let (mut first, mut total) = (0u64, 0u64);
        let mut ran = 0u64;
        while ran < left {
            let Some(d) = emu.step() else { break };
            ran += 1;
            counts[dim_of[d.index]] += 1;
            if let Some(addr) = d.mem_addr {
                total += 1;
                let line = addr >> 6;
                let (word, bit) = ((line >> 6) as usize, 1u64 << (line & 63));
                first += u64::from(seen_lines[word] & bit == 0);
                seen_lines[word] |= bit;
            }
        }
        if ran == 0 {
            return out;
        }
        if out.is_empty() {
            out.resize(zero_strata, vec![0.0; dims + 1]);
        }
        let t = ran as f64;
        let mut v: Vec<f64> = counts.into_iter().map(|c| c as f64 / t).collect();
        v.push(first as f64 / total.max(1) as f64);
        out.push(v);
        if ran < left {
            return out;
        }
        left = period_insts;
    }
}

/// Deterministic k-means over basic-block vectors: returns
/// `(representative index, cluster size)` pairs sorted by representative
/// index, one per non-empty cluster. Weights sum to `bbvs.len()`.
///
/// Fully deterministic for a fixed `seed`: the first centroid is drawn
/// from a splitmix64 stream, the rest by farthest-first traversal (ties
/// break toward the lowest index), Lloyd iterations (≤32, early exit on
/// a fixed assignment) break distance ties toward the lowest centroid
/// index, and each cluster's representative is its member closest to the
/// final centroid (ties toward the lowest index). `k` is clamped to the
/// vector count; `k = 1` degenerates to the single vector closest to the
/// global mean.
#[must_use]
pub fn cluster_bbvs(bbvs: &[Vec<f64>], k: usize, seed: u64) -> Vec<(usize, u64)> {
    let n = bbvs.len();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let dims = bbvs[0].len();
    assert!(
        bbvs.iter().all(|v| v.len() == dims),
        "all basic-block vectors must share one dimensionality"
    );
    let dist2 = |a: &[f64], b: &[f64]| -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    };

    // Seeded first centroid, then farthest-first traversal: spreads the
    // initial centroids across the phase space so Lloyd cannot collapse
    // two real phases into one centroid's basin by bad luck.
    let mut s = seed;
    let first = usize::try_from(splitmix64(&mut s) % n as u64).expect("n fits usize");
    let mut centroids: Vec<Vec<f64>> = vec![bbvs[first].clone()];
    let mut min_d: Vec<f64> = bbvs.iter().map(|v| dist2(v, &centroids[0])).collect();
    while centroids.len() < k {
        let mut best = 0;
        let mut best_d = f64::NEG_INFINITY;
        for (i, &d) in min_d.iter().enumerate() {
            if d > best_d {
                best_d = d;
                best = i;
            }
        }
        centroids.push(bbvs[best].clone());
        let newest = centroids.last().expect("just pushed");
        for (i, v) in bbvs.iter().enumerate() {
            min_d[i] = min_d[i].min(dist2(v, newest));
        }
    }

    // Lloyd refinement.
    let mut assign = vec![0usize; n];
    for _ in 0..32 {
        let mut changed = false;
        for (i, v) in bbvs.iter().enumerate() {
            let mut c_best = 0;
            let mut d_best = f64::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let d = dist2(v, cent);
                if d < d_best {
                    d_best = d;
                    c_best = c;
                }
            }
            if assign[i] != c_best {
                assign[i] = c_best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0u64; k];
        for (i, &c) in assign.iter().enumerate() {
            counts[c] += 1;
            for (d, x) in bbvs[i].iter().enumerate() {
                sums[c][d] += x;
            }
        }
        for (c, sum) in sums.into_iter().enumerate() {
            // An emptied cluster keeps its old centroid (it may recapture
            // points next iteration); determinism is unaffected.
            if counts[c] > 0 {
                centroids[c] = sum.into_iter().map(|x| x / counts[c] as f64).collect();
            }
        }
    }

    let mut reps: Vec<(usize, u64)> = Vec::new();
    for (c, cent) in centroids.iter().enumerate() {
        let mut best: Option<usize> = None;
        let mut d_best = f64::INFINITY;
        let mut count = 0u64;
        for (i, &a) in assign.iter().enumerate() {
            if a == c {
                count += 1;
                let d = dist2(&bbvs[i], cent);
                if d < d_best {
                    d_best = d;
                    best = Some(i);
                }
            }
        }
        if let Some(b) = best {
            reps.push((b, count));
        }
    }
    reps.sort_unstable_by_key(|&(i, _)| i);
    reps
}

/// A materialized sample point: the in-memory checkpoint, the warm image
/// cloned at the fork point, and the estimator bookkeeping.
struct SamplePoint {
    ck: EmuCheckpoint,
    warm: WarmState,
    start_inst: u64,
    weight: u64,
}

/// What one detailed interval reports back for the ordered merge.
struct IntervalOut {
    start_inst: u64,
    weight: u64,
    warmed: u64,
    insts: u64,
    cycles: u64,
    tax: StallTaxonomy,
}

/// One detailed interval on a pooled lane: restore the checkpoint, revive
/// a core over it, apply the warm image, run warmup then the measured
/// window. Panics propagate out of [`Fleet::with_lane`] with the lane
/// discarded.
fn run_interval(
    fleet: &mut Fleet,
    cfg: &CoreConfig,
    scfg: &SampleConfig,
    program: &Program,
    pt: &SamplePoint,
) -> IntervalOut {
    let emu = Emulator::restore(program.clone(), &pt.ck);
    fleet.with_lane(cfg.clone(), emu, |c| {
        c.apply_warm_state(&pt.warm);
        let w_target = scfg.warmup_insts;
        let d_target = scfg.warmup_insts + scfg.detail_insts;
        let limit = scfg.max_cycles_per_interval;
        c.run_to_commit(w_target, limit);
        let warmed = c.stats().committed;
        let c0 = c.cycle();
        let tax0 = c.stats().stall_taxonomy;
        let reached = c.run_to_commit(d_target, limit);
        assert!(
            reached || c.finished(),
            "sampled interval at inst {} overran {limit} cycles \
             (deadlock or budget too small)",
            pt.start_inst,
        );
        IntervalOut {
            start_inst: pt.start_inst,
            weight: pt.weight,
            warmed,
            insts: c.stats().committed - warmed,
            cycles: c.cycle() - c0,
            tax: taxonomy_delta(&c.stats().stall_taxonomy, &tax0),
        }
    })
}

/// Runs `emu`'s program under checkpointed interval sampling and returns
/// the whole-program estimate. The master emulator is the architectural
/// truth: detailed intervals run on checkpoint restorations of it and
/// their state is discarded, so the estimate is deterministic for a given
/// (program, config, sample-config) triple — including across
/// [`SampleConfig::threads`] counts, which only change wall-clock time.
///
/// # Panics
///
/// Panics on an invalid [`SampleConfig`], on a deadlocked detailed
/// interval, or if the program exceeds ~`u64::MAX` instructions.
#[must_use]
pub fn run_sampled(emu: Emulator, cfg: CoreConfig, scfg: &SampleConfig) -> SampledStats {
    if let Err(e) = scfg.validate() {
        panic!("{e}");
    }
    let mut master = emu;
    let program = master.program().clone();

    // Phase plan: cluster per-stratum BBVs from a functional pre-pass and
    // keep only the representative strata, weighted by cluster size.
    // `None` = sample every stratum with weight 1. The pre-pass runs a
    // plain clone of the master — same instruction count, same step
    // limit — so it sees exactly the strata the master will, and the
    // instructions it ran are the program's total: with a plan, the
    // master stops after its last representative.
    let (plan, planned_total): (Option<Vec<(u64, u64)>>, Option<u64>) = match scfg.phases {
        None => (None, None),
        Some(k) => {
            let mut pre = master.clone();
            let bbvs = bbv_pass(&mut pre, scfg.period_insts);
            let reps = cluster_bbvs(&bbvs, k, scfg.jitter_seed.unwrap_or(PHASE_SEED))
                .into_iter()
                .map(|(i, w)| (i as u64, w))
                .collect();
            (Some(reps), Some(pre.executed()))
        }
    };

    // The initial (cold) warm image comes from a throwaway core so the
    // snapshot matches the exact construction state every lane resets to.
    let mut warm = Core::new(master.fork_rebased(), cfg.clone()).save_warm_state();
    if let Some(depth) = scfg.wrong_path_depth {
        warm.set_wrong_path_depth(depth);
    }

    // Producer state: one jitter draw per stratum *index* — skipped
    // strata (phase plan) still consume their draw, so a representative
    // interval lands exactly where stratified placement would have put it.
    let mut jitter = scfg.jitter_seed;
    let slack = scfg.period_insts - scfg.warmup_insts - scfg.detail_insts;
    let mut draw = move || match jitter.as_mut() {
        Some(state) if slack > 0 => splitmix64(state) % (slack + 1),
        _ => 0,
    };
    let mut stratum_idx = 0u64;
    let mut stratum_start = 0u64;
    let mut plan_pos = 0usize;
    let mut done = false;

    let produce = || -> Option<SamplePoint> {
        if done {
            return None;
        }
        if master.halt_reason().is_some() {
            done = true;
            return None;
        }
        let (target, weight) = match &plan {
            Some(p) if plan_pos < p.len() => p[plan_pos],
            Some(_) => {
                // Plan exhausted: the pre-pass already counted the whole
                // program, so the master has nothing left to do.
                done = true;
                return None;
            }
            None => (stratum_idx, 1),
        };
        // Advance the jitter stream through skipped strata, then draw the
        // target stratum's offset.
        while stratum_idx < target {
            let _ = draw();
            stratum_idx += 1;
            stratum_start = stratum_start.saturating_add(scfg.period_insts);
        }
        let offset = draw();
        let fork_at = stratum_start + offset;
        stratum_idx += 1;
        stratum_start = stratum_start.saturating_add(scfg.period_insts);
        // Fast-forward to the sample point. Outside the warm horizon
        // (when one is set) the master steps bare — pure architectural
        // emulation; inside it, from the instruction that brings the
        // executed count to `warm_from` on, every instruction also warms
        // caches/predictors.
        let warm_from = scfg.warm_horizon.map_or(0, |h| fork_at.saturating_sub(h));
        while master.halt_reason().is_none() && master.executed() < fork_at {
            if let Some(d) = master.step() {
                if master.executed() >= warm_from {
                    warm.warm_step(&d);
                }
            }
        }
        if master.halt_reason().is_some() {
            done = true;
            return None;
        }
        let start_inst = master.executed();
        // Materialize the sample point: a checkpoint (the master stays
        // the sole architectural truth) plus the warm image as of this
        // fork point. The warm image is NOT later taken from the
        // detailed core: the master re-executes the interval region
        // during the next fast-forward, so functional warming alone keeps
        // the image aligned with the full-run trajectory (no
        // double-training, no staleness).
        let ck = master.checkpoint();
        plan_pos += 1;
        Some(SamplePoint {
            ck,
            warm: warm.clone(),
            start_inst,
            weight,
        })
    };

    // An interval that panics would panic again on a fresh core, because
    // a revived core equals a fresh one (the reset and fleet tests pin
    // it). So nothing retries: `with_lane` drops the lane, and the pool
    // re-raises the panic of the lowest-indexed failed interval.
    let work = |fleet: &mut Fleet, _: usize, pt: SamplePoint| {
        run_interval(fleet, &cfg, scfg, &program, &pt)
    };

    let jobs = if scfg.threads == 0 {
        default_jobs()
    } else {
        scfg.threads
    };
    // The pool's queue bound (`jobs + 2`) caps how many checkpoints (full
    // memory images) are alive at once: enough to keep every worker fed
    // plus a little slack.
    let outs = ordered_pipeline_map(jobs, |_| Fleet::new(), produce, work);

    let mut intervals = Vec::new();
    let mut detailed_insts = 0u64;
    let mut warmup_insts = 0u64;
    let mut taxonomy = StallTaxonomy::default();
    for o in outs {
        warmup_insts += o.warmed;
        if o.insts > 0 {
            for cause in StallCause::ALL {
                taxonomy.record_n(cause, o.tax.count(cause));
            }
            detailed_insts += o.insts;
            intervals.push(IntervalSample {
                start_inst: o.start_inst,
                insts: o.insts,
                cycles: o.cycles,
                taxonomy: o.tax,
                weight: o.weight,
            });
        }
    }
    SampledStats {
        intervals,
        total_insts: planned_total.unwrap_or_else(|| master.executed()),
        detailed_insts,
        warmup_insts,
        taxonomy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommitKind, SchedulerKind};
    use orinoco_isa::{ArchReg, ProgramBuilder};

    fn orinoco() -> CoreConfig {
        CoreConfig::base()
            .with_scheduler(SchedulerKind::Orinoco)
            .with_commit(CommitKind::Orinoco)
    }

    fn loop_emu(n: i64) -> Emulator {
        let mut b = ProgramBuilder::new();
        let x1 = ArchReg::int(1);
        let x2 = ArchReg::int(2);
        b.li(x1, n);
        let top = b.label();
        b.bind(top);
        b.st(x1, x2, 256);
        b.ld(x2, x2, 256);
        b.addi(x1, x1, -1);
        b.bne(x1, ArchReg::ZERO, top);
        b.halt();
        Emulator::new(b.build(), 1 << 14)
    }

    #[test]
    fn homogeneous_loop_estimate_matches_full_run() {
        let full = Core::new(loop_emu(20_000), orinoco()).run(200_000_000).clone();
        let est = run_sampled(loop_emu(20_000), orinoco(), &SampleConfig::new(500, 2_000, 8_000));
        let full_ipc = full.ipc();
        let err = (est.est_ipc() - full_ipc).abs() / full_ipc;
        assert!(
            err < 0.03,
            "sampled IPC {} vs full {} ({}% off)",
            est.est_ipc(),
            full_ipc,
            err * 100.0
        );
        assert_eq!(est.total_insts, full.committed);
        assert!(est.detail_fraction() < 0.5);
    }

    #[test]
    fn deterministic() {
        let scfg = SampleConfig::new(200, 1_000, 5_000);
        let a = run_sampled(loop_emu(5_000), orinoco(), &scfg);
        let b = run_sampled(loop_emu(5_000), orinoco(), &scfg);
        assert_eq!(a.est_cycles(), b.est_cycles());
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (x, y) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!((x.cycles, x.insts), (y.cycles, y.insts));
        }
    }

    #[test]
    fn error_bars_shrink_with_more_intervals() {
        let few = run_sampled(loop_emu(30_000), orinoco(), &SampleConfig::new(200, 1_000, 30_000));
        let many = run_sampled(loop_emu(30_000), orinoco(), &SampleConfig::new(200, 1_000, 4_000));
        assert!(many.intervals.len() > few.intervals.len());
        // More intervals, tighter CI (same homogeneous program).
        assert!(many.cpi_stderr() <= few.cpi_stderr() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rejects_overlapping_intervals() {
        let _ = SampleConfig::new(2_000, 2_000, 3_000);
    }

    #[test]
    fn validate_returns_errors_instead_of_panicking() {
        let mut bad = SampleConfig::new(200, 1_000, 5_000);
        bad.detail_insts = 0;
        assert!(bad.validate().unwrap_err().contains("detail_insts"));
        let mut overlap = SampleConfig::new(200, 1_000, 5_000);
        overlap.period_insts = 500;
        assert!(overlap.validate().unwrap_err().contains("period"));
        let mut zero_k = SampleConfig::new(200, 1_000, 5_000);
        zero_k.phases = Some(0);
        assert!(zero_k.validate().unwrap_err().contains("phases"));
        // Validation only: no sampler runs, so no thread starts.
        let many = SampleConfig::new(200, 1_000, 5_000).with_threads(SampleConfig::MAX_THREADS + 1);
        assert!(many.validate().unwrap_err().contains("threads"));
        let max = SampleConfig::new(200, 1_000, 5_000).with_threads(SampleConfig::MAX_THREADS);
        assert!(max.validate().is_ok());
        assert!(SampleConfig::new(200, 1_000, 5_000).validate().is_ok());
    }

    #[test]
    fn validate_rejects_a_warmup_plus_detail_that_overflows() {
        // `warmup + detail` wraps to 1 in a release build, which would
        // accept the config and underflow `run_sampled`'s slack.
        let mut wrap = SampleConfig::new(200, 1_000, 5_000);
        wrap.warmup_insts = u64::MAX;
        wrap.detail_insts = 2;
        wrap.period_insts = 5;
        assert!(wrap.validate().unwrap_err().contains("period"));
    }

    #[test]
    fn warm_horizon_tracks_full_warming_on_steady_state() {
        // A homogeneous loop is in steady state everywhere, so warming
        // only the last stretch before each sample point must land on
        // (essentially) the same estimate as warming the whole stream.
        let fully = run_sampled(loop_emu(20_000), orinoco(), &SampleConfig::new(500, 2_000, 8_000));
        let horizon = run_sampled(
            loop_emu(20_000),
            orinoco(),
            &SampleConfig::new(500, 2_000, 8_000).with_warm_horizon(3_000),
        );
        assert_eq!(fully.total_insts, horizon.total_insts);
        assert_eq!(fully.intervals.len(), horizon.intervals.len());
        let drift = (horizon.est_cpi() - fully.est_cpi()).abs() / fully.est_cpi();
        assert!(drift < 0.02, "horizon warming drifted {:.2}%", drift * 100.0);
        // Determinism holds with the horizon too.
        let again = run_sampled(
            loop_emu(20_000),
            orinoco(),
            &SampleConfig::new(500, 2_000, 8_000).with_warm_horizon(3_000),
        );
        assert_eq!(horizon.est_cycles(), again.est_cycles());
    }

    #[test]
    fn unbounded_warm_horizon_equals_no_horizon() {
        // A horizon longer than the program warms every instruction, just
        // as no horizon does; `u64::MAX` must not overflow on the way.
        let scfg = SampleConfig::new(500, 2_000, 8_000);
        let none = run_sampled(loop_emu(20_000), orinoco(), &scfg);
        let max = run_sampled(loop_emu(20_000), orinoco(), &scfg.with_warm_horizon(u64::MAX));
        assert_eq!(format!("{max:?}"), format!("{none:?}"));
    }

    #[test]
    fn scaled_taxonomy_extrapolates() {
        let est = run_sampled(loop_emu(20_000), orinoco(), &SampleConfig::new(200, 1_000, 8_000));
        let raw: u64 = StallCause::ALL.iter().map(|&c| est.taxonomy.count(c)).sum();
        let scaled: f64 = est.scaled_taxonomy().iter().map(|(_, v)| v).sum();
        assert!(scaled >= raw as f64);
    }
}
