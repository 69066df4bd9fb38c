//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (see `DESIGN.md` §4 for the
//! experiment index).
//!
//! Each binary prints a plain-text table in the shape of the corresponding
//! paper artefact. Absolute IPC values differ from the paper (different
//! workloads, simulator and memory model — see the substitution table in
//! `DESIGN.md`); the claims under reproduction are the *relative*
//! orderings and rough magnitudes.

#![warn(missing_docs)]
#![warn(clippy::all)]

use orinoco_core::{Core, CoreConfig, SimStats};
use orinoco_workloads::Workload;

/// Upper bound on simulated cycles per run (deadlock guard).
pub const MAX_CYCLES: u64 = 2_000_000_000;

/// Dynamic-instruction budget per run: `ORINOCO_QUICK=1` trims runs for
/// smoke testing; `ORINOCO_FULL=1` runs the kernels to completion.
#[must_use]
pub fn instr_budget() -> Option<u64> {
    if std::env::var_os("ORINOCO_FULL").is_some() {
        None
    } else if std::env::var_os("ORINOCO_QUICK").is_some() {
        Some(40_000)
    } else {
        Some(120_000)
    }
}

/// Runs `workload` on `cfg` with the session instruction budget.
#[must_use]
pub fn run(workload: Workload, cfg: CoreConfig) -> SimStats {
    let mut emu = workload.build(13, 1);
    if let Some(limit) = instr_budget() {
        emu.set_step_limit(limit);
    }
    let mut core = Core::new(emu, cfg);
    core.run(MAX_CYCLES).clone()
}

/// IPC of `workload` on `cfg`.
#[must_use]
pub fn ipc(workload: Workload, cfg: CoreConfig) -> f64 {
    run(workload, cfg).ipc()
}

/// Per-workload speedups of several configurations over a baseline,
/// returned as `(workload name, speedups per config)` rows.
///
/// The per-workload sweeps are independent, so they are sharded across
/// `ORINOCO_JOBS` worker threads (default: available parallelism); rows
/// come back merged in workload order, byte-identical to a serial run.
#[must_use]
pub fn speedup_rows(
    baseline: &CoreConfig,
    configs: &[CoreConfig],
) -> Vec<(String, Vec<f64>)> {
    let jobs = orinoco_util::pool::default_jobs();
    let mut next = Workload::ALL.into_iter();
    orinoco_util::pool::ordered_pipeline_map(jobs, |_| (), || next.next(), |(), _, w| {
        let base = ipc(w, baseline.clone());
        let speedups = configs.iter().map(|c| ipc(w, c.clone()) / base).collect();
        (w.name().to_string(), speedups)
    })
}

/// Column-wise geometric mean of speedup rows.
#[must_use]
pub fn geomean_row(rows: &[(String, Vec<f64>)]) -> Vec<f64> {
    if rows.is_empty() {
        return Vec::new();
    }
    let cols = rows[0].1.len();
    (0..cols)
        .map(|c| {
            let vals: Vec<f64> = rows.iter().map(|(_, v)| v[c]).collect();
            orinoco_stats::geomean(&vals)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_a_config() {
        std::env::set_var("ORINOCO_QUICK", "1");
        let stats = run(Workload::ExchangeLike, CoreConfig::base());
        assert!(stats.committed > 10_000);
        std::env::remove_var("ORINOCO_QUICK");
    }

    #[test]
    fn geomean_row_shape() {
        let rows = vec![
            ("a".to_string(), vec![1.0, 2.0]),
            ("b".to_string(), vec![1.0, 8.0]),
        ];
        let g = geomean_row(&rows);
        assert_eq!(g.len(), 2);
        assert!((g[1] - 4.0).abs() < 1e-12);
        assert!(geomean_row(&[]).is_empty());
    }
}
