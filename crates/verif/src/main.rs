//! `verif`: command-line front end of the differential co-simulation
//! oracle.
//!
//! ```text
//! verif fuzz --programs N --seed S [--max-seconds T] [--jobs J]
//! verif replay <seed> [--inject N] [--trace N]
//! verif litmus
//! verif traceinv [--programs N] [--seed S]
//! verif ffeq [--programs N] [--seed S] [--jobs J]
//! verif mcm [--programs N] [--seed S] [--jobs J]
//! verif order [--programs N] [--seed S] [--jobs J]
//! ```
//!
//! `ffeq` runs every fuzz program to completion twice — idle-cycle
//! fast-forward on and off — and fails unless commit streams, `SimStats`
//! and stall taxonomies are identical (DESIGN.md §10).
//!
//! `order` steps every fuzz program by hand under the age-ordered
//! schedulers and Orinoco, at the Base and a tiny shape, and after every
//! cycle checks the ROB's commit walk and each issue queue's key ranking
//! against the matrices of the paper rebuilt from the live entries.
//!
//! `replay --trace N` arms the DUT's lifecycle-trace ring buffer with
//! capacity `N`; if the replay diverges, the window of pipeline events
//! leading up to the failure is printed as JSONL.
//!
//! `--jobs J` shards the campaign's per-seed co-simulations over `J`
//! worker threads (default: available parallelism, overridable with
//! `ORINOCO_JOBS`). Results are merged in seed order, so the findings are
//! byte-identical to a serial run whenever `--max-seconds` does not
//! truncate the campaign.
//!
//! `fuzz` exits non-zero if any clean-pass divergence is found **or** if
//! the SPEC-flip fault-injection pass is never caught by the oracle (the
//! oracle must be proven load-bearing in the same run).

use orinoco_util::pool::default_jobs;
use orinoco_verif::{
    ff_equivalence_campaign, fuzz_campaign, litmus, mcm_campaign, order, order_campaign,
    replay, sys_ff_equivalence_campaign, syslitmus, trace_invariant_campaign,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  verif fuzz --programs N --seed S [--max-seconds T] [--jobs J]\n  \
         verif replay <seed> [--inject N] [--trace N]\n  verif litmus\n  \
         verif traceinv [--programs N] [--seed S]\n  \
         verif ffeq [--programs N] [--seed S] [--jobs J]\n  \
         verif mcm [--programs N] [--seed S] [--jobs J]\n  \
         verif order [--programs N] [--seed S] [--jobs J]"
    );
    ExitCode::from(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    s.strip_prefix("0x")
        .map_or_else(|| s.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok())
}

/// The flags of the campaign commands: `--programs N` and `--seed S`
/// for every one, `--jobs J` and `--max-seconds T` for those that list
/// them.
struct CampaignArgs {
    programs: u64,
    seed: u64,
    jobs: usize,
    max_seconds: Option<Duration>,
}

impl CampaignArgs {
    /// Parses `args` over the defaults `programs`, seed 42, the default
    /// job count and no time limit, accepting `--jobs`/`--max-seconds`
    /// only when `extra` names them. `None` on any other flag or on a
    /// missing or malformed value.
    fn parse(args: &[String], programs: u64, extra: &[&str]) -> Option<Self> {
        let mut c = Self {
            programs,
            seed: 42,
            jobs: default_jobs(),
            max_seconds: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            let mut value = || it.next().and_then(|v| parse_u64(v));
            match flag {
                "--programs" => c.programs = value()?,
                "--seed" => c.seed = value()?,
                "--jobs" if extra.contains(&flag) => c.jobs = (value()? as usize).max(1),
                "--max-seconds" if extra.contains(&flag) => {
                    c.max_seconds = Some(Duration::from_secs(value()?));
                }
                _ => return None,
            }
        }
        Some(c)
    }
}

/// A campaign progress callback: prints `  ... done/total <units>` each
/// time another tenth of the campaign has finished.
fn decile_progress(units: &'static str) -> impl Fn(u64, u64) + Sync {
    let last_decile = AtomicU64::new(0);
    move |done, total| {
        let decile = done * 10 / total;
        if last_decile.fetch_max(decile, Ordering::Relaxed) < decile {
            println!("  ... {done}/{total} {units}");
        }
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let Some(c) = CampaignArgs::parse(args, 100, &["--jobs", "--max-seconds"]) else {
        return usage();
    };
    println!(
        "fuzz: {} programs, campaign seed {}, {} jobs",
        c.programs, c.seed, c.jobs
    );
    let progress = decile_progress("co-simulations");
    let out = fuzz_campaign(c.programs, c.seed, c.max_seconds, c.jobs, progress);
    println!(
        "clean pass: {} programs, {} cycles, {} commits cross-checked \
         ({} out of order), {} divergences",
        out.programs_run,
        out.total_cycles,
        out.total_commits,
        out.total_ooo_commits,
        out.failures.len()
    );
    for f in &out.failures {
        println!(
            "  DIVERGENCE [{}] seed {:#x}: {}\n    shrunk {} -> {} dyn insts; \
             reproduce with: verif replay {:#x}",
            f.config, f.program_seed, f.divergence, f.size_before, f.size_after, f.program_seed
        );
    }
    println!(
        "injection pass: {} runs, {} SPEC flips fired, {} caught by the oracle",
        out.injection_runs, out.injection_fired, out.injection_caught
    );
    if out.truncated_by_time {
        println!("note: campaign truncated by --max-seconds");
    }
    if out.passed() {
        println!("PASS: unordered commit is architecturally invisible; oracle is load-bearing");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(pseed) = args.first().and_then(|s| parse_u64(s)) else {
        return usage();
    };
    let mut inject = None;
    let mut trace = 0usize;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--inject" => match it.next().and_then(|v| parse_u64(v)) {
                Some(v) => inject = Some(v),
                None => return usage(),
            },
            "--trace" => match it.next().and_then(|v| parse_u64(v)) {
                Some(v) => trace = v as usize,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (spec, config, report) = replay(pseed, inject, trace);
    println!(
        "replay seed {pseed:#x}: config {config}, {} blocks / {} ops (~{} dyn insts)",
        spec.blocks.len(),
        spec.op_count(),
        spec.size()
    );
    if inject.is_some() {
        println!(
            "injection: SPEC flip {}",
            if report.injection_fired { "fired" } else { "did not fire (ordinal past last speculative dispatch)" }
        );
    }
    match &report.divergence {
        None => {
            println!(
                "clean: {} commits cross-checked ({} out of order) in {} cycles",
                report.committed, report.ooo_commits, report.cycles
            );
            ExitCode::SUCCESS
        }
        Some(d) => {
            println!("DIVERGENCE: {d}");
            match &report.trace_tail {
                Some(tail) => {
                    println!("--- lifecycle trace window (last {trace} events) ---");
                    print!("{tail}");
                    println!("--- end trace window ---");
                }
                None if trace > 0 => {
                    println!("(trace window lost: the pipeline panicked before it could be read)");
                }
                None => {}
            }
            ExitCode::FAILURE
        }
    }
}

fn cmd_litmus() -> ExitCode {
    let mut ok = true;
    for v in litmus::run_all() {
        let fmt = |s: &std::collections::BTreeSet<Vec<u64>>| {
            s.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>().join(" ")
        };
        println!(
            "{}: outcomes {} | unprotected {} | forbidden blocked: {} | \
             allowed covered: {} | matrix load-bearing: {} | lockdown-held states: {}",
            v.name,
            fmt(&v.outcomes),
            fmt(&v.outcomes_unprotected),
            v.forbidden_blocked,
            v.all_allowed_seen,
            v.matrix_load_bearing,
            v.lockdown_held_states
        );
        ok &= v.holds() && v.matrix_load_bearing;
    }
    for v in syslitmus::run_battery(42) {
        let outs =
            v.outcomes.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>().join(" ");
        println!(
            "system {}: {} sweeps | outcomes {} | invalidations {} | {}",
            v.name,
            v.runs,
            outs,
            v.invalidations,
            if v.holds() {
                "holds".to_owned()
            } else {
                format!(
                    "FAIL (missing {:?}, violation {:?})",
                    v.missing, v.violation
                )
            }
        );
        ok &= v.holds();
    }
    let xc = syslitmus::cross_core_lockdown_demo();
    println!(
        "system lockdown: acks withheld {} | invalidations sent {} | \
         reader/writer lockdown-held stalls {}/{} | traced {} | tso clean {}",
        xc.withheld,
        xc.invalidations_sent,
        xc.reader_lockdown_stalls,
        xc.writer_lockdown_stalls,
        xc.traced,
        xc.tso_clean
    );
    ok &= xc.holds();
    if ok {
        println!("PASS: TSO litmus suite holds");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        ExitCode::FAILURE
    }
}

fn cmd_traceinv(args: &[String]) -> ExitCode {
    let Some(c) = CampaignArgs::parse(args, 24, &[]) else {
        return usage();
    };
    println!(
        "traceinv: {} programs, campaign seed {}",
        c.programs, c.seed
    );
    let out = trace_invariant_campaign(c.programs, c.seed);
    println!(
        "clean pass: {} programs, {} events checked, {} commits \
         ({} unordered, {} speculative), {} violations, {} panics",
        out.programs_run,
        out.total_events,
        out.total_commits,
        out.total_unordered,
        out.total_speculative,
        out.violations.len(),
        out.panics.len()
    );
    for (pseed, v) in &out.violations {
        println!("  VIOLATION seed {pseed:#x}: {v}");
    }
    for (pseed, msg) in &out.panics {
        println!("  PANIC seed {pseed:#x}: {msg}");
    }
    println!(
        "injection pass: {} runs, SPEC flip caught: {}",
        out.injection_runs,
        if out.injection_caught > 0 { "yes" } else { "NO" }
    );
    if out.passed() {
        println!("PASS: lifecycle invariants hold; trace harness is load-bearing");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        ExitCode::FAILURE
    }
}

fn cmd_ffeq(args: &[String]) -> ExitCode {
    let Some(c) = CampaignArgs::parse(args, 50, &["--jobs"]) else {
        return usage();
    };
    println!(
        "ffeq: {} programs, campaign seed {}, {} jobs",
        c.programs, c.seed, c.jobs
    );
    let out = ff_equivalence_campaign(c.programs, c.seed, c.jobs, decile_progress("run pairs"));
    println!(
        "{} programs, {} cycles, {} commits cross-checked, {} mismatches",
        out.programs_run,
        out.total_cycles,
        out.total_commits,
        out.mismatches.len()
    );
    for m in &out.mismatches {
        println!(
            "  MISMATCH [{}] seed {:#x}: {}\n    reproduce with: verif replay {:#x}",
            m.config, m.program_seed, m.detail, m.program_seed
        );
    }
    if !out.passed() {
        println!("FAIL");
        return ExitCode::FAILURE;
    }
    // Multi-core pass: the system-level skip over the same observables
    // (a quarter of the single-core program count — each unit runs a
    // whole N-core system twice).
    let sys_programs = (c.programs / 4).max(4);
    println!("ffeq[system]: {sys_programs} generated programs + shared kernels");
    let sys = sys_ff_equivalence_campaign(sys_programs, c.seed, c.jobs, |_, _| {});
    println!(
        "{} system pairs, {} cycles, {} commits cross-checked, {} mismatches",
        sys.programs_run,
        sys.total_cycles,
        sys.total_commits,
        sys.mismatches.len()
    );
    for m in &sys.mismatches {
        println!("  MISMATCH [{}] seed {:#x}: {}", m.config, m.program_seed, m.detail);
    }
    if sys.passed() {
        println!("PASS: idle-cycle fast-forward is observationally invisible");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        ExitCode::FAILURE
    }
}

fn cmd_mcm(args: &[String]) -> ExitCode {
    let Some(c) = CampaignArgs::parse(args, 200, &["--jobs"]) else {
        return usage();
    };
    println!(
        "mcm: {} multi-threaded programs, campaign seed {}, {} jobs",
        c.programs, c.seed, c.jobs
    );
    let out = mcm_campaign(c.programs, c.seed, c.jobs, decile_progress("system runs"));
    println!(
        "clean pass: {} programs, {} shared events checked, {} installs, \
         {} lockdown-withheld acks, {} violations",
        out.programs_run,
        out.total_events,
        out.total_installs,
        out.total_withheld,
        out.violations.len()
    );
    for (pseed, v) in &out.violations {
        println!("  VIOLATION seed {pseed:#x}: {v}");
    }
    println!(
        "injection pass: {} invalidations dropped, control clean: {}, fault caught: {} ({})",
        out.injection.dropped, out.injection.clean_ok, out.injection.fault_caught,
        out.injection.detail
    );
    if out.passed() {
        println!("PASS: multi-core TSO axioms hold; the MCM checker is load-bearing");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        ExitCode::FAILURE
    }
}

fn cmd_order(args: &[String]) -> ExitCode {
    let Some(c) = CampaignArgs::parse(args, 40, &["--jobs"]) else {
        return usage();
    };
    let labels: Vec<&str> = order::CONFIGS.iter().map(|&(l, _)| l).collect();
    println!(
        "order: {} programs x {} configurations, campaign seed {}, {} jobs",
        c.programs,
        labels.len(),
        c.seed,
        c.jobs
    );
    println!("configurations: {}", labels.join(" "));
    let out = order_campaign(c.programs, c.seed, c.jobs, decile_progress("programs"));
    println!(
        "{} runs, {} cycles each checked against both matrix oracles, {} commits, {} failures",
        out.runs,
        out.total_cycles,
        out.total_commits,
        out.failures.len()
    );
    for f in &out.failures {
        println!(
            "  FAILURE [{}] seed {:#x} after cycle {}: {}",
            f.config, f.program_seed, f.cycle, f.detail
        );
    }
    if out.passed() {
        println!("PASS: every commit walk and issue ranking matched its matrix oracle");
        ExitCode::SUCCESS
    } else {
        println!("FAIL");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("litmus") => cmd_litmus(),
        Some("traceinv") => cmd_traceinv(&args[1..]),
        Some("ffeq") => cmd_ffeq(&args[1..]),
        Some("mcm") => cmd_mcm(&args[1..]),
        Some("order") => cmd_order(&args[1..]),
        _ => usage(),
    }
}
