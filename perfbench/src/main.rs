//! `perfbench`: the repository's benchmark. It drives the simulator's
//! crates from outside — full-detail runs, checkpointed sampling and the
//! campaign server — checks every simulated result against stored
//! references, and reports end-to-end metrics (untraced) or per-layer
//! metrics (traced). See `README.md` beside this package.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--workload-seed W]
//! perfbench refs [--workload-seed W] [--write]
//! perfbench selftest
//! perfbench steady --workload W [--runs N] [--seconds S] [--trace 0|1] [--workload-seed W]
//! perfbench compare <parent results dir> <change results dir>
//! perfbench summarise <trace.jsonl>
//! ```
//!
//! Run from the repository root. Results and traces go to `.perfbench/`.

mod detail;
mod host;
mod json;
mod refs;
mod sampled;
mod served;
mod stats;
mod trace;

use host::Host;
use json::{quote, Value};
use refs::Refs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use trace::Trace;

/// Workload seed the benchmark runs on by default.
pub const DEFAULT_WSEED: u64 = 1;
/// Workload seed kept out of tuning, with references of its own.
pub const HELD_OUT_WSEED: u64 = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Where results and traces are written, relative to the working directory.
const OUT_DIR: &str = ".perfbench";
/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["detail_busy", "sampled_long", "server_sweep"];

/// Inputs of one benchmark run.
pub struct Ctx {
    /// Run seed: orders the operations (kernel order, job lists).
    pub seed: u64,
    /// Workload seed: the programs' data.
    pub wseed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// References to check results against.
    pub refs: Refs,
    /// Common time origin of every span.
    pub epoch: Instant,
    /// Host cores: worker threads, connections and sampler threads.
    pub threads: usize,
}

impl Ctx {
    /// [`Ctx::seconds`] as a duration.
    #[must_use]
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One reported number.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

/// Runs `f`, turning a panic into its message.
///
/// # Errors
///
/// The panic message.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Runs a set-up [`SETUP_REPEATS`] times; returns the median seconds and
/// the last set-up's product (earlier ones are dropped).
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&secs), last.expect("at least one set-up"))
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "detail_busy" => detail::run(ctx),
        "sampled_long" => sampled::run(ctx),
        "server_sweep" => served::run(ctx),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// One traced pass over the layers workload `name` reaches, for the
/// traced run of another workload.
fn probe_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "detail_busy" => detail::probe(ctx),
        "sampled_long" => sampled::probe(ctx),
        _ => served::probe(ctx),
    }
}

/// Every per-layer metric, from a trace that covers every workload's
/// layers: the set-up calls, each workload's layers, and
/// `trace.overhead_pct` (how much slower the run's headline operation ran
/// traced than untraced in the same process).
fn layer_metrics(t: &Trace) -> Vec<Metric> {
    let mut m: Vec<Metric> = [
        ("workloads.build", "workloads.build_ms"),
        ("core.new", "core.new_ms"),
    ]
    .into_iter()
    .map(|(span, name)| metric(name, "ms", stats::median(&t.self_ns(span)) / 1e6))
    .collect();
    m.extend(detail::layer_metrics(t));
    m.extend(sampled::layer_metrics(t));
    m.extend(served::layer_metrics(t));
    let pct = (t.count("trace.traced_op_s") / t.count("trace.untraced_op_s") - 1.0) * 100.0;
    m.push(metric("trace.overhead_pct", "%", pct));
    m
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, out: &Outcome) -> String {
    let mut m = String::new();
    for (i, x) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            r#"{sep}{}: {{"value": {}, "unit": {}}}"#,
            quote(&x.name),
            x.value,
            quote(x.unit)
        );
    }
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
        out.attempted, out.failed
    )
}

struct Args {
    flags: BTreeMap<String, String>,
    free: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut free = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(k) = a.strip_prefix("--") {
            if k == "write" {
                flags.insert(k.to_string(), String::new());
            } else {
                let v = it.next().ok_or_else(|| format!("--{k} needs a value"))?;
                flags.insert(k.to_string(), v.clone());
            }
        } else {
            free.push(a.clone());
        }
    }
    Ok(Args { flags, free })
}

impl Args {
    fn num<T: std::str::FromStr>(&self, k: &str, default: Option<T>) -> Result<T, String> {
        match self.flags.get(k) {
            Some(v) => v.parse().map_err(|_| format!("--{k}: bad value {v}")),
            None => default.ok_or_else(|| format!("--{k} is required")),
        }
    }

    fn workload(&self) -> Result<String, String> {
        let w = self.flags.get("workload").ok_or("--workload is required")?;
        if WORKLOADS.contains(&w.as_str()) {
            Ok(w.clone())
        } else {
            Err(format!(
                "unknown workload {w}; one of {}",
                WORKLOADS.join(", ")
            ))
        }
    }
}

fn unix_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

fn stored_refs(wseed: u64) -> Result<Refs, String> {
    let refs = Refs::stored();
    if refs.has_seed(wseed) {
        Ok(refs)
    } else {
        Err(format!("no references for workload seed {wseed}; derive them with `refs --workload-seed {wseed} --write`"))
    }
}

/// The benchmark proper: one workload, one seed.
fn cmd_run(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload()?;
    let seed: u64 = a.num("seed", None)?;
    let seconds: f64 = a.num("seconds", None)?;
    let trace = match a.num::<u8>("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let wseed = a.num("workload-seed", Some(DEFAULT_WSEED))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let host = Host::detect();
    println!("perfbench host {}", host.to_json());
    let ctx = Ctx {
        seed,
        wseed,
        seconds,
        trace,
        refs: stored_refs(wseed)?,
        epoch: Instant::now(),
        threads: host::nproc(),
    };
    let started = unix_ms();
    let mut out = run_workload(&workload, &ctx);
    if let Some(mut t) = out.trace.take() {
        // The workload traced its own layers; one short traced pass of
        // each other workload covers the layers it does not reach.
        for other in WORKLOADS.into_iter().filter(|w| *w != workload) {
            let p = probe_workload(other, &ctx);
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.failures.extend(p.failures);
            t.merge(p.trace.expect("a probe is traced"));
        }
        out.metrics = layer_metrics(&t);
        out.trace = Some(t);
    }
    for f in out.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        eprintln!("perfbench: a metric could not be computed");
    }
    for m in out.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        m.value = -1.0;
    }
    let line = result_line(out.failed == 0 && finite, &out);
    let stem = format!(
        "{OUT_DIR}/results/{workload}-seed{seed}-trace{}-{started}",
        u8::from(trace)
    );
    let record = format!(
        r#"{{"workload": {}, "seed": {seed}, "workload_seed": {wseed}, "seconds": {seconds}, "trace": {}, "started_unix_ms": {started}, "host": {}, "result": {line}}}"#,
        quote(&workload),
        u8::from(trace),
        host.to_json()
    );
    let written = std::fs::create_dir_all(format!("{OUT_DIR}/results"))
        .and_then(|()| std::fs::write(format!("{stem}.json"), record + "\n"));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {stem}.json: {e}");
    }
    if let Some(t) = &out.trace {
        let path = format!("{OUT_DIR}/traces/{workload}-seed{seed}-{started}.jsonl");
        match t.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => println!("perfbench trace {path} ({} spans)", t.spans.len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Recomputes every reference of one workload seed.
fn cmd_refs(a: &Args) -> Result<ExitCode, String> {
    let wseed = a.num("workload-seed", Some(DEFAULT_WSEED))?;
    let mut fresh = Refs::default();
    let t = Instant::now();
    detail::derive(wseed, &mut fresh);
    println!("detail references: {:.1}s", t.elapsed().as_secs_f64());
    served::derive(wseed, host::nproc(), &mut fresh);
    println!("served references: {:.1}s", t.elapsed().as_secs_f64());
    sampled::derive(wseed, &mut fresh);
    println!("sampled reference: {:.1}s", t.elapsed().as_secs_f64());
    // The file on disk, not the compiled-in copy: an earlier `--write` of
    // another seed may have changed it since this binary was built.
    let mut stored = match std::fs::read_to_string(refs::PATH) {
        Ok(text) => Refs::parse(&text)?,
        Err(_) => Refs::stored(),
    };
    let diff = stored.diff_seed(wseed, &fresh);
    for d in &diff {
        println!("differs: {d}");
    }
    if a.flags.contains_key("write") {
        stored.replace_seed(wseed, &fresh);
        std::fs::write(refs::PATH, stored.render())
            .map_err(|e| format!("write {}: {e}", refs::PATH))?;
        println!("wrote {} (workload seed {wseed})", refs::PATH);
        return Ok(ExitCode::SUCCESS);
    }
    if diff.is_empty() {
        println!("refs: every stored reference of workload seed {wseed} re-derived identically");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "refs: {} references differ for workload seed {wseed}",
            diff.len()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// An untraced context on the default workload seed with `refs`.
fn ctx_for(refs: Refs) -> Ctx {
    Ctx {
        seed: 1,
        wseed: DEFAULT_WSEED,
        seconds: 0.0,
        trace: false,
        refs,
        epoch: Instant::now(),
        threads: host::nproc(),
    }
}

fn expect(ok: bool, what: String, bad: &mut u32) {
    println!("selftest: {} {what}", if ok { "ok  " } else { "FAIL" });
    if !ok {
        *bad += 1;
    }
}

/// Corrupts one reference per workload and checks that exactly the
/// operations that depend on it are counted as failures.
fn cmd_selftest() -> Result<ExitCode, String> {
    let good = stored_refs(DEFAULT_WSEED)?;
    let mut bad = 0;

    let mut refs = good.clone();
    let key = (
        DEFAULT_WSEED,
        "gemm_like".to_string(),
        "orinoco".to_string(),
    );
    *refs
        .detail
        .get_mut(&key)
        .ok_or("no gemm_like/orinoco reference")? ^= 1;
    let ctx = ctx_for(refs);
    let mut off = trace::Tracer::new(ctx.epoch, false);
    let mut slots = detail::setup(&ctx, &mut off);
    let order: Vec<usize> = (0..slots.len()).collect();
    let p = detail::pass(&ctx, &mut slots, &order, 0, &mut off);
    let only = p.failures.len() == 1 && p.failures[0].contains("gemm_like orinoco");
    expect(
        only && p.attempted == 9,
        format!(
            "detail: corrupt gemm_like/orinoco digest fails 1 of {} runs: {:?}",
            p.attempted, p.failures
        ),
        &mut bad,
    );
    let ctx = ctx_for(good.clone());
    let p = detail::pass(&ctx, &mut slots, &order, 1, &mut off);
    expect(
        p.failures.is_empty(),
        format!(
            "detail: stored references pass all {} runs on reset cores",
            p.attempted
        ),
        &mut bad,
    );

    let mut refs = good.clone();
    refs.sampled
        .get_mut(&DEFAULT_WSEED)
        .ok_or("no sampled reference")?
        .1 *= 1.1;
    let template = orinoco_workloads::long_program(DEFAULT_WSEED, sampled::TARGET_INSTS);
    for (r, want_fail) in [(refs, true), (good.clone(), false)] {
        let ctx = ctx_for(r);
        let mut out = Outcome::default();
        sampled::sample_once(&ctx, &template, ctx.threads, "x", 0, &mut off, &mut out);
        let what = if want_fail {
            "a 10% IPC shift fails the estimate"
        } else {
            "the stored IPC passes"
        };
        expect(
            out.failed == u64::from(want_fail),
            format!("sampled: {what}: {:?}", out.failures),
            &mut bad,
        );
    }

    let mut refs = good.clone();
    let all = served::jobs(DEFAULT_WSEED);
    let victim = &all[0];
    refs.served
        .get_mut(&victim.key)
        .ok_or("no served reference")?[victim.idx] ^= 1;
    // One connection: the victim, three others, the victim again (a hit),
    // then jobs of other points.
    let list = vec![0, 100, 200, 300, 0, 400, 500];
    let ctx = ctx_for(refs);
    let mut rig = served::start(ctx.threads, 1).map_err(|e| e.to_string())?;
    let (outs, _) = served::sweep(
        &ctx,
        &mut rig,
        &all,
        std::slice::from_ref(&list),
        Instant::now(),
        list.len(),
        false,
    );
    drop(rig);
    let failures: Vec<&String> = outs.iter().flat_map(|o| &o.failures).collect();
    let exact = failures.len() == 2
        && failures
            .iter()
            .all(|f| f.contains(&format!("seed {}:", victim.spec.seed)));
    expect(
        exact && outs[0].submitted == list.len() as u64,
        format!(
            "served: corrupt digest fails exactly the 2 jobs of that spec out of {}: {failures:?}",
            list.len()
        ),
        &mut bad,
    );

    if bad == 0 {
        println!("selftest: OK");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("selftest: {bad} checks failed");
        Ok(ExitCode::FAILURE)
    }
}

/// `BENCHMARK.json`'s end-to-end metrics: name → (higher is better, bound).
fn load_bounds() -> BTreeMap<String, (bool, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(v) = json::parse(&text) else {
        return BTreeMap::new();
    };
    v.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let higher = m.get("better")?.as_str()? == "higher";
            Some((name, (higher, m.get("bound")?.as_f64()?)))
        })
        .collect()
}

fn metrics_of(result: &Value) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

/// Runs one workload repeatedly, each run in its own process with its own
/// seed, and prints each metric's median, IQR and worst deviation.
fn cmd_steady(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload()?;
    let runs: u64 = a.num("runs", Some(5))?;
    let seconds: f64 = a.num("seconds", Some(10.0))?;
    let trace: u8 = a.num("trace", Some(0))?;
    let wseed: u64 = a.num("workload-seed", Some(DEFAULT_WSEED))?;
    let first: u64 = a.num("first-seed", Some(1))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for seed in first..first + runs {
        let t = Instant::now();
        let output = std::process::Command::new(&exe)
            .args([
                "--workload",
                &workload,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args([
                "--trace",
                &trace.to_string(),
                "--workload-seed",
                &wseed.to_string(),
            ])
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let v = json::parse(last)
            .map_err(|e| format!("seed {seed}: no result line ({e}); exit {}", output.status))?;
        attempted += v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        failed += v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (k, x) in metrics_of(&v) {
            values.entry(k).or_default().push(x);
        }
        println!(
            "steady: seed {seed} done in {:.1}s: {last}",
            t.elapsed().as_secs_f64()
        );
    }
    let bounds = load_bounds();
    println!(
        "steady: {workload}, {runs} runs of {seconds}s, {failed} of {attempted} operations failed"
    );
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>8} {:>8} {:>6}",
        "metric", "median", "q1", "q3", "iqr/med", "worst", "bound"
    );
    for (k, v) in &values {
        let [q1, q2, q3] = stats::quartiles(v);
        let bound = bounds
            .get(k)
            .map_or(String::new(), |b| format!("{:.3}", b.1));
        println!(
            "{k:<34} {q2:>12.5} {q1:>12.5} {q3:>12.5} {:>8.4} {:>8.4} {bound:>6}",
            stats::rel_spread(v),
            stats::worst_rel_dev(v)
        );
    }
    Ok(ExitCode::SUCCESS)
}

struct Record {
    workload: String,
    started: f64,
    host: Host,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn load_records(dir: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    for e in entries
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
    {
        let text = std::fs::read_to_string(e.path()).map_err(|err| err.to_string())?;
        let v = json::parse(text.trim()).map_err(|err| format!("{}: {err}", e.path().display()))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let result = v.get("result").ok_or("record without result")?;
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            started: v
                .get("started_unix_ms")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            host: Host::from_json(v.get("host").ok_or("record without host")?)?,
            failed: result.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
            metrics: metrics_of(result),
        });
    }
    out.sort_by(|a, b| a.started.total_cmp(&b.started));
    Ok(out)
}

/// Applies the alternating-pair rule to two directories of untraced
/// results, workload by workload and metric by metric.
fn cmd_compare(a: &Args) -> Result<ExitCode, String> {
    let [parent_dir, change_dir] = a.free.as_slice() else {
        return Err("compare needs two result directories".into());
    };
    let parent = load_records(parent_dir)?;
    let change = load_records(change_dir)?;
    let first = parent
        .first()
        .or(change.first())
        .ok_or("no untraced results found")?;
    let mismatched: Vec<String> = parent
        .iter()
        .chain(&change)
        .flat_map(|r| r.host.mismatches(&first.host))
        .collect();
    if !mismatched.is_empty() {
        eprintln!("compare: refused, results come from different hosts or builds:");
        for m in mismatched {
            eprintln!("  {m}");
        }
        return Ok(ExitCode::from(2));
    }
    let bounds = load_bounds();
    println!(
        "compare: host nproc={} cpu={} ({})",
        first.host.nproc, first.host.cpu, first.host.profile
    );
    for w in WORKLOADS {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == w).collect();
        if p.is_empty() || c.is_empty() {
            continue;
        }
        let fails = |rs: &[&Record]| rs.iter().map(|r| r.failed).sum::<f64>();
        println!(
            "{w}: {} parent runs, {} change runs, failed ops {} vs {}",
            p.len(),
            c.len(),
            fails(&p),
            fails(&c)
        );
        for (name, (higher, bound)) in &bounds {
            let series = |rs: &[&Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                    .collect()
            };
            let (pv, cv) = (series(&p), series(&c));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let verdict = stats::compare_pairs(&pv, &cv, *higher, *bound);
            let [p1, p2, p3] = stats::quartiles(&pv);
            let [c1, c2, c3] = stats::quartiles(&cv);
            println!(
                "  {name:<20} parent {p2:.5} [{p1:.5}, {p3:.5}]  change {c2:.5} [{c1:.5}, {c3:.5}]  bound {bound}  {verdict:?}"
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Recomputes the per-layer metrics and span self times of a written trace.
fn cmd_summarise(a: &Args) -> Result<ExitCode, String> {
    let path = a.free.first().ok_or("summarise needs a trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let t = Trace::from_jsonl(&text)?;
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, own) in t.spans.iter().zip(t.self_times()) {
        by_name.entry(&s.name).or_default().push(own as f64);
    }
    println!(
        "{:<36} {:>7} {:>12} {:>12} {:>9}",
        "span", "count", "self ms", "median us", "ns/inst"
    );
    for (name, ns) in by_name {
        let total = ns.iter().sum::<f64>();
        // Full-detail runs carry their committed count as a counter.
        let per_inst = name
            .strip_prefix("core.run/")
            .map(|key| t.count(&format!("core.committed/{key}")))
            .filter(|&c| c > 0.0)
            .map_or(String::new(), |c| format!("{:.1}", total / c));
        println!(
            "{name:<36} {:>7} {:>12.3} {:>12.3} {per_inst:>9}",
            ns.len(),
            total / 1e6,
            stats::median(&ns) / 1e3
        );
    }
    for m in layer_metrics(&t) {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("refs" | "selftest" | "steady" | "compare" | "summarise")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = parse_args(rest).and_then(|a| match cmd {
        "refs" => cmd_refs(&a),
        "selftest" => cmd_selftest(),
        "steady" => cmd_steady(&a),
        "compare" => cmd_compare(&a),
        "summarise" => cmd_summarise(&a),
        _ => cmd_run(&a),
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
