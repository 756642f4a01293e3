//! The guardrail-runtime benchmark.
//!
//! ```text
//! grbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! grbench compare --parent <results> --change <results> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run drives one workload (see `README.md`) from one thread for the
//! given time, checks every output against a reference the benchmark
//! computes itself, and prints each metric by name with its unit, then a
//! provenance line and, last, one JSON result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` spends the first half untraced and
//! the second half with spans around every layer call, and reports the
//! per-layer metrics plus the tracing slowdown between the halves. The
//! exit code is 1 when any output disagreed with its reference.
//!
//! `compare` reads saved run output (any number of runs per file, in
//! order) of a parent and a change and prints, per workload and
//! end-to-end metric, both sides' medians and quartiles, the change's win
//! fraction over index-paired runs and a verdict.

mod json;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::{quote, Json};
use stats::{percentile, quartiles, sorted, verdict, win_fraction, Better};
use trace::Tracer;
use workloads::Outcome;

/// A directory under `<root>/.grbench_tmp`, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates (emptying first) `<root>/.grbench_tmp/<tag>-<pid>`.
    pub fn new(root: &Path, tag: &str) -> TempDir {
        let dir = root
            .join(".grbench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's temporary directory");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // Only succeeds when empty.
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag_values(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut flags = flag_values(args)?;
    let mut take = |name: &str| {
        flags
            .remove(name)
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = take("workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one measured phase of the named workload.
fn run_phase(args: &Args, seconds: f64, tracer: Option<&mut Tracer>) -> Outcome {
    match args.workload.as_str() {
        "hook_ingest" => workloads::hook_ingest::run(args.seed, seconds, tracer),
        "window_check" => workloads::window_check::run(args.seed, seconds, tracer),
        "durable_restart" => {
            let dir = TempDir::new(Path::new("."), "durable_restart");
            workloads::durable_restart::run(args.seed, seconds, dir.path(), tracer)
        }
        "fig2_linnos" => workloads::fig2_linnos::run(args.seed, seconds, tracer),
        other => unreachable!("workload '{other}' was validated"),
    }
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn events_per_s(out: &Outcome) -> f64 {
    percentile(&sorted(&out.blocks), 50.0)
}

fn pct(samples: &[u64], p: f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    percentile(&sorted(&values), p)
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", pct(&out.setups_ns, 50.0) / 1e9, "s"),
        m("events_per_s", events_per_s(out), "1/s"),
        m("call_p50_us", pct(out.calls.values(), 50.0) / 1e3, "us"),
        m("call_p90_us", pct(out.calls.values(), 90.0) / 1e3, "us"),
        m("restart_p50_ms", pct(&out.restarts_ns, 50.0) / 1e6, "ms"),
        m("restart_p90_ms", pct(&out.restarts_ns, 90.0) / 1e6, "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Where a per-layer metric comes from.
enum Src {
    /// Median duration of a span, divided by the unit in nanoseconds.
    Median(&'static str, f64),
    /// Median self time of a span, divided likewise.
    SelfMedian(&'static str, f64),
    /// Summed span time per counted item, in nanoseconds.
    Per(&'static str, &'static str),
    /// A counter.
    Count(&'static str),
    /// One counter divided by another.
    Ratio(&'static str, &'static str),
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The per-layer metrics, in `BENCHMARK.json` order. A layer a workload
/// never calls reads 0.
const LAYERS: &[(&str, &str, Src)] = &[
    (
        "spec.parse_check_us",
        "us",
        Src::Median("spec.parse_check", US),
    ),
    (
        "compile.compile_us",
        "us",
        Src::Median("compile.compile", US),
    ),
    ("compile.ops", "count", Src::Count("compile.ops")),
    (
        "compile.fused_ops",
        "count",
        Src::Count("compile.fused_ops"),
    ),
    ("engine.install_us", "us", Src::Median("engine.install", US)),
    (
        "engine.dispatch_ns_per_event",
        "ns",
        Src::Per("engine.dispatch", "engine.dispatch_events"),
    ),
    (
        "engine.evaluations",
        "count",
        Src::Count("engine.evaluations"),
    ),
    (
        "engine.violations",
        "count",
        Src::Count("engine.violations"),
    ),
    (
        "engine.commands_emitted",
        "count",
        Src::Count("engine.commands_emitted"),
    ),
    ("vm.eval_ns", "ns", Src::Per("vm.eval", "vm.evals")),
    (
        "vm.fuel_per_eval",
        "count",
        Src::Ratio("vm.fuel", "vm.evals"),
    ),
    (
        "engine.drain_ns_per_call",
        "ns",
        Src::Median("engine.drain", 1.0),
    ),
    ("store.load_ns", "ns", Src::Per("store.load", "store.loads")),
    (
        "telemetry.snapshot_us",
        "us",
        Src::Median("telemetry.snapshot", US),
    ),
    (
        "engine.timer_check_us",
        "us",
        Src::Median("engine.timer_check", US),
    ),
    (
        "window.aggregate_us.avg",
        "us",
        Src::Median("window.aggregate.avg", US),
    ),
    (
        "window.aggregate_us.stddev",
        "us",
        Src::Median("window.aggregate.stddev", US),
    ),
    (
        "window.aggregate_us.rate",
        "us",
        Src::Median("window.aggregate.rate", US),
    ),
    (
        "window.quantile_us",
        "us",
        Src::Median("window.quantile", US),
    ),
    (
        "window.samples_in_window",
        "count",
        Src::Ratio("window.samples", "window.checks"),
    ),
    (
        "store.record_ns",
        "ns",
        Src::Per("store.record", "store.records"),
    ),
    (
        "store.save_journaled_ns",
        "ns",
        Src::Per("store.save_journaled", "store.saves_journaled"),
    ),
    ("durable.records", "count", Src::Count("durable.records")),
    (
        "durable.frames_appended",
        "count",
        Src::Count("durable.frames_appended"),
    ),
    (
        "durable.bytes_per_record",
        "B",
        Src::Ratio("durable.bytes", "durable.records"),
    ),
    (
        "durable.compact_ms",
        "ms",
        Src::Median("durable.compact", MS),
    ),
    (
        "durable.compactions",
        "count",
        Src::Count("durable.compactions"),
    ),
    (
        "checkpoint.encode_us",
        "us",
        Src::Median("checkpoint.encode", US),
    ),
    (
        "checkpoint.bytes",
        "B",
        Src::Ratio("checkpoint.bytes", "checkpoint.encodes"),
    ),
    (
        "durable.save_checkpoint_us",
        "us",
        Src::Median("durable.save_checkpoint", US),
    ),
    ("durable.open_ms", "ms", Src::Median("durable.open", MS)),
    (
        "durable.records_replayed",
        "count",
        Src::Ratio("durable.replayed", "durable.opens"),
    ),
    (
        "checkpoint.decode_us",
        "us",
        Src::Median("checkpoint.decode", US),
    ),
    ("engine.restore_us", "us", Src::Median("engine.restore", US)),
    ("restart.self_us", "us", Src::SelfMedian("restart", US)),
    ("linnos.new_ms", "ms", Src::Median("linnos.new", MS)),
    ("linnos.run_ms", "ms", Src::Median("linnos.run", MS)),
    (
        "linnos.ios",
        "count",
        Src::Ratio("linnos.ios", "linnos.runs"),
    ),
    (
        "linnos.evaluations",
        "count",
        Src::Ratio("linnos.evaluations", "linnos.runs"),
    ),
];

fn median_of(samples: &[u64]) -> f64 {
    pct(samples, 50.0)
}

fn per_layer(tr: &Tracer, untraced: &Outcome, traced: &Outcome) -> Vec<Metric> {
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut out: Vec<Metric> = LAYERS
        .iter()
        .map(|(name, unit, src)| {
            let value = match *src {
                Src::Median(span, div) => {
                    tr.samples(span).map_or(0.0, |s| median_of(&s.total) / div)
                }
                Src::SelfMedian(span, div) => tr
                    .samples(span)
                    .map_or(0.0, |s| median_of(&s.self_time) / div),
                Src::Per(span, count) => ratio(tr.total_ns(span), tr.count(count)),
                Src::Count(count) => tr.count(count),
                Src::Ratio(a, b) => ratio(tr.count(a), tr.count(b)),
            };
            Metric { name, value, unit }
        })
        .collect();
    out.push(Metric {
        name: "trace.slowdown",
        value: events_per_s(untraced) / events_per_s(traced),
        unit: "ratio",
    });
    out
}

/// The commit the checkout was built from, read from `.git` when present.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn beyond_p90(samples: &[u64]) -> usize {
    let p90 = pct(samples, 90.0);
    samples.iter().filter(|&&s| s as f64 > p90).count()
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> ExitCode {
    let started = Instant::now();
    let (metrics, outcomes) = if args.trace {
        let untraced = run_phase(args, args.seconds / 2.0, None);
        let mut tracer = Tracer::new();
        let traced = run_phase(args, args.seconds / 2.0, Some(&mut tracer));
        (
            per_layer(&tracer, &untraced, &traced),
            vec![untraced, traced],
        )
    } else {
        let out = run_phase(args, args.seconds, None);
        (end_to_end(&out), vec![out])
    };
    let wall = started.elapsed().as_secs_f64();
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes
        .iter()
        .map(|o| o.failed)
        .sum::<u64>()
        .min(attempted);
    let error_rate = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && attempted > 0 && finite;
    let main = &outcomes[0];

    println!(
        "grbench {} seed={} trace={} seconds={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    for m in &metrics {
        println!("  {:<30} {:>18} {}", m.name, number(m.value), m.unit);
    }
    println!(
        "  {:<30} {:>18} ratio ({failed} failed / {attempted} attempted)",
        "error_rate", error_rate
    );
    for note in outcomes.iter().flat_map(|o| &o.notes) {
        println!("  mismatch: {note}");
    }
    let samples = format!(
        "{{\"setups\": {}, \"calls\": {}, \"calls_kept\": {}, \"calls_beyond_p90\": {}, \"restarts\": {}, \"restarts_beyond_p90\": {}, \"throughput_blocks\": {}, \"events\": {}}}",
        main.setups_ns.len(),
        main.calls.seen(),
        main.calls.values().len(),
        beyond_p90(main.calls.values()),
        main.restarts_ns.len(),
        beyond_p90(&main.restarts_ns),
        main.blocks.len(),
        main.events
    );
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"wall_s\": {}, \"cores\": {}, \"rustc\": {}, \"git_rev\": {}, \"samples\": {}, \"error_rate\": {}}}}}",
        quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        wall,
        cores,
        quote(env!("GRBENCH_RUSTC")),
        quote(&git_revision()),
        samples,
        error_rate
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One untraced run read back from saved output.
struct Saved {
    metrics: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
}

/// Reads saved run output: each untraced result line, keyed by the
/// workload its preceding provenance line names.
fn load_results(path: &str) -> Result<BTreeMap<String, Vec<Saved>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<Saved>> = BTreeMap::new();
    let mut current: Option<(String, f64)> = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(v) = Json::parse(line) else { continue };
        if let Some(p) = v.get("provenance") {
            let workload = p.get("workload").and_then(Json::str).unwrap_or("?");
            let trace = p.get("trace").and_then(Json::num).unwrap_or(1.0);
            current = Some((workload.to_string(), trace));
        } else if let (Some(metrics), Some((workload, trace))) = (v.get("metrics"), current.take())
        {
            if trace != 0.0 {
                continue;
            }
            let metrics = metrics
                .obj()
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.num()?)))
                .collect();
            out.entry(workload).or_default().push(Saved {
                metrics,
                attempted: v.get("attempted").and_then(Json::num).unwrap_or(0.0),
                failed: v.get("failed").and_then(Json::num).unwrap_or(0.0),
            });
        }
    }
    Ok(out)
}

/// `v` to six significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

fn compare(args: &[String]) -> Result<(), String> {
    let mut flags = flag_values(args)?;
    let parent_path = flags.remove("parent").ok_or("missing --parent")?;
    let change_path = flags.remove("change").ok_or("missing --change")?;
    let bench_path = flags
        .remove("benchmark")
        .unwrap_or_else(|| "BENCHMARK.json".into());
    let bench = std::fs::read_to_string(&bench_path).map_err(|e| format!("{bench_path}: {e}"))?;
    let bench = Json::parse(&bench).map_err(|e| format!("{bench_path}: {e}"))?;
    let mut metrics = Vec::new();
    for m in bench
        .get("end_to_end")
        .and_then(Json::arr)
        .ok_or("no end_to_end list")?
    {
        let name = m
            .get("name")
            .and_then(Json::str)
            .ok_or("metric without a name")?;
        let better = m
            .get("better")
            .and_then(Json::str)
            .and_then(Better::parse)
            .ok_or("metric without a direction")?;
        let bound = m
            .get("bound")
            .and_then(Json::num)
            .ok_or("metric without a bound")?;
        metrics.push((name.to_string(), better, bound));
    }
    let parent = load_results(&parent_path)?;
    let change = load_results(&change_path)?;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        println!(
            "{workload}: {} parent runs, {} change runs, {} pairs",
            p_runs.len(),
            c_runs.len(),
            p_runs.len().min(c_runs.len())
        );
        println!(
            "  {:<16} {:>36} {:>36} {:>6} {:>6}  verdict",
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "bound"
        );
        for (name, better, bound) in &metrics {
            let values = |runs: &[Saved]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            let [p1, pm, p3] = quartiles(&p);
            let [c1, cm, c3] = quartiles(&c);
            println!(
                "  {name:<16} {:>36} {:>36} {:>6.2} {:>6.2}  {}",
                format!("{} [{}, {}]", sig(pm), sig(p1), sig(p3)),
                format!("{} [{}, {}]", sig(cm), sig(c1), sig(c3)),
                win_fraction(&p, &c, *better),
                bound,
                verdict(&p, &c, *better, *bound).label()
            );
        }
        let rate = |runs: &[Saved]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
        };
        let (pe, ce) = (rate(p_runs), rate(c_runs));
        let judgement = if ce > pe { "worse" } else { "no worse" };
        println!(
            "  {:<16} parent {pe} change {ce}  {judgement}",
            "error_rate"
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("grbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_run_args(&args) {
        Ok(parsed) => run(&parsed),
        Err(e) => {
            eprintln!("grbench: {e}");
            eprintln!("usage: grbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!(
                "       grbench compare --parent <results> --change <results> [--benchmark <path>]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_results_pair_each_result_with_its_provenance() {
        let dir = TempDir::new(Path::new(env!("CARGO_MANIFEST_DIR")), "test-compare");
        let path = dir.path().join("runs.txt");
        let text = r#"grbench hook_ingest seed=1 trace=0 seconds=1
  setup_s 0.1 s
{"provenance": {"workload": "hook_ingest", "trace": 0}}
{"correct": true, "attempted": 4, "failed": 1, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
{"provenance": {"workload": "hook_ingest", "trace": 1}}
{"correct": true, "attempted": 9, "failed": 0, "metrics": {"vm.eval_ns": {"value": 3, "unit": "ns"}}}
{"provenance": {"workload": "fig2_linnos", "trace": 0}}
{"correct": true, "attempted": 2, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}
"#;
        std::fs::write(&path, text).unwrap();
        let runs = load_results(path.to_str().unwrap()).unwrap();
        assert_eq!(runs.len(), 2);
        let hook = &runs["hook_ingest"];
        assert_eq!(hook.len(), 1, "the traced run is skipped");
        assert_eq!(hook[0].metrics["setup_s"], 0.5);
        assert_eq!((hook[0].attempted, hook[0].failed), (4.0, 1.0));
        assert_eq!(runs["fig2_linnos"][0].metrics["setup_s"], 0.25);
    }

    #[test]
    fn compare_numbers_keep_six_significant_digits() {
        assert_eq!(sig(3_601_234.5), "3601234");
        assert_eq!(sig(68.60512), "68.6051");
        assert_eq!(sig(0.000_064_878_1), "0.0000648781");
        assert_eq!(sig(0.0), "0");
    }
}
