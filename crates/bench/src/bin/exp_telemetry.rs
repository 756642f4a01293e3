//! E12: telemetry overhead and the self-monitoring loop.
//!
//! Two sections:
//!
//! 1. **Overhead**: the E11 ingestion workload (`gr_bench::ingest`: 100k
//!    events, 256-event batches, four monitors on the hot hook) runs with
//!    and without a [`Telemetry`] bundle attached, in a fixed number of
//!    pairs. Each pair feeds the same events to a telemetry-off and a
//!    telemetry-on engine batch by batch, alternating which takes a batch
//!    first, and yields one on/off wall-time ratio: host noise that
//!    outlasts a batch lands on both flavors alike. The gate is the median
//!    ratio over the pairs, so a hiccup in a few pairs cannot move it.
//!    Telemetry must cost < 3% by that median, and
//!    the user-visible outputs (violations, store state with `__telemetry/`
//!    keys filtered out) must be identical — attaching observability may
//!    not change behavior, even after an explicit `publish_telemetry`.
//! 2. **Overhead guardrail** (the paper's loop, closed): a deliberately
//!    hot "hog" monitor ticks every microsecond burning rule fuel; a
//!    budget guardrail `LOAD`s the published
//!    `__telemetry/guardrail/hog/overhead_fraction` (P5, fuel-modelled and
//!    deterministic) and, past a 1% budget, fires `REPORT` (A1) and
//!    `DEPRIORITIZE` (A4). The host drains the command and demotes the
//!    hog, exactly as a scheduler would demote a runaway task.
//!
//! The CSV (`results/exp_telemetry.csv`) contains only deterministic
//! columns — counter values, identity flags, trip counts. Measured
//! nanoseconds, the median overhead and its interquartile range go to stdout
//! only.

use std::sync::Arc;

use gr_bench::ingest::{build_engine, fingerprint, ingest_interleaved, workload, BATCH, EVENTS};
use gr_bench::{row, write_results};
use guardrails::action::Command;
use guardrails::compile::CompileOptions;
use guardrails::monitor::engine::MonitorEngine;
use guardrails::{Telemetry, TelemetrySnapshot};
use simkernel::Nanos;

const SEED: u64 = 0xE12;
/// Telemetry-off/on pairs measured; odd, so the median is one pair's ratio.
const PAIRS: usize = 41;
/// The P5 budget the ingestion comparison is held to.
const OVERHEAD_BUDGET: f64 = 0.03;

/// A monitor that burns noticeable rule fuel every microsecond: the rule is
/// a tautology (so it never fires its action) whose only purpose is cost.
const HOG: &str = r#"
guardrail hog {
    trigger: { TIMER(0, 1us) },
    rule: { LOAD(qdepth) + LOAD(qdepth) * 2 + LOAD(qdepth) / 2 - LOAD(qdepth) + LOAD(qdepth) >= 0 - 1e18 },
    action: { RECORD(hog_fired, 1) }
}
"#;

/// The budget guardrail: past 1% modelled overhead, report and demote.
const BUDGET: &str = r#"
guardrail overhead-budget {
    trigger: { TIMER(0, 1ms) },
    rule: { LOAD("__telemetry/guardrail/hog/overhead_fraction") <= 0.01 },
    action: {
        REPORT("hog monitor over P5 budget", "__telemetry/guardrail/hog/overhead_fraction"),
        DEPRIORITIZE(hog, 2)
    }
}
"#;

/// The nearest-rank `q`-quantile of `sorted` (ascending).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let mut csv = String::from("section,metric,value\n");

    // ---- Section 1: telemetry overhead on the E11 workload --------------
    let events = workload(SEED);
    let mut ratios = Vec::with_capacity(PAIRS);
    let (mut off_walls, mut on_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..PAIRS {
        // One pair ingests the same events into a telemetry-off and a
        // telemetry-on engine, batch by batch, alternating which goes first.
        let mut engines = [false, true].map(|on| build_engine(&CompileOptions::default(), on));
        let [off, on] = ingest_interleaved(&mut engines, &events)[..] else {
            unreachable!("one wall time per engine")
        };
        ratios.push(on as f64 / off.max(1) as f64);
        off_walls.push(off as f64);
        on_walls.push(on as f64);
        last = Some(engines);
    }
    let [off_engine, on_engine] = last.expect("at least one pair");
    ratios.sort_by(f64::total_cmp);
    off_walls.sort_by(f64::total_cmp);
    on_walls.sort_by(f64::total_cmp);
    let overhead = quantile(&ratios, 0.5) - 1.0;
    let overhead_iqr = quantile(&ratios, 0.75) - quantile(&ratios, 0.25);
    let (off_wall, on_wall) = (quantile(&off_walls, 0.5), quantile(&on_walls, 0.5));

    let off_print = fingerprint(&off_engine);
    // Publishing writes only reserved keys, so the filtered fingerprint
    // must survive it untouched.
    on_engine.publish_telemetry();
    let on_print = fingerprint(&on_engine);
    let identical = off_print == on_print;

    let telemetry = on_engine.telemetry().expect("telemetry attached");
    let snap: TelemetrySnapshot = telemetry.snapshot();
    csv.push_str(&format!("ingest,events,{EVENTS}\n"));
    csv.push_str(&format!("ingest,batch_size,{BATCH}\n"));
    csv.push_str(&format!("ingest,evaluations,{}\n", snap.evaluations));
    csv.push_str(&format!("ingest,violations,{}\n", snap.violations));
    csv.push_str(&format!("ingest,trips,{}\n", snap.trips));
    csv.push_str(&format!("ingest,rule_fuel,{}\n", snap.rule_fuel));
    csv.push_str(&format!("ingest,fused_evals,{}\n", snap.fused_evals));
    csv.push_str(&format!("ingest,fallback_evals,{}\n", snap.fallback_evals));
    csv.push_str(&format!(
        "ingest,outputs_identical,{}\n",
        u8::from(identical)
    ));
    eprintln!("[exp_telemetry] ingest: median off {off_wall} ns, on {on_wall} ns");

    // ---- Section 2: the overhead guardrail ------------------------------
    let t = Telemetry::new();
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Arc::clone(&t));
    // Republish the reserved keys once per simulated millisecond so the
    // budget rule always reads a fresh fraction.
    engine.set_telemetry_publish_interval(Some(Nanos::from_millis(1)));
    engine.install_str(HOG).expect("hog installs");
    engine.install_str(BUDGET).expect("budget installs");
    engine.store().save("qdepth", 5.0);

    let mut reports_at_demotion = 0usize;
    let mut deprioritize_cmds = 0u64;
    let mut cmd_buf = Vec::new();
    for ms in 1..=10u64 {
        engine.advance_to(Nanos::from_millis(ms));
        cmd_buf.clear();
        engine.drain_commands_into(&mut cmd_buf);
        for (_, command) in &cmd_buf {
            if let Command::Deprioritize {
                guardrail, target, ..
            } = command
            {
                deprioritize_cmds += 1;
                // The host's side of the loop: the first demotion disables
                // the hog monitor, like a scheduler demoting a hot task.
                if deprioritize_cmds == 1 {
                    assert_eq!(guardrail, "overhead-budget");
                    assert_eq!(target, "hog");
                    engine.set_enabled("hog", false).expect("hog exists");
                    reports_at_demotion = engine.reports().len();
                }
            }
        }
    }
    let hog_fraction = engine
        .store()
        .load("__telemetry/guardrail/hog/overhead_fraction")
        .unwrap_or(0.0);
    let hog = engine
        .overhead_reports()
        .into_iter()
        .find(|r| r.guardrail == "hog")
        .expect("hog account");
    csv.push_str(&format!(
        "budget,hog_evaluations,{}\n",
        hog.account.evaluations
    ));
    csv.push_str(&format!("budget,hog_rule_fuel,{}\n", hog.account.rule_fuel));
    csv.push_str(&format!("budget,deprioritize_cmds,{deprioritize_cmds}\n"));
    csv.push_str(&format!("budget,reports,{}\n", engine.reports().len()));
    eprintln!(
        "[exp_telemetry] budget: hog fraction {hog_fraction:.4}, \
         {deprioritize_cmds} demotions, {} reports",
        engine.reports().len()
    );

    let path = write_results("exp_telemetry.csv", &csv);

    // ---- stdout table ---------------------------------------------------
    let widths = [26usize, 14, 14, 10];
    println!(
        "{}",
        row(
            &[
                "metric".into(),
                "telemetry off".into(),
                "telemetry on".into(),
                "delta".into()
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "ingest ns/event".into(),
                format!("{:.1}", off_wall / EVENTS as f64),
                format!("{:.1}", on_wall / EVENTS as f64),
                format!("{:+.2}%", overhead * 100.0),
            ],
            &widths
        )
    );
    println!(
        "telemetry overhead: median {:+.2}%, IQR {:.2} pp (per-pair on/off ratios, \
         {PAIRS} alternating pairs)",
        overhead * 100.0,
        overhead_iqr * 100.0
    );
    println!("wrote {}", path.display());

    // ---- shape checks ---------------------------------------------------
    assert!(
        identical,
        "telemetry changed user-visible outputs: {off_print:?} vs {on_print:?}"
    );
    assert!(
        snap.violations > 0,
        "the workload must produce violations or the comparison is vacuous"
    );
    assert_eq!(
        snap.fused_evals + snap.fallback_evals,
        snap.evaluations,
        "every evaluation is classified as fused or fallback"
    );
    assert!(
        overhead < OVERHEAD_BUDGET,
        "telemetry must cost < 3% on the ingestion workload, got {:+.2}% \
         (median on/off ratio over {PAIRS} alternating pairs, IQR {:.2} pp)",
        overhead * 100.0,
        overhead_iqr * 100.0
    );
    assert!(
        deprioritize_cmds >= 1,
        "the overhead guardrail must demote the hog"
    );
    assert!(
        reports_at_demotion >= 1,
        "REPORT must fire alongside DEPRIORITIZE"
    );
}
