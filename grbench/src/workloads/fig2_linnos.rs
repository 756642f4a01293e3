//! `fig2_linnos`: the paper's Figure 2 — `LinnosSim` with the Listing 2
//! guardrail, the post-shift phase lengthened threefold. The substrate
//! (`storagesim` + `mlkit`) does nearly all the work; the engine runs one
//! timer check per simulated second, so this is the no-change workload
//! for guardrail-layer work. A run cycles through [`SCENARIOS`] seeded
//! scenarios; the unguarded curve of each is simulated once, before
//! timing, as the reference every guarded run is checked against.

use std::time::Instant;

use simkernel::Nanos;
use storagesim::sim::LISTING_2_SPEC;
use storagesim::{LinnosSim, LinnosSimConfig, SimReport};

use super::{engine_with, ns, set_up, Budget, Outcome, Rng};
use crate::trace::Tracer;

/// Listing 2's check period.
const CHECK: Nanos = Nanos::from_secs(1);
/// Distinct seeded scenarios per run.
const SCENARIOS: u64 = 8;

/// Scenario `i` of a run seeded with `seed`.
fn config(seed: u64, i: u64, with_guardrail: bool) -> LinnosSimConfig {
    let base = LinnosSimConfig::default();
    LinnosSimConfig {
        seed: Rng::new(seed, 4 + i).next_u64(),
        shifted: Nanos::from_nanos(base.shifted.as_nanos() * 3),
        with_guardrail,
        ..base
    }
}

fn ios(report: &SimReport) -> u64 {
    report.healthy.ios + report.shifted.ios
}

/// Checks a guarded run against the paper's Figure 2 claims: the
/// guardrail fires within one check period after the shift, and the
/// post-shift latency is lower than the unguarded run's.
pub fn check_run(out: &mut Outcome, shift: Nanos, guarded: &SimReport, unguarded: &SimReport) {
    let fired = guarded.guardrail_triggered_at;
    out.check(
        "guardrail fires within one check after the shift",
        fired.is_some_and(|at| at > shift && at <= shift + CHECK),
        true,
    );
    out.check(
        "guarded post-shift latency below unguarded",
        guarded.shifted.mean_latency_us < unguarded.shifted.mean_latency_us,
        true,
    );
}

/// Runs one phase of `seconds`.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let references: Vec<SimReport> = (0..SCENARIOS)
        .map(|i| LinnosSim::new(config(seed, i, false)).run())
        .collect();
    let mut out = Outcome::default();
    set_up(&mut out, || {
        if let Some(tr) = tracer.as_deref_mut() {
            // The sim installs Listing 2 internally; build it once more
            // outside so the spec/compile/install layers are measured.
            engine_with(LISTING_2_SPEC, Some(tr));
        }
        LinnosSim::new(config(seed, 0, true))
    });
    let budget = Budget::new(seconds);
    for i in (0..SCENARIOS).cycle() {
        drop(out.time_setup(|| LinnosSim::new(config(seed, i, true))));
        let cfg = config(seed, i, true);
        let shift = cfg.shift_at();
        let t0 = Instant::now();
        let sim = LinnosSim::new(cfg);
        let t1 = Instant::now();
        let report = sim.run();
        let t2 = Instant::now();
        out.restarts_ns.push(ns(t0, t1));
        out.call(t1, t1, t2, ios(&report));
        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("linnos.new", t0, t1);
            tr.record("linnos.run", t1, t2);
            tr.add("linnos.runs", 1.0);
            tr.add("linnos.ios", ios(&report) as f64);
            tr.add("linnos.evaluations", report.telemetry.evaluations as f64);
        }
        check_run(&mut out, shift, &report, &references[i as usize]);
        if budget.spent(t2) {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_run_meets_the_figure_2_claims() {
        let out = run(11, 0.0, None);
        assert_eq!(out.calls.seen(), 1);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
    }

    #[test]
    fn swapped_runs_trip_the_reference() {
        let shift = config(11, 0, true).shift_at();
        let guarded = LinnosSim::new(config(11, 0, true)).run();
        let unguarded = LinnosSim::new(config(11, 0, false)).run();
        let mut out = Outcome::default();
        check_run(&mut out, shift, &unguarded, &guarded);
        assert_eq!((out.attempted, out.failed), (2, 2));
    }
}
