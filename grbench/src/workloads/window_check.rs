//! `window_check`: windowed property checks (P1/P4). The host records one
//! latency sample per I/O into the `io_lat` series; four TIMER guardrails
//! check `QUANTILE(…, 0.99, …)`, `AVG`, `STDDEV` and `RATE` over 1 s
//! windows every 10 ms, driven through `advance_to`. Records (writes) sit
//! beside checks (reads), so a change that speeds the aggregates by
//! slowing `record` shows in `events_per_s`.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use guardrails::compile::compile_str;
use guardrails::compile::ir::Program;
use guardrails::spec::ast::AggKind;
use guardrails::vm::{DeltaState, EvalCtx, Vm};
use guardrails::{FeatureStore, MonitorEngine};
use simkernel::Nanos;

use super::{count_engine_work, engine_with, set_up, standby_restart, Budget, Outcome, Rng};
use crate::trace::Tracer;

const KEY: &str = "io_lat";
const P99_LIMIT: f64 = 1500.0;
const AVG_LIMIT: f64 = 400.0;
const STDDEV_LIMIT: f64 = 450.0;
const RATE_LIMIT: f64 = 9000.0;
const SPECS: &str = r#"
guardrail lat-p99 { trigger: { TIMER(0, 10ms) }, rule: { QUANTILE(io_lat, 0.99, 1s) <= 1500 }, action: { SAVE(p99_alarm, 1) } }
guardrail lat-avg { trigger: { TIMER(0, 10ms) }, rule: { AVG(io_lat, 1s) <= 400 }, action: { SAVE(avg_alarm, 1) } }
guardrail lat-jitter { trigger: { TIMER(0, 10ms) }, rule: { STDDEV(io_lat, 1s) <= 450 }, action: { SAVE(jitter_alarm, 1) } }
guardrail io-rate { trigger: { TIMER(0, 10ms) }, rule: { RATE(io_lat, 1s) >= 9000 }, action: { SAVE(rate_alarm, 1) } }
"#;
const TICK: Nanos = Nanos::from_millis(10);
const WINDOW: Nanos = Nanos::from_secs(1);
/// Generated `(gap, latency)` samples, cycled through.
const POOL: usize = 1 << 18;
/// Checks between reference comparisons (each sorts a full window).
const REFERENCE_EVERY: u64 = 8;
/// Checks between standby restarts.
const RESTART_EVERY: u64 = 64;
/// Checks between the traced run's repeated window calls.
const PROBE_EVERY: u64 = 4;

/// Seeded `(gap to previous sample, latency µs)` pairs. A fixed cycle of
/// regimes, each length jittered ±20%, keeps every seed's mix the same:
/// normal stretches (10k I/Os/s, mean 200 µs), a slow burst (mean 620 µs,
/// breaking the p99, mean and jitter limits) and an idle stretch (1k
/// I/Os/s, breaking the rate floor).
fn generate(seed: u64) -> Vec<(Nanos, f64)> {
    const CYCLE: [(u64, u64, f64); 4] = [
        (40_000, 100, 140.0),
        (3_000, 100, 560.0),
        (40_000, 100, 140.0),
        (500, 1_000, 140.0),
    ];
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::with_capacity(POOL);
    for &(len, gap, mean) in CYCLE.iter().cycle() {
        let len = len * 8 / 10 + rng.below(len * 4 / 10 + 1);
        for _ in 0..len {
            if out.len() == POOL {
                return out;
            }
            out.push((Nanos::from_micros(gap), 60.0 + rng.exp(mean)));
        }
    }
    unreachable!("the regime cycle is endless")
}

/// The window's statistics computed naively: a plain sum, a two-pass
/// variance and a full sort.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Naive {
    /// Mean.
    pub avg: f64,
    /// Sample standard deviation.
    pub stddev: f64,
    /// Samples per second of window.
    pub rate: f64,
    /// 0.99-quantile, linearly interpolated.
    pub p99: f64,
}

impl Naive {
    /// Statistics of `values` over a window of `window`.
    pub fn of(values: &[f64], window: Nanos) -> Naive {
        let n = values.len();
        if n == 0 {
            return Naive {
                avg: 0.0,
                stddev: 0.0,
                rate: 0.0,
                p99: 0.0,
            };
        }
        let avg = values.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            (values.iter().map(|v| (v - avg) * (v - avg)).sum::<f64>() / (n - 1) as f64).sqrt()
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pos = 0.99 * (n - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let p99 = if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Naive {
            avg,
            stddev,
            rate: n as f64 / window.as_secs_f64(),
            p99,
        }
    }

    /// How many of the four rules these statistics violate, or `None`
    /// when a statistic sits so close to its limit that summation order
    /// could decide the outcome.
    pub fn violations(&self) -> Option<u64> {
        let near = |x: f64, limit: f64| (x - limit).abs() <= 1e-6 * limit;
        if near(self.p99, P99_LIMIT)
            || near(self.avg, AVG_LIMIT)
            || near(self.stddev, STDDEV_LIMIT)
            || near(self.rate, RATE_LIMIT)
        {
            return None;
        }
        Some(
            u64::from(self.p99 > P99_LIMIT)
                + u64::from(self.avg > AVG_LIMIT)
                + u64::from(self.stddev > STDDEV_LIMIT)
                + u64::from(self.rate < RATE_LIMIT),
        )
    }

    /// Compares the store's windowed answers with these; quantile and rate
    /// must match exactly, streaming mean and deviation to 1e-9.
    pub fn check_store(&self, out: &mut Outcome, store: &FeatureStore, now: Nanos) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let avg = store.aggregate(AggKind::Avg, KEY, WINDOW, now);
        let stddev = store.aggregate(AggKind::StdDev, KEY, WINDOW, now);
        out.check("AVG within 1e-9", close(avg, self.avg), true);
        out.check("STDDEV within 1e-9", close(stddev, self.stddev), true);
        out.check(
            "RATE",
            store.aggregate(AggKind::Rate, KEY, WINDOW, now),
            self.rate,
        );
        out.check(
            "QUANTILE 0.99",
            store.quantile(KEY, 0.99, WINDOW, now),
            self.p99,
        );
    }
}

/// Runs one phase of `seconds`.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let samples = generate(seed);
    let mut out = Outcome::default();
    let mut engine: MonitorEngine = set_up(&mut out, || engine_with(SPECS, tracer.as_deref_mut()));
    let rules: Vec<Program> = compile_str(SPECS)
        .expect("benchmark specs compile")
        .into_iter()
        .flat_map(|g| g.rules.into_iter().map(|r| r.program))
        .collect();
    let mut vm = Vm::new();
    let store = engine.store();

    let budget = Budget::new(seconds);
    let mut pool = samples.iter().cycle();
    let mut next = pool.next().copied().expect("non-empty pool");
    let mut sample_at = next.0;
    let mut block: Vec<(Nanos, f64)> = Vec::new();
    let mut shadow: VecDeque<(Nanos, f64)> = VecDeque::new();
    let mut cmds = Vec::new();
    let mut tick = Nanos::ZERO;
    let mut checks = 0u64;
    let first_stats = engine.stats();
    let mut stats = first_stats;
    loop {
        tick += TICK;
        block.clear();
        while sample_at <= tick {
            block.push((sample_at, next.1));
            next = *pool.next().expect("cycled pool");
            sample_at += next.0;
        }
        let t0 = Instant::now();
        for &(at, value) in &block {
            store.record(KEY, at, value);
        }
        let t1 = Instant::now();
        engine.advance_to(tick);
        cmds.clear();
        engine.drain_commands_into(&mut cmds);
        let t2 = Instant::now();
        black_box(&cmds);
        out.call(t0, t1, t2, block.len() as u64);
        checks += 1;

        shadow.extend(block.iter().copied());
        let horizon = tick.saturating_sub(WINDOW);
        while shadow.front().is_some_and(|&(at, _)| at < horizon) {
            shadow.pop_front();
        }
        let after = engine.stats();
        if checks.is_multiple_of(REFERENCE_EVERY) {
            let values: Vec<f64> = shadow.iter().map(|&(_, v)| v).collect();
            let naive = Naive::of(&values, WINDOW);
            naive.check_store(&mut out, &store, tick);
            if let Some(expected) = naive.violations() {
                out.check(
                    "violations at a check",
                    after.violations - stats.violations,
                    expected,
                );
            }
        }
        out.engine_faults(&stats, &after);
        stats = after;

        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("store.record", t0, t1);
            tr.add("store.records", block.len() as f64);
            tr.record("engine.timer_check", t1, t2);
            if checks.is_multiple_of(PROBE_EVERY) {
                probe_window(tr, &store, tick);
            }
            if checks.is_multiple_of(PROBE_EVERY * 8) {
                probe_rules(tr, &mut vm, &rules, &store, tick);
            }
        }
        if checks.is_multiple_of(RESTART_EVERY) {
            let blob = engine.checkpoint().encode();
            let (took, same) = standby_restart(SPECS, &blob, tracer.as_deref_mut());
            out.restarts_ns.push(took);
            out.check("restored monitors equal the checkpoint", same, true);
            drop(out.time_setup(|| engine_with(SPECS, None)));
        }
        if budget.spent(t2) {
            break;
        }
    }
    count_engine_work(tracer, &first_stats, &stats);
    out
}

/// Repeats the window calls a timer check makes, with its arguments.
fn probe_window(tr: &mut Tracer, store: &FeatureStore, now: Nanos) {
    for (name, kind) in [
        ("window.aggregate.avg", AggKind::Avg),
        ("window.aggregate.stddev", AggKind::StdDev),
        ("window.aggregate.rate", AggKind::Rate),
    ] {
        tr.span(name, || black_box(store.aggregate(kind, KEY, WINDOW, now)));
    }
    tr.span("window.quantile", || {
        black_box(store.quantile(KEY, 0.99, WINDOW, now))
    });
    tr.add(
        "window.samples",
        store.aggregate(AggKind::Count, KEY, WINDOW, now),
    );
    tr.add("window.checks", 1.0);
}

/// Runs every timer rule once on the VM, and times a store read.
fn probe_rules(tr: &mut Tracer, vm: &mut Vm, rules: &[Program], store: &FeatureStore, now: Nanos) {
    let mut deltas = DeltaState::default();
    let start = Instant::now();
    let mut fuel = 0;
    for program in rules {
        let mut ctx = EvalCtx {
            store,
            now,
            args: &[],
            deltas: &mut deltas,
        };
        fuel += black_box(vm.run(program, &mut ctx)).fuel;
    }
    tr.record("vm.eval", start, Instant::now());
    tr.add("vm.evals", rules.len() as f64);
    tr.add("vm.fuel", fuel as f64);
    let start = Instant::now();
    black_box(store.load(black_box(KEY)));
    tr.record("store.load", start, Instant::now());
    tr.add("store.loads", 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_statistics_match_hand_values() {
        let n = Naive::of(&[1.0, 2.0, 3.0, 4.0], Nanos::from_secs(2));
        assert_eq!(n.avg, 2.5);
        assert!((n.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-15);
        assert_eq!(n.rate, 2.0);
        assert!((n.p99 - 3.97).abs() < 1e-12);
        assert_eq!(
            Naive::of(&[], WINDOW).violations(),
            Some(1),
            "empty window breaks RATE"
        );
    }

    #[test]
    fn a_short_run_agrees_with_its_reference() {
        let out = run(3, 0.2, None);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
    }

    #[test]
    fn a_wrong_quantile_trips_the_reference() {
        let store = FeatureStore::new();
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        for (i, v) in values.iter().enumerate() {
            store.record(KEY, Nanos::from_millis(i as u64), *v);
        }
        let now = Nanos::from_millis(99);
        let mut out = Outcome::default();
        Naive::of(&values, WINDOW).check_store(&mut out, &store, now);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        let mut wrong = Naive::of(&values, WINDOW);
        wrong.p99 += 0.5;
        wrong.check_store(&mut out, &store, now);
        assert_eq!(out.failed, 1);
    }
}
