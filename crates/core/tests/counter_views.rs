//! Every counter view reads the same counts.
//!
//! The engine exposes its counts four ways: `stats()`, the per-monitor
//! `overhead_reports()`, the attached telemetry's `snapshot()`, and the
//! `__telemetry/` keys `publish_telemetry` writes into the store. This test
//! drives one mixed run through every entry point — FUNCTION batches, TIMER
//! rules, a hysteresis-gated violation that fires actions, a fuel-starved
//! rule that trips the watchdog, an uninstall, a publish, and a
//! checkpoint/restore into a fresh engine — and after each one asserts that
//! the views agree.

use std::sync::Arc;

use guardrails::monitor::engine::{EngineStats, FnEvent, MonitorEngine};
use guardrails::monitor::resilience::{ResilienceConfig, WatchdogConfig};
use guardrails::monitor::Hysteresis;
use guardrails::telemetry::ActionKind;
use guardrails::{FeatureStore, PolicyRegistry, Telemetry};
use simkernel::Nanos;

const SPECS: &str = r#"
guardrail io-bound {
    trigger: { FUNCTION(io_submit) },
    rule: { ARG(0) <= 4096 },
    action: { SAVE(io_size, ARG(0)) RECORD(oversized, 1) DEPRIORITIZE(writer, 2) }
}
guardrail queue-sane {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(qdepth) < 32 },
    action: { RECORD(deep_queue, 1) }
}
guardrail load-check {
    trigger: { TIMER(0, 100ms) },
    rule: { LOAD(load) < 0.5 },
    action: { REPORT("overloaded", load) REPLACE(io_policy, fallback) }
}
guardrail tail-check {
    trigger: { TIMER(50ms, 100ms) },
    rule: { QUANTILE(lat, 0.99, 1s) <= 1000 },
    action: { SAVE(tail_bad, 1) }
}
"#;

/// The counts a per-monitor block and the telemetry snapshot both carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    evaluations: u64,
    violations: u64,
    trips: u64,
    rule_fuel: u64,
    action_fuel: u64,
    actions: [u64; 6],
}

fn summed_reports(engine: &MonitorEngine) -> Counts {
    let mut sum = Counts::default();
    for r in engine.overhead_reports() {
        let a = r.account;
        sum.evaluations += a.evaluations;
        sum.violations += a.violations;
        sum.trips += a.trips;
        sum.rule_fuel += a.rule_fuel;
        sum.action_fuel += a.action_fuel;
        for (s, n) in sum.actions.iter_mut().zip(a.actions) {
            *s += n;
        }
    }
    sum
}

/// The engine-stats fields that are pure sums of the per-monitor blocks.
fn summed_stats(engine: &MonitorEngine) -> EngineStats {
    let mut sum = EngineStats::default();
    for r in engine.overhead_reports() {
        let a = r.account;
        sum.evaluations += a.evaluations;
        sum.violations += a.violations;
        sum.trips += a.trips;
        sum.rule_faults += a.rule_faults;
        sum.watchdog_trips += a.watchdog_trips;
        sum.commands_emitted += a.commands_emitted;
    }
    sum
}

fn block_fields(s: EngineStats) -> [u64; 6] {
    [
        s.evaluations,
        s.violations,
        s.trips,
        s.rule_faults,
        s.watchdog_trips,
        s.commands_emitted,
    ]
}

fn diff(a: [u64; 6], b: [u64; 6]) -> [u64; 6] {
    std::array::from_fn(|i| a[i] - b[i])
}

/// A running engine plus what its views read at the last check, so each
/// check can compare `stats()` deltas against per-monitor deltas.
struct Run {
    engine: MonitorEngine,
    telemetry: Arc<Telemetry>,
    last_stats: EngineStats,
    last_blocks: EngineStats,
}

impl Run {
    fn new() -> Self {
        let registry = Arc::new(PolicyRegistry::new());
        registry
            .register("io_policy", &["learned", "fallback"])
            .unwrap();
        let mut engine = MonitorEngine::with_parts(Arc::new(FeatureStore::new()), registry);
        let telemetry = Telemetry::new();
        engine.set_telemetry(Arc::clone(&telemetry));
        engine.set_resilience(ResilienceConfig {
            watchdog: Some(WatchdogConfig::default().with_max_faults(2)),
            ..ResilienceConfig::default()
        });
        engine.install_str(SPECS).unwrap();
        engine
            .set_hysteresis("load-check", Hysteresis::n_of_m(2, 3))
            .unwrap();
        let last_stats = engine.stats();
        let last_blocks = summed_stats(&engine);
        Run {
            engine,
            telemetry,
            last_stats,
            last_blocks,
        }
    }

    /// Asserts that every view agrees after the entry point named `step`.
    fn check(&mut self, step: &str) {
        let snap = self.telemetry.snapshot();
        let blocks = summed_reports(&self.engine);
        let mirrored = Counts {
            evaluations: snap.evaluations,
            violations: snap.violations,
            trips: snap.trips,
            rule_fuel: snap.rule_fuel,
            action_fuel: snap.action_fuel,
            actions: snap.actions,
        };
        assert_eq!(
            mirrored, blocks,
            "{step}: snapshot vs summed overhead reports"
        );
        assert_eq!(
            snap.fused_evals + snap.fallback_evals,
            snap.evaluations,
            "{step}: every evaluation is fused or fallback"
        );
        let stats = self.engine.stats();
        let block_stats = summed_stats(&self.engine);
        assert_eq!(
            diff(block_fields(stats), block_fields(self.last_stats)),
            diff(block_fields(block_stats), block_fields(self.last_blocks)),
            "{step}: stats() delta vs summed per-monitor deltas"
        );
        self.last_stats = stats;
        self.last_blocks = block_stats;
    }

    fn batch(&mut self, start_us: u64, args: &[[f64; 1]]) {
        let events: Vec<FnEvent<'_>> = args
            .iter()
            .enumerate()
            .map(|(i, a)| FnEvent {
                now: Nanos::from_micros(start_us + i as u64),
                args: a,
            })
            .collect();
        self.engine.on_function_batch("io_submit", &events);
    }
}

#[test]
fn every_counter_view_agrees_across_a_mixed_run() {
    let mut run = Run::new();
    let store = run.engine.store();
    run.check("install");

    // FUNCTION batches: some oversized I/Os, a deep queue for part of it.
    store.save("qdepth", 4.0);
    run.batch(10, &[[512.0], [8192.0], [1024.0], [65536.0]]);
    run.check("first batch");
    store.save("qdepth", 64.0);
    run.batch(20, &[[100.0], [200.0], [9000.0]]);
    run.check("second batch");
    run.engine
        .on_function("io_submit", Nanos::from_micros(30), &[10_000.0]);
    run.check("single event");

    // TIMER rules: the load check violates every tick but only trips on
    // the second of three (hysteresis), then on each later tick.
    store.save("load", 0.9);
    for i in 0..20 {
        store.record("lat", Nanos::from_millis(10 * i), 500.0);
    }
    run.engine.advance_to(Nanos::from_millis(450));
    run.check("timers");
    let early = run.engine.checkpoint();
    let stats = run.engine.stats();
    assert!(stats.violations > stats.trips, "hysteresis suppressed some");
    assert!(stats.trips > 0, "and let some through");

    // Starve the quantile rule: it faults until the watchdog disables it,
    // while the cheap load check still fits the budget.
    run.engine.set_rule_fuel_limit(Some(10));
    run.engine.advance_to(Nanos::from_millis(800));
    run.check("starved timers");
    assert!(run.engine.watchdog_tripped("tail-check").unwrap());
    assert_eq!(run.engine.stats().watchdog_trips, 1);
    assert!(run.engine.stats().rule_faults >= 2);
    run.engine.set_rule_fuel_limit(None);

    // An advance that evaluates nothing changes nothing.
    let before = run.telemetry.snapshot();
    run.engine.advance_to(Nanos::from_millis(801));
    run.check("idle advance");
    assert_eq!(run.telemetry.snapshot(), before);

    // Uninstall a monitor that has counts: its block stays in every view.
    run.engine.uninstall("queue-sane").unwrap();
    run.check("uninstall");
    run.batch(900_000, &[[1.0], [99_999.0]]);
    run.check("batch after uninstall");
    let retired = run
        .engine
        .overhead_reports()
        .into_iter()
        .find(|r| r.guardrail == "queue-sane")
        .expect("retired monitor still reported");
    assert!(retired.account.evaluations > 0);

    // Publication mirrors the snapshot into the store.
    run.engine.publish_telemetry();
    run.check("publish");
    let snap = run.telemetry.snapshot();
    assert_eq!(
        store.load("__telemetry/engine/evaluations"),
        Some(snap.evaluations as f64)
    );
    assert_eq!(
        store.load("__telemetry/engine/violations"),
        Some(snap.violations as f64)
    );
    assert_eq!(
        store.load("__telemetry/actions/deprioritize"),
        Some(snap.actions[ActionKind::Deprioritize as usize] as f64)
    );
    assert_eq!(
        store.load("__telemetry/guardrail/io-bound/evaluations"),
        run.engine
            .overhead_reports()
            .iter()
            .find(|r| r.guardrail == "io-bound")
            .map(|r| r.account.evaluations as f64)
    );

    // Checkpoint, then restore into a fresh engine over the same specs.
    let checkpoint = run.engine.checkpoint();
    run.check("checkpoint");
    assert_eq!(checkpoint.stats, run.engine.stats());
    let mut restarted = Run::new();
    restarted.engine.uninstall("queue-sane").unwrap();
    restarted.engine.restore(&checkpoint).unwrap();
    assert_eq!(
        restarted.engine.stats(),
        checkpoint.stats,
        "stats() right after restore reads the checkpoint"
    );
    restarted.last_stats = restarted.engine.stats();
    restarted.check("restore");

    // Continued work on the restored engine.
    let store = restarted.engine.store();
    store.save("load", 0.9);
    restarted.engine.advance_to(Nanos::from_millis(1200));
    restarted.check("timers after restore");
    restarted.batch(1_300_000, &[[8192.0], [1.0]]);
    restarted.check("batch after restore");
    restarted.engine.publish_telemetry();
    restarted.check("publish after restore");
    assert_eq!(
        store.load("__telemetry/engine/evaluations"),
        Some(restarted.telemetry.snapshot().evaluations as f64)
    );
    assert!(restarted.engine.stats().evaluations > checkpoint.stats.evaluations);

    // Restoring an older checkpoint into an engine whose blocks already
    // hold more counts: `stats()` reads the checkpoint, and later deltas
    // still track the blocks.
    run.engine.restore(&early).unwrap();
    assert_eq!(run.engine.stats(), early.stats);
    run.last_stats = run.engine.stats();
    run.check("restore an older checkpoint");
    run.batch(2_000_000, &[[8192.0], [2.0]]);
    run.check("batch after the older restore");
    assert_eq!(
        run.engine.stats().evaluations,
        early.stats.evaluations + 2,
        "two io-bound evaluations since the restore"
    );
}
