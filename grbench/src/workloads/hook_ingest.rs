//! `hook_ingest`: the per-I/O cost a FUNCTION guardrail puts on the kernel
//! path. Four guardrails watch `io_submit` (three argument rules and one
//! `LOAD` rule, the E11 set) beside bystanders on other hooks; the host
//! delivers synthetic `(size, latency)` submissions in 256-event batches
//! and drains the command outbox after each batch.

use std::hint::black_box;
use std::time::Instant;

use guardrails::compile::compile_str;
use guardrails::compile::ir::Program;
use guardrails::monitor::engine::FnEvent;
use guardrails::vm::{DeltaState, EvalCtx, Vm};
use simkernel::Nanos;

use super::{count_engine_work, engine_with, set_up, standby_restart, Budget, Outcome, Rng};
use crate::trace::Tracer;

const HOOK: &str = "io_submit";
const SPECS: &str = r#"
guardrail io-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { RECORD(oversized, 1) } }
guardrail io-latency { trigger: { FUNCTION(io_submit) }, rule: { ARG(1) < 900 }, action: { RECORD(slow_ios, 1) } }
guardrail queue-depth { trigger: { FUNCTION(io_submit) }, rule: { LOAD(qdepth) < 64 }, action: { RECORD(deep_queue, 1) } }
guardrail sane-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 }, action: { RECORD(negative_size, 1) } }
guardrail bystander-a { trigger: { FUNCTION(mem_place) }, rule: { ARG(0) < 1e9 }, action: { RECORD(a_hits, 1) } }
guardrail bystander-b { trigger: { FUNCTION(net_poll) }, rule: { ARG(0) < 1e9 }, action: { RECORD(b_hits, 1) } }
"#;
/// The queue depth the host publishes for the `LOAD` rule.
const QDEPTH: f64 = 5.0;
const BATCH: usize = 256;
/// Generated submissions, cycled through (a multiple of `BATCH`).
const POOL: usize = 1 << 18;
/// Batches between standby restarts (≥ 100 restarts in a 10 s run).
const RESTART_EVERY: u64 = 512;
/// Batches between the traced run's repeated layer calls.
const PROBE_EVERY: u64 = 64;

/// Seeded `(size, latency)` submissions: sizes up to 4200 bytes (≈2% over
/// the 4096 limit), latencies up to 1000 µs (10% at or over 900).
fn generate(seed: u64) -> Vec<[f64; 2]> {
    let mut rng = Rng::new(seed, 1);
    (0..POOL)
        .map(|_| [rng.below(4200) as f64, rng.below(1000) as f64])
        .collect()
}

/// How many of the four `io_submit` rules `args` violates, by plain
/// predicates over the generated values (the engine is never consulted).
pub fn expected_violations(args: &[f64; 2], qdepth: f64) -> u64 {
    u64::from(args[0] > 4096.0)
        + u64::from(args[1] >= 900.0)
        + u64::from(qdepth >= 64.0)
        + u64::from(args[0] < 0.0)
}

fn build(tracer: Option<&mut Tracer>) -> guardrails::MonitorEngine {
    let engine = engine_with(SPECS, tracer);
    engine.store().save("qdepth", QDEPTH);
    engine
}

/// Runs one phase of `seconds`.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Outcome {
    let events = generate(seed);
    let mut out = Outcome::default();
    let mut engine = set_up(&mut out, || build(tracer.as_deref_mut()));
    let hot_rules: Vec<Program> = compile_str(SPECS)
        .expect("benchmark specs compile")
        .into_iter()
        .filter(|g| g.hooks.iter().any(|h| h == HOOK))
        .flat_map(|g| g.rules.into_iter().map(|r| r.program))
        .collect();
    let mut vm = Vm::new();
    let mut deltas = DeltaState::default();
    let store = engine.store();
    let telemetry = engine.telemetry().expect("telemetry attached");

    let budget = Budget::new(seconds);
    let mut batch: Vec<FnEvent<'_>> = Vec::with_capacity(BATCH);
    let mut cmds = Vec::new();
    let mut now = Nanos::ZERO;
    let mut batches = 0u64;
    let first_stats = engine.stats();
    let mut stats = first_stats;
    for chunk in events.chunks(BATCH).cycle() {
        batch.clear();
        batch.extend(chunk.iter().map(|args| {
            now += Nanos::from_micros(1);
            FnEvent {
                now,
                args: &args[..],
            }
        }));
        let t0 = Instant::now();
        engine.on_function_batch(HOOK, &batch);
        let t1 = Instant::now();
        cmds.clear();
        engine.drain_commands_into(&mut cmds);
        let t2 = Instant::now();
        black_box(&cmds);
        out.call(t0, t0, t2, chunk.len() as u64);
        batches += 1;

        let after = engine.stats();
        let expected: u64 = chunk.iter().map(|a| expected_violations(a, QDEPTH)).sum();
        out.check(
            "batch violations",
            after.violations - stats.violations,
            expected,
        );
        out.engine_faults(&stats, &after);
        stats = after;

        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("engine.dispatch", t0, t1);
            tr.record("engine.drain", t1, t2);
            tr.add("engine.dispatch_events", chunk.len() as f64);
            if batches.is_multiple_of(PROBE_EVERY) {
                probe_layers(
                    tr,
                    &mut vm,
                    &hot_rules,
                    &mut deltas,
                    &batch,
                    &store,
                    &telemetry,
                );
            }
        }
        if batches.is_multiple_of(RESTART_EVERY) {
            let blob = engine.checkpoint().encode();
            let (took, same) = standby_restart(SPECS, &blob, tracer.as_deref_mut());
            out.restarts_ns.push(took);
            out.check("restored monitors equal the checkpoint", same, true);
            drop(out.time_setup(|| build(None)));
        }
        if budget.spent(t2) {
            break;
        }
    }
    count_engine_work(tracer, &first_stats, &stats);
    out
}

/// Calls the layers that `on_function_batch` reaches internally, with the
/// batch's own arguments, and times them: `Vm::run` on every hot rule,
/// `FeatureStore::load` of the rule's key, and a telemetry snapshot.
fn probe_layers(
    tr: &mut Tracer,
    vm: &mut Vm,
    rules: &[Program],
    deltas: &mut DeltaState,
    batch: &[FnEvent<'_>],
    store: &guardrails::FeatureStore,
    telemetry: &guardrails::Telemetry,
) {
    let start = Instant::now();
    let mut fuel = 0;
    for event in batch {
        for program in rules {
            let mut ctx = EvalCtx {
                store,
                now: event.now,
                args: event.args,
                deltas,
            };
            fuel += black_box(vm.run(program, &mut ctx)).fuel;
        }
    }
    tr.record("vm.eval", start, Instant::now());
    tr.add("vm.evals", (batch.len() * rules.len()) as f64);
    tr.add("vm.fuel", fuel as f64);

    let start = Instant::now();
    for _ in 0..batch.len() {
        black_box(store.load(black_box("qdepth")));
    }
    tr.record("store.load", start, Instant::now());
    tr.add("store.loads", batch.len() as f64);

    tr.span("telemetry.snapshot", || black_box(telemetry.snapshot()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_predicate_matches_the_rules() {
        assert_eq!(expected_violations(&[100.0, 100.0], QDEPTH), 0);
        assert_eq!(expected_violations(&[4097.0, 950.0], QDEPTH), 2);
        assert_eq!(expected_violations(&[4096.0, 899.0], 64.0), 1);
    }

    #[test]
    fn a_short_run_agrees_with_its_reference() {
        let out = run(7, 0.05, None);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        assert_eq!(out.events, out.calls.seen() * BATCH as u64);
    }

    #[test]
    fn a_wrong_engine_output_trips_the_reference() {
        // A queue depth over the LOAD rule's limit makes the engine report a
        // violation per event that the reference (computed for QDEPTH) does
        // not expect.
        let mut engine = build(None);
        engine.store().save("qdepth", 100.0);
        let args = [[10.0, 10.0]; 4];
        let batch: Vec<FnEvent<'_>> = args
            .iter()
            .map(|a| FnEvent {
                now: Nanos::from_micros(1),
                args: &a[..],
            })
            .collect();
        engine.on_function_batch(HOOK, &batch);
        let expected: u64 = args.iter().map(|a| expected_violations(a, QDEPTH)).sum();
        let mut out = Outcome::default();
        out.check("batch violations", engine.stats().violations, expected);
        assert_eq!((out.attempted, out.failed), (1, 1));
    }
}
