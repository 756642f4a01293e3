//! The four workloads. Each is closed-loop and single-threaded: the driver
//! waits for every engine call to return before issuing the next, as a
//! hooked kernel path does. Each generates its inputs from the seed before
//! timing starts, sets up [`SETUP_REPEATS`] times, then drives the program
//! until the time budget is spent, checking outputs against references it
//! computes itself.

pub mod durable_restart;
pub mod fig2_linnos;
pub mod hook_ingest;
pub mod window_check;

use std::time::{Duration, Instant};

use guardrails::compile::{compile, CompileOptions};
use guardrails::monitor::checkpoint::EngineCheckpoint;
use guardrails::monitor::engine::EngineStats;
use guardrails::spec::parse_and_check;
use guardrails::{MonitorEngine, Telemetry};

use crate::trace::Tracer;

/// Set-ups at the start of a run. One more follows every restart, so
/// `setup_s`, their median, samples the host across the whole run rather
/// than only its first milliseconds.
pub const SETUP_REPEATS: usize = 11;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "hook_ingest",
    "window_check",
    "durable_restart",
    "fig2_linnos",
];

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Work items completed (hooked events, recorded samples, journaled
    /// I/Os or simulated I/Os).
    pub events: u64,
    /// Durations of engine entry calls.
    pub calls: Reservoir,
    /// Throughput (work items per second of call time) of each run of
    /// consecutive calls lasting at least [`BLOCK_NS`]; `events_per_s` is
    /// their median, so a burst of interference from outside the process
    /// moves it less than a total would.
    pub blocks: Vec<f64>,
    block_events: u64,
    block_ns: u64,
    /// Duration of every crash-to-resumed restart.
    pub restarts_ns: Vec<u64>,
    /// Duration of every set-up.
    pub setups_ns: Vec<u64>,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that faulted or disagreed with a reference.
    pub failed: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

/// Minimum call time behind one throughput sample.
pub const BLOCK_NS: u64 = 5_000_000;

impl Outcome {
    /// Records one engine entry call, running from `start` to `end`, that
    /// completed `events` work items; the host's own share of the work
    /// (timed from `host_start`) counts toward throughput but not toward
    /// the call's latency.
    pub fn call(&mut self, host_start: Instant, start: Instant, end: Instant, events: u64) {
        self.calls.push(ns(start, end));
        self.events += events;
        self.block_events += events;
        self.block_ns += ns(host_start, end);
        if self.block_ns >= BLOCK_NS {
            self.blocks
                .push(self.block_events as f64 / (self.block_ns as f64 / 1e9));
            self.block_events = 0;
            self.block_ns = 0;
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Times one set-up and returns what it built.
    pub fn time_setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let built = build();
        self.setups_ns.push(ns(start, Instant::now()));
        built
    }

    /// Counts one checked operation, failed when `got` differs from the
    /// reference value `expected`.
    pub fn check<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, expected: T) {
        self.attempted += 1;
        if got != expected {
            self.fail(format!("{what}: got {got:?}, reference {expected:?}"));
        }
    }

    /// Checks that an engine call between two stat reads raised no rule
    /// fault and tripped no watchdog.
    pub fn engine_faults(&mut self, before: &EngineStats, after: &EngineStats) {
        let faults = after.rule_faults - before.rule_faults;
        let trips = after.watchdog_trips - before.watchdog_trips;
        self.check("rule faults and watchdog trips", (faults, trips), (0, 0));
    }
}

/// Call durations kept for percentiles.
pub const CALL_SAMPLES: usize = 1 << 16;

/// A uniform random sample (Algorithm R) of at most [`CALL_SAMPLES`]
/// values. Its memory is allocated and touched up front, so the
/// benchmark's own footprint in `peak_rss_mb` does not grow with the
/// number of calls a faster program completes.
pub struct Reservoir {
    kept: Vec<u64>,
    seen: u64,
    rng: Rng,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            kept: vec![u64::MAX; CALL_SAMPLES],
            seen: 0,
            rng: Rng::new(0, 99),
        }
    }
}

impl std::fmt::Debug for Reservoir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Reservoir({} of {})", self.values().len(), self.seen)
    }
}

impl Reservoir {
    /// Offers one value.
    pub fn push(&mut self, value: u64) {
        let slot = if self.seen < CALL_SAMPLES as u64 {
            Some(self.seen as usize)
        } else {
            let j = self.rng.below(self.seen + 1);
            (j < CALL_SAMPLES as u64).then_some(j as usize)
        };
        if let Some(slot) = slot {
            self.kept[slot] = value;
        }
        self.seen += 1;
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn values(&self) -> &[u64] {
        &self.kept[..self.kept.len().min(self.seen as usize)]
    }
}

/// The time budget of one phase.
pub struct Budget {
    deadline: Instant,
}

impl Budget {
    /// A budget ending `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        Budget {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    /// `true` once `at` is past the deadline.
    pub fn spent(&self, at: Instant) -> bool {
        at >= self.deadline
    }
}

/// SplitMix64: the seeded generator behind every workload's inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream`, so workloads sharing a
    /// seed still draw independent inputs.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Builds a workload's state [`SETUP_REPEATS`] times, timing each build,
/// and keeps the last.
pub fn set_up<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        built = Some(out.time_setup(&mut build));
    }
    built.expect("at least one set-up")
}

/// Nanoseconds between two instants.
pub fn ns(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Installs `specs` into `engine`. Untraced, this is one `install_str`;
/// traced, the same three steps run separately under the `spec`,
/// `compile` and `engine.install` spans.
pub fn install(engine: &mut MonitorEngine, specs: &str, tracer: Option<&mut Tracer>) {
    let Some(tr) = tracer else {
        engine.install_str(specs).expect("benchmark specs install");
        return;
    };
    let checked = tr.span("spec.parse_check", || {
        parse_and_check(specs).expect("benchmark specs check")
    });
    let compiled = tr.span("compile.compile", || {
        compile(&checked, &CompileOptions::default()).expect("benchmark specs compile")
    });
    let programs = compiled
        .iter()
        .flat_map(|g| g.rules.iter().map(|r| &r.program));
    let (ops, fused) = programs.fold((0, 0), |(o, f), p| (o + p.ops.len(), f + p.fused.len()));
    tr.set("compile.ops", ops as f64);
    tr.set("compile.fused_ops", fused as f64);
    tr.span("engine.install", || {
        for g in compiled {
            engine.install(g).expect("benchmark specs install");
        }
    });
}

/// A fresh engine with telemetry attached, as the substrate sims build it.
pub fn engine_with(specs: &str, tracer: Option<&mut Tracer>) -> MonitorEngine {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    install(&mut engine, specs, tracer);
    engine
}

/// Restarts a standby copy of an in-memory engine from `checkpoint` (the
/// blob the live engine last persisted): reinstall the specs into a fresh
/// engine, decode, restore. Returns the crash-to-resumed time and whether
/// the restored monitors equal the checkpointed ones.
pub fn standby_restart(
    specs: &str,
    checkpoint: &[u8],
    mut tracer: Option<&mut Tracer>,
) -> (u64, bool) {
    let start = Instant::now();
    if let Some(tr) = tracer.as_deref_mut() {
        tr.enter("restart", start);
    }
    let mut engine = engine_with(specs, tracer.as_deref_mut());
    let restored = timed(tracer.as_deref_mut(), "checkpoint.decode", || {
        EngineCheckpoint::decode(checkpoint)
    });
    let ok = match &restored {
        Ok(ck) => timed(tracer.as_deref_mut(), "engine.restore", || {
            engine.restore(ck)
        })
        .is_ok(),
        Err(_) => false,
    };
    let end = Instant::now();
    if let Some(tr) = tracer {
        tr.exit(end);
    }
    let same = ok && restored.is_ok_and(|ck| engine.checkpoint().monitors == ck.monitors);
    (ns(start, end), same)
}

/// Runs `f`, inside span `name` when traced.
pub fn timed<R>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(tr) => tr.span(name, f),
        None => f(),
    }
}

/// Adds the engine work done between two stat reads to the traced counts.
pub fn count_engine_work(tracer: Option<&mut Tracer>, before: &EngineStats, after: &EngineStats) {
    if let Some(tr) = tracer {
        tr.add(
            "engine.evaluations",
            (after.evaluations - before.evaluations) as f64,
        );
        tr.add(
            "engine.violations",
            (after.violations - before.violations) as f64,
        );
        tr.add(
            "engine.commands_emitted",
            (after.commands_emitted - before.commands_emitted) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_keeps_everything_until_full_then_a_bounded_sample() {
        let mut r = Reservoir::default();
        for v in 0..10 {
            r.push(v);
        }
        assert_eq!(r.values(), &(0..10).collect::<Vec<_>>()[..]);
        for v in 10..(3 * CALL_SAMPLES as u64) {
            r.push(v);
        }
        assert_eq!(r.seen(), 3 * CALL_SAMPLES as u64);
        assert_eq!(r.values().len(), CALL_SAMPLES);
        // A uniform sample of 0..3N has about a third of its values below N.
        let low = r
            .values()
            .iter()
            .filter(|&&v| v < CALL_SAMPLES as u64)
            .count();
        assert!(
            (low as f64 / CALL_SAMPLES as f64 - 1.0 / 3.0).abs() < 0.02,
            "{low}"
        );
    }
}
