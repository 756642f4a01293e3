//! Shared helpers for the experiment binaries (the `fig*`/`exp*` bins that
//! regenerate the paper's figures and the extended-evaluation tables).

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// Writes experiment CSV output under `results/` (created on demand) and
/// returns the path written.
///
/// # Panics
///
/// Panics when the results directory or file cannot be written — experiment
/// binaries have nothing sensible to do without their output.
pub fn write_results(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, contents).expect("write results file");
    path
}

/// Formats a row of right-aligned columns for the stdout tables.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>width$}", width = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// The FUNCTION-trigger ingestion workload E11 (`exp_hotpath`) and E12
/// (`exp_telemetry`) both drive: four monitors on one hot hook plus two
/// bystanders, fed a seeded stream of synthetic I/O submissions in
/// 256-event batches.
pub mod ingest {
    use std::hint::black_box;
    use std::sync::Arc;
    use std::time::Instant;

    use guardrails::compile::{compile, CompileOptions};
    use guardrails::monitor::engine::{FnEvent, MonitorEngine};
    use guardrails::spec::parse_and_check;
    use guardrails::telemetry::is_reserved;
    use guardrails::{FeatureStore, PolicyRegistry, Telemetry};
    use simkernel::Nanos;

    /// Events per ingestion run.
    pub const EVENTS: usize = 100_000;
    /// Events per `on_function_batch` call.
    pub const BATCH: usize = 256;
    /// The hook every workload event fires.
    pub const HOT_HOOK: &str = "io_submit";

    /// Four monitors on the hot hook (argument rules fuse to single
    /// superinstructions; the store rule fuses a load-compare) plus
    /// bystanders on other hooks so dispatch exercises index misses too.
    pub const SPECS: &str = r#"
guardrail io-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { RECORD(oversized, 1) } }
guardrail io-latency { trigger: { FUNCTION(io_submit) }, rule: { ARG(1) < 900 }, action: { RECORD(slow_ios, 1) } }
guardrail queue-depth { trigger: { FUNCTION(io_submit) }, rule: { LOAD(qdepth) < 64 }, action: { RECORD(deep_queue, 1) } }
guardrail sane-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 }, action: { RECORD(negative_size, 1) } }
guardrail bystander-a { trigger: { FUNCTION(mem_place) }, rule: { ARG(0) < 1e9 }, action: { RECORD(a_hits, 1) } }
guardrail bystander-b { trigger: { FUNCTION(net_poll) }, rule: { ARG(0) < 1e9 }, action: { RECORD(b_hits, 1) } }
"#;

    /// One step of the xorshift64 generator behind every seeded stream here.
    pub fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// [`EVENTS`] synthetic I/O submissions: `(size, latency)` arguments.
    pub fn workload(seed: u64) -> Vec<[f64; 2]> {
        let mut state = seed;
        (0..EVENTS)
            .map(|_| {
                let size = (xorshift(&mut state) % 4200) as f64;
                let lat = (xorshift(&mut state) % 1000) as f64;
                [size, lat]
            })
            .collect()
    }

    /// An engine with [`SPECS`] compiled under `options` and installed, and
    /// a [`Telemetry`] bundle attached when `telemetry` is set.
    pub fn build_engine(options: &CompileOptions, telemetry: bool) -> MonitorEngine {
        let mut engine = MonitorEngine::with_parts(
            Arc::new(FeatureStore::new()),
            Arc::new(PolicyRegistry::new()),
        );
        if telemetry {
            engine.set_telemetry(Telemetry::new());
        }
        let checked = parse_and_check(SPECS).expect("specs parse");
        for guardrail in compile(&checked, options).expect("specs compile") {
            engine.install(guardrail).expect("specs install");
        }
        engine.store().save("qdepth", 5.0);
        engine
    }

    /// Everything user-visible about a run except wall-clock noise:
    /// evaluations, violations, logged violations and the sorted store
    /// scalars. `__telemetry/` keys are filtered out: the reserved namespace
    /// is observability, not behavior.
    pub type Fingerprint = (u64, u64, u64, Vec<(String, f64)>);

    /// Takes the [`Fingerprint`] of `engine`.
    pub fn fingerprint(engine: &MonitorEngine) -> Fingerprint {
        let stats = engine.stats();
        let mut scalars = engine.store().scalars();
        scalars.retain(|(key, _)| !is_reserved(key));
        scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        (
            stats.evaluations,
            stats.violations,
            engine.violation_log().total(),
            scalars,
        )
    }

    /// Feeds `events` to every engine on [`HOT_HOOK`] in [`BATCH`]-event
    /// batches, one event per simulated microsecond, draining commands into
    /// a reused buffer after each batch. The engines take each batch in
    /// turn, rotating which goes first, so host noise that outlasts a batch
    /// lands on all of them alike. Returns the wall nanoseconds each engine
    /// spent ingesting and draining.
    pub fn ingest_interleaved(engines: &mut [MonitorEngine], events: &[[f64; 2]]) -> Vec<u64> {
        let mut walls = vec![0u64; engines.len()];
        let mut cmd_buf = Vec::new();
        let mut batch: Vec<FnEvent<'_>> = Vec::with_capacity(BATCH);
        let mut now = Nanos::ZERO;
        for (k, chunk) in events.chunks(BATCH).enumerate() {
            batch.clear();
            let base = now;
            batch.extend(chunk.iter().enumerate().map(|(i, args)| FnEvent {
                now: base + Nanos::from_micros(i as u64 + 1),
                args: &args[..],
            }));
            now = base + Nanos::from_micros(chunk.len() as u64);
            for j in 0..engines.len() {
                let e = (k + j) % engines.len();
                let started = Instant::now();
                engines[e].on_function_batch(HOT_HOOK, &batch);
                cmd_buf.clear();
                engines[e].drain_commands_into(&mut cmd_buf);
                for command in &cmd_buf {
                    black_box(command);
                }
                walls[e] += started.elapsed().as_nanos() as u64;
            }
        }
        walls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
