//! `durable_restart`: the crash-consistency path on a real file. The
//! Listing 2 guardrail and a FUNCTION guardrail whose action `SAVE`s run
//! over a `DurableStore` on `FileBackend`, with the durability settings
//! the recovery runtime ships (`RecoveryConfig::default()`: group commit
//! 1). The host journals a `save` and an `incr` on every I/O, checkpoints
//! the engine and offers compaction every 256 I/Os, and every 5000 I/Os
//! crashes and restarts: drop the node, then `DurableStore::open` →
//! `install_str` → `EngineCheckpoint::decode` → `restore`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use guardrails::monitor::checkpoint::{EngineCheckpoint, MonitorCheckpoint};
use guardrails::store::durable::{DurableStore, FileBackend};
use guardrails::{GuardrailError, MonitorEngine, PolicyRegistry, RecoveryConfig, Telemetry};
use simkernel::Nanos;
use storagesim::sim::LISTING_2_SPEC;

use super::{count_engine_work, install, ns, timed, Budget, Outcome, Rng, SETUP_REPEATS};
use crate::trace::Tracer;

const HOOK: &str = "io_complete";
const SLOW_SPEC: &str = "guardrail slow-io { trigger: { FUNCTION(io_complete) }, \
    rule: { ARG(0) < 5000 }, action: { SAVE(last_slow_lat, ARG(0)) } }";
const SLOW_LIMIT: f64 = 5000.0;
const RATE_LIMIT: f64 = 0.05;
/// Listing 2's check period.
const CHECK: u64 = 1_000_000_000;
const GAP: Nanos = Nanos::from_micros(100);
/// I/Os per phase; healthy phases re-enable the model at their start.
const PHASE: usize = 16_384;
/// Generated I/Os, cycled through (a multiple of `PHASE`).
const POOL: usize = PHASE * 16;
const CHECKPOINT_EVERY: u64 = 256;
/// Not a multiple of `CHECKPOINT_EVERY`, so each crash loses the I/Os
/// since the last checkpoint and the restore must not resurrect them.
const RESTART_EVERY: u64 = 5_000;

/// One generated I/O.
#[derive(Clone, Copy)]
struct Io {
    latency_us: f64,
    false_submit_rate: f64,
    /// First I/O of a healthy phase: the operator re-enables the model.
    reenable: bool,
}

/// Seeded I/Os in alternating phases whose false-submit rate sits below
/// (healthy) or above (shifted) Listing 2's 5% limit; ~1% of latencies
/// exceed 5 ms.
fn generate(seed: u64) -> Vec<Io> {
    let mut rng = Rng::new(seed, 3);
    let mut out = Vec::with_capacity(POOL);
    for phase in 0..POOL / PHASE {
        let healthy = phase % 2 == 0;
        let base = if healthy { 0.005 } else { 0.06 };
        for i in 0..PHASE {
            let slow = rng.below(100) == 0;
            out.push(Io {
                latency_us: if slow {
                    SLOW_LIMIT + rng.exp(2_000.0)
                } else {
                    100.0 + rng.exp(300.0)
                },
                false_submit_rate: base + 0.04 * rng.unit(),
                reenable: healthy && i == 0,
            });
        }
    }
    out
}

fn specs() -> String {
    format!("{LISTING_2_SPEC}\n{SLOW_SPEC}")
}

/// The benchmark's own model of every journaled write: the host's, and
/// those the two guardrails' actions make by the spec semantics.
struct Shadow {
    scalars: BTreeMap<String, f64>,
    /// Listing 2's next due check.
    next_check: u64,
}

impl Shadow {
    fn save(&mut self, key: &str, value: f64) {
        self.scalars.insert(key.to_string(), value);
    }

    /// Applies one I/O's host writes and guardrail actions at `now`.
    fn io(&mut self, io: &Io, now: Nanos) {
        *self.scalars.entry("ios".into()).or_default() += 1.0;
        self.save("false_submit_rate", io.false_submit_rate);
        if io.reenable {
            self.save("ml_enabled", 1.0);
        }
        if io.latency_us >= SLOW_LIMIT {
            self.save("last_slow_lat", io.latency_us);
        }
        while self.next_check <= now.as_nanos() {
            if self.scalars["false_submit_rate"] > RATE_LIMIT {
                self.save("ml_enabled", 0.0);
            }
            self.next_check += CHECK;
        }
    }

    /// A restore fast-forwards the check to the first tick strictly after
    /// the checkpoint; ticks between it and the crash fire again.
    fn restored(&mut self, checkpoint_at: Nanos) {
        self.next_check = (checkpoint_at.as_nanos() / CHECK + 1) * CHECK;
    }

    fn matches(&self, recovered: &[(String, f64)]) -> bool {
        recovered.len() == self.scalars.len()
            && recovered.iter().all(|(k, v)| {
                self.scalars
                    .get(k)
                    .is_some_and(|s| s.to_bits() == v.to_bits())
            })
    }
}

/// A node: the durable store and the engine over it.
struct Node {
    durable: DurableStore,
    engine: MonitorEngine,
    /// Engine stats when this node came up (restore rewinds them).
    stats_at_start: guardrails::monitor::engine::EngineStats,
}

/// Opens the store at `dir`, replaying what it holds, reads the persisted
/// checkpoint blob and installs the specs. Returns the node, whether
/// recovery was tainted, and the blob.
fn open(
    dir: &Path,
    specs: &str,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Node, bool, Vec<u8>), GuardrailError> {
    let (durable, report, blob) = timed(tracer.as_deref_mut(), "durable.open", || {
        let backend = Arc::new(FileBackend::open(dir)?);
        let (durable, report) = DurableStore::open(backend, RecoveryConfig::default().durability)?;
        let blob = durable.load_checkpoint()?;
        Ok::<_, GuardrailError>((durable, report, blob))
    })?;
    if let Some(tr) = tracer.as_deref_mut() {
        tr.add("durable.opens", 1.0);
        tr.add("durable.replayed", report.wal_records_applied as f64);
    }
    let mut engine = MonitorEngine::with_parts(durable.store(), Arc::new(PolicyRegistry::new()));
    engine.set_telemetry(Telemetry::new());
    install(&mut engine, specs, tracer);
    let stats_at_start = engine.stats();
    let node = Node {
        durable,
        engine,
        stats_at_start,
    };
    Ok((node, report.tainted(), blob))
}

/// Crash-to-resumed: open and replay, reinstall, decode the last
/// checkpoint and restore it. Returns the node, whether recovery was
/// tainted, and the checkpoint's clock.
fn recover(
    dir: &Path,
    specs: &str,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Node, bool, EngineCheckpoint), GuardrailError> {
    let (mut node, tainted, blob) = open(dir, specs, tracer.as_deref_mut())?;
    let ck = timed(tracer.as_deref_mut(), "checkpoint.decode", || {
        EngineCheckpoint::decode(&blob)
    })?;
    timed(tracer, "engine.restore", || node.engine.restore(&ck))?;
    node.stats_at_start = node.engine.stats();
    Ok((node, tainted, ck))
}

/// Counts the journal work of a node about to go down.
fn count_journal(tracer: Option<&mut Tracer>, node: &Node, seq_at_start: u64) {
    if let Some(tr) = tracer {
        tr.add(
            "durable.records",
            (node.durable.seq() - seq_at_start) as f64,
        );
        tr.add(
            "durable.frames_appended",
            node.durable.wal_frames_appended() as f64,
        );
        tr.add("durable.bytes", node.durable.wal_bytes_appended() as f64);
    }
}

/// Times one set-up: a node over an empty directory. Untraced: the traced
/// layer spans come from the restarts, whose opens replay a log.
fn fresh_node(out: &mut Outcome, dir: &Path, specs: &str) -> Option<Node> {
    match out.time_setup(|| open(dir, specs, None)) {
        Ok((node, tainted, _)) => {
            out.check("fresh store recovers untainted", tainted, false);
            Some(node)
        }
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            None
        }
    }
}

/// Runs one phase of `seconds` with its files under `dir`.
pub fn run(seed: u64, seconds: f64, dir: &Path, mut tracer: Option<&mut Tracer>) -> Outcome {
    let ios = generate(seed);
    let specs = specs();
    let mut out = Outcome::default();
    let mut built = None;
    for k in 0..SETUP_REPEATS {
        let node_dir = dir.join(format!("node-{k}"));
        match fresh_node(&mut out, &node_dir, &specs) {
            Some(node) => built = Some((node, node_dir)),
            None => return out,
        }
    }
    let Some((mut node, store_dir)) = built else {
        return out;
    };
    let mut shadow = Shadow {
        scalars: BTreeMap::new(),
        next_check: 0,
    };
    let mut last_checkpoint: Vec<MonitorCheckpoint> = Vec::new();
    let mut seq_at_start = node.durable.seq();
    let mut cmds = Vec::new();
    let mut now = Nanos::ZERO;
    let mut done = 0u64;
    let mut stats = node.engine.stats();
    let budget = Budget::new(seconds);
    for io in ios.iter().cycle() {
        now += GAP;
        let store = node.durable.store();
        let t0 = Instant::now();
        store.incr("ios", 1.0);
        store.save("false_submit_rate", io.false_submit_rate);
        if io.reenable {
            store.save("ml_enabled", 1.0);
        }
        let t1 = Instant::now();
        node.engine.on_function(HOOK, now, &[io.latency_us]);
        let t2 = Instant::now();
        cmds.clear();
        node.engine.drain_commands_into(&mut cmds);
        let t3 = Instant::now();
        node.engine.advance_to(now);
        let t4 = Instant::now();
        done += 1;
        let checkpoint = done.is_multiple_of(CHECKPOINT_EVERY);
        if checkpoint {
            match persist(&node, tracer.as_deref_mut()) {
                Ok(ck) => last_checkpoint = ck.monitors,
                Err(e) => out.fail(format!("checkpoint: {e}")),
            }
        }
        let t5 = Instant::now();
        out.call(t0, t0, t5, 1);
        shadow.io(io, now);
        let after = node.engine.stats();
        out.engine_faults(&stats, &after);
        stats = after;

        if let Some(tr) = tracer.as_deref_mut() {
            tr.record("store.save_journaled", t0, t1);
            tr.add("store.saves_journaled", if io.reenable { 3.0 } else { 2.0 });
            tr.record("engine.dispatch", t1, t2);
            tr.add("engine.dispatch_events", 1.0);
            tr.record("engine.drain", t2, t3);
            tr.record("engine.timer_check", t3, t4);
        }
        if checkpoint {
            out.check(
                "ml_enabled matches the shadow",
                store.load("ml_enabled"),
                shadow.scalars.get("ml_enabled").copied(),
            );
            out.check("WAL appends succeed", node.durable.append_failed(), false);
        }
        if done.is_multiple_of(RESTART_EVERY) {
            count_engine_work(
                tracer.as_deref_mut(),
                &node.stats_at_start,
                &node.engine.stats(),
            );
            count_journal(tracer.as_deref_mut(), &node, seq_at_start);
            drop(store);
            drop(node);
            let start = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.enter("restart", start);
            }
            let recovered = recover(&store_dir, &specs, tracer.as_deref_mut());
            let end = Instant::now();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.exit(end);
            }
            out.restarts_ns.push(ns(start, end));
            let (restarted, tainted, ck) = match recovered {
                Ok(recovered) => recovered,
                Err(e) => {
                    out.fail(format!("restart: {e}"));
                    return out;
                }
            };
            node = restarted;
            out.check("recovery untainted", tainted, false);
            let recovered = node.durable.store().scalars();
            out.check(
                "recovered scalars equal the shadow",
                shadow.matches(&recovered),
                true,
            );
            out.check(
                "restored monitors equal the checkpoint",
                &ck.monitors,
                &last_checkpoint,
            );
            out.check(
                "restored engine equals the checkpoint",
                &node.engine.checkpoint().monitors,
                &last_checkpoint,
            );
            shadow.restored(ck.now);
            let setup_dir = dir.join("setup");
            drop(fresh_node(&mut out, &setup_dir, &specs));
            let _ = std::fs::remove_dir_all(&setup_dir);
            seq_at_start = node.durable.seq();
            stats = node.engine.stats();
            continue;
        }
        if budget.spent(t5) {
            break;
        }
    }
    count_engine_work(
        tracer.as_deref_mut(),
        &node.stats_at_start,
        &node.engine.stats(),
    );
    count_journal(tracer, &node, seq_at_start);
    out
}

/// Checkpoints the engine, persists the blob and offers compaction.
fn persist(
    node: &Node,
    mut tracer: Option<&mut Tracer>,
) -> Result<EngineCheckpoint, GuardrailError> {
    let ck = node.engine.checkpoint();
    let blob = timed(tracer.as_deref_mut(), "checkpoint.encode", || ck.encode());
    timed(tracer.as_deref_mut(), "durable.save_checkpoint", || {
        node.durable.save_checkpoint(&blob)
    })?;
    let start = Instant::now();
    let compacted = node.durable.maybe_compact()?;
    if let Some(tr) = tracer {
        tr.add("checkpoint.encodes", 1.0);
        tr.add("checkpoint.bytes", blob.len() as f64);
        if compacted {
            tr.record("durable.compact", start, Instant::now());
            tr.add("durable.compactions", 1.0);
        }
    }
    Ok(ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn a_short_run_restarts_and_agrees_with_its_shadow() {
        let dir = TempDir::new(Path::new(env!("CARGO_MANIFEST_DIR")), "test-durable");
        let out = run(5, 0.4, dir.path(), None);
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        assert!(!out.restarts_ns.is_empty(), "the run must cross a restart");
    }

    #[test]
    fn a_wrong_recovered_value_trips_the_shadow() {
        let mut shadow = Shadow {
            scalars: BTreeMap::new(),
            next_check: 0,
        };
        let io = Io {
            latency_us: 6_000.0,
            false_submit_rate: 0.2,
            reenable: true,
        };
        shadow.io(&io, Nanos::from_micros(100));
        assert_eq!(
            shadow.scalars["ml_enabled"], 0.0,
            "the check at t = 0 disables the model"
        );
        assert_eq!(shadow.next_check, CHECK);
        let mut recovered: Vec<(String, f64)> = shadow
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert!(shadow.matches(&recovered));
        recovered[0].1 += 1.0;
        assert!(!shadow.matches(&recovered));
        shadow.restored(Nanos::from_secs(3));
        assert_eq!(shadow.next_check, 4 * CHECK);
    }
}
