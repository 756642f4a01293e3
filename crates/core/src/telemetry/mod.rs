//! Runtime observability for the guardrail runtime itself.
//!
//! The paper's property taxonomy includes P5 (decision overhead), and its
//! action set is anchored by A1 (`REPORT`) — yet a monitor collection that
//! cannot observe *itself* leaves the operator guessing about where monitor
//! time goes. A [`Telemetry`] bundle attached to the engine answers that:
//!
//! 1. **Counts.** The engine counts each evaluation, violation, trip, fuel
//!    unit and action firing once, in the evaluating monitor's counter
//!    block ([`crate::monitor::OverheadAccount`]). The bundle keeps the
//!    blocks' latest sum, which the engine overwrites in one write at the
//!    end of every evaluating entry point (once per batch or per
//!    `advance_to` that ran a timer, not once per event) and before every
//!    publication. Beside it the bundle records only what the blocks
//!    cannot: batch counts, checkpoints, restores and a log-scale
//!    histogram of evaluation wall time ([`LogHistogram`]).
//! 2. **A trace ring** ([`TraceRing`]): a lock-free, bounded,
//!    overwrite-oldest ring of spans and events (eval start/end, violation,
//!    action, checkpoint, restart) with text and JSON exporters.
//! 3. **Self-monitoring**: [`crate::monitor::MonitorEngine::publish_telemetry`]
//!    writes the counts into the feature store under the reserved
//!    `__telemetry/` namespace, so a guardrail spec can `LOAD` them — the
//!    worked "overhead guardrail" (`examples/overhead_guardrail.rs`)
//!    `REPORT`s and `DEPRIORITIZE`s a monitor whose own P5 overhead exceeds
//!    budget, closing the paper's loop.
//!
//! Reserved keys are process-lifetime observations, not durable state: the
//! store's write-ahead journal skips them, snapshots exclude them, and WAL
//! replay refuses to resurrect them into user state (see
//! [`crate::store::durable`]). The write-ahead log counts its own traffic
//! ([`crate::store::durable::DurableStore::wal_bytes_appended`] and
//! `wal_frames_appended`), which is not published.
//!
//! Everything on the hot path is allocation-free, and the per-evaluation
//! path is *atomic-free*: attaching telemetry adds only the wall-time
//! histogram (a shift plus two adds per batch or timer evaluation) and
//! trace records (a few atomic stores and a fence into a pre-sized ring,
//! and only for spans and rare events: violations, actions, checkpoints).

pub mod metrics;
pub mod trace;

use std::sync::Arc;

use parking_lot::Mutex;

pub use metrics::{Counter, LogHistogram, HIST_BUCKETS};
pub use trace::{TraceEvent, TraceKind, TraceRing, NO_MONITOR};

use crate::monitor::OverheadAccount;
use crate::store::FeatureStore;

/// Prefix of the reserved self-monitoring namespace in the feature store.
pub const RESERVED_PREFIX: &str = "__telemetry/";

/// Whether `key` lives in the reserved telemetry namespace (and is
/// therefore never journaled, snapshotted, or replayed into user state).
#[inline]
pub fn is_reserved(key: &str) -> bool {
    key.as_bytes().first() == Some(&b'_') && key.starts_with(RESERVED_PREFIX)
}

/// The action kinds counted by [`OverheadAccount::actions`], in index order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ActionKind {
    /// `REPORT` (A1).
    Report = 0,
    /// `REPLACE` (A2).
    Replace = 1,
    /// `RETRAIN` (A3).
    Retrain = 2,
    /// `DEPRIORITIZE` (A4).
    Deprioritize = 3,
    /// `SAVE` (A5).
    Save = 4,
    /// `RECORD` (A6).
    Record = 5,
}

impl ActionKind {
    /// All kinds, in counter-index order.
    pub const ALL: [ActionKind; 6] = [
        ActionKind::Report,
        ActionKind::Replace,
        ActionKind::Retrain,
        ActionKind::Deprioritize,
        ActionKind::Save,
        ActionKind::Record,
    ];

    /// Short lowercase name (used in metric names and exports).
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::Report => "report",
            ActionKind::Replace => "replace",
            ActionKind::Retrain => "retrain",
            ActionKind::Deprioritize => "deprioritize",
            ActionKind::Save => "save",
            ActionKind::Record => "record",
        }
    }
}

/// A deterministic summary of the telemetry counters.
///
/// Wall-clock fields are deliberately absent: two observationally identical
/// runs (for example the batched and sequential ingestion paths) must
/// produce *equal* snapshots, which is exactly what the sim equivalence
/// proptests assert.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Rule-set evaluations performed.
    pub evaluations: u64,
    /// Violations detected.
    pub violations: u64,
    /// Post-hysteresis trips.
    pub trips: u64,
    /// Fuel burned by rules.
    pub rule_fuel: u64,
    /// Fuel burned by action operands.
    pub action_fuel: u64,
    /// Evaluations of all-fused monitors.
    pub fused_evals: u64,
    /// Evaluations of the other monitors.
    pub fallback_evals: u64,
    /// Action firings by kind, indexed by [`ActionKind`].
    pub actions: [u64; 6],
    /// Trace events recorded that are not wall-time spans (violations,
    /// actions, checkpoints, restarts), counted when recorded: the batched
    /// and sequential paths record different numbers of spans, so a count
    /// of the events the ring still holds would differ between them.
    pub trace_marks: u64,
}

/// The telemetry bundle a host attaches to an engine.
#[derive(Debug)]
pub struct Telemetry {
    /// The span/event trace.
    pub trace: TraceRing,
    /// Wall-time distribution, one sample per timer evaluation or batch.
    pub eval_wall_hist: LogHistogram,
    /// Batches ingested via `on_function_batch`.
    pub batches: Counter,
    /// Events ingested across all batches.
    pub batch_events: Counter,
    /// Engine checkpoints captured.
    pub checkpoints: Counter,
    /// Engine restores (supervised restarts).
    pub restores: Counter,
    /// The engine's summed counter blocks as of its last entry point.
    engine: Mutex<EngineCounts>,
}

/// What the engine writes into the bundle after each entry point.
#[derive(Clone, Copy, Debug, Default)]
struct EngineCounts {
    /// Every monitor's counter block summed (retired monitors included).
    totals: OverheadAccount,
    /// The evaluations of monitors whose every rule has a fused stream.
    fused_evals: u64,
}

/// Default trace-ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Telemetry {
    /// Creates a telemetry bundle with the default trace capacity.
    pub fn new() -> Arc<Self> {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a telemetry bundle whose trace ring holds `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            trace: TraceRing::new(capacity),
            eval_wall_hist: LogHistogram::new(),
            batches: Counter::new(),
            batch_events: Counter::new(),
            checkpoints: Counter::new(),
            restores: Counter::new(),
            engine: Mutex::new(EngineCounts::default()),
        })
    }

    /// Overwrites the engine's counts: `totals` is every counter block
    /// summed, `fused_evals` the share of its evaluations that ran
    /// all-fused monitors.
    pub(crate) fn set_engine_counts(&self, totals: OverheadAccount, fused_evals: u64) {
        *self.engine.lock() = EngineCounts {
            totals,
            fused_evals,
        };
    }

    /// Reads the deterministic counter summary (see [`TelemetrySnapshot`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let EngineCounts {
            totals,
            fused_evals,
        } = *self.engine.lock();
        TelemetrySnapshot {
            evaluations: totals.evaluations,
            violations: totals.violations,
            trips: totals.trips,
            rule_fuel: totals.rule_fuel,
            action_fuel: totals.action_fuel,
            fused_evals,
            fallback_evals: totals.evaluations - fused_evals,
            actions: totals.actions,
            trace_marks: self.trace.marks(),
        }
    }

    /// Publishes the counts into `store` under the reserved `__telemetry/`
    /// namespace: `engine/*` (the summed counter blocks, batches, wall
    /// time and its histogram's `count`/`sum`/`p50`/`p95`/`p99`,
    /// checkpoints, restores), `vm/{fused,fallback}_evals`, `actions/<kind>`,
    /// `store/{saves,shard_contention}` (read from `store` before this
    /// publication writes to it) and `trace/{recorded,overwritten}`.
    /// Reserved keys skip the write-ahead journal, so publishing is cheap
    /// and never pollutes durable state.
    pub fn publish(&self, store: &FeatureStore) {
        let EngineCounts {
            totals,
            fused_evals,
        } = *self.engine.lock();
        let hist = &self.eval_wall_hist;
        // Every value is read here, before the first write below.
        let counts = [
            ("engine/evaluations", totals.evaluations),
            ("engine/violations", totals.violations),
            ("engine/trips", totals.trips),
            ("engine/rule_fuel", totals.rule_fuel),
            ("engine/action_fuel", totals.action_fuel),
            ("vm/fused_evals", fused_evals),
            ("vm/fallback_evals", totals.evaluations - fused_evals),
            ("engine/batches", self.batches.get()),
            ("engine/batch_events", self.batch_events.get()),
            ("engine/eval_wall_ns", totals.wall_ns),
            ("engine/eval_wall_ns_hist/count", hist.count()),
            ("engine/eval_wall_ns_hist/sum", hist.sum()),
            ("engine/eval_wall_ns_hist/p50", hist.quantile(0.50)),
            ("engine/eval_wall_ns_hist/p95", hist.quantile(0.95)),
            ("engine/eval_wall_ns_hist/p99", hist.quantile(0.99)),
            ("engine/checkpoints", self.checkpoints.get()),
            ("engine/restores", self.restores.get()),
            ("store/saves", store.saves_total()),
            ("store/shard_contention", store.contention_total()),
            ("trace/recorded", self.trace.recorded()),
            ("trace/overwritten", self.trace.overwritten()),
        ];
        let mut key = String::with_capacity(64);
        let mut put = |prefix: &str, name: &str, value: u64| {
            key.clear();
            key.push_str(RESERVED_PREFIX);
            key.push_str(prefix);
            key.push_str(name);
            store.save(&key, value as f64);
        };
        for (name, value) in counts {
            put("", name, value);
        }
        for kind in ActionKind::ALL {
            put("actions/", kind.name(), totals.actions[kind as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::Nanos;

    #[test]
    fn reserved_prefix_detection() {
        assert!(is_reserved("__telemetry/engine/evaluations"));
        assert!(is_reserved("__telemetry/"));
        assert!(!is_reserved("__telemetry")); // No trailing slash: user key.
        assert!(!is_reserved("false_submit_rate"));
        assert!(!is_reserved(""));
    }

    /// A counter block with `evaluations`, `wall_ns` and one `REPORT`.
    fn block(evaluations: u64, wall_ns: u64) -> OverheadAccount {
        let mut totals = OverheadAccount {
            evaluations,
            wall_ns,
            ..OverheadAccount::new()
        };
        totals.actions[ActionKind::Report as usize] = 1;
        totals
    }

    #[test]
    fn publish_writes_reserved_keys() {
        let t = Telemetry::new();
        t.set_engine_counts(block(7, 0), 7);
        t.eval_wall_hist.observe(100);
        let store = FeatureStore::new();
        t.publish(&store);
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(7.0));
        assert_eq!(store.load("__telemetry/vm/fused_evals"), Some(7.0));
        assert_eq!(store.load("__telemetry/vm/fallback_evals"), Some(0.0));
        assert_eq!(store.load("__telemetry/actions/report"), Some(1.0));
        assert_eq!(
            store.load("__telemetry/engine/eval_wall_ns_hist/count"),
            Some(1.0)
        );
        assert_eq!(store.load("__telemetry/store/saves"), Some(0.0));
        assert_eq!(store.load("__telemetry/trace/recorded"), Some(0.0));
        // Publishing is repeatable (overwrite-in-place).
        t.set_engine_counts(block(8, 0), 7);
        t.publish(&store);
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(8.0));
        assert_eq!(store.load("__telemetry/vm/fallback_evals"), Some(1.0));
    }

    #[test]
    fn snapshot_is_deterministic_and_wall_free() {
        let t = Telemetry::new();
        t.set_engine_counts(block(3, 12345), 3); // Wall noise: not in the snapshot.
        t.trace.record(Nanos::ZERO, TraceKind::EvalStart, 0, 0.0);
        t.trace.record(Nanos::ZERO, TraceKind::Violation, 0, 0.0);
        let snap = t.snapshot();
        assert_eq!(snap.evaluations, 3);
        assert_eq!(snap.actions[0], 1);
        assert_eq!(snap.trace_marks, 1, "eval spans excluded");
        let t2 = Telemetry::new();
        t2.set_engine_counts(block(3, 99999), 3);
        t2.trace.record(Nanos::ZERO, TraceKind::EvalStart, 0, 0.0);
        t2.trace.record(Nanos::ZERO, TraceKind::Violation, 0, 0.0);
        assert_eq!(snap, t2.snapshot(), "wall time never enters the snapshot");
    }

    #[test]
    fn action_kind_names_cover_all() {
        for (i, kind) in ActionKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert!(!kind.name().is_empty());
        }
    }
}
