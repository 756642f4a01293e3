//! The global feature store (§4.3 of the paper).
//!
//! Guardrails need system-wide metrics aggregated "over time or across many
//! function invocations"; relying on local variables would force logic to be
//! replicated across guardrail instances. The feature store is the shared,
//! lightweight alternative: a flat key space accessed via `SAVE(key, value)`
//! and `LOAD(key)` from specs, plus `record`/`incr`/EWMA/histogram entry
//! points for instrumented kernel code.
//!
//! The store is sharded and internally locked so that subsystem simulations
//! (writers) and monitors (readers) can share one `Arc<FeatureStore>`.

pub mod durable;
pub mod ewma;
pub mod fxhash;
pub mod histogram;
pub mod snapshot;
pub mod wal;
pub mod window;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use simkernel::Nanos;

use crate::spec::ast::AggKind;
use ewma::Ewma;
use fxhash::{hash_key, FxBuildHasher};
use histogram::Histogram;
use window::WindowSeries;

/// Write-ahead journal hook: invoked for every *accepted* scalar write,
/// under the key's shard lock and before the write is applied, so the
/// journal order matches the apply order and a crash after the journal
/// append but before the apply loses nothing (replay re-applies it).
///
/// Frames record post-state (`key = value`), never deltas, so replay is
/// idempotent. The default store has no journal; the durable store
/// ([`durable::DurableStore`]) attaches its WAL appender here.
pub trait SaveJournal: Send + Sync + std::fmt::Debug {
    /// Records that `key` is about to hold `value`.
    fn record_save(&self, key: &str, value: f64);
}

/// Number of lock shards; power of two, sized for low contention at the
/// handful-of-writer-threads scale of an OS's instrumented subsystems.
/// Power-of-two lets shard selection mask instead of divide.
const SHARDS: usize = 16;

/// A per-shard key map, keyed by the fast hasher (see [`fxhash`]).
type ShardMap = HashMap<String, Entry, FxBuildHasher>;

#[derive(Debug)]
enum Entry {
    Scalar(f64),
    Series(WindowSeries),
    Ewma(Ewma),
    Histogram(Histogram),
}

/// The sharded global feature store.
///
/// Keys are flat strings (`false_submit_rate`, `sched.wait_p99`, ...). Each
/// key holds one entry kind — scalar, windowed series, EWMA, or histogram —
/// determined by the first operation that touches it. `SAVE` always coerces
/// the key to a scalar (last-writer-wins, like the paper's Listing 2 flag
/// `ml_enabled`); structured entries are never silently coerced by reads.
///
/// # Examples
///
/// ```
/// use guardrails::FeatureStore;
/// use guardrails::spec::ast::AggKind;
/// use simkernel::Nanos;
///
/// let store = FeatureStore::new();
/// store.save("ml_enabled", 1.0);
/// assert_eq!(store.load("ml_enabled"), Some(1.0));
/// store.record("lat", Nanos::from_secs(1), 100.0);
/// store.record("lat", Nanos::from_secs(2), 300.0);
/// let avg = store.aggregate(AggKind::Avg, "lat", Nanos::from_secs(10), Nanos::from_secs(2));
/// assert_eq!(avg, 200.0);
/// ```
#[derive(Debug)]
pub struct FeatureStore {
    shards: Vec<RwLock<ShardMap>>,
    series_retention: Nanos,
    series_max_samples: usize,
    /// When set (the default), non-finite `SAVE`s are quarantined instead
    /// of written: a poisoned model output must not propagate into every
    /// rule that `LOAD`s the key (NaN comparisons are all-false, which
    /// would silently disarm the guardrails reading it).
    quarantine: AtomicBool,
    poisoned: RwLock<HashMap<String, u64>>,
    poisoned_total: AtomicU64,
    /// Optional write-ahead journal, called for accepted scalar writes.
    journal: RwLock<Option<Arc<dyn SaveJournal>>>,
    /// Read-mostly fast flag mirroring `journal.is_some()`: the common
    /// no-journal store skips the journal rwlock entirely on every write.
    journal_attached: AtomicBool,
    /// Accepted scalar writes (`save`/`incr`), counted always — one relaxed
    /// add per write, read by the telemetry publisher.
    saves_total: AtomicU64,
    /// Shard write-lock contention events: a writer found its shard lock
    /// held and had to block. Always counted (a failed `try_write` is one
    /// extra atomic on the already-slow contended path; the uncontended
    /// path pays nothing beyond the acquisition it was doing anyway).
    contention_total: AtomicU64,
}

impl Default for FeatureStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureStore {
    /// Creates a store with default series bounds.
    pub fn new() -> Self {
        Self::with_series_bounds(
            WindowSeries::DEFAULT_RETENTION,
            WindowSeries::DEFAULT_MAX_SAMPLES,
        )
    }

    /// Creates a store whose auto-created series use the given bounds.
    pub fn with_series_bounds(retention: Nanos, max_samples: usize) -> Self {
        FeatureStore {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(ShardMap::default()))
                .collect(),
            series_retention: retention,
            series_max_samples: max_samples,
            quarantine: AtomicBool::new(true),
            poisoned: RwLock::new(HashMap::new()),
            poisoned_total: AtomicU64::new(0),
            journal: RwLock::new(None),
            journal_attached: AtomicBool::new(false),
            saves_total: AtomicU64::new(0),
            contention_total: AtomicU64::new(0),
        }
    }

    /// Attaches (or detaches, with `None`) the write-ahead journal hook.
    /// See [`SaveJournal`] for the ordering contract.
    pub fn set_journal(&self, journal: Option<Arc<dyn SaveJournal>>) {
        let mut guard = self.journal.write();
        // Flip the fast flag while holding the journal lock so a writer
        // that sees the flag set always finds the journal present.
        self.journal_attached
            .store(journal.is_some(), Ordering::Release);
        *guard = journal;
    }

    /// Shard selection: one fast hash over the key, folded onto the shard
    /// mask from the *upper* bits so it stays decorrelated from the low
    /// bits the per-shard map uses for its buckets.
    fn shard(&self, key: &str) -> &RwLock<ShardMap> {
        &self.shards[(hash_key(key) >> (64 - 4)) as usize & (SHARDS - 1)]
    }

    /// Write-locks `key`'s shard, counting a contention event when the
    /// fast non-blocking attempt loses to another holder.
    fn shard_write(&self, key: &str) -> parking_lot::RwLockWriteGuard<'_, ShardMap> {
        let shard = self.shard(key);
        match shard.try_write() {
            Some(guard) => guard,
            None => {
                self.contention_total.fetch_add(1, Ordering::Relaxed);
                shard.write()
            }
        }
    }

    /// Whether writes to `key` should reach the write-ahead journal:
    /// reserved `__telemetry/` keys are process-lifetime observations and
    /// are never journaled (and thus never snapshotted or replayed).
    #[inline]
    fn journaled(&self, key: &str) -> bool {
        self.journal_attached.load(Ordering::Acquire) && !crate::telemetry::is_reserved(key)
    }

    /// Accepted scalar writes (`save`/`incr`) so far.
    pub fn saves_total(&self) -> u64 {
        self.saves_total.load(Ordering::Relaxed)
    }

    /// Shard write-lock contention events so far.
    pub fn contention_total(&self) -> u64 {
        self.contention_total.load(Ordering::Relaxed)
    }

    /// `SAVE(key, value)`: writes a scalar, replacing any existing entry.
    ///
    /// Non-finite values (`NaN`, `±inf`) are quarantined while quarantine is
    /// enabled (the default): the write is dropped, the previous value — if
    /// any — survives, and the per-key poison counter is incremented so
    /// monitors can watch `poison_count` for a misbehaving producer.
    pub fn save(&self, key: &str, value: f64) {
        if self.quarantines(value) {
            self.poison(key);
            return;
        }
        let mut guard = self.shard_write(key);
        if self.journaled(key) {
            if let Some(journal) = self.journal.read().as_ref() {
                journal.record_save(key, value);
            }
        }
        self.saves_total.fetch_add(1, Ordering::Relaxed);
        // Overwrite in place when the key exists — the steady-state path —
        // so repeated SAVEs to a hot key never re-allocate the key string.
        match guard.get_mut(key) {
            Some(entry) => *entry = Entry::Scalar(value),
            None => {
                guard.insert(key.to_string(), Entry::Scalar(value));
            }
        }
    }

    /// Whether a write of `value` is dropped by the quarantine.
    #[inline]
    fn quarantines(&self, value: f64) -> bool {
        !value.is_finite() && self.quarantine.load(Ordering::Relaxed)
    }

    /// Counts a quarantined write to `key`.
    fn poison(&self, key: &str) {
        *self.poisoned.write().entry(key.to_string()).or_insert(0) += 1;
        self.poisoned_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Enables or disables the non-finite `SAVE` quarantine (on by default;
    /// disabling it models the unhardened runtime in fault experiments).
    pub fn set_quarantine(&self, enabled: bool) {
        self.quarantine.store(enabled, Ordering::Relaxed);
    }

    /// Whether non-finite `SAVE`s are currently quarantined.
    pub fn quarantine_enabled(&self) -> bool {
        self.quarantine.load(Ordering::Relaxed)
    }

    /// How many non-finite writes to `key` have been quarantined.
    pub fn poison_count(&self, key: &str) -> u64 {
        self.poisoned.read().get(key).copied().unwrap_or(0)
    }

    /// Total quarantined writes across all keys.
    pub fn poisoned_total(&self) -> u64 {
        self.poisoned_total.load(Ordering::Relaxed)
    }

    /// `LOAD(key)`: reads a scalar. Series read their most recent sample,
    /// EWMAs their current value, histograms their count. Missing keys read
    /// `None` (the VM treats that as 0, keeping rules total).
    pub fn load(&self, key: &str) -> Option<f64> {
        let guard = self.shard(key).read();
        match guard.get(key)? {
            Entry::Scalar(v) => Some(*v),
            Entry::Series(s) => s.last(),
            Entry::Ewma(e) => Some(e.value()),
            Entry::Histogram(h) => Some(h.count() as f64),
        }
    }

    /// Reads `key` as a boolean flag: absent or zero is `false`.
    pub fn flag(&self, key: &str) -> bool {
        self.load(key).is_some_and(|v| v != 0.0)
    }

    /// Atomically increments a scalar by `by` (creating it at 0), returning
    /// the new value.
    ///
    /// A non-finite result is quarantined exactly as [`FeatureStore::save`]
    /// quarantines a non-finite value: nothing is written or journaled, and
    /// the call returns the scalar the key keeps (0 when it holds none).
    pub fn incr(&self, key: &str, by: f64) -> f64 {
        let mut guard = self.shard_write(key);
        // Look up without allocating; only a first-touch insert pays for
        // the key string. Counting into a structured entry replaces it;
        // mixed usage of one key is a spec bug, and scalar-wins keeps it
        // visible. The journal sees the post-state before it is applied
        // (write-ahead ordering); post-state frames keep replay idempotent
        // even for counters.
        let entry = guard.get_mut(key);
        let current = match entry.as_deref() {
            Some(Entry::Scalar(v)) => Some(*v),
            _ => None,
        };
        let new = current.map_or(by, |v| v + by);
        if self.quarantines(new) {
            drop(guard);
            self.poison(key);
            return current.unwrap_or(0.0);
        }
        if self.journaled(key) {
            if let Some(journal) = self.journal.read().as_ref() {
                journal.record_save(key, new);
            }
        }
        self.saves_total.fetch_add(1, Ordering::Relaxed);
        match entry {
            Some(entry) => *entry = Entry::Scalar(new),
            None => {
                guard.insert(key.to_string(), Entry::Scalar(new));
            }
        }
        new
    }

    /// `RECORD(key, value)`: appends a timestamped sample to a windowed
    /// series (creating it with the store's default bounds).
    pub fn record(&self, key: &str, now: Nanos, value: f64) {
        let mut guard = self.shard_write(key);
        let retention = self.series_retention;
        let max = self.series_max_samples;
        let entry = guard
            .entry(key.to_string())
            .or_insert_with(|| Entry::Series(WindowSeries::new(retention, max)));
        match entry {
            Entry::Series(s) => s.push(now, value),
            _ => {
                let mut s = WindowSeries::new(retention, max);
                s.push(now, value);
                *entry = Entry::Series(s);
            }
        }
    }

    /// Computes a windowed aggregate over the series at `key`; 0 for missing
    /// or non-series keys.
    pub fn aggregate(&self, kind: AggKind, key: &str, window: Nanos, now: Nanos) -> f64 {
        let guard = self.shard(key).read();
        match guard.get(key) {
            Some(Entry::Series(s)) => s.aggregate(kind, window, now),
            _ => 0.0,
        }
    }

    /// Computes a windowed quantile over the series at `key`; 0 for missing
    /// or non-series keys.
    pub fn quantile(&self, key: &str, q: f64, window: Nanos, now: Nanos) -> f64 {
        let guard = self.shard(key).read();
        match guard.get(key) {
            Some(Entry::Series(s)) => s.quantile(q, window, now),
            _ => 0.0,
        }
    }

    /// Updates the EWMA at `key` with smoothing `alpha` (creating it).
    pub fn ewma_update(&self, key: &str, value: f64, alpha: f64) {
        let mut guard = self.shard_write(key);
        let entry = guard
            .entry(key.to_string())
            .or_insert_with(|| Entry::Ewma(Ewma::new(alpha)));
        match entry {
            Entry::Ewma(e) => e.update(value),
            _ => {
                let mut e = Ewma::new(alpha);
                e.update(value);
                *entry = Entry::Ewma(e);
            }
        }
    }

    /// Reads the EWMA value at `key`; 0 for missing or non-EWMA keys.
    pub fn ewma(&self, key: &str) -> f64 {
        let guard = self.shard(key).read();
        match guard.get(key) {
            Some(Entry::Ewma(e)) => e.value(),
            _ => 0.0,
        }
    }

    /// Records a value into the histogram at `key` (creating it).
    pub fn hist_observe(&self, key: &str, value: f64) {
        let mut guard = self.shard_write(key);
        let entry = guard
            .entry(key.to_string())
            .or_insert_with(|| Entry::Histogram(Histogram::new()));
        match entry {
            Entry::Histogram(h) => h.observe(value),
            _ => {
                let mut h = Histogram::new();
                h.observe(value);
                *entry = Entry::Histogram(h);
            }
        }
    }

    /// Reads the `q`-quantile of the histogram at `key`; 0 when missing.
    pub fn hist_quantile(&self, key: &str, q: f64) -> f64 {
        let guard = self.shard(key).read();
        match guard.get(key) {
            Some(Entry::Histogram(h)) => h.quantile(q),
            _ => 0.0,
        }
    }

    /// Reads the mean of the histogram at `key`; 0 when missing.
    pub fn hist_mean(&self, key: &str) -> f64 {
        let guard = self.shard(key).read();
        match guard.get(key) {
            Some(Entry::Histogram(h)) => h.mean(),
            _ => 0.0,
        }
    }

    /// Removes the entry at `key`, returning `true` if it existed.
    pub fn remove(&self, key: &str) -> bool {
        self.shard(key).write().remove(key).is_some()
    }

    /// Number of keys currently present.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Returns `true` when the store has no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the scalar entries, sorted by key: the durable state a
    /// snapshot folds in (series/EWMA/histogram entries are derived,
    /// process-lifetime telemetry and are not persisted).
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter_map(|(k, e)| match e {
                        Entry::Scalar(v) => Some((k.clone(), *v)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Returns a sorted snapshot of all keys (diagnostics / REPORT dumps).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn save_load_round_trip() {
        let store = FeatureStore::new();
        assert_eq!(store.load("missing"), None);
        store.save("x", 1.5);
        assert_eq!(store.load("x"), Some(1.5));
        store.save("x", 2.5);
        assert_eq!(store.load("x"), Some(2.5));
    }

    #[test]
    fn flags() {
        let store = FeatureStore::new();
        assert!(!store.flag("ml_enabled"));
        store.save("ml_enabled", 1.0);
        assert!(store.flag("ml_enabled"));
        store.save("ml_enabled", 0.0);
        assert!(!store.flag("ml_enabled"));
    }

    #[test]
    fn incr_accumulates() {
        let store = FeatureStore::new();
        assert_eq!(store.incr("c", 1.0), 1.0);
        assert_eq!(store.incr("c", 2.0), 3.0);
        assert_eq!(store.load("c"), Some(3.0));
    }

    #[test]
    fn series_aggregate_and_load() {
        let store = FeatureStore::new();
        store.record("lat", Nanos::from_secs(1), 10.0);
        store.record("lat", Nanos::from_secs(2), 30.0);
        assert_eq!(store.load("lat"), Some(30.0), "LOAD reads the last sample");
        assert_eq!(
            store.aggregate(
                AggKind::Sum,
                "lat",
                Nanos::from_secs(10),
                Nanos::from_secs(2)
            ),
            40.0
        );
        assert_eq!(
            store.quantile("lat", 0.5, Nanos::from_secs(10), Nanos::from_secs(2)),
            20.0
        );
        // Aggregates over scalars or missing keys are 0.
        store.save("s", 5.0);
        assert_eq!(
            store.aggregate(AggKind::Avg, "s", Nanos::from_secs(1), Nanos::from_secs(1)),
            0.0
        );
        assert_eq!(
            store.aggregate(
                AggKind::Avg,
                "nope",
                Nanos::from_secs(1),
                Nanos::from_secs(1)
            ),
            0.0
        );
    }

    #[test]
    fn save_overwrites_series() {
        let store = FeatureStore::new();
        store.record("k", Nanos::ZERO, 1.0);
        store.save("k", 9.0);
        assert_eq!(store.load("k"), Some(9.0));
        assert_eq!(
            store.aggregate(AggKind::Count, "k", Nanos::from_secs(1), Nanos::ZERO),
            0.0
        );
    }

    #[test]
    fn ewma_and_histogram_paths() {
        let store = FeatureStore::new();
        store.ewma_update("e", 10.0, 0.5);
        store.ewma_update("e", 20.0, 0.5);
        assert_eq!(store.ewma("e"), 15.0);
        assert_eq!(store.ewma("missing"), 0.0);

        for v in [100.0, 200.0, 300.0] {
            store.hist_observe("h", v);
        }
        assert_eq!(store.hist_mean("h"), 200.0);
        assert!(store.hist_quantile("h", 0.5) > 100.0);
        assert_eq!(store.hist_quantile("missing", 0.5), 0.0);
    }

    #[test]
    fn keys_and_remove() {
        let store = FeatureStore::new();
        store.save("b", 1.0);
        store.save("a", 1.0);
        assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(store.len(), 2);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn quarantine_rejects_non_finite_saves() {
        let store = FeatureStore::new();
        assert!(store.quarantine_enabled(), "quarantine is on by default");
        store.save("rate", 0.4);
        store.save("rate", f64::NAN);
        store.save("rate", f64::INFINITY);
        store.save("rate", f64::NEG_INFINITY);
        // The last good value survives; the poison is counted, not stored.
        assert_eq!(store.load("rate"), Some(0.4));
        assert_eq!(store.poison_count("rate"), 3);
        assert_eq!(store.poison_count("other"), 0);
        assert_eq!(store.poisoned_total(), 3);
        // A key never written finitely stays absent under poisoning.
        store.save("fresh", f64::NAN);
        assert_eq!(store.load("fresh"), None);
        assert_eq!(store.poisoned_total(), 4);
    }

    #[test]
    fn quarantine_rejects_non_finite_increments() {
        let store = FeatureStore::new();
        store.save("c", 1.0);
        // A non-finite step, or one that overflows the sum, is dropped.
        assert_eq!(store.incr("c", f64::NAN), 1.0);
        assert_eq!(store.incr("c", f64::INFINITY), 1.0);
        store.save("big", f64::MAX);
        assert_eq!(store.incr("big", f64::MAX), f64::MAX);
        assert_eq!(store.load("c"), Some(1.0));
        assert_eq!(store.load("big"), Some(f64::MAX));
        assert_eq!(store.poison_count("c"), 2);
        assert_eq!(store.poison_count("big"), 1);
        assert_eq!(store.saves_total(), 2, "quarantined writes are not saves");
        // A key never written finitely stays absent; the call reads 0.
        assert_eq!(store.incr("fresh", f64::NEG_INFINITY), 0.0);
        assert_eq!(store.load("fresh"), None);
        assert_eq!(store.poisoned_total(), 4);
        // Finite increments still count.
        assert_eq!(store.incr("c", 2.0), 3.0);
        // With the quarantine off the poison lands, as for `save`.
        store.set_quarantine(false);
        assert!(store.incr("c", f64::NAN).is_nan());
        assert!(store.load("c").unwrap().is_nan());
    }

    #[test]
    fn quarantine_can_be_disabled() {
        let store = FeatureStore::new();
        store.set_quarantine(false);
        assert!(!store.quarantine_enabled());
        store.save("rate", f64::NAN);
        assert!(
            store.load("rate").unwrap().is_nan(),
            "unhardened: NaN lands"
        );
        assert_eq!(store.poisoned_total(), 0);
        store.set_quarantine(true);
        store.save("rate", f64::NAN);
        assert_eq!(store.poison_count("rate"), 1);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let store = Arc::new(FeatureStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    s.incr("shared", 1.0);
                    s.save(&format!("t{t}"), i as f64);
                    let _ = s.load("shared");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.load("shared"), Some(4000.0));
    }
}
