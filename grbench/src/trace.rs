//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end; spans opened while another is
//! open are its children. A span's *self time* is its duration minus the
//! time its direct children cover, so a parent span around a restart shows
//! how much of the restart no layer span accounts for. Spans are kept in
//! memory as per-name duration samples and summarised when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Duration samples of every closed span with one name, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct SpanSamples {
    /// Whole durations.
    pub total: Vec<u64>,
    /// Durations minus the time covered by direct children.
    pub self_time: Vec<u64>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// In-memory span and counter recorder for a traced run.
#[derive(Default)]
pub struct Tracer {
    open: Vec<Open>,
    spans: BTreeMap<&'static str, SpanSamples>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens span `name` at `at`, as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, at: Instant) {
        self.open.push(Open {
            name,
            start: at,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at `at` and returns its duration in
    /// nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics when no span is open: enter and exit calls must pair up.
    pub fn exit(&mut self, at: Instant) -> u64 {
        let span = self.open.pop().expect("exit without a matching enter");
        let total = at.saturating_duration_since(span.start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += total;
        }
        let samples = self.spans.entry(span.name).or_default();
        samples.total.push(total);
        samples.self_time.push(total.saturating_sub(span.child_ns));
        total
    }

    /// Records a span whose start and end were already measured.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.enter(name, start);
        self.exit(end);
    }

    /// Runs `f` inside span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, Instant::now());
        let out = f();
        self.exit(Instant::now());
        out
    }

    /// Adds `by` to counter `name`.
    pub fn add(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    /// Sets counter `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// Counter `name`, 0 when never touched.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The samples of span `name`, if any closed.
    pub fn samples(&self, name: &str) -> Option<&SpanSamples> {
        self.spans.get(name)
    }

    /// Sum of all durations of span `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.samples(name)
            .map_or(0.0, |s| s.total.iter().map(|&d| d as f64).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ns: u64) -> Instant {
        origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let o = Instant::now();
        let mut t = Tracer::new();
        t.enter("restart", at(o, 0));
        t.enter("open", at(o, 10));
        t.enter("replay", at(o, 20));
        assert_eq!(t.exit(at(o, 50)), 30);
        assert_eq!(t.exit(at(o, 60)), 50);
        t.record("install", at(o, 70), at(o, 90));
        assert_eq!(t.exit(at(o, 100)), 100);

        let restart = t.samples("restart").unwrap();
        assert_eq!((restart.total[0], restart.self_time[0]), (100, 30));
        let open = t.samples("open").unwrap();
        assert_eq!((open.total[0], open.self_time[0]), (50, 20));
        let replay = t.samples("replay").unwrap();
        assert_eq!((replay.total[0], replay.self_time[0]), (30, 30));
        assert_eq!(t.total_ns("install"), 20.0);
        assert_eq!(t.total_ns("missing"), 0.0);
    }

    #[test]
    fn sibling_spans_accumulate_samples_and_counters() {
        let o = Instant::now();
        let mut t = Tracer::new();
        t.record("vm.eval", at(o, 0), at(o, 5));
        t.record("vm.eval", at(o, 5), at(o, 12));
        assert_eq!(t.samples("vm.eval").unwrap().total, vec![5, 7]);
        assert_eq!(t.total_ns("vm.eval"), 12.0);
        t.add("vm.evals", 2.0);
        t.add("vm.evals", 3.0);
        t.set("compile.ops", 9.0);
        t.set("compile.ops", 4.0);
        assert_eq!(t.count("vm.evals"), 5.0);
        assert_eq!(t.count("compile.ops"), 4.0);
        assert_eq!(t.count("never"), 0.0);
    }

    #[test]
    #[should_panic(expected = "exit without a matching enter")]
    fn unpaired_exit_is_a_bug() {
        Tracer::new().exit(Instant::now());
    }
}
