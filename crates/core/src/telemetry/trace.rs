//! A lock-free, bounded, overwrite-oldest ring buffer of trace events.
//!
//! Writers claim a slot with one `fetch_add` and publish through a per-slot
//! seqlock version word; every field is an `AtomicU64`, so recording an
//! event is five atomic stores, one fence and zero allocation (plus one
//! relaxed add counting it when it is not an eval span) — cheap enough to
//! sit on the engine's evaluation path. When the ring wraps, the oldest
//! events are overwritten (the bounded overwrite-oldest policy): tracing
//! never blocks and never grows.
//!
//! Readers ([`TraceRing::snapshot`]) revalidate each slot's version after
//! copying it and drop slots a writer was rewriting, so one writer per slot
//! can never smear a half-written event into an export. The fences follow
//! Boehm, "Can Seqlocks Get Along with Programming Language Memory
//! Models?" (MSPC 2012): a `Release` store of the odd version alone would
//! let the field stores become visible before it, and an `Acquire` re-read
//! alone would let the field loads move after it.
//!
//! The version word does not exclude writers from each other. Two writers
//! one full ring apart (`seq` and `seq + capacity`) write the same slot at
//! once; their field stores can interleave, and a reader can then accept
//! a record that mixes both writers' fields under the version that
//! survived. That takes more concurrent writers than the ring has slots
//! (the engine records from one thread at a time), and it is not detected.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use simkernel::Nanos;

/// What a trace event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A rule-set evaluation (or evaluation batch) began.
    EvalStart = 0,
    /// The matching evaluation (or batch) finished; `value` is the measured
    /// wall time in nanoseconds.
    EvalEnd = 1,
    /// A rule evaluated false; `value` is the failing rule index.
    Violation = 2,
    /// An action fired; `value` is the action kind index
    /// (see [`crate::telemetry::ActionKind`]).
    Action = 3,
    /// An engine checkpoint was captured.
    Checkpoint = 4,
    /// Engine state was restored from a checkpoint (a supervised restart).
    Restart = 5,
}

impl TraceKind {
    fn from_u8(v: u8) -> Option<TraceKind> {
        match v {
            0 => Some(TraceKind::EvalStart),
            1 => Some(TraceKind::EvalEnd),
            2 => Some(TraceKind::Violation),
            3 => Some(TraceKind::Action),
            4 => Some(TraceKind::Checkpoint),
            5 => Some(TraceKind::Restart),
            _ => None,
        }
    }

    /// A short stable name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::EvalStart => "eval_start",
            TraceKind::EvalEnd => "eval_end",
            TraceKind::Violation => "violation",
            TraceKind::Action => "action",
            TraceKind::Checkpoint => "checkpoint",
            TraceKind::Restart => "restart",
        }
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number (0-based, assigned at record time).
    pub seq: u64,
    /// Simulated timestamp of the event.
    pub at: Nanos,
    /// The event kind.
    pub kind: TraceKind,
    /// Index of the monitor involved ([`NO_MONITOR`] when none).
    pub monitor: u32,
    /// Kind-specific payload (wall ns, rule index, action kind, ...).
    pub value: f64,
}

/// Monitor field value for events not tied to a monitor.
pub const NO_MONITOR: u32 = u32::MAX;

struct Slot {
    /// Seqlock word: `2*seq + 1` while the writer owning `seq` is mid-write,
    /// `2*seq + 2` once published, 0 when never written.
    version: AtomicU64,
    at: AtomicU64,
    /// Packed `kind | monitor << 32`.
    kind_monitor: AtomicU64,
    /// `f64` payload bits.
    value: AtomicU64,
}

/// The ring itself. Capacity is rounded up to a power of two (minimum 8).
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    mask: usize,
    /// Events recorded that are not eval spans.
    marks: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceRing {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        TraceRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    at: AtomicU64::new(0),
                    kind_monitor: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            mask: capacity - 1,
            marks: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (recorded − capacity = overwritten, when
    /// positive).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events lost to the overwrite-oldest policy so far.
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Events ever recorded that are not eval spans (violations, actions,
    /// checkpoints, restarts), overwritten ones included.
    pub fn marks(&self) -> u64 {
        self.marks.load(Ordering::Relaxed)
    }

    /// Records one event. Never blocks, never allocates; overwrites the
    /// oldest event once the ring is full.
    #[inline]
    pub fn record(&self, at: Nanos, kind: TraceKind, monitor: u32, value: f64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        if !matches!(kind, TraceKind::EvalStart | TraceKind::EvalEnd) {
            self.marks.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(seq as usize) & self.mask];
        slot.version.store(2 * seq + 1, Ordering::Relaxed);
        // Orders the odd version before the field stores (a `Release`
        // store would only order what comes before it).
        fence(Ordering::Release);
        slot.at.store(at.as_nanos(), Ordering::Relaxed);
        slot.kind_monitor.store(
            u64::from(kind as u8) | (u64::from(monitor) << 32),
            Ordering::Relaxed,
        );
        slot.value.store(value.to_bits(), Ordering::Relaxed);
        slot.version.store(2 * seq + 2, Ordering::Release);
    }

    /// Copies out the currently retained events, oldest first. Slots a
    /// single writer is concurrently rewriting are skipped rather than
    /// returned torn (see the module docs for racing writers).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.slots.len() as u64;
        let start = head.saturating_sub(capacity);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let slot = &self.slots[(seq as usize) & self.mask];
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 != 2 * seq + 2 {
                continue; // Mid-write or already lapped by a newer writer.
            }
            let at = slot.at.load(Ordering::Relaxed);
            let kind_monitor = slot.kind_monitor.load(Ordering::Relaxed);
            let value = slot.value.load(Ordering::Relaxed);
            // Orders the field loads before the version re-read (an
            // `Acquire` load would only order what comes after it).
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != v1 {
                continue; // Torn by a concurrent overwrite.
            }
            let Some(kind) = TraceKind::from_u8((kind_monitor & 0xFF) as u8) else {
                continue;
            };
            out.push(TraceEvent {
                seq,
                at: Nanos::from_nanos(at),
                kind,
                monitor: (kind_monitor >> 32) as u32,
                value: f64::from_bits(value),
            });
        }
        out
    }

    /// Renders the retained events as one line per event:
    /// `seq at_ns kind monitor value`. `resolve` maps a monitor index to its
    /// guardrail name (return `None` to print the raw index).
    pub fn export_text(&self, resolve: &dyn Fn(u32) -> Option<String>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in self.snapshot() {
            let who = if e.monitor == NO_MONITOR {
                "-".to_string()
            } else {
                resolve(e.monitor).unwrap_or_else(|| e.monitor.to_string())
            };
            let _ = writeln!(
                out,
                "{:>8} {:>14} {:<11} {:<24} {}",
                e.seq,
                e.at.as_nanos(),
                e.kind.name(),
                who,
                e.value
            );
        }
        out
    }

    /// Renders the retained events as a JSON array (no external deps; the
    /// payload is numbers and fixed strings, so hand-encoding is exact).
    pub fn export_json(&self, resolve: &dyn Fn(u32) -> Option<String>) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("[");
        for (i, e) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let who = if e.monitor == NO_MONITOR {
                String::new()
            } else {
                resolve(e.monitor).unwrap_or_else(|| e.monitor.to_string())
            };
            let _ = write!(
                out,
                "{{\"seq\":{},\"at_ns\":{},\"kind\":\"{}\",\"monitor\":\"{}\",\"value\":{}}}",
                e.seq,
                e.at.as_nanos(),
                e.kind.name(),
                who.replace('\\', "\\\\").replace('"', "\\\""),
                if e.value.is_finite() {
                    format!("{}", e.value)
                } else {
                    "null".to_string()
                }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = TraceRing::new(16);
        for i in 0..5u64 {
            ring.record(
                Nanos::from_nanos(i * 10),
                TraceKind::EvalStart,
                i as u32,
                i as f64,
            );
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.monitor, i as u32);
            assert_eq!(e.kind, TraceKind::EvalStart);
        }
        assert_eq!(ring.overwritten(), 0);
    }

    #[test]
    fn wraparound_overwrites_oldest() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.record(Nanos::from_nanos(i), TraceKind::Violation, 0, i as f64);
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().seq, 12);
        assert_eq!(events.last().unwrap().seq, 19);
        assert_eq!(ring.recorded(), 20);
        assert_eq!(ring.overwritten(), 12);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(TraceRing::new(0).capacity(), 8);
        assert_eq!(TraceRing::new(9).capacity(), 16);
        assert_eq!(TraceRing::new(64).capacity(), 64);
    }

    #[test]
    fn exporters_render_all_events() {
        let ring = TraceRing::new(8);
        ring.record(Nanos::from_nanos(5), TraceKind::Violation, 1, 0.0);
        ring.record(Nanos::from_nanos(9), TraceKind::Action, NO_MONITOR, 3.0);
        let resolve = |m: u32| (m == 1).then(|| "guard-one".to_string());
        let text = ring.export_text(&resolve);
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("guard-one"), "{text}");
        let json = ring.export_json(&resolve);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"kind\":\"action\""), "{json}");
        assert!(json.contains("\"monitor\":\"guard-one\""), "{json}");
    }

    #[test]
    fn concurrent_writers_never_tear_a_snapshot() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let r = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    r.record(Nanos::from_nanos(i), TraceKind::EvalEnd, t, f64::from(t));
                }
            }));
        }
        let reader = {
            let r = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for e in r.snapshot() {
                        // A torn slot would mix one writer's monitor with
                        // another's value; published slots never do.
                        assert_eq!(e.value, f64::from(e.monitor));
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(ring.recorded(), 8_000);
    }
}
