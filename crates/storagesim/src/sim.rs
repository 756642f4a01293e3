//! The end-to-end LinnOS + guardrail simulation (Figure 2).
//!
//! Timeline (all knobs in [`LinnosSimConfig`]):
//!
//! 1. **Warmup**: the model is untrained, every I/O goes to its primary, and
//!    completions feed the training buffer. At the end of warmup the
//!    classifier trains offline — from here on it drives failover.
//! 2. **Healthy phase**: the trained model revokes I/Os headed into GC; the
//!    moving average of I/O latency sits well below the no-ML default.
//! 3. **Shift**: the devices age (GC becomes frequent and differently
//!    shaped) and the workload intensifies. The stale model now mispredicts
//!    in both directions: missed GC hits become *false submits*, and
//!    spurious revokes pay the failover cost for nothing.
//! 4. With the paper's Listing 2 guardrail installed, the monitor notices
//!    `false_submit_rate > 5%` within one check period and flips
//!    `ml_enabled` off; the policy falls back to default submission and the
//!    moving average recovers. Without the guardrail it stays degraded.

use std::collections::VecDeque;

use guardrails::monitor::MonitorEngine;
use guardrails::{Telemetry, TelemetrySnapshot};
use simkernel::{MovingAverage, Nanos};

use crate::array::{ArrayStats, FlashArray, SubmitOutcome};
use crate::device::FlashDeviceConfig;
use crate::linnos::{LinnosClassifier, LinnosConfig};
use crate::workload::{Workload, WorkloadConfig};

/// The guardrail from the paper's Listing 2, verbatim.
pub const LISTING_2_SPEC: &str = r#"
guardrail low-false-submit {
    trigger: {
        TIMER(start_time, 1e9) // Periodically check every 1s.
    },
    rule: {
        LOAD(false_submit_rate) <= 0.05
    },
    action: {
        SAVE(ml_enabled, false)
    }
}
"#;

/// Configuration of the Figure 2 simulation.
#[derive(Clone, Debug)]
pub struct LinnosSimConfig {
    /// Base RNG seed (devices and workload fork from it).
    pub seed: u64,
    /// Training phase length.
    pub warmup: Nanos,
    /// Healthy (pre-shift) phase length.
    pub healthy: Nanos,
    /// Post-shift phase length.
    pub shifted: Nanos,
    /// Arrival process for warmup + healthy phases.
    pub workload: WorkloadConfig,
    /// Arrival process after the shift.
    pub shifted_workload: WorkloadConfig,
    /// Device behaviour before the shift.
    pub device: FlashDeviceConfig,
    /// Device behaviour after the shift.
    pub shifted_device: FlashDeviceConfig,
    /// Classifier configuration.
    pub linnos: LinnosConfig,
    /// Cost of revoking and re-issuing an I/O.
    pub revoke_overhead: Nanos,
    /// Install the Listing 2 guardrail?
    pub with_guardrail: bool,
    /// Moving-average window (I/Os), as plotted in Figure 2.
    pub moving_avg_window: usize,
    /// Sliding window (I/Os) for the false-submit-rate feature.
    pub rate_window: usize,
    /// Emit one series point every this many I/Os.
    pub sample_every: usize,
}

impl Default for LinnosSimConfig {
    fn default() -> Self {
        let device = FlashDeviceConfig::default();
        LinnosSimConfig {
            seed: 0xF162,
            warmup: Nanos::from_secs(2),
            healthy: Nanos::from_secs(4),
            shifted: Nanos::from_secs(8),
            workload: WorkloadConfig::default(),
            shifted_workload: WorkloadConfig {
                iops: 2_000.0,
                ..WorkloadConfig::default()
            },
            device,
            shifted_device: device.aged(),
            linnos: LinnosConfig::default(),
            revoke_overhead: Nanos::from_micros(150),
            with_guardrail: true,
            moving_avg_window: 2_000,
            rate_window: 2_000,
            sample_every: 500,
        }
    }
}

impl LinnosSimConfig {
    /// Total simulated duration.
    pub fn total(&self) -> Nanos {
        self.warmup + self.healthy + self.shifted
    }

    /// The shift instant.
    pub fn shift_at(&self) -> Nanos {
        self.warmup + self.healthy
    }
}

/// Aggregates for one phase of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// I/Os served in the phase.
    pub ios: u64,
    /// Mean latency in microseconds.
    pub mean_latency_us: f64,
    /// False submits / I/Os in the phase.
    pub false_submit_rate: f64,
    /// Failovers / I/Os in the phase.
    pub failover_rate: f64,
}

impl PhaseStats {
    /// The phase between two [`ArrayStats`] snapshots.
    pub(crate) fn from_delta(before: ArrayStats, after: ArrayStats) -> PhaseStats {
        let ios = after.ios - before.ios;
        if ios == 0 {
            return PhaseStats::default();
        }
        PhaseStats {
            ios,
            mean_latency_us: (after.latency_sum_ns - before.latency_sum_ns) as f64
                / ios as f64
                / 1_000.0,
            false_submit_rate: (after.false_submits - before.false_submits) as f64 / ios as f64,
            failover_rate: (after.failovers - before.failovers) as f64 / ios as f64,
        }
    }
}

/// The output of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// `(seconds, moving-average latency in µs)` — the Figure 2 series.
    pub series: Vec<(f64, f64)>,
    /// When the guardrail first fired, if it did.
    pub guardrail_triggered_at: Option<Nanos>,
    /// Stats for the healthy (post-training, pre-shift) phase.
    pub healthy: PhaseStats,
    /// Stats for the post-shift phase.
    pub shifted: PhaseStats,
    /// Total violations recorded by the engine.
    pub violations: usize,
    /// Whether the learned policy was still enabled at the end.
    pub ml_enabled_at_end: bool,
    /// Deterministic engine telemetry counters for the run.
    pub telemetry: TelemetrySnapshot,
}

/// The Figure 2 datapath: flash array, LinnOS classifier and arrival
/// process, driven on the timeline of a [`LinnosSimConfig`].
///
/// The Figure 2 run ([`LinnosSim`]), the fault scenarios
/// ([`crate::faultsim`], E9) and the crash-restart scenarios
/// ([`crate::recovery`], E10) all drive this one type; each keeps only its
/// guardrail-side code. The classifier trains at the first arrival at or
/// after `warmup`, and the devices and workload shift at the first arrival
/// at or after [`LinnosSimConfig::shift_at`] — never, when that is at or
/// after [`LinnosSimConfig::total`].
pub(crate) struct Datapath {
    array: FlashArray,
    classifier: LinnosClassifier,
    workload: Workload,
    warmup: Nanos,
    shift_at: Nanos,
    total: Nanos,
    shifted_device: FlashDeviceConfig,
    shifted_workload: WorkloadConfig,
    rate_window: usize,
    /// False-submit flags of the last `rate_window` ml-on I/Os, and how
    /// many of them are set.
    recent_false: VecDeque<bool>,
    recent_false_count: usize,
    trained: bool,
    shifted: bool,
    stats_at_train: ArrayStats,
    stats_at_shift: ArrayStats,
}

impl Datapath {
    /// Builds the substrate: the array is seeded with `config.seed`, the
    /// workload with `config.seed ^ 0xAB`.
    pub(crate) fn new(config: &LinnosSimConfig) -> Self {
        let mut array = FlashArray::new(config.device, 2, config.revoke_overhead, config.seed);
        let workload = Workload::new(config.workload, config.seed ^ 0xAB);
        let classifier = LinnosClassifier::new(config.linnos);
        // Match the array's slow threshold to the classifier's label.
        array.set_slow_threshold(classifier.config().slow_threshold);
        Datapath {
            array,
            classifier,
            workload,
            warmup: config.warmup,
            shift_at: config.shift_at(),
            total: config.total(),
            shifted_device: config.shifted_device,
            shifted_workload: config.shifted_workload,
            rate_window: config.rate_window,
            recent_false: VecDeque::new(),
            recent_false_count: 0,
            trained: false,
            shifted: false,
            stats_at_train: ArrayStats::default(),
            stats_at_shift: ArrayStats::default(),
        }
    }

    /// Draws the next arrival and applies the training and shift instants
    /// it crosses, training first. `None` once the run's total is reached.
    pub(crate) fn next_arrival(&mut self) -> Option<Nanos> {
        let now = self.workload.next_arrival();
        if now >= self.total {
            return None;
        }
        if !self.trained && now >= self.warmup {
            self.classifier.train_round();
            self.trained = true;
            self.stats_at_train = self.array.stats();
        }
        if !self.shifted && now >= self.shift_at {
            self.array.set_device_config(self.shifted_device);
            self.workload.set_config(self.shifted_workload);
            self.stats_at_shift = self.array.stats();
            self.shifted = true;
        }
        Some(now)
    }

    /// Submits the I/O arriving at `now`, consulting the classifier only
    /// when `ml_on`, and feeds the completion back. Returns the outcome
    /// and the classifier's slow probability (`NaN` when not consulted).
    pub(crate) fn submit(&mut self, now: Nanos, ml_on: bool) -> (SubmitOutcome, f64) {
        let classifier = &mut self.classifier;
        let threshold = classifier.config().decision_threshold;
        let mut proba = f64::NAN;
        let outcome = self.array.submit(now, |features| {
            if !ml_on {
                return false;
            }
            proba = classifier.predict_proba(features);
            proba >= threshold
        });

        // Completion feedback: only unrevoked I/Os yield a label for their
        // primary (the counterfactual for revoked ones is unseen).
        if outcome.served_by == outcome.primary {
            self.classifier.observe(&outcome.features, outcome.was_slow);
        } else if let Some(probe_slow) = outcome.probe_was_slow {
            // Hedged probes label revoked decisions too.
            self.classifier.observe(&outcome.features, probe_slow);
        }

        // The false-submit rate describes the *model's* false submits, so
        // it only accumulates while the learned path is making decisions.
        if ml_on {
            self.recent_false.push_back(outcome.false_submit);
            self.recent_false_count += usize::from(outcome.false_submit);
            if self.recent_false.len() > self.rate_window {
                let dropped = self.recent_false.pop_front();
                self.recent_false_count -= usize::from(dropped == Some(true));
            }
        }
        (outcome, proba)
    }

    /// The observable false-submit-rate feature (§5) over the last
    /// `rate_window` ml-on I/Os; `None` while that window is empty.
    pub(crate) fn false_submit_rate(&self) -> Option<f64> {
        (!self.recent_false.is_empty())
            .then(|| self.recent_false_count as f64 / self.recent_false.len() as f64)
    }

    /// Empties the false-submit window (its owner died, as in a crash).
    pub(crate) fn reset_rate_window(&mut self) {
        self.recent_false.clear();
        self.recent_false_count = 0;
    }

    /// Whether the classifier has trained (the learned path may run).
    pub(crate) fn trained(&self) -> bool {
        self.trained
    }

    /// The array's running counters, to snapshot for [`PhaseStats`].
    pub(crate) fn stats(&self) -> ArrayStats {
        self.array.stats()
    }

    /// The array's counters at the training instant (zero until then).
    pub(crate) fn stats_at_train(&self) -> ArrayStats {
        self.stats_at_train
    }

    /// The array's counters at the shift instant (zero until then).
    pub(crate) fn stats_at_shift(&self) -> ArrayStats {
        self.stats_at_shift
    }

    /// The flash array, for fault injection.
    pub(crate) fn array_mut(&mut self) -> &mut FlashArray {
        &mut self.array
    }

    /// The classifier, for fault injection and retraining.
    pub(crate) fn classifier_mut(&mut self) -> &mut LinnosClassifier {
        &mut self.classifier
    }
}

/// The Figure 2 simulator.
pub struct LinnosSim {
    config: LinnosSimConfig,
    engine: MonitorEngine,
    datapath: Datapath,
}

impl LinnosSim {
    /// Builds the simulator (and installs the guardrail when configured).
    ///
    /// # Panics
    ///
    /// Panics if the Listing 2 spec fails to compile — it is a constant, so
    /// that would be a bug in this crate.
    pub fn new(config: LinnosSimConfig) -> Self {
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Telemetry::new());
        if config.with_guardrail {
            engine
                .install_str(LISTING_2_SPEC)
                .expect("Listing 2 compiles");
        }
        let datapath = Datapath::new(&config);
        LinnosSim {
            config,
            engine,
            datapath,
        }
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> SimReport {
        let store = self.engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.0);

        let mut moving = MovingAverage::new(self.config.moving_avg_window);
        let mut series = Vec::new();
        let mut ios: u64 = 0;

        while let Some(now) = self.datapath.next_arrival() {
            // Fire due TIMER checks before the decision — the monitor runs
            // concurrently with the datapath.
            self.engine.advance_to(now);

            let ml_on = self.datapath.trained() && store.flag("ml_enabled");
            let (outcome, _) = self.datapath.submit(now, ml_on);
            if let Some(rate) = self.datapath.false_submit_rate() {
                store.save("false_submit_rate", rate);
            }

            let avg = moving.push(outcome.latency.as_micros_f64());
            ios += 1;
            if ios.is_multiple_of(self.config.sample_every as u64) {
                series.push((now.as_secs_f64(), avg));
            }
        }
        self.engine.advance_to(self.config.total());

        let violations = self.engine.violations();
        SimReport {
            series,
            guardrail_triggered_at: violations.first().map(|v| v.at),
            healthy: PhaseStats::from_delta(
                self.datapath.stats_at_train(),
                self.datapath.stats_at_shift(),
            ),
            shifted: PhaseStats::from_delta(self.datapath.stats_at_shift(), self.datapath.stats()),
            violations: violations.len(),
            ml_enabled_at_end: store.flag("ml_enabled"),
            telemetry: self
                .engine
                .telemetry()
                .map(|t| t.snapshot())
                .unwrap_or_default(),
        }
    }
}

/// Runs the guarded and unguarded variants of the same scenario (identical
/// seeds) — the two curves of Figure 2.
pub fn run_fig2(config: LinnosSimConfig) -> (SimReport, SimReport) {
    let guarded = LinnosSim::new(LinnosSimConfig {
        with_guardrail: true,
        ..config.clone()
    })
    .run();
    let unguarded = LinnosSim::new(LinnosSimConfig {
        with_guardrail: false,
        ..config
    })
    .run();
    (guarded, unguarded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> LinnosSimConfig {
        LinnosSimConfig {
            warmup: Nanos::from_secs(2),
            healthy: Nanos::from_secs(3),
            shifted: Nanos::from_secs(5),
            ..LinnosSimConfig::default()
        }
    }

    /// A short run: train at 200 ms, shift at 500 ms, end at 1 s.
    fn short_config() -> LinnosSimConfig {
        LinnosSimConfig {
            warmup: Nanos::from_millis(200),
            healthy: Nanos::from_millis(300),
            shifted: Nanos::from_millis(500),
            ..LinnosSimConfig::default()
        }
    }

    /// The arrivals before and at which the training and shift flags flip.
    type Crossing = Option<(Option<Nanos>, Nanos)>;

    fn crossings(config: &LinnosSimConfig) -> (Datapath, Crossing, Crossing) {
        let mut datapath = Datapath::new(config);
        let (mut prev, mut trained_at, mut shifted_at) = (None, None, None);
        while let Some(now) = datapath.next_arrival() {
            if trained_at.is_none() && datapath.trained {
                trained_at = Some((prev, now));
            }
            if shifted_at.is_none() && datapath.shifted {
                assert!(datapath.classifier.is_trained(), "train happens first");
                shifted_at = Some((prev, now));
            }
            let ml_on = datapath.trained();
            datapath.submit(now, ml_on);
            prev = Some(now);
        }
        (datapath, trained_at, shifted_at)
    }

    fn fired_at_first_arrival_at_or_after(crossing: Crossing, instant: Nanos) -> Nanos {
        let (before, at) = crossing.expect("the instant fired");
        assert!(at >= instant, "{at} is before {instant}");
        assert!(
            before.is_none_or(|b| b < instant),
            "{before:?} already crossed"
        );
        at
    }

    #[test]
    fn datapath_trains_then_shifts_at_the_first_arrival_at_or_after_each_instant() {
        let config = short_config();
        let (_, trained, shifted) = crossings(&config);
        let trained_at = fired_at_first_arrival_at_or_after(trained, config.warmup);
        let shifted_at = fired_at_first_arrival_at_or_after(shifted, config.shift_at());
        assert!(trained_at < shifted_at);

        // Both instants on one arrival: still train first, then shift.
        let same = LinnosSimConfig {
            healthy: Nanos::ZERO,
            ..short_config()
        };
        let (_, trained, shifted) = crossings(&same);
        assert_eq!(
            fired_at_first_arrival_at_or_after(trained, same.warmup),
            fired_at_first_arrival_at_or_after(shifted, same.shift_at())
        );
    }

    #[test]
    fn datapath_shift_at_total_never_fires() {
        let config = LinnosSimConfig {
            shifted: Nanos::ZERO,
            ..short_config()
        };
        assert_eq!(config.shift_at(), config.total());
        let (datapath, trained, shifted) = crossings(&config);
        assert!(trained.is_some());
        assert!(shifted.is_none());
        assert_eq!(datapath.stats_at_shift().ios, 0);
    }

    #[test]
    fn false_submit_rate_matches_a_naive_recount_and_resets() {
        let config = LinnosSimConfig {
            rate_window: 64,
            ..short_config()
        };
        let mut datapath = Datapath::new(&config);
        // Every ml-on outcome since the last reset, oldest first.
        let mut naive: Vec<bool> = Vec::new();
        let mut arrivals = 0u64;
        let mut false_submits = 0u64;
        while let Some(now) = datapath.next_arrival() {
            arrivals += 1;
            if arrivals == 2_500 {
                datapath.reset_rate_window();
                naive.clear();
                assert_eq!(datapath.false_submit_rate(), None);
            }
            let ml_on = datapath.trained() && !arrivals.is_multiple_of(5);
            let (outcome, proba) = datapath.submit(now, ml_on);
            assert_eq!(proba.is_nan(), !ml_on, "the classifier runs iff ml_on");
            if ml_on {
                naive.push(outcome.false_submit);
                false_submits += u64::from(outcome.false_submit);
            }
            let last = &naive[naive.len().saturating_sub(config.rate_window)..];
            let expected = (!last.is_empty())
                .then(|| last.iter().filter(|&&b| b).count() as f64 / last.len() as f64);
            assert_eq!(datapath.false_submit_rate(), expected, "arrival {arrivals}");
        }
        assert!(arrivals > 2_500, "the reset ran mid-run");
        assert!(false_submits > 0, "the window saw false submits");
        datapath.reset_rate_window();
        assert_eq!(datapath.false_submit_rate(), None);
    }

    #[test]
    fn snapshot_latency_means_equal_hand_kept_means() {
        let config = short_config();
        let (shift, cut) = (config.shift_at(), Nanos::from_millis(700));
        // Arrivals in this span are dropped unsubmitted, as while a
        // guardrail node is down.
        let down = (Nanos::from_millis(650), Nanos::from_millis(750));
        let mut datapath = Datapath::new(&config);
        let mut healthy = (0u64, 0u64); // (sum ns, ios)
        let mut post_cut = (0u64, 0u64);
        let mut at_cut = None;
        while let Some(now) = datapath.next_arrival() {
            if at_cut.is_none() && now >= cut {
                at_cut = Some(datapath.stats());
            }
            if now >= down.0 && now < down.1 {
                continue;
            }
            let ml_on = datapath.trained();
            let (outcome, _) = datapath.submit(now, ml_on);
            let acc = if now >= cut {
                &mut post_cut
            } else if now >= config.warmup && now < shift {
                &mut healthy
            } else {
                continue;
            };
            acc.0 += outcome.latency.as_nanos();
            acc.1 += 1;
        }
        let mean_us = |(sum, ios): (u64, u64)| sum as f64 / ios as f64 / 1_000.0;
        let from_snapshots =
            PhaseStats::from_delta(datapath.stats_at_train(), datapath.stats_at_shift());
        assert_eq!(from_snapshots.ios, healthy.1);
        assert_eq!(from_snapshots.mean_latency_us, mean_us(healthy));
        let from_snapshots = PhaseStats::from_delta(at_cut.expect("cut crossed"), datapath.stats());
        assert_eq!(from_snapshots.ios, post_cut.1);
        assert_eq!(from_snapshots.mean_latency_us, mean_us(post_cut));
    }

    #[test]
    fn healthy_phase_is_healthy() {
        let report = LinnosSim::new(quick_config()).run();
        assert!(
            report.healthy.false_submit_rate < 0.05,
            "healthy false-submit rate {}",
            report.healthy.false_submit_rate
        );
        assert!(report.healthy.ios > 1_000);
        assert!(
            report.healthy.failover_rate > 0.01,
            "the model does fail over"
        );
    }

    #[test]
    fn figure2_shape_holds() {
        let (guarded, unguarded) = run_fig2(quick_config());
        // The guardrail fires after the shift, within a couple of periods.
        let trigger = guarded
            .guardrail_triggered_at
            .expect("guardrail must trigger");
        let shift = quick_config().shift_at();
        assert!(trigger >= shift, "trigger {trigger} before shift {shift}");
        assert!(
            trigger <= shift + Nanos::from_secs(3),
            "trigger {trigger} too late"
        );
        assert!(
            !guarded.ml_enabled_at_end,
            "model disabled by the guardrail"
        );
        assert!(
            guarded.telemetry.evaluations > 0,
            "telemetry follows the run"
        );
        assert!(guarded.telemetry.violations as usize >= guarded.violations);
        assert!(unguarded.ml_enabled_at_end);
        assert_eq!(unguarded.violations, 0);
        // The unguarded run's post-shift false submits stay high.
        assert!(
            unguarded.shifted.false_submit_rate > 0.05,
            "unguarded shifted rate {}",
            unguarded.shifted.false_submit_rate
        );
        // Shape: post-shift, the guarded run's latency beats unguarded.
        assert!(
            guarded.shifted.mean_latency_us < unguarded.shifted.mean_latency_us,
            "guarded {} vs unguarded {}",
            guarded.shifted.mean_latency_us,
            unguarded.shifted.mean_latency_us
        );
        // And both runs were identical before the shift (same seeds).
        assert!((guarded.healthy.mean_latency_us - unguarded.healthy.mean_latency_us).abs() < 1e-9);
    }

    #[test]
    fn series_is_time_ordered_and_covers_run() {
        let report = LinnosSim::new(quick_config()).run();
        assert!(report.series.len() > 20);
        for pair in report.series.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        let last_t = report.series.last().unwrap().0;
        assert!(last_t > 8.0, "series reaches the end: {last_t}");
    }
}
