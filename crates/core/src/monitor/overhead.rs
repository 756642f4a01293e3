//! Per-monitor overhead accounting (property P5).
//!
//! One of the paper's motivating complaints about prior work is that it
//! provides "no way for practitioners to assess if inference overhead is
//! justified and to bound performance impact" (§1). The engine therefore
//! counts every rule evaluation, violation and action dispatch in the
//! monitor's counter block ([`OverheadAccount`]), with cost in both
//! *modelled* nanoseconds (fuel × a per-unit cost, deterministic and usable
//! inside the simulation) and *measured* wall nanoseconds (for the Criterion
//! benches).

use simkernel::Nanos;

/// Modelled cost of one fuel unit, in simulated nanoseconds.
///
/// Calibrated to a few nanoseconds per simple interpreted instruction, the
/// right order of magnitude for an eBPF-style monitor on modern hardware.
pub const NS_PER_FUEL: u64 = 2;

/// The counter block of one monitor: the only place the engine counts.
///
/// Every evaluation, violation, trip, fault, command and action firing
/// bumps exactly one block. [`EngineStats`](super::EngineStats), the
/// [`OverheadReport`]s, the attached telemetry's counters and the
/// `__telemetry/` keys are all read from these blocks, so they cannot
/// drift apart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadAccount {
    /// Rule-set evaluations performed.
    pub evaluations: u64,
    /// Violations detected (a rule evaluated false).
    pub violations: u64,
    /// Violations whose actions fired (post-hysteresis).
    pub trips: u64,
    /// Rule evaluations aborted by a fault (fuel exhaustion or panic).
    pub rule_faults: u64,
    /// Times the watchdog disabled this monitor.
    pub watchdog_trips: u64,
    /// Deferred commands emitted to the outbox.
    pub commands_emitted: u64,
    /// Total fuel consumed by rule evaluations.
    pub rule_fuel: u64,
    /// Total fuel consumed by action operand programs.
    pub action_fuel: u64,
    /// Action firings by kind, indexed by
    /// [`ActionKind`](crate::telemetry::ActionKind).
    pub actions: [u64; 6],
    /// Measured wall time spent evaluating, in nanoseconds.
    pub wall_ns: u64,
}

impl OverheadAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total fuel (rules + actions).
    pub fn total_fuel(&self) -> u64 {
        self.rule_fuel + self.action_fuel
    }

    /// Modelled monitoring time in simulated nanoseconds.
    pub fn modeled(&self) -> Nanos {
        Nanos::from_nanos(self.total_fuel() * NS_PER_FUEL)
    }

    /// Modelled cost per evaluation.
    pub fn modeled_per_evaluation(&self) -> Nanos {
        if self.evaluations == 0 {
            Nanos::ZERO
        } else {
            self.modeled() / self.evaluations
        }
    }

    /// Adds another block's counts into this one (the engine sums its
    /// monitors' blocks this way for the engine-wide views).
    pub fn merge(&mut self, other: &OverheadAccount) {
        self.evaluations += other.evaluations;
        self.violations += other.violations;
        self.trips += other.trips;
        self.rule_faults += other.rule_faults;
        self.watchdog_trips += other.watchdog_trips;
        self.commands_emitted += other.commands_emitted;
        self.rule_fuel += other.rule_fuel;
        self.action_fuel += other.action_fuel;
        for (sum, n) in self.actions.iter_mut().zip(other.actions) {
            *sum += n;
        }
        self.wall_ns += other.wall_ns;
    }
}

/// A named overhead summary row, as returned by the engine.
#[derive(Clone, Debug)]
pub struct OverheadReport {
    /// The guardrail name.
    pub guardrail: String,
    /// The account totals.
    pub account: OverheadAccount,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_cost_follows_fuel() {
        let a = OverheadAccount {
            evaluations: 2,
            rule_fuel: 16,
            action_fuel: 4,
            ..OverheadAccount::new()
        };
        assert_eq!(a.total_fuel(), 20);
        assert_eq!(a.modeled(), Nanos::from_nanos(20 * NS_PER_FUEL));
        assert_eq!(a.modeled_per_evaluation(), Nanos::from_nanos(20));
    }

    #[test]
    fn empty_account_is_zero() {
        let a = OverheadAccount::new();
        assert_eq!(a.modeled(), Nanos::ZERO);
        assert_eq!(a.modeled_per_evaluation(), Nanos::ZERO);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = OverheadAccount {
            evaluations: 1,
            rule_fuel: 10,
            wall_ns: 5,
            ..OverheadAccount::new()
        };
        let mut b = OverheadAccount {
            evaluations: 1,
            violations: 1,
            trips: 1,
            rule_faults: 2,
            watchdog_trips: 1,
            commands_emitted: 3,
            rule_fuel: 20,
            action_fuel: 3,
            wall_ns: 7,
            ..OverheadAccount::new()
        };
        b.actions[4] = 2;
        a.merge(&b);
        assert_eq!(a.evaluations, 2);
        assert_eq!(a.total_fuel(), 33);
        assert_eq!(a.wall_ns, 12);
        assert_eq!(
            (
                a.violations,
                a.trips,
                a.rule_faults,
                a.watchdog_trips,
                a.commands_emitted
            ),
            (1, 1, 2, 1, 3)
        );
        assert_eq!(a.actions, [0, 0, 0, 0, 2, 0]);
    }
}
