//! Flash-storage substrate: the LinnOS reproduction setting (§5, Figure 2).
//!
//! LinnOS (Hao et al., OSDI '20) predicts per-I/O latency on flash SSDs with
//! a light neural network; storage clusters with built-in failover (flash
//! RAID) use the prediction to *revoke* an I/O headed for a busy device and
//! re-issue it to a replica. A misprediction can submit an I/O to a slow
//! disk — a **false submit** — and a high false-submit rate erases the
//! benefit of the learned policy.
//!
//! This crate implements the whole setting:
//!
//! - [`device`]: a flash device with queueing and garbage-collection pauses
//!   (the source of latency bimodality that makes prediction valuable);
//! - [`workload`]: open-loop arrival processes with controllable
//!   distribution shift;
//! - [`linnos`]: the LinnOS-style MLP classifier over queue-depth +
//!   latency-history features, trained online;
//! - [`mod@array`]: the 2-replica flash array with revoke/failover submission;
//! - [`sim`]: the one Figure 2 datapath (`sim::Datapath`: array,
//!   classifier and workload on a training/shift timeline, with the
//!   false-submit-rate window) and the end-to-end simulation that wires it
//!   to the guardrail monitor engine and produces Figure 2's latency series;
//! - [`faultsim`]: chaos-harness scenarios that drive the same datapath
//!   under injected faults, contrasting the seed guardrail runtime with the
//!   hardened one (experiment E9);
//! - [`recovery`]: crash-restart scenarios that drive the same datapath
//!   while killing and rebooting the guardrail runtime itself, contrasting
//!   the seed runtime (loses every guardrail decision) with the
//!   crash-consistent recovery runtime (WAL + snapshot store, engine
//!   checkpoint, supervised restarts — experiment E10).

#![warn(missing_docs)]

pub mod array;
pub mod device;
pub mod faultsim;
pub mod linnos;
pub mod recovery;
pub mod sim;
pub mod workload;

pub use array::{FlashArray, SubmitOutcome};
pub use device::{FlashDevice, FlashDeviceConfig};
pub use faultsim::{
    fault_label, fault_matrix, quiet_injected_panics, run_fault_pair, run_fault_scenario,
    FaultRunReport,
};
pub use linnos::{LinnosClassifier, LinnosConfig};
pub use recovery::{
    recovery_matrix, run_crash_loop, run_crash_pair, run_crash_scenario, run_no_crash_reference,
    RecoveryRunReport,
};
pub use sim::{run_fig2, LinnosSim, LinnosSimConfig, SimReport};
pub use workload::{Workload, WorkloadConfig};
