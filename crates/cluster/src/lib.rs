//! The cluster harness: wires coordinator, servers, and clients into one
//! deterministic simulation and drives experiments.
//!
//! Reproduces the paper's experimental rig (§4.1): one coordinator, `N`
//! servers each running a master and a backup behind one dispatch core
//! and `W` workers, clients offering load, a control actor that fires
//! scripted events (start a migration at t=10s, kill the target at
//! t=15s), and one observer that, every sampling interval, runs the
//! autonomous rebalancer's placement decision when armed and due,
//! derives per-server utilization and migration progress (the raw series
//! behind Figures 5 and 9–14), closes an SLO window over the clients'
//! read latencies, and runs the flight recorder's detectors when armed.
//!
//! Everything is driven through [`ClusterBuilder`] (declare topology,
//! clients, script) and [`Cluster`] (preload data, run, harvest series).

pub mod control;
pub mod coordinator_actor;
pub mod harness;
pub mod incident;
mod observer;
pub mod rebalancer;
pub mod sampler;
pub mod scenarios;
pub mod slo;
pub mod watchdog;

pub use control::{ControlCmd, ControlEvent};
pub use coordinator_actor::CoordinatorActor;
pub use harness::{Cluster, ClusterBuilder, ClusterConfig};
pub use incident::{incidents_to_json, summarize, Incident, INCIDENT_SCHEMA};
pub use rebalancer::{
    IssuedMove, RebalancerConfig, RebalancerHandle, RebalancerReport, REBALANCER_MIG_BASE,
};
pub use rocksteady_flightrec::{
    DetectorConfig, DetectorReading, DispatchOvercommitConfig, FlightRecorderConfig,
    LineageAgeConfig, MigrationStallConfig, ReplayBacklogConfig, SloBurnConfig,
};
pub use rocksteady_profiler::{
    core_label, critical_path, Activity, CoreLedger, CoreProfile, CriticalPathComponent,
    CriticalPathReport, ProfileSummary, Profiler,
};
pub use rocksteady_rebalancer::{
    AdmissionCaps, ClusterView, GreedyLoadDelta, MoveInFlight, MoveProposal, PlacementPolicy,
    ServerLoad, TabletInfo,
};
pub use rocksteady_simnet::SchedulerKind;
pub use rocksteady_trace::journey::{Hop, Journey, JOURNEYS_SCHEMA};
pub use sampler::{SnapshotLogHandle, UtilPoint, UtilSeries, UtilSeriesHandle};
pub use slo::{SloHandle, SloReport};
pub use watchdog::{IncidentLogHandle, TRACE_DROPPED_FAMILY};
