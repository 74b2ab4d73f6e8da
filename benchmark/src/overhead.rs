//! The overhead matrix: what arming each observability layer costs in
//! host time on one fixed scenario — `serve_migrate` cut to a quarter
//! of its records and 0.25 s simulated. Armed and disarmed runs share
//! one process; each ratio is the fastest armed run over the fastest
//! disarmed run.

use rocksteady_cluster::{ClusterConfig, FlightRecorderConfig};

use crate::probes::Results;
use crate::spans::Recorder;
use crate::workloads::{arm_all_ring, ring_recorder, run_round, RoundOpts, Workload};

type Arm = fn(&mut ClusterConfig);

/// Each layer armed alone, then all together the way
/// `observed_rebalance` arms them.
const ARMS: [(&str, Arm); 7] = [
    ("overhead.trace_x1000", |c| c.tracing = true),
    ("overhead.trace_ring_x1000", |c| {
        // The trace ring without the watchdog's detectors.
        let mut fr = ring_recorder();
        fr.audit_capacity = None;
        fr.detectors.migration_stall = None;
        fr.detectors.replay_backlog = None;
        fr.detectors.dispatch_overcommit = None;
        fr.detectors.lineage_age = None;
        c.flight_recorder = Some(fr);
    }),
    ("overhead.profiler_x1000", |c| c.profiling = true),
    ("overhead.audit_x1000", |c| c.audit = true),
    ("overhead.metrics_x1000", |c| c.metrics = true),
    ("overhead.flightrec_x1000", |c| {
        // The watchdog alone: detectors on, no ring capacities.
        let mut fr = FlightRecorderConfig::default();
        fr.detectors.slo_burn = None;
        c.flight_recorder = Some(fr);
    }),
    ("overhead.all_ring_x1000", arm_all_ring),
];

/// Runs the matrix at `1/scale`; returns the ratios (×1000) and any
/// correctness-gate failures of its runs.
pub fn matrix(seed: u64, scale: u64) -> (Results, Vec<String>) {
    let scn = Workload::ServeMigrate.scenario(scale).cut(4, 2);
    let mut rec = Recorder::default();
    let mut problems = Vec::new();
    let mut run = |name: &str, arm: Option<Arm>| -> f64 {
        let opts = RoundOpts {
            seed,
            round: 0,
            traced: false,
            verify: false,
            arm,
        };
        let round = run_round(&scn, opts, &mut rec);
        problems.extend(round.problems.iter().map(|p| format!("{name}: {p}")));
        round.run_s
    };
    run("warm-up", None);
    // Two passes, a disarmed run before, between and after them; the
    // fastest run of each configuration stands for it, since what
    // disturbs a run only ever slows it.
    let mut base = run("disarmed", None);
    let mut armed = [f64::INFINITY; ARMS.len()];
    for _ in 0..2 {
        for (slot, (name, arm)) in armed.iter_mut().zip(ARMS) {
            *slot = slot.min(run(name, Some(arm)));
        }
        base = base.min(run("disarmed", None));
    }
    let out = ARMS
        .iter()
        .zip(armed)
        .map(|((name, _), run_s)| (*name, run_s / base * 1000.0))
        .collect();
    (out, problems)
}
