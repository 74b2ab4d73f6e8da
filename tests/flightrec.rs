//! The always-on flight recorder, end to end.
//!
//! Pins the recorder's four contracts:
//!
//! - **Non-perturbing**: arming the recorder (default config — no ring
//!   capacities) leaves `events_processed()`, the trace export, and the
//!   folded profile byte-identical to a disarmed run of the same seed.
//! - **Quiet when healthy**: clean migrations under load across several
//!   seeds produce zero incidents.
//! - **Sensitive to injected faults**: a stalled migration (source
//!   swallows pulls), a replay backlog (target defers replay), and an
//!   SLO burn each produce *exactly one* incident bundle whose trigger
//!   names the right dominant cause — and the bundle is byte-identical
//!   across same-seed runs.
//! - **Bounded in ring mode**: with ring capacities set, the trace
//!   buffer never exceeds its capacity while the drop counters account
//!   for everything evicted.

mod common;

use common::test_config;
use rocksteady_cluster::scenarios::live_migration;
use rocksteady_cluster::{
    Cluster, ClusterBuilder, ClusterConfig, Fault, FlightRecorderConfig, ReplayBacklogConfig,
    SloBurnConfig,
};
use rocksteady_common::{MigrationId, ServerId, MILLISECOND};

const KEYS: u64 = 5_000;

fn recorded_cfg(seed: u64, fr: Option<FlightRecorderConfig>) -> ClusterConfig {
    ClusterConfig {
        seed,
        tracing: true,
        profiling: true,
        audit: true,
        sla: Some(300_000),
        flight_recorder: fr,
        ..test_config()
    }
}

fn run_recorded(cfg: ClusterConfig) -> Cluster {
    run_faulted(cfg, None)
}

fn run_faulted(cfg: ClusterConfig, fault: Option<(ServerId, Fault)>) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    if let Some((server, fault)) = fault {
        b.fault(server, fault);
    }
    let mut cluster = live_migration(b, KEYS, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(100 * MILLISECOND);
    cluster
}

/// Arming the recorder must not move a single event: schedule, trace,
/// and profile are byte-identical to the disarmed run — the watchdog
/// actor ticks on the same cadence either way, and the default config
/// leaves both ring buffers unbounded.
#[test]
fn armed_recorder_is_byte_identical_to_disarmed() {
    let digest = |fr: Option<FlightRecorderConfig>| {
        let cluster = run_recorded(recorded_cfg(77, fr));
        cluster.finalize_profile();
        (
            cluster.sim.events_processed(),
            cluster.export_trace_json(),
            cluster.export_folded(),
        )
    };
    let off = digest(None);
    let on = digest(Some(FlightRecorderConfig::default()));
    assert_eq!(off.0, on.0, "recorder arming changed events_processed");
    assert_eq!(off.1, on.1, "recorder arming changed the trace export");
    assert_eq!(off.2, on.2, "recorder arming changed the folded profile");
}

/// Healthy migrations under load, several seeds: the watchdog evaluates
/// every detector on every interval and none of them fires.
#[test]
fn clean_runs_produce_zero_incidents() {
    for seed in [42, 7, 9] {
        let cluster = run_recorded(recorded_cfg(seed, Some(FlightRecorderConfig::default())));
        assert!(
            cluster
                .migration_finished(ServerId(1), MigrationId(1))
                .is_some(),
            "seed {seed}: migration never finished"
        );
        assert_eq!(
            cluster.incident_count(),
            0,
            "seed {seed}: false positive: {}",
            cluster.export_incidents_json()
        );
        assert_eq!(cluster.export_incidents_json(), "[]");
    }
}

/// The source swallowing every pull stalls gather forever; the
/// migration-stall detector must catch it, exactly once, and the bundle
/// must carry the whole forensic record.
#[test]
fn stalled_migration_fires_exactly_one_incident() {
    let run = || {
        let cfg = recorded_cfg(42, Some(FlightRecorderConfig::default()));
        run_faulted(cfg, Some((ServerId(0), Fault::DropPulls)))
    };
    let cluster = run();

    let incidents = cluster.incident_log();
    assert_eq!(
        incidents.len(),
        1,
        "expected exactly one incident, got: {}",
        cluster.export_incidents_json()
    );
    let inc = &incidents[0];
    assert_eq!(inc.trigger, "migration-stall");
    assert!(inc
        .bundle
        .starts_with("{\"schema\":\"rocksteady-incident-v1\""));
    assert!(inc.bundle.contains("\"trigger\":\"migration-stall\""));
    // The reading names the stalled migration and its zero progress.
    assert!(inc.bundle.contains("\"subject\":1"));
    assert!(inc.bundle.contains("no gather/replay advance"));
    // The frozen layers all made it in: trace slice, metrics deltas,
    // profiler ledger, audit tail, and the migration's causal explain.
    assert!(inc.bundle.contains("\"trace\":{"));
    assert!(inc.bundle.contains("\"metrics\":["));
    assert!(inc.bundle.contains("\"profiler\":["));
    assert!(inc.bundle.contains("\"audit\":{"));
    assert!(inc
        .bundle
        .contains("\"explain\":{\"kind\":\"migration\",\"id\":1"));
    assert!(inc.bundle.contains("\"outcome\":\"in-flight\""));

    // Byte-determinism: same seed, same bundle.
    let again = run();
    assert_eq!(
        cluster.export_incidents_json(),
        again.export_incidents_json(),
        "incident bundle not byte-identical across same-seed runs"
    );
}

/// The target deferring every replay batch lets gather race ahead of
/// replay; the replay-backlog watermark must catch the divergence,
/// exactly once, before the stall detector's longer fuse.
#[test]
fn replay_backlog_fires_exactly_one_incident() {
    let mut fr = FlightRecorderConfig::default();
    // 5k records total, ~2.5k in the migrating half: a 500-record
    // watermark is deep enough to prove divergence, shallow enough to
    // trip within the run.
    fr.detectors.replay_backlog = Some(ReplayBacklogConfig {
        watermark_records: 500,
        sustain_intervals: 3,
    });
    let fault = (ServerId(1), Fault::DeferReplay);
    let cluster = run_faulted(recorded_cfg(42, Some(fr)), Some(fault));

    let incidents = cluster.incident_log();
    assert_eq!(
        incidents.len(),
        1,
        "expected exactly one incident, got: {}",
        cluster.export_incidents_json()
    );
    let inc = &incidents[0];
    assert_eq!(inc.trigger, "replay-backlog");
    assert!(inc.bundle.contains("\"trigger\":\"replay-backlog\""));
    assert!(inc.bundle.contains("gathered but not"));
    assert!(inc
        .bundle
        .contains("\"explain\":{\"kind\":\"migration\",\"id\":1"));
}

/// A sustained SLO burn (tightened burn thresholds around the
/// migration's replay pressure) fires the multi-window burn detector,
/// exactly once, and the bundle's explain ranks the migration as the
/// dominant cause of the breach window.
#[test]
fn slo_burn_fires_exactly_one_incident_naming_the_migration() {
    let mut fr = FlightRecorderConfig::default();
    // Tight burn policy: a handful of breached intervals inside the
    // windows is enough. The clean-run test above proves the *default*
    // thresholds stay quiet on this exact scenario.
    fr.detectors.slo_burn = Some(SloBurnConfig {
        fast_threshold_permille: 100,
        slow_threshold_permille: 50,
    });
    let cluster = run_recorded(recorded_cfg(42, Some(fr)));

    let incidents = cluster.incident_log();
    assert_eq!(
        incidents.len(),
        1,
        "expected exactly one incident, got: {}",
        cluster.export_incidents_json()
    );
    let inc = &incidents[0];
    assert_eq!(inc.trigger, "slo-burn");
    assert!(inc.bundle.contains("\"trigger\":\"slo-burn\""));
    assert!(inc.bundle.contains("SLO burn rate"));
    // The causal explain ranks the migration as the top suspect for
    // the breach window.
    assert!(
        inc.bundle.contains("\"explain\":{\"kind\":\"slo-breach\""),
        "missing breach explain: {}",
        &inc.bundle[inc.bundle.len().saturating_sub(400)..]
    );
    assert!(inc
        .bundle
        .contains("\"rank\":1,\"cause\":\"migration\",\"id\":1"));
}

/// Ring mode bounds recorder memory: with a trace capacity set, the
/// buffer never exceeds it, events beyond capacity are dropped (and
/// counted), and the trace still validates and exports.
#[test]
fn ring_mode_keeps_trace_memory_bounded() {
    let fr = FlightRecorderConfig {
        trace_capacity: Some(4096),
        audit_capacity: Some(1024),
        ..FlightRecorderConfig::default()
    };
    let cluster = run_recorded(recorded_cfg(42, Some(fr)));

    assert!(cluster.trace.len() <= 4096, "ring exceeded its capacity");
    assert!(
        cluster.trace.dropped() > 0,
        "run too small to exercise compaction"
    );
    cluster
        .trace
        .validate()
        .expect("wrapped ring must validate");
    // Drop accounting surfaces in the registry (satellite: the
    // `trace_events_dropped_total` family).
    let prom = cluster.export_metrics_prometheus();
    assert!(prom.contains("trace_events_dropped_total"));
    // The audit ring kept its checker state: total ingested events
    // exceed what the bounded buffer retains.
    assert!(cluster.audit.dropped() > 0 || cluster.audit.events_len() <= 1024);
    assert_eq!(cluster.audit_report().violations, 0);
}
