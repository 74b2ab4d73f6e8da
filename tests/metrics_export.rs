//! Acceptance tests for the unified metrics registry: deterministic
//! exports, the no-perturbation contract, the live SLO monitor, and
//! stat-reset semantics across back-to-back migrations.

mod common;

use common::{assert_read_back, test_config};
use rocksteady_cluster::scenarios::{preload_split, slice, upper, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::{MigrationId, Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_metrics::SampleValue;
use rocksteady_workload::YcsbConfig;

fn ycsb_cluster(cfg: ClusterConfig, keys: u64, ops_per_sec: f64) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    b.add_ycsb(YcsbConfig::ycsb_b(dir, TABLE, keys, ops_per_sec));
    let mut cluster = b.build();
    preload_split(&mut cluster, keys, 100);
    cluster
}

/// Same seed → byte-identical JSON and snapshot-series JSON; different
/// seed → different values. The exports are the metrics analogue of the
/// trace layer's chrome JSON contract.
#[test]
fn same_seed_metrics_exports_are_byte_identical() {
    let export = |seed: u64| {
        let mut cfg = test_config();
        cfg.seed = seed;
        cfg.metrics = true;
        cfg.sla = Some(200_000);
        let mut cluster = ycsb_cluster(cfg, 1_000, 30_000.0);
        cluster.run_until(20 * MILLISECOND);
        cluster
            .metrics
            .validate()
            .expect("registry invariants hold");
        (
            cluster.export_metrics_json(),
            cluster.export_metrics_series_json(),
        )
    };
    let a = export(7);
    assert_eq!(a, export(7), "same-seed exports differ");
    assert_ne!(
        a.0,
        export(8).0,
        "different seeds exported identical metrics"
    );

    // The exports carry every layer's families: server counters, client
    // histograms, and the SLO monitor's gauges.
    for family in [
        "node_ops_served",
        "node_dispatch_busy_ns",
        "client_read_latency_ns",
        "slo_read_sla_ns",
        "slo_breach_intervals_total",
    ] {
        assert!(a.0.contains(family), "JSON export lacks {family}");
    }
    assert!(a
        .0
        .contains(r#"{"name":"node_ops_served","labels":{"server":"0"},"type":"counter""#));
    assert!(a.0.contains(r#""type":"histogram""#) && a.0.contains(r#""p999":"#));
    // One snapshot per sampling interval made it into the series.
    let snapshots = a.1.matches("{\"at\":").count();
    assert!(
        (15..=21).contains(&snapshots),
        "expected ~20 snapshots over 20 ms at a 1 ms cadence, got {snapshots}"
    );
}

/// Arming metrics capture and an SLA must not change the event
/// schedule: instruments always record, and the observer ticks on a
/// fixed cadence either way.
#[test]
fn arming_metrics_and_sla_does_not_perturb_the_simulation() {
    let run = |armed: bool| {
        let mut cfg = test_config();
        if armed {
            cfg.metrics = true;
            cfg.sla = Some(100_000);
        }
        let mut cluster = ycsb_cluster(cfg, 1_000, 30_000.0);
        cluster.run_until(20 * MILLISECOND);
        let snaps = cluster.snapshots.borrow().len();
        (
            cluster.sim.events_processed(),
            snaps,
            cluster.export_metrics_json(),
        )
    };
    let (events_off, snaps_off, json_off) = run(false);
    let (events_on, snaps_on, json_on) = run(true);
    assert_eq!(snaps_off, 0, "disarmed capture buffered snapshots");
    assert!(snaps_on > 0, "armed capture buffered nothing");
    assert_eq!(
        events_off, events_on,
        "arming metrics changed the simulation's event schedule"
    );
    // On-demand export works regardless of capture, and sees the same
    // simulation — only the SLO gauges reflect the configured SLA.
    assert!(json_off.contains("node_ops_served"));
    assert_ne!(json_off, json_on, "the SLA gauge should differ");
}

fn slo_run(migrate: bool, sla: Nanos) -> (rocksteady_cluster::SloReport, u64) {
    let mut cfg = test_config();
    cfg.sla = Some(sla);
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    b.add_ycsb(YcsbConfig::ycsb_b(dir, TABLE, 3_000, 40_000.0));
    if migrate {
        b.at(
            10 * MILLISECOND,
            ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
        );
    }
    let mut cluster = b.build();
    preload_split(&mut cluster, 3_000, 100);
    if migrate {
        cluster
            .run_until_migrated(ServerId(1), MigrationId(1), SECOND)
            .expect("migration never finished");
    }
    cluster.run_until(150 * MILLISECOND);
    let breaches = match cluster
        .metrics
        .snapshot(cluster.now())
        .get("slo_breach_intervals_total", &[])
    {
        Some(SampleValue::Counter(v)) => *v,
        other => panic!("breach counter missing: {other:?}"),
    };
    (cluster.slo_report(), breaches)
}

/// The live monitor sees an unthrottled migration blow through a tight
/// read SLA (breach intervals accumulate), while the same workload and
/// SLA without a migration stays clean with positive headroom.
#[test]
fn slo_monitor_flags_migration_breaches_but_not_idle_load() {
    // Calibration (§2 anchors): idle windowed p999 sits near 7 us at
    // this load; an unthrottled migration spikes it past 50 us. A 20 us
    // SLA is ~3x above idle and ~3x below the migration spike.
    const SLA: Nanos = 20_000;
    let (idle, idle_breaches) = slo_run(false, SLA);
    assert_eq!(idle.sla, Some(SLA));
    assert_eq!(
        idle_breaches, 0,
        "SLA breached without a migration (idle p999 {} ns)",
        idle.p999
    );
    assert_eq!(idle.breach_intervals, 0);
    assert!(idle.window_reads > 0, "no reads in the final idle window");
    assert!(!idle.breached());

    let (mig, mig_breaches) = slo_run(true, SLA);
    assert!(
        mig_breaches > 0,
        "unthrottled migration never breached a {SLA} ns SLA (last window p999 {} ns)",
        mig.p999
    );
    assert_eq!(
        mig.breach_intervals, mig_breaches,
        "report and counter agree"
    );
}

/// Back-to-back migrations onto one target keep one record each: while
/// the second run is in flight its record reads started and not
/// finished, and the first run's finish stays where it was.
#[test]
fn back_to_back_migrations_keep_one_record_each() {
    let mut b = ClusterBuilder::new(test_config());
    b.at(
        5 * MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );
    b.at(
        500 * MILLISECOND,
        ControlCmd::migrate(MigrationId(2), TABLE, slice(0, 2), ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    preload_split(&mut cluster, 3_000, 100);

    let first = cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 400 * MILLISECOND)
        .expect("first migration never finished");
    assert!(first < 400 * MILLISECOND);

    // Poll in 10 us steps until the second run's record appears (the
    // unloaded run takes ~300 us, so the in-flight state is visible at
    // this granularity).
    cluster.run_until(500 * MILLISECOND);
    let mut saw_in_flight = false;
    for step in 1..=2_000u64 {
        cluster.run_until(500 * MILLISECOND + step * 10_000);
        let stats = &cluster.server_stats[&ServerId(1)];
        if let Some(run) = stats.migration_run(MigrationId(2)) {
            assert!(run.started_at >= 500 * MILLISECOND);
            assert!(run.in_flight(), "second run seen finished: {run:?}");
            assert_eq!(
                cluster.migration_finished(ServerId(1), MigrationId(1)),
                Some(first),
                "the second run moved the first run's finish"
            );
            saw_in_flight = true;
            break;
        }
    }
    assert!(saw_in_flight, "second migration never began");

    // Waiting on the second migration observes its own completion.
    let second = cluster
        .run_until_migrated(ServerId(1), MigrationId(2), 5 * SECOND)
        .expect("second migration never finished");
    assert!(
        second > 500 * MILLISECOND,
        "run_until_migrated returned the first run's finish ({second})"
    );

    // Both halves moved; every record is readable on the new owner, and
    // the cumulative replay counter covers the whole table.
    assert_read_back(&mut cluster, 3_000);
    let final_view = cluster.server_stats[&ServerId(1)].view();
    assert!(
        final_view.records_replayed >= 3_000,
        "replayed only {} of 3000 records across both runs",
        final_view.records_replayed
    );

    // The sampler differenced cleanly across both runs: utilization
    // samples stay in range (no underflow blow-ups).
    for points in cluster.util.borrow().by_server.values() {
        for p in points {
            assert!(
                (0.0..=1.0).contains(&p.dispatch),
                "dispatch utilization out of range: {}",
                p.dispatch
            );
        }
    }
}
