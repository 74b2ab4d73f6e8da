//! Golden schedule digests: the refactoring oracle, pinned.
//!
//! `determinism.rs` proves a run equals *itself*; this file pins what
//! the run *is*. Each scenario arms every observability layer, drives
//! one protocol path end to end, and folds the byte-exact trace, folded
//! profile, audit and journey exports plus `events_processed()` into one
//! FNV-1a digest (the *schedule* column). The *exports* column hashes
//! every other export of the same run — metrics snapshot and series,
//! critical path, ownership DOT, both explains, incident bundles — so a
//! change to how an export is *written* cannot hide behind an unchanged
//! schedule. A change that claims to preserve behaviour must leave every
//! constant below untouched; a change that means to move one pastes the
//! table the failing assert prints and says why.

mod common;

use common::{test_config, write_churn};
use rocksteady_cluster::scenarios::{self, preload_split, preload_tablets, slice, upper, TABLE};
use rocksteady_cluster::{
    Cluster, ClusterBuilder, ClusterConfig, ControlCmd, Fault, FlightRecorderConfig,
};
use rocksteady_common::{HashRange, MigrationId, ServerId, MILLISECOND};
use rocksteady_master::TabletRole;
use rocksteady_workload::YcsbConfig;

/// The pinned `(schedule, exports)` digests, in the order
/// `all_scenarios` runs them.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("migration/seed1234", 0x23b721d0d049c8a6, 0xc34d6eecf5b35143),
    ("migration/seed7", 0xf8143ae6837b7b64, 0xb07f2120c3ca09e9),
    ("migration/seed42", 0x5e6f0d0060925228, 0x22445c502978fccd),
    // The two crash digests were 0x0847cfcd3f037125 / 0x7f52d5742c1cbec7
    // while crash failover walked a hash map's buckets; they moved once,
    // when it became ascending RPC-id order (sorting the old walk alone
    // yields exactly these values). `crash/source` was then
    // 0x75a7f4b97e80badc / 0x4b89ae71be7712e3 until an abandoned run's
    // side segments began shipping on the bulk lane at the abandon
    // instead of inside the next client write's foreground ack group.
    ("crash/source", 0x56fdc71520a42126, 0x2b7f35c227228ac8),
    ("crash/target", 0xdb155193c3e8bdae, 0xced0571c805b951c),
    ("baseline/fig5", 0x733ed293b6e2a156, 0xe81dacd7bb620f39),
    (
        "migration/sync-priority-pulls",
        0x43e6ee802d12f3f3,
        0xcb2342a5fa958c67,
    ),
    (
        "migration/two-onto-one-target",
        0xf55dcb776b332df4,
        0x48c132f9ed045edb,
    ),
    (
        "migration/tracing-armed-mid-run",
        0xab4a3b3182938e49,
        0x061299223026b962,
    ),
    (
        "fault/drop-pulls-ring",
        0x07c7424269ab8c28,
        0xf458f8c0f3853ee2,
    ),
    // Was 0x088f01018b43e01d / 0x262429dd695a9b0d while cleaner survivors
    // went into the head and rode the next write's foreground shipment.
    (
        "migration/write-churn",
        0x5cb317b0da407795,
        0x447e52fec0f4cadc,
    ),
];

fn armed(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        tracing: true,
        profiling: true,
        audit: true,
        metrics: true,
        ..test_config()
    }
}

fn migrate(id: u64, range: HashRange, source: u32, target: u32) -> ControlCmd {
    ControlCmd::migrate(
        MigrationId(id),
        TABLE,
        range,
        ServerId(source),
        ServerId(target),
    )
}

/// One YCSB client over `keys` keys at `rate` ops/s, `reads` of them
/// reads, with `script` fired at the given times (ms).
fn build(
    cfg: ClusterConfig,
    keys: u64,
    rate: f64,
    reads: f64,
    script: Vec<(u64, ControlCmd)>,
) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, keys, rate);
    ycsb.read_fraction = reads;
    b.add_ycsb(ycsb);
    for (at_ms, cmd) in script {
        b.at(at_ms * MILLISECOND, cmd);
    }
    b.build()
}

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(schedule, exports)` digests of a finished run.
fn digest(cluster: &Cluster) -> (u64, u64) {
    cluster.finalize_profile();
    let schedule = [
        cluster.export_trace_json(),
        cluster.export_folded(),
        cluster.export_audit_json(),
        cluster.export_journeys_json(),
    ];
    let events = cluster.sim.events_processed().to_le_bytes();
    let none = || String::from("none");
    let exports = [
        cluster.export_metrics_json(),
        cluster.export_metrics_series_json(),
        cluster
            .critical_path_report()
            .map_or_else(none, |r| r.to_json()),
        cluster.export_audit_dot(),
        cluster
            .explain_migration(MigrationId(1))
            .unwrap_or_else(none),
        cluster
            .explain_slo_breach(0, cluster.now())
            .unwrap_or_else(none),
        cluster.export_incidents_json(),
    ];
    (
        fnv1a(schedule.iter().flat_map(|e| e.bytes()).chain(events)),
        fnv1a(exports.iter().flat_map(|e| e.bytes().chain([0]))),
    )
}

fn owner_of_upper(cluster: &Cluster) -> Option<ServerId> {
    let coord = cluster.coord.borrow();
    coord.tablet_for(TABLE, u64::MAX).map(|t| t.owner)
}

/// The `determinism.rs` scenario: YCSB-B across one Rocksteady
/// migration. `before_run` sees the built cluster; tracing is (re-)armed
/// at 6 ms, one millisecond into the migration.
fn live_migration(cfg: ClusterConfig, before_run: impl FnOnce(&Cluster)) -> (u64, u64) {
    let b = ClusterBuilder::new(cfg);
    let mut cluster = scenarios::live_migration(b, 5_000, 50_000.0, 5 * MILLISECOND);
    before_run(&cluster);
    cluster.run_until(6 * MILLISECOND);
    cluster.set_tracing(true);
    cluster.run_until(100 * MILLISECOND);
    let finished = cluster.migration_finished(ServerId(1), MigrationId(1));
    assert!(finished.is_some());
    digest(&cluster)
}

/// The `crash_during_migration.rs` setup: write-heavy load, `victim`
/// killed one millisecond into the migration, recovery runs to the end.
fn crash(victim: u32) -> (u64, u64) {
    let kill = ControlCmd::Kill {
        server: ServerId(victim),
        detect_after: MILLISECOND,
    };
    let script = vec![(10, migrate(1, upper(), 0, 1)), (11, kill)];
    let mut cluster = build(armed(42), 20_000, 60_000.0, 0.5, script);
    preload_split(&mut cluster, 20_000, 100);
    cluster.run_until(150 * MILLISECOND);
    assert_eq!(owner_of_upper(&cluster), Some(ServerId(1 - victim)));
    assert!(cluster.coord.borrow().lineage_deps().is_empty());
    digest(&cluster)
}

/// The Figure-5 baseline: the source scans, pushes, and transfers
/// ownership at the end, with re-replication on the target.
fn baseline() -> (u64, u64) {
    let start = ControlCmd::MigrateBaseline {
        table: TABLE,
        range: upper(),
        source: ServerId(0),
        target: ServerId(1),
        opts: Default::default(),
    };
    let mut cluster = build(armed(42), 5_000, 50_000.0, 0.95, vec![(5, start)]);
    preload_split(&mut cluster, 5_000, 100);
    let target = cluster.node(ServerId(1));
    target.master.add_tablet(TABLE, upper(), TabletRole::Owner);
    cluster.run_until(150 * MILLISECOND);
    assert_eq!(owner_of_upper(&cluster), Some(ServerId(1)));
    digest(&cluster)
}

/// Two migrations from different sources onto one target, in flight at
/// the same time, with the cleaner ticking on every server. Read-only:
/// a foreground write racing the first finisher's lazy re-replication
/// can overtake a delayed bulk chunk of the same segment and trip the
/// backup's offset check (a known gap, ROADMAP item 4).
fn two_onto_one_target() -> (u64, u64) {
    let cfg = ClusterConfig {
        servers: 4,
        cleaner_interval: Some(2 * MILLISECOND),
        ..armed(42)
    };
    let script = vec![
        (10, migrate(1, slice(1, 4), 0, 2)),
        (10, migrate(2, slice(3, 4), 1, 2)),
    ];
    let mut cluster = build(cfg, 20_000, 40_000.0, 1.0, script);
    preload_tablets(&mut cluster, &[0, 0, 1, 1].map(ServerId), 20_000, 100);
    cluster.run_until(150 * MILLISECOND);
    assert!(cluster.peak_concurrent_migrations() >= 2);
    for id in [1, 2].map(MigrationId) {
        assert!(cluster.migration_finished(ServerId(2), id).is_some());
    }
    digest(&cluster)
}

/// The source swallows every pull, so the migration stalls and the
/// flight recorder exports one incident bundle; both rings are small
/// enough to wrap, so every `dropped` field and every evicted-prefix
/// path (chain lookups, truncated journeys) is exercised.
fn drop_pulls_in_ring_mode() -> (u64, u64) {
    let cfg = ClusterConfig {
        sla: Some(300_000),
        flight_recorder: Some(FlightRecorderConfig {
            trace_capacity: Some(2_048),
            audit_capacity: Some(32),
            ..FlightRecorderConfig::default()
        }),
        ..armed(42)
    };
    let mut b = ClusterBuilder::new(cfg);
    b.fault(ServerId(0), Fault::DropPulls);
    let mut cluster = scenarios::live_migration(b, 5_000, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(100 * MILLISECOND);
    assert_eq!(cluster.incident_count(), 1);
    assert!(cluster.trace.dropped() > 0 && cluster.audit.dropped() > 0);
    digest(&cluster)
}

fn all_scenarios() -> Vec<(&'static str, (u64, u64))> {
    let plain = |seed| live_migration(armed(seed), |_| {});
    let mut sync_pulls = armed(42);
    sync_pulls.migration.sync_priority_pulls = true;
    vec![
        ("migration/seed1234", plain(1234)),
        ("migration/seed7", plain(7)),
        ("migration/seed42", plain(42)),
        ("crash/source", crash(0)),
        ("crash/target", crash(1)),
        ("baseline/fig5", baseline()),
        (
            "migration/sync-priority-pulls",
            live_migration(sync_pulls, |_| {}),
        ),
        ("migration/two-onto-one-target", two_onto_one_target()),
        (
            "migration/tracing-armed-mid-run",
            live_migration(armed(42), |c| c.set_tracing(false)),
        ),
        ("fault/drop-pulls-ring", drop_pulls_in_ring_mode()),
        ("migration/write-churn", digest(&write_churn(armed(42), 1))),
    ]
}

#[test]
fn schedules_match_the_pinned_digests() {
    let got: Vec<_> = all_scenarios()
        .into_iter()
        .map(|(name, (schedule, exports))| (name, schedule, exports))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, s, e)| format!("    (\"{name}\", {s:#018x}, {e:#018x}),\n"))
        .collect();
    assert!(
        got.as_slice() == GOLDEN,
        "digests moved; if intended, GOLDEN becomes:\n{table}"
    );
}
