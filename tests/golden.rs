//! Golden schedule digests: the refactoring oracle, pinned.
//!
//! `determinism.rs` proves a run equals *itself*; this file pins what
//! the run *is*. Each scenario arms every observability layer, drives
//! one protocol path end to end, and folds the byte-exact trace, folded
//! profile, audit and journey exports into one FNV-1a digest (the
//! *schedule* column). The *exports* column hashes every other export of
//! the same run — metrics snapshot and series, critical path, both
//! explains, incident bundles — so a change to how an export is
//! *written* cannot hide behind an unchanged schedule. The *events*
//! column is `events_processed()`, pinned apart so that a change to how
//! many events the kernel runs (fewer timers) shows that no export moved
//! with it. A
//! change that claims to preserve behaviour must leave every constant
//! below untouched; a change that means to move one pastes the table
//! the failing assert prints and says why.

mod common;

use std::collections::BTreeSet;
use std::fs;
use std::sync::OnceLock;

use common::{test_config, write_churn};
use rocksteady::PriorityPulls;
use rocksteady_audit::invariants::LINEARIZABLE;
use rocksteady_audit::AuditKind;
use rocksteady_cluster::scenarios::{self, preload_split, preload_tablets, slice, upper, TABLE};
use rocksteady_cluster::{
    AdmissionCaps, Cluster, ClusterBuilder, ClusterConfig, ControlCmd, FlightRecorderConfig,
    GreedyLoadDelta, RebalancerConfig,
};
use rocksteady_common::{HashRange, MigrationId, ServerId, MILLISECOND};
use rocksteady_logstore::LogRef;
use rocksteady_master::TabletRole;
use rocksteady_workload::{LoadShape, YcsbConfig};

/// The pinned `(schedule, exports, events)` of each scenario, in the order
/// `all_scenarios` runs them. Every digest moved once, when YCSB clients
/// stopped emitting audit events and began reporting each operation to
/// the `linearizable` check: the audit JSON lost its client events, the
/// per-invariant row `read-your-writes` became `linearizable` (in the
/// metrics too), and event sequence numbers shifted; `drop-pulls-ring`'s
/// audit ring shrank from 32 to 4 to still wrap on 7 events. The trace,
/// folded profile, journeys and `events_processed()` did not move.
/// Every exports digest moved once more, and no schedule digest, when
/// the ownership DOT graph left the exports hash: the audit JSON's
/// `timeline` carries every transfer it drew (checked in `digest`).
/// Every exports digest moved once more, and no schedule digest, when
/// the metrics JSON lost the three `node_migration_*_at_ns` gauge
/// families: a migration run's one record is its per-run stamps.
/// Both of `rebalance/hot-quarter`'s digests moved, and no other, when
/// the audit stream stopped recording the rebalancer's proposals and
/// move outcomes: that run held one of each, so the audit JSON's
/// `events` fell from 48 to 46 (schedule), as did `audit_events_total`
/// in the metrics snapshot and series and the sequence numbers in the
/// breach explain's chains (exports). Its trace, folded profile,
/// journeys, `events_processed()` and every audit verdict are unchanged.
/// Every schedule digest moved once, and no exports digest, when the
/// event count left the schedule fold for the events column: run on the
/// code of the time, this test printed the schedule and exports digests
/// below. Only the events column moved when each YCSB client came to
/// arm one deadline timer instead of one per attempt
/// (`migration/seed1234` 32 555 → 28 087): the timers it dropped had
/// never timed anything out, so no export moved.
/// Every exports digest moved once more when the metrics lost the
/// `node_recovery_fetch_failovers` family: the parent commit with only
/// that family removed printed the new exports digests of every row
/// without a crash. The two crash rows moved for a reason of their own,
/// noted beside them.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    (
        "migration/seed1234",
        0x6779688b181812d7,
        0xe7f19113655d6b7b,
        28087,
    ),
    (
        "migration/seed7",
        0xe1ad792848e2d0e6,
        0x556ab055243f0da0,
        28136,
    ),
    (
        "migration/seed42",
        0x02df9a9f4af9193c,
        0xe9db009ec5889dbb,
        28131,
    ),
    // Schedule, exports and events (74 148 → 74 123) moved when crash
    // recovery came to replay through the migration target's pipeline:
    // one batch per fetched segment on any idle worker, into side logs
    // committed after the last batch, and a claim that waits on the
    // heads and the adopted segments with no worker held, where one task
    // had replayed everything into the main log and held its worker.
    (
        "crash/source",
        0x0e04706fe0e14e44,
        0x12c9e45ff1edc4c1,
        74123,
    ),
    // Schedule, exports and events (72 418 → 72 424) moved for the
    // reason `crash/source` gives: the source replays the target's log
    // tail one batch per segment into side logs, and claims the merged
    // range once those and its heads are durable.
    (
        "crash/target",
        0xdd87ca2824fc4daa,
        0x1328dda5a5065ca8,
        72424,
    ),
    (
        "baseline/fig5",
        0x4e398ede26863625,
        0x245e0f3085560208,
        41774,
    ),
    (
        "migration/sync-priority-pulls",
        0x006249661aa5cf6f,
        0x5918b1110332b51d,
        28124,
    ),
    (
        "migration/two-onto-one-target",
        0xa51db9e660e57b8d,
        0x3c35af3868f0a2c6,
        31815,
    ),
    (
        "migration/tracing-armed-mid-run",
        0xf1965d6771951f19,
        0xedef0c8fb78663f8,
        28131,
    ),
    (
        "fault/drop-pulls-ring",
        0xc2e92e4f4f049c8a,
        0x9abaaf7dc7aea111,
        20815,
    ),
    (
        "migration/write-churn",
        0xafb74befd332d417,
        0xe90ccbda92429414,
        166452,
    ),
    // Schedule moved once, exports not, when the rebalancer became the
    // observer's fourth reader: client actor ids fell by one (trace pids,
    // audit client ids, journeys) and `events_processed()` by its ticks.
    (
        "rebalance/hot-quarter",
        0xbf788c71ff703ffe,
        0x122b6564c6c82db6,
        31033,
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

/// `(from, owner)` of every segment in the audit JSON's `timeline`.
fn timeline_segments(audit_json: &str) -> Vec<(u64, u64)> {
    let start = audit_json
        .find("\"timeline\":[")
        .expect("audit JSON has a timeline");
    let end = start + audit_json[start..].find("\"violations\":").unwrap();
    let number = |s: &str, key: &str| -> u64 {
        let at = s
            .find(key)
            .unwrap_or_else(|| panic!("{key} missing in {s}"))
            + key.len();
        let digits = s[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.unwrap().parse().unwrap()
    };
    audit_json[start..end]
        .split("{\"from\":")
        .skip(1)
        .map(|seg| (number(seg, ""), number(seg, "\"owner\":")))
        .collect()
}

/// Every ownership transfer the audit retained — a migration start, a
/// baseline flip, a recovery assignment — opens a timeline segment at
/// its time owned by the new owner. The previous owner is not checked:
/// during a migration the timeline already shows the target, so the
/// segment a recovery closes may be the target's, not the crashed one's.
fn assert_timeline_carries_transfers(cluster: &Cluster) {
    let segments = timeline_segments(&cluster.export_audit_json());
    let transfers: Vec<(u64, u64)> = cluster
        .audit
        .with_events(|events| {
            events
                .iter()
                .filter_map(|ev| match ev.kind {
                    AuditKind::MigrationStart { target, .. }
                    | AuditKind::BaselineFlip { target, .. } => Some((ev.at, target.0.into())),
                    AuditKind::RecoveryPlanned {
                        recovery_master, ..
                    } => Some((ev.at, recovery_master.0.into())),
                    _ => None,
                })
                .collect()
        })
        .expect("every scenario arms the audit");
    assert!(!transfers.is_empty(), "no ownership transfer retained");
    for transfer in &transfers {
        assert!(
            segments.contains(transfer),
            "transfer (at, new owner) {transfer:?} has no timeline segment: {segments:?}"
        );
    }
}

/// What the golden table keeps of one finished run.
struct Run {
    schedule: u64,
    exports: u64,
    events: u64,
    /// The labels of the audit events the run retained.
    labels: BTreeSet<&'static str>,
}

/// The digests and audit labels of a finished run, whose clients saw a
/// linearizable history and whose audit timeline carries every
/// ownership transfer.
fn digest(cluster: &Cluster) -> Run {
    let (_, _, stale) = cluster.audit_report().per_invariant[LINEARIZABLE];
    assert_eq!(stale, 0, "{:?}", cluster.audit.violations());
    assert_timeline_carries_transfers(cluster);
    cluster.finalize_profile();
    let schedule = [
        cluster.export_trace_json(),
        cluster.export_folded(),
        cluster.export_audit_json(),
        cluster.export_journeys_json(),
    ];
    let none = || String::from("none");
    let exports = [
        cluster.export_metrics_json(),
        cluster.export_metrics_series_json(),
        cluster
            .critical_path_report()
            .map_or_else(none, |r| r.to_json()),
        cluster
            .explain_migration(MigrationId(1))
            .unwrap_or_else(none),
        cluster
            .explain_slo_breach(0, cluster.now())
            .unwrap_or_else(none),
        cluster.export_incidents_json(),
    ];
    let labels = cluster
        .audit
        .with_events(|events| events.iter().map(|ev| ev.kind.label()).collect())
        .expect("every scenario arms the audit");
    Run {
        schedule: fnv1a(schedule.iter().flat_map(|e| e.bytes())),
        exports: fnv1a(exports.iter().flat_map(|e| e.bytes().chain([0]))),
        events: cluster.sim.events_processed(),
        labels,
    }
}

fn owner_of_upper(cluster: &Cluster) -> Option<ServerId> {
    let coord = cluster.coord.borrow();
    coord.tablet_for(TABLE, u64::MAX).map(|t| t.owner)
}

/// The `determinism.rs` scenario: YCSB-B across one Rocksteady
/// migration. `before_run` sees the built cluster; tracing is (re-)armed
/// at 6 ms, one millisecond into the migration.
fn live_migration(cfg: ClusterConfig, before_run: impl FnOnce(&Cluster)) -> Run {
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
fn crash(victim: u32) -> Run {
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
fn baseline() -> Run {
    let start = ControlCmd::MigrateBaseline {
        id: MigrationId(1),
        table: TABLE,
        range: upper(),
        source: ServerId(0),
        target: ServerId(1),
        until: Default::default(),
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
/// the same time, with the cleaner ticking on every server. Read-only;
/// `replication.rs` runs the same shape with writes and checks every
/// backup's image of the target's log.
fn two_onto_one_target() -> Run {
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

/// The network loses every pull to the source, so the migration stalls and the
/// flight recorder exports one incident bundle; both rings are small
/// enough to wrap, so every `dropped` field and every evicted-prefix
/// path (chain lookups, truncated journeys) is exercised.
fn drop_pulls_in_ring_mode() -> Run {
    let cfg = ClusterConfig {
        sla: Some(300_000),
        flight_recorder: Some(FlightRecorderConfig {
            trace_capacity: Some(2_048),
            audit_capacity: Some(4),
            ..FlightRecorderConfig::default()
        }),
        ..armed(42)
    };
    let mut b = ClusterBuilder::new(cfg);
    b.lose(ServerId(0), scenarios::pulls);
    let mut cluster = scenarios::live_migration(b, 5_000, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(100 * MILLISECOND);
    assert_eq!(cluster.incident_count(), 1);
    assert!(cluster.trace.dropped() > 0 && cluster.audit.dropped() > 0);
    digest(&cluster)
}

/// The placement loop closed: four servers, every quarter on server 0
/// or 1, two clients whose heat sits on the last quarter, and a 20 ms
/// rebalancer that sheds server 1 while the flight recorder watches.
fn hot_quarter() -> Run {
    digest(&hot_quarter_cluster())
}

fn hot_quarter_cluster() -> Cluster {
    let cfg = ClusterConfig {
        servers: 4,
        sla: Some(300_000),
        flight_recorder: Some(FlightRecorderConfig::default()),
        rebalancer: Some(RebalancerConfig {
            interval: 20 * MILLISECOND,
            caps: AdmissionCaps::default(),
            policy: Box::new(GreedyLoadDelta::new(0.08, 2).with_cooldown(200 * MILLISECOND)),
        }),
        ..armed(42)
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, 4_000, 60_000.0);
    ycsb.shape = LoadShape::SkewFlip {
        at: 0,
        buckets: 4,
        hot_weight: 0.8,
    };
    b.add_ycsb_clients(2, ycsb);
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[0, 0, 1, 1].map(ServerId), 4_000, 100);
    cluster.run_until(45 * MILLISECOND);
    let report = cluster.rebalancer.borrow().clone();
    assert!(report.completed >= 1, "no move completed: {report:?}");
    cluster
}

/// Every scenario, run once and shared by the tests below.
fn runs() -> &'static [(&'static str, Run)] {
    static RUNS: OnceLock<Vec<(&'static str, Run)>> = OnceLock::new();
    RUNS.get_or_init(all_scenarios)
}

fn all_scenarios() -> Vec<(&'static str, Run)> {
    let plain = |seed| live_migration(armed(seed), |_| {});
    let mut sync_pulls = armed(42);
    sync_pulls.migration.priority_pulls = PriorityPulls::Sync;
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
        ("rebalance/hot-quarter", hot_quarter()),
    ]
}

#[test]
fn schedules_match_the_pinned_digests() {
    let got: Vec<_> = runs()
        .iter()
        .map(|(name, run)| (*name, run.schedule, run.exports, run.events))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, s, e, n)| format!("    (\"{name}\", {s:#018x}, {e:#018x}, {n}),\n"))
        .collect();
    assert!(
        got.as_slice() == GOLDEN,
        "digests moved; if intended, GOLDEN becomes:\n{table}"
    );
}

/// Every kind `AuditKind::label` declares is retained by some scenario:
/// a kind that no run produces is as dead as a field nothing reads.
#[test]
fn every_audit_kind_has_a_producer() {
    let produced: BTreeSet<&str> = runs()
        .iter()
        .flat_map(|(_, run)| run.labels.iter().copied())
        .collect();
    let audit = fs::read_to_string("crates/audit/src/lib.rs").expect("the audit crate");
    let label = audit
        .split("pub fn label(")
        .nth(1)
        .expect("AuditKind::label");
    let arms = label.split("\n    }\n").next().unwrap_or_default();
    let declared: BTreeSet<&str> = arms
        .split("=> \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(produced, declared, "produced vs declared audit kinds");
}

/// The memory side of the same run: a committed side segment is adopted
/// at the size of what it holds (at most twice its committed bytes, a
/// sparse one as a closed copy), and every window a master's log holds
/// aliases the segment it holds under that id — an entry resolved
/// through the log's table lies in that segment's bytes — so none still
/// pins a full-size original the commit replaced.
#[test]
fn hot_quarter_adopts_side_segments_at_the_size_they_hold() {
    let mut cluster = hot_quarter_cluster();
    let mut copies = 0;
    for id in 0..cluster.cfg.servers as u32 {
        let master = &cluster.node(ServerId(id)).master;
        let (joined, _) = master.log.joined_since(0);
        for seg in joined.iter().filter(|j| j.adopted).map(|j| &j.segment) {
            let (allocated, committed) = (seg.allocated_bytes(), seg.committed());
            assert!(
                allocated <= 2 * committed,
                "server {id} segment {}: {allocated} B held for {committed} B",
                seg.id()
            );
            copies += usize::from(allocated < seg.capacity());
        }
        let stats = master.log.stats();
        let held: u64 = joined
            .iter()
            .map(|j| j.segment.allocated_bytes() as u64)
            .sum();
        assert_eq!(stats.allocated_bytes, held, "server {id}: ledger");
        for seg in joined.iter().map(|j| &j.segment) {
            let first = LogRef {
                segment: seg.id(),
                offset: 0,
            };
            let Some(e) = master.log.view().entry_slices(first) else {
                continue; // an empty head
            };
            let held = seg.committed_bytes().as_ptr_range();
            let own = held.contains(&e.key.as_ptr());
            assert!(own, "server {id} segment {}: another's window", seg.id());
        }
    }
    assert!(copies > 0, "no side segment was adopted as a copy");
}
