//! End-to-end correctness of a Rocksteady migration under live load.
//!
//! The paper's core safety claims (§3): ownership moves at migration
//! start, writes during migration are serviced by the target and always
//! supersede migrated values, the source turns clients away, and at the
//! end every record is present exactly once at the target.

mod common;

use common::{answered_writes, assert_read_back, test_config};
use rocksteady_cluster::scenarios::{live_migration, preload_split, pulls, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ControlCmd};
use rocksteady_common::{key_hash, MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_master::{OpError, TabletRole, Work};
use rocksteady_proto::{Body, Envelope, Request};
use rocksteady_workload::core::primary_key;
use rocksteady_workload::YcsbConfig;

const KEYS: u64 = 4_000;

#[test]
fn migration_under_writes_preserves_every_record_and_update() {
    let mut b = ClusterBuilder::new(test_config());
    let dir = b.directory();
    // Aggressive write mix so plenty of writes race the migration.
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 30_000.0);
    ycsb.read_fraction = 0.5;
    b.add_ycsb(ycsb);
    b.at(
        10 * MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);

    let finished = cluster.run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND);
    assert!(finished.is_some(), "migration did not complete");
    // Client operations the target served by then (it owned nothing
    // before the flip): the migrating range took load mid-migration.
    let mid_migration = cluster.server_stats[&ServerId(1)].ops_served.get();
    // Let in-flight client ops drain.
    cluster.run_until(finished.unwrap() + 50 * MILLISECOND);

    // 1. Ownership and lineage.
    assert_eq!(
        cluster
            .coord
            .borrow()
            .tablet_for(TABLE, u64::MAX)
            .unwrap()
            .owner,
        ServerId(1)
    );
    assert!(cluster.coord.borrow().lineage_deps().is_empty());

    // 2. Nothing lost, and every read — the read-back too — saw every
    //    write answered before it began, including writes the target
    //    accepted while records were still arriving (§3).
    assert!(answered_writes(&cluster) > 0, "no writes were answered");
    assert!(
        mid_migration > 0,
        "test never exercised the migrating range mid-migration"
    );
    let moved = assert_read_back(&mut cluster, KEYS);
    assert!(moved > KEYS / 3, "suspiciously small upper half: {moved}");

    // 3. The source refuses keys it migrated away.
    let sample = (0..KEYS)
        .map(|r| primary_key(r, 30))
        .find(|k| upper().contains(key_hash(k)))
        .expect("an upper-half key exists");
    let node = cluster.node(ServerId(0));
    let hash = key_hash(&sample);
    match node
        .master
        .read(TABLE, hash, Some(&sample), &mut Work::default())
    {
        Err(OpError::UnknownTablet) => {}
        other => panic!("source should refuse migrated keys, got {other:?}"),
    }

    // 4. The target is a plain owner afterwards.
    let target = cluster.node(ServerId(1));
    assert_eq!(
        target
            .master
            .tablet_covering(TABLE, u64::MAX)
            .map(|t| t.role),
        Some(TabletRole::Owner)
    );
}

/// With every pull to the source lost, nothing of the range ever
/// replays, so only the version ceiling the source returns at Prepare
/// puts the target's writes after the source's: every key the target
/// overwrites was overwritten at the source first, and the audit's
/// `linearizable` check requires the later write's version to be higher.
#[test]
fn target_writes_outrank_the_source_with_nothing_replayed() {
    const FEW: u64 = 200;
    let mut b = ClusterBuilder::new(test_config());
    b.lose(ServerId(0), pulls);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, FEW, 50_000.0);
    ycsb.read_fraction = 0.0;
    b.add_ycsb(ycsb);
    let migrate = ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1));
    b.at(10 * MILLISECOND, migrate);
    let mut cluster = b.build();
    preload_split(&mut cluster, FEW, 100);
    cluster.run_until(30 * MILLISECOND);

    assert!(cluster
        .migration_finished(ServerId(1), MigrationId(1))
        .is_none());
    let on_target = cluster.server_stats[&ServerId(1)].ops_served.get();
    assert!(on_target > 100, "the target answered {on_target} writes");
    let found = cluster.audit.violations();
    assert!(found.is_empty(), "{found:?}");
}

/// A loss rule that drops the first `Pull` its server would receive,
/// and nothing else.
fn first_pull() -> impl FnMut(&Envelope) -> bool {
    let mut lost = false;
    move |env| {
        matches!(env.body, Body::Req(Request::Pull { .. })) && !std::mem::replace(&mut lost, true)
    }
}

/// One `Pull` to the source is lost. The target resends it, so the
/// migration finishes late instead of never. Today no server-to-server
/// RPC is ever sent again: the run stalls (it is not abandoned), and at
/// 2 s of simulated time it has not finished (ROADMAP.md item 20).
#[test]
#[ignore = "ROADMAP item 20: one lost Pull stalls a migration forever"]
fn a_lost_pull_costs_a_retry_not_the_migration() {
    let mut b = ClusterBuilder::new(test_config());
    b.lose(ServerId(0), first_pull());
    let mut cluster = live_migration(b, KEYS, 20_000.0, 10 * MILLISECOND);
    let finished = cluster.run_until_migrated(ServerId(1), MigrationId(1), 2 * SECOND);
    assert!(finished.is_some(), "one lost Pull stalled the migration");
}

/// A source lets go of what it migrated away: once a move of the upper
/// half of 20 000 records has settled, server 0 holds no registration
/// covering the range and no index entry inside it. Today nothing tells
/// the source the run ended: it keeps its `MigratingOutTo` registration
/// and every moved entry (ROADMAP.md item 22).
#[test]
#[ignore = "ROADMAP item 22: a source keeps the range it migrated away"]
fn a_source_lets_go_of_the_range_it_migrated_away() {
    const RECORDS: u64 = 20_000;
    let mut b = ClusterBuilder::new(test_config());
    let migrate = ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1));
    b.at(10 * MILLISECOND, migrate);
    let mut cluster = b.build();
    preload_split(&mut cluster, RECORDS, 100);
    let finished = cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND)
        .expect("migration finished");
    cluster.run_until(finished + 100 * MILLISECOND);

    let master = &cluster.node(ServerId(0)).master;
    let held = master.tablets().iter();
    let kept: Vec<_> = held
        .filter(|t| t.table == TABLE && t.range.overlaps(&upper()))
        .collect();
    let mut entries = 0u64;
    master
        .hashtable
        .for_each_in_range(TABLE, upper(), |_| entries += 1);
    assert!(
        kept.is_empty() && entries == 0,
        "server 0 still registers {kept:?} and indexes {entries} entries in the moved range"
    );
}

#[test]
fn client_experience_recovers_after_migration() {
    // Clients chasing the tablet across the migration should see retries
    // and map refreshes, but zero lost operations and no NotFound for
    // keys that exist.
    const BIG: u64 = 30_000;
    let b = ClusterBuilder::new(test_config());
    let mut cluster = live_migration(b, BIG, 100_000.0, 10 * MILLISECOND);
    let finished = cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND)
        .expect("migration finished");
    cluster.run_until(finished + 100 * MILLISECOND);

    let stats = cluster.client_stats[0].borrow();
    assert_eq!(stats.not_found.get(), 0, "existing keys reported missing");
    assert!(
        stats.map_refreshes.get() > 0,
        "client never chased the tablet"
    );
    assert!(stats.retries.get() > 0, "no read ever raced the migration");
    let reads = stats.read_latency.merged();
    assert!(reads.count() > 1_000);
    // Median stays in the microsecond regime even across migration.
    assert!(
        reads.percentile(0.5) < 50_000,
        "median read {} ns",
        reads.percentile(0.5)
    );
}
