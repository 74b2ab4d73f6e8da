//! End-to-end correctness of a Rocksteady migration under live load.
//!
//! The paper's core safety claims (§3): ownership moves at migration
//! start, writes during migration are serviced by the target and always
//! supersede migrated values, the source turns clients away, and at the
//! end every record is present exactly once at the target.

mod common;

use common::{test_config, verify_all_readable};
use rocksteady_cluster::scenarios::{live_migration, preload_split, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ControlCmd};
use rocksteady_common::{key_hash, MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_master::{OpError, TabletRole, Work};
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

    // 2. Nothing lost.
    let moved = verify_all_readable(&mut cluster, KEYS);
    assert!(moved > KEYS / 3, "suspiciously small upper half: {moved}");

    // 3. Every durably acknowledged write is visible at (at least) its
    //    acknowledged version — including writes the target accepted
    //    while records were still arriving (§3).
    let confirmed = cluster.client_stats[0].borrow().confirmed_writes.clone();
    assert!(!confirmed.is_empty(), "no writes were confirmed");
    let mut migrating_range_writes = 0;
    for (rank, version) in &confirmed {
        let key = primary_key(*rank, 30);
        let (_, current) = cluster
            .read_direct(TABLE, &key)
            .unwrap_or_else(|| panic!("confirmed write to rank {rank} lost"));
        assert!(
            current >= *version,
            "rank {rank}: stored version {current} < confirmed {version}"
        );
        if upper().contains(key_hash(&key)) {
            migrating_range_writes += 1;
        }
    }
    assert!(
        migrating_range_writes > 0,
        "test never exercised writes to the migrating range"
    );

    // 4. The source refuses keys it migrated away.
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

    // 5. The target is a plain owner afterwards.
    let target = cluster.node(ServerId(1));
    assert_eq!(
        target
            .master
            .tablet_covering(TABLE, u64::MAX)
            .map(|t| t.role),
        Some(TabletRole::Owner)
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
