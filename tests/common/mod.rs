//! Shared setup for the cross-crate integration tests.

use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{MigrationId, ServerId, MILLISECOND};
use rocksteady_workload::core::primary_key;
use rocksteady_workload::YcsbConfig;

/// A small 3-server cluster configuration suitable for fast tests.
#[allow(dead_code)] // not every test binary uses every helper
pub fn test_config() -> ClusterConfig {
    ClusterConfig {
        servers: 3,
        workers: 4,
        replicas: 2,
        sample_interval: MILLISECOND,
        series_interval: 10 * MILLISECOND,
        ..ClusterConfig::default()
    }
}

/// The benchmark's `write_churn` shape at test scale, run to 150 ms on
/// top of `base`: four servers, three replicas, 64 KiB segments, the
/// cleaner ticking every 2 ms on every server, 5 000 keys, half the
/// operations uniform overwrites, the upper half migrating 0 → 1 at
/// 40 ms — the one schedule where cleaner survivors and client writes
/// share the replication manager.
#[allow(dead_code)] // not every test binary uses every helper
pub fn write_churn(base: ClusterConfig, client_seed: u64) -> Cluster {
    let cfg = ClusterConfig {
        servers: 4,
        replicas: 3,
        cleaner_interval: Some(2 * MILLISECOND),
        segment_bytes: 1 << 16,
        ..base
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, 5_000, 80_000.0);
    ycsb.read_fraction = 0.5;
    ycsb.dist = KeyDist::Uniform;
    ycsb.seed = client_seed;
    b.add_ycsb(ycsb);
    let migrate = ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1));
    b.at(40 * MILLISECOND, migrate);
    let mut cluster = b.build();
    preload_split(&mut cluster, 5_000, 100);
    cluster.run_until(150 * MILLISECOND);
    let finished = cluster.migration_finished(ServerId(1), MigrationId(1));
    assert!(finished.is_some(), "migration never finished");
    for server in [0, 1].map(ServerId) {
        let cleaned = cluster.server_stats[&server].segments_cleaned.get();
        assert!(cleaned > 0, "{server:?} never cleaned a segment");
    }
    cluster
}

/// Verifies that every one of `keys` records is readable through its
/// current owner; returns how many live in the upper (migrated) half.
#[allow(dead_code)] // not every test binary uses every helper
pub fn verify_all_readable(cluster: &mut Cluster, keys: u64) -> u64 {
    let mut upper_count = 0;
    for rank in 0..keys {
        let key = primary_key(rank, 30);
        assert!(
            cluster.read_direct(TABLE, &key).is_some(),
            "rank {rank} is unreadable"
        );
        if upper().contains(rocksteady_common::key_hash(&key)) {
            upper_count += 1;
        }
    }
    upper_count
}
