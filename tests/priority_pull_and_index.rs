//! PriorityPull semantics through the full stack (§3.3) and secondary
//! index scans across split indexlets (Figure 2 / Figure 4 setup).

mod common;

use common::test_config;
use rocksteady_cluster::scenarios::{live_migration, preload_tablets, TABLE};
use rocksteady_cluster::ClusterBuilder;
use rocksteady_common::ids::IndexId;
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_master::Indexlet;
use rocksteady_workload::scan::secondary_key;
use rocksteady_workload::ScanConfig;

#[test]
fn priority_pulls_fire_and_shed_source_load() {
    const KEYS: u64 = 30_000;
    // Hot Zipfian reads: the hot keys should arrive via PriorityPulls.
    let b = ClusterBuilder::new(test_config());
    let mut cluster = live_migration(b, KEYS, 150_000.0, 10 * MILLISECOND);
    cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND)
        .expect("migration completes");

    let src = cluster.server_stats[&ServerId(0)].view();
    assert!(
        src.priority_pulls_served > 0,
        "no PriorityPull ever reached the source"
    );
    // De-dup + batching: far fewer PriorityPull RPCs than retried reads.
    let retries = cluster.client_stats[0].borrow().retries.get();
    assert!(retries > 0);
    assert!(
        src.priority_pulls_served <= retries,
        "PP RPCs ({}) exceeded client retries ({retries}) — batching broken",
        src.priority_pulls_served
    );
}

#[test]
fn no_priority_pull_variant_starves_reads_until_bulk_arrival() {
    const KEYS: u64 = 30_000;
    let mut cfg = common::test_config();
    cfg.migration.priority_pulls = false;
    let b = ClusterBuilder::new(cfg);
    let mut cluster = live_migration(b, KEYS, 150_000.0, 10 * MILLISECOND);
    cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND)
        .expect("migration completes");
    // The source never serves a PriorityPull...
    assert_eq!(
        cluster.server_stats[&ServerId(0)]
            .priority_pulls_served
            .get(),
        0
    );
    // ...so clients retry until the bulk pulls deliver (§4.2b).
    assert!(cluster.client_stats[0].borrow().retries.get() > 0);
}

#[test]
fn index_scans_span_split_indexlets_and_tablets() {
    const KEYS: u64 = 5_000;
    let index = IndexId(0);
    let mut b = ClusterBuilder::new(test_config());
    let dir = b.directory();
    // Index split at the median secondary key: indexlet 0 on server 1,
    // indexlet 1 on server 2; the table itself lives on server 0.
    let split_key = secondary_key(KEYS / 2, 30);
    b.add_scan(ScanConfig {
        dir,
        table: TABLE,
        index,
        sec_key_len: 30,
        num_keys: KEYS,
        indexlets: vec![
            (Vec::new(), Some(split_key.clone()), ServerId(1)),
            (split_key.clone(), None, ServerId(2)),
        ],
        scan_len: 4,
        dist: KeyDist::Zipfian { theta: 0.5 },
        scans_per_sec: 20_000.0,
        max_outstanding: 32,
        seed: 5,
    });
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[ServerId(0)], KEYS, 100);

    // Build the two indexlets and fill them with sec-key -> hash entries.
    {
        let mut lower = Indexlet::new(TABLE, index, Vec::new(), Some(split_key.clone()));
        let mut upper_ix = Indexlet::new(TABLE, index, split_key.clone(), None);
        for rank in 0..KEYS {
            let sec = secondary_key(rank, 30);
            let hash = rocksteady_workload::core::primary_hash(rank, 30);
            if lower.covers(&sec) {
                lower.insert(&sec, hash);
            } else {
                upper_ix.insert(&sec, hash);
            }
        }
        assert!(!lower.is_empty() && !upper_ix.is_empty());
        cluster.node(ServerId(1)).master.add_indexlet(lower);
        cluster.node(ServerId(2)).master.add_indexlet(upper_ix);
    }

    cluster.run_until(100 * MILLISECOND);
    let stats = cluster.client_stats[0].borrow();
    let scans = stats.read_latency.merged();
    assert!(
        scans.count() > 500,
        "only {} scans completed",
        scans.count()
    );
    // Each 4-record scan fetches ~4 objects (edge scans may truncate).
    let objects = stats.objects.merged().count();
    assert!(
        objects as f64 > scans.count() as f64 * 3.0,
        "scans returned too few objects: {objects} for {} scans",
        scans.count()
    );
    // Two-phase operation: lookup + fetch across servers stays in the
    // tens-of-microseconds regime.
    let p50 = scans.percentile(0.5);
    assert!((8_000..60_000).contains(&p50), "median scan {p50} ns");
}
