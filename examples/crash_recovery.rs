//! Lineage-based fault tolerance, live (§3.4).
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```
//!
//! Rocksteady never re-replicates migrated data on the fast path;
//! instead the source takes a dependency on the target's recovery-log
//! tail. This example kills the migration target mid-flight — while
//! clients are writing through it — and shows the coordinator reverting
//! ownership to the source, merging the target's replicated log tail,
//! and (the point of the whole design) losing none of the acknowledged
//! writes.

use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::{MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::core::primary_key;
use rocksteady_workload::YcsbConfig;

fn main() {
    let keys: u64 = 20_000;

    let mut builder = ClusterBuilder::new(ClusterConfig {
        servers: 3,
        workers: 4,
        replicas: 2,
        sample_interval: 10 * MILLISECOND,
        series_interval: 100 * MILLISECOND,
        ..ClusterConfig::default()
    });
    let dir = builder.directory();
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, keys, 60_000.0);
    ycsb.read_fraction = 0.5; // heavy writes: the dangerous case
    builder.add_ycsb(ycsb);
    builder
        .at(
            10 * MILLISECOND,
            ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
        )
        // Kill the target 1.5 ms into the migration, with pulls,
        // priority pulls, and client writes all in flight.
        .at(
            11_500_000,
            ControlCmd::Kill {
                server: ServerId(1),
                detect_after: MILLISECOND,
            },
        );

    let mut cluster = builder.build();
    preload_split(&mut cluster, keys, 100);

    println!(
        "migrating upper half to {}; killing it mid-migration...",
        ServerId(1)
    );
    cluster.run_until(2 * SECOND);

    let owner = cluster
        .coord
        .borrow()
        .tablet_for(TABLE, u64::MAX)
        .unwrap()
        .owner;
    println!(
        "after the crash: upper half owned by {owner} (reverted to the source), \
         lineage deps: {}",
        cluster.coord.borrow().lineage_deps().len()
    );
    let replayed = cluster.server_stats[&ServerId(0)].recovery_replayed.get();
    println!("lineage merge replayed {replayed} records from the dead target's log tail");
    let (hints, failovers, gaps) =
        cluster
            .server_stats
            .values()
            .fold((0u64, 0u64, 0u64), |(h, f, g), s| {
                (
                    h + s.retry_hints_sent.get(),
                    f + s.recovery_fetch_failovers.get(),
                    g + s.recovery_fetch_gaps.get(),
                )
            });
    println!(
        "servers issued {hints} retry hints; segment fetches failed over {failovers} \
         times ({gaps} irrecoverable gaps)"
    );

    // The contract: every record present, every acknowledged write
    // durable.
    for rank in 0..keys {
        let key = primary_key(rank, 30);
        assert!(
            cluster.read_direct(TABLE, &key).is_some(),
            "record {rank} lost in the crash!"
        );
    }
    let confirmed = cluster.client_stats[0].borrow().confirmed_writes.clone();
    let mut checked = 0;
    for (rank, version) in &confirmed {
        let key = primary_key(*rank, 30);
        let (_, current) = cluster.read_direct(TABLE, &key).expect("acked write lost");
        assert!(current >= *version, "acked write regressed");
        checked += 1;
    }
    println!("verified {keys} records and all {checked} acknowledged writes survived");

    let stats = cluster.client_stats[0].borrow();
    let reads = stats.read_latency.merged();
    println!(
        "client view across the crash: {} reads, median {}, {} timeouts, {} retries",
        reads.count(),
        fmt_nanos(reads.percentile(0.5)),
        stats.timeouts.get(),
        stats.retries.get(),
    );
}
