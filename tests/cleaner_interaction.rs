//! The log cleaner and migration must coexist (§2.3, §3.2).
//!
//! Rocksteady's lazy-partitioning argument depends on the cleaner being
//! free to physically rearrange records at any time — including while a
//! migration's Pulls walk the hash table. An overwrite-heavy workload
//! makes segments sparse, the cleaner relocates live entries mid-run,
//! and the migration must still move exactly the live data.

mod common;

use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{MigrationId, Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::YcsbConfig;

#[test]
fn migration_survives_concurrent_cleaning() {
    const KEYS: u64 = 5_000;
    let mut cfg = common::test_config();
    cfg.cleaner_interval = Some(2 * MILLISECOND);
    cfg.segment_bytes = 1 << 16; // many small segments: more cleaning
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    // Overwrite-heavy uniform load so old versions pile up in segments.
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 80_000.0);
    ycsb.read_fraction = 0.2;
    ycsb.dist = KeyDist::Uniform;
    b.add_ycsb(ycsb);
    b.at(
        100 * MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);

    let finished = cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND)
        .expect("migration completes despite cleaning");
    cluster.run_until(finished + 100 * MILLISECOND);

    // The cleaner actually ran on the source.
    assert!(cleaned(&cluster) > 0, "cleaner never reclaimed a segment");

    assert_nothing_lost(&mut cluster, KEYS);
}

// ------------------------------------------------------------------------
// The cleaner and the replication manager (DESIGN.md §3.3): survivors sit
// in adopted segments and ship on the bulk lane; a victim's replicas are
// freed once its survivors are durable.

const CHURN_KEYS: u64 = 5_000;
const OWNER: ServerId = ServerId(0);

/// Four servers, three replicas, every record on server 0, one client
/// overwriting uniformly half the time, the cleaner ticking every 2 ms
/// over 64 KiB segments. Server 0 crashes at `kill_owner_at`.
fn churn(kill_owner_at: Nanos) -> Cluster {
    let cfg = ClusterConfig {
        servers: 4,
        replicas: 3,
        cleaner_interval: Some(2 * MILLISECOND),
        segment_bytes: 1 << 16,
        ..common::test_config()
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, CHURN_KEYS, 80_000.0);
    ycsb.read_fraction = 0.5;
    ycsb.dist = KeyDist::Uniform;
    b.add_ycsb(ycsb);
    let kill = ControlCmd::Kill {
        server: OWNER,
        detect_after: MILLISECOND,
    };
    b.at(kill_owner_at, kill);
    let mut cluster = b.build();
    preload_split(&mut cluster, CHURN_KEYS, 100);
    cluster
}

fn cleaned(cluster: &Cluster) -> u64 {
    cluster.server_stats[&OWNER].segments_cleaned.get()
}

/// Every record is readable and no acknowledged write regressed.
fn assert_nothing_lost(cluster: &mut Cluster, keys: u64) {
    assert!(common::answered_writes(cluster) > 0, "no writes answered");
    common::assert_read_back(cluster, keys);
}

/// A cleaner pass must not put its survivors on the foreground lane:
/// ~0.9 MiB of them inside the next write's ack group holds every
/// worker for ~2 ms and reads queue behind the writes (the parent's
/// `write_churn` tail).
#[test]
fn reads_do_not_queue_behind_a_cleaner_pass() {
    const KEYS: u64 = 40_000;
    const TICK: Nanos = 10 * MILLISECOND;
    let cfg = ClusterConfig {
        servers: 4,
        replicas: 3,
        cleaner_interval: Some(TICK),
        segment_bytes: 1 << 20,
        tracing: true,
        ..common::test_config()
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, 100_000.0);
    ycsb.read_fraction = 0.5;
    ycsb.dist = KeyDist::Uniform;
    b.add_ycsb(ycsb);
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);
    cluster.run_until(300 * MILLISECOND);
    assert!(cleaned(&cluster) > 0, "no cleaner pass reclaimed anything");

    let journeys = cluster.journeys();
    let after_a_tick = journeys
        .iter()
        .flat_map(|j| &j.hops)
        .filter(|h| h.name == "read" && (h.sent_at + h.net_in) % TICK < 2 * MILLISECOND);
    let (reads, worst) = after_a_tick.fold((0, 0), |(n, worst), h| (n + 1, h.queue.max(worst)));
    assert!(reads > 1_000, "only {reads} reads within 2 ms of a tick");
    assert!(
        worst < 100_000,
        "a read waited {worst} ns in the dispatch queue after a cleaner tick"
    );
}

/// Kills the master right after a cleaner pass — its survivors still
/// parked in the replication manager — and recovers: the victim's
/// replicas must still have been on the backups.
#[test]
fn crash_before_the_survivors_are_durable_loses_nothing() {
    // Same seed, same schedule until the crash: find when the third
    // reclaiming pass runs.
    let mut probe = churn(100 * SECOND);
    let mut pass_at = 0;
    while cleaned(&probe) < 3 {
        pass_at += 5_000;
        assert!(pass_at < SECOND, "the cleaner never reclaimed a segment");
        probe.run_until(pass_at);
    }
    drop(probe);

    // A microsecond on: the pass has run (even if it ran exactly at
    // `pass_at`), its modeled copy has not finished.
    let mut cluster = churn(pass_at + 1_000);
    cluster.run_until(pass_at + 1_001);
    assert_eq!(cleaned(&cluster), 3, "the pass ran before the crash");
    // Its survivors never left: some closed segment of the dead master's
    // log is not (fully) on the backups.
    let log = std::sync::Arc::clone(&cluster.node(OWNER).master.log);
    let images = cluster.node(ServerId(1)).backup.fetch(OWNER, 0);
    let held = |id| {
        images
            .iter()
            .find(|i| i.id == id)
            .map_or(0, |i| i.data.len())
    };
    let undurable = log
        .segments_snapshot()
        .iter()
        .filter(|s| s.is_closed() && held(s.id()) < s.committed())
        .count();
    assert!(undurable > 0, "the survivors were already durable");

    cluster.run_until(2 * SECOND);
    assert_nothing_lost(&mut cluster, CHURN_KEYS);
}

/// Victims are freed on the backups once their survivors are durable —
/// and a recovery from what is left still returns every key.
#[test]
fn backups_free_cleaned_segments_and_recovery_still_finds_every_key() {
    const KILL_AT: Nanos = 150 * MILLISECOND;
    let mut cluster = churn(KILL_AT);
    cluster.run_until(KILL_AT - 1);
    let reclaimed = cleaned(&cluster);
    assert!(reclaimed > 0, "the cleaner never reclaimed a segment");
    // Every byte that entered the log was appended to each backup; what
    // they hold now is short by the freed victims (each was a closed,
    // nearly full 64 KiB segment).
    let appended = cluster.node(OWNER).master.log.position();
    for backup in [1, 2, 3].map(ServerId) {
        let held = cluster.node(backup).backup.bytes_for(OWNER);
        assert!(
            held + (reclaimed / 2) * (1 << 16) < appended,
            "backup holds {held} of {appended} bytes after {reclaimed} segments were cleaned"
        );
    }

    cluster.run_until(2 * SECOND);
    assert_nothing_lost(&mut cluster, CHURN_KEYS);
}
