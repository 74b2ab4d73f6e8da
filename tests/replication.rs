//! A finished migration's side logs re-replicate lazily (§3.4), and that
//! must never cost a backup a valid image of the target's log: every
//! closed segment held whole, the head held as a prefix. Head bytes —
//! the commit records naming the side segments among them — ride the
//! foreground lane only (DESIGN.md §3.3), so no write's chunk of the head
//! can overtake an earlier chunk of it queued behind bulk traffic.
//!
//! A backup's death must not cost a master its replication factor
//! either: what the dead backup held is copied to another before the
//! master's own crash can need it (ROADMAP item 1, gap (c)). Nor may a
//! lost chunk: a backup that missed one holds a short image, and the
//! master must not count it as a replica (ROADMAP item 20).

mod common;

use std::sync::Arc;

use common::{answered_writes, assert_read_back, test_config};

use rocksteady_cluster::scenarios::{preload_tablets, slice, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{MigrationId, Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_logstore::ENTRY_HEADER_BYTES;
use rocksteady_proto::{Body, Envelope, Request};
use rocksteady_workload::YcsbConfig;

const KEYS: u64 = 20_000;
const VALUE: usize = 100;
const TARGET: ServerId = ServerId(2);

/// Four servers, two replicas, 64 KiB segments. At 10 ms quarters 1 and
/// 3 move from servers 0 and 1 onto server 2, while one client
/// overwrites uniformly half the time, so the target's head keeps
/// growing, and rolling, across both finishes.
fn two_onto_one_with_writes() -> Cluster {
    let cfg = ClusterConfig {
        servers: 4,
        segment_bytes: 1 << 16,
        ..test_config()
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.5;
    ycsb.dist = KeyDist::Uniform;
    b.add_ycsb(ycsb);
    for (id, quarter, source) in [(1, 1, 0), (2, 3, 1)] {
        let range = slice(quarter, 4);
        let migrate = ControlCmd::migrate(MigrationId(id), TABLE, range, ServerId(source), TARGET);
        b.at(10 * MILLISECOND, migrate);
    }
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[0, 0, 1, 1].map(ServerId), KEYS, VALUE);
    cluster
}

#[test]
fn backups_hold_the_targets_log_after_two_runs_finish_onto_it() {
    let mut cluster = two_onto_one_with_writes();
    let finished = [1, 2].map(|id| {
        let run = MigrationId(id);
        let at = cluster.run_until_migrated(TARGET, run, SECOND);
        at.unwrap_or_else(|| panic!("{run:?} never finished"))
    });

    // The later finish lands while the earlier run's side segments still
    // occupy the target's bulk lane.
    let stamps = cluster.migration_runs().into_iter();
    let mut runs: Vec<_> = stamps.filter(|(s, ..)| *s == TARGET).collect();
    runs.sort_by_key(|(_, _, st)| st.finished_at);
    let side_bytes = runs[0].2.replay_applied * (ENTRY_HEADER_BYTES + 30 + VALUE) as u64;
    let bulk_busy = cluster.cfg.cost.replication_occupancy_ns(side_bytes);
    let gap = finished[0].abs_diff(finished[1]);
    assert!(
        gap < bulk_busy,
        "the finishes are {gap} ns apart, the first run's side logs ship in {bulk_busy} ns"
    );

    let last = finished[0].max(finished[1]);
    cluster.run_until(last + 50 * MILLISECOND);
    let log = Arc::clone(&cluster.node(TARGET).master.log);
    let segments = log.segments_snapshot();
    for backup in cluster.backups_of[&TARGET].clone() {
        let images = cluster.node(backup).backup.fetch(TARGET, 0);
        for seg in &segments {
            let image = images.iter().find(|i| i.id == seg.id());
            let held = image.map_or(&[][..], |i| &i.data[..]);
            let logged = seg.committed_bytes();
            let (kind, valid) = if seg.is_closed() {
                ("closed segment", held == logged)
            } else {
                ("head", logged.starts_with(held))
            };
            assert!(
                valid,
                "{backup:?}'s image of {kind} {} is {} bytes, not a copy of the log's {}",
                seg.id(),
                held.len(),
                logged.len(),
            );
        }
    }
}

/// One replica, one client overwriting half the time, and server 0's
/// only backup killed at 10 ms; server 0 itself dies at `OWNER_DIES`,
/// long after the backup's death was detected. Every record and every
/// acknowledged write must read back from the recovery master: the
/// backup's death must re-replicate server 0's log, not credit the dead
/// backup's acks. Today `on_server_down` credits them and nothing
/// re-replicates, so server 0's log is on no live backup when it dies.
#[test]
#[ignore = "ROADMAP item 1 (c): a dead backup's acks are credited and nothing re-replicates; \
            the owner's crash then loses every record and acknowledged write"]
fn a_dead_backup_is_replaced_before_its_masters_crash() {
    const KEYS: u64 = 20_000;
    const OWNER_DIES: Nanos = 60 * MILLISECOND;
    let cfg = ClusterConfig {
        servers: 4,
        replicas: 1,
        ..test_config()
    };
    // The ring decides the backup; read it off a cluster built alike.
    let backup = ClusterBuilder::new(cfg.clone()).build().backups_of[&ServerId(0)][0];
    let kill = |server| ControlCmd::Kill {
        server,
        detect_after: MILLISECOND,
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.5;
    b.add_ycsb(ycsb);
    b.at(10 * MILLISECOND, kill(backup));
    b.at(OWNER_DIES, kill(ServerId(0)));
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[ServerId(0)], KEYS, VALUE);
    cluster.run_until(SECOND);
    assert!(answered_writes(&cluster) > 1_000, "too few writes answered");
    assert_read_back(&mut cluster, KEYS);
}

/// Four servers, two replicas, 64 KiB segments, one client writing
/// uniformly half the time for 100 ms. Server 1, one of server 0's
/// backups, loses the first chunk of server 0's log past offset 0. Every
/// segment server 0 had closed by then must be whole on each of its
/// backups once the chunks planned for it have landed. Today the backup
/// refuses every later chunk of that segment (`OffsetMismatch`) and the
/// master counts the acks as stored: server 1 holds 2 475 of closed
/// segment 25's 65 505 bytes.
#[test]
#[ignore = "ROADMAP item 20: a backup that refused a chunk is still counted as a replica"]
fn a_backup_that_missed_a_chunk_is_not_counted_as_a_replica() {
    let cfg = ClusterConfig {
        servers: 4,
        segment_bytes: 1 << 16,
        ..test_config()
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut lost = false;
    b.lose(ServerId(1), move |env: &Envelope| {
        let chunk = matches!(env.body, Body::Req(Request::ReplicateAppend {
            owner: ServerId(0),
            offset,
            ..
        }) if offset > 0);
        chunk && !std::mem::replace(&mut lost, true)
    });
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.5;
    ycsb.dist = KeyDist::Uniform;
    b.add_ycsb(ycsb);
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[0, 0, 1, 1].map(ServerId), KEYS, VALUE);
    let backups = cluster.backups_of[&ServerId(0)].clone();
    assert!(
        backups.contains(&ServerId(1)),
        "server 1 backs up {backups:?}"
    );

    cluster.run_until(100 * MILLISECOND);
    let log = Arc::clone(&cluster.node(ServerId(0)).master.log);
    let closed: Vec<_> = log
        .segments_snapshot()
        .into_iter()
        .filter(|s| s.is_closed())
        .collect();
    // Every chunk of a closed segment was planned by now; give them time
    // to land.
    cluster.run_until(150 * MILLISECOND);
    for backup in backups {
        let images = cluster.node(backup).backup.fetch(ServerId(0), 0);
        for seg in &closed {
            let image = images.iter().find(|i| i.id == seg.id());
            let held = image.map_or(0, |i| i.data.len());
            let committed = seg.committed();
            assert!(
                held == committed,
                "{backup:?} holds {held} of closed segment {}'s {committed} committed bytes",
                seg.id(),
            );
        }
    }
}
