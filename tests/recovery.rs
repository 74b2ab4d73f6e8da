//! Crash recovery of a whole tablet (§3.4, ROADMAP item 15 (i)).
//!
//! The owner of a 10⁵-record tablet dies with clients writing; the
//! coordinator hands the tablet to a recovery master, which fetches the
//! dead owner's segments from every live server and replays them the way
//! a migration target does: each fetched segment is one batch, replayed
//! on whichever worker is idle into that worker's side log. After the
//! last batch the side logs are committed, and the adopted segments and
//! the log heads ship to backups of its own under one ack group; only
//! once they acked does the tablet turn `Owner` and `RecoverTabletOk`
//! leave. No worker waits for those acks. Every record and every
//! acknowledged write must read back.
//!
//! The second case kills the recovery master one nanosecond after its
//! answer left. Its backups hold its whole log by then, so the next
//! recovery master finds every record there. Its clients only read, so
//! no write's shipment carries the replayed bytes along: the recovery
//! ships them itself. The third kills it halfway to its claim: the
//! coordinator plans the unanswered recovery again, from the same log.

mod common;

use std::collections::BTreeSet;

use common::{answered_writes, assert_read_back, test_config};
use rocksteady_audit::AuditKind;
use rocksteady_cluster::scenarios::{preload_tablets, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::{Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_trace::{lanes, Phase};
use rocksteady_workload::YcsbConfig;

const KEYS: u64 = 100_000;
/// When the tablet's owner, server 0, dies.
const OWNER_DIES: Nanos = 10 * MILLISECOND;
/// Long enough for detection, fetch, replay and client retries.
const RUN: Nanos = SECOND;

fn kill(server: ServerId) -> ControlCmd {
    ControlCmd::Kill {
        server,
        detect_after: MILLISECOND,
    }
}

/// Four servers of four workers.
fn four_servers() -> ClusterConfig {
    ClusterConfig {
        servers: 4,
        ..test_config()
    }
}

/// `cfg`'s cluster, the whole table one tablet on server 0, a client
/// whose operations are reads at `read_fraction`, server 0 killed at
/// [`OWNER_DIES`] and `then` killed too, if given.
fn owner_crash(cfg: ClusterConfig, read_fraction: f64, then: Option<(Nanos, ServerId)>) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = read_fraction;
    b.add_ycsb(ycsb);
    b.at(OWNER_DIES, kill(ServerId(0)));
    if let Some((at, server)) = then {
        b.at(at, kill(server));
    }
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[ServerId(0)], KEYS, 100);
    cluster
}

/// The recovery master the coordinator planned for the dead owner's
/// tablet, and when it answered `RecoverTabletOk`: its `NodeClaim`, which
/// is stamped in the step that sends the answer.
fn recovery_answer(cluster: &Cluster) -> (ServerId, Nanos) {
    let answer = cluster.audit.with_events(|events| {
        let master = events.iter().find_map(|e| match e.kind {
            AuditKind::RecoveryPlanned {
                recovery_master, ..
            } => Some(recovery_master),
            _ => None,
        })?;
        let claimed = events.iter().find_map(|e| match e.kind {
            AuditKind::NodeClaim { server, .. } if server == master => Some(e.at),
            _ => None,
        })?;
        Some((master, claimed))
    });
    answer
        .flatten()
        .expect("no recovery master claimed the tablet")
}

/// The tablet's owner after `cluster` ran: not one of `dead`.
fn live_owner(cluster: &Cluster, dead: &[ServerId]) -> ServerId {
    let coord = cluster.coord.borrow();
    let owner = coord
        .tablet_for(TABLE, 0)
        .expect("tablet still mapped")
        .owner;
    assert!(!dead.contains(&owner), "{owner:?} owns the tablet dead");
    owner
}

#[test]
fn an_owner_crash_loses_no_acknowledged_write() {
    let mut cluster = owner_crash(four_servers(), 0.5, None);
    cluster.run_until(RUN);
    let (master, answered) = recovery_answer(&cluster);
    assert!(answered > OWNER_DIES);
    assert_eq!(live_owner(&cluster, &[ServerId(0)]), master);
    let writes = answered_writes(&cluster);
    assert!(writes > 1_000, "only {writes} writes answered");
    assert_read_back(&mut cluster, KEYS);
}

/// The recovery master dies one nanosecond after its `RecoverTabletOk`
/// left, found from a first run of the same schedule (the second kill
/// leaves everything before it as it was; the test checks). Every backup
/// of it that is alive holds its whole log at that instant, so the next
/// recovery master replays all 10⁵ records from them.
#[test]
fn a_recovery_master_crash_after_answering_loses_no_record() {
    let (master, answered) = {
        let mut first = owner_crash(four_servers(), 1.0, None);
        first.run_until(RUN);
        recovery_answer(&first)
    };
    let dies = answered + 1;
    let mut cluster = owner_crash(four_servers(), 1.0, Some((dies, master)));
    cluster.run_until(dies);
    assert_eq!(recovery_answer(&cluster), (master, answered));
    let log: u64 = {
        let segments = cluster.node(master).master.log.segments_snapshot();
        segments.iter().map(|s| s.committed() as u64).sum()
    };
    assert!(log > 0, "the recovery master replayed nothing");
    let backups = cluster.backups_of[&master].clone();
    for backup in backups.into_iter().filter(|b| *b != ServerId(0)) {
        let held = cluster.node(backup).backup.bytes_for(master);
        assert_eq!(
            held, log,
            "{backup:?} holds {held} of the recovery master's {log} log bytes"
        );
    }
    cluster.run_until(RUN);
    live_owner(&cluster, &[ServerId(0), master]);
    assert_read_back(&mut cluster, KEYS);
}

/// The recovery master dies halfway between the owner's death and its
/// claim, found from a first run of the same schedule (checked in the
/// second: same recovery master, no claim yet). The dead owner's
/// replicas still sit on live backups. The coordinator still holds the
/// unanswered recovery, so it plans it again onto the next survivor,
/// from the dead *owner's* log: the dead recovery master's own log holds
/// nothing of the tablet. Every record reads back (ROADMAP.md item 19;
/// planned from the recovery master's log, 81 341 of the 10⁵ did not).
#[test]
fn a_recovery_master_crash_before_claiming_loses_no_record() {
    let (master, answered) = {
        let mut first = owner_crash(four_servers(), 1.0, None);
        first.run_until(RUN);
        recovery_answer(&first)
    };
    let dies = OWNER_DIES + (answered - OWNER_DIES) / 2;
    let mut cluster = owner_crash(four_servers(), 1.0, Some((dies, master)));
    cluster.run_until(dies);
    let planned = cluster.audit.with_events(|events| {
        let plans = events.iter().filter_map(|e| match e.kind {
            AuditKind::RecoveryPlanned {
                recovery_master, ..
            } => Some(recovery_master),
            _ => None,
        });
        let claims = events
            .iter()
            .filter(|e| matches!(e.kind, AuditKind::NodeClaim { server, .. } if server == master));
        (plans.collect::<Vec<_>>(), claims.count())
    });
    assert_eq!(planned, Some((vec![master], 0)));
    cluster.run_until(RUN);
    live_owner(&cluster, &[ServerId(0), master]);
    assert_read_back(&mut cluster, KEYS);
}

/// The recovery master replays on more than one worker, and claims the
/// tablet only after the last batch's service ended: every
/// `recovery-replay` span on its worker lanes closes at or before its
/// `NodeClaim`.
#[test]
fn a_recovery_replays_on_several_workers_and_claims_after_the_last_batch() {
    let traced = ClusterConfig {
        tracing: true,
        ..four_servers()
    };
    let mut cluster = owner_crash(traced, 0.5, None);
    cluster.run_until(RUN);
    let (master, claimed) = recovery_answer(&cluster);
    let pid = cluster.dir.actor_of(master) as u64;
    let spans: Vec<(usize, Nanos)> = cluster.trace.with_events(|events| {
        let replays =
            events.filter(|e| e.ph == Phase::Span && e.pid == pid && e.name == "recovery-replay");
        let worker = |tid| lanes::worker_index(tid).expect("a worker lane");
        replays.map(|e| (worker(e.tid), e.ts + e.dur)).collect()
    });
    let workers: BTreeSet<usize> = spans.iter().map(|(w, _)| *w).collect();
    assert!(
        workers.len() >= 2,
        "recovery replayed on workers {workers:?} only ({} batches)",
        spans.len()
    );
    let last = spans.iter().map(|(_, end)| *end).max().expect("a batch");
    assert!(
        last <= claimed,
        "a batch's service ended at {last} ns, after the claim at {claimed} ns"
    );
}
