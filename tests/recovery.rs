//! Crash recovery of a whole tablet (§3.4, ROADMAP item 15 (i)).
//!
//! The owner of a 10⁵-record tablet dies with clients writing; the
//! coordinator hands the tablet to a recovery master, which fetches the
//! dead owner's segments from its backups, replays them, answers
//! `RecoverTabletOk` and only then ships what it replayed to backups of
//! its own. Every record and every acknowledged write must read back.
//!
//! The second case kills the recovery master in the window that order
//! opens: after its answer, before any backup holds a byte of its log.
//! The window exists only while no client writes to the recovery
//! master. The tablet turns `Owner` when the replay task starts, not
//! when its service time ends, so with writers each write's shipment
//! carries the replayed bytes along and the backups hold the whole log
//! by the time the answer leaves; the second case's clients only read.

mod common;

use common::{answered_writes, assert_read_back, test_config};
use rocksteady_audit::AuditKind;
use rocksteady_cluster::scenarios::{preload_tablets, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::{Nanos, ServerId, MILLISECOND, SECOND};
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

/// Four servers, the whole table one tablet on server 0, a client whose
/// operations are reads at `read_fraction`, server 0 killed at
/// [`OWNER_DIES`] and `then` killed too, if given. Traced, so a run can
/// find when a recovery master answered.
fn owner_crash(read_fraction: f64, then: Option<(Nanos, ServerId)>) -> Cluster {
    let cfg = ClusterConfig {
        servers: 4,
        tracing: true,
        ..test_config()
    };
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
/// tablet, and when it answered `RecoverTabletOk`: the end of its
/// `recovery-replay` task, whose deferred sends leave then.
fn recovery_answer(cluster: &Cluster) -> (ServerId, Nanos) {
    let planned = cluster.audit.with_events(|events| {
        events.iter().find_map(|e| match e.kind {
            AuditKind::RecoveryPlanned {
                recovery_master, ..
            } => Some(recovery_master),
            _ => None,
        })
    });
    let master = planned.flatten().expect("no recovery was planned");
    let pid = cluster.dir.actor_of(master) as u64;
    let answered = cluster.trace.with_events(|events| {
        let replay = events
            .iter()
            .filter(|e| e.name == "recovery-replay" && e.pid == pid);
        replay.map(|e| e.ts + e.dur).min()
    });
    (
        master,
        answered.expect("the recovery master never replayed"),
    )
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
    let mut cluster = owner_crash(0.5, None);
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
/// leaves everything before it as it was; the test checks). At that
/// instant no backup holds a byte of its log: every record it replayed
/// lives in its memory alone. Today the next recovery master replays
/// the dead one's backups, which are empty, and claims the tablet with
/// none of its 10⁵ records: the failing-first test of ROADMAP gap 1 (a).
#[test]
#[ignore = "ROADMAP item 1 (a): RecoverTabletOk is answered before the replayed log is durable; \
            this crash loses every record of the tablet"]
fn a_recovery_master_crash_after_answering_loses_no_record() {
    let (master, answered) = {
        let mut first = owner_crash(1.0, None);
        first.run_until(RUN);
        recovery_answer(&first)
    };
    let dies = answered + 1;
    let mut cluster = owner_crash(1.0, Some((dies, master)));
    cluster.run_until(dies);
    assert_eq!(recovery_answer(&cluster), (master, answered));
    for backup in (1..4).map(ServerId).filter(|s| *s != master) {
        let held = cluster.node(backup).backup.bytes_for(master);
        assert_eq!(
            held, 0,
            "{backup:?} already holds the recovery master's log"
        );
    }
    cluster.run_until(RUN);
    live_owner(&cluster, &[ServerId(0), master]);
    assert_read_back(&mut cluster, KEYS);
}
