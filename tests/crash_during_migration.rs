//! Lineage-based fault tolerance (§3.4).
//!
//! Rocksteady skips synchronous re-replication during migration; safety
//! comes from the lineage dependency the coordinator records. These tests
//! kill each migration participant mid-flight, with clients writing the
//! whole time, and verify the paper's recovery contract:
//!
//! - **target crashes** → ownership reverts to the source, which merges
//!   the target's replicated log *tail* (every write the target
//!   acknowledged) into its own copy — nothing durably acknowledged is
//!   lost, even though migrated data was never re-replicated;
//! - **source crashes** → the target (already the owner) replays the
//!   source's replicated log to fill in whatever had not been pulled
//!   yet;
//! - **a baseline's target crashes** → the source, which never gave up
//!   ownership, records the run abandoned.

mod common;

use common::{answered_writes, assert_read_back, test_config};
use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::{MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_master::TabletRole;
use rocksteady_workload::YcsbConfig;

const KEYS: u64 = 20_000;

fn crash_script(victim: ServerId, kill_at: u64) -> Vec<(u64, ControlCmd)> {
    vec![
        (
            10 * MILLISECOND,
            ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
        ),
        (
            kill_at,
            ControlCmd::Kill {
                server: victim,
                detect_after: MILLISECOND,
            },
        ),
    ]
}

fn run_crash_case(victim: ServerId) -> ServerId {
    let mut b = ClusterBuilder::new(test_config());
    let dir = b.directory();
    // Heavy writes so durably-acked updates definitely race the crash.
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 60_000.0);
    ycsb.read_fraction = 0.5;
    b.add_ycsb(ycsb);
    // Kill while pulls are still flowing: the 20k-record migration takes
    // a few ms; 1 ms in is mid-flight.
    for (at, cmd) in crash_script(victim, 11 * MILLISECOND) {
        b.at(at, cmd);
    }
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);

    // Run long enough for detection, recovery, and client retries.
    cluster.run_until(2 * SECOND);

    // The migrating range must have a live owner that is not the victim.
    let owner = cluster
        .coord
        .borrow()
        .tablet_for(TABLE, u64::MAX)
        .expect("tablet still mapped")
        .owner;
    assert_ne!(owner, victim);
    assert!(cluster.coord.borrow().lineage_deps().is_empty());

    // Every record is readable somewhere, and every durably acknowledged
    // write survived: the lineage guarantee.
    let writes = answered_writes(&cluster);
    assert!(writes > 50, "only {writes} writes answered");
    assert_read_back(&mut cluster, KEYS);
    owner
}

#[test]
fn target_crash_reverts_to_source_with_lineage_merge() {
    // Ownership reverted to the source (§3.4).
    assert_eq!(run_crash_case(ServerId(1)), ServerId(0));
}

#[test]
fn source_crash_recovers_onto_target() {
    // The target keeps ownership and fills in from the source's log.
    assert_eq!(run_crash_case(ServerId(0)), ServerId(1));
}

/// Killing the source mid-migration must *cleanly abandon* the run on
/// the target: the abandonment is stamped in stats (so
/// `run_until_migrated` stops immediately instead of spinning to its
/// deadline), the coordinator's recovery supersedes the run, and client
/// reads of the migrating range eventually succeed again.
#[test]
fn source_crash_abandons_migration_cleanly() {
    let cfg = ClusterConfig {
        tracing: true,
        ..test_config()
    };
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.9;
    b.add_ycsb(ycsb);
    for (at, cmd) in crash_script(ServerId(0), 11 * MILLISECOND) {
        b.at(at, cmd);
    }
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);

    // The migration must be reported as abandoned, not run to deadline:
    // the driver loop exits within a couple of sample intervals of the
    // crash being detected (~12 ms), far before the 2 s deadline.
    let target = ServerId(1);
    let finished = cluster.run_until_migrated(target, MigrationId(1), 2 * SECOND);
    assert!(
        finished.is_none(),
        "migration finished against a dead source"
    );
    assert!(
        cluster.now() < 100 * MILLISECOND,
        "run_until_migrated spun to {} ns instead of exiting on abandonment",
        cluster.now()
    );
    let abandoned_at = cluster
        .migration_abandoned(target, MigrationId(1))
        .expect("abandonment not stamped");
    let s = cluster.server_stats[&target].view();
    assert_eq!(s.migrations_abandoned, 1);
    let (_, _, run) = cluster.migration_runs()[0];
    assert!(run.started_at < abandoned_at);
    // The abandonment left a trace event behind.
    let abandoned_events = cluster.trace.with_events(|events| {
        events
            .iter()
            .filter(|e| e.name == "mig:abandoned-source-died")
            .count()
    });
    assert!(abandoned_events >= 1, "no abandonment trace event");

    // Let recovery land and clients drain their retries.
    cluster.run_until(2 * SECOND);

    // Coordinator recovery superseded the run: the target owns the
    // range via RecoverTablet, and the lineage dependency is gone.
    let owner = cluster
        .coord
        .borrow()
        .tablet_for(TABLE, u64::MAX)
        .expect("tablet still mapped")
        .owner;
    assert_eq!(owner, target);
    assert!(cluster.coord.borrow().lineage_deps().is_empty());
    assert_read_back(&mut cluster, KEYS);

    // Client reads kept succeeding after the crash (retries resolved).
    let stats = cluster.client_stats[0].borrow();
    let reads = stats.read_latency.merged();
    assert!(
        reads.count() > 10_000,
        "only {} reads completed across the crash",
        reads.count()
    );
    assert_eq!(stats.not_found.get(), 0);
}

/// A baseline run (§2.3) whose target dies mid-copy ends abandoned in
/// its source's record rather than staying in flight, and ownership
/// never left the source.
#[test]
fn baseline_target_crash_abandons_the_run() {
    let mut b = ClusterBuilder::new(test_config());
    let (id, source, target) = (MigrationId(1), ServerId(0), ServerId(1));
    let start = ControlCmd::MigrateBaseline {
        id,
        table: TABLE,
        range: upper(),
        source,
        target,
        until: Default::default(),
    };
    b.at(5 * MILLISECOND, start);
    let kill = ControlCmd::Kill {
        server: target,
        detect_after: MILLISECOND,
    };
    b.at(10 * MILLISECOND, kill);
    let mut cluster = b.build();
    // 10 MB to copy: the run is still pushing when the target dies.
    preload_split(&mut cluster, KEYS, 1_000);
    let receiving = cluster.node(target);
    receiving
        .master
        .add_tablet(TABLE, upper(), TabletRole::Owner);

    let finished = cluster.run_until_migrated(source, id, SECOND);
    assert!(finished.is_none(), "baseline finished onto a dead target");
    let abandoned = cluster.migration_abandoned(source, id);
    assert!(abandoned.is_some_and(|t| t > 10 * MILLISECOND));
    let coord = cluster.coord.borrow();
    assert_eq!(coord.tablet_for(TABLE, u64::MAX).unwrap().owner, source);
}
