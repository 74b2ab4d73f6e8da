//! Concurrent migrations: the single-migration assumptions, fixed.
//!
//! Rocksteady's evaluation drives one migration at a time, but nothing
//! in the protocol requires that — and an autonomous rebalancer
//! actively wants several tablets in flight at once. These tests pin
//! the multi-migration contract end to end:
//!
//! - two disjoint migrations run simultaneously and both land, with
//!   per-migration-id stamps proving they overlapped in time;
//! - one node can serve pulls for an outbound migration while
//!   replaying an inbound one, at the same time;
//! - crashing a participant of one migration recovers that migration's
//!   range without disturbing the other (per-dependency lineage
//!   cleanup, not a global reset);
//! - the whole concurrent schedule is deterministic per seed;
//! - the autonomous rebalancer actor moves tablets off a hot server
//!   through the same path, and disarmed it leaves no trace.

mod common;

use common::verify_all_readable;
use rocksteady_cluster::scenarios::{preload_tablets, slice, TABLE};
use rocksteady_cluster::{
    AdmissionCaps, Cluster, ClusterBuilder, ClusterConfig, ControlCmd, GreedyLoadDelta,
    RebalancerConfig,
};
use rocksteady_common::{HashRange, MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::{LoadShape, YcsbConfig};

const KEYS: u64 = 20_000;

/// Quarter `i` of the hash space as a tablet range.
fn quarter(i: usize) -> HashRange {
    slice(i, 4)
}

fn four_server_config() -> ClusterConfig {
    ClusterConfig {
        servers: 4,
        workers: 4,
        replicas: 2,
        sample_interval: MILLISECOND,
        series_interval: 10 * MILLISECOND,
        ..ClusterConfig::default()
    }
}

/// Table in four quarter tablets: server 0 owns q0+q1, server 1 owns
/// q2+q3.
fn setup_quarters(cluster: &mut Cluster) {
    preload_tablets(cluster, &[0, 0, 1, 1].map(ServerId), KEYS, 100);
}

/// Two disjoint migrations fired at the same instant: q1 from 0 to 2
/// and q3 from 1 to 3 — different sources, different targets.
fn disjoint_pair_script(b: &mut ClusterBuilder) {
    b.at(
        10 * MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, quarter(1), ServerId(0), ServerId(2)),
    );
    b.at(
        10 * MILLISECOND,
        ControlCmd::migrate(MigrationId(2), TABLE, quarter(3), ServerId(1), ServerId(3)),
    );
}

fn run_disjoint_pair(seed: u64) -> Cluster {
    let mut b = ClusterBuilder::new(ClusterConfig {
        seed,
        ..four_server_config()
    });
    let dir = b.directory();
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.8;
    b.add_ycsb(ycsb);
    disjoint_pair_script(&mut b);
    let mut cluster = b.build();
    setup_quarters(&mut cluster);
    cluster.run_until(SECOND);
    cluster
}

#[test]
fn two_disjoint_migrations_complete_concurrently() {
    let mut cluster = run_disjoint_pair(42);

    let fin1 = cluster
        .migration_finished(ServerId(2), MigrationId(1))
        .expect("migration 1 did not finish");
    let fin2 = cluster
        .migration_finished(ServerId(3), MigrationId(2))
        .expect("migration 2 did not finish");

    // Both started at the same control tick, so if each is stamped
    // individually the windows must overlap — and the harness's
    // sweep-line must see that.
    assert!(
        cluster.peak_concurrent_migrations() >= 2,
        "migrations did not overlap (finished at {fin1} and {fin2})"
    );

    // Ownership moved for both ranges; lineage fully retired.
    let coord = cluster.coord.borrow();
    assert_eq!(
        coord.tablet_for(TABLE, quarter(1).start).unwrap().owner,
        ServerId(2)
    );
    assert_eq!(
        coord.tablet_for(TABLE, quarter(3).end).unwrap().owner,
        ServerId(3)
    );
    assert!(coord.lineage_deps().is_empty());
    drop(coord);

    verify_all_readable(&mut cluster, KEYS);
}

#[test]
fn node_serves_pulls_while_replaying_an_inbound_migration() {
    let mut b = ClusterBuilder::new(four_server_config());
    let dir = b.directory();
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.8;
    b.add_ycsb(ycsb);
    // Server 1 is simultaneously the source of migration 1 (q2 -> 2)
    // and the target of migration 2 (q1 <- 0).
    b.at(
        10 * MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, quarter(2), ServerId(1), ServerId(2)),
    );
    b.at(
        10 * MILLISECOND,
        ControlCmd::migrate(MigrationId(2), TABLE, quarter(1), ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    setup_quarters(&mut cluster);
    cluster.run_until(SECOND);

    assert!(
        cluster
            .migration_finished(ServerId(2), MigrationId(1))
            .is_some(),
        "outbound migration from the dual-role node did not finish"
    );
    assert!(
        cluster
            .migration_finished(ServerId(1), MigrationId(2))
            .is_some(),
        "inbound migration into the dual-role node did not finish"
    );
    assert!(cluster.peak_concurrent_migrations() >= 2);

    let coord = cluster.coord.borrow();
    assert_eq!(
        coord.tablet_for(TABLE, quarter(2).start).unwrap().owner,
        ServerId(2)
    );
    assert_eq!(
        coord.tablet_for(TABLE, quarter(1).start).unwrap().owner,
        ServerId(1)
    );
    assert!(coord.lineage_deps().is_empty());
    drop(coord);

    verify_all_readable(&mut cluster, KEYS);
}

#[test]
fn crash_of_one_participant_leaves_the_other_migration_unharmed() {
    let mut b = ClusterBuilder::new(four_server_config());
    let dir = b.directory();
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.5;
    b.add_ycsb(ycsb);
    disjoint_pair_script(&mut b);
    // Kill migration 2's target while both migrations are mid-flight:
    // 100 us after the starts, with fast detection, so the crash report
    // lands well before either quarter (several ms of pulls) finishes.
    b.at(
        10 * MILLISECOND + 100_000,
        ControlCmd::Kill {
            server: ServerId(3),
            detect_after: 200_000,
        },
    );
    let mut cluster = b.build();
    setup_quarters(&mut cluster);
    cluster.run_until(2 * SECOND);

    // The killed target never finished its run...
    assert!(
        cluster
            .migration_finished(ServerId(3), MigrationId(2))
            .is_none(),
        "crash was meant to interrupt migration 2 mid-flight"
    );
    // ...but migration 1 completed untouched.
    assert!(
        cluster
            .migration_finished(ServerId(2), MigrationId(1))
            .is_some(),
        "unrelated migration was disturbed by the crash"
    );
    let coord = cluster.coord.borrow();
    assert_eq!(
        coord.tablet_for(TABLE, quarter(1).start).unwrap().owner,
        ServerId(2)
    );
    // Migration 2's range reverted to its source when the target died.
    assert_eq!(
        coord.tablet_for(TABLE, quarter(3).end).unwrap().owner,
        ServerId(1)
    );
    // Only migration 2's lineage dep was dropped — and it *was* dropped.
    assert!(coord.lineage_deps().is_empty());
    drop(coord);

    verify_all_readable(&mut cluster, KEYS);
}

/// Source-crash variant, with the protocol auditor armed: kill
/// migration 2's *source* while both migrations are mid-flight. The
/// coordinator must drop every lineage dependency involving the dead
/// server (the auditor's lineage invariant checks exactly that at the
/// crash event), the surviving migration's timeline must stay clean
/// and conservation-verified, and the explain engine must pin a breach
/// window around the crash on the crash, not on migration pressure.
#[test]
fn source_crash_drops_dead_lineage_and_leaves_survivor_verified() {
    let mut cfg = four_server_config();
    cfg.audit = true;
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, KEYS, 40_000.0);
    ycsb.read_fraction = 0.5;
    b.add_ycsb(ycsb);
    disjoint_pair_script(&mut b);
    // Kill migration 2's *source* (server 1, which owns q2 and q3)
    // 100 us after the starts, while both runs are pulling.
    let crash_at = 10 * MILLISECOND + 100_000;
    b.at(
        crash_at,
        ControlCmd::Kill {
            server: ServerId(1),
            detect_after: 200_000,
        },
    );
    let mut cluster = b.build();
    setup_quarters(&mut cluster);
    cluster.run_until(2 * SECOND);

    // The survivor finished; the orphaned run never did.
    assert!(
        cluster
            .migration_finished(ServerId(2), MigrationId(1))
            .is_some(),
        "surviving migration was disturbed by the source crash"
    );
    assert!(
        cluster
            .migration_finished(ServerId(3), MigrationId(2))
            .is_none(),
        "crash was meant to interrupt migration 2's source"
    );

    // No lineage dependency involving the dead server survived.
    let coord = cluster.coord.borrow();
    assert!(coord
        .lineage_deps()
        .iter()
        .all(|d| d.source != ServerId(1) && d.target != ServerId(1)));
    drop(coord);

    // The auditor watched the whole thing and found nothing wrong:
    // in particular its lineage check (stale deps at crash time) and
    // single-owner check (windows closed by the crash) stayed green,
    // and the survivor's record conservation was verified.
    let report = cluster.audit_report();
    assert_eq!(
        report.violations,
        0,
        "auditor flagged the crash handling: {:?}",
        cluster.audit.violations()
    );
    assert!(report.migrations_verified >= 1, "survivor never verified");
    assert!(report.migrations_abandoned >= 1, "orphan never abandoned");

    // A breach window around the crash blames the crash first.
    let explain = cluster
        .explain_slo_breach(crash_at, crash_at + 10 * MILLISECOND)
        .expect("no explanation for the crash window");
    let crash_pos = explain.find("\"cause\":\"crash\"").expect("crash absent");
    if let Some(mig_pos) = explain.find("\"cause\":\"migration\"") {
        assert!(crash_pos < mig_pos, "crash not ranked first: {explain}");
    }

    verify_all_readable(&mut cluster, KEYS);
}

#[test]
fn concurrent_migration_schedule_is_deterministic() {
    let a = run_disjoint_pair(7);
    let b = run_disjoint_pair(7);
    assert_eq!(
        a.sim.events_processed(),
        b.sim.events_processed(),
        "same seed must replay the same concurrent schedule"
    );
    assert_eq!(a.migration_runs(), b.migration_runs());

    let c = run_disjoint_pair(8);
    assert_ne!(
        a.sim.events_processed(),
        c.sim.events_processed(),
        "different seeds should perturb the schedule"
    );
}

#[test]
fn rebalancer_sheds_tablets_from_a_hot_server() {
    let mut cfg = four_server_config();
    cfg.rebalancer = Some(RebalancerConfig {
        interval: 20 * MILLISECOND,
        caps: AdmissionCaps::default(),
        policy: Box::new(GreedyLoadDelta::new(0.08, 2).with_cooldown(200 * MILLISECOND)),
    });
    let mut b = ClusterBuilder::new(cfg);
    let mut y = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, 150_000.0);
    y.seed = 40;
    // All heat on the last quarter (owned by server 1) from t=0.
    y.shape = LoadShape::SkewFlip {
        at: 0,
        buckets: 4,
        hot_weight: 0.8,
    };
    b.add_ycsb_clients(2, y);
    let mut cluster = b.build();
    setup_quarters(&mut cluster);
    cluster.run_until(SECOND);

    let report = cluster.rebalancer.borrow().clone();
    assert!(report.ticks > 10, "rebalancer never ticked");
    assert!(
        report.completed >= 1,
        "no migration completed (proposed {}, admitted {})",
        report.proposed,
        report.admitted
    );
    // Every issued move pulled off the overloaded server.
    assert!(report
        .moves
        .iter()
        .all(|m| m.proposal.source == ServerId(1)));
    // Ownership genuinely changed: server 1 no longer owns everything
    // it started with.
    let owners: Vec<ServerId> = {
        let coord = cluster.coord.borrow();
        (0..4)
            .map(|q| coord.tablet_for(TABLE, quarter(q).start).unwrap().owner)
            .collect()
    };
    assert!(
        owners.iter().filter(|o| **o == ServerId(1)).count() < 2,
        "hot server still owns {owners:?}"
    );
    verify_all_readable(&mut cluster, KEYS);
}

#[test]
fn disarmed_rebalancer_reports_nothing_and_schedule_matches_default() {
    // `rebalancer: None` is the default; the report handle exists but
    // stays all-zero, and building with an explicit `None` is
    // event-identical to the config default (no hidden actor).
    let run = |explicit_none: bool| {
        let mut cfg = four_server_config();
        if explicit_none {
            cfg.rebalancer = None;
        }
        let mut b = ClusterBuilder::new(cfg);
        let dir = b.directory();
        b.add_ycsb(YcsbConfig::ycsb_b(dir, TABLE, KEYS, 40_000.0));
        let mut cluster = b.build();
        setup_quarters(&mut cluster);
        cluster.run_until(200 * MILLISECOND);
        cluster
    };
    let a = run(false);
    let b = run(true);
    assert_eq!(a.sim.events_processed(), b.sim.events_processed());
    assert_eq!(a.rebalancer.borrow().ticks, 0);
    assert_eq!(a.rebalancer.borrow().admitted, 0);
    assert!(a.rebalancer.borrow().moves.is_empty());
}
