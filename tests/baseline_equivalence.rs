//! Every migration mechanism must move the same data.
//!
//! Rocksteady and the pre-existing baseline (§2.3) differ in protocol,
//! not in outcome: after either completes, the target owns the range and
//! serves byte-identical records. The Figure 5 lever variants
//! deliberately break parts of the pipeline and must *not* transfer
//! ownership.

mod common;

use common::{test_config, verify_all_readable};
use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ControlCmd};
use rocksteady_common::{key_hash, MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_master::TabletRole;
use rocksteady_proto::msg::BaselineOpts;
use rocksteady_workload::core::primary_key;

const KEYS: u64 = 3_000;

/// Runs a migration mechanism and returns the sorted list of
/// `(rank, version)` for upper-half keys readable at the target.
fn run_and_collect(cmd: ControlCmd, expect_transfer: bool) -> Vec<(u64, u64)> {
    let baseline = matches!(cmd, ControlCmd::MigrateBaseline { .. });
    let mut b = ClusterBuilder::new(test_config());
    b.at(5 * MILLISECOND, cmd);
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);
    if baseline {
        // For baseline runs the receiving master needs the tablet
        // registered before records arrive (RAMCloud pre-creates it);
        // Rocksteady registers its own PullingFrom tablet.
        cluster
            .node(ServerId(1))
            .master
            .add_tablet(TABLE, upper(), TabletRole::Owner);
    }
    cluster.run_until(3 * SECOND);

    let owner = cluster
        .coord
        .borrow()
        .tablet_for(TABLE, u64::MAX)
        .unwrap()
        .owner;
    if expect_transfer {
        assert_eq!(owner, ServerId(1), "ownership did not transfer");
        verify_all_readable(&mut cluster, KEYS);
    } else {
        assert_eq!(owner, ServerId(0), "lever variant must not transfer");
    }

    let mut out = Vec::new();
    for rank in 0..KEYS {
        let key = primary_key(rank, 30);
        let hash = key_hash(&key);
        if !upper().contains(hash) {
            continue;
        }
        let node = cluster.node(ServerId(1));
        let mut work = rocksteady_master::Work::default();
        if let Ok((_, version)) = node.master.read(TABLE, hash, Some(&key), &mut work) {
            out.push((rank, version));
        }
    }
    out.sort_unstable();
    out
}

#[test]
fn rocksteady_and_baseline_converge_to_identical_data() {
    let rocksteady = run_and_collect(
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
        true,
    );
    let baseline = run_and_collect(
        ControlCmd::MigrateBaseline {
            table: TABLE,
            range: upper(),
            source: ServerId(0),
            target: ServerId(1),
            opts: BaselineOpts::default(),
        },
        true,
    );
    assert!(!rocksteady.is_empty());
    assert_eq!(
        rocksteady, baseline,
        "the two mechanisms moved different record sets"
    );
}

#[test]
fn skip_copy_lever_identifies_but_moves_nothing() {
    let moved = run_and_collect(
        ControlCmd::MigrateBaseline {
            table: TABLE,
            range: upper(),
            source: ServerId(0),
            target: ServerId(1),
            opts: BaselineOpts {
                skip_copy: true,
                ..BaselineOpts::default()
            },
        },
        false,
    );
    assert!(
        moved.is_empty(),
        "skip_copy shipped {} records",
        moved.len()
    );
}

#[test]
fn skip_replay_lever_transmits_but_target_stores_nothing() {
    let moved = run_and_collect(
        ControlCmd::MigrateBaseline {
            table: TABLE,
            range: upper(),
            source: ServerId(0),
            target: ServerId(1),
            opts: BaselineOpts {
                skip_replay: true,
                ..BaselineOpts::default()
            },
        },
        false,
    );
    assert!(
        moved.is_empty(),
        "skip_replay stored {} records",
        moved.len()
    );
}
