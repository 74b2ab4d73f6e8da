//! The `migration/write-churn` golden scenario under seeds the digests
//! do not pin. `golden.rs` says what seed 42 does; this says the
//! protocol's promises do not depend on the seed — a down payment on
//! ROADMAP item 4's search.

mod common;

use common::{answered_writes, test_config, write_churn};
use rocksteady_cluster::scenarios::read_back;
use rocksteady_cluster::ClusterConfig;

const SEEDS: [u64; 8] = [1, 7, 99, 1234, 2017, 31_337, 0xdead_beef, u64::MAX];

#[test]
fn write_churn_keeps_its_promises_on_every_seed() {
    for seed in SEEDS {
        let cfg = ClusterConfig {
            seed,
            ..test_config()
        };
        // Finished migration and a cleaner that reclaimed: asserted inside.
        let mut cluster = write_churn(cfg, seed ^ 0x5eed);

        let deps = cluster.coord.borrow().lineage_deps().len();
        assert_eq!(deps, 0, "seed {seed}: lineage dependency left behind");
        for stats in &cluster.client_stats {
            let stats = stats.borrow();
            assert_eq!(stats.timeouts.get(), 0, "seed {seed}: client timeouts");
            assert_eq!(stats.not_found.get(), 0, "seed {seed}: client NotFound");
        }
        assert!(answered_writes(&cluster) > 0, "seed {seed}: no writes");

        // Every key reads back at or above its highest acknowledged version.
        read_back(&mut cluster, 5_000);
        let found = cluster.audit.violations();
        assert!(found.is_empty(), "seed {seed}: {found:?}");
    }
}
