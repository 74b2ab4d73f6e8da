//! The `migration/write-churn` golden scenario under seeds the digests
//! do not pin. `golden.rs` says what seed 42 does; this says the
//! protocol's promises do not depend on the seed — a down payment on
//! ROADMAP item 4's search.

mod common;

use common::{test_config, write_churn};
use rocksteady_cluster::scenarios::TABLE;
use rocksteady_cluster::ClusterConfig;
use rocksteady_workload::core::primary_key;

const SEEDS: [u64; 8] = [1, 7, 99, 1234, 2017, 31_337, 0xdead_beef, u64::MAX];

#[test]
fn write_churn_keeps_its_promises_on_every_seed() {
    for seed in SEEDS {
        let cfg = ClusterConfig {
            seed,
            audit: true,
            ..test_config()
        };
        // Finished migration and a cleaner that reclaimed: asserted inside.
        let mut cluster = write_churn(cfg, seed ^ 0x5eed);

        let deps = cluster.coord.borrow().lineage_deps().len();
        assert_eq!(deps, 0, "seed {seed}: lineage dependency left behind");
        let audit = cluster.audit_report();
        assert_eq!(audit.violations, 0, "seed {seed}: {audit:?}");

        // Highest acknowledged version per key: it must still be there.
        let mut acked = vec![0u64; 5_000];
        for stats in &cluster.client_stats {
            let stats = stats.borrow();
            assert_eq!(stats.timeouts.get(), 0, "seed {seed}: client timeouts");
            assert_eq!(stats.not_found.get(), 0, "seed {seed}: client NotFound");
            assert!(!stats.confirmed_writes.is_empty(), "seed {seed}: no writes");
            for &(rank, version) in &stats.confirmed_writes {
                acked[rank as usize] = acked[rank as usize].max(version);
            }
        }
        for (rank, &acked) in acked.iter().enumerate() {
            let read = cluster.read_direct(TABLE, &primary_key(rank as u64, 30));
            let version = read.map(|(_, version)| version);
            assert!(
                version >= Some(acked.max(1)),
                "seed {seed}: rank {rank} reads {version:?}, acknowledged at {acked}"
            );
        }
    }
}
