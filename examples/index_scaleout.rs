//! Index scale-out: the Figure 2 / Figure 4 narrative.
//!
//! ```text
//! cargo run --release --example index_scaleout
//! ```
//!
//! RAMCloud's secondary indexes hold primary-key *hashes* and are range
//! partitioned into indexlets, independently of the hash-partitioned
//! table (Figure 2). A scan is two phases: fetch hashes from one
//! indexlet, then multi-get the records from the backing tablets. This
//! example runs the same scan workload against one indexlet and against
//! a split pair, showing the split raising sustainable throughput.

use rocksteady_cluster::scenarios::{preload_tablets, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig};
use rocksteady_common::ids::IndexId;
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{ServerId, MILLISECOND, SECOND};
use rocksteady_master::Indexlet;
use rocksteady_workload::scan::secondary_key;
use rocksteady_workload::ScanConfig;

const KEYS: u64 = 50_000;

/// Runs `scans_per_sec` against one or two indexlets; returns
/// (achieved scans/s, median, p999).
fn run(indexlets: usize, scans_per_sec: f64) -> (f64, u64, u64) {
    let index = IndexId(0);
    let split = secondary_key(KEYS / 2, 30);

    // Index lookups dominate: a SLIK-style B-tree descent costs several
    // microseconds, which is what makes the indexlet the bottleneck and
    // splitting it worthwhile (Figure 4).
    let cost = rocksteady_common::CostModel {
        index_lookup_ns: 4_000,
        ..Default::default()
    };
    let mut builder = ClusterBuilder::new(ClusterConfig {
        servers: 3,
        workers: 4,
        replicas: 0,
        cost,
        sample_interval: 50 * MILLISECOND,
        series_interval: 100 * MILLISECOND,
        ..ClusterConfig::default()
    });
    let dir = builder.directory();
    let ranges = if indexlets == 1 {
        vec![(Vec::new(), None, ServerId(1))]
    } else {
        vec![
            (Vec::new(), Some(split.clone()), ServerId(1)),
            (split.clone(), None, ServerId(2)),
        ]
    };
    builder.add_scan(ScanConfig {
        dir,
        table: TABLE,
        index,
        sec_key_len: 30,
        num_keys: KEYS,
        indexlets: ranges,
        scan_len: 4,
        dist: KeyDist::Zipfian { theta: 0.5 },
        scans_per_sec,
        max_outstanding: 128,
        seed: 7,
    });

    let mut cluster = builder.build();
    preload_tablets(&mut cluster, &[ServerId(0)], KEYS, 100);

    // Build the indexlet(s) exactly as the ranges above describe.
    let mut lower = Indexlet::new(TABLE, index, Vec::new(), None);
    for rank in 0..KEYS {
        lower.insert(
            &secondary_key(rank, 30),
            rocksteady_workload::core::primary_hash(rank, 30),
        );
    }
    if indexlets == 1 {
        cluster.node(ServerId(1)).master.add_indexlet(lower);
    } else {
        let upper = lower.split_at(&split);
        cluster.node(ServerId(1)).master.add_indexlet(lower);
        cluster.node(ServerId(2)).master.add_indexlet(upper);
    }

    cluster.run_until(SECOND);
    let stats = cluster.client_stats[0].borrow();
    let mut hist = rocksteady_common::Histogram::new();
    let mut count = 0u64;
    // Skip the first 200 ms of warm-up.
    for (at, slot) in stats.read_latency.iter() {
        if at >= 200 * MILLISECOND {
            hist.merge(slot);
            count += slot.count();
        }
    }
    let secs = 0.8;
    (
        count as f64 / secs,
        hist.percentile(0.5),
        hist.percentile(0.999),
    )
}

fn main() {
    println!("index scans (4 records, Zipfian theta=0.5 start keys) — Figure 2/4 narrative\n");
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>10}",
        "indexlets", "offered/s", "achieved/s", "median", "99.9th"
    );
    for &indexlets in &[1usize, 2] {
        for &rate in &[200_000.0f64, 500_000.0, 800_000.0] {
            let (achieved, p50, p999) = run(indexlets, rate);
            println!(
                "{:<12} {:>14.0} {:>14.0} {:>10} {:>10}",
                indexlets,
                rate,
                achieved,
                fmt_nanos(p50),
                fmt_nanos(p999)
            );
        }
    }
    println!("\nsplitting the index raises sustainable scan throughput (Figure 4's point).");
}
