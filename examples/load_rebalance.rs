//! Load rebalancing: the paper's motivating scenario (§1, §2.1).
//!
//! ```text
//! cargo run --release --example load_rebalance
//! ```
//!
//! One server holds a hot, skewed table while another sits idle. We
//! migrate the hot half with Rocksteady and compare the client's
//! throughput and tail latency before and after: exploiting the second
//! server's capacity should raise throughput and flatten the tail, and
//! PriorityPulls should keep the table continuously available.

use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::{Histogram, MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::YcsbConfig;

fn window(stats: &rocksteady_workload::ClientStats, from: u64, to: u64) -> (f64, Histogram) {
    let mut hist = Histogram::new();
    let mut ops = 0u64;
    for (at, slot) in stats.read_latency.iter() {
        if at >= from && at < to {
            hist.merge(slot);
            ops += slot.count();
        }
    }
    let secs = (to - from) as f64 / SECOND as f64;
    (ops as f64 / secs, hist)
}

fn main() {
    let keys: u64 = 100_000;

    let mut builder = ClusterBuilder::new(ClusterConfig {
        servers: 3,
        workers: 4,
        replicas: 2,
        sample_interval: 50 * MILLISECOND,
        series_interval: 100 * MILLISECOND,
        ..ClusterConfig::default()
    });
    let dir = builder.directory();
    // A hot, skewed workload aimed at one server: enough load that the
    // single server's dispatch is the bottleneck.
    let mut ycsb = YcsbConfig::ycsb_b(dir, TABLE, keys, 600_000.0);
    ycsb.max_outstanding = 256;
    builder.add_ycsb(ycsb);
    builder.at(
        SECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );

    let mut cluster = builder.build();
    preload_split(&mut cluster, keys, 100);

    cluster.run_until(3 * SECOND);

    let finished = cluster.migration_finished(ServerId(1), MigrationId(1));
    let stats = cluster.client_stats[0].borrow();
    // Before: [0.2s, 1.0s); after: the second after migration completed.
    let (tp_before, lat_before) = window(&stats, 200 * MILLISECOND, SECOND);
    let after_start = finished.unwrap_or(15 * SECOND / 10) + 200 * MILLISECOND;
    let (tp_after, lat_after) = window(&stats, after_start, 3 * SECOND);

    println!("hot-tablet rebalancing: migrate half of a loaded table\n");
    println!(
        "{:<22} {:>14} {:>12} {:>12}",
        "phase", "throughput", "median", "99.9th"
    );
    for (name, tp, lat) in [
        ("before (1 server)", tp_before, &lat_before),
        ("after  (2 servers)", tp_after, &lat_after),
    ] {
        println!(
            "{:<22} {:>10.0} op/s {:>12} {:>12}",
            name,
            tp,
            fmt_nanos(lat.percentile(0.5)),
            fmt_nanos(lat.percentile(0.999)),
        );
    }
    match finished {
        Some(t) => println!(
            "\nmigration completed at t={} ({} retries, {} map refreshes — zero downtime)",
            fmt_nanos(t),
            stats.retries.get(),
            stats.map_refreshes.get()
        ),
        None => println!("\nmigration still running at the end of the window"),
    }
    if tp_after > tp_before {
        println!(
            "throughput improved {:.1}x by spreading the hot tablet",
            tp_after / tp_before
        );
    }
}
