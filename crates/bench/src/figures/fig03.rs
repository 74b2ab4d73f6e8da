//! Figure 3: throughput and CPU-load impact of multiget access locality
//! (§2.1).
//!
//! 7 servers, 14 clients issuing back-to-back 7-key multigets. `spread`
//! is the number of servers each multiget touches: at spread 1 the whole
//! cluster is worker-bound and throughput is high; every extra server
//! per multiget multiplies the *dispatch* work for the same object count
//! until the dispatch cores saturate and throughput collapses toward a
//! single server's.

use rocksteady_cluster::scenarios::{preload_tablets, slice, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig, UtilPoint};
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::{CostModel, HashRange, Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::SpreadConfig;

use super::mean;
use crate::Report;

const SERVERS: usize = 7;
const CLIENTS: usize = 14;
const CONCURRENCY: usize = 12;
const KEYS: u64 = 70_000;
const WARMUP: u64 = 50 * MILLISECOND;
const END: u64 = 200 * MILLISECOND;

struct Row {
    spread: usize,
    objects_per_sec: f64,
    p50: u64,
    p999: u64,
    dispatch: f64,
    worker_cores: f64,
}

fn run(base: &ClusterConfig, spread: usize) -> Row {
    let mut b = ClusterBuilder::new(base.clone());
    let dir = b.directory();
    // Tablet split: one range per server; key ranks classified below.
    let owners: Vec<ServerId> = (0..SERVERS).map(|i| ServerId(i as u32)).collect();
    let mut cluster_keys: Vec<(ServerId, Vec<u64>)> =
        owners.iter().map(|owner| (*owner, Vec::new())).collect();
    let ranges: Vec<HashRange> = (0..SERVERS).map(|i| slice(i, SERVERS)).collect();
    for rank in 0..KEYS {
        let hash = rocksteady_workload::core::primary_hash(rank, 30);
        let idx = ranges.iter().position(|r| r.contains(hash)).unwrap();
        cluster_keys[idx].1.push(rank);
    }
    for i in 0..CLIENTS {
        b.add_spread(SpreadConfig {
            dir: dir.clone(),
            table: TABLE,
            key_len: 30,
            keys_by_server: cluster_keys.clone(),
            spread,
            keys_per_op: 7,
            concurrency: CONCURRENCY,
            seed: 1_000 + i as u64,
        });
    }
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &owners, KEYS, 100);
    cluster.run_until(END);

    // Client-side: objects/s and latency over the measurement window.
    let mut objects = 0u64;
    let mut lat = rocksteady_common::Histogram::new();
    for stats in &cluster.client_stats {
        let s = stats.borrow();
        for (at, h) in s.objects.iter() {
            if at >= WARMUP {
                objects += h.count();
            }
        }
        for (at, h) in s.read_latency.iter() {
            if at >= WARMUP {
                lat.merge(h);
            }
        }
    }
    let secs = (END - WARMUP) as f64 / SECOND as f64;

    // Server-side: mean utilization over the window (every server has
    // the same number of samples, so the mean of means is the mean).
    let util = cluster.util.borrow();
    let over_servers = |f: fn(&UtilPoint) -> f64| {
        let per_server = owners.iter().map(|s| util.mean(*s, WARMUP, Nanos::MAX, f));
        mean(&per_server.collect::<Vec<_>>())
    };
    Row {
        spread,
        objects_per_sec: objects as f64 / secs,
        p50: lat.percentile(0.5),
        p999: lat.percentile(0.999),
        dispatch: over_servers(|p| p.dispatch),
        worker_cores: over_servers(|p| p.worker_cores),
    }
}

pub(super) fn figure(report: &mut Report) {
    // Multi-read handlers on real RAMCloud cost ~2.3 us per object
    // (Figure 3 shows ~0.8 worker utilization at ~600k multigets/s per
    // server); the default model's leaner read path is tuned for
    // single-object RPCs, so this experiment carries its own
    // calibration.
    let cost = CostModel {
        read_per_object_ns: 2_300,
        ..CostModel::default()
    };
    let base = ClusterConfig {
        servers: SERVERS,
        workers: 12,
        replicas: 0,
        cost,
        sample_interval: 10 * MILLISECOND,
        series_interval: 10 * MILLISECOND,
        ..ClusterConfig::default()
    };
    report.table1(
        "Figure 3: multiget spread",
        &base,
        &format!("{CLIENTS} clients x {CONCURRENCY} back-to-back 7-key multigets, {KEYS} keys"),
    );

    println!(
        "{:>7} {:>16} {:>10} {:>10} {:>10} {:>12}",
        "spread", "objects/s (M)", "median", "99.9th", "dispatch", "workers busy"
    );
    let rows: Vec<Row> = (1..=7).map(|spread| run(&base, spread)).collect();
    for r in &rows {
        println!(
            "{:>7} {:>16.2} {:>10} {:>10} {:>10.2} {:>12.1}",
            r.spread,
            r.objects_per_sec / 1e6,
            fmt_nanos(r.p50),
            fmt_nanos(r.p999),
            r.dispatch,
            r.worker_cores,
        );
    }
    println!();

    report.check(
        rows[1].objects_per_sec < 0.92 * rows[0].objects_per_sec,
        &format!(
            "spread 2 drops cluster throughput (paper: -23%; got {:+.0}%)",
            100.0 * (rows[1].objects_per_sec / rows[0].objects_per_sec - 1.0)
        ),
    );
    report.check(
        rows[0].objects_per_sec / rows[6].objects_per_sec >= 2.0,
        &format!(
            "locality is worth a large factor end to end (paper: 4.3x; got {:.1}x)",
            rows[0].objects_per_sec / rows[6].objects_per_sec
        ),
    );
    report.check(
        rows[6].dispatch > rows[0].dispatch + 0.2,
        &format!(
            "dispatch load rises with spread ({:.2} -> {:.2})",
            rows[0].dispatch, rows[6].dispatch
        ),
    );
    report.check(
        rows[6].worker_cores < rows[0].worker_cores,
        &format!(
            "workers idle out as dispatch saturates ({:.1} -> {:.1} cores)",
            rows[0].worker_cores, rows[6].worker_cores
        ),
    );
    report.check(
        rows[6].p999 > rows[0].p999,
        "tail latency grows with spread",
    );
}
