//! Figure 15: pull and replay scalability (§4.5).
//!
//! Isolates each end of the migration pipeline: sweep the worker count
//! on one side while the other side has ample capacity, with no client
//! load, and measure the achieved migration rate for small (128 B) and
//! large (1 KB) objects. The paper's findings:
//!
//! - source-side pull processing reaches ~5.7 GB/s for 128 B objects;
//! - target-side replay reaches ~3 GB/s — the source outpaces the
//!   target 1.8–2.4× on equal cores, so replay binds migration;
//! - for 1 KB objects neither side limits migration before the NIC's
//!   5 GB/s line rate does.

use rocksteady_cluster::scenarios::{preload_tablets, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::time::mb_per_sec;
use rocksteady_common::{HashRange, MigrationId, ServerId, MILLISECOND, SECOND};

use crate::Report;

#[derive(Clone, Copy, PartialEq)]
enum Side {
    Source,
    Target,
}

/// Migrates a whole table with `workers` on the measured side and 24 on
/// the other; returns the achieved rate in MB/s.
fn run(base: &ClusterConfig, side: Side, workers: usize, value_len: usize) -> f64 {
    let keys: u64 = match value_len {
        v if v >= 1_000 => 60_000,
        _ => 200_000,
    };
    let mut cfg = base.clone();
    let measured = match side {
        Side::Source => ServerId(0),
        Side::Target => ServerId(1),
    };
    cfg.workers_by_server = vec![(measured, workers)];
    // Enough partitions to keep every worker fed (§3.1.1: "a small
    // constant factor more partitions than worker cores").
    cfg.migration.partitions = (2 * workers).max(8);
    let mut b = ClusterBuilder::new(cfg);
    let whole = HashRange::full();
    b.at(
        MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, whole, ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[ServerId(0)], keys, value_len);
    let finished = cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 30 * SECOND)
        .expect("migration completes");
    let bytes = cluster.server_stats[&ServerId(1)].bytes_migrated_in.get();
    mb_per_sec(bytes, finished - MILLISECOND)
}

pub(super) fn figure(report: &mut Report) {
    let base = ClusterConfig {
        servers: 2,
        workers: 24,
        replicas: 0,
        segment_bytes: 1 << 20,
        sample_interval: 10 * MILLISECOND,
        ..ClusterConfig::default()
    };
    report.table1(
        "Figure 15: source/target migration scalability",
        &base,
        "unloaded; one side's worker count swept, the other fixed at 24",
    );

    let sweep = [1usize, 2, 4, 8, 12, 16];
    println!(
        "{:>8} {:>18} {:>18} {:>18} {:>18}",
        "workers", "src 128B (MB/s)", "tgt 128B (MB/s)", "src 1KB (MB/s)", "tgt 1KB (MB/s)"
    );
    let mut src128 = Vec::new();
    let mut tgt128 = Vec::new();
    let mut src1k = Vec::new();
    let mut tgt1k = Vec::new();
    for &w in &sweep {
        let s128 = run(&base, Side::Source, w, 100);
        let t128 = run(&base, Side::Target, w, 100);
        let s1k = run(&base, Side::Source, w, 1_000);
        let t1k = run(&base, Side::Target, w, 1_000);
        println!("{w:>8} {s128:>18.0} {t128:>18.0} {s1k:>18.0} {t1k:>18.0}");
        src128.push(s128);
        tgt128.push(t128);
        src1k.push(s1k);
        tgt1k.push(t1k);
    }
    println!("\nline rate: 5000 MB/s");

    // Scaling: both sides speed up substantially from 1 to 8 workers.
    report.check(
        src128[3] > 2.5 * src128[0],
        &format!(
            "source pull processing scales with workers ({:.0} -> {:.0} MB/s)",
            src128[0], src128[3]
        ),
    );
    report.check(
        tgt128[3] > 2.5 * tgt128[0],
        &format!(
            "target replay scales with workers ({:.0} -> {:.0} MB/s)",
            tgt128[0], tgt128[3]
        ),
    );
    // §4.5: replay binds — with equal cores the source-limited rate
    // exceeds the target-limited rate by ~1.8-2.4x for small objects.
    let ratio = src128[4] / tgt128[4].max(1.0);
    report.check(
        (1.3..=3.0).contains(&ratio),
        &format!("source outpaces target replay on small objects ({ratio:.2}x; paper 1.8-2.4x)"),
    );
    // Absolute anchors at 12 workers (the paper's core count).
    report.check(
        (3_500.0..=8_000.0).contains(&src128[4]),
        &format!(
            "source ~5.7 GB/s for 128 B at 12 workers (got {:.1} GB/s)",
            src128[4] / 1e3
        ),
    );
    report.check(
        (2_000.0..=4_200.0).contains(&tgt128[4]),
        &format!(
            "target ~3 GB/s for 128 B at 12 workers (got {:.1} GB/s)",
            tgt128[4] / 1e3
        ),
    );
    // 1 KB objects: the NIC (not either CPU side) limits migration.
    report.check(
        src1k[4] > 3_000.0 && tgt1k[4] > 3_000.0,
        &format!(
            "for 1 KB objects neither side limits below ~line rate (src {:.1}, tgt {:.1} GB/s)",
            src1k[4] / 1e3,
            tgt1k[4] / 1e3
        ),
    );
}
