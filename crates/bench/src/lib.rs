//! Shared plumbing for the figure-regeneration benchmarks.
//!
//! Each `benches/figNN_*.rs` target is a `harness = false` binary that
//! rebuilds one table or figure from the paper's evaluation (§4) at the
//! simulator's scale, prints the same rows/series the paper plots, and
//! runs qualitative *shape checks* — who wins, by roughly what factor,
//! where the knees fall. EXPERIMENTS.md records paper-vs-measured for
//! every one of them.
//!
//! # Scale
//!
//! One scale substitution applies to every experiment (DESIGN.md §1):
//! the paper migrates 13.9 GB; we migrate tens of MB. Migration *rates*
//! (MB/s) are directly comparable; migration *durations* shrink
//! proportionally, so timeline x-axes here are in hundreds of
//! milliseconds instead of tens of seconds.

use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig};
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::{HashRange, Nanos, ServerId, TableId};
use rocksteady_metrics::timeline;

/// The table every benchmark uses.
pub const TABLE: TableId = TableId(1);
/// Migration split point (upper half moves).
pub const MID: u64 = u64::MAX / 2 + 1;

/// The migrating range.
pub fn upper() -> HashRange {
    HashRange {
        start: MID,
        end: u64::MAX,
    }
}

/// Prints the simulated "Table 1": the cluster configuration every
/// figure runs on.
pub fn print_table1(name: &str, cfg: &ClusterConfig, extra: &str) {
    println!("== {name} ==");
    println!("Table 1 (simulated cluster configuration)");
    println!(
        "  servers: {} (+1 coordinator) | workers/server: {} | replicas: {}",
        cfg.servers, cfg.workers, cfg.replicas
    );
    println!(
        "  NIC: {:.1} GB/s line rate, {} one-way | dispatch: {}/msg",
        cfg.nic.bytes_per_ns,
        fmt_nanos(cfg.nic.one_way_latency_ns),
        fmt_nanos(cfg.cost.dispatch_per_msg_ns),
    );
    println!(
        "  segments: {} KB | replication ceiling: {:.0} MB/s | seed: {}",
        cfg.segment_bytes / 1024,
        cfg.cost.replication_bytes_per_ns * 1e3,
        cfg.seed
    );
    if !extra.is_empty() {
        println!("  {extra}");
    }
    println!();
}

/// Standard migration-bench preload: table on server 0, `keys` records
/// (30 B keys, `value_len` B values), backups seeded, split at [`MID`].
pub fn standard_setup(cluster: &mut Cluster, keys: u64, value_len: usize) {
    cluster.create_table(TABLE, &[(HashRange::full(), ServerId(0))]);
    cluster.load_table(TABLE, keys, 30, value_len);
    cluster.seed_backups();
    cluster.split_tablet(TABLE, MID);
}

/// A qualitative shape check: prints `CHECK PASS/FAIL <what>`.
/// Returns the outcome so callers can aggregate.
pub fn check(ok: bool, what: &str) -> bool {
    println!("CHECK {} {}", if ok { "PASS" } else { "FAIL" }, what);
    ok
}

/// Mean of a slice (0.0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Builds a `ClusterBuilder` and hands it to `f` for customization —
/// sugar that keeps each figure binary focused on its experiment.
pub fn cluster(cfg: ClusterConfig, f: impl FnOnce(&mut ClusterBuilder)) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    f(&mut b);
    b.build()
}

/// Formats a nanosecond value for table cells.
pub fn ns(v: u64) -> String {
    fmt_nanos(v)
}

/// Per-bucket (median, p999) read latency merged across all of a
/// cluster's clients — the exact series Figures 10 and 13 plot.
pub fn merged_latency_rows(cluster: &Cluster, from: Nanos, to: Nanos) -> Vec<(Nanos, u64, u64)> {
    let borrows: Vec<_> = cluster.client_stats.iter().map(|s| s.borrow()).collect();
    timeline::merged_latency_timeline(borrows.iter().map(|s| &s.read_latency), from, to)
        .into_iter()
        .map(|p| (p.at, p.p50, p.p999))
        .collect()
}

/// Total completed ops/s per bucket summed across all of a cluster's
/// clients — the series Figures 9 and 14 plot.
pub fn total_throughput_rows(cluster: &Cluster, from: Nanos, to: Nanos) -> Vec<(Nanos, f64)> {
    let borrows: Vec<_> = cluster.client_stats.iter().map(|s| s.borrow()).collect();
    timeline::merged_throughput_timeline(borrows.iter().map(|s| &s.objects), from, to)
}

/// Where [`export_csv`] writes figure data: `target/figures/` at the
/// *workspace* root, regardless of the working directory cargo runs the
/// bench with (it uses the package directory, not the workspace root).
pub const FIGURE_DATA_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/figures");

/// Writes one figure's plotted series as CSV under
/// [`FIGURE_DATA_DIR`]`/<stem>.csv` and returns the path. `header` is a
/// comma-separated column list; each row must have as many cells as the
/// header has columns (checked, so a figure can't silently emit ragged
/// data). Every fig bench exports through here — one command
/// (`cargo bench --bench figNN_...`) regenerates both the console
/// report and the machine-readable series.
pub fn export_csv(stem: &str, header: &str, rows: &[Vec<String>]) -> std::path::PathBuf {
    let cols = header.split(',').count();
    let mut out = String::with_capacity(64 * (rows.len() + 1));
    out.push_str(header);
    out.push('\n');
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.len(),
            cols,
            "export_csv({stem}): row {i} has {} cells, header has {cols}",
            row.len()
        );
        out.push_str(&row.join(","));
        out.push('\n');
    }
    let dir = std::path::Path::new(FIGURE_DATA_DIR);
    std::fs::create_dir_all(dir).expect("create figure-data dir");
    // Canonicalize for a readable path (drops the `crates/bench/../..`
    // the workspace-root anchoring introduces).
    let dir = dir.canonicalize().expect("canonicalize figure-data dir");
    let path = dir.join(format!("{stem}.csv"));
    std::fs::write(&path, out).expect("write figure csv");
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_csv_roundtrip() {
        let rows = vec![
            vec!["0".to_string(), "42".to_string()],
            vec!["1000".to_string(), "43".to_string()],
        ];
        let path = export_csv("test_export_roundtrip", "t_ns,value", &rows);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "t_ns,value");
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 2, "ragged row: {line}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    #[should_panic(expected = "row 0 has 1 cells")]
    fn export_csv_rejects_ragged_rows() {
        export_csv("test_export_ragged", "a,b", &[vec!["only-one".to_string()]]);
    }
}
