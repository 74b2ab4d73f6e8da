//! The figure-regeneration benchmark.
//!
//! The one `figures` bench target (`harness = false`) rebuilds the
//! tables and figures of the paper's evaluation (§4) at the simulator's
//! scale. Each figure is a module of [`figures`] exposing one function
//! over a shared [`Report`]: it prints the same rows/series the paper
//! plots, exports them as CSV, and runs qualitative *shape checks* — who
//! wins, by roughly what factor, where the knees fall. EXPERIMENTS.md
//! records paper-vs-measured for every one of them.
//!
//! # Scale
//!
//! One scale substitution applies to every experiment (DESIGN.md §1):
//! the paper migrates 13.9 GB; we migrate tens of MB. Migration *rates*
//! (MB/s) are directly comparable; migration *durations* shrink
//! proportionally, so timeline x-axes here are in hundreds of
//! milliseconds instead of tens of seconds.

use std::path::PathBuf;

use rocksteady_cluster::ClusterConfig;
use rocksteady_common::time::fmt_nanos;
use rocksteady_simnet::NicConfig;

pub mod figures;

/// Where [`Report::export_csv`] writes figure data: `target/figures/` at
/// the *workspace* root, regardless of the working directory cargo runs
/// the bench with (it uses the package directory, not the workspace
/// root).
pub const FIGURE_DATA_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/figures");

/// What a run of figures has to say for itself: each figure's title and
/// Table 1, its shape checks, its exported series.
#[derive(Default)]
pub struct Report {
    failed: bool,
}

impl Report {
    /// Prints a figure's title and its "Table 1" — the simulated cluster
    /// configuration — from `cfg`, which must be the value the figure
    /// builds its runs from.
    pub fn table1(&self, title: &str, cfg: &ClusterConfig, extra: &str) {
        print!("{}", table1(title, cfg, extra));
    }

    /// A qualitative shape check: prints `CHECK PASS/FAIL <what>` and
    /// remembers a failure for [`Report::failed`].
    pub fn check(&mut self, ok: bool, what: &str) {
        println!("CHECK {} {}", if ok { "PASS" } else { "FAIL" }, what);
        self.failed |= !ok;
    }

    /// Whether any check so far failed.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Writes one figure's plotted series as CSV under
    /// [`FIGURE_DATA_DIR`]`/<stem>.csv` and returns the path. `header`
    /// is a comma-separated column list; each row must have as many
    /// cells as the header has columns (checked, so a figure can't
    /// silently emit ragged data). Every figure exports through here —
    /// one command (`cargo bench -p rocksteady-bench --bench figures --
    /// figNN`) regenerates both the console report and the
    /// machine-readable series.
    pub fn export_csv(&self, stem: &str, header: &str, rows: &[Vec<String>]) -> PathBuf {
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
}

fn table1(title: &str, cfg: &ClusterConfig, extra: &str) -> String {
    let nic = NicConfig::default();
    let mut out = format!("== {title} ==\nTable 1 (simulated cluster configuration)\n");
    out += &format!(
        "  servers: {} (+1 coordinator) | workers/server: {} | replicas: {}\n",
        cfg.servers, cfg.workers, cfg.replicas
    );
    out += &format!(
        "  NIC: {:.1} GB/s line rate, {} one-way | dispatch: {}/msg\n",
        nic.bytes_per_ns,
        fmt_nanos(nic.one_way_latency_ns),
        fmt_nanos(cfg.cost.dispatch_per_msg_ns),
    );
    out += &format!(
        "  segments: {} KB | replication ceiling: {:.0} MB/s | seed: {}\n",
        cfg.segment_bytes / 1024,
        cfg.cost.replication_bytes_per_ns * 1e3,
        cfg.seed
    );
    if !extra.is_empty() {
        out += &format!("  {extra}\n");
    }
    out + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints_the_configuration_it_is_given() {
        let cfg = ClusterConfig {
            segment_bytes: 1 << 20,
            ..ClusterConfig::default()
        };
        let text = table1("t", &cfg, "");
        assert!(text.contains("segments: 1024 KB"), "{text}");
        let text = table1("t", &ClusterConfig::default(), "");
        assert!(text.contains("segments: 256 KB"), "{text}");
    }

    #[test]
    fn a_failed_check_sticks() {
        let mut report = Report::default();
        report.check(true, "fine");
        assert!(!report.failed());
        report.check(false, "not fine");
        report.check(true, "fine again");
        assert!(report.failed());
    }

    #[test]
    fn export_csv_roundtrip() {
        let rows = vec![
            vec!["0".to_string(), "42".to_string()],
            vec!["1000".to_string(), "43".to_string()],
        ];
        let path = Report::default().export_csv("test_export_roundtrip", "t_ns,value", &rows);
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
        Report::default().export_csv("test_export_ragged", "a,b", &[vec!["only-one".to_string()]]);
    }
}
