//! Figure 5: bottlenecks of RAMCloud's pre-existing log-replay
//! migration (§2.3).
//!
//! Reruns the baseline migration five times, each time disabling one
//! more pipeline stage, and reports the effective migration rate:
//!
//! | variant | paper (MB/s, steady state) |
//! |---|---|
//! | Full                 | ~130 |
//! | Skip Re-replication  | ~180 |
//! | Skip Replay on Target| ~600 |
//! | Skip Tx to Target    | ~710 |
//! | Skip Copy for Tx     | ~1150 |
//!
//! Since PR 5 the decomposition itself is *measured*, not inferred from
//! counters: every run arms the `rocksteady-profiler` activity ledger,
//! so each variant reports exactly where every core's virtual time went
//! (pull gather, replay, hold, dispatch, idle — conserving wall-clock
//! per core) and exports both a per-core CSV and folded flamegraph
//! stacks per variant.

use rocksteady_cluster::scenarios::{preload_tablets, TABLE};
use rocksteady_cluster::{Activity, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::time::mb_per_sec;
use rocksteady_common::{HashRange, ServerId, MILLISECOND};
use rocksteady_master::TabletRole;
use rocksteady_proto::msg::BaselineOpts;

use crate::{Report, FIGURE_DATA_DIR};

const KEYS: u64 = 150_000;

/// Result of one baseline-migration variant, including its measured
/// per-core time decomposition.
struct VariantRun {
    rate: f64,
    series: Vec<(u64, f64)>,
    /// `variant,server,core,activity,ns` rows (source + target cores).
    decomposition: Vec<Vec<String>>,
    folded: String,
    /// Per-core conservation: busy + idle == wall-clock on every core.
    conserved: bool,
    /// Target-side replay ns (summed over cores), for the ledger checks.
    target_replay_ns: u64,
    /// Source-side pull-gather ns (baseline scan steps), ditto.
    source_gather_ns: u64,
}

fn run_variant(base: &ClusterConfig, name: &str, csv_name: &str, opts: BaselineOpts) -> VariantRun {
    let mut b = ClusterBuilder::new(base.clone());
    b.at(
        10 * MILLISECOND,
        ControlCmd::MigrateBaseline {
            table: TABLE,
            range: HashRange::full(),
            source: ServerId(0),
            target: ServerId(1),
            opts,
        },
    );
    let mut cluster = b.build();
    // The whole table migrates; load it all on the source.
    preload_tablets(&mut cluster, &[ServerId(0)], KEYS, 100);
    // The baseline target pre-registers the receiving tablet (§2.3).
    cluster
        .node(ServerId(1))
        .master
        .add_tablet(TABLE, HashRange::full(), TabletRole::Owner);

    // Run until the source stops making progress.
    let stats = cluster.server_stats[&ServerId(0)].clone();
    let mut last = 0u64;
    let mut stale = 0;
    let mut elapsed_end = 0u64;
    for step in 1..=3_000u64 {
        cluster.run_until(step * 10 * MILLISECOND);
        let out = stats.bytes_migrated_out.get();
        if out == last && out > 0 {
            stale += 1;
            if stale >= 10 {
                break;
            }
        } else {
            if out != last {
                elapsed_end = step * 10 * MILLISECOND;
            }
            stale = 0;
            last = out;
        }
    }
    let start = 10 * MILLISECOND;
    let duration = elapsed_end.saturating_sub(start).max(1);
    let rate = mb_per_sec(last, duration);

    // Rate-over-time series, as Figure 5 plots it.
    let series: Vec<(u64, f64)> = {
        let util = cluster.util.borrow();
        util.by_server
            .get(&ServerId(0))
            .map(|points| {
                points
                    .iter()
                    .filter(|p| p.bytes_out > 0)
                    .map(|p| {
                        (
                            p.at.saturating_sub(start) / MILLISECOND,
                            mb_per_sec(p.bytes_out, util.interval),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    };

    // Harvest the activity ledger: the measured decomposition.
    cluster.finalize_profile();
    let summary = cluster
        .profiler
        .validate()
        .expect("ledger conservation violated");
    let mut decomposition = Vec::new();
    let mut conserved = summary.busy_ns + summary.idle_ns > 0;
    let mut target_replay_ns = 0u64;
    let mut source_gather_ns = 0u64;
    for core in cluster.profiler.cores() {
        let bucket_sum: u64 = core.buckets.iter().sum();
        conserved &= bucket_sum == core.wall;
        for (act, ns) in Activity::ALL.iter().zip(core.buckets.iter()) {
            if core.server <= 1 && *ns > 0 {
                decomposition.push(vec![
                    csv_name.to_string(),
                    format!("server{}", core.server),
                    rocksteady_cluster::core_label(core.core),
                    act.label().to_string(),
                    ns.to_string(),
                ]);
            }
            match (core.server, act) {
                (1, Activity::Replay) => target_replay_ns += ns,
                (0, Activity::PullGather) => source_gather_ns += ns,
                _ => {}
            }
        }
    }
    println!(
        "{name:<22} {rate:>8.0} MB/s over {} ms  (replay {:>5} ms, gather {:>5} ms)",
        duration / MILLISECOND,
        target_replay_ns / MILLISECOND,
        source_gather_ns / MILLISECOND,
    );
    VariantRun {
        rate,
        series,
        decomposition,
        folded: cluster.export_folded(),
        conserved,
        target_replay_ns,
        source_gather_ns,
    }
}

pub(super) fn figure(report: &mut Report) {
    let base = ClusterConfig {
        servers: 5,
        workers: 12,
        replicas: 3,
        segment_bytes: 1 << 20,
        sample_interval: 10 * MILLISECOND,
        profiling: true,
        ..ClusterConfig::default()
    };
    report.table1(
        "Figure 5: baseline-migration bottleneck breakdown",
        &base,
        &format!("{KEYS} records x 100 B payload, whole-table baseline migration"),
    );

    println!("{:<22} {:>13}", "variant", "steady rate");
    let full = run_variant(&base, "Full", "full", BaselineOpts::default());
    let no_rerepl = run_variant(
        &base,
        "Skip Re-replication",
        "skip_rereplication",
        BaselineOpts {
            skip_rereplication: true,
            ..Default::default()
        },
    );
    let no_replay = run_variant(
        &base,
        "Skip Replay on Target",
        "skip_replay",
        BaselineOpts {
            skip_replay: true,
            ..Default::default()
        },
    );
    let no_tx = run_variant(
        &base,
        "Skip Tx to Target",
        "skip_tx",
        BaselineOpts {
            skip_tx: true,
            ..Default::default()
        },
    );
    let no_copy = run_variant(
        &base,
        "Skip Copy for Tx",
        "skip_copy",
        BaselineOpts {
            skip_copy: true,
            ..Default::default()
        },
    );
    let variants = [
        ("full", &full),
        ("skip_rereplication", &no_rerepl),
        ("skip_replay", &no_replay),
        ("skip_tx", &no_tx),
        ("skip_copy", &no_copy),
    ];

    println!("\nFull-variant rate over time (Figure 5's x-axis, scaled):");
    for (t_ms, mbps) in full.series.iter().take(30) {
        println!("  t={t_ms:>5} ms  {mbps:>7.0} MB/s");
    }

    report.export_csv(
        "fig05_steady_rates",
        "variant,mb_per_s",
        &variants
            .iter()
            .map(|(v, r)| vec![v.to_string(), format!("{:.1}", r.rate)])
            .collect::<Vec<_>>(),
    );
    report.export_csv(
        "fig05_rate_over_time_full",
        "t_ms,mb_per_s",
        &full
            .series
            .iter()
            .map(|(t, r)| vec![t.to_string(), format!("{r:.1}")])
            .collect::<Vec<_>>(),
    );
    // The measured decomposition: per-core activity ledger of the
    // source and target, all variants in one CSV, plus per-variant
    // folded stacks for flamegraph.pl.
    report.export_csv(
        "fig05_core_decomposition",
        "variant,server,core,activity,ns",
        &variants
            .iter()
            .flat_map(|(_, r)| r.decomposition.iter().cloned())
            .collect::<Vec<_>>(),
    );
    std::fs::create_dir_all(FIGURE_DATA_DIR).expect("create figure dir");
    for (csv_name, run) in &variants {
        let path = format!("{FIGURE_DATA_DIR}/fig05_profile_{csv_name}.folded");
        std::fs::write(&path, &run.folded).expect("write folded stacks");
    }
    println!("\nwrote fig05_core_decomposition.csv + per-variant .folded stacks");

    println!();
    report.check(
        no_copy.rate > no_tx.rate
            && no_tx.rate > no_replay.rate
            && no_replay.rate > no_rerepl.rate
            && no_rerepl.rate > full.rate,
        "each skipped stage raises the migration rate (ordering matches Figure 5)",
    );
    report.check(
        (60.0..=300.0).contains(&full.rate),
        &format!(
            "full baseline lands near the paper's ~130 MB/s (got {:.0})",
            full.rate
        ),
    );
    report.check(
        no_replay.rate / full.rate >= 2.5,
        &format!(
            "skipping target replay+re-replication gives the paper's >3x jump (got {:.1}x)",
            no_replay.rate / full.rate
        ),
    );
    report.check(
        no_copy.rate / no_tx.rate >= 1.2,
        &format!(
            "the staging copy costs more than transmission (copy lever {:.2}x)",
            no_copy.rate / no_tx.rate
        ),
    );
    // Ledger-level checks: the decomposition is measured, conserving,
    // and tracks what each variant actually disabled.
    report.check(
        variants.iter().all(|(_, r)| r.conserved),
        "busy + idle sums exactly to wall-clock on every core, every variant",
    );
    report.check(
        full.target_replay_ns > 0 && full.source_gather_ns > 0,
        "full variant charges both target replay and source gather time",
    );
    report.check(
        no_replay.target_replay_ns == 0,
        &format!(
            "skip_replay variant charges no target replay time (got {} ns)",
            no_replay.target_replay_ns
        ),
    );
}
