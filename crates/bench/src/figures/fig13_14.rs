//! Figures 13 and 14: asynchronous batched PriorityPulls vs the naïve
//! synchronous approach, with background Pulls disabled (§4.4).
//!
//! With no bulk Pulls, the only way records reach the target is
//! on-demand. The paper's findings:
//!
//! - async + batched restores the *median* almost immediately (clients
//!   get "retry later" and the de-duplicated batch fetches hot records
//!   once each);
//! - synchronous single-key PriorityPulls stall target worker cores for
//!   a full round trip per miss, raising target worker utilization and
//!   adding median jitter — but answer waiting clients directly, so
//!   their 99.9th can be lower.

use rocksteady::PriorityPulls;
use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::{FxHashSet, Histogram, MigrationId, Nanos, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::YcsbConfig;

use super::merged_latency_rows;
use crate::Report;

const KEYS: u64 = 300_000;
const CLIENTS: usize = 8;
const RATE_PER_CLIENT: f64 = 60_000.0;
const MIG_AT: Nanos = 300 * MILLISECOND;
const TRACE_WINDOW: Nanos = 300 * MILLISECOND;
const END: Nanos = SECOND;

struct Out {
    name: &'static str,
    cluster: Cluster,
}

fn run(base: &ClusterConfig, priority_pulls: PriorityPulls) -> Out {
    let mut cfg = base.clone();
    cfg.migration.priority_pulls = priority_pulls;
    let mut b = ClusterBuilder::new(cfg);
    let mut y = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, RATE_PER_CLIENT);
    y.max_outstanding = 64;
    y.seed = 500;
    b.add_ycsb_clients(CLIENTS, y);
    b.at(
        MIG_AT,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 100);
    // Record the trace only around the migration window (first 300 ms
    // after the start command) to bound memory; muting the recorder
    // never perturbs the simulation itself.
    cluster.set_tracing(false);
    cluster.run_until(MIG_AT - MILLISECOND);
    cluster.set_tracing(true);
    cluster.run_until(MIG_AT + TRACE_WINDOW);
    cluster.set_tracing(false);
    cluster.run_until(END);
    Out {
        name: if priority_pulls == PriorityPulls::Sync {
            "Sync and Single (b)"
        } else {
            "Async and Batched (a)"
        },
        cluster,
    }
}

fn latency_series(out: &Out) -> Vec<(Nanos, u64, u64)> {
    merged_latency_rows(&out.cluster, 0, Nanos::MAX)
}

fn target_worker_util(out: &Out, from: Nanos, to: Nanos) -> f64 {
    let util = out.cluster.util.borrow();
    util.mean(ServerId(1), from, to, |p| p.worker_cores)
}

/// Peak simultaneous worker occupancy on the target: synchronous
/// PriorityPulls stall many cores at once right after migration starts.
fn target_worker_peak(out: &Out, from: Nanos, to: Nanos) -> f64 {
    let util = out.cluster.util.borrow();
    util.by_server[&ServerId(1)]
        .iter()
        .filter(|p| p.at >= from && p.at < to)
        .map(|p| p.worker_cores)
        .fold(0.0, f64::max)
}

/// Did this run's trace window capture any reads?
fn out_traced(out: &Out) -> bool {
    out.cluster
        .trace
        .instant_arg_histogram("read", "queue")
        .count()
        > 0
}

/// One decomposition series: label, reads, queue/service/hold.
type DecompSeries = (&'static str, u64, Histogram, Histogram, Histogram);

/// Splits the server-side read decomposition by whether the read's
/// journey crossed the live migration (needed retries, or had a
/// PriorityPull issued on its behalf). The split shows where the
/// post-flip tail actually comes from: clean reads keep their
/// pre-migration profile while crossing reads absorb the queue/hold
/// cost of the miss path.
fn decomp_split(out: &Out) -> Vec<DecompSeries> {
    let crossed: FxHashSet<u64> = out
        .cluster
        .journeys()
        .iter()
        .filter(|j| j.crossed_migration())
        .map(|j| j.trace)
        .collect();
    out.cluster.trace.with_events(|events| {
        let mut series: Vec<DecompSeries> = vec![
            (
                "clean",
                0,
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ),
            (
                "crossed_migration",
                0,
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ),
        ];
        for ev in events {
            if ev.name != "read" || ev.cat != "rpc" {
                continue;
            }
            let (Some(trace), Some(q), Some(sv), Some(h)) = (
                ev.arg("trace"),
                ev.arg("queue"),
                ev.arg("service"),
                ev.arg("hold"),
            ) else {
                continue;
            };
            let row = &mut series[usize::from(crossed.contains(&trace))];
            row.1 += 1;
            row.2.record(q);
            row.3.record(sv);
            row.4.record(h);
        }
        series
    })
}

/// Median-latency jitter: buckets whose median exceeds 1.5x the
/// pre-migration median (Figure 13b's visual signature).
fn median_jitter(out: &Out, pre_median: u64) -> usize {
    latency_series(out)
        .iter()
        .filter(|(t, p50, _)| *t >= MIG_AT && *p50 > pre_median + pre_median / 2)
        .count()
}

pub(super) fn figure(report: &mut Report) {
    let mut base = ClusterConfig {
        servers: 4,
        workers: 12,
        replicas: 2,
        sample_interval: 10 * MILLISECOND,
        series_interval: 20 * MILLISECOND,
        tracing: true,
        ..ClusterConfig::default()
    };
    base.migration.background_pulls = false; // the §4.4 isolation
    report.table1(
        "Figures 13/14: PriorityPulls without background Pulls",
        &base,
        &format!("{KEYS} records x 100 B, {CLIENTS} clients x {RATE_PER_CLIENT:.0} ops/s, bulk Pulls disabled"),
    );

    let asynchronous = run(&base, PriorityPulls::Batched);
    let synchronous = run(&base, PriorityPulls::Sync);

    for out in [&asynchronous, &synchronous] {
        println!("--- {} ---", out.name);
        println!("Fig 13 (read latency, 20 ms buckets):");
        println!("  {:>8} {:>10} {:>10}", "t", "median", "99.9th");
        for (t, p50, p999) in latency_series(out)
            .iter()
            .filter(|(t, _, _)| *t >= MIG_AT - 60 * MILLISECOND)
        {
            println!(
                "  {:>8} {:>10} {:>10}",
                format!("{}ms", t / MILLISECOND),
                fmt_nanos(*p50),
                fmt_nanos(*p999)
            );
        }
        println!(
            "Fig 14: target worker cores busy during migration window: {:.2}",
            target_worker_util(out, MIG_AT, END)
        );
        // Trace-derived decomposition (first 300 ms of migration): where
        // the read latency actually goes on the server. Synchronous
        // pulls show up as worker *hold* time — the core is pinned for a
        // full PriorityPull round trip per miss.
        let t = &out.cluster.trace;
        let queue = t.instant_arg_histogram("read", "queue");
        let service = t.instant_arg_histogram("read", "service");
        let hold = t.instant_arg_histogram("read", "hold");
        println!(
            "trace: {} reads — median queue {} / service {} / hold {} (99.9th hold {})",
            queue.count(),
            fmt_nanos(queue.percentile(0.5)),
            fmt_nanos(service.percentile(0.5)),
            fmt_nanos(hold.percentile(0.5)),
            fmt_nanos(hold.percentile(0.999)),
        );
        let pp_rpc = t.instant_arg_histogram("priority-pull", "service");
        let pp_batch = t.span_histogram("mig:priority-pull");
        println!(
            "trace: {} PriorityPull RPCs reached the source; {} batched round trips, median {}",
            pp_rpc.count(),
            pp_batch.count(),
            fmt_nanos(pp_batch.percentile(0.5)),
        );
        // Journey-derived split: the same three segments, separated by
        // whether the read crossed the live migration.
        let split = decomp_split(out);
        for (label, reads, q, sv, h) in &split {
            println!(
                "trace[{label}]: {reads} reads — median queue {} / service {} / hold {} (99.9th hold {})",
                fmt_nanos(q.percentile(0.5)),
                fmt_nanos(sv.percentile(0.5)),
                fmt_nanos(h.percentile(0.5)),
                fmt_nanos(h.percentile(0.999)),
            );
        }
        println!();

        // Machine-readable series for re-plotting.
        let s = if out.name.starts_with("Sync") {
            "sync_single"
        } else {
            "async_batched"
        };
        report.export_csv(
            &format!("fig13_decomp_{s}"),
            "series,reads,queue_p50_ns,service_p50_ns,hold_p50_ns,hold_p999_ns",
            &split
                .iter()
                .map(|(label, reads, q, sv, h)| {
                    vec![
                        (*label).to_string(),
                        reads.to_string(),
                        q.percentile(0.5).to_string(),
                        sv.percentile(0.5).to_string(),
                        h.percentile(0.5).to_string(),
                        h.percentile(0.999).to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        report.export_csv(
            &format!("fig13_latency_{s}"),
            "t_ns,p50_ns,p999_ns",
            &latency_series(out)
                .iter()
                .map(|(t, p50, p999)| vec![t.to_string(), p50.to_string(), p999.to_string()])
                .collect::<Vec<_>>(),
        );
        let util = out.cluster.util.borrow();
        report.export_csv(
            &format!("fig14_target_workers_{s}"),
            "t_ns,worker_cores",
            &util.by_server[&ServerId(1)]
                .iter()
                .map(|p| vec![p.at.to_string(), format!("{:.4}", p.worker_cores)])
                .collect::<Vec<_>>(),
        );
    }

    // Fig 13a: the async median recovers almost immediately — within
    // 100 ms of migration start it is back near the pre-migration value.
    let pre_median = latency_series(&asynchronous)
        .iter()
        .filter(|(t, _, _)| *t < MIG_AT)
        .map(|(_, p50, _)| *p50)
        .max()
        .unwrap_or(0);
    let async_after: Vec<u64> = latency_series(&asynchronous)
        .iter()
        .filter(|(t, _, _)| *t >= MIG_AT + 100 * MILLISECOND)
        .map(|(_, p50, _)| *p50)
        .collect();
    let async_median_after = async_after.iter().copied().max().unwrap_or(0);
    report.check(
        async_median_after <= pre_median.saturating_mul(3),
        &format!(
            "Fig 13a: async median recovers quickly (pre {}, after {})",
            fmt_nanos(pre_median),
            fmt_nanos(async_median_after)
        ),
    );
    // Fig 13b: synchronous single-key pulls cause median jitter that the
    // async batched mode does not exhibit (§4.4).
    let async_jitter = median_jitter(&asynchronous, pre_median);
    let sync_jitter = median_jitter(&synchronous, pre_median);
    report.check(
        sync_jitter >= async_jitter,
        &format!("Fig 13b: sync mode shows at least as much median jitter ({sync_jitter} vs {async_jitter} buckets)"),
    );
    // Fig 14 / §4.4: "synchronous priority pulls would increase both
    // dispatch and worker load during migration due to the increased
    // number of RPCs to the source" — without batching and
    // de-duplication, the source serves far more PriorityPull RPCs.
    let a_mean = target_worker_util(&asynchronous, MIG_AT, END);
    let s_mean = target_worker_util(&synchronous, MIG_AT, END);
    let a_peak = target_worker_peak(&asynchronous, MIG_AT, MIG_AT + 100 * MILLISECOND);
    let s_peak = target_worker_peak(&synchronous, MIG_AT, MIG_AT + 100 * MILLISECOND);
    println!(
        "Fig 14 detail: worker cores busy — async mean {a_mean:.2} peak {a_peak:.1}, sync mean {s_mean:.2} peak {s_peak:.1}"
    );
    let pp = |out: &Out| {
        out.cluster.server_stats[&ServerId(0)]
            .priority_pulls_served
            .get()
    };
    println!(
        "PriorityPull RPCs served by the source: async {} vs sync {}",
        pp(&asynchronous),
        pp(&synchronous)
    );
    // §4.4's latency trade-off, directly: the sync approach answers the
    // waiting client the moment the pull returns, so its 99.9th is no
    // worse than async's; async's median is no worse than sync's.
    let during = |out: &Out| {
        let mut h = rocksteady_common::Histogram::new();
        for stats in &out.cluster.client_stats {
            let s = stats.borrow();
            for (at, b) in s.read_latency.iter() {
                if (MIG_AT..MIG_AT + 300 * MILLISECOND).contains(&at) {
                    h.merge(b);
                }
            }
        }
        (h.percentile(0.5), h.percentile(0.999))
    };
    let (a_p50, a_p999) = during(&asynchronous);
    let (s_p50, s_p999) = during(&synchronous);
    report.check(
        s_p999 <= a_p999.saturating_mul(13) / 10,
        &format!(
            "Fig 13: sync 99.9th no worse than async (sync {} vs async {})",
            fmt_nanos(s_p999),
            fmt_nanos(a_p999)
        ),
    );
    report.check(
        a_p50 <= s_p50.saturating_mul(13) / 10,
        &format!(
            "Fig 13: async median no worse than sync (async {} vs sync {})",
            fmt_nanos(a_p50),
            fmt_nanos(s_p50)
        ),
    );
    // The trace window captured the migration in both modes, and the
    // async mode's PriorityPulls really are batched: fewer RPCs reach
    // the source than in the single-key-per-miss mode.
    let pp_rpcs = |out: &Out| {
        out.cluster
            .trace
            .instant_arg_histogram("priority-pull", "service")
            .count()
    };
    report.check(
        out_traced(&asynchronous) && out_traced(&synchronous),
        "traces captured reads during the migration window",
    );
    let crossed_reads = |out: &Out| decomp_split(out)[1].1;
    report.check(
        crossed_reads(&asynchronous) > 0 && crossed_reads(&synchronous) > 0,
        &format!(
            "journey split captured migration-crossing reads (async {}, sync {})",
            crossed_reads(&asynchronous),
            crossed_reads(&synchronous)
        ),
    );
    report.check(
        pp_rpcs(&synchronous) >= pp_rpcs(&asynchronous),
        &format!(
            "Fig 14: batching sends no more PP RPCs than sync ({} vs {})",
            pp_rpcs(&asynchronous),
            pp_rpcs(&synchronous)
        ),
    );
    // Both variants keep serving: no starvation in either mode.
    for out in [&asynchronous, &synchronous] {
        let served: u64 = out
            .cluster
            .client_stats
            .iter()
            .map(|c| c.borrow().objects.merged().count())
            .sum();
        report.check(
            served > 100_000,
            &format!(
                "{}: clients keep completing operations ({served})",
                out.name
            ),
        );
    }
}
