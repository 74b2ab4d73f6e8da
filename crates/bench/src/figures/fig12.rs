//! Figure 12: source-side dispatch load across migration start, as a
//! function of workload skew (§4.3).
//!
//! The claim: regardless of skew θ ∈ {0, 0.5, 0.99, 1.5}, batched
//! PriorityPulls hide the extra dispatch load the background Pulls put
//! on the source — its dispatch utilization stays roughly flat from
//! migration start to completion (the eager ownership transfer sheds as
//! much load as the Pulls add).

use rocksteady_cluster::scenarios::{preload_split, upper, TABLE};
use rocksteady_cluster::{ClusterBuilder, ClusterConfig, ControlCmd};
use rocksteady_common::zipf::KeyDist;
use rocksteady_common::{MigrationId, Nanos, ServerId, MILLISECOND};
use rocksteady_workload::YcsbConfig;

use crate::Report;

const KEYS: u64 = 300_000;
const CLIENTS: usize = 8;
const RATE_PER_CLIENT: f64 = 95_000.0;
const MIG_AT: Nanos = 500 * MILLISECOND;
const END: Nanos = 1_200 * MILLISECOND;

fn run(base: &ClusterConfig, theta: f64) -> (f64, f64, Vec<(Nanos, f64)>) {
    let mut b = ClusterBuilder::new(base.clone());
    let mut y = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, RATE_PER_CLIENT);
    y.dist = if theta == 0.0 {
        KeyDist::Uniform
    } else {
        KeyDist::Zipfian { theta }
    };
    y.max_outstanding = 128;
    y.seed = 300;
    b.add_ycsb_clients(CLIENTS, y);
    b.at(
        MIG_AT,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );
    let mut cluster = b.build();
    preload_split(&mut cluster, KEYS, 1_000);
    cluster.run_until(END);

    let util = cluster.util.borrow();
    let dispatch = |from, to| util.mean(ServerId(0), from, to, |p| p.dispatch);
    let pre = dispatch(MIG_AT - 200 * MILLISECOND, MIG_AT);
    let finished = cluster
        .migration_finished(ServerId(1), MigrationId(1))
        .unwrap_or(END);
    let during = dispatch(MIG_AT, finished.max(MIG_AT + 20 * MILLISECOND));
    let series = util.by_server[&ServerId(0)]
        .iter()
        .filter(|p| p.at >= MIG_AT - 100 * MILLISECOND && p.at < finished + 100 * MILLISECOND)
        .map(|p| (p.at, p.dispatch))
        .collect();
    (pre, during, series)
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
        "Figure 12: source dispatch load vs workload skew",
        &base,
        &format!("{KEYS} records x 1 KB, {CLIENTS} clients x {RATE_PER_CLIENT:.0} ops/s"),
    );

    println!(
        "{:>6} {:>18} {:>20} {:>10}",
        "theta", "dispatch before", "dispatch during mig", "delta"
    );
    let mut series_rows = Vec::new();
    for theta in [0.0, 0.5, 0.99, 1.5] {
        let (pre, during, series) = run(&base, theta);
        println!(
            "{:>6} {:>18.2} {:>20.2} {:>+10.2}",
            theta,
            pre,
            during,
            during - pre
        );
        for (t, dispatch) in &series {
            series_rows.push(vec![
                theta.to_string(),
                t.to_string(),
                format!("{dispatch:.4}"),
            ]);
        }
        // The figure's claim: source dispatch stays roughly flat across
        // migration start, at every skew.
        report.check(
            during <= pre + 0.15,
            &format!("theta={theta}: source dispatch stays flat across migration start"),
        );
    }
    report.export_csv(
        "fig12_source_dispatch_by_skew",
        "theta,t_ns,dispatch",
        &series_rows,
    );
}
