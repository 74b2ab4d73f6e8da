//! A day in the life of a rebalanced cluster.
//!
//! The paper's closing argument (§5) is that once migration is fast and
//! tail-safe, it stops being an emergency tool and becomes routine load
//! management. This scenario plays that out: a compressed "day" of
//! drifting demand — a hot working set that wanders across the key
//! space and flips abruptly mid-run — offered to a 4-server cluster
//! whose table is partitioned into 16 tablets. We run the day twice
//! from the same seed: once with static placement, once with the
//! autonomous rebalancer (greedy load-delta policy under admission
//! caps) armed.
//!
//! Headline metric: **SLO breach-minutes** — virtual minutes of
//! sampling windows whose p99.9 read latency exceeded the SLA. The
//! rebalancer must cut breach-minutes versus static placement, must
//! drive at least two *concurrent* admission-controlled migrations
//! while doing so, and the whole day must be byte-deterministic per
//! seed.

use rocksteady_cluster::scenarios::{preload_tablets, TABLE};
use rocksteady_cluster::{
    AdmissionCaps, Cluster, ClusterBuilder, ClusterConfig, GreedyLoadDelta, RebalancerConfig,
};
use rocksteady_common::{CostModel, Nanos, ServerId, MILLISECOND};
use rocksteady_workload::{ClientStatsHandle, LoadShape, YcsbConfig};

use super::merged_latency_rows;
use crate::Report;

const SERVERS: usize = 4;
const TABLETS: u32 = 16;
const KEYS: u64 = 120_000;
const CLIENTS: usize = 6;
const RATE_PER_CLIENT: f64 = 60_000.0;
const DAY: Nanos = 2_500 * MILLISECOND;
const DWELL: Nanos = 500 * MILLISECOND;
const FLIP_AT: Nanos = 1_500 * MILLISECOND;

fn base_config() -> ClusterConfig {
    // Timeline-figure scaling (see rocksteady_bench docs): dispatch
    // costs x10 so one hot server saturates at a simulable event rate.
    let mut cost = CostModel::default();
    cost.dispatch_per_msg_ns *= 10;
    cost.dispatch_tx_per_msg_ns *= 10;
    cost.migration_mgr_check_ns *= 10;
    ClusterConfig {
        servers: SERVERS,
        workers: 12,
        cost,
        replicas: 2,
        segment_bytes: 1 << 20,
        sample_interval: 50 * MILLISECOND,
        series_interval: 100 * MILLISECOND,
        sla: Some(400_000),
        seed: 42,
        ..ClusterConfig::default()
    }
}

fn rebalancer_config() -> RebalancerConfig {
    RebalancerConfig {
        interval: 100 * MILLISECOND,
        // Two sources / two targets at once, four cluster-wide: enough
        // concurrency to shed a hotspot quickly, still bounded so the
        // migration traffic cannot swamp any one participant.
        caps: AdmissionCaps {
            per_source: 2,
            per_target: 2,
            cluster: 4,
        },
        // The cooldown keeps the (indistinguishable-under-uniform-
        // attribution) hot tablet from ping-ponging every interval.
        policy: Box::new(GreedyLoadDelta::new(0.12, 4).with_cooldown(800 * MILLISECOND)),
    }
}

fn run_day(base: &ClusterConfig, rebalance: bool) -> Cluster {
    let mut cfg = base.clone();
    if rebalance {
        cfg.rebalancer = Some(rebalancer_config());
    }
    // The protocol auditor rides along on every run: arming it is
    // guaranteed non-perturbing, and the day must end with zero
    // invariant violations (checked below).
    cfg.audit = true;
    // So does the flight recorder: its watchdog evaluates the anomaly
    // detectors on every sampling interval, and a healthy day — even a
    // rebalanced one full of migrations — must trip none of them. The
    // SLO-burn detector is deliberately left out: this scenario runs
    // the cluster at the edge of its SLA on purpose (breach-minutes is
    // the headline metric), so a burn alert would be a true positive,
    // not a watchdog bug. The four progress/health detectors must stay
    // silent through nine admission-controlled migrations.
    let mut fr = rocksteady_cluster::FlightRecorderConfig::default();
    fr.detectors.slo_burn = None;
    cfg.flight_recorder = Some(fr);
    let mut b = ClusterBuilder::new(cfg);
    let mut y = YcsbConfig::ycsb_b(b.directory(), TABLE, KEYS, RATE_PER_CLIENT);
    y.max_outstanding = 128;
    y.seed = 700;
    // Morning-to-evening drift for most clients; the last flips its
    // working set abruptly mid-day (the reactive worst case).
    y.shape = LoadShape::DiurnalDrift {
        dwell: DWELL,
        buckets: TABLETS,
        hot_weight: 0.7,
    };
    b.add_ycsb_clients(CLIENTS - 1, y.clone());
    y.seed += CLIENTS as u64 - 1;
    y.shape = LoadShape::SkewFlip {
        at: FLIP_AT,
        buckets: TABLETS,
        hot_weight: 0.7,
    };
    b.add_ycsb(y);
    let mut cluster = b.build();
    // The initial placement: 16 equal hash-range tablets, dealt four per
    // server in bucket order, so the drifting hot region maps onto whole
    // tablets (the granularity the rebalancer can move).
    let owners: Vec<ServerId> = (0..TABLETS)
        .map(|b| ServerId(b / (TABLETS / SERVERS as u32)))
        .collect();
    preload_tablets(&mut cluster, &owners, KEYS, 100);
    cluster.run_until(DAY);
    cluster
}

fn breach_minutes(cluster: &Cluster) -> f64 {
    let slo = cluster.slo_report();
    (slo.breach_intervals * cluster.cfg.sample_interval) as f64 / 60e9
}

/// Operations completed over the day, and the start (ms) of the last
/// 100 ms bucket in which a read completed.
fn goodput(cluster: &Cluster) -> (u64, Nanos) {
    let completed = |c: &ClientStatsHandle| c.borrow().objects.merged().count();
    let ops = cluster.client_stats.iter().map(completed).sum();
    let last = merged_latency_rows(cluster, 0, DAY)
        .last()
        .map_or(0, |row| row.0);
    (ops, last / MILLISECOND)
}

pub(super) fn figure(report: &mut Report) {
    let base = base_config();
    report.table1(
        "Day in the life: autonomous rebalancing vs static placement",
        &base,
        &format!(
            "{KEYS} records x 100 B in {TABLETS} tablets, {CLIENTS} clients x {RATE_PER_CLIENT:.0} ops/s, \
             drifting hotspot (dwell {} ms) + skew flip at {} ms, day = {} ms",
            DWELL / MILLISECOND,
            FLIP_AT / MILLISECOND,
            DAY / MILLISECOND
        ),
    );

    let off = run_day(&base, false);
    let on = run_day(&base, true);

    let rebalancer = on.rebalancer.borrow().clone();
    let peak = on.peak_concurrent_migrations();
    let (bm_off, bm_on) = (breach_minutes(&off), breach_minutes(&on));

    println!(
        "{:>24} {:>16} {:>16}",
        "", "static placement", "rebalancer on"
    );
    println!(
        "{:>24} {:>16.3} {:>16.3}",
        "SLO breach-minutes", bm_off, bm_on
    );
    println!(
        "{:>24} {:>16} {:>16}",
        "breach intervals",
        off.slo_report().breach_intervals,
        on.slo_report().breach_intervals
    );
    println!(
        "{:>24} {:>16} {:>16}",
        "moves admitted", 0, rebalancer.admitted
    );
    println!(
        "{:>24} {:>16} {:>16}",
        "moves completed", 0, rebalancer.completed
    );
    println!("{:>24} {:>16} {:>16}", "peak concurrent", 0, peak);
    // Not gated (ROADMAP item 4): a window in which nothing completes
    // cannot breach, so read the breach rows next to these two.
    let (goodput_off, goodput_on) = (goodput(&off), goodput(&on));
    println!(
        "{:>24} {:>16} {:>16}",
        "ops completed", goodput_off.0, goodput_on.0
    );
    println!(
        "{:>24} {:>16} {:>16}",
        "last read bucket (ms)", goodput_off.1, goodput_on.1
    );
    println!();
    for mv in &rebalancer.moves {
        println!(
            "  t={:>6} ms  migration {:>12}: tablet [{:#018x}..] {} -> {}",
            mv.at / MILLISECOND,
            mv.id.0,
            mv.proposal.range.start,
            mv.proposal.source,
            mv.proposal.target
        );
    }
    println!();

    // Determinism: the whole day — rebalancer decisions included — must
    // replay bit-identically from the same seed.
    let on2 = run_day(&base, true);
    let deterministic = on.sim.events_processed() == on2.sim.events_processed()
        && rebalancer.moves == on2.rebalancer.borrow().moves;

    let mut rows = Vec::new();
    for (mode, cluster) in [("static", &off), ("rebalanced", &on)] {
        for (t, p50, p999) in merged_latency_rows(cluster, 0, DAY) {
            rows.push(vec![
                mode.to_string(),
                t.to_string(),
                p50.to_string(),
                p999.to_string(),
            ]);
        }
    }
    report.export_csv("day_in_the_life_latency", "mode,t_ns,p50_ns,p999_ns", &rows);
    // The placement decisions themselves, next to the latency series
    // they explain: one row per admitted move, in issue order.
    report.export_csv(
        "day_in_the_life_moves",
        "t_ns,migration_id,table,range_start,range_end,source,target",
        &rebalancer
            .moves
            .iter()
            .map(|mv| {
                vec![
                    mv.at.to_string(),
                    mv.id.0.to_string(),
                    mv.proposal.table.0.to_string(),
                    format!("{:#018x}", mv.proposal.range.start),
                    format!("{:#018x}", mv.proposal.range.end),
                    mv.proposal.source.0.to_string(),
                    mv.proposal.target.0.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.export_csv(
        "day_in_the_life_summary",
        "mode,breach_intervals,breach_minutes,moves_admitted,moves_completed,peak_concurrent",
        &[
            vec![
                "static".into(),
                off.slo_report().breach_intervals.to_string(),
                format!("{bm_off:.4}"),
                "0".into(),
                "0".into(),
                "0".into(),
            ],
            vec![
                "rebalanced".into(),
                on.slo_report().breach_intervals.to_string(),
                format!("{bm_on:.4}"),
                rebalancer.admitted.to_string(),
                rebalancer.completed.to_string(),
                peak.to_string(),
            ],
        ],
    );

    report.check(
        rebalancer.completed >= 2,
        &format!(
            "rebalancer completed >= 2 migrations ({})",
            rebalancer.completed
        ),
    );
    report.check(
        peak >= 2,
        &format!("at least 2 migrations ran concurrently (peak {peak})"),
    );
    report.check(
        bm_on < bm_off,
        &format!("rebalancer cut SLO breach-minutes ({bm_off:.3} -> {bm_on:.3})"),
    );
    report.check(deterministic, "same seed replays the day byte-identically");
    // The auditor's verdict on the whole day, both placements: every
    // ownership transfer single-owner-clean, every completed migration
    // conservation-verified, nothing leaked at any point.
    for (mode, cluster) in [("static", &off), ("rebalanced", &on)] {
        let audit = cluster.audit_report();
        report.check(
            audit.violations == 0,
            &format!(
                "auditor found zero violations over the {mode} day \
                 ({} events checked)",
                audit.events
            ),
        );
    }
    // The flight recorder watched both days too: routine migration under
    // drifting load is exactly the anomaly-free regime, so any incident
    // bundle here is a false positive.
    for (mode, cluster) in [("static", &off), ("rebalanced", &on)] {
        let triggers: Vec<&str> = cluster.incident_log().iter().map(|i| i.trigger).collect();
        report.check(
            triggers.is_empty(),
            &format!(
                "flight recorder stayed quiet over the {mode} day \
                 ({} incidents{}{})",
                triggers.len(),
                if triggers.is_empty() { "" } else { ": " },
                triggers.join(", "),
            ),
        );
    }
    // `rebalancer.completed` counts moves the target *accepted* (it answers
    // at registration), so late admissions can still be mid-flight when
    // the day ends; conservation is judged against runs that finished.
    let finished = on
        .migration_runs()
        .iter()
        .filter(|(_, _, st)| st.finished_at.is_some())
        .count() as u64;
    report.check(
        finished >= 2 && on.audit_report().migrations_verified == finished,
        &format!(
            "every finished move conservation-verified ({} verified of {} finished)",
            on.audit_report().migrations_verified,
            finished
        ),
    );
}
