//! The activity ledger, critical-path analyzer, and tail-blame chains.
//!
//! Three properties matter and each gets a test: the ledger *conserves*
//! (per core, busy + idle sums exactly to wall-clock — no time invented
//! or lost), the exports are *deterministic* (same seed ⇒ byte-identical
//! folded stacks and critical-path JSON), and arming the profiler does
//! not *perturb* the simulation (identical `events_processed()` with
//! profiling on and off).

mod common;

use rocksteady_cluster::scenarios::{live_migration, preload_tablets, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig};
use rocksteady_common::{ServerId, MILLISECOND};
use rocksteady_workload::YcsbConfig;

/// Runs the standard migration-under-load experiment with the given
/// instrumentation switches and returns the finished cluster.
fn run(seed: u64, profiling: bool, sla: Option<u64>) -> Cluster {
    let mut cfg = common::test_config();
    cfg.seed = seed;
    cfg.tracing = true;
    cfg.profiling = profiling;
    cfg.sla = sla;
    let mut cluster = live_migration(ClusterBuilder::new(cfg), 5_000, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(100 * MILLISECOND);
    cluster
}

#[test]
fn ledger_conserves_time_on_every_core() {
    let cluster = run(7, true, None);
    cluster.finalize_profile();
    let summary = cluster.profiler.validate().expect("conservation holds");
    // 3 servers x (1 dispatch + 4 workers).
    assert_eq!(summary.cores, 15);
    assert_eq!(summary.wall_ns, cluster.now());
    for core in cluster.profiler.cores() {
        let sum: u64 = core.buckets.iter().sum();
        assert_eq!(
            sum, core.wall,
            "server{} core{} buckets do not tile wall-clock",
            core.server, core.core
        );
    }
    // The migration actually charged its signature activities.
    let folded = cluster.export_folded();
    assert!(folded.contains(";replay "), "target replay never charged");
    assert!(
        folded.contains(";pull-gather "),
        "source pull gather never charged"
    );
    assert!(folded.contains(";service "), "client load never charged");
    assert!(folded.contains(";idle "), "idle never filled");
}

#[test]
fn exports_are_byte_identical_across_same_seed_runs() {
    let export = |seed| {
        let c = run(seed, true, Some(300_000));
        c.finalize_profile();
        let cp = c.critical_path_report().expect("migration traced");
        (c.export_folded(), cp.to_json())
    };
    let (folded_a, cp_a) = export(42);
    let (folded_b, cp_b) = export(42);
    assert_eq!(folded_a, folded_b, "folded stacks differ across same seed");
    assert_eq!(cp_a, cp_b, "critical-path JSON differs across same seed");

    let (folded_c, _) = export(43);
    assert_ne!(
        folded_a, folded_c,
        "different seeds produced identical profiles"
    );
}

#[test]
fn arming_the_profiler_does_not_perturb_the_simulation() {
    let on = run(11, true, None);
    let off = run(11, false, None);
    assert_eq!(
        on.sim.events_processed(),
        off.sim.events_processed(),
        "profiling changed the event schedule"
    );
    // And the trace — the other observer — is byte-identical too.
    assert_eq!(on.export_trace_json(), off.export_trace_json());
}

#[test]
fn critical_path_attributes_the_migration() {
    let cluster = run(5, true, None);
    let report = cluster.critical_path_report().expect("migration traced");
    assert!(report.finished > report.started);
    assert_eq!(report.total_ns, report.finished - report.started);
    // Acceptance bar: >= 90% of the migration interval attributed to
    // ranked components. (The sweep tiles the interval, so in practice
    // this is exactly 100%.)
    assert!(
        report.coverage_permille() >= 900,
        "only {}‰ of the migration attributed",
        report.coverage_permille()
    );
    let sum: u64 = report.components.iter().map(|c| c.ns).sum();
    assert_eq!(sum, report.attributed_ns, "components do not sum");
    // Ranked: descending, replay-dominated under this workload.
    for pair in report.components.windows(2) {
        assert!(pair[0].ns >= pair[1].ns, "components not ranked");
    }
    assert!(!report.components.is_empty());
}

#[test]
fn tail_blame_chains_are_the_slowest_over_sla_journeys() {
    // An SLA of 1 ns makes every journey "slow", so the chains are
    // simply the k slowest journeys, slowest first.
    let cluster = run(3, true, Some(1));
    let chains = cluster.tail_blame_chains(3).expect("sla configured");
    let e2e: Vec<u64> = chains
        .iter()
        .map(|c| {
            let ns = c.strip_prefix("e2e=").and_then(|r| r.split_once("ns "));
            ns.expect("chain starts with e2e=<n>ns").0.parse().unwrap()
        })
        .collect();
    assert_eq!(e2e.len(), 3);
    assert!(e2e.windows(2).all(|w| w[0] >= w[1]), "not ranked: {e2e:?}");
    let slowest = cluster.journeys().iter().map(|j| j.e2e).max();
    assert_eq!(Some(e2e[0]), slowest);
    assert!(chains[0].contains("read@") || chains[0].contains("write@"));

    // A generous SLA blames nothing; no SLA, no report.
    let cluster = run(3, true, Some(u64::MAX / 2));
    assert_eq!(cluster.tail_blame_chains(3), Some(Vec::new()));
    assert_eq!(run(3, true, None).tail_blame_chains(3), None);
}

/// A server with no backups answers each write when its service time
/// ends, and releases the worker held for it right there, inside
/// `on_worker_done`'s loop over the task's deferred effects. The release
/// lets `try_assign` start the next task on that worker, and
/// `service_done` then marks the worker idle under it: one core runs two
/// tasks at once. The release also charges `worker_busy_ns` a hold
/// measured from a stale `hold_since`. Two servers, `replicas: 0`, two
/// workers, a client writing 1 000 keys at 200 k ops/s for 20 ms.
#[test]
#[ignore = "ROADMAP item 18: a write's empty ship plan releases the worker inside \
            on_worker_done, and the next task runs on a core marked idle"]
fn a_worker_never_runs_two_tasks_at_once() {
    let cfg = ClusterConfig {
        servers: 2,
        workers: 2,
        replicas: 0,
        profiling: true,
        ..common::test_config()
    };
    let mut b = ClusterBuilder::new(cfg);
    let mut ycsb = YcsbConfig::ycsb_b(b.directory(), TABLE, 1_000, 200_000.0);
    ycsb.read_fraction = 0.0;
    b.add_ycsb(ycsb);
    let mut cluster = b.build();
    preload_tablets(&mut cluster, &[ServerId(0)], 1_000, 100);
    let run = 20 * MILLISECOND;
    cluster.run_until(run);
    cluster.finalize_profile();
    let busy = cluster.server_stats[&ServerId(0)].worker_busy_ns.get();
    assert!(
        busy <= 2 * run,
        "two workers were busy {busy} ns in {run} ns"
    );
    for core in cluster.profiler.cores().iter().filter(|c| c.core > 0) {
        assert_eq!(
            core.overcommit_ns,
            0,
            "server{} worker {} was double-booked",
            core.server,
            core.core - 1
        );
    }
}
