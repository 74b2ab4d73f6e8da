//! Quickstart: build a small cluster, store data, live-migrate a tablet.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --fault
//! ```
//!
//! The sixty-second tour of the reproduction: three simulated RAMCloud
//! servers, a YCSB client, one Rocksteady migration of half the key
//! space, and verification that every record survived the move.

use rocksteady_cluster::scenarios::{
    live_migration, preload_split, pulls, read_back, upper, TABLE,
};
use rocksteady_cluster::{
    summarize, ClusterBuilder, ClusterConfig, ControlCmd, FlightRecorderConfig,
};
use rocksteady_common::time::fmt_nanos;
use rocksteady_common::{MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_workload::YcsbConfig;

fn main() {
    // Stalled-migration demo (used by CI): lose the pulls on purpose
    // and show the flight recorder export exactly one incident bundle.
    if std::env::args().any(|arg| arg == "--fault") {
        fault_demo();
        return;
    }

    let keys: u64 = 10_000;

    // 1. Declare the cluster: 3 servers, 4 worker cores each, 2 backups
    //    per master, plus one YCSB-B client offering 100k ops/s — hot
    //    enough that reads race the migration's ownership flip. Tracing
    //    is on: every RPC and migration phase lands in a deterministic
    //    chrome://tracing timeline.
    let mut builder = ClusterBuilder::new(ClusterConfig {
        servers: 3,
        workers: 4,
        replicas: 2,
        sample_interval: 10 * MILLISECOND,
        series_interval: 100 * MILLISECOND,
        tracing: true,
        metrics: true,
        profiling: true,
        audit: true,
        sla: Some(300_000), // p99.9 reads under 300 us
        // Always-on flight recorder: watchdog detectors every sampling
        // interval, incident bundles on trigger. The default config
        // keeps the trace/audit buffers unbounded, so every other
        // export stays byte-identical to a recorder-less run.
        flight_recorder: Some(FlightRecorderConfig::default()),
        ..ClusterConfig::default()
    });
    let dir = builder.directory();
    builder.add_ycsb(YcsbConfig::ycsb_b(dir, TABLE, keys, 100_000.0));

    // 2. Script a Rocksteady migration: at t = 50 ms, move the upper half
    //    of the table from server 0 to server 1 (§3 of the paper —
    //    ownership transfers the moment it starts).
    builder.at(
        50 * MILLISECOND,
        ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1)),
    );

    // 3. Build, preload (everything on server 0, backups seeded), and
    //    pre-split so the upper half is a tablet of its own.
    let mut cluster = builder.build();
    preload_split(&mut cluster, keys, 100);
    println!("loaded {keys} records onto {}", ServerId(0));

    // 4. Run. The harness steps virtual time; everything (clients,
    //    pulls, priority pulls, replay) happens inside the simulation.
    let finished = cluster
        .run_until_migrated(ServerId(1), MigrationId(1), 10 * SECOND)
        .expect("migration completed");
    cluster.run_until(finished + 100 * MILLISECOND);

    // 5. Inspect what happened.
    let (_, _, run) = cluster.migration_runs()[0];
    let started = run.started_at;
    let tgt = cluster.server_stats[&ServerId(1)].view();
    println!(
        "migration took {} and moved {:.1} MB ({} records replayed)",
        fmt_nanos(finished - started),
        tgt.bytes_migrated_in as f64 / 1e6,
        tgt.records_replayed,
    );
    println!(
        "rate: {:.0} MB/s",
        rocksteady_common::time::mb_per_sec(tgt.bytes_migrated_in, finished - started)
    );

    // 6. Verify: every record reads back through its current owner, at
    //    a version no older than any write answered before (step 12).
    let moved = read_back(&mut cluster, keys);
    println!(
        "verified all {keys} records; {moved} now live on {}",
        ServerId(1)
    );

    {
        let stats = cluster.client_stats[0].borrow();
        let reads = stats.read_latency.merged();
        println!(
            "client saw {} reads: median {} / 99.9th {}",
            reads.count(),
            fmt_nanos(reads.percentile(0.5)),
            fmt_nanos(reads.percentile(0.999)),
        );
    }

    // 7. Export the trace. Load it at chrome://tracing (or Perfetto) to
    //    see per-RPC latency segments and migration phase spans; the
    //    same seed always produces a byte-identical file.
    let summary = cluster.trace.validate().expect("trace invariants violated");
    let json = cluster.export_trace_json();
    let path = "target/quickstart-trace.json";
    std::fs::write(path, &json).expect("write trace");
    let pulls = cluster.trace.span_histogram("mig:pull");
    println!(
        "trace: {} events ({} spans) -> {path}; {} bulk pulls, median {}",
        summary.events,
        summary.spans,
        pulls.count(),
        fmt_nanos(pulls.percentile(0.5)),
    );

    // 8. Export the unified metrics registry: every server counter,
    //    client histogram, and SLO gauge, as deterministic JSON. Same
    //    seed, byte-identical file.
    let metrics = cluster
        .metrics
        .validate()
        .expect("metrics invariants violated");
    let json_path = "target/quickstart-metrics.json";
    std::fs::write(json_path, cluster.export_metrics_json()).expect("write metrics json");
    let slo = cluster.slo_report();
    println!(
        "metrics: {} instruments -> {json_path}; {} snapshots captured",
        metrics.instruments,
        cluster.snapshots.borrow().len(),
    );
    println!(
        "SLO: window p50 {} / p99.9 {} vs SLA {}; {} breach interval(s)",
        fmt_nanos(slo.p50),
        fmt_nanos(slo.p999),
        fmt_nanos(slo.sla.unwrap_or(0)),
        slo.breach_intervals,
    );

    // 9. Profile. The exact per-core activity ledger: every dispatch
    //    and worker core's virtual time, attributed to what it was
    //    doing (service, pull gather, replay, hold, idle, ...), with
    //    busy + idle summing exactly to wall-clock per core. Exported
    //    as folded stacks — feed the file to flamegraph.pl.
    cluster.finalize_profile();
    let profile = cluster
        .profiler
        .validate()
        .expect("ledger conservation violated");
    let folded_path = "target/quickstart-profile.folded";
    std::fs::write(folded_path, cluster.export_folded()).expect("write profile");
    println!(
        "profile: {} cores over {} -> {folded_path}; {:.1}% busy, {} overcommitted",
        profile.cores,
        fmt_nanos(profile.wall_ns),
        100.0 * profile.busy_ns as f64 / (profile.busy_ns + profile.idle_ns).max(1) as f64,
        fmt_nanos(profile.overcommit_ns),
    );

    // 10. What bounded the migration? The critical-path walker tiles
    //     the migration interval into the component blocking completion
    //     at each instant and ranks them.
    let cp = cluster
        .critical_path_report()
        .expect("traced migration present");
    let cp_path = "target/quickstart-critical-path.json";
    std::fs::write(cp_path, cp.to_json()).expect("write critical path");
    let top = &cp.components[0];
    println!(
        "critical path: {} attributed over {} components -> {cp_path}; \
         dominant: {} ({} = {}%)",
        fmt_nanos(cp.attributed_ns),
        cp.components.len(),
        top.name,
        fmt_nanos(top.ns),
        top.permille / 10,
    );

    // 11. Journeys: causal request tracing. Every client operation's
    //     cross-node story — each attempt it took, the per-server
    //     net/queue/service/hold decomposition each attempt caused, and
    //     any PriorityPull a waiting read spawned — reconstructed from
    //     the trace under one trace id, telescoping in integer
    //     nanoseconds to the client-measured latency.
    let journeys = cluster.journeys();
    let telescoped = journeys.iter().filter(|j| j.telescoped).count();
    let crossed = journeys.iter().filter(|j| j.crossed_migration()).count();
    let journeys_path = "target/quickstart-journeys.json";
    std::fs::write(journeys_path, cluster.export_journeys_json()).expect("write journeys");
    println!(
        "journeys: {} reconstructed ({telescoped} telescope exactly, \
         {crossed} crossed the migration) -> {journeys_path}",
        journeys.len(),
    );
    if let Some(chains) = cluster.tail_blame_chains(1) {
        if let Some(worst) = chains.first() {
            println!("slowest journey: {worst}");
        }
    }

    // 12. Audit. The protocol auditor watched every ownership edit,
    //     lineage add/drop, version-floor raise, pull, and replay, and
    //     checked the Rocksteady invariants online: single authoritative
    //     owner (modulo the dual-serving window), monotone version
    //     floors, record conservation per migration, lineage lifecycle,
    //     and linearizability of every client operation on every key.
    let audit = cluster.audit_report();
    assert_eq!(audit.violations, 0, "protocol invariants violated!");
    assert_eq!(audit.migrations_verified, 1, "migration not verified");
    let audit_path = "target/quickstart-audit.json";
    std::fs::write(audit_path, cluster.export_audit_json()).expect("write audit json");
    println!(
        "audit: {} events, {} invariant checks, 0 violations; migration \
         conservation-verified -> {audit_path}",
        audit.events,
        audit
            .per_invariant
            .iter()
            .map(|(_, checked, _)| checked)
            .sum::<u64>(),
    );
    let story = cluster
        .explain_migration(MigrationId(1))
        .expect("audited migration");
    println!("explain: {story}");

    // 13. Why did the SLO burn? When the monitor counted breach
    //     intervals, ask the auditor to rank the causes active during
    //     the run — the top suspect is (of course) the migration.
    if slo.breach_intervals > 0 {
        if let Some(breach) = cluster.explain_slo_breach(0, cluster.now()) {
            println!("slo breach suspect: {}", top_cause(&breach));
        }
    }

    // 14. The flight recorder. Its watchdog evaluated five anomaly
    //     detectors (migration stall, replay backlog, SLO burn,
    //     dispatch overcommit, lineage age) on every sampling interval
    //     of this run — a healthy migration trips none of them. Run
    //     with `-- --fault` to watch a deliberately
    //     stalled migration produce an incident bundle.
    let final_slo = cluster.slo_report();
    println!(
        "flight recorder: {} incidents (burn fast {}‰ / slow {}‰)",
        cluster.incident_count(),
        final_slo.burn_fast_permille,
        final_slo.burn_slow_permille,
    );
}

/// The top-ranked cause of an `explain_slo_breach` report, without its
/// causal chain (which quickly dwarfs a terminal line).
fn top_cause(breach: &str) -> &str {
    let start = breach.find("\"causes\":[").map(|i| i + 10).unwrap_or(0);
    let end = breach[start..]
        .find(",\"chain\"")
        .map(|i| start + i)
        .unwrap_or(breach.len());
    &breach[start..end]
}

/// Deliberately stall a migration (the network loses every Pull to the
/// source) and let the flight recorder catch it: exactly one incident
/// bundle, triggered by the migration-stall detector, lands in
/// `target/quickstart-incident.json`.
fn fault_demo() {
    let keys: u64 = 5_000;

    // Bounded rings: the recorder works from fixed memory, and the
    // bundle's drop counters show the compaction at work.
    let fr = FlightRecorderConfig {
        trace_capacity: Some(4096),
        audit_capacity: Some(1024),
        ..FlightRecorderConfig::default()
    };
    let cfg = ClusterConfig {
        servers: 3,
        workers: 4,
        replicas: 2,
        sample_interval: 10 * MILLISECOND,
        series_interval: 100 * MILLISECOND,
        audit: true,
        sla: Some(300_000),
        flight_recorder: Some(fr),
        ..ClusterConfig::default()
    };

    let mut builder = ClusterBuilder::new(cfg);
    // The fault: the network loses every Pull bound for the source, so
    // gather never advances and the migration hangs forever.
    builder.lose(ServerId(0), pulls);
    // The same client, migration and preload as above, at 20k ops/s.
    let mut cluster = live_migration(builder, keys, 20_000.0, 50 * MILLISECOND);

    // 20 stalled sampling intervals trip the detector; run well past it.
    cluster.run_until(2 * SECOND);

    let incidents = cluster.incident_log();
    assert_eq!(incidents.len(), 1, "expected exactly one incident");
    assert_eq!(incidents[0].trigger, "migration-stall");
    let path = "target/quickstart-incident.json";
    std::fs::write(path, &incidents[0].bundle).expect("write incident bundle");
    println!("{}", summarize(&incidents[0]));
    println!(
        "bundle: {} bytes -> {path} (trace dropped {}, audit dropped {})",
        incidents[0].bundle.len(),
        cluster.trace.dropped(),
        cluster.audit.dropped(),
    );
}
