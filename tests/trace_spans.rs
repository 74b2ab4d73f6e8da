//! Acceptance tests for the deterministic trace layer.
//!
//! The tentpole contract: per-RPC span segments must *telescope* — the
//! four server-side segments plus the response's network time account
//! for every nanosecond of the latency the client measured — and two
//! runs with the same seed must export byte-identical traces.

mod common;

use std::collections::HashMap;

use common::test_config;
use rocksteady_cluster::scenarios::{live_migration, preload_split, TABLE};
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig};
use rocksteady_common::{MigrationId, ServerId, MILLISECOND, SECOND};
use rocksteady_trace::Phase;
use rocksteady_workload::YcsbConfig;

fn traced_config() -> ClusterConfig {
    ClusterConfig {
        tracing: true,
        ..test_config()
    }
}

fn ycsb_cluster(cfg: ClusterConfig, keys: u64, ops_per_sec: f64) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    let dir = b.directory();
    b.add_ycsb(YcsbConfig::ycsb_b(dir, TABLE, keys, ops_per_sec));
    let mut cluster = b.build();
    preload_split(&mut cluster, keys, 100);
    cluster
}

/// Per-RPC server segments + response network time must sum exactly to
/// the client-observed end-to-end latency of that attempt.
#[test]
fn rpc_segments_sum_to_client_latency() {
    let mut cluster = ycsb_cluster(traced_config(), 2_000, 40_000.0);
    cluster.run_until(30 * MILLISECOND);

    // Client attempt instants keyed by (client pid, rpc id).
    let (client_attempts, server_rpcs) = cluster.trace.with_events(|events| {
        let mut attempts: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        let mut rpcs: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
        for ev in events {
            if ev.ph != Phase::Instant {
                continue;
            }
            if ev.name == "rpc-client" {
                attempts.insert(
                    (ev.pid, ev.arg("rpc").unwrap()),
                    (ev.arg("issued").unwrap(), ev.arg("completed").unwrap()),
                );
            } else if ev.cat == "rpc" {
                let key = (ev.arg("src").unwrap(), ev.arg("rpc").unwrap());
                let segments = ev.arg("net_in").unwrap()
                    + ev.arg("queue").unwrap()
                    + ev.arg("service").unwrap()
                    + ev.arg("hold").unwrap();
                rpcs.insert(key, (ev.arg("sent_at").unwrap(), segments));
            }
        }
        (attempts, rpcs)
    });

    let mut matched = 0u64;
    for ((pid, rpc), (issued, completed)) in &client_attempts {
        let Some((sent_at, server_segments)) = server_rpcs.get(&(*pid, *rpc)) else {
            continue; // e.g. a response that raced the 30 ms cutoff
        };
        // The kernel stamps `sent_at` at the same virtual instant the
        // client issues, so the segments telescope exactly.
        assert_eq!(sent_at, issued, "rpc {rpc}: sent_at != issue time");
        let resp_sent = issued + server_segments;
        assert!(
            resp_sent <= *completed,
            "rpc {rpc}: response sent at {resp_sent} after completion {completed}"
        );
        let e2e = completed - issued;
        let net_out = completed - resp_sent;
        assert_eq!(
            server_segments + net_out,
            e2e,
            "rpc {rpc}: segments do not telescope"
        );
        matched += 1;
    }
    assert!(matched > 100, "only {matched} RPCs matched client↔server");
}

/// Same seed → byte-identical export; different seed → different trace.
#[test]
fn same_seed_traces_are_byte_identical() {
    let export = |seed: u64| {
        let mut cfg = traced_config();
        cfg.seed = seed;
        let mut cluster = ycsb_cluster(cfg, 1_000, 30_000.0);
        cluster.run_until(20 * MILLISECOND);
        cluster.export_trace_json()
    };
    let a = export(7);
    assert_eq!(a, export(7), "same-seed exports differ");
    assert_ne!(a, export(8), "different seeds exported identical traces");
}

/// With tracing disabled nothing is recorded, and arming the tracer
/// must not perturb the simulation itself (no extra events, rng draws,
/// or schedule changes).
#[test]
fn disabled_tracing_records_nothing_and_arming_does_not_perturb() {
    let run = |tracing: bool| {
        let mut cfg = traced_config();
        cfg.tracing = tracing;
        let mut cluster = ycsb_cluster(cfg, 1_000, 30_000.0);
        cluster.run_until(20 * MILLISECOND);
        (cluster.sim.events_processed(), cluster.trace.len())
    };
    let (events_off, recorded_off) = run(false);
    let (events_on, recorded_on) = run(true);
    assert_eq!(recorded_off, 0, "disabled tracer recorded events");
    assert!(recorded_on > 0, "armed tracer recorded nothing");
    assert_eq!(
        events_off, events_on,
        "tracing changed the simulation's event schedule"
    );
}

/// A traced migration validates (completion-ordered, properly nested
/// lanes) and contains every expected phase span.
#[test]
fn migration_trace_validates_with_all_phases() {
    let b = ClusterBuilder::new(traced_config());
    let mut cluster = live_migration(b, 5_000, 40_000.0, 5 * MILLISECOND);
    let done = cluster.run_until_migrated(ServerId(1), MigrationId(1), 5 * SECOND);
    assert!(done.is_some(), "migration never finished");
    cluster.run_until(cluster.now() + 10 * MILLISECOND);

    let summary = cluster.trace.validate().expect("trace invariants hold");
    assert!(summary.spans > 100, "suspiciously few spans");

    for phase in [
        "mig:prepare",
        "mig:ownership-flip",
        "mig:run",
        "mig:commit",
        "migration",
        "mig:pull",
        "mig:replay",
    ] {
        assert!(
            cluster.trace.span_histogram(phase).count() > 0,
            "no {phase} span recorded"
        );
    }
    // Bulk pulls move the data; the pull histogram is what the figure
    // pipeline consumes.
    let pulls = cluster.trace.span_histogram("mig:pull");
    assert!(pulls.count() >= 8, "fewer pulls than partitions");

    // The export round-trips through the validator's assumptions.
    let json = cluster.export_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"name\":\"migration\""));
}
