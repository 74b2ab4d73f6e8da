//! The cluster-wide protocol auditor, end to end.
//!
//! Arms `ClusterConfig::audit` on full experiments and pins its three
//! contracts:
//!
//! - **Non-perturbing**: an armed auditor changes nothing observable —
//!   `events_processed()`, the trace export, and the folded profile are
//!   byte-identical to a disarmed run of the same seed.
//! - **Sound on healthy runs**: a clean migration under load checks out
//!   on every invariant (zero violations, the migration verified for
//!   record conservation), and the JSON/DOT exports are deterministic.
//! - **Sensitive to real bugs**: a harness-injected fault that makes the
//!   source skip its ownership flip (so both ends serve the range with
//!   no dual-serving window ever closing) makes the single-owner
//!   invariant fire, with a causal chain that reaches back to the
//!   migration's admission.

mod common;

use common::test_config;
use rocksteady_cluster::scenarios::live_migration;
use rocksteady_cluster::{Cluster, ClusterBuilder, ClusterConfig, Fault};
use rocksteady_common::{MigrationId, ServerId, MILLISECOND, SECOND};

const KEYS: u64 = 5_000;

/// One migration under YCSB-B load, with every observability layer on.
fn audited_cfg(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        tracing: true,
        profiling: true,
        audit: true,
        ..test_config()
    }
}

fn run_audited(cfg: ClusterConfig) -> Cluster {
    run_faulted(cfg, None)
}

fn run_faulted(cfg: ClusterConfig, fault: Option<(ServerId, Fault)>) -> Cluster {
    let mut b = ClusterBuilder::new(cfg);
    if let Some((server, fault)) = fault {
        b.fault(server, fault);
    }
    let mut cluster = live_migration(b, KEYS, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(100 * MILLISECOND);
    cluster
}

/// Arming the auditor must not move a single event: the schedule, the
/// trace, and the profile of an audited run are byte-identical to the
/// disarmed run — auditing observes the experiment, never participates
/// in it.
#[test]
fn armed_auditor_is_byte_identical_to_disarmed() {
    let digest = |audit: bool| {
        let mut cfg = audited_cfg(77);
        cfg.audit = audit;
        let cluster = run_audited(cfg);
        cluster.finalize_profile();
        (
            cluster.sim.events_processed(),
            cluster.export_trace_json(),
            cluster.export_folded(),
        )
    };
    let off = digest(false);
    let on = digest(true);
    assert_eq!(off.0, on.0, "audit arming changed events_processed");
    assert_eq!(off.1, on.1, "audit arming changed the trace export");
    assert_eq!(off.2, on.2, "audit arming changed the folded profile");
}

/// A healthy migration under load: every invariant checks out, the
/// migration is verified for record conservation, and the counters
/// surface in the shared metrics registry.
#[test]
fn clean_migration_audits_clean_and_verified() {
    let cluster = run_audited(audited_cfg(42));
    assert!(
        cluster
            .migration_finished(ServerId(1), MigrationId(1))
            .is_some(),
        "migration never finished"
    );

    let report = cluster.audit_report();
    assert!(report.events > 1_000, "only {} audit events", report.events);
    assert_eq!(
        report.violations,
        0,
        "clean run violated invariants: {:?}",
        cluster.audit.violations()
    );
    assert_eq!(report.migrations_verified, 1);
    assert_eq!(report.migrations_abandoned, 0);
    // Every invariant class actually ran its checks.
    for (name, checked, violated) in &report.per_invariant {
        assert!(checked > &0, "invariant {name} never checked anything");
        assert_eq!(violated, &0, "invariant {name} fired on a clean run");
    }

    // The satellite counters ride the ordinary metrics exports.
    let prom = cluster.export_metrics_prometheus();
    assert!(prom.contains("audit_events_total"));
    assert!(prom.contains("audit_migrations_verified_total 1"));
    assert!(prom.contains(r#"audit_violations_total{invariant="single-owner"} 0"#));
    let json = cluster.export_metrics_json();
    assert!(json.contains("audit_events_total"));
}

/// The exports are structured and byte-identical across same-seed runs
/// (the auditor sorts or aggregates everywhere it touches a hash map).
#[test]
fn audit_exports_are_deterministic() {
    let a = run_audited(audited_cfg(1234));
    let b = run_audited(audited_cfg(1234));
    let ja = a.export_audit_json();
    assert_eq!(ja, b.export_audit_json(), "audit JSON diverged across runs");
    assert_eq!(
        a.export_audit_dot(),
        b.export_audit_dot(),
        "audit DOT diverged across runs"
    );
    assert!(ja.starts_with("{\"schema\":\"rocksteady-audit-v1\""));
    assert!(ja.contains("\"violations\":[]"));
    assert!(ja.contains("\"timeline\":["));
    let dot = a.export_audit_dot();
    assert!(dot.starts_with("digraph ownership"));
    assert!(
        dot.contains(r#""s0" -> "s1""#),
        "migration edge missing: {dot}"
    );
}

/// The explain engine walks a finished migration's causal chain and
/// ranks breach suspects inside a wall-clock window.
#[test]
fn explain_engine_reconstructs_the_causal_story() {
    let cluster = run_audited(audited_cfg(42));
    let fin = cluster
        .migration_finished(ServerId(1), MigrationId(1))
        .expect("migration never finished");

    let story = cluster
        .explain_migration(MigrationId(1))
        .expect("explain_migration found nothing for a finished run");
    assert!(story.contains("\"outcome\":\"committed\""), "{story}");
    assert!(story.contains("\"origin\":\"scripted\""), "{story}");
    assert!(story.contains("\"verified\":1"), "{story}");
    assert!(story.contains("\"chain\":["), "{story}");

    // A breach window covering the migration names it as the suspect.
    let explain = cluster
        .explain_slo_breach(5 * MILLISECOND, fin + MILLISECOND)
        .expect("no suspects inside the migration window");
    assert!(explain.contains("\"cause\":\"migration\""), "{explain}");
    assert!(explain.contains("\"rank\":1"), "{explain}");

    // A window long after the run has quiesced has no story to tell.
    assert!(cluster
        .explain_slo_breach(10 * SECOND, 11 * SECOND)
        .is_none());
}

/// The injected protocol bug: the source answers `PrepareMigration`
/// with its version ceiling but never flips the tablet out of `Owner`,
/// so both ends serve the range forever. The auditor must catch the
/// dual-serving window that never closed — and explain it causally.
#[test]
fn skipped_source_flip_trips_the_single_owner_invariant() {
    let fault = (ServerId(0), Fault::SkipSourceFlip);
    let cluster = run_faulted(audited_cfg(42), Some(fault));
    assert!(
        cluster
            .migration_finished(ServerId(1), MigrationId(1))
            .is_some(),
        "migration should still complete under the skipped flip"
    );

    let violations = cluster.audit.violations();
    let single_owner: Vec<_> = violations
        .iter()
        .filter(|v| v.invariant == "single-owner")
        .collect();
    assert!(
        !single_owner.is_empty(),
        "auditor missed the skipped ownership flip: {violations:?}"
    );
    let v = single_owner[0];
    assert!(
        !v.chain.is_empty(),
        "violation carries no causal chain: {v:?}"
    );
    assert!(
        v.detail.contains("window"),
        "detail unhelpful: {}",
        v.detail
    );
    // The bugged migration must not count as conservation-verified
    // evidence of a healthy run... though its records did all arrive.
    let json = cluster.export_audit_json();
    assert!(json.contains("\"violations\":[{"), "{json}");
}
