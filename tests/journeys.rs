//! Cross-node journey reconstruction: the causal-tracing tentpole.
//!
//! A journey is everything that happened, on every node, for one client
//! operation — its attempts, the per-server latency decompositions they
//! caused, and the off-path PriorityPull a waiting read spawned. These
//! tests prove the three load-bearing properties end to end:
//!
//! 1. **Exact telescoping** (over several seeds): for every complete
//!    journey the per-hop `net_in + queue + service + hold + net_out`
//!    segments plus client-side gaps sum to the client-measured
//!    first-issue → final-response latency, in integer nanoseconds.
//! 2. **Migration crossing**: a read that races an ownership flip
//!    yields one journey — on one trace id — containing both the
//!    source-side miss hop and the PriorityPull issued on its behalf.
//! 3. **Zero perturbation**: arming journeys changes no event schedule,
//!    and ring-mode eviction yields `truncated` journeys, never panics
//!    or silently wrong sums.

mod common;

use rocksteady_cluster::scenarios::live_migration;
use rocksteady_cluster::{ClusterBuilder, FlightRecorderConfig, Journey};
use rocksteady_common::MILLISECOND;

/// Runs the standard one-migration experiment and returns the cluster.
fn run(seed: u64, tracing: bool, trace_capacity: Option<usize>) -> rocksteady_cluster::Cluster {
    let mut cfg = common::test_config();
    cfg.seed = seed;
    cfg.tracing = tracing;
    if let Some(capacity) = trace_capacity {
        cfg.flight_recorder = Some(FlightRecorderConfig {
            trace_capacity: Some(capacity),
            ..FlightRecorderConfig::default()
        });
    }
    let mut cluster = live_migration(ClusterBuilder::new(cfg), 5_000, 50_000.0, 5 * MILLISECOND);
    cluster.run_until(60 * MILLISECOND);
    cluster
}

/// Recomputes a journey's telescoping sum from its raw hops.
fn on_path_sum(j: &Journey) -> u64 {
    j.hops
        .iter()
        .filter(|h| h.on_path)
        .map(|h| h.net_in + h.queue + h.service + h.hold + h.net_out + h.gap_before)
        .sum()
}

#[test]
fn cross_node_telescoping_is_integer_exact_over_seeds() {
    for seed in [11, 12, 13] {
        let cluster = run(seed, true, None);
        let journeys = cluster.journeys();
        assert!(
            journeys.len() > 500,
            "seed {seed}: only {} journeys",
            journeys.len()
        );
        let mut complete = 0;
        for j in &journeys {
            assert!(
                !j.hops.is_empty(),
                "seed {seed}: hopless journey {}",
                j.trace
            );
            if j.truncated {
                continue;
            }
            complete += 1;
            assert!(
                j.telescoped,
                "seed {seed}: complete journey {} does not telescope: chain {}",
                j.trace,
                j.chain()
            );
            // The exact integer identity, recomputed from raw hops.
            assert_eq!(
                on_path_sum(j),
                j.e2e,
                "seed {seed}: segments do not tile e2e for {}",
                j.trace
            );
            assert_eq!(j.e2e, j.completed - j.issued);
        }
        assert!(
            complete > 500,
            "seed {seed}: only {complete} complete journeys"
        );
        // The full-buffer run must not report phantom truncation for
        // the overwhelming majority of journeys (only operations still
        // in flight at the cutoff may look incomplete).
        assert!(
            complete as f64 > journeys.len() as f64 * 0.9,
            "seed {seed}: {complete}/{} complete",
            journeys.len()
        );
    }
}

#[test]
fn read_crossing_flip_has_miss_and_priority_pull_on_one_trace() {
    let cluster = run(42, true, None);
    let journeys = cluster.journeys();
    // A read that raced the ownership flip: several attempts, work on
    // more than one server, and a PriorityPull issued on its behalf —
    // all under a single trace id.
    let crossing: Vec<&Journey> = journeys
        .iter()
        .filter(|j| {
            j.attempts >= 2
                && j.hops
                    .iter()
                    .any(|h| !h.on_path && h.name == "priority-pull")
                && j.hops.iter().any(|h| h.on_path && h.name == "read")
        })
        .collect();
    assert!(
        !crossing.is_empty(),
        "no journey crossed the migration with an inherited PriorityPull"
    );
    let multi_server = crossing.iter().any(|j| {
        let first = j.hops[0].server;
        j.hops.iter().any(|h| h.server != first)
    });
    assert!(multi_server, "crossing journeys never spanned two servers");
    // At least one such journey is structurally complete and telescopes
    // across the retries, the flip, and the pull.
    let telescoped = crossing
        .iter()
        .find(|j| j.telescoped)
        .unwrap_or_else(|| panic!("none of {} crossing journeys telescoped", crossing.len()));
    assert!(telescoped.crossed_migration());
    assert!(telescoped.hops.len() >= 3, "chain: {}", telescoped.chain());
    assert_eq!(on_path_sum(telescoped), telescoped.e2e);
    // And the harness can fetch exactly this journey by trace id.
    let fetched = cluster
        .request_journey(rocksteady_common::TraceId(telescoped.trace))
        .expect("request_journey missed a known trace id");
    assert_eq!(fetched.chain(), telescoped.chain());
    assert_eq!(fetched.e2e, telescoped.e2e);
}

#[test]
fn arming_journeys_does_not_perturb_and_disarmed_exports_empty() {
    let armed = run(7, true, None);
    let disarmed = run(7, false, None);
    assert_eq!(
        armed.sim.events_processed(),
        disarmed.sim.events_processed(),
        "arming the tracer changed the event schedule"
    );
    assert!(!armed.journeys().is_empty());
    assert!(disarmed.journeys().is_empty());
    assert_eq!(
        disarmed.export_journeys_json(),
        "{\"schema\":\"rocksteady-journeys-v1\",\"dropped\":0,\"journeys\":[]}"
    );
    // Same seed, armed twice: byte-identical journey documents.
    let again = run(7, true, None);
    assert_eq!(armed.export_journeys_json(), again.export_journeys_json());
}

#[test]
fn ring_mode_eviction_truncates_instead_of_lying() {
    // A ring far too small for the run: early hops of old journeys are
    // evicted while their tails survive.
    let cluster = run(5, true, Some(2_048));
    let json = cluster.export_journeys_json();
    assert!(json.starts_with("{\"schema\":\"rocksteady-journeys-v1\""));
    let journeys = cluster.journeys();
    assert!(!journeys.is_empty(), "ring run reconstructed no journeys");
    for j in &journeys {
        if j.telescoped {
            // A telescoping claim is only ever made on complete
            // journeys, and must still be integer-exact.
            assert!(!j.truncated);
            assert_eq!(on_path_sum(j), j.e2e, "ring-surviving journey lies");
        }
        // Surviving hops stay internally consistent even when early
        // ones were evicted.
        for h in &j.hops {
            assert_eq!(
                h.net_in + h.queue + h.service + h.hold,
                h.resp_sent - h.sent_at,
                "hop segments do not tile the server residence time"
            );
        }
    }
}

/// Satellite regression: a read that retries across the ownership flip
/// must land in the client latency histogram exactly once (first issue
/// → final success), with the extra attempts visible only in the
/// `client_read_attempts_total` counter.
#[test]
fn retried_reads_count_once_in_client_histograms() {
    let cluster = run(42, true, None);
    let stats = cluster.client_stats[0].borrow();
    let hist_count = stats.read_latency.merged().count();
    let attempts = stats.read_attempts.get();
    let retries = stats.retries.get();
    drop(stats);
    assert!(retries > 0, "run never exercised the retry path");
    assert!(
        attempts > hist_count,
        "attempts ({attempts}) must exceed completed reads ({hist_count}) when retries occurred"
    );
    let journeys = cluster.journeys();
    // Completed reads (status ok=0 or not-found=3) whose journey is a
    // read journey — each corresponds to exactly one histogram sample.
    let read_journeys: Vec<&Journey> = journeys
        .iter()
        .filter(|j| j.hops.iter().any(|h| h.name == "read"))
        .collect();
    let completed = read_journeys
        .iter()
        .filter(|j| j.final_status == 0 || j.final_status == 3)
        .count() as u64;
    assert_eq!(
        completed, hist_count,
        "histogram samples must equal completed read operations, not attempts"
    );
    // A read that retried at least twice (3+ attempts) across the flip
    // still shows up as ONE completed operation whose e2e covers all
    // its attempts.
    let retried = read_journeys
        .iter()
        .find(|j| j.attempts >= 3 && j.final_status == 0)
        .expect("no read retried twice across the flip");
    assert_eq!(retried.e2e, retried.completed - retried.issued);
    assert!(retried.e2e > 0);
    // And the attempt counter accounts for every recorded attempt.
    let journey_attempts: u64 = read_journeys.iter().map(|j| j.attempts).sum();
    assert!(
        attempts >= journey_attempts,
        "counter {attempts} < recorded attempts {journey_attempts}"
    );
}
