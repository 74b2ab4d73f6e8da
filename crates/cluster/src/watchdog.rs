//! The flight-recorder watchdog actor.
//!
//! Always installed at a fixed cadence (the cluster sampling interval),
//! exactly like the sampler and the SLO monitor: the timer cadence is
//! identical whether or not `ClusterConfig::flight_recorder` is armed,
//! so arming the recorder cannot perturb the event schedule —
//! `events_processed()` stays byte-identical. (Conditionally installing
//! the actor, as the rebalancer does, would be wrong here: the
//! recorder's whole point is to be *always on*, and its acceptance
//! criterion is schedule identity between armed and disarmed runs.)
//!
//! When armed, each tick assembles a [`WatchdogSample`] from live
//! handles — SLO burn rates from the monitor, per-run gather/replay
//! progress from every server's stats, counter deltas from the metrics
//! registry, lineage-dependency ages from the coordinator — and
//! evaluates the pluggable detector catalog on it (all pure state
//! mutation on the virtual clock: no extra timers, no RNG). If a
//! detector fires and the [`CooldownTracker`] admits it, the rings are
//! frozen into one [`Incident`] bundle.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady_audit::AuditSink;
use rocksteady_common::{MigrationId, Nanos, ServerId};
use rocksteady_flightrec::{
    build_detectors, CooldownTracker, Detector, DetectorReading, FlightRecorderConfig,
    LineageSample, MigrationSample, WatchdogSample,
};
use rocksteady_metrics::{Counter, CounterDelta, DeltaScraper, Registry};
use rocksteady_profiler::Profiler;
use rocksteady_proto::Envelope;
use rocksteady_server::stats::StatsHandle;
use rocksteady_simnet::{Actor, Ctx, Event};
use rocksteady_trace::Tracer;

use crate::coordinator_actor::CoordHandle;
use crate::incident::{build_bundle, BundleInputs, Incident};
use crate::slo::SloHandle;

/// Shared, append-only incident log: one entry per exported bundle.
pub type IncidentLogHandle = Rc<RefCell<Vec<Incident>>>;

/// Counter family name for trace-ring drop accounting.
pub const TRACE_DROPPED_FAMILY: &str = "trace_events_dropped_total";

/// The armed half of the watchdog: detector catalog, cooldowns, and
/// every live handle a sample is assembled from.
struct WatchdogCore {
    detectors: Vec<Box<dyn Detector>>,
    cooldowns: CooldownTracker,
    slo: SloHandle,
    /// Per-server stats, sorted by server id for deterministic sample
    /// assembly.
    server_stats: Vec<(ServerId, StatsHandle)>,
    coord: CoordHandle,
    registry: Registry,
    scraper: DeltaScraper,
    trace: Tracer,
    profiler: Profiler,
    audit: AuditSink,
    incidents: IncidentLogHandle,
    /// First-seen virtual time of each outstanding lineage dependency
    /// (the coordinator keeps no timestamps; ages are watchdog-local).
    lineage_first_seen: BTreeMap<u64, Nanos>,
    /// Registry counter mirroring [`Tracer::dropped`].
    trace_dropped: Counter,
    trace_dropped_last: u64,
}

/// The always-installed watchdog actor. With `core: None` (recorder
/// disarmed) each tick is timer-pop + re-arm and nothing else — the
/// same schedule an armed run produces.
pub struct WatchdogActor {
    interval: Nanos,
    core: Option<WatchdogCore>,
}

/// Everything the armed watchdog samples from, passed by the harness.
pub struct WatchdogWiring {
    /// SLO monitor output (burn rates).
    pub slo: SloHandle,
    /// Per-server stats handles.
    pub server_stats: Vec<(ServerId, StatsHandle)>,
    /// Shared coordinator state (lineage deps).
    pub coord: CoordHandle,
    /// The cluster metrics registry.
    pub registry: Registry,
    /// Shared trace buffer.
    pub trace: Tracer,
    /// Shared profiler ledger.
    pub profiler: Profiler,
    /// Shared audit stream.
    pub audit: AuditSink,
    /// Where exported bundles land.
    pub incidents: IncidentLogHandle,
}

impl WatchdogActor {
    /// A disarmed watchdog: ticks at `interval` and does nothing else.
    pub fn disarmed(interval: Nanos) -> Self {
        WatchdogActor {
            interval,
            core: None,
        }
    }

    /// An armed watchdog evaluating `cfg.detectors` every `interval`.
    pub fn armed(interval: Nanos, cfg: FlightRecorderConfig, wiring: WatchdogWiring) -> Self {
        let mut server_stats = wiring.server_stats;
        server_stats.sort_by_key(|(id, _)| *id);
        let detectors = build_detectors(&cfg.detectors);
        let trace_dropped = wiring.registry.counter(
            TRACE_DROPPED_FAMILY,
            "trace events discarded by ring-buffer compaction",
            &[],
        );
        WatchdogActor {
            interval,
            core: Some(WatchdogCore {
                detectors,
                cooldowns: CooldownTracker::default(),
                slo: wiring.slo,
                server_stats,
                coord: wiring.coord,
                registry: wiring.registry,
                scraper: DeltaScraper::new(),
                trace: wiring.trace,
                profiler: wiring.profiler,
                audit: wiring.audit,
                incidents: wiring.incidents,
                lineage_first_seen: BTreeMap::new(),
                trace_dropped,
                trace_dropped_last: 0,
            }),
        }
    }
}

impl WatchdogCore {
    /// Assembles this tick's sample from the live handles. Pure reads
    /// plus scraper-local state; deterministic order throughout.
    fn sample(&mut self, now: Nanos, interval: Nanos) -> (WatchdogSample, Vec<CounterDelta>) {
        // Keep the drop counter in sync with the trace ring.
        let dropped = self.trace.dropped();
        if dropped > self.trace_dropped_last {
            self.trace_dropped.add(dropped - self.trace_dropped_last);
            self.trace_dropped_last = dropped;
        }

        let deltas = self.scraper.scrape(&self.registry);
        let mut overcommit_total = 0u64;
        let mut retries_total = 0u64;
        for d in &deltas {
            match d.name {
                rocksteady_server::stats::DISPATCH_OVERCOMMIT_FAMILY => overcommit_total += d.total,
                rocksteady_workload::stats::CLIENT_RETRIES_FAMILY => retries_total += d.total,
                _ => {}
            }
        }

        // Per-run migration progress, merged across servers in id order.
        let mut migrations: Vec<MigrationSample> = Vec::new();
        for (server, stats) in &self.server_stats {
            for (id, run) in stats.migration_runs_snapshot() {
                migrations.push(MigrationSample {
                    id: id.0,
                    target: server.0,
                    in_flight: run.in_flight(),
                    gathered: run.gathered,
                    replay_received: run.replay_received,
                    replay_applied: run.replay_applied,
                });
            }
        }
        migrations.sort_by_key(|m| m.id);

        // Lineage ages: watchdog-local first-seen stamps.
        let deps: Vec<u64> = self
            .coord
            .borrow()
            .lineage_deps()
            .iter()
            .map(|d| d.id.0)
            .collect();
        self.lineage_first_seen.retain(|id, _| deps.contains(id));
        let mut lineage: Vec<LineageSample> = deps
            .iter()
            .map(|id| {
                let first = *self.lineage_first_seen.entry(*id).or_insert(now);
                LineageSample {
                    id: *id,
                    age_ns: now - first,
                }
            })
            .collect();
        lineage.sort_by_key(|d| d.id);

        let (burn_fast, burn_slow) = {
            let r = self.slo.borrow();
            (r.burn_fast_permille, r.burn_slow_permille)
        };

        (
            WatchdogSample {
                at: now,
                interval_ns: interval,
                burn_fast_permille: burn_fast,
                burn_slow_permille: burn_slow,
                migrations,
                dispatch_overcommit_total: overcommit_total,
                client_retries_total: retries_total,
                lineage,
            },
            deltas,
        )
    }

    /// The causal explain for the triggering reading: progress
    /// anomalies get the migration's story, latency anomalies get the
    /// breach-window suspect ranking.
    fn explain_for(&self, now: Nanos, trigger: &DetectorReading) -> Option<String> {
        match trigger.subject {
            Some(id) => self.audit.explain_migration(MigrationId(id)),
            None => {
                let from = now.saturating_sub(10 * rocksteady_common::SECOND);
                self.audit.explain_slo_breach(from, now)
            }
        }
    }

    fn tick(&mut self, now: Nanos, interval: Nanos) {
        let (sample, deltas) = self.sample(now, interval);
        let firing: Vec<DetectorReading> = self
            .detectors
            .iter_mut()
            .filter_map(|d| d.evaluate(&sample))
            .collect();
        if firing.is_empty() {
            return;
        }
        let Some(trigger_idx) = self.cooldowns.admit(now, &firing) else {
            return;
        };
        let trigger = &firing[trigger_idx];
        let explain = self.explain_for(now, trigger);
        let bundle = build_bundle(&BundleInputs {
            at: now,
            trigger: trigger.detector,
            readings: &firing,
            burn: (sample.burn_fast_permille, sample.burn_slow_permille),
            trace: &self.trace,
            metrics: &deltas,
            profiler: &self.profiler,
            audit: &self.audit,
            explain,
        });
        self.incidents.borrow_mut().push(Incident {
            at: now,
            trigger: trigger.detector,
            bundle,
        });
    }
}

impl Actor<Envelope> for WatchdogActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.timer(self.interval, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        if let Event::Timer { .. } = event {
            // Armed: evaluate detectors (pure state mutation). Disarmed:
            // nothing. The re-armed timer is identical either way.
            if self.core.is_some() {
                let now = ctx.now();
                let interval = self.interval;
                if let Some(core) = self.core.as_mut() {
                    core.tick(now, interval);
                }
            }
            ctx.timer(self.interval, 0);
        }
    }
}
