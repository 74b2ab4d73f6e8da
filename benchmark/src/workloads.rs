//! The four workloads and the round that runs one of them: set up a
//! cluster, drive a real Rocksteady migration to completion under
//! open-loop client load, harvest the simulated-domain outputs and the
//! exact counts, check correctness, drop.
//!
//! Everything is reached through `ClusterBuilder`/`Cluster` and the
//! existing `ClusterConfig` switches; the README's *Pinned API* list
//! names every entry point used here.

use std::collections::BTreeMap;
use std::hint::black_box;

use rocksteady_cluster::{
    Activity, AdmissionCaps, Cluster, ClusterBuilder, ClusterConfig, ControlCmd,
    FlightRecorderConfig, GreedyLoadDelta, RebalancerConfig,
};
use rocksteady_common::{
    HashRange, KeyHash, MigrationId, Nanos, ServerId, TableId, MILLISECOND, SECOND,
};
use rocksteady_workload::core::write_primary_key;
use rocksteady_workload::{LoadShape, YcsbConfig};

use crate::spans::Recorder;
use crate::stats::{interpolated_percentile, merge_span, permille, span_buckets};

/// The table every workload uses.
pub const TABLE: TableId = TableId(1);
/// Split point of the scripted migrations: the upper half moves.
const MID: KeyHash = u64::MAX / 2 + 1;
const KEY_LEN: usize = 30;
const VALUE_LEN: usize = 100;
/// What `load_table` fills values with, and what YCSB clients write.
const LOADED_BYTE: u8 = 0xcd;
const WRITTEN_BYTE: u8 = 0xab;
const SERVERS: usize = 4;
/// Sampling, series and `run_until` slice interval.
pub const INTERVAL: Nanos = 10 * MILLISECOND;
const SRC: ServerId = ServerId(0);
const TGT: ServerId = ServerId(1);
const MIG: MigrationId = MigrationId(1);
/// Tablets of the `observed_rebalance` table (four per server).
const DAY_TABLETS: u32 = 16;

/// The benchmark's workloads. Names are permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline: serve YCSB-B at ~80% source dispatch load
    /// across one migration.
    ServeMigrate,
    /// Little client load, a million records gathered, shipped,
    /// replayed and re-replicated.
    BulkMigrate,
    /// A 50% write mix with triple replication and the cleaner running
    /// against the migration.
    WriteChurn,
    /// A rebalanced day with every observability layer armed.
    ObservedRebalance,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeMigrate,
        Workload::BulkMigrate,
        Workload::WriteChurn,
        Workload::ObservedRebalance,
    ];

    /// The permanent name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMigrate => "serve_migrate",
            Workload::BulkMigrate => "bulk_migrate",
            Workload::WriteChurn => "write_churn",
            Workload::ObservedRebalance => "observed_rebalance",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes at `1/scale` (1 = as specified; `--check`
    /// uses 10: a tenth of the records and of every simulated time).
    pub fn scenario(self, scale: u64) -> Scenario {
        let t = |ns: Nanos| ns / scale;
        match self {
            Workload::ServeMigrate => Scenario {
                records: 1_000_000 / scale,
                replicas: 2,
                sla: 250_000,
                cleaner_interval: None,
                clients: 8,
                ops_per_client: 95_000.0,
                read_fraction: 0.95,
                migrate_at: Some(t(SECOND / 4)),
                end: End::At(t(SECOND / 2)),
                day: None,
            },
            Workload::BulkMigrate => Scenario {
                records: 2_000_000 / scale,
                replicas: 2,
                sla: 250_000,
                cleaner_interval: None,
                clients: 3,
                ops_per_client: 100_000.0,
                read_fraction: 0.95,
                migrate_at: Some(5 * MILLISECOND),
                end: End::AfterMigration {
                    grace: INTERVAL,
                    deadline: 5 * SECOND,
                },
                day: None,
            },
            Workload::WriteChurn => Scenario {
                records: 1_000_000 / scale,
                replicas: 3,
                sla: MILLISECOND,
                cleaner_interval: Some(t(50 * MILLISECOND)),
                clients: 8,
                ops_per_client: 40_000.0,
                read_fraction: 0.5,
                migrate_at: Some(t(SECOND / 4)),
                end: End::At(t(SECOND / 2)),
                day: None,
            },
            Workload::ObservedRebalance => Scenario {
                records: 120_000 / scale,
                replicas: 2,
                sla: 250_000,
                cleaner_interval: None,
                clients: 6,
                ops_per_client: 40_000.0,
                read_fraction: 0.95,
                migrate_at: None,
                end: End::At(t(1_500 * MILLISECOND)),
                day: Some(Day {
                    dwell: t(500 * MILLISECOND),
                    flip_at: t(900 * MILLISECOND),
                    rebalance_every: t(100 * MILLISECOND),
                    cooldown: t(400 * MILLISECOND),
                }),
            },
        }
    }
}

/// When a round's simulated run ends.
#[derive(Debug, Clone, Copy)]
pub enum End {
    /// At a fixed simulated time.
    At(Nanos),
    /// `grace` after the scripted migration finishes (`deadline` bounds
    /// the wait; a migration that misses it fails the round).
    AfterMigration {
        /// Simulated time run past the migration's finish.
        grace: Nanos,
        /// Latest simulated time to wait for the finish.
        deadline: Nanos,
    },
}

/// The drifting-demand day of `observed_rebalance` (the
/// `day_in_the_life` shape at the default cost model): 16 tablets, a
/// hot region that drifts for all clients but the last, whose working
/// set flips once; the greedy rebalancer sheds the hotspots.
#[derive(Debug, Clone, Copy)]
pub struct Day {
    /// How long the drifting hotspot stays on one tablet.
    pub dwell: Nanos,
    /// When the last client's working set flips.
    pub flip_at: Nanos,
    /// Rebalancer decision cadence.
    pub rebalance_every: Nanos,
    /// Per-tablet move cooldown.
    pub cooldown: Nanos,
}

/// One workload's sizes. Every workload has 4 servers × 12 workers,
/// 30 B keys, 100 B values, 1 MiB segments and 10 ms sampling.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Records loaded.
    pub records: u64,
    /// Backups per master.
    pub replicas: usize,
    /// The SLO monitor's 99.9th-percentile read SLA.
    pub sla: Nanos,
    /// Log-cleaner cadence.
    pub cleaner_interval: Option<Nanos>,
    /// Open-loop YCSB clients (Poisson arrivals, Zipf θ 0.99 scrambled).
    pub clients: usize,
    /// Offered rate per client.
    pub ops_per_client: f64,
    /// Share of reads.
    pub read_fraction: f64,
    /// When the scripted upper-half migration 0→1 starts; `None` leaves
    /// migration to the rebalancer.
    pub migrate_at: Option<Nanos>,
    /// When the run ends.
    pub end: End,
    /// Set on `observed_rebalance`; also arms every observability layer
    /// and makes the exports part of the timed run.
    pub day: Option<Day>,
}

/// The flight recorder as `observed_rebalance` arms it: ring mode, the
/// default detectors minus `slo_burn` (as `day_in_the_life` runs it).
pub fn ring_recorder() -> FlightRecorderConfig {
    let mut fr = FlightRecorderConfig {
        trace_capacity: Some(1 << 20),
        audit_capacity: Some(1 << 18),
        ..FlightRecorderConfig::default()
    };
    fr.detectors.slo_burn = None;
    fr
}

/// Arms every observability layer the way `observed_rebalance` does.
pub fn arm_all_ring(cfg: &mut ClusterConfig) {
    cfg.tracing = true;
    cfg.profiling = true;
    cfg.audit = true;
    cfg.metrics = true;
    cfg.flight_recorder = Some(ring_recorder());
}

impl Scenario {
    /// The same scenario with its records divided by `records_by` and
    /// every simulated time by `time_by` (the overhead matrix runs
    /// `serve_migrate` cut to a quarter of its records and 0.25 s: many
    /// short runs, little set-up between them).
    pub fn cut(mut self, records_by: u64, time_by: u64) -> Scenario {
        self.records /= records_by;
        self.migrate_at = self.migrate_at.map(|t| t / time_by);
        if let End::At(t) = self.end {
            self.end = End::At(t / time_by);
        }
        self
    }

    fn cluster_config(&self, seed: u64) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            servers: SERVERS,
            workers: 12,
            replicas: self.replicas,
            segment_bytes: 1 << 20,
            hash_buckets: (self.records as usize / 4).next_power_of_two(),
            sample_interval: INTERVAL,
            series_interval: INTERVAL,
            seed,
            cleaner_interval: self.cleaner_interval,
            sla: Some(self.sla),
            ..ClusterConfig::default()
        };
        if let Some(day) = self.day {
            cfg.rebalancer = Some(RebalancerConfig {
                interval: day.rebalance_every,
                caps: AdmissionCaps {
                    per_source: 2,
                    per_target: 2,
                    cluster: 4,
                },
                policy: Box::new(GreedyLoadDelta::new(0.12, 4).with_cooldown(day.cooldown)),
            });
            arm_all_ring(&mut cfg);
        }
        cfg
    }

    fn tablets(&self) -> Vec<(HashRange, ServerId)> {
        if self.day.is_none() {
            return vec![(HashRange::full(), SRC)];
        }
        let per_server = DAY_TABLETS / SERVERS as u32;
        HashRange::full()
            .split(DAY_TABLETS as usize)
            .into_iter()
            .zip(0u32..)
            .map(|(range, i)| (range, ServerId(i / per_server)))
            .collect()
    }

    fn client(&self, b: &ClusterBuilder, i: usize, seed: u64) -> YcsbConfig {
        let mut y = YcsbConfig::ycsb_b(b.directory(), TABLE, self.records, self.ops_per_client);
        y.key_len = KEY_LEN;
        y.value_len = VALUE_LEN;
        y.read_fraction = self.read_fraction;
        // Open loop: the admission cap must never bind, or queueing
        // would hide behind it (the client times an op from admission).
        y.max_outstanding = 1024;
        y.seed = seed + 100 + i as u64;
        if let Some(day) = self.day {
            y.shape = if i == self.clients - 1 {
                LoadShape::SkewFlip {
                    at: day.flip_at,
                    buckets: DAY_TABLETS,
                    hot_weight: 0.7,
                }
            } else {
                LoadShape::DiurnalDrift {
                    dwell: day.dwell,
                    buckets: DAY_TABLETS,
                    hot_weight: 0.7,
                }
            };
        }
        y
    }

    /// Ops the clients offer over `sim_ns` of simulated time.
    fn offered(&self, sim_ns: Nanos) -> u64 {
        (self.ops_per_client * self.clients as f64 * sim_ns as f64 / SECOND as f64) as u64
    }
}

/// How one round is run.
#[derive(Clone, Copy)]
pub struct RoundOpts {
    /// Feeds `ClusterConfig::seed`; client `i` gets `seed + 100 + i`.
    pub seed: u64,
    /// Round id stamped on the round's spans.
    pub round: u32,
    /// The traced round: the program's tracing + profiling armed, the
    /// run stepped in 10 ms slices tagged by migration phase, exports
    /// timed. Measured rounds take one span per phase only.
    pub traced: bool,
    /// Read every loaded key back. The warm-up and the traced round do;
    /// measured rounds must reproduce the warm-up's counts exactly
    /// instead, and the overhead matrix skips it.
    pub verify: bool,
    /// Extra arming applied to the cluster configuration (the overhead
    /// matrix).
    pub arm: Option<fn(&mut ClusterConfig)>,
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Index of the round's root span in the recorder.
    pub span: usize,
    /// Host seconds of set-up: everything before the first `run_until`.
    pub setup_s: f64,
    /// Host seconds inside the run (plus the exports on
    /// `observed_rebalance`).
    pub run_s: f64,
    /// Simulated-domain outputs and exact counts; identical across the
    /// rounds of a run.
    pub counts: BTreeMap<&'static str, u64>,
    /// Host ns and events of the traced round's slices, by phase
    /// (`pre`, `mig`, `post`).
    pub phases: [(u64, u64); 3],
    /// Correctness-gate failures; empty when the round is correct.
    pub problems: Vec<String>,
}

impl RoundOpts {
    /// A round with no extra arming: what a workload run uses.
    pub fn plain(seed: u64, round: u32, traced: bool, verify: bool) -> RoundOpts {
        RoundOpts {
            seed,
            round,
            traced,
            verify,
            arm: None,
        }
    }
}

impl Round {
    /// A count by name (0 when absent).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Operations that failed: the numerator of `failed_share`.
    pub fn failures(&self) -> u64 {
        self.count("workload.not_found")
            + self.count("workload.timeouts")
            + self.count("verify.mismatches")
            + self.count("sim.migrations_unfinished")
    }
}

const PHASES: [&str; 3] = ["pre", "mig", "post"];

/// Runs one round of `scn`.
pub fn run_round(scn: &Scenario, opts: RoundOpts, rec: &mut Recorder) -> Round {
    rec.set_round(opts.round);
    let mut out = Round {
        span: rec.enter("round"),
        ..Round::default()
    };

    let setup = rec.enter("setup");
    let mut cluster = rec.span("build", || {
        let mut cfg = scn.cluster_config(opts.seed);
        if opts.traced {
            cfg.tracing = true;
            cfg.profiling = true;
        }
        if let Some(arm) = opts.arm {
            arm(&mut cfg);
        }
        let mut b = ClusterBuilder::new(cfg);
        for i in 0..scn.clients {
            let client = scn.client(&b, i, opts.seed);
            b.add_ycsb(client);
        }
        if let Some(at) = scn.migrate_at {
            b.at(
                at,
                ControlCmd::Migrate {
                    id: MIG,
                    table: TABLE,
                    range: HashRange {
                        start: MID,
                        end: u64::MAX,
                    },
                    source: SRC,
                    target: TGT,
                },
            );
        }
        b.build()
    });
    rec.span("create_table", || {
        cluster.create_table(TABLE, &scn.tablets())
    });
    rec.span("load_table", || {
        cluster.load_table(TABLE, scn.records, KEY_LEN, VALUE_LEN);
    });
    rec.span("seed_backups", || cluster.seed_backups());
    if scn.migrate_at.is_some() {
        rec.span("split_tablet", || cluster.split_tablet(TABLE, MID));
    }
    rec.exit(setup);

    let run = rec.enter("run");
    drive(&mut cluster, scn, opts.traced, rec, &mut out.phases);
    if scn.day.is_some() {
        // A user who armed the layers asked for their exports: on this
        // workload producing them is part of the timed run.
        exports(&cluster, rec);
    }
    rec.exit(run);
    if scn.day.is_none() && opts.traced {
        exports(&cluster, rec);
    }

    rec.span("harvest", || {
        harvest(&mut cluster, scn, opts.traced, &mut out)
    });
    if opts.verify {
        rec.span("verify", || verify(&mut cluster, scn, &mut out));
    }
    gate(scn, &mut out);
    rec.span("drop", || drop(cluster));

    rec.exit(out.span);
    let spans = rec.spans();
    out.setup_s = spans[setup].dur() as f64 / 1e9;
    out.run_s = spans[run].dur() as f64 / 1e9;
    out
}

/// Runs the simulation to the scenario's end condition: in one call on
/// measured rounds, in tagged 10 ms slices on the traced round. Both
/// reach the same simulated state (`run_until_migrated` itself steps by
/// the sampling interval).
fn drive(
    cluster: &mut Cluster,
    scn: &Scenario,
    sliced: bool,
    rec: &mut Recorder,
    phases: &mut [(u64, u64); 3],
) {
    let mut run_to = |cluster: &mut Cluster, to: Nanos| {
        if !sliced {
            return rec.span("run_until", || cluster.run_until(to));
        }
        while cluster.now() < to {
            let (from, events) = (cluster.now(), cluster.sim.events_processed());
            let next = (from + INTERVAL).min(to);
            let id = rec.enter("run_until");
            cluster.run_until(next);
            rec.exit(id);
            let phase = phase_of(cluster, from, next);
            rec.tag(id, PHASES[phase]);
            phases[phase].0 += rec.spans()[id].dur();
            phases[phase].1 += cluster.sim.events_processed() - events;
        }
    };
    match scn.end {
        End::At(end) => run_to(cluster, end),
        End::AfterMigration { grace, deadline } => {
            // `Cluster::run_until_migrated`, spelled out so the traced
            // round can slice it: step by the sampling interval until
            // the run finishes, is abandoned, or the deadline passes.
            while cluster.now() < deadline
                && cluster.migration_finished(TGT, MIG).is_none()
                && cluster.migration_abandoned(TGT, MIG).is_none()
            {
                let next = (cluster.now() + INTERVAL).min(deadline);
                run_to(cluster, next);
            }
            let end = cluster.now() + grace;
            run_to(cluster, end);
        }
    }
    if scn.day.is_some() {
        // The rebalancer may admit a move just before the day ends; let
        // every in-flight migration finish so none is cut off mid-run.
        let limit = cluster.now() + 20 * INTERVAL;
        while cluster.now() < limit && in_flight(cluster) > 0 {
            let next = cluster.now() + INTERVAL;
            run_to(cluster, next);
        }
    }
}

fn in_flight(cluster: &Cluster) -> usize {
    cluster
        .migration_runs()
        .iter()
        .filter(|(_, _, st)| st.in_flight())
        .count()
}

/// Migration phase of the slice `[from, to)`: `mig` (1) while any run
/// overlaps it, `pre` (0) before the first run starts, else `post` (2).
fn phase_of(cluster: &Cluster, from: Nanos, to: Nanos) -> usize {
    let runs = cluster.migration_runs();
    let overlaps = runs.iter().any(|(_, _, st)| {
        let end = st.finished_at.or(st.abandoned_at).unwrap_or(Nanos::MAX);
        st.started_at < to && end > from
    });
    if overlaps {
        1
    } else if runs.iter().all(|(_, _, st)| st.started_at >= to) {
        0
    } else {
        2
    }
}

/// Produces every export a user arming the layers would ask for, one
/// span each.
fn exports(cluster: &Cluster, rec: &mut Recorder) {
    let id = rec.enter("exports");
    black_box(rec.span("export_trace_json", || cluster.export_trace_json()));
    black_box(rec.span("export_journeys_json", || cluster.export_journeys_json()));
    black_box(rec.span("export_audit_json", || cluster.export_audit_json()));
    black_box(rec.span("export_folded", || {
        cluster.finalize_profile();
        cluster.export_folded()
    }));
    black_box(rec.span("export_metrics_json", || cluster.export_metrics_json()));
    black_box(rec.span("export_incidents_json", || cluster.export_incidents_json()));
    rec.exit(id);
}

/// Reads the simulated-domain outputs and the exact counts off the
/// finished cluster.
fn harvest(cluster: &mut Cluster, scn: &Scenario, traced: bool, out: &mut Round) {
    let c = &mut out.counts;
    let now = cluster.now();
    c.insert("sim.end_ns", now);
    c.insert("simnet.events", cluster.sim.events_processed());

    // Migrations: bytes in, time spent, and the span they cover.
    let runs = cluster.migration_runs();
    let finished: Vec<(Nanos, Nanos)> = runs
        .iter()
        .filter_map(|(_, _, st)| st.finished_at.map(|f| (st.started_at, f)))
        .collect();
    let scheduled = runs.len().max(usize::from(scn.migrate_at.is_some()));
    c.insert("sim.migrations_finished", finished.len() as u64);
    c.insert(
        "sim.migrations_unfinished",
        (scheduled - finished.len()) as u64,
    );
    c.insert(
        "sim.migration_ns",
        finished.iter().map(|(s, f)| f - s).sum::<u64>(),
    );
    // The span: every series bucket during which a migration ran.
    let span = span_buckets(INTERVAL, &finished);
    c.insert("sim.span_ns", span.len() as u64 * INTERVAL);

    // Clients: latency and throughput over the span, totals overall.
    {
        let clients: Vec<_> = cluster.client_stats.iter().map(|s| s.borrow()).collect();
        let reads = merge_span(clients.iter().map(|s| &s.read_latency), &span);
        c.insert("workload.reads_in_span", reads.count());
        // Picoseconds, so the interpolated quantiles stay exact counts.
        c.insert(
            "sim.read_p50_ps",
            (interpolated_percentile(&reads, 0.5) * 1e3).round() as u64,
        );
        c.insert(
            "sim.read_p999_ps",
            (interpolated_percentile(&reads, 0.999) * 1e3).round() as u64,
        );
        c.insert(
            "sim.ops_in_span",
            merge_span(clients.iter().map(|s| &s.objects), &span).count(),
        );
        let sum = |f: &dyn Fn(&rocksteady_workload::ClientStats) -> u64| -> u64 {
            clients.iter().map(|s| f(s)).sum()
        };
        let reads_done = sum(&|s| s.read_hist.with(|h| h.count()));
        let writes_done = sum(&|s| s.write_hist.with(|h| h.count()));
        c.insert("workload.reads", reads_done);
        c.insert("workload.writes", writes_done);
        c.insert("workload.ops_completed", reads_done + writes_done);
        c.insert(
            "workload.offered_vs_completed_permille",
            permille(reads_done + writes_done, scn.offered(now)),
        );
        c.insert("workload.retries", sum(&|s| s.retries.get()));
        c.insert("workload.timeouts", sum(&|s| s.timeouts.get()));
        c.insert("workload.not_found", sum(&|s| s.not_found.get()));
    }

    // SLO monitor: one window per sampling interval.
    c.insert(
        "cluster.slo_breach_intervals",
        cluster.slo_report().breach_intervals,
    );
    c.insert("sim.slo_windows", now / INTERVAL);

    // Servers.
    let mut servers = NodeTotals::default();
    for id in (0..SERVERS as u32).map(ServerId) {
        let v = cluster.server_stats[&id].view();
        servers.ops += v.ops_served;
        servers.pulls += v.pulls_served;
        servers.priority_pulls += v.priority_pulls_served;
        servers.retry_hints += v.retry_hints_sent;
        servers.replayed += v.records_replayed;
        servers.bytes_in += v.bytes_migrated_in;
        servers.cleaned += v.segments_cleaned;
        servers.overcommit += v.dispatch_overcommit;
        let node = cluster.node(id);
        servers.log_bytes += node.master.log.stats().committed_bytes;
        servers.backup_bytes += node.backup.total_bytes();
    }
    c.insert("server.ops_served", servers.ops);
    c.insert("server.dispatch_overcommit", servers.overcommit);
    c.insert("core.pulls", servers.pulls);
    c.insert("core.priority_pulls", servers.priority_pulls);
    c.insert("core.retry_hints", servers.retry_hints);
    c.insert("master.records_replayed", servers.replayed);
    c.insert("master.bytes_migrated", servers.bytes_in);
    c.insert("logstore.segments_cleaned", servers.cleaned);
    c.insert("logstore.log_bytes", servers.log_bytes);
    c.insert(
        "logstore.user_bytes",
        scn.records * (KEY_LEN + VALUE_LEN) as u64,
    );
    c.insert("backup.bytes_stored", servers.backup_bytes);
    {
        // Source utilisation over the span, from the sampler's series.
        let util = cluster.util.borrow();
        let points: Vec<_> = util.by_server[&SRC]
            .iter()
            .filter(|p| span.binary_search(&p.at).is_ok())
            .collect();
        let n = points.len().max(1) as f64;
        let mean = |f: &dyn Fn(&rocksteady_cluster::UtilPoint) -> f64| -> f64 {
            points.iter().map(|p| f(p)).sum::<f64>() / n
        };
        c.insert(
            "server.src_dispatch_util_permille",
            (mean(&|p| p.dispatch) * 1000.0).round() as u64,
        );
        c.insert(
            "server.src_worker_cores_x100",
            (mean(&|p| p.worker_cores) * 100.0).round() as u64,
        );
    }

    // Coordinator and rebalancer.
    c.insert(
        "coordinator.lineage_deps",
        cluster.coord.borrow().lineage_deps().len() as u64,
    );
    {
        let report = cluster.rebalancer.borrow();
        c.insert("rebalancer.moves_admitted", report.admitted);
        c.insert("rebalancer.moves_completed", report.completed);
    }
    c.insert(
        "rebalancer.peak_concurrent",
        cluster.peak_concurrent_migrations() as u64,
    );

    // Observability layers (all zero while disarmed).
    c.insert(
        "trace.events",
        cluster.trace.len() as u64 + cluster.trace.dropped(),
    );
    c.insert("trace.dropped", cluster.trace.dropped());
    let audit = cluster.audit_report();
    c.insert("audit.events", audit.events);
    c.insert("audit.violations", audit.violations);
    c.insert("flightrec.incidents", cluster.incident_count() as u64);

    if traced {
        profile_shares(cluster, c);
        critical_path(cluster, c);
    }
}

#[derive(Default)]
struct NodeTotals {
    ops: u64,
    pulls: u64,
    priority_pulls: u64,
    retry_hints: u64,
    replayed: u64,
    bytes_in: u64,
    cleaned: u64,
    overcommit: u64,
    log_bytes: u64,
    backup_bytes: u64,
}

/// Whole-run core-time shares from the armed profiler ledger, for the
/// scripted source (server 0) and target (server 1): dispatch
/// activities over the dispatch core's wall time, worker activities
/// over the summed worker-core wall time.
fn profile_shares(cluster: &Cluster, c: &mut BTreeMap<&'static str, u64>) {
    cluster.finalize_profile();
    let cores = cluster.profiler.cores();
    let share = |server: ServerId, dispatch: bool, acts: &[Activity]| -> u64 {
        let (mut busy, mut wall) = (0u64, 0u64);
        for core in cores
            .iter()
            .filter(|k| k.server == server.0 && (k.core == 0) == dispatch)
        {
            wall += core.wall;
            for (act, ns) in Activity::ALL.iter().zip(core.buckets) {
                if acts.contains(act) {
                    busy += ns;
                }
            }
        }
        permille(busy, wall)
    };
    let dispatch = [
        Activity::DispatchRx,
        Activity::DispatchTx,
        Activity::MigrationMgr,
    ];
    c.insert(
        "profiler.src_dispatch_permille",
        share(SRC, true, &dispatch),
    );
    c.insert(
        "profiler.src_service_permille",
        share(SRC, false, &[Activity::Service]),
    );
    c.insert(
        "profiler.src_pull_gather_permille",
        share(SRC, false, &[Activity::PullGather]),
    );
    c.insert(
        "profiler.src_priority_pull_permille",
        share(SRC, false, &[Activity::PriorityPull]),
    );
    c.insert(
        "profiler.tgt_dispatch_permille",
        share(TGT, true, &dispatch),
    );
    c.insert(
        "profiler.tgt_replay_permille",
        share(TGT, false, &[Activity::Replay]),
    );
    c.insert(
        "profiler.tgt_hold_permille",
        share(TGT, false, &[Activity::Hold]),
    );
    c.insert(
        "profiler.tgt_background_permille",
        share(TGT, false, &[Activity::Background]),
    );
}

/// The critical-path decomposition of the most recent completed
/// migration, in permille of its duration.
fn critical_path(cluster: &Cluster, c: &mut BTreeMap<&'static str, u64>) {
    let report = cluster.critical_path_report();
    let of = |names: &[&str]| -> u64 {
        report.as_ref().map_or(0, |r| {
            r.components
                .iter()
                .filter(|k| names.contains(&k.name))
                .map(|k| k.permille)
                .sum()
        })
    };
    c.insert("critpath.replay_permille", of(&["replay-service"]));
    c.insert("critpath.pull_rtt_permille", of(&["pull-rtt"]));
    c.insert(
        "critpath.pull_nic_permille",
        of(&["pull-nic-serialization"]),
    );
    c.insert(
        "critpath.priority_pull_permille",
        of(&["priority-pull-rtt"]),
    );
    c.insert(
        "critpath.dispatch_queue_permille",
        of(&["dispatch-queueing"]),
    );
    c.insert(
        "critpath.prepare_flip_permille",
        of(&["prepare-control", "ownership-flip"]),
    );
}

/// Reads every loaded key back through `Cluster::read_direct` and
/// checks the coordinator map names the right owners.
fn verify(cluster: &mut Cluster, scn: &Scenario, out: &mut Round) {
    // Highest acknowledged write version per key rank: an acked write
    // must survive the migration.
    let mut confirmed = vec![0u64; scn.records as usize];
    for stats in &cluster.client_stats {
        for (rank, version) in &stats.borrow().confirmed_writes {
            let slot = &mut confirmed[*rank as usize];
            *slot = (*slot).max(*version);
        }
    }
    let mut mismatches = 0u64;
    let mut key = Vec::with_capacity(KEY_LEN);
    for rank in 0..scn.records {
        write_primary_key(rank, KEY_LEN, &mut key);
        let acked = confirmed[rank as usize];
        let ok = match cluster.read_direct(TABLE, &key) {
            Some((value, version)) if value.len() == VALUE_LEN => {
                if value.iter().all(|b| *b == LOADED_BYTE) {
                    acked == 0
                } else {
                    value.iter().all(|b| *b == WRITTEN_BYTE) && version >= acked.max(1)
                }
            }
            _ => false,
        };
        if !ok {
            mismatches += 1;
            if mismatches <= 3 {
                out.problems.push(format!("rank {rank} read back wrong"));
            }
        }
    }
    out.counts.insert("verify.mismatches", mismatches);
    out.counts.insert("verify.keys", scn.records);

    // Ownership: the map must name each migrated range's target.
    let coord = cluster.coord.borrow();
    let owner = |hash: KeyHash| coord.tablet_for(TABLE, hash).map(|t| t.owner);
    if scn.migrate_at.is_some() {
        if owner(MID) != Some(TGT) || owner(u64::MAX) != Some(TGT) || owner(0) != Some(SRC) {
            out.problems
                .push("coordinator map does not name the target for the upper half".into());
        }
    } else {
        // Each tablet's owner is the target of its last finished move.
        let mut last: BTreeMap<KeyHash, ServerId> = BTreeMap::new();
        for mv in &cluster.rebalancer.borrow().moves {
            let done = cluster
                .migration_finished(mv.proposal.target, mv.id)
                .is_some();
            if done {
                last.insert(mv.proposal.range.start, mv.proposal.target);
            }
        }
        for (start, target) in last {
            if owner(start) != Some(target) {
                out.problems.push(format!(
                    "tablet {start:#x} not owned by its last target {target}"
                ));
            }
        }
    }
}

/// The correctness gate on the harvested counts.
fn gate(scn: &Scenario, out: &mut Round) {
    let get = |k: &str| out.count(k);
    let mut problems = Vec::new();
    if get("sim.migrations_finished") == 0 {
        problems.push("no migration finished".to_string());
    }
    if get("sim.migrations_unfinished") > 0 {
        problems.push(format!(
            "{} migration(s) scheduled but unfinished or abandoned",
            get("sim.migrations_unfinished")
        ));
    }
    if get("coordinator.lineage_deps") > 0 {
        problems.push("lineage dependencies left behind".to_string());
    }
    if get("workload.not_found") + get("workload.timeouts") > 0 {
        problems.push(format!(
            "client ops failed: {} not found, {} timed out",
            get("workload.not_found"),
            get("workload.timeouts")
        ));
    }
    if get("audit.violations") > 0 {
        problems.push(format!("{} audit violation(s)", get("audit.violations")));
    }
    if scn.cleaner_interval.is_some() && get("logstore.segments_cleaned") == 0 {
        problems.push("the cleaner reclaimed no segment".to_string());
    }
    if get("workload.ops_completed") == 0 {
        problems.push("no client op completed".to_string());
    }
    out.problems.extend(problems);
}
