//! Cluster construction and experiment driving.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady::MigrationConfig;
use rocksteady_audit::{AuditKind, AuditReport, AuditSink};
use rocksteady_common::json::{JsonWriter, Raw};
use rocksteady_common::zipf::KeySampler;
use rocksteady_common::{
    key_hash, CostModel, HashRange, KeyHash, MigrationId, Nanos, ServerId, TableId, SECOND,
};
use rocksteady_coordinator::Coordinator;
use rocksteady_logstore::LogConfig;
use rocksteady_master::{LoadBatch, MasterConfig, TabletRole};
use rocksteady_metrics::Registry;
use rocksteady_profiler::{critical_path, CriticalPathReport, Profiler};
use rocksteady_proto::Envelope;
use rocksteady_server::stats::{registered_stats, StatsHandle};
use rocksteady_server::{MigrationRunStamps, ServerConfig, ServerNode};
use rocksteady_simnet::{ActorId, Directory, LossRule, NicConfig, SchedulerKind, Simulation};
use rocksteady_trace::journey::{self, Journey};
use rocksteady_trace::Tracer;
use rocksteady_workload::shape::bucket_ranks;
use rocksteady_workload::stats::registered_client_stats;
use rocksteady_workload::{
    ClientStatsHandle, ScanClient, ScanConfig, SpreadClient, SpreadConfig, YcsbClient, YcsbConfig,
};

use rocksteady_flightrec::FlightRecorderConfig;

use crate::control::{ControlActor, ControlEvent};
use crate::coordinator_actor::{CoordHandle, CoordinatorActor};
use crate::incident::{incidents_to_json, Incident};
use crate::observer::Observer;
use crate::rebalancer::{Rebalancer, RebalancerConfig, RebalancerHandle, RebalancerReport};
use crate::sampler::{Sampler, SnapshotLogHandle, UtilSeries, UtilSeriesHandle};
use crate::slo::{SloHandle, SloMonitor, SloReport};
use crate::watchdog::{IncidentLogHandle, WatchdogCore};

/// Topology + hardware parameters for one simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of servers.
    pub servers: usize,
    /// Worker cores per server (the paper's rig uses 12).
    pub workers: usize,
    /// Calibrated cost model.
    pub cost: CostModel,
    /// Log segment size in bytes.
    pub segment_bytes: usize,
    /// Hash-table buckets per master.
    pub hash_buckets: usize,
    /// Backups per master (0 disables replication; capped at servers-1).
    pub replicas: usize,
    /// Migration protocol knobs.
    pub migration: MigrationConfig,
    /// Utilization sampling interval.
    pub sample_interval: Nanos,
    /// Client latency-series interval.
    pub series_interval: Nanos,
    /// Master seed for all deterministic randomness.
    pub seed: u64,
    /// Log-cleaner pass interval per server (`None` disables cleaning).
    pub cleaner_interval: Option<Nanos>,
    /// Per-server worker-count overrides (defaults to `workers`); used by
    /// experiments that size the source and target differently (Fig 15).
    pub workers_by_server: Vec<(ServerId, usize)>,
    /// Arm the deterministic trace layer: servers and clients record
    /// RPC/migration spans into one shared buffer, exportable as
    /// chrome://tracing JSON. Off by default — a disarmed tracer costs
    /// one branch per would-be event.
    pub tracing: bool,
    /// Arm periodic full-registry snapshot capture (one [`rocksteady_metrics::Snapshot`]
    /// per sampling interval, exported as one JSON series).
    /// Instruments always record and on-demand exports always work; this
    /// only gates the per-interval buffer, and the observer's cadence is
    /// fixed either way, so arming cannot perturb the event schedule.
    pub metrics: bool,
    /// 99.9th-percentile read-latency SLA for the live SLO monitor
    /// (`None` still runs the monitor but never counts breaches).
    pub sla: Option<Nanos>,
    /// Arm the exact per-core activity ledger (`rocksteady-profiler`):
    /// every dispatch/worker core charges elapsed virtual time to an
    /// activity bucket. Off by default; charging is pure state mutation
    /// so arming never perturbs the event schedule.
    pub profiling: bool,
    /// Which event-queue implementation the kernel runs on. Both pop
    /// in identical `(time, sequence)` order, so this never changes a
    /// trace — the determinism suite swaps it and asserts exactly that.
    pub scheduler: SchedulerKind,
    /// Arm the autonomous rebalancer: a placement loop that scrapes
    /// per-server load each interval and issues admission-controlled
    /// `MigrateTablet` RPCs (see [`crate::rebalancer`]). It runs inside
    /// the always-installed observer's ticks, so its interval must be a
    /// multiple of `sample_interval`, and arming it adds no event and
    /// renumbers no actor: only the migrations it starts move the
    /// schedule. `None` (the default) disarms it.
    pub rebalancer: Option<RebalancerConfig>,
    /// Arm the cluster-wide protocol auditor (`rocksteady-audit`): the
    /// coordinator, every server and the rebalancer emit
    /// ownership/lineage/migration/version-floor events into one shared
    /// stream, checked online against the Rocksteady invariants and
    /// exportable as a causal "explain" report, and YCSB clients report
    /// every completed operation to its linearizability check. Off by
    /// default; armed, every emission is pure state mutation (no timers,
    /// no clock perturbation), so `events_processed()` and all existing
    /// exports stay byte-identical.
    pub audit: bool,
    /// Arm the always-on flight recorder (`rocksteady-flightrec`): ring
    /// capacities for the trace/audit buffers, a watchdog detector
    /// catalog evaluated every sampling interval, and triggered
    /// incident-bundle export (see [`crate::watchdog`]). The watchdog
    /// runs inside the always-installed observer, so arming only adds
    /// pure state mutation to its ticks: `events_processed()` is
    /// byte-identical armed or disarmed. With the default
    /// [`FlightRecorderConfig`] (no ring capacities), the trace and
    /// profiler exports are byte-identical too.
    pub flight_recorder: Option<FlightRecorderConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            servers: 4,
            workers: 4,
            cost: CostModel::default(),
            segment_bytes: 1 << 18,
            hash_buckets: 1 << 14,
            replicas: 3,
            migration: MigrationConfig::default(),
            sample_interval: SECOND / 10,
            series_interval: SECOND,
            seed: 42,
            cleaner_interval: None,
            workers_by_server: Vec::new(),
            tracing: false,
            metrics: false,
            sla: None,
            profiling: false,
            scheduler: SchedulerKind::default(),
            rebalancer: None,
            audit: false,
            flight_recorder: None,
        }
    }
}

enum ClientSpec {
    Ycsb(YcsbConfig),
    Spread(SpreadConfig),
    Scan(ScanConfig),
}

/// Declares a cluster: topology, clients, and the control script.
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    dir: Directory,
    clients: Vec<ClientSpec>,
    script: Vec<ControlEvent>,
    losses: Vec<(ServerId, LossRule<Envelope>)>,
}

impl ClusterBuilder {
    /// Starts building; actor ids are assigned deterministically
    /// (coordinator, then servers, control, observer, then clients,
    /// whatever is armed), so the [`Directory`] is available
    /// immediately for client configs.
    pub fn new(cfg: ClusterConfig) -> Self {
        let dir = Directory {
            coordinator: 0,
            servers: (1..=cfg.servers).collect(),
        };
        ClusterBuilder {
            cfg,
            dir,
            clients: Vec::new(),
            script: Vec::new(),
            losses: Vec::new(),
        }
    }

    /// The cluster's wiring, for building client configs.
    pub fn directory(&self) -> Directory {
        self.dir.clone()
    }

    /// Adds a YCSB client.
    pub fn add_ycsb(&mut self, cfg: YcsbConfig) -> &mut Self {
        self.clients.push(ClientSpec::Ycsb(cfg));
        self
    }

    /// Adds `n` YCSB clients like `cfg`, seeded `cfg.seed`,
    /// `cfg.seed + 1`, … in order.
    pub fn add_ycsb_clients(&mut self, n: usize, cfg: YcsbConfig) -> &mut Self {
        for i in 0..n as u64 {
            self.add_ycsb(YcsbConfig {
                seed: cfg.seed + i,
                ..cfg.clone()
            });
        }
        self
    }

    /// Adds a multiget-spread client (Figure 3).
    pub fn add_spread(&mut self, cfg: SpreadConfig) -> &mut Self {
        self.clients.push(ClientSpec::Spread(cfg));
        self
    }

    /// Adds an index-scan client (Figure 4).
    pub fn add_scan(&mut self, cfg: ScanConfig) -> &mut Self {
        self.clients.push(ClientSpec::Scan(cfg));
        self
    }

    /// Schedules a control command.
    pub fn at(&mut self, time: Nanos, cmd: crate::control::ControlCmd) -> &mut Self {
        self.script.push(ControlEvent { at: time, cmd });
        self
    }

    /// Makes the network lose every message to `server` that `rule`
    /// names (one rule per server; the last call wins), as
    /// [`Simulation::lose`] does.
    pub fn lose(
        &mut self,
        server: ServerId,
        rule: impl FnMut(&Envelope) -> bool + 'static,
    ) -> &mut Self {
        self.losses.push((server, Box::new(rule)));
        self
    }

    /// Builds the simulation.
    ///
    /// # Panics
    ///
    /// Panics if an armed rebalancer's interval is not a positive
    /// multiple of `sample_interval`: its decisions ride the observer's
    /// ticks.
    pub fn build(self) -> Cluster {
        let cfg = self.cfg;
        if let Some(rb) = &cfg.rebalancer {
            assert!(
                rb.interval > 0 && rb.interval.is_multiple_of(cfg.sample_interval),
                "rebalancer interval {} ns is not a multiple of sample_interval {} ns",
                rb.interval,
                cfg.sample_interval
            );
        }
        let mut sim = Simulation::with_scheduler(NicConfig::default(), cfg.seed, cfg.scheduler);
        let coord: CoordHandle = Rc::new(RefCell::new(Coordinator::new()));
        let util: UtilSeriesHandle = Rc::new(RefCell::new(UtilSeries::default()));
        let metrics = Registry::new();
        let snapshots: SnapshotLogHandle = Rc::new(RefCell::new(Vec::new()));
        let slo: SloHandle = Rc::new(RefCell::new(SloReport::default()));
        // Ring capacities from the flight recorder (when armed) bound
        // the trace/audit buffers; without them the armed recorder
        // reads whatever `tracing`/`audit` produced, so its presence
        // never changes an existing export.
        let fr_trace_cap = cfg.flight_recorder.as_ref().and_then(|f| f.trace_capacity);
        let fr_audit_cap = cfg.flight_recorder.as_ref().and_then(|f| f.audit_capacity);
        let trace = match fr_trace_cap {
            Some(capacity) => Tracer::with_capacity(capacity),
            None if cfg.tracing => Tracer::armed(),
            None => Tracer::off(),
        };
        let profiler = if cfg.profiling {
            Profiler::armed()
        } else {
            Profiler::off()
        };
        let audit = match fr_audit_cap {
            Some(capacity) => AuditSink::with_capacity(capacity),
            None if cfg.audit => AuditSink::armed(),
            None => AuditSink::off(),
        };
        audit.register_metrics(&metrics);

        // Actor 0: coordinator.
        let coordinator_actor = sim.add_actor(Box::new(CoordinatorActor::new(
            Rc::clone(&coord),
            self.dir.clone(),
            audit.clone(),
        )));
        debug_assert_eq!(coordinator_actor, 0);

        // Actors 1..=S: servers, each replicating to the next `replicas`
        // servers in the ring (master + backup co-residency, Figure 1).
        let replicas = cfg.replicas.min(cfg.servers.saturating_sub(1));
        let mut server_stats = BTreeMap::new();
        let mut servers = Vec::with_capacity(cfg.servers);
        let mut backups_of = BTreeMap::new();
        for i in 0..cfg.servers {
            let id = ServerId(i as u32);
            coord.borrow_mut().register_server(id);
            let backup_ids: Vec<ServerId> = (1..=replicas)
                .map(|k| ServerId(((i + k) % cfg.servers) as u32))
                .collect();
            let backup_actors = backup_ids.iter().map(|b| self.dir.actor_of(*b)).collect();
            backups_of.insert(id, backup_ids);
            let stats = registered_stats(&metrics, id);
            server_stats.insert(id, Rc::clone(&stats));
            servers.push((id, Rc::clone(&stats)));
            let workers = cfg
                .workers_by_server
                .iter()
                .find(|(s, _)| *s == id)
                .map(|(_, w)| *w)
                .unwrap_or(cfg.workers);
            let server_cfg = ServerConfig {
                id,
                workers,
                cost: cfg.cost.clone(),
                master: MasterConfig {
                    id,
                    log: LogConfig {
                        segment_bytes: cfg.segment_bytes,
                        max_segments: None,
                    },
                    hash_buckets: cfg.hash_buckets,
                    hash_stripes: 256,
                },
                backup_actors,
                migration: cfg.migration.clone(),
                cleaner_interval: cfg.cleaner_interval,
            };
            let actor = sim.add_actor(Box::new(ServerNode::new(
                server_cfg,
                self.dir.clone(),
                stats,
                trace.clone(),
                profiler.clone(),
                audit.clone(),
            )));
            debug_assert_eq!(actor, 1 + i);
        }
        for (server, rule) in self.losses {
            sim.lose(self.dir.actor_of(server), rule);
        }

        // Control, then the observer: the one actor on the sampling
        // cadence, reading the clients' stats, so those are registered
        // first, and carrying the rebalancer when armed.
        sim.add_actor(Box::new(ControlActor::new(self.dir.clone(), self.script)));
        let client_stats: Vec<ClientStatsHandle> = (0..self.clients.len())
            .map(|idx| registered_client_stats(&metrics, idx, cfg.series_interval))
            .collect();
        let incidents: IncidentLogHandle = Rc::new(RefCell::new(Vec::new()));
        let watchdog = cfg.flight_recorder.as_ref().map(|fr| {
            WatchdogCore::new(
                fr,
                Rc::clone(&coord),
                metrics.clone(),
                trace.clone(),
                profiler.clone(),
                audit.clone(),
                Rc::clone(&incidents),
            )
        });
        let rebalancer: RebalancerHandle = Rc::new(RefCell::new(RebalancerReport::default()));
        sim.add_actor(Box::new(Observer::new(
            cfg.sample_interval,
            servers,
            client_stats.clone(),
            cfg.rebalancer.clone().map(|rb| {
                Rebalancer::new(
                    rb,
                    Rc::clone(&coord),
                    self.dir.clone(),
                    Rc::clone(&rebalancer),
                    audit.clone(),
                )
            }),
            Sampler::new(
                cfg.sample_interval,
                metrics.clone(),
                cfg.metrics,
                Rc::clone(&util),
                Rc::clone(&snapshots),
            ),
            SloMonitor::new(cfg.sample_interval, &metrics, cfg.sla, Rc::clone(&slo)),
            watchdog,
        )));

        // Clients. Each client's seed is folded together with the
        // cluster seed and its index, so changing the cluster seed
        // perturbs every random stream while same-seed runs stay
        // bit-identical. One key sampler and one rank-by-region table per
        // distinct key space, cloned into its clients.
        let mut samplers = Vec::new();
        let mut region_ranks = Vec::new();
        let mut ycsb = Vec::new();
        for (idx, (spec, stats)) in self.clients.into_iter().zip(&client_stats).enumerate() {
            let stats = Rc::clone(stats);
            let derived = cfg
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(idx as u32 + 1)
                ^ (idx as u64 + 1);
            match spec {
                ClientSpec::Ycsb(mut c) => {
                    c.seed ^= derived;
                    // Ranks scrambled across the key space (§4.1).
                    let sampler = shared(&mut samplers, (c.num_keys, c.dist), || {
                        KeySampler::new(c.num_keys, c.dist, true)
                    });
                    let regions = (c.num_keys, c.key_len, c.shape.buckets());
                    let ranks = shared(&mut region_ranks, regions, || {
                        bucket_ranks(c.num_keys, c.key_len, c.shape.buckets())
                    });
                    ycsb.push(
                        sim.add_actor(Box::new(
                            YcsbClient::with_sampler(c, stats, sampler, ranks)
                                .with_trace(trace.clone())
                                .with_audit(audit.clone()),
                        )),
                    );
                }
                ClientSpec::Spread(mut c) => {
                    c.seed ^= derived;
                    sim.add_actor(Box::new(SpreadClient::new(c, stats)));
                }
                ClientSpec::Scan(mut c) => {
                    c.seed ^= derived;
                    sim.add_actor(Box::new(ScanClient::new(c, stats)));
                }
            }
        }

        Cluster {
            sim,
            dir: self.dir,
            coord,
            server_stats,
            client_stats,
            util,
            metrics,
            snapshots,
            slo,
            rebalancer,
            backups_of,
            trace,
            profiler,
            audit,
            incidents,
            ycsb,
            cfg,
        }
    }
}

/// The value `made` under `key`, made the first time `key` is asked for
/// and cloned out after that.
fn shared<K: PartialEq, V: Clone>(made: &mut Vec<(K, V)>, key: K, make: impl FnOnce() -> V) -> V {
    if let Some((_, value)) = made.iter().find(|(k, _)| *k == key) {
        return value.clone();
    }
    made.push((key, make()));
    made[made.len() - 1].1.clone()
}

/// A built cluster, ready to preload and run.
pub struct Cluster {
    /// The simulation (exposed for advanced scripting, e.g. killing
    /// servers from the harness between run segments).
    pub sim: Simulation<Envelope>,
    /// Wiring.
    pub dir: Directory,
    /// Shared coordinator state (tablet map, lineage deps).
    pub coord: CoordHandle,
    /// Per-server monotonic counters.
    pub server_stats: BTreeMap<ServerId, StatsHandle>,
    /// Per-client series, in `add_*` order.
    pub client_stats: Vec<ClientStatsHandle>,
    /// Sampled utilization/migration series.
    pub util: UtilSeriesHandle,
    /// The unified metrics registry (servers, clients, SLO monitor).
    pub metrics: Registry,
    /// Per-interval full-registry snapshots (empty unless built with
    /// `metrics: true`).
    pub snapshots: SnapshotLogHandle,
    /// Latest SLO window, updated once per sampling interval.
    pub slo: SloHandle,
    /// What the autonomous rebalancer has done (all-zero unless the
    /// cluster was built with `cfg.rebalancer` set).
    pub rebalancer: RebalancerHandle,
    /// Backup ring: which servers hold each master's replicas.
    pub backups_of: BTreeMap<ServerId, Vec<ServerId>>,
    /// The shared trace buffer (disarmed unless `cfg.tracing`).
    pub trace: Tracer,
    /// The shared per-core activity ledger (disarmed unless
    /// `cfg.profiling`).
    pub profiler: Profiler,
    /// The shared protocol-audit stream (disarmed unless `cfg.audit`).
    pub audit: AuditSink,
    /// Incident bundles exported by the flight-recorder watchdog
    /// (always empty unless `cfg.flight_recorder` is armed).
    pub incidents: IncidentLogHandle,
    /// The configuration the cluster was built with.
    pub cfg: ClusterConfig,
    /// The YCSB clients' actor ids.
    pub(crate) ycsb: Vec<ActorId>,
}

impl Cluster {
    /// Typed access to a server node.
    pub fn node(&mut self, id: ServerId) -> &mut ServerNode {
        let actor = self.dir.actor_of(id);
        self.sim.actor_as::<ServerNode>(actor)
    }

    /// Creates a table from `(range, owner)` tablets: installs the map at
    /// the coordinator and registers each tablet on its master.
    pub fn create_table(&mut self, table: TableId, tablets: &[(HashRange, ServerId)]) {
        for (range, owner) in tablets {
            self.coord.borrow_mut().create_tablet(table, *range, *owner);
            self.node(*owner)
                .master
                .add_tablet(table, *range, TabletRole::Owner);
            if self.audit.is_on() {
                self.audit.emit(
                    self.now(),
                    AuditKind::TabletCreated {
                        table,
                        range: *range,
                        owner: *owner,
                    },
                );
            }
        }
    }

    /// Loads `num_keys` records of `value_len` bytes into `table`,
    /// routing each key to its owner per the coordinator map.
    pub fn load_table(&mut self, table: TableId, num_keys: u64, key_len: usize, value_len: usize) {
        let map = self.coord.borrow().tablet_map();
        let value = vec![0xcdu8; value_len];
        // Two passes. The first formats (into a reused buffer), hashes
        // and routes each key exactly once, and appends it to its owner's
        // log in rank order, so versions and log contents are what a
        // record-at-a-time loader produces; the owner files where it went
        // by hash-table partition. The second has each owner index its
        // records a partition at a time, so the load's one random access
        // per record — its bucket — lands in a cached run of the table
        // instead of missing the cache and the TLB.
        let mut batches: Vec<Option<LoadBatch>> = (0..self.cfg.servers).map(|_| None).collect();
        let mut key = Vec::with_capacity(key_len);
        for rank in 0..num_keys {
            rocksteady_workload::core::write_primary_key(rank, key_len, &mut key);
            let hash = key_hash(&key);
            let owner = map
                .iter()
                .find(|t| t.covers(table, hash))
                .map(|t| t.owner)
                .expect("load_table: key not covered by any tablet");
            let master = &mut self.node(owner).master;
            let batch =
                batches[owner.0 as usize].get_or_insert_with(|| master.load_batch(table, num_keys));
            master.load_append(batch, hash, &key, &value);
        }
        for (owner, batch) in (0..).map(ServerId).zip(batches) {
            if let Some(batch) = batch {
                self.node(owner).master.load_index(batch);
            }
        }
    }

    /// Copies every server's current log image onto its backups and
    /// marks the bytes durable, so preloaded data behaves as if it had
    /// been written through the replicated write path.
    pub fn seed_backups(&mut self) {
        let owners: Vec<ServerId> = self.backups_of.keys().copied().collect();
        for owner in owners {
            let images = self.node(owner).mark_log_durable();
            let backups = self.backups_of[&owner].clone();
            for b in backups {
                let node = self.node(b);
                for (id, data) in &images {
                    let outcome = node.backup.append(owner, *id, 0, data.clone());
                    debug_assert!(matches!(outcome, rocksteady_backup::AppendOutcome::Ok));
                }
            }
        }
    }

    /// Splits the tablet containing `at` on both the coordinator and the
    /// owning master (the metadata-only split that precedes migration,
    /// §3).
    pub fn split_tablet(&mut self, table: TableId, at: KeyHash) {
        let owner = self
            .coord
            .borrow()
            .tablet_for(table, at)
            .map(|t| t.owner)
            .expect("split: no tablet covers the split point");
        assert!(self.coord.borrow_mut().split_tablet(table, at));
        assert!(self.node(owner).master.split_tablet(table, at).is_some());
        if self.audit.is_on() {
            self.audit
                .emit(self.now(), AuditKind::TabletSplit { table, at });
        }
    }

    /// Runs until virtual time `t`.
    pub fn run_until(&mut self, t: Nanos) {
        self.sim.run_until(t);
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// When migration `id` finished on `node`, the server that ran it
    /// (a Rocksteady run's target, a baseline run's source), if it has.
    ///
    /// Keyed by migration id, not by "the" migration: a node can run
    /// several overlapping runs and each keeps its own record.
    pub fn migration_finished(&self, node: ServerId, id: MigrationId) -> Option<Nanos> {
        self.server_stats[&node]
            .migration_run(id)
            .and_then(|r| r.finished_at)
    }

    /// When migration `id` was abandoned on `node` (the peer died, a
    /// recovery plan superseded the run, or the coordinator rejected the
    /// start), if it was.
    pub fn migration_abandoned(&self, node: ServerId, id: MigrationId) -> Option<Nanos> {
        self.server_stats[&node]
            .migration_run(id)
            .and_then(|r| r.abandoned_at)
    }

    /// Runs until migration `id` finishes on `node` or `deadline`
    /// passes; returns the finish time if it completed. Returns `None`
    /// as soon as that run is abandoned rather than spinning to the
    /// deadline. Other in-flight migrations neither satisfy nor disturb
    /// the wait.
    pub fn run_until_migrated(
        &mut self,
        node: ServerId,
        id: MigrationId,
        deadline: Nanos,
    ) -> Option<Nanos> {
        let step = self.cfg.sample_interval.max(1_000_000);
        while self.now() < deadline {
            if let Some(t) = self.migration_finished(node, id) {
                return Some(t);
            }
            if self.migration_abandoned(node, id).is_some() {
                return None;
            }
            let next = (self.now() + step).min(deadline);
            self.run_until(next);
        }
        self.migration_finished(node, id)
    }

    /// Every migration run recorded anywhere in the cluster, as
    /// `(node, id, record)` sorted by id then node, where `node` ran the
    /// run — the raw material for concurrency analysis.
    pub fn migration_runs(&self) -> Vec<(ServerId, MigrationId, MigrationRunStamps)> {
        let mut out: Vec<_> = self
            .server_stats
            .iter()
            .flat_map(|(server, stats)| {
                stats
                    .migration_runs_snapshot()
                    .into_iter()
                    .map(|(id, st)| (*server, id, st))
            })
            .collect();
        out.sort_by_key(|(server, id, _)| (*id, *server));
        out
    }

    /// The largest number of migrations that were ever in flight at the
    /// same instant, computed from the per-run stamps. Runs that never
    /// ended count as open until the current virtual time.
    pub fn peak_concurrent_migrations(&self) -> usize {
        let now = self.now();
        let mut edges: Vec<(Nanos, i64)> = Vec::new();
        for (_, _, st) in self.migration_runs() {
            let end = st.finished_at.or(st.abandoned_at).unwrap_or(now);
            edges.push((st.started_at, 1));
            edges.push((end, -1));
        }
        // Close-before-open at equal times: back-to-back runs don't count
        // as concurrent.
        edges.sort_by_key(|(t, delta)| (*t, *delta));
        let mut open = 0i64;
        let mut peak = 0i64;
        for (_, delta) in edges {
            open += delta;
            peak = peak.max(open);
        }
        peak as usize
    }

    /// Toggles trace recording (no-op when the cluster was built with
    /// `tracing: false`). Lets benches record only a window of interest.
    pub fn set_tracing(&self, on: bool) {
        self.trace.set_recording(on);
    }

    /// Exports everything recorded so far as chrome://tracing JSON.
    /// Byte-identical across same-seed runs.
    pub fn export_trace_json(&self) -> String {
        self.trace.export_chrome_json()
    }

    /// Serializes the full registry (servers, clients, SLO monitor) as
    /// deterministic JSON at the current virtual time. Byte-identical
    /// across same-seed runs.
    pub fn export_metrics_json(&self) -> String {
        self.metrics.snapshot(self.now()).to_json()
    }

    /// The periodic snapshot series captured under `metrics: true`, as
    /// one JSON array (one element per sampling interval).
    pub fn export_metrics_series_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.arr();
        for s in self.snapshots.borrow().iter() {
            w.value(Raw(&s.to_json()));
        }
        w.end_arr();
        w.finish()
    }

    /// The latest SLO window (updated once per sampling interval).
    pub fn slo_report(&self) -> SloReport {
        *self.slo.borrow()
    }

    /// Finalizes the per-core activity ledger at the current virtual
    /// time (fills trailing idle so busy + idle tiles wall-clock per
    /// core) and publishes per-core `profiler_activity_ns` gauges into
    /// the metrics registry. Call once the run is over, before
    /// validating or exporting; no-op when profiling is off.
    pub fn finalize_profile(&self) {
        self.profiler.finalize(self.now());
        self.profiler.publish(&self.metrics);
    }

    /// The per-core activity ledger as Brendan-Gregg folded stacks
    /// (`server;core;activity N_ns`), ready for `flamegraph.pl`.
    /// Byte-identical across same-seed runs; empty when profiling is
    /// off. Call [`Cluster::finalize_profile`] first.
    pub fn export_folded(&self) -> String {
        self.profiler.export_folded()
    }

    /// Walks the trace buffer and ranks the components that bounded the
    /// most recent completed migration (replay service, pull RTT split
    /// into NIC serialization vs. the rest, priority pulls, control
    /// phases, dispatch queueing). `None` when tracing is off or no
    /// migration completed. Byte-identical across same-seed runs.
    pub fn critical_path_report(&self) -> Option<CriticalPathReport> {
        self.trace.with_events(critical_path)
    }

    /// Reconstructs every cross-node request journey recorded so far:
    /// one [`Journey`] per trace id, its client attempts matched to the
    /// per-server latency-decomposition instants they caused (including
    /// the off-path PriorityPull a waiting read spawned). Empty when
    /// tracing is off. Sorted by trace id; byte-stable per seed.
    pub fn journeys(&self) -> Vec<Journey> {
        self.trace.with_events(journey::reconstruct)
    }

    /// The journey of one specific operation, by trace id. `None` when
    /// tracing is off or no attempt of that operation was recorded.
    pub fn request_journey(&self, trace: rocksteady_common::TraceId) -> Option<Journey> {
        self.trace
            .with_events(|events| journey::find(events, trace.0))
    }

    /// Every reconstructed journey as the deterministic
    /// `rocksteady-journeys-v1` JSON document. Byte-identical across
    /// same-seed runs and across the scheduler swap.
    pub fn export_journeys_json(&self) -> String {
        let dropped = self.trace.dropped();
        self.trace
            .with_events(|events| journey::export_events_json(events, dropped))
    }

    /// Post-hoc companion to the live SLO monitor: the `k` slowest
    /// journeys that breached `cfg.sla`, as full causal chains whose
    /// hops carry the net/queue/service/hold decomposition. Slowest
    /// first; ties broken by trace id (a deterministic reservoir, no
    /// RNG). `None` without an SLA; empty when tracing is off.
    pub fn tail_blame_chains(&self, k: usize) -> Option<Vec<String>> {
        let sla = self.cfg.sla?;
        let journeys = self.journeys();
        let slow: Vec<Journey> = journeys.into_iter().filter(|j| j.e2e > sla).collect();
        Some(
            journey::slowest(&slow, k)
                .iter()
                .map(|j| format!("e2e={}ns attempts={} {}", j.e2e, j.attempts, j.chain()))
                .collect(),
        )
    }

    /// The auditor's verdict over everything emitted so far: event and
    /// per-invariant check/violation counts, migration outcomes, and
    /// every violation with its causal chain. Empty when the cluster
    /// was built with `audit: false`.
    pub fn audit_report(&self) -> AuditReport {
        self.audit.report()
    }

    /// The full audit stream — summary, per-invariant verdicts,
    /// per-migration accounting, ownership timelines, and violations
    /// with causal chains — as deterministic JSON (schema
    /// `rocksteady-audit-v1`). Byte-identical across same-seed runs.
    pub fn export_audit_json(&self) -> String {
        self.audit.export_json(self.now())
    }

    /// Ranks the audited causes most likely responsible for an SLO
    /// breach observed in `[from, to]` (virtual nanoseconds): crashes
    /// and migrations whose replay/pull pressure overlapped the window,
    /// each with its causal chain. `None` when auditing is off or
    /// nothing overlapped the window.
    pub fn explain_slo_breach(&self, from: Nanos, to: Nanos) -> Option<String> {
        self.audit.explain_slo_breach(from, to)
    }

    /// The causal story of one migration — origin (scripted vs
    /// rebalancer), decision → admission → pulls/replay → outcome —
    /// as deterministic JSON. `None` when auditing is off or the id
    /// was never seen.
    pub fn explain_migration(&self, id: MigrationId) -> Option<String> {
        self.audit.explain_migration(id)
    }

    /// Number of incident bundles the flight-recorder watchdog has
    /// exported (always 0 unless `cfg.flight_recorder` is armed).
    pub fn incident_count(&self) -> usize {
        self.incidents.borrow().len()
    }

    /// A snapshot of the exported incidents (time, trigger, bundle).
    pub fn incident_log(&self) -> Vec<Incident> {
        self.incidents.borrow().clone()
    }

    /// Every exported incident bundle as one JSON array (schema
    /// `rocksteady-incident-v1` per element; `[]` when nothing fired).
    /// Byte-identical across same-seed runs.
    pub fn export_incidents_json(&self) -> String {
        incidents_to_json(&self.incidents.borrow())
    }

    /// Reads a key directly from whichever master currently owns it
    /// (bypassing the simulated network) — verification helper for
    /// integration tests.
    pub fn read_direct(&mut self, table: TableId, key: &[u8]) -> Option<(Vec<u8>, u64)> {
        let hash = key_hash(key);
        let owner = self.coord.borrow().tablet_for(table, hash)?.owner;
        let node = self.node(owner);
        let mut work = rocksteady_master::Work::default();
        node.master
            .read(table, hash, Some(key), &mut work)
            .ok()
            .map(|(v, version)| (v.to_vec(), version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControlCmd;
    use crate::scenarios::{preload_split, preload_tablets, read_back, upper, TABLE as T};
    use rocksteady_common::zipf::KeyDist;
    use rocksteady_common::MILLISECOND;
    use rocksteady_workload::core::primary_key;

    fn small_cfg() -> ClusterConfig {
        ClusterConfig {
            servers: 3,
            workers: 4,
            replicas: 2,
            sample_interval: MILLISECOND,
            series_interval: 10 * MILLISECOND,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn reads_and_writes_flow_through_the_cluster() {
        let cfg = small_cfg();
        let mut b = ClusterBuilder::new(cfg);
        let dir = b.directory();
        let mut ycsb = YcsbConfig::ycsb_b(dir, T, 1_000, 20_000.0);
        ycsb.dist = KeyDist::Uniform;
        b.add_ycsb(ycsb);
        let mut cluster = b.build();
        preload_tablets(&mut cluster, &[ServerId(0)], 1_000, 100);
        cluster.run_until(50 * MILLISECOND);

        let stats = cluster.client_stats[0].borrow();
        let reads = stats.read_latency.merged();
        let writes = stats.write_latency.merged();
        assert!(
            reads.count() > 300,
            "only {} reads completed",
            reads.count()
        );
        assert!(
            writes.count() > 5,
            "only {} writes completed",
            writes.count()
        );
        assert_eq!(stats.not_found.get(), 0);
        // Calibration anchors (§2): ~6 us reads, ~15 us durable writes.
        let p50r = reads.percentile(0.5);
        let p50w = writes.percentile(0.5);
        assert!((4_000..10_000).contains(&p50r), "median read {p50r} ns");
        assert!((10_000..25_000).contains(&p50w), "median write {p50w} ns");
    }

    #[test]
    fn rocksteady_migration_moves_half_the_table() {
        let mut b = ClusterBuilder::new(small_cfg());
        b.at(
            5 * MILLISECOND,
            ControlCmd::migrate(MigrationId(1), T, upper(), ServerId(0), ServerId(1)),
        );
        let mut cluster = b.build();
        preload_split(&mut cluster, 3_000, 100);

        let done =
            cluster.run_until_migrated(ServerId(1), MigrationId(1), 5 * rocksteady_common::SECOND);
        assert!(done.is_some(), "migration never finished");

        // Ownership moved and the lineage dependency was dropped.
        assert_eq!(
            cluster
                .coord
                .borrow()
                .tablet_for(T, u64::MAX)
                .unwrap()
                .owner,
            ServerId(1)
        );
        assert!(cluster.coord.borrow().lineage_deps().is_empty());

        // Every record is still readable through its current owner with
        // intact bytes.
        let mut upper_count = 0;
        for rank in 0..3_000u64 {
            let key = primary_key(rank, 30);
            let (value, _) = cluster
                .read_direct(T, &key)
                .unwrap_or_else(|| panic!("rank {rank} lost"));
            assert_eq!(value, vec![0xcdu8; 100]);
            if upper().contains(key_hash(&key)) {
                upper_count += 1;
            }
        }
        assert!(upper_count > 1_000, "split was not roughly half");
        // The data really moved through pulls.
        let tgt = cluster.server_stats[&ServerId(1)].view();
        assert!(
            tgt.records_replayed >= upper_count,
            "replayed {} < upper {}",
            tgt.records_replayed,
            upper_count
        );
        assert!(tgt.bytes_migrated_in > 100_000);
    }

    #[test]
    fn baseline_migration_moves_half_the_table() {
        let mut b = ClusterBuilder::new(small_cfg());
        b.at(
            5 * MILLISECOND,
            ControlCmd::MigrateBaseline {
                id: MigrationId(1),
                table: T,
                range: upper(),
                source: ServerId(0),
                target: ServerId(1),
                until: Default::default(),
            },
        );
        let mut cluster = b.build();
        preload_split(&mut cluster, 2_000, 100);
        // The baseline target must own the range when records arrive:
        // PushRecords replays into the target master directly; ownership
        // in the *map* moves only at the end (§2.3). Pre-register the
        // receiving tablet as RAMCloud's migration does.
        cluster
            .node(ServerId(1))
            .master
            .add_tablet(T, upper(), TabletRole::Owner);

        for step in 1..=400u64 {
            cluster.run_until(step * 10 * MILLISECOND);
            if cluster
                .coord
                .borrow()
                .tablet_for(T, u64::MAX)
                .map(|t| t.owner)
                == Some(ServerId(1))
            {
                break;
            }
        }
        assert_eq!(
            cluster
                .coord
                .borrow()
                .tablet_for(T, u64::MAX)
                .unwrap()
                .owner,
            ServerId(1),
            "baseline never transferred ownership"
        );
        read_back(&mut cluster, 2_000);
    }

    /// The observer is the only actor on the sampling cadence and arms one
    /// timer per tick whatever is armed, so an idle cluster (no clients,
    /// no script, no cleaner) processes exactly one event per interval.
    #[test]
    fn an_idle_cluster_processes_one_event_per_sampling_tick() {
        let events = |armed: bool| {
            let cfg = ClusterConfig {
                sample_interval: 10 * MILLISECOND,
                tracing: armed,
                metrics: armed,
                sla: armed.then_some(250_000),
                flight_recorder: armed.then(FlightRecorderConfig::default),
                ..small_cfg()
            };
            let mut cluster = ClusterBuilder::new(cfg).build();
            cluster.run_until(100 * MILLISECOND);
            cluster.sim.events_processed()
        };
        assert_eq!(events(true), 10);
        assert_eq!(events(false), 10);
    }

    #[test]
    #[should_panic(
        expected = "rebalancer interval 1500000 ns is not a multiple of sample_interval 1000000 ns"
    )]
    fn a_rebalancer_off_the_sampling_cadence_is_rejected() {
        let rebalancer = RebalancerConfig {
            interval: 1_500_000,
            ..RebalancerConfig::default()
        };
        let cfg = ClusterConfig {
            rebalancer: Some(rebalancer),
            ..small_cfg()
        };
        ClusterBuilder::new(cfg).build();
    }

    #[test]
    fn deterministic_replay_same_seed() {
        let run = |seed| {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            let mut b = ClusterBuilder::new(cfg);
            let dir = b.directory();
            b.add_ycsb(YcsbConfig::ycsb_b(dir, T, 500, 50_000.0));
            let mut cluster = b.build();
            preload_tablets(&mut cluster, &[ServerId(0)], 500, 100);
            cluster.run_until(20 * MILLISECOND);
            let reads = cluster.client_stats[0]
                .borrow()
                .read_latency
                .merged()
                .count();
            (cluster.sim.events_processed(), reads)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "seed should perturb the trace");
    }
}
