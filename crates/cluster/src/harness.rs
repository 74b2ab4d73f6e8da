//! Cluster construction and experiment driving.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use rocksteady::MigrationConfig;
use rocksteady_audit::{AuditKind, AuditReport, AuditSink};
use rocksteady_common::json::{JsonWriter, Raw};
use rocksteady_common::zipf::KeySampler;
use rocksteady_common::{
    key_hash, CostModel, HashRange, KeyHash, MigrationId, Nanos, ServerId, TableId, SECOND,
};
use rocksteady_coordinator::Coordinator;
use rocksteady_logstore::LogConfig;
use rocksteady_master::{MasterConfig, TabletRole};
use rocksteady_metrics::Registry;
use rocksteady_profiler::{critical_path, CriticalPathReport, Profiler};
use rocksteady_proto::Envelope;
use rocksteady_server::stats::{registered_stats, StatsHandle};
use rocksteady_server::{Fault, MigrationRunStamps, ServerConfig, ServerNode};
use rocksteady_simnet::{Directory, NicConfig, SchedulerKind, Simulation};
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
use crate::rebalancer::{RebalancerActor, RebalancerConfig, RebalancerHandle, RebalancerReport};
use crate::sampler::{SamplerActor, SnapshotLogHandle, UtilSeries, UtilSeriesHandle};
use crate::slo::{SloHandle, SloMonitor, SloReport};
use crate::watchdog::{IncidentLogHandle, WatchdogActor, WatchdogWiring};

/// Keys [`Cluster::load_table`] formats, hashes, routes and prefetches
/// before it inserts them: more bucket misses than a core keeps in
/// flight, few enough that the first is still cached when its insert
/// comes. Measured on `bulk_migrate`'s `setup_s` beside 4, 8, 32 and 64
/// (EXPERIMENTS.md, "Host-time attribution"): a plateau — a constant,
/// not a tuning knob.
const LOAD_BLOCK: usize = 16;

/// Topology + hardware parameters for one simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of servers.
    pub servers: usize,
    /// Worker cores per server (the paper's rig uses 12).
    pub workers: usize,
    /// Calibrated cost model.
    pub cost: CostModel,
    /// Network parameters.
    pub nic: NicConfig,
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
    /// per sampling interval, exportable as JSON/Prometheus series).
    /// Instruments always record and on-demand exports always work; this
    /// only gates the per-interval buffer, and the sampler's cadence is
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
    /// `MigrateTablet` RPCs (see [`crate::rebalancer`]). `None` (the
    /// default) installs no actor at all, so a disarmed cluster's event
    /// schedule — and `events_processed()` — is byte-identical to a
    /// build predating the rebalancer.
    pub rebalancer: Option<RebalancerConfig>,
    /// Arm the cluster-wide protocol auditor (`rocksteady-audit`): the
    /// coordinator, every server, the rebalancer, and YCSB clients emit
    /// ownership/lineage/migration/version-floor events into one shared
    /// stream, checked online against the Rocksteady invariants and
    /// exportable as a causal "explain" report. Off by default; armed,
    /// every emission is pure state mutation (no timers, no clock
    /// perturbation), so `events_processed()` and all existing exports
    /// stay byte-identical.
    pub audit: bool,
    /// Arm the always-on flight recorder (`rocksteady-flightrec`): ring
    /// capacities for the trace/audit buffers, a watchdog detector
    /// catalog evaluated every sampling interval, and triggered
    /// incident-bundle export (see [`crate::watchdog`]). The watchdog
    /// actor itself is *always* installed on the sampling cadence —
    /// like the sampler and SLO monitor — so arming only swaps pure
    /// state mutation into its ticks: `events_processed()` is
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
            nic: NicConfig::default(),
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
    faults: Vec<(ServerId, Fault)>,
}

impl ClusterBuilder {
    /// Starts building; actor ids are assigned deterministically
    /// (coordinator, then servers, control, sampler, then clients), so
    /// the [`Directory`] is available immediately for client configs.
    pub fn new(cfg: ClusterConfig) -> Self {
        let mut dir = Directory {
            coordinator: 0,
            servers: HashMap::new(),
        };
        for i in 0..cfg.servers {
            dir.servers.insert(ServerId(i as u32), 1 + i);
        }
        ClusterBuilder {
            cfg,
            dir,
            clients: Vec::new(),
            script: Vec::new(),
            faults: Vec::new(),
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

    /// Makes `server` exhibit `fault` (at most one per server; the last
    /// call wins). For tests that prove a detector or invariant fires.
    pub fn fault(&mut self, server: ServerId, fault: Fault) -> &mut Self {
        self.faults.push((server, fault));
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Cluster {
        let cfg = self.cfg;
        let mut sim = Simulation::with_scheduler(cfg.nic, cfg.seed, cfg.scheduler);
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
        let mut server_stats = HashMap::new();
        let mut backups_of = HashMap::new();
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
            let mut node = ServerNode::new(
                server_cfg,
                self.dir.clone(),
                stats,
                trace.clone(),
                profiler.clone(),
                audit.clone(),
            );
            for (_, fault) in self.faults.iter().filter(|(server, _)| *server == id) {
                node.inject_fault(*fault);
            }
            let actor = sim.add_actor(Box::new(node));
            debug_assert_eq!(actor, 1 + i);
        }

        // Control + sampler + SLO monitor. The latter two are always
        // installed on fixed cadences: config flags change what they
        // record, never the event schedule.
        sim.add_actor(Box::new(ControlActor::new(self.dir.clone(), self.script)));
        sim.add_actor(Box::new(SamplerActor::new(
            cfg.sample_interval,
            metrics.clone(),
            cfg.metrics,
            Rc::clone(&util),
            Rc::clone(&snapshots),
        )));
        sim.add_actor(Box::new(SloMonitor::new(
            cfg.sample_interval,
            metrics.clone(),
            cfg.sla,
            Rc::clone(&slo),
        )));

        // Flight-recorder watchdog: always installed on the sampling
        // cadence so arming cannot shift the event schedule; the armed
        // core only adds pure state mutation per tick.
        let incidents: IncidentLogHandle = Rc::new(RefCell::new(Vec::new()));
        let watchdog = match cfg.flight_recorder.clone() {
            Some(fr) => WatchdogActor::armed(
                cfg.sample_interval,
                fr,
                WatchdogWiring {
                    slo: Rc::clone(&slo),
                    server_stats: server_stats
                        .iter()
                        .map(|(id, h)| (*id, Rc::clone(h)))
                        .collect(),
                    coord: Rc::clone(&coord),
                    registry: metrics.clone(),
                    trace: trace.clone(),
                    profiler: profiler.clone(),
                    audit: audit.clone(),
                    incidents: Rc::clone(&incidents),
                },
            ),
            None => WatchdogActor::disarmed(cfg.sample_interval),
        };
        sim.add_actor(Box::new(watchdog));

        // Autonomous rebalancer, only when armed: installing an actor —
        // even an idle one — would shift actor ids and the event
        // schedule, and the disarmed harness must stay byte-identical
        // to the no-rebalancer baseline.
        let rebalancer: RebalancerHandle = Rc::new(RefCell::new(RebalancerReport::default()));
        if let Some(rb) = cfg.rebalancer.clone() {
            let stats_list = server_stats
                .iter()
                .map(|(id, h)| (*id, Rc::clone(h)))
                .collect();
            sim.add_actor(Box::new(RebalancerActor::new(
                rb,
                Rc::clone(&coord),
                self.dir.clone(),
                stats_list,
                Rc::clone(&slo),
                Rc::clone(&rebalancer),
                audit.clone(),
            )));
        }

        // Clients. Each client's seed is folded together with the
        // cluster seed and its index, so changing the cluster seed
        // perturbs every random stream while same-seed runs stay
        // bit-identical.
        let mut client_stats_handles = Vec::new();
        // One key sampler and one rank-by-region table per distinct key
        // space, cloned into its clients.
        let mut samplers = Vec::new();
        let mut region_ranks = Vec::new();
        for (idx, spec) in self.clients.into_iter().enumerate() {
            let stats = registered_client_stats(&metrics, idx, cfg.series_interval);
            client_stats_handles.push(Rc::clone(&stats));
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
                    sim.add_actor(Box::new(
                        YcsbClient::with_sampler(c, stats, sampler, ranks)
                            .with_trace(trace.clone())
                            .with_audit(audit.clone()),
                    ));
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
            client_stats: client_stats_handles,
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
    pub server_stats: HashMap<ServerId, StatsHandle>,
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
    pub backups_of: HashMap<ServerId, Vec<ServerId>>,
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
    /// routing each key to its owner per the coordinator map. Returns
    /// per-server key-rank lists (useful for the spread workload).
    pub fn load_table(
        &mut self,
        table: TableId,
        num_keys: u64,
        key_len: usize,
        value_len: usize,
    ) -> HashMap<ServerId, Vec<u64>> {
        let map = self.coord.borrow().tablet_map();
        let value = vec![0xcdu8; value_len];
        let mut by_owner: HashMap<ServerId, Vec<u64>> = HashMap::new();
        // Single pass in blocks: each key is formatted (into a reused
        // buffer), hashed and routed exactly once, and its hash-table
        // bucket — a random line of its owner's table, the load's one
        // unavoidable miss per record — is asked for; only then is the
        // block inserted, so a block's bucket misses overlap instead of
        // each insert waiting out its own. Every master still receives
        // its records in rank order, so versions and log contents are
        // what a record-at-a-time loader produces.
        let mut block: [(Vec<u8>, KeyHash, ServerId); LOAD_BLOCK] =
            std::array::from_fn(|_| (Vec::with_capacity(key_len), 0, ServerId(0)));
        for first in (0..num_keys).step_by(LOAD_BLOCK) {
            let block = &mut block[..LOAD_BLOCK.min((num_keys - first) as usize)];
            for (rank, (key, hash, owner)) in (first..).zip(block.iter_mut()) {
                rocksteady_workload::core::write_primary_key(rank, key_len, key);
                *hash = key_hash(key);
                *owner = map
                    .iter()
                    .find(|t| t.covers(table, *hash))
                    .map(|t| t.owner)
                    .expect("load_table: key not covered by any tablet");
                by_owner.entry(*owner).or_default().push(rank);
                self.node(*owner).master.hashtable.prefetch(*hash);
            }
            for (key, hash, owner) in block.iter() {
                self.node(*owner)
                    .master
                    .load_object_hashed(table, *hash, key, &value);
            }
        }
        by_owner
    }

    /// Copies every server's current log image onto its backups and
    /// marks the bytes durable, so preloaded data behaves as if it had
    /// been written through the replicated write path.
    pub fn seed_backups(&mut self) {
        let owners: Vec<ServerId> = self.backups_of.keys().copied().collect();
        for owner in owners {
            let images: Vec<(u64, Bytes)> = {
                let node = self.node(owner);
                let images = node
                    .master
                    .log
                    .segments_snapshot()
                    .iter()
                    .filter(|s| s.committed() > 0)
                    .map(|s| (s.id(), s.committed_as_bytes()))
                    .collect();
                node.mark_log_durable();
                images
            };
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

    /// When migration `id` on `target` completed, if it has.
    ///
    /// Keyed by migration id, not by "the" migration: a target can host
    /// several overlapping runs and each keeps its own stamps.
    pub fn migration_finished(&self, target: ServerId, id: MigrationId) -> Option<Nanos> {
        self.server_stats[&target]
            .migration_run(id)
            .and_then(|r| r.finished_at)
    }

    /// When migration `id` on `target` was abandoned (source died, a
    /// recovery plan superseded the run, or the coordinator rejected the
    /// start), if it was.
    pub fn migration_abandoned(&self, target: ServerId, id: MigrationId) -> Option<Nanos> {
        self.server_stats[&target]
            .migration_run(id)
            .and_then(|r| r.abandoned_at)
    }

    /// Runs until migration `id` targeting `target` finishes or
    /// `deadline` passes; returns the finish time if it completed.
    /// Returns `None` as soon as that run is abandoned rather than
    /// spinning to the deadline. Other in-flight migrations neither
    /// satisfy nor disturb the wait.
    pub fn run_until_migrated(
        &mut self,
        target: ServerId,
        id: MigrationId,
        deadline: Nanos,
    ) -> Option<Nanos> {
        let step = self.cfg.sample_interval.max(1_000_000);
        while self.now() < deadline {
            if let Some(t) = self.migration_finished(target, id) {
                return Some(t);
            }
            if self.migration_abandoned(target, id).is_some() {
                return None;
            }
            let next = (self.now() + step).min(deadline);
            self.run_until(next);
        }
        self.migration_finished(target, id)
    }

    /// Every migration run recorded anywhere in the cluster, as
    /// `(target, id, stamps)` sorted by id then target — the raw
    /// material for concurrency analysis.
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

    /// Serializes the full registry in Prometheus text exposition
    /// format at the current virtual time.
    pub fn export_metrics_prometheus(&self) -> String {
        self.metrics.snapshot(self.now()).to_prometheus()
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

    /// The ownership-transfer graph (which tablets moved between which
    /// servers, and how) as Graphviz DOT. Byte-identical across
    /// same-seed runs.
    pub fn export_audit_dot(&self) -> String {
        self.audit.export_dot()
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
    use crate::scenarios::{preload_split, preload_tablets, upper, TABLE as T};
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
                table: T,
                range: upper(),
                source: ServerId(0),
                target: ServerId(1),
                opts: Default::default(),
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
        for rank in 0..2_000u64 {
            let key = primary_key(rank, 30);
            assert!(cluster.read_direct(T, &key).is_some(), "rank {rank} lost");
        }
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
