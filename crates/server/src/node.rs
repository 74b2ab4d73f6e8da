//! The server actor: the simulator shell around the protocol cores.
//!
//! The shell owns the [`Ctx`]. The cores — the crate's private `sched`,
//! `rpc`, `repl` and `recovery` modules and the migration managers in
//! the `rocksteady` crate — are pure state machines that *return* what
//! to send and what to charge; the shell performs those effects, in the
//! order returned, and reports each protocol event once to `telemetry`. What is left here is
//! routing: requests to handlers, responses to the state they complete,
//! manager actions to messages.

use std::sync::Arc;

use bytes::Bytes;
use rocksteady::{
    Action, BaselineAction, BaselineMigration, MigrationManager, MissAnswer, ReplayBatch,
    RetryCause, PULL_BUDGET_BYTES,
};
use rocksteady_audit::AuditSink;
use rocksteady_backup::BackupService;
use rocksteady_common::{
    CausalCtx, CostModel, FxHashMap, KeyHash, MigrationId, Nanos, RpcId, ServerId, TableId,
};
use rocksteady_logstore::SideLog;
use rocksteady_master::{MasterService, OpError, ReplayDest, TabletRole, Work};
use rocksteady_profiler::Profiler;
use rocksteady_proto::msg::BaselineStage;
use rocksteady_proto::{Body, Calls, Envelope, Priority, Record, Request, Response, Status};
use rocksteady_simnet::{Actor, ActorId, Ctx, Event};
use rocksteady_trace::Tracer;

use crate::recovery::{RecoveryRun, Step};
use crate::repl::{Durable, Out, ReplManager, Scope, Then};
use crate::rpc::{Pending, SyncWait};
use crate::sched::{Deferred, Inbound, Placement, Quantum, ReplyTo, Sched, Task};
use crate::stats::StatsHandle;
use crate::telemetry::{AbandonReason, NodeTelemetry, RpcSpan};
use crate::{Directory, ServerConfig};

// Timer token kinds (low 8 bits).
const KIND_DISPATCH: u64 = 1;
const KIND_WORKER_DONE: u64 = 2;
const KIND_PARKED_SEND: u64 = 3;
const KIND_CLEANER: u64 = 4;

fn token(kind: u64, payload: u64) -> u64 {
    (payload << 8) | kind
}

/// One migration this node is the target of.
struct MigrationRun {
    /// Cluster-wide id of this run; keys every piece of per-run state.
    id: MigrationId,
    mgr: MigrationManager,
    source_actor: ActorId,
    client: Option<(ActorId, RpcId)>,
    /// Per-worker side logs for this run's replays (§3.1.3). Per run so
    /// overlapping migrations never mix side segments: each run commits
    /// (or abandons) exactly its own.
    sidelogs: Vec<Option<SideLog>>,
    /// Causal context of the waiting read that asked for each hash, so
    /// the batched PriorityPull that eventually covers it inherits the
    /// read's trace id (first hash in batch order wins as the batch's
    /// representative — deterministic, no clock, no RNG).
    pp_ctx: FxHashMap<KeyHash, CausalCtx>,
}

struct BaselineRun {
    id: MigrationId,
    mig: BaselineMigration,
}

/// One simulated RAMCloud server (master + backup + dispatch/workers).
pub struct ServerNode {
    /// Static configuration.
    pub cfg: ServerConfig,
    dir: Directory,
    /// The master component (public for harness preloading).
    pub master: MasterService,
    /// The backup component.
    pub backup: BackupService,
    stats: StatsHandle,
    tel: NodeTelemetry,

    sched: Sched,
    /// Each call out, and when it left if a span was opened for it.
    rpcs: Calls<ActorId, (Pending, Option<Nanos>)>,
    repl: ReplManager,

    /// Every in-flight run this node is the target of, in admission
    /// order. Disjoint ranges only (overlap is rejected at admission); a
    /// node may simultaneously serve as pull *source* for other
    /// migrations, which needs no state here (pull service is stateless
    /// on the source).
    migrations: Vec<MigrationRun>,
    baseline: Option<BaselineRun>,
    /// In-flight crash recoveries, keyed by the coordinator's RPC id
    /// (several tablets may recover onto this master concurrently).
    recoveries: FxHashMap<u64, RecoveryRun>,
}

impl ServerNode {
    /// Creates a server; `dir` provides actor wiring, `stats` is shared
    /// with the harness, `trace` with the trace exporter, `profiler`
    /// with the activity-ledger exporter, and `audit` with the protocol
    /// auditor (pass [`Tracer::off`] / [`Profiler::off`] /
    /// [`AuditSink::off`] to compile those paths down to one branch).
    pub fn new(
        cfg: ServerConfig,
        dir: Directory,
        stats: StatsHandle,
        trace: Tracer,
        profiler: Profiler,
        audit: AuditSink,
    ) -> Self {
        let pid = dir.actor_of(cfg.id);
        ServerNode {
            master: MasterService::new(cfg.master.clone()),
            backup: BackupService::new(cfg.id),
            tel: NodeTelemetry::new(cfg.id, pid, cfg.workers, trace, profiler, audit),
            sched: Sched::new(cfg.workers, cfg.migration.priority_pulls),
            rpcs: Calls::default(),
            repl: ReplManager::default(),
            migrations: Vec::new(),
            baseline: None,
            recoveries: FxHashMap::default(),
            dir,
            stats,
            cfg,
        }
    }

    /// Marks everything currently in the log as already replicated and
    /// returns each non-empty segment's image, `(id, bytes)`, for the
    /// caller to copy onto the backups. Harness-only: preloaded data
    /// reaches the backups this way, so the replication manager doesn't
    /// re-ship it.
    pub fn mark_log_durable(&mut self) -> Vec<(u64, Bytes)> {
        self.repl.mark_durable(&self.master.log)
    }

    // ------------------------------------------------------------ sends --

    fn send(&mut self, ctx: &mut Ctx<'_, Envelope>, dst: ActorId, env: Envelope) {
        self.sched.charge_tx(self.cfg.cost.dispatch_tx_per_msg_ns);
        ctx.send(dst, env);
    }

    /// Issues `req` to `dst`; `pending` says what its response will mean.
    fn call(&mut self, ctx: &mut Ctx<'_, Envelope>, dst: ActorId, pending: Pending, req: Request) {
        let rpc = self.rpcs.open(dst, (pending, None), None, ctx.now());
        self.send(ctx, dst, Envelope::req(rpc, req));
    }

    /// Answers `(dst, rpc)` now, echoing the request's causal context.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        dst: ActorId,
        rpc: RpcId,
        resp: Response,
        cctx: CausalCtx,
    ) {
        self.tel.response_sent(ctx.now(), dst, rpc);
        self.send(ctx, dst, Envelope::resp(rpc, resp).with_ctx(cctx));
    }

    /// The one place retry hints are computed. Base comes from
    /// [`RetryCause::retry_base`]; jitter is uniform in
    /// `[0, base/2)` so the hint lands in `[base, 1.5·base)`.
    fn retry_hint(&mut self, ctx: &mut Ctx<'_, Envelope>, cause: RetryCause) -> Response {
        let base = cause.retry_base();
        let after = base + ctx.rng.next_below((base / 2).max(1));
        let sent = self.stats.retry_hints_sent.inc();
        self.tel.retry_hint_sent(ctx.now(), sent);
        Response::Err(Status::Retry { after })
    }

    /// The answer to a data operation the master refused.
    fn refusal(&mut self, ctx: &mut Ctx<'_, Envelope>, err: OpError) -> Response {
        match err {
            OpError::UnknownTablet => Response::Err(Status::UnknownTablet),
            OpError::Recovering => self.retry_hint(ctx, RetryCause::Recovering),
            _ => Response::Err(Status::NotFound),
        }
    }

    // ------------------------------------------------- dispatch machinery --

    fn ensure_dispatch(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if let Some(delay) = self.sched.poll_due(ctx.now()) {
            ctx.timer(delay, token(KIND_DISPATCH, 0));
        }
    }

    /// Publishes a closed dispatch quantum: one stats-counter add and
    /// one ledger charge for the whole back-to-back poll run.
    fn close_quantum(&mut self, quantum: Option<Quantum>) {
        if let Some(q) = quantum {
            self.stats.dispatch_busy_ns.add(q.busy);
            self.tel.dispatch_quantum(&q);
        }
    }

    fn on_dispatch_timer(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let (msg, closed) = self
            .sched
            .begin_poll(ctx.now(), self.cfg.cost.dispatch_per_msg_ns);
        self.close_quantum(closed);
        let Some(msg) = msg else {
            return;
        };
        let span = RpcSpan::arriving(&msg);
        let Inbound { src, env, .. } = msg;
        match env.body {
            Body::Req(req) => self.on_request(ctx, src, env.rpc, req, span),
            Body::Resp(resp) => self.on_response(ctx, env.rpc, resp, span.nic_in),
        }
        self.try_assign(ctx);
        let closed = self.sched.end_poll(ctx.now());
        self.close_quantum(closed);
        self.ensure_dispatch(ctx);
    }

    /// Ledgers dispatch-core cost accrued outside a dispatch poll.
    fn flush_offpoll_charges(&mut self, now: Nanos) {
        // These land at `now`, which may sit past an open quantum's
        // start — close the quantum first so the ledger sees both in
        // time order.
        let open = self.sched.flush();
        self.close_quantum(open);
        let (tx, mgr) = self.sched.take_offpoll_charge();
        self.tel.offpoll_charge(now, tx, mgr);
    }

    // ---------------------------------------------------- request intake --

    fn on_request(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        src: ActorId,
        rpc: RpcId,
        req: Request,
        span: RpcSpan,
    ) {
        let now = ctx.now();
        match req {
            // Control-plane requests are cheap and handled right on the
            // dispatch core.
            Request::PrepareMigration {
                table,
                range,
                target,
            } => {
                let ceiling =
                    rocksteady::source::handle_prepare(&mut self.master, table, range, target);
                if ceiling.is_some() {
                    self.tel.prepare_flipped(now, table, range);
                }
                let resp = match ceiling {
                    Some(version_ceiling) => Response::PrepareMigrationOk { version_ceiling },
                    None => Response::Err(Status::UnknownTablet),
                };
                self.respond(ctx, src, rpc, resp, CausalCtx::NONE);
            }
            Request::MigrateTablet {
                id,
                table,
                range,
                source,
            } => {
                // Admission: reject a run that would overlap an
                // in-flight migration's range on this target (or reuse
                // its id). Disjoint concurrent runs are accepted — a node
                // may be the replay target of several migrations at once.
                if self
                    .migrations
                    .iter()
                    .any(|r| r.id == id || (r.mgr.table == table && r.mgr.range.overlaps(&range)))
                {
                    let resp = Response::Err(Status::MigrationInProgress);
                    self.respond(ctx, src, rpc, resp, CausalCtx::NONE);
                    return;
                }
                // Ownership (locally) from the very start: reads miss into
                // the PriorityPull path, writes are accepted (§3).
                self.master
                    .add_tablet(table, range, TabletRole::PullingFrom { source });
                let lineage = self.master.log.head_segment_id();
                let migration = self.cfg.migration.clone();
                let mut mgr = MigrationManager::new(table, range, source, lineage, migration);
                let first = mgr.begin();
                self.stats.begin_migration_run(id, now);
                self.tel.migration_admitted(now, id, table, range, source);
                self.migrations.push(MigrationRun {
                    id,
                    mgr,
                    source_actor: self.dir.actor_of(source),
                    client: Some((src, rpc)),
                    sidelogs: (0..self.cfg.workers).map(|_| None).collect(),
                    pp_ctx: FxHashMap::default(),
                });
                self.run_migration_actions(ctx, id, vec![first]);
            }
            Request::MigrateTabletBaseline {
                id,
                table,
                range,
                target,
                until,
            } => {
                let budget = PULL_BUDGET_BYTES as u64;
                let Some(mig) =
                    BaselineMigration::new(&mut self.master, table, range, target, until, budget)
                else {
                    let resp = Response::Err(Status::UnknownTablet);
                    self.respond(ctx, src, rpc, resp, CausalCtx::NONE);
                    return;
                };
                self.stats.begin_migration_run(id, now);
                self.baseline = Some(BaselineRun { id, mig });
                self.sched.enqueue(Priority::Background, Task::BaselineStep);
                self.respond(ctx, src, rpc, Response::MigrateTabletOk, CausalCtx::NONE);
            }
            Request::RecoverTablet {
                table,
                range,
                crashed,
                backups,
                from_segment,
                merge,
            } => {
                // Block client traffic on the range until the replicated
                // log has been merged: accepting a write before the
                // replay would let it carry a version below what the
                // dead participant already acknowledged (§3.4).
                let recovering = TabletRole::Recovering;
                if merge && self.master.set_tablet_role(table, range, recovering) {
                    // We were serving this range (e.g. as a migration
                    // target); replay now blocks it.
                    self.tel.recovery_blocked(now, table, range);
                } else {
                    self.master.add_tablet(table, range, recovering);
                }
                // A migration we were running for this range is moot:
                // the coordinator's recovery plan supersedes it.
                // Overlapping runs are impossible (admission), so at
                // most one matches; other in-flight runs continue.
                let moot = self
                    .migrations
                    .iter()
                    .find(|run| merge && run.mgr.table == table && run.mgr.range == range)
                    .map(|run| run.id);
                if let Some(mig) = moot {
                    self.abandon_migration(ctx, mig, AbandonReason::Superseded);
                }
                let recovery = rpc.0;
                for backup in &backups {
                    let req = Request::FetchSegments {
                        owner: crashed,
                        min_segment: from_segment,
                    };
                    let dst = self.dir.actor_of(*backup);
                    self.call(ctx, dst, Pending::FetchSegments { recovery }, req);
                }
                let workers = self.cfg.workers;
                let run = RecoveryRun::new(table, range, (src, rpc), backups.len(), workers);
                self.recoveries.insert(recovery, run);
                self.recover(ctx, recovery, RecoveryRun::next);
            }
            Request::NotifyServerDown { server } => {
                self.on_server_down(ctx, server);
                self.respond(ctx, src, rpc, Response::Ok, CausalCtx::NONE);
            }
            // Everything else runs on a worker.
            other => {
                let priority = other.priority();
                self.tel.rpc_queued(src, rpc, other.name(), span);
                let to = ReplyTo {
                    src,
                    rpc,
                    cctx: span.cctx,
                };
                self.sched.enqueue(priority, Task::Rpc { to, req: other });
            }
        }
    }

    // ------------------------------------------------- response handling --

    fn on_response(&mut self, ctx: &mut Ctx<'_, Envelope>, rpc: RpcId, resp: Response, nic: Nanos) {
        let Some((pending, span_start)) = self.rpcs.complete(rpc) else {
            return; // late/duplicate response
        };
        let now = ctx.now();
        match (pending, resp) {
            (Pending::Prepare { mig }, Response::PrepareMigrationOk { version_ceiling }) => {
                self.master.raise_version_floor(version_ceiling);
                self.tel.version_floor(now, self.master.version_ceiling());
                if let Some(run) = self.run_mut(mig) {
                    let action = run.mgr.on_prepared();
                    let ended = run.mgr.phase().name();
                    self.tel.phase_done(now, mig, ended);
                    self.run_migration_actions(ctx, mig, vec![action]);
                }
            }
            (Pending::MigStartAck { mig }, Response::Ok) => {
                if let Some(run) = self.run_mut(mig) {
                    run.mgr.on_registered();
                    let ended = run.mgr.phase().name();
                    if let Some((client, client_rpc)) = run.client.take() {
                        let resp = Response::MigrateTabletOk;
                        self.respond(ctx, client, client_rpc, resp, CausalCtx::NONE);
                    }
                    self.tel.phase_done(now, mig, ended);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::MigCompleteAck, _) => {}
            (Pending::Pull { mig, partition }, Response::PullOk { records, next }) => {
                let (n, wire) = self.count_gathered(&records);
                self.tel
                    .pull_returned(now, span_start, mig, partition, n, wire, nic);
                self.stats.migration_gathered(mig, n);
                if let Some(run) = self.run_mut(mig) {
                    run.mgr.on_pull_response(partition, records, next);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::PriorityPull { mig, hashes }, Response::PriorityPullOk { records }) => {
                let (n, _) = self.count_gathered(&records);
                let batch = hashes.len() as u64;
                self.tel
                    .priority_pull_returned(now, span_start, mig, batch, n, nic);
                self.stats.migration_gathered(mig, n);
                if let Some(run) = self.run_mut(mig) {
                    run.mgr.on_priority_pull_response(records);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::SyncPriorityPull(wait), Response::PriorityPullOk { records }) => {
                self.finish_sync_priority_pull(ctx, wait, records);
            }
            (Pending::ReplAck { group }, _) => {
                let done = self.repl.acked(group, &self.cfg.backup_actors);
                self.carry_out(ctx, done);
            }
            (Pending::PushRecords, Response::PushRecordsOk) if self.baseline.is_some() => {
                // Window of 1: next scan step now that the target acked.
                self.sched.enqueue(Priority::Background, Task::BaselineStep);
            }
            (Pending::BaselineTransferAck, _) => {
                if let Some(mut run) = self.baseline.take() {
                    run.mig.on_ownership_transferred(&mut self.master);
                    self.stats.finish_migration_run(run.id, now);
                }
            }
            (Pending::FetchSegments { recovery }, Response::SegmentsOk { segments }) => {
                self.recover(ctx, recovery, |run| run.on_segments(segments));
            }
            // Error responses on protocol RPCs: drop the related state
            // rather than wedging (e.g. source died mid-migration; the
            // coordinator's crash handling takes over).
            (Pending::SyncPriorityPull(wait), _) => self.fail_sync_priority_pull(ctx, wait),
            // The coordinator (or the source) rejected the run — an
            // overlapping migration won the race, or ownership was stale.
            (Pending::MigStartAck { mig }, _) | (Pending::Prepare { mig }, _) => {
                self.abandon_migration(ctx, mig, AbandonReason::Rejected);
            }
            _ => {}
        }
    }

    fn run_mut(&mut self, id: MigrationId) -> Option<&mut MigrationRun> {
        self.migrations.iter_mut().find(|r| r.id == id)
    }

    /// Counts records a pull or push brought in: `(records, wire bytes)`.
    fn count_gathered(&self, records: &[Record]) -> (u64, u64) {
        let wire: u64 = records.iter().map(Record::wire_size).sum();
        self.stats.bytes_migrated_in.add(wire);
        (records.len() as u64, wire)
    }

    // -------------------------------------------------- worker machinery --

    /// Places queued tasks, and offers idle cores to the migration
    /// managers, until nothing more fits.
    fn try_assign(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let mut declined = 0;
        loop {
            let migrations = !self.migrations.is_empty();
            match self.sched.next_placement(migrations, declined) {
                Placement::Run { worker, task } => {
                    self.run_task(ctx, worker, task);
                    declined = 0;
                }
                Placement::Offer if self.poll_and_run_migrations(ctx) => declined = 0,
                Placement::Offer => declined += 1,
                Placement::Blocked => return,
            }
        }
    }

    fn run_task(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize, task: Task) {
        let now = ctx.now();
        self.tel.task_started(now, worker, &task);
        let service_ns = match task {
            Task::Rpc { to, req } => {
                let service_ns = self.exec_rpc(ctx, worker, to, req);
                self.tel.rpc_assigned(now, to.src, to.rpc, service_ns);
                service_ns
            }
            Task::BaselineStep => self.exec_baseline_step(now, worker),
            Task::RecoveryBatch { recovery, image } => {
                self.exec_recovery_batch(worker, recovery, image)
            }
            Task::CleanerPass => self.exec_cleaner_pass(ctx),
        };
        self.start_service(ctx, worker, service_ns);
    }

    /// `worker` is busy for `service_ns` from now.
    fn start_service(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize, service_ns: Nanos) {
        self.stats.worker_busy_ns.add(service_ns);
        ctx.timer(service_ns, token(KIND_WORKER_DONE, worker as u64));
    }

    fn on_worker_done(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize) {
        let now = ctx.now();
        self.tel.task_done(now, worker);
        let deferred = std::mem::take(&mut self.sched.workers[worker].deferred);
        let mut migration_event = false;
        for d in deferred {
            match d {
                Deferred::Send(dst, env) => {
                    if let Body::Resp(_) = env.body {
                        self.tel.response_sent(now, dst, env.rpc);
                    }
                    self.send(ctx, dst, env);
                }
                Deferred::ReplayDone(mig, partition) => {
                    if let Some(run) = self.run_mut(mig) {
                        run.mgr.on_replay_done(partition);
                    }
                    migration_event = true;
                }
                Deferred::RecoveryBatch(id) => self.recover(ctx, id, RecoveryRun::batch_done),
                Deferred::BaselineContinue => {
                    self.sched.enqueue(Priority::Background, Task::BaselineStep);
                }
                Deferred::ShipLog(then) => self.ship(ctx, &[Scope::Heads], Some(then)),
            }
        }
        self.sched.service_done(worker, now);
        if migration_event {
            self.poll_and_run_migrations(ctx);
        }
        self.try_assign(ctx);
    }

    fn release_worker(&mut self, ctx: &mut Ctx<'_, Envelope>, worker: usize) {
        if let Some((since, waited)) = self.sched.release(worker, ctx.now()) {
            self.stats.worker_busy_ns.add(waited);
            self.tel.hold_released(worker, since, waited);
        }
        self.try_assign(ctx);
    }

    /// Queues `resp` to leave when `worker`'s service time elapses,
    /// echoing the request's causal context.
    fn defer_response(&mut self, worker: usize, to: ReplyTo, resp: Response) {
        let env = Envelope::resp(to.rpc, resp).with_ctx(to.cctx);
        let send = Deferred::Send(to.src, env);
        self.sched.workers[worker].deferred.push(send);
    }

    /// The durable path (§2: 15 µs writes): ship the log delta when the
    /// service time elapses and hold `worker` until the replicas ack,
    /// then answer `resp` to `to` and release `worker`.
    fn respond_durable(&mut self, worker: usize, to: ReplyTo, resp: Response) {
        let respond = (to.src, to.rpc, resp);
        let w = &mut self.sched.workers[worker];
        w.held = true;
        w.deferred
            .push(Deferred::ShipLog(Durable::Respond { worker, respond }));
    }

    // ------------------------------------------------------- replication --

    /// Ships what `scopes` (one or more, planned in turn) cover of the
    /// log and the backups lack, each on its lane; `then` is carried out
    /// once that is durable. The replication manager decides all of it.
    fn ship(&mut self, ctx: &mut Ctx<'_, Envelope>, scopes: &[Scope], then: Option<Durable>) {
        let (log, backups, cost) = (&self.master.log, &self.cfg.backup_actors, &self.cfg.cost);
        let then = then.map(Then::Answer);
        let outs = self.repl.ship(scopes, ctx.now(), log, backups, cost, then);
        self.carry_out(ctx, outs);
    }

    /// Does what the replication manager decided, in its order: each
    /// chunk and each free is sent now or parked with the manager until
    /// its delay elapses, and each durable waiter is answered.
    fn carry_out(&mut self, ctx: &mut Ctx<'_, Envelope>, outs: Vec<Out>) {
        let owner = self.cfg.id;
        for out in outs {
            let (delay, backup, group, req) = match out {
                Out::Chunk(c, group) => {
                    let req = Request::ReplicateAppend {
                        owner,
                        segment: c.segment,
                        offset: c.offset,
                        data: c.data,
                    };
                    (c.delay, c.backup, group, req)
                }
                Out::Free(delay, backup, segment) => {
                    (delay, backup, None, Request::FreeSegment { owner, segment })
                }
                Out::Durable(then) => {
                    self.durable(ctx, then);
                    continue;
                }
            };
            let pending = (Pending::ReplAck { group }, None);
            let rpc = self.rpcs.open(backup, pending, None, ctx.now());
            let env = Envelope::req(rpc, req);
            if delay == 0 {
                self.send(ctx, backup, env);
            } else {
                let parked = self.repl.park(backup, env);
                ctx.timer(delay, token(KIND_PARKED_SEND, parked));
            }
        }
    }

    /// What a shipment waited on is durable: answer the waiter.
    fn durable(&mut self, ctx: &mut Ctx<'_, Envelope>, then: Durable) {
        match then {
            Durable::Respond {
                worker,
                respond: (client, rpc, resp),
            } => {
                self.respond(ctx, client, rpc, resp, CausalCtx::NONE);
                self.release_worker(ctx, worker);
            }
            Durable::Claim(run) => {
                // The replay raised the version floor above everything
                // the dead participant acknowledged; clients may come
                // back now.
                let (table, range) = (run.table, run.range);
                self.master.set_tablet_role(table, range, TabletRole::Owner);
                let floor = self.master.version_ceiling();
                self.tel.recovered(ctx.now(), table, range, floor);
                let ((coordinator, rpc), replayed) = (run.coordinator_rpc, run.replayed);
                let resp = Response::RecoverTabletOk { replayed };
                self.respond(ctx, coordinator, rpc, resp, CausalCtx::NONE);
            }
        }
    }

    // ------------------------------------------------------ RPC execution --

    /// Does the real work of `req` now and returns its modeled service
    /// time; responses are deferred to the end of that time.
    #[allow(clippy::too_many_lines)]
    fn exec_rpc(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        to: ReplyTo,
        req: Request,
    ) -> Nanos {
        let m = &self.cfg.cost;
        let mut work = Work::default();
        let (service, resp) = match req {
            Request::Read {
                table,
                key,
                key_hash,
            } => {
                self.stats.ops_served.add(1);
                let read = self.master.read(table, key_hash, Some(&key), &mut work);
                let service = m.op_fixed_ns + m.read_per_object_ns + work.service_ns(m);
                match read {
                    Ok((value, version)) => (service, Response::ReadOk { value, version }),
                    Err(OpError::NotYetHere { hash }) => {
                        if let Some(resp) = self.read_miss(ctx, worker, to, table, key, hash) {
                            self.defer_response(worker, to, resp);
                            self.poll_and_run_migrations(ctx);
                        }
                        return service;
                    }
                    Err(err) => (service, self.refusal(ctx, err)),
                }
            }
            Request::MultiRead { table, keys } => {
                let n = keys.len() as u64;
                self.stats.ops_served.add(n);
                let values = keys
                    .iter()
                    .map(|(key, hash)| {
                        let read = self.master.read(table, *hash, Some(key), &mut work);
                        read.ok().map(|(v, _)| v)
                    })
                    .collect();
                let service = m.op_fixed_ns + n * m.read_per_object_ns + work.service_ns(m);
                (service, Response::MultiReadOk { values })
            }
            Request::MultiReadHash { table, hashes } => {
                let n = hashes.len() as u64;
                self.stats.ops_served.add(n);
                let values = hashes
                    .iter()
                    .map(|hash| {
                        let read = self.master.read(table, *hash, None, &mut work);
                        read.ok().map(|(v, _)| v)
                    })
                    .collect();
                let service = m.op_fixed_ns + n * m.read_per_object_ns + work.service_ns(m);
                (service, Response::MultiReadHashOk { values })
            }
            Request::Write {
                table,
                key,
                key_hash,
                value,
            } => {
                self.stats.ops_served.add(1);
                let wrote = self.master.write(table, key_hash, &key, &value, &mut work);
                let service = m.op_fixed_ns + m.write_per_object_ns + work.service_ns(m);
                let ok = wrote.map(|(version, _)| Response::WriteOk { version });
                self.finish_durable(ctx, worker, to, ok);
                return service;
            }
            Request::Delete {
                table,
                key,
                key_hash,
            } => {
                self.stats.ops_served.add(1);
                let deleted = self.master.delete(table, key_hash, &key, &mut work);
                let service = m.op_fixed_ns + m.write_per_object_ns + work.service_ns(m);
                let ok = deleted.map(|existed| Response::DeleteOk { existed });
                self.finish_durable(ctx, worker, to, ok);
                return service;
            }
            Request::IndexScan {
                table,
                index,
                begin,
                end,
                limit,
            } => {
                self.stats.ops_served.add(1);
                let limit = limit as usize;
                let scan = self
                    .master
                    .index_scan(table, index, &begin, &end, limit, &mut work);
                let resp = match scan {
                    Ok((hashes, truncated)) => Response::IndexScanOk { hashes, truncated },
                    Err(_) => Response::Err(Status::UnknownTablet),
                };
                let service = m.op_fixed_ns + m.index_lookup_ns + work.service_ns(m);
                (service, resp)
            }
            Request::Pull {
                table,
                range,
                cursor,
                budget_bytes,
            } => {
                self.stats.pulls_served.add(1);
                // The gather's own work receipt is not charged:
                // per-record costs are covered by `pull_record_ns`.
                let (records, next, _) = rocksteady::source::handle_pull(
                    &self.master,
                    table,
                    range,
                    cursor,
                    budget_bytes,
                );
                let mut service = m.pull_fixed_ns;
                let mut wire = 0;
                for r in &records {
                    service += m.pull_record_ns(r.wire_size());
                    wire += r.wire_size();
                }
                self.stats.bytes_migrated_out.add(wire);
                (service, Response::PullOk { records, next })
            }
            Request::PriorityPull { table, hashes } => {
                self.stats.priority_pulls_served.add(1);
                let (records, _) =
                    rocksteady::source::handle_priority_pull(&self.master, table, &hashes);
                let mut service = m.priority_pull_fixed_ns;
                let mut wire = 0;
                for r in &records {
                    service += m.priority_pull_per_record_ns
                        + m.checksum_ns(r.wire_size())
                        + m.copy_ns(r.wire_size());
                    wire += r.wire_size();
                }
                self.stats.bytes_migrated_out.add(wire);
                self.tel
                    .priority_pull_served(ctx.now(), hashes.len(), records.len());
                (service, Response::PriorityPullOk { records })
            }
            Request::PushRecords { records, until } => {
                let mut service = m.op_fixed_ns;
                self.count_gathered(&records);
                if until >= BaselineStage::Replay {
                    service += self.replay_into_main_log(ctx.now(), &records);
                }
                if until >= BaselineStage::Rereplicate {
                    self.respond_durable(worker, to, Response::PushRecordsOk);
                    return service;
                }
                (service, Response::PushRecordsOk)
            }
            Request::ReplicateAppend {
                owner,
                segment,
                offset,
                data,
            } => {
                let service =
                    m.backup_fixed_ns + (data.len() as f64 * m.backup_per_byte_ns) as Nanos;
                let outcome = self.backup.append(owner, segment, offset, data);
                debug_assert!(
                    matches!(outcome, rocksteady_backup::AppendOutcome::Ok),
                    "replication stream corrupted: {outcome:?}"
                );
                (service, Response::ReplicateOk)
            }
            Request::FreeSegment { owner, segment } => {
                self.backup.free_segment(owner, segment);
                (m.backup_fixed_ns, Response::ReplicateOk)
            }
            Request::FetchSegments { owner, min_segment } => {
                let segments = self.backup.fetch(owner, min_segment);
                let bytes: u64 = segments.iter().map(|s| s.data.len() as u64).sum();
                let service = m.backup_fixed_ns + m.copy_ns(bytes);
                (service, Response::SegmentsOk { segments })
            }
            // Control-plane requests never reach workers.
            other => {
                debug_assert!(false, "unexpected worker request {other:?}");
                (m.op_fixed_ns, Response::Err(Status::UnknownTablet))
            }
        };
        self.defer_response(worker, to, resp);
        service
    }

    /// Completes a write or delete: durable on success, refused at once
    /// otherwise.
    fn finish_durable(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        to: ReplyTo,
        outcome: Result<Response, OpError>,
    ) {
        match outcome {
            Ok(resp) => self.respond_durable(worker, to, resp),
            Err(err) => {
                let resp = self.refusal(ctx, err);
                self.defer_response(worker, to, resp);
            }
        }
    }

    /// Replays `records` straight into the main log and returns the
    /// worker time that takes: baseline pushes and synchronous
    /// PriorityPulls. Migration and crash recovery replay into side logs
    /// ([`replay_into_side`]); this is the one main-log replay (rule
    /// `one_main_log_replay`).
    fn replay_into_main_log(&mut self, now: Nanos, records: &[Record]) -> Nanos {
        let mut work = Work::default();
        let replayed = self
            .master
            .replay_batch(records, ReplayDest::MainLog, &mut work);
        self.stats.records_replayed.add(replayed as u64);
        self.tel.version_floor(now, self.master.version_ceiling());
        replay_ns(&self.cfg.cost, records)
    }

    /// A read found its record not yet migrated (§3.3): does what the
    /// covering run's manager answers. Returns the answer to defer — or
    /// `None` when the worker instead blocks on its own PriorityPull (the
    /// naïve mode of Figure 13b/14b).
    fn read_miss(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        reader: ReplyTo,
        table: TableId,
        key: Bytes,
        hash: KeyHash,
    ) -> Option<Response> {
        // Route the miss to the run whose range covers the hash — with
        // several runs in flight the first would otherwise swallow every
        // other run's misses.
        let covering = self
            .migrations
            .iter_mut()
            .find(|r| r.mgr.table == table && r.mgr.range.contains(hash));
        let Some(run) = covering else {
            let cause = self.cfg.migration.priority_pulls.retry_cause();
            return Some(self.retry_hint(ctx, cause));
        };
        match run.mgr.on_read_miss(hash) {
            MissAnswer::Block => {
                let dst = run.source_actor;
                self.sched.workers[worker].held = true;
                let wait = SyncWait {
                    worker,
                    reader,
                    table,
                    hash,
                    key,
                };
                let pending = (Pending::SyncPriorityPull(wait), None);
                let pp = self.rpcs.open(dst, pending, None, ctx.now());
                // The pull is issued on the blocked read's behalf: same
                // trace id, one hop deeper.
                let pp_ctx = reader.cctx.child();
                self.tel.priority_pull_sent(ctx.now(), pp_ctx, pp);
                let hashes = vec![hash];
                let req = Request::PriorityPull { table, hashes };
                self.send(ctx, dst, Envelope::req(pp, req).with_ctx(pp_ctx));
                None
            }
            MissAnswer::Retry(cause) => {
                if cause == RetryCause::MissPriorityPull {
                    // Remember who asked: the batched PriorityPull that
                    // eventually covers this hash inherits the waiting
                    // read's context (first waiter wins).
                    if reader.cctx.trace_id.is_some() {
                        run.pp_ctx.entry(hash).or_insert(reader.cctx.child());
                    }
                    let n = self.stats.priority_pull_deferrals.inc();
                    self.tel.priority_pull_deferred(ctx.now(), n);
                }
                Some(self.retry_hint(ctx, cause))
            }
            MissAnswer::NotFound => Some(Response::Err(Status::NotFound)),
        }
    }

    fn finish_sync_priority_pull(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        wait: SyncWait,
        records: Vec<Record>,
    ) {
        let service = self.replay_into_main_log(ctx.now(), &records);
        // The worker was blocked the whole round trip; charge the replay
        // on top.
        self.stats.worker_busy_ns.add(service);
        let mut work = Work::default();
        let resp = match self
            .master
            .read(wait.table, wait.hash, Some(&wait.key), &mut work)
        {
            Ok((value, version)) => Response::ReadOk { value, version },
            Err(_) => Response::Err(Status::NotFound),
        };
        let ReplyTo { src, rpc, cctx } = wait.reader;
        self.respond(ctx, src, rpc, resp, cctx);
        self.release_worker(ctx, wait.worker);
    }

    /// The source failed a blocked read's PriorityPull: the client
    /// retries once the coordinator's recovery plan lands.
    fn fail_sync_priority_pull(&mut self, ctx: &mut Ctx<'_, Envelope>, wait: SyncWait) {
        let resp = self.retry_hint(ctx, RetryCause::SourceFailover);
        let reader = wait.reader;
        self.respond(ctx, reader.src, reader.rpc, resp, CausalCtx::NONE);
        self.release_worker(ctx, wait.worker);
    }

    // --------------------------------------------------------- migration --

    /// Polls every in-flight migration run (admission order), executing
    /// each run's actions before polling the next so the idle-worker
    /// count each manager sees stays exact. Returns whether any run
    /// produced actions.
    fn poll_and_run_migrations(&mut self, ctx: &mut Ctx<'_, Envelope>) -> bool {
        let ids: Vec<MigrationId> = self.migrations.iter().map(|r| r.id).collect();
        let mut any = false;
        for id in ids {
            // Each manager runs as a dispatch continuation (§3.1.2).
            self.sched.charge_mgr(self.cfg.cost.migration_mgr_check_ns);
            let idle = self.sched.idle_workers();
            let Some(run) = self.run_mut(id) else {
                continue;
            };
            let actions = run.mgr.poll(idle);
            if !actions.is_empty() {
                any = true;
                self.run_migration_actions(ctx, id, actions);
            }
        }
        any
    }

    fn run_migration_actions(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        id: MigrationId,
        actions: Vec<Action>,
    ) {
        let now = ctx.now();
        for action in actions {
            // Re-find each iteration: an action (Finished, or an abandon
            // triggered downstream) may remove the run mid-loop.
            let Some(run) = self.migrations.iter_mut().find(|r| r.id == id) else {
                return;
            };
            let (table, range, dst) = (run.mgr.table, run.mgr.range, run.source_actor);
            let target = self.cfg.id;
            match action {
                Action::SendPrepare => {
                    let req = Request::PrepareMigration {
                        table,
                        range,
                        target,
                    };
                    self.call(ctx, dst, Pending::Prepare { mig: id }, req);
                }
                Action::NotifyStart {
                    lineage_from_segment,
                } => {
                    let req = Request::MigrationStarting {
                        id,
                        table,
                        range,
                        source: run.mgr.source,
                        target,
                        lineage_from_segment,
                    };
                    let dst = self.dir.coordinator;
                    self.call(ctx, dst, Pending::MigStartAck { mig: id }, req);
                }
                Action::SendPull { partition, cursor } => {
                    let req = Request::Pull {
                        table,
                        range: range.split(run.mgr.config.partitions)[partition],
                        cursor,
                        budget_bytes: PULL_BUDGET_BYTES,
                    };
                    let pending = Pending::Pull { mig: id, partition };
                    let span_start = self.tel.span_start(now);
                    let rpc = self.rpcs.open(dst, (pending, span_start), None, now);
                    self.send(ctx, dst, Envelope::req(rpc, req));
                }
                Action::SendPriorityPull { hashes } => {
                    // The batch is issued on behalf of the reads waiting
                    // on its hashes; the first hash (batch order) with a
                    // recorded context represents the batch so the
                    // source-side span joins that read's journey. Every
                    // hash's context is dropped either way.
                    let asked = hashes.iter().filter_map(|h| run.pp_ctx.remove(h));
                    let first = asked.fold(None, |first, c| first.or(Some(c)));
                    let pp_ctx = first.unwrap_or(CausalCtx::NONE);
                    let req = Request::PriorityPull {
                        table,
                        hashes: hashes.clone(),
                    };
                    let pending = Pending::PriorityPull { mig: id, hashes };
                    let span_start = self.tel.span_start(now);
                    let rpc = self.rpcs.open(dst, (pending, span_start), None, now);
                    self.tel.priority_pull_sent(now, pp_ctx, rpc);
                    self.send(ctx, dst, Envelope::req(rpc, req).with_ctx(pp_ctx));
                }
                Action::Replay(batch) => {
                    let Some(worker) = self.sched.claim_idle() else {
                        debug_assert!(false, "manager scheduled replay with no idle worker");
                        continue;
                    };
                    let service = self.exec_replay(now, worker, id, batch);
                    self.tel.replay_started(now, worker);
                    self.start_service(ctx, worker, service);
                }
                Action::Finished => self.finish_migration(ctx, id),
            }
        }
    }

    fn exec_replay(
        &mut self,
        now: Nanos,
        worker: usize,
        id: MigrationId,
        batch: ReplayBatch,
    ) -> Nanos {
        let run = self
            .migrations
            .iter_mut()
            .find(|r| r.id == id)
            .expect("replay for a live run");
        let (master, cost, records) = (&mut self.master, &self.cfg.cost, &batch.records);
        let (replayed, service) =
            replay_into_side(master, cost, &mut run.sidelogs, worker, records);
        let received = records.len() as u64;
        self.stats.records_replayed.add(replayed);
        self.stats.migration_replayed(id, received, replayed);
        // replay_batch raised the floor above every version it saw.
        let floor = self.master.version_ceiling();
        self.tel.replayed(now, id, received, replayed, floor);
        let done = Deferred::ReplayDone(id, batch.partition);
        self.sched.workers[worker].deferred.push(done);
        service.max(1)
    }

    /// Commits a run's side logs — only its own, concurrent runs' stay
    /// open — into the main log (§3.1.3) and returns how many there were.
    /// The adopted segments re-replicate on the bulk lane (§3.4). A
    /// migration's leave lazily, and the commit records naming them are
    /// head bytes that leave with the next foreground shipment. A
    /// recovery's `claim` waits on both: the heads and the adopted
    /// segments ship under one ack group.
    fn hand_over_sidelogs(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        sidelogs: &mut [Option<SideLog>],
        claim: Option<Durable>,
    ) -> u64 {
        let mut committed = 0;
        for side in sidelogs.iter_mut().filter_map(Option::take) {
            side.commit().expect("side log commit");
            committed += 1;
        }
        let not_before = ctx.now();
        let adopted = Scope::Adopted { not_before };
        match claim {
            None => self.ship(ctx, &[adopted], None),
            Some(then) => self.ship(ctx, &[Scope::Heads, adopted], Some(then)),
        }
        committed
    }

    /// Drops in-flight migration run `id`: the source died, the
    /// coordinator rejected the start, or a recovery plan superseded it
    /// (§3.4). The abandonment is stamped (per run), counted, traced,
    /// and the run's own side logs are handed over like a finished run's
    /// (their records were already replayed into the hash table and stay
    /// live here). Other in-flight runs are untouched.
    fn abandon_migration(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        id: MigrationId,
        reason: AbandonReason,
    ) {
        let Some(idx) = self.migrations.iter().position(|r| r.id == id) else {
            return;
        };
        let mut run = self.migrations.remove(idx);
        self.hand_over_sidelogs(ctx, &mut run.sidelogs, None);
        // A rejected run never registered ownership anywhere but locally
        // (the coordinator said no before the flip): drop the provisional
        // tablet so this master stops claiming hashes it will never
        // receive. Other abandon reasons keep the tablet — a recovery
        // plan (`Recovering` role) or crash handling owns its fate.
        let released = (reason == AbandonReason::Rejected).then(|| {
            self.master.drop_tablet(run.mgr.table, run.mgr.range);
            (run.mgr.table, run.mgr.range)
        });
        // If the migration never registered, its requester is still
        // waiting on MigrateTablet — tell it to try again later.
        if let Some((client, client_rpc)) = run.client.take() {
            let resp = self.retry_hint(ctx, RetryCause::SourceFailover);
            self.respond(ctx, client, client_rpc, resp, CausalCtx::NONE);
        }
        let now = ctx.now();
        self.stats.abandon_migration_run(id, now);
        let total = self.stats.migrations_abandoned.inc();
        self.tel
            .migration_abandoned(now, id, reason, released, total);
    }

    fn finish_migration(&mut self, ctx: &mut Ctx<'_, Envelope>, id: MigrationId) {
        let Some(idx) = self.migrations.iter().position(|r| r.id == id) else {
            return;
        };
        let mut run = self.migrations.remove(idx);
        let sidelogs = self.hand_over_sidelogs(ctx, &mut run.sidelogs, None);
        // Become a plain owner.
        let mgr = &run.mgr;
        self.master
            .set_tablet_role(mgr.table, mgr.range, TabletRole::Owner);
        // Drop the lineage dependency.
        let req = Request::MigrationComplete {
            id,
            table: mgr.table,
            range: mgr.range,
            source: mgr.source,
            target: self.cfg.id,
        };
        self.call(ctx, self.dir.coordinator, Pending::MigCompleteAck, req);
        let now = ctx.now();
        self.stats.finish_migration_run(id, now);
        let last_phase = mgr.phase().name();
        self.tel
            .migration_finished(now, id, last_phase, &mgr.stats, sidelogs);
    }

    // ---------------------------------------------------------- baseline --

    fn exec_baseline_step(&mut self, now: Nanos, worker: usize) -> Nanos {
        let Some(run) = &mut self.baseline else {
            return self.cfg.cost.op_fixed_ns;
        };
        let (action, work) = run.mig.step(&mut self.master);
        let service = work.service_ns(&self.cfg.cost).max(1);
        let (dst, pending, req) = match action {
            BaselineAction::SendBatch {
                records,
                await_ack,
                scanned_bytes,
            } => {
                self.stats.bytes_migrated_out.add(scanned_bytes);
                if !await_ack || records.is_empty() {
                    // Runs that stop before `Tx` keep scanning without
                    // waiting on the network.
                    let next = Deferred::BaselineContinue;
                    self.sched.workers[worker].deferred.push(next);
                    return service;
                }
                self.stats.migration_gathered(run.id, records.len() as u64);
                let until = run.mig.until;
                let req = Request::PushRecords { records, until };
                (self.dir.actor_of(run.mig.target), Pending::PushRecords, req)
            }
            BaselineAction::TransferOwnership => {
                let req = Request::BaselineOwnershipTransfer {
                    table: run.mig.table,
                    range: run.mig.range,
                    source: self.cfg.id,
                    target: run.mig.target,
                };
                (self.dir.coordinator, Pending::BaselineTransferAck, req)
            }
            BaselineAction::Done => {
                // A Figure 5 lever run stops here, ownership unmoved.
                if run.mig.is_done() {
                    self.stats.finish_migration_run(run.id, now);
                    self.baseline = None;
                }
                return service;
            }
        };
        let rpc = self.rpcs.open(dst, (pending, None), None, now);
        let send = Deferred::Send(dst, Envelope::req(rpc, req));
        self.sched.workers[worker].deferred.push(send);
        service
    }

    // ---------------------------------------------------------- recovery --

    /// Hands `input` to recovery run `recovery` and does what the run
    /// asks next: queue its replay batches for any idle worker (§3.1.3),
    /// or hand its side logs over and claim once they and the log heads
    /// are on the backups.
    fn recover(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        recovery: u64,
        input: impl FnOnce(&mut RecoveryRun) -> Step,
    ) {
        let Some(run) = self.recoveries.get_mut(&recovery) else {
            return;
        };
        match input(run) {
            Step::Wait => {}
            Step::Replay(images) => {
                for image in images {
                    let batch = Task::RecoveryBatch { recovery, image };
                    self.sched.enqueue(Priority::Replay, batch);
                }
                self.try_assign(ctx);
            }
            Step::Claim => {
                let mut run = self.recoveries.remove(&recovery).expect("found above");
                let mut sidelogs = std::mem::take(&mut run.sidelogs);
                self.hand_over_sidelogs(ctx, &mut sidelogs, Some(Durable::Claim(Box::new(run))));
            }
        }
    }

    /// Replays the recovering range's records in `image` into `worker`'s
    /// side log of recovery run `recovery`.
    fn exec_recovery_batch(&mut self, worker: usize, recovery: u64, image: Bytes) -> Nanos {
        let m = &self.cfg.cost;
        let run = self.recoveries.get_mut(&recovery).expect("a live run");
        let (records, scanned) = run.walk(&image);
        let (replayed, replay_ns) =
            replay_into_side(&mut self.master, m, &mut run.sidelogs, worker, &records);
        run.replayed += replayed;
        self.stats.recovery_replayed.add(replayed);
        let done = Deferred::RecoveryBatch(recovery);
        self.sched.workers[worker].deferred.push(done);
        m.op_fixed_ns + replay_ns + scanned * m.log_scan_per_entry_ns
    }

    fn exec_cleaner_pass(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Nanos {
        let m = &self.cfg.cost;
        let cleaner = rocksteady_logstore::Cleaner::default();
        let Some(stats) = self.master.clean_once(&cleaner) else {
            return m.op_fixed_ns;
        };
        self.stats.segments_cleaned.add(stats.victims.len() as u64);
        // Relocation copies + checksums live bytes and walks the victim
        // segment's entries.
        let service = m.copy_ns(stats.bytes_relocated)
            + m.checksum_ns(stats.bytes_relocated)
            + (stats.entries_relocated + stats.entries_dropped) * m.log_scan_per_entry_ns
            + m.op_fixed_ns;
        // The survivors sit in adopted segments of their own: they leave
        // on the bulk lane once the copy is paid for, and the victims'
        // replicas go when the survivors' last ack is in.
        let (now, log, backups) = (ctx.now(), &self.master.log, &self.cfg.backup_actors);
        let outs = self
            .repl
            .cleaned(stats.victims, now + service, now, log, backups, m);
        self.carry_out(ctx, outs);
        service
    }

    /// Membership update: `server` is dead. Drop it from the backup set
    /// and fail over everything outstanding to it — each chunk in flight
    /// to it is handed to the replication manager as lost (which decides
    /// what that means for its waiter), blocked sync PriorityPulls turn
    /// into client retries, and migrations involving the dead peer are
    /// abandoned (the coordinator's recovery plan supersedes them, §3.4).
    /// Nothing re-replicates the dead backup's segments, where RAMCloud
    /// restores R.
    fn on_server_down(&mut self, ctx: &mut Ctx<'_, Envelope>, server: ServerId) {
        let Some(&dead) = self.dir.servers.get(server.0 as usize) else {
            return;
        };
        self.cfg.backup_actors.retain(|a| *a != dead);
        // What a lost call means is decided here, per `Pending` kind, until
        // each core that sent a call takes it back as an input (ROADMAP
        // item 24 step 2).
        for (_, (lost, _)) in self.rpcs.fail_over(dead) {
            match lost {
                Pending::ReplAck { group } => {
                    let done = self.repl.lost(group, &self.cfg.backup_actors);
                    self.carry_out(ctx, done);
                }
                Pending::SyncPriorityPull(wait) => self.fail_sync_priority_pull(ctx, wait),
                Pending::PushRecords | Pending::BaselineTransferAck => {
                    if let Some(run) = self.baseline.take_if(|run| run.mig.target == server) {
                        self.stats.abandon_migration_run(run.id, ctx.now());
                    }
                }
                // Every live server was asked: what only the dead one
                // held is a gap.
                Pending::FetchSegments { recovery } => {
                    let n = self.stats.recovery_fetch_gaps.inc();
                    self.tel.fetch_gap(ctx.now(), n);
                    self.recover(ctx, recovery, |run| run.on_segments(Vec::new()));
                }
                // Runs whose source died are swept below, RPC in flight
                // or not; nobody waits on the rest.
                Pending::Pull { .. }
                | Pending::PriorityPull { .. }
                | Pending::Prepare { .. }
                | Pending::MigStartAck { .. }
                | Pending::MigCompleteAck => {}
            }
        }
        // A migration whose source died is dead even if no RPC to it was
        // in flight at this instant (e.g. every pull was mid-replay).
        // Runs pulling from other, still-alive sources are unharmed.
        let doomed_runs: Vec<MigrationId> = self
            .migrations
            .iter()
            .filter(|run| run.source_actor == dead)
            .map(|run| run.id)
            .collect();
        for id in doomed_runs {
            self.abandon_migration(ctx, id, AbandonReason::SourceDied);
        }
    }
}

/// Replays `records` into `worker`'s side log of a run's `sidelogs`,
/// opened on first use. Returns how many were news, and the worker time
/// the replay takes. Each worker has its own per-run side log: zero
/// contention (§3.1.3), and runs never mix side segments. One
/// `replay_batch` call takes the side log's lock once for the batch.
fn replay_into_side(
    master: &mut MasterService,
    cost: &CostModel,
    sidelogs: &mut [Option<SideLog>],
    worker: usize,
    records: &[Record],
) -> (u64, Nanos) {
    let side = sidelogs[worker].get_or_insert_with(|| SideLog::new(Arc::clone(&master.log)));
    let mut work = Work::default();
    let replayed = master.replay_batch(records, ReplayDest::Side(side), &mut work);
    (replayed as u64, replay_ns(cost, records))
}

/// Worker time to replay `records`.
fn replay_ns(cost: &CostModel, records: &[Record]) -> Nanos {
    records
        .iter()
        .map(|r| cost.replay_record_ns(r.wire_size()))
        .sum()
}

impl Actor<Envelope> for ServerNode {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if let Some(every) = self.cfg.cleaner_interval {
            ctx.timer(every, KIND_CLEANER);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        let tok = match event {
            Event::Message {
                src,
                payload,
                sent_at,
                departed_at,
            } => {
                self.sched.receive(Inbound {
                    src,
                    sent_at,
                    departed_at,
                    arrived: ctx.now(),
                    env: payload,
                });
                self.ensure_dispatch(ctx);
                return;
            }
            Event::Timer { token } => token,
        };
        match tok & 0xff {
            KIND_DISPATCH => return self.on_dispatch_timer(ctx),
            KIND_WORKER_DONE => self.on_worker_done(ctx, (tok >> 8) as usize),
            KIND_PARKED_SEND => {
                if let Some((dst, env)) = self.repl.unpark(tok >> 8) {
                    self.send(ctx, dst, env);
                }
            }
            KIND_CLEANER => {
                self.sched.enqueue(Priority::Background, Task::CleanerPass);
                self.try_assign(ctx);
                if let Some(every) = self.cfg.cleaner_interval {
                    ctx.timer(every, KIND_CLEANER);
                }
            }
            _ => {}
        }
        self.flush_offpoll_charges(ctx.now());
    }
}
