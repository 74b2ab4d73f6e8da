//! The server actor: the simulator shell around the protocol cores.
//!
//! The shell owns the [`Ctx`]. The cores — [`crate::sched`],
//! [`crate::rpc`], [`crate::repl`], [`crate::recovery`] and the
//! migration managers in the `rocksteady` crate — are pure state
//! machines that *return* what to send and what to charge; the shell
//! performs those effects, in the order returned, and reports each
//! protocol event once to [`crate::telemetry`]. What is left here is
//! routing: requests to handlers, responses to the state they complete,
//! manager actions to messages.

use bytes::Bytes;
use rocksteady::{
    Action, BaselineAction, BaselineMigration, MigrationManager, MissOutcome, ReplayBatch,
    RetryCause, PULL_BUDGET_BYTES,
};
use rocksteady_audit::AuditSink;
use rocksteady_backup::BackupService;
use rocksteady_common::{
    CausalCtx, FxHashMap, KeyHash, MigrationId, Nanos, RpcId, ServerId, TableId,
};
use rocksteady_logstore::SideLog;
use rocksteady_master::{MasterService, OpError, ReplayDest, TabletRole, Work};
use rocksteady_profiler::Profiler;
use rocksteady_proto::msg::BaselineOpts;
use rocksteady_proto::{Body, Envelope, Priority, Record, Request, Response, Status};
use rocksteady_simnet::{Actor, ActorId, Ctx, Event};
use rocksteady_trace::Tracer;

use crate::recovery::{FetchFailure, RecoveryRun};
use crate::repl::{ChunkSend, Durable, ReplManager, Scope};
use crate::rpc::{Pending, RpcTable, SyncWait};
use crate::sched::{Deferred, Placement, Quantum, ReplyTo, Sched, Task};
use crate::stats::StatsHandle;
use crate::telemetry::{AbandonReason, NodeTelemetry, RpcSpan};
use crate::{Directory, Fault, ServerConfig};

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

impl MigrationRun {
    /// Commits every worker's side log into the main log (§3.1.3) and
    /// returns how many there were.
    fn commit_sidelogs(&mut self) -> u64 {
        let mut committed = 0;
        for side in self.sidelogs.iter_mut().filter_map(Option::take) {
            side.commit().expect("side log commit");
            committed += 1;
        }
        committed
    }
}

struct BaselineRun {
    mig: BaselineMigration,
    target: ServerId,
    opts: BaselineOpts,
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
    /// The protocol bug a test harness asked this node to exhibit.
    fault: Option<Fault>,

    sched: Sched,
    rpcs: RpcTable,
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
            fault: None,
            sched: Sched::new(cfg.workers, cfg.migration.sync_priority_pulls),
            rpcs: RpcTable::default(),
            repl: ReplManager::default(),
            migrations: Vec::new(),
            baseline: None,
            recoveries: FxHashMap::default(),
            dir,
            stats,
            cfg,
        }
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> StatsHandle {
        std::rc::Rc::clone(&self.stats)
    }

    /// Marks everything currently in the log as already replicated.
    /// Harness-only: used after preloaded data has been copied onto the
    /// backups directly, so the replication manager doesn't re-ship it.
    pub fn mark_log_durable(&mut self) {
        self.repl.mark_durable(&self.master.log);
    }

    /// Makes this node misbehave as `fault` describes. Harness-only,
    /// for tests that prove a watchdog or invariant check fires.
    pub fn inject_fault(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    // ------------------------------------------------------------ sends --

    fn send(&mut self, ctx: &mut Ctx<'_, Envelope>, dst: ActorId, env: Envelope) {
        self.sched.charge_tx(self.cfg.cost.dispatch_tx_per_msg_ns);
        ctx.send(dst, env);
    }

    /// Issues `req` to `dst`; `pending` says what its response will mean.
    fn call(&mut self, ctx: &mut Ctx<'_, Envelope>, dst: ActorId, pending: Pending, req: Request) {
        let rpc = self.rpcs.open(dst, pending, None);
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
        let Some((src, arrived, env)) = msg else {
            return;
        };
        let span = RpcSpan::arriving(&env, arrived);
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
                let ceiling = if self.fault == Some(Fault::SkipSourceFlip) {
                    // Answer with the ceiling but keep serving the range:
                    // a real split brain for the auditor to catch.
                    Some(self.master.version_ceiling())
                } else {
                    let flipped =
                        rocksteady::source::handle_prepare(&mut self.master, table, range, target);
                    if flipped.is_some() {
                        self.tel.prepare_flipped(now, table, range);
                    }
                    flipped
                };
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
                table,
                range,
                target,
                opts,
            } => {
                let budget = PULL_BUDGET_BYTES as u64;
                let Some(mig) =
                    BaselineMigration::new(&mut self.master, table, range, target, opts, budget)
                else {
                    let resp = Response::Err(Status::UnknownTablet);
                    self.respond(ctx, src, rpc, resp, CausalCtx::NONE);
                    return;
                };
                self.stats.begin_migration(now);
                self.baseline = Some(BaselineRun { mig, target, opts });
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
                let run =
                    RecoveryRun::new(table, range, (src, rpc), crashed, from_segment, backups);
                for backup in run.backups() {
                    let (dst, req) = (self.dir.actor_of(*backup), run.fetch_request());
                    self.call(ctx, dst, Pending::FetchSegments { recovery }, req);
                }
                let ready = run.ready();
                self.recoveries.insert(recovery, run);
                if ready {
                    self.sched
                        .enqueue(Priority::Replay, Task::RecoveryReplay { recovery });
                }
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
        let Some(done) = self.rpcs.complete(rpc) else {
            return; // late/duplicate response
        };
        let (now, span_start) = (ctx.now(), done.span_start);
        match (done.pending, resp) {
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
                    run.mgr.on_pull_response(partition, records, next, wire);
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
                    run.mgr.on_priority_pull_response(&hashes, records);
                }
                self.poll_and_run_migrations(ctx);
            }
            (Pending::SyncPriorityPull(wait), Response::PriorityPullOk { records }) => {
                self.finish_sync_priority_pull(ctx, wait, records);
            }
            (Pending::ReplAck { group: Some(gid) }, _) => self.credit_ack_group(ctx, gid),
            (Pending::ReplAck { group: None }, _) => {}
            (Pending::PushRecords, Response::PushRecordsOk) if self.baseline.is_some() => {
                // Window of 1: next scan step now that the target acked.
                self.sched.enqueue(Priority::Background, Task::BaselineStep);
            }
            (Pending::BaselineTransferAck, _) => {
                if let Some(mut run) = self.baseline.take() {
                    run.mig.on_ownership_transferred(&mut self.master);
                    self.stats.migration_finished_at.set(now);
                }
            }
            (Pending::FetchSegments { recovery }, Response::SegmentsOk { segments }) => {
                if let Some(run) = self.recoveries.get_mut(&recovery) {
                    run.on_segments(segments);
                    self.recovery_progressed(ctx, recovery);
                }
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
            Task::BaselineStep => self.exec_baseline_step(worker),
            Task::RecoveryReplay { recovery } => self.exec_recovery_replay(now, worker, recovery),
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
                Deferred::BaselineContinue => {
                    self.sched.enqueue(Priority::Background, Task::BaselineStep);
                }
                Deferred::ShipLog { wait } => self.ship_heads(ctx, worker, wait),
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
    /// then answer `resp`.
    fn hold_for_replication(&mut self, worker: usize, to: ReplyTo, resp: Response) {
        let w = &mut self.sched.workers[worker];
        w.held = true;
        let wait = Some((to.src, to.rpc, resp));
        w.deferred.push(Deferred::ShipLog { wait });
    }

    // ------------------------------------------------------- replication --

    /// What of the log `scope` covers and the backups lack, as chunks on
    /// the lane `scope` implies.
    fn plan(&mut self, scope: Scope, now: Nanos) -> Vec<ChunkSend> {
        let (log, backups, cost) = (&self.master.log, &self.cfg.backup_actors, &self.cfg.cost);
        self.repl.plan(scope, now, log, backups, cost)
    }

    /// Ships the head's not-yet-replicated bytes on the foreground lane.
    /// If `wait` is set, an ack group releases `worker` and answers the
    /// client once every chunk is acked.
    fn ship_heads(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        wait: Option<(ActorId, RpcId, Response)>,
    ) {
        let sends = self.plan(Scope::Heads, ctx.now());
        let group = match wait {
            Some(respond) if !sends.is_empty() => {
                let then = Durable::Respond { worker, respond };
                Some(self.repl.open_group(sends.len() as u32, then))
            }
            // Nothing to ship (no backups, or a concurrent shipment
            // already covered our bytes): respond immediately.
            Some(respond) => return self.finish_wait(ctx, worker, respond),
            None => None,
        };
        self.send_chunks(ctx, sends, group);
    }

    /// Ships adopted segments on the bulk lane, none leaving before
    /// `not_before`. Once they are durable, `victims` — the segments
    /// whose live entries they hold — are freed on the backups.
    fn ship_adopted(&mut self, ctx: &mut Ctx<'_, Envelope>, not_before: Nanos, victims: Vec<u64>) {
        let sends = self.plan(Scope::Adopted { not_before }, ctx.now());
        if sends.is_empty() {
            // No survivors (or no backups): nothing to wait for, but the
            // free must not overtake a victim's own chunks still parked.
            let at = not_before.max(self.repl.drained_at());
            return self.free_victims(ctx, at - ctx.now(), &victims);
        }
        let group = (!victims.is_empty()).then(|| {
            let then = Durable::FreeVictims(victims);
            self.repl.open_group(sends.len() as u32, then)
        });
        self.send_chunks(ctx, sends, group);
    }

    /// Sends each chunk, or parks it until its lane lets it leave; acks
    /// credit `group`.
    fn send_chunks(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        sends: Vec<ChunkSend>,
        group: Option<u64>,
    ) {
        for chunk in sends {
            let rpc = self
                .rpcs
                .open(chunk.backup, Pending::ReplAck { group }, None);
            let req = Request::ReplicateAppend {
                owner: self.cfg.id,
                segment: chunk.segment,
                offset: chunk.offset,
                data: chunk.data,
            };
            self.send_after(ctx, chunk.delay, chunk.backup, Envelope::req(rpc, req));
        }
    }

    /// Sends `env` now, or parks it with the replication manager for
    /// `delay`.
    fn send_after(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        delay: Nanos,
        dst: ActorId,
        env: Envelope,
    ) {
        if delay == 0 {
            self.send(ctx, dst, env);
        } else {
            let parked = self.repl.park(dst, env);
            ctx.timer(delay, token(KIND_PARKED_SEND, parked));
        }
    }

    /// Tells every backup, `delay` from now, to drop its replica of each
    /// of `victims`.
    fn free_victims(&mut self, ctx: &mut Ctx<'_, Envelope>, delay: Nanos, victims: &[u64]) {
        let owner = self.cfg.id;
        for &segment in victims {
            for i in 0..self.cfg.backup_actors.len() {
                let backup = self.cfg.backup_actors[i];
                let rpc = self
                    .rpcs
                    .open(backup, Pending::ReplAck { group: None }, None);
                let req = Request::FreeSegment { owner, segment };
                self.send_after(ctx, delay, backup, Envelope::req(rpc, req));
            }
        }
    }

    fn credit_ack_group(&mut self, ctx: &mut Ctx<'_, Envelope>, group: u64) {
        match self.repl.credit(group) {
            Some(Durable::Respond { worker, respond }) => self.finish_wait(ctx, worker, respond),
            Some(Durable::FreeVictims(victims)) => self.free_victims(ctx, 0, &victims),
            None => {}
        }
    }

    /// A replication wait is over: answers the client and frees the
    /// worker that was held for it.
    fn finish_wait(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        worker: usize,
        (client, rpc, resp): (ActorId, RpcId, Response),
    ) {
        self.respond(ctx, client, rpc, resp, CausalCtx::NONE);
        self.release_worker(ctx, worker);
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
            Request::PushRecords {
                table: _,
                records,
                replay,
                rereplicate,
            } => {
                let mut service = m.op_fixed_ns;
                self.count_gathered(&records);
                if replay {
                    for rec in &records {
                        service += m.replay_record_ns(rec.wire_size());
                    }
                    self.replay_into_main_log(ctx.now(), &records);
                }
                if replay && rereplicate {
                    self.hold_for_replication(worker, to, Response::PushRecordsOk);
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
            Ok(resp) => self.hold_for_replication(worker, to, resp),
            Err(err) => {
                let resp = self.refusal(ctx, err);
                self.defer_response(worker, to, resp);
            }
        }
    }

    /// Replays `records` straight into the main log (baseline pushes and
    /// synchronous PriorityPulls; Rocksteady's own replay goes to side
    /// logs).
    fn replay_into_main_log(&mut self, now: Nanos, records: &[Record]) {
        let mut work = Work::default();
        let replayed = self
            .master
            .replay_batch(records, ReplayDest::MainLog, &mut work);
        self.stats.records_replayed.add(replayed as u64);
        self.tel.version_floor(now, self.master.version_ceiling());
    }

    /// A read found its record not yet migrated (§3.3). Returns the
    /// answer to defer — or `None` when the worker instead blocks on its
    /// own PriorityPull (the naïve mode of Figure 13b/14b).
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
        let priority_pulls = self.cfg.migration.priority_pulls;
        let outcome = match covering {
            Some(run) if self.cfg.migration.sync_priority_pulls => {
                let dst = run.source_actor;
                self.sched.workers[worker].held = true;
                let wait = SyncWait {
                    worker,
                    reader,
                    table,
                    hash,
                    key,
                };
                let pp = self.rpcs.open(dst, Pending::SyncPriorityPull(wait), None);
                // The pull is issued on the blocked read's behalf: same
                // trace id, one hop deeper.
                let pp_ctx = reader.cctx.child(reader.rpc.0);
                self.tel.priority_pull_sent(ctx.now(), pp_ctx, pp);
                let hashes = vec![hash];
                let req = Request::PriorityPull { table, hashes };
                self.send(ctx, dst, Envelope::req(pp, req).with_ctx(pp_ctx));
                return None;
            }
            Some(run) => {
                let outcome = run.mgr.on_read_miss(hash);
                // Remember who asked: the batched PriorityPull that
                // eventually covers this hash inherits the waiting
                // read's context (first waiter wins).
                if outcome == MissOutcome::Wait && reader.cctx.trace_id.is_some() {
                    let asker = reader.cctx.child(reader.rpc.0);
                    run.pp_ctx.entry(hash).or_insert(asker);
                }
                if outcome == MissOutcome::Wait && priority_pulls {
                    let n = self.stats.priority_pull_deferrals.inc();
                    self.tel.priority_pull_deferred(ctx.now(), n);
                }
                outcome
            }
            None => MissOutcome::Wait,
        };
        Some(match outcome {
            // "Retry after the time when the target expects it will
            // have the value" (§3): with PriorityPulls that is one PP
            // round trip; without them the record only arrives with the
            // bulk pulls, so the hint is correspondingly longer.
            MissOutcome::Wait if priority_pulls => {
                self.retry_hint(ctx, RetryCause::MissPriorityPull)
            }
            MissOutcome::Wait => self.retry_hint(ctx, RetryCause::MissBulkOnly),
            MissOutcome::NotFound => Response::Err(Status::NotFound),
        })
    }

    fn finish_sync_priority_pull(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        wait: SyncWait,
        records: Vec<Record>,
    ) {
        let m = &self.cfg.cost;
        let service: Nanos = records
            .iter()
            .map(|rec| m.replay_record_ns(rec.wire_size()))
            .sum();
        self.replay_into_main_log(ctx.now(), &records);
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
                    let rpc = self.rpcs.open(dst, pending, self.tel.span_start(now));
                    self.send(ctx, dst, Envelope::req(rpc, req));
                }
                Action::SendPriorityPull { hashes } => {
                    // The batch is issued on behalf of the reads waiting
                    // on its hashes; the first hash (batch order) with a
                    // recorded context represents the batch so the
                    // source-side span joins that read's journey.
                    let mut pp_ctx = CausalCtx::NONE;
                    for h in &hashes {
                        if let Some(c) = run.pp_ctx.remove(h) {
                            if !pp_ctx.trace_id.is_some() {
                                pp_ctx = c;
                            }
                        }
                    }
                    let req = Request::PriorityPull {
                        table,
                        hashes: hashes.clone(),
                    };
                    let pending = Pending::PriorityPull { mig: id, hashes };
                    let rpc = self.rpcs.open(dst, pending, self.tel.span_start(now));
                    self.tel.priority_pull_sent(now, pp_ctx, rpc);
                    self.send(ctx, dst, Envelope::req(rpc, req).with_ctx(pp_ctx));
                }
                Action::Replay(_) if self.fault == Some(Fault::DeferReplay) => {
                    // Accept the batch but never replay it. The manager
                    // already pipelined the partition's next Pull, so
                    // gather keeps running while replay stays flat.
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
        // Each worker replays into its own per-run side log: zero
        // contention (§3.1.3), and overlapping runs never mix side
        // segments.
        let side = run.sidelogs[worker]
            .get_or_insert_with(|| SideLog::new(std::sync::Arc::clone(&self.master.log)));
        let m = &self.cfg.cost;
        let service: Nanos = batch
            .records
            .iter()
            .map(|rec| m.replay_record_ns(rec.wire_size()))
            .sum();
        // One replay_batch call = one side-log lock acquisition for the
        // whole Pull response.
        let mut work = Work::default();
        let received = batch.records.len() as u64;
        let replayed =
            self.master
                .replay_batch(&batch.records, ReplayDest::Side(side), &mut work) as u64;
        self.stats.records_replayed.add(replayed);
        self.stats.migration_replayed(id, received, replayed);
        // replay_batch raised the floor above every version it saw.
        let floor = self.master.version_ceiling();
        self.tel.replayed(now, id, received, replayed, floor);
        let done = Deferred::ReplayDone(id, batch.partition);
        self.sched.workers[worker].deferred.push(done);
        service.max(1)
    }

    /// Drops in-flight migration run `id`: the source died, the
    /// coordinator rejected the start, or a recovery plan superseded it
    /// (§3.4). The abandonment is stamped (per run), counted, traced,
    /// and the run's own side logs are committed (their records were
    /// already replayed into the hash table, and another run's finish
    /// must not sweep up this run's stale segments). Other in-flight
    /// runs are untouched.
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
        if run.commit_sidelogs() > 0 {
            // The replayed records stay live here; their segments are
            // adopted now and re-replicate lazily like a finished run's.
            self.ship_adopted(ctx, ctx.now(), Vec::new());
        }
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
        // Only THIS run's side logs; concurrent runs' stay open.
        let sidelogs = run.commit_sidelogs();
        // Lazy re-replication (§3.4): the committed side segments — and
        // the head bytes naming them — ship in the background, yielding
        // to foreground write replication.
        let sends = self.plan(Scope::Backlog, ctx.now());
        self.send_chunks(ctx, sends, None);
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

    fn exec_baseline_step(&mut self, worker: usize) -> Nanos {
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
                    // Lever variants (skip_copy/skip_tx) keep scanning
                    // without waiting on the network.
                    let next = Deferred::BaselineContinue;
                    self.sched.workers[worker].deferred.push(next);
                    return service;
                }
                let req = Request::PushRecords {
                    table: run.mig.table,
                    records,
                    replay: !run.opts.skip_replay,
                    rereplicate: !run.opts.skip_replay && !run.opts.skip_rereplication,
                };
                (self.dir.actor_of(run.target), Pending::PushRecords, req)
            }
            BaselineAction::TransferOwnership => {
                let req = Request::BaselineOwnershipTransfer {
                    table: run.mig.table,
                    range: run.mig.range,
                    source: self.cfg.id,
                    target: run.target,
                };
                (self.dir.coordinator, Pending::BaselineTransferAck, req)
            }
            BaselineAction::Done => {
                if run.mig.is_done() {
                    self.baseline = None;
                }
                return service;
            }
        };
        let rpc = self.rpcs.open(dst, pending, None);
        let send = Deferred::Send(dst, Envelope::req(rpc, req));
        self.sched.workers[worker].deferred.push(send);
        service
    }

    // ---------------------------------------------------------- recovery --

    /// A fetch of recovery run `recovery` was answered or written off:
    /// once none is pending, the replay is queued.
    fn recovery_progressed(&mut self, ctx: &mut Ctx<'_, Envelope>, recovery: u64) {
        if self.recoveries[&recovery].ready() {
            self.sched
                .enqueue(Priority::Replay, Task::RecoveryReplay { recovery });
            self.try_assign(ctx);
        }
    }

    fn exec_recovery_replay(&mut self, now: Nanos, worker: usize, recovery: u64) -> Nanos {
        let m = &self.cfg.cost;
        let Some(run) = self.recoveries.remove(&recovery) else {
            return m.op_fixed_ns;
        };
        let replay = run.replay(m);
        let mut work = Work::default();
        let replayed =
            self.master
                .replay_batch(&replay.records, ReplayDest::MainLog, &mut work) as u64;
        let service = m.op_fixed_ns
            + replay.replay_ns
            + (replay.scanned_entries + work.scanned_entries) * m.log_scan_per_entry_ns;
        self.stats.recovery_replayed.add(replayed);
        // The replay raised the version floor above everything the dead
        // participant acknowledged; clients may come back now.
        self.master
            .set_tablet_role(run.table, run.range, TabletRole::Owner);
        let floor = self.master.version_ceiling();
        self.tel.recovered(now, run.table, run.range, floor);
        let (dst, rpc) = run.coordinator_rpc;
        let done = Envelope::resp(rpc, Response::RecoverTabletOk { replayed });
        let deferred = &mut self.sched.workers[worker].deferred;
        deferred.push(Deferred::Send(dst, done));
        // Recovered data must become durable.
        deferred.push(Deferred::ShipLog { wait: None });
        service
    }

    fn exec_cleaner_pass(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Nanos {
        let m = &self.cfg.cost;
        let cleaner = rocksteady_logstore::Cleaner::default();
        let Some(stats) = self.master.clean_once(&cleaner) else {
            return m.op_fixed_ns;
        };
        self.stats
            .segments_cleaned
            .add(stats.segments_cleaned as u64);
        // Relocation copies + checksums live bytes and walks the victim
        // segment's entries.
        let service = m.copy_ns(stats.bytes_relocated)
            + m.checksum_ns(stats.bytes_relocated)
            + (stats.entries_relocated + stats.entries_dropped) * m.log_scan_per_entry_ns
            + m.op_fixed_ns;
        // The survivors sit in adopted segments of their own: they leave
        // on the bulk lane once the copy is paid for, and the victims'
        // replicas go when the survivors' last ack is in.
        self.repl.forget(&stats.victims);
        self.ship_adopted(ctx, ctx.now() + service, stats.victims);
        service
    }

    /// Membership update: `server` is dead. Drop it from the backup set
    /// and fail over everything outstanding to it — replication waits
    /// are credited (RAMCloud re-replicates elsewhere; we degrade to
    /// R-1 replicas and document it), blocked sync PriorityPulls turn
    /// into client retries, and migrations involving the dead peer are
    /// abandoned (the coordinator's recovery plan supersedes them,
    /// §3.4).
    fn on_server_down(&mut self, ctx: &mut Ctx<'_, Envelope>, server: ServerId) {
        let Some(&dead) = self.dir.servers.get(&server) else {
            return;
        };
        self.cfg.backup_actors.retain(|a| *a != dead);
        for (_, lost) in self.rpcs.fail_over(dead) {
            match lost.pending {
                Pending::ReplAck { group: Some(g) } => self.credit_ack_group(ctx, g),
                Pending::SyncPriorityPull(wait) => self.fail_sync_priority_pull(ctx, wait),
                Pending::PushRecords | Pending::BaselineTransferAck => {
                    self.baseline.take_if(|run| run.target == server);
                }
                Pending::FetchSegments { recovery } => self.on_fetch_failed(ctx, recovery, server),
                // Runs whose source died are swept below, RPC in flight
                // or not; nobody waits on the rest.
                Pending::Pull { .. }
                | Pending::PriorityPull { .. }
                | Pending::Prepare { .. }
                | Pending::MigStartAck { .. }
                | Pending::MigCompleteAck
                | Pending::ReplAck { group: None } => {}
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

    /// A backup died while we were fetching the crashed master's
    /// segments from it: re-issue the fetch against a surviving backup,
    /// and only when none remain record an irrecoverable gap.
    fn on_fetch_failed(&mut self, ctx: &mut Ctx<'_, Envelope>, recovery: u64, dead: ServerId) {
        let Some(run) = self.recoveries.get_mut(&recovery) else {
            return;
        };
        match run.on_fetch_failed(dead) {
            FetchFailure::Failover(backup) => {
                let req = run.fetch_request();
                let n = self.stats.recovery_fetch_failovers.inc();
                self.tel.fetch_failed_over(ctx.now(), backup, n);
                let dst = self.dir.actor_of(backup);
                self.call(ctx, dst, Pending::FetchSegments { recovery }, req);
            }
            FetchFailure::Gap => {
                let n = self.stats.recovery_fetch_gaps.inc();
                self.tel.fetch_gap(ctx.now(), n);
                self.recovery_progressed(ctx, recovery);
            }
        }
    }
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
            Event::Message { src, payload } => {
                // Faults that lose messages act here, where the envelope
                // is handed to the node: the dispatch core never sees it.
                let lost = self.fault == Some(Fault::DropPulls)
                    && matches!(
                        payload.body,
                        Body::Req(Request::Pull { .. } | Request::PriorityPull { .. })
                    );
                if !lost {
                    self.sched.receive(src, ctx.now(), payload);
                    self.ensure_dispatch(ctx);
                }
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
