//! The node's one telemetry seam.
//!
//! [`NodeTelemetry`] owns the trace, activity-ledger and audit handles
//! and every span anchor, and exposes one method per protocol event that
//! fans out to whichever layers are armed. The shell reports each event
//! once and knows nothing of lanes, activities or audit kinds. Every
//! layer keeps its zero-cost-off contract: a disarmed handle is one
//! `Option` discriminant check per call, and nothing here touches the
//! clock, the RNG or the event queue, so arming never moves a schedule.
//!
//! Lanes (`tid` within this server's `pid`) follow the shared
//! convention in [`rocksteady_trace::lanes`], chosen so spans sharing
//! one never partially overlap: worker cores run one task at a time,
//! each pull partition has one Pull in flight, PriorityPull batches are
//! serialized by the batcher, and migration phases tile.

use rocksteady::MigrationStats;
use rocksteady_audit::{AuditKind, AuditSink, ClaimVia, ReleaseVia};
use rocksteady_common::{
    CausalCtx, FxHashMap, HashRange, MigrationId, Nanos, RpcId, ServerId, TableId,
};
use rocksteady_profiler::{Activity, Profiler};
use rocksteady_proto::{Envelope, Request};
use rocksteady_simnet::ActorId;
use rocksteady_trace::{lanes, Arg, Tracer};

use crate::sched::{Quantum, Task};

/// Arrival stamps of an inbound request, captured once on the dispatch
/// core; kept (only while tracing) as the request's latency
/// decomposition and emitted when its response is handed to the NIC.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RpcSpan {
    name: &'static str,
    /// When the requester's NIC accepted the request (stamped by the
    /// simnet kernel into `Envelope::sent_at`).
    sent_at: Nanos,
    /// When the request entered our rx queue.
    arrived: Nanos,
    /// When a worker started servicing it (0 until assigned).
    assigned: Nanos,
    /// Predicted end of worker service (assignment + service time).
    service_end: Nanos,
    /// NIC serialization + queueing delay of the inbound message
    /// (`departed_at - sent_at`, stamped by the kernel).
    pub(crate) nic_in: Nanos,
    /// Causal context the envelope carried; stamped as `trace`/`hop`
    /// args on the decomposition instant so journeys can be stitched.
    pub(crate) cctx: CausalCtx,
}

impl RpcSpan {
    /// Stamps a message that entered the rx queue at `arrived`.
    pub(crate) fn arriving(env: &Envelope, arrived: Nanos) -> Self {
        RpcSpan {
            name: "",
            sent_at: env.sent_at,
            arrived,
            assigned: 0,
            service_end: 0,
            nic_in: env.departed_at.saturating_sub(env.sent_at),
            cctx: env.ctx,
        }
    }
}

/// Why an in-flight migration run was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbandonReason {
    /// The coordinator or the source refused the run.
    Rejected,
    /// A recovery plan for the range supersedes it (§3.4).
    Superseded,
    /// Its source crashed.
    SourceDied,
}

impl AbandonReason {
    fn label(self) -> &'static str {
        match self {
            AbandonReason::Rejected => "mig:abandoned-rejected",
            AbandonReason::Superseded => "mig:abandoned-superseded",
            AbandonReason::SourceDied => "mig:abandoned-source-died",
        }
    }
}

/// Wall-clock anchors of one in-progress migration's trace spans.
struct MigTrace {
    started: Nanos,
    phase_start: Nanos,
}

/// The task open on a worker core: one `(what, since)` pair serving
/// both the trace span and the ledger charge.
struct CoreOp {
    label: &'static str,
    activity: Activity,
    since: Nanos,
    /// Tracing was on when the task started, so it gets a span.
    traced: bool,
}

pub(crate) struct NodeTelemetry {
    trace: Tracer,
    profiler: Profiler,
    audit: AuditSink,
    server: ServerId,
    /// This node's trace `pid` (its actor id).
    pid: u64,
    /// Open latency decompositions, keyed by `(requester, rpc)`.
    rpc_spans: FxHashMap<(ActorId, u64), RpcSpan>,
    /// Per worker; `Some` only while a layer that wants it is armed.
    core_ops: Vec<Option<CoreOp>>,
    /// Runs admitted while tracing was on.
    migrations: FxHashMap<MigrationId, MigTrace>,
}

impl NodeTelemetry {
    pub(crate) fn new(
        server: ServerId,
        pid: ActorId,
        workers: usize,
        trace: Tracer,
        profiler: Profiler,
        audit: AuditSink,
    ) -> Self {
        // Register every core up front so never-scheduled cores still
        // export (as all-idle).
        for core in 0..=workers as u32 {
            profiler.register_core(server.0, core);
        }
        NodeTelemetry {
            trace,
            profiler,
            audit,
            server,
            pid: pid as u64,
            rpc_spans: FxHashMap::default(),
            core_ops: (0..workers).map(|_| None).collect(),
            migrations: FxHashMap::default(),
        }
    }

    /// `Some(now)` while tracing: the start of a span some later event
    /// closes. Recorded at send time, so a tracer un-muted mid-run only
    /// spans what it saw leave.
    pub(crate) fn span_start(&self, now: Nanos) -> Option<Nanos> {
        self.trace.is_on().then_some(now)
    }

    /// Records the completed span `[start, now]` on `lane` of this node.
    fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        lane: u64,
        start: Nanos,
        now: Nanos,
        args: &[Arg],
    ) {
        self.trace
            .span(name, cat, self.pid, lane, start, now - start, args);
    }

    fn audit(&self, now: Nanos, kind: impl FnOnce(ServerId) -> AuditKind) {
        if self.audit.is_on() {
            self.audit.emit(now, kind(self.server));
        }
    }

    // ------------------------------------------------------ dispatch core --

    /// One closed dispatch quantum: rx, then tx, then manager time (the
    /// split is attribution, not a schedule).
    pub(crate) fn dispatch_quantum(&self, q: &Quantum) {
        if self.profiler.is_on() {
            let rx = q.busy.saturating_sub(q.tx + q.mgr);
            self.charge(0, Activity::DispatchRx, q.start, rx);
            self.charge(0, Activity::DispatchTx, q.start + rx, q.tx);
            self.charge(0, Activity::MigrationMgr, q.start + rx + q.tx, q.mgr);
        }
    }

    /// Dispatch-core cost accrued outside a poll. The busy counter never
    /// sees it, but the ledger does, and any overlap with an
    /// already-charged dispatch interval surfaces as overcommit instead
    /// of disappearing.
    pub(crate) fn offpoll_charge(&self, now: Nanos, tx: Nanos, mgr: Nanos) {
        self.charge(0, Activity::DispatchTx, now, tx);
        self.charge(0, Activity::MigrationMgr, now + tx, mgr);
    }

    fn charge(&self, core: u32, activity: Activity, start: Nanos, dur: Nanos) {
        self.profiler
            .charge(self.server.0, core, activity, start, dur);
    }

    // ------------------------------------------------------- worker cores --

    /// `task` starts on `worker`. Replication appends, segment-fetch
    /// service, cleaning and non-replay pushes are background duty;
    /// everything client-visible is service.
    pub(crate) fn task_started(&mut self, now: Nanos, worker: usize, task: &Task) {
        let Some(traced) = self.wants_core_ops() else {
            return;
        };
        let (label, activity) = match task {
            Task::Rpc { req, .. } => {
                let activity = match req {
                    Request::Pull { .. } => Activity::PullGather,
                    Request::PriorityPull { .. } => Activity::PriorityPull,
                    Request::PushRecords { replay: true, .. } => Activity::Replay,
                    Request::PushRecords { .. }
                    | Request::ReplicateAppend { .. }
                    | Request::FreeSegment { .. }
                    | Request::FetchSegments { .. } => Activity::Background,
                    _ => Activity::Service,
                };
                (req.name(), activity)
            }
            Task::BaselineStep => ("baseline-step", Activity::PullGather),
            Task::RecoveryReplay { .. } => ("recovery-replay", Activity::Replay),
            Task::CleanerPass => ("cleaner", Activity::Background),
        };
        self.core_ops[worker] = Some(CoreOp {
            label,
            activity,
            since: now,
            traced,
        });
    }

    /// A migration manager's replay batch starts on `worker`.
    pub(crate) fn replay_started(&mut self, now: Nanos, worker: usize) {
        if let Some(traced) = self.wants_core_ops() {
            self.core_ops[worker] = Some(CoreOp {
                label: "mig:replay",
                activity: Activity::Replay,
                since: now,
                traced,
            });
        }
    }

    /// `Some(tracing on)` if any layer wants per-task bookkeeping.
    fn wants_core_ops(&self) -> Option<bool> {
        let traced = self.trace.is_on();
        (traced || self.profiler.is_on()).then_some(traced)
    }

    /// The task on `worker` reached the end of its service time.
    pub(crate) fn task_done(&mut self, now: Nanos, worker: usize) {
        let Some(op) = self.core_ops[worker].take() else {
            return;
        };
        self.charge(worker as u32 + 1, op.activity, op.since, now - op.since);
        if op.traced {
            let lane = lanes::worker(worker);
            self.span(op.label, "worker", lane, op.since, now, &[]);
        }
    }

    /// `worker` sat blocked for `waited` since `since` and is now free.
    /// The blocked window is charged (and spanned) as a hold only if the
    /// service span has already closed: a failover can release a core
    /// mid-service, before the hold was ever stamped.
    pub(crate) fn hold_released(&self, worker: usize, since: Nanos, waited: Nanos) {
        if since == 0 {
            return;
        }
        let open = self.core_ops[worker].as_ref();
        if open.is_none() {
            self.charge(worker as u32 + 1, Activity::Hold, since, waited);
        }
        if self.trace.is_on() && !open.is_some_and(|op| op.traced) {
            let lane = lanes::worker(worker);
            self.span("hold", "worker", lane, since, since + waited, &[]);
        }
    }

    // ------------------------------------------------------- inbound RPCs --

    /// A request was queued for a worker.
    pub(crate) fn rpc_queued(
        &mut self,
        src: ActorId,
        rpc: RpcId,
        name: &'static str,
        span: RpcSpan,
    ) {
        if self.trace.is_on() {
            self.rpc_spans
                .insert((src, rpc.0), RpcSpan { name, ..span });
        }
    }

    /// A worker picked the request up; its service ends `service_ns` on.
    pub(crate) fn rpc_assigned(&mut self, now: Nanos, src: ActorId, rpc: RpcId, service_ns: Nanos) {
        if !self.trace.is_on() {
            return;
        }
        if let Some(span) = self.rpc_spans.get_mut(&(src, rpc.0)) {
            span.assigned = now;
            span.service_end = now + service_ns;
        }
    }

    /// The response to `(dst, rpc)` is being handed to the NIC: emits
    /// the latency-decomposition instant. The four server-side segments
    /// telescope — `net_in + queue + service + hold = resp_sent −
    /// sent_at` — so a client that stamps issue/complete times can
    /// account for every nanosecond of its observed latency.
    pub(crate) fn response_sent(&mut self, now: Nanos, dst: ActorId, rpc: RpcId) {
        if !self.trace.is_on() {
            return;
        }
        let Some(span) = self.rpc_spans.remove(&(dst, rpc.0)) else {
            return; // control-plane RPC or tracing armed mid-flight
        };
        if span.assigned == 0 {
            return; // never serviced (answered straight from dispatch)
        }
        // A hold can be cut short by a failover arriving mid-service;
        // saturate rather than underflow in that corner.
        let service_end = span.service_end.min(now);
        let trace_id = span.cctx.trace_id;
        let args = [
            ("src", dst as u64),
            ("rpc", rpc.0),
            ("sent_at", span.sent_at),
            ("arrived", span.arrived),
            ("assigned", span.assigned),
            ("service_end", service_end),
            ("resp_sent", now),
            ("net_in", span.arrived - span.sent_at),
            ("nic_in", span.nic_in),
            ("queue", span.assigned - span.arrived),
            ("service", service_end - span.assigned),
            ("hold", now - service_end),
            ("trace", trace_id.0),
            ("hop", span.cctx.hop as u64),
        ];
        // An untraced request's instant stops short of the last two.
        let args = &args[..args.len() - if trace_id.is_some() { 0 } else { 2 }];
        self.trace
            .instant(span.name, "rpc", self.pid, lanes::RPC, now, args);
        // Close the flow edge the requester opened at send time: the
        // arrow ties the client's (or PriorityPull issuer's) lane to
        // this server's decomposition instant in the chrome view.
        if trace_id.is_some() {
            self.flow(lanes::RPC, now, false, trace_id.0, rpc);
        }
    }

    fn flow(&self, lane: u64, now: Nanos, start: bool, trace_id: u64, rpc: RpcId) {
        self.trace.flow(
            "rpc-flow",
            "flow",
            self.pid,
            lane,
            now,
            start,
            trace_id ^ rpc.0,
            [("trace", trace_id)],
        );
    }

    /// The running count of retry hints sent.
    pub(crate) fn retry_hint_sent(&self, now: Nanos, total: u64) {
        self.counter("retry-hints", now, total);
    }

    /// The running count of reads deferred behind a PriorityPull.
    pub(crate) fn priority_pull_deferred(&self, now: Nanos, total: u64) {
        self.counter("pp-deferrals", now, total);
    }

    fn counter(&self, name: &'static str, now: Nanos, value: u64) {
        if self.trace.is_on() {
            self.trace.counter(name, self.pid, now, value);
        }
    }

    // --------------------------------------------------- migration, source --

    /// The source flipped `range` to migrating-out and stopped serving it.
    pub(crate) fn prepare_flipped(&self, now: Nanos, table: TableId, range: HashRange) {
        self.released(now, table, range, ReleaseVia::PrepareFlip);
    }

    fn released(&self, now: Nanos, table: TableId, range: HashRange, via: ReleaseVia) {
        self.audit(now, |server| AuditKind::NodeRelease {
            server,
            table,
            range,
            via,
        });
    }

    /// A PriorityPull asking for `requested` hashes found `records`.
    pub(crate) fn priority_pull_served(&self, now: Nanos, requested: usize, records: usize) {
        self.audit(now, |server| AuditKind::PriorityServed {
            server,
            requested: requested as u64,
            records: records as u64,
        });
    }

    // --------------------------------------------------- migration, target --

    /// This node admitted run `id` and owns `range` locally from now on.
    pub(crate) fn migration_admitted(
        &mut self,
        now: Nanos,
        id: MigrationId,
        table: TableId,
        range: HashRange,
        source: ServerId,
    ) {
        self.audit(now, |target| AuditKind::MigrationAdmitted {
            id,
            table,
            range,
            source,
            target,
        });
        if self.trace.is_on() {
            let anchors = MigTrace {
                started: now,
                phase_start: now,
            };
            self.migrations.insert(id, anchors);
        }
    }

    /// Run `id` left the phase named `label`: spans it and re-anchors
    /// the next one. No-op unless tracing was on at admission.
    pub(crate) fn phase_done(&mut self, now: Nanos, id: MigrationId, label: &'static str) {
        if let Some(mt) = self.migrations.get_mut(&id) {
            let start = std::mem::replace(&mut mt.phase_start, now);
            self.span(label, "migration", lanes::MIGRATION, start, now, &[]);
        }
    }

    /// This master's version floor is now `floor` (it only ever rises).
    pub(crate) fn version_floor(&self, now: Nanos, floor: u64) {
        self.audit(now, |server| AuditKind::VersionFloor { server, floor });
    }

    /// A PriorityPull carrying the waiting read's context `cctx` leaves
    /// as `rpc`: opens the flow edge the source will close.
    pub(crate) fn priority_pull_sent(&self, now: Nanos, cctx: CausalCtx, rpc: RpcId) {
        if self.trace.is_on() && cctx.trace_id.is_some() {
            self.flow(lanes::PRIORITY_PULL, now, true, cctx.trace_id.0, rpc);
        }
    }

    /// A bulk Pull of `partition` came back with `records` (`wire`
    /// bytes; `nic` is the response's NIC delay). `sent` is its
    /// [`Self::span_start`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pull_returned(
        &self,
        now: Nanos,
        sent: Option<Nanos>,
        id: MigrationId,
        partition: usize,
        records: u64,
        wire: u64,
        nic: Nanos,
    ) {
        if let Some(t0) = sent {
            let args = [("records", records), ("bytes", wire), ("resp_nic", nic)];
            let lane = lanes::pull(partition);
            self.span("mig:pull", "migration", lane, t0, now, &args);
        }
        self.gathered(now, id, partition as u64, records, false);
    }

    /// A batched PriorityPull for `hashes` hashes came back.
    pub(crate) fn priority_pull_returned(
        &self,
        now: Nanos,
        sent: Option<Nanos>,
        id: MigrationId,
        hashes: u64,
        records: u64,
        nic: Nanos,
    ) {
        if let Some(t0) = sent {
            let args = [("hashes", hashes), ("records", records), ("resp_nic", nic)];
            let lane = lanes::PRIORITY_PULL;
            self.span("mig:priority-pull", "migration", lane, t0, now, &args);
        }
        self.gathered(now, id, u64::MAX, records, true);
    }

    fn gathered(&self, now: Nanos, id: MigrationId, partition: u64, records: u64, priority: bool) {
        self.audit(now, |_| AuditKind::Gathered {
            id,
            partition,
            records,
            priority,
        });
    }

    /// Run `id` replayed a batch of `received` records, `applied` of
    /// which were news; replaying raised the floor to `floor`.
    pub(crate) fn replayed(
        &self,
        now: Nanos,
        id: MigrationId,
        received: u64,
        applied: u64,
        floor: u64,
    ) {
        self.audit(now, |_| AuditKind::Replayed {
            id,
            received,
            applied,
        });
        self.version_floor(now, floor);
    }

    /// Run `id` was dropped for `reason`; `released` names the
    /// provisional tablet if the node stopped claiming it. `total` is
    /// the running abandonment count.
    pub(crate) fn migration_abandoned(
        &mut self,
        now: Nanos,
        id: MigrationId,
        reason: AbandonReason,
        released: Option<(TableId, HashRange)>,
        total: u64,
    ) {
        if let Some((table, range)) = released {
            self.released(now, table, range, ReleaseVia::Abandon);
        }
        self.audit(now, |target| AuditKind::MigrationAbandoned { id, target });
        let anchors = self.migrations.remove(&id);
        if self.trace.is_on() {
            let lane = lanes::MIGRATION;
            self.trace
                .instant(reason.label(), "migration", self.pid, lane, now, []);
            if let Some(mt) = anchors {
                let args = [("abandoned", 1)];
                self.span("migration", "migration", lane, mt.started, now, &args);
            }
            self.trace
                .counter("migrations-abandoned", self.pid, now, total);
        }
    }

    /// Run `id` drained: its last phase (`phase`) ends, `sidelogs` side
    /// logs were committed, and the whole-run span closes.
    pub(crate) fn migration_finished(
        &mut self,
        now: Nanos,
        id: MigrationId,
        phase: &'static str,
        stats: &MigrationStats,
        sidelogs: u64,
    ) {
        self.phase_done(now, id, phase);
        self.audit(now, |target| AuditKind::MigrationFinished {
            id,
            target,
            pull_records: stats.pull_records,
            priority_records: stats.priority_records,
        });
        if let Some(mt) = self.migrations.remove(&id) {
            let lane = lanes::MIGRATION;
            let args = [("sidelogs", sidelogs)];
            self.span("mig:commit", "migration", lane, now, now, &args);
            let args = [
                ("pulls_sent", stats.pulls_sent),
                ("pull_records", stats.pull_records),
                ("priority_pulls_sent", stats.priority_pulls_sent),
                ("priority_records", stats.priority_records),
            ];
            self.span("migration", "migration", lane, mt.started, now, &args);
        }
    }

    // ----------------------------------------------------------- recovery --

    /// Recovery replay now blocks a range this node had been serving.
    pub(crate) fn recovery_blocked(&self, now: Nanos, table: TableId, range: HashRange) {
        self.released(now, table, range, ReleaseVia::RecoveryBlock);
    }

    /// Recovery replay finished: the node owns `range`, floor at `floor`.
    pub(crate) fn recovered(&self, now: Nanos, table: TableId, range: HashRange, floor: u64) {
        self.audit(now, |server| AuditKind::NodeClaim {
            server,
            table,
            range,
            via: ClaimVia::Recovery,
        });
        self.version_floor(now, floor);
    }

    /// A segment fetch moved to surviving `backup` (`total` so far).
    pub(crate) fn fetch_failed_over(&self, now: Nanos, backup: ServerId, total: u64) {
        let args = [("backup", backup.0 as u64), ("failovers", total)];
        self.recovery_instant("recovery:fetch-failover", now, &args);
    }

    /// A segment fetch had no backup left to go to (`total` so far).
    pub(crate) fn fetch_gap(&self, now: Nanos, total: u64) {
        self.recovery_instant("recovery:gap", now, &[("gaps", total)]);
    }

    fn recovery_instant(&self, name: &'static str, now: Nanos, args: &[Arg]) {
        if self.trace.is_on() {
            self.trace
                .instant(name, "recovery", self.pid, lanes::RPC, now, args);
        }
    }
}
