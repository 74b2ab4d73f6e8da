//! The YCSB client (§4.1): nearly-open Zipfian read/write load.
//!
//! Figures 9–14 drive the cluster with YCSB-B — 95% reads, 5% writes,
//! keys Zipfian with θ = 0.99 — at an offered load high enough to hold
//! the source at ~80% dispatch utilization. The client here is *nearly
//! open*: arrivals are Poisson at the configured rate and queue up when
//! the cluster falls behind (bounded by `max_outstanding` in flight), so
//! backlogged demand reappears as the post-migration throughput spike the
//! paper shows in Figure 9.

use std::rc::Rc;

use bytes::Bytes;
use rocksteady_audit::{AuditSink, ClientOp, Outcome};
use rocksteady_common::rng::Prng;
use rocksteady_common::zipf::{KeyDist, KeySampler};
use rocksteady_common::FxHashMap;
use rocksteady_common::{key_hash, CausalCtx, KeyHash, Nanos, RpcId, TableId, TraceId};
use rocksteady_proto::{Body, Envelope, Request, Response, Status};
use rocksteady_simnet::{Actor, Ctx, Directory, Event};
use rocksteady_trace::Tracer;

use crate::core::{write_primary_key, Call, ClientCore};
use crate::shape::LoadShape;
use crate::stats::ClientStatsHandle;

const TOK_ARRIVAL: u64 = 1;
const TOK_RETRY: u64 = 2;
const TOK_TIMEOUT: u64 = 3;
/// Re-issue an op if no response within this long (crash handling).
const RPC_TIMEOUT: Nanos = 10 * rocksteady_common::MILLISECOND;

/// Configuration for one YCSB client actor.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Cluster wiring.
    pub dir: Directory,
    /// Table to access.
    pub table: TableId,
    /// Number of keys in the table.
    pub num_keys: u64,
    /// Primary-key length in bytes (paper: 30).
    pub key_len: usize,
    /// Value length in bytes (paper: 100).
    pub value_len: usize,
    /// Offered load from this client, operations per second.
    pub ops_per_sec: f64,
    /// Fraction of reads (YCSB-B: 0.95).
    pub read_fraction: f64,
    /// Key popularity distribution (YCSB-B: Zipfian θ = 0.99).
    pub dist: KeyDist,
    /// Maximum operations in flight before arrivals backlog.
    pub max_outstanding: usize,
    /// RNG seed (derive per client).
    pub seed: u64,
    /// Spatial load shape: where in the hash space arrivals concentrate
    /// over time ([`LoadShape::Steady`] = pure rank sampling).
    pub shape: LoadShape,
}

impl YcsbConfig {
    /// YCSB-B against `table` with `num_keys` keys at `ops_per_sec`.
    pub fn ycsb_b(dir: Directory, table: TableId, num_keys: u64, ops_per_sec: f64) -> Self {
        YcsbConfig {
            dir,
            table,
            num_keys,
            key_len: 30,
            value_len: 100,
            ops_per_sec,
            read_fraction: 0.95,
            dist: KeyDist::Zipfian { theta: 0.99 },
            max_outstanding: 64,
            seed: 1,
            shape: LoadShape::Steady,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
}

#[derive(Debug)]
struct Op {
    kind: OpKind,
    rank: u64,
    /// The serialized key and its hash, built once when the operation
    /// arrives; every attempt re-sends this same `Bytes`.
    key: Bytes,
    hash: KeyHash,
    started: Nanos,
    issued: Nanos,
    rpc: Option<RpcId>,
    /// Retry attempts so far (drives exponential back-off).
    retries: u32,
    /// RPC attempts issued for this operation (first issue = 1). Also
    /// the `hop` stamped into the attempt's [`CausalCtx`], so journey
    /// reconstruction can order attempts without trusting timestamps.
    attempts: u32,
}

/// The YCSB client actor.
pub struct YcsbClient {
    cfg: YcsbConfig,
    core: ClientCore,
    stats: ClientStatsHandle,
    sampler: KeySampler,
    rng: Prng,
    ops: FxHashMap<u64, Op>,
    waiting_for_map: Vec<u64>,
    /// Scratch the next operation's key is formatted into before it is
    /// copied, in one allocation, into the operation's `Bytes`.
    key_buf: Vec<u8>,
    /// Ranks grouped by hash region ([`crate::shape::bucket_ranks`];
    /// empty for [`LoadShape::Steady`]). Lets a shaped arrival pick
    /// uniformly inside the hot region in O(1).
    bucket_ranks: Rc<[Vec<u64>]>,
    next_op: u64,
    pending_arrivals: u64,
    value: Bytes,
    trace: Tracer,
    /// Protocol auditing (one branch when disarmed): every completed
    /// operation joins its key's history for the `linearizable` check.
    audit: AuditSink,
}

impl YcsbClient {
    /// Creates a client; `stats` is shared with the harness. `sampler`
    /// draws from `cfg`'s `(num_keys, dist)` and `bucket_ranks` is
    /// [`crate::shape::bucket_ranks`] of its key space and shape: the
    /// first computes `zeta(n, θ)` — `n` `powf` calls — and the second
    /// formats and hashes every key, so a harness with many clients over
    /// one key space builds each once and hands out clones.
    pub fn with_sampler(
        cfg: YcsbConfig,
        stats: ClientStatsHandle,
        sampler: KeySampler,
        bucket_ranks: Rc<[Vec<u64>]>,
    ) -> Self {
        debug_assert_eq!(sampler.domain(), cfg.num_keys);
        debug_assert_eq!(
            bucket_ranks.len(),
            cfg.shape.buckets().unwrap_or(0) as usize
        );
        let rng = Prng::new(cfg.seed);
        let value = Bytes::from(vec![0xabu8; cfg.value_len]);
        YcsbClient {
            core: ClientCore::new(cfg.dir.clone(), cfg.table),
            stats,
            sampler,
            rng,
            ops: FxHashMap::default(),
            waiting_for_map: Vec::new(),
            key_buf: Vec::new(),
            bucket_ranks,
            next_op: 1,
            pending_arrivals: 0,
            value,
            trace: Tracer::off(),
            audit: AuditSink::off(),
            cfg,
        }
    }

    /// Arms trace recording: every completed RPC attempt emits an
    /// `rpc-client` instant (issue/complete stamps) that pairs with the
    /// server's `rpc` instant for end-to-end latency decomposition.
    pub fn with_trace(mut self, trace: Tracer) -> Self {
        self.trace = trace;
        self
    }

    /// Arms protocol auditing: each completed operation — a read's
    /// version or miss, a write's version, a timed-out write attempt as
    /// indeterminate — is reported to the `linearizable` checker.
    pub fn with_audit(mut self, audit: AuditSink) -> Self {
        self.audit = audit;
        self
    }

    fn arm_arrival(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let mean = 1e9 / self.cfg.ops_per_sec;
        let gap = self.rng.next_exp(mean).max(1.0) as Nanos;
        ctx.timer(gap, TOK_ARRIVAL);
    }

    fn drain_arrivals(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        while self.pending_arrivals > 0 && self.ops.len() < self.cfg.max_outstanding {
            self.pending_arrivals -= 1;
            let kind = if self.rng.next_f64() < self.cfg.read_fraction {
                OpKind::Read
            } else {
                OpKind::Write
            };
            let rank = self.sample_rank(ctx.now());
            write_primary_key(rank, self.cfg.key_len, &mut self.key_buf);
            let id = self.next_op;
            self.next_op += 1;
            self.ops.insert(
                id,
                Op {
                    kind,
                    rank,
                    key: Bytes::copy_from_slice(&self.key_buf),
                    hash: key_hash(&self.key_buf),
                    started: ctx.now(),
                    issued: 0,
                    rpc: None,
                    retries: 0,
                    attempts: 0,
                },
            );
            self.issue(ctx, id);
        }
    }

    /// Picks the next key rank: with probability `hot_weight` a uniform
    /// draw from the currently hot hash region (if the shape defines
    /// one), otherwise the configured rank distribution.
    fn sample_rank(&mut self, now: Nanos) -> u64 {
        if let Some((bucket, _, weight)) = self.cfg.shape.hot_bucket(now) {
            let ranks = &self.bucket_ranks[bucket as usize];
            if !ranks.is_empty() && self.rng.next_f64() < weight {
                return ranks[self.rng.next_below(ranks.len() as u64) as usize];
            }
        }
        self.sampler.sample(&mut self.rng)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64) {
        let Some(op) = self.ops.get(&op_id) else {
            return;
        };
        let hash = op.hash;
        let Some(owner) = self.core.owner_of(hash) else {
            self.waiting_for_map.push(op_id);
            self.core.request_map(ctx);
            return;
        };
        let kind = op.kind;
        let attempt = op.attempts + 1;
        let req = match op.kind {
            OpKind::Read => Request::Read {
                table: self.cfg.table,
                key: op.key.clone(),
                key_hash: hash,
            },
            OpKind::Write => Request::Write {
                table: self.cfg.table,
                key: op.key.clone(),
                key_hash: hash,
                value: self.value.clone(),
            },
        };
        let dst = self.core.actor_of(owner);
        // Each attempt is a call with an `RPC_TIMEOUT` backstop, under
        // one `TOK_TIMEOUT` timer armed while a deadline is queued.
        let arm = self.core.calls.next_due().is_none();
        let rpc = self
            .core
            .calls
            .open(dst, Call::Op(op_id), Some(RPC_TIMEOUT), ctx.now());
        // Every attempt of one operation carries the same minted trace
        // id; the hop field is the attempt number, so downstream spans
        // (and the PriorityPull a read miss spawns) chain back to the
        // exact attempt that caused them.
        let cctx = CausalCtx {
            trace_id: TraceId::mint(ctx.self_id() as u64, op_id),
            hop: attempt,
        };
        if self.trace.is_on() {
            self.trace.flow(
                "rpc-flow",
                "flow",
                ctx.self_id() as u64,
                0,
                ctx.now(),
                true,
                cctx.trace_id.0 ^ rpc.0,
                [("trace", cctx.trace_id.0), ("attempt", attempt as u64)],
            );
        }
        ctx.send(dst, Envelope::req(rpc, req).with_ctx(cctx));
        let op = self.ops.get_mut(&op_id).expect("checked above");
        op.rpc = Some(rpc);
        op.issued = ctx.now();
        op.attempts = attempt;
        if kind == OpKind::Read {
            self.stats.borrow_mut().read_attempts.inc();
        }
        if arm {
            ctx.timer(RPC_TIMEOUT, TOK_TIMEOUT);
        }
    }

    /// The deadline timer fired: times out each attempt that is due,
    /// oldest first, and re-arms for the oldest one left.
    fn on_deadline(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let now = ctx.now();
        for (_, call) in self.core.calls.due(now) {
            if let Call::Op(op_id) = call {
                self.time_out(ctx, op_id);
            }
        }
        if let Some(deadline) = self.core.calls.next_due() {
            ctx.timer(deadline - now, TOK_TIMEOUT);
        }
    }

    /// Gives up on `op_id`'s attempt in flight: the owner may have
    /// crashed, so the operation waits for a fresh map and is re-issued
    /// from it.
    fn time_out(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64) {
        self.stats.borrow_mut().timeouts.inc();
        // A write attempt may have applied unanswered.
        if self.ops[&op_id].kind == OpKind::Write {
            self.report(ctx.self_id(), ctx.now(), op_id, Outcome::Indeterminate);
        }
        if let Some(op) = self.ops.get_mut(&op_id) {
            op.rpc = None;
        }
        self.waiting_for_map.push(op_id);
        self.core.request_map(ctx);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64, found: bool) {
        let Some(op) = self.ops.remove(&op_id) else {
            return;
        };
        let latency = ctx.now() - op.started;
        let mut s = self.stats.borrow_mut();
        match op.kind {
            OpKind::Read => s.record_read(ctx.now(), latency),
            OpKind::Write => s.record_write(ctx.now(), latency),
        }
        if found {
            s.objects.record(ctx.now(), 1);
        } else {
            s.not_found.inc();
        }
        drop(s);
        self.drain_arrivals(ctx);
    }

    /// Reports operation `op_id`, completed at `now` with `outcome`, to
    /// the audit's `linearizable` checker.
    fn report(&self, client: usize, now: Nanos, op_id: u64, outcome: Outcome) {
        let Some(op) = self.audit.is_on().then(|| self.ops.get(&op_id)).flatten() else {
            return;
        };
        self.audit.client_op(ClientOp {
            client: client as u64,
            hash: op.hash,
            write: op.kind == OpKind::Write,
            invoked: op.started,
            completed: now,
            outcome,
        });
    }

    /// Reports, as indeterminate at `now`, each write with an attempt
    /// still in flight: the run ends, and it may or may not apply.
    /// `client` is this client's actor id.
    pub fn report_writes_in_flight(&self, client: usize, now: Nanos) {
        for (&op_id, op) in &self.ops {
            if op.kind == OpKind::Write && op.rpc.is_some() {
                self.report(client, now, op_id, Outcome::Indeterminate);
            }
        }
    }

    fn on_op_response(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64, resp: Response) {
        let (client, now) = (ctx.self_id(), ctx.now());
        match resp {
            Response::WriteOk { version } | Response::ReadOk { version, .. } => {
                if let Some(op) = self.ops.get(&op_id).filter(|op| op.kind == OpKind::Write) {
                    let mut stats = self.stats.borrow_mut();
                    stats.confirmed_writes.push((op.rank, version));
                }
                self.report(client, now, op_id, Outcome::Version(version));
                self.complete(ctx, op_id, true);
            }
            Response::DeleteOk { .. } => {
                self.complete(ctx, op_id, true);
            }
            Response::Err(Status::NotFound) => {
                self.report(client, now, op_id, Outcome::Miss);
                self.complete(ctx, op_id, false)
            }
            Response::Err(Status::Retry { after }) => {
                self.stats.borrow_mut().retries.inc();
                if let Some(op) = self.ops.get_mut(&op_id) {
                    op.rpc = None;
                    // Exponential back-off: the first retry honors the
                    // server's hint ("a few tens of microseconds", §3);
                    // repeated misses on a cold record back off so a
                    // thousand waiting clients don't saturate the
                    // target's dispatch with retry traffic.
                    op.retries += 1;
                    let factor = 1u64 << op.retries.min(7);
                    let delay =
                        (after.saturating_mul(factor) / 2).min(4 * rocksteady_common::MILLISECOND);
                    ctx.timer(delay, (op_id << 8) | TOK_RETRY);
                }
            }
            Response::Err(Status::UnknownTablet) => {
                self.stats.borrow_mut().map_refreshes.inc();
                if let Some(op) = self.ops.get_mut(&op_id) {
                    op.rpc = None;
                }
                self.waiting_for_map.push(op_id);
                self.core.request_map(ctx);
            }
            _ => self.complete(ctx, op_id, false),
        }
    }
}

/// Maps a response to the journey status code recorded on `rpc-client`
/// attempt instants (see `rocksteady_trace::journey::status`).
fn status_code(resp: &Response) -> u64 {
    match resp {
        Response::Err(Status::Retry { .. }) => 1,
        Response::Err(Status::UnknownTablet) => 2,
        Response::Err(Status::NotFound) => 3,
        Response::Err(_) => 4,
        _ => 0,
    }
}

impl Actor<Envelope> for YcsbClient {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        self.core.request_map(ctx);
        self.arm_arrival(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        match event {
            Event::Message { payload, .. } => {
                let rpc = payload.rpc;
                let Body::Resp(resp) = payload.body else {
                    return;
                };
                if let Response::TabletMapOk { tablets } = resp {
                    if self.core.install_map(rpc, tablets) {
                        let waiting = std::mem::take(&mut self.waiting_for_map);
                        for op_id in waiting {
                            self.issue(ctx, op_id);
                        }
                    }
                    return;
                }
                if let Some(Call::Op(op_id)) = self.core.calls.complete(rpc) {
                    if self.trace.is_on() {
                        if let Some(op) = self.ops.get(&op_id) {
                            let now = ctx.now();
                            self.trace.instant(
                                "rpc-client",
                                "client",
                                ctx.self_id() as u64,
                                0,
                                now,
                                [
                                    ("rpc", rpc.0),
                                    ("issued", op.issued),
                                    ("completed", now),
                                    ("e2e", now - op.issued),
                                    ("trace", TraceId::mint(ctx.self_id() as u64, op_id).0),
                                    ("attempt", op.attempts as u64),
                                    ("status", status_code(&resp)),
                                ],
                            );
                        }
                    }
                    self.on_op_response(ctx, op_id, resp);
                }
            }
            Event::Timer { token } => match token & 0xff {
                TOK_ARRIVAL => {
                    self.pending_arrivals += 1;
                    self.drain_arrivals(ctx);
                    self.arm_arrival(ctx);
                }
                TOK_RETRY => {
                    self.issue(ctx, token >> 8);
                }
                TOK_TIMEOUT => self.on_deadline(ctx),
                _ => {}
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use rocksteady_common::zipf::KeySampler;
    use rocksteady_common::{HashRange, ServerId, MILLISECOND};
    use rocksteady_proto::{TabletDescriptor, TabletState};
    use rocksteady_simnet::{NicConfig, Simulation};

    use super::*;
    use crate::shape::bucket_ranks;
    use crate::stats::client_stats;

    const T: TableId = TableId(1);

    /// How the stub answers a data request, given its attempt number
    /// (`None`: never).
    type Answer = fn(&Request, u32) -> Option<Response>;

    /// Coordinator and server in one: hands out a map that names itself
    /// the owner of everything and answers each attempt as told.
    struct Stub(Answer);

    impl Actor<Envelope> for Stub {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
            let Event::Message { src, payload, .. } = event else {
                return;
            };
            let resp = match &payload.body {
                Body::Req(Request::GetTabletMap) => Some(Response::TabletMapOk {
                    tablets: vec![TabletDescriptor {
                        table: T,
                        range: HashRange::full(),
                        owner: ServerId(0),
                        state: TabletState::Normal,
                    }],
                }),
                Body::Req(req) => (self.0)(req, payload.ctx.hop),
                Body::Resp(_) => None,
            };
            if let Some(resp) = resp {
                ctx.send(src, Envelope::resp(payload.rpc, resp).with_ctx(payload.ctx));
            }
        }
    }

    /// What the client did, read off its state around each event.
    #[derive(Default)]
    struct Record {
        /// Each attempt issued, in issue order (its RPC id's):
        /// `(rpc, op, attempt, issued at)`.
        issued: Vec<(RpcId, u64, u32, Nanos)>,
        /// Each attempt timed out, in the order it was:
        /// `(at, op, attempt, issued at)`.
        timed_out: Vec<(Nanos, u64, u32, Nanos)>,
        /// `TOK_TIMEOUT` timers fired.
        deadline_timers: u64,
    }

    /// The client under test and its record.
    struct Watched(YcsbClient, Record);

    impl Actor<Envelope> for Watched {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
            self.0.on_start(ctx);
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
            let deadline = matches!(event, Event::Timer { token } if token & 0xff == TOK_TIMEOUT);
            let waiting = self.0.waiting_for_map.len();
            self.0.on_event(ctx, event);
            let (client, record) = (&self.0, &mut self.1);
            if deadline {
                // A timed-out operation joins the map queue, in the
                // order it timed out.
                record.deadline_timers += 1;
                for op_id in &client.waiting_for_map[waiting..] {
                    let op = &client.ops[op_id];
                    record
                        .timed_out
                        .push((ctx.now(), *op_id, op.attempts, op.issued));
                }
            }
            let last = record.issued.last().map_or(RpcId(0), |i| i.0);
            let mut new: Vec<_> = client
                .ops
                .iter()
                .filter_map(|(&id, op)| {
                    let rpc = op.rpc.filter(|&rpc| rpc > last)?;
                    Some((rpc, id, op.attempts, op.issued))
                })
                .collect();
            new.sort_unstable();
            record.issued.extend(new);
        }
    }

    /// Runs one client, half reads and half writes at 20 000 ops/s,
    /// against a stub answering as `answer` says, for `until`.
    fn run(answer: Answer, until: Nanos) -> (Record, u64) {
        const KEYS: u64 = 1_000;
        let mut dir = Directory::default();
        dir.servers.push(0);
        let mut cfg = YcsbConfig::ycsb_b(dir, T, KEYS, 20_000.0);
        cfg.read_fraction = 0.5;
        let stats = client_stats(10 * MILLISECOND);
        let sampler = KeySampler::new(KEYS, cfg.dist, true);
        let ranks = bucket_ranks(KEYS, cfg.key_len, cfg.shape.buckets());
        let client = YcsbClient::with_sampler(cfg, stats.clone(), sampler, ranks);
        let mut sim = Simulation::new(NicConfig::default(), 7);
        sim.add_actor(Box::new(Stub(answer)));
        let id = sim.add_actor(Box::new(Watched(client, Record::default())));
        sim.run_until(until);
        let record = std::mem::take(&mut sim.actor_as::<Watched>(id).1);
        let timeouts = stats.borrow().timeouts.get();
        (record, timeouts)
    }

    fn answered(req: &Request, _: u32) -> Option<Response> {
        Some(match req {
            Request::Write { .. } => Response::WriteOk { version: 1 },
            _ => Response::ReadOk {
                value: Bytes::new(),
                version: 1,
            },
        })
    }

    #[test]
    fn unanswered_attempts_time_out_in_issue_order_and_are_re_issued() {
        let end = 100 * MILLISECOND;
        let (record, timeouts) = run(|_, _| None, end);
        let order: Vec<(u64, u32)> = record.issued.iter().map(|i| (i.1, i.2)).collect();
        let timed: Vec<(u64, u32)> = record.timed_out.iter().map(|t| (t.1, t.2)).collect();
        let due = record
            .issued
            .iter()
            .filter(|i| i.3 + RPC_TIMEOUT < end)
            .count();
        assert!(
            order.starts_with(&timed) && timed.len() >= due,
            "the attempts due by {end} ns did not time out in issue order"
        );
        assert!(due > 300, "only {due} attempts came due");
        assert_eq!(timeouts, timed.len() as u64);
        for &(at, op, attempt, issued) in &record.timed_out {
            assert_eq!(at, issued + RPC_TIMEOUT, "op {op} attempt {attempt}");
            if at + MILLISECOND < end {
                assert!(
                    order.contains(&(op, attempt + 1)),
                    "op {op} was not re-issued after attempt {attempt} timed out"
                );
            }
        }
        assert!(timed.iter().any(|&(_, attempt)| attempt >= 3));
    }

    #[test]
    fn a_retried_operation_is_not_timed_out_on_its_first_deadline() {
        // The first attempt is turned away with a 1 ms back-off; every
        // later one goes unanswered.
        let retry_first = |_: &Request, attempt: u32| {
            (attempt == 1).then_some(Response::Err(Status::Retry { after: MILLISECOND }))
        };
        let (record, _) = run(retry_first, 100 * MILLISECOND);
        assert!(record.timed_out.len() > 100);
        for &(at, op, attempt, issued) in &record.timed_out {
            assert!(attempt >= 2, "op {op}'s retried first attempt timed out");
            assert_eq!(
                at,
                issued + RPC_TIMEOUT,
                "op {op} attempt {attempt} timed out on another attempt's deadline"
            );
        }
    }

    #[test]
    fn an_answered_client_fires_one_deadline_timer_per_rpc_timeout() {
        let end = 200 * MILLISECOND;
        let (record, timeouts) = run(answered, end);
        assert_eq!(timeouts, 0);
        assert!(record.issued.len() > 3_000);
        let bound = end.div_ceil(RPC_TIMEOUT) + 1;
        assert!(
            record.deadline_timers <= bound,
            "{} deadline timers for {} attempts in {end} ns, over {bound}",
            record.deadline_timers,
            record.issued.len()
        );
    }
}
