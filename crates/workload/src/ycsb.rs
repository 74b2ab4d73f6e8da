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
use rocksteady_audit::{AuditKind, AuditSink};
use rocksteady_common::rng::Prng;
use rocksteady_common::zipf::{KeyDist, KeySampler};
use rocksteady_common::FxHashMap;
use rocksteady_common::{key_hash, CausalCtx, KeyHash, Nanos, RpcId, TableId, TraceId};
use rocksteady_proto::{Body, Envelope, Request, Response, Status};
use rocksteady_simnet::{Actor, Ctx, Directory, Event};
use rocksteady_trace::Tracer;

use crate::core::{write_primary_key, ClientCore};
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
    rpc_to_op: FxHashMap<RpcId, u64>,
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
    /// Protocol auditing (zero-cost when disarmed): confirmed writes and
    /// read-backs feed the auditor's read-your-writes spot checks.
    audit: AuditSink,
    /// Per-key max confirmed write `(version, confirmed_at)`, kept only
    /// while the audit sink is armed. A read is spot-checked only when it
    /// was *issued after* that confirmation — in-flight reads racing the
    /// write are legitimately allowed to see the older version.
    confirmed: FxHashMap<KeyHash, (u64, Nanos)>,
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
            rpc_to_op: FxHashMap::default(),
            waiting_for_map: Vec::new(),
            key_buf: Vec::new(),
            bucket_ranks,
            next_op: 1,
            pending_arrivals: 0,
            value,
            trace: Tracer::off(),
            audit: AuditSink::off(),
            confirmed: FxHashMap::default(),
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

    /// Arms protocol auditing: confirmed writes and subsequent reads of
    /// the same keys are reported for read-your-writes spot checks.
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
        let rpc = self.core.alloc_rpc();
        let dst = self.core.actor_of(owner);
        // Every attempt of one operation carries the same minted trace
        // id; the hop field is the attempt number, so downstream spans
        // (and the PriorityPull a read miss spawns) chain back to the
        // exact attempt that caused them.
        let cctx = CausalCtx {
            trace_id: TraceId::mint(ctx.self_id() as u64, op_id),
            parent_span: 0,
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
        self.rpc_to_op.insert(rpc, op_id);
        let op = self.ops.get_mut(&op_id).expect("checked above");
        op.rpc = Some(rpc);
        op.issued = ctx.now();
        op.attempts = attempt;
        if kind == OpKind::Read {
            self.stats.borrow_mut().read_attempts.inc();
        }
        ctx.timer(RPC_TIMEOUT, (op_id << 8) | TOK_TIMEOUT);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64, found: bool) {
        let Some(op) = self.ops.remove(&op_id) else {
            return;
        };
        if let Some(rpc) = op.rpc {
            self.rpc_to_op.remove(&rpc);
        }
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

    /// Reports a completed read (version 0 = miss) for read-your-writes
    /// spot checking, but only when this key has a confirmed write and
    /// the read attempt was issued after that confirmation — earlier
    /// reads may legitimately observe the pre-write version.
    fn audit_read(&mut self, ctx: &Ctx<'_, Envelope>, op_id: u64, version: u64) {
        if !self.audit.is_on() {
            return;
        }
        let Some(op) = self.ops.get(&op_id) else {
            return;
        };
        let hash = op.hash;
        let Some(&(_, confirmed_at)) = self.confirmed.get(&hash) else {
            return;
        };
        if op.issued > confirmed_at {
            self.audit.emit(
                ctx.now(),
                AuditKind::ClientRead {
                    client: ctx.self_id() as u64,
                    hash,
                    version,
                },
            );
        }
    }

    fn on_op_response(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64, resp: Response) {
        match resp {
            Response::WriteOk { version } => {
                if let Some(op) = self.ops.get(&op_id) {
                    self.stats
                        .borrow_mut()
                        .confirmed_writes
                        .push((op.rank, version));
                    if self.audit.is_on() {
                        let hash = op.hash;
                        let entry = self.confirmed.entry(hash).or_insert((0, 0));
                        if version > entry.0 {
                            *entry = (version, ctx.now());
                        }
                        self.audit.emit(
                            ctx.now(),
                            AuditKind::ClientWrite {
                                client: ctx.self_id() as u64,
                                hash,
                                version,
                            },
                        );
                    }
                }
                self.complete(ctx, op_id, true);
            }
            Response::ReadOk { version, .. } => {
                self.audit_read(ctx, op_id, version);
                self.complete(ctx, op_id, true);
            }
            Response::DeleteOk { .. } => {
                self.complete(ctx, op_id, true);
            }
            Response::Err(Status::NotFound) => {
                if let Some(op) = self.ops.get(&op_id) {
                    if op.kind == OpKind::Read {
                        self.audit_read(ctx, op_id, 0);
                    }
                }
                self.complete(ctx, op_id, false)
            }
            Response::Err(Status::Retry { after }) => {
                self.stats.borrow_mut().retries.inc();
                if let Some(op) = self.ops.get_mut(&op_id) {
                    if let Some(rpc) = op.rpc.take() {
                        self.rpc_to_op.remove(&rpc);
                    }
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
                    if let Some(rpc) = op.rpc.take() {
                        self.rpc_to_op.remove(&rpc);
                    }
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
                if let Some(op_id) = self.rpc_to_op.remove(&rpc) {
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
                TOK_TIMEOUT => {
                    let op_id = token >> 8;
                    let timed_out = match self.ops.get(&op_id) {
                        Some(op) => {
                            op.rpc.is_some() && ctx.now().saturating_sub(op.issued) >= RPC_TIMEOUT
                        }
                        None => false,
                    };
                    if timed_out {
                        self.stats.borrow_mut().timeouts.inc();
                        if let Some(op) = self.ops.get_mut(&op_id) {
                            if let Some(rpc) = op.rpc.take() {
                                self.rpc_to_op.remove(&rpc);
                            }
                        }
                        // The owner may have crashed: refresh and retry.
                        self.waiting_for_map.push(op_id);
                        if self.core.request_map(ctx).is_none() && !self.core.map_pending() {
                            self.issue(ctx, op_id);
                        }
                    }
                }
                _ => {}
            },
        }
    }
}
