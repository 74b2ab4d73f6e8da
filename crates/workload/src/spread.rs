//! The multiget *spread* microbenchmark (Figure 3).
//!
//! Clients issue back-to-back 7-key multigets; the `spread` knob sets how
//! many servers each multiget touches. At spread 1 all seven keys come
//! from one server (one RPC); at spread `s > 1` the first server
//! contributes `7 - (s-1)` keys and each of the other `s-1` servers one
//! key, so the client issues `s` parallel RPCs for the same seven
//! objects — same worker work cluster-wide, `s×` the dispatch work. The
//! paper uses this to show dispatch saturation destroying locality
//! gains (§2.1).

use bytes::Bytes;
use rocksteady_common::rng::Prng;
use rocksteady_common::{FxHashMap, Nanos, ServerId, TableId};
use rocksteady_proto::{Body, Envelope, Request, Response};
use rocksteady_simnet::{Actor, Ctx, Directory, Event};

use crate::core::{primary_hash, primary_key, Call, ClientCore};
use crate::stats::ClientStatsHandle;

/// Configuration for one spread client.
#[derive(Debug, Clone)]
pub struct SpreadConfig {
    /// Cluster wiring.
    pub dir: Directory,
    /// Table to read.
    pub table: TableId,
    /// Key length in bytes.
    pub key_len: usize,
    /// Key ranks owned by each server (precomputed by the harness from
    /// the tablet split).
    pub keys_by_server: Vec<(ServerId, Vec<u64>)>,
    /// Servers touched per multiget (1–7 in the paper).
    pub spread: usize,
    /// Keys per multiget (7 in the paper).
    pub keys_per_op: usize,
    /// Multigets kept in flight back-to-back (closed loop).
    pub concurrency: usize,
    /// RNG seed.
    pub seed: u64,
}

#[derive(Debug)]
struct Op {
    started: Nanos,
    remaining: u32,
    objects: u64,
}

/// The spread client actor (closed loop).
pub struct SpreadClient {
    cfg: SpreadConfig,
    core: ClientCore,
    stats: ClientStatsHandle,
    rng: Prng,
    ops: FxHashMap<u64, Op>,
    next_op: u64,
}

impl SpreadClient {
    /// Creates a spread client.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is zero, exceeds the server count, or exceeds
    /// `keys_per_op`.
    pub fn new(cfg: SpreadConfig, stats: ClientStatsHandle) -> Self {
        assert!(cfg.spread >= 1 && cfg.spread <= cfg.keys_by_server.len());
        assert!(cfg.spread <= cfg.keys_per_op);
        let rng = Prng::new(cfg.seed);
        SpreadClient {
            core: ClientCore::new(cfg.dir.clone(), cfg.table),
            stats,
            rng,
            ops: FxHashMap::default(),
            next_op: 1,
            cfg,
        }
    }

    fn issue_one(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let servers = self.cfg.keys_by_server.len();
        let first = self.rng.next_below(servers as u64) as usize;
        let op_id = self.next_op;
        self.next_op += 1;
        // Server i of the op: the first contributes the bulk, the rest
        // one key each (the paper's 6+1 shape at spread 2).
        let mut rpcs = 0;
        let mut total_keys = 0;
        for i in 0..self.cfg.spread {
            let count = if i == 0 {
                self.cfg.keys_per_op - (self.cfg.spread - 1)
            } else {
                1
            };
            let (server, ranks) = &self.cfg.keys_by_server[(first + i) % servers];
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                let rank = ranks[self.rng.next_below(ranks.len() as u64) as usize];
                keys.push((
                    Bytes::from(primary_key(rank, self.cfg.key_len)),
                    primary_hash(rank, self.cfg.key_len),
                ));
            }
            total_keys += keys.len();
            let dst = self.core.actor_of(*server);
            let rpc = self.core.calls.open(dst, Call::Op(op_id), None, ctx.now());
            ctx.send(
                dst,
                Envelope::req(
                    rpc,
                    Request::MultiRead {
                        table: self.cfg.table,
                        keys,
                    },
                ),
            );
            rpcs += 1;
        }
        self.ops.insert(
            op_id,
            Op {
                started: ctx.now(),
                remaining: rpcs,
                objects: total_keys as u64,
            },
        );
    }
}

impl Actor<Envelope> for SpreadClient {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        for _ in 0..self.cfg.concurrency {
            self.issue_one(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        let Event::Message { payload, .. } = event else {
            return;
        };
        let Body::Resp(resp) = payload.body else {
            return;
        };
        let Some(Call::Op(op_id)) = self.core.calls.complete(payload.rpc) else {
            return;
        };
        debug_assert!(matches!(resp, Response::MultiReadOk { .. }), "{resp:?}");
        let finished = {
            let op = self.ops.get_mut(&op_id).expect("op for rpc");
            op.remaining -= 1;
            op.remaining == 0
        };
        if finished {
            let op = self.ops.remove(&op_id).expect("checked");
            let mut s = self.stats.borrow_mut();
            s.record_read(ctx.now(), ctx.now() - op.started);
            for _ in 0..op.objects {
                s.objects.record(ctx.now(), 1);
            }
            drop(s);
            // Closed loop: immediately issue the next multiget.
            self.issue_one(ctx);
        }
    }
}
