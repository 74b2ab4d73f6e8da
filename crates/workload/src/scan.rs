//! The secondary-index scan workload (Figure 4).
//!
//! Each operation is the two-step dance of Figure 2: a short range scan
//! against the indexlet owning the start key (returning primary-key
//! hashes), then multi-gets of those hashes against the backing tablets,
//! grouped by owner. The client-observed latency covers both steps; the
//! *cluster-wide dispatch load* depends on how many servers the second
//! step fans out to — which is exactly the trade-off Figure 4 sweeps.

use std::collections::BTreeMap;

use bytes::Bytes;
use rocksteady_common::ids::IndexId;
use rocksteady_common::rng::Prng;
use rocksteady_common::zipf::{KeyDist, KeySampler};
use rocksteady_common::{FxHashMap, KeyHash, Nanos, ServerId, TableId};
use rocksteady_proto::{Body, Envelope, Request, Response};
use rocksteady_simnet::{Actor, Ctx, Directory, Event};

use crate::core::{Call, ClientCore};
use crate::stats::ClientStatsHandle;

const TOK_ARRIVAL: u64 = 1;

/// Formats the `rank`-th secondary key (lexicographic order == numeric
/// order, so range scans work).
pub fn secondary_key(rank: u64, key_len: usize) -> Vec<u8> {
    let mut key = format!("sec{rank:020}").into_bytes();
    key.resize(key_len.max(key.len()), b'0');
    key
}

/// Configuration for one index-scan client.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Cluster wiring.
    pub dir: Directory,
    /// Indexed table.
    pub table: TableId,
    /// Which index.
    pub index: IndexId,
    /// Secondary-key length (paper: 30).
    pub sec_key_len: usize,
    /// Number of records (== number of secondary keys).
    pub num_keys: u64,
    /// Indexlet ranges and owners: `(lo, exclusive hi, owner)`.
    pub indexlets: Vec<(Vec<u8>, Option<Vec<u8>>, ServerId)>,
    /// Records per scan (paper: 4).
    pub scan_len: u64,
    /// Start-key skew (paper: Zipfian θ = 0.5).
    pub dist: KeyDist,
    /// Offered scans per second from this client.
    pub scans_per_sec: f64,
    /// Maximum scans in flight.
    pub max_outstanding: usize,
    /// RNG seed.
    pub seed: u64,
}

#[derive(Debug)]
enum Phase {
    /// Waiting for the indexlet's hash list.
    Lookup,
    /// Waiting for `remaining` multi-get responses.
    Fetch { remaining: u32, objects: u64 },
}

#[derive(Debug)]
struct Op {
    started: Nanos,
    phase: Phase,
}

/// The index-scan client actor (open loop).
pub struct ScanClient {
    cfg: ScanConfig,
    core: ClientCore,
    stats: ClientStatsHandle,
    sampler: KeySampler,
    rng: Prng,
    ops: FxHashMap<u64, Op>,
    next_op: u64,
    pending_arrivals: u64,
    map_ready: bool,
}

impl ScanClient {
    /// Creates a scan client.
    pub fn new(cfg: ScanConfig, stats: ClientStatsHandle) -> Self {
        let sampler = KeySampler::new(cfg.num_keys, cfg.dist, false);
        let rng = Prng::new(cfg.seed);
        ScanClient {
            core: ClientCore::new(cfg.dir.clone(), cfg.table),
            stats,
            sampler,
            rng,
            ops: FxHashMap::default(),
            next_op: 1,
            pending_arrivals: 0,
            map_ready: false,
            cfg,
        }
    }

    fn indexlet_owner(&self, begin: &[u8]) -> Option<ServerId> {
        self.cfg
            .indexlets
            .iter()
            .find(|(lo, hi, _)| {
                begin >= lo.as_slice() && hi.as_ref().is_none_or(|h| begin < h.as_slice())
            })
            .map(|(_, _, owner)| *owner)
    }

    fn arm_arrival(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let mean = 1e9 / self.cfg.scans_per_sec;
        let gap = self.rng.next_exp(mean).max(1.0) as Nanos;
        ctx.timer(gap, TOK_ARRIVAL);
    }

    fn drain(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        if !self.map_ready {
            return;
        }
        while self.pending_arrivals > 0 && self.ops.len() < self.cfg.max_outstanding {
            self.pending_arrivals -= 1;
            self.issue_scan(ctx);
        }
    }

    fn issue_scan(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        let start = self.sampler.sample(&mut self.rng);
        let end = (start + self.cfg.scan_len - 1).min(self.cfg.num_keys - 1);
        let begin_key = secondary_key(start, self.cfg.sec_key_len);
        let end_key = secondary_key(end, self.cfg.sec_key_len);
        let Some(owner) = self.indexlet_owner(&begin_key) else {
            return;
        };
        let op_id = self.next_op;
        self.next_op += 1;
        let dst = self.core.actor_of(owner);
        let rpc = self.core.calls.open(dst, Call::Op(op_id), None, ctx.now());
        ctx.send(
            dst,
            Envelope::req(
                rpc,
                Request::IndexScan {
                    table: self.cfg.table,
                    index: self.cfg.index,
                    begin: Bytes::from(begin_key),
                    end: Bytes::from(end_key),
                    limit: self.cfg.scan_len as u32,
                },
            ),
        );
        self.ops.insert(
            op_id,
            Op {
                started: ctx.now(),
                phase: Phase::Lookup,
            },
        );
    }

    fn on_hashes(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64, hashes: Vec<KeyHash>) {
        if hashes.is_empty() {
            self.finish(ctx, op_id, 0);
            return;
        }
        // Group the hashes by current tablet owner (Figure 2: the number
        // of backing tablets dictates the fan-out). Ordered, because the
        // fetches go out in this map's order and a send order that
        // differs between processes is a different run.
        let mut by_owner: BTreeMap<ServerId, Vec<KeyHash>> = BTreeMap::new();
        for h in hashes {
            let Some(owner) = self.core.owner_of(h) else {
                continue;
            };
            by_owner.entry(owner).or_default().push(h);
        }
        let mut remaining = 0;
        let mut objects = 0;
        for (owner, hashes) in by_owner {
            objects += hashes.len() as u64;
            let dst = self.core.actor_of(owner);
            let rpc = self.core.calls.open(dst, Call::Op(op_id), None, ctx.now());
            ctx.send(
                dst,
                Envelope::req(
                    rpc,
                    Request::MultiReadHash {
                        table: self.cfg.table,
                        hashes,
                    },
                ),
            );
            remaining += 1;
        }
        if remaining == 0 {
            self.finish(ctx, op_id, 0);
            return;
        }
        if let Some(op) = self.ops.get_mut(&op_id) {
            op.phase = Phase::Fetch { remaining, objects };
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, Envelope>, op_id: u64, objects: u64) {
        let Some(op) = self.ops.remove(&op_id) else {
            return;
        };
        let mut s = self.stats.borrow_mut();
        s.record_read(ctx.now(), ctx.now() - op.started);
        for _ in 0..objects {
            s.objects.record(ctx.now(), 1);
        }
        drop(s);
        self.drain(ctx);
    }
}

impl Actor<Envelope> for ScanClient {
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
                        self.map_ready = true;
                        self.drain(ctx);
                    }
                    return;
                }
                let Some(Call::Op(op_id)) = self.core.calls.complete(rpc) else {
                    return;
                };
                match resp {
                    Response::IndexScanOk { hashes, .. } => {
                        self.on_hashes(ctx, op_id, hashes);
                    }
                    Response::MultiReadHashOk { .. } => {
                        let done = match self.ops.get_mut(&op_id) {
                            Some(Op {
                                phase: Phase::Fetch { remaining, objects },
                                ..
                            }) => {
                                *remaining -= 1;
                                if *remaining == 0 {
                                    Some(*objects)
                                } else {
                                    None
                                }
                            }
                            _ => None,
                        };
                        if let Some(objects) = done {
                            self.finish(ctx, op_id, objects);
                        }
                    }
                    _ => {
                        // Scan failed (stale map); drop the op.
                        self.ops.remove(&op_id);
                        self.drain(ctx);
                    }
                }
            }
            Event::Timer { token } => {
                if token == TOK_ARRIVAL {
                    self.pending_arrivals += 1;
                    self.drain(ctx);
                    self.arm_arrival(ctx);
                }
            }
        }
    }
}
