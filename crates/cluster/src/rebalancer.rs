//! The autonomous rebalancer: closes the loop from load to placement.
//!
//! Rocksteady's premise is that migration is cheap enough to use as a
//! routine load-management tool (§1). `Rebalancer` is the missing
//! operator, and the observer's fourth reader: on each observer tick
//! whose time is a multiple of [`RebalancerConfig::interval`] — first in
//! that tick, before the sampler — it takes per-server load from the
//! observer's stats handles (dispatch utilization — the resource that
//! saturates first — and op rates, as deltas over its own interval),
//! reads tablet ownership from the coordinator map and tail headroom
//! from the SLO window the monitor closed one tick earlier, asks a
//! pluggable [`PlacementPolicy`] for tablet moves, and sends the admitted
//! ones as ordinary `MigrateTablet` RPCs through the observer — the same
//! path a scripted `ControlCmd::Migrate` takes. [`AdmissionCaps`] bounds
//! how many migrations run at once per source, per target, and
//! cluster-wide, so reactive placement can never pile unbounded
//! migration load onto one participant.
//!
//! It owns no actor and no timer, so arming [`ClusterConfig::rebalancer`]
//! adds no event and renumbers no actor: a policy that proposes nothing
//! leaves the schedule exactly as a disarmed cluster's. Everything stays
//! deterministic per seed — the cadence is the observer's, every scrape
//! iterates servers in `ServerId` order, and policies are pure.
//!
//! [`ClusterConfig::rebalancer`]: crate::ClusterConfig::rebalancer

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady_audit::{AuditKind, AuditSink};
use rocksteady_common::{MigrationId, Nanos, ServerId, SECOND};
use rocksteady_proto::{Body, Calls, Envelope, Request, Response, TabletState};
use rocksteady_rebalancer::{
    AdmissionCaps, ClusterView, MoveInFlight, MoveProposal, PlacementPolicy, ServerLoad, TabletInfo,
};
use rocksteady_server::stats::StatsHandle;
use rocksteady_simnet::{ActorId, Ctx, Directory};

use crate::coordinator_actor::CoordHandle;

/// Rebalancer ids start here so they can never collide with the small
/// literal ids experiment scripts hand to `ControlCmd::Migrate`.
pub const REBALANCER_MIG_BASE: u64 = 1 << 32;

/// Configuration for the autonomous rebalancer.
#[derive(Debug, Clone)]
pub struct RebalancerConfig {
    /// Decision cadence (virtual time between load scrapes); a multiple
    /// of `ClusterConfig::sample_interval`, as the observer's ticks carry
    /// the decisions.
    pub interval: Nanos,
    /// Concurrency ceilings for admitted migrations.
    pub caps: AdmissionCaps,
    /// The placement strategy.
    pub policy: Box<dyn PlacementPolicy>,
}

impl Default for RebalancerConfig {
    fn default() -> Self {
        RebalancerConfig {
            interval: SECOND / 10,
            caps: AdmissionCaps::default(),
            policy: Box::new(rocksteady_rebalancer::GreedyLoadDelta::default()),
        }
    }
}

/// One move the rebalancer issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssuedMove {
    /// The id the rebalancer assigned (`>= REBALANCER_MIG_BASE`).
    pub id: MigrationId,
    /// When it was issued.
    pub at: Nanos,
    /// The admitted proposal.
    pub proposal: MoveProposal,
}

/// What the rebalancer has done so far, queryable between run segments.
#[derive(Debug, Clone, Default)]
pub struct RebalancerReport {
    /// Decision ticks taken.
    pub ticks: u64,
    /// Moves policies proposed (pre-admission).
    pub proposed: u64,
    /// Moves admitted and issued.
    pub admitted: u64,
    /// Issued moves that completed (target confirmed the migration).
    pub completed: u64,
    /// Issued moves the target refused or abandoned.
    pub rejected: u64,
    /// Every issued move, in issue order.
    pub moves: Vec<IssuedMove>,
}

/// Shared handle to the rebalancer's report.
pub type RebalancerHandle = Rc<RefCell<RebalancerReport>>;

/// The placement loop. One per armed cluster, held by the observer.
pub(crate) struct Rebalancer {
    interval: Nanos,
    caps: AdmissionCaps,
    policy: Box<dyn PlacementPolicy>,
    coord: CoordHandle,
    dir: Directory,
    out: RebalancerHandle,
    /// Cumulative counters at the previous decision, for deltas over
    /// this loop's own interval (not the sampler's clamped windows).
    prev_dispatch_ns: BTreeMap<ServerId, u64>,
    prev_ops: BTreeMap<ServerId, u64>,
    /// Issued moves awaiting the target's final response, in issue order.
    in_flight: Calls<ActorId, IssuedMove>,
    next_mig: u64,
    /// Protocol auditing (zero-cost when disarmed): proposals,
    /// admissions, and outcomes anchor the explain engine's causal
    /// chains.
    audit: AuditSink,
}

impl Rebalancer {
    /// A loop over the cluster's shared coordinator map, reporting into
    /// `out`.
    pub(crate) fn new(
        cfg: RebalancerConfig,
        coord: CoordHandle,
        dir: Directory,
        out: RebalancerHandle,
        audit: AuditSink,
    ) -> Self {
        Rebalancer {
            interval: cfg.interval,
            caps: cfg.caps,
            policy: cfg.policy,
            coord,
            dir,
            out,
            prev_dispatch_ns: BTreeMap::new(),
            prev_ops: BTreeMap::new(),
            in_flight: Calls::default(),
            next_mig: 0,
            audit,
        }
    }

    /// Whether an observer tick at `now` carries a decision.
    pub(crate) fn due(&self, now: Nanos) -> bool {
        now.is_multiple_of(self.interval)
    }

    /// Samples per-server load over the last interval and assembles the
    /// policy's view of the cluster.
    fn scrape(
        &mut self,
        now: Nanos,
        server_stats: &[(ServerId, StatsHandle)],
        slo_headroom: Option<i64>,
    ) -> ClusterView {
        let map = self.coord.borrow().tablet_map();
        let mut servers = Vec::with_capacity(server_stats.len());
        for (id, stats) in server_stats {
            let busy = stats.dispatch_busy_ns.get();
            let ops = stats.ops_served.get();
            let prev_busy = self.prev_dispatch_ns.insert(*id, busy).unwrap_or(0);
            let prev_ops = self.prev_ops.insert(*id, ops).unwrap_or(0);
            let window = self.interval as f64;
            let mut tablets: Vec<TabletInfo> = map
                .iter()
                .filter(|t| t.owner == *id && t.state == TabletState::Normal)
                .map(|t| TabletInfo {
                    table: t.table,
                    range: t.range,
                })
                .collect();
            tablets.sort_by_key(|t| (t.table, t.range.start));
            servers.push(ServerLoad {
                server: *id,
                dispatch_util: ((busy - prev_busy) as f64 / window).min(1.0),
                ops_per_sec: (ops - prev_ops) as f64 * 1e9 / window,
                tablets,
            });
        }
        // In-flight view: every coordinator lineage dep (covers scripted
        // migrations too) plus our own issued moves whose
        // MigrationStarting has not reached the coordinator yet.
        let mut seen: Vec<MigrationId> = Vec::new();
        let mut in_flight = Vec::new();
        for dep in self.coord.borrow().lineage_deps() {
            seen.push(dep.id);
            in_flight.push(MoveInFlight {
                source: dep.source,
                target: dep.target,
            });
        }
        for mv in self.in_flight.iter() {
            if !seen.contains(&mv.id) {
                in_flight.push(MoveInFlight {
                    source: mv.proposal.source,
                    target: mv.proposal.target,
                });
            }
        }
        ClusterView {
            at: now,
            servers,
            slo_headroom,
            in_flight,
        }
    }

    /// One decision over `servers` (in `ServerId` order) and the last
    /// closed SLO window's headroom: propose, admit, and send.
    pub(crate) fn tick(
        &mut self,
        ctx: &mut Ctx<'_, Envelope>,
        servers: &[(ServerId, StatsHandle)],
        slo_headroom: Option<i64>,
    ) {
        let now = ctx.now();
        let view = self.scrape(now, servers, slo_headroom);
        let proposals = self.policy.propose(&view);
        self.out.borrow_mut().ticks += 1;
        self.out.borrow_mut().proposed += proposals.len() as u64;
        let admitted = self.caps.admit(&view.in_flight, proposals);
        for p in admitted {
            self.next_mig += 1;
            let id = MigrationId(REBALANCER_MIG_BASE + self.next_mig);
            let issued = IssuedMove {
                id,
                at: now,
                proposal: p,
            };
            let dst = self.dir.actor_of(p.target);
            let rpc = self.in_flight.open(dst, issued, None, now);
            let mut out = self.out.borrow_mut();
            out.admitted += 1;
            out.moves.push(issued);
            drop(out);
            self.audit.emit(now, AuditKind::RebalanceAdmitted { id });
            ctx.send(
                dst,
                Envelope::req(
                    rpc,
                    Request::MigrateTablet {
                        id,
                        table: p.table,
                        range: p.range,
                        source: p.source,
                    },
                ),
            );
        }
    }

    /// Takes a target's answer to one of our `MigrateTablet`s, sent when
    /// the run finishes (`MigrateTabletOk`) or fails (anything else);
    /// either way the move stops counting against the caps.
    pub(crate) fn answered(&mut self, answer: &Envelope) {
        if self.in_flight.complete(answer.rpc).is_none() {
            return;
        }
        let ok = matches!(answer.body, Body::Resp(Response::MigrateTabletOk));
        let mut out = self.out.borrow_mut();
        if ok {
            out.completed += 1;
        } else {
            out.rejected += 1;
        }
    }
}
