//! Autonomous tablet placement: policies and admission control.
//!
//! Rocksteady makes migration cheap enough to use *reactively* — the
//! paper's motivating scenarios (§1, §2.1) are load imbalance from
//! skew shift, growth, and node additions, all of which want a
//! coordinator-side loop that notices imbalance and starts migrations
//! on its own. This crate is the pure decision-making half of that
//! loop: given a [`ClusterView`] (per-server load, tablet ownership,
//! SLO headroom, in-flight migrations), a [`PlacementPolicy`] proposes
//! tablet moves and [`AdmissionCaps`] bounds how many may run at once.
//!
//! Everything here is deterministic and side-effect free — the driving
//! actor (in `rocksteady-cluster`) owns the clock, the RPCs, and the
//! migration ids. Policies are pluggable behind a boxed trait so
//! experiments can swap strategies without touching the actor.

use rocksteady_common::{HashRange, Nanos, ServerId, TableId};

/// One tablet as the placement loop sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabletInfo {
    /// Owning table.
    pub table: TableId,
    /// Key-hash range.
    pub range: HashRange,
}

/// One server's load sample over the last rebalancing interval.
#[derive(Debug, Clone)]
pub struct ServerLoad {
    /// The server.
    pub server: ServerId,
    /// Dispatch-core utilization over the window, 0.0..=1.0. The
    /// dispatch core is the resource that saturates first (§2.1), so
    /// placement balances it rather than worker time or byte counts.
    pub dispatch_util: f64,
    /// Client operations served over the window, per second.
    pub ops_per_sec: f64,
    /// Tablets this server currently owns, in `(table, range.start)`
    /// order.
    pub tablets: Vec<TabletInfo>,
}

/// A migration currently in flight (issued but not yet finished or
/// abandoned), as the admission controller must account for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveInFlight {
    /// Pull source.
    pub source: ServerId,
    /// Replay target.
    pub target: ServerId,
}

/// What a policy sees when asked for proposals.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Virtual time of the sample.
    pub at: Nanos,
    /// Per-server loads, sorted by [`ServerId`] (determinism: policies
    /// iterate in this order and break ties by it).
    pub servers: Vec<ServerLoad>,
    /// `sla - windowed p99.9` from the live SLO monitor; `None` when no
    /// SLA is configured or no window has completed yet.
    pub slo_headroom: Option<i64>,
    /// Migrations already running.
    pub in_flight: Vec<MoveInFlight>,
}

/// One proposed tablet move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveProposal {
    /// Tablet to move.
    pub table: TableId,
    /// Its range (must already be a tablet boundary).
    pub range: HashRange,
    /// Current owner.
    pub source: ServerId,
    /// Proposed new owner.
    pub target: ServerId,
}

/// A placement strategy. Implementations must be deterministic: the
/// same sequence of views must always produce the same proposals, in
/// the same order (policies may keep history — e.g. move cooldowns —
/// but never non-deterministic state).
pub trait PlacementPolicy {
    /// Short stable name (lands in reports and CSV headers).
    fn name(&self) -> &'static str;

    /// Proposes tablet moves for this view, most urgent first. The
    /// caller applies admission control; policies should not try to
    /// bound concurrency themselves beyond not proposing nonsense.
    fn propose(&mut self, view: &ClusterView) -> Vec<MoveProposal>;

    /// Clones the policy behind the trait object (configs holding a
    /// boxed policy stay `Clone`).
    fn clone_box(&self) -> Box<dyn PlacementPolicy>;
}

impl Clone for Box<dyn PlacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl std::fmt::Debug for Box<dyn PlacementPolicy> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlacementPolicy({})", self.name())
    }
}

/// Greedy dispatch-load leveling.
///
/// Repeatedly pairs the hottest server with the coldest and proposes
/// moving one of the hot server's tablets across, while the utilization
/// gap exceeds `min_delta`. Per-tablet load is attributed uniformly
/// (`util / tablets`): the simulator keeps per-server, not per-tablet,
/// counters, and tablet-granularity moves converge under uniform
/// attribution as long as hot regions span whole tablets.
#[derive(Debug, Clone)]
pub struct GreedyLoadDelta {
    /// Minimum hottest-minus-coldest dispatch-utilization gap before any
    /// move is proposed (hysteresis: rebalancing churn is not free).
    pub min_delta: f64,
    /// Most proposals per round.
    pub max_moves: usize,
    /// Once proposed, a tablet is not proposed again within this window
    /// (0 disables). Uniform attribution cannot tell which tablet
    /// carries a hotspot, so without a cooldown a single scorching
    /// tablet ping-pongs between servers every round — each bounce a
    /// full migration plus a client-retry storm.
    pub cooldown: Nanos,
    /// Recently proposed tablets: `(table, range.start, proposed_at)`.
    recent: Vec<(TableId, u64, Nanos)>,
}

impl Default for GreedyLoadDelta {
    fn default() -> Self {
        GreedyLoadDelta::new(0.15, 4)
    }
}

impl GreedyLoadDelta {
    /// A leveling policy acting above utilization gap `min_delta`, at
    /// most `max_moves` proposals per round, with no move cooldown.
    pub fn new(min_delta: f64, max_moves: usize) -> Self {
        GreedyLoadDelta {
            min_delta,
            max_moves,
            cooldown: 0,
            recent: Vec::new(),
        }
    }

    /// Sets the per-tablet move cooldown.
    pub fn with_cooldown(mut self, cooldown: Nanos) -> Self {
        self.cooldown = cooldown;
        self
    }
}

impl PlacementPolicy for GreedyLoadDelta {
    fn name(&self) -> &'static str {
        "greedy-load-delta"
    }

    fn propose(&mut self, view: &ClusterView) -> Vec<MoveProposal> {
        let now = view.at;
        self.recent
            .retain(|&(_, _, at)| now.saturating_sub(at) < self.cooldown);
        // Work on a mutable copy of (util, remaining tablets) so each
        // proposal's estimated effect feeds the next pairing decision.
        let mut servers: Vec<(ServerId, f64, Vec<TabletInfo>)> = view
            .servers
            .iter()
            .map(|s| (s.server, s.dispatch_util, s.tablets.clone()))
            .collect();
        let mut out = Vec::new();
        for _ in 0..self.max_moves {
            if servers.len() < 2 {
                break;
            }
            // Hottest / coldest, ties broken by ServerId (the vec is
            // ServerId-sorted and the comparisons are strict).
            let (mut hot, mut cold) = (0, 0);
            for (i, s) in servers.iter().enumerate() {
                if s.1 > servers[hot].1 {
                    hot = i;
                }
                if s.1 < servers[cold].1 {
                    cold = i;
                }
            }
            let gap = servers[hot].1 - servers[cold].1;
            if hot == cold || gap < self.min_delta || servers[hot].2.is_empty() {
                break;
            }
            // Uniform attribution: moving one of n tablets sheds util/n.
            let share = servers[hot].1 / servers[hot].2.len() as f64;
            // Only move if it actually narrows the gap (a huge share
            // would just swap who is hot).
            if share >= gap {
                break;
            }
            // First tablet of the hot server still outside its cooldown.
            let Some(idx) = servers[hot].2.iter().position(|t| {
                !self
                    .recent
                    .iter()
                    .any(|&(tb, start, _)| tb == t.table && start == t.range.start)
            }) else {
                break;
            };
            let tablet = servers[hot].2.remove(idx);
            servers[hot].1 -= share;
            servers[cold].1 += share;
            self.recent.push((tablet.table, tablet.range.start, now));
            out.push(MoveProposal {
                table: tablet.table,
                range: tablet.range,
                source: servers[hot].0,
                target: servers[cold].0,
            });
        }
        out
    }

    fn clone_box(&self) -> Box<dyn PlacementPolicy> {
        Box::new(self.clone())
    }
}

/// Concurrency ceilings for admitted migrations.
///
/// Each migration consumes pull bandwidth and dispatch time at its
/// source, replay workers and replication bandwidth at its target, and
/// NIC capacity everywhere; the caps model those shared ceilings. A
/// proposal is admitted only if, counting both in-flight migrations and
/// earlier admissions this round, its source, its target, and the
/// cluster all stay at or under their caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionCaps {
    /// Max concurrent migrations pulling from one server.
    pub per_source: usize,
    /// Max concurrent migrations replaying into one server.
    pub per_target: usize,
    /// Max concurrent migrations cluster-wide.
    pub cluster: usize,
}

impl Default for AdmissionCaps {
    fn default() -> Self {
        AdmissionCaps {
            per_source: 1,
            per_target: 1,
            cluster: 4,
        }
    }
}

impl AdmissionCaps {
    /// Filters `proposals` (in order) against the caps, counting
    /// `in_flight` migrations as already admitted.
    pub fn admit(
        &self,
        in_flight: &[MoveInFlight],
        proposals: Vec<MoveProposal>,
    ) -> Vec<MoveProposal> {
        let mut active: Vec<MoveInFlight> = in_flight.to_vec();
        let mut admitted = Vec::new();
        for p in proposals {
            if active.len() >= self.cluster {
                break;
            }
            let src_load = active.iter().filter(|m| m.source == p.source).count();
            let tgt_load = active.iter().filter(|m| m.target == p.target).count();
            if src_load >= self.per_source || tgt_load >= self.per_target {
                continue;
            }
            active.push(MoveInFlight {
                source: p.source,
                target: p.target,
            });
            admitted.push(p);
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tablet(table: u64, start: u64, end: u64) -> TabletInfo {
        TabletInfo {
            table: TableId(table),
            range: HashRange { start, end },
        }
    }

    fn view(loads: &[(u32, f64, usize)]) -> ClusterView {
        let servers = loads
            .iter()
            .map(|&(id, util, tablets)| ServerLoad {
                server: ServerId(id),
                dispatch_util: util,
                ops_per_sec: util * 1e6,
                tablets: (0..tablets as u64)
                    .map(|i| tablet(1, i << 32, ((i + 1) << 32) - 1))
                    .collect(),
            })
            .collect();
        ClusterView {
            at: 0,
            servers,
            slo_headroom: None,
            in_flight: Vec::new(),
        }
    }

    #[test]
    fn greedy_moves_from_hottest_to_coldest() {
        let mut p = GreedyLoadDelta::new(0.1, 1);
        let v = view(&[(0, 0.9, 4), (1, 0.2, 4), (2, 0.5, 4)]);
        let moves = p.propose(&v);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].source, ServerId(0));
        assert_eq!(moves[0].target, ServerId(1));
    }

    #[test]
    fn greedy_respects_hysteresis_threshold() {
        let mut p = GreedyLoadDelta::new(0.3, 4);
        // Gap of 0.2 is real but below the threshold: no churn.
        let v = view(&[(0, 0.6, 4), (1, 0.4, 4)]);
        assert!(p.propose(&v).is_empty());
    }

    #[test]
    fn greedy_never_swaps_hot_and_cold() {
        // One tablet holding all the load: moving it would just make
        // the target the new hottest server.
        let mut p = GreedyLoadDelta::new(0.1, 4);
        let v = view(&[(0, 0.9, 1), (1, 0.1, 1)]);
        assert!(p.propose(&v).is_empty());
    }

    #[test]
    fn greedy_is_deterministic_and_multi_move() {
        let mut p = GreedyLoadDelta::new(0.05, 8);
        let v = view(&[(0, 0.9, 8), (1, 0.1, 2), (2, 0.15, 2)]);
        let a = p.propose(&v);
        let b = p.propose(&v);
        assert_eq!(a, b, "same view must give the same proposals");
        assert!(a.len() > 1, "imbalance this wide needs several moves");
        // All moves shed load from the one hot server.
        assert!(a.iter().all(|m| m.source == ServerId(0)));
    }

    #[test]
    fn cooldown_stops_tablet_ping_pong() {
        let mut p = GreedyLoadDelta::new(0.1, 1).with_cooldown(1_000);
        let v0 = view(&[(0, 0.9, 4), (1, 0.2, 4)]);
        let first = p.propose(&v0);
        assert_eq!(first.len(), 1);
        // Same imbalance 100ns later: the just-moved tablet is cooling
        // down, so the policy reaches for the hot server's next tablet
        // instead of bouncing the same one back and forth.
        let mut v1 = v0.clone();
        v1.at = 100;
        let second = p.propose(&v1);
        assert_eq!(second.len(), 1);
        assert_ne!(second[0].range, first[0].range, "no ping-pong");
        // Past the cooldown the original tablet is fair game again.
        let mut v2 = v0.clone();
        v2.at = 2_000;
        assert_eq!(p.propose(&v2), first);
    }

    #[test]
    fn admission_caps_bound_source_target_and_cluster() {
        let caps = AdmissionCaps {
            per_source: 1,
            per_target: 2,
            cluster: 3,
        };
        let mk = |src: u32, tgt: u32| MoveProposal {
            table: TableId(1),
            range: HashRange { start: 0, end: 1 },
            source: ServerId(src),
            target: ServerId(tgt),
        };
        // Source 0 already pulling one migration.
        let in_flight = [MoveInFlight {
            source: ServerId(0),
            target: ServerId(9),
        }];
        let admitted = caps.admit(
            &in_flight,
            vec![mk(0, 1), mk(2, 1), mk(3, 1), mk(4, 5), mk(6, 7)],
        );
        // mk(0,1) rejected (per-source), mk(2,1)+mk(3,1) fill target 1's
        // cap of 2... but the cluster cap of 3 (1 in flight + 2 admitted)
        // stops everything after.
        assert_eq!(
            admitted,
            vec![mk(2, 1), mk(3, 1)],
            "per-source, per-target, and cluster caps all bind"
        );
    }

    #[test]
    fn boxed_policies_clone_and_describe_themselves() {
        let b: Box<dyn PlacementPolicy> = Box::new(GreedyLoadDelta::default());
        let c = b.clone();
        assert_eq!(c.name(), "greedy-load-delta");
        assert_eq!(format!("{b:?}"), "PlacementPolicy(greedy-load-delta)");
    }
}
