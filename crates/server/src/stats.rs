//! Per-server instruments the experiment harness samples.
//!
//! Figures 3, 11, 12 and 14 plot dispatch/worker *utilization*; the node
//! bumps monotonic busy-nanosecond counters and the harness scraper
//! differences them per sampling interval. Migration progress counters
//! feed the rate-over-time plots (Figures 5 and 9).
//!
//! Every field is a `rocksteady-metrics` instrument registered under the
//! `node_*` families with a `server` label, so one registry snapshot
//! exposes the whole fleet. [`NodeStats`] itself is just the typed
//! bundle of handles a server holds; [`NodeStats::view`] is the
//! plain-integer compatibility view tests and examples read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady_common::{MigrationId, Nanos, ServerId};
use rocksteady_metrics::{Counter, Registry, Stamp};

/// Family name of the dispatch-overcommit counter (shared with the
/// cluster sampler, which increments it when a sampling window's
/// dispatch busy time exceeds the window itself).
pub const DISPATCH_OVERCOMMIT_FAMILY: &str = "node_dispatch_overcommit_total";
/// Help text for [`DISPATCH_OVERCOMMIT_FAMILY`] (must match at every
/// registration site — the registry deduplicates on name + labels).
pub const DISPATCH_OVERCOMMIT_HELP: &str =
    "sampling windows whose dispatch busy time exceeded the interval (double-charged dispatch)";

/// Instrument bundle for one server. Cheap to record into (each handle
/// is one shared cell); shared with the harness through `Rc`.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Nanoseconds the dispatch core has been busy (poll/classify/tx +
    /// migration-manager continuations). Family `node_dispatch_busy_ns`.
    pub dispatch_busy_ns: Counter,
    /// Nanoseconds all worker cores combined have been busy.
    pub worker_busy_ns: Counter,
    /// Client operations served (each object of a multi-op counts once).
    pub ops_served: Counter,
    /// Bulk Pull RPCs served (source side).
    pub pulls_served: Counter,
    /// PriorityPull RPCs served (source side).
    pub priority_pulls_served: Counter,
    /// Records replayed into this master (migration target side).
    pub records_replayed: Counter,
    /// Record wire bytes received by migration into this master.
    pub bytes_migrated_in: Counter,
    /// Record wire bytes sent out by migration from this master (pull
    /// responses + baseline pushes).
    pub bytes_migrated_out: Counter,
    /// Virtual time the current/last migration started on this node, if
    /// any. Reset semantics: [`NodeStats::begin_migration`] clears the
    /// finish/abandon stamps so a second run cannot inherit stale marks.
    pub migration_started_at: Stamp,
    /// Virtual time that migration finished, if it has.
    pub migration_finished_at: Stamp,
    /// Virtual time the current/last migration was abandoned (source
    /// died or a recovery plan superseded the run), if it was.
    pub migration_abandoned_at: Stamp,
    /// Migration runs abandoned on this node (§3.4 crash paths).
    pub migrations_abandoned: Counter,
    /// `Retry { after }` hints sent to clients (read misses, recovering
    /// ranges, failovers).
    pub retry_hints_sent: Counter,
    /// Client reads deferred behind a PriorityPull during migration.
    pub priority_pull_deferrals: Counter,
    /// Recovery segment fetches re-sent to a surviving backup after the
    /// first backup died.
    pub recovery_fetch_failovers: Counter,
    /// Recovery segment fetches with no surviving backup left — data
    /// that could not be recovered from any replica.
    pub recovery_fetch_gaps: Counter,
    /// Entries replayed by crash recovery.
    pub recovery_replayed: Counter,
    /// Segments reclaimed by the log cleaner.
    pub segments_cleaned: Counter,
    /// Sampling windows in which this server's dispatch busy-time delta
    /// exceeded the window length — the model double-books the dispatch
    /// core (worker-completion sends accrue on top of scheduled
    /// dispatch events). The sampler clamps utilization to 1.0 but
    /// counts each clamped window here instead of hiding it. Family
    /// [`DISPATCH_OVERCOMMIT_FAMILY`].
    pub dispatch_overcommit: Counter,
    /// Per-run migration stamps, keyed by migration id. The single-slot
    /// `migration_*_at` stamps above record only the *last* run (kept for
    /// the exported gauge families); with several migrations overlapping
    /// on one node the harness must consult this map to learn a
    /// *specific* run's fate. Shared through the outer [`StatsHandle`]
    /// `Rc`, not through the registry.
    pub migration_runs: Rc<RefCell<BTreeMap<u64, MigrationRunStamps>>>,
}

/// Start/finish/abandon stamps plus gather/replay progress counters for
/// one migration run on one node. The progress counters are what the
/// flight recorder's stall and backlog detectors watch: a run that is
/// in flight while none of them advance is wedged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRunStamps {
    /// Virtual time the run started on this node.
    pub started_at: Nanos,
    /// Virtual time the run finished, if it has.
    pub finished_at: Option<Nanos>,
    /// Virtual time the run was abandoned, if it was.
    pub abandoned_at: Option<Nanos>,
    /// Records gathered over the wire (bulk + priority pulls).
    pub gathered: u64,
    /// Records handed to replay batches.
    pub replay_received: u64,
    /// Records actually applied by replay (version-max survivors).
    pub replay_applied: u64,
}

impl MigrationRunStamps {
    /// Whether the run is still in flight on this node.
    pub fn in_flight(&self) -> bool {
        self.finished_at.is_none() && self.abandoned_at.is_none()
    }
}

impl NodeStats {
    /// Registers the full `node_*` instrument set for `server` in `reg`
    /// (label `server="<id>"`). Registering the same server twice
    /// returns handles to the same cells.
    pub fn register(reg: &Registry, server: ServerId) -> NodeStats {
        let l = [("server", server.0.to_string())];
        NodeStats {
            dispatch_busy_ns: reg.counter(
                "node_dispatch_busy_ns",
                "nanoseconds the dispatch core was busy",
                &l,
            ),
            worker_busy_ns: reg.counter(
                "node_worker_busy_ns",
                "nanoseconds all worker cores combined were busy",
                &l,
            ),
            ops_served: reg.counter("node_ops_served", "client operations served", &l),
            pulls_served: reg.counter("node_pulls_served", "bulk Pull RPCs served", &l),
            priority_pulls_served: reg.counter(
                "node_priority_pulls_served",
                "PriorityPull RPCs served",
                &l,
            ),
            records_replayed: reg.counter(
                "node_records_replayed",
                "records replayed into this master by migration",
                &l,
            ),
            bytes_migrated_in: reg.counter(
                "node_bytes_migrated_in",
                "record wire bytes received by migration",
                &l,
            ),
            bytes_migrated_out: reg.counter(
                "node_bytes_migrated_out",
                "record wire bytes sent out by migration",
                &l,
            ),
            migration_started_at: reg.stamp(
                "node_migration_started_at_ns",
                "virtual time the current/last migration started (-1 if never)",
                &l,
            ),
            migration_finished_at: reg.stamp(
                "node_migration_finished_at_ns",
                "virtual time the current/last migration finished (-1 if not)",
                &l,
            ),
            migration_abandoned_at: reg.stamp(
                "node_migration_abandoned_at_ns",
                "virtual time the current/last migration was abandoned (-1 if not)",
                &l,
            ),
            migrations_abandoned: reg.counter(
                "node_migrations_abandoned",
                "migration runs abandoned on this node",
                &l,
            ),
            retry_hints_sent: reg.counter(
                "node_retry_hints_sent",
                "Retry{after} hints sent to clients",
                &l,
            ),
            priority_pull_deferrals: reg.counter(
                "node_priority_pull_deferrals",
                "client reads deferred behind a PriorityPull",
                &l,
            ),
            recovery_fetch_failovers: reg.counter(
                "node_recovery_fetch_failovers",
                "recovery fetches re-sent to a surviving backup",
                &l,
            ),
            recovery_fetch_gaps: reg.counter(
                "node_recovery_fetch_gaps",
                "recovery fetches with no surviving backup",
                &l,
            ),
            recovery_replayed: reg.counter(
                "node_recovery_replayed",
                "entries replayed by crash recovery",
                &l,
            ),
            segments_cleaned: reg.counter(
                "node_segments_cleaned",
                "segments reclaimed by the log cleaner",
                &l,
            ),
            dispatch_overcommit: reg.counter(
                DISPATCH_OVERCOMMIT_FAMILY,
                DISPATCH_OVERCOMMIT_HELP,
                &l,
            ),
            migration_runs: Rc::default(),
        }
    }

    /// Starts a migration run's accounting: stamps the start and clears
    /// the finish/abandon stamps. Both the Rocksteady and the baseline
    /// paths must call this — a second migration on the same node must
    /// not inherit its predecessor's `finished_at`/`abandoned_at` (the
    /// harness polls those to decide the *current* run's fate).
    pub fn begin_migration(&self, now: Nanos) {
        self.migration_started_at.set(now);
        self.migration_finished_at.clear();
        self.migration_abandoned_at.clear();
    }

    // -------------------------------------------------- per-run stamps --
    //
    // The legacy single-slot stamps above are kept for exported gauges
    // and last-run compatibility; these id-keyed variants are the
    // authoritative record once migrations overlap on a node.

    /// Starts per-run accounting for migration `id` (and updates the
    /// legacy last-run stamps).
    pub fn begin_migration_run(&self, id: MigrationId, now: Nanos) {
        self.begin_migration(now);
        self.migration_runs.borrow_mut().insert(
            id.0,
            MigrationRunStamps {
                started_at: now,
                finished_at: None,
                abandoned_at: None,
                gathered: 0,
                replay_received: 0,
                replay_applied: 0,
            },
        );
    }

    /// Credits `records` gathered over the wire to migration `id`.
    pub fn migration_gathered(&self, id: MigrationId, records: u64) {
        if let Some(r) = self.migration_runs.borrow_mut().get_mut(&id.0) {
            r.gathered += records;
        }
    }

    /// Credits a replay batch (`received` records in, `applied`
    /// surviving version-max) to migration `id`.
    pub fn migration_replayed(&self, id: MigrationId, received: u64, applied: u64) {
        if let Some(r) = self.migration_runs.borrow_mut().get_mut(&id.0) {
            r.replay_received += received;
            r.replay_applied += applied;
        }
    }

    /// Stamps migration `id` finished on this node.
    pub fn finish_migration_run(&self, id: MigrationId, now: Nanos) {
        self.migration_finished_at.set(now);
        if let Some(r) = self.migration_runs.borrow_mut().get_mut(&id.0) {
            r.finished_at = Some(now);
        }
    }

    /// Stamps migration `id` abandoned on this node.
    pub fn abandon_migration_run(&self, id: MigrationId, now: Nanos) {
        self.migration_abandoned_at.set(now);
        if let Some(r) = self.migration_runs.borrow_mut().get_mut(&id.0) {
            r.abandoned_at = Some(now);
        }
    }

    /// Per-run stamps for migration `id`, if this node ever began it.
    pub fn migration_run(&self, id: MigrationId) -> Option<MigrationRunStamps> {
        self.migration_runs.borrow().get(&id.0).copied()
    }

    /// All per-run stamps recorded on this node, in migration-id order.
    pub fn migration_runs_snapshot(&self) -> Vec<(MigrationId, MigrationRunStamps)> {
        self.migration_runs
            .borrow()
            .iter()
            .map(|(id, r)| (MigrationId(*id), *r))
            .collect()
    }

    /// Plain-integer view of every instrument, for assertions and
    /// reports.
    pub fn view(&self) -> NodeStatsView {
        NodeStatsView {
            dispatch_busy_ns: self.dispatch_busy_ns.get(),
            worker_busy_ns: self.worker_busy_ns.get(),
            ops_served: self.ops_served.get(),
            pulls_served: self.pulls_served.get(),
            priority_pulls_served: self.priority_pulls_served.get(),
            records_replayed: self.records_replayed.get(),
            bytes_migrated_in: self.bytes_migrated_in.get(),
            bytes_migrated_out: self.bytes_migrated_out.get(),
            migration_started_at: self.migration_started_at.get(),
            migration_finished_at: self.migration_finished_at.get(),
            migration_abandoned_at: self.migration_abandoned_at.get(),
            migrations_abandoned: self.migrations_abandoned.get(),
            retry_hints_sent: self.retry_hints_sent.get(),
            priority_pull_deferrals: self.priority_pull_deferrals.get(),
            recovery_fetch_failovers: self.recovery_fetch_failovers.get(),
            recovery_fetch_gaps: self.recovery_fetch_gaps.get(),
            recovery_replayed: self.recovery_replayed.get(),
            segments_cleaned: self.segments_cleaned.get(),
            dispatch_overcommit: self.dispatch_overcommit.get(),
        }
    }
}

/// Point-in-time integer copy of [`NodeStats`] — the compatibility view
/// the pre-registry `NodeStats` struct used to be.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on `NodeStats`
pub struct NodeStatsView {
    pub dispatch_busy_ns: u64,
    pub worker_busy_ns: u64,
    pub ops_served: u64,
    pub pulls_served: u64,
    pub priority_pulls_served: u64,
    pub records_replayed: u64,
    pub bytes_migrated_in: u64,
    pub bytes_migrated_out: u64,
    pub migration_started_at: Option<Nanos>,
    pub migration_finished_at: Option<Nanos>,
    pub migration_abandoned_at: Option<Nanos>,
    pub migrations_abandoned: u64,
    pub retry_hints_sent: u64,
    pub priority_pull_deferrals: u64,
    pub recovery_fetch_failovers: u64,
    pub recovery_fetch_gaps: u64,
    pub recovery_replayed: u64,
    pub segments_cleaned: u64,
    pub dispatch_overcommit: u64,
}

/// Shared handle to a server's stats. Instruments are interiorly
/// mutable, so no `RefCell` wrapper is needed.
pub type StatsHandle = Rc<NodeStats>;

/// Creates a stats handle registered in `reg` under `server`'s label.
pub fn registered_stats(reg: &Registry, server: ServerId) -> StatsHandle {
    Rc::new(NodeStats::register(reg, server))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_twice_shares_cells() {
        let reg = Registry::new();
        let a = NodeStats::register(&reg, ServerId(2));
        let b = NodeStats::register(&reg, ServerId(2));
        a.pulls_served.inc();
        assert_eq!(b.pulls_served.get(), 1);
        assert_eq!(reg.validate().unwrap().instruments, 19);
    }

    #[test]
    fn begin_migration_clears_stale_stamps() {
        let s = NodeStats::default();
        s.begin_migration(10);
        s.migration_finished_at.set(50);
        // Second run: stale finish/abandon marks must not survive.
        s.begin_migration(100);
        let v = s.view();
        assert_eq!(v.migration_started_at, Some(100));
        assert_eq!(v.migration_finished_at, None);
        assert_eq!(v.migration_abandoned_at, None);
    }

    #[test]
    fn per_run_stamps_survive_overlapping_runs() {
        let s = NodeStats::default();
        let (m1, m2) = (MigrationId(1), MigrationId(2));
        s.begin_migration_run(m1, 10);
        s.begin_migration_run(m2, 20);
        s.finish_migration_run(m1, 30);
        // The second run beginning (and the first finishing) must not
        // clobber either run's record — the single-slot bug this map
        // replaces.
        let r1 = s.migration_run(m1).unwrap();
        assert_eq!(r1.started_at, 10);
        assert_eq!(r1.finished_at, Some(30));
        assert_eq!(r1.abandoned_at, None);
        let r2 = s.migration_run(m2).unwrap();
        assert_eq!(r2.started_at, 20);
        assert_eq!(r2.finished_at, None);
        s.abandon_migration_run(m2, 40);
        assert_eq!(s.migration_run(m2).unwrap().abandoned_at, Some(40));
        assert_eq!(s.migration_runs_snapshot().len(), 2);
        // Handles share the map.
        let h = Rc::new(s);
        let h2 = Rc::clone(&h);
        h.finish_migration_run(m2, 50);
        assert_eq!(h2.migration_run(m2).unwrap().finished_at, Some(50));
    }

    #[test]
    fn progress_counters_accumulate_per_run() {
        let s = NodeStats::default();
        let (m1, m2) = (MigrationId(1), MigrationId(2));
        s.begin_migration_run(m1, 10);
        s.begin_migration_run(m2, 20);
        s.migration_gathered(m1, 100);
        s.migration_gathered(m1, 50);
        s.migration_replayed(m1, 120, 115);
        s.migration_gathered(m2, 7);
        let r1 = s.migration_run(m1).unwrap();
        assert_eq!(r1.gathered, 150);
        assert_eq!(r1.replay_received, 120);
        assert_eq!(r1.replay_applied, 115);
        assert!(r1.in_flight());
        assert_eq!(s.migration_run(m2).unwrap().gathered, 7);
        // Progress for an unknown run is ignored, not invented.
        s.migration_gathered(MigrationId(99), 1);
        assert!(s.migration_run(MigrationId(99)).is_none());
        s.finish_migration_run(m1, 30);
        assert!(!s.migration_run(m1).unwrap().in_flight());
    }
}
