//! The cluster coordinator: membership, the tablet map, lineage, and
//! crash handling.
//!
//! RAMCloud's coordinator owns the table-partition-to-master mapping and
//! cluster membership (§2, Figure 1). Rocksteady adds two
//! responsibilities (§3.4):
//!
//! - **Lineage dependencies**: when a migration starts, the coordinator
//!   records that the *source* depends on the tail of the *target's*
//!   recovery log (two integers: whose log, and from which segment). The
//!   dependency is dropped once the target commits its side logs and
//!   finishes lazy re-replication.
//! - **Migration-aware crash handling**: if either participant of an
//!   in-flight migration dies, ownership reverts to the source and the
//!   coordinator induces a recovery that replays the target's log tail
//!   along with the source's own data — twice the replay work of a
//!   normal recovery, in exchange for keeping the fast path
//!   replication-free.
//!
//! This type is pure state; the cluster harness wraps it in a simulation
//! actor that speaks the coordinator RPCs of [`rocksteady_proto`].

use rocksteady_common::{HashRange, KeyHash, MigrationId, ServerId, TableId};
use rocksteady_proto::{TabletDescriptor, TabletState};

/// A recorded lineage dependency (§3.4): `source`'s correct recovery
/// requires replaying `target`'s log from `from_segment` onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineageDep {
    /// The migration this dependency belongs to. Several migrations may
    /// be in flight at once (different ranges, possibly sharing servers);
    /// the id keeps their bookkeeping separable.
    pub id: MigrationId,
    /// The migration source (the dependent).
    pub source: ServerId,
    /// The migration target (whose log tail is depended upon).
    pub target: ServerId,
    /// Table under migration.
    pub table: TableId,
    /// Range under migration.
    pub range: HashRange,
    /// First segment id of the target's log tail covered by the
    /// dependency.
    pub from_segment: u64,
}

/// One recovery task the coordinator hands to a surviving master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAssignment {
    /// Table to recover.
    pub table: TableId,
    /// Hash range to recover.
    pub range: HashRange,
    /// The master whose data must be reconstructed (the crashed server,
    /// or the lineage target whose tail must be merged).
    pub crashed: ServerId,
    /// The surviving master that will replay and take ownership.
    pub recovery_master: ServerId,
    /// Skip log segments below this id (lineage tail, §3.4).
    pub from_segment: u64,
    /// Whether the recovery master should keep serving its existing copy
    /// of the range (lineage merge onto the still-alive source) rather
    /// than starting from nothing.
    pub merge: bool,
}

/// The coordinator's authoritative cluster state.
#[derive(Debug, Default)]
pub struct Coordinator {
    servers: Vec<(ServerId, bool)>,
    tablets: Vec<TabletDescriptor>,
    lineage: Vec<LineageDep>,
}

impl Coordinator {
    /// Creates an empty coordinator.
    pub fn new() -> Self {
        Coordinator::default()
    }

    // ------------------------------------------------------- membership --

    /// Registers a server as alive.
    pub fn register_server(&mut self, id: ServerId) {
        if !self.servers.iter().any(|(s, _)| *s == id) {
            self.servers.push((id, true));
        }
    }

    /// Alive servers.
    pub fn alive_servers(&self) -> Vec<ServerId> {
        self.servers
            .iter()
            .filter(|(_, alive)| *alive)
            .map(|(s, _)| *s)
            .collect()
    }

    // -------------------------------------------------------- tablet map --

    /// Installs a tablet (harness setup or post-recovery).
    pub fn create_tablet(&mut self, table: TableId, range: HashRange, owner: ServerId) {
        self.tablets.push(TabletDescriptor {
            table,
            range,
            owner,
            state: TabletState::Normal,
        });
    }

    /// The full map, as served to clients.
    pub fn tablet_map(&self) -> Vec<TabletDescriptor> {
        self.tablets.clone()
    }

    /// The descriptor covering `(table, hash)`.
    pub fn tablet_for(&self, table: TableId, hash: KeyHash) -> Option<&TabletDescriptor> {
        self.tablets.iter().find(|t| t.covers(table, hash))
    }

    fn tablet_mut(&mut self, table: TableId, range: HashRange) -> Option<&mut TabletDescriptor> {
        self.tablets
            .iter_mut()
            .find(|t| t.table == table && t.range == range)
    }

    /// Splits the descriptor containing `at` into `[start, at)` and
    /// `[at, end]` (both keeping the same owner). Migration begins with a
    /// split (§3); it is metadata-only here and on the master.
    ///
    /// Rejected while the covering tablet is under an in-flight migration
    /// or a lineage dependency covers the range: splitting such a tablet
    /// would silently invalidate the recorded `LineageDep` range and the
    /// migration's ownership bookkeeping.
    pub fn split_tablet(&mut self, table: TableId, at: KeyHash) -> bool {
        let migrating = self
            .lineage
            .iter()
            .any(|d| d.table == table && d.range.contains(at));
        let Some(t) = self
            .tablets
            .iter_mut()
            .find(|t| t.covers(table, at) && t.range.start < at)
        else {
            return false;
        };
        if migrating || t.state != TabletState::Normal {
            return false;
        }
        let upper = TabletDescriptor {
            table,
            range: HashRange {
                start: at,
                end: t.range.end,
            },
            owner: t.owner,
            state: t.state,
        };
        t.range.end = at - 1;
        self.tablets.push(upper);
        true
    }

    // --------------------------------------------------------- migration --

    /// A Rocksteady migration is starting: ownership moves to `target`
    /// immediately and the lineage dependency is recorded (§3, §3.4).
    ///
    /// Returns false if the named tablet doesn't exist, isn't owned by
    /// `source`, isn't in the `Normal` state, or if any recorded lineage
    /// dependency overlaps the range (two concurrent migrations over
    /// overlapping ranges would corrupt each other's bookkeeping).
    pub fn migration_starting(
        &mut self,
        id: MigrationId,
        table: TableId,
        range: HashRange,
        source: ServerId,
        target: ServerId,
        from_segment: u64,
    ) -> bool {
        if self
            .lineage
            .iter()
            .any(|d| d.id == id || (d.table == table && d.range.overlaps(&range)))
        {
            return false;
        }
        let Some(t) = self.tablet_mut(table, range) else {
            return false;
        };
        if t.owner != source || t.state != TabletState::Normal {
            return false;
        }
        t.owner = target;
        t.state = TabletState::Migrating { source };
        self.lineage.push(LineageDep {
            id,
            source,
            target,
            table,
            range,
            from_segment,
        });
        true
    }

    /// A Rocksteady migration committed: drop the dependency (§3.4).
    pub fn migration_complete(
        &mut self,
        id: MigrationId,
        table: TableId,
        range: HashRange,
        source: ServerId,
        target: ServerId,
    ) -> bool {
        // The id is authoritative: with several migrations in flight the
        // (table, range) pair alone could be ambiguous after splits.
        if !self
            .lineage
            .iter()
            .any(|d| d.id == id && d.source == source && d.target == target)
        {
            return false;
        }
        let Some(t) = self.tablet_mut(table, range) else {
            return false;
        };
        if t.owner != target {
            return false;
        }
        t.state = TabletState::Normal;
        self.lineage.retain(|d| d.id != id);
        true
    }

    /// A baseline migration is starting: ownership stays at the source
    /// (§2.3); the map just notes the destination.
    pub fn baseline_starting(
        &mut self,
        table: TableId,
        range: HashRange,
        source: ServerId,
        target: ServerId,
    ) -> bool {
        match self.tablet_mut(table, range) {
            Some(t) if t.owner == source => {
                t.state = TabletState::MigratingToTarget { target };
                true
            }
            _ => false,
        }
    }

    /// A baseline migration finished: ownership transfers now (§2.3).
    pub fn baseline_complete(
        &mut self,
        table: TableId,
        range: HashRange,
        source: ServerId,
        target: ServerId,
    ) -> bool {
        match self.tablet_mut(table, range) {
            Some(t) if t.owner == source => {
                t.owner = target;
                t.state = TabletState::Normal;
                true
            }
            _ => false,
        }
    }

    /// Current lineage dependencies (inspection/testing).
    pub fn lineage_deps(&self) -> &[LineageDep] {
        &self.lineage
    }

    // ------------------------------------------------------------ crash --

    /// Handles a crash report: marks the server dead, reverts in-flight
    /// migrations involving it (§3.4), and plans recoveries for every
    /// tablet that needs one.
    ///
    /// The returned assignments tell surviving masters what to replay;
    /// the cluster harness delivers them as `RecoverTablet` RPCs. Tablet
    /// ownership in the map is updated immediately (clients will find the
    /// recovery master and be told to retry until replay completes).
    pub fn handle_crash(&mut self, dead: ServerId) -> Vec<RecoveryAssignment> {
        for (s, alive) in &mut self.servers {
            if *s == dead {
                *alive = false;
            }
        }
        let alive = self.alive_servers();
        let mut assignments = Vec::new();
        let mut rr = 0usize;
        let lineage = self.lineage.clone();

        for t in &mut self.tablets {
            match t.state {
                // Target of an in-flight Rocksteady migration died:
                // ownership reverts to the source, which must merge the
                // target's replicated log tail (the writes the target
                // accepted) into its own copy (§3.4).
                TabletState::Migrating { source } if t.owner == dead => {
                    let dep = lineage
                        .iter()
                        .find(|d| d.table == t.table && d.range == t.range && d.target == dead);
                    t.owner = source;
                    t.state = TabletState::Normal;
                    assignments.push(RecoveryAssignment {
                        table: t.table,
                        range: t.range,
                        crashed: dead,
                        recovery_master: source,
                        from_segment: dep.map_or(0, |d| d.from_segment),
                        merge: true,
                    });
                }
                // Source of an in-flight Rocksteady migration died: the
                // target already owns the tablet and holds whatever it
                // pulled; it must replay the source's replicated log to
                // fill in what never arrived.
                TabletState::Migrating { source } if source == dead => {
                    let target = t.owner;
                    t.state = TabletState::Normal;
                    assignments.push(RecoveryAssignment {
                        table: t.table,
                        range: t.range,
                        crashed: dead,
                        recovery_master: target,
                        from_segment: 0,
                        merge: true,
                    });
                }
                // A normal tablet owned by the dead server: spray it to a
                // surviving master (§2's fast distributed recovery,
                // round-robin here).
                _ if t.owner == dead => {
                    if alive.is_empty() {
                        continue;
                    }
                    let master = alive[rr % alive.len()];
                    rr += 1;
                    t.owner = master;
                    t.state = TabletState::Normal;
                    assignments.push(RecoveryAssignment {
                        table: t.table,
                        range: t.range,
                        crashed: dead,
                        recovery_master: master,
                        from_segment: 0,
                        merge: false,
                    });
                }
                _ => {}
            }
        }
        // All lineage deps involving the dead server — whether it was the
        // source of one migration, the target of another, or both at once
        // — are now resolved by the recoveries planned above. Deps between
        // two still-alive servers stay.
        self.lineage
            .retain(|d| d.source != dead && d.target != dead);
        assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);
    const M1: MigrationId = MigrationId(1);
    const M2: MigrationId = MigrationId(2);
    const S1: ServerId = ServerId(1);
    const S2: ServerId = ServerId(2);
    const S3: ServerId = ServerId(3);

    fn coord() -> Coordinator {
        let mut c = Coordinator::new();
        for s in [S1, S2, S3] {
            c.register_server(s);
        }
        c.create_tablet(T, HashRange::full(), S1);
        c
    }

    #[test]
    fn map_and_lookup() {
        let c = coord();
        let t = c.tablet_for(T, 42).unwrap();
        assert_eq!(t.owner, S1);
        assert_eq!(c.tablet_map().len(), 1);
        assert!(c.tablet_for(TableId(9), 42).is_none());
    }

    #[test]
    fn split_then_migrate_transfers_ownership_immediately() {
        let mut c = coord();
        let mid = u64::MAX / 2 + 1;
        assert!(c.split_tablet(T, mid));
        assert_eq!(c.tablet_map().len(), 2);
        let upper = HashRange {
            start: mid,
            end: u64::MAX,
        };
        assert!(c.migration_starting(M1, T, upper, S1, S2, 17));
        let t = c.tablet_for(T, u64::MAX).unwrap();
        assert_eq!(t.owner, S2, "ownership moves at start (§3)");
        assert_eq!(t.state, TabletState::Migrating { source: S1 });
        assert_eq!(
            c.lineage_deps(),
            &[LineageDep {
                id: M1,
                source: S1,
                target: S2,
                table: T,
                range: upper,
                from_segment: 17,
            }]
        );
        // Lower half untouched.
        assert_eq!(c.tablet_for(T, 0).unwrap().owner, S1);

        assert!(c.migration_complete(M1, T, upper, S1, S2));
        assert!(c.lineage_deps().is_empty());
        assert_eq!(
            c.tablet_for(T, u64::MAX).unwrap().state,
            TabletState::Normal
        );
    }

    #[test]
    fn migration_requires_correct_source() {
        let mut c = coord();
        assert!(!c.migration_starting(M1, T, HashRange::full(), S2, S3, 0));
        assert!(c.lineage_deps().is_empty());
    }

    #[test]
    fn baseline_keeps_ownership_until_complete() {
        let mut c = coord();
        assert!(c.baseline_starting(T, HashRange::full(), S1, S2));
        assert_eq!(c.tablet_for(T, 5).unwrap().owner, S1);
        assert!(c.baseline_complete(T, HashRange::full(), S1, S2));
        assert_eq!(c.tablet_for(T, 5).unwrap().owner, S2);
    }

    #[test]
    fn crash_of_migration_target_reverts_to_source_with_lineage_tail() {
        let mut c = coord();
        assert!(c.migration_starting(M1, T, HashRange::full(), S1, S2, 23));
        let plan = c.handle_crash(S2);
        assert_eq!(plan.len(), 1);
        let a = &plan[0];
        assert_eq!(a.recovery_master, S1, "ownership reverts to source");
        assert_eq!(a.crashed, S2);
        assert_eq!(a.from_segment, 23, "only the target's log tail replays");
        assert!(a.merge);
        assert_eq!(c.tablet_for(T, 5).unwrap().owner, S1);
        assert!(c.lineage_deps().is_empty());
        assert!(!c.alive_servers().contains(&S2));
    }

    #[test]
    fn crash_of_migration_source_recovers_onto_target() {
        let mut c = coord();
        assert!(c.migration_starting(M1, T, HashRange::full(), S1, S2, 23));
        let plan = c.handle_crash(S1);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].recovery_master, S2);
        assert_eq!(plan[0].crashed, S1);
        assert!(plan[0].merge, "target keeps what it already pulled");
        assert_eq!(c.tablet_for(T, 5).unwrap().owner, S2);
    }

    #[test]
    fn split_rejected_while_range_is_migrating() {
        let mut c = coord();
        let mid = u64::MAX / 2 + 1;
        assert!(c.split_tablet(T, mid));
        let upper = HashRange {
            start: mid,
            end: u64::MAX,
        };
        assert!(c.migration_starting(M1, T, upper, S1, S2, 17));
        // Splitting inside the migrating range would invalidate the
        // recorded lineage dep; it must be rejected.
        assert!(!c.split_tablet(T, mid + (u64::MAX - mid) / 2));
        assert_eq!(c.tablet_map().len(), 2, "no new tablet appeared");
        assert_eq!(c.lineage_deps().len(), 1, "dep survives intact");
        assert_eq!(c.lineage_deps()[0].range, upper);
        // The untouched lower half still splits fine.
        assert!(c.split_tablet(T, mid / 2));
        // And once the migration commits, the upper half splits again.
        assert!(c.migration_complete(M1, T, upper, S1, S2));
        assert!(c.split_tablet(T, mid + (u64::MAX - mid) / 2));
    }

    #[test]
    fn overlapping_migration_rejected_while_dep_covers_range() {
        let mut c = coord();
        let mid = u64::MAX / 2 + 1;
        assert!(c.split_tablet(T, mid));
        let upper = HashRange {
            start: mid,
            end: u64::MAX,
        };
        let lower = HashRange {
            start: 0,
            end: mid - 1,
        };
        assert!(c.migration_starting(M1, T, upper, S1, S2, 3));
        // Same range again (even to a different target, different id).
        assert!(!c.migration_starting(M2, T, upper, S1, S3, 4));
        // Reusing an id is also rejected.
        assert!(!c.migration_starting(M1, T, lower, S1, S3, 4));
        // A disjoint range with a fresh id is fine: concurrency is the
        // point, only overlap is illegal.
        assert!(c.migration_starting(M2, T, lower, S1, S3, 4));
        assert_eq!(c.lineage_deps().len(), 2);
    }

    #[test]
    fn crash_drops_every_dep_involving_dead_server() {
        // S2 is the target of M1 (from S1) and the source of M2 (to S3):
        // one crash must resolve both migrations and drop both deps,
        // while a third dep between live servers survives.
        let mut c = Coordinator::new();
        let s4 = ServerId(4);
        let s5 = ServerId(5);
        for s in [S1, S2, S3, s4, s5] {
            c.register_server(s);
        }
        let parts = HashRange::full().split(3);
        c.create_tablet(TableId(1), parts[0], S1);
        c.create_tablet(TableId(2), parts[1], S2);
        c.create_tablet(TableId(3), parts[2], s4);
        assert!(c.migration_starting(M1, TableId(1), parts[0], S1, S2, 11));
        assert!(c.migration_starting(M2, TableId(2), parts[1], S2, S3, 22));
        assert!(c.migration_starting(MigrationId(3), TableId(3), parts[2], s4, s5, 33));
        assert_eq!(c.lineage_deps().len(), 3);

        let plan = c.handle_crash(S2);
        assert_eq!(plan.len(), 2, "{plan:?}");
        // M1: target died → revert to source S1, replay S2's tail from 11.
        let a = plan
            .iter()
            .find(|a| a.table == TableId(1))
            .expect("plan for the migration S2 was target of");
        assert_eq!(a.recovery_master, S1);
        assert_eq!(a.crashed, S2);
        assert_eq!(a.from_segment, 11);
        assert!(a.merge);
        assert_eq!(c.tablet_for(TableId(1), parts[0].start).unwrap().owner, S1);
        // M2: source died → target S3 keeps ownership, merges S2's log.
        let b = plan
            .iter()
            .find(|a| a.table == TableId(2))
            .expect("plan for the migration S2 was source of");
        assert_eq!(b.recovery_master, S3);
        assert_eq!(b.crashed, S2);
        assert_eq!(b.from_segment, 0);
        assert!(b.merge);
        assert_eq!(c.tablet_for(TableId(2), parts[1].start).unwrap().owner, S3);
        // Both deps involving S2 are gone; the unrelated s4→s5 dep stays.
        assert_eq!(c.lineage_deps().len(), 1);
        assert_eq!(c.lineage_deps()[0].id, MigrationId(3));
    }

    #[test]
    fn crash_sprays_normal_tablets_across_survivors() {
        let mut c = Coordinator::new();
        for s in [S1, S2, S3] {
            c.register_server(s);
        }
        for (i, r) in HashRange::full().split(4).into_iter().enumerate() {
            c.create_tablet(TableId(i as u64), r, S1);
        }
        let plan = c.handle_crash(S1);
        assert_eq!(plan.len(), 4);
        let masters: Vec<ServerId> = plan.iter().map(|a| a.recovery_master).collect();
        assert!(
            masters.contains(&S2) && masters.contains(&S3),
            "{masters:?}"
        );
        for a in &plan {
            assert!(!a.merge);
            assert_eq!(a.from_segment, 0);
        }
    }
}
