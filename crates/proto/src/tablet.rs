//! Tablet descriptors: the unit of ownership and migration.
//!
//! A table's key-hash space is divided into tablets, each owned by one
//! master (§2, Figure 2). The coordinator holds the authoritative map;
//! clients cache it and refresh after a `Status::UnknownTablet` response
//! (§3). During a Rocksteady migration the *target* owns the tablet from
//! the very first moment (§3), while the source only remembers "this
//! range is migrating away" so it can turn clients away.

use rocksteady_common::{HashRange, ServerId, TableId};

/// Ownership state of a tablet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TabletState {
    /// Normal service by `owner`.
    Normal,
    /// Rocksteady migration in flight: `owner` is already the target
    /// (ownership transfers at migration start, §3); records still
    /// physically live (partly) on `source`.
    Migrating {
        /// Server the data is being pulled from.
        source: ServerId,
    },
}

/// One entry in the coordinator's tablet map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabletDescriptor {
    /// Table this tablet belongs to.
    pub table: TableId,
    /// Key-hash range the tablet covers (inclusive).
    pub range: HashRange,
    /// Current owner — the server clients should send requests to.
    pub owner: ServerId,
    /// Ownership state.
    pub state: TabletState,
}

impl TabletDescriptor {
    /// Whether this tablet serves the given key hash of the given table.
    pub fn covers(&self, table: TableId, hash: u64) -> bool {
        self.table == table && self.range.contains(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_checks_table_and_range() {
        let d = TabletDescriptor {
            table: TableId(3),
            range: HashRange {
                start: 100,
                end: 200,
            },
            owner: ServerId(1),
            state: TabletState::Normal,
        };
        assert!(d.covers(TableId(3), 100));
        assert!(d.covers(TableId(3), 200));
        assert!(!d.covers(TableId(3), 99));
        assert!(!d.covers(TableId(3), 201));
        assert!(!d.covers(TableId(4), 150));
    }
}
