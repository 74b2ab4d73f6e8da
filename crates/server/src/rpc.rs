//! The one table of outstanding outbound RPCs.
//!
//! Every request this server issues gets an entry: where it went (so a
//! crash notification can fail it over), what its response means to us,
//! and — only if the caller was tracing at send time — when it left, so
//! the response can close a span.

use bytes::Bytes;
use rocksteady_common::{FxHashMap, KeyHash, MigrationId, Nanos, RpcId, TableId};
use rocksteady_simnet::ActorId;

use crate::sched::ReplyTo;

/// What an outstanding outbound RPC means to us.
#[derive(Debug)]
pub(crate) enum Pending {
    Pull {
        mig: MigrationId,
        partition: usize,
    },
    PriorityPull {
        mig: MigrationId,
        hashes: Vec<KeyHash>,
    },
    SyncPriorityPull(SyncWait),
    Prepare {
        mig: MigrationId,
    },
    MigStartAck {
        mig: MigrationId,
    },
    MigCompleteAck,
    /// A replication chunk, crediting `group` if someone waits on it.
    ReplAck {
        group: Option<u64>,
    },
    PushRecords,
    BaselineTransferAck,
    FetchSegments {
        recovery: u64,
    },
}

/// A read blocked on its own single-key PriorityPull (Figure 13b/14b).
#[derive(Debug)]
pub(crate) struct SyncWait {
    pub(crate) worker: usize,
    pub(crate) reader: ReplyTo,
    pub(crate) table: TableId,
    pub(crate) hash: KeyHash,
    pub(crate) key: Bytes,
}

#[derive(Debug)]
pub(crate) struct Outstanding {
    pub(crate) dst: ActorId,
    pub(crate) pending: Pending,
    /// When the request left, if a span was opened for it.
    pub(crate) span_start: Option<Nanos>,
}

#[derive(Default)]
pub(crate) struct RpcTable {
    last: u64,
    open: FxHashMap<RpcId, Outstanding>,
}

impl RpcTable {
    /// Allocates the id for a request bound for `dst`.
    pub(crate) fn open(
        &mut self,
        dst: ActorId,
        pending: Pending,
        span_start: Option<Nanos>,
    ) -> RpcId {
        self.last += 1;
        let id = RpcId(self.last);
        let entry = Outstanding {
            dst,
            pending,
            span_start,
        };
        self.open.insert(id, entry);
        id
    }

    /// The response to `rpc` arrived; `None` if it is late or duplicate.
    pub(crate) fn complete(&mut self, rpc: RpcId) -> Option<Outstanding> {
        self.open.remove(&rpc)
    }

    /// `dst` died: removes everything outstanding to it, in ascending
    /// id (= issue) order. The caller draws randomness and sends while
    /// walking the result, so the order must not depend on the map's
    /// bucket layout.
    pub(crate) fn fail_over(&mut self, dst: ActorId) -> Vec<(RpcId, Outstanding)> {
        let mut doomed: Vec<RpcId> = self
            .open
            .iter()
            .filter(|(_, o)| o.dst == dst)
            .map(|(id, _)| *id)
            .collect();
        doomed.sort_unstable();
        doomed
            .into_iter()
            .map(|id| (id, self.open.remove(&id).expect("collected above")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_over_returns_the_dead_peers_rpcs_in_issue_order() {
        let mut t = RpcTable::default();
        // Enough entries that hash-bucket order and issue order differ.
        let ids: Vec<RpcId> = (0..200)
            .map(|i| {
                t.open(
                    i % 3,
                    Pending::ReplAck {
                        group: Some(i as u64),
                    },
                    None,
                )
            })
            .collect();
        assert_eq!(ids[0], RpcId(1), "ids start at 1 and count up");
        let doomed = t.fail_over(1);
        assert_eq!(doomed.len(), 67);
        assert!(doomed.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(doomed.iter().all(|(_, o)| o.dst == 1));
        // Failed-over entries are gone; the other peers' are untouched.
        assert!(t.fail_over(1).is_empty());
        assert!(t.complete(ids[1]).is_none());
        assert!(t.complete(ids[0]).is_some());
    }

    #[test]
    fn late_and_duplicate_responses_are_ignored() {
        let mut t = RpcTable::default();
        let id = t.open(4, Pending::PushRecords, Some(17));
        assert!(t.complete(RpcId(id.0 + 1)).is_none(), "never issued");
        let o = t.complete(id).expect("first response");
        assert_eq!((o.dst, o.span_start), (4, Some(17)));
        assert!(t.complete(id).is_none(), "duplicate");
    }
}
