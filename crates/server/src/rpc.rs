//! What each request this server has outstanding means to it. Paired
//! with when the request left (if a span was opened for it), a
//! [`Pending`] is what the node's [`Calls`](rocksteady_proto::Calls)
//! table keeps for the call.

use bytes::Bytes;
use rocksteady_common::{KeyHash, MigrationId, TableId};

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
