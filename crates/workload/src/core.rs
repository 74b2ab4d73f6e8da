//! Shared client plumbing: routing, map refresh, calls, key naming.
//!
//! RAMCloud clients cache the coordinator's tablet map and learn about
//! migrations lazily: a request to the old owner returns `UnknownTablet`,
//! the client refetches the map, and retries against the new owner (§3).
//! [`ClientCore`] implements that cycle once for all workload shapes.

use rocksteady_common::{key_hash, KeyHash, RpcId, ServerId, TableId};
use rocksteady_proto::{Calls, Envelope, Request, TabletDescriptor};
use rocksteady_simnet::{ActorId, Ctx, Directory};

/// What one of a client's open calls is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Call {
    /// The tablet-map fetch.
    Map,
    /// An attempt of the operation with this id.
    Op(u64),
}

/// Routing + the calls table shared by all clients.
#[derive(Debug)]
pub struct ClientCore {
    /// Cluster wiring.
    pub dir: Directory,
    /// The table this client works against.
    pub table: TableId,
    /// Every call this client has open, the map fetch's included.
    pub(crate) calls: Calls<ActorId, Call>,
    map: Vec<TabletDescriptor>,
    map_rpc: Option<RpcId>,
}

impl ClientCore {
    /// Creates a core for `table` in the given cluster.
    pub fn new(dir: Directory, table: TableId) -> Self {
        ClientCore {
            dir,
            table,
            calls: Calls::default(),
            map: Vec::new(),
            map_rpc: None,
        }
    }

    /// Current owner of `hash` per the cached map.
    pub fn owner_of(&self, hash: KeyHash) -> Option<ServerId> {
        self.map
            .iter()
            .find(|t| t.covers(self.table, hash))
            .map(|t| t.owner)
    }

    /// Requests the tablet map from the coordinator (no-op if one fetch
    /// is already outstanding). Returns the RPC id when sent.
    pub fn request_map(&mut self, ctx: &mut Ctx<'_, Envelope>) -> Option<RpcId> {
        if self.map_rpc.is_some() {
            return None;
        }
        let coordinator = self.dir.coordinator;
        let rpc = self.calls.open(coordinator, Call::Map, None, ctx.now());
        self.map_rpc = Some(rpc);
        ctx.send(coordinator, Envelope::req(rpc, Request::GetTabletMap));
        Some(rpc)
    }

    /// Installs a map response. Returns true if `rpc` was the pending
    /// map fetch.
    pub fn install_map(&mut self, rpc: RpcId, tablets: Vec<TabletDescriptor>) -> bool {
        if self.map_rpc == Some(rpc) {
            self.map_rpc = None;
            self.calls.complete(rpc);
            self.map = tablets;
            true
        } else {
            false
        }
    }

    /// Actor id of a server.
    pub fn actor_of(&self, id: ServerId) -> ActorId {
        self.dir.actor_of(id)
    }
}

/// Formats the `rank`-th primary key: `"user"` followed by the rank
/// zero-padded on the *left* to fill `key_len` bytes (the paper uses
/// 30 B keys; §4.1). Left-padding keeps every rank distinct.
pub fn primary_key(rank: u64, key_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(key_len.max(4 + 20));
    write_primary_key(rank, key_len, &mut out);
    out
}

/// Formats the `rank`-th primary key into `out` (cleared first) without
/// allocating in the steady state — the bulk-load path formats millions
/// of keys and must not pay a `format!` heap allocation per record.
/// Produces byte-identical output to [`primary_key`].
pub fn write_primary_key(rank: u64, key_len: usize, out: &mut Vec<u8>) {
    let digits = key_len.saturating_sub(4).max(1);
    // `format!("{rank:0digits$}")` pads to `digits` but never truncates;
    // match that by widening to the rank's own decimal length if needed.
    let mut need = 1;
    let mut r = rank;
    while r >= 10 {
        need += 1;
        r /= 10;
    }
    let width = digits.max(need);
    out.clear();
    out.extend_from_slice(b"user");
    let start = out.len();
    out.resize(start + width, b'0');
    let mut r = rank;
    let mut i = start + width;
    while r > 0 {
        i -= 1;
        out[i] = b'0' + (r % 10) as u8;
        r /= 10;
    }
}

/// Hash of the `rank`-th primary key.
pub fn primary_hash(rank: u64, key_len: usize) -> KeyHash {
    key_hash(&primary_key(rank, key_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_and_distinct() {
        let a = primary_key(0, 30);
        let b = primary_key(123_456, 30);
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 30);
        assert_ne!(a, b);
        assert_eq!(primary_hash(7, 30), key_hash(&primary_key(7, 30)));
        // The historical trap: user1 / user10 / user100 must not collide
        // under padding.
        let mut keys: Vec<Vec<u8>> = (0..10_000).map(|r| primary_key(r, 30)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn owner_lookup_uses_cached_map() {
        use rocksteady_common::HashRange;
        use rocksteady_proto::TabletState;
        let mut core = ClientCore::new(Directory::default(), TableId(1));
        assert_eq!(core.owner_of(5), None);
        core.map = vec![TabletDescriptor {
            table: TableId(1),
            range: HashRange { start: 0, end: 10 },
            owner: ServerId(3),
            state: TabletState::Normal,
        }];
        assert_eq!(core.owner_of(5), Some(ServerId(3)));
        assert_eq!(core.owner_of(11), None);
    }
}
