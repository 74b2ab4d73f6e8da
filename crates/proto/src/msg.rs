//! Request/response messages and their scheduling priorities.
//!
//! The priority ordering encodes §3.1/§4.1 of the paper exactly:
//! PriorityPulls outrank client traffic (they *are* client traffic the
//! target already promised to serve), client operations outrank replay,
//! and bulk background Pulls come last so migration never steals worker
//! time from foreground requests on the source.

use bytes::Bytes;
use rocksteady_common::ids::IndexId;
use rocksteady_common::{
    CausalCtx, HashRange, KeyHash, MigrationId, Nanos, RpcId, ScanCursor, ServerId, TableId,
};

use crate::record::{batch_wire_size, Record};
use crate::tablet::TabletDescriptor;

/// Fixed wire overhead per message (transport + RPC headers).
pub const MSG_HEADER_BYTES: u64 = 64;

/// Non-preemptive scheduling priority classes (§3.1), highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// PriorityPull service on the source: "they represent the target
    /// servicing a client request of its own" (§3.1.1).
    Urgent = 0,
    /// Normal client reads/writes/scans and the write-path replication
    /// they depend on.
    Foreground = 1,
    /// Replay of pulled records on the target: yields to client requests
    /// (§3.1.2).
    Replay = 2,
    /// Bulk Pull processing on the source and other background transfers:
    /// lowest priority in the system (§4.1).
    Background = 3,
}

/// Number of distinct priority classes.
pub const PRIORITY_LEVELS: usize = 4;

/// Error statuses returned in place of a normal response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The receiving server does not own the tablet (the client's map is
    /// stale; refetch from the coordinator). Also what a migration source
    /// answers once ownership has moved (§3).
    UnknownTablet,
    /// No object with that key.
    NotFound,
    /// The record is owned here but hasn't arrived yet; retry after the
    /// given virtual-time delay (§3: "tells the client to retry the
    /// operation after randomly waiting a few tens of microseconds").
    Retry {
        /// Suggested client back-off before retrying.
        after: Nanos,
    },
    /// The request cannot be served because a migration of this range is
    /// already in progress.
    MigrationInProgress,
}

/// How far a baseline (pre-Rocksteady) migration runs: the last stage
/// of its pipeline it performs (§2.3). Each Figure 5 lever cuts the
/// pipeline one stage earlier than the next, so the stages are totally
/// ordered and a run performs every stage up to and including its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BaselineStage {
    /// The source only identifies migrating objects ("Skip Copy for
    /// Tx").
    Identify,
    /// The source also copies them into staging buffers, but never
    /// transmits ("Skip Tx to Target").
    Copy,
    /// The source transmits; the target acks without replaying ("Skip
    /// Replay on Target").
    Tx,
    /// The target replays into its log and hash table but does not
    /// re-replicate ("Skip Re-replication").
    Replay,
    /// The whole pipeline: the target re-replicates what it replayed,
    /// and ownership moves at the end.
    #[default]
    Rereplicate,
}

/// A raw replicated-segment image returned by a backup during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentImage {
    /// Segment id in the crashed master's log.
    pub id: u64,
    /// Serialized entry bytes (a prefix of the original segment).
    pub data: Bytes,
}

/// All RPC requests in the system.
#[derive(Debug, Clone)]
pub enum Request {
    // ------------------------------------------------- client data path --
    /// Read one object by key.
    Read {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: Bytes,
        /// Client-computed key hash (used for routing and lookup).
        key_hash: KeyHash,
    },
    /// Write (insert or overwrite) one object.
    Write {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: Bytes,
        /// Client-computed key hash.
        key_hash: KeyHash,
        /// New value.
        value: Bytes,
    },
    /// Delete one object.
    Delete {
        /// Target table.
        table: TableId,
        /// Primary key.
        key: Bytes,
        /// Client-computed key hash.
        key_hash: KeyHash,
    },
    /// Read several keys living on one server with a single RPC (§2.1).
    MultiRead {
        /// Target table.
        table: TableId,
        /// Keys and their hashes.
        keys: Vec<(Bytes, KeyHash)>,
    },
    /// Read several objects by key hash (the second half of an index
    /// scan, Figure 2).
    MultiReadHash {
        /// Target table.
        table: TableId,
        /// Primary-key hashes to fetch.
        hashes: Vec<KeyHash>,
    },
    /// Range scan over a secondary index; returns primary-key hashes.
    IndexScan {
        /// Indexed table.
        table: TableId,
        /// Which secondary index.
        index: IndexId,
        /// Inclusive lower bound on the secondary key.
        begin: Bytes,
        /// Inclusive upper bound on the secondary key.
        end: Bytes,
        /// Maximum number of hashes to return.
        limit: u32,
    },

    // ---------------------------------------------- Rocksteady migration --
    /// Client → target: start a Rocksteady migration of `range` from
    /// `source` to the receiving server (§3).
    MigrateTablet {
        /// Unique id for this migration run.
        id: MigrationId,
        /// Table being migrated.
        table: TableId,
        /// Tablet hash range.
        range: HashRange,
        /// Server currently holding the records.
        source: ServerId,
    },
    /// Target → source: mark the tablet migrating (immutable at the
    /// source, clients turned away) and return the version ceiling the
    /// target must start its own writes above.
    PrepareMigration {
        /// Table being migrated.
        table: TableId,
        /// Tablet hash range.
        range: HashRange,
        /// The new owner.
        target: ServerId,
    },
    /// Target → source: bulk pull of the next batch from one hash-space
    /// partition (§3.1.1). Returns up to ~`budget_bytes` of records.
    Pull {
        /// Table being migrated.
        table: TableId,
        /// This pull's partition of the source hash space.
        range: HashRange,
        /// Resume point within the partition.
        cursor: ScanCursor,
        /// Response size budget (the paper uses 20 KB).
        budget_bytes: u32,
    },
    /// Target → source: on-demand fetch of specific keys that clients are
    /// waiting for (§3.3). Batched and de-duplicated by the target.
    PriorityPull {
        /// Table being migrated.
        table: TableId,
        /// Key hashes to fetch.
        hashes: Vec<KeyHash>,
    },

    // ------------------------------------------------ baseline migration --
    /// Control → source: run RAMCloud's pre-existing source-driven
    /// migration (§2.3), with optional phase levers for Figure 5.
    MigrateTabletBaseline {
        /// Unique id for this migration run; names the source's record
        /// of it.
        id: MigrationId,
        /// Table being migrated.
        table: TableId,
        /// Tablet hash range.
        range: HashRange,
        /// Server to copy the records to.
        target: ServerId,
        /// The last stage the run performs (Figure 5's levers).
        until: BaselineStage,
    },
    /// Source → target: one batch of the baseline migration's log-scan
    /// output.
    PushRecords {
        /// Records in this batch.
        records: Vec<Record>,
        /// The run's last stage: the target replays from
        /// [`BaselineStage::Replay`] on, and answers once re-replicated at
        /// [`BaselineStage::Rereplicate`].
        until: BaselineStage,
    },

    // ------------------------------------------------------- replication --
    /// Master → backup: replicate an append to an open segment (the
    /// write path's synchronous durability, §2).
    ReplicateAppend {
        /// Master whose log this is.
        owner: ServerId,
        /// Segment id in the owner's log.
        segment: u64,
        /// Byte offset of this chunk within the segment.
        offset: u32,
        /// The appended bytes (serialized log entries).
        data: Bytes,
    },
    /// Master → backup: the cleaner reclaimed `segment` and its survivors
    /// are durable; drop the replica.
    FreeSegment {
        /// Master whose log this is.
        owner: ServerId,
        /// Segment id.
        segment: u64,
    },
    /// Recovery master → backup: fetch replicated segment images of
    /// `owner`'s log with id ≥ `min_segment`.
    FetchSegments {
        /// The (crashed or lineage-target) master whose log is wanted.
        owner: ServerId,
        /// Skip segments below this id (lineage tail optimization, §3.4).
        min_segment: u64,
    },

    // ------------------------------------------------------- coordinator --
    /// Any → coordinator: fetch the tablet map.
    GetTabletMap,
    /// Target → coordinator: a Rocksteady migration is starting; transfer
    /// ownership to `target` NOW and record the lineage dependency of
    /// `source` on `target`'s log from `lineage_from_segment` (§3.4).
    MigrationStarting {
        /// Unique id for this migration run.
        id: MigrationId,
        /// Table being migrated.
        table: TableId,
        /// Tablet hash range.
        range: HashRange,
        /// Old owner.
        source: ServerId,
        /// New owner (the caller).
        target: ServerId,
        /// First segment id of the target's log tail the source depends
        /// on.
        lineage_from_segment: u64,
    },
    /// Target → coordinator: side logs are committed and lazily
    /// re-replicated; drop the lineage dependency (§3.4).
    MigrationComplete {
        /// Unique id for this migration run.
        id: MigrationId,
        /// Table that finished migrating.
        table: TableId,
        /// Tablet hash range.
        range: HashRange,
        /// Old owner.
        source: ServerId,
        /// New owner.
        target: ServerId,
    },
    /// Source → coordinator (baseline only): transfer ownership at the
    /// *end* of a baseline migration (§2.3).
    BaselineOwnershipTransfer {
        /// Table that finished migrating.
        table: TableId,
        /// Tablet hash range.
        range: HashRange,
        /// Old owner (the caller).
        source: ServerId,
        /// New owner.
        target: ServerId,
    },
    /// Any → coordinator: report a crashed server.
    ReportCrash {
        /// The server that died.
        server: ServerId,
    },
    /// Coordinator → every server: membership update — `server` is dead.
    /// Receivers abandon or fail over anything outstanding to it
    /// (replication waits, pulls, sync PriorityPulls).
    NotifyServerDown {
        /// The dead server.
        server: ServerId,
    },

    // ----------------------------------------------------------- recovery --
    /// Coordinator → recovery master: reconstruct `range` of `table`
    /// (previously owned by `crashed`) from backup segment images, then
    /// take ownership. With `merge = true` the recovery master already
    /// holds a copy of the range and merges the fetched log in by
    /// version (the lineage cases of §3.4); `from_segment` restricts the
    /// fetch to the depended-upon log tail.
    RecoverTablet {
        /// Table to recover.
        table: TableId,
        /// Hash range to recover.
        range: HashRange,
        /// The master whose replicated log must be replayed.
        crashed: ServerId,
        /// Backups holding that log's segments.
        backups: Vec<ServerId>,
        /// Skip segments below this id (lineage tail, §3.4).
        from_segment: u64,
        /// Whether the recovery master keeps and merges into its
        /// existing copy of the range.
        merge: bool,
    },
}

/// All RPC responses.
#[derive(Debug, Clone)]
pub enum Response {
    /// Generic success acknowledgment.
    Ok,
    /// The request failed with a status.
    Err(Status),
    /// Successful read.
    ReadOk {
        /// The value.
        value: Bytes,
        /// Its version.
        version: u64,
    },
    /// Successful write.
    WriteOk {
        /// Version assigned to the new value.
        version: u64,
    },
    /// Successful delete.
    DeleteOk {
        /// Whether the key existed.
        existed: bool,
    },
    /// Per-key results of a `MultiRead` (None = not found).
    MultiReadOk {
        /// Values in request order.
        values: Vec<Option<Bytes>>,
    },
    /// Per-hash results of a `MultiReadHash` (None = not found).
    MultiReadHashOk {
        /// Values in request order.
        values: Vec<Option<Bytes>>,
    },
    /// Primary-key hashes matching an index scan.
    IndexScanOk {
        /// Matching hashes in secondary-key order.
        hashes: Vec<KeyHash>,
        /// True if `limit` cut the scan short.
        truncated: bool,
    },
    /// Migration accepted and started by the target.
    MigrateTabletOk,
    /// Source is prepared: tablet marked migrating.
    PrepareMigrationOk {
        /// Versions the target must allocate above (so writes during
        /// migration always supersede migrated values).
        version_ceiling: u64,
    },
    /// A batch of pulled records plus the partition resume cursor
    /// (`None` = partition exhausted).
    PullOk {
        /// The records.
        records: Vec<Record>,
        /// Resume point, if more remain.
        next: Option<ScanCursor>,
    },
    /// Records fetched on demand. Hashes with no live object are simply
    /// absent (deleted keys).
    PriorityPullOk {
        /// The records.
        records: Vec<Record>,
    },
    /// Baseline batch accepted.
    PushRecordsOk,
    /// Replication accepted.
    ReplicateOk,
    /// Segment images for recovery.
    SegmentsOk {
        /// Replicated segment images.
        segments: Vec<SegmentImage>,
    },
    /// The tablet map.
    TabletMapOk {
        /// All tablet descriptors.
        tablets: Vec<TabletDescriptor>,
    },
    /// Recovery finished; the recovery master now owns the range.
    RecoverTabletOk {
        /// Entries replayed during recovery.
        replayed: u64,
    },
}

impl Request {
    /// Scheduling priority class for this request (§3.1, §4.1).
    ///
    /// Replication traffic is urgent because it sits on the critical
    /// path of *another server's* foreground write — and because
    /// replication service must never be starved by local client load
    /// (all worker cores blocked on their own replication acks would
    /// deadlock the ring otherwise).
    pub fn priority(&self) -> Priority {
        match self {
            Request::PriorityPull { .. }
            | Request::ReplicateAppend { .. }
            // Same class as the appends, so a free never overtakes a
            // chunk of the segment it frees.
            | Request::FreeSegment { .. } => Priority::Urgent,
            Request::Pull { .. } | Request::PushRecords { .. } => Priority::Background,
            _ => Priority::Foreground,
        }
    }

    /// Short static name, used as the trace-span label for this request.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Read { .. } => "read",
            Request::Write { .. } => "write",
            Request::Delete { .. } => "delete",
            Request::MultiRead { .. } => "multiread",
            Request::MultiReadHash { .. } => "multiread-hash",
            Request::IndexScan { .. } => "index-scan",
            Request::MigrateTablet { .. } => "migrate-tablet",
            Request::PrepareMigration { .. } => "prepare-migration",
            Request::Pull { .. } => "pull",
            Request::PriorityPull { .. } => "priority-pull",
            Request::MigrateTabletBaseline { .. } => "migrate-baseline",
            Request::PushRecords { .. } => "push-records",
            Request::ReplicateAppend { .. } => "replicate-append",
            Request::FreeSegment { .. } => "free-segment",
            Request::FetchSegments { .. } => "fetch-segments",
            Request::GetTabletMap => "get-tablet-map",
            Request::MigrationStarting { .. } => "migration-starting",
            Request::MigrationComplete { .. } => "migration-complete",
            Request::BaselineOwnershipTransfer { .. } => "baseline-transfer",
            Request::ReportCrash { .. } => "report-crash",
            Request::NotifyServerDown { .. } => "notify-server-down",
            Request::RecoverTablet { .. } => "recover-tablet",
        }
    }

    /// Payload bytes this request adds on top of the message header.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Request::Read { key, .. } | Request::Delete { key, .. } => key.len() as u64 + 16,
            Request::Write { key, value, .. } => key.len() as u64 + value.len() as u64 + 16,
            Request::MultiRead { keys, .. } => keys.iter().map(|(k, _)| k.len() as u64 + 12).sum(),
            Request::MultiReadHash { hashes, .. } => 8 * hashes.len() as u64,
            Request::IndexScan { begin, end, .. } => begin.len() as u64 + end.len() as u64 + 16,
            Request::PriorityPull { hashes, .. } => 8 * hashes.len() as u64,
            Request::PushRecords { records, .. } => batch_wire_size(records),
            Request::ReplicateAppend { data, .. } => data.len() as u64 + 16,
            Request::RecoverTablet { backups, .. } => 40 + 4 * backups.len() as u64,
            // Fixed-size control messages.
            _ => 32,
        }
    }

    /// Total bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        MSG_HEADER_BYTES + self.payload_bytes()
    }
}

impl Response {
    /// Payload bytes this response adds on top of the message header.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Response::ReadOk { value, .. } => value.len() as u64 + 8,
            Response::MultiReadOk { values } | Response::MultiReadHashOk { values } => values
                .iter()
                .map(|v| v.as_ref().map_or(1, |b| b.len() as u64 + 9))
                .sum(),
            Response::IndexScanOk { hashes, .. } => 8 * hashes.len() as u64 + 1,
            Response::PullOk { records, .. } => batch_wire_size(records) + 16,
            Response::PriorityPullOk { records } => batch_wire_size(records),
            Response::SegmentsOk { segments } => {
                segments.iter().map(|s| s.data.len() as u64 + 12).sum()
            }
            Response::TabletMapOk { tablets } => 40 * tablets.len() as u64,
            _ => 16,
        }
    }

    /// Total bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        MSG_HEADER_BYTES + self.payload_bytes()
    }
}

/// Either half of an RPC exchange.
#[derive(Debug, Clone)]
pub enum Body {
    /// A request.
    Req(Request),
    /// A response.
    Resp(Response),
}

/// One message on the wire: an RPC id, a request or response, and the
/// causal context. Protocol data only: the simulation kernel keeps a
/// message's send and departure times itself and hands them to the
/// receiver beside the envelope.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Correlates the response with its request. Unique per sender.
    pub rpc: RpcId,
    /// The message body.
    pub body: Body,
    /// Dapper-style causal context: the journey this message belongs to.
    /// Rides every envelope unconditionally (requests carry the issuing
    /// operation's context, responses echo their request's) but models
    /// header slack — it contributes zero wire bytes, so carrying it can
    /// never change the event schedule. [`CausalCtx::NONE`] for
    /// control-plane and infrastructure traffic.
    pub ctx: CausalCtx,
}

// An RPC id (8 B), a `Body` (104 B) and a `CausalCtx` (16 B): every
// send, rx-queue entry and deferred response moves these bytes.
const _: () = assert!(std::mem::size_of::<Envelope>() == 128);

impl Envelope {
    /// Wraps a request.
    pub fn req(rpc: RpcId, request: Request) -> Self {
        Envelope {
            rpc,
            body: Body::Req(request),
            ctx: CausalCtx::NONE,
        }
    }

    /// Wraps a response.
    pub fn resp(rpc: RpcId, response: Response) -> Self {
        Envelope {
            rpc,
            body: Body::Resp(response),
            ctx: CausalCtx::NONE,
        }
    }

    /// Attaches a causal context (builder-style, for the data-path call
    /// sites that have one; everything else defaults to
    /// [`CausalCtx::NONE`]).
    #[must_use]
    pub fn with_ctx(mut self, ctx: CausalCtx) -> Self {
        self.ctx = ctx;
        self
    }

    /// Total bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        match &self.body {
            Body::Req(r) => r.wire_size(),
            Body::Resp(r) => r.wire_size(),
        }
    }
}

impl rocksteady_common::WireSized for Envelope {
    fn wire_size(&self) -> u64 {
        Envelope::wire_size(self)
    }
}

impl rocksteady_common::SimMessage for Envelope {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_match_paper_ordering() {
        let pp = Request::PriorityPull {
            table: TableId(1),
            hashes: vec![1],
        };
        let read = Request::Read {
            table: TableId(1),
            key: Bytes::from_static(b"k"),
            key_hash: 1,
        };
        let pull = Request::Pull {
            table: TableId(1),
            range: HashRange::full(),
            cursor: ScanCursor::default(),
            budget_bytes: 20_000,
        };
        assert!(pp.priority() < read.priority());
        assert!(read.priority() < pull.priority());
        assert_eq!(pp.priority(), Priority::Urgent);
        assert_eq!(pull.priority(), Priority::Background);
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Request::Write {
            table: TableId(1),
            key: Bytes::from_static(b"k"),
            key_hash: 1,
            value: Bytes::from(vec![0u8; 10]),
        };
        let big = Request::Write {
            table: TableId(1),
            key: Bytes::from_static(b"k"),
            key_hash: 1,
            value: Bytes::from(vec![0u8; 10_000]),
        };
        assert_eq!(big.wire_size() - small.wire_size(), 9_990);
        assert!(small.wire_size() > MSG_HEADER_BYTES);
    }

    #[test]
    fn pull_response_counts_records() {
        let rec = Record {
            table: TableId(1),
            key_hash: 5,
            version: 1,
            key: Bytes::from_static(b"0123456789"),
            value: Bytes::from(vec![0u8; 90]),
            tombstone: false,
        };
        let resp = Response::PullOk {
            records: vec![rec.clone(); 10],
            next: None,
        };
        assert_eq!(
            resp.wire_size(),
            MSG_HEADER_BYTES + 10 * rec.wire_size() + 16
        );
    }

    #[test]
    fn envelope_wraps_and_sizes() {
        let env = Envelope::req(RpcId(9), Request::GetTabletMap);
        assert_eq!(env.rpc, RpcId(9));
        assert_eq!(env.wire_size(), MSG_HEADER_BYTES + 32);
        let env = Envelope::resp(RpcId(9), Response::Ok);
        assert_eq!(env.wire_size(), MSG_HEADER_BYTES + 16);
    }

    #[test]
    fn causal_ctx_rides_free_of_wire_bytes() {
        use rocksteady_common::TraceId;
        let bare = Envelope::req(RpcId(1), Request::GetTabletMap);
        let ctxed = Envelope::req(RpcId(1), Request::GetTabletMap).with_ctx(CausalCtx {
            trace_id: TraceId::mint(3, 42),
            hop: 1,
        });
        assert_eq!(bare.wire_size(), ctxed.wire_size());
        assert_eq!(bare.ctx, CausalCtx::NONE);
        assert!(ctxed.ctx.trace_id.is_some());
    }
}
