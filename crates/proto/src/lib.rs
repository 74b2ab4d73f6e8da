//! RPC message definitions for the simulated RAMCloud cluster.
//!
//! Everything that crosses the (simulated) network is defined here: the
//! client data path (reads, writes, multi-ops, index scans — §2), the
//! migration path (`MigrateTablet`, `PrepareMigration`, `Pull`,
//! `PriorityPull` — §3), segment replication to backups (§2, §3.4), and
//! the coordinator control plane (tablet map, lineage dependencies, crash
//! reports — §3.4).
//!
//! Messages carry real payload bytes ([`bytes::Bytes`] buffers — pull
//! responses really contain the records being migrated) and know their
//! own [`wire size`](Envelope::wire_size) so the simulator's NIC model
//! can charge transmission time. [`Calls`] is each sender's one table of
//! the requests it has outstanding.

pub mod calls;
pub mod msg;
pub mod record;
pub mod tablet;

pub use calls::Calls;
pub use msg::{Body, Envelope, Priority, Request, Response, Status, MSG_HEADER_BYTES};
pub use record::Record;
pub use tablet::{TabletDescriptor, TabletState};
