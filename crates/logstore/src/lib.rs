//! RAMCloud-style log-structured in-memory storage.
//!
//! RAMCloud keeps exactly one copy of every object in DRAM, organized as a
//! single append-only *log* divided into fixed-size *segments* (§2,
//! [Rumble et al., FAST '14]). The log is never checkpointed; a cleaner
//! incrementally compacts low-utilization segments so the system sustains
//! 80–90% memory utilization. Everything Rocksteady does — pulls that walk
//! the hash table and gather scattered log entries, parallel replay into
//! *side logs*, lineage over recovery-log tails — happens against this
//! representation, so this crate implements it for real:
//!
//! - [`entry`]: the on-log record format (objects, tombstones, side-log
//!   commit records) with CRC32C integrity checksums.
//! - [`segment`]: fixed-size append-only buffers with lock-free reader
//!   visibility (appends publish with a release store; readers acquire).
//! - [`log`]: the master log — an open head segment plus closed segments,
//!   per-segment live-byte accounting, entry lookup by [`LogRef`].
//! - [`sidelog`]: per-core side logs (§3.1.3) that replay workers append
//!   into without contention, later committed into the main log.
//! - [`cleaner`]: the cost-benefit log cleaner that relocates live entries
//!   out of sparse segments and returns the memory.
//!
//! All structures are thread-safe and usable standalone; the simulator
//! drives them single-threaded under virtual time while this crate's
//! stress tests drive them with real threads.

pub mod cleaner;
pub mod crc;
pub mod entry;
pub mod log;
pub mod segment;
pub mod sidelog;

pub use cleaner::{CleanStats, Cleaner, Relocation, Relocator};
pub use entry::{EntryKind, EntryView, OwnedEntry, ENTRY_HEADER_BYTES};
pub use log::{EntrySlices, Joined, Log, LogConfig, LogError, LogRef, LogStats, WindowCache};
pub use segment::Segment;
pub use sidelog::{SideLog, SideLogAppender};
