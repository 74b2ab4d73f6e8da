//! The master's in-memory log: an open head segment plus closed segments.
//!
//! A RAMCloud master stores every object it owns in this log and nowhere
//! else; the hash table holds references ([`LogRef`]) into it. The log is
//! also the unit of durability: closed segments are what the replication
//! manager ships to backups, and the logical append position ([`Log::
//! position`]) is what Rocksteady's lineage dependency points at — "the
//! source depends on the target's recovery log *from this offset*"
//! (§3.4).
//!
//! The log also hands out the zero-copy windows every reader of its
//! memory slices: each segment it holds sits beside one committed-prefix
//! [`Bytes`] window, taken once for a closed or adopted segment, so a
//! window leaves exactly when its segment does (DESIGN.md §3.5).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{RwLock, RwLockReadGuard};
use rocksteady_common::prefetch::prefetch_bytes;
use rocksteady_common::FxHashMap;

use crate::entry::{self, EntryKind, EntryView, OwnedEntry, ENTRY_HEADER_BYTES};
use crate::segment::{Segment, SegmentWriter};

/// Configuration for a [`Log`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Capacity of each segment in bytes. RAMCloud uses 8 MB segments;
    /// the scaled-down default keeps tests fast while preserving the
    /// many-segments structure the cleaner and migration rely on.
    pub segment_bytes: usize,
    /// Optional cap on the number of segments the log may hold (head +
    /// closed + adopted side-log segments). `None` = unbounded.
    pub max_segments: Option<usize>,
}

/// Largest `segment_bytes` a [`Log`] accepts: 16 MiB, twice RAMCloud's
/// 8 MB. The hash table packs an entry's byte offset into 24 bits, so a
/// larger segment could hold an entry no slot can point at.
pub const MAX_SEGMENT_BYTES: usize = 16 << 20;

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            segment_bytes: 1 << 20,
            max_segments: None,
        }
    }
}

/// A stable reference to one entry in a log: `(segment id, byte offset)`.
///
/// This is what the hash table stores as its value — RAMCloud keeps only
/// one copy of each object, in the log, and every index points at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogRef {
    /// Id of the segment holding the entry.
    pub segment: u64,
    /// Byte offset of the entry within the segment.
    pub offset: u32,
}

/// Errors from log appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// The serialized entry exceeds a whole segment.
    EntryTooLarge {
        /// Serialized entry size.
        need: usize,
        /// Segment capacity.
        capacity: usize,
    },
    /// The configured `max_segments` budget is exhausted.
    OutOfMemory,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::EntryTooLarge { need, capacity } => {
                write!(
                    f,
                    "entry of {need} bytes exceeds segment capacity {capacity}"
                )
            }
            LogError::OutOfMemory => write!(f, "log segment budget exhausted"),
        }
    }
}

impl std::error::Error for LogError {}

/// Aggregate log statistics.
///
/// The cleaner needs accurate statistics to be effective (§3.1.3); side
/// logs accumulate their own and merge them on commit, exactly so that
/// parallel replay workers never contend on these counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Segments currently in the log (including the head).
    pub segments: usize,
    /// Total committed bytes across all segments.
    pub committed_bytes: u64,
    /// Bytes still live (not superseded or deleted).
    pub live_bytes: u64,
    /// Entries appended over the log's lifetime (monotonic).
    pub appended_entries: u64,
    /// Bytes of memory the segments' buffers hold: their capacity, or
    /// their committed bytes for sparse side segments adopted as closed
    /// copies.
    pub allocated_bytes: u64,
}

struct Inner {
    /// All segments by id, including the head.
    segments: FxHashMap<u64, Held>,
    /// Uncommitted side-log segments, resolvable by readers (the hash
    /// table points into them during parallel replay, §3.1.3) but not yet
    /// part of the log proper.
    side: FxHashMap<u64, Held>,
    /// Every segment in the order it joined the log. Recovery and the
    /// baseline migration scan in this order.
    order: Vec<Slot>,
    /// The writer of the current head segment, the one open for appends.
    head: SegmentWriter,
}

impl Inner {
    /// The segment `id` and its window, in the log proper or registered
    /// from a side log.
    fn held(&self, id: u64) -> Option<&Held> {
        self.segments.get(&id).or_else(|| self.side.get(&id))
    }
}

/// A segment and its window: a committed prefix of it as [`Bytes`]. A
/// closed segment's window is taken when it joins or closes and covers
/// it whole; an open one's is re-taken when a read points past it.
struct Held {
    segment: Arc<Segment>,
    window: Bytes,
}

impl Held {
    /// `segment` beside a window of what it holds now: for an empty
    /// segment the empty `Bytes`, which allocates nothing. (An owner
    /// allocated beside every new segment buffer kept freed segments'
    /// heap memory resident: EXPERIMENTS.md, "The log hands out its own
    /// windows".)
    fn new(segment: Arc<Segment>) -> Held {
        let window = Bytes::new();
        let mut held = Held { segment, window };
        held.catch_up();
        held
    }

    /// Whether `offset` lies past the window, in bytes the segment has
    /// committed since the window was taken.
    fn behind(&self, offset: u32) -> bool {
        let offset = offset as usize;
        offset >= self.window.len() && offset < self.segment.committed()
    }

    /// Re-takes the window if the segment committed bytes since.
    fn catch_up(&mut self) -> &Bytes {
        if self.window.len() < self.segment.committed() {
            self.window = self.segment.committed_as_bytes();
        }
        &self.window
    }
}

/// One segment's place in the join order.
struct Slot {
    /// Join sequence number: strictly increasing along `order`, never
    /// reused, so "everything that joined since `seq`" survives the
    /// cleaner removing segments in between.
    seq: u64,
    id: u64,
    /// Adopted from a side log (closed, immutable) rather than opened as
    /// a head.
    adopted: bool,
}

/// A segment that joined the log: opened as its head, or adopted from a
/// side log. See [`Log::joined_since`].
#[derive(Debug, Clone)]
pub struct Joined {
    /// The segment.
    pub segment: Arc<Segment>,
    /// Whether it was adopted (bulk data: migration replay, cleaner
    /// survivors) rather than filled by head appends.
    pub adopted: bool,
}

/// The master log.
pub struct Log {
    config: LogConfig,
    inner: RwLock<Inner>,
    /// Segment-id allocator, shared with this log's side logs so adopted
    /// side segments never collide with main-log segments.
    next_segment_id: AtomicU64,
    /// Monotonic logical append position in bytes, across head rolls and
    /// side-log adoption. Rocksteady's lineage dependency records this.
    appended_bytes: AtomicU64,
    appended_entries: AtomicU64,
    /// Segments that ever joined (heads opened + side segments adopted):
    /// the sequence number the next one takes.
    joins: AtomicU64,
}

impl Log {
    /// Creates an empty log with one open head segment. Panics if
    /// `config.segment_bytes` exceeds [`MAX_SEGMENT_BYTES`].
    pub fn new(config: LogConfig) -> Self {
        assert!(
            config.segment_bytes <= MAX_SEGMENT_BYTES,
            "segment_bytes {} exceeds MAX_SEGMENT_BYTES ({MAX_SEGMENT_BYTES})",
            config.segment_bytes
        );
        let head = SegmentWriter::new(0, config.segment_bytes);
        let mut segments = FxHashMap::default();
        segments.insert(0, Held::new(Arc::clone(head.segment())));
        Log {
            config,
            inner: RwLock::new(Inner {
                segments,
                side: FxHashMap::default(),
                order: vec![Slot {
                    seq: 0,
                    id: 0,
                    adopted: false,
                }],
                head,
            }),
            next_segment_id: AtomicU64::new(1),
            appended_bytes: AtomicU64::new(0),
            appended_entries: AtomicU64::new(0),
            joins: AtomicU64::new(1),
        }
    }

    /// The log's configuration.
    pub fn config(&self) -> &LogConfig {
        &self.config
    }

    /// Allocates a fresh segment id (used by [`SideLog`]s so their
    /// segments can later be adopted without id collisions).
    ///
    /// [`SideLog`]: crate::sidelog::SideLog
    pub fn alloc_segment_id(&self) -> u64 {
        self.next_segment_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Current logical append position in bytes. Monotonic; grows with
    /// every append and every adopted side-log segment.
    pub fn position(&self) -> u64 {
        self.appended_bytes.load(Ordering::Acquire)
    }

    /// Id of the current head segment. Everything appended from now on
    /// lands in segments with ids ≥ this — the two-integer lineage
    /// dependency Rocksteady registers at the coordinator (§3.4) is
    /// `(this master, head_segment_id())` at migration start.
    pub fn head_segment_id(&self) -> u64 {
        self.inner.read().head.id()
    }

    /// Appends an entry, rolling the head segment as needed. Takes the
    /// head's writer through the log's write lock and counts the append
    /// with atomic adds, so any thread may call it; [`Log::append_mut`]
    /// is the same append for an owner holding the log exclusively.
    pub fn append(
        &self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<LogRef, LogError> {
        append_through(self, kind, table_id, key_hash, version, key, value)
    }

    /// [`Log::append`] through `&mut self`: the borrow checker proves no
    /// one else can reach the log, so the head's writer is taken with
    /// `get_mut` and the append counted with plain adds — no lock at all
    /// (a roll takes the write lock, once a segment).
    pub fn append_mut(
        &mut self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<LogRef, LogError> {
        append_through(self, kind, table_id, key_hash, version, key, value)
    }

    fn roll_head(&self, need: usize) -> Result<(), LogError> {
        let mut inner = self.inner.write();
        // Another appender may have rolled while we waited.
        if inner.head.free_space() >= need {
            return Ok(());
        }
        if let Some(max) = self.config.max_segments {
            if inner.segments.len() >= max {
                return Err(LogError::OutOfMemory);
            }
        }
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let head = SegmentWriter::new(id, self.config.segment_bytes);
        inner
            .segments
            .insert(id, Held::new(Arc::clone(head.segment())));
        let closed = std::mem::replace(&mut inner.head, head).close();
        // The closed head's last window: its bytes are final now.
        if let Some(held) = inner.segments.get_mut(&closed.id()) {
            held.catch_up();
        }
        self.push_slot(&mut inner, id, false);
        Ok(())
    }

    /// Records that segment `id` joined; caller holds the write lock.
    /// The lock publishes the slot; the counter's `AcqRel` add pairs with
    /// the `Acquire` load in [`Log::joins`] only so that a reader who sees
    /// the new count and then takes the read lock finds the slot there.
    fn push_slot(&self, inner: &mut Inner, id: u64, adopted: bool) {
        let seq = self.joins.fetch_add(1, Ordering::AcqRel);
        inner.order.push(Slot { seq, id, adopted });
    }

    /// How many segments ever joined this log. A reader that remembers
    /// the value can tell for one atomic load that nothing joined since.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Acquire)
    }

    /// The segments that joined at sequence number `seq` or later and
    /// are still in the log, in join order, plus the sequence number to
    /// pass next time. This is how the replication manager learns of
    /// rolled heads and adopted side segments without rescanning the log.
    pub fn joined_since(&self, seq: u64) -> (Vec<Joined>, u64) {
        let inner = self.inner.read();
        let from = inner.order.partition_point(|slot| slot.seq < seq);
        let joined = inner.order[from..]
            .iter()
            .filter_map(|slot| {
                let segment = Arc::clone(&inner.segments.get(&slot.id)?.segment);
                Some(Joined {
                    segment,
                    adopted: slot.adopted,
                })
            })
            .collect();
        (joined, self.joins())
    }

    /// Looks up the segment holding `id` — in the log proper or in an
    /// uncommitted side log registered with
    /// [`Log::register_side_segment`].
    pub fn segment(&self, id: u64) -> Option<Arc<Segment>> {
        let inner = self.inner.read();
        Some(Arc::clone(&inner.held(id)?.segment))
    }

    /// Makes an uncommitted side-log segment resolvable by readers. The
    /// hash table points into side segments while replay is in flight;
    /// commit ([`Log::adopt_segment`]) later moves the segment into the
    /// log proper.
    pub fn register_side_segment(&self, seg: Arc<Segment>) {
        self.inner.write().side.insert(seg.id(), Held::new(seg));
    }

    /// Snapshot of all segments in join order.
    pub fn segments_snapshot(&self) -> Vec<Arc<Segment>> {
        let inner = self.inner.read();
        inner
            .order
            .iter()
            .filter_map(|slot| Some(Arc::clone(&inner.segments.get(&slot.id)?.segment)))
            .collect()
    }

    /// Runs `f` on the entry at `r`, if present and parseable.
    ///
    /// The closure form avoids handing out self-referential guards; the
    /// segment `Arc` keeps the bytes alive for the duration of the call
    /// even if the cleaner concurrently retires the segment.
    ///
    /// Entries are decoded with [`entry::parse_trusted`]: every entry in
    /// this log was checksummed when it was serialized into the segment
    /// (locally by `write_entry`, or verified before adoption on the
    /// replay/recovery paths), so the per-access CRC pass would only
    /// re-prove what the append already established. This is the hot
    /// read-path accessor — reads, hash-chain key comparisons, and
    /// dead-byte accounting all funnel through it.
    pub fn with_entry<T>(&self, r: LogRef, f: impl FnOnce(&EntryView<'_>) -> T) -> Option<T> {
        let seg = self.segment(r.segment)?;
        let (view, _) = seg.entry_at_trusted(r.offset).ok()?;
        Some(f(&view))
    }

    /// Copies the entry at `r` out of the log.
    pub fn entry(&self, r: LogRef) -> Option<OwnedEntry> {
        self.with_entry(r, |v| v.to_owned())
    }

    /// The committed prefix of segment `id` as ref-counted [`Bytes`]
    /// aliasing the segment's backing buffer (zero-copy): the window the
    /// log holds for it, re-taken and stored first if the segment has
    /// committed bytes since.
    pub fn segment_bytes(&self, id: u64) -> Option<Bytes> {
        let mut inner = self.inner.write();
        let Inner { segments, side, .. } = &mut *inner;
        let held = segments.get_mut(&id).or_else(|| side.get_mut(&id))?;
        Some(held.catch_up().clone())
    }

    /// Resolves `r` to zero-copy slices of the log's window of its
    /// segment, or `None` if the segment is gone or the offset holds no
    /// committed entry. A ref past an open segment's window re-takes the
    /// window and stores it, through the write lock, so the next reads of
    /// that segment find it; a run of resolves under one lock is a
    /// [`Log::view`].
    pub fn entry_slices(&self, r: LogRef) -> Option<EntrySlices> {
        let inner = self.inner.read();
        let held = inner.held(r.segment)?;
        if !held.behind(r.offset) {
            return decode(&held.window, r.offset);
        }
        drop(inner);
        decode(&self.segment_bytes(r.segment)?, r.offset)
    }

    /// The log's segments and windows under its read lock, for a run of
    /// resolves that takes the lock once (see [`LogView`]).
    pub fn view(&self) -> LogView<'_> {
        LogView(self.inner.read())
    }

    /// Declares the entry at `r` (of `bytes` serialized size) dead, for
    /// cleaner accounting.
    pub fn mark_dead(&self, r: LogRef, bytes: u64) {
        if let Some(seg) = self.segment(r.segment) {
            seg.mark_dead(bytes);
        }
    }

    /// Adopts an externally-built (side-log) segment into this log. The
    /// segment must have been allocated via [`Log::alloc_segment_id`].
    ///
    /// Adopted segments are immutable: `seg` must be closed, its writer
    /// given up ([`SegmentWriter::close`]). Its window is taken of `seg`,
    /// which for a sparse side segment is a closed copy: the registered
    /// original and its window leave together.
    ///
    /// # Panics
    ///
    /// Panics if `seg` is open.
    pub fn adopt_segment(&self, seg: Arc<Segment>) {
        assert!(seg.is_closed(), "adopting an open segment");
        let committed = seg.committed() as u64;
        let entries = seg.entry_count();
        let id = seg.id();
        let adopted = Held::new(seg);
        let mut inner = self.inner.write();
        inner.side.remove(&id);
        debug_assert!(
            !inner.segments.contains_key(&id),
            "segment id {id} already present"
        );
        inner.segments.insert(id, adopted);
        self.push_slot(&mut inner, id, true);
        drop(inner);
        self.appended_bytes.fetch_add(committed, Ordering::AcqRel);
        self.appended_entries.fetch_add(entries, Ordering::Relaxed);
    }

    /// Removes a (cleaned) segment and its window from the log, returning
    /// the segment. Readers holding the `Arc` or a slice keep the memory
    /// alive; new lookups fail.
    pub fn remove_segment(&self, id: u64) -> Option<Arc<Segment>> {
        let mut inner = self.inner.write();
        if inner.head.id() == id {
            // The head is never cleanable.
            return None;
        }
        let held = inner.segments.remove(&id)?;
        inner.order.retain(|slot| slot.id != id);
        Some(held.segment)
    }

    /// Visits every committed entry in every segment, in adoption order.
    pub fn for_each_entry(&self, mut f: impl FnMut(LogRef, &EntryView<'_>)) {
        for seg in self.segments_snapshot() {
            for (offset, view) in seg.iter_entries() {
                f(
                    LogRef {
                        segment: seg.id(),
                        offset,
                    },
                    &view,
                );
            }
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> LogStats {
        let inner = self.inner.read();
        let mut stats = LogStats {
            segments: inner.segments.len(),
            appended_entries: self.appended_entries.load(Ordering::Relaxed),
            ..LogStats::default()
        };
        for Held { segment: seg, .. } in inner.segments.values() {
            stats.committed_bytes += seg.committed() as u64;
            stats.live_bytes += seg.live_bytes();
            stats.allocated_bytes += seg.allocated_bytes() as u64;
        }
        stats
    }
}

/// The two ways into a log's head writer and append counters: `&Log`
/// through the write lock and atomic adds, which any thread may take,
/// and `&mut Log` through `get_mut`, which the borrow checker proves
/// exclusive.
trait Door: std::ops::Deref<Target = Log> {
    /// Runs `f` on the head segment's writer.
    fn at_head<T>(&mut self, f: impl FnOnce(&mut SegmentWriter) -> T) -> T;
    /// Counts one appended entry of `bytes`.
    fn note_append(&mut self, bytes: u64);
}

impl Door for &Log {
    fn at_head<T>(&mut self, f: impl FnOnce(&mut SegmentWriter) -> T) -> T {
        f(&mut self.inner.write().head)
    }

    fn note_append(&mut self, bytes: u64) {
        self.appended_bytes.fetch_add(bytes, Ordering::AcqRel);
        self.appended_entries.fetch_add(1, Ordering::Relaxed);
    }
}

impl Door for &mut Log {
    fn at_head<T>(&mut self, f: impl FnOnce(&mut SegmentWriter) -> T) -> T {
        f(&mut self.inner.get_mut().head)
    }

    fn note_append(&mut self, bytes: u64) {
        *self.appended_bytes.get_mut() += bytes;
        *self.appended_entries.get_mut() += 1;
    }
}

/// The one append body behind [`Log::append`] and [`Log::append_mut`].
fn append_through(
    mut log: impl Door,
    kind: EntryKind,
    table_id: u64,
    key_hash: u64,
    version: u64,
    key: &[u8],
    value: &[u8],
) -> Result<LogRef, LogError> {
    let need = crate::entry::serialized_len(key.len(), value.len());
    let capacity = log.config.segment_bytes;
    if need > capacity {
        return Err(LogError::EntryTooLarge { need, capacity });
    }
    loop {
        let appended = log.at_head(|head| {
            let offset = head.append(kind, table_id, key_hash, version, key, value)?;
            let segment = head.id();
            Some(LogRef { segment, offset })
        });
        if let Some(r) = appended {
            log.note_append(need as u64);
            return Ok(r);
        }
        // Head lacks space for this entry: roll it and retry.
        log.roll_head(need)?;
    }
}

/// A parsed entry whose key and value are ref-counted windows into the
/// segment's backing memory — the zero-copy currency of the pull path.
///
/// Each `Bytes` holds the segment's `Arc`: a Pull response assembled
/// from these slices keeps its source segments alive until the last
/// slice drops, even if the cleaner retires them mid-flight.
#[derive(Debug, Clone)]
pub struct EntrySlices {
    /// Entry kind.
    pub kind: EntryKind,
    /// Owning table.
    pub table_id: u64,
    /// Primary-key hash (stored, not recomputed).
    pub key_hash: u64,
    /// Object version.
    pub version: u64,
    /// Primary key bytes, aliasing the segment.
    pub key: Bytes,
    /// Value bytes, aliasing the segment (empty for tombstones).
    pub value: Bytes,
}

impl EntrySlices {
    /// `view`, parsed at `offset` of `window`, as slices of `window`.
    pub fn of(window: &Bytes, offset: u32, view: &EntryView<'_>) -> Self {
        let key = offset as usize + ENTRY_HEADER_BYTES;
        let value = key + view.key.len();
        EntrySlices {
            kind: view.kind,
            table_id: view.table_id,
            key_hash: view.key_hash,
            version: view.version,
            key: window.slice(key..value),
            value: window.slice(value..value + view.value.len()),
        }
    }
}

/// The log's segment table under its read lock: resolves [`LogRef`]s to
/// [`EntrySlices`] out of the windows the log holds, taking the lock once
/// for the whole run instead of once per record. Each resolve costs a
/// table probe and one refcount bump per slice — never a key/value copy,
/// never a window per call.
///
/// Nothing may take the log's write lock while a view lives — that
/// includes [`Log::entry_slices`] and every append on the same thread —
/// so a ref past an open segment's window gets a fresh window that is
/// not stored. Take a view inside any hash-table stripe lock, never
/// around one: the order is stripe, then log (DESIGN.md §3.5).
///
/// Entries are decoded with [`entry::parse_trusted`]: a view only ever
/// walks this master's own committed log memory, whose entries were
/// checksummed at append time.
pub struct LogView<'a>(RwLockReadGuard<'a, Inner>);

impl LogView<'_> {
    /// [`Log::entry_slices`] under this view's lock.
    pub fn entry_slices(&self, r: LogRef) -> Option<EntrySlices> {
        let held = self.0.held(r.segment)?;
        if held.behind(r.offset) {
            return decode(&held.segment.committed_as_bytes(), r.offset);
        }
        decode(&held.window, r.offset)
    }

    /// Asks the cache for the header of the entry at `r`, ahead of the
    /// [`LogView::entry_slices`] that will decode it (a hint; see
    /// [`rocksteady_common::prefetch`]). Only within the held window.
    pub fn prefetch(&self, r: LogRef) {
        let header = r.offset as usize..r.offset as usize + ENTRY_HEADER_BYTES;
        let held = self.0.held(r.segment);
        if let Some(bytes) = held.and_then(|held| held.window.as_slice().get(header)) {
            prefetch_bytes(bytes);
        }
    }
}

/// The entry at `offset` in `window` as slices of it, if one starts there.
fn decode(window: &Bytes, offset: u32) -> Option<EntrySlices> {
    let (view, _) = entry::parse_trusted(window.get(offset as usize..)?).ok()?;
    Some(EntrySlices::of(window, offset, &view))
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("stats", &self.stats())
            .field("position", &self.position())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_log() -> Log {
        Log::new(LogConfig {
            segment_bytes: 256,
            max_segments: None,
        })
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_SEGMENT_BYTES")]
    fn segments_past_the_indexable_size_are_refused() {
        Log::new(LogConfig {
            segment_bytes: MAX_SEGMENT_BYTES + 1,
            max_segments: None,
        });
    }

    #[test]
    fn append_and_lookup() {
        let log = small_log();
        let r = log
            .append(EntryKind::Object, 1, 42, 1, b"key", b"value")
            .unwrap();
        let e = log.entry(r).unwrap();
        assert_eq!(e.key, b"key");
        assert_eq!(e.value, b"value");
        assert_eq!(e.version, 1);
    }

    #[test]
    fn rolls_head_segments() {
        let log = small_log();
        let mut refs = Vec::new();
        for i in 0..50u64 {
            refs.push(
                log.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"0123456789")
                    .unwrap(),
            );
        }
        let stats = log.stats();
        assert!(stats.segments > 1, "expected multiple segments");
        assert_eq!(stats.appended_entries, 50);
        // Every ref still resolves after rolls.
        for (i, r) in refs.iter().enumerate() {
            let e = log.entry(*r).unwrap();
            assert_eq!(e.key_hash, i as u64);
        }
    }

    #[test]
    fn rejects_oversized_entry() {
        let log = small_log();
        let big = vec![0u8; 1024];
        assert!(matches!(
            log.append(EntryKind::Object, 1, 0, 1, b"k", &big),
            Err(LogError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn respects_segment_budget() {
        let log = Log::new(LogConfig {
            segment_bytes: 128,
            max_segments: Some(2),
        });
        let mut err = None;
        for i in 0..1_000u64 {
            if let Err(e) = log.append(EntryKind::Object, 1, i, i, b"kkkk", b"vvvvvvvv") {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(LogError::OutOfMemory));
        assert_eq!(log.stats().segments, 2);
    }

    #[test]
    fn position_is_monotonic_and_byte_accurate() {
        let log = small_log();
        assert_eq!(log.position(), 0);
        log.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        let after_one = log.position();
        assert_eq!(after_one, crate::entry::serialized_len(1, 1) as u64);
        log.append(EntryKind::Object, 1, 1, 1, b"k", b"v").unwrap();
        assert_eq!(log.position(), after_one * 2);
    }

    #[test]
    fn for_each_entry_sees_everything_in_order() {
        let log = small_log();
        for i in 0..30u64 {
            log.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"0123456789")
                .unwrap();
        }
        let mut seen = Vec::new();
        log.for_each_entry(|_, v| seen.push(v.key_hash));
        assert_eq!(seen, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn mark_dead_flows_to_segment() {
        let log = small_log();
        let r = log.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        let len = crate::entry::serialized_len(1, 1) as u64;
        assert_eq!(log.stats().live_bytes, len);
        log.mark_dead(r, len);
        assert_eq!(log.stats().live_bytes, 0);
    }

    #[test]
    fn adopt_segment_makes_entries_visible() {
        let log = small_log();
        let id = log.alloc_segment_id();
        let mut side = SegmentWriter::new(id, 256);
        let off = side
            .append(EntryKind::Object, 9, 77, 1, b"sk", b"sv")
            .unwrap();
        let side = side.close();
        log.adopt_segment(Arc::clone(&side));
        let r = LogRef {
            segment: id,
            offset: off,
        };
        let e = log.entry(r).unwrap();
        assert_eq!(e.table_id, 9);
        assert!(side.is_closed());
        // Position advanced by the adopted bytes.
        assert_eq!(log.position(), side.committed() as u64);
    }

    #[test]
    fn remove_segment_retires_lookups_but_not_readers() {
        let log = small_log();
        // Fill two segments so the first is closed.
        let mut first_ref = None;
        for i in 0..50u64 {
            let r = log
                .append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"0123456789")
                .unwrap();
            first_ref.get_or_insert(r);
        }
        let first_ref = first_ref.unwrap();
        let seg = log.segment(first_ref.segment).unwrap();
        let removed = log.remove_segment(first_ref.segment).unwrap();
        assert_eq!(removed.id(), first_ref.segment);
        // Lookup through the log now fails...
        assert!(log.entry(first_ref).is_none());
        // ...but a reader holding the Arc still sees valid bytes.
        let (view, _) = seg.entry_at(first_ref.offset).unwrap();
        assert_eq!(view.key_hash, 0);
    }

    /// The head and a registered side segment are open: every ref
    /// appended into them resolves, through a view (a fresh window) and
    /// through the log (a stored one), and after the side segment is
    /// adopted as a closed copy — out of the copy's own memory.
    #[test]
    fn refs_past_an_open_segments_window_resolve() {
        let log = small_log();
        let id = log.alloc_segment_id();
        let mut side = SegmentWriter::new(id, 256);
        log.register_side_segment(Arc::clone(side.segment()));
        let mut refs = Vec::new();
        let reads = |refs: &[(LogRef, u8)], resolve: &dyn Fn(LogRef) -> Option<EntrySlices>| {
            for &(r, v) in refs {
                let e = resolve(r).unwrap_or_else(|| panic!("{r:?} did not resolve"));
                assert_eq!(&e.value[..], &[v; 8]);
            }
        };
        for i in 0..4u8 {
            let head = log
                .append(EntryKind::Object, 1, i.into(), 1, b"hk", &[i; 8])
                .unwrap();
            let offset = side
                .append(EntryKind::Object, 2, i.into(), 1, b"sk", &[i + 100; 8])
                .unwrap();
            refs.push((head, i));
            refs.push((
                LogRef {
                    segment: id,
                    offset,
                },
                i + 100,
            ));
            let view = log.view();
            reads(&refs, &|r| view.entry_slices(r));
            drop(view);
            reads(&refs, &|r| log.entry_slices(r));
        }
        let copy = Arc::new(side.close().closed_copy());
        log.adopt_segment(Arc::clone(&copy));
        reads(&refs, &|r| log.view().entry_slices(r));
        reads(&refs, &|r| log.entry_slices(r));
        let first = log.view().entry_slices(refs[1].0).unwrap();
        assert!(copy
            .committed_bytes()
            .as_ptr_range()
            .contains(&first.key.as_ptr()));
    }

    /// Removing a segment removes its window: slices handed out keep the
    /// memory, the log does not.
    #[test]
    fn a_removed_segment_takes_its_window_along() {
        let log = small_log();
        let first = log.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        while log.head_segment_id() == first.segment {
            log.append(EntryKind::Object, 1, 1, 1, b"f", &[0; 64])
                .unwrap();
        }
        let slices = log.entry_slices(first).unwrap();
        let weak = Arc::downgrade(&log.segment(first.segment).unwrap());
        log.remove_segment(first.segment).unwrap();
        assert!(log.entry_slices(first).is_none());
        assert!(log.view().entry_slices(first).is_none());
        assert_eq!(&slices.value[..], b"v");
        drop(slices);
        assert!(weak.upgrade().is_none(), "the log kept a window");
    }

    #[test]
    fn head_is_never_removable() {
        let log = small_log();
        assert!(log.remove_segment(0).is_none());
    }

    #[test]
    fn concurrent_appends_from_threads() {
        let log = Arc::new(Log::new(LogConfig {
            segment_bytes: 4096,
            max_segments: None,
        }));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut refs = Vec::new();
                for i in 0..500u64 {
                    let hash = t * 1_000 + i;
                    refs.push((
                        hash,
                        log.append(
                            EntryKind::Object,
                            1,
                            hash,
                            1,
                            &hash.to_le_bytes(),
                            b"payload",
                        )
                        .unwrap(),
                    ));
                }
                refs
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), 2_000);
        for (hash, r) in all {
            assert_eq!(log.entry(r).unwrap().key_hash, hash);
        }
        assert_eq!(log.stats().appended_entries, 2_000);
    }
}
