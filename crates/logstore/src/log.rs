//! The master's in-memory log: an open head segment plus closed segments.
//!
//! A RAMCloud master stores every object it owns in this log and nowhere
//! else; the hash table holds references ([`LogRef`]) into it. The log is
//! also the unit of durability: closed segments are what the replication
//! manager ships to backups, and the logical append position ([`Log::
//! position`]) is what Rocksteady's lineage dependency points at — "the
//! source depends on the target's recovery log *from this offset*"
//! (§3.4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use rocksteady_common::prefetch::prefetch_bytes;
use rocksteady_common::FxHashMap;

use crate::entry::{self, EntryKind, EntryView, OwnedEntry, ENTRY_HEADER_BYTES};
use crate::segment::Segment;

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
}

struct Inner {
    /// All segments by id, including the head.
    segments: FxHashMap<u64, Arc<Segment>>,
    /// Every segment in the order it joined the log. Recovery and the
    /// baseline migration scan in this order.
    order: Vec<Slot>,
    /// Current head segment (open for appends).
    head: Arc<Segment>,
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
    /// Uncommitted side-log segments, resolvable by readers (the hash
    /// table points into them during parallel replay, §3.1.3) but not yet
    /// part of the log proper.
    side_segments: RwLock<FxHashMap<u64, Arc<Segment>>>,
}

impl Log {
    /// Creates an empty log with one open head segment.
    pub fn new(config: LogConfig) -> Self {
        let head = Arc::new(Segment::new(0, config.segment_bytes));
        let mut segments = FxHashMap::default();
        segments.insert(0, Arc::clone(&head));
        Log {
            config,
            inner: RwLock::new(Inner {
                segments,
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
            side_segments: RwLock::new(FxHashMap::default()),
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

    /// Appends an entry, rolling the head segment as needed.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<LogRef, LogError> {
        let need = crate::entry::serialized_len(key.len(), value.len());
        if need > self.config.segment_bytes {
            return Err(LogError::EntryTooLarge {
                need,
                capacity: self.config.segment_bytes,
            });
        }
        loop {
            // Fast path: append into the current head under the read lock.
            {
                let inner = self.inner.read();
                if let Some(offset) = inner
                    .head
                    .append(kind, table_id, key_hash, version, key, value)
                {
                    self.note_append(need);
                    return Ok(LogRef {
                        segment: inner.head.id(),
                        offset,
                    });
                }
            }
            // Head lacks space for this entry: roll it and retry.
            self.roll_head(need)?;
        }
    }

    fn note_append(&self, bytes: usize) {
        self.appended_bytes
            .fetch_add(bytes as u64, Ordering::AcqRel);
        self.appended_entries.fetch_add(1, Ordering::Relaxed);
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
        inner.head.close();
        let id = self.next_segment_id.fetch_add(1, Ordering::Relaxed);
        let head = Arc::new(Segment::new(id, self.config.segment_bytes));
        inner.segments.insert(id, Arc::clone(&head));
        self.push_slot(&mut inner, id, false);
        inner.head = head;
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
                let segment = Arc::clone(inner.segments.get(&slot.id)?);
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
        if let Some(seg) = self.inner.read().segments.get(&id) {
            return Some(Arc::clone(seg));
        }
        self.side_segments.read().get(&id).cloned()
    }

    /// Makes an uncommitted side-log segment resolvable by readers. The
    /// hash table points into side segments while replay is in flight;
    /// commit ([`Log::adopt_segment`]) later moves the segment into the
    /// log proper.
    pub fn register_side_segment(&self, seg: Arc<Segment>) {
        self.side_segments.write().insert(seg.id(), seg);
    }

    /// Snapshot of all segments in join order.
    pub fn segments_snapshot(&self) -> Vec<Arc<Segment>> {
        let inner = self.inner.read();
        inner
            .order
            .iter()
            .filter_map(|slot| inner.segments.get(&slot.id).cloned())
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
    /// aliasing the segment's backing buffer (zero-copy; see
    /// [`Segment::committed_as_bytes`]).
    pub fn segment_bytes(&self, id: u64) -> Option<Bytes> {
        Some(self.segment(id)?.committed_as_bytes())
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
    /// Closes the segment: adopted segments are immutable.
    pub fn adopt_segment(&self, seg: Arc<Segment>) {
        seg.close();
        let committed = seg.committed() as u64;
        let entries = seg.entry_count();
        let id = seg.id();
        self.side_segments.write().remove(&id);
        let mut inner = self.inner.write();
        debug_assert!(
            !inner.segments.contains_key(&id),
            "segment id {id} already present"
        );
        inner.segments.insert(id, seg);
        self.push_slot(&mut inner, id, true);
        drop(inner);
        self.appended_bytes.fetch_add(committed, Ordering::AcqRel);
        self.appended_entries.fetch_add(entries, Ordering::Relaxed);
    }

    /// Removes a (cleaned) segment from the log, returning it. Readers
    /// holding the `Arc` keep the memory alive; new lookups fail.
    pub fn remove_segment(&self, id: u64) -> Option<Arc<Segment>> {
        let mut inner = self.inner.write();
        if inner.head.id() == id {
            // The head is never cleanable.
            return None;
        }
        let seg = inner.segments.remove(&id)?;
        inner.order.retain(|slot| slot.id != id);
        Some(seg)
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
        let mut committed = 0u64;
        let mut live = 0u64;
        for seg in inner.segments.values() {
            committed += seg.committed() as u64;
            live += seg.live_bytes();
        }
        LogStats {
            segments: inner.segments.len(),
            committed_bytes: committed,
            live_bytes: live,
            appended_entries: self.appended_entries.load(Ordering::Relaxed),
        }
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

/// Zero-copy reads: resolves [`LogRef`]s to [`EntrySlices`] out of one
/// committed-prefix [`Bytes`] window per segment id, kept for as long as
/// the segment is in the log. Its owner (the master's data path — reads,
/// Pull gathers, replication) pays the one owner allocation per segment
/// once per segment lifetime and one refcount bump per *record* — never
/// a per-record key/value copy, never a window per batch.
///
/// Windows hold the segment `Arc`: a slice handed out stays valid after
/// the cleaner retires its segment, and for the same reason the owner
/// must [`WindowCache::forget`] retired segments or their memory is
/// never returned. A window that predates an append into the open head
/// segment is transparently re-taken.
///
/// Entries are decoded with [`entry::parse_trusted`]: the cache only
/// ever walks this master's own committed log memory, whose entries were
/// checksummed at append time.
#[derive(Debug, Default)]
pub struct WindowCache {
    windows: FxHashMap<u64, Bytes>,
}

impl WindowCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        WindowCache::default()
    }

    /// Resolves `r` within `log` to zero-copy slices, or `None` if the
    /// segment is gone or the offset holds no committed entry.
    pub fn entry_slices(&mut self, log: &Log, r: LogRef) -> Option<EntrySlices> {
        if let Some(window) = self.windows.get(&r.segment) {
            if let Some(e) = Self::decode(window, r.offset) {
                return Some(e);
            }
            // The memoized window may predate an append into the open
            // head segment that this ref points at; fall through and
            // re-window before concluding the entry doesn't exist.
        }
        let window = log.segment_bytes(r.segment)?;
        self.windows.insert(r.segment, window.clone());
        Self::decode(&window, r.offset)
    }

    /// Asks the cache for the header of the entry at `r`, ahead of the
    /// [`WindowCache::entry_slices`] that will decode it (a hint; see
    /// [`rocksteady_common::prefetch`]). Only for segments already
    /// windowed — taking a window is the decode's job.
    pub fn prefetch(&self, r: LogRef) {
        let header = r.offset as usize..r.offset as usize + ENTRY_HEADER_BYTES;
        if let Some(bytes) = self
            .windows
            .get(&r.segment)
            .and_then(|window| window.as_slice().get(header))
        {
            prefetch_bytes(bytes);
        }
    }

    /// Drops the windows of `segments` — the cleaner's victims, which
    /// have left the log. Slices already handed out keep their segment
    /// alive on their own; the cache just stops being the reason a
    /// cleaned segment's memory is still resident.
    pub fn forget(&mut self, segments: &[u64]) {
        for id in segments {
            self.windows.remove(id);
        }
    }

    fn decode(window: &Bytes, offset: u32) -> Option<EntrySlices> {
        let buf = window.as_slice();
        let off = offset as usize;
        if off >= buf.len() {
            return None;
        }
        let (view, _) = entry::parse_trusted(&buf[off..]).ok()?;
        let key_start = off + ENTRY_HEADER_BYTES;
        let value_start = key_start + view.key.len();
        let value_end = value_start + view.value.len();
        Some(EntrySlices {
            kind: view.kind,
            table_id: view.table_id,
            key_hash: view.key_hash,
            version: view.version,
            key: window.slice(key_start..value_start),
            value: window.slice(value_start..value_end),
        })
    }
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
        let side = Arc::new(Segment::new(id, 256));
        let off = side
            .append(EntryKind::Object, 9, 77, 1, b"sk", b"sv")
            .unwrap();
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
