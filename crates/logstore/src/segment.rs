//! Fixed-size append-only log segments.
//!
//! A segment is the unit of everything in RAMCloud's storage design: logs
//! grow by whole segments, backups replicate whole segments, the cleaner
//! reclaims whole segments, and side logs are independent chains of
//! segments (§2.3, §3.1.3).
//!
//! Concurrency contract: a segment has one writer. It is made with its
//! [`SegmentWriter`], which is not `Clone` and appends through `&mut
//! self`, so whoever holds the writer (a log's head slot, a side log's
//! head, a cleaner pass's survivors) is the only thread that can append,
//! and the borrow checker, not a lock, is what serializes appends. An
//! append writes its bytes, then publishes them with a release-store of
//! the committed length; as the only writer of `committed` and of the
//! entry count it updates both with a load and a store, and takes no
//! lock and no read-modify-write at all. Live bytes are not counted on
//! append: they are `committed − dead`, and [`Segment::mark_dead`],
//! which any thread may call, is the one read-modify-write on the dead
//! count. Readers may run concurrently with an append and only ever
//! observe fully-written entries. A segment closes when its writer is
//! given up ([`SegmentWriter::close`]); closed segments are immutable
//! forever, which is what lets migration pulls and replication ship
//! references to segment memory without copies (§3.2).

use std::alloc::{alloc, dealloc, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::entry::{self, EntryKind, EntryView, ParseError, ENTRY_HEADER_BYTES};

/// The smallest block glibc serves from a private `mmap` (and hands
/// back to the kernel when freed), as [`keep_in_heap`] last set it.
static MMAP_THRESHOLD: Mutex<usize> = Mutex::new(0);

/// Has glibc serve segments of `capacity` bytes from its heap and every
/// block of twice that (2 MiB at least) from `mmap`.
///
/// Left to itself, glibc raises its threshold to the size of each mapped
/// block freed, up to 32 MiB, so after a cluster's first large free the
/// multi-megabyte transient buffers of its exports, journeys and audit
/// sink are carved out of the heap between segments. Freed, they leave
/// holes the next cluster's segments do not fit, and the heap's resident
/// size grows from one cluster of a process to the next: the benchmark's
/// `observed_rebalance` peak read 288 MB over four rounds and 313–315 MB
/// over five or more (EXPERIMENTS.md, "The heap keeps segments, not
/// exports").
/// Pinned, a freed segment is still reused without a page fault.
fn keep_in_heap(capacity: usize) {
    let want = capacity.saturating_mul(2).clamp(2 << 20, 32 << 20);
    let mut threshold = MMAP_THRESHOLD.lock();
    if *threshold >= want {
        return;
    }
    *threshold = want;
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// `M_MMAP_THRESHOLD` in glibc's `<malloc.h>`.
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented, thread-safe setter of
        // an allocator parameter (it takes the main arena's lock); it
        // moves no block already allocated, only where later ones come
        // from. `want` is at most 32 MiB, so the cast is lossless.
        unsafe { mallopt(M_MMAP_THRESHOLD, want as i32) };
    }
}

/// `Bytes` owner exposing a segment's committed prefix.
///
/// The length is captured at construction: `committed` only grows, so the
/// captured prefix is immutable for the owner's whole lifetime. That is
/// what `Bytes::from_owner` requires: it calls `as_ref` once and reads
/// the slice it returned for as long as the owner lives.
struct CommittedWindow {
    segment: Arc<Segment>,
    len: usize,
}

impl AsRef<[u8]> for CommittedWindow {
    fn as_ref(&self) -> &[u8] {
        &self.segment.committed_bytes()[..self.len]
    }
}

/// A fixed-capacity, append-only byte region holding serialized entries.
///
/// A segment's buffer is normally `capacity` bytes long. A closed copy
/// ([`Segment::closed_copy`]) owns only its committed bytes but keeps
/// the logical `capacity`, so everything computed from it — free space,
/// utilization, the cleaner's choice — reads the same as the original's.
pub struct Segment {
    id: u64,
    base: *mut u8,
    /// Length of the allocation at `base`: `capacity` for a segment made
    /// by [`SegmentWriter::new`], the committed length for a closed copy.
    buf_len: usize,
    capacity: usize,
    /// Bytes published to readers. Monotonic; written only by the
    /// segment's [`SegmentWriter`], stored with `Release` after the bytes
    /// below it are fully written, loaded with `Acquire`. No byte at or
    /// above it is ever read.
    committed: AtomicUsize,
    /// Set once, by [`SegmentWriter::close`] (or at birth, for a closed
    /// copy): no append follows.
    closed: AtomicBool,
    /// Bytes of entries declared dead (superseded or deleted), never more
    /// than `committed` was when they were declared: live bytes are
    /// `committed − dead`. The owning log raises it as entries die; the
    /// cleaner reads the difference to pick victims.
    dead: AtomicU64,
    /// Number of entries appended; written only by the writer.
    entries: AtomicU64,
}

// SAFETY: the raw buffer is owned exclusively by this Segment (allocated
// in `SegmentWriter::new` or `closed_copy`, freed in `drop`, never aliased
// externally). All mutation goes through `SegmentWriter::append`, which
// needs `&mut` to the segment's one writer (so no two appends overlap)
// and writes only at and above `committed`, then publishes the bytes with
// a release store of it; readers only dereference bytes below an
// acquire-load of `committed`. Therefore sending or sharing a Segment
// across threads cannot produce a data race.
unsafe impl Send for Segment {}
// SAFETY: see the `Send` justification; shared access is race-free by the
// publication protocol above.
unsafe impl Sync for Segment {}

impl Segment {
    /// A closed segment holding a copy of this one's committed bytes in a
    /// buffer of exactly that length, with the same id, capacity, live
    /// bytes and entry count. Every offset into this segment reads the
    /// same entry in the copy, and the copy refuses appends.
    ///
    /// # Panics
    ///
    /// Panics if this segment is open (a later append would be lost) or
    /// empty (there is nothing to copy).
    pub fn closed_copy(&self) -> Segment {
        assert!(self.is_closed(), "copy of an open segment");
        let bytes = self.committed_bytes();
        assert!(!bytes.is_empty(), "copy of an empty segment");
        let layout = Layout::array::<u8>(bytes.len()).expect("segment layout");
        // SAFETY: `layout` has non-zero size (checked above) and valid
        // alignment for u8.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "segment allocation failed");
        // SAFETY: `base` is a fresh allocation of `bytes.len()` bytes, so
        // it is valid for the write and cannot overlap `bytes`.
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), base, bytes.len()) };
        Segment {
            id: self.id,
            base,
            buf_len: bytes.len(),
            capacity: self.capacity,
            committed: AtomicUsize::new(bytes.len()),
            closed: AtomicBool::new(true),
            dead: AtomicU64::new(self.dead.load(Ordering::Acquire)),
            entries: AtomicU64::new(self.entry_count()),
        }
    }

    /// This segment's id, unique within its owning log.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes of memory the segment's buffer holds: its capacity, or its
    /// committed length for a [`Segment::closed_copy`].
    pub fn allocated_bytes(&self) -> usize {
        self.buf_len
    }

    /// Bytes currently published to readers.
    pub fn committed(&self) -> usize {
        self.committed.load(Ordering::Acquire)
    }

    /// Remaining append space, zero once closed.
    pub fn free_space(&self) -> usize {
        if self.is_closed() {
            0
        } else {
            self.capacity - self.committed()
        }
    }

    /// Whether the segment has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Bytes attributed to live entries: committed bytes less those the
    /// owning log declared dead.
    pub fn live_bytes(&self) -> u64 {
        // `dead` first: it never exceeds a `committed` its marker loaded
        // before publishing it, and `committed` only grows.
        let dead = self.dead.load(Ordering::Acquire);
        self.committed() as u64 - dead
    }

    /// Number of entries appended so far.
    pub fn entry_count(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Fraction of committed bytes that are still live, in `[0, 1]`.
    /// The cleaner's victim-selection metric.
    pub fn utilization(&self) -> f64 {
        let committed = self.committed();
        if committed == 0 {
            // An empty open segment is "fully utilized": nothing to clean.
            return 1.0;
        }
        self.live_bytes() as f64 / committed as f64
    }

    /// Declares `bytes` of this segment's entries dead (superseded or
    /// deleted). Live bytes saturate at zero: the dead count stops at
    /// what is committed now, so bytes appended later count as live.
    pub fn mark_dead(&self, bytes: u64) {
        // `committed` is loaded after the count it caps (an `Acquire`
        // load pairing with the `Release` store that set it), so it is at
        // least the `committed` that capped that count: dead never passes
        // it. `live_bytes` loads `dead` with `Acquire` the same way.
        let _ = self
            .dead
            .fetch_update(Ordering::Release, Ordering::Acquire, |dead| {
                Some(dead.saturating_add(bytes).min(self.committed() as u64))
            });
    }

    /// All published bytes, as an immutable slice.
    pub fn committed_bytes(&self) -> &[u8] {
        let len = self.committed();
        // SAFETY: bytes below `committed` (acquire-loaded) were fully
        // written before the corresponding release store and are never
        // mutated again.
        unsafe { std::slice::from_raw_parts(self.base, len) }
    }

    /// All published bytes as ref-counted [`Bytes`] aliasing this
    /// segment's backing buffer — zero-copy.
    ///
    /// The returned `Bytes` (and every window `slice`d out of it) holds
    /// this segment's `Arc`, so the memory stays valid even if the owning
    /// log drops the segment (cleaner relocation, migration teardown)
    /// while slices are still in flight. Slicing is a refcount bump, not
    /// an allocation, so a whole Pull response can alias one window.
    pub fn committed_as_bytes(self: &Arc<Self>) -> Bytes {
        Bytes::from_owner(CommittedWindow {
            segment: Arc::clone(self),
            len: self.committed(),
        })
    }

    /// Parses the entry starting at `offset`.
    ///
    /// Returns the view and its serialized length. Fails with
    /// [`ParseError::Truncated`] if `offset` is at or past the committed
    /// region (there is no entry there yet).
    pub fn entry_at(&self, offset: u32) -> Result<(EntryView<'_>, usize), ParseError> {
        let bytes = self.committed_bytes();
        let offset = offset as usize;
        if offset >= bytes.len() {
            return Err(ParseError::Truncated);
        }
        entry::parse(&bytes[offset..])
    }

    /// Parses the entry at `offset` without re-verifying its checksum
    /// (see [`entry::parse_trusted`]): for reads of a master's own
    /// committed log memory, whose entries were checksummed when
    /// [`SegmentWriter::append`] serialized them. Bytes of foreign origin must
    /// go through [`Segment::entry_at`].
    pub fn entry_at_trusted(&self, offset: u32) -> Result<(EntryView<'_>, usize), ParseError> {
        let bytes = self.committed_bytes();
        let offset = offset as usize;
        if offset >= bytes.len() {
            return Err(ParseError::Truncated);
        }
        entry::parse_trusted(&bytes[offset..])
    }

    /// Iterates all committed entries in append order as
    /// `(offset, EntryView)` pairs.
    ///
    /// Used by the baseline migration's log scan (§2.3) and the cleaner;
    /// crash recovery walks fetched images with [`SegmentIter::new`].
    pub fn iter_entries(&self) -> SegmentIter<'_> {
        SegmentIter::new(self.committed_bytes())
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let layout = Layout::array::<u8>(self.buf_len).expect("segment layout");
        // SAFETY: `base` was allocated in `new` or `closed_copy` with
        // exactly this layout and is freed exactly once (drop).
        unsafe { dealloc(self.base, layout) };
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("allocated", &self.buf_len)
            .field("committed", &self.committed())
            .field("closed", &self.is_closed())
            .field("live_bytes", &self.live_bytes())
            .field("entries", &self.entry_count())
            .finish()
    }
}

/// The one handle that appends to a segment: made with it, not `Clone`,
/// and appending through `&mut self`, so its holder is the segment's only
/// writer and no append takes a lock. Readers share the segment through
/// [`SegmentWriter::segment`]; the writer reads it through `Deref`.
pub struct SegmentWriter {
    segment: Arc<Segment>,
}

impl SegmentWriter {
    /// Allocates an open segment of `capacity` bytes and its writer. The
    /// buffer is not zeroed: no byte at or above `committed` is ever read
    /// ([`Segment::committed_bytes`] is the one read path, and
    /// [`Segment::closed_copy`] copies committed bytes only), and an
    /// append writes every byte below the committed length it publishes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or allocation fails.
    pub fn new(id: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity segment");
        keep_in_heap(capacity);
        let layout = Layout::array::<u8>(capacity).expect("segment layout");
        // SAFETY: `layout` has non-zero size (capacity > 0) and valid
        // alignment for u8. The bytes are left uninitialized; see above
        // for why none is read before an append writes it.
        let base = unsafe { alloc(layout) };
        assert!(!base.is_null(), "segment allocation failed");
        let segment = Segment {
            id,
            base,
            buf_len: capacity,
            capacity,
            committed: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            dead: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        };
        SegmentWriter {
            segment: Arc::new(segment),
        }
    }

    /// The segment, shared with readers.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.segment
    }

    /// Appends a serialized entry; returns its byte offset, or `None` if
    /// the segment lacks space.
    pub fn append(
        &mut self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Option<u32> {
        let seg = &*self.segment;
        let len = entry::serialized_len(key.len(), value.len());
        let header = entry::header(kind, table_id, key_hash, version, key, value);
        // Only this writer stores `committed`: it reads its own store.
        let offset = seg.committed.load(Ordering::Relaxed);
        if len > seg.capacity - offset {
            return None;
        }
        // SAFETY: a writer's segment was allocated by `new` with
        // `buf_len == capacity`, so `offset..offset + len` is within the
        // allocation (checked above). No reader dereferences bytes at or
        // above `committed` (== offset), and `&mut self` on the segment's
        // one writer excludes every other append, so nothing else touches
        // these bytes. The three copies write every one of the `len`
        // bytes, header, key and value, before the slice over them is
        // made, so the slice is initialized and unaliased.
        let buf = unsafe {
            let at = seg.base.add(offset);
            std::ptr::copy_nonoverlapping(header.as_ptr(), at, ENTRY_HEADER_BYTES);
            let key_at = at.add(ENTRY_HEADER_BYTES);
            std::ptr::copy_nonoverlapping(key.as_ptr(), key_at, key.len());
            let value_at = key_at.add(key.len());
            std::ptr::copy_nonoverlapping(value.as_ptr(), value_at, value.len());
            std::slice::from_raw_parts_mut(at, len)
        };
        entry::seal(buf);
        let entries = seg.entries.load(Ordering::Relaxed);
        seg.entries.store(entries + 1, Ordering::Relaxed);
        // Publish: everything below offset + len is now fully written.
        seg.committed.store(offset + len, Ordering::Release);
        Some(offset as u32)
    }

    /// Closes the segment, immutable from now on, and gives up the
    /// writer: no append can follow.
    pub fn close(self) -> Arc<Segment> {
        self.segment.closed.store(true, Ordering::Release);
        self.segment
    }
}

impl std::ops::Deref for SegmentWriter {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        &self.segment
    }
}

/// Iterator over a segment's committed entries, each checked as it is
/// parsed: a torn or corrupt entry ends the walk.
pub struct SegmentIter<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> SegmentIter<'a> {
    /// Walks `bytes`, a segment's committed region or an image of one
    /// fetched from a backup (crash recovery).
    pub fn new(bytes: &'a [u8]) -> Self {
        SegmentIter { bytes, offset: 0 }
    }
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = (u32, EntryView<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        // A parse failure means we walked off the end of the valid
        // entries (or hit corruption); either way iteration stops.
        let (view, len) = entry::parse(self.bytes.get(self.offset..)?).ok()?;
        let at = self.offset as u32;
        self.offset += len;
        Some((at, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read_back() {
        let mut seg = SegmentWriter::new(1, 4096);
        let off = seg
            .append(EntryKind::Object, 1, 0xaa, 1, b"key", b"value")
            .unwrap();
        assert_eq!(off, 0);
        let (view, _) = seg.entry_at(off).unwrap();
        assert_eq!(view.key, b"key");
        assert_eq!(view.value, b"value");
        assert_eq!(seg.entry_count(), 1);
    }

    /// The append lays an entry out with raw copies of `entry::header`,
    /// key and value, then seals it: byte for byte what
    /// `entry::write_entry` writes.
    #[test]
    fn an_append_writes_what_write_entry_writes() {
        let mut seg = SegmentWriter::new(1, 4096);
        let mut expected = Vec::new();
        for (i, (key, value)) in [(&b""[..], &b""[..]), (b"k", b"value"), (b"key-7", b"")]
            .into_iter()
            .enumerate()
        {
            let kind = [
                EntryKind::SideLogCommit,
                EntryKind::Object,
                EntryKind::Tombstone,
            ][i];
            let at = expected.len();
            expected.resize(at + entry::serialized_len(key.len(), value.len()), 0);
            entry::write_entry(&mut expected[at..], kind, 3, 40 + i as u64, 9, key, value);
            assert_eq!(
                seg.append(kind, 3, 40 + i as u64, 9, key, value),
                Some(at as u32)
            );
        }
        assert_eq!(seg.committed_bytes(), &expected[..]);
    }

    #[test]
    fn append_until_full() {
        let mut seg = SegmentWriter::new(1, 256);
        let mut appended = 0;
        while seg
            .append(EntryKind::Object, 1, 0, 1, b"k", b"0123456789")
            .is_some()
        {
            appended += 1;
        }
        assert!(appended > 0);
        assert!(seg.free_space() < entry::serialized_len(1, 10));
        // Committed bytes all parse.
        assert_eq!(seg.iter_entries().count(), appended);
    }

    #[test]
    fn a_closed_segment_keeps_its_entries_and_has_no_space() {
        let mut seg = SegmentWriter::new(1, 4096);
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        let seg = seg.close();
        assert!(seg.is_closed());
        assert_eq!(seg.free_space(), 0);
        // Existing data still readable.
        assert_eq!(seg.iter_entries().count(), 1);
    }

    #[test]
    fn live_byte_accounting() {
        let mut seg = SegmentWriter::new(1, 4096);
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        let len = entry::serialized_len(1, 1) as u64;
        assert_eq!(seg.live_bytes(), len);
        assert!((seg.utilization() - 1.0).abs() < 1e-12);
        seg.mark_dead(len);
        assert_eq!(seg.live_bytes(), 0);
        assert_eq!(seg.utilization(), 0.0);
        // Saturates rather than underflowing.
        seg.mark_dead(1_000_000);
        assert_eq!(seg.live_bytes(), 0);
        // Bytes appended after a saturating mark are live: the dead
        // count stopped at what was committed then.
        seg.append(EntryKind::Object, 1, 1, 2, b"k", b"w").unwrap();
        assert_eq!(seg.live_bytes(), len);
        assert_eq!(seg.committed() as u64, 2 * len);
        assert!((seg.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_open_segment_reports_full_utilization() {
        let seg = SegmentWriter::new(1, 128);
        assert_eq!(seg.utilization(), 1.0);
    }

    #[test]
    fn entry_at_bad_offset() {
        let mut seg = SegmentWriter::new(1, 4096);
        assert!(seg.entry_at(0).is_err());
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        assert!(seg.entry_at(3).is_err()); // mid-entry: checksum fails
        assert!(seg.entry_at(10_000).is_err());
    }

    #[test]
    fn iterates_in_append_order() {
        let mut seg = SegmentWriter::new(1, 4096);
        for i in 0..10u64 {
            seg.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"v")
                .unwrap();
        }
        let hashes: Vec<u64> = seg.iter_entries().map(|(_, v)| v.key_hash).collect();
        assert_eq!(hashes, (0..10).collect::<Vec<_>>());
    }

    /// Real-thread smoke test of the publication protocol, with the
    /// writer on its own thread and no lock anywhere: readers walk the
    /// committed bytes with the checked [`SegmentIter`], so a torn or
    /// unwritten entry below `committed` ends the walk short.
    #[test]
    fn concurrent_append_and_read() {
        const N: u64 = 5_000;
        let mut writer = SegmentWriter::new(1, 1 << 20);
        let seg = Arc::clone(writer.segment());
        let appender = std::thread::spawn(move || {
            for i in 0..N {
                writer
                    .append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"vvvv")
                    .expect("fits");
            }
            writer.close()
        });
        let mut seen = 0;
        while !seg.is_closed() {
            let bytes = seg.committed_bytes();
            let mut walked = 0;
            for (offset, view) in SegmentIter::new(bytes) {
                assert_eq!(view.key_hash, walked, "entry at {offset}");
                assert_eq!(view.value, b"vvvv");
                walked += 1;
            }
            // Every published byte is a whole checked entry.
            assert_eq!(
                walked * entry::serialized_len(8, 4) as u64,
                bytes.len() as u64
            );
            assert!(walked >= seen, "entry count regressed");
            seen = walked;
        }
        let seg = appender.join().unwrap();
        assert_eq!(SegmentIter::new(seg.committed_bytes()).count() as u64, N);
    }

    /// The counters under a real second thread: the writer on one, a
    /// thread marking each appended entry dead as soon as it is published
    /// on the other. The entry count is written without a
    /// read-modify-write and live bytes are `committed − dead`, so both
    /// must come out exact.
    #[test]
    fn concurrent_append_and_mark_dead() {
        const N: u64 = 4_000;
        let mut writer = SegmentWriter::new(1, 1 << 20);
        let len = entry::serialized_len(8, 4) as u64;
        let marker = {
            let seg = Arc::clone(writer.segment());
            std::thread::spawn(move || {
                let mut marked = 0;
                for i in 0..N {
                    // Mark entry i only once it is committed, as a log
                    // marks only entries it has appended; it must parse.
                    while (seg.committed() as u64) < (i + 1) * len {
                        std::hint::spin_loop();
                    }
                    let bytes = &seg.committed_bytes()[(i * len) as usize..];
                    let (_, view) = SegmentIter::new(bytes).next().expect("published");
                    assert_eq!(view.key_hash, i);
                    if !i.is_multiple_of(3) {
                        seg.mark_dead(len);
                        marked += len;
                    }
                }
                marked
            })
        };
        for i in 0..N {
            writer
                .append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"vvvv")
                .expect("fits");
        }
        let marked = marker.join().unwrap();
        assert_eq!(writer.entry_count(), N);
        assert_eq!(writer.committed() as u64, N * len);
        assert_eq!(writer.live_bytes(), N * len - marked);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        SegmentWriter::new(1, 0);
    }
}
