//! Fixed-size append-only log segments.
//!
//! A segment is the unit of everything in RAMCloud's storage design: logs
//! grow by whole segments, backups replicate whole segments, the cleaner
//! reclaims whole segments, and side logs are independent chains of
//! segments (§2.3, §3.1.3).
//!
//! Concurrency contract: appends are serialized by the segment's one
//! mutex (one appender at a time — in RAMCloud the log head has a single
//! writer) and become visible to readers through a release-store of the
//! committed length. Under that mutex the appender is the only writer of
//! `committed` and of the entry count, so it updates both with a load
//! and a store; the mutex is the append's only locked read-modify-write.
//! Live bytes are not counted on append: they are `committed − dead`,
//! and [`Segment::mark_dead`], which any thread may call, is the one
//! read-modify-write on the dead count. Readers may run concurrently
//! with an append and only ever observe fully-written entries. Closed
//! segments are immutable forever, which is what lets migration pulls
//! and replication ship references to segment memory without copies
//! (§3.2).

use std::alloc::{alloc, alloc_zeroed, dealloc, Layout};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::entry::{self, EntryKind, EntryView, ParseError};

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
    /// by [`Segment::new`], the committed length for a closed copy.
    buf_len: usize,
    capacity: usize,
    /// Bytes published to readers. Monotonic; written only by the
    /// appender holding `append_lock`, stored with `Release` after the
    /// bytes below it are fully written, loaded with `Acquire`.
    committed: AtomicUsize,
    /// Serializes appenders; holds the reservation cursor (== committed
    /// between appends, since appends publish before releasing the lock).
    append_lock: Mutex<()>,
    closed: AtomicBool,
    /// Bytes of entries declared dead (superseded or deleted), never more
    /// than `committed` was when they were declared: live bytes are
    /// `committed − dead`. The owning log raises it as entries die; the
    /// cleaner reads the difference to pick victims.
    dead: AtomicU64,
    /// Number of entries appended; written only under `append_lock`.
    entries: AtomicU64,
}

// SAFETY: the raw buffer is owned exclusively by this Segment (allocated
// in `new` or `closed_copy`, freed in `drop`, never aliased externally).
// All mutation goes through `append`, which serializes writers behind
// `append_lock` and publishes bytes with a release store of `committed`;
// readers only dereference bytes below an acquire-load of `committed`.
// Therefore sending or sharing a Segment across threads cannot produce a
// data race.
unsafe impl Send for Segment {}
// SAFETY: see the `Send` justification; shared access is race-free by the
// publication protocol above.
unsafe impl Sync for Segment {}

impl Segment {
    /// Allocates a zeroed segment of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or allocation fails.
    pub fn new(id: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity segment");
        keep_in_heap(capacity);
        let layout = Layout::array::<u8>(capacity).expect("segment layout");
        // SAFETY: `layout` has non-zero size (capacity > 0) and valid
        // alignment for u8.
        let base = unsafe { alloc_zeroed(layout) };
        assert!(!base.is_null(), "segment allocation failed");
        Segment {
            id,
            base,
            buf_len: capacity,
            capacity,
            committed: AtomicUsize::new(0),
            append_lock: Mutex::new(()),
            closed: AtomicBool::new(false),
            dead: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

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
            append_lock: Mutex::new(()),
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

    /// Marks the segment immutable; future appends fail.
    pub fn close(&self) {
        // Take the append lock so a concurrent append either completes
        // (and is published) before the close or observes `closed`.
        let _guard = self.append_lock.lock();
        self.closed.store(true, Ordering::Release);
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

    /// Appends a serialized entry; returns its byte offset, or `None` if
    /// the segment is closed or lacks space.
    pub fn append(
        &self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Option<u32> {
        let len = entry::serialized_len(key.len(), value.len());
        let _guard = self.append_lock.lock();
        if self.closed.load(Ordering::Relaxed) {
            return None;
        }
        let offset = self.committed.load(Ordering::Relaxed);
        // The buffer is `capacity` long: only a closed copy's is shorter.
        if offset + len > self.buf_len {
            return None;
        }
        // SAFETY: `offset..offset + len` is within the allocation
        // (bounds-checked above), no reader dereferences bytes at or above
        // `committed` (== offset), and no other writer exists while we
        // hold `append_lock`; hence this mutable slice is unaliased.
        let buf = unsafe { std::slice::from_raw_parts_mut(self.base.add(offset), len) };
        entry::write_entry(buf, kind, table_id, key_hash, version, key, value);
        // The lock makes this the only writer of the count: no
        // read-modify-write needed.
        let entries = self.entries.load(Ordering::Relaxed);
        self.entries.store(entries + 1, Ordering::Relaxed);
        // Publish: everything below offset + len is now fully written.
        self.committed.store(offset + len, Ordering::Release);
        Some(offset as u32)
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
    /// [`Segment::append`] serialized them. Bytes of foreign origin must
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
    use std::sync::Arc;

    #[test]
    fn append_and_read_back() {
        let seg = Segment::new(1, 4096);
        let off = seg
            .append(EntryKind::Object, 1, 0xaa, 1, b"key", b"value")
            .unwrap();
        assert_eq!(off, 0);
        let (view, _) = seg.entry_at(off).unwrap();
        assert_eq!(view.key, b"key");
        assert_eq!(view.value, b"value");
        assert_eq!(seg.entry_count(), 1);
    }

    #[test]
    fn append_until_full() {
        let seg = Segment::new(1, 256);
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
    fn closed_segment_rejects_appends() {
        let seg = Segment::new(1, 4096);
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        seg.close();
        assert!(seg.is_closed());
        assert_eq!(seg.free_space(), 0);
        assert!(seg.append(EntryKind::Object, 1, 0, 2, b"k", b"v").is_none());
        // Existing data still readable.
        assert_eq!(seg.iter_entries().count(), 1);
    }

    #[test]
    fn live_byte_accounting() {
        let seg = Segment::new(1, 4096);
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
        let seg = Segment::new(1, 128);
        assert_eq!(seg.utilization(), 1.0);
    }

    #[test]
    fn entry_at_bad_offset() {
        let seg = Segment::new(1, 4096);
        assert!(seg.entry_at(0).is_err());
        seg.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        assert!(seg.entry_at(3).is_err()); // mid-entry: checksum fails
        assert!(seg.entry_at(10_000).is_err());
    }

    #[test]
    fn iterates_in_append_order() {
        let seg = Segment::new(1, 4096);
        for i in 0..10u64 {
            seg.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"v")
                .unwrap();
        }
        let hashes: Vec<u64> = seg.iter_entries().map(|(_, v)| v.key_hash).collect();
        assert_eq!(hashes, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_append_and_read() {
        // Real-thread smoke test of the publication protocol: readers
        // must only ever see fully-written entries.
        let seg = Arc::new(Segment::new(1, 1 << 20));
        let writer = {
            let seg = Arc::clone(&seg);
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    if seg
                        .append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"vvvv")
                        .is_none()
                    {
                        break;
                    }
                }
            })
        };
        let reader = {
            let seg = Arc::clone(&seg);
            std::thread::spawn(move || {
                let mut max_seen = 0usize;
                for _ in 0..200 {
                    let n = seg.iter_entries().count();
                    assert!(n >= max_seen, "entry count regressed");
                    max_seen = n;
                    for (_, view) in seg.iter_entries() {
                        assert_eq!(view.value, b"vvvv");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        // Everything the writer appended parses cleanly.
        for (_, view) in seg.iter_entries() {
            assert_eq!(view.table_id, 1);
        }
    }

    /// The counters under a real second thread: one appender, one thread
    /// marking each appended entry dead as soon as it is published. The
    /// entry count is written without a read-modify-write and live bytes
    /// are `committed − dead`, so both must come out exact.
    #[test]
    fn concurrent_append_and_mark_dead() {
        const N: u64 = 4_000;
        let seg = Arc::new(Segment::new(1, 1 << 20));
        let len = entry::serialized_len(8, 4) as u64;
        let marker = {
            let seg = Arc::clone(&seg);
            std::thread::spawn(move || {
                let mut marked = 0;
                for i in 0..N {
                    // Mark entry i only once it is committed, as a log
                    // marks only entries it has appended.
                    while (seg.committed() as u64) < (i + 1) * len {
                        std::hint::spin_loop();
                    }
                    if !i.is_multiple_of(3) {
                        seg.mark_dead(len);
                        marked += len;
                    }
                }
                marked
            })
        };
        for i in 0..N {
            seg.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"vvvv")
                .expect("fits");
        }
        let marked = marker.join().unwrap();
        assert_eq!(seg.entry_count(), N);
        assert_eq!(seg.committed() as u64, N * len);
        assert_eq!(seg.live_bytes(), N * len - marked);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        Segment::new(1, 0);
    }
}
