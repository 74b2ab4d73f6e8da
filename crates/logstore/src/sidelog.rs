//! Per-core side logs for contention-free parallel replay (§3.1.3).
//!
//! Parallel replay into a single shared log breaks down under contention:
//! the paper's initial experiments were limited by exactly this, and
//! per-core side logs were the fix. A [`SideLog`] is an independent chain
//! of segments hanging off a parent [`Log`]: each replay worker appends
//! into its own side log with zero cross-worker synchronization, and at
//! the end of migration each side log is *committed* — its segments are
//! adopted into the main log and a small [`EntryKind::SideLogCommit`]
//! metadata record is appended to the main log.
//!
//! Side logs also keep their statistics local and merge them only at
//! commit, because RAMCloud's cleaner needs accurate log statistics and
//! contended global counters would defeat the design (§3.1.3).
//!
//! A side log's last segment is usually far from full — one per worker
//! per migration, however few records the worker replayed — so commit
//! adopts a sparse segment as a closed copy of its committed bytes (see
//! [`SPARSE_FILL_DIVISOR`]) and the full-size buffer is freed once the
//! last reader of it lets go.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::entry::EntryKind;
use crate::log::{Log, LogError, LogRef};
use crate::segment::{Segment, SegmentWriter};

/// A side segment whose committed bytes fill at most `1 /
/// SPARSE_FILL_DIVISOR` of its capacity is adopted as a
/// [`Segment::closed_copy`]; a fuller one is adopted as it is.
///
/// The copy writes `committed` bytes and lets `capacity` go, so it
/// returns `capacity − committed` bytes net: at most half full, that is
/// at least what it copies, and the commit never copies more than the
/// side log's own bytes. Both sides of the comparison are facts of the
/// segment, not of the workload, so no caller would set it differently.
pub const SPARSE_FILL_DIVISOR: usize = 2;

/// The segment to adopt for the closed side segment `seg`: a copy of its
/// committed bytes if it is sparse, else `seg`. An empty segment has
/// nothing to copy and is adopted as it is.
fn adoptable(seg: Arc<Segment>) -> Arc<Segment> {
    let committed = seg.committed();
    if committed == 0 || committed * SPARSE_FILL_DIVISOR > seg.capacity() {
        return seg;
    }
    Arc::new(seg.closed_copy())
}

/// An uncommitted chain of segments owned by one replay worker.
pub struct SideLog {
    parent: Arc<Log>,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Full segments, closed, in append order.
    closed: Vec<Arc<Segment>>,
    /// The writer of the segment appends go to, from the first append.
    head: Option<SegmentWriter>,
    entries: u64,
    bytes: u64,
}

impl SideLog {
    /// Creates an empty side log off `parent`. Segment ids are drawn from
    /// the parent's allocator so commit cannot collide.
    pub fn new(parent: Arc<Log>) -> Self {
        SideLog {
            parent,
            inner: Mutex::new(Inner {
                closed: Vec::new(),
                head: None,
                entries: 0,
                bytes: 0,
            }),
        }
    }

    /// Appends an object/tombstone entry; same semantics as
    /// [`Log::append`] but into this side chain.
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
        self.append_batch(|a| a.append(kind, table_id, key_hash, version, key, value))
    }

    /// Runs `f` with a [`SideLogAppender`] holding this side log's lock,
    /// so a whole Pull response's worth of replayed records pays one lock
    /// acquisition instead of one per record (§3.1.3 — side logs exist
    /// precisely so replay workers don't synchronize per append; batching
    /// removes the remaining per-record overhead *within* a worker). The
    /// lock also holds the head segment's writer, so the appends under it
    /// take no other.
    pub fn append_batch<T>(&self, f: impl FnOnce(&mut SideLogAppender<'_>) -> T) -> T {
        let mut inner = self.inner.lock();
        let mut appender = SideLogAppender {
            parent: &self.parent,
            inner: &mut inner,
        };
        f(&mut appender)
    }

    /// Entries appended so far (local statistic; merged on commit).
    pub fn entries(&self) -> u64 {
        self.inner.lock().entries
    }

    /// Bytes appended so far (local statistic; merged on commit).
    pub fn bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Snapshot of this side log's segments (for lazy re-replication at
    /// the end of migration, §3.4).
    pub fn segments_snapshot(&self) -> Vec<Arc<Segment>> {
        let inner = self.inner.lock();
        let head = inner.head.as_ref().map(SegmentWriter::segment);
        inner.closed.iter().chain(head).cloned().collect()
    }

    /// Commits this side log into the parent log: closes and adopts every
    /// segment — a sparse one as a closed copy ([`SPARSE_FILL_DIVISOR`]) —
    /// then appends a `SideLogCommit` metadata record naming the adopted
    /// segment ids. Returns the adopted ids.
    ///
    /// After commit, every [`LogRef`] previously returned by
    /// [`SideLog::append`] resolves through the parent log, to the same
    /// bytes. A `Bytes` window taken before commit keeps the original
    /// alive and reads the same bytes; the log's own window of the
    /// original leaves with it ([`Log::adopt_segment`]), so once the
    /// windows handed out drop, so does a full-size original.
    /// A `mark_dead` racing the commit on another thread may land on the
    /// original; the copy then over-counts live bytes, which only delays
    /// cleaning it.
    pub fn commit(self) -> Result<Vec<u64>, LogError> {
        let Inner {
            mut closed, head, ..
        } = self.inner.into_inner();
        closed.extend(head.map(SegmentWriter::close));
        let mut ids = Vec::with_capacity(closed.len());
        for seg in closed {
            ids.push(seg.id());
            self.parent.adopt_segment(adoptable(seg));
        }
        // The commit record's value lists the adopted segment ids; crash
        // recovery uses it to know the side segments belong to this log.
        let mut value = Vec::with_capacity(8 * ids.len());
        for id in &ids {
            value.extend_from_slice(&id.to_le_bytes());
        }
        self.parent
            .append(EntryKind::SideLogCommit, 0, 0, 0, b"", &value)?;
        Ok(ids)
    }
}

/// Exclusive handle over a locked side log; obtained from
/// [`SideLog::append_batch`]. Every [`SideLogAppender::append`] call goes
/// straight to the head segment's writer: no lock is taken per append.
pub struct SideLogAppender<'a> {
    parent: &'a Arc<Log>,
    inner: &'a mut Inner,
}

impl SideLogAppender<'_> {
    /// Appends one entry under the already-held batch lock. Semantics are
    /// identical to [`SideLog::append`].
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &mut self,
        kind: EntryKind,
        table_id: u64,
        key_hash: u64,
        version: u64,
        key: &[u8],
        value: &[u8],
    ) -> Result<LogRef, LogError> {
        let need = crate::entry::serialized_len(key.len(), value.len());
        let capacity = self.parent.config().segment_bytes;
        if need > capacity {
            return Err(LogError::EntryTooLarge { need, capacity });
        }
        loop {
            if let Some(head) = &mut self.inner.head {
                if let Some(offset) = head.append(kind, table_id, key_hash, version, key, value) {
                    let segment = head.id();
                    self.inner.entries += 1;
                    self.inner.bytes += need as u64;
                    return Ok(LogRef { segment, offset });
                }
            }
            let full = self.inner.head.take().map(SegmentWriter::close);
            self.inner.closed.extend(full);
            let head = SegmentWriter::new(self.parent.alloc_segment_id(), capacity);
            // Readers must be able to resolve refs into this segment
            // before commit (replay links the hash table to it).
            self.parent
                .register_side_segment(Arc::clone(head.segment()));
            self.inner.head = Some(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;

    fn parent() -> Arc<Log> {
        Arc::new(Log::new(LogConfig {
            segment_bytes: 256,
            max_segments: None,
        }))
    }

    #[test]
    fn append_then_commit_resolves_through_parent() {
        let log = parent();
        let side = SideLog::new(Arc::clone(&log));
        let mut refs = Vec::new();
        for i in 0..20u64 {
            refs.push(
                side.append(EntryKind::Object, 1, i, i, &i.to_le_bytes(), b"0123456789")
                    .unwrap(),
            );
        }
        assert_eq!(side.entries(), 20);
        assert!(
            side.segments_snapshot().len() > 1,
            "should have rolled segments"
        );
        // Even before commit the parent resolves side refs (the hash
        // table points into side segments during replay).
        assert!(log.entry(refs[0]).is_some());
        let ids = side.commit().unwrap();
        assert!(!ids.is_empty());
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(log.entry(*r).unwrap().key_hash, i as u64);
        }
    }

    #[test]
    fn commit_appends_metadata_record() {
        let log = parent();
        let side = SideLog::new(Arc::clone(&log));
        side.append(EntryKind::Object, 1, 7, 1, b"k", b"v").unwrap();
        let ids = side.commit().unwrap();
        let mut commit_records = Vec::new();
        log.for_each_entry(|_, v| {
            if v.kind == EntryKind::SideLogCommit {
                // The record's value is the committed segment ids, 8 LE bytes each.
                let ids = v.value.chunks_exact(8);
                commit_records.push(
                    ids.map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                        .collect::<Vec<u64>>(),
                );
            }
        });
        assert_eq!(commit_records, vec![ids]);
    }

    fn parent_of(segment_bytes: usize) -> Arc<Log> {
        Arc::new(Log::new(LogConfig {
            segment_bytes,
            max_segments: None,
        }))
    }

    /// Appends `n` 53-byte entries to `side` and returns their refs.
    fn fill(side: &SideLog, n: u64) -> Vec<LogRef> {
        (0..n)
            .map(|i| {
                side.append(EntryKind::Object, 1, i, 1, &i.to_le_bytes(), b"0123456789")
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn a_sparse_side_segment_is_adopted_as_a_closed_copy() {
        let log = parent_of(4096);
        let side = SideLog::new(Arc::clone(&log));
        let refs = fill(&side, 10);
        log.mark_dead(refs[3], 53);
        let original = Arc::clone(&side.segments_snapshot()[0]);
        assert!(original.committed() * SPARSE_FILL_DIVISOR <= original.capacity());
        let ids = side.commit().unwrap();
        assert_eq!(ids, vec![original.id()]);
        let adopted = log.segment(original.id()).unwrap();
        assert!(!Arc::ptr_eq(&adopted, &original));
        assert!(adopted.is_closed() && original.is_closed());
        assert_eq!(adopted.capacity(), original.capacity());
        assert_eq!(adopted.committed(), original.committed());
        assert_eq!(adopted.live_bytes(), original.live_bytes());
        assert_eq!(adopted.entry_count(), original.entry_count());
        assert_eq!(adopted.utilization(), original.utilization());
        assert_eq!(adopted.free_space(), 0);
        assert_eq!(adopted.committed_bytes(), original.committed_bytes());
        assert_eq!(adopted.allocated_bytes(), adopted.committed());
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(log.entry(*r).unwrap().key_hash, i as u64);
        }
    }

    #[test]
    fn a_side_segment_more_than_half_full_is_adopted_as_is() {
        let log = parent_of(1024);
        let side = SideLog::new(Arc::clone(&log));
        fill(&side, 10);
        let original = Arc::clone(&side.segments_snapshot()[0]);
        assert!(original.committed() * SPARSE_FILL_DIVISOR > original.capacity());
        side.commit().unwrap();
        let adopted = log.segment(original.id()).unwrap();
        assert!(Arc::ptr_eq(&adopted, &original));
        assert_eq!(adopted.allocated_bytes(), adopted.capacity());
    }

    #[test]
    fn a_window_taken_before_commit_keeps_the_original_until_it_drops() {
        let log = parent_of(4096);
        let side = SideLog::new(Arc::clone(&log));
        fill(&side, 4);
        let id = side.segments_snapshot()[0].id();
        let weak = Arc::downgrade(&log.segment(id).unwrap());
        let window = log.segment_bytes(id).unwrap();
        side.commit().unwrap();
        // The log now serves the copy; the window still reads the
        // original, byte for byte.
        assert_eq!(window, log.segment_bytes(id).unwrap());
        assert_ne!(
            window.as_ptr(),
            log.segment(id).unwrap().committed_bytes().as_ptr()
        );
        assert!(weak.upgrade().is_some());
        drop(window);
        assert!(
            weak.upgrade().is_none(),
            "the original outlived its last window"
        );
    }

    #[test]
    fn the_ledger_counts_buffers_not_capacity() {
        let log = parent_of(4096);
        let before = log.stats();
        assert_eq!(before.allocated_bytes, 4096);
        let side = SideLog::new(Arc::clone(&log));
        fill(&side, 4);
        let side_bytes = side.bytes();
        side.commit().unwrap();
        assert_eq!(log.stats().allocated_bytes, 4096 + side_bytes);
    }

    #[test]
    fn empty_sidelog_commit_is_fine() {
        let log = parent();
        let side = SideLog::new(Arc::clone(&log));
        let ids = side.commit().unwrap();
        assert!(ids.is_empty());
    }

    #[test]
    fn sidelogs_do_not_interfere() {
        let log = parent();
        let a = SideLog::new(Arc::clone(&log));
        let b = SideLog::new(Arc::clone(&log));
        let ra = a.append(EntryKind::Object, 1, 1, 1, b"a", b"va").unwrap();
        let rb = b.append(EntryKind::Object, 1, 2, 1, b"b", b"vb").unwrap();
        assert_ne!(ra.segment, rb.segment);
        a.commit().unwrap();
        b.commit().unwrap();
        assert_eq!(log.entry(ra).unwrap().key, b"a");
        assert_eq!(log.entry(rb).unwrap().key, b"b");
        assert_eq!(log.entry(rb).unwrap().value, b"vb");
    }

    #[test]
    fn stats_merge_into_parent_on_commit() {
        let log = parent();
        let before = log.stats();
        let side = SideLog::new(Arc::clone(&log));
        for i in 0..10u64 {
            side.append(EntryKind::Object, 1, i, i, b"kk", b"vvvv")
                .unwrap();
        }
        let side_bytes = side.bytes();
        side.commit().unwrap();
        let after = log.stats();
        assert!(after.committed_bytes >= before.committed_bytes + side_bytes);
        assert!(after.appended_entries >= before.appended_entries + 10);
    }

    #[test]
    fn parallel_sidelog_appends() {
        let log = Arc::new(Log::new(LogConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let side = SideLog::new(Arc::clone(&log));
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000u64 {
                    side.append(
                        EntryKind::Object,
                        1,
                        t * 10_000 + i,
                        1,
                        &i.to_le_bytes(),
                        b"value",
                    )
                    .unwrap();
                }
                side
            }));
        }
        let mut total = 0;
        for h in handles {
            let side = h.join().unwrap();
            total += side.entries();
            side.commit().unwrap();
        }
        assert_eq!(total, 4_000);
        let mut count = 0;
        log.for_each_entry(|_, v| {
            if v.kind == EntryKind::Object {
                count += 1;
            }
        });
        assert_eq!(count, 4_000);
    }
}
