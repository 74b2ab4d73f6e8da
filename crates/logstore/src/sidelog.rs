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

use std::sync::Arc;

use parking_lot::Mutex;

use crate::entry::EntryKind;
use crate::log::{Log, LogError, LogRef};
use crate::segment::Segment;

/// An uncommitted chain of segments owned by one replay worker.
pub struct SideLog {
    parent: Arc<Log>,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Completed + current segments, in append order (head last).
    segments: Vec<Arc<Segment>>,
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
                segments: Vec::new(),
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
    /// removes the remaining per-record overhead *within* a worker).
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
        self.inner.lock().segments.clone()
    }

    /// Commits this side log into the parent log: closes and adopts every
    /// segment, then appends a `SideLogCommit` metadata record naming the
    /// adopted segment ids. Returns the adopted ids.
    ///
    /// After commit, every [`LogRef`] previously returned by
    /// [`SideLog::append`] resolves through the parent log.
    pub fn commit(self) -> Result<Vec<u64>, LogError> {
        let inner = self.inner.into_inner();
        let mut ids = Vec::with_capacity(inner.segments.len());
        for seg in inner.segments {
            ids.push(seg.id());
            self.parent.adopt_segment(seg);
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
/// [`SideLog::append_batch`]. Every [`SideLogAppender::append`] call hits
/// the segment chain directly without re-taking the side log's mutex.
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
            if let Some(head) = self.inner.segments.last() {
                if let Some(offset) = head.append(kind, table_id, key_hash, version, key, value) {
                    let segment = head.id();
                    self.inner.entries += 1;
                    self.inner.bytes += need as u64;
                    return Ok(LogRef { segment, offset });
                }
                head.close();
            }
            let id = self.parent.alloc_segment_id();
            let seg = Arc::new(Segment::new(id, capacity));
            // Readers must be able to resolve refs into this segment
            // before commit (replay links the hash table to it).
            self.parent.register_side_segment(Arc::clone(&seg));
            self.inner.segments.push(seg);
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
