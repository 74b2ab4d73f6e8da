//! The backup service: replicated segment storage.
//!
//! Every RAMCloud server runs a backup beside its master (Figure 1). A
//! master's log segments are replicated to `R` backups as they are
//! written (the write path waits for these acks — that is why durable
//! writes take 15 µs, §2), and crash recovery reads the segment images
//! back to reconstruct the dead master's tablets (§2, §3.4).
//!
//! Rocksteady's lineage design leans on this component twice: the target
//! defers re-replication of migrated data (its side-log segments are
//! replicated lazily at commit), and if a migration participant crashes,
//! recovery replays the *union* of the source's replicated log and the
//! target's replicated log tail (§3.4).
//!
//! The store holds real bytes; recovery integration tests parse them back
//! with full checksum verification.

use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::Mutex;
use rocksteady_common::ServerId;
use rocksteady_proto::msg::SegmentImage;

/// One backup's replica store.
///
/// Keyed by `(owning master, segment id)`; each replica is a byte image
/// that grows by in-order appends (RAMCloud replicates the open head
/// incrementally) and is sealed by a close.
pub struct BackupService {
    /// This backup's server id (for reporting only).
    pub id: ServerId,
    replicas: Mutex<HashMap<(ServerId, u64), Replica>>,
}

/// A replica holds the appended frames as-is (reference-counted slices
/// of the replication RPCs) rather than memcpy'ing them into one flat
/// buffer: the write path replicates every log append `R` times, and the
/// flat image is only ever needed at recovery, where [`BackupService::fetch`]
/// materializes it.
#[derive(Debug, Default)]
struct Replica {
    chunks: Vec<Bytes>,
    len: usize,
    closed: bool,
}

/// Outcome of an append to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Bytes stored.
    Ok,
    /// The chunk's offset did not line up with the bytes already held
    /// (lost or reordered replication traffic); the append is ignored and
    /// the caller should re-send from the replica's length.
    OffsetMismatch {
        /// Bytes currently held for this replica.
        have: u64,
    },
    /// The replica was already closed.
    Closed,
}

impl BackupService {
    /// Creates an empty backup.
    pub fn new(id: ServerId) -> Self {
        BackupService {
            id,
            replicas: Mutex::new(HashMap::new()),
        }
    }

    /// Appends `data` at `offset` of `(owner, segment)`.
    ///
    /// Appends must be in order; a mismatched offset is rejected so the
    /// image never has holes (recovery replays it sequentially).
    pub fn append(&self, owner: ServerId, segment: u64, offset: u32, data: Bytes) -> AppendOutcome {
        let mut replicas = self.replicas.lock();
        let replica = replicas.entry((owner, segment)).or_default();
        if replica.closed {
            return AppendOutcome::Closed;
        }
        if replica.len != offset as usize {
            return AppendOutcome::OffsetMismatch {
                have: replica.len as u64,
            };
        }
        replica.len += data.len();
        replica.chunks.push(data);
        AppendOutcome::Ok
    }

    /// Seals `(owner, segment)`; later appends fail.
    pub fn close(&self, owner: ServerId, segment: u64) {
        let mut replicas = self.replicas.lock();
        replicas.entry((owner, segment)).or_default().closed = true;
    }

    /// Returns images of every segment of `owner`'s log with id ≥
    /// `min_segment`, in segment-id order — the recovery read path.
    ///
    /// `min_segment > 0` is the lineage optimization: recovering a
    /// migration source only needs the target's log *tail* (§3.4).
    pub fn fetch(&self, owner: ServerId, min_segment: u64) -> Vec<SegmentImage> {
        let replicas = self.replicas.lock();
        let mut images: Vec<SegmentImage> = replicas
            .iter()
            .filter(|((o, seg), r)| *o == owner && *seg >= min_segment && r.len > 0)
            .map(|((_, seg), r)| {
                let mut flat = Vec::with_capacity(r.len);
                for chunk in &r.chunks {
                    flat.extend_from_slice(chunk);
                }
                SegmentImage {
                    id: *seg,
                    data: Bytes::from(flat),
                }
            })
            .collect();
        images.sort_by_key(|img| img.id);
        images
    }

    /// Bytes stored for `owner` (all segments), for load accounting.
    pub fn bytes_for(&self, owner: ServerId) -> u64 {
        let replicas = self.replicas.lock();
        replicas
            .iter()
            .filter(|((o, _), _)| *o == owner)
            .map(|(_, r)| r.len as u64)
            .sum()
    }

    /// Total bytes stored on this backup.
    pub fn total_bytes(&self) -> u64 {
        self.replicas.lock().values().map(|r| r.len as u64).sum()
    }

    /// Drops the replica of `(owner, segment)`. The owner's cleaner
    /// relocated the segment's live entries and their survivor segments
    /// are durable, so this image is garbage — and, its chunks being
    /// windows onto the owner's segment memory, the last thing keeping
    /// that memory alive.
    pub fn free_segment(&self, owner: ServerId, segment: u64) {
        self.replicas.lock().remove(&(owner, segment));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: ServerId = ServerId(1);

    #[test]
    fn append_in_order_builds_image() {
        let b = BackupService::new(ServerId(9));
        assert_eq!(
            b.append(M, 0, 0, Bytes::copy_from_slice(b"abc")),
            AppendOutcome::Ok
        );
        assert_eq!(
            b.append(M, 0, 3, Bytes::copy_from_slice(b"def")),
            AppendOutcome::Ok
        );
        let images = b.fetch(M, 0);
        assert_eq!(images.len(), 1);
        assert_eq!(&images[0].data[..], b"abcdef");
    }

    #[test]
    fn out_of_order_append_rejected() {
        let b = BackupService::new(ServerId(9));
        b.append(M, 0, 0, Bytes::copy_from_slice(b"abc"));
        assert_eq!(
            b.append(M, 0, 7, Bytes::copy_from_slice(b"xyz")),
            AppendOutcome::OffsetMismatch { have: 3 }
        );
        // Image unchanged.
        assert_eq!(&b.fetch(M, 0)[0].data[..], b"abc");
    }

    #[test]
    fn closed_replica_rejects_appends() {
        let b = BackupService::new(ServerId(9));
        b.append(M, 0, 0, Bytes::copy_from_slice(b"abc"));
        b.close(M, 0);
        assert_eq!(
            b.append(M, 0, 3, Bytes::copy_from_slice(b"d")),
            AppendOutcome::Closed
        );
    }

    #[test]
    fn fetch_filters_by_owner_and_min_segment() {
        let b = BackupService::new(ServerId(9));
        b.append(M, 0, 0, Bytes::copy_from_slice(b"s0"));
        b.append(M, 5, 0, Bytes::copy_from_slice(b"s5"));
        b.append(M, 9, 0, Bytes::copy_from_slice(b"s9"));
        b.append(ServerId(2), 1, 0, Bytes::copy_from_slice(b"other"));
        let all = b.fetch(M, 0);
        assert_eq!(all.iter().map(|i| i.id).collect::<Vec<_>>(), vec![0, 5, 9]);
        // Lineage tail: only segments >= 5.
        let tail = b.fetch(M, 5);
        assert_eq!(tail.iter().map(|i| i.id).collect::<Vec<_>>(), vec![5, 9]);
        assert_eq!(b.fetch(ServerId(2), 0).len(), 1);
    }

    #[test]
    fn accounting_is_per_owner() {
        let b = BackupService::new(ServerId(9));
        b.append(M, 0, 0, Bytes::copy_from_slice(b"0123456789"));
        b.append(ServerId(2), 0, 0, Bytes::copy_from_slice(b"xy"));
        assert_eq!(b.bytes_for(M), 10);
        assert_eq!(b.total_bytes(), 12);
    }

    #[test]
    fn free_segment_drops_one_replica_and_nothing_else() {
        let b = BackupService::new(ServerId(9));
        b.append(M, 0, 0, Bytes::copy_from_slice(b"0123456789"));
        b.append(M, 1, 0, Bytes::copy_from_slice(b"abc"));
        b.append(ServerId(2), 0, 0, Bytes::copy_from_slice(b"xy"));
        b.free_segment(M, 0);
        b.free_segment(M, 0); // freeing twice is a no-op
        assert_eq!((b.bytes_for(M), b.total_bytes()), (3, 5));
        assert_eq!(b.fetch(M, 0).iter().map(|i| i.id).collect::<Vec<_>>(), [1]);
    }
}
