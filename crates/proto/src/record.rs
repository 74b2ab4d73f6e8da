//! The wire representation of one object crossing the network.
//!
//! Pull and PriorityPull responses, replication payloads, and recovery
//! transfers all move records in this form. It mirrors the log-entry
//! format (`rocksteady_logstore::entry`) but is independent of it: the
//! wire format carries the key hash and version so the receiver can
//! replay without rehashing, exactly as RAMCloud's migration does.

use bytes::Bytes;
use rocksteady_common::{KeyHash, TableId};

/// One object (or deletion marker) in flight between servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owning table.
    pub table: TableId,
    /// Primary-key hash (carried, not recomputed).
    pub key_hash: KeyHash,
    /// Object version at the source.
    pub version: u64,
    /// Primary key bytes.
    pub key: Bytes,
    /// Value bytes (empty for tombstones).
    pub value: Bytes,
    /// True when this record marks a deletion.
    pub tombstone: bool,
}

/// Fixed wire overhead per record beyond key and value bytes
/// (table id, hash, version, lengths, flags).
pub const RECORD_HEADER_BYTES: u64 = 29;

impl Record {
    /// Bytes this record occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        RECORD_HEADER_BYTES + self.key.len() as u64 + self.value.len() as u64
    }
}

/// Total wire size of a batch of records.
pub fn batch_wire_size(records: &[Record]) -> u64 {
    records.iter().map(Record::wire_size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &[u8], value: &[u8]) -> Record {
        Record {
            table: TableId(1),
            key_hash: 42,
            version: 7,
            key: Bytes::copy_from_slice(key),
            value: Bytes::copy_from_slice(value),
            tombstone: false,
        }
    }

    #[test]
    fn wire_size_counts_payload() {
        let r = sample(b"0123456789", b"x".repeat(90).as_slice());
        assert_eq!(r.wire_size(), RECORD_HEADER_BYTES + 100);
    }

    #[test]
    fn batch_size_sums() {
        let batch = vec![sample(b"a", b"bb"), sample(b"ccc", b"")];
        assert_eq!(batch_wire_size(&batch), 2 * RECORD_HEADER_BYTES + 3 + 3);
        assert_eq!(batch_wire_size(&[]), 0);
    }
}
