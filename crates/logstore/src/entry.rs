//! The on-log record format.
//!
//! Every record in a master's log — live objects, tombstones marking
//! deletions, and the small metadata records that commit a side log into
//! the main log (§3.1.3) — shares one self-describing header so that any
//! consumer (read path, migration pulls, replay, crash recovery, the
//! cleaner) can walk raw segment bytes.
//!
//! Layout (little-endian, `ENTRY_HEADER_BYTES` = 35):
//!
//! ```text
//! +------+----------+----------+---------+---------+-----------+----------+
//! | kind | table_id | key_hash | version | key_len | value_len | checksum |
//! |  u8  |   u64    |   u64    |   u64   |   u16   |    u32    |   u32    |
//! +------+----------+----------+---------+---------+-----------+----------+
//! | key bytes … | value bytes …                                           |
//! +-------------------------------------------------------------------+
//! ```
//!
//! The checksum is CRC32C over the header up to the checksum field
//! followed by key and value bytes, taken as one stream
//! ([`crc32c_of_parts`]). The key hash is stored rather than
//! recomputed so replay and pulls avoid rehashing (§4.5 measures hashing
//! as a real per-record cost; the simulator charges it where RAMCloud
//! would actually pay it).

use crate::crc::crc32c_of_parts;

/// Fixed size of the serialized entry header, in bytes.
pub const ENTRY_HEADER_BYTES: usize = 35;

/// Offset of the checksum field: the last four bytes of the header.
const CHECKSUM_AT: usize = ENTRY_HEADER_BYTES - 4;

/// What a log entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryKind {
    /// A live object (key + value).
    Object = 1,
    /// A deletion marker: key with no value; `version` is the version the
    /// delete superseded. Needed so replay doesn't resurrect old values.
    Tombstone = 2,
    /// Commits a side log into the main log: `value` holds the serialized
    /// list of adopted segment ids (§3.1.3).
    SideLogCommit = 3,
}

impl EntryKind {
    /// Parses a kind byte.
    pub fn from_u8(v: u8) -> Option<EntryKind> {
        match v {
            1 => Some(EntryKind::Object),
            2 => Some(EntryKind::Tombstone),
            3 => Some(EntryKind::SideLogCommit),
            _ => None,
        }
    }
}

/// A parsed, borrowed view of one log entry.
///
/// Produced by [`parse`] (and by segment/log accessors); borrows the
/// underlying segment memory, so it is cheap and copy-free — the paper's
/// design operates on references into the log wherever possible (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryView<'a> {
    /// Entry kind.
    pub kind: EntryKind,
    /// Owning table.
    pub table_id: u64,
    /// Primary-key hash (stored, not recomputed).
    pub key_hash: u64,
    /// Object version; monotonically increasing per key.
    pub version: u64,
    /// Primary key bytes.
    pub key: &'a [u8],
    /// Value bytes (empty for tombstones).
    pub value: &'a [u8],
}

impl<'a> EntryView<'a> {
    /// Total serialized length of this entry in the log.
    pub fn serialized_len(&self) -> usize {
        ENTRY_HEADER_BYTES + self.key.len() + self.value.len()
    }

    /// Copies this view into an [`OwnedEntry`].
    pub fn to_owned(&self) -> OwnedEntry {
        OwnedEntry {
            kind: self.kind,
            table_id: self.table_id,
            key_hash: self.key_hash,
            version: self.version,
            key: self.key.to_vec(),
            value: self.value.to_vec(),
        }
    }
}

/// An owned copy of a log entry (used where data crosses the simulated
/// network, e.g. pull responses and replication payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedEntry {
    /// Entry kind.
    pub kind: EntryKind,
    /// Owning table.
    pub table_id: u64,
    /// Primary-key hash.
    pub key_hash: u64,
    /// Object version.
    pub version: u64,
    /// Primary key bytes.
    pub key: Vec<u8>,
    /// Value bytes.
    pub value: Vec<u8>,
}

impl OwnedEntry {
    /// Borrows this entry as a view.
    pub fn view(&self) -> EntryView<'_> {
        EntryView {
            kind: self.kind,
            table_id: self.table_id,
            key_hash: self.key_hash,
            version: self.version,
            key: &self.key,
            value: &self.value,
        }
    }

    /// Total serialized length of this entry in the log.
    pub fn serialized_len(&self) -> usize {
        ENTRY_HEADER_BYTES + self.key.len() + self.value.len()
    }
}

/// Computes the serialized length of an entry with the given key/value
/// sizes, without constructing it.
pub fn serialized_len(key_len: usize, value_len: usize) -> usize {
    ENTRY_HEADER_BYTES + key_len + value_len
}

/// Serializes an entry into `buf`, which must be exactly
/// [`serialized_len`]`(key.len(), value.len())` bytes.
///
/// # Panics
///
/// Panics if `buf` has the wrong length, if the key exceeds `u16::MAX`
/// bytes, or if the value exceeds `u32::MAX` bytes.
pub fn write_entry(
    buf: &mut [u8],
    kind: EntryKind,
    table_id: u64,
    key_hash: u64,
    version: u64,
    key: &[u8],
    value: &[u8],
) {
    assert_eq!(buf.len(), serialized_len(key.len(), value.len()));
    let (head, payload) = buf.split_at_mut(ENTRY_HEADER_BYTES);
    head.copy_from_slice(&header(kind, table_id, key_hash, version, key, value));
    let (key_at, value_at) = payload.split_at_mut(key.len());
    key_at.copy_from_slice(key);
    value_at.copy_from_slice(value);
    seal(buf);
}

/// The header of an entry holding `key` and `value`, its checksum field
/// zero: an entry is this, then `key`, then `value`, then [`seal`]ed.
///
/// # Panics
///
/// Panics if the key exceeds `u16::MAX` bytes or the value `u32::MAX`.
pub(crate) fn header(
    kind: EntryKind,
    table_id: u64,
    key_hash: u64,
    version: u64,
    key: &[u8],
    value: &[u8],
) -> [u8; ENTRY_HEADER_BYTES] {
    let key_len = u16::try_from(key.len()).expect("key too long");
    let value_len = u32::try_from(value.len()).expect("value too long");
    let mut head = [0u8; ENTRY_HEADER_BYTES];
    head[0] = kind as u8;
    head[1..9].copy_from_slice(&table_id.to_le_bytes());
    head[9..17].copy_from_slice(&key_hash.to_le_bytes());
    head[17..25].copy_from_slice(&version.to_le_bytes());
    head[25..27].copy_from_slice(&key_len.to_le_bytes());
    head[27..CHECKSUM_AT].copy_from_slice(&value_len.to_le_bytes());
    head
}

/// Stores the checksum of `entry`, one whole serialized entry, in its
/// checksum field.
pub(crate) fn seal(entry: &mut [u8]) {
    let sum = checksum(entry);
    entry[CHECKSUM_AT..ENTRY_HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
}

/// The checksum of `entry`, one whole serialized entry: its header up to
/// the checksum field, then its key and value, as one stream.
fn checksum(entry: &[u8]) -> u32 {
    crc32c_of_parts(&entry[..CHECKSUM_AT], &entry[ENTRY_HEADER_BYTES..])
}

/// Errors produced when parsing entry bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The buffer ends before the header or payload does.
    Truncated,
    /// The kind byte is not a known [`EntryKind`].
    BadKind(u8),
    /// The stored CRC32C does not match the contents.
    BadChecksum {
        /// Checksum stored in the entry.
        stored: u32,
        /// Checksum computed over the bytes.
        computed: u32,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "entry truncated"),
            ParseError::BadKind(k) => write!(f, "unknown entry kind {k}"),
            ParseError::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the entry starting at the beginning of `buf`.
///
/// Returns the view and the number of bytes it occupies. Verifies the
/// checksum — replay paths must never incorporate corrupt records.
pub fn parse(buf: &[u8]) -> Result<(EntryView<'_>, usize), ParseError> {
    let (view, total, stored) = parse_header(buf)?;
    let computed = checksum(&buf[..total]);
    if computed != stored {
        return Err(ParseError::BadChecksum { stored, computed });
    }
    Ok((view, total))
}

/// Parses the entry starting at the beginning of `buf` **without
/// re-verifying the checksum**.
///
/// For reads of a master's *own* committed log memory on the hot pull
/// path: every entry there was serialized (and checksummed) locally by
/// [`write_entry`], so recomputing CRC32C over the payload per gather
/// would only re-prove what the append already established. The wire
/// checksum a real Pull response pays is charged separately through the
/// cost model's `checksummed_bytes`. Paths that consume bytes of
/// *foreign* origin — replay, recovery images, anything off the network —
/// must keep using [`parse`].
pub fn parse_trusted(buf: &[u8]) -> Result<(EntryView<'_>, usize), ParseError> {
    let (view, total, _) = parse_header(buf)?;
    Ok((view, total))
}

/// Shared header/payload decoding; returns the view, total length, and
/// the stored (unverified) checksum.
fn parse_header(buf: &[u8]) -> Result<(EntryView<'_>, usize, u32), ParseError> {
    if buf.len() < ENTRY_HEADER_BYTES {
        return Err(ParseError::Truncated);
    }
    let kind = EntryKind::from_u8(buf[0]).ok_or(ParseError::BadKind(buf[0]))?;
    // Unwraps below are fine: slice lengths are fixed by the ranges.
    let table_id = u64::from_le_bytes(buf[1..9].try_into().unwrap());
    let key_hash = u64::from_le_bytes(buf[9..17].try_into().unwrap());
    let version = u64::from_le_bytes(buf[17..25].try_into().unwrap());
    let key_len = u16::from_le_bytes(buf[25..27].try_into().unwrap()) as usize;
    let value_len = u32::from_le_bytes(buf[27..CHECKSUM_AT].try_into().unwrap()) as usize;
    let stored = u32::from_le_bytes(buf[CHECKSUM_AT..ENTRY_HEADER_BYTES].try_into().unwrap());

    let total = ENTRY_HEADER_BYTES + key_len + value_len;
    if buf.len() < total {
        return Err(ParseError::Truncated);
    }
    let key = &buf[ENTRY_HEADER_BYTES..ENTRY_HEADER_BYTES + key_len];
    let value = &buf[ENTRY_HEADER_BYTES + key_len..total];

    Ok((
        EntryView {
            kind,
            table_id,
            key_hash,
            version,
            key,
            value,
        },
        total,
        stored,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: EntryKind, key: &[u8], value: &[u8]) {
        let len = serialized_len(key.len(), value.len());
        let mut buf = vec![0u8; len];
        write_entry(&mut buf, kind, 7, 0xdead_beef, 42, key, value);
        let (view, consumed) = parse(&buf).expect("parse");
        assert_eq!(consumed, len);
        assert_eq!(view.kind, kind);
        assert_eq!(view.table_id, 7);
        assert_eq!(view.key_hash, 0xdead_beef);
        assert_eq!(view.version, 42);
        assert_eq!(view.key, key);
        assert_eq!(view.value, value);
    }

    #[test]
    fn roundtrip_object() {
        roundtrip(EntryKind::Object, b"user:1", b"payload-bytes");
    }

    #[test]
    fn roundtrip_tombstone_empty_value() {
        roundtrip(EntryKind::Tombstone, b"user:1", b"");
    }

    #[test]
    fn roundtrip_empty_key_and_value() {
        roundtrip(EntryKind::SideLogCommit, b"", b"");
    }

    #[test]
    fn roundtrip_large_value() {
        let value = vec![0xabu8; 100_000];
        roundtrip(EntryKind::Object, b"big", &value);
    }

    #[test]
    fn parse_rejects_truncation() {
        let mut buf = vec![0u8; serialized_len(3, 5)];
        write_entry(&mut buf, EntryKind::Object, 1, 2, 3, b"abc", b"12345");
        for cut in [0, 10, ENTRY_HEADER_BYTES, buf.len() - 1] {
            assert_eq!(parse(&buf[..cut]).unwrap_err(), ParseError::Truncated);
        }
    }

    #[test]
    fn parse_rejects_bad_kind() {
        let mut buf = vec![0u8; serialized_len(1, 1)];
        write_entry(&mut buf, EntryKind::Object, 1, 2, 3, b"k", b"v");
        buf[0] = 99;
        assert_eq!(parse(&buf).unwrap_err(), ParseError::BadKind(99));
    }

    /// Every bit of an entry but its checksum's is covered by it, at
    /// every alignment of the seam between header and payload: key
    /// lengths 0..=9 and value lengths 0..=17 put the payload's first
    /// byte at every offset of an 8-byte word, and an entry's last bytes
    /// at every offset of its final word. A flip in the checksum field
    /// itself fails too (stored ≠ computed); a flip in a length field may
    /// fail as `Truncated` and one in the kind byte as `BadKind`.
    #[test]
    fn every_byte_but_the_checksum_is_covered() {
        for key_len in 0..=9u8 {
            for value_len in 0..=17u8 {
                let key: Vec<u8> = (0..key_len).map(|i| i.wrapping_mul(37)).collect();
                let value: Vec<u8> = (0..value_len).map(|i| 0xa0 ^ i).collect();
                let mut buf = vec![0u8; serialized_len(key.len(), value.len())];
                write_entry(&mut buf, EntryKind::Object, 5, 0x1234, 9, &key, &value);
                for byte in 0..buf.len() {
                    for bit in 0..8 {
                        buf[byte] ^= 1 << bit;
                        assert!(
                            parse(&buf).is_err(),
                            "key {key_len} B, value {value_len} B: bit {bit} of byte {byte} flipped unseen"
                        );
                        buf[byte] ^= 1 << bit;
                    }
                }
                parse(&buf).expect("restored entry parses");
            }
        }
    }

    #[test]
    fn owned_roundtrip() {
        let mut buf = vec![0u8; serialized_len(2, 2)];
        write_entry(&mut buf, EntryKind::Object, 9, 8, 7, b"ab", b"cd");
        let (view, _) = parse(&buf).unwrap();
        let owned = view.to_owned();
        assert_eq!(owned.view(), view);
        assert_eq!(owned.serialized_len(), buf.len());
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn write_rejects_wrong_buffer_size() {
        let mut buf = vec![0u8; 10];
        write_entry(&mut buf, EntryKind::Object, 1, 2, 3, b"k", b"v");
    }
}
