//! The master's state and operations.
//!
//! [`MasterService`] is the storage brain of one simulated server: the
//! log, the hash table, local tablet roles, and indexlets, with every
//! operation RAMCloud's data path needs (§2) plus the primitives the
//! migration protocols are built from (§3): range gathers for Pulls,
//! hash gathers for PriorityPulls, and version-max replay.
//!
//! No scheduling lives here — operations execute immediately and return a
//! [`Work`] receipt; the server actor charges virtual time for it.

use std::sync::Arc;

use bytes::Bytes;
use rocksteady_common::ids::IndexId;
use rocksteady_common::prefetch::prefetch_bytes;
use rocksteady_common::{HashRange, KeyHash, ScanCursor, ServerId, TableId};
use rocksteady_hashtable::{HashTable, Upsert};
use rocksteady_logstore::entry::serialized_len;
use rocksteady_logstore::{
    Cleaner, EntryKind, EntrySlices, Log, LogConfig, LogError, LogRef, Relocation, Relocator,
    SideLog, SideLogAppender,
};
use rocksteady_proto::record::RECORD_HEADER_BYTES;
use rocksteady_proto::Record;

use crate::error::OpError;
use crate::index::Indexlet;
use crate::tablet::{LocalTablet, TabletRole};
use crate::work::Work;

/// Configuration for one master.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// This server's id.
    pub id: ServerId,
    /// Log configuration (segment size, memory budget).
    pub log: LogConfig,
    /// Minimum hash-table buckets (rounded up to a power of two). Sized
    /// so buckets average a handful of entries, like RAMCloud.
    pub hash_buckets: usize,
    /// Lock stripes for the hash table.
    pub hash_stripes: usize,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            id: ServerId(0),
            log: LogConfig::default(),
            hash_buckets: 1 << 16,
            hash_stripes: 256,
        }
    }
}

/// Where [`MasterService::put`] appends: the main log or an
/// already-locked side-log appender.
enum Sink<'a, 'b> {
    Main,
    Side(&'a mut SideLogAppender<'b>),
}

/// Where replayed records land: the main log (baseline migration,
/// recovery) or a per-worker side log (Rocksteady parallel replay,
/// §3.1.3).
pub enum ReplayDest<'a> {
    /// Append into the master's main log.
    MainLog,
    /// Append into the given side log.
    Side(&'a SideLog),
}

/// How many records ahead of the one being replayed [`MasterService::
/// replay_batch`] asks the cache for. A record's key and value sit in
/// the *source's* log — cold, and scattered, because a Pull arrives in
/// hash order — and copying them into the side log is the replay's
/// dominant stall. Eight records of two to three lines each is more
/// misses than one core keeps in flight, so the memory system is never
/// left idle. Measured on `bulk_migrate` beside 0, 4, 16 and 32
/// (EXPERIMENTS.md, "Host-time attribution"): a plateau from 4 up — a
/// constant, not a tuning knob.
const REPLAY_LOOKAHEAD: usize = 8;

/// The wire record of a log entry; key and value alias the log (or
/// the segment image it was read from).
pub fn record_of(table: TableId, e: EntrySlices) -> Record {
    Record {
        table,
        key_hash: e.key_hash,
        version: e.version,
        tombstone: e.kind == EntryKind::Tombstone,
        key: e.key,
        value: e.value,
    }
}

/// Where a bulk load's records went, filed by hash-table partition
/// ([`HashTable::partition_of`]) in append order within each: 24 B a
/// record. [`MasterService::load_append`] fills it and
/// [`MasterService::load_index`] drains it.
#[derive(Debug)]
pub struct LoadBatch {
    table: TableId,
    partitions: Vec<Vec<(KeyHash, LogRef)>>,
}

/// The master service state.
pub struct MasterService {
    /// This server's id.
    pub id: ServerId,
    /// The in-memory log holding every object this master stores.
    pub log: Arc<Log>,
    /// The primary-key hash table over the log.
    pub hashtable: HashTable,
    tablets: Vec<LocalTablet>,
    indexlets: Vec<Indexlet>,
    /// Next object version; strictly greater than every version this
    /// master has ever written or replayed.
    next_version: u64,
}

impl MasterService {
    /// Creates an empty master.
    pub fn new(config: MasterConfig) -> Self {
        MasterService {
            id: config.id,
            log: Arc::new(Log::new(config.log)),
            hashtable: HashTable::new(config.hash_buckets, config.hash_stripes),
            tablets: Vec::new(),
            indexlets: Vec::new(),
            next_version: 1,
        }
    }

    // ------------------------------------------------------------------
    // Tablet management
    // ------------------------------------------------------------------

    /// Registers a tablet with the given role.
    pub fn add_tablet(&mut self, table: TableId, range: HashRange, role: TabletRole) {
        self.tablets.push(LocalTablet { table, range, role });
    }

    /// Removes a tablet registration (its objects remain in the log until
    /// cleaned; RAMCloud drops them lazily too).
    pub fn drop_tablet(&mut self, table: TableId, range: HashRange) {
        self.tablets
            .retain(|t| !(t.table == table && t.range == range));
    }

    /// Changes an existing tablet's role. Returns false if absent.
    pub fn set_tablet_role(&mut self, table: TableId, range: HashRange, role: TabletRole) -> bool {
        for t in &mut self.tablets {
            if t.table == table && t.range == range {
                t.role = role;
                return true;
            }
        }
        false
    }

    /// The tablet covering `(table, hash)`, if any.
    pub fn tablet_covering(&self, table: TableId, hash: KeyHash) -> Option<&LocalTablet> {
        self.tablets.iter().find(|t| t.covers(table, hash))
    }

    /// All local tablets.
    pub fn tablets(&self) -> &[LocalTablet] {
        &self.tablets
    }

    /// Splits an owned tablet at `split_hash`: the existing tablet keeps
    /// `[start, split_hash)` and a new one covers `[split_hash, end]`.
    /// This is the cheap, metadata-only operation Rocksteady's lazy
    /// partitioning relies on (§1: migration starts by splitting).
    ///
    /// Returns the two resulting ranges, or `None` if no owned tablet
    /// covers the split point or the split would be empty.
    pub fn split_tablet(
        &mut self,
        table: TableId,
        split_hash: KeyHash,
    ) -> Option<(HashRange, HashRange)> {
        let t = self
            .tablets
            .iter_mut()
            .find(|t| t.covers(table, split_hash))?;
        if t.range.start == split_hash {
            return None;
        }
        let upper = HashRange {
            start: split_hash,
            end: t.range.end,
        };
        t.range = HashRange {
            start: t.range.start,
            end: split_hash - 1,
        };
        let lower = t.range;
        let role = t.role;
        self.tablets.push(LocalTablet {
            table,
            range: upper,
            role,
        });
        Some((lower, upper))
    }

    // ------------------------------------------------------------------
    // Versioning
    // ------------------------------------------------------------------

    /// The smallest version this master guarantees never to have issued.
    /// A migration target raises its own floor to the source's ceiling so
    /// its fresh writes always supersede migrated values (§3).
    pub fn version_ceiling(&self) -> u64 {
        self.next_version
    }

    /// Raises the version floor to at least `v`.
    pub fn raise_version_floor(&mut self, v: u64) {
        self.next_version = self.next_version.max(v);
    }

    fn take_version(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    /// Whether this master may mutate `(table, hash)`. Migration sources
    /// reject mutation: the migrating tablet is immutable there (§3).
    fn check_writable(&self, table: TableId, hash: KeyHash) -> Result<(), OpError> {
        let tablet = self
            .tablet_covering(table, hash)
            .ok_or(OpError::UnknownTablet)?;
        match tablet.role {
            TabletRole::Owner
            | TabletRole::PullingFrom { .. }
            | TabletRole::BaselineSourceTo { .. } => Ok(()),
            TabletRole::MigratingOutTo { .. } => Err(OpError::UnknownTablet),
            TabletRole::Recovering => Err(OpError::Recovering),
        }
    }

    // ------------------------------------------------------------------
    // Data path
    // ------------------------------------------------------------------

    fn key_matcher<'a>(log: &'a Log, key: &'a [u8]) -> impl FnMut(LogRef) -> bool + 'a {
        move |r| log.with_entry(r, |v| v.key == key).unwrap_or(false)
    }

    /// Looks `(table, hash)` up and resolves the entry as zero-copy
    /// slices of the log's window, once, in the key matcher: the slot
    /// whose entry holds `key`, or with `key = None` the hash's first
    /// slot (`None` if its entry does not resolve).
    fn find(
        &self,
        table: TableId,
        hash: KeyHash,
        key: Option<&[u8]>,
        work: &mut Work,
    ) -> Option<EntrySlices> {
        let mut hit = None;
        let found = self.hashtable.lookup(table, hash, |r| {
            hit = self.log.entry_slices(r);
            key.is_none_or(|k| hit.as_ref().is_some_and(|e| e.key.as_slice() == k))
        });
        work.probes += found.probes as u64;
        found.value.and(hit)
    }

    /// The one way an entry gets in: append it to `sink`, point the hash
    /// table at it, mark the entry it replaces dead, and add the work to
    /// the receipt — [`MasterService::append`], then
    /// [`MasterService::index`]. Returns the new location and the kind of
    /// the replaced entry, if there was one.
    #[allow(clippy::too_many_arguments)]
    fn put(
        &mut self,
        sink: &mut Sink<'_, '_>,
        kind: EntryKind,
        table: TableId,
        hash: KeyHash,
        version: u64,
        key: &[u8],
        value: &[u8],
        work: &mut Work,
    ) -> Result<(LogRef, Option<EntryKind>), LogError> {
        let r = self.append(sink, kind, table, hash, version, key, value, work)?;
        let same_key = |log: &Log, old| Self::key_matcher(log, key)(old);
        Ok((r, self.index(table, hash, r, same_key, work)))
    }

    /// The append half of a put: the entry into `sink`, its copy and
    /// checksum added to the receipt.
    ///
    /// `&mut self` is what lets the append take no lock: the main log is
    /// reached through [`Log::append_mut`] whenever no side log or
    /// cleaner pass holds a clone of its `Arc` (through its lock
    /// otherwise).
    #[allow(clippy::too_many_arguments)]
    fn append(
        &mut self,
        sink: &mut Sink<'_, '_>,
        kind: EntryKind,
        table: TableId,
        hash: KeyHash,
        version: u64,
        key: &[u8],
        value: &[u8],
        work: &mut Work,
    ) -> Result<LogRef, LogError> {
        let r = match sink {
            Sink::Main => match Arc::get_mut(&mut self.log) {
                Some(log) => log.append_mut(kind, table.0, hash, version, key, value),
                None => self.log.append(kind, table.0, hash, version, key, value),
            },
            Sink::Side(a) => a.append(kind, table.0, hash, version, key, value),
        }?;
        let len = serialized_len(key.len(), value.len()) as u64;
        work.copied_bytes += len;
        work.checksummed_bytes += len;
        Ok(r)
    }

    /// The index half of a put: point the hash table at the entry at
    /// `r`, replacing the entry `same_key` accepts, and mark that one
    /// dead. Returns the kind of the replaced entry, if there was one.
    /// The hash table is reached through its `_mut` door, so no lock is
    /// taken.
    fn index(
        &mut self,
        table: TableId,
        hash: KeyHash,
        r: LogRef,
        mut same_key: impl FnMut(&Log, LogRef) -> bool,
        work: &mut Work,
    ) -> Option<EntryKind> {
        let log = &*self.log;
        let up = self
            .hashtable
            .upsert_mut(table, hash, r, |old| same_key(log, old));
        work.probes += up.probes as u64;
        let Upsert::Replaced(old) = up.value else {
            return None;
        };
        let seen = log.with_entry(old, |v| (v.serialized_len() as u64, v.kind));
        log.mark_dead(old, seen.map_or(0, |(len, _)| len));
        seen.map(|(_, kind)| kind)
    }

    /// Reads one object by key (or, with `key = None`, by bare hash — the
    /// index-scan follow-up path, Figure 2).
    pub fn read(
        &self,
        table: TableId,
        hash: KeyHash,
        key: Option<&[u8]>,
        work: &mut Work,
    ) -> Result<(Bytes, u64), OpError> {
        let tablet = self
            .tablet_covering(table, hash)
            .ok_or(OpError::UnknownTablet)?;
        let pulling = match tablet.role {
            TabletRole::Owner | TabletRole::BaselineSourceTo { .. } => false,
            TabletRole::PullingFrom { .. } => true,
            TabletRole::MigratingOutTo { .. } => return Err(OpError::UnknownTablet),
            TabletRole::Recovering => return Err(OpError::Recovering),
        };
        // Zero-copy on the host: the value is a refcounted slice of the
        // log's window. The *simulated* copy into the RPC response buffer
        // is still charged through `work.copied_bytes`, so timing is
        // unchanged.
        match self.find(table, hash, key, work) {
            // A tombstone slot is authoritative: the key is deleted at
            // (at least) this version, and version-max replay guarantees
            // nothing older can resurrect it.
            Some(e) if e.kind == EntryKind::Tombstone => Err(OpError::NotFound),
            Some(e) => {
                work.copied_bytes += e.value.len() as u64;
                Ok((e.value, e.version))
            }
            None if pulling => Err(OpError::NotYetHere { hash }),
            None => Err(OpError::NotFound),
        }
    }

    /// Writes one object; returns its new version and log location.
    pub fn write(
        &mut self,
        table: TableId,
        hash: KeyHash,
        key: &[u8],
        value: &[u8],
        work: &mut Work,
    ) -> Result<(u64, LogRef), OpError> {
        self.check_writable(table, hash)?;
        let version = self.take_version();
        let (r, _) = self
            .put(
                &mut Sink::Main,
                EntryKind::Object,
                table,
                hash,
                version,
                key,
                value,
                work,
            )
            .map_err(|_| OpError::UnknownTablet)?;
        Ok((version, r))
    }

    /// Deletes one object; returns whether it existed.
    pub fn delete(
        &mut self,
        table: TableId,
        hash: KeyHash,
        key: &[u8],
        work: &mut Work,
    ) -> Result<bool, OpError> {
        self.check_writable(table, hash)?;
        let version = self.take_version();
        // Always log the tombstone and keep it indexed: during
        // migration-in the key may exist at the source without having
        // arrived yet, and the tombstone's higher version must win over
        // the late arrival at replay (§3). Dropping the slot instead
        // would let the older object resurrect.
        let (_, replaced) = self
            .put(
                &mut Sink::Main,
                EntryKind::Tombstone,
                table,
                hash,
                version,
                key,
                b"",
                work,
            )
            .map_err(|_| OpError::UnknownTablet)?;
        Ok(replaced == Some(EntryKind::Object))
    }

    // ------------------------------------------------------------------
    // Secondary indexes
    // ------------------------------------------------------------------

    /// Registers an indexlet on this master.
    pub fn add_indexlet(&mut self, indexlet: Indexlet) {
        self.indexlets.push(indexlet);
    }

    /// All local indexlets.
    pub fn indexlets(&self) -> &[Indexlet] {
        &self.indexlets
    }

    /// Scans the covering indexlet for `[begin, end]`, returning primary
    /// hashes in secondary-key order.
    pub fn index_scan(
        &self,
        table: TableId,
        index: IndexId,
        begin: &[u8],
        end: &[u8],
        limit: usize,
        work: &mut Work,
    ) -> Result<(Vec<KeyHash>, bool), OpError> {
        let ix = self
            .indexlets
            .iter()
            .find(|i| i.table == table && i.index == index && i.covers(begin))
            .ok_or(OpError::UnknownIndexlet)?;
        let (hashes, truncated, visited) = ix.scan(begin, end, limit);
        work.index_entries += visited;
        Ok((hashes, truncated))
    }

    // ------------------------------------------------------------------
    // Migration / recovery primitives
    // ------------------------------------------------------------------

    /// Gathers up to ~`budget_bytes` of records from `range` starting at
    /// `cursor` — the source half of one Pull (§3.1.1, Figure 7). Batches
    /// end on hash-table bucket boundaries; `None` cursor means the
    /// partition is exhausted.
    ///
    /// The scan runs a couple of buckets ahead of the copy-out: each
    /// slot's entry header — one cold line somewhere in the log — is
    /// asked for while the entries of earlier buckets are being decoded,
    /// so the header misses of a batch overlap instead of queueing. Both
    /// read through one [`Log::view`] per stripe run: the log's lock is
    /// taken once a stripe, inside the stripe's, never once a record.
    pub fn gather_range(
        &self,
        table: TableId,
        range: HashRange,
        cursor: ScanCursor,
        budget_bytes: u64,
        work: &mut Work,
    ) -> (Vec<Record>, Option<ScanCursor>) {
        // Room for what the budget can pay for at the smallest wire size
        // (a batch overshoots by at most its last bucket), bounded by
        // what there is to send.
        let room = (budget_bytes / RECORD_HEADER_BYTES).min(self.hashtable.len() as u64);
        let mut records = Vec::with_capacity(room as usize);
        let out = self.hashtable.scan_range(
            table,
            range,
            cursor,
            budget_bytes,
            || self.log.view(),
            |view, slot| view.prefetch(slot.log_ref),
            |view, slot| match view.entry_slices(slot.log_ref) {
                Some(e) => {
                    let rec = record_of(table, e);
                    // Wire size is computed exactly once per record,
                    // here, and serves both as the batch-budget weight
                    // and the checksum-cost charge. The response is
                    // checksummed on the (simulated) wire, but nothing
                    // is memcpy'd: key and value alias the log.
                    let w = rec.wire_size();
                    work.checksummed_bytes += w;
                    records.push(rec);
                    w
                }
                None => 0,
            },
        );
        work.probes += out.probes as u64;
        (records, out.value)
    }

    /// Gathers specific keys by hash — the source half of a PriorityPull
    /// (§3.3). Hashes with no live record are silently absent.
    pub fn gather_hashes(
        &self,
        table: TableId,
        hashes: &[KeyHash],
        work: &mut Work,
    ) -> Vec<Record> {
        let mut records = Vec::with_capacity(hashes.len());
        for &hash in hashes {
            if let Some(e) = self.find(table, hash, None, work) {
                let rec = record_of(table, e);
                // Zero-copy like gather_range: checksummed on the wire,
                // never memcpy'd.
                work.checksummed_bytes += rec.wire_size();
                records.push(rec);
            }
        }
        records
    }

    /// Replays one record with version-max semantics: the incoming record
    /// is applied only if it is newer than what this master already has.
    /// Used by migration replay (§3.1.3), baseline replay (§2.3), and
    /// crash recovery.
    ///
    /// Returns whether it was applied.
    pub fn replay_record(&mut self, rec: &Record, dest: ReplayDest<'_>, work: &mut Work) -> bool {
        self.replay_batch(std::slice::from_ref(rec), dest, work) == 1
    }

    /// Replays a whole Pull response's worth of records with version-max
    /// semantics, amortizing per-record overhead across the batch: the
    /// side log's lock is taken once (not once per record) and the
    /// version floor is raised once to cover the batch's max version.
    /// Records are applied in order, so a batch that carries two versions
    /// of one key still converges to the newest.
    ///
    /// Returns how many records were applied.
    pub fn replay_batch(
        &mut self,
        recs: &[Record],
        dest: ReplayDest<'_>,
        work: &mut Work,
    ) -> usize {
        if recs.is_empty() {
            return 0;
        }
        // The floor only ever grows, so one raise to the batch max is
        // equivalent to raising per applied record.
        let max_version = recs.iter().map(|r| r.version).max().unwrap_or(0);
        self.raise_version_floor(max_version + 1);
        match dest {
            ReplayDest::MainLog => self.replay_into(recs, &mut Sink::Main, work),
            ReplayDest::Side(side) => {
                side.append_batch(|a| self.replay_into(recs, &mut Sink::Side(a), work))
            }
        }
    }

    /// The replay loop, pipelined: before record *i* is applied, the key
    /// and value of every record up to *i* + [`REPLAY_LOOKAHEAD`] have
    /// been asked for, so the copy into `sink` finds its source bytes
    /// arriving instead of stalling on them one record at a time. Only
    /// the hints run ahead — records are still looked up, compared and
    /// applied strictly in order, each seeing everything before it.
    fn replay_into(&mut self, recs: &[Record], sink: &mut Sink<'_, '_>, work: &mut Work) -> usize {
        let hint = |rec: &Record| {
            prefetch_bytes(&rec.key);
            prefetch_bytes(&rec.value);
        };
        // Catch up to the horizon once, then stay that far in front.
        let mut ahead = recs.iter();
        ahead.by_ref().take(REPLAY_LOOKAHEAD).for_each(hint);
        let mut applied = 0;
        for rec in recs {
            if let Some(next) = ahead.next() {
                hint(next);
            }
            applied += usize::from(self.replay_one(rec, sink, work));
        }
        applied
    }

    /// Version-max replay of a single record into `sink`. The caller has
    /// already raised the version floor.
    fn replay_one(&mut self, rec: &Record, sink: &mut Sink<'_, '_>, work: &mut Work) -> bool {
        let existing = self.hashtable.lookup_mut(
            rec.table,
            rec.key_hash,
            Self::key_matcher(&self.log, &rec.key),
        );
        work.probes += existing.probes as u64;
        if let Some(r) = existing.value {
            let existing_version = self.log.with_entry(r, |v| v.version).unwrap_or(0);
            if existing_version >= rec.version {
                return false;
            }
        }
        // Objects and tombstones both keep a slot: the tombstone's
        // presence (with its version) is what makes unordered replay
        // delete-safe.
        let kind = if rec.tombstone {
            EntryKind::Tombstone
        } else {
            EntryKind::Object
        };
        self.put(
            sink,
            kind,
            rec.table,
            rec.key_hash,
            rec.version,
            &rec.key,
            &rec.value,
            work,
        )
        .is_ok()
    }

    /// Direct load for experiment setup: behaves like a normal write but
    /// skips tablet-ownership checks (the harness loads tables before the
    /// coordinator map exists).
    pub fn load_object(&mut self, table: TableId, key: &[u8], value: &[u8]) -> LogRef {
        self.load_object_hashed(table, rocksteady_common::key_hash(key), key, value)
    }

    /// [`MasterService::load_object`] with the key hash precomputed —
    /// the bulk loader already hashed every key to route it to its
    /// owner, and paper-scale loads (10⁷+ records) cannot afford to
    /// hash twice. One record at a time; a bulk load is
    /// [`MasterService::load_append`] and [`MasterService::load_index`].
    pub fn load_object_hashed(
        &mut self,
        table: TableId,
        hash: KeyHash,
        key: &[u8],
        value: &[u8],
    ) -> LogRef {
        let r = self.load_entry(table, hash, key, value);
        let same_key = |log: &Log, old| Self::key_matcher(log, key)(old);
        self.index(table, hash, r, same_key, &mut Work::default());
        r
    }

    /// Appends one loaded record to the main log with the next version.
    /// Setup is not charged: the receipt is dropped.
    fn load_entry(&mut self, table: TableId, hash: KeyHash, key: &[u8], value: &[u8]) -> LogRef {
        let version = self.take_version();
        self.append(
            &mut Sink::Main,
            EntryKind::Object,
            table,
            hash,
            version,
            key,
            value,
            &mut Work::default(),
        )
        .expect("load append failed")
    }

    /// An empty [`LoadBatch`] for this master's share of a bulk load of
    /// `keys` keys of `table` hashed uniformly over the hash space. Each
    /// partition has room for the keys its slice of the hash space can
    /// expect, by how much of the slice this master's tablets of `table`
    /// cover, plus four standard deviations: filling the batch moves no
    /// buffer but by chance.
    pub fn load_batch(&self, table: TableId, keys: u64) -> LoadBatch {
        let slices = HashRange::full().split(self.hashtable.partitions());
        let partitions = slices.iter().map(|slice| {
            let mine = self.tablets.iter().filter(|t| t.table == table);
            let covered: u128 = mine
                .map(|t| {
                    let (lo, hi) = (t.range.start.max(slice.start), t.range.end.min(slice.end));
                    if lo <= hi {
                        u128::from(hi - lo) + 1
                    } else {
                        0
                    }
                })
                .sum();
            let expected = ((u128::from(keys) * covered) >> 64) as usize;
            Vec::with_capacity(expected + 4 * expected.isqrt())
        });
        LoadBatch {
            table,
            partitions: partitions.collect(),
        }
    }

    /// The append half of a bulk load: appends one record to the log
    /// with the next version, as [`MasterService::load_object_hashed`]
    /// does, and files where it went in `batch` (made by this master's
    /// [`MasterService::load_batch`]) by its hash-table partition. The
    /// hash table is not touched until [`MasterService::load_index`].
    pub fn load_append(&mut self, batch: &mut LoadBatch, hash: KeyHash, key: &[u8], value: &[u8]) {
        let r = self.load_entry(batch.table, hash, key, value);
        batch.partitions[self.hashtable.partition_of(hash)].push((hash, r));
    }

    /// The index half of a bulk load: points the hash table at every
    /// record `batch` filed and marks each entry one of them replaces
    /// dead, a partition at a time and in append order within each.
    /// Every bucket, and every stripe's spill chains, see their entries
    /// in the order record-at-a-time loading gives them, so the table
    /// and the dead counts end up the same; but each insert lands in a
    /// partition's buckets, already cached. A partition's buffer is
    /// freed as soon as it is indexed.
    pub fn load_index(&mut self, batch: LoadBatch) {
        let mut work = Work::default();
        for partition in batch.partitions {
            for (hash, r) in partition {
                // Keys are compared only on a full-hash match: read the
                // new entry's key then, not for every record.
                let same_key = |log: &Log, old| {
                    log.with_entry(r, |new| Self::key_matcher(log, new.key)(old)) == Some(true)
                };
                self.index(batch.table, hash, r, same_key, &mut work);
            }
        }
    }

    /// Runs one log-cleaner pass, relocating live entries into survivor
    /// segments of their own and repointing the hash table. Returns the
    /// cleaner's statistics — including the victims' ids, whose backup
    /// replicas outlive them until the survivors are durable — if
    /// anything was cleaned.
    pub fn clean_once(&mut self, cleaner: &Cleaner) -> Option<rocksteady_logstore::CleanStats> {
        struct Hooked<'a> {
            hashtable: &'a HashTable,
            log: &'a Log,
        }
        impl Relocator for Hooked<'_> {
            fn disposition(
                &mut self,
                view: &rocksteady_logstore::EntryView<'_>,
                old: LogRef,
            ) -> Relocation {
                if view.kind == EntryKind::SideLogCommit {
                    return Relocation::Keep;
                }
                // Objects and tombstones alike are live iff the hash
                // table still points at them (a tombstone is superseded
                // by any newer write of the key).
                let key = view.key;
                let current = self
                    .hashtable
                    .lookup(TableId(view.table_id), view.key_hash, |r| {
                        r == old || self.log.with_entry(r, |v| v.key == key).unwrap_or(false)
                    })
                    .value;
                if current == Some(old) {
                    Relocation::Keep
                } else {
                    Relocation::Drop
                }
            }

            fn relocated(
                &mut self,
                view: &rocksteady_logstore::EntryView<'_>,
                old: LogRef,
                new: LogRef,
            ) {
                if view.kind != EntryKind::SideLogCommit {
                    self.hashtable
                        .update_ref(TableId(view.table_id), view.key_hash, old, new);
                }
            }
        }
        let log = Arc::clone(&self.log);
        let mut hooked = Hooked {
            hashtable: &self.hashtable,
            log: &log,
        };
        cleaner.clean_once(&self.log, &mut hooked).ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::key_hash;

    const T: TableId = TableId(1);

    fn owner_master() -> MasterService {
        let mut m = MasterService::new(MasterConfig {
            log: LogConfig {
                segment_bytes: 4096,
                max_segments: None,
            },
            hash_buckets: 256,
            hash_stripes: 16,
            ..MasterConfig::default()
        });
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        m
    }

    fn w() -> Work {
        Work::default()
    }

    #[test]
    fn write_then_read() {
        let mut m = owner_master();
        let h = key_hash(b"alice");
        let mut work = w();
        let (v1, _) = m.write(T, h, b"alice", b"hello", &mut work).unwrap();
        assert!(m.log.stats().appended_entries == 1 && work.probes > 0);
        let (value, version) = m.read(T, h, Some(b"alice"), &mut w()).unwrap();
        assert_eq!(&value[..], b"hello");
        assert_eq!(version, v1);
    }

    #[test]
    fn overwrites_bump_version_and_kill_old_entry() {
        let mut m = owner_master();
        let h = key_hash(b"k");
        let (v1, _) = m.write(T, h, b"k", b"one", &mut w()).unwrap();
        let live_before = m.log.stats().live_bytes;
        let (v2, _) = m.write(T, h, b"k", b"two", &mut w()).unwrap();
        assert!(v2 > v1);
        let (value, _) = m.read(T, h, Some(b"k"), &mut w()).unwrap();
        assert_eq!(&value[..], b"two");
        // The superseded entry was marked dead.
        assert!(m.log.stats().live_bytes <= live_before + 50);
    }

    #[test]
    fn read_unowned_hash_is_unknown_tablet() {
        let mut m = MasterService::new(MasterConfig::default());
        m.add_tablet(T, HashRange { start: 0, end: 10 }, TabletRole::Owner);
        let err = m.read(T, 11, None, &mut w()).unwrap_err();
        assert_eq!(err, OpError::UnknownTablet);
        let err = m.write(T, 11, b"k", b"v", &mut w()).unwrap_err();
        assert_eq!(err, OpError::UnknownTablet);
    }

    #[test]
    fn missing_key_not_found() {
        let m = owner_master();
        let err = m.read(T, key_hash(b"ghost"), Some(b"ghost"), &mut w());
        assert_eq!(err.unwrap_err(), OpError::NotFound);
    }

    #[test]
    fn delete_appends_tombstone() {
        let mut m = owner_master();
        let h = key_hash(b"k");
        m.write(T, h, b"k", b"v", &mut w()).unwrap();
        assert!(m.delete(T, h, b"k", &mut w()).unwrap());
        assert_eq!(
            m.read(T, h, Some(b"k"), &mut w()).unwrap_err(),
            OpError::NotFound
        );
        // Deleting again reports absent but still logs a tombstone.
        assert!(!m.delete(T, h, b"k", &mut w()).unwrap());
    }

    #[test]
    fn migration_source_rejects_everything() {
        let mut m = owner_master();
        let h = key_hash(b"k");
        m.write(T, h, b"k", b"v", &mut w()).unwrap();
        m.set_tablet_role(
            T,
            HashRange::full(),
            TabletRole::MigratingOutTo {
                target: ServerId(9),
            },
        );
        assert_eq!(
            m.read(T, h, Some(b"k"), &mut w()).unwrap_err(),
            OpError::UnknownTablet
        );
        assert_eq!(
            m.write(T, h, b"k", b"v2", &mut w()).unwrap_err(),
            OpError::UnknownTablet
        );
    }

    #[test]
    fn migration_target_read_miss_is_not_yet_here() {
        let mut m = MasterService::new(MasterConfig::default());
        m.add_tablet(
            T,
            HashRange::full(),
            TabletRole::PullingFrom {
                source: ServerId(2),
            },
        );
        let h = key_hash(b"waiting");
        assert_eq!(
            m.read(T, h, Some(b"waiting"), &mut w()).unwrap_err(),
            OpError::NotYetHere { hash: h }
        );
        // Writes are accepted immediately (§3).
        let (v, _) = m.write(T, h, b"waiting", b"fresh", &mut w()).unwrap();
        assert!(v >= 1);
        let (value, _) = m.read(T, h, Some(b"waiting"), &mut w()).unwrap();
        assert_eq!(&value[..], b"fresh");
    }

    #[test]
    fn split_tablet_metadata_only() {
        let mut m = owner_master();
        let mid = u64::MAX / 2 + 1;
        let (lo, hi) = m.split_tablet(T, mid).unwrap();
        assert_eq!(lo.end + 1, hi.start);
        assert_eq!(m.tablets().len(), 2);
        assert!(m.tablet_covering(T, 0).unwrap().range.contains(0));
        assert!(m.tablet_covering(T, u64::MAX).unwrap().range.start == mid);
        // Splitting at a range start is rejected.
        assert!(m.split_tablet(T, mid).is_none());
    }

    #[test]
    fn gather_range_returns_all_records_in_batches() {
        let mut m = owner_master();
        for i in 0..200u64 {
            let key = format!("key-{i}");
            m.write(
                T,
                key_hash(key.as_bytes()),
                key.as_bytes(),
                b"0123456789",
                &mut w(),
            )
            .unwrap();
        }
        let range = HashRange::full();
        let mut cursor = ScanCursor::default();
        let mut got = Vec::new();
        let mut batches = 0;
        loop {
            let (records, next) = m.gather_range(T, range, cursor, 2_000, &mut w());
            batches += 1;
            got.extend(records);
            match next {
                Some(c) => cursor = c,
                None => break,
            }
            assert!(batches < 1_000);
        }
        assert!(batches > 1, "should take multiple 2KB batches");
        assert_eq!(got.len(), 200);
        let mut hashes: Vec<u64> = got.iter().map(|r| r.key_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 200, "duplicates or losses in gather");
    }

    /// The pull path is zero-copy: gathered keys and values alias the
    /// log's segment memory (no per-record heap copies), and the `Bytes`
    /// keep a removed segment's memory alive — the ownership rule the
    /// cleaner relies on.
    #[test]
    fn gather_aliases_segment_memory_and_keeps_it_alive() {
        let mut m = owner_master();
        let h = key_hash(b"pinned");
        m.write(T, h, b"pinned", b"payload-bytes", &mut w())
            .unwrap();
        let (records, _) = m.gather_range(
            T,
            HashRange::full(),
            ScanCursor::default(),
            u64::MAX,
            &mut w(),
        );
        assert_eq!(records.len(), 1);
        let rec = &records[0];
        // Both slices point inside the segment's committed buffer.
        let lr = m.hashtable.lookup(T, h, |_| true).value.unwrap();
        let seg = m.log.segment(lr.segment).unwrap();
        let buf = seg.committed_bytes();
        let within = |b: &Bytes| {
            let p = b.as_slice().as_ptr() as usize;
            let start = buf.as_ptr() as usize;
            p >= start && p + b.len() <= start + buf.len()
        };
        assert!(within(&rec.key), "key was copied off the log");
        assert!(within(&rec.value), "value was copied off the log");
        assert_eq!(&rec.value[..], b"payload-bytes");
        // Removing the segment from the log must not invalidate in-flight
        // slices: the Bytes hold the segment Arc.
        drop(seg);
        // (The head segment is never removable; roll it first.)
        let first_seg = lr.segment;
        while m.log.head_segment_id() == first_seg {
            m.write(T, key_hash(b"filler"), b"filler", &[0u8; 1024], &mut w())
                .unwrap();
        }
        m.log.remove_segment(first_seg).unwrap();
        assert_eq!(&rec.value[..], b"payload-bytes", "slice outlived removal");
    }

    #[test]
    fn gather_hashes_fetches_specific_records() {
        let mut m = owner_master();
        let h1 = key_hash(b"a");
        let h2 = key_hash(b"b");
        m.write(T, h1, b"a", b"va", &mut w()).unwrap();
        m.write(T, h2, b"b", b"vb", &mut w()).unwrap();
        let recs = m.gather_hashes(T, &[h1, key_hash(b"missing"), h2], &mut w());
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().any(|r| &r.key[..] == b"a"));
        assert!(recs.iter().any(|r| &r.key[..] == b"b"));
    }

    #[test]
    fn replay_respects_version_order() {
        let mut m = owner_master();
        let h = key_hash(b"k");
        let rec = |version: u64, value: &str, tombstone: bool| Record {
            table: T,
            key_hash: h,
            version,
            key: Bytes::from_static(b"k"),
            value: Bytes::copy_from_slice(value.as_bytes()),
            tombstone,
        };
        assert!(m.replay_record(&rec(5, "v5", false), ReplayDest::MainLog, &mut w()));
        // Older record loses.
        assert!(!m.replay_record(&rec(3, "v3", false), ReplayDest::MainLog, &mut w()));
        let (value, version) = m.read(T, h, Some(b"k"), &mut w()).unwrap();
        assert_eq!(&value[..], b"v5");
        assert_eq!(version, 5);
        // Newer tombstone wins.
        assert!(m.replay_record(&rec(6, "", true), ReplayDest::MainLog, &mut w()));
        assert_eq!(
            m.read(T, h, Some(b"k"), &mut w()).unwrap_err(),
            OpError::NotFound
        );
        // Replay raised the version floor past everything seen.
        assert!(m.version_ceiling() >= 7);
    }

    #[test]
    fn replay_into_side_log_then_commit() {
        let mut m = owner_master();
        let side = SideLog::new(Arc::clone(&m.log));
        let h = key_hash(b"side");
        let rec = Record {
            table: T,
            key_hash: h,
            version: 9,
            key: Bytes::from_static(b"side"),
            value: Bytes::from_static(b"data"),
            tombstone: false,
        };
        assert!(m.replay_record(&rec, ReplayDest::Side(&side), &mut w()));
        // Visible via the hash table even before commit (the slot points
        // into the side segment).
        let (value, _) = m.read(T, h, Some(b"side"), &mut w()).unwrap();
        assert_eq!(&value[..], b"data");
        side.commit().unwrap();
        let (value, _) = m.read(T, h, Some(b"side"), &mut w()).unwrap();
        assert_eq!(&value[..], b"data");
    }

    #[test]
    fn replay_batch_into_side_log_preserves_version_max() {
        let mut m = MasterService::new(MasterConfig::default());
        m.add_tablet(
            T,
            HashRange::full(),
            TabletRole::PullingFrom {
                source: ServerId(1),
            },
        );
        let side = SideLog::new(Arc::clone(&m.log));
        let rec = |key: &str, version: u64, value: &str| Record {
            table: T,
            key_hash: key_hash(key.as_bytes()),
            version,
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::copy_from_slice(value.as_bytes()),
            tombstone: false,
        };
        // One batch carrying a duplicate key (v5 then v7) plus a distinct
        // key: later records in the batch must see earlier ones.
        let batch = vec![
            rec("dup", 5, "old"),
            rec("dup", 7, "new"),
            rec("solo", 3, "x"),
        ];
        let mut work = w();
        assert_eq!(
            m.replay_batch(&batch, ReplayDest::Side(&side), &mut work),
            3
        );
        assert_eq!(side.entries(), 3);
        // A second identical batch is fully rejected (idempotent), and a
        // stale single record loses to the batch's winner.
        assert_eq!(m.replay_batch(&batch, ReplayDest::Side(&side), &mut w()), 0);
        assert!(!m.replay_record(&rec("dup", 6, "stale"), ReplayDest::Side(&side), &mut w()));
        // Floor was raised past the batch max in one step.
        assert!(m.version_ceiling() > 7);
        side.commit().unwrap();
        let (value, _) = m.read(T, key_hash(b"dup"), Some(b"dup"), &mut w()).unwrap();
        assert_eq!(&value[..], b"new");
        let (value, _) = m
            .read(T, key_hash(b"solo"), Some(b"solo"), &mut w())
            .unwrap();
        assert_eq!(&value[..], b"x");
    }

    /// The two doors build the same state. One sequence — load, overwriting
    /// writes, a delete, replay into a side log and its commit, replay into
    /// the main log — runs on a master whose log nothing else holds, so
    /// `put` appends through `Log::append_mut`, and on one whose log an
    /// extra `Arc` pins, so `put` appends through the log's lock. Segment
    /// bytes and counters, table slots, length, version ceiling and every
    /// receipt must agree.
    #[test]
    fn exclusive_and_locked_doors_build_the_same_state() {
        let key = |k: u64| format!("door-{k}").into_bytes();
        let rec = |k: u64, version: u64, tombstone: bool| Record {
            table: T,
            key_hash: key_hash(&key(k)),
            version,
            key: Bytes::from(key(k)),
            value: Bytes::from(vec![k as u8; 40 + k as usize % 70]),
            tombstone,
        };
        let run = |pin: bool| {
            let mut m = owner_master();
            let pinned = pin.then(|| Arc::clone(&m.log));
            let mut receipts = Vec::new();
            for k in 0..300 {
                m.load_object(T, &key(k), &vec![7; 30 + k as usize % 90]);
            }
            for k in (0..300).step_by(7).chain(300..320) {
                let mut work = w();
                let out = m.write(T, key_hash(&key(k)), &key(k), b"rewritten", &mut work);
                receipts.push((out.map(|(v, r)| (v, r.segment, r.offset)).ok(), work));
            }
            let mut work = w();
            let gone = m.delete(T, key_hash(&key(14)), &key(14), &mut work);
            receipts.push((gone.ok().map(|g| (u64::from(g), 0, 0)), work));
            // Stale, newer, new and tombstone records, into a side log.
            let ceiling = m.version_ceiling();
            let side = SideLog::new(Arc::clone(&m.log));
            let batch: Vec<Record> = (0..40)
                .map(|i| {
                    rec(
                        i * 9,
                        if i.is_multiple_of(3) { 1 } else { ceiling + i },
                        i % 11 == 5,
                    )
                })
                .collect();
            let mut work = w();
            let applied = m.replay_batch(&batch, ReplayDest::Side(&side), &mut work);
            receipts.push((Some((applied as u64, 0, 0)), work));
            side.commit().unwrap();
            let ceiling = m.version_ceiling();
            let batch: Vec<Record> = (0..40)
                .map(|i| {
                    rec(
                        i * 5 + 1,
                        if i.is_multiple_of(4) { 2 } else { ceiling + i },
                        i % 13 == 2,
                    )
                })
                .collect();
            let mut work = w();
            let applied = m.replay_batch(&batch, ReplayDest::MainLog, &mut work);
            receipts.push((Some((applied as u64, 0, 0)), work));
            assert_eq!(Arc::strong_count(&m.log), 1 + usize::from(pinned.is_some()));
            let segments: Vec<_> = m
                .log
                .segments_snapshot()
                .iter()
                .map(|s| {
                    let counts = (s.live_bytes(), s.entry_count(), s.is_closed());
                    (s.id(), s.committed_bytes().to_vec(), counts)
                })
                .collect();
            let mut slots = Vec::new();
            m.hashtable
                .for_each_in_range(T, HashRange::full(), |s| slots.push(*s));
            let shape = (m.hashtable.len(), m.version_ceiling(), m.log.stats());
            (segments, slots, shape, receipts)
        };
        let (exclusive, locked) = (run(false), run(true));
        assert!(exclusive.0.len() > 3, "the loads rolled the head");
        assert_eq!(exclusive.0, locked.0, "segments");
        assert_eq!(exclusive.1, locked.1, "hash-table slots");
        assert_eq!(exclusive.2, locked.2, "length, ceiling, log stats");
        assert_eq!(exclusive.3, locked.3, "receipts");
    }

    /// A partitioned bulk load — [`MasterService::load_append`] for every
    /// record, then one [`MasterService::load_index`] — leaves the master
    /// a record-at-a-time load leaves: the same bytes and dead bytes in
    /// every segment, the same slots in the same order over the whole
    /// hash space, the same length. On a table small enough to spill
    /// into chains, with keys loaded twice in one load, and on a table of
    /// several partitions.
    #[test]
    fn a_partitioned_load_builds_what_record_at_a_time_loading_builds() {
        type Loaded = (
            Vec<(u64, Vec<u8>, u64)>,
            Vec<rocksteady_hashtable::Slot>,
            usize,
        );
        let master = |hash_buckets: usize| {
            let mut m = MasterService::new(MasterConfig {
                log: LogConfig {
                    segment_bytes: 4096,
                    max_segments: None,
                },
                hash_buckets,
                hash_stripes: 16,
                ..MasterConfig::default()
            });
            m.add_tablet(T, HashRange::full(), TabletRole::Owner);
            m
        };
        let loaded = |m: &MasterService| -> Loaded {
            let segments = m.log.segments_snapshot().into_iter().map(|s| {
                let dead = s.committed() as u64 - s.live_bytes();
                (s.id(), s.committed_bytes().to_vec(), dead)
            });
            let mut slots = Vec::new();
            m.hashtable
                .for_each_in_range(T, HashRange::full(), |s| slots.push(*s));
            (segments.collect(), slots, m.hashtable.len())
        };
        let both = |hash_buckets: usize, records: &[(Vec<u8>, Vec<u8>)]| {
            let mut single = master(hash_buckets);
            for (key, value) in records {
                single.load_object_hashed(T, key_hash(key), key, value);
            }
            let mut partitioned = master(hash_buckets);
            let mut batch = partitioned.load_batch(T, records.len() as u64);
            for (key, value) in records {
                partitioned.load_append(&mut batch, key_hash(key), key, value);
            }
            partitioned.load_index(batch);
            let (single, built) = (loaded(&single), loaded(&partitioned));
            assert_eq!(single.0, built.0, "segment bytes and dead bytes");
            assert_eq!(single.1, built.1, "hash-table slots in order");
            assert_eq!(single.2, built.2, "length");
            (built, partitioned)
        };
        let records = |keys: &mut dyn Iterator<Item = u64>| -> Vec<(Vec<u8>, Vec<u8>)> {
            keys.enumerate()
                .map(|(i, k)| (format!("load-{k}").into_bytes(), vec![i as u8; 20 + i % 90]))
                .collect()
        };

        // Four buckets of eight slots for 300 keys: most of them spill.
        let (spilled, _) = both(4, &records(&mut (0..300)));
        assert_eq!(spilled.2, 300);

        // Keys 17 and 40 twice, 5 three times: the last write wins, and
        // the ones it replaced are dead.
        let twice = records(&mut (0..200).chain([17, 5, 40, 5]));
        let (replaced, m) = both(256, &twice);
        assert_eq!(replaced.2, 200);
        let dead: u64 = replaced.0.iter().map(|(_, _, dead)| dead).sum();
        let sizes = |i: usize| serialized_len(twice[i].0.len(), twice[i].1.len()) as u64;
        assert_eq!(dead, sizes(17) + sizes(5) + sizes(40) + sizes(201));
        let (value, _) = m
            .read(T, key_hash(b"load-5"), Some(b"load-5"), &mut w())
            .unwrap();
        assert_eq!(value.as_slice(), twice[203].1.as_slice());

        // Four partitions, every one of them loaded.
        let buckets = 4 * rocksteady_hashtable::PARTITION_BYTES / 128;
        let (several, m) = both(buckets, &records(&mut (0..5000)));
        assert_eq!(m.hashtable.partitions(), 4);
        let mut hit: Vec<usize> = several
            .1
            .iter()
            .map(|s| m.hashtable.partition_of(s.hash))
            .collect();
        hit.dedup();
        assert_eq!(hit, [0, 1, 2, 3]);
    }

    /// The pipelined loop only hints ahead: replaying a batch equals
    /// replaying its records one call at a time — in what is applied,
    /// in the work charged, and in what the table holds afterwards — for
    /// both destinations, with duplicate keys and tombstones falling
    /// inside the look-ahead window and with batches shorter than it.
    #[test]
    fn replay_batch_equals_record_at_a_time_replay() {
        use rocksteady_common::rng::Prng;

        const POOL: u64 = 12; // few keys: duplicates inside any 8 records
        let key_of = |k: u64| format!("key-{k}").into_bytes();
        let target = || {
            let mut m = owner_master();
            m.set_tablet_role(
                T,
                HashRange::full(),
                TabletRole::PullingFrom {
                    source: ServerId(1),
                },
            );
            m
        };
        for seed in 0..48u64 {
            let mut rng = Prng::new(0xba7c_0000 + seed);
            let side_dest = seed % 2 == 0;
            let (mut batched, mut single) = (target(), target());
            let sides = side_dest.then(|| {
                (
                    SideLog::new(Arc::clone(&batched.log)),
                    SideLog::new(Arc::clone(&single.log)),
                )
            });
            fn dest(side: Option<&SideLog>) -> ReplayDest<'_> {
                side.map_or(ReplayDest::MainLog, ReplayDest::Side)
            }
            for _ in 0..rng.next_range(1, 6) {
                let len = match rng.next_below(3) {
                    0 => rng.next_below(REPLAY_LOOKAHEAD as u64 + 1), // shorter, empty
                    _ => rng.next_range(REPLAY_LOOKAHEAD as u64, 40),
                };
                let batch: Vec<Record> = (0..len)
                    .map(|_| {
                        let key = key_of(rng.next_below(POOL));
                        let tombstone = rng.next_below(4) == 0;
                        let version = rng.next_range(1, 30);
                        let value = if tombstone {
                            Bytes::new()
                        } else {
                            Bytes::from(format!("v{version}-{}", rng.next_below(1000)))
                        };
                        Record {
                            table: T,
                            key_hash: key_hash(&key),
                            version,
                            key: Bytes::from(key),
                            value,
                            tombstone,
                        }
                    })
                    .collect();
                let (mut work_b, mut work_s) = (w(), w());
                let side_b = sides.as_ref().map(|(b, _)| b);
                let side_s = sides.as_ref().map(|(_, s)| s);
                let applied_b = batched.replay_batch(&batch, dest(side_b), &mut work_b);
                let applied_s = batch
                    .iter()
                    .filter(|rec| single.replay_record(rec, dest(side_s), &mut work_s))
                    .count();
                assert_eq!(applied_b, applied_s, "seed {seed}: applied");
                assert_eq!(work_b, work_s, "seed {seed}: work receipt");
            }
            if let Some((b, s)) = sides {
                assert_eq!((b.entries(), b.bytes()), (s.entries(), s.bytes()));
                b.commit().unwrap();
                s.commit().unwrap();
            }
            assert_eq!(batched.version_ceiling(), single.version_ceiling());
            assert_eq!(batched.hashtable.len(), single.hashtable.len());
            assert_eq!(batched.log.stats(), single.log.stats(), "seed {seed}: log");
            for k in 0..POOL {
                let key = key_of(k);
                let read = |m: &MasterService| m.read(T, key_hash(&key), Some(&key), &mut w());
                assert_eq!(read(&batched), read(&single), "seed {seed}: key {k}");
            }
        }
    }

    /// The log's windows are not a reason for a cleaned segment to stay
    /// resident: once the cleaner retires a segment this master has read
    /// and gathered through, only responses still in flight hold it.
    #[test]
    fn cleaned_segments_leave_with_their_windows() {
        let mut m = MasterService::new(MasterConfig {
            log: LogConfig {
                segment_bytes: 1024,
                max_segments: None,
            },
            hash_buckets: 256,
            hash_stripes: 16,
            ..MasterConfig::default()
        });
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        let write = |m: &mut MasterService, i: u64, value: &str| {
            let key = format!("k{i}");
            let h = key_hash(key.as_bytes());
            m.write(T, h, key.as_bytes(), value.as_bytes(), &mut w())
                .unwrap()
        };
        // The first write lands in segment 0; overwriting every other
        // key leaves that segment mostly dead but "k0" live inside it.
        let (_, kept) = write(&mut m, 0, "stays-put");
        for i in 1..60 {
            write(&mut m, i, "first-generation");
        }
        for i in 1..60 {
            write(&mut m, i, "second-generation");
        }
        assert_ne!(m.log.head_segment_id(), kept.segment);
        let weak = Arc::downgrade(&m.log.segment(kept.segment).unwrap());

        // Read and gather through the segment: both window it.
        let h = key_hash(b"k0");
        let (value, _) = m.read(T, h, Some(b"k0"), &mut w()).unwrap();
        let gathered = m.gather_hashes(T, &[h], &mut w());
        assert_eq!(gathered.len(), 1);

        let cleaner = Cleaner {
            utilization_threshold: 0.95,
            max_segments_per_pass: 4,
        };
        let mut victims = Vec::new();
        while let Some(stats) = m.clean_once(&cleaner) {
            victims.extend(stats.victims);
        }
        assert!(victims.contains(&kept.segment), "segment was not cleaned");
        // In flight, the response still owns its bytes (DESIGN.md §3.5)…
        assert_eq!(&value[..], b"stays-put");
        assert_eq!(&gathered[0].value[..], b"stays-put");
        assert!(weak.upgrade().is_some());
        // …and once it is gone, so is the segment.
        drop((value, gathered));
        assert!(weak.upgrade().is_none(), "a window pins the segment");
        // The relocated copy serves the next read.
        let (value, _) = m.read(T, h, Some(b"k0"), &mut w()).unwrap();
        assert_eq!(&value[..], b"stays-put");
    }

    /// A commit adopts a sparse side segment as a closed copy, and the
    /// log's window of the full-size original leaves with it — also when
    /// the side log commits on its own, with no call to the master.
    #[test]
    fn committed_side_logs_let_their_originals_go() {
        let mut m = owner_master();
        let rec = |key: &'static [u8]| Record {
            table: T,
            key_hash: key_hash(key),
            version: 9,
            key: Bytes::from_static(key),
            value: Bytes::from_static(b"data"),
            tombstone: false,
        };
        // One record in a side segment, read before commit: the log
        // re-windows the full-size original to serve it.
        let side = SideLog::new(Arc::clone(&m.log));
        assert!(m.replay_record(&rec(b"a"), ReplayDest::Side(&side), &mut w()));
        let id = side.segments_snapshot()[0].id();
        let weak = Arc::downgrade(&m.log.segment(id).unwrap());
        let (value, _) = m.read(T, key_hash(b"a"), Some(b"a"), &mut w()).unwrap();
        assert_eq!(side.commit().unwrap(), vec![id]);
        // The log adopted a copy and windowed it; only the response in
        // flight still holds the original.
        assert!(weak.upgrade().is_some());
        drop(value);
        assert!(weak.upgrade().is_none(), "a window pins the original");
        let (value, _) = m.read(T, key_hash(b"a"), Some(b"a"), &mut w()).unwrap();
        assert_eq!(&value[..], b"data");
    }

    /// The master is shared across real threads: two gather the whole
    /// table, each through one log view per stripe, while a third rolls
    /// the log's head and fills, re-windows and commits side logs through
    /// the log's write lock. Every pass sees every record with its value,
    /// and no thread waits forever on another (lock order: stripe, then
    /// log; nothing takes the log's write lock inside a view). The three
    /// start together, and the gathers keep going until the writer is
    /// done.
    #[test]
    fn gathers_race_appends_and_side_log_commits_on_real_threads() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;

        const RECORDS: u64 = 3_000;
        let mut m = owner_master();
        for i in 0..RECORDS {
            m.write(
                T,
                key_hash(&i.to_le_bytes()),
                &i.to_le_bytes(),
                &[i as u8; 24],
                &mut w(),
            )
            .unwrap();
        }
        let m = Arc::new(m);
        let writing = Arc::new(AtomicBool::new(true));
        let start = Arc::new(Barrier::new(3));
        let (done, finished) = mpsc::channel();
        let gather = |m: Arc<MasterService>, done: mpsc::Sender<&'static str>| {
            let (writing, start) = (Arc::clone(&writing), Arc::clone(&start));
            move || {
                start.wait();
                for pass in 0.. {
                    if pass >= 3 && !writing.load(Ordering::Acquire) {
                        break;
                    }
                    let mut cursor = Some(ScanCursor::default());
                    let mut seen = 0;
                    while let Some(c) = cursor {
                        let (records, next) =
                            m.gather_range(T, HashRange::full(), c, 4_000, &mut w());
                        for rec in &records {
                            let i = u64::from_le_bytes(rec.key[..].try_into().unwrap());
                            assert_eq!(&rec.value[..], &[i as u8; 24], "key {i}");
                        }
                        seen += records.len() as u64;
                        cursor = next;
                    }
                    assert_eq!(seen, RECORDS, "a record did not resolve");
                }
                done.send("gather").unwrap();
            }
        };
        let writer = {
            let (log, done, writing) = (Arc::clone(&m.log), done.clone(), Arc::clone(&writing));
            let start = Arc::clone(&start);
            move || {
                start.wait();
                for round in 0..500u64 {
                    log.append(EntryKind::Object, 9, round, 1, b"head", &[7; 300])
                        .unwrap();
                    let side = SideLog::new(Arc::clone(&log));
                    for i in 0..20u64 {
                        let r = side
                            .append(EntryKind::Object, 9, i, 1, &i.to_le_bytes(), b"side")
                            .unwrap();
                        assert_eq!(&log.entry_slices(r).unwrap().value[..], b"side");
                    }
                    side.commit().unwrap();
                }
                writing.store(false, Ordering::Release);
                done.send("writer").unwrap();
            }
        };
        let threads = [
            std::thread::spawn(gather(Arc::clone(&m), done.clone())),
            std::thread::spawn(gather(Arc::clone(&m), done)),
            std::thread::spawn(writer),
        ];
        for _ in 0..threads.len() {
            let who = finished.recv_timeout(Duration::from_secs(120));
            assert!(who.is_ok(), "a thread deadlocked or died: {who:?}");
        }
        for thread in threads {
            thread.join().unwrap();
        }
    }

    #[test]
    fn version_ceiling_transfer_keeps_writes_winning() {
        // Simulates §3's ownership handoff: target raises its floor to the
        // source ceiling, writes a fresh value, then the stale record
        // arrives late via replay and must lose.
        let mut source = owner_master();
        let h = key_hash(b"hot");
        source.write(T, h, b"hot", b"old", &mut w()).unwrap();
        let ceiling = source.version_ceiling();

        let mut target = MasterService::new(MasterConfig::default());
        target.add_tablet(
            T,
            HashRange::full(),
            TabletRole::PullingFrom {
                source: ServerId(1),
            },
        );
        target.raise_version_floor(ceiling);
        target.write(T, h, b"hot", b"new", &mut w()).unwrap();
        // Now the migrated copy arrives late.
        let stale = source.gather_hashes(T, &[h], &mut w());
        assert!(!target.replay_record(&stale[0], ReplayDest::MainLog, &mut w()));
        let (value, _) = target.read(T, h, Some(b"hot"), &mut w()).unwrap();
        assert_eq!(&value[..], b"new");
    }

    #[test]
    fn index_scan_reads_the_covering_indexlet() {
        let mut m = owner_master();
        let mut ix = Indexlet::new(T, IndexId(0), Vec::new(), None);
        for (name, id) in [("bob", 2u64), ("alice", 1), ("carol", 3)] {
            ix.insert(name.as_bytes(), id);
        }
        m.add_indexlet(ix);
        let (hashes, truncated) = m
            .index_scan(T, IndexId(0), b"a", b"z", 10, &mut w())
            .unwrap();
        assert_eq!(hashes, vec![1, 2, 3]);
        assert!(!truncated);
        assert_eq!(
            m.index_scan(T, IndexId(9), b"a", b"z", 10, &mut w())
                .unwrap_err(),
            OpError::UnknownIndexlet
        );
    }

    #[test]
    fn cleaner_integration_preserves_reads() {
        let mut m = MasterService::new(MasterConfig {
            log: LogConfig {
                segment_bytes: 1024,
                max_segments: None,
            },
            hash_buckets: 256,
            hash_stripes: 16,
            ..MasterConfig::default()
        });
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        // Two generations so half the entries are dead.
        for round in 0..2 {
            for i in 0..100u64 {
                let key = format!("k{i}");
                let value = format!("value-{round}-{i}");
                m.write(
                    T,
                    key_hash(key.as_bytes()),
                    key.as_bytes(),
                    value.as_bytes(),
                    &mut w(),
                )
                .unwrap();
            }
        }
        let cleaner = Cleaner {
            utilization_threshold: 0.95,
            max_segments_per_pass: 4,
        };
        let mut cleaned_any = false;
        for _ in 0..50 {
            match m.clean_once(&cleaner) {
                Some(stats) => {
                    cleaned_any |= !stats.victims.is_empty();
                }
                None => break,
            }
        }
        assert!(cleaned_any, "cleaner never ran");
        for i in 0..100u64 {
            let key = format!("k{i}");
            let (value, _) = m
                .read(T, key_hash(key.as_bytes()), Some(key.as_bytes()), &mut w())
                .unwrap();
            assert_eq!(value, format!("value-1-{i}").as_bytes());
        }
    }
}
