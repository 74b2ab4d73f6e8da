//! The master's primary-key hash table.
//!
//! RAMCloud's only index over its in-memory log is a hash table mapping
//! 64-bit key hashes to log references (§2.3, Figure 6). Rocksteady's
//! migration protocol is built around its structure:
//!
//! - Bucket placement uses the *high* bits of the key hash, so a
//!   contiguous region of key-hash space is a contiguous run of buckets.
//!   This is what lets the target partition the source's key-hash space
//!   and run parallel Pulls over **disjoint regions of the hash table**
//!   with no synchronization between them (§3.1.1, Figure 7).
//! - Pulls resume from a [`Cursor`] — a bucket index — so the source
//!   keeps *no* migration state (§3): the cursor travels in the RPC.
//! - Lookups may probe several entries per bucket (hash collisions are
//!   resolved by comparing the full key stored in the log), and the
//!   number of probes is reported to the caller so the simulator can
//!   charge the cache-miss cost §4.5 measures.
//!
//! # Layout
//!
//! Buckets are RAMCloud-style fixed arrays of [`SLOTS_PER_BUCKET`] inline
//! slots stored in one flat allocation per lock stripe — no per-bucket
//! heap indirection on the hot path. Each slot is guarded by a 16-bit
//! *partial hash* (the low 16 bits of the key hash; bucket placement uses
//! the high bits, so the tag stays discriminating within a bucket). The
//! tag array sits at the front of the bucket, so a lookup touches only
//! the bucket's first cache line unless a tag matches; only then is the
//! full slot compared. A **probe** is such a full-slot examination — tag
//! rejections are not probes, which is exactly the cost the tags remove
//! from the §4.5 model. Buckets that overflow their inline slots chain
//! into a per-bucket spill vector (pathological collision patterns only;
//! removals promote spilled entries back inline).
//!
//! The table is striped-locked and thread-safe; buckets within one stripe
//! share a lock, and stripes cover contiguous bucket ranges so disjoint
//! hash-space partitions touch disjoint locks. Stripes are capped at
//! [`MAX_BUCKETS_PER_STRIPE`] buckets so the run a `scan_range` holds a
//! read lock over stays cache-resident.
//!
//! A stripe allocates its buckets on its first [`HashTable::upsert`], so
//! table memory follows the data: a server that owns nothing pays for a
//! vector of empty stripes, and a table that holds one hash range pays
//! for that range's stripes. A never-written stripe answers exactly what
//! a stripe of empty buckets would — every lookup misses with no probes,
//! a scan finds nothing in it.
//!
//! # Memory-level parallelism
//!
//! A bucket is a DRAM miss, and so is the log entry each slot points at.
//! Callers that know their next addresses overlap those misses instead
//! of taking them one after another: [`HashTable::prefetch`] asks for a
//! key's bucket ahead of the `upsert` that will land in it (bulk load),
//! and [`HashTable::scan_range`] shows its caller the slots
//! [`SCAN_LOOKAHEAD_BUCKETS`] buckets ahead of the one it is visiting, so
//! a Pull can ask for those log entries while it copies out the current
//! ones.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;
use rocksteady_common::prefetch::prefetch;
use rocksteady_common::{KeyHash, TableId};
use rocksteady_logstore::LogRef;

pub use rocksteady_common::range::{HashRange, ScanCursor as Cursor};

/// Inline slots per bucket, mirroring RAMCloud's eight-entry cache-line
/// buckets.
pub const SLOTS_PER_BUCKET: usize = 8;

/// Upper bound on buckets per lock stripe: 128 buckets × ~320 B keeps the
/// run scanned under one read lock around the size of an L2 way, so a
/// Pull's scan stays cache-resident while it holds the lock.
pub const MAX_BUCKETS_PER_STRIPE: usize = 128;

/// How many buckets ahead of the one being visited [`HashTable::
/// scan_range`] shows to its `peek` closure. At ~4 entries per bucket
/// that is ~8 log entries in flight, about what one core keeps
/// outstanding. Measured on `bulk_migrate` beside 0, 1, 4 and 8
/// (EXPERIMENTS.md, "Host-time attribution"): a plateau, of which this
/// is the middle — a constant, not a tuning knob.
pub const SCAN_LOOKAHEAD_BUCKETS: u64 = 2;

/// One entry: a key (identified by table + hash) and where it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Owning table.
    pub table: TableId,
    /// Full 64-bit primary-key hash.
    pub hash: KeyHash,
    /// Location of the current version of the object in the log.
    pub log_ref: LogRef,
}

/// Outcome of an [`HashTable::upsert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upsert {
    /// A new entry was created.
    Inserted,
    /// An existing entry was replaced; holds the prior log reference.
    Replaced(LogRef),
}

/// The result of an operation plus how many slots were examined, so the
/// simulator can charge probe costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probed<T> {
    /// Operation result.
    pub value: T,
    /// Number of slots examined (full comparisons after the partial-hash
    /// tag admitted the slot; tag rejections cost no probe).
    pub probes: u32,
}

impl<T> Probed<Option<T>> {
    /// Nothing found, nothing examined: the answer of an empty range and
    /// of a stripe nothing was ever inserted into.
    const MISS: Self = Probed {
        value: None,
        probes: 0,
    };
}

/// The 16-bit partial hash stored next to each occupied slot. Bucket
/// indexing consumes high bits, so the low bits stay independent.
#[inline]
fn tag_of(hash: KeyHash) -> u16 {
    hash as u16
}

/// A fixed eight-slot bucket. Field order puts the tag array and
/// occupancy bitmap first so the filtering state shares the bucket's
/// leading cache line.
///
/// # Invariant: the all-zero byte pattern is a valid, empty bucket
///
/// Every field is zero when empty — tags and slots are plain integers,
/// `occupied` is an empty bitmap, and `overflow` is `None` (the
/// guaranteed null-pointer niche of `Option<Box<_>>`). A stripe's first
/// `upsert` relies on this to build its bucket array from `alloc_zeroed`
/// without running a constructor per bucket. Adding a field that is not
/// valid-when-zero breaks that construction.
///
/// What the zeroing does *not* buy is lazily faulted memory: for an
/// over-aligned type like this one Rust's `alloc_zeroed` is
/// `posix_memalign` followed by `write_bytes`, so every byte asked for is
/// touched at once. Memory stays proportional to the data because a
/// stripe is only allocated when something is inserted into it, not
/// because of how it is zeroed.
#[repr(C, align(64))]
#[derive(Clone)]
struct Bucket {
    /// Partial hashes of occupied slots (stale values where unoccupied).
    tags: [u16; SLOTS_PER_BUCKET],
    /// Bitmap of occupied inline slots.
    occupied: u8,
    /// Inline entries; valid only where `occupied` has the bit set.
    slots: [Slot; SLOTS_PER_BUCKET],
    /// Spill chain for buckets with more than eight colliding entries;
    /// boxed so the empty case is a null pointer (see invariant above —
    /// `Option<Vec<_>>`'s `None` is not guaranteed to be all-zero bytes,
    /// `Option<Box<_>>`'s is, and overflow is rare enough that the extra
    /// indirection never shows up).
    #[allow(clippy::box_collection)]
    overflow: Option<Box<Vec<Slot>>>,
}

impl Bucket {
    /// Visits every occupied entry (inline then overflow).
    ///
    /// A counted loop on purpose: its trip count is known, so a caller
    /// whose `f` does nothing (`scan_range`'s no-op `peek`) costs nothing
    /// — the compiler cannot delete a `while occ != 0` bit-walk, which it
    /// has to assume might not end.
    fn for_each(&self, mut f: impl FnMut(&Slot)) {
        for (i, slot) in self.slots.iter().enumerate() {
            if self.occupied & (1 << i) != 0 {
                f(slot);
            }
        }
        if let Some(of) = &self.overflow {
            for slot in of.iter() {
                f(slot);
            }
        }
    }

    /// The overflow chain as a (possibly empty) slice.
    fn spill(&self) -> &[Slot] {
        self.overflow.as_deref().map_or(&[], Vec::as_slice)
    }
}

/// Allocates `n` empty buckets as one flat zeroed slice (and touches all
/// of it — see the invariant on [`Bucket`]).
fn zeroed_buckets(n: usize) -> Box<[Bucket]> {
    use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
    if n == 0 {
        return Box::from([]);
    }
    let layout = Layout::array::<Bucket>(n).expect("bucket array layout");
    // SAFETY: the all-zero byte pattern is a valid `Bucket` (see the
    // invariant on the struct), the layout matches `[Bucket; n]`, and
    // ownership of the allocation transfers to the returned `Box`.
    unsafe {
        let ptr = alloc_zeroed(layout) as *mut Bucket;
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n))
    }
}

struct Stripe {
    /// All of this stripe's buckets in one flat allocation — or no
    /// buckets and no allocation until the stripe's first `upsert`.
    buckets: RwLock<Box<[Bucket]>>,
}

/// The hash table itself.
pub struct HashTable {
    stripes: Vec<Stripe>,
    buckets_per_stripe: usize,
    bucket_count: u64,
    /// `64 - log2(bucket_count)`; bucket index = `hash >> shift`.
    shift: u32,
    len: AtomicUsize,
}

impl HashTable {
    /// Creates a table with at least `min_buckets` buckets (rounded up to
    /// a power of two) spread over at least `max_stripes` lock stripes —
    /// more when needed to keep every stripe within
    /// [`MAX_BUCKETS_PER_STRIPE`] buckets (cache residency). No bucket is
    /// allocated yet: each stripe allocates on its first `upsert`.
    pub fn new(min_buckets: usize, max_stripes: usize) -> Self {
        let bucket_count = min_buckets.next_power_of_two().max(2) as u64;
        let mut stripe_count = max_stripes
            .next_power_of_two()
            .clamp(1, bucket_count as usize);
        while bucket_count as usize / stripe_count > MAX_BUCKETS_PER_STRIPE {
            stripe_count *= 2;
        }
        let buckets_per_stripe = (bucket_count as usize) / stripe_count;
        let stripes = (0..stripe_count)
            .map(|_| Stripe {
                buckets: RwLock::new(Box::default()),
            })
            .collect();
        HashTable {
            stripes,
            buckets_per_stripe,
            bucket_count,
            shift: 64 - bucket_count.trailing_zeros(),
            len: AtomicUsize::new(0),
        }
    }

    /// Total bucket count (a power of two).
    pub fn bucket_count(&self) -> u64 {
        self.bucket_count
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bucket index for a hash: the *high* bits, so hash-space order is
    /// bucket order.
    pub fn bucket_of(&self, hash: KeyHash) -> u64 {
        hash >> self.shift
    }

    fn locate(&self, bucket: u64) -> (&Stripe, usize) {
        let idx = bucket as usize;
        (
            &self.stripes[idx / self.buckets_per_stripe],
            idx % self.buckets_per_stripe,
        )
    }

    /// Looks up the reference for `(table, hash)`.
    ///
    /// `is_match` disambiguates 64-bit hash collisions by checking the
    /// full key in the log; it receives each candidate's reference.
    pub fn lookup(
        &self,
        table: TableId,
        hash: KeyHash,
        mut is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Option<LogRef>> {
        let (stripe, b) = self.locate(self.bucket_of(hash));
        let buckets = stripe.buckets.read();
        let Some(bucket) = buckets.get(b) else {
            return Probed::MISS;
        };
        let tag = tag_of(hash);
        let mut probes = 0;
        let mut occ = bucket.occupied;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if bucket.tags[i] != tag {
                continue;
            }
            probes += 1;
            let slot = &bucket.slots[i];
            if slot.table == table && slot.hash == hash && is_match(slot.log_ref) {
                return Probed {
                    value: Some(slot.log_ref),
                    probes,
                };
            }
        }
        for slot in bucket.spill() {
            probes += 1;
            if slot.table == table && slot.hash == hash && is_match(slot.log_ref) {
                return Probed {
                    value: Some(slot.log_ref),
                    probes,
                };
            }
        }
        Probed {
            value: None,
            probes,
        }
    }

    /// Inserts or replaces the entry for `(table, hash)`.
    ///
    /// `is_match` identifies which colliding entry (if any) represents the
    /// same key; when it returns true the slot is repointed at `new_ref`
    /// and the old reference is returned.
    pub fn upsert(
        &self,
        table: TableId,
        hash: KeyHash,
        new_ref: LogRef,
        mut is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Upsert> {
        let (stripe, b) = self.locate(self.bucket_of(hash));
        let mut buckets = stripe.buckets.write();
        if buckets.is_empty() {
            *buckets = zeroed_buckets(self.buckets_per_stripe);
        }
        let bucket = &mut buckets[b];
        let tag = tag_of(hash);
        let mut probes = 0;
        let mut occ = bucket.occupied;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if bucket.tags[i] != tag {
                continue;
            }
            probes += 1;
            let slot = &mut bucket.slots[i];
            if slot.table == table && slot.hash == hash && is_match(slot.log_ref) {
                let old = slot.log_ref;
                slot.log_ref = new_ref;
                return Probed {
                    value: Upsert::Replaced(old),
                    probes,
                };
            }
        }
        if let Some(of) = &mut bucket.overflow {
            for slot in of.iter_mut() {
                probes += 1;
                if slot.table == table && slot.hash == hash && is_match(slot.log_ref) {
                    let old = slot.log_ref;
                    slot.log_ref = new_ref;
                    return Probed {
                        value: Upsert::Replaced(old),
                        probes,
                    };
                }
            }
        }
        let slot = Slot {
            table,
            hash,
            log_ref: new_ref,
        };
        if bucket.occupied != u8::MAX {
            let i = (!bucket.occupied).trailing_zeros() as usize;
            bucket.tags[i] = tag;
            bucket.slots[i] = slot;
            bucket.occupied |= 1 << i;
        } else {
            bucket
                .overflow
                .get_or_insert_with(Default::default)
                .push(slot);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        Probed {
            value: Upsert::Inserted,
            probes: probes + 1,
        }
    }

    /// Removes the entry for `(table, hash)` whose reference satisfies
    /// `is_match`; returns the removed reference.
    pub fn remove(
        &self,
        table: TableId,
        hash: KeyHash,
        mut is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Option<LogRef>> {
        let (stripe, b) = self.locate(self.bucket_of(hash));
        let mut buckets = stripe.buckets.write();
        let Some(bucket) = buckets.get_mut(b) else {
            return Probed::MISS;
        };
        let tag = tag_of(hash);
        let mut probes = 0;
        let mut occ = bucket.occupied;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if bucket.tags[i] != tag {
                continue;
            }
            probes += 1;
            let slot = bucket.slots[i];
            if slot.table == table && slot.hash == hash && is_match(slot.log_ref) {
                // Promote a spilled entry into the freed inline slot so the
                // overflow chain stays empty in the common case.
                if let Some(spill) = bucket.overflow.as_mut().and_then(|of| of.pop()) {
                    bucket.tags[i] = tag_of(spill.hash);
                    bucket.slots[i] = spill;
                } else {
                    bucket.occupied &= !(1 << i);
                }
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Probed {
                    value: Some(slot.log_ref),
                    probes,
                };
            }
        }
        if let Some(of) = &mut bucket.overflow {
            for i in 0..of.len() {
                probes += 1;
                let slot = of[i];
                if slot.table == table && slot.hash == hash && is_match(slot.log_ref) {
                    of.swap_remove(i);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return Probed {
                        value: Some(slot.log_ref),
                        probes,
                    };
                }
            }
        }
        Probed {
            value: None,
            probes,
        }
    }

    /// Asks the cache for the bucket `hash` lands in — its leading line:
    /// tags, occupancy and the first slot — ahead of the `upsert` (or
    /// `lookup`) that will touch it. A hint only, and nothing at all for
    /// a stripe that has no buckets yet.
    pub fn prefetch(&self, hash: KeyHash) {
        let (stripe, b) = self.locate(self.bucket_of(hash));
        if let Some(bucket) = stripe.buckets.read().get(b) {
            prefetch(bucket as *const Bucket);
        }
    }

    /// Atomically repoints `(table, hash)` from `old` to `new`.
    ///
    /// The cleaner's relocation path: succeeds only if the slot still
    /// points at `old`, so a racing write that superseded the entry wins.
    pub fn update_ref(&self, table: TableId, hash: KeyHash, old: LogRef, new: LogRef) -> bool {
        let (stripe, b) = self.locate(self.bucket_of(hash));
        let mut buckets = stripe.buckets.write();
        let Some(bucket) = buckets.get_mut(b) else {
            return false;
        };
        let tag = tag_of(hash);
        let mut occ = bucket.occupied;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            if bucket.tags[i] != tag {
                continue;
            }
            let slot = &mut bucket.slots[i];
            if slot.table == table && slot.hash == hash && slot.log_ref == old {
                slot.log_ref = new;
                return true;
            }
        }
        if let Some(of) = &mut bucket.overflow {
            for slot in of.iter_mut() {
                if slot.table == table && slot.hash == hash && slot.log_ref == old {
                    slot.log_ref = new;
                    return true;
                }
            }
        }
        false
    }

    /// Visits whole buckets of entries in `range` belonging to `table`,
    /// starting at `cursor`, until the weights returned by `visit` sum to
    /// at least `budget` (then finishes the current bucket and stops).
    ///
    /// `visit` returns each entry's *weight* toward the budget — record
    /// count (weight 1) or serialized bytes, whichever the caller batches
    /// by. Pulls return "a fixed amount of data (20 KB, for example)"
    /// (Figure 7), so they weight by bytes.
    ///
    /// Returns the advanced cursor (`None` when the range is exhausted)
    /// and the number of slots probed (occupied entries examined). This
    /// is the source-side engine of bulk Pulls: batches end on bucket
    /// boundaries so a resumed pull never re-sends or skips entries even
    /// though the source keeps no state (§3.1.1). The read lock is taken
    /// once per stripe run — a cache-resident stretch of at most
    /// [`MAX_BUCKETS_PER_STRIPE`] flat buckets — not once per bucket, and
    /// a stripe nothing was ever inserted into is stepped over whole.
    ///
    /// `peek` is shown every slot `visit` is going to get, up to
    /// [`SCAN_LOOKAHEAD_BUCKETS`] buckets before `visit` gets it (never
    /// past the end of the stripe whose lock is held), so the caller can
    /// start fetching what the slot points at. It sees the same slots in
    /// the same order, plus at most that horizon beyond the bucket the
    /// budget stops the scan at; a caller with nothing to fetch passes
    /// `|_| {}`, which compiles away.
    pub fn scan_range(
        &self,
        table: TableId,
        range: HashRange,
        cursor: Cursor,
        budget: u64,
        mut peek: impl FnMut(&Slot),
        mut visit: impl FnMut(&Slot) -> u64,
    ) -> Probed<Option<Cursor>> {
        if range.is_empty() {
            return Probed::MISS;
        }
        let first_bucket = self.bucket_of(range.start).max(cursor.bucket);
        let last_bucket = self.bucket_of(range.end);
        let wanted = |slot: &Slot| slot.table == table && range.contains(slot.hash);
        let mut probes = 0u32;
        let mut accepted = 0u64;
        let mut bucket = first_bucket;
        'scan: while bucket <= last_bucket {
            let stripe_idx = bucket as usize / self.buckets_per_stripe;
            let stripe_last =
                (((stripe_idx + 1) * self.buckets_per_stripe - 1) as u64).min(last_bucket);
            let buckets = self.stripes[stripe_idx].buckets.read();
            if buckets.is_empty() {
                // A run of empty buckets accepts nothing, so the budget
                // test below could only have fired at its first bucket
                // (a budget of zero); otherwise the whole run is passed.
                if accepted >= budget {
                    bucket += 1;
                    break 'scan;
                }
                bucket = stripe_last + 1;
                continue;
            }
            // Next bucket to show to `peek`: on taking the stripe it
            // catches up to the horizon, then stays that far in front.
            let mut ahead = bucket;
            while bucket <= stripe_last {
                let horizon = (bucket + SCAN_LOOKAHEAD_BUCKETS).min(stripe_last);
                while ahead <= horizon {
                    buckets[ahead as usize % self.buckets_per_stripe].for_each(|slot| {
                        if wanted(slot) {
                            peek(slot);
                        }
                    });
                    ahead += 1;
                }
                buckets[bucket as usize % self.buckets_per_stripe].for_each(|slot| {
                    probes += 1;
                    if wanted(slot) {
                        accepted += visit(slot);
                    }
                });
                bucket += 1;
                if accepted >= budget {
                    break 'scan;
                }
            }
        }
        let value = if bucket > last_bucket {
            None
        } else {
            Some(Cursor { bucket })
        };
        Probed { value, probes }
    }

    /// Visits every entry of `table` within `range` (no batching).
    pub fn for_each_in_range(
        &self,
        table: TableId,
        range: HashRange,
        mut visit: impl FnMut(&Slot),
    ) {
        let mut cursor = Cursor::default();
        loop {
            let out = self.scan_range(
                table,
                range,
                cursor,
                u64::MAX,
                |_| {},
                |s| {
                    visit(s);
                    0
                },
            );
            match out.value {
                Some(next) => cursor = next,
                None => break,
            }
        }
    }
}

impl std::fmt::Debug for HashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashTable")
            .field("buckets", &self.bucket_count)
            .field("stripes", &self.stripes.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(segment: u64, offset: u32) -> LogRef {
        LogRef { segment, offset }
    }

    const T: TableId = TableId(1);

    #[test]
    fn insert_lookup_remove() {
        let ht = HashTable::new(64, 8);
        assert!(ht.is_empty());
        let out = ht.upsert(T, 42, r(1, 0), |_| true);
        assert_eq!(out.value, Upsert::Inserted);
        assert_eq!(ht.len(), 1);
        let found = ht.lookup(T, 42, |_| true);
        assert_eq!(found.value, Some(r(1, 0)));
        assert!(found.probes >= 1);
        let gone = ht.remove(T, 42, |_| true);
        assert_eq!(gone.value, Some(r(1, 0)));
        assert!(ht.is_empty());
        assert_eq!(ht.lookup(T, 42, |_| true).value, None);
    }

    #[test]
    fn upsert_replaces_and_returns_old() {
        let ht = HashTable::new(64, 8);
        ht.upsert(T, 7, r(1, 0), |_| true);
        let out = ht.upsert(T, 7, r(2, 16), |_| true);
        assert_eq!(out.value, Upsert::Replaced(r(1, 0)));
        assert_eq!(ht.len(), 1);
        assert_eq!(ht.lookup(T, 7, |_| true).value, Some(r(2, 16)));
    }

    #[test]
    fn hash_collisions_disambiguated_by_matcher() {
        let ht = HashTable::new(64, 8);
        // Two distinct keys with an identical 64-bit hash coexist when the
        // matcher declares them different.
        ht.upsert(T, 5, r(1, 0), |_| false); // key A
        ht.upsert(T, 5, r(9, 0), |_| false); // key B (no match with A)
        assert_eq!(ht.len(), 2);
        // Lookup B specifically.
        let out = ht.lookup(T, 5, |cand| cand == r(9, 0));
        assert_eq!(out.value, Some(r(9, 0)));
        assert!(out.probes >= 1);
        // Replacing A repoints only A.
        let rep = ht.upsert(T, 5, r(1, 64), |cand| cand == r(1, 0));
        assert_eq!(rep.value, Upsert::Replaced(r(1, 0)));
        assert_eq!(ht.len(), 2);
    }

    #[test]
    fn tables_are_disjoint() {
        let ht = HashTable::new(64, 8);
        ht.upsert(TableId(1), 9, r(1, 0), |_| true);
        ht.upsert(TableId(2), 9, r(2, 0), |_| true);
        assert_eq!(ht.len(), 2);
        assert_eq!(ht.lookup(TableId(1), 9, |_| true).value, Some(r(1, 0)));
        assert_eq!(ht.lookup(TableId(2), 9, |_| true).value, Some(r(2, 0)));
    }

    #[test]
    fn update_ref_is_conditional() {
        let ht = HashTable::new(64, 8);
        ht.upsert(T, 3, r(1, 0), |_| true);
        assert!(ht.update_ref(T, 3, r(1, 0), r(5, 0)));
        assert!(
            !ht.update_ref(T, 3, r(1, 0), r(6, 0)),
            "stale CAS must fail"
        );
        assert_eq!(ht.lookup(T, 3, |_| true).value, Some(r(5, 0)));
    }

    /// A stripe nothing was inserted into has no buckets, and answers
    /// what a stripe of empty buckets would.
    #[test]
    fn never_written_stripes_miss_without_probing() {
        let ht = HashTable::new(1 << 10, 8); // 8 stripes of 128 buckets
        let low = 7u64; // stripe 0
        let high = u64::MAX - 7; // stripe 7
        ht.upsert(T, low, r(1, 0), |_| true);
        let touched = |ht: &HashTable| {
            let written = |s: &&Stripe| !s.buckets.read().is_empty();
            ht.stripes.iter().filter(written).count()
        };
        assert_eq!(touched(&ht), 1);
        let miss = ht.lookup(T, high, |_| panic!("nothing to compare"));
        assert_eq!((miss.value, miss.probes), (None, 0));
        let miss = ht.remove(T, high, |_| panic!("nothing to compare"));
        assert_eq!((miss.value, miss.probes), (None, 0));
        assert!(!ht.update_ref(T, high, r(1, 0), r(2, 0)));
        ht.prefetch(high);
        assert_eq!(touched(&ht), 1, "only upsert allocates a stripe");
        assert_eq!(ht.len(), 1);
        // A scan crosses the six empty stripes between the two entries.
        ht.upsert(T, high, r(9, 0), |_| true);
        assert_eq!(touched(&ht), 2);
        let mut seen = Vec::new();
        ht.for_each_in_range(T, HashRange::full(), |s| seen.push(s.hash));
        assert_eq!(seen, vec![low, high]);
    }

    #[test]
    fn bucket_order_is_hash_order() {
        let ht = HashTable::new(1024, 8);
        assert!(ht.bucket_of(0) <= ht.bucket_of(u64::MAX / 2));
        assert!(ht.bucket_of(u64::MAX / 2) <= ht.bucket_of(u64::MAX));
        assert_eq!(ht.bucket_of(u64::MAX), ht.bucket_count() - 1);
    }

    /// The partial-hash tags filter full comparisons: keys that share a
    /// bucket but differ in their low 16 bits never cost a probe against
    /// each other, while the probe count still reports every admitted
    /// full-slot examination for the §4.5 cost model.
    #[test]
    fn tag_filter_prunes_probes() {
        let ht = HashTable::new(2, 1); // two buckets: everything below
                                       // 1<<63 collides into bucket 0
                                       // Five residents of bucket 0 with distinct low bits (distinct tags).
        for i in 0..5u64 {
            ht.upsert(T, i, r(i, 0), |_| true);
        }
        // A lookup of hash 3 must examine exactly the one slot whose tag
        // matches — the other four are rejected by tag alone.
        let found = ht.lookup(T, 3, |_| true);
        assert_eq!(found.value, Some(r(3, 0)));
        assert_eq!(found.probes, 1, "tag filter must prune to one probe");
        // A miss with a fresh tag examines no slots at all.
        assert_eq!(ht.lookup(T, 77, |_| true).probes, 0);
        // Same-tag aliases (low 16 bits equal, high bits differ within the
        // bucket) are all examined: probes reports genuine comparisons.
        let alias_a = 1u64 << 20 | 0xbeef;
        let alias_b = 1u64 << 21 | 0xbeef;
        ht.upsert(T, alias_a, r(10, 0), |_| true);
        ht.upsert(T, alias_b, r(11, 0), |_| true);
        let found = ht.lookup(T, alias_b, |_| true);
        assert_eq!(found.value, Some(r(11, 0)));
        assert_eq!(found.probes, 2, "both tag-matching slots are probed");
    }

    /// More than eight residents of one bucket spill into the overflow
    /// chain; operations still behave like a map and removals promote
    /// spilled entries back inline.
    #[test]
    fn bucket_overflow_chains() {
        let ht = HashTable::new(2, 1);
        // 20 entries, all in bucket 0 (hashes < 1<<63).
        for i in 0..20u64 {
            assert_eq!(ht.upsert(T, i, r(i, 0), |_| true).value, Upsert::Inserted);
        }
        assert_eq!(ht.len(), 20);
        for i in 0..20u64 {
            assert_eq!(ht.lookup(T, i, |_| true).value, Some(r(i, 0)), "key {i}");
        }
        // Scans see inline and spilled entries alike.
        let mut seen = Vec::new();
        ht.for_each_in_range(T, HashRange::full(), |s| seen.push(s.hash));
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<u64>>());
        // Remove everything (exercises inline promotion from overflow).
        for i in 0..20u64 {
            assert_eq!(ht.remove(T, i, |_| true).value, Some(r(i, 0)), "key {i}");
        }
        assert!(ht.is_empty());
    }

    #[test]
    fn scan_range_batches_on_bucket_boundaries() {
        let ht = HashTable::new(256, 8);
        // 1000 entries spread over hash space.
        for i in 0..1_000u64 {
            let hash = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ht.upsert(T, hash, r(i, 0), |_| true);
        }
        let range = HashRange::full();
        let mut cursor = Cursor::default();
        let mut seen = Vec::new();
        let mut batches = 0;
        loop {
            let mut batch = Vec::new();
            let out = ht.scan_range(
                T,
                range,
                cursor,
                50,
                |_| {},
                |s| {
                    batch.push(s.hash);
                    1
                },
            );
            batches += 1;
            seen.extend(batch);
            match out.value {
                Some(c) => {
                    assert!(c.bucket > cursor.bucket, "cursor must advance");
                    cursor = c;
                }
                None => break,
            }
            assert!(batches < 10_000, "runaway scan");
        }
        assert!(batches > 1, "expected multiple batches");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1_000, "scan missed or duplicated entries");
    }

    #[test]
    fn scan_range_respects_hash_bounds_and_table() {
        let ht = HashTable::new(256, 8);
        for i in 0..100u64 {
            let hash = i << 56; // spread across top buckets
            ht.upsert(T, hash, r(i, 0), |_| true);
            ht.upsert(TableId(9), hash, r(i, 1), |_| true);
        }
        let range = HashRange {
            start: 10u64 << 56,
            end: 20u64 << 56,
        };
        let mut got = Vec::new();
        ht.for_each_in_range(T, range, |s| got.push((s.hash, s.log_ref)));
        assert_eq!(got.len(), 11);
        for (hash, lr) in got {
            assert!(range.contains(hash));
            assert_eq!(lr.offset, 0, "leaked entry from another table");
        }
    }

    #[test]
    fn scan_empty_range_terminates() {
        let ht = HashTable::new(64, 8);
        let out = ht.scan_range(
            T,
            HashRange { start: 1, end: 0 },
            Cursor::default(),
            10,
            |_| panic!("nothing to peek at"),
            |_| -> u64 { panic!("nothing to visit") },
        );
        assert_eq!(out.value, None);
    }

    #[test]
    fn concurrent_threads_disjoint_partitions() {
        use std::sync::Arc;
        let ht = Arc::new(HashTable::new(1 << 12, 64));
        let parts = HashRange::full().split(4);
        let mut handles = Vec::new();
        for (t, part) in parts.into_iter().enumerate() {
            let ht = Arc::clone(&ht);
            handles.push(std::thread::spawn(move || {
                // Insert 2000 hashes inside this partition.
                let width = part.end - part.start;
                for i in 0..2_000u64 {
                    let hash = part.start + (i * 104_729) % width;
                    ht.upsert(T, hash, r(t as u64, i as u32), |_| true);
                }
                // Then scan the partition back.
                let mut count = 0;
                ht.for_each_in_range(T, part, |_| count += 1);
                count
            }));
        }
        let mut total = 0;
        for h in handles {
            total += h.join().unwrap();
        }
        // Some synthetic hashes may collide; total must equal the table's
        // len and be close to 8000.
        assert_eq!(total, ht.len());
        assert!(total > 7_900, "unexpected collision rate: {total}");
    }

    #[test]
    fn concurrent_churn_with_live_scanner() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let ht = Arc::new(HashTable::new(1 << 10, 16));
        let parts = HashRange::full().split(4);
        let done = Arc::new(AtomicBool::new(false));

        // A scanner walks the full range in small-budget cursor steps
        // while writers churn. Each pass must never visit the same hash
        // twice: a hash lives in exactly one bucket, the budget only
        // breaks between buckets, and a bucket is visited under one
        // stripe read lock — concurrent removal (which shuffles slots
        // within the bucket) must not make the scan double-count.
        let scanner = {
            let ht = Arc::clone(&ht);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut passes = 0u64;
                while !done.load(Ordering::Acquire) {
                    let mut seen = HashSet::new();
                    let mut cursor = Cursor::default();
                    loop {
                        let visit = |s: &Slot| {
                            assert!(
                                seen.insert(s.hash),
                                "hash {:#x} visited twice in one pass",
                                s.hash
                            );
                            1
                        };
                        let out = ht.scan_range(T, HashRange::full(), cursor, 64, |_| {}, visit);
                        match out.value {
                            Some(next) => cursor = next,
                            None => break,
                        }
                    }
                    passes += 1;
                }
                passes
            })
        };

        // Writers churn disjoint partitions: insert everything, remove
        // the odd hashes, overwrite the evens, ending in a known state.
        let mut writers = Vec::new();
        for (t, part) in parts.into_iter().enumerate() {
            let ht = Arc::clone(&ht);
            writers.push(std::thread::spawn(move || {
                let width = part.end - part.start;
                let hash = |i: u64| part.start + (i * 104_729) % width;
                let mut expect = HashSet::new();
                for i in 0..2_000u64 {
                    ht.upsert(T, hash(i), r(t as u64, i as u32), |_| true);
                    expect.insert(hash(i));
                }
                for i in (1..2_000u64).step_by(2) {
                    // Synthetic hashes can collide; only hashes no even
                    // index also produced may be removed.
                    if (0..2_000).step_by(2).all(|j| hash(j) != hash(i)) {
                        ht.remove(T, hash(i), |_| true);
                        expect.remove(&hash(i));
                    }
                }
                for i in (0..2_000u64).step_by(2) {
                    ht.upsert(T, hash(i), r(t as u64, (i + 1) as u32), |_| true);
                }
                (part, expect)
            }));
        }

        for wtr in writers {
            let (part, expect) = wtr.join().unwrap();
            // After this partition's writer finished, a scan of it must
            // see exactly the surviving hashes: none lost, none
            // duplicated — even while other partitions are still active.
            let mut got = HashSet::new();
            let mut count = 0u64;
            ht.for_each_in_range(T, part, |s| {
                got.insert(s.hash);
                count += 1;
            });
            assert_eq!(count as usize, got.len(), "duplicated slot in scan");
            assert_eq!(got, expect, "lost or phantom slots in partition");
        }
        done.store(true, Ordering::Release);
        let passes = scanner.join().unwrap();
        assert!(passes > 0, "scanner never completed a pass");
    }
}
