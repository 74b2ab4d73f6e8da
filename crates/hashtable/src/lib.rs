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
//! A bucket is [`SLOTS_PER_BUCKET`] 16-byte slots and nothing else:
//! 128 B, two cache lines, stored in one flat allocation per lock stripe —
//! no per-bucket heap indirection on the hot path. A slot holds the full
//! 64-bit key hash and one packed word: an occupied bit, the table id
//! (< 2¹⁵), the segment id (< 2²⁴) and the byte offset (< 2²⁴; a log
//! refuses segments over [`MAX_SEGMENT_BYTES`], so every offset it hands
//! out fits). Storing a reference past those bounds panics, in every
//! build. The eight hashes fill the bucket's first line and the eight
//! words its second.
//!
//! Each slot is guarded by a 16-bit *partial hash* (the low 16 bits of
//! the key hash; bucket placement uses the high bits, so the tag stays
//! discriminating within a bucket). A lookup reads the first line's
//! tags and touches the second — occupancy, table id, reference — only
//! where a tag matches, so a miss reads one line. A **probe**
//! is such a full-slot examination — tag rejections are not probes,
//! which is exactly the cost the tags remove from the §4.5 model. A
//! bucket whose eight slots are all occupied spills further entries into
//! a chain its stripe keeps (pathological collision patterns only;
//! removals promote spilled entries back inline, so a chain exists only
//! beside a full bucket, and a per-stripe bitmap says which buckets have
//! one without looking).
//!
//! The table is striped-locked and thread-safe; buckets within one stripe
//! share a lock, and stripes cover contiguous bucket ranges so disjoint
//! hash-space partitions touch disjoint locks. Stripes are capped at
//! [`MAX_BUCKETS_PER_STRIPE`] buckets so the run a `scan_range` holds a
//! read lock over stays cache-resident. An owner holding the table by
//! `&mut` needs none of that: [`HashTable::lookup_mut`] and
//! [`HashTable::upsert_mut`] reach a stripe through `get_mut` and run
//! the same bodies as the locked doors, with no lock taken and no atomic
//! read-modify-write made.
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
//! A caller that knows its next addresses overlaps those misses instead
//! of taking them one after another: [`HashTable::scan_range`] shows its
//! caller the slots [`SCAN_LOOKAHEAD_BUCKETS`] buckets ahead of the one
//! it is visiting, so a Pull can ask for those log entries while it
//! copies out the current ones.
//!
//! A bulk load has no next address to ask for ahead of time: its keys
//! land in random buckets of a table many times the size of the caches,
//! and each miss also misses the TLB, which a prefetch cannot hide. So
//! it does not insert as it appends. It files each key by
//! [`HashTable::partition_of`] — a run of [`PARTITION_BYTES`] of
//! buckets, whole stripes — and inserts one partition at a time, so
//! every insert lands in buckets already in cache and in the TLB. Each
//! bucket still sees its keys in load order, so the table ends up the
//! same.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;
use rocksteady_common::{KeyHash, TableId};
use rocksteady_logstore::{LogRef, MAX_SEGMENT_BYTES};

pub use rocksteady_common::range::{HashRange, ScanCursor as Cursor};

/// Inline slots per bucket, mirroring RAMCloud's eight-entry buckets.
pub const SLOTS_PER_BUCKET: usize = 8;

/// Upper bound on buckets per lock stripe: 128 buckets × 128 B = 16 KiB
/// keeps the run scanned under one read lock well inside L2, so a Pull's
/// scan stays cache-resident while it holds the lock.
pub const MAX_BUCKETS_PER_STRIPE: usize = 128;

/// How many buckets ahead of the one being visited [`HashTable::
/// scan_range`] shows to its `peek` closure. At ~4 entries per bucket
/// that is ~8 log entries in flight, about what one core keeps
/// outstanding. Measured on `bulk_migrate` beside 0, 1, 4 and 8
/// (EXPERIMENTS.md, "Host-time attribution"): a plateau, of which this
/// is the middle — a constant, not a tuning knob.
pub const SCAN_LOOKAHEAD_BUCKETS: u64 = 2;

/// Bytes of buckets in one [`HashTable::partition_of`] partition (at
/// least one stripe's worth): a run a bulk load's inserts stay inside
/// while it fills it, small enough that its buckets and their pages
/// stay in the cache and the TLB. Measured on `bulk_migrate`'s
/// `setup_s` beside 256 KiB, 4 MiB, 16 MiB and the whole 64 MiB table
/// (EXPERIMENTS.md, "The bulk load indexes by partition"): the floor of
/// a valley from 1 to 4 MiB — a constant, not a tuning knob.
pub const PARTITION_BYTES: usize = 1 << 20;

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

/// The 16-bit partial hash of a slot. Bucket indexing consumes high
/// bits, so the low bits stay independent.
#[inline]
fn tag_of(hash: KeyHash) -> u16 {
    hash as u16
}

// The packed word, high bit to low: occupied | table | segment | offset.
const OFFSET_BITS: u32 = 24;
const SEGMENT_BITS: u32 = 24;
const TABLE_BITS: u32 = 15;
const SEGMENT_SHIFT: u32 = OFFSET_BITS;
const TABLE_SHIFT: u32 = SEGMENT_SHIFT + SEGMENT_BITS;
const OCCUPIED: u64 = 1 << 63;
/// The bits that say whose a slot is: occupied and table id.
const HEAD_MASK: u64 = !0 << TABLE_SHIFT;

const _: () = assert!(TABLE_SHIFT + TABLE_BITS == 63, "one word, no gaps");
const _: () = assert!(MAX_SEGMENT_BYTES <= 1 << OFFSET_BITS);

/// The head bits (occupied + table id) of `table`'s slots, or `None`
/// for a table id the word cannot hold.
#[inline]
fn head_of(table: TableId) -> Option<u64> {
    (table.0 < 1 << TABLE_BITS).then_some(OCCUPIED | table.0 << TABLE_SHIFT)
}

/// The head a search compares slots against: 0 for a table id no slot
/// can hold, which no occupied slot's head equals.
#[inline]
fn search_head(table: TableId) -> u64 {
    head_of(table).unwrap_or(0)
}

/// One slot: the full key hash, and table id plus log reference packed
/// into one word behind an occupied bit. All-zero is an empty slot. A
/// spill chain stores it whole; a [`Bucket`] splits it across its lines.
#[derive(Clone, Copy, Default)]
struct Packed {
    hash: KeyHash,
    word: u64,
}

impl Packed {
    /// Packs an entry. The bounds are checked in every build and each
    /// panic names the field that does not fit.
    fn new(table: TableId, hash: KeyHash, log_ref: LogRef) -> Self {
        let Some(head) = head_of(table) else {
            panic!("table id {} does not fit in {TABLE_BITS} bits", table.0);
        };
        Packed {
            hash,
            word: head | pack_ref(log_ref),
        }
    }

    #[inline]
    fn is_occupied(self) -> bool {
        self.word & OCCUPIED != 0
    }

    /// Whether this slot is `head`'s table's entry for exactly `hash`.
    #[inline]
    fn holds(self, head: u64, hash: KeyHash) -> bool {
        self.word & HEAD_MASK == head && self.hash == hash
    }

    #[inline]
    fn log_ref(self) -> LogRef {
        LogRef {
            segment: self.word >> SEGMENT_SHIFT & ((1 << SEGMENT_BITS) - 1),
            offset: (self.word & ((1 << OFFSET_BITS) - 1)) as u32,
        }
    }

    #[inline]
    fn slot(self) -> Slot {
        Slot {
            table: TableId(self.word >> TABLE_SHIFT & ((1 << TABLE_BITS) - 1)),
            hash: self.hash,
            log_ref: self.log_ref(),
        }
    }
}

/// The segment and offset bits of a packed word; panics naming the
/// field that does not fit.
fn pack_ref(r: LogRef) -> u64 {
    assert!(
        r.segment < 1 << SEGMENT_BITS,
        "segment id {} does not fit in {SEGMENT_BITS} bits",
        r.segment
    );
    assert!(
        u64::from(r.offset) < 1 << OFFSET_BITS,
        "offset {} does not fit in {OFFSET_BITS} bits",
        r.offset
    );
    r.segment << SEGMENT_SHIFT | u64::from(r.offset)
}

/// A fixed eight-slot bucket: 128 B, two cache lines, nothing but slots.
/// Slot `i` is `hashes[i]` plus `words[i]` (a [`Packed`] split in two):
/// the first line holds all eight hashes, and with them the tags, so a
/// search that no tag admits — almost every miss — reads that line
/// only; the second holds the packed words, read for a tag-admitted
/// slot and by scans.
///
/// 128 B rather than RAMCloud's 64 because a slot keeps the full hash
/// and the table id: `scan_range` filters on both without reading the
/// log, and `for_each_in_range(table, range, _)` hands out whole
/// [`Slot`]s. The spill chain lives in the stripe, not here.
///
/// # Invariant: the all-zero byte pattern is a valid, empty bucket
///
/// A stripe's first `upsert` relies on this to build its bucket array
/// from `alloc_zeroed` without running a constructor per bucket. Adding
/// a field that is not valid-when-zero breaks that construction.
///
/// What the zeroing does *not* buy is lazily faulted memory: for an
/// over-aligned type like this one Rust's `alloc_zeroed` is
/// `posix_memalign` followed by `write_bytes`, so every byte asked for is
/// touched at once. Memory stays proportional to the data because a
/// stripe is only allocated when something is inserted into it, not
/// because of how it is zeroed.
#[repr(C, align(128))]
struct Bucket {
    hashes: [KeyHash; SLOTS_PER_BUCKET],
    words: [u64; SLOTS_PER_BUCKET],
}

impl Bucket {
    #[inline]
    fn get(&self, i: usize) -> Packed {
        Packed {
            hash: self.hashes[i],
            word: self.words[i],
        }
    }

    #[inline]
    fn set(&mut self, i: usize, p: Packed) {
        self.hashes[i] = p.hash;
        self.words[i] = p.word;
    }
}

const _: () = assert!(std::mem::size_of::<Bucket>() == 128);
const _: () = assert!(std::mem::align_of::<Bucket>() == 128);

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

/// Where a search found its entry in a bucket.
#[derive(Clone, Copy)]
enum At {
    /// Inline slot index.
    Inline(usize),
    /// Index into the bucket's spill chain.
    Spilled(usize),
}

/// One stripe's buckets and the spill chains of those that overflowed.
#[derive(Default)]
struct Buckets {
    /// All of the stripe's buckets in one flat allocation — or none and
    /// no allocation until the stripe's first `upsert`.
    array: Box<[Bucket]>,
    /// Bit `b` is set exactly when bucket `b` has a spill chain, so a
    /// lookup or scan asks for a chain only where one exists.
    spilled: u128,
    /// `(bucket, entries in spill order)`, one per set bit of `spilled`,
    /// never empty. A chain exists only while all eight of its bucket's
    /// slots are occupied: entries spill only from a full bucket, and a
    /// removal from the bucket promotes the chain's last entry inline.
    chains: Vec<(usize, Vec<Packed>)>,
}

const _: () = assert!(MAX_BUCKETS_PER_STRIPE <= u128::BITS as usize);

impl Buckets {
    /// Position of bucket `b`'s chain in `chains`, if it has one.
    fn chain_index(&self, b: usize) -> Option<usize> {
        if self.spilled >> b & 1 == 0 {
            return None;
        }
        self.chains.iter().position(|(at, _)| *at == b)
    }

    /// Bucket `b`'s spilled entries (usually none).
    fn chain(&self, b: usize) -> &[Packed] {
        self.chain_index(b).map_or(&[], |c| &self.chains[c].1)
    }

    /// Visits every occupied entry of bucket `b`, inline then spilled.
    ///
    /// A counted loop on purpose: its trip count is known, so a caller
    /// whose `f` does nothing (`scan_range`'s no-op `peek`) costs nothing
    /// — the compiler cannot delete a `while occ != 0` bit-walk, which it
    /// has to assume might not end.
    #[inline]
    fn for_each(&self, b: usize, mut f: impl FnMut(Packed)) {
        let bucket = &self.array[b];
        for i in 0..SLOTS_PER_BUCKET {
            let p = bucket.get(i);
            if p.is_occupied() {
                f(p);
            }
        }
        for &p in self.chain(b) {
            f(p);
        }
    }

    /// Finds bucket `b`'s entry of `head`'s table for exactly `hash` that
    /// `is_match` accepts, and where it is — nothing, with no probes, in a
    /// stripe with no buckets yet — counting probes by the §4.5 rule: an inline
    /// slot is a probe when it is occupied and its tag matches, a
    /// spilled entry always is. Inline slots are searched in index
    /// order, then the chain in spill order.
    #[inline]
    fn find(
        &self,
        b: usize,
        head: u64,
        hash: KeyHash,
        mut is_match: impl FnMut(LogRef) -> bool,
    ) -> (Option<(At, Packed)>, u32) {
        let tag = tag_of(hash);
        let Some(bucket) = self.array.get(b) else {
            return (None, 0);
        };
        // Same-tag slots, from the hash line alone; occupancy is in the
        // word line, read only for these (an empty slot's hash is 0).
        let mut candidates = 0u32;
        for (i, &h) in bucket.hashes.iter().enumerate() {
            candidates |= u32::from(tag_of(h) == tag) << i;
        }
        let mut probes = 0;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let p = bucket.get(i);
            if !p.is_occupied() {
                continue;
            }
            probes += 1;
            if p.holds(head, hash) && is_match(p.log_ref()) {
                return (Some((At::Inline(i), p)), probes);
            }
        }
        for (j, &p) in self.chain(b).iter().enumerate() {
            probes += 1;
            if p.holds(head, hash) && is_match(p.log_ref()) {
                return (Some((At::Spilled(j), p)), probes);
            }
        }
        (None, probes)
    }

    /// The one lookup body behind [`HashTable::lookup`] and
    /// [`HashTable::lookup_mut`].
    #[inline]
    fn lookup(
        &self,
        b: usize,
        table: TableId,
        hash: KeyHash,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Option<LogRef>> {
        let (found, probes) = self.find(b, search_head(table), hash, is_match);
        let value = found.map(|(_, p)| p.log_ref());
        Probed { value, probes }
    }

    /// The one upsert body behind [`HashTable::upsert`] and
    /// [`HashTable::upsert_mut`]: `entry` into bucket `b`, allocating the
    /// stripe's `per_stripe` buckets first if it has none. The caller
    /// counts an insert.
    #[inline]
    fn upsert(
        &mut self,
        per_stripe: usize,
        b: usize,
        entry: Packed,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Upsert> {
        if self.array.is_empty() {
            self.array = zeroed_buckets(per_stripe);
        }
        let (found, probes) = self.find(b, entry.word & HEAD_MASK, entry.hash, is_match);
        if let Some((at, old)) = found {
            self.set(b, at, entry);
            return Probed {
                value: Upsert::Replaced(old.log_ref()),
                probes,
            };
        }
        self.insert(b, entry);
        Probed {
            value: Upsert::Inserted,
            probes: probes + 1,
        }
    }

    fn set(&mut self, b: usize, at: At, p: Packed) {
        match at {
            At::Inline(i) => self.array[b].set(i, p),
            At::Spilled(j) => {
                let c = self.chain_index(b).expect("a spilled entry has a chain");
                self.chains[c].1[j] = p;
            }
        }
    }

    /// Puts a new entry in bucket `b`'s first free slot, or at the end of
    /// its chain when all eight are occupied.
    fn insert(&mut self, b: usize, entry: Packed) {
        let bucket = &mut self.array[b];
        if let Some(free) = bucket.words.iter().position(|w| w & OCCUPIED == 0) {
            bucket.set(free, entry);
            return;
        }
        match self.chain_index(b) {
            Some(c) => self.chains[c].1.push(entry),
            None => {
                self.chains.push((b, vec![entry]));
                self.spilled |= 1 << b;
            }
        }
    }

    /// Takes the entry at `at` out of bucket `b`. An inline slot is
    /// refilled from the end of the chain, so the chain stays empty
    /// unless the bucket is full.
    fn take(&mut self, b: usize, at: At) {
        let Some(c) = self.chain_index(b) else {
            let At::Inline(i) = at else {
                unreachable!("a spilled entry has a chain")
            };
            self.array[b].set(i, Packed::default());
            return;
        };
        let chain = &mut self.chains[c].1;
        match at {
            At::Inline(i) => self.array[b].set(i, chain.pop().expect("chains are never empty")),
            At::Spilled(j) => {
                chain.swap_remove(j);
            }
        }
        if chain.is_empty() {
            self.chains.swap_remove(c);
            self.spilled &= !(1 << b);
        }
    }
}

/// One lock stripe: a contiguous run of buckets behind one lock.
type Stripe = RwLock<Buckets>;

/// The hash table itself.
pub struct HashTable {
    stripes: Vec<Stripe>,
    buckets_per_stripe: usize,
    bucket_count: u64,
    /// `64 - log2(bucket_count)`; bucket index = `hash >> shift`.
    shift: u32,
    /// `log2` of the buckets in a partition; partition index =
    /// `bucket index >> partition_bits`.
    partition_bits: u32,
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
        let stripes = (0..stripe_count).map(|_| Stripe::default()).collect();
        // Powers of two, so the partition is a whole number of stripes.
        let per_partition = (PARTITION_BYTES / std::mem::size_of::<Bucket>())
            .clamp(buckets_per_stripe, bucket_count as usize);
        HashTable {
            stripes,
            buckets_per_stripe,
            bucket_count,
            shift: 64 - bucket_count.trailing_zeros(),
            partition_bits: per_partition.trailing_zeros(),
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

    /// How many partitions [`HashTable::partition_of`] cuts the table
    /// into: equal runs of buckets, so equal slices of the hash space.
    pub fn partitions(&self) -> usize {
        (self.bucket_count >> self.partition_bits) as usize
    }

    /// The partition `hash`'s bucket lies in: its run of about
    /// [`PARTITION_BYTES`] of buckets, whole stripes. Partitions are
    /// numbered in hash order, like buckets.
    pub fn partition_of(&self, hash: KeyHash) -> usize {
        (self.bucket_of(hash) >> self.partition_bits) as usize
    }

    /// The index of `hash`'s stripe, and of its bucket within the stripe.
    /// A `&self` door takes that stripe's lock; a `&mut self` door
    /// reaches it through `get_mut`, which takes none.
    fn locate(&self, hash: KeyHash) -> (usize, usize) {
        let idx = self.bucket_of(hash) as usize;
        (idx / self.buckets_per_stripe, idx % self.buckets_per_stripe)
    }

    /// Looks up the reference for `(table, hash)`.
    ///
    /// `is_match` disambiguates 64-bit hash collisions by checking the
    /// full key in the log; it receives each candidate's reference.
    /// Takes the stripe's read lock; [`HashTable::lookup_mut`] is the
    /// same lookup for an owner holding the table exclusively.
    pub fn lookup(
        &self,
        table: TableId,
        hash: KeyHash,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Option<LogRef>> {
        let (s, b) = self.locate(hash);
        self.stripes[s].read().lookup(b, table, hash, is_match)
    }

    /// [`HashTable::lookup`] through `&mut self`: the stripe is reached
    /// with `get_mut`, so no lock is taken.
    pub fn lookup_mut(
        &mut self,
        table: TableId,
        hash: KeyHash,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Option<LogRef>> {
        let (s, b) = self.locate(hash);
        self.stripes[s].get_mut().lookup(b, table, hash, is_match)
    }

    /// Inserts or replaces the entry for `(table, hash)`.
    ///
    /// `is_match` identifies which colliding entry (if any) represents the
    /// same key; when it returns true the slot is repointed at `new_ref`
    /// and the old reference is returned. Panics if the table id, the
    /// segment id or the offset does not fit its field of the slot.
    /// Takes the stripe's write lock and counts an insert with an atomic
    /// add; [`HashTable::upsert_mut`] is the same upsert for an owner
    /// holding the table exclusively.
    pub fn upsert(
        &self,
        table: TableId,
        hash: KeyHash,
        new_ref: LogRef,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Upsert> {
        let (entry, (s, b)) = (Packed::new(table, hash, new_ref), self.locate(hash));
        let up = self.stripes[s]
            .write()
            .upsert(self.buckets_per_stripe, b, entry, is_match);
        if up.value == Upsert::Inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        up
    }

    /// [`HashTable::upsert`] through `&mut self`: the stripe is reached
    /// with `get_mut` and an insert counted with a plain add, so no lock
    /// is taken and no atomic read-modify-write made.
    pub fn upsert_mut(
        &mut self,
        table: TableId,
        hash: KeyHash,
        new_ref: LogRef,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Upsert> {
        let (entry, (s, b)) = (Packed::new(table, hash, new_ref), self.locate(hash));
        let up = self.stripes[s]
            .get_mut()
            .upsert(self.buckets_per_stripe, b, entry, is_match);
        if up.value == Upsert::Inserted {
            *self.len.get_mut() += 1;
        }
        up
    }

    /// Removes the entry for `(table, hash)` whose reference satisfies
    /// `is_match`; returns the removed reference.
    pub fn remove(
        &self,
        table: TableId,
        hash: KeyHash,
        is_match: impl FnMut(LogRef) -> bool,
    ) -> Probed<Option<LogRef>> {
        let (s, b) = self.locate(hash);
        let mut buckets = self.stripes[s].write();
        let (found, probes) = buckets.find(b, search_head(table), hash, is_match);
        let value = found.map(|(at, old)| {
            buckets.take(b, at);
            self.len.fetch_sub(1, Ordering::Relaxed);
            old.log_ref()
        });
        Probed { value, probes }
    }

    /// Atomically repoints `(table, hash)` from `old` to `new`.
    ///
    /// The cleaner's relocation path: succeeds only if the slot still
    /// points at `old`, so a racing write that superseded the entry wins.
    /// Panics, like [`HashTable::upsert`], if `new` does not fit a slot.
    pub fn update_ref(&self, table: TableId, hash: KeyHash, old: LogRef, new: LogRef) -> bool {
        let new = pack_ref(new);
        let (s, b) = self.locate(hash);
        let mut buckets = self.stripes[s].write();
        let head = search_head(table);
        let Some((at, _)) = buckets.find(b, head, hash, |r| r == old).0 else {
            return false;
        };
        let word = head | new;
        buckets.set(b, at, Packed { hash, word });
        true
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
    /// `open` makes the view `peek` and `visit` read through: it runs
    /// right after a stripe's read lock is taken, for a stripe that
    /// holds buckets, and its view drops before that lock is released.
    /// A caller resolving slots in a structure of its own (the master's
    /// log) takes that structure's lock once per stripe run this way,
    /// inside the stripe lock like every lookup's key matcher — never
    /// once per slot, and never held while the next stripe is awaited.
    ///
    /// `peek` is shown every slot `visit` is going to get, up to
    /// [`SCAN_LOOKAHEAD_BUCKETS`] buckets before `visit` gets it (never
    /// past the end of the stripe whose lock is held), so the caller can
    /// start fetching what the slot points at. It sees the same slots in
    /// the same order, plus at most that horizon beyond the bucket the
    /// budget stops the scan at; a caller with nothing to fetch passes
    /// `|_, _| {}`, which compiles away.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_range<V>(
        &self,
        table: TableId,
        range: HashRange,
        cursor: Cursor,
        budget: u64,
        mut open: impl FnMut() -> V,
        mut peek: impl FnMut(&V, &Slot),
        mut visit: impl FnMut(&V, &Slot) -> u64,
    ) -> Probed<Option<Cursor>> {
        if range.is_empty() {
            return Probed::MISS;
        }
        let first_bucket = self.bucket_of(range.start).max(cursor.bucket);
        let last_bucket = self.bucket_of(range.end);
        let head = search_head(table);
        let wanted = |p: Packed| p.word & HEAD_MASK == head && range.contains(p.hash);
        let mut probes = 0u32;
        let mut accepted = 0u64;
        let mut bucket = first_bucket;
        'scan: while bucket <= last_bucket {
            let stripe_idx = bucket as usize / self.buckets_per_stripe;
            let stripe_last =
                (((stripe_idx + 1) * self.buckets_per_stripe - 1) as u64).min(last_bucket);
            let buckets = self.stripes[stripe_idx].read();
            if buckets.array.is_empty() {
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
            let view = open();
            // Next bucket to show to `peek`: on taking the stripe it
            // catches up to the horizon, then stays that far in front.
            let mut ahead = bucket;
            while bucket <= stripe_last {
                let horizon = (bucket + SCAN_LOOKAHEAD_BUCKETS).min(stripe_last);
                while ahead <= horizon {
                    buckets.for_each(ahead as usize % self.buckets_per_stripe, |p| {
                        if wanted(p) {
                            peek(&view, &p.slot());
                        }
                    });
                    ahead += 1;
                }
                buckets.for_each(bucket as usize % self.buckets_per_stripe, |p| {
                    probes += 1;
                    if wanted(p) {
                        accepted += visit(&view, &p.slot());
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
                || (),
                |_, _| {},
                |_, s| {
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
            let written = |s: &&Stripe| !s.read().array.is_empty();
            ht.stripes.iter().filter(written).count()
        };
        assert_eq!(touched(&ht), 1);
        let miss = ht.lookup(T, high, |_| panic!("nothing to compare"));
        assert_eq!((miss.value, miss.probes), (None, 0));
        let miss = ht.remove(T, high, |_| panic!("nothing to compare"));
        assert_eq!((miss.value, miss.probes), (None, 0));
        assert!(!ht.update_ref(T, high, r(1, 0), r(2, 0)));
        assert_eq!(touched(&ht), 1, "only upsert allocates a stripe");
        assert_eq!(ht.len(), 1);
        // A scan crosses the six empty stripes between the two entries.
        ht.upsert(T, high, r(9, 0), |_| true);
        assert_eq!(touched(&ht), 2);
        let mut seen = Vec::new();
        ht.for_each_in_range(T, HashRange::full(), |s| seen.push(s.hash));
        assert_eq!(seen, vec![low, high]);
    }

    /// A partition is a whole number of stripes, [`PARTITION_BYTES`] of
    /// buckets, and partitions are equal slices of the hash space in hash
    /// order; a table smaller than one partition is one.
    #[test]
    fn partitions_are_whole_stripes_in_hash_order() {
        let ht = HashTable::new(8 * PARTITION_BYTES / 128, 8);
        assert_eq!(ht.partitions(), 8);
        for (p, slice) in HashRange::full().split(8).iter().enumerate() {
            assert_eq!(ht.partition_of(slice.start), p);
            assert_eq!(ht.partition_of(slice.end), p);
            assert_eq!(ht.bucket_of(slice.start) % ht.buckets_per_stripe as u64, 0);
        }
        let small = HashTable::new(64, 8);
        assert_eq!(small.partitions(), 1);
        assert_eq!(small.partition_of(u64::MAX), 0);
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

    /// The two doors build the same table: one sequence of inserts,
    /// replacements and collisions — enough in one bucket to spill a
    /// chain — upserted through the stripe lock into one table and
    /// through `get_mut` into another gives the same answers, probes,
    /// slots, chain and length, and both lookup doors agree on it.
    #[test]
    fn exclusive_and_locked_doors_build_the_same_table() {
        let (locked, mut exclusive) = (HashTable::new(4, 1), HashTable::new(4, 1));
        // Hashes below 1 << 62 share bucket 0; the rest spread out.
        let hash = |i: u64| {
            if i.is_multiple_of(3) {
                i
            } else {
                i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            }
        };
        for i in 0..60u64 {
            let (h, at) = (hash(i % 40), r(i, i as u32 * 8));
            let same = |old: LogRef| old.segment % 40 == i % 40;
            let a = locked.upsert(T, h, at, same);
            assert_eq!(a, exclusive.upsert_mut(T, h, at, same), "upsert {i}");
        }
        assert!(
            exclusive.stripes[0].get_mut().spilled != 0,
            "a chain spilled"
        );
        assert_eq!((locked.len(), exclusive.len()), (40, 40));
        let slots = |ht: &HashTable| {
            let mut seen = Vec::new();
            ht.for_each_in_range(T, HashRange::full(), |s| seen.push(*s));
            seen
        };
        assert_eq!(slots(&locked), slots(&exclusive));
        for i in 0..45u64 {
            let same = |old: LogRef| old.segment % 40 == i;
            let a = locked.lookup(T, hash(i), same);
            assert_eq!(a, exclusive.lookup(T, hash(i), same), "lookup {i}");
            assert_eq!(a, exclusive.lookup_mut(T, hash(i), same), "lookup_mut {i}");
        }
    }

    /// The packed word holds every field up to its bound, and a table id
    /// past it is never found (it cannot have been stored).
    #[test]
    fn largest_packable_entry_round_trips() {
        let ht = HashTable::new(64, 8);
        let table = TableId((1 << 15) - 1);
        let big = r((1 << 24) - 1, (1 << 24) - 1);
        ht.upsert(table, 9, big, |_| true);
        assert_eq!(ht.lookup(table, 9, |_| true).value, Some(big));
        let mut seen = Vec::new();
        ht.for_each_in_range(table, HashRange::full(), |s| seen.push(*s));
        let want = Slot {
            table,
            hash: 9,
            log_ref: big,
        };
        assert_eq!(seen, vec![want]);
        let beyond = TableId(1 << 15);
        // Same tag: examined, as today's rule counts, and not a match.
        assert_eq!(ht.lookup(beyond, 9, |_| true).value, None);
        assert_eq!(ht.lookup(beyond, 9, |_| true).probes, 1);
        assert_eq!(ht.remove(beyond, 9, |_| true).value, None);
        assert!(!ht.update_ref(beyond, 9, big, r(1, 0)));
        ht.for_each_in_range(beyond, HashRange::full(), |_| panic!("not its table"));
    }

    #[test]
    #[should_panic(expected = "table id 32768 does not fit")]
    fn a_table_id_past_15_bits_is_refused() {
        HashTable::new(64, 8).upsert(TableId(1 << 15), 1, r(1, 0), |_| true);
    }

    #[test]
    #[should_panic(expected = "segment id 16777216 does not fit")]
    fn a_segment_id_past_24_bits_is_refused() {
        HashTable::new(64, 8).upsert(T, 1, r(1 << 24, 0), |_| true);
    }

    #[test]
    #[should_panic(expected = "offset 16777216 does not fit")]
    fn an_offset_past_24_bits_is_refused() {
        HashTable::new(64, 8).upsert(T, 1, r(1, 1 << 24), |_| true);
    }

    /// The bucket as it was before slots were packed, searched by the
    /// rule the §4.5 costs are calibrated on: eight optional inline slots
    /// in index order (a probe where the tag matches), then a spill list
    /// (every entry a probe). Inserts take the lowest free slot, else the
    /// list's end; removing an inline entry refills its slot from the
    /// list's end, removing a spilled one swaps the list's last entry in.
    #[derive(Default)]
    struct ModelBucket {
        inline: [Option<Slot>; SLOTS_PER_BUCKET],
        spill: Vec<Slot>,
    }

    impl ModelBucket {
        fn find(
            &self,
            table: TableId,
            hash: KeyHash,
            mut is_match: impl FnMut(LogRef) -> bool,
        ) -> (Option<(At, Slot)>, u32) {
            let mut hit = |s: &Slot| s.table == table && s.hash == hash && is_match(s.log_ref);
            let mut probes = 0;
            for (i, s) in self.inline.iter().enumerate() {
                let Some(s) = s.filter(|s| tag_of(s.hash) == tag_of(hash)) else {
                    continue;
                };
                probes += 1;
                if hit(&s) {
                    return (Some((At::Inline(i), s)), probes);
                }
            }
            for (j, s) in self.spill.iter().enumerate() {
                probes += 1;
                if hit(s) {
                    return (Some((At::Spilled(j), *s)), probes);
                }
            }
            (None, probes)
        }

        fn get_mut(&mut self, at: At) -> &mut Slot {
            match at {
                At::Inline(i) => self.inline[i].as_mut().expect("occupied"),
                At::Spilled(j) => &mut self.spill[j],
            }
        }

        fn lookup(
            &self,
            t: TableId,
            h: KeyHash,
            m: impl FnMut(LogRef) -> bool,
        ) -> (Option<LogRef>, u32) {
            let (found, probes) = self.find(t, h, m);
            (found.map(|(_, s)| s.log_ref), probes)
        }

        fn upsert(&mut self, new: Slot, m: impl FnMut(LogRef) -> bool) -> Probed<Upsert> {
            let (found, probes) = self.find(new.table, new.hash, m);
            if let Some((at, old)) = found {
                *self.get_mut(at) = new;
                return Probed {
                    value: Upsert::Replaced(old.log_ref),
                    probes,
                };
            }
            match self.inline.iter_mut().find(|s| s.is_none()) {
                Some(free) => *free = Some(new),
                None => self.spill.push(new),
            }
            Probed {
                value: Upsert::Inserted,
                probes: probes + 1,
            }
        }

        fn remove(
            &mut self,
            t: TableId,
            h: KeyHash,
            m: impl FnMut(LogRef) -> bool,
        ) -> Probed<Option<LogRef>> {
            let (found, probes) = self.find(t, h, m);
            let value = found.map(|(at, old)| {
                match at {
                    At::Inline(i) => self.inline[i] = self.spill.pop(),
                    At::Spilled(j) => {
                        self.spill.swap_remove(j);
                    }
                }
                old.log_ref
            });
            Probed { value, probes }
        }

        /// Every entry in scan order: inline by index, then spilled.
        fn entries(&self) -> Vec<Slot> {
            self.inline
                .iter()
                .flatten()
                .chain(&self.spill)
                .copied()
                .collect()
        }
    }

    /// Random upserts, removes and update_refs on keys that share one
    /// bucket and a handful of tags (equal hashes, duplicate keys, and
    /// tag 0, which an empty slot's zeroed hash shares, included): a
    /// spill chain exists only beside a full bucket, and every answer,
    /// probe count and scan order is the model's.
    #[test]
    fn spill_needs_a_full_bucket_and_probes_match_the_model() {
        use rocksteady_common::rng::Prng;
        for seed in 0..64 {
            let mut rng = Prng::new(0x5b11_0000 + seed);
            let ht = HashTable::new(2, 1); // hashes below 1 << 63: bucket 0
            let mut model = ModelBucket::default();
            let removes = rng.next_range(2, 4);
            for step in 0..rng.next_range(50, 400) {
                let table = TableId(1 + rng.next_below(2));
                let hash =
                    rng.next_below(6) << 40 | [0xbeef, 0x1234, 0][rng.next_below(3) as usize];
                let rule = rng.next_below(3);
                let is_match = |c: LogRef| match rule {
                    0 => true,
                    1 => c.offset & 1 == 0,
                    _ => false,
                };
                let new = r(rng.next_below(50), rng.next_below(4) as u32);
                let ctx = format!("seed {seed} step {step}");
                match rng.next_below(8) {
                    0..=2 => {
                        let slot = Slot {
                            table,
                            hash,
                            log_ref: new,
                        };
                        let got = ht.upsert(table, hash, new, is_match);
                        assert_eq!(got, model.upsert(slot, is_match), "{ctx}: upsert");
                    }
                    op if op < 3 + removes => {
                        let got = ht.remove(table, hash, is_match);
                        assert_eq!(got, model.remove(table, hash, is_match), "{ctx}: remove");
                    }
                    _ => {
                        // Usually a reference the key holds, so some succeed.
                        let old = model
                            .entries()
                            .into_iter()
                            .find(|s| s.table == table && s.hash == hash)
                            .map_or(new, |s| s.log_ref);
                        let want = match model.find(table, hash, |c| c == old).0 {
                            Some((at, _)) => {
                                model.get_mut(at).log_ref = new;
                                true
                            }
                            None => false,
                        };
                        assert_eq!(
                            ht.update_ref(table, hash, old, new),
                            want,
                            "{ctx}: update_ref"
                        );
                    }
                }
                let got = ht.lookup(table, hash, is_match);
                assert_eq!(
                    (got.value, got.probes),
                    model.lookup(table, hash, is_match),
                    "{ctx}: lookup"
                );
                assert_eq!(ht.len(), model.entries().len(), "{ctx}: len");

                let buckets = ht.stripes[0].read();
                assert_eq!(
                    buckets.spilled.count_ones() as usize,
                    buckets.chains.len(),
                    "{ctx}"
                );
                for (b, chain) in &buckets.chains {
                    assert!(!chain.is_empty(), "{ctx}: empty chain kept");
                    assert_eq!(buckets.spilled >> b & 1, 1, "{ctx}: chain without its bit");
                    let full = buckets.array[*b].words.iter().all(|w| w & OCCUPIED != 0);
                    assert!(full, "{ctx}: spill beside a bucket with a free slot");
                }
                drop(buckets);
                let mut seen = Vec::new();
                ht.for_each_in_range(table, HashRange::full(), |s| seen.push(*s));
                let mut want = model.entries();
                want.retain(|s| s.table == table);
                assert_eq!(seen, want, "{ctx}: scan order");
            }
        }
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
                || (),
                |_, _| {},
                |_, s| {
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
            || panic!("no stripe to open"),
            |_: &(), _| panic!("nothing to peek at"),
            |_, _| -> u64 { panic!("nothing to visit") },
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
                        let visit = |_: &(), s: &Slot| {
                            assert!(
                                seen.insert(s.hash),
                                "hash {:#x} visited twice in one pass",
                                s.hash
                            );
                            1
                        };
                        let out = ht.scan_range(
                            T,
                            HashRange::full(),
                            cursor,
                            64,
                            || (),
                            |_, _| {},
                            visit,
                        );
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
