//! The one bounded event buffer behind the trace and audit streams.
//!
//! Contract: entries are pushed in completion order and numbered by an
//! absolute sequence (0, 1, 2, … since creation). A bounded ring that
//! fills discards its oldest half in one memmove — amortized O(1) per
//! push, and the survivors stay one contiguous slice. Only a *prefix*
//! is ever dropped, so anything that holds for a completion-ordered
//! stream (ordering, span nesting) holds for the surviving suffix, and
//! sequence numbers handed out earlier keep meaning the same entry.
//!
//! A bounded ring reserves its bound when it is built, so it never
//! reallocates mid-run. [`TailRing`] adds a variable-length tail per
//! entry (a trace event's args) in one shared arena that is cut in step
//! with the entries, so recording an entry allocates nothing either.

/// A contiguous buffer, unbounded or drop-oldest-half bounded.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: Vec<T>,
    capacity: Option<usize>,
    dropped: u64,
}

/// A ring that never drops.
impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring {
            items: Vec::new(),
            capacity: None,
            dropped: 0,
        }
    }
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` entries (clamped to ≥ 2 so
    /// half of it is always at least one entry), with room for all of
    /// them reserved now.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Ring {
            items: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Appends `item`, first discarding the oldest half if full.
    /// Returns how many entries that discarded (usually 0).
    #[inline]
    pub fn push(&mut self, item: T) -> usize {
        let mut evicted = 0;
        if let Some(cap) = self.capacity {
            if self.items.len() >= cap {
                evicted = cap / 2;
                self.items.drain(..evicted);
                self.dropped += evicted as u64;
            }
        }
        self.items.push(item);
        evicted
    }

    /// The retained entries, oldest first.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Entries discarded so far (always 0 when unbounded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries ever pushed — equally, the sequence number the next
    /// push will get.
    pub fn total(&self) -> u64 {
        self.dropped + self.items.len() as u64
    }

    /// The entry with absolute sequence number `seq`, unless evicted
    /// (or not yet pushed).
    pub fn get(&self, seq: u64) -> Option<&T> {
        let i = seq.checked_sub(self.dropped)?;
        self.items.get(usize::try_from(i).ok()?)
    }
}

/// A [`Ring`] whose entries each own a run of `A`s — its *tail* — in
/// one arena shared by all of them. The arena's prefix is cut whenever
/// the ring evicts, so the two stay in step and a push copies the tail
/// into already-reserved space instead of allocating per entry.
#[derive(Debug, Clone)]
pub struct TailRing<T, A> {
    /// Each entry with the absolute arena offset where its tail starts;
    /// it ends where the next entry's starts.
    heads: Ring<(T, u64)>,
    tails: Vec<A>,
    /// Arena slots cut so far: the absolute offset of `tails[0]`.
    tails_cut: u64,
}

/// A tail ring that never drops.
impl<T, A> Default for TailRing<T, A> {
    fn default() -> Self {
        TailRing {
            heads: Ring::default(),
            tails: Vec::new(),
            tails_cut: 0,
        }
    }
}

impl<T, A> TailRing<T, A> {
    /// A tail ring holding at most `capacity` entries, as
    /// [`Ring::with_capacity`]. The arena grows to its steady size by
    /// doubling and is then reused.
    pub fn with_capacity(capacity: usize) -> Self {
        TailRing {
            heads: Ring::with_capacity(capacity),
            ..TailRing::default()
        }
    }

    /// Appends `item` and its `tail`.
    #[inline]
    pub fn push(&mut self, item: T, tail: &[A])
    where
        A: Copy,
    {
        let start = self.tails_cut + self.tails.len() as u64;
        if self.heads.push((item, start)) > 0 {
            let cut = (self.heads.as_slice()[0].1 - self.tails_cut) as usize;
            self.tails.drain(..cut);
            self.tails_cut += cut as u64;
        }
        self.tails.extend_from_slice(tail);
    }

    /// Appends `more` to the newest entry's tail (which ends where the
    /// arena does, so it can still grow).
    #[inline]
    pub fn extend_tail(&mut self, more: &[A])
    where
        A: Copy,
    {
        debug_assert!(!self.is_empty(), "no entry to extend");
        self.tails.extend_from_slice(more);
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.heads.as_slice().len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries discarded so far (always 0 when unbounded).
    pub fn dropped(&self) -> u64 {
        self.heads.dropped()
    }

    /// The `i`-th oldest retained entry and its tail.
    #[inline]
    pub fn get(&self, i: usize) -> (&T, &[A]) {
        let heads = self.heads.as_slice();
        let (item, start) = &heads[i];
        let start = (start - self.tails_cut) as usize;
        let end = match heads.get(i + 1) {
            Some((_, next)) => (next - self.tails_cut) as usize,
            None => self.tails.len(),
        };
        (item, &self.tails[start..end])
    }

    /// Tail slots retained from entry `i` on (`len()` gives 0).
    pub fn tail_len_from(&self, i: usize) -> usize {
        match self.heads.as_slice().get(i) {
            Some((_, start)) => self.tails.len() - (start - self.tails_cut) as usize,
            None => 0,
        }
    }

    /// How many leading entries satisfy `pred` (which must hold for a
    /// prefix only, as for [`slice::partition_point`]).
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        self.heads
            .as_slice()
            .partition_point(|(item, _)| pred(item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_clamps_to_two() {
        let mut r = Ring::with_capacity(0);
        for i in 0..3u64 {
            r.push(i);
        }
        // Full at 2: the third push evicts half (one entry) first.
        assert_eq!((r.as_slice(), r.dropped()), (&[1, 2][..], 1));
    }

    #[test]
    fn dropped_counts_exactly_the_evicted_prefix() {
        let mut r = Ring::with_capacity(8);
        for i in 0..100u64 {
            assert_eq!(r.total(), i, "total() is the next sequence number");
            r.push(i);
            assert!(r.as_slice().len() <= 8);
        }
        assert_eq!(r.total(), 100);
        // Entries are their own sequence numbers here, so the survivors
        // must be exactly dropped()..100.
        let want: Vec<u64> = (r.dropped()..100).collect();
        assert_eq!(r.as_slice(), want);
        assert!(r.dropped() > 0);
    }

    #[test]
    fn lookup_is_by_absolute_sequence() {
        let mut r = Ring::with_capacity(4);
        for i in 0..11u64 {
            r.push(i * 10);
        }
        for seq in 0..r.dropped() {
            assert_eq!(r.get(seq), None, "seq {seq} was evicted");
        }
        for seq in r.dropped()..11 {
            assert_eq!(r.get(seq), Some(&(seq * 10)));
        }
        assert_eq!(r.get(11), None);
        assert_eq!(r.get(u64::MAX), None);
    }

    #[test]
    fn unbounded_never_drops() {
        let mut r = Ring::default();
        for i in 0..10_000u64 {
            r.push(i);
        }
        assert_eq!((r.dropped(), r.as_slice().len()), (0, 10_000));
        assert_eq!(r.get(0), Some(&0));
    }

    #[test]
    fn a_bounded_ring_never_reallocates() {
        let mut r = Ring::with_capacity(8);
        let reserved = r.items.capacity();
        assert!(reserved >= 8);
        for i in 0..100u64 {
            r.push(i);
        }
        assert_eq!(r.items.capacity(), reserved);
    }

    /// Entry `i` carries `i % 4` copies of `i` as its tail, so every
    /// tail names its owner; odd entries get theirs in two pieces.
    fn push_numbered(r: &mut TailRing<u64, u64>, entries: std::ops::Range<u64>) {
        for i in entries {
            let tail = &[i; 3][..(i % 4) as usize];
            let split = (i % 2) as usize;
            r.push(i, &tail[..split]);
            r.extend_tail(&tail[split..]);
        }
    }

    #[test]
    fn tails_stay_with_their_entries_through_compactions() {
        let mut r = TailRing::with_capacity(8);
        push_numbered(&mut r, 0..50);
        assert!(r.dropped() >= 2 * 4, "compacted at least twice");
        assert_eq!(r.dropped() + r.len() as u64, 50);
        let mut tail_slots = 0;
        for i in 0..r.len() {
            let (&entry, tail) = r.get(i);
            assert_eq!(entry, r.dropped() + i as u64);
            assert_eq!(tail, vec![entry; (entry % 4) as usize], "entry {entry}");
            assert_eq!(r.tail_len_from(i), r.tails.len() - tail_slots);
            tail_slots += tail.len();
        }
        // The arena holds the survivors' tails and nothing older.
        assert_eq!(r.tails.len(), tail_slots);
        assert_eq!(r.tail_len_from(r.len()), 0);
        assert_eq!(r.partition_point(|&e| e < 47), r.len() - 3);
    }

    #[test]
    fn unbounded_tail_ring_keeps_everything() {
        let mut r = TailRing::default();
        assert!(r.is_empty());
        push_numbered(&mut r, 0..1_000);
        assert_eq!((r.len(), r.dropped()), (1_000, 0));
        assert_eq!(r.get(0), (&0, &[][..]));
        assert_eq!(r.get(999), (&999, &[999, 999, 999][..]));
    }
}
