//! The one bounded event buffer behind the trace and audit streams.
//!
//! Contract: entries are pushed in completion order and numbered by an
//! absolute sequence (0, 1, 2, … since creation). A bounded ring that
//! fills discards its oldest half in one memmove — amortized O(1) per
//! push, and the survivors stay one contiguous slice. Only a *prefix*
//! is ever dropped, so anything that holds for a completion-ordered
//! stream (ordering, span nesting) holds for the surviving suffix, and
//! sequence numbers handed out earlier keep meaning the same entry.

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
    /// half of it is always at least one entry).
    pub fn with_capacity(capacity: usize) -> Self {
        Ring {
            capacity: Some(capacity.max(2)),
            ..Ring::default()
        }
    }

    /// Appends `item`, first discarding the oldest half if full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if let Some(cap) = self.capacity {
            if self.items.len() >= cap {
                self.items.drain(..cap / 2);
                self.dropped += (cap / 2) as u64;
            }
        }
        self.items.push(item);
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
}
