//! Asynchronous, batched, de-duplicated PriorityPulls (§3.3).
//!
//! When a client reads a key the target owns but hasn't received yet, the
//! target must fetch it from the source *now* — but naïvely issuing one
//! synchronous RPC per miss would stall worker cores, duplicate requests
//! for hot keys, and delay source load reduction. The batcher implements
//! the paper's solution:
//!
//! - misses **accumulate** while one PriorityPull is in flight; the next
//!   batch is issued when the current one completes;
//! - **de-duplication** guarantees the source never serves a key more
//!   than once after migration starts — a hash in flight or already
//!   pending is dropped;
//! - hashes the source returns nothing for are remembered as **absent**
//!   so repeated reads of missing keys become `NotFound` instead of an
//!   endless retry loop.

use rocksteady_common::{FxHashSet, KeyHash};

use crate::config::RetryCause;

/// What the server does with a client read that missed a record this
/// target owns (§3.3): the migration manager's whole answer, which the
/// server only carries out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissAnswer {
    /// Tell the client to retry after the cause's hint: the record is on
    /// its way, in a batched PriorityPull or with the bulk Pulls.
    Retry(RetryCause),
    /// Block the reading worker on its own single-key PriorityPull to
    /// the source, and answer once it returns (Figure 13b/14b).
    Block,
    /// The key is known not to exist.
    NotFound,
}

/// The target-side PriorityPull state machine.
#[derive(Debug, Default)]
pub struct PriorityPullBatcher {
    /// Hashes requested by clients, waiting to be sent.
    pending: Vec<KeyHash>,
    /// Membership mirror of `pending` for O(1) de-dup.
    pending_set: FxHashSet<KeyHash>,
    /// Hashes in the currently-in-flight PriorityPull.
    in_flight: FxHashSet<KeyHash>,
    /// Hashes the source answered with no record (deleted/never existed).
    absent: FxHashSet<KeyHash>,
    /// Hashes whose record has come back and is being (or has been)
    /// replayed: a re-miss in the response->replay window must NOT
    /// re-request — "the source never serves a request for a key more
    /// than once after migration starts" (§3.3).
    served_set: FxHashSet<KeyHash>,
    /// Unique records priority-pulled (statistics).
    served: u64,
}

impl PriorityPullBatcher {
    /// Creates an empty batcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a client miss on `hash`.
    ///
    /// Returns what to tell the client, and internally queues the hash
    /// for the next batch unless it is already pending, in flight, or
    /// known-absent — "de-duplication ensures that PriorityPulls never
    /// request the same key hash from the source twice" (§3.3).
    pub fn on_miss(&mut self, hash: KeyHash) -> MissAnswer {
        if self.absent.contains(&hash) {
            return MissAnswer::NotFound;
        }
        if !self.in_flight.contains(&hash)
            && !self.served_set.contains(&hash)
            && self.pending_set.insert(hash)
        {
            self.pending.push(hash);
        }
        MissAnswer::Retry(RetryCause::MissPriorityPull)
    }

    /// Takes the next batch to send (up to `max` hashes), if no
    /// PriorityPull is currently in flight — the paper keeps exactly one
    /// outstanding, accumulating new hashes meanwhile (§3.3).
    pub fn next_batch(&mut self, max: usize) -> Option<Vec<KeyHash>> {
        if !self.in_flight.is_empty() || self.pending.is_empty() {
            return None;
        }
        let take = self.pending.len().min(max);
        let batch: Vec<KeyHash> = self.pending.drain(..take).collect();
        for h in &batch {
            self.pending_set.remove(h);
            self.in_flight.insert(*h);
        }
        Some(batch)
    }

    /// Processes the response to the in-flight batch: `returned` is the
    /// set of hashes the source had records for. Hashes it did not return
    /// are recorded as absent.
    pub fn on_response(&mut self, returned: impl IntoIterator<Item = KeyHash>) {
        let returned: FxHashSet<KeyHash> = returned.into_iter().collect();
        for h in self.in_flight.drain() {
            if returned.contains(&h) {
                self.served += 1;
                self.served_set.insert(h);
            } else {
                self.absent.insert(h);
            }
        }
    }

    /// Whether nothing is pending or in flight (a completion condition
    /// for the whole migration).
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.in_flight.is_empty()
    }

    /// Unique records served through PriorityPulls so far.
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miss the batcher covered: retry after one PriorityPull round
    /// trip.
    const QUEUED: MissAnswer = MissAnswer::Retry(RetryCause::MissPriorityPull);

    #[test]
    fn miss_batches_and_dedups() {
        let mut b = PriorityPullBatcher::new();
        assert_eq!(b.on_miss(1), QUEUED);
        assert_eq!(b.on_miss(2), QUEUED);
        assert_eq!(b.on_miss(1), QUEUED, "duplicate miss");
        let batch = b.next_batch(16).unwrap();
        assert_eq!(batch, vec![1, 2], "dedup kept one copy of hash 1");
    }

    #[test]
    fn only_one_batch_in_flight() {
        let mut b = PriorityPullBatcher::new();
        b.on_miss(1);
        let first = b.next_batch(16).unwrap();
        assert_eq!(first, vec![1]);
        // New misses accumulate while in flight...
        b.on_miss(2);
        b.on_miss(3);
        assert!(b.next_batch(16).is_none(), "one outstanding at a time");
        // ...and a miss on the in-flight hash is NOT re-queued.
        b.on_miss(1);
        b.on_response(vec![1]);
        let second = b.next_batch(16).unwrap();
        assert_eq!(second, vec![2, 3], "hash 1 never requested twice");
    }

    #[test]
    fn batch_size_capped() {
        let mut b = PriorityPullBatcher::new();
        for h in 0..40u64 {
            b.on_miss(h);
        }
        let batch = b.next_batch(16).unwrap();
        assert_eq!(batch.len(), 16);
        b.on_response(batch);
        assert_eq!(b.next_batch(16).unwrap().len(), 16);
    }

    #[test]
    fn served_hashes_are_never_re_requested() {
        // §3.3's strongest claim: the source serves each key at most
        // once. A re-miss in the response->replay window must not
        // produce a second request.
        let mut b = PriorityPullBatcher::new();
        b.on_miss(9);
        let batch = b.next_batch(16).unwrap();
        b.on_response(batch);
        // The record is back but not yet replayed; a racing read misses.
        assert_eq!(b.on_miss(9), QUEUED);
        assert!(b.next_batch(16).is_none(), "hash 9 requested twice");
        assert!(b.is_idle());
    }

    #[test]
    fn missing_records_become_not_found() {
        let mut b = PriorityPullBatcher::new();
        b.on_miss(7);
        b.on_miss(8);
        let batch = b.next_batch(16).unwrap();
        assert_eq!(batch.len(), 2);
        // Source only has hash 7; 8 was deleted.
        b.on_response(vec![7]);
        assert_eq!(b.on_miss(8), MissAnswer::NotFound);
        assert_eq!(b.on_miss(7), QUEUED, "7 may simply be racing replay");
        assert_eq!(b.served(), 1);
        assert_eq!(b.absent.len(), 1);
    }

    #[test]
    fn idle_tracking() {
        let mut b = PriorityPullBatcher::new();
        assert!(b.is_idle());
        b.on_miss(1);
        assert!(!b.is_idle());
        let batch = b.next_batch(16).unwrap();
        assert!(!b.is_idle());
        b.on_response(batch);
        assert!(b.is_idle());
    }
}
