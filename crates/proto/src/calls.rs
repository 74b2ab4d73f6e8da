//! The one table of outstanding calls an actor has made.
//!
//! Every actor that sends requests keeps one [`Calls`]: it allocates the
//! RPC ids (the first is 1), remembers where each call went (so a crash
//! notice can fail it over) and what its answer means to the caller,
//! and, for a call opened with a backstop, when to give up on it.
//!
//! Nothing cancels a simulator event, so the caller keeps one timer for
//! all its backstops: it arms the timer when it opens a backstopped call
//! while [`Calls::next_due`] is `None`, and on each firing takes
//! [`Calls::due`] and re-arms for `next_due` if that is `Some`. A call
//! that ends before its deadline leaves the deadline queued until a
//! sweep reaches it, so the timer is pending exactly while the queue is
//! not empty. Backstops are one constant per caller and calls are
//! opened in time order, so the queue is sorted as it is pushed.

use std::collections::VecDeque;

use rocksteady_common::{FxHashMap, Nanos, RpcId};

/// Outstanding calls to destinations `D`, each carrying what its answer
/// means, `P`. Iteration and fail-over run in id (= issue) order.
#[derive(Debug)]
pub struct Calls<D, P> {
    last: u64,
    open: FxHashMap<RpcId, (D, P)>,
    /// `(deadline, call)` of each backstopped call not yet swept, oldest
    /// first.
    deadlines: VecDeque<(Nanos, RpcId)>,
}

impl<D, P> Default for Calls<D, P> {
    fn default() -> Self {
        Calls {
            last: 0,
            open: FxHashMap::default(),
            deadlines: VecDeque::new(),
        }
    }
}

impl<D: Copy + PartialEq, P> Calls<D, P> {
    /// Opens a call to `dst` whose answer means `p`. With a `backstop`,
    /// the call comes [`due`](Calls::due) that long after `now` unless
    /// it ends first.
    pub fn open(&mut self, dst: D, p: P, backstop: Option<Nanos>, now: Nanos) -> RpcId {
        let id = self.id();
        self.open.insert(id, (dst, p));
        if let Some(after) = backstop {
            self.deadlines.push_back((now + after, id));
        }
        id
    }

    /// An id for a request whose answer no one reads; nothing is opened.
    pub fn id(&mut self) -> RpcId {
        self.last += 1;
        RpcId(self.last)
    }

    /// The answer to `rpc` arrived: what it means, or `None` if the call
    /// already ended (a late or duplicate answer, or one never asked).
    pub fn complete(&mut self, rpc: RpcId) -> Option<P> {
        self.open.remove(&rpc).map(|(_, p)| p)
    }

    /// Ends and returns, oldest first, every open call whose deadline is
    /// at or before `now`, and drops the queued deadlines of calls that
    /// ended before. Stops at the first open call not yet due.
    pub fn due(&mut self, now: Nanos) -> Vec<(RpcId, P)> {
        let mut due = Vec::new();
        while let Some(&(at, id)) = self.deadlines.front() {
            let live = self.open.contains_key(&id);
            if live && at > now {
                break;
            }
            self.deadlines.pop_front();
            if let Some((_, p)) = self.open.remove(&id) {
                due.push((id, p));
            }
        }
        due
    }

    /// The oldest queued deadline, which the caller's one timer is armed
    /// for; `None` when no deadline is queued. Right after
    /// [`due`](Calls::due) it is the oldest open call's.
    pub fn next_due(&self) -> Option<Nanos> {
        self.deadlines.front().map(|&(at, _)| at)
    }

    /// `dst` died: ends and returns every call open to it, in ascending
    /// id (= issue) order. Callers send and draw randomness while
    /// walking the result, so its order is the calls' own.
    pub fn fail_over(&mut self, dst: D) -> Vec<(RpcId, P)> {
        let mut doomed: Vec<RpcId> = self
            .open
            .iter()
            .filter(|(_, (d, _))| *d == dst)
            .map(|(id, _)| *id)
            .collect();
        doomed.sort_unstable();
        doomed
            .into_iter()
            .map(|id| (id, self.open.remove(&id).expect("collected above").1))
            .collect()
    }

    /// What each open call means, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        let mut open: Vec<_> = self.open.iter().collect();
        open.sort_unstable_by_key(|&(id, _)| *id);
        open.into_iter().map(|(_, (_, p))| p)
    }

    /// Whether no call is open.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_over_returns_the_dead_peers_calls_in_issue_order() {
        let mut t = Calls::default();
        // Enough calls that hash-bucket order and issue order differ.
        let ids: Vec<RpcId> = (0..200u64).map(|i| t.open(i % 3, i, None, 0)).collect();
        assert_eq!(ids[0], RpcId(1), "ids start at 1 and count up");
        let doomed = t.fail_over(1);
        assert_eq!(doomed.len(), 67);
        assert!(doomed.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(doomed.iter().all(|&(_, i)| i % 3 == 1));
        // Failed-over calls are gone; the other peers' are untouched.
        assert!(t.fail_over(1).is_empty());
        assert!(t.complete(ids[1]).is_none());
        assert_eq!(t.complete(ids[0]), Some(0));
    }

    #[test]
    fn late_and_duplicate_answers_are_ignored() {
        let mut t = Calls::default();
        let id = t.open(4, 17, None, 0);
        assert!(t.complete(RpcId(id.0 + 1)).is_none(), "never issued");
        assert_eq!(t.complete(id), Some(17), "first answer");
        assert!(t.complete(id).is_none(), "duplicate");
    }

    #[test]
    fn a_live_call_comes_due_once_at_its_deadline() {
        let mut t = Calls::default();
        let a = t.open(0, 'a', Some(10), 0);
        let b = t.open(0, 'b', Some(10), 5);
        assert_eq!(t.next_due(), Some(10));
        assert!(t.due(9).is_empty(), "nothing due before its deadline");
        assert_eq!(t.due(10), [(a, 'a')]);
        assert_eq!(t.next_due(), Some(15), "the oldest live deadline");
        assert!(t.complete(a).is_none(), "a due call has ended");
        assert!(t.due(10).is_empty(), "returned once");
        assert_eq!(t.due(20), [(b, 'b')]);
        assert_eq!((t.next_due(), t.is_empty()), (None, true));
    }

    #[test]
    fn ended_calls_are_swept_from_the_front() {
        let mut t = Calls::default();
        let a = t.open(0, 'a', Some(10), 0);
        let b = t.open(0, 'b', Some(10), 1);
        let c = t.open(0, 'c', Some(10), 2);
        t.complete(a);
        t.complete(b);
        // An ended call's deadline stays queued: the one timer stays
        // armed for it until a sweep.
        assert_eq!(t.next_due(), Some(10));
        assert!(t.due(5).is_empty());
        assert_eq!(t.next_due(), Some(12), "the ended fronts are swept");
        assert_eq!(t.due(12), [(c, 'c')]);
        assert_eq!(t.next_due(), None);
    }

    #[test]
    fn an_id_opens_nothing() {
        let mut t: Calls<u8, ()> = Calls::default();
        let a = t.id();
        let b = t.open(1, (), None, 0);
        assert_eq!((a, b), (RpcId(1), RpcId(2)), "one counter");
        assert!(t.complete(a).is_none());
        assert_eq!(t.fail_over(1).len(), 1);
        assert!(t.is_empty() && t.next_due().is_none());
        assert!(t.due(u64::MAX).is_empty());
    }
}
