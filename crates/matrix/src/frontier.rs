//! The epoch-stamped dense frontier behind the σ kernel.
//!
//! A `Vec<bool>` work list rescanned end-to-end every round costs `O(n)`
//! bookkeeping per round even when the active frontier is ten rows out of
//! 10⁵.  A [`Frontier`] keeps the membership test *and* the member list:
//!
//! * `stamp[i] == generation` means row `i` is in the current frontier, so
//!   insertion dedups in `O(1)` without clearing anything;
//! * `queue` holds exactly the members, so draining a round's work list is
//!   `O(|frontier|)`, not `O(n)`;
//! * advancing to the next round is a generation bump — no `fill(false)`
//!   sweep, no allocation (both vectors are reused for the lifetime of the
//!   iteration).
//!
//! Determinism: the work list handed to the σ kernel is the *sorted*
//! queue ([`Frontier::sorted`]), so the rows a round recomputes — and the
//! order changed rows are applied in — are a pure function of the dirty
//! set, independent of insertion order and thread count.

/// A reusable dense work queue over the node ids `0..n` with O(1)
/// dedup-insert and O(|frontier|) drain.
#[derive(Debug, Clone)]
pub struct Frontier {
    /// `stamp[i] == generation` ⇔ `i` is currently enqueued.
    stamp: Vec<u32>,
    /// The enqueued ids, in insertion order until [`Frontier::sorted`].
    queue: Vec<usize>,
    /// Current epoch; bumped by [`Frontier::clear`] instead of rewriting
    /// `stamp`.
    generation: u32,
}

impl Frontier {
    /// An empty frontier over `n` nodes.
    pub fn new(n: usize) -> Frontier {
        Frontier {
            stamp: vec![0; n],
            queue: Vec::new(),
            generation: 1,
        }
    }

    /// The frontier holding every row `0..n` — the start of a full σ
    /// iteration from an arbitrary state.
    pub fn full(n: usize) -> Frontier {
        Frontier {
            stamp: vec![1; n],
            queue: (0..n).collect(),
            generation: 1,
        }
    }

    /// The frontier holding exactly the rows marked in `mask` — the start
    /// of a reconvergence from a previous fixed point (see
    /// [`crate::incremental::dirty_rows_after_change`]).
    pub fn from_mask(mask: &[bool]) -> Frontier {
        let mut f = Frontier::new(mask.len());
        for i in (0..mask.len()).filter(|&i| mask[i]) {
            f.insert(i);
        }
        f
    }

    /// The number of nodes the frontier ranges over.
    pub fn node_count(&self) -> usize {
        self.stamp.len()
    }

    /// The number of enqueued rows.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Is the frontier empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Is row `i` currently enqueued?
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.generation
    }

    /// Enqueue row `i` unless it already is; returns whether it was
    /// inserted.  O(1) either way.
    pub fn insert(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.generation {
            return false;
        }
        self.stamp[i] = self.generation;
        self.queue.push(i);
        true
    }

    /// Empty the frontier in O(1) by advancing the epoch (the stamps are
    /// only rewritten on the once-per-2³²-rounds wraparound).
    pub fn clear(&mut self) {
        self.queue.clear();
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Sort the queue ascending in place and return it as the round's work
    /// list.  Sorting makes the work list independent of insertion order,
    /// so the rows a round recomputes and the order its changed rows are
    /// applied in are a pure function of the frontier's contents.
    pub fn sorted(&mut self) -> &[usize] {
        self.queue.sort_unstable();
        &self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_dedups_and_sorted_orders() {
        let mut f = Frontier::new(8);
        assert!(f.is_empty());
        assert!(f.insert(5));
        assert!(f.insert(2));
        assert!(!f.insert(5), "duplicate insert is a no-op");
        assert!(f.insert(7));
        assert_eq!(f.len(), 3);
        assert!(f.contains(2) && f.contains(5) && f.contains(7));
        assert!(!f.contains(0));
        assert_eq!(f.sorted(), &[2, 5, 7]);
    }

    #[test]
    fn full_and_mask_starts_enqueue_exactly_their_rows() {
        let mut all = Frontier::full(4);
        assert_eq!(all.sorted(), &[0, 1, 2, 3]);
        assert!(!all.insert(2), "a full frontier dedups");
        let mut some = Frontier::from_mask(&[false, true, false, true]);
        assert_eq!(some.sorted(), &[1, 3]);
        assert_eq!(some.node_count(), 4);
    }

    #[test]
    fn clear_is_an_epoch_bump() {
        let mut f = Frontier::new(4);
        f.insert(1);
        f.insert(3);
        f.clear();
        assert!(f.is_empty());
        assert!(!f.contains(1) && !f.contains(3));
        // Stale stamps from the previous epoch must not block re-insertion.
        assert!(f.insert(3));
        assert_eq!(f.sorted(), &[3]);
    }

    #[test]
    fn generation_wraparound_resets_stamps() {
        let mut f = Frontier::new(3);
        f.generation = u32::MAX - 1;
        f.insert(0);
        f.clear(); // → u32::MAX
        f.insert(1);
        f.clear(); // wraps: stamps rewritten, generation back to 1
        assert_eq!(f.generation, 1);
        assert!(f.is_empty());
        assert!(f.insert(0) && f.insert(1) && f.insert(2));
        assert_eq!(f.sorted(), &[0, 1, 2]);
    }

    #[test]
    fn membership_survives_many_clears() {
        let mut f = Frontier::new(2);
        for round in 0..1000 {
            assert!(f.insert(round % 2));
            assert_eq!(f.len(), 1);
            f.clear();
        }
    }
}
