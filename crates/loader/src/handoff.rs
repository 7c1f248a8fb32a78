//! The sequenced hand-off between the wall-clock loader's stages: a
//! reorder window over epoch-order *positions*. The loader has two: one
//! from the fetch stage to the decode pool, one from the pool to the
//! assembler.
//!
//! Producers [`stage`](Handoff::stage) each position's value whenever it
//! is ready — in any order; fetchers first [`claim`](Handoff::claim) the
//! next position to read. The consumer side [`take`](Handoff::take)s
//! positions strictly in sequence: position `k + 1` is never handed on
//! before position `k`, however the producers raced. That ordering is
//! what makes an epoch deliver the [`crate::order::EpochOrder`] sequence
//! exactly at any thread count; a plain MPMC channel would deliver in
//! completion order instead.
//!
//! The window holds the `depth` positions from the next one to be taken;
//! a producer whose position lies beyond it parks in `stage`, holding its
//! one value, until the head moves. On the fetch side, with one fetcher
//! per window slot, that bounds the pipeline at `depth` reads in flight
//! and fewer than `2 × depth` fetched records waiting for the pool, even
//! while the head of the window sits behind a latency spike — and the
//! fetchers behind the spike keep reading for a full window before they
//! stall. The decode pool instead [waits for room](Handoff::wait_for_room)
//! before it starts on a position, so it never holds decoded images
//! outside the window.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

struct Window<T> {
    /// Positions in the epoch.
    total: usize,
    /// Next position a fetcher will claim.
    next_claim: usize,
    /// Next position to be taken; `slots[i]` stages position `head + i`,
    /// `None` until its value is staged.
    head: usize,
    slots: VecDeque<Option<T>>,
    closed: bool,
}

/// See the [module documentation](self).
pub(crate) struct Handoff<T> {
    /// The lock recovers from poison: every critical section below
    /// leaves the window consistent at each step, so a panic on a
    /// holder's thread cannot expose a half-updated window.
    window: Mutex<Window<T>>,
    /// Signalled when the head moves (or the hand-off closes): producers
    /// parked beyond the window wait here.
    room: Condvar,
    /// Signalled when the head position is staged (or the hand-off closes
    /// or drains): takers wait here.
    ready: Condvar,
}

impl<T> Handoff<T> {
    /// A hand-off over positions `0..total` with a window of `depth`
    /// (≥ 1) positions.
    pub(crate) fn new(total: usize, depth: usize) -> Self {
        let depth = depth.max(1).min(total.max(1));
        Self {
            window: Mutex::new(Window {
                total,
                next_claim: 0,
                head: 0,
                slots: std::iter::repeat_with(|| None).take(depth).collect(),
                closed: false,
            }),
            room: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    /// Claims the next epoch-order position. `None` once every position
    /// is claimed or the hand-off is closed. Never blocks.
    pub(crate) fn claim(&self) -> Option<usize> {
        let mut w = self.window.lock();
        if w.closed || w.next_claim >= w.total {
            return None;
        }
        let pos = w.next_claim;
        w.next_claim += 1;
        Some(pos)
    }

    /// Stages the value of a position, blocking while the position lies
    /// beyond the window. `false` when the hand-off is closed: the value
    /// is dropped.
    pub(crate) fn stage(&self, pos: usize, value: T) -> bool {
        let mut w = self.window.lock();
        loop {
            if w.closed {
                return false;
            }
            let head = w.head;
            if let Some(slot) = pos.checked_sub(head).and_then(|i| w.slots.get_mut(i)) {
                *slot = Some(value);
                if pos == head {
                    drop(w);
                    self.ready.notify_all();
                }
                return true;
            }
            w = self.room.wait(w);
        }
    }

    /// Blocks until position `pos` lies inside the window, so that
    /// staging it will not park. `false` when the hand-off is closed.
    pub(crate) fn wait_for_room(&self, pos: usize) -> bool {
        let mut w = self.window.lock();
        while !w.closed && pos >= w.head + w.slots.len() {
            w = self.room.wait(w);
        }
        !w.closed
    }

    /// Takes the next position in sequence with its staged value,
    /// blocking until that position is staged. `None` once every position
    /// was taken or the hand-off is closed.
    pub(crate) fn take(&self) -> Option<(usize, T)> {
        let mut w = self.window.lock();
        loop {
            if w.closed || w.head >= w.total {
                return None;
            }
            if let Some(value) = w.slots.front_mut().and_then(Option::take) {
                let pos = w.head;
                w.head += 1;
                w.slots.pop_front();
                w.slots.push_back(None);
                // Wake the other takers when their position is already
                // staged or the epoch just drained.
                let wake_takers = w.head >= w.total || matches!(w.slots.front(), Some(Some(_)));
                drop(w);
                self.room.notify_all();
                if wake_takers {
                    self.ready.notify_all();
                }
                return Some((pos, value));
            }
            w = self.ready.wait(w);
        }
    }

    /// Cancels the hand-off: staged values are dropped and every blocked
    /// or future call returns immediately (`None` from `claim`/`take`).
    pub(crate) fn close(&self) {
        let mut w = self.window.lock();
        w.closed = true;
        w.slots.clear();
        drop(w);
        self.room.notify_all();
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn takes_are_in_position_order_whatever_the_staging_order() {
        let h = Handoff::new(4, 4);
        let claimed: Vec<usize> = std::iter::from_fn(|| h.claim()).collect();
        assert_eq!(claimed, [0, 1, 2, 3], "then every position is claimed");
        for pos in [2, 3, 1, 0] {
            assert!(h.stage(pos, pos * 10));
        }
        let taken: Vec<(usize, usize)> = std::iter::from_fn(|| h.take()).collect();
        assert_eq!(taken, [(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn stage_beyond_the_window_parks_until_the_head_is_taken() {
        let h = Arc::new(Handoff::new(3, 2));
        assert_eq!([h.claim(), h.claim(), h.claim()], [Some(0), Some(1), Some(2)]);
        let (staged_tx, staged_rx) = mpsc::channel();
        let fetcher = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                assert!(h.stage(2, "c"));
                staged_tx.send(()).expect("test alive");
            })
        };
        // Position 1 staging does not move the window: the head is still out.
        assert!(h.stage(1, "b"));
        assert!(staged_rx.try_recv().is_err(), "position 2 lies beyond a window of 2");
        assert!(h.stage(0, "a"));
        assert_eq!(h.take(), Some((0, "a")));
        staged_rx.recv().expect("the head moved, so position 2 fits");
        fetcher.join().expect("fetcher exits");
        assert_eq!(h.take(), Some((1, "b")));
        assert_eq!(h.take(), Some((2, "c")));
        assert_eq!(h.take(), None, "drained");
    }

    #[test]
    fn waiting_for_room_returns_once_the_head_moves() {
        let h = Arc::new(Handoff::new(3, 1));
        assert!(h.wait_for_room(0), "the head always fits");
        assert_eq!([h.claim(), h.claim()], [Some(0), Some(1)]);
        let (room_tx, room_rx) = mpsc::channel();
        let waiter = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || room_tx.send(h.wait_for_room(1)).expect("test alive"))
        };
        assert!(h.stage(0, 'a'));
        assert!(room_rx.try_recv().is_err(), "position 1 lies beyond a window of 1");
        assert_eq!(h.take(), Some((0, 'a')));
        assert_eq!(room_rx.recv(), Ok(true), "the head moved, so position 1 fits");
        waiter.join().expect("waiter exits");
        h.close();
        assert!(!h.wait_for_room(2), "closed");
    }

    #[test]
    fn close_releases_parked_fetchers_and_takers() {
        let h = Arc::new(Handoff::<u8>::new(10, 1));
        assert_eq!([h.claim(), h.claim()], [Some(0), Some(1)]);
        let parked_fetcher = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || h.stage(1, 9))
        };
        let parked_taker = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || h.take())
        };
        h.close();
        assert!(!parked_fetcher.join().expect("fetcher released"), "its value was dropped");
        assert_eq!(parked_taker.join().expect("taker released"), None);
        assert!(!h.stage(0, 7), "a late completion is dropped, not staged");
        assert_eq!(h.take(), None);
        assert_eq!(h.claim(), None);
    }

    #[test]
    fn empty_epoch_yields_nothing() {
        let h = Handoff::<u8>::new(0, 8);
        assert_eq!(h.claim(), None);
        assert_eq!(h.take(), None);
    }
}
