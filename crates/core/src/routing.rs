//! Routing geometry for the multi-level exchange operator (§4.4.2).
//!
//! The two-level exchange projects worker/partition IDs onto a grid
//! (`Hs(x) = (x % s, x / s)`) and exchanges first within rows, then within
//! columns. This module computes, for every round, *where each worker
//! sends data destined for partition `d`* and *which senders each worker
//! must wait for* — including the ragged case where `P` is not a perfect
//! square (the paper notes the approach "works also for non-quadratic
//! numbers of workers").
//!
//! Ragged-grid rule: in round 1 a worker in the (partial) last row whose
//! row lacks the target column redirects that data one row up — still the
//! correct column, so round 2 (within columns) delivers it; receivers
//! account for these extra senders deterministically.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

/// Ceiling integer square root.
pub fn isqrt_ceil(p: usize) -> usize {
    let mut s = (p as f64).sqrt().floor() as usize;
    while s * s < p {
        s += 1;
    }
    s
}

/// Ceiling integer k-th root.
pub fn kroot_ceil(p: usize, k: u32) -> usize {
    let mut s = (p as f64).powf(1.0 / f64::from(k)).floor() as usize;
    while s.checked_pow(k).is_none_or(|v| v < p) {
        s += 1;
    }
    s
}

/// Two-level grid over `total` workers with `side` columns per row.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    pub total: usize,
    pub side: usize,
}

impl Grid {
    pub fn new(total: usize) -> Grid {
        assert!(total > 0);
        Grid { total, side: isqrt_ceil(total) }
    }

    pub fn rows(&self) -> usize {
        self.total.div_ceil(self.side)
    }

    pub fn row(&self, w: usize) -> usize {
        w / self.side
    }

    pub fn col(&self, w: usize) -> usize {
        w % self.side
    }

    pub fn exists(&self, row: usize, col: usize) -> bool {
        col < self.side && row * self.side + col < self.total
    }

    fn id(&self, row: usize, col: usize) -> usize {
        row * self.side + col
    }

    /// Columns present in the (possibly partial) last row.
    fn last_row_cols(&self) -> usize {
        let rem = self.total % self.side;
        if rem == 0 {
            self.side
        } else {
            rem
        }
    }

    /// Round-1 target: the worker that should receive `sender`'s data
    /// destined for final partition `dest`.
    pub fn round1_target(&self, sender: usize, dest: usize) -> usize {
        debug_assert!(sender < self.total && dest < self.total);
        let row = self.row(sender);
        let dcol = self.col(dest);
        if self.exists(row, dcol) {
            self.id(row, dcol)
        } else {
            // Partial last row lacks this column: redirect one row up
            // (same column, so round 2 still delivers).
            debug_assert!(row > 0, "grid with one partial row cannot redirect");
            self.id(row - 1, dcol)
        }
    }

    /// Workers that `receiver` must wait for in round 1.
    pub fn round1_senders(&self, receiver: usize) -> Vec<usize> {
        let row = self.row(receiver);
        let col = self.col(receiver);
        let mut senders: Vec<usize> =
            (0..self.side).filter(|&c| self.exists(row, c)).map(|c| self.id(row, c)).collect();
        // Redirected senders from the partial last row land one row up.
        let last = self.rows() - 1;
        let partial = !self.total.is_multiple_of(self.side);
        if partial && row + 1 == last && col >= self.last_row_cols() {
            for c in 0..self.last_row_cols() {
                senders.push(self.id(last, c));
            }
        }
        senders
    }

    /// Round-2 target: the final destination itself (it always exists).
    pub fn round2_target(&self, _holder: usize, dest: usize) -> usize {
        debug_assert!(dest < self.total);
        dest
    }

    /// Workers that `receiver` must wait for in round 2: every existing
    /// member of its column.
    pub fn round2_senders(&self, receiver: usize) -> Vec<usize> {
        let col = self.col(receiver);
        (0..self.rows()).filter(|&r| self.exists(r, col)).map(|r| self.id(r, col)).collect()
    }

    /// Round-1 receivers of `sender`: the distinct round-1 targets over
    /// all possible destination columns.
    pub fn round1_receivers(&self, sender: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.side)
            .map(|dcol| {
                let row = self.row(sender);
                if self.exists(row, dcol) {
                    self.id(row, dcol)
                } else {
                    self.id(row - 1, dcol)
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Round-2 receivers of `holder`: its column members.
    pub fn round2_receivers(&self, holder: usize) -> Vec<usize> {
        self.round2_senders(holder)
    }
}

/// Mixed-radix digit decomposition for the k-level exchange over exactly
/// `side^k` workers.
#[derive(Clone, Copy, Debug)]
pub struct HyperGrid {
    pub total: usize,
    pub side: usize,
    pub levels: u32,
}

impl HyperGrid {
    /// Requires `total == side^levels` (paper-scale k-level runs use
    /// perfect powers; the ragged general case is handled by [`Grid`]).
    pub fn new(total: usize, levels: u32) -> HyperGrid {
        let side = kroot_ceil(total, levels);
        assert_eq!(
            side.pow(levels),
            total,
            "k-level exchange requires a perfect {levels}-th power of workers"
        );
        HyperGrid { total, side, levels }
    }

    pub fn digit(&self, w: usize, j: u32) -> usize {
        (w / self.side.pow(j)) % self.side
    }

    fn with_digit(&self, w: usize, j: u32, value: usize) -> usize {
        let base = self.side.pow(j);
        w - self.digit(w, j) * base + value * base
    }

    /// Digit routed in round `r` (0-based): most significant first, like
    /// the two-level order in the paper.
    pub fn round_digit(&self, round: u32) -> u32 {
        self.levels - 1 - round
    }

    /// Target of `sender`'s data for `dest` in round `r`.
    pub fn target(&self, sender: usize, dest: usize, round: u32) -> usize {
        let j = self.round_digit(round);
        self.with_digit(sender, j, self.digit(dest, j))
    }

    /// Group members (receivers == senders) of `w` in round `r`.
    pub fn group(&self, w: usize, round: u32) -> Vec<usize> {
        let j = self.round_digit(round);
        (0..self.side).map(|v| self.with_digit(w, j, v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn roots() {
        assert_eq!(isqrt_ceil(1), 1);
        assert_eq!(isqrt_ceil(16), 4);
        assert_eq!(isqrt_ceil(17), 5);
        assert_eq!(isqrt_ceil(250), 16);
        assert_eq!(kroot_ceil(64, 3), 4);
        assert_eq!(kroot_ceil(65, 3), 5);
    }

    /// Simulate the two-round delivery for every (sender, dest) pair and
    /// check each part ends at its destination, for ragged sizes too.
    fn check_grid_delivery(total: usize) {
        let g = Grid::new(total);
        for sender in 0..total {
            for dest in 0..total {
                let hop1 = g.round1_target(sender, dest);
                assert!(hop1 < total, "P={total}: round1 target {hop1} missing");
                assert_eq!(g.col(hop1), g.col(dest), "P={total}: wrong column after round 1");
                let hop2 = g.round2_target(hop1, dest);
                assert_eq!(hop2, dest, "P={total}: not delivered");
            }
        }
    }

    #[test]
    fn two_level_delivers_for_many_sizes() {
        for total in [1, 2, 3, 4, 5, 10, 16, 17, 31, 64, 100, 101, 250, 257] {
            check_grid_delivery(total);
        }
    }

    /// Receiver sender-lists must exactly match who actually sends to them.
    fn check_sender_lists(total: usize) {
        let g = Grid::new(total);
        // Round 1: who writes to whom.
        let mut actual1: HashMap<usize, HashSet<usize>> = HashMap::new();
        for sender in 0..total {
            for rcv in g.round1_receivers(sender) {
                actual1.entry(rcv).or_default().insert(sender);
            }
        }
        for rcv in 0..total {
            let expected: HashSet<usize> = g.round1_senders(rcv).into_iter().collect();
            let actual = actual1.remove(&rcv).unwrap_or_default();
            assert_eq!(expected, actual, "P={total}: round-1 senders of {rcv}");
        }
        // Round 2.
        let mut actual2: HashMap<usize, HashSet<usize>> = HashMap::new();
        for sender in 0..total {
            for rcv in g.round2_receivers(sender) {
                actual2.entry(rcv).or_default().insert(sender);
            }
        }
        for rcv in 0..total {
            let expected: HashSet<usize> = g.round2_senders(rcv).into_iter().collect();
            let actual = actual2.remove(&rcv).unwrap_or_default();
            assert_eq!(expected, actual, "P={total}: round-2 senders of {rcv}");
        }
    }

    #[test]
    fn sender_receiver_lists_agree() {
        for total in [1, 4, 5, 10, 17, 31, 100, 101, 250] {
            check_sender_lists(total);
        }
    }

    #[test]
    fn hypergrid_delivers_in_k_rounds() {
        for (total, levels) in [(64usize, 3u32), (81, 4), (16, 2), (125, 3)] {
            let h = HyperGrid::new(total, levels);
            for sender in 0..total {
                for dest in 0..total {
                    let mut at = sender;
                    for round in 0..levels {
                        at = h.target(at, dest, round);
                        assert!(at < total);
                    }
                    assert_eq!(at, dest, "P={total} k={levels}");
                }
            }
        }
    }

    #[test]
    fn hypergrid_groups_have_side_members() {
        let h = HyperGrid::new(64, 3);
        for w in 0..64 {
            for r in 0..3 {
                let grp = h.group(w, r);
                assert_eq!(grp.len(), 4);
                assert!(grp.contains(&w));
            }
        }
    }

    #[test]
    #[should_panic(expected = "perfect")]
    fn hypergrid_rejects_non_powers() {
        let _ = HyperGrid::new(60, 3);
    }

    #[test]
    fn paper_sizes_round_group_sizes() {
        // Footnote 14: 10k workers split into groups of 100.
        let g = Grid::new(10_000);
        assert_eq!(g.side, 100);
        assert_eq!(g.round1_senders(0).len(), 100);
        assert_eq!(g.round2_senders(0).len(), 100);
    }
}
