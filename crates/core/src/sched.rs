//! Event-driven stage scheduling: a stage of a
//! [`crate::stage::QueryDag`] launches the moment its own inputs have
//! completed.
//!
//! The driver runs one future per fleet over a shared [`StageBoard`] — no
//! topological level barrier, so a stage whose inputs finished early
//! never idles behind a slower sibling, and every wait points at one of
//! the stage's own inputs, a lower-indexed stage. A consumer launches
//! only once its producers' edges are fully written and every producer
//! has reported where it wrote each receiver's section, so no fleet is
//! billed for waiting on its inputs — only a host idles, bounded, for
//! its member's — and the board can hand each consumer worker the
//! exact address of its section from every sender
//! ([`StageBoard::addresses`]): the consumer's receive is a fetch, never
//! a discovery. A fused edge's consumer runs after its host in the same
//! invocation and launches with the chain's head, and so does a scan
//! co-hosted beside the chain; if the consumer reads another edge, that
//! edge's producers post their reports to its inbox and the host
//! addresses it: the board is not in that loop.
//!
//! Deadlock freedom under a [`crate::service::WorkerGate`] cap: a fleet
//! asks the gate for workers only after its head's inputs completed, a
//! completed fleet holds no lease, and a host waiting for another
//! fleet's reports waits a bounded time before it reports and lets its
//! lease go, so no fleet ever waits on the gate for good.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::cell::{Cell, RefCell};

use lambada_sim::sync::{Notified, Notify};

use crate::stage::QueryDag;
use crate::transport::InEdge;

/// Shared completion scoreboard one query's fleet futures coordinate
/// through. Single-threaded (the driver's futures all run on the
/// simulation executor), so plain cells plus an edge-triggered
/// [`Notify`] suffice: every state change calls `notify_all`, and
/// waiters re-check [`StageBoard::ready`] on each wake.
pub struct StageBoard {
    /// Each stage's inputs, in [`crate::stage::StageKind::inputs`] order.
    inputs: Vec<Vec<usize>>,
    /// `Some` once the stage completed: per receiver of its out-edge,
    /// where it finds that edge (empty for a stage whose out-edge no
    /// consumer reads through the transport).
    written: Vec<RefCell<Option<Vec<InEdge>>>>,
    failed: Cell<bool>,
    notify: Notify,
}

impl StageBoard {
    pub fn new(dag: &QueryDag) -> StageBoard {
        StageBoard {
            inputs: dag.stages.iter().map(|kind| kind.inputs()).collect(),
            written: dag.stages.iter().map(|_| RefCell::new(None)).collect(),
            failed: Cell::new(false),
            notify: Notify::new(),
        }
    }

    fn completed(&self, sid: usize) -> bool {
        self.written.get(sid).is_some_and(|w| w.borrow().is_some())
    }

    /// May stage `sid` launch — have all of its own inputs completed?
    /// (Sources always may.) Out-of-range stages never complete, which
    /// the static verifier rules out before execution.
    pub fn ready(&self, sid: usize) -> bool {
        self.inputs.get(sid).is_some_and(|inputs| inputs.iter().all(|&i| self.completed(i)))
    }

    /// Stage `sid` finished, its output edge is fully written, and
    /// `written[r]` is where receiver `r` finds it: each sender's section
    /// — the addresses of the first report per worker, the one the driver
    /// kept — and its range's boundaries, if any. Inline sections are
    /// views of that report's blob, shared by every address, never copied
    /// per receiver.
    pub fn complete(&self, sid: usize, written: Vec<InEdge>) {
        if let Some(cell) = self.written.get(sid) {
            *cell.borrow_mut() = Some(written);
        }
        self.notify.notify_all();
    }

    /// Where worker `receiver` of stage `sid` finds its sections: per
    /// input, one address per sender — O(senders) per input, never the
    /// whole table. Asked only once `sid` is [`Self::ready`], when every
    /// input completed with an entry per worker of `sid`'s fleet: an
    /// edge's partition count is its consumer fleet's size
    /// (`V-FLEET-004`). An input whose output no consumer reads through
    /// the transport addresses nothing.
    pub fn addresses(&self, sid: usize, receiver: usize) -> Vec<InEdge> {
        let address = |&input: &usize| -> InEdge {
            let written = self.written[input].borrow();
            written.as_ref().and_then(|w| w.get(receiver)).cloned().unwrap_or_default()
        };
        self.inputs[sid].iter().map(address).collect()
    }

    /// A stage failed: wake every waiter so pending stages abort
    /// instead of launching into a dead query.
    pub fn fail(&self) {
        self.failed.set(true);
        self.notify.notify_all();
    }

    pub fn failed(&self) -> bool {
        self.failed.get()
    }

    /// A future resolving at the next state change after this call.
    pub fn notified(&self) -> Notified {
        self.notify.notified()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{At, SectionAddr};
    use crate::verify::test_dags::{
        diamond_dag, scan_sort_dag, single_scan_dag, two_scan_join_dag, unbalanced_join_dag,
    };

    fn addr(attempt: u32, offset: u64) -> SectionAddr {
        SectionAddr { attempt, at: At::File { offset, len: 1 } }
    }

    /// A stage waits for exactly its own inputs — not a level barrier:
    /// in the unbalanced shape the final join may launch once the first
    /// join and scan 1 completed, whatever else sits in earlier levels.
    #[test]
    fn eager_waits_are_exactly_the_inputs() {
        let board = StageBoard::new(&unbalanced_join_dag());
        assert!(board.ready(0) && board.ready(1));
        assert!(!board.ready(3));
        board.complete(2, Vec::new());
        assert!(!board.ready(3), "still missing scan 1");
        board.complete(1, Vec::new());
        assert!(board.ready(3), "scan 0 is no input of the final join");
        assert!(!board.ready(2) && !board.ready(7), "join 2 reads scan 0; stage 7 is none");
        assert!(!board.failed());
        board.fail();
        assert!(board.failed());
    }

    /// In every DAG shape a source is ready on a fresh board, before any
    /// stage completed, and reads no edge.
    #[test]
    fn sources_wait_on_nothing_in_every_mode() {
        for dag in [
            single_scan_dag(),
            scan_sort_dag(),
            two_scan_join_dag(),
            diamond_dag(),
            unbalanced_join_dag(),
        ] {
            let board = StageBoard::new(&dag);
            for sid in (0..dag.stages.len()).filter(|&sid| dag.stages[sid].inputs().is_empty()) {
                assert!(board.ready(sid), "source {sid} waits on nothing");
                assert_eq!(board.addresses(sid, 0), Vec::<InEdge>::new());
            }
        }
    }

    /// Worker `r` of a consumer gets one address per sender of each of
    /// its inputs: entry `r` of every input's per-receiver table.
    #[test]
    fn the_board_addresses_each_receiver_from_its_inputs_tables() {
        let board = StageBoard::new(&diamond_dag());
        let edge = |senders| InEdge { senders, bounds: Vec::new() };
        // Scan 0: two senders, two receivers; join 1 reads it as both
        // of its inputs.
        let written = vec![edge(vec![addr(0, 0), addr(1, 0)]), edge(vec![addr(0, 1), addr(1, 1)])];
        board.complete(0, written);
        assert!(board.ready(1) && board.ready(2) && !board.ready(3));
        assert_eq!(board.addresses(1, 1), vec![edge(vec![addr(0, 1), addr(1, 1)]); 2]);
        assert_eq!(board.addresses(2, 0), vec![edge(vec![addr(0, 0), addr(1, 0)]); 2]);
        assert_eq!(board.addresses(0, 0), Vec::<InEdge>::new(), "a scan reads no edge");
    }
}
