//! Event-driven stage scheduling: *when* each stage of a
//! [`crate::stage::QueryDag`] may launch, decided per input edge.
//!
//! [`plan_schedule`] precomputes, per stage, the [`WaitEvent`]s that
//! must fire before that stage's fleet may acquire workers, and the
//! driver runs one future per stage over a shared [`StageBoard`] — no
//! topological level barrier, so a stage whose inputs finished early
//! never idles behind a slower sibling. Every wait points at one of the
//! stage's own inputs, hence at a lower-indexed stage. Two modes:
//!
//! * [`SchedMode::Eager`] — pure dependency scheduling: a stage waits
//!   for exactly its own inputs to complete. Consumers launch only once
//!   their inputs' edge data is fully written, so nothing is billed for
//!   waiting.
//! * [`SchedMode::Overlap`] — pipelined edges: a consumer may launch
//!   while its producer is still running, riding the exchange layer's
//!   existing poll-until-visible machinery (receivers LIST/probe until
//!   every sender's section appears, so correctness never depended on
//!   launch order). Overlap trades billed poll-wait for span — an
//!   overlapped consumer is metered while it waits (Kassing et al.,
//!   CIDR 2022) — so the edge is overlapped only when
//!   [`ComputeCostModel::overlap_pays`] predicts the producer's
//!   remaining runtime is small against the consumer's own work, and
//!   never across a sort-sample barrier (the producer fleet
//!   synchronizes on samples from *all* its members; a consumer
//!   launched early would burn its whole wait budget against the
//!   barrier). Which edges stayed conservative is visible in the plan.
//!   A fused edge ([`LaunchPlan::fused`]) is always a completion wait:
//!   its consumer runs after its producer, in the same invocation, and
//!   launches with the chain's head.
//!
//! Deadlock freedom under a [`crate::service::WorkerGate`] cap comes
//! from event ordering, not lease ordering: a stage's `Launched` event
//! fires only *after* its fleet's whole-fleet lease was granted, so an
//! overlapped consumer enqueues on the FIFO gate strictly behind every
//! producer it waits on. The gate's grant order therefore embeds the
//! dependency order, and whoever holds leases can always finish and
//! release — no cycle of fleets waiting on each other's permits can
//! form. [`crate::verify::verify_schedule`] checks the static
//! invariants (`V-SCHED-*`) before a single worker is invoked.

use std::cell::Cell;

use lambada_sim::sync::{Notified, Notify};

use crate::costmodel::ComputeCostModel;
use crate::driver::LaunchPlan;

/// When a stage's fleet may launch relative to its inputs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Launch when this stage's own inputs have completed.
    #[default]
    Eager,
    /// Launch while producers still run, where the cost model predicts
    /// the billed poll-wait stays under
    /// [`crate::costmodel::OVERLAP_POLL_HEADROOM`]; edges where it
    /// does not (and all sort-sample barrier edges) fall back to
    /// completion waits.
    Overlap,
}

/// One readiness condition of a stage: a fact about another stage that
/// must hold before the waiting stage's fleet may acquire workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitEvent {
    /// The stage's fleet finished and its output edge is fully written.
    Completed(usize),
    /// The stage's fleet holds its worker lease and is invoking — the
    /// overlapped-consumer trigger.
    Launched(usize),
}

impl WaitEvent {
    /// The stage this event is about.
    pub fn stage(&self) -> usize {
        match *self {
            WaitEvent::Completed(sid) | WaitEvent::Launched(sid) => sid,
        }
    }
}

/// A launch plan over one DAG: `waits[sid]` must all have fired before
/// stage `sid` launches. Produced by [`plan_schedule`], checked by
/// [`crate::verify::verify_schedule`], executed by the driver.
#[derive(Clone, Debug)]
pub struct SchedulePlan {
    pub mode: SchedMode,
    pub waits: Vec<Vec<WaitEvent>>,
}

impl SchedulePlan {
    /// Number of input edges the plan launches overlapped (consumer up
    /// while the producer still runs).
    pub fn overlapped_edges(&self) -> usize {
        self.waits.iter().flatten().filter(|w| matches!(w, WaitEvent::Launched(_))).count()
    }
}

/// Estimated bytes a stage has to chew through: the larger of what it
/// emits and what it ingests, so cheap pass-through stages still get
/// credited their input volume.
fn work_bytes(launch: &LaunchPlan<'_>, sid: usize) -> u64 {
    let ingest: u64 =
        launch.edges.dag.stages[sid].inputs().iter().map(|&i| launch.est_bytes[i]).sum();
    launch.est_bytes[sid].max(ingest)
}

/// Build the launch schedule for the DAG `launch` sizes, under `mode`.
/// Only [`SchedMode::Overlap`] prices edges, from the launch plan's
/// per-stage byte estimates and fleet sizes — the same numbers that
/// sized the fleets.
pub fn plan_schedule(
    launch: &LaunchPlan<'_>,
    costs: &ComputeCostModel,
    mode: SchedMode,
) -> SchedulePlan {
    let stages = &launch.edges.dag.stages;
    let waits = match mode {
        SchedMode::Eager => stages
            .iter()
            .map(|kind| kind.inputs().iter().map(|&i| WaitEvent::Completed(i)).collect())
            .collect(),
        SchedMode::Overlap => {
            let worker_secs = |sid: usize| {
                costs.stage_worker_seconds(work_bytes(launch, sid), launch.workers[sid])
            };
            stages
                .iter()
                .enumerate()
                .map(|(sid, kind)| {
                    let consumer_secs = worker_secs(sid);
                    kind.inputs()
                        .iter()
                        .map(|&p| {
                            // Never overlap across a sort-sample barrier:
                            // the producer fleet synchronizes on samples
                            // from all members before any data moves, so
                            // an early consumer only accrues billed wait.
                            // Nor across a fused edge: its consumer runs
                            // after its producer in the same invocation.
                            if !launch.edges.feeds_sort(p)
                                && !launch.fused[p]
                                && costs.overlap_pays(worker_secs(p), consumer_secs)
                            {
                                WaitEvent::Launched(p)
                            } else {
                                WaitEvent::Completed(p)
                            }
                        })
                        .collect()
                })
                .collect()
        }
    };
    SchedulePlan { mode, waits }
}

/// Shared launch/completion scoreboard one query's stage futures
/// coordinate through. Single-threaded (the driver's futures all run on
/// the simulation executor), so plain `Cell`s plus an edge-triggered
/// [`Notify`] suffice: every state change calls `notify_all`, and
/// waiters re-check their [`WaitEvent`]s on each wake.
pub struct StageBoard {
    launched: Vec<Cell<bool>>,
    completed: Vec<Cell<bool>>,
    failed: Cell<bool>,
    notify: Notify,
}

impl StageBoard {
    pub fn new(stages: usize) -> StageBoard {
        StageBoard {
            launched: (0..stages).map(|_| Cell::new(false)).collect(),
            completed: (0..stages).map(|_| Cell::new(false)).collect(),
            failed: Cell::new(false),
            notify: Notify::new(),
        }
    }

    /// Has this event fired? Out-of-range stage ids read as "never
    /// fires", which the static verifier rejects before execution.
    pub fn fired(&self, event: &WaitEvent) -> bool {
        match *event {
            WaitEvent::Completed(sid) => self.completed.get(sid).map(Cell::get).unwrap_or(false),
            WaitEvent::Launched(sid) => self.launched.get(sid).map(Cell::get).unwrap_or(false),
        }
    }

    /// Stage `sid` holds its worker lease and is invoking. Fired from
    /// inside the fleet runner *after* gate admission — that ordering
    /// is the deadlock-freedom invariant (see the module doc).
    pub fn launch(&self, sid: usize) {
        if let Some(c) = self.launched.get(sid) {
            c.set(true);
        }
        self.notify.notify_all();
    }

    /// Stage `sid` finished and its output edge is fully written.
    /// Implies launched, so a plan mixing event kinds on one producer
    /// can never re-wait a fact that already held.
    pub fn complete(&self, sid: usize) {
        if let Some(c) = self.launched.get(sid) {
            c.set(true);
        }
        if let Some(c) = self.completed.get(sid) {
            c.set(true);
        }
        self.notify.notify_all();
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
    use crate::stage::QueryDag;
    use crate::verify::test_dags::{
        diamond_dag, scan_sort_dag, single_scan_dag, sized, two_scan_join_dag, unbalanced_join_dag,
    };

    /// A launch plan nobody prices: eager never reads the estimates.
    fn unpriced(dag: &QueryDag) -> LaunchPlan<'_> {
        sized(dag, vec![0; dag.stages.len()], vec![1; dag.stages.len()])
    }

    fn costs() -> ComputeCostModel {
        ComputeCostModel::default()
    }

    #[test]
    fn eager_waits_are_exactly_the_inputs() {
        let dag = two_scan_join_dag();
        let plan = plan_schedule(&unpriced(&dag), &costs(), SchedMode::Eager);
        assert_eq!(plan.waits[0], Vec::new());
        assert_eq!(plan.waits[1], Vec::new());
        assert_eq!(plan.waits[2], vec![WaitEvent::Completed(0), WaitEvent::Completed(1)]);
        assert_eq!(plan.overlapped_edges(), 0);
        // Not a level barrier: in the diamond and the unbalanced shape a
        // stage still waits on its own inputs only, whatever else sits
        // in earlier topological levels.
        let plan = plan_schedule(&unpriced(&diamond_dag()), &costs(), SchedMode::Eager);
        assert_eq!(plan.waits[3], vec![WaitEvent::Completed(1), WaitEvent::Completed(2)]);
        let plan = plan_schedule(&unpriced(&unbalanced_join_dag()), &costs(), SchedMode::Eager);
        assert_eq!(plan.waits[2], vec![WaitEvent::Completed(0), WaitEvent::Completed(0)]);
        assert_eq!(plan.waits[3], vec![WaitEvent::Completed(2), WaitEvent::Completed(1)]);
    }

    #[test]
    fn overlap_prices_edges_and_falls_back_when_the_producer_is_heavy() {
        let dag = two_scan_join_dag();
        let workers = vec![1, 1, 1];
        // Tiny producers feeding a heavy consumer: both edges overlap.
        let est = vec![1 << 10, 1 << 10, 1 << 30];
        let plan = plan_schedule(&sized(&dag, est, workers.clone()), &costs(), SchedMode::Overlap);
        assert_eq!(plan.waits[2], vec![WaitEvent::Launched(0), WaitEvent::Launched(1)]);
        assert_eq!(plan.overlapped_edges(), 2);
        // A heavy producer beside a tiny one: only the tiny edge
        // overlaps — polling out the heavy scan would bill more wait
        // than the headroom allows.
        let est = vec![1 << 30, 1 << 10, 1 << 20];
        let plan = plan_schedule(&sized(&dag, est, workers), &costs(), SchedMode::Overlap);
        assert_eq!(plan.waits[2], vec![WaitEvent::Completed(0), WaitEvent::Launched(1)]);
    }

    #[test]
    fn overlap_never_crosses_a_sort_sample_barrier() {
        let dag = scan_sort_dag();
        // Estimates that would otherwise scream "overlap".
        let est = vec![1, 1 << 30];
        let plan = plan_schedule(&sized(&dag, est, vec![1, 1]), &costs(), SchedMode::Overlap);
        assert_eq!(plan.waits[1], vec![WaitEvent::Completed(0)]);
        assert_eq!(plan.overlapped_edges(), 0);
    }

    #[test]
    fn sources_wait_on_nothing_in_every_mode() {
        let dag = single_scan_dag();
        for mode in [SchedMode::Eager, SchedMode::Overlap] {
            let plan = plan_schedule(&unpriced(&dag), &costs(), mode);
            assert_eq!(plan.waits, vec![Vec::new()]);
        }
    }

    #[test]
    fn board_fires_events_and_complete_implies_launched() {
        let board = StageBoard::new(2);
        assert!(!board.fired(&WaitEvent::Launched(0)));
        board.launch(0);
        assert!(board.fired(&WaitEvent::Launched(0)));
        assert!(!board.fired(&WaitEvent::Completed(0)));
        board.complete(1);
        assert!(board.fired(&WaitEvent::Launched(1)));
        assert!(board.fired(&WaitEvent::Completed(1)));
        assert!(!board.failed());
        board.fail();
        assert!(board.failed());
        // Out-of-range events never fire (the verifier rejects them
        // statically; the board just stays safe).
        assert!(!board.fired(&WaitEvent::Completed(7)));
    }
}
