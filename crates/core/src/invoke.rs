//! Worker invocation (§4.2).
//!
//! Invoking thousands of functions naively from the driver takes
//! `P / rate` seconds (Table 1: 220–290 inv/s with 128 threads), which
//! dominates interactive queries. The two-level strategy has the driver
//! invoke only ~√P *first-generation* workers, each carrying the payloads
//! of its ~√P second-generation children, which it invokes before doing
//! its own work — the last worker is initiated after ~2.5 s even for 4096
//! workers (Fig 5).
//!
//! The tree only pays for large fleets: a second-generation worker waits
//! for its parent's in-region invoke (16/81 s in `eu`) where the driver's
//! own call takes 36 ms. [`invoke_workers`] therefore prices both shapes
//! from Table 1 ([`predicted_last_initiation`]) and takes the faster one
//! for the fleet at hand; the crossover is near 100 workers in `eu`.
//!
//! A payload is sized at its addresses, the edge sections and the table
//! files it carries inline ([`WorkerPayload::edge_bytes`]), its
//! children's included; Lambda rejects one over its asynchronous cap. The
//! inline bytes cross the driver's one link ([`carry_inline`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::rc::Rc;

use lambada_sim::region::{Region, DRIVER_INVOKER_THREADS, INTRA_INVOKER_THREADS};
use lambada_sim::services::faas::FaasCaller;
use lambada_sim::sync::{join_all, Semaphore};
use lambada_sim::Cloud;

use crate::error::Result;
use crate::message::INLINE_EDGE_BYTES;
use crate::transport::ADDRESS_BYTES;
use crate::worker::WorkerPayload;

/// How the driver starts the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvocationStrategy {
    /// The driver invokes every worker itself with a thread pool.
    Direct,
    /// Two-level invocation tree (§4.2).
    TwoLevel,
}

/// Trace labels recorded during invocation (consumed by Fig 5).
pub mod labels {
    /// Driver-side: query start → this worker's invoke call initiated.
    pub const QUEUED: &str = "invoke_queued";
    /// Driver-side: invoke call initiated → accepted.
    pub const API: &str = "invoke_api";
    /// Worker-side: handler running → children all initiated.
    pub const SPAWN: &str = "invoke_children";
    /// Worker-side: zero-length marker when the handler starts running.
    pub const RUNNING: &str = "worker_running";
}

/// Move `bytes` of inline edge sections, riding a result message or an
/// invocation payload, over the driver's link, which every concurrent
/// transfer shares: a fleet's payloads take their total over the
/// driver's bandwidth. Nothing for none: a message or payload without
/// inline sections is timed as if the transfer did not exist.
pub async fn carry_inline(cloud: &Cloud, bytes: usize) {
    if bytes > 0 {
        cloud.driver_link().transfer(bytes as f64).await;
    }
}

/// Width and depth of the two-level tree over `p` workers: `n1 ≈ √P`
/// first-generation workers, each heading a group of at most `group`
/// (itself included), so driver and first generation perform ~√P
/// invocations each (§4.2).
pub(crate) fn tree_shape(p: usize) -> (usize, usize) {
    let n1 = crate::routing::isqrt_ceil(p).max(1);
    (n1, p.div_ceil(n1))
}

/// The inline file bytes each worker of a `workers`-worker fleet may
/// carry in its payload: [`INLINE_EDGE_BYTES`] shared over a tree group,
/// as the edge budgets share it ([`crate::transport::inline_budget`]), so
/// a first-generation payload with its children's stays within the
/// invoke cap whichever shape launches the fleet.
pub(crate) fn inline_file_budget(workers: usize) -> u64 {
    (INLINE_EDGE_BYTES / tree_shape(workers).1.max(1)) as u64
}

/// Predicted seconds from fleet launch until the last of `p` workers is
/// initiated under `strategy`, from Table 1's rates: the driver pushes
/// its share at the concurrent rate and the last call takes one
/// invocation latency; in the tree the last first-generation worker then
/// pushes its children at the in-region rate. Non-decreasing in `p`.
pub fn predicted_last_initiation(region: Region, p: usize, strategy: InvocationStrategy) -> f64 {
    let driver = |calls: usize| {
        calls as f64 / region.concurrent_invocation_rate()
            + region.single_invocation().as_secs_f64()
    };
    match strategy {
        InvocationStrategy::Direct => driver(p),
        InvocationStrategy::TwoLevel => {
            let (n1, group) = tree_shape(p);
            driver(n1)
                + group.saturating_sub(1) as f64 / region.intra_region_rate()
                + region.intra_invocation().as_secs_f64()
        }
    }
}

/// The shape that initiates the last of `p` workers sooner in `region`
/// (direct on a tie: it bills no worker time for invoking).
pub fn choose_strategy(region: Region, p: usize) -> InvocationStrategy {
    let predicted = |s| predicted_last_initiation(region, p, s);
    if predicted(InvocationStrategy::TwoLevel) < predicted(InvocationStrategy::Direct) {
        InvocationStrategy::TwoLevel
    } else {
        InvocationStrategy::Direct
    }
}

/// Invoke all `payloads` of `function` in the shape [`choose_strategy`]
/// picks for this fleet size. Returns when every *driver-side*
/// invocation has been accepted (second-generation invocations proceed
/// inside the first-generation workers).
pub async fn invoke_workers(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<WorkerPayload>,
) -> Result<()> {
    let strategy = choose_strategy(cloud.region(), payloads.len());
    invoke_workers_as(cloud, function, payloads, strategy).await
}

/// [`invoke_workers`] in an explicit shape: for what drives one shape on
/// purpose (Fig 5's comparison of the two, and tests that pin one).
pub async fn invoke_workers_as(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<WorkerPayload>,
    strategy: InvocationStrategy,
) -> Result<()> {
    match strategy {
        InvocationStrategy::Direct => {
            invoke_from_driver(cloud, function, payloads.into_iter().map(Rc::new).collect()).await
        }
        InvocationStrategy::TwoLevel => {
            let first_gen = build_tree(payloads);
            invoke_from_driver(cloud, function, first_gen).await
        }
    }
}

/// Group flat payloads into a two-level tree: ~√P first-generation
/// workers, each carrying the rest of its group as children.
pub fn build_tree(payloads: Vec<WorkerPayload>) -> Vec<Rc<WorkerPayload>> {
    let p = payloads.len();
    if p <= 1 {
        return payloads.into_iter().map(Rc::new).collect();
    }
    let (n1, group) = tree_shape(p);
    let mut out = Vec::with_capacity(n1);
    let mut iter = payloads.into_iter();
    loop {
        let chunk: Vec<WorkerPayload> = iter.by_ref().take(group).collect();
        if chunk.is_empty() {
            break;
        }
        let mut chunk = chunk.into_iter();
        let Some(mut head) = chunk.next() else { break };
        head.children = chunk.map(Rc::new).collect();
        out.push(Rc::new(head));
    }
    out
}

async fn invoke_from_driver(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<Rc<WorkerPayload>>,
) -> Result<()> {
    let caller = cloud.driver_invoker();
    let sem = Semaphore::new(DRIVER_INVOKER_THREADS);
    let start = cloud.handle.now();
    let mut joins = Vec::with_capacity(payloads.len());
    for payload in payloads {
        let caller = caller.clone();
        let sem = sem.clone();
        let cloud2 = cloud.clone();
        let function = function.to_string();
        joins.push(cloud.handle.spawn(async move {
            let _permit = sem.acquire(1).await;
            let wid = payload.worker_id;
            let initiated = cloud2.handle.now();
            cloud2.trace.record(wid, labels::QUEUED, start, initiated);
            carry_inline(&cloud2, payload.edge_bytes(0)).await;
            let bytes = payload.edge_bytes(ADDRESS_BYTES);
            let out = caller.invoke(&function, payload, bytes).await;
            cloud2.trace.record(wid, labels::API, initiated, cloud2.handle.now());
            out
        }));
    }
    for r in join_all(joins).await {
        r?;
    }
    Ok(())
}

/// Worker-side: invoke this worker's children with its own caller
/// (Table 1's intra-region rate) before starting its query fragment.
pub async fn invoke_children(
    cloud: &Cloud,
    caller: &FaasCaller,
    function: &str,
    me: u64,
    children: &[Rc<WorkerPayload>],
) -> Result<()> {
    if children.is_empty() {
        return Ok(());
    }
    let start = cloud.handle.now();
    let sem = Semaphore::new(INTRA_INVOKER_THREADS);
    let mut joins = Vec::with_capacity(children.len());
    for child in children {
        let caller = caller.clone();
        let sem = sem.clone();
        let function = function.to_string();
        let child = Rc::clone(child);
        joins.push(cloud.handle.spawn(async move {
            let _permit = sem.acquire(1).await;
            let bytes = child.edge_bytes(ADDRESS_BYTES);
            caller.invoke(&function, child, bytes).await
        }));
    }
    for r in join_all(joins).await {
        r?;
    }
    cloud.trace.record(me, labels::SPAWN, start, cloud.handle.now());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerTask;

    fn payloads(n: usize) -> Vec<WorkerPayload> {
        (0..n as u64)
            .map(|i| WorkerPayload {
                worker_id: i,
                attempt: 0,
                query: 0,
                task: WorkerTask::Noop,
                edges: Vec::new(),
                children: Vec::new(),
                result_queue: "q".to_string(),
            })
            .collect()
    }

    #[test]
    fn tree_covers_all_payloads_once() {
        for n in [1usize, 2, 5, 16, 100, 4096] {
            let tree = build_tree(payloads(n));
            let mut seen = Vec::new();
            for fg in &tree {
                seen.push(fg.worker_id);
                for c in &fg.children {
                    assert!(c.children.is_empty(), "tree depth is exactly two");
                    seen.push(c.worker_id);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn small_fleets_go_direct_and_large_ones_through_the_tree() {
        use InvocationStrategy::{Direct, TwoLevel};
        for region in Region::ALL {
            for p in [1usize, 8, 40] {
                assert_eq!(choose_strategy(region, p), Direct, "{region:?} P={p}");
            }
            for p in [320usize, 4096] {
                assert_eq!(choose_strategy(region, p), TwoLevel, "{region:?} P={p}");
            }
            // The crossover is a single point: once the tree wins it keeps
            // winning, and every predictor only grows with the fleet.
            let chosen = |p| predicted_last_initiation(region, p, choose_strategy(region, p));
            let mut tree_won = false;
            for p in 1..=4096usize {
                let tree = choose_strategy(region, p) == TwoLevel;
                assert!(tree || !tree_won, "{region:?}: back to direct at P={p}");
                tree_won = tree;
                for s in [Direct, TwoLevel] {
                    assert!(
                        predicted_last_initiation(region, p, s)
                            >= predicted_last_initiation(region, p - 1, s),
                        "{region:?} {s:?} shrinks at P={p}"
                    );
                }
                assert!(chosen(p) >= chosen(p - 1), "{region:?} chosen shrinks at P={p}");
            }
        }
        // Worked numbers for `eu`.
        let eu = |p, s| predicted_last_initiation(Region::Eu, p, s);
        assert!((eu(8, Direct) - 0.063).abs() < 1e-3);
        assert!((eu(320, Direct) - 1.12).abs() < 1e-2 && (eu(320, TwoLevel) - 0.50).abs() < 1e-2);
    }

    /// A tree group never shrinks as the fleet grows, so a file that fits
    /// the inline budget of a fleet fits it in every smaller one.
    #[test]
    fn the_inline_file_budget_never_grows_with_the_fleet() {
        for p in 2..=10_000usize {
            assert!(tree_shape(p).1 >= tree_shape(p - 1).1, "P={p}");
            assert!(inline_file_budget(p) <= inline_file_budget(p - 1), "P={p}");
        }
        assert_eq!(inline_file_budget(1), INLINE_EDGE_BYTES as u64);
    }

    #[test]
    fn tree_width_is_about_sqrt_p() {
        let tree = build_tree(payloads(4096));
        assert_eq!(tree.len(), 64);
        assert!(tree.iter().all(|fg| fg.children.len() == 63));
    }
}
