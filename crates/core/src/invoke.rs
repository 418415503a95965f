//! Worker invocation (§4.2).
//!
//! Invoking thousands of functions naively from the driver takes
//! `P / rate` seconds (Table 1: 220–290 inv/s with 128 threads), which
//! dominates interactive queries. The two-level strategy has the driver
//! invoke only *first-generation* workers, each carrying the payloads of
//! its second-generation children, which it invokes while it does its
//! own work — the last worker is initiated after ~2.5 s even for 4096
//! workers (Fig 5). The paper's first generation is ~√P wide; here the
//! width is the one Table 1's rates initiate the last worker soonest at,
//! searched upward from √P ([`launch_shape`]): the driver's rate is
//! about four times a worker's, so a wider first generation with smaller
//! groups wins (32 × 10 at P = 320 in `eu`, not 18 × 18).
//!
//! The tree deals the heaviest payloads — by the bytes each scan worker
//! is predicted to read — to the first generation, which the driver
//! starts first, then to the children's slots round-robin, so the
//! workers on a query's critical path start soonest.
//!
//! The tree only pays for large fleets: a second-generation worker waits
//! for its parent's in-region invoke (16/81 s in `eu`) where the driver's
//! own call takes 36 ms. [`invoke_workers`] therefore prices both shapes
//! from Table 1 ([`predicted_last_initiation`]) and takes the faster one
//! for the fleet at hand; the crossover is near 90 workers in `eu`.
//!
//! A payload is sized at its addresses, the edge sections and the table
//! files it carries inline ([`WorkerPayload::edge_bytes`]), its
//! children's included; Lambda rejects one over its asynchronous cap. The
//! inline bytes cross the driver's link ([`carry_inline`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::rc::Rc;

use lambada_sim::region::{Region, DRIVER_INVOKER_THREADS, INTRA_INVOKER_THREADS};
use lambada_sim::services::faas::FaasCaller;
use lambada_sim::sync::{join_all, try_join_all, Semaphore};
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

/// The paper's two-level tree over `p` workers: `n1 ≈ √P`
/// first-generation workers, each heading a group of at most `group`
/// (itself included). The launched tree ([`launch_shape`]) is never
/// narrower, so its groups are never larger: this group bounds what one
/// first-generation payload carries, for the inline budgets here and in
/// [`crate::transport::inline_budget`].
pub(crate) fn tree_shape(p: usize) -> (usize, usize) {
    let n1 = crate::routing::isqrt_ceil(p).max(1);
    (n1, p.div_ceil(n1))
}

/// The tree the driver launches over `p` workers in `region`: the
/// first-generation width `n1` that minimises `n1 / concurrent rate +
/// (⌈P/n1⌉ − 1) / intra-region rate` — the driver's share, then the
/// largest group's children (Table 1) — searched upward from
/// `tree_shape`'s `√P` (the narrower on a tie), and its group
/// `⌈P/n1⌉`, at most `tree_shape`'s, which the inline budgets are sized
/// by. The search stops where the driver's share alone is no faster
/// than the best so far.
pub fn launch_shape(region: Region, p: usize) -> (usize, usize) {
    let driver = |n1: usize| n1 as f64 / region.concurrent_invocation_rate();
    let (mut best, mut best_secs) = (tree_shape(p), f64::INFINITY);
    for n1 in best.0..=p.max(best.0) {
        if driver(n1) >= best_secs {
            break;
        }
        let group = p.div_ceil(n1);
        let secs = driver(n1) + group.saturating_sub(1) as f64 / region.intra_region_rate();
        if secs < best_secs {
            (best, best_secs) = ((n1, group), secs);
        }
    }
    best
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
/// invocation latency; in the tree ([`launch_shape`]) the last
/// first-generation worker then pushes its children at the in-region
/// rate. Non-decreasing in `p`.
pub fn predicted_last_initiation(region: Region, p: usize, strategy: InvocationStrategy) -> f64 {
    let driver = |calls: usize| {
        calls as f64 / region.concurrent_invocation_rate()
            + region.single_invocation().as_secs_f64()
    };
    match strategy {
        InvocationStrategy::Direct => driver(p),
        InvocationStrategy::TwoLevel => {
            let (n1, group) = launch_shape(region, p);
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
/// picks for this fleet size, payload `i` weighing `weights[i]` in the
/// tree ([`build_tree`]). Returns when every *driver-side* invocation has
/// been accepted (second-generation invocations proceed inside the
/// first-generation workers).
pub async fn invoke_workers(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<WorkerPayload>,
    weights: &[u64],
) -> Result<()> {
    let strategy = choose_strategy(cloud.region(), payloads.len());
    launch(cloud, function, payloads, weights, strategy).await
}

/// [`invoke_workers`] in an explicit shape, every payload weighing the
/// same: for what drives one shape on purpose (Fig 5's comparison of the
/// two, and tests that pin one).
pub async fn invoke_workers_as(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<WorkerPayload>,
    strategy: InvocationStrategy,
) -> Result<()> {
    launch(cloud, function, payloads, &[], strategy).await
}

async fn launch(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<WorkerPayload>,
    weights: &[u64],
    strategy: InvocationStrategy,
) -> Result<()> {
    let payloads = match strategy {
        InvocationStrategy::Direct => payloads.into_iter().map(Rc::new).collect(),
        InvocationStrategy::TwoLevel => build_tree(cloud.region(), payloads, weights),
    };
    invoke_from_driver(cloud, function, payloads).await
}

/// Group flat payloads into the two-level tree [`launch_shape`] sizes
/// for `region`, heaviest first: the `n1` heaviest payloads by `weights`
/// (a payload without one weighs 0) are the first generation, in that
/// order, and the rest are dealt to their groups round-robin, so each
/// group's children are also heaviest first. Equal weights keep worker
/// order.
pub fn build_tree(
    region: Region,
    payloads: Vec<WorkerPayload>,
    weights: &[u64],
) -> Vec<Rc<WorkerPayload>> {
    if payloads.len() <= 1 {
        return payloads.into_iter().map(Rc::new).collect();
    }
    let (n1, _) = launch_shape(region, payloads.len());
    let mut ranked: Vec<(u64, WorkerPayload)> = payloads
        .into_iter()
        .enumerate()
        .map(|(i, p)| (weights.get(i).copied().unwrap_or(0), p))
        .collect();
    // Stable: ties keep worker order.
    ranked.sort_by_key(|(weight, _)| std::cmp::Reverse(*weight));
    let mut ranked = ranked.into_iter().map(|(_, p)| p);
    let mut heads: Vec<WorkerPayload> = ranked.by_ref().take(n1).collect();
    for (k, child) in ranked.enumerate() {
        heads[k % n1].children.push(Rc::new(child));
    }
    heads.into_iter().map(Rc::new).collect()
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
/// (Table 1's intra-region rate), beside its query fragment. The calls
/// run inside the worker's own invocation, not as tasks of their own: a
/// worker that dies stops invoking, and the children it had not yet
/// invoked are lost with it.
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
    let calls = children.iter().map(|child| {
        let sem = &sem;
        Box::pin(async move {
            let _permit = sem.acquire(1).await;
            let bytes = child.edge_bytes(ADDRESS_BYTES);
            caller.invoke(function, child.clone(), bytes).await
        })
    });
    try_join_all(calls.collect()).await?;
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

    /// Worker ids by first-generation payload: its own, then its children's.
    fn groups(tree: &[Rc<WorkerPayload>]) -> Vec<Vec<u64>> {
        let ids = |fg: &WorkerPayload| {
            let children = fg.children.iter().map(|c| {
                assert!(c.children.is_empty(), "tree depth is exactly two");
                c.worker_id
            });
            std::iter::once(fg.worker_id).chain(children).collect()
        };
        tree.iter().map(|fg| ids(fg)).collect()
    }

    #[test]
    fn tree_covers_all_payloads_once() {
        for n in [1usize, 2, 5, 16, 100, 4096] {
            // Unweighted, and weighted with ties (every third worker heavy).
            let tied: Vec<u64> = (0..n as u64).map(|i| u64::from(i % 3 == 0)).collect();
            for weights in [&[][..], &tied] {
                let mut seen: Vec<u64> =
                    groups(&build_tree(Region::Eu, payloads(n), weights)).concat();
                seen.sort_unstable();
                assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "n={n}");
            }
        }
    }

    /// The heaviest payloads are the first generation, in weight order;
    /// the rest go round-robin, so each group's children are heaviest
    /// first too; and equal weights keep worker order.
    #[test]
    fn the_heaviest_payloads_head_the_tree_and_ties_keep_worker_order() {
        let n = 320;
        let (n1, group) = launch_shape(Region::Eu, n);
        // Workers 100..150 are heavy, 120..130 the heaviest of them.
        let weights: Vec<u64> = (0..n as u64)
            .map(|i| match i {
                120..130 => 9,
                100..150 => 5,
                _ => 1,
            })
            .collect();
        let tree = groups(&build_tree(Region::Eu, payloads(n), &weights));
        assert_eq!(tree.len(), n1);
        assert!(tree.iter().all(|g| g.len() <= group));
        let heads: Vec<u64> = tree.iter().map(|g| g[0]).collect();
        let want: Vec<u64> = (120..130).chain(100..120).chain(130..150).take(n1).collect();
        assert_eq!(heads, want);
        // The heavy workers the first generation has no room for are the
        // first children of the first groups, in worker order.
        let rest: Vec<u64> = (100..120).chain(130..150).skip(n1 - 10).collect();
        let first_children: Vec<u64> = tree.iter().take(rest.len()).map(|g| g[1]).collect();
        assert_eq!(first_children, rest);
        for g in &tree {
            let w: Vec<u64> = g.iter().map(|&id| weights[id as usize]).collect();
            assert!(w.windows(2).all(|p| p[0] >= p[1]), "group {g:?} is not heaviest first");
        }
        // Unweighted, the first generation is the first `n1` workers and
        // worker `n1 + k` is a child of group `k mod n1`.
        let plain = groups(&build_tree(Region::Eu, payloads(n), &[]));
        assert_eq!(
            plain.iter().map(|g| g[0]).collect::<Vec<_>>(),
            (0..n1 as u64).collect::<Vec<_>>()
        );
        for (k, id) in (n1 as u64..n as u64).enumerate() {
            assert!(plain[k % n1].contains(&id), "worker {id}");
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
        // Worked numbers for `eu`: 320 workers launch as 32 × 10, where the
        // √P tree's 18 × 18 would predict 0.50 s.
        let eu = |p, s| predicted_last_initiation(Region::Eu, p, s);
        assert!((eu(8, Direct) - 0.063).abs() < 1e-3);
        assert_eq!(launch_shape(Region::Eu, 320), (32, 10));
        assert!((eu(320, Direct) - 1.12).abs() < 1e-2 && (eu(320, TwoLevel) - 0.45).abs() < 1e-2);
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

    /// The launched group never exceeds the √P tree's, which the inline
    /// budgets are sized by, in any region at any fleet size.
    #[test]
    fn the_launch_group_never_exceeds_the_budgeted_one() {
        for region in Region::ALL {
            for p in 2..=10_000usize {
                let (n1, group) = launch_shape(region, p);
                assert!(n1 >= tree_shape(p).0 && n1 <= p, "{region:?} P={p}");
                assert_eq!(group, p.div_ceil(n1), "{region:?} P={p}");
                assert!(group <= tree_shape(p).1, "{region:?} P={p}");
            }
        }
    }

    /// At 4096 workers the first generation is twice √P wide: 128 groups
    /// of 32 in `eu`, every group full.
    #[test]
    fn tree_width_minimises_table_1s_last_initiation() {
        let tree = build_tree(Region::Eu, payloads(4096), &[]);
        assert_eq!(tree.len(), 128);
        assert!(tree.iter().all(|fg| fg.children.len() == 31));
    }
}
