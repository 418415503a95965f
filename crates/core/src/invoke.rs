//! Worker invocation (§4.2).
//!
//! Invoking thousands of functions naively from the driver takes
//! `P / rate` seconds (Table 1: 220–290 inv/s with 128 threads), which
//! dominates interactive queries. The two-level strategy has the driver
//! invoke only *first-generation* workers, each carrying the payloads of
//! its second-generation children, which it invokes while it does its
//! own work — the last worker is initiated after ~2.5 s even for 4096
//! workers (Fig 5).
//!
//! The launch ([`invoke_workers`]) deals each worker, heaviest first, to
//! whichever invoker starts it soonest by Table 1's rates ([`schedule`]):
//! the driver's next call, or the next child call of a worker the driver
//! started, which waits for that worker's start and then its in-region
//! invoke (16/81 s in `eu`, against the driver's 36 ms). So the driver
//! keeps calling while the first generation fans out: at P = 320 in `eu`
//! it starts 100 workers and they the other 220, the last initiated at a
//! predicted 0.38 s (the paper's √P tree, 18 × 18, would take 0.50 s). A
//! fleet of up to about 60 gets no child call at all — the driver's own
//! call is always sooner — so it launches direct. A worker has at most
//! as many children as the paper's √P tree gives a first-generation
//! worker, which the inline budgets are sized by. The weight of a
//! payload is the bytes its scan is predicted to read, so the workers on
//! a query's critical path start soonest.
//!
//! [`invoke_workers_as`] launches one shape on purpose: every worker from
//! the driver ([`InvocationStrategy::Direct`]), or the paper's tree
//! ([`InvocationStrategy::TwoLevel`]: the driver starts ⌈√P⌉ workers and
//! they the rest), for Fig 5 and tests that need children at any size.
//!
//! A payload is sized at its addresses, the edge sections and the table
//! files it carries inline ([`WorkerPayload::edge_bytes`]), its
//! children's included; Lambda rejects one over its asynchronous cap. The
//! inline bytes cross the driver's link ([`carry_inline`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use lambada_sim::region::{Region, DRIVER_INVOKER_THREADS, INTRA_INVOKER_THREADS};
use lambada_sim::services::faas::FaasCaller;
use lambada_sim::sync::{join_all, try_join_all, Semaphore};
use lambada_sim::Cloud;

use crate::error::Result;
use crate::message::INLINE_EDGE_BYTES;
use crate::transport::ADDRESS_BYTES;
use crate::worker::WorkerPayload;

/// Who invokes which worker: the shapes [`schedule`] deals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvocationStrategy {
    /// The driver invokes every worker itself with a thread pool.
    Direct,
    /// The paper's two-level tree (§4.2): the driver invokes ⌈√P⌉
    /// first-generation workers, which invoke the rest.
    TwoLevel,
    /// Each worker from whichever invoker starts it soonest: what
    /// [`invoke_workers`] launches.
    Soonest,
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
/// (itself included). No launch deals a larger group, so this group
/// bounds what one first-generation payload carries, for the inline
/// budgets here and in [`crate::transport::inline_budget`].
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

/// One worker's place in a launch [`schedule`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Start {
    /// Predicted seconds from launch until its invocation is initiated.
    pub at: f64,
    /// The schedule index of the worker that invokes it; `None` for the
    /// driver.
    pub parent: Option<usize>,
}

/// When each of `p` workers is initiated under `strategy`, by Table 1's
/// rates, soonest first: each start goes to whichever invoker can make it
/// soonest — the driver's `k`-th call at `k / concurrent rate + one
/// invocation latency`, or the `j`-th child call of a worker the driver
/// started, at its start `+ j / in-region rate + one in-region
/// invocation` — the driver on a tie, then the earlier worker. The driver
/// makes at most `p` calls (⌈√P⌉ in the paper's tree), a worker at most
/// ⌈P / ⌈√P⌉⌉ − 1 (none direct), the √P tree's group less itself. Starts
/// never decrease, so the last is the schedule's span. Outside the
/// paper's tree only that group depends on `p`, so a fleet's schedule is
/// the first `p` starts of any larger fleet's with the same group.
pub fn schedule(region: Region, p: usize, strategy: InvocationStrategy) -> Vec<Start> {
    let (calls, group) = match strategy {
        InvocationStrategy::Direct => (p, 1),
        InvocationStrategy::TwoLevel => tree_shape(p),
        InvocationStrategy::Soonest => (p, tree_shape(p).1),
    };
    let by_driver = |k: usize| {
        k as f64 / region.concurrent_invocation_rate() + region.single_invocation().as_secs_f64()
    };
    let by_worker = |parent: f64, j: usize| {
        parent + j as f64 / region.intra_region_rate() + region.intra_invocation().as_secs_f64()
    };
    let mut starts: Vec<Start> = Vec::with_capacity(p);
    // Each driver-started worker's next child call: when, by whom, and
    // its how-manieth. A start is a finite non-negative `f64`, whose bits
    // order as its values do.
    let mut next_child: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let mut made = 0;
    while starts.len() < p {
        let driver = (made < calls).then(|| by_driver(made + 1));
        let child =
            next_child.peek().map(|&Reverse((bits, parent, j))| (f64::from_bits(bits), parent, j));
        // The driver on a tie; with neither left, the fleet is dealt
        // (`calls × group ≥ p` in every shape).
        match child.filter(|&(child_at, ..)| driver.is_none_or(|at| child_at < at)) {
            Some((at, parent, j)) => {
                next_child.pop();
                if j + 1 < group {
                    let next = by_worker(starts[parent].at, j + 1);
                    next_child.push(Reverse((next.to_bits(), parent, j + 1)));
                }
                starts.push(Start { at, parent: Some(parent) });
            }
            None => {
                let Some(at) = driver else { break };
                made += 1;
                if group > 1 {
                    let first = by_worker(at, 1);
                    next_child.push(Reverse((first.to_bits(), starts.len(), 1)));
                }
                starts.push(Start { at, parent: None });
            }
        }
    }
    starts
}

/// Predicted seconds from fleet launch until the last of `p` workers is
/// initiated under `strategy`: its [`schedule`]'s last start.
/// Non-decreasing in `p` for [`InvocationStrategy::Direct`] and
/// [`InvocationStrategy::Soonest`].
pub fn predicted_last_initiation(region: Region, p: usize, strategy: InvocationStrategy) -> f64 {
    schedule(region, p, strategy).last().map_or(0.0, |s| s.at)
}

/// Invoke all `payloads` of `function` as [`schedule`] deals them
/// ([`InvocationStrategy::Soonest`]), payload `i` weighing `weights[i]`
/// ([`build_tree`]). Returns when every *driver-side* invocation has been
/// accepted (second-generation invocations proceed inside the
/// first-generation workers).
pub async fn invoke_workers(
    cloud: &Cloud,
    function: &str,
    payloads: Vec<WorkerPayload>,
    weights: &[u64],
) -> Result<()> {
    launch(cloud, function, payloads, weights, InvocationStrategy::Soonest).await
}

/// [`invoke_workers`] in an explicit shape, every payload weighing the
/// same: for what drives one shape on purpose (Fig 5's comparison, and
/// tests that pin one).
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
    let payloads = build_tree(cloud.region(), payloads, weights, strategy);
    invoke_from_driver(cloud, function, payloads).await
}

/// Deal flat payloads to their invokers, heaviest first: ranked by
/// `weights` (a payload without one weighs 0; equal weights keep worker
/// order), the `k`-th takes the `k`-th start of `strategy`'s [`schedule`]
/// in `region`. Returns the driver's payloads in the order it calls them,
/// each carrying its children in the order it calls them.
pub fn build_tree(
    region: Region,
    payloads: Vec<WorkerPayload>,
    weights: &[u64],
    strategy: InvocationStrategy,
) -> Vec<Rc<WorkerPayload>> {
    let starts = schedule(region, payloads.len(), strategy);
    let mut ranked: Vec<(u64, WorkerPayload)> = payloads
        .into_iter()
        .enumerate()
        .map(|(i, p)| (weights.get(i).copied().unwrap_or(0), p))
        .collect();
    // Stable: ties keep worker order.
    ranked.sort_by_key(|(weight, _)| Reverse(*weight));
    // The driver's payloads, and each start's index among them.
    let (mut heads, mut head_of) = (Vec::<WorkerPayload>::new(), Vec::with_capacity(starts.len()));
    for ((_, payload), start) in ranked.into_iter().zip(&starts) {
        head_of.push(heads.len());
        match start.parent {
            None => heads.push(payload),
            Some(parent) => heads[head_of[parent]].children.push(Rc::new(payload)),
        }
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
    use std::ops::RangeInclusive;

    use super::*;
    use crate::worker::WorkerTask;
    use lambada_sim::rng::SimRng;
    use InvocationStrategy::{Direct, Soonest, TwoLevel};

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

    /// The worker each start of `starts` went to in `tree`: the driver's
    /// calls in the order of the tree's heads, each head's child calls in
    /// the order of its children.
    fn started(tree: &[Rc<WorkerPayload>], starts: &[Start]) -> Vec<u64> {
        let (mut heads, mut head_of, mut called) = (tree.iter(), Vec::new(), vec![0; tree.len()]);
        let mut ids = Vec::with_capacity(starts.len());
        for start in starts {
            match start.parent {
                None => {
                    head_of.push(called.len() - heads.len());
                    ids.push(heads.next().expect("a head per driver call").worker_id);
                }
                Some(parent) => {
                    let h = head_of[parent];
                    head_of.push(h);
                    ids.push(tree[h].children[called[h]].worker_id);
                    called[h] += 1;
                }
            }
        }
        assert!(heads.next().is_none(), "a driver call per head");
        ids
    }

    /// Every fleet size from 1 to `max_p` in `region`, in runs of the
    /// sizes that share the √P tree's group, each with the [`Soonest`]
    /// schedule of its largest. `schedule` deals the same starts in the
    /// same order whatever the fleet and only the group caps a worker's
    /// child calls, so a fleet's schedule is the first `p` starts of its
    /// run's (checked at the run's smallest and middle sizes): one
    /// schedule per group, about 2√P of them, stands for every size.
    fn soonest_by_group(region: Region, max_p: usize) -> Vec<(RangeInclusive<usize>, Vec<Start>)> {
        let mut runs = Vec::new();
        let mut lo = 1;
        while lo <= max_p {
            let group = tree_shape(lo).1;
            let hi = (lo..=max_p).take_while(|&p| tree_shape(p).1 == group).last().unwrap_or(lo);
            let longest = schedule(region, hi, Soonest);
            for p in [lo, (lo + hi) / 2] {
                assert_eq!(schedule(region, p, Soonest), longest[..p], "{region:?} P={p}");
            }
            runs.push((lo..=hi, longest));
            lo = hi + 1;
        }
        runs
    }

    /// [`Direct`]'s last initiation: the driver's `p`-th call.
    fn direct(region: Region, p: usize) -> f64 {
        p as f64 / region.concurrent_invocation_rate() + region.single_invocation().as_secs_f64()
    }

    /// The old launch: the `n1 × ⌈P/n1⌉` tree whose last initiation is
    /// soonest, over every first-generation width from √P up — for each
    /// group size the narrowest width that gives it, since a wider one
    /// only adds driver calls.
    fn best_fixed_width_tree(region: Region, p: usize) -> f64 {
        let n0 = tree_shape(p).0;
        (1..=p.div_ceil(n0).max(1))
            .map(|group| {
                let n1 = p.div_ceil(group).max(n0);
                let children = p.div_ceil(n1).saturating_sub(1) as f64;
                direct(region, n1)
                    + children / region.intra_region_rate()
                    + region.intra_invocation().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn tree_covers_all_payloads_once() {
        for n in [1usize, 2, 5, 16, 100, 4096] {
            // Unweighted, and weighted with ties (every third worker heavy).
            let tied: Vec<u64> = (0..n as u64).map(|i| u64::from(i % 3 == 0)).collect();
            for (weights, strategy) in [&[][..], &tied].into_iter().zip([Soonest, TwoLevel]) {
                let tree = build_tree(Region::Eu, payloads(n), weights, strategy);
                let mut seen: Vec<u64> = groups(&tree).concat();
                seen.sort_unstable();
                assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "n={n} {strategy:?}");
            }
        }
    }

    /// The `k`-th heaviest payload takes the schedule's `k`-th start, so
    /// workers start heaviest first and equal weights keep worker order.
    #[test]
    fn the_heaviest_payloads_head_the_tree_and_ties_keep_worker_order() {
        let n = 320;
        // Workers 100..150 are heavy, 120..130 the heaviest of them.
        let weights: Vec<u64> = (0..n as u64)
            .map(|i| match i {
                120..130 => 9,
                100..150 => 5,
                _ => 1,
            })
            .collect();
        let starts = schedule(Region::Eu, n, Soonest);
        let tree = build_tree(Region::Eu, payloads(n), &weights, Soonest);
        let want: Vec<u64> =
            (120..130).chain(100..120).chain(130..150).chain((0..100).chain(150..320)).collect();
        assert_eq!(started(&tree, &starts), want);
        // The heavy workers are all the driver's: its first 50 calls.
        let heads: Vec<u64> = groups(&tree).iter().map(|g| g[0]).take(50).collect();
        assert_eq!(heads, want[..50]);
        // Unweighted, worker `k` takes start `k`.
        let plain = build_tree(Region::Eu, payloads(n), &[], Soonest);
        assert_eq!(started(&plain, &starts), (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn small_fleets_go_direct_and_large_ones_through_the_tree() {
        let has_children = |region, p, s| schedule(region, p, s).iter().any(|s| s.parent.is_some());
        for region in Region::ALL {
            for p in [1usize, 8, 40] {
                assert!(!has_children(region, p, Soonest), "{region:?} P={p}");
                assert!(has_children(region, p, TwoLevel) || p < 3, "{region:?} P={p}");
            }
            for p in [320usize, 4096] {
                assert!(has_children(region, p, Soonest), "{region:?} P={p}");
            }
            // The crossover is a single point: once a child call is
            // sooner than the driver's next, it stays so, and the launch's
            // span only grows with the fleet.
            let (mut tree_won, mut last) = (false, 0.0);
            for (sizes, starts) in soonest_by_group(region, 4096) {
                let first_child = starts.iter().position(|s| s.parent.is_some());
                for p in sizes {
                    let tree = first_child.is_some_and(|k| k < p);
                    assert!(tree || !tree_won, "{region:?}: back to direct at P={p}");
                    tree_won = tree;
                    assert!(starts[p - 1].at >= last, "{region:?} Soonest shrinks at P={p}");
                    last = starts[p - 1].at;
                }
            }
            for p in 1..=4096usize {
                assert!(
                    predicted_last_initiation(region, p, Direct)
                        >= predicted_last_initiation(region, p - 1, Direct),
                    "{region:?} Direct shrinks at P={p}"
                );
            }
        }
        // Worked numbers for `eu`: 320 workers, 100 of them started by the
        // driver, the last initiated at 0.38 s, where the √P tree's
        // 18 × 18 predicts 0.50 s and the driver alone 1.12 s.
        let eu = |p, s| predicted_last_initiation(Region::Eu, p, s);
        assert!((eu(8, Direct) - 0.063).abs() < 1e-3 && eu(8, Soonest) == eu(8, Direct));
        let by_driver =
            schedule(Region::Eu, 320, Soonest).iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(by_driver, 100);
        assert!((eu(320, Direct) - 1.12).abs() < 1e-2 && (eu(320, Soonest) - 0.38).abs() < 1e-2);
        assert!((eu(320, TwoLevel) - 0.50).abs() < 1e-2);
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

    /// In every region, at every fleet size from 2 to 10 000: the launch's
    /// starts never decrease, its groups are no larger than the budgeted
    /// one, and it initiates its last worker no later than the direct
    /// launch or any fixed-width tree. Under random weights with ties it
    /// deals every payload exactly once, heaviest first.
    #[test]
    fn the_launch_group_never_exceeds_the_budgeted_one() {
        let rng = SimRng::new(54);
        for region in Region::ALL {
            for (sizes, starts) in soonest_by_group(region, 10_000) {
                // Fleet `p` launches `starts[..p]`: its groups are those
                // of the first `p` starts, its last start the `p`-th.
                let (mut group, mut largest) = (vec![1; starts.len()], 1);
                for (k, s) in starts.iter().enumerate() {
                    if let Some(parent) = s.parent {
                        assert_eq!(starts[parent].parent, None, "{region:?}: depth two");
                        group[parent] += 1;
                        largest = largest.max(group[parent]);
                    }
                    assert!(k == 0 || starts[k - 1].at <= s.at, "{region:?}: start {k} is sooner");
                    let p = k + 1;
                    if !sizes.contains(&p) || p < 2 {
                        continue;
                    }
                    assert!(largest <= tree_shape(p).1, "{region:?} P={p}: group {largest}");
                    assert!(s.at <= direct(region, p), "{region:?} P={p}");
                    assert!(s.at <= best_fixed_width_tree(region, p), "{region:?} P={p}");
                }
                // Dealing is linear in the fleet: every size up to 400,
                // then the first of each group.
                let first = *sizes.start();
                for p in sizes.filter(|&p| (2..=400).contains(&p) || p == first) {
                    let weights: Vec<u64> = (0..p).map(|_| rng.range_u64(0, 5)).collect();
                    let tree = build_tree(region, payloads(p), &weights, Soonest);
                    let mut ranked: Vec<u64> = (0..p as u64).collect();
                    ranked.sort_by_key(|&w| Reverse(weights[w as usize]));
                    assert_eq!(started(&tree, &starts[..p]), ranked, "{region:?} P={p}");
                }
            }
        }
    }

    /// At 4096 workers the launch initiates its last worker sooner than
    /// any fixed-width tree (the best, 128 groups of 32 in `eu`, at
    /// 1.01 s) and the √P tree: its driver starts 227 workers.
    #[test]
    fn tree_width_minimises_table_1s_last_initiation() {
        let (p, eu) = (4096, Region::Eu);
        let starts = schedule(eu, p, Soonest);
        assert_eq!(starts.iter().filter(|s| s.parent.is_none()).count(), 227);
        let last = predicted_last_initiation(eu, p, Soonest);
        assert!(
            last < best_fixed_width_tree(eu, p)
                && last < predicted_last_initiation(eu, p, TwoLevel)
        );
        let tree = build_tree(eu, payloads(p), &[], TwoLevel);
        assert_eq!(tree.len(), 64);
        assert!(tree.iter().all(|fg| fg.children.len() == 63));
    }
}
