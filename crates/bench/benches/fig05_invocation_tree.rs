//! Fig 5: timeline of the two-level invocation of 4096 cold workers.
//!
//! For every first-generation worker of the paper's tree (⌈√P⌉ of them):
//! how long the driver queued it, how long its own invocation took, and
//! how long it spent invoking its second-generation children. Then the
//! launch `invoke_workers` deals — each worker from whichever invoker
//! starts it soonest — beside the two fixed shapes: for a sweep of fleet
//! sizes up to that one (each fleet launched once per shape), the
//! predicted time until the last worker is initiated and the measured
//! time until it runs, for the direct shape, the paper's tree and the
//! launch. Exits non-zero if the launch is measured (on a warm fleet)
//! more than 10% slower than the faster of the other two.

use lambada_bench::{banner, env_usize, fresh_cloud};
use lambada_core::invoke::{self, labels, predicted_last_initiation};
use lambada_core::{
    register_worker_function, ComputeCostModel, InvocationStrategy, WorkerPayload, WorkerTask,
    WORKER_FUNCTION,
};
use lambada_sim::{Cloud, CloudConfig, TraceEvent};
use std::process::ExitCode;
use std::time::Duration;

fn payloads(total: usize) -> Vec<WorkerPayload> {
    (0..total as u64)
        .map(|i| WorkerPayload {
            worker_id: i,
            attempt: 0,
            query: 0,
            task: WorkerTask::Noop,
            edges: Vec::new(),
            children: Vec::new(),
            result_queue: "results".to_string(),
        })
        .collect()
}

/// Invoke `total` no-op workers in `strategy`'s shape and run until every
/// one of them has started; returns when the last one did, from launch.
async fn invoke_all(cloud: &Cloud, total: usize, strategy: InvocationStrategy) -> f64 {
    let launch = cloud.handle.now();
    cloud.trace.clear();
    invoke::invoke_workers_as(cloud, WORKER_FUNCTION, payloads(total), strategy).await.unwrap();
    while cloud.trace.spans(labels::RUNNING).len() < total {
        cloud.handle.sleep(Duration::from_millis(100)).await;
    }
    let running = cloud.trace.spans(labels::RUNNING);
    running.iter().map(|e| (e.start - launch).as_secs_f64()).fold(0.0, f64::max)
}

/// A fresh cloud's fleet of `total` invoked cold, then again — each time
/// once every container is back in the pool — until a run starts no
/// container cold: a shape that runs more workers at once than an
/// earlier run did cold-starts the difference, and only a few runs grow
/// the pool to what the shape needs. Returns the cold run's trace and the
/// cold and the first warm run's times to the last running worker.
fn invoke_cold_then_warm(
    total: usize,
    strategy: InvocationStrategy,
) -> (Vec<TraceEvent>, f64, f64) {
    let (sim, cloud) = fresh_cloud();
    register_worker_function(
        &cloud,
        WORKER_FUNCTION,
        2048,
        Duration::from_secs(120),
        ComputeCostModel::default(),
    );
    cloud.sqs.create_queue("results");
    sim.block_on(async {
        let cold = invoke_all(&cloud, total, strategy).await;
        let cold_trace = cloud.trace.events();
        let cold_starts = || cloud.faas.counters(WORKER_FUNCTION).1;
        let warm = loop {
            cloud.handle.sleep(Duration::from_secs(2)).await;
            let before = cold_starts();
            let secs = invoke_all(&cloud, total, strategy).await;
            if cold_starts() == before {
                break secs;
            }
        };
        (cold_trace, cold, warm)
    })
}

/// One fleet size of the sweep, every shape, cold then warm.
struct Sized {
    p: usize,
    cold_direct: f64,
    direct: f64,
    cold_tree: f64,
    tree: f64,
    cold_launch: f64,
    launch: f64,
    /// The cold tree run's trace: Fig 5 itself at `p == total`.
    tree_trace: Vec<TraceEvent>,
}

fn main() -> ExitCode {
    use InvocationStrategy::{Direct, Soonest, TwoLevel};
    let total = env_usize("LAMBADA_FIG5_WORKERS", 4096);
    banner("Fig 5", &format!("two-level invocation of {total} cold workers"));
    // Every fleet is launched once per shape; the sweep's run at `total`
    // is the figure.
    let mut sizes: Vec<usize> =
        [8, 64, 128, 512, 4096].into_iter().filter(|&p| p < total).collect();
    sizes.push(total);
    let sweep: Vec<Sized> = sizes
        .into_iter()
        .map(|p| {
            let (_, cold_direct, direct) = invoke_cold_then_warm(p, Direct);
            let (tree_trace, cold_tree, tree) = invoke_cold_then_warm(p, TwoLevel);
            let (_, cold_launch, launch) = invoke_cold_then_warm(p, Soonest);
            Sized { p, cold_direct, direct, cold_tree, tree, cold_launch, launch, tree_trace }
        })
        .collect();
    let Some(Sized { tree_trace: trace, cold_tree: last_running, .. }) = sweep.last() else {
        unreachable!("the sweep ends with `total`");
    };
    let first_gen: Vec<u64> =
        invoke::build_tree(CloudConfig::default().region, payloads(total), &[], TwoLevel)
            .iter()
            .map(|p| p.worker_id)
            .collect();
    let spans = |label: &str| -> Vec<TraceEvent> {
        trace.iter().filter(|e| e.label == label).cloned().collect()
    };
    let (queued, api, spawn) = (spans(labels::QUEUED), spans(labels::API), spans(labels::SPAWN));

    println!(
        "{:>6} {:>14} {:>14} {:>16}",
        "fg#", "queued [s]", "invocation [s]", "spawn children [s]"
    );
    let span_of = |spans: &[TraceEvent], w: u64| {
        spans.iter().find(|e| e.worker == w).map(|e| (e.start.as_secs_f64(), e.end.as_secs_f64()))
    };
    for (i, &w) in first_gen.iter().enumerate() {
        if i % 8 != 0 && i + 1 != first_gen.len() {
            continue; // sample the timeline like the figure's x-axis
        }
        let q = span_of(&queued, w).unwrap_or((0.0, 0.0));
        let a = span_of(&api, w).unwrap_or((0.0, 0.0));
        let s = span_of(&spawn, w).unwrap_or((0.0, 0.0));
        println!(
            "{:>6} {:>7.2}-{:<6.2} {:>7.2}-{:<6.2} {:>8.2}-{:<7.2}",
            i, q.0, q.1, a.0, a.1, s.0, s.1
        );
    }
    let last_initiated = spawn.iter().map(|e| e.end.as_secs_f64()).fold(0.0f64, f64::max);
    let region = CloudConfig::default().region; // what `fresh_cloud` runs in
    let naive = total as f64 / region.concurrent_invocation_rate();
    println!(
        "--> last invocation initiated at {last_initiated:.2} s; last worker running at {last_running:.2} s"
    );
    println!(
        "    paper: last initiation ~2.5 s, all running ~3 s — vs {naive:.0} s if the driver invoked all {total} alone"
    );

    // The launch per fleet size, beside the two fixed shapes. The
    // schedule prices initiation from Table 1 and is checked against warm
    // fleets, where starting a container adds the same few milliseconds
    // to every shape. Cold, a second generation also waits out its
    // parents' container start: the cold columns show what that costs.
    println!("\nlaunch per fleet size ({}): last worker initiated / running [s]", region.name());
    println!(
        "{:>6} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>12} | {:>9} {:>9} {:>9}",
        "P",
        "pred dir",
        "pred tree",
        "pred lnch",
        "warm dir",
        "warm tree",
        "warm lnch",
        "lnch/best",
        "cold dir",
        "cold tree",
        "cold lnch"
    );
    let mut worst: f64 = 0.0;
    for &Sized { p, cold_direct, direct, cold_tree, tree, cold_launch, launch, .. } in &sweep {
        let predicted = |s| predicted_last_initiation(region, p, s);
        let ratio = launch / direct.min(tree);
        worst = worst.max(ratio);
        println!(
            "{p:>6} {:>9.3} {:>9.3} {:>9.3} | {direct:>9.3} {tree:>9.3} {launch:>9.3} {ratio:>12.2} | {cold_direct:>9.3} {cold_tree:>9.3} {cold_launch:>9.3}",
            predicted(Direct),
            predicted(TwoLevel),
            predicted(Soonest),
        );
    }
    if worst > 1.10 {
        eprintln!("the launch takes {worst:.2}x the faster fixed shape's time at some fleet size");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
