//! Per-layer numbers read from the program's public reports (source R):
//! `QueryReport`, `StageReport`, `WorkerMetrics`, `cloud.trace`, the
//! object store's bucket gauges and `Simulation::steps`. All of them are
//! virtual-clock values or counts, so they repeat exactly for a seed.

use std::collections::BTreeMap;

use lambada::core::invoke::labels;
use lambada::core::{QueryReport, StageReport};
use lambada::sim::{Cloud, SimTime, Simulation};

use crate::stats;

/// Samples by metric name, one per timed op (or per round).
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        stats::median(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        // Not `Iterator::sum`: that gives -0.0 for no samples.
        self.get(name).iter().fold(0.0, |a, b| a + b)
    }

    pub fn max(&self, name: &str) -> f64 {
        self.get(name).iter().copied().fold(0.0, f64::max)
    }
}

/// The gauges an op is bracketed by: the session's clock and step
/// counter, and the buckets a query leaves objects in (the exchange
/// buckets and the result bucket). What an op adds there and never
/// removes is the leak gauge.
pub struct Probe<'a> {
    pub sim: &'a Simulation,
    pub cloud: &'a Cloud,
    pub buckets: Vec<String>,
}

/// State of the cloud when an op began.
pub struct OpStart {
    pub time: SimTime,
    pub steps: u64,
    left: (u64, u64),
}

impl Probe<'_> {
    fn left_behind(&self) -> (u64, u64) {
        self.buckets.iter().fold((0, 0), |(bytes, objects), b| {
            let s3 = &self.cloud.s3;
            (bytes + s3.bucket_bytes(b), objects + s3.bucket_object_count(b) as u64)
        })
    }

    pub fn start(&self) -> OpStart {
        OpStart { time: self.sim.now(), steps: self.sim.steps(), left: self.left_behind() }
    }
}

/// Names whose run value is the median of the per-op samples pushed by
/// [`ingest`].
pub const MEDIAN_OF_OPS: &[&str] = &[
    "engine.agg.groups",
    "core.exchange.bytes_shuffled",
    "core.exchange.s3_requests_per_mib",
    "core.exchange.wait_virtual_s",
    "core.exchange.write_virtual_s",
    "core.exchange.read_virtual_s",
    "core.exchange.bytes_left_per_op",
    "core.exchange.objects_left_per_op",
    "core.transport.p2p_requests_per_mib",
    "core.transport.p2p_bytes",
    "core.transport.s3_requests",
    "core.scan.get_requests",
    "core.scan.bytes_read",
    "core.scan.row_groups_pruned_share",
    "core.invoke.virtual_s",
    "core.invoke.last_worker_running_virtual_s",
    "core.worker.processing_virtual_s",
    "core.worker.straggler_ratio",
    "core.driver.workers_per_op",
    "core.driver.stage_queue_wait_virtual_s",
    "core.driver.stage_exec_virtual_s",
    "sim.steps_per_op",
];

const MIB: f64 = 1024.0 * 1024.0;

/// Fold the reports of one timed op (`ops` = 1) or one `service_mix`
/// round (`ops` = queries in it) into per-op samples. `sequential` says
/// the op's queries ran one after another from `start.time`, which lets
/// invocation markers be attributed to their query.
pub fn ingest(
    out: &mut Samples,
    reports: &[QueryReport],
    probe: &Probe<'_>,
    start: &OpStart,
    ops: usize,
    sequential: bool,
) {
    let cloud = probe.cloud;
    let n = ops as f64;
    let stages = || reports.iter().flat_map(|r| r.stages.iter());
    let workers = || reports.iter().flat_map(|r| r.worker_metrics.iter());
    let is_scan = |s: &StageReport| s.label.starts_with("scan:");
    let direct = workers().any(|w| w.p2p_requests > 0);

    let groups: u64 = reports
        .iter()
        .map(|r| {
            let merged: u64 =
                r.stages.iter().filter(|s| s.label.starts_with("agg#")).map(|s| s.rows_out).sum();
            let carried = r.agg_state.as_deref().map_or(0, |b| {
                lambada::engine::GroupedAggState::decode(b).map_or(0, |s| s.num_groups() as u64)
            });
            merged.max(carried).max(r.batch.num_rows() as u64)
        })
        .sum();
    out.push("engine.agg.groups", groups as f64 / n);

    // Exchange traffic: every PUT and LIST, and the GETs of stages that
    // read an edge (a scan stage's GETs read table files).
    let shuffled: u64 = stages().map(|s| s.bytes_exchanged).sum();
    let edge_requests: u64 = stages()
        .map(|s| s.put_requests + s.list_requests + if is_scan(s) { 0 } else { s.get_requests })
        .sum();
    let p2p_requests: u64 = stages().map(|s| s.p2p_requests).sum();
    let p2p_bytes: u64 = workers().map(|w| w.p2p_bytes).sum();
    out.push("core.exchange.bytes_shuffled", shuffled as f64 / n);
    let per_mib = |requests: u64, bytes: u64| {
        if bytes == 0 {
            0.0
        } else {
            requests as f64 / (bytes as f64 / MIB)
        }
    };
    out.push("core.exchange.s3_requests_per_mib", per_mib(edge_requests, shuffled));
    out.push(
        "core.exchange.wait_virtual_s",
        stages().map(|s| s.exchange_wait_secs).sum::<f64>() / n,
    );
    out.push("core.transport.p2p_requests_per_mib", per_mib(p2p_requests, p2p_bytes));
    out.push("core.transport.p2p_bytes", p2p_bytes as f64 / n);
    out.push("core.transport.s3_requests", if direct { edge_requests as f64 / n } else { 0.0 });

    let left = probe.left_behind();
    out.push("core.exchange.bytes_left_per_op", (left.0 - start.left.0) as f64 / n);
    out.push("core.exchange.objects_left_per_op", (left.1 - start.left.1) as f64 / n);

    out.push(
        "core.scan.get_requests",
        stages().filter(|s| is_scan(s)).map(|s| s.get_requests).sum::<u64>() as f64 / n,
    );
    let scanners = || workers().filter(|w| w.row_groups_pruned + w.row_groups_scanned > 0);
    out.push("core.scan.bytes_read", scanners().map(|w| w.bytes_read).sum::<u64>() as f64 / n);
    let pruned: u64 = scanners().map(|w| w.row_groups_pruned).sum();
    let seen: u64 = pruned + scanners().map(|w| w.row_groups_scanned).sum::<u64>();
    out.push(
        "core.scan.row_groups_pruned_share",
        if seen == 0 { 0.0 } else { pruned as f64 / seen as f64 },
    );

    out.push("core.invoke.virtual_s", reports.iter().map(|r| r.invoke_secs).sum::<f64>() / n);
    out.push("core.invoke.cold_starts", reports.iter().map(|r| r.cold_starts).sum::<u64>() as f64);
    out.push(
        "core.worker.backup_invocations",
        reports.iter().map(QueryReport::backup_invocations).sum::<u64>() as f64,
    );
    let processing: Vec<f64> = workers().map(|w| w.processing_secs).collect();
    out.push("core.worker.processing_virtual_s", stats::median(&processing));
    out.push("core.worker.straggler_ratio", straggler_ratio(reports));
    out.push(
        "core.driver.workers_per_op",
        reports.iter().map(|r| r.workers).sum::<usize>() as f64 / n,
    );
    out.push(
        "core.driver.stage_queue_wait_virtual_s",
        stages().map(|s| s.queue_wait_secs).sum::<f64>() / n,
    );
    out.push("core.driver.stage_exec_virtual_s", stages().map(|s| s.exec_secs).sum::<f64>() / n);
    out.push("sim.steps_per_op", (probe.sim.steps() - start.steps) as f64 / n);

    // The program's own virtual-time trace: exchange phases per worker,
    // and the marker each worker leaves when its handler starts running.
    let events = cloud.trace.events();
    cloud.trace.clear();
    let durations = |label: &str| -> Vec<f64> {
        events.iter().filter(|e| e.label == label).map(|e| e.duration_secs()).collect()
    };
    out.push("core.exchange.write_virtual_s", stats::median(&durations("exchange_write")));
    out.push("core.exchange.read_virtual_s", stats::median(&durations("exchange_read")));
    if sequential {
        let mut begin = start.time;
        let mut last_running = 0.0;
        for r in reports {
            let end = begin + lambada::sim::secs(r.latency_secs);
            last_running += events
                .iter()
                .filter(|e| e.label == labels::RUNNING && e.start >= begin && e.start <= end)
                .map(|e| (e.start - begin).as_secs_f64())
                .fold(0.0, f64::max);
            begin = end;
        }
        out.push("core.invoke.last_worker_running_virtual_s", last_running / n);
    }
}

/// Max ÷ median worker processing time, over the stages of an op that
/// have a fleet (two workers or more); the widest ratio wins, because a
/// span waits for its slowest worker.
fn straggler_ratio(reports: &[QueryReport]) -> f64 {
    let mut worst: f64 = 0.0;
    for r in reports {
        // `worker_metrics` lists the stages' workers in stage order.
        if r.worker_metrics.len() != r.stages.iter().map(|s| s.workers).sum::<usize>() {
            continue;
        }
        let mut at = 0;
        for s in &r.stages {
            let fleet: Vec<f64> =
                r.worker_metrics[at..at + s.workers].iter().map(|w| w.processing_secs).collect();
            at += s.workers;
            let median = stats::median(&fleet);
            if fleet.len() >= 2 && median > 0.0 {
                worst = worst.max(fleet.iter().copied().fold(0.0, f64::max) / median);
            }
        }
    }
    worst
}
