//! The metric registry: every name the benchmark prints, with its unit,
//! its direction and (end to end) its regression bound. `BENCHMARK.json`
//! carries the same tables for the driver; `tests/smoke.rs` checks that
//! the two agree.

use std::collections::BTreeMap;

use crate::json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a number is read from. Virtual-clock numbers repeat
/// exactly for a seed; host-clock numbers carry the box's noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};
use Clock::{Host, Virtual};

/// The same seven names on every workload. `failed_share` is printed
/// beside them but is not in this table: the driver wants metrics that
/// are never 0 and takes failures from `attempted`/`failed`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", clock: Host, better: Lower, bound: 0.25 },
    EndToEnd { name: "host_ms_per_op", unit: "ms", clock: Host, better: Lower, bound: 0.25 },
    EndToEnd { name: "op_span_virtual_s", unit: "s", clock: Virtual, better: Lower, bound: 0.05 },
    EndToEnd {
        name: "op_span_virtual_p90_s",
        unit: "s",
        clock: Virtual,
        better: Lower,
        bound: 0.10,
    },
    EndToEnd { name: "op_cost_usd", unit: "USD", clock: Virtual, better: Lower, bound: 0.05 },
    EndToEnd {
        name: "ops_per_virtual_s",
        unit: "1/s",
        clock: Virtual,
        better: Higher,
        bound: 0.05,
    },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", clock: Host, better: Lower, bound: 0.25 },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, printed by a traced run. A layer that does not run
/// on a workload reports 0 there. Counts that are neither good nor bad
/// in themselves are marked `lower` (less work for the same result).
pub const PER_LAYER: &[Layer] = &[
    layer("workloads.generate_rows_per_s", "rows/s", Higher),
    layer("format.write_mib_per_s", "MiB/s", Higher),
    layer("format.read_mib_per_s", "MiB/s", Higher),
    layer("format.decompress_mib_per_s", "MiB/s", Higher),
    layer("format.file_bytes_per_row", "B", Lower),
    layer("format.wire_bytes_per_row", "B", Lower),
    layer("engine.expr.mask_rows_per_s", "rows/s", Higher),
    layer("engine.expr.project_rows_per_s", "rows/s", Higher),
    layer("engine.pipeline.rows_per_s", "rows/s", Higher),
    layer("engine.agg.update_rows_per_s", "rows/s", Higher),
    layer("engine.agg.groups", "count", Lower),
    layer("engine.agg.merge_groups_per_s", "groups/s", Higher),
    layer("engine.agg.codec_mib_per_s", "MiB/s", Higher),
    layer("engine.join.build_rows_per_s", "rows/s", Higher),
    layer("engine.join.probe_rows_per_s", "rows/s", Higher),
    layer("engine.sort.rows_per_s", "rows/s", Higher),
    layer("engine.sort.range_partition_rows_per_s", "rows/s", Higher),
    layer("engine.optimizer.ms", "ms", Lower),
    layer("engine.reference.rows_per_s", "rows/s", Higher),
    layer("core.stage.plan_ms", "ms", Lower),
    layer("core.verify.ms", "ms", Lower),
    layer("core.partition.hash_rows_per_s", "rows/s", Higher),
    layer("core.partition.encode_mib_per_s", "MiB/s", Higher),
    layer("core.partition.decode_mib_per_s", "MiB/s", Higher),
    layer("core.message.codec_us", "us", Lower),
    layer("core.exchange.bundle_encode_mib_per_s", "MiB/s", Higher),
    layer("core.exchange.bundle_decode_mib_per_s", "MiB/s", Higher),
    layer("core.exchange.bytes_shuffled", "B/op", Lower),
    layer("core.exchange.s3_requests_per_mib", "1/MiB", Lower),
    layer("core.exchange.wait_virtual_s", "s", Lower),
    layer("core.exchange.write_virtual_s", "s", Lower),
    layer("core.exchange.read_virtual_s", "s", Lower),
    layer("core.exchange.bytes_left_per_op", "B", Lower),
    layer("core.exchange.objects_left_per_op", "count", Lower),
    layer("core.transport.p2p_requests_per_mib", "1/MiB", Lower),
    layer("core.transport.p2p_bytes", "B", Lower),
    layer("core.transport.s3_requests", "count", Lower),
    layer("core.scan.get_requests", "count/op", Lower),
    layer("core.scan.bytes_read", "B/op", Lower),
    layer("core.scan.row_groups_pruned_share", "ratio", Higher),
    layer("core.invoke.virtual_s", "s", Lower),
    layer("core.invoke.last_worker_running_virtual_s", "s", Lower),
    layer("core.invoke.cold_span_virtual_s", "s", Lower),
    layer("core.invoke.cold_starts", "count", Lower),
    layer("core.worker.processing_virtual_s", "s", Lower),
    layer("core.worker.straggler_ratio", "ratio", Lower),
    layer("core.worker.backup_invocations", "count", Lower),
    layer("core.driver.workers_per_op", "count", Lower),
    layer("core.driver.stage_queue_wait_virtual_s", "s", Lower),
    layer("core.driver.stage_exec_virtual_s", "s", Lower),
    layer("core.driver.execute_ms", "ms", Lower),
    layer("core.driver.unattributed_share", "ratio", Lower),
    layer("core.driver.op_cpu_ms", "ms", Lower),
    layer("core.driver.host_ms_iqr", "ms", Lower),
    layer("core.driver.trace_overhead_share", "ratio", Lower),
    layer("core.service.admission_wait_virtual_s", "s", Lower),
    layer("core.service.admission_wait_virtual_p90_s", "s", Lower),
    layer("core.service.peak_inflight_workers", "count", Lower),
    layer("core.service.tenant_span_spread", "ratio", Lower),
    layer("core.service.request_usd_per_op", "USD", Lower),
    layer("core.streaming.events_per_virtual_s", "1/s", Higher),
    layer("core.streaming.events_per_host_s", "1/s", Higher),
    layer("core.streaming.generator_lag_virtual_s", "s", Lower),
    layer("core.streaming.late_events", "count", Lower),
    layer("core.streaming.carried_groups_peak", "count", Lower),
    layer("core.streaming.emitted_rows", "count", Higher),
    layer("core.streaming.usd_per_million_events", "USD", Lower),
    layer("core.costmodel.process_rows.measured_over_model", "ratio", Higher),
    layer("core.costmodel.decode_bytes.measured_over_model", "ratio", Higher),
    layer("core.costmodel.decompress_bytes.measured_over_model", "ratio", Higher),
    layer("core.costmodel.partition_bytes.measured_over_model", "ratio", Higher),
    layer("sim.steps_per_op", "count", Lower),
    layer("sim.host_ns_per_step", "ns", Lower),
    layer("sim.executor.spawn_sleep_ns", "ns", Lower),
    layer("sim.virtual_s_per_host_s", "ratio", Higher),
    layer("sim.billing.lambda_usd", "USD", Lower),
    layer("sim.billing.s3_request_usd", "USD", Lower),
    layer("sim.billing.other_usd", "USD", Lower),
    layer("sim.s3.get_requests", "count/op", Lower),
    layer("sim.s3.put_requests", "count/op", Lower),
    layer("sim.s3.list_requests", "count/op", Lower),
];

/// Values measured by one run, keyed by registered name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record a value. Recording a name twice, or one the registry does
    /// not know, is a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not registered");
        assert!(self.values.insert(name, value).is_none(), "metric `{name}` recorded twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `names`, in the
    /// registry's order; a name nothing recorded reads 0.
    pub fn to_json<'a>(&self, names: impl Iterator<Item = &'a str>) -> String {
        let fields: Vec<String> = names
            .map(|name| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json::escape(name),
                    json::number(self.get(name).unwrap_or(0.0)),
                    json::escape(unit_of(name).unwrap_or("")),
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    if name == FAILED_SHARE {
        return Some("ratio");
    }
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Failed or wrong ops ÷ ops attempted; any increase is a regression.
pub const FAILED_SHARE: &str = "failed_share";
