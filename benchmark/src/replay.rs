//! The replay (source P): each layer's public functions called directly,
//! single-threaded and outside the sim, on the workload's own files,
//! plans and batches.
//!
//! A small local interpreter walks the workload's `QueryDag` the way the
//! fleets do: one "worker" per table file for scan stages, `fleet[s]`
//! workers for consumer stages, edges as write-combined bundles of
//! per-receiver parts. Every call into a layer is one *step*: a span
//! (child of `op > replay`) carrying rows and bytes. Steps marked
//! *in path* are the non-overlapping pieces of host work one op does
//! inside the sim; their sum against `core.driver.execute_ms` gives the
//! share the replay cannot attribute (sim executor, services,
//! orchestration, allocator). The other steps time a kernel on its own
//! (`mask`, `project`, ...) and overlap an in-path step.
//!
//! The replayed result is checked against the reference like any op's.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use lambada::core::partition::{decode_batches, encode_batches, partition_batch};
use lambada::core::stage::{FinalStage, PostOp, QueryDag, ScanStage, StageKind, StageOutput};
use lambada::core::streaming::{streamify, windowed_event_schema};
use lambada::core::{
    decode_bundle, encode_bundle_into, events_to_batch, ComputeCostModel, PartData, ResultPayload,
    WorkerMetrics, WorkerResult, WINDOW_COLUMN,
};
use lambada::engine::expr::eval::evaluate_mask;
use lambada::engine::expr::range::can_match;
use lambada::engine::physical::{
    agg_state_to_batch, project_batch, range_boundaries, range_partition_batch, sort_batch,
    sort_key_columns, truncate_rows,
};
use lambada::engine::pipeline::{agg_func_types, eval_agg_inputs};
use lambada::engine::{
    assign_windows, Column, GroupedAggState, JoinState, LogicalPlan, Pipeline, PipelineOutput,
    PipelineSpec, RecordBatch, Scalar, Schema, SortKey, Terminal,
};
use lambada::format::{self, chunk_rows, write_file, WriterOptions};
use lambada::sim::services::object_store::Body;
use lambada::sim::{EventSource, Simulation};
use lambada::workloads::LineitemGenerator;

use crate::metrics::Metrics;
use crate::oracle;
use crate::trace::Recorder;
use crate::workload::{self, Kind, Session, Sizes};

#[derive(Clone, Copy, Default)]
struct Step {
    ns: u64,
    rows: u64,
    bytes: u64,
}

impl Step {
    fn per_s(&self, amount: u64) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            amount as f64 / (self.ns as f64 / 1e9)
        }
    }
}

pub struct Replayed {
    steps: BTreeMap<&'static str, Step>,
    /// Host milliseconds of the in-path steps of one op.
    pub in_path_ms_per_op: f64,
    /// The replayed results against the reference.
    pub check: Result<(), String>,
    file_bytes_per_row: f64,
    wire_bytes_per_row: f64,
    messages: u64,
    costs: ComputeCostModel,
}

const MIB: f64 = 1024.0 * 1024.0;

impl Replayed {
    /// Turn step totals into the P metrics.
    pub fn write(&self, m: &mut Metrics) {
        let step = |name: &str| self.steps.get(name).copied().unwrap_or_default();
        let rows_per_s = |name: &str| step(name).per_s(step(name).rows);
        let mib_per_s = |name: &str| step(name).per_s(step(name).bytes) / MIB;
        m.set("workloads.generate_rows_per_s", rows_per_s("generate"));
        m.set("format.write_mib_per_s", mib_per_s("write"));
        m.set("format.read_mib_per_s", mib_per_s("read"));
        m.set("format.decompress_mib_per_s", mib_per_s("decompress"));
        m.set("format.file_bytes_per_row", self.file_bytes_per_row);
        m.set("format.wire_bytes_per_row", self.wire_bytes_per_row);
        m.set("engine.expr.mask_rows_per_s", rows_per_s("mask"));
        m.set("engine.expr.project_rows_per_s", rows_per_s("project"));
        m.set("engine.pipeline.rows_per_s", rows_per_s("pipeline"));
        m.set("engine.agg.update_rows_per_s", rows_per_s("agg_update"));
        m.set("engine.agg.merge_groups_per_s", rows_per_s("agg_merge"));
        m.set("engine.agg.codec_mib_per_s", mib_per_s("agg_codec"));
        m.set("engine.join.build_rows_per_s", rows_per_s("join_build"));
        m.set("engine.join.probe_rows_per_s", rows_per_s("join_probe"));
        m.set("engine.sort.rows_per_s", rows_per_s("sort"));
        m.set("engine.sort.range_partition_rows_per_s", rows_per_s("range_partition"));
        m.set("core.partition.hash_rows_per_s", rows_per_s("hash_partition"));
        m.set("core.partition.encode_mib_per_s", mib_per_s("part_encode"));
        m.set("core.partition.decode_mib_per_s", mib_per_s("part_decode"));
        let codec = step("message_codec");
        m.set(
            "core.message.codec_us",
            if self.messages == 0 { 0.0 } else { codec.ns as f64 / 1e3 / self.messages as f64 },
        );
        m.set("core.exchange.bundle_encode_mib_per_s", mib_per_s("bundle_encode"));
        m.set("core.exchange.bundle_decode_mib_per_s", mib_per_s("bundle_decode"));
        // The calibration table: measured throughput over the constant
        // the cost model charges virtual time with.
        let c = &self.costs;
        m.set(
            "core.costmodel.process_rows.measured_over_model",
            rows_per_s("pipeline") / c.process_rows_per_s,
        );
        m.set(
            "core.costmodel.decode_bytes.measured_over_model",
            step("decode").per_s(step("decode").bytes) / c.decode_bytes_per_s,
        );
        m.set(
            "core.costmodel.decompress_bytes.measured_over_model",
            step("decompress").per_s(step("decompress").bytes) / c.decompress_bytes_per_s,
        );
        m.set(
            "core.costmodel.partition_bytes.measured_over_model",
            step("hash_partition").per_s(step("hash_partition").bytes) / c.partition_bytes_per_s,
        );
        let spawn = step("spawn_sleep");
        m.set(
            "sim.executor.spawn_sleep_ns",
            if spawn.rows == 0 { 0.0 } else { spawn.ns as f64 / spawn.rows as f64 },
        );
    }
}

/// Step bookkeeping shared by everything the replay runs.
struct Cx<'a> {
    rec: &'a mut Recorder,
    steps: BTreeMap<&'static str, Step>,
    in_path_ns: u64,
    messages: u64,
    /// Rows and encoded bytes of every batch put on a row edge.
    wire: (u64, u64),
}

impl<'a> Cx<'a> {
    fn new(rec: &'a mut Recorder) -> Cx<'a> {
        Cx { rec, steps: BTreeMap::new(), in_path_ns: 0, messages: 0, wire: (0, 0) }
    }

    /// Run `f` as one step. `f` returns its output with the rows and
    /// bytes it worked on.
    fn step<T>(
        &mut self,
        name: &'static str,
        in_path: bool,
        f: impl FnOnce() -> (T, u64, u64),
    ) -> T {
        self.step_repeated(name, u64::from(in_path), f)
    }

    /// A step whose body does its work `repeats` times to be long enough
    /// to time; one repeat's worth counts as in path (0: not in path).
    fn step_repeated<T>(
        &mut self,
        name: &'static str,
        repeats: u64,
        f: impl FnOnce() -> (T, u64, u64),
    ) -> T {
        let span = self.rec.begin(name);
        let (out, rows, bytes) = f();
        let out = std::hint::black_box(out);
        let ns = self.rec.end_with(span, &[("rows", rows as f64), ("bytes", bytes as f64)]);
        let s = self.steps.entry(name).or_default();
        s.ns += ns;
        s.rows += rows;
        s.bytes += bytes;
        if let Some(one_repeat) = ns.checked_div(repeats) {
            self.in_path_ns += one_repeat;
        }
        out
    }
}

type Files = HashMap<String, (Schema, Vec<Vec<u8>>)>;
type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn batch_rows(batches: &[RecordBatch]) -> u64 {
    batches.iter().map(|b| b.num_rows() as u64).sum()
}

/// In-memory size the cost model charges partitioning by.
fn batch_bytes(b: &RecordBatch) -> u64 {
    (b.num_rows() * b.num_columns() * 8) as u64
}

/// What the replay runs on: the workload, the last session's
/// installation (for plans and the cost model), the fleet sizes the
/// in-sim ops used, and the reference results.
pub struct Input<'a> {
    pub kind: Kind,
    pub sizes: &'a Sizes,
    pub seed: u64,
    pub session: &'a Session,
    pub plans: &'a [LogicalPlan],
    /// Workers per stage of each plan.
    pub fleets: &'a [Vec<usize>],
    pub reference: &'a [RecordBatch],
}

pub fn replay(input: &Input<'_>, rec: &mut Recorder) -> Replayed {
    let Input { kind, sizes, seed, session, plans, .. } = *input;
    rec.set_op(Some(u32::MAX));
    let op = rec.begin("op");
    let span = rec.begin("replay");
    let mut cx = Cx::new(rec);
    let mut file_bytes_per_row = 0.0;
    let check = match kind {
        Kind::ScanSf1000Modeled => {
            // Set-up calibrates descriptors on a generated, encoded
            // sample; ops move no real bytes, so nothing is in path.
            let rows = lambada::workloads::DescriptorOptions::default().sample_rows;
            let columns = cx
                .step("generate", false, || (LineitemGenerator::new(seed).generate(rows), rows, 0));
            let schema = lambada::workloads::lineitem_schema();
            let bytes = write_table_file(&mut cx, &schema, columns, 1, false);
            file_bytes_per_row = bytes.len() as f64 / rows as f64;
            Ok(())
        }
        Kind::StreamWindows => {
            replay_stream(&mut cx, sizes, seed, session, &mut file_bytes_per_row)
        }
        _ => replay_batch(&mut cx, input, &mut file_bytes_per_row),
    };
    spawn_sleep(&mut cx);
    let Cx { rec, steps, in_path_ns, messages, wire } = cx;
    rec.end(span);
    rec.end(op);
    rec.set_op(None);
    // An op of `service_mix` is one query of the mix, not all of them.
    let ops = if kind == Kind::ServiceMix { plans.len() } else { 1 };
    Replayed {
        steps,
        in_path_ms_per_op: in_path_ns as f64 / 1e6 / ops as f64,
        check,
        file_bytes_per_row,
        wire_bytes_per_row: if wire.0 == 0 { 0.0 } else { wire.1 as f64 / wire.0 as f64 },
        messages,
        costs: session.system().config().costs,
    }
}

/// A bare executor with 1k sleepers: what the sim costs per task before
/// any service model runs.
fn spawn_sleep(cx: &mut Cx<'_>) {
    const TASKS: u64 = 1000;
    cx.step("spawn_sleep", false, || {
        let sim = Simulation::new();
        let handle = sim.handle();
        sim.block_on(async {
            let tasks: Vec<_> = (0..TASKS)
                .map(|i| {
                    let h = handle.clone();
                    handle.spawn(async move { h.sleep(Duration::from_micros(i)).await })
                })
                .collect();
            for t in tasks {
                t.await;
            }
        });
        ((), TASKS, 0)
    });
}

/// Encode one file the way `stage_table_real` does.
fn write_table_file(
    cx: &mut Cx<'_>,
    schema: &Schema,
    columns: Vec<Column>,
    row_groups: usize,
    in_path: bool,
) -> Vec<u8> {
    let rows = columns.first().map_or(0, Column::len);
    let data: Vec<format::ColumnData> =
        columns.into_iter().map(|c| c.into_data().expect("numeric table")).collect();
    let file_schema = schema.to_file_schema().expect("numeric schema");
    cx.step("write", in_path, || {
        let groups = chunk_rows(&data, rows.div_ceil(row_groups.max(1)).max(1));
        let bytes = write_file(file_schema, &groups, WriterOptions::default()).expect("encode");
        let len = bytes.len() as u64;
        (bytes, rows as u64, len)
    })
}

fn replay_batch(cx: &mut Cx<'_>, input: &Input<'_>, file_bytes_per_row: &mut f64) -> Res<()> {
    let Input { kind, sizes, seed, session, plans, fleets, reference } = *input;
    let tables = cx.step("generate", false, || {
        let t = workload::generate(kind, sizes, seed);
        let rows = t.iter().map(|g| g.rows).sum();
        (t, rows, 0)
    });
    let mut files = Files::new();
    let (mut rows, mut bytes) = (0, 0);
    for t in tables {
        let encoded: Vec<Vec<u8>> = t
            .files
            .into_iter()
            .map(|cols| write_table_file(cx, &t.schema, cols, 4, false))
            .collect();
        rows += t.rows;
        bytes += encoded.iter().map(Vec::len).sum::<usize>();
        files.insert(t.name.to_string(), (t.schema, encoded));
    }
    *file_bytes_per_row = bytes as f64 / rows.max(1) as f64;

    // The in-sim ops it is compared with ran warm, so the replay first
    // makes one pass nobody times, then the timed ones.
    let pass = |cx: &mut Cx<'_>| -> Res<()> {
        for (q, plan) in plans.iter().enumerate() {
            let dag = session.system().plan(plan).map_err(err)?;
            let fleet = fleets
                .get(q)
                .filter(|f| f.len() == dag.stages.len())
                .ok_or("no fleet sizes were recorded for this plan")?;
            let (batch, _) = run_dag(cx, &dag, fleet, &files)?;
            oracle::batches_match(&batch, &reference[q]).map_err(|e| format!("query {q}: {e}"))?;
        }
        Ok(())
    };
    pass(&mut Cx::new(&mut Recorder::new(false)))?;
    for _ in 0..REPLAY_PASSES {
        pass(cx)?;
    }
    cx.in_path_ns /= REPLAY_PASSES;
    Ok(())
}

/// Timed passes the batch replay makes over a workload's queries.
const REPLAY_PASSES: u64 = 3;

/// Micro-batches the streaming replay pushes through.
const STREAM_REPLAY_BATCHES: usize = 40;

/// The host work of `ContinuousQuery::push_batch`, step by step: window
/// assignment, staging the batch as files (in path here: every op
/// encodes its own input), the query, and the merge into carried state.
fn replay_stream(
    cx: &mut Cx<'_>,
    sizes: &Sizes,
    seed: u64,
    session: &Session,
    file_bytes_per_row: &mut f64,
) -> Res<()> {
    let spec = workload::stream_spec();
    let window = spec.window;
    let mut source = EventSource::new(workload::stream_source(seed));
    let dag = streamify(session.system().plan(&workload::stream_plan("events")).map_err(err)?)
        .map_err(err)?;
    let FinalStage::CarryAggState { funcs, .. } = &dag.final_stage else {
        return Err("the streaming plan did not streamify".to_string());
    };
    let mut carried = GroupedAggState::new(funcs).map_err(err)?;
    let schema = windowed_event_schema();
    let batches = STREAM_REPLAY_BATCHES.min(sizes.timed);
    let (mut rows, mut bytes) = (0u64, 0u64);
    for _ in 0..batches {
        let n = sizes.events_per_batch;
        let events = cx.step("generate", false, || (source.next_events(n), n as u64, 0));
        let windowed = cx
            .step("window_assign", true, || {
                let b = events_to_batch(&events)
                    .and_then(|b| Ok(assign_windows(&b, 0, &window, WINDOW_COLUMN)?));
                (b, n as u64, 0)
            })
            .map_err(err)?;
        let per_file = windowed.num_rows().div_ceil(spec.batch_files.max(1)).max(1);
        let mut staged = Vec::new();
        let mut offset = 0;
        while offset < windowed.num_rows() {
            let end = (offset + per_file).min(windowed.num_rows());
            let chunk = windowed.gather(&(offset..end).collect::<Vec<_>>());
            staged.push(write_table_file(
                cx,
                &schema,
                chunk.into_columns(),
                spec.row_groups_per_file,
                true,
            ));
            offset = end;
        }
        rows += windowed.num_rows() as u64;
        bytes += staged.iter().map(Vec::len).sum::<usize>() as u64;
        let fleet = vec![staged.len()];
        let files = Files::from([("events".to_string(), (schema.clone(), staged))]);
        let (_, state) = run_dag(cx, &dag, &fleet, &files)?;
        let state = state.ok_or("a carry final stage returns state")?;
        // The runtime decodes the query's state and merges it into the
        // windows it carries.
        let groups = state.num_groups() as u64;
        cx.step("agg_merge", true, || (carried.merge(&state), groups, 0)).map_err(err)?;
    }
    *file_bytes_per_row = bytes as f64 / rows.max(1) as f64;
    // One op is one batch.
    cx.in_path_ns /= batches.max(1) as u64;
    Ok(())
}

/// The pipeline a stage's workers run once its consumer fleet is sized:
/// the planner's placeholder terminal swapped for the sharding one,
/// exactly as the driver's payload builders do.
fn concrete(spec: &PipelineSpec, output: &StageOutput, partitions: usize) -> Res<PipelineSpec> {
    let terminal = match (output, &spec.terminal) {
        (StageOutput::Driver | StageOutput::SortExchange, t) => t.clone(),
        (StageOutput::Exchange { keys }, _) => {
            Terminal::HashPartition { keys: keys.clone(), partitions }
        }
        (StageOutput::AggExchange, Terminal::PartialAggregate { group_by, aggs }) => {
            Terminal::PartitionedAggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                partitions,
            }
        }
        (StageOutput::AggExchange, other) => {
            return Err(format!("agg-exchange stage ends in {other:?}"))
        }
    };
    Ok(PipelineSpec { terminal, ..spec.clone() })
}

/// What the last stage's workers report to the driver.
enum Reported {
    State(Vec<u8>),
    Stored(Vec<u8>),
}

/// One stage's output edge: `parts[sender][receiver]`.
type Edge = Vec<Vec<Vec<u8>>>;

struct SortEdge {
    keys: Vec<SortKey>,
    limit: Option<usize>,
    partitions: usize,
}

/// Rows each producer contributes to the pooled range sample (the
/// worker's private `SORT_SAMPLE_ROWS`).
const SORT_SAMPLE_ROWS: usize = 32;

/// Run a DAG locally. Returns the query result and, for a carry final
/// stage, the merged unfinalized state.
fn run_dag(
    cx: &mut Cx<'_>,
    dag: &QueryDag,
    fleet: &[usize],
    files: &Files,
) -> Res<(RecordBatch, Option<GroupedAggState>)> {
    let n = dag.stages.len();
    // A consumer's fleet size is the partition count of its input edges.
    let mut partitions = vec![0; n];
    let mut sort_edges: Vec<Option<SortEdge>> = (0..n).map(|_| None).collect();
    for (sid, kind) in dag.stages.iter().enumerate() {
        for input in kind.inputs() {
            partitions[input] = fleet[sid];
        }
        if let StageKind::Sort(s) = kind {
            sort_edges[s.input] =
                Some(SortEdge { keys: s.keys.clone(), limit: s.limit, partitions: fleet[sid] });
        }
    }
    let mut edges: Vec<Edge> = vec![Vec::new(); n];
    let mut reported = Vec::new();

    for (sid, kind) in dag.stages.iter().enumerate() {
        let last = sid + 1 == n;
        // Sorted runs of a sort-exchange producer wait here until the
        // whole fleet's sample is pooled.
        let mut runs: Vec<RecordBatch> = Vec::new();
        let mut out = StageOut {
            edge: Vec::new(),
            reported: Vec::new(),
            runs: &mut runs,
            output: kind.output(),
        };
        match kind {
            StageKind::Scan(scan) => {
                let (schema, table) = files
                    .get(&scan.table)
                    .ok_or_else(|| format!("no files for table {}", scan.table))?;
                let spec = concrete(&scan.pipeline, &scan.output, partitions[sid])?;
                for file in table {
                    let batches = scan_file(cx, file, scan, schema)?;
                    kernels(cx, &spec, &batches)?;
                    let produced = cx.step("pipeline", true, || {
                        let rows = batch_rows(&batches);
                        (run_pipeline(&spec, &batches), rows, 0)
                    })?;
                    out.take(cx, produced)?;
                }
            }
            StageKind::Join(join) => {
                let spec = concrete(&join.post, &join.output, partitions[sid])?;
                for p in 0..fleet[sid] {
                    let build_batches = receive_rows(cx, &edges[join.build_input], p)?;
                    let build = cx
                        .step("join_build", true, || {
                            let rows = batch_rows(&build_batches);
                            (
                                JoinState::build(
                                    join.build_schema.clone(),
                                    join.build_keys.clone(),
                                    &build_batches,
                                ),
                                rows,
                                0,
                            )
                        })
                        .map_err(err)?;
                    let build = Rc::new(build);
                    let probe_batches = receive_rows(cx, &edges[join.probe_input], p)?;
                    let joined = cx
                        .step("join_probe", true, || {
                            let rows = batch_rows(&probe_batches);
                            let joined: Result<Vec<RecordBatch>, _> = probe_batches
                                .iter()
                                .map(|b| build.probe_variant(b, &join.probe_keys, join.variant))
                                .collect();
                            (joined, rows, 0)
                        })
                        .map_err(err)?;
                    let joined: Vec<RecordBatch> =
                        joined.into_iter().filter(|b| b.num_rows() > 0).collect();
                    kernels(cx, &spec, &joined)?;
                    let produced = cx.step("pipeline", true, || {
                        let rows = batch_rows(&joined);
                        (run_pipeline(&spec, &joined), rows, 0)
                    })?;
                    out.take(cx, produced)?;
                }
            }
            StageKind::AggMerge(agg) => {
                let carry = last && matches!(dag.final_stage, FinalStage::CarryAggState { .. });
                for p in 0..fleet[sid] {
                    let mut state = GroupedAggState::new(&agg.funcs).map_err(err)?;
                    for sender in &edges[agg.input] {
                        merge_encoded(cx, &mut state, &sender[p])?;
                    }
                    if carry {
                        out.report_state(cx, &state);
                        continue;
                    }
                    let mut batch = agg_state_to_batch(&state, &agg.agg_schema).map_err(err)?;
                    if let Some(sort) = &sort_edges[sid] {
                        // A merge worker feeding a sort fleet is a
                        // sort-exchange producer: sort and truncate first.
                        batch = local_sort(cx, &batch, &sort.keys, sort.limit)?;
                    }
                    out.take(
                        cx,
                        PipelineOutput::Batches(if batch.num_rows() == 0 {
                            Vec::new()
                        } else {
                            vec![batch]
                        }),
                    )?;
                }
            }
            StageKind::Sort(sort) => {
                for p in 0..fleet[sid] {
                    let batches = receive_rows(cx, &edges[sort.input], p)?;
                    let all = RecordBatch::concat(sort.schema.clone(), &batches).map_err(err)?;
                    let sorted = local_sort(cx, &all, &sort.keys, sort.limit)?;
                    out.take(
                        cx,
                        PipelineOutput::Batches(if sorted.num_rows() == 0 {
                            Vec::new()
                        } else {
                            vec![sorted]
                        }),
                    )?;
                }
            }
        }
        let StageOut { edge, reported: stage_reported, .. } = out;
        edges[sid] = edge;
        if let Some(sort) = &sort_edges[sid] {
            edges[sid] = range_exchange(cx, &runs, sort)?;
        }
        if last {
            reported = stage_reported;
        }
    }
    finalize(cx, &dag.final_stage, reported)
}

/// Where a stage worker's pipeline output goes.
struct StageOut<'a> {
    edge: Edge,
    reported: Vec<Reported>,
    runs: &'a mut Vec<RecordBatch>,
    output: &'a StageOutput,
}

impl StageOut<'_> {
    /// One worker's output: onto its edge or to the driver, plus the one
    /// result message every worker posts.
    fn take(&mut self, cx: &mut Cx<'_>, produced: PipelineOutput) -> Res<()> {
        if !matches!(produced, PipelineOutput::Aggregate(_)) {
            message(cx, ResultPayload::Exchanged { rows: 0, bytes: 0 });
        }
        match produced {
            PipelineOutput::Aggregate(state) => self.report_state(cx, &state),
            PipelineOutput::AggShards(shards) => {
                let parts = shards
                    .iter()
                    .map(|s| if s.num_groups() == 0 { Vec::new() } else { encode_state(cx, s) })
                    .collect();
                self.edge.push(send(cx, parts)?);
            }
            PipelineOutput::Partitions(partitions) => {
                let mut parts = Vec::with_capacity(partitions.len());
                for batches in &partitions {
                    parts.push(if batches.is_empty() {
                        Vec::new()
                    } else {
                        encode_rows(cx, batches, true)?
                    });
                }
                self.edge.push(send(cx, parts)?);
            }
            PipelineOutput::Batches(batches) => match self.output {
                StageOutput::SortExchange => {
                    let schema = batches.first().map(|b| b.schema().clone());
                    if let Some(schema) = schema {
                        self.runs.push(RecordBatch::concat(schema, &batches).map_err(err)?);
                    }
                }
                _ if batches.is_empty() => {}
                _ => {
                    let bytes = encode_rows(cx, &batches, false)?;
                    self.reported.push(Reported::Stored(bytes));
                }
            },
        }
        Ok(())
    }

    /// A worker's inline aggregate state: encoded, wrapped in the result
    /// message, and decoded again by the driver.
    fn report_state(&mut self, cx: &mut Cx<'_>, state: &GroupedAggState) {
        let bytes = encode_state(cx, state);
        if let Some(ResultPayload::AggState(bytes)) = message(cx, ResultPayload::AggState(bytes)) {
            self.reported.push(Reported::State(bytes));
        }
    }
}

/// The result message a worker posts and the driver decodes. One round
/// trip is a microsecond or two, so it is timed over a few repeats.
fn message(cx: &mut Cx<'_>, payload: ResultPayload) -> Option<ResultPayload> {
    const REPEATS: u64 = 16;
    let message = WorkerResult::ok(0, payload, WorkerMetrics::default());
    cx.messages += REPEATS;
    cx.step_repeated("message_codec", REPEATS, || {
        let mut decoded = None;
        let mut bytes = 0;
        for _ in 0..REPEATS {
            let wire = std::hint::black_box(&message).encode();
            bytes += wire.len() as u64;
            decoded = Some(WorkerResult::decode(&wire));
        }
        (decoded, REPEATS, bytes)
    })?
    .ok()
    .and_then(|r| r.outcome.ok())
}

fn encode_state(cx: &mut Cx<'_>, state: &GroupedAggState) -> Vec<u8> {
    cx.step("agg_codec", true, || {
        let bytes = state.encode();
        let len = bytes.len() as u64;
        (bytes, state.num_groups() as u64, len)
    })
}

fn merge_encoded(cx: &mut Cx<'_>, into: &mut GroupedAggState, bytes: &[u8]) -> Res<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    let shard = cx
        .step("agg_codec", true, || (GroupedAggState::decode(bytes), 0, bytes.len() as u64))
        .map_err(err)?;
    let groups = shard.num_groups() as u64;
    cx.step("agg_merge", true, || (into.merge(&shard), groups, 0)).map_err(err)
}

/// `partition::encode_batches`, the wire codec of row edges and stored
/// results. `on_edge` rows count towards `format.wire_bytes_per_row`.
fn encode_rows(cx: &mut Cx<'_>, batches: &[RecordBatch], on_edge: bool) -> Res<Vec<u8>> {
    let rows = batch_rows(batches);
    let bytes = cx
        .step("part_encode", true, || {
            let bytes = encode_batches(batches);
            let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
            (bytes, rows, len)
        })
        .map_err(err)?;
    if on_edge {
        cx.wire.0 += rows;
        cx.wire.1 += bytes.len() as u64;
    }
    Ok(bytes)
}

fn decode_rows(cx: &mut Cx<'_>, bytes: &[u8]) -> Res<Vec<RecordBatch>> {
    cx.step("part_decode", true, || {
        let batches = decode_batches(bytes);
        let rows = batches.as_ref().map_or(0, |b| batch_rows(b));
        (batches, rows, bytes.len() as u64)
    })
    .map_err(err)
}

/// One sender's write-combined file and every receiver's read of its
/// section: `encode_bundle_into` per non-empty part into one buffer,
/// `decode_bundle` per section, as `stage_edge_put` and
/// `exchange_stage_read` do around the object store.
fn send(cx: &mut Cx<'_>, parts: Vec<Vec<u8>>) -> Res<Vec<Vec<u8>>> {
    let payload: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let entries: Vec<(u32, PartData)> =
        parts.into_iter().enumerate().map(|(r, p)| (r as u32, PartData::Real(p))).collect();
    let (file, sections) = cx.step("bundle_encode", true, || {
        let mut file = Vec::new();
        let mut sections = Vec::with_capacity(entries.len());
        for entry in &entries {
            let len = if entry.1.is_empty() {
                Ok(0)
            } else {
                encode_bundle_into(&mut file, std::slice::from_ref(entry))
                    .map(|(len, _)| len as usize)
            };
            sections.push(len);
        }
        ((file, sections), 0, payload)
    });
    let mut out = Vec::with_capacity(sections.len());
    let mut offset = 0;
    for len in sections {
        let len = len.map_err(err)?;
        if len == 0 {
            out.push(Vec::new());
            continue;
        }
        let body = Body::from_vec(file[offset..offset + len].to_vec());
        offset += len;
        let decoded = cx
            .step("bundle_decode", true, || (decode_bundle(body, Vec::new()), 0, len as u64))
            .map_err(err)?;
        match decoded.into_iter().next() {
            Some((_, PartData::Real(bytes))) => out.push(bytes),
            _ => return Err("a bundle section did not decode to one real part".to_string()),
        }
    }
    Ok(out)
}

/// Receiver `p`'s rows from every sender of a row edge.
fn receive_rows(cx: &mut Cx<'_>, edge: &Edge, p: usize) -> Res<Vec<RecordBatch>> {
    let mut out = Vec::new();
    for sender in edge {
        let part = sender.get(p).ok_or("edge has fewer partitions than the consumer fleet")?;
        if !part.is_empty() {
            out.extend(decode_rows(cx, part)?);
        }
    }
    Ok(out)
}

/// Read one table file as its scan worker does: parse the footer, prune
/// row groups on min/max statistics, decode the scanned columns of the
/// rest. Decompression and decoding are also timed on their own, for the
/// cost model's two constants.
fn scan_file(
    cx: &mut Cx<'_>,
    file: &[u8],
    scan: &ScanStage,
    base: &Schema,
) -> Res<Vec<RecordBatch>> {
    let schema = Arc::new(base.project(&scan.scan_columns));
    let meta = format::read_footer(file).map_err(err)?;
    let mut out = Vec::new();
    for (g, rg) in meta.row_groups.iter().enumerate() {
        if let Some(pred) = &scan.prune_predicate {
            if !can_match(pred, &|i| rg.columns.get(i).and_then(|c| c.stats)) {
                continue;
            }
        }
        let compressed = rg.projected_compressed_len(&scan.scan_columns);
        let columns = cx
            .step("read", true, || {
                (
                    format::read_row_group(file, &meta, g, &scan.scan_columns),
                    rg.num_rows,
                    compressed,
                )
            })
            .map_err(err)?;
        let columns = columns.into_iter().map(Column::from_data).collect();
        out.push(RecordBatch::new(Arc::clone(&schema), columns).map_err(err)?);

        for &c in &scan.scan_columns {
            let chunk = &rg.columns[c];
            let stored =
                &file[chunk.offset as usize..(chunk.offset + chunk.compressed_len) as usize];
            let encoded = cx
                .step("decompress", false, || {
                    (
                        format::compress::invert(
                            stored,
                            chunk.compression,
                            chunk.uncompressed_len as usize,
                        ),
                        0,
                        chunk.compressed_len,
                    )
                })
                .map_err(err)?;
            let ptype = meta.schema.column(c).ptype;
            cx.step("decode", false, || {
                (
                    format::encoding::decode(
                        &encoded,
                        chunk.encoding,
                        ptype,
                        chunk.num_values as usize,
                    ),
                    chunk.num_values,
                    chunk.uncompressed_len,
                )
            })
            .map_err(err)?;
        }
    }
    Ok(out)
}

fn run_pipeline(spec: &PipelineSpec, batches: &[RecordBatch]) -> Res<PipelineOutput> {
    let mut pipeline = Pipeline::new(spec.clone()).map_err(err)?;
    for b in batches {
        pipeline.push(b).map_err(err)?;
    }
    pipeline.finish().map_err(err)
}

/// The kernels a pipeline is made of, each timed on its own over the
/// same batches (not in path: the `pipeline` step already covers them).
fn kernels(cx: &mut Cx<'_>, spec: &PipelineSpec, batches: &[RecordBatch]) -> Res<()> {
    let mid = spec.intermediate_schema().map_err(err)?;
    for batch in batches {
        let rows = batch.num_rows() as u64;
        let filtered = match &spec.predicate {
            Some(p) => {
                let mask =
                    cx.step("mask", false, || (evaluate_mask(p, batch), rows, 0)).map_err(err)?;
                batch.filter(&mask).map_err(err)?
            }
            None => batch.clone(),
        };
        if filtered.num_rows() == 0 {
            continue;
        }
        let rows = filtered.num_rows() as u64;
        let projected = match &spec.projection {
            Some(exprs) => cx
                .step("project", false, || (project_batch(&filtered, exprs, &mid), rows, 0))
                .map_err(err)?,
            None => filtered,
        };
        match &spec.terminal {
            Terminal::PartialAggregate { group_by, aggs }
            | Terminal::PartitionedAggregate { group_by, aggs, .. } => {
                let mut state =
                    GroupedAggState::new(&agg_func_types(aggs, &mid).map_err(err)?).map_err(err)?;
                cx.step("agg_update", false, || {
                    let updated = eval_agg_inputs(group_by, aggs, &projected)
                        .and_then(|(g, a)| state.update_batch(&g, &a, projected.num_rows()));
                    (updated, rows, 0)
                })
                .map_err(err)?;
            }
            Terminal::HashPartition { keys, partitions } => {
                let bytes = batch_bytes(&projected);
                cx.step("hash_partition", false, || {
                    (partition_batch(&projected, keys, *partitions), rows, bytes)
                })
                .map_err(err)?;
            }
            _ => {}
        }
    }
    Ok(())
}

fn local_sort(
    cx: &mut Cx<'_>,
    batch: &RecordBatch,
    keys: &[SortKey],
    limit: Option<usize>,
) -> Res<RecordBatch> {
    let rows = batch.num_rows() as u64;
    let sorted = cx.step("sort", true, || (sort_batch(batch, keys), rows, 0)).map_err(err)?;
    Ok(match limit {
        Some(n) => truncate_rows(sorted, n),
        None => sorted,
    })
}

/// The sort edge's sample protocol without the storage: pool an evenly
/// spaced key sample of every producer's run, derive the boundaries all
/// producers agree on, range-partition each run.
fn range_exchange(cx: &mut Cx<'_>, runs: &[RecordBatch], sort: &SortEdge) -> Res<Edge> {
    let mut pooled: Vec<Vec<Scalar>> = Vec::new();
    for run in runs {
        let key_cols = sort_key_columns(run, &sort.keys).map_err(err)?;
        let rows = run.num_rows();
        let take = SORT_SAMPLE_ROWS.min(rows);
        for i in 0..take {
            pooled.push(key_cols.iter().map(|c| c.value(i * rows / take)).collect());
        }
    }
    let boundaries = range_boundaries(pooled, &sort.keys, sort.partitions);
    let mut edge = Vec::with_capacity(runs.len());
    for run in runs {
        let rows = run.num_rows() as u64;
        let ranges = cx
            .step("range_partition", true, || {
                (range_partition_batch(run, &sort.keys, &boundaries), rows, batch_bytes(run))
            })
            .map_err(err)?;
        let mut parts = Vec::with_capacity(sort.partitions);
        for b in &ranges {
            parts.push(if b.num_rows() == 0 {
                Vec::new()
            } else {
                encode_rows(cx, std::slice::from_ref(b), true)?
            });
        }
        parts.resize(sort.partitions, Vec::new());
        edge.push(send(cx, parts)?);
    }
    Ok(edge)
}

/// The driver's final stage over what the last stage's workers reported.
fn finalize(
    cx: &mut Cx<'_>,
    final_stage: &FinalStage,
    reported: Vec<Reported>,
) -> Res<(RecordBatch, Option<GroupedAggState>)> {
    let merged = |cx: &mut Cx<'_>, funcs| -> Res<GroupedAggState> {
        let mut state = GroupedAggState::new(funcs).map_err(err)?;
        for r in &reported {
            if let Reported::State(bytes) = r {
                merge_encoded(cx, &mut state, bytes)?;
            }
        }
        Ok(state)
    };
    match final_stage {
        FinalStage::MergeAggregate { agg_schema, funcs, post } => {
            let state = merged(cx, funcs)?;
            let batch = agg_state_to_batch(&state, agg_schema).map_err(err)?;
            Ok((apply_post(cx, batch, post)?, None))
        }
        FinalStage::CarryAggState { agg_schema, funcs } => {
            let state = merged(cx, funcs)?;
            // The driver hands the merged state on encoded; the
            // streaming runtime decodes it again.
            let wire = encode_state(cx, &state);
            let state = cx
                .step("agg_codec", true, || (GroupedAggState::decode(&wire), 0, wire.len() as u64))
                .map_err(err)?;
            Ok((RecordBatch::empty(agg_schema.clone()), Some(state)))
        }
        FinalStage::CollectBatches { schema, post } => {
            let mut batches = Vec::new();
            for r in &reported {
                if let Reported::Stored(bytes) = r {
                    batches.extend(decode_rows(cx, bytes)?);
                }
            }
            let batch = RecordBatch::concat(schema.clone(), &batches).map_err(err)?;
            Ok((apply_post(cx, batch, post)?, None))
        }
    }
}

fn apply_post(cx: &mut Cx<'_>, mut batch: RecordBatch, post: &[PostOp]) -> Res<RecordBatch> {
    for op in post {
        batch = match op {
            PostOp::Sort(keys) => local_sort(cx, &batch, keys, None)?,
            PostOp::Limit(n) => truncate_rows(batch, *n),
            PostOp::Project(exprs, schema) => project_batch(&batch, exprs, schema).map_err(err)?,
        };
    }
    Ok(batch)
}
