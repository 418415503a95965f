//! Continuous queries: micro-batch streaming over the batch engine.
//!
//! Lambada (SIGMOD 2020) answers *ad-hoc* queries by renting a serverless
//! fleet for seconds; this module extends the same installation to
//! *unbounded event streams* without adding standing infrastructure. A
//! [`ContinuousQuery`] chops the stream into timestamped micro-batches
//! and runs each one as an ordinary [`QueryDag`] through the query
//! service — admission control, tenant budgets, the in-flight worker
//! gate, and the event-driven stage scheduler all apply per batch, so
//! streaming and ad-hoc tenants share one installation and one policy
//! (micro-batches map naturally onto function invocations, and per-batch
//! fleet sizing stays inside the existing admission machinery instead of
//! reserving capacity).
//!
//! # Windowing without new operators
//!
//! The driver assigns window instances *before* encoding each micro-batch:
//! [`lambada_engine::assign_windows`] replicates each event row once per
//! containing window of the query's [`WindowSpec`] and appends the
//! instance's start as a trailing `Int64` column. The per-batch
//! distributed plan is then a plain grouped aggregation whose first group
//! key is that window column — scan fleets, exchange edges, both
//! [`crate::AggStrategy`] modes, and both transports run byte-for-byte
//! the ad-hoc code path.
//!
//! # State carry and watermark emission
//!
//! The per-batch DAG ends in [`FinalStage::CarryAggState`]: workers
//! report *unfinalized* [`GroupedAggState`] (the same frozen wire format
//! ad-hoc aggregation uses — see [`crate::message::ResultPayload`]), and
//! the driver merges it into the state carried across batches instead of
//! finalizing. The watermark is `max event timestamp − allowed lateness`;
//! after each batch, every window `[w, w + size)` with
//! `w + size ≤ watermark` is split off the carried state
//! ([`GroupedAggState::split_off_closed`]), finalized, and emitted —
//! sorted by (window start, group keys), so concatenating emissions over
//! the stream reproduces the batch reference executor's output
//! bit-identically. Events older than the watermark at batch start are
//! counted in [`ContinuousQuery::late_events`] and excluded entirely.
//!
//! See `docs/STREAMING.md` for the lifecycle and the exactness argument.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::ops::Range;

use lambada_engine::agg::GroupedAggState;
use lambada_engine::logical::LogicalPlan;
use lambada_engine::physical::agg_state_to_batch;
use lambada_engine::types::SchemaRef;
use lambada_engine::{assign_windows, Column, DataType, Field, RecordBatch, Schema, WindowSpec};
use lambada_format::{chunk_rows, write_file, ColumnData, WriterOptions};
use lambada_sim::services::object_store::Body;
use lambada_sim::SourceEvent;

use crate::driver::{Lambada, QueryReport};
use crate::error::{CoreError, Result};
use crate::service::QueryService;
use crate::stage::{FinalStage, QueryDag, StageKind};
use crate::table::{TableFile, TableSpec};
use crate::verify::{verify_dag, verify_stream};

/// Name of the window-start column the runtime appends to each
/// micro-batch. Plans built by a [`ContinuousQuery`]'s plan function must
/// group by it first.
pub const WINDOW_COLUMN: &str = "wstart";

/// Schema of an event micro-batch *before* window assignment:
/// `ts`, `key`, `value`, all `Int64` (matching [`SourceEvent`]).
pub fn event_schema() -> Schema {
    Schema::new(vec![
        Field::new("ts", DataType::Int64),
        Field::new("key", DataType::Int64),
        Field::new("value", DataType::Int64),
    ])
}

/// Schema of a micro-batch *after* window assignment: the event
/// schema plus the trailing [`WINDOW_COLUMN`].
pub fn windowed_event_schema() -> Schema {
    let mut s = event_schema();
    s.fields.push(Field::new(WINDOW_COLUMN, DataType::Int64));
    s
}

/// Columnize events in arrival order.
pub fn events_to_batch(events: &[SourceEvent]) -> Result<RecordBatch> {
    Ok(RecordBatch::from_columns(
        &["ts", "key", "value"],
        vec![
            Column::I64(events.iter().map(|e| e.ts).collect()),
            Column::I64(events.iter().map(|e| e.key).collect()),
            Column::I64(events.iter().map(|e| e.value).collect()),
        ],
    )?)
}

/// Shape of one continuous query: its window, watermark slack, and how
/// each micro-batch is cut into files.
#[derive(Clone, Copy, Debug)]
pub struct StreamSpec {
    /// Tumbling or sliding event-time window of the aggregation.
    pub window: WindowSpec,
    /// Allowed lateness in ticks: the watermark trails the maximum event
    /// timestamp by this much. Set it to the source's out-of-orderness
    /// bound and no in-bound event is ever classified late.
    pub lateness: i64,
    /// Files each micro-batch is cut into, before any file over its inline
    /// budget is cut again. Not the scan fleet's size: latency-bound files
    /// pack several to a worker, so the default two make one scan worker.
    pub batch_files: usize,
    /// Row groups per file.
    pub row_groups_per_file: usize,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            window: WindowSpec::tumbling(10),
            lateness: 5,
            batch_files: 2,
            row_groups_per_file: 2,
        }
    }
}

/// Rewrite a planned ad-hoc aggregation DAG into its streaming form: the
/// final stage becomes [`FinalStage::CarryAggState`], so the driver
/// returns merged *unfinalized* state instead of a finalized batch.
/// Accepts a driver-merged aggregation (`MergeAggregate`) or an
/// exchange-repartitioned one (`CollectBatches` over an agg-merge last
/// stage); anything else — including plans with driver post-ops, whose
/// sorts/limits/projections are meaningless over carried state — is
/// unsupported.
pub fn streamify(mut dag: QueryDag) -> Result<QueryDag> {
    let final_stage = match &dag.final_stage {
        FinalStage::MergeAggregate { agg_schema, funcs, post } if post.is_empty() => {
            FinalStage::CarryAggState { agg_schema: agg_schema.clone(), funcs: funcs.clone() }
        }
        FinalStage::CollectBatches { post, .. } if post.is_empty() => match dag.stages.last() {
            Some(StageKind::AggMerge(a)) => FinalStage::CarryAggState {
                agg_schema: a.agg_schema.clone(),
                funcs: a.funcs.clone(),
            },
            _ => {
                return Err(CoreError::Unsupported(
                    "streaming needs an aggregation-rooted plan".to_string(),
                ))
            }
        },
        _ => {
            return Err(CoreError::Unsupported(
                "streaming needs an aggregation-rooted plan without driver post-ops".to_string(),
            ))
        }
    };
    dag.final_stage = final_stage;
    Ok(dag)
}

/// Result of one [`ContinuousQuery::push_batch`] call.
pub struct StreamBatchReport {
    /// Windows the watermark closed after this batch, finalized and
    /// sorted by (window start, group keys). Empty rows when nothing
    /// closed.
    pub emitted: RecordBatch,
    /// Execution report of the micro-batch's distributed query, `None`
    /// when the batch had no in-bound events and no query was submitted.
    pub query: Option<QueryReport>,
    /// Events this batch dropped as late (older than the watermark at
    /// batch start).
    pub late_events: u64,
    /// Watermark after the batch.
    pub watermark: i64,
}

/// Builds the per-batch logical plan given the micro-batch's table
/// name; see [`ContinuousQuery::new`].
type PlanFn = Box<dyn Fn(&Lambada, &str) -> Result<LogicalPlan>>;

/// A continuous windowed aggregation over an event stream, executing one
/// distributed query per micro-batch through the query service.
///
/// Construction plans the query once against a probe table to fix the
/// aggregate's schema and accumulator shapes, and statically verifies
/// the streaming contracts ([`verify_stream`], the `V-STREAM-*` codes)
/// alongside the regular plan verifier — a malformed streaming plan
/// never encodes a byte or reserves budget.
pub struct ContinuousQuery<'a> {
    service: &'a QueryService,
    tenant: String,
    /// Stream name: prefixes the per-batch tables.
    name: String,
    spec: StreamSpec,
    plan_fn: PlanFn,
    agg_schema: SchemaRef,
    carried: GroupedAggState,
    /// Max event timestamp seen (watermark = this − lateness).
    max_ts: i64,
    watermark: i64,
    late_events: u64,
    seq: u64,
    batches_run: u64,
}

impl<'a> ContinuousQuery<'a> {
    /// Create a continuous query for `tenant`. `plan_fn` builds the
    /// per-batch logical plan given the micro-batch's table name
    /// (schema [`windowed_event_schema`]); it must be an aggregation
    /// grouping by [`WINDOW_COLUMN`] first, and may reference other
    /// registered tables (e.g. a static dimension table to join).
    pub fn new(
        service: &'a QueryService,
        tenant: &str,
        name: &str,
        spec: StreamSpec,
        plan_fn: impl Fn(&Lambada, &str) -> Result<LogicalPlan> + 'static,
    ) -> Result<ContinuousQuery<'a>> {
        spec.window.validate()?;
        let system = service.system();
        // Probe-plan against a schema-only table to fix the aggregate
        // shape and verify the streaming contracts before any data moves.
        let probe = format!("{name}__probe");
        system.register_table_shared(TableSpec::new(
            probe.clone(),
            windowed_event_schema(),
            Vec::new(),
            0,
        ));
        let planned = (|| {
            let plan = plan_fn(system, &probe)?;
            streamify(system.plan(&plan)?)
        })();
        system.unregister_table(&probe);
        let dag = planned?;
        let mut diags = verify_dag(&dag);
        diags.extend(verify_stream(&dag, &spec.window, spec.lateness));
        if !diags.is_empty() {
            return Err(CoreError::InvalidPlan(diags));
        }
        let FinalStage::CarryAggState { agg_schema, funcs } = &dag.final_stage else {
            // streamify only produces CarryAggState; unreachable by construction.
            return Err(CoreError::Unsupported("probe plan did not streamify".to_string()));
        };
        let carried = GroupedAggState::new(funcs)?;
        Ok(ContinuousQuery {
            service,
            tenant: tenant.to_string(),
            name: name.to_string(),
            spec,
            plan_fn: Box::new(plan_fn),
            agg_schema: agg_schema.clone(),
            carried,
            max_ts: i64::MIN,
            watermark: i64::MIN,
            late_events: 0,
            seq: 0,
            batches_run: 0,
        })
    }

    /// Total events dropped as late (older than the watermark at their
    /// batch's start) since the query started.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Current watermark (`i64::MIN` before the first event).
    pub fn watermark(&self) -> i64 {
        self.watermark
    }

    /// Open (not yet emitted) window groups carried across batches.
    pub fn carried_groups(&self) -> usize {
        self.carried.num_groups()
    }

    /// Micro-batches that actually submitted a distributed query.
    pub fn batches_run(&self) -> u64 {
        self.batches_run
    }

    /// Output schema of emitted windows (window start first).
    pub fn agg_schema(&self) -> &SchemaRef {
        &self.agg_schema
    }

    /// Ingest one micro-batch: drop late events, assign windows, encode
    /// the batch as a short-lived table of inline files (they ride the
    /// scan workers' payloads, so nothing is stored and nothing is left
    /// behind), run it as a distributed query through the service, merge
    /// the returned state into the carried windows, advance the
    /// watermark, and emit every window it closed.
    pub async fn push_batch(&mut self, events: &[SourceEvent]) -> Result<StreamBatchReport> {
        let seq = self.seq;
        self.seq += 1;
        // Late = older than the watermark the previous batch established.
        // The watermark only rises, so a kept event's window is provably
        // still open and a dropped event's window is provably emitted.
        let wm = self.watermark;
        let kept: Vec<SourceEvent> = events.iter().filter(|e| e.ts >= wm).copied().collect();
        let late = (events.len() - kept.len()) as u64;
        self.late_events += late;
        for e in &kept {
            self.max_ts = self.max_ts.max(e.ts);
        }

        let query = if kept.is_empty() {
            None
        } else {
            let windowed =
                assign_windows(&events_to_batch(&kept)?, 0, &self.spec.window, WINDOW_COLUMN)?;
            let system = self.service.system();
            let table = format!("{}_b{seq}", self.name);
            system.register_table_shared(batch_table(&table, &windowed, &self.spec)?);
            let submitted = (|| {
                let plan = (self.plan_fn)(system, &table)?;
                streamify(system.plan(&plan)?)
            })();
            // The table must stay registered until the spawned query has
            // planned its payloads — await first, unregister after.
            let outcome = match submitted {
                Ok(dag) => self.service.submit_dag(&self.tenant, &dag).await,
                Err(e) => Err(e),
            };
            system.unregister_table(&table);
            let report = outcome?;
            if let Some(bytes) = &report.agg_state {
                self.carried.merge(&GroupedAggState::decode(bytes)?)?;
            }
            self.batches_run += 1;
            Some(report)
        };

        if self.max_ts > i64::MIN {
            self.watermark = self.max_ts.saturating_sub(self.spec.lateness);
        }
        let emitted = self.emit_closed(self.close_before())?;
        Ok(StreamBatchReport { emitted, query, late_events: late, watermark: self.watermark })
    }

    /// Close and emit every remaining window (end of stream).
    pub fn finish(&mut self) -> Result<RecordBatch> {
        self.emit_closed(i64::MAX)
    }

    /// First window start the watermark has NOT closed: `[w, w + size)`
    /// is closed iff `w + size <= watermark`.
    fn close_before(&self) -> i64 {
        if self.watermark == i64::MIN {
            return i64::MIN; // no watermark yet, nothing closes
        }
        self.watermark.saturating_sub(self.spec.window.size).saturating_add(1)
    }

    fn emit_closed(&mut self, close_before: i64) -> Result<RecordBatch> {
        let closed = self.carried.split_off_closed(close_before);
        Ok(agg_state_to_batch(&closed, &self.agg_schema)?)
    }
}

/// Encode one windowed micro-batch as the table `table` of inline files
/// ([`TableFile::inline`]), each riding its scan worker's payload: the
/// rows are cut into `spec.batch_files` runs of `spec.row_groups_per_file`
/// row groups each, and a run whose file encodes to more than the inline
/// budget of a fleet of that many files
/// ([`crate::invoke::inline_file_budget`]) is cut in two until every file
/// fits — short of a one-row file, which stays whole. Nothing is stored.
fn batch_table(table: &str, windowed: &RecordBatch, spec: &StreamSpec) -> Result<TableSpec> {
    let schema = windowed_event_schema();
    let file_schema = schema.to_file_schema()?;
    let encode = |run: &Range<usize>| -> Result<Vec<u8>> {
        let chunk = windowed.gather(&run.clone().collect::<Vec<_>>());
        let rg_rows = chunk.num_rows().div_ceil(spec.row_groups_per_file.max(1)).max(1);
        let data: Result<Vec<ColumnData>> = chunk
            .into_columns()
            .into_iter()
            .map(|c| c.into_data().map_err(CoreError::from))
            .collect();
        Ok(write_file(file_schema.clone(), &chunk_rows(&data?, rg_rows), WriterOptions::default())?)
    };
    let rows = windowed.num_rows();
    let per_file = rows.div_ceil(spec.batch_files.max(1)).max(1);
    let mut files: Vec<(Range<usize>, Vec<u8>)> = (0..rows)
        .step_by(per_file)
        .map(|start| {
            let run = start..(start + per_file).min(rows);
            Ok((run.clone(), encode(&run)?))
        })
        .collect::<Result<_>>()?;
    let over = |(run, bytes): &(Range<usize>, Vec<u8>), n: usize| {
        run.len() > 1 && bytes.len() as u64 > crate::invoke::inline_file_budget(n)
    };
    while let Some(i) = files.iter().position(|f| over(f, files.len())) {
        let (run, _) = files.remove(i);
        let mid = run.start + run.len() / 2;
        let (a, b) = (run.start..mid, mid..run.end);
        files.splice(i..i, [(a.clone(), encode(&a)?), (b.clone(), encode(&b)?)]);
    }
    let files = files.into_iter().enumerate().map(|(i, (_, bytes))| {
        TableFile::inline(format!("{table}/p{i:05}/part.lpq"), Body::from_vec(bytes))
    });
    Ok(TableSpec::new(table, schema, files.collect(), rows as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invoke::inline_file_budget;

    /// `rows` events whose values do not compress: each encodes to about
    /// the 32 bytes of its four `Int64`s once windowed.
    fn windowed(rows: i64) -> RecordBatch {
        let mix = |i: i64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64) >> 7;
        let events: Vec<SourceEvent> = (0..rows)
            .map(|i| SourceEvent { ts: i / 100, key: mix(i) % 64, value: mix(i + rows) })
            .collect();
        let batch = events_to_batch(&events).unwrap();
        assign_windows(&batch, 0, &WindowSpec::tumbling(10), WINDOW_COLUMN).unwrap()
    }

    /// A small batch is cut into `batch_files` inline files and nothing
    /// more; one too large for its payloads is cut again until every file
    /// fits the inline budget of a fleet of as many files — the rows all
    /// there, in order, and no file stored.
    #[test]
    fn a_batch_is_cut_until_every_file_fits_its_payload_share() {
        let spec = StreamSpec::default();
        for (rows, cut_again) in [(4_000, false), (120_000, true)] {
            let batch = windowed(rows);
            let table = batch_table("s_b0", &batch, &spec).unwrap();
            let files = &table.files;
            assert_eq!(files.len() > spec.batch_files, cut_again, "{rows} rows: {}", files.len());
            let budget = inline_file_budget(files.len());
            let mut decoded = Vec::new();
            for (i, f) in files.iter().enumerate() {
                assert!(f.bucket.is_empty() && f.key == format!("s_b0/p{i:05}/part.lpq"));
                assert!(f.inline_bytes() <= budget, "{} B over {budget} B", f.size);
                let bytes = f.inline.as_ref().and_then(Body::as_real).unwrap();
                let (_, groups) = lambada_format::read_all(bytes).unwrap();
                decoded.extend(groups.into_iter().map(|g| g[1].clone()));
            }
            let keys: Vec<i64> =
                decoded.iter().flat_map(|c| c.as_i64().unwrap().to_vec()).collect();
            assert_eq!(keys.as_slice(), batch.column(1).as_i64().unwrap(), "{rows} rows");
        }
    }
}
