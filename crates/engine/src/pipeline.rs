//! Worker-side streaming pipelines.
//!
//! A serverless worker executes one plan *fragment* (§3.2–3.3). Every
//! fragment has the same shape — the fragment grammar the distributed
//! planner in `lambada-core` lowers stages into:
//!
//! ```text
//! input → [Filter]? → [Project]? → Terminal
//! ```
//!
//! The input is pushed in batch by batch (scan output, exchanged
//! co-partitions, or probe input); predicate and projection refer to the
//! fragment's *input* schema; and the [`Terminal`] decides what is
//! retained and what the fragment produces when it finishes:
//!
//! | terminal | retains | produces |
//! |---|---|---|
//! | [`Terminal::PartialAggregate`] | grouped agg state | one [`GroupedAggState`] |
//! | [`Terminal::PartitionedAggregate`] | grouped agg state | per-partition state shards |
//! | [`Terminal::Collect`] | projected batches | batches |
//! | [`Terminal::HashPartition`] | per-partition batches | per-partition batches |
//! | [`Terminal::SortPartition`] | projected batches | one locally sorted (top-k-truncated) run |
//! | [`Terminal::Probe`] | joined batches | batches |
//!
//! Everything is a push-based pipeline that keeps only the terminal's
//! state in memory, so a worker's footprint is bounded by its retained
//! state rather than its input ([`Pipeline::approx_state_bytes`] feeds
//! the OOM modelling).
//!
//! ## What `push` copies
//!
//! A value is touched once per consumer and copied only where something
//! is retained. The predicate yields one mask: if it keeps every row the
//! input batch is used as it is, if none `push` returns, and otherwise
//! the mask becomes one selection vector ([`crate::column::selection`])
//! that an input column is gathered through the first time a later step
//! reads it — a column only the predicate reads never is. Expressions
//! evaluate to borrowed columns ([`crate::expr::kernels::Value`]), so a
//! bare column reference in a projection, a grouping key or an aggregate
//! argument is a pointer, and the aggregate terminals hand
//! [`GroupedAggState::update_columns`] references without a projected
//! batch ever being assembled. The terminals that keep rows copy them
//! once: `Collect` and `SortPartition` when they store the batch,
//! `HashPartition` and `Probe` in the gather that builds their output
//! (an unfiltered, unprojected input is read in place).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::agg::{AggExpr, AggFunc, GroupedAggState};
use crate::batch::RecordBatch;
use crate::column::selection;
use crate::column::Column;
use crate::error::{exec_err, plan_err, Result};
use crate::expr::{eval, Expr};
use crate::join::{partition_rows, JoinState};
use crate::logical::{JoinVariant, SortKey};
use crate::types::{DataType, Schema, SchemaRef};

/// What a fragment does with the rows that survive filter + projection.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminal {
    /// Partial hash aggregation (the common case for Q1/Q6-style queries).
    PartialAggregate { group_by: Vec<(Expr, String)>, aggs: Vec<AggExpr> },
    /// Partial hash aggregation whose finished [`GroupedAggState`] is
    /// sharded `partitions` ways by group-key hash for an exchange edge
    /// (see [`GroupedAggState::split`]). Used by the producer stages of a
    /// distributed (repartitioned) group-by aggregation: every producer
    /// routes a given group to the same merge worker, so merge workers
    /// own disjoint group ranges and can finalize without coordination.
    PartitionedAggregate { group_by: Vec<(Expr, String)>, aggs: Vec<AggExpr>, partitions: usize },
    /// Collect projected batches (feeding an exchange or a result upload).
    Collect,
    /// Hash-partition rows on key columns for an exchange edge: output
    /// batch `p` of the result holds exactly the rows whose key hashes to
    /// partition `p`. Used by the scan stages of a distributed join.
    HashPartition { keys: Vec<usize>, partitions: usize },
    /// Collect projected rows and, on finish, sort them by `keys` and
    /// truncate to `limit` — the producer side of a distributed
    /// range-partitioned sort. Top-k pushdown happens here: with `LIMIT
    /// n`, no producer ever ships more than its local top `n` rows onto
    /// the exchange edge (the global top `n` is a subset of the union of
    /// local top-`n` runs). The *range* partitioning itself needs the
    /// fleet-wide sample boundaries, which only exist at runtime — the
    /// worker applies [`crate::physical::range_partition_batch`] to the
    /// finished run.
    SortPartition { keys: Vec<SortKey>, limit: Option<usize> },
    /// Probe a build-side hash table ([`JoinState`]) with each batch,
    /// collecting what the join `variant` emits: `probe ++ build`
    /// matching pairs for [`JoinVariant::Inner`], pairs plus
    /// sentinel-padded unmatched probe rows for
    /// [`JoinVariant::LeftOuter`], and the matched-once / unmatched probe
    /// rows alone for [`JoinVariant::Semi`] / [`JoinVariant::Anti`]. Used
    /// by the join stage; the build state is constructed at runtime from
    /// the exchanged build input, which is why it rides along as a shared
    /// handle rather than plan data.
    Probe { build: Rc<JoinState>, probe_keys: Vec<usize>, variant: JoinVariant },
}

/// A compiled plan fragment: predicate and projection refer to the
/// fragment's *input* schema (the scan output).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSpec {
    pub input_schema: SchemaRef,
    pub predicate: Option<Expr>,
    /// `None` means pass input columns through unchanged.
    pub projection: Option<Vec<(Expr, String)>>,
    pub terminal: Terminal,
}

impl PipelineSpec {
    /// Schema after filter + projection (what the terminal consumes).
    pub fn intermediate_schema(&self) -> Result<SchemaRef> {
        match &self.projection {
            None => Ok(self.input_schema.clone()),
            Some(exprs) => {
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    fields.push(crate::types::Field::new(
                        name.clone(),
                        e.data_type(&self.input_schema)?,
                    ));
                }
                Ok(Schema::arc(fields))
            }
        }
    }
}

/// Result of a finished pipeline.
pub enum PipelineOutput {
    Aggregate(GroupedAggState),
    Batches(Vec<RecordBatch>),
    /// `partitions[p]` holds the batches destined to partition `p`.
    Partitions(Vec<Vec<RecordBatch>>),
    /// `shards[p]` holds the partial-aggregate state of the groups whose
    /// key hashes to partition `p` (from [`Terminal::PartitionedAggregate`]).
    AggShards(Vec<GroupedAggState>),
}

/// Running pipeline state.
pub struct Pipeline {
    spec: PipelineSpec,
    mid_schema: SchemaRef,
    agg: Option<GroupedAggState>,
    collected: Vec<RecordBatch>,
    partitioned: Vec<Vec<RecordBatch>>,
    rows_in: u64,
    rows_out: u64,
}

/// Resolve `(func, argument type)` pairs for aggregate expressions.
pub fn agg_func_types(
    aggs: &[AggExpr],
    input: &Schema,
) -> Result<Vec<(AggFunc, Option<DataType>)>> {
    aggs.iter()
        .map(|a| {
            let t = match &a.arg {
                Some(e) => Some(e.data_type(input)?),
                None => None,
            };
            Ok((a.func, t))
        })
        .collect()
}

/// Evaluated grouping columns and aggregate arguments (`None` under
/// `COUNT(*)`), borrowed wherever the expression is a bare column
/// reference.
type AggInputs<'a> = (Vec<Cow<'a, Column>>, Vec<Option<Cow<'a, Column>>>);

/// Grouping and aggregate-argument expressions evaluated over columns:
/// `column(i)` is input column `i`, `rows` long.
fn agg_inputs<'a>(
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    column: &impl Fn(usize) -> Option<&'a Column>,
    rows: usize,
) -> Result<AggInputs<'a>> {
    let eval = |e: &Expr| Ok(eval::evaluate_over(e, column)?.into_cow(rows));
    let groups = group_by.iter().map(|(e, _)| eval(e)).collect::<Result<_>>()?;
    let args = aggs.iter().map(|a| a.arg.as_ref().map(&eval).transpose()).collect::<Result<_>>()?;
    Ok((groups, args))
}

/// Evaluate grouping and aggregate-argument expressions over a batch,
/// into columns of the caller's own.
pub fn eval_agg_inputs(
    group_by: &[(Expr, String)],
    aggs: &[AggExpr],
    batch: &RecordBatch,
) -> Result<(Vec<Column>, Vec<Option<Column>>)> {
    let (groups, args) = agg_inputs(group_by, aggs, &|i| batch.columns().get(i), batch.num_rows())?;
    Ok((
        groups.into_iter().map(Cow::into_owned).collect(),
        args.into_iter().map(|a| a.map(Cow::into_owned)).collect(),
    ))
}

/// The rows of an input batch that the predicate kept, column by column.
struct Survivors<'a> {
    batch: &'a RecordBatch,
    /// The kept rows' numbers; `None` when every row was kept and the
    /// columns are the batch's own.
    rows: Option<Vec<u32>>,
    /// Input columns gathered through `rows`, each on first use.
    gathered: Vec<OnceCell<Column>>,
}

impl<'a> Survivors<'a> {
    fn new(batch: &'a RecordBatch, rows: Option<Vec<u32>>) -> Survivors<'a> {
        let cells = if rows.is_some() { batch.num_columns() } else { 0 };
        Survivors { batch, rows, gathered: (0..cells).map(|_| OnceCell::new()).collect() }
    }

    fn num_rows(&self) -> usize {
        self.rows.as_ref().map_or(self.batch.num_rows(), Vec::len)
    }

    /// Input column `i`, kept rows only.
    fn column(&self, i: usize) -> Option<&Column> {
        let column = self.batch.columns().get(i)?;
        Some(match &self.rows {
            Some(rows) => self.gathered.get(i)?.get_or_init(|| column.select(rows)),
            None => column,
        })
    }

    /// A copy of [`Survivors::column`] for a terminal that keeps it: one
    /// gather, or one clone, straight from the batch.
    fn copied(&self, i: usize) -> Result<Column> {
        match (self.batch.columns().get(i), &self.rows) {
            (Some(column), Some(rows)) => Ok(column.select(rows)),
            (Some(column), None) => Ok(column.clone()),
            (None, _) => plan_err(format!("column index {i} out of range")),
        }
    }

    /// The projected batch, materialised for a terminal that keeps rows
    /// or gathers from them — or the input batch itself where nothing
    /// was filtered out or projected.
    fn project(
        &self,
        projection: Option<&[(Expr, String)]>,
        schema: &SchemaRef,
    ) -> Result<Cow<'a, RecordBatch>> {
        let rows = self.num_rows();
        let columns: Result<Vec<Column>> = match projection {
            None if self.rows.is_none() => return Ok(Cow::Borrowed(self.batch)),
            None => (0..self.batch.num_columns()).map(|i| self.copied(i)).collect(),
            Some(exprs) => exprs
                .iter()
                .map(|(e, _)| match e {
                    Expr::Col(i) => self.copied(*i),
                    e => Ok(eval::evaluate_over(e, &|i| self.column(i))?.into_column(rows)),
                })
                .collect(),
        };
        RecordBatch::new(Arc::clone(schema), columns?).map(Cow::Owned)
    }
}

impl Pipeline {
    pub fn new(spec: PipelineSpec) -> Result<Pipeline> {
        let mid_schema = spec.intermediate_schema()?;
        let mut partitioned = Vec::new();
        let agg = match &spec.terminal {
            Terminal::PartialAggregate { aggs, .. } => {
                Some(GroupedAggState::new(&agg_func_types(aggs, &mid_schema)?)?)
            }
            Terminal::PartitionedAggregate { aggs, partitions, .. } => {
                if *partitions == 0 {
                    return plan_err("partitioned aggregate terminal needs at least one partition");
                }
                Some(GroupedAggState::new(&agg_func_types(aggs, &mid_schema)?)?)
            }
            Terminal::HashPartition { keys, partitions } => {
                if *partitions == 0 {
                    return plan_err("hash partition terminal needs at least one partition");
                }
                for &k in keys {
                    if k >= mid_schema.len() {
                        return plan_err(format!("partition key column {k} out of range"));
                    }
                }
                partitioned = vec![Vec::new(); *partitions];
                None
            }
            Terminal::Probe { build, probe_keys, .. } => {
                for &k in probe_keys {
                    if k >= mid_schema.len() {
                        return plan_err(format!("probe key column {k} out of range"));
                    }
                }
                if probe_keys.len() != build.key_cols().len() {
                    return plan_err("probe key count differs from build key count");
                }
                None
            }
            Terminal::SortPartition { keys, .. } => {
                if keys.is_empty() {
                    return plan_err("sort-partition terminal needs at least one key");
                }
                for k in keys {
                    // Type-check the key expressions against the
                    // intermediate schema so finish() cannot fail.
                    k.expr.data_type(&mid_schema)?;
                }
                None
            }
            Terminal::Collect => None,
        };
        Ok(Pipeline {
            spec,
            mid_schema,
            agg,
            collected: Vec::new(),
            partitioned,
            rows_in: 0,
            rows_out: 0,
        })
    }

    /// Rows seen / rows surviving the filter so far.
    pub fn row_counts(&self) -> (u64, u64) {
        (self.rows_in, self.rows_out)
    }

    /// Approximate memory footprint of retained state, for OOM modelling.
    pub fn approx_state_bytes(&self) -> usize {
        let agg = self.agg.as_ref().map_or(0, GroupedAggState::approx_bytes);
        let collected: usize =
            self.collected.iter().map(|b| b.num_rows() * b.num_columns() * 8).sum();
        let partitioned: usize =
            self.partitioned.iter().flatten().map(|b| b.num_rows() * b.num_columns() * 8).sum();
        agg + collected + partitioned
    }

    /// Push one input batch through filter → project → terminal.
    pub fn push(&mut self, batch: &RecordBatch) -> Result<()> {
        if batch.schema().as_ref() != self.spec.input_schema.as_ref() {
            return plan_err(format!(
                "pipeline input schema mismatch: got {}, expected {}",
                batch.schema(),
                self.spec.input_schema
            ));
        }
        self.rows_in += batch.num_rows() as u64;
        let kept = match &self.spec.predicate {
            Some(p) => selection(&eval::evaluate_mask(p, batch)?)?,
            None => None,
        };
        let input = Survivors::new(batch, kept);
        let rows = input.num_rows();
        self.rows_out += rows as u64;
        if rows == 0 {
            return Ok(());
        }
        let projection = self.spec.projection.as_deref();
        match &self.spec.terminal {
            Terminal::PartialAggregate { group_by, aggs }
            | Terminal::PartitionedAggregate { group_by, aggs, .. } => {
                let Some(state) = &mut self.agg else {
                    return exec_err("aggregate terminal without aggregation state");
                };
                let projected = match projection {
                    Some(exprs) => {
                        let eval = |e| eval::evaluate_over(e, &|i| input.column(i));
                        let columns = exprs.iter().map(|(e, _)| Ok(eval(e)?.into_cow(rows)));
                        Some(columns.collect::<Result<Vec<Cow<'_, Column>>>>()?)
                    }
                    None => None,
                };
                let mid = |i: usize| match &projected {
                    Some(columns) => columns.get(i).map(Cow::as_ref),
                    None => input.column(i),
                };
                let (groups, args) = agg_inputs(group_by, aggs, &mid, rows)?;
                let groups: Vec<&Column> = groups.iter().map(Cow::as_ref).collect();
                let args: Vec<Option<&Column>> = args.iter().map(Option::as_deref).collect();
                state.update_columns(&groups, &args, rows)?;
            }
            Terminal::Collect | Terminal::SortPartition { .. } => {
                self.collected.push(input.project(projection, &self.mid_schema)?.into_owned());
            }
            Terminal::HashPartition { keys, partitions } => {
                let projected = input.project(projection, &self.mid_schema)?;
                let indices = partition_rows(&projected, keys, *partitions);
                for (p, idx) in indices.into_iter().enumerate() {
                    if !idx.is_empty() {
                        self.partitioned[p].push(projected.gather(&idx));
                    }
                }
            }
            Terminal::Probe { build, probe_keys, variant } => {
                let projected = input.project(projection, &self.mid_schema)?;
                let joined = build.probe_variant(&projected, probe_keys, *variant)?;
                if joined.num_rows() > 0 {
                    self.collected.push(joined);
                }
            }
        }
        Ok(())
    }

    /// Finish and return the fragment output.
    pub fn finish(self) -> Result<PipelineOutput> {
        if let Some(state) = self.agg {
            return Ok(match self.spec.terminal {
                Terminal::PartitionedAggregate { partitions, .. } => {
                    PipelineOutput::AggShards(state.split(partitions))
                }
                _ => PipelineOutput::Aggregate(state),
            });
        }
        Ok(match self.spec.terminal {
            Terminal::HashPartition { .. } => PipelineOutput::Partitions(self.partitioned),
            Terminal::SortPartition { keys, limit } => {
                let all = RecordBatch::concat(self.mid_schema, &self.collected)?;
                PipelineOutput::Batches(vec![crate::physical::sort_limit(all, &keys, limit)?])
            }
            _ => PipelineOutput::Batches(self.collected),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::{col, lit_f64, lit_i64};
    use crate::scalar::Scalar;
    use crate::types::Field;

    fn input_schema() -> SchemaRef {
        Schema::arc(vec![
            Field::new("qty", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("grp", DataType::Int64),
        ])
    }

    fn batch(qty: Vec<i64>, price: Vec<f64>, grp: Vec<i64>) -> RecordBatch {
        RecordBatch::new(
            input_schema(),
            vec![Column::I64(qty), Column::F64(price), Column::I64(grp)],
        )
        .unwrap()
    }

    #[test]
    fn filter_project_partial_agg() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: Some(col(0).lt(lit_i64(30))),
            projection: Some(vec![
                (col(2), "grp".to_string()),
                (col(1).mul(lit_f64(2.0)), "p2".to_string()),
            ]),
            terminal: Terminal::PartialAggregate {
                group_by: vec![(col(0), "grp".to_string())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(col(1)), "s")],
            },
        };
        let mut p = Pipeline::new(spec).unwrap();
        p.push(&batch(vec![10, 40, 20], vec![1.0, 2.0, 3.0], vec![1, 1, 2])).unwrap();
        p.push(&batch(vec![25, 50], vec![4.0, 5.0], vec![2, 2])).unwrap();
        assert_eq!(p.row_counts(), (5, 3));
        let PipelineOutput::Aggregate(state) = p.finish().unwrap() else {
            panic!("expected aggregate output");
        };
        let rows = state.finalize_rows();
        // grp=1: 2*1.0 = 2.0; grp=2: 2*3.0 + 2*4.0 = 14.0.
        assert_eq!(rows[0].1[0], Scalar::Float64(2.0));
        assert_eq!(rows[1].1[0], Scalar::Float64(14.0));
    }

    #[test]
    fn partitioned_agg_shards_agree_with_plain_partial_agg() {
        let terminal = |partitions| Terminal::PartitionedAggregate {
            group_by: vec![(col(2), "grp".to_string())],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, Some(col(0)), "s"),
                AggExpr::new(AggFunc::Count, None, "c"),
            ],
            partitions,
        };
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: Some(col(0).lt(lit_i64(40))),
            projection: None,
            terminal: terminal(3),
        };
        let mut p = Pipeline::new(spec.clone()).unwrap();
        let mut reference = Pipeline::new(PipelineSpec {
            terminal: Terminal::PartialAggregate {
                group_by: vec![(col(2), "grp".to_string())],
                aggs: vec![
                    AggExpr::new(AggFunc::Sum, Some(col(0)), "s"),
                    AggExpr::new(AggFunc::Count, None, "c"),
                ],
            },
            ..spec
        })
        .unwrap();
        for b in [
            batch(vec![10, 40, 20], vec![1.0, 2.0, 3.0], vec![1, 1, 2]),
            batch(vec![25, 50, 5], vec![4.0, 5.0, 6.0], vec![2, 3, 4]),
        ] {
            p.push(&b).unwrap();
            reference.push(&b).unwrap();
        }
        let PipelineOutput::AggShards(shards) = p.finish().unwrap() else {
            panic!("expected agg shards");
        };
        assert_eq!(shards.len(), 3);
        let PipelineOutput::Aggregate(want) = reference.finish().unwrap() else {
            panic!("expected aggregate");
        };
        let mut merged =
            GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64)), (AggFunc::Count, None)])
                .unwrap();
        for s in &shards {
            merged.merge(s).unwrap();
        }
        assert_eq!(merged.finalize_rows(), want.finalize_rows());
    }

    #[test]
    fn partitioned_agg_rejects_zero_partitions() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::PartitionedAggregate {
                group_by: vec![(col(2), "grp".to_string())],
                aggs: vec![AggExpr::new(AggFunc::Count, None, "c")],
                partitions: 0,
            },
        };
        assert!(Pipeline::new(spec).is_err());
    }

    #[test]
    fn collect_terminal_returns_projected_batches() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: Some(vec![(col(0), "qty".to_string())]),
            terminal: Terminal::Collect,
        };
        let mut p = Pipeline::new(spec).unwrap();
        p.push(&batch(vec![1, 2], vec![0.0, 0.0], vec![0, 0])).unwrap();
        let PipelineOutput::Batches(out) = p.finish().unwrap() else {
            panic!("expected batches");
        };
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_columns(), 1);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::Collect,
        };
        let mut p = Pipeline::new(spec).unwrap();
        let wrong = RecordBatch::from_columns(&["x"], vec![Column::I64(vec![1])]).unwrap();
        assert!(p.push(&wrong).is_err());
    }

    #[test]
    fn hash_partition_terminal_splits_rows() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: Some(col(0).lt(lit_i64(40))),
            projection: None,
            terminal: Terminal::HashPartition { keys: vec![2], partitions: 4 },
        };
        let mut p = Pipeline::new(spec).unwrap();
        p.push(&batch(vec![10, 40, 20], vec![1.0, 2.0, 3.0], vec![1, 1, 2])).unwrap();
        p.push(&batch(vec![25, 50], vec![4.0, 5.0], vec![2, 2])).unwrap();
        let PipelineOutput::Partitions(parts) = p.finish().unwrap() else {
            panic!("expected partitions");
        };
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().flatten().map(RecordBatch::num_rows).sum();
        assert_eq!(total, 3, "rows surviving the filter, each in exactly one partition");
        // Rows land in the partition their key hash dictates.
        for (pid, bs) in parts.iter().enumerate() {
            for b in bs {
                for row in 0..b.num_rows() {
                    assert_eq!(crate::join::row_partition(b, &[2], 4, row), pid);
                }
            }
        }
    }

    #[test]
    fn probe_terminal_joins_against_build_state() {
        use crate::join::JoinState;
        let build_schema = Schema::arc(vec![
            Field::new("bk", DataType::Int64),
            Field::new("w", DataType::Float64),
        ]);
        let build = RecordBatch::new(
            build_schema.clone(),
            vec![Column::I64(vec![1, 2]), Column::F64(vec![0.5, 0.7])],
        )
        .unwrap();
        let state = std::rc::Rc::new(JoinState::build(build_schema, vec![0], &[build]).unwrap());
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::Probe {
                build: state,
                probe_keys: vec![2],
                variant: JoinVariant::Inner,
            },
        };
        let mut p = Pipeline::new(spec).unwrap();
        p.push(&batch(vec![10, 40, 20], vec![1.0, 2.0, 3.0], vec![1, 3, 2])).unwrap();
        let PipelineOutput::Batches(out) = p.finish().unwrap() else {
            panic!("expected joined batches");
        };
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_rows(), 2, "grp=3 has no build partner");
        assert_eq!(out[0].num_columns(), 5, "probe cols ++ build cols");
        assert_eq!(out[0].row(0)[4], Scalar::Float64(0.5));
        assert_eq!(out[0].row(1)[4], Scalar::Float64(0.7));
    }

    #[test]
    fn sort_partition_terminal_sorts_and_truncates() {
        use crate::logical::SortKey;
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: Some(col(0).lt(lit_i64(50))),
            projection: None,
            terminal: Terminal::SortPartition {
                keys: vec![SortKey::desc(col(1)), SortKey::asc(col(0))],
                limit: Some(3),
            },
        };
        let mut p = Pipeline::new(spec).unwrap();
        p.push(&batch(vec![10, 40, 20], vec![1.0, 2.0, 3.0], vec![1, 1, 2])).unwrap();
        p.push(&batch(vec![25, 50], vec![4.0, 5.0], vec![2, 2])).unwrap();
        let PipelineOutput::Batches(out) = p.finish().unwrap() else {
            panic!("expected one sorted run");
        };
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_rows(), 3, "limit pushed into the producer run");
        assert_eq!(out[0].column(1).as_f64().unwrap(), &[4.0, 3.0, 2.0], "price descending");
    }

    #[test]
    fn sort_partition_rejects_bad_keys() {
        use crate::logical::SortKey;
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::SortPartition { keys: vec![], limit: None },
        };
        assert!(Pipeline::new(spec).is_err(), "empty key list");
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::SortPartition { keys: vec![SortKey::asc(col(9))], limit: None },
        };
        assert!(Pipeline::new(spec).is_err(), "key column out of range");
    }

    #[test]
    fn bad_terminal_shapes_rejected() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::HashPartition { keys: vec![9], partitions: 4 },
        };
        assert!(Pipeline::new(spec).is_err(), "key out of range");
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: None,
            projection: None,
            terminal: Terminal::HashPartition { keys: vec![0], partitions: 0 },
        };
        assert!(Pipeline::new(spec).is_err(), "zero partitions");
    }

    #[test]
    fn empty_batches_are_cheap() {
        let spec = PipelineSpec {
            input_schema: input_schema(),
            predicate: Some(lit_i64(0).gt(lit_i64(1))), // always false
            projection: None,
            terminal: Terminal::Collect,
        };
        let mut p = Pipeline::new(spec).unwrap();
        p.push(&batch(vec![1, 2, 3], vec![1.0, 2.0, 3.0], vec![1, 2, 3])).unwrap();
        assert_eq!(p.row_counts(), (3, 0));
        assert_eq!(p.approx_state_bytes(), 0);
        let PipelineOutput::Batches(out) = p.finish().unwrap() else {
            panic!("expected batches");
        };
        assert!(out.is_empty());
    }
}
