//! Local (single-node) plan execution: the reference engine.
//!
//! The distributed system in `lambada-core` runs plan *fragments* through
//! [`crate::pipeline`] inside serverless workers; this module executes
//! whole plans locally, which the tests use as ground truth for the
//! distributed results.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::agg::GroupedAggState;
use crate::batch::RecordBatch;
use crate::column::Column;
use crate::error::{exec_err, Result};
use crate::expr::{eval, Expr};
use crate::logical::{JoinVariant, LogicalPlan, SortKey};
use crate::scalar::{Scalar, ScalarKey};
use crate::table::Catalog;
use crate::types::{DataType, SchemaRef};

/// Execute a logical plan against a catalog.
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> Result<Vec<RecordBatch>> {
    match plan {
        LogicalPlan::Scan { table, projection, predicate, .. } => {
            let provider = catalog.get(table)?;
            provider.scan(projection.as_deref(), predicate.as_ref())
        }
        LogicalPlan::Filter { input, predicate } => {
            let batches = execute(input, catalog)?;
            batches
                .into_iter()
                .map(|b| {
                    let mask = eval::evaluate_mask(predicate, &b)?;
                    b.filter(&mask)
                })
                .collect()
        }
        LogicalPlan::Project { input, exprs } => {
            let schema = plan.schema()?;
            let batches = execute(input, catalog)?;
            batches.into_iter().map(|b| project_batch(&b, exprs, &schema)).collect()
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let schema = plan.schema()?;
            let in_schema = input.schema()?;
            let batches = execute(input, catalog)?;
            let funcs = crate::pipeline::agg_func_types(aggs, &in_schema)?;
            let mut state = GroupedAggState::new(&funcs)?;
            for b in &batches {
                let (gcols, acols) = crate::pipeline::eval_agg_inputs(group_by, aggs, b)?;
                state.update_batch(&gcols, &acols, b.num_rows())?;
            }
            Ok(vec![agg_state_to_batch(&state, &schema)?])
        }
        LogicalPlan::Sort { input, keys } => {
            let schema = plan.schema()?;
            let batches = execute(input, catalog)?;
            let all = RecordBatch::concat(schema, &batches)?;
            Ok(vec![sort_batch(&all, keys)?])
        }
        LogicalPlan::Limit { input, n } => {
            let batches = execute(input, catalog)?;
            let mut out = Vec::new();
            let mut remaining = *n;
            for b in batches {
                if remaining == 0 {
                    break;
                }
                if b.num_rows() <= remaining {
                    remaining -= b.num_rows();
                    out.push(b);
                } else {
                    let idx: Vec<usize> = (0..remaining).collect();
                    out.push(b.gather(&idx));
                    remaining = 0;
                }
            }
            Ok(out)
        }
        LogicalPlan::Join { left, right, on, variant } => {
            let schema = plan.schema()?;
            let lbatches = execute(left, catalog)?;
            let rbatches = execute(right, catalog)?;
            hash_join(&lbatches, &rbatches, on, right.schema()?, schema, *variant)
        }
    }
}

/// Execute and concatenate into one batch.
pub fn execute_into_batch(plan: &LogicalPlan, catalog: &Catalog) -> Result<RecordBatch> {
    let schema = plan.schema()?;
    let batches = execute(plan, catalog)?;
    RecordBatch::concat(schema, &batches)
}

/// Evaluate projection expressions over one batch.
pub fn project_batch(
    batch: &RecordBatch,
    exprs: &[(Expr, String)],
    out_schema: &SchemaRef,
) -> Result<RecordBatch> {
    let rows = batch.num_rows();
    let mut columns = Vec::with_capacity(exprs.len());
    for (e, _) in exprs {
        columns.push(eval::evaluate(e, batch)?.into_column(rows));
    }
    RecordBatch::new(Arc::clone(out_schema), columns)
}

/// Convert finalized aggregation state into a batch with the aggregate
/// node's output schema (group columns first, then aggregates).
pub fn agg_state_to_batch(state: &GroupedAggState, schema: &SchemaRef) -> Result<RecordBatch> {
    state.to_batch(schema)
}

/// A tumbling or sliding event-time window: instances start at every
/// multiple of `slide` on the timestamp axis and span `size` ticks, so a
/// timestamp belongs to `ceil(size / slide)` instances (`slide == size`
/// is a tumbling window and every timestamp belongs to exactly one).
/// Timestamps are plain `Int64` ticks; negative timestamps window
/// correctly (starts floor toward negative infinity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window length in timestamp ticks.
    pub size: i64,
    /// Distance between consecutive window starts.
    pub slide: i64,
}

impl WindowSpec {
    /// A tumbling window: `slide == size`.
    pub fn tumbling(size: i64) -> WindowSpec {
        WindowSpec { size, slide: size }
    }

    /// A sliding window of `size` ticks advancing by `slide` ticks.
    pub fn sliding(size: i64, slide: i64) -> WindowSpec {
        WindowSpec { size, slide }
    }

    /// Reject malformed specs: `size` must be positive and `slide` in
    /// `(0, size]` — a slide above the size would drop events that fall
    /// between instances.
    pub fn validate(&self) -> Result<()> {
        if self.size <= 0 {
            return exec_err(format!("window size must be positive, got {}", self.size));
        }
        if self.slide <= 0 || self.slide > self.size {
            return exec_err(format!(
                "window slide must be in (0, size]: slide {} over size {}",
                self.slide, self.size
            ));
        }
        Ok(())
    }

    /// Start of the latest window instance containing `ts`.
    pub fn latest_start(&self, ts: i64) -> i64 {
        ts.div_euclid(self.slide) * self.slide
    }

    /// Starts of every window instance containing `ts`, ascending.
    pub fn starts(&self, ts: i64) -> Vec<i64> {
        let mut out = Vec::new();
        let mut w = self.latest_start(ts);
        while w > ts.saturating_sub(self.size) {
            out.push(w);
            w -= self.slide;
        }
        out.reverse();
        out
    }

    /// End (exclusive) of the window starting at `start` — the watermark
    /// at or past which the instance closes.
    pub fn end(&self, start: i64) -> i64 {
        start.saturating_add(self.size)
    }
}

/// Assign window instances to timestamped rows: replicate each row once
/// per window instance containing its `ts_col` value (exactly once for
/// tumbling windows) and append the instance's start as a new trailing
/// `Int64` column named `out_name`.
///
/// Grouping the result by the window column (plus any user keys) turns
/// an ordinary grouped aggregation into a windowed one — the distributed
/// plan below the aggregate needs no window-aware operators at all,
/// which is how `lambada-core`'s streaming runtime reuses the batch
/// engine unchanged. Output row order is deterministic: input order,
/// with a row's instances ascending by start.
pub fn assign_windows(
    batch: &RecordBatch,
    ts_col: usize,
    window: &WindowSpec,
    out_name: &str,
) -> Result<RecordBatch> {
    window.validate()?;
    if ts_col >= batch.num_columns() {
        return exec_err(format!(
            "timestamp column {ts_col} out of bounds for {} columns",
            batch.num_columns()
        ));
    }
    if batch.schema().field(ts_col).dtype != DataType::Int64 {
        return exec_err("window timestamps must be Int64".to_string());
    }
    let mut indices = Vec::with_capacity(batch.num_rows());
    let mut starts = Vec::with_capacity(batch.num_rows());
    let ts = batch.column(ts_col).as_i64()?;
    for (row, &t) in ts.iter().enumerate() {
        for w in window.starts(t) {
            indices.push(row);
            starts.push(w);
        }
    }
    let replicated = batch.gather(&indices);
    let mut fields = batch.schema().fields.clone();
    fields.push(crate::types::Field::new(out_name, DataType::Int64));
    let mut columns = replicated.into_columns();
    columns.push(Column::I64(starts));
    RecordBatch::new(crate::types::Schema::arc(fields), columns)
}

/// First `n` rows of a batch — the top-k truncation applied after a
/// local sort (no copy when the batch is already short enough).
pub fn truncate_rows(batch: RecordBatch, n: usize) -> RecordBatch {
    if batch.num_rows() <= n {
        return batch;
    }
    let keep: Vec<usize> = (0..n).collect();
    batch.gather(&keep)
}

/// The first `limit` rows of a batch under `keys` — every row when
/// `limit` is `None`, in arrival order when `keys` is empty: a stable
/// [`sort_batch`], then [`truncate_rows`]. The one top-k of a sorting
/// terminal, a sort stage and a reporting worker's `ORDER BY … LIMIT`.
pub fn sort_limit(
    batch: RecordBatch,
    keys: &[SortKey],
    limit: Option<usize>,
) -> Result<RecordBatch> {
    let sorted = if keys.is_empty() { batch } else { sort_batch(&batch, keys)? };
    Ok(truncate_rows(sorted, limit.unwrap_or(usize::MAX)))
}

/// Evaluate sort-key expressions over a batch into one column per key.
pub fn sort_key_columns(batch: &RecordBatch, keys: &[SortKey]) -> Result<Vec<Column>> {
    let rows = batch.num_rows();
    keys.iter().map(|k| Ok(eval::evaluate(&k.expr, batch)?.into_column(rows))).collect()
}

/// Compare two key tuples under the sort directions (total order).
pub fn cmp_key_rows(a: &[Scalar], b: &[Scalar], keys: &[SortKey]) -> Ordering {
    for (k, (x, y)) in keys.iter().zip(a.iter().zip(b.iter())) {
        let ord = x.total_cmp(y);
        let ord = if k.ascending { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Pick `partitions - 1` range boundaries from pooled sample key tuples.
///
/// Deterministic in the sample *multiset*: every caller that pools the
/// same samples (in any order) computes identical boundaries — which is
/// what lets the producers of a distributed sort agree on the partition
/// function without any coordination beyond reading each other's sample
/// files. Fewer samples than partitions (or an empty pool) yield fewer
/// (or no) boundaries; the trailing partitions just stay empty.
pub fn range_boundaries(
    mut samples: Vec<Vec<Scalar>>,
    keys: &[SortKey],
    partitions: usize,
) -> Vec<Vec<Scalar>> {
    if partitions <= 1 || samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(|a, b| cmp_key_rows(a, b, keys));
    let n = samples.len();
    let mut out = Vec::with_capacity(partitions - 1);
    for p in 1..partitions {
        let idx = (p * n / partitions).min(n - 1);
        out.push(samples[idx].clone());
    }
    out
}

/// Range partition index of one key tuple: the number of boundaries at
/// or below it under the sort order. Rows with equal keys always land in
/// the same partition, and partition `p`'s rows never sort after
/// partition `p + 1`'s — concatenating per-partition sorted runs in
/// partition order is therefore globally sorted.
pub fn range_partition_of(row: &[Scalar], boundaries: &[Vec<Scalar>], keys: &[SortKey]) -> usize {
    boundaries.partition_point(|b| cmp_key_rows(b, row, keys) != Ordering::Greater)
}

/// Split a batch into `boundaries.len() + 1` range partitions by its
/// sort-key tuples (the producer side of a distributed sort, applied
/// after the fleet's sample boundaries are known).
pub fn range_partition_batch(
    batch: &RecordBatch,
    keys: &[SortKey],
    boundaries: &[Vec<Scalar>],
) -> Result<Vec<RecordBatch>> {
    let key_cols = sort_key_columns(batch, keys)?;
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); boundaries.len() + 1];
    let mut row_buf: Vec<Scalar> = Vec::with_capacity(keys.len());
    for row in 0..batch.num_rows() {
        row_buf.clear();
        row_buf.extend(key_cols.iter().map(|c| c.value(row)));
        indices[range_partition_of(&row_buf, boundaries, keys)].push(row);
    }
    Ok(indices.into_iter().map(|idx| batch.gather(&idx)).collect())
}

/// Sort a batch by the given keys.
pub fn sort_batch(batch: &RecordBatch, keys: &[SortKey]) -> Result<RecordBatch> {
    let rows = batch.num_rows();
    let mut key_cols = Vec::with_capacity(keys.len());
    for k in keys {
        key_cols.push(eval::evaluate(&k.expr, batch)?.into_column(rows));
    }
    let mut indices: Vec<usize> = (0..rows).collect();
    indices.sort_by(|&a, &b| {
        for (k, c) in keys.iter().zip(key_cols.iter()) {
            let ord = c.value(a).total_cmp(&c.value(b));
            let ord = if k.ascending { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(batch.gather(&indices))
}

fn hash_join(
    left: &[RecordBatch],
    right: &[RecordBatch],
    on: &[(usize, usize)],
    right_schema: SchemaRef,
    out_schema: SchemaRef,
    variant: JoinVariant,
) -> Result<Vec<RecordBatch>> {
    // Build side: the right input, collected into one batch.
    let build = RecordBatch::concat(Arc::clone(&right_schema), right)?;
    let mut table: HashMap<Box<[ScalarKey]>, Vec<usize>> = HashMap::new();
    let mut key_buf: Vec<ScalarKey> = Vec::with_capacity(on.len());
    for row in 0..build.num_rows() {
        key_buf.clear();
        for &(_, r) in on {
            key_buf.push(build.column(r).value(row).key());
        }
        table.entry(key_buf.as_slice().into()).or_default().push(row);
    }
    // Left-outer padding: gather unmatched left rows through the build
    // rows extended by one all-sentinel row (see `join::null_pad_row`).
    let pad_idx = build.num_rows();
    let build_ext = if variant == JoinVariant::LeftOuter {
        Some(RecordBatch::concat(
            Arc::clone(&right_schema),
            &[build.clone(), crate::join::null_pad_row(&right_schema)?],
        )?)
    } else {
        None
    };

    let mut out = Vec::with_capacity(left.len());
    for lb in left {
        let mut l_idx: Vec<usize> = Vec::new();
        let mut r_idx: Vec<usize> = Vec::new();
        for row in 0..lb.num_rows() {
            key_buf.clear();
            for &(l, _) in on {
                key_buf.push(lb.column(l).value(row).key());
            }
            let matches = table.get(key_buf.as_slice());
            match variant {
                JoinVariant::Inner => {
                    if let Some(matches) = matches {
                        for &m in matches {
                            l_idx.push(row);
                            r_idx.push(m);
                        }
                    }
                }
                JoinVariant::LeftOuter => match matches {
                    Some(matches) => {
                        for &m in matches {
                            l_idx.push(row);
                            r_idx.push(m);
                        }
                    }
                    None => {
                        l_idx.push(row);
                        r_idx.push(pad_idx);
                    }
                },
                JoinVariant::Semi => {
                    if matches.is_some() {
                        l_idx.push(row);
                    }
                }
                JoinVariant::Anti => {
                    if matches.is_none() {
                        l_idx.push(row);
                    }
                }
            }
        }
        let lpart = lb.gather(&l_idx);
        let mut columns = lpart.into_columns();
        if variant.keeps_build_columns() {
            let rpart = match &build_ext {
                Some(ext) => ext.gather(&r_idx),
                None => build.gather(&r_idx),
            };
            columns.extend(rpart.into_columns());
        }
        out.push(RecordBatch::new(Arc::clone(&out_schema), columns)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggExpr, AggFunc};
    use crate::expr::{col, lit_f64, lit_i64};
    use crate::table::MemTable;
    use crate::types::{Field, Schema};
    use std::rc::Rc;

    fn catalog() -> Catalog {
        let batch = RecordBatch::from_columns(
            &["k", "grp", "v"],
            vec![
                Column::I64(vec![1, 2, 3, 4, 5, 6]),
                Column::I64(vec![1, 2, 1, 2, 1, 2]),
                Column::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.register("t", Rc::new(MemTable::from_batch(batch)));
        cat
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".to_string(),
            schema: Schema::arc(vec![
                Field::new("k", DataType::Int64),
                Field::new("grp", DataType::Int64),
                Field::new("v", DataType::Float64),
            ]),
            projection: None,
            predicate: None,
        }
    }

    #[test]
    fn filter_project_pipeline() {
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: col(0).gt(lit_i64(3)),
            }),
            exprs: vec![(col(2).mul(lit_f64(10.0)), "v10".to_string())],
        };
        let out = execute_into_batch(&plan, &catalog()).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.column(0).as_f64().unwrap(), &[40.0, 50.0, 60.0]);
    }

    #[test]
    fn grouped_aggregate_matches_manual() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![(col(1), "grp".to_string())],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, Some(col(2)), "sum_v"),
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Avg, Some(col(2)), "avg_v"),
            ],
        };
        let out = execute_into_batch(&plan, &catalog()).unwrap();
        assert_eq!(out.num_rows(), 2);
        // Groups sorted by key: grp=1 (1+3+5=9), grp=2 (2+4+6=12).
        assert_eq!(out.column(0).as_i64().unwrap(), &[1, 2]);
        assert_eq!(out.column(1).as_f64().unwrap(), &[9.0, 12.0]);
        assert_eq!(out.column(2).as_i64().unwrap(), &[3, 3]);
        assert_eq!(out.column(3).as_f64().unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn global_aggregate_without_groups() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![],
            aggs: vec![AggExpr::new(AggFunc::Sum, Some(col(2)), "s")],
        };
        let out = execute_into_batch(&plan, &catalog()).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column(0).as_f64().unwrap(), &[21.0]);
    }

    #[test]
    fn sort_multi_key_with_direction() {
        let plan = LogicalPlan::Sort {
            input: Box::new(scan()),
            keys: vec![SortKey::asc(col(1)), SortKey::desc(col(0))],
        };
        let out = execute_into_batch(&plan, &catalog()).unwrap();
        assert_eq!(out.column(0).as_i64().unwrap(), &[5, 3, 1, 6, 4, 2]);
    }

    #[test]
    fn limit_truncates() {
        let plan = LogicalPlan::Limit { input: Box::new(scan()), n: 4 };
        let out = execute_into_batch(&plan, &catalog()).unwrap();
        assert_eq!(out.num_rows(), 4);
    }

    #[test]
    fn range_partitions_concatenate_sorted() {
        // Any boundary set: concatenating per-partition sorted runs in
        // partition order must equal sorting the whole batch.
        let batch = RecordBatch::from_columns(
            &["k", "v"],
            vec![
                Column::I64(vec![5, 1, 9, 3, 7, 3, 2, 8]),
                Column::F64(vec![0.5, 0.1, 0.9, 0.3, 0.7, 0.35, 0.2, 0.8]),
            ],
        )
        .unwrap();
        let keys = vec![SortKey::asc(col(0))];
        let samples: Vec<Vec<Scalar>> =
            (0..batch.num_rows()).map(|i| vec![batch.column(0).value(i)]).collect();
        for parts in 1..5usize {
            let boundaries = range_boundaries(samples.clone(), &keys, parts);
            assert_eq!(boundaries.len(), parts.min(samples.len()) - 1);
            let partitioned = range_partition_batch(&batch, &keys, &boundaries).unwrap();
            let sorted_runs: Vec<RecordBatch> =
                partitioned.iter().map(|b| sort_batch(b, &keys).unwrap()).collect();
            let total: usize = sorted_runs.iter().map(RecordBatch::num_rows).sum();
            assert_eq!(total, batch.num_rows());
            let concat = RecordBatch::concat(Arc::clone(batch.schema()), &sorted_runs).unwrap();
            let want = sort_batch(&batch, &keys).unwrap();
            assert_eq!(
                concat.column(0).as_i64().unwrap(),
                want.column(0).as_i64().unwrap(),
                "{parts} partitions"
            );
        }
    }

    #[test]
    fn range_partition_respects_descending_keys() {
        let batch =
            RecordBatch::from_columns(&["k"], vec![Column::I64(vec![1, 2, 3, 4, 5, 6, 7, 8])])
                .unwrap();
        let keys = vec![SortKey::desc(col(0))];
        let samples: Vec<Vec<Scalar>> = (1..=8).map(|k| vec![Scalar::Int64(k)]).collect();
        let boundaries = range_boundaries(samples, &keys, 2);
        let parts = range_partition_batch(&batch, &keys, &boundaries).unwrap();
        // Descending order: partition 0 holds the *largest* keys.
        let p0_min = parts[0].column(0).as_i64().unwrap().iter().copied().min().unwrap();
        let p1_max = parts[1].column(0).as_i64().unwrap().iter().copied().max().unwrap();
        assert!(p0_min > p1_max, "partition 0 sorts before partition 1 descending");
    }

    #[test]
    fn equal_keys_share_a_partition() {
        let keys = vec![SortKey::asc(col(0))];
        let boundaries = vec![vec![Scalar::Int64(5)]];
        let a = range_partition_of(&[Scalar::Int64(5)], &boundaries, &keys);
        let b = range_partition_of(&[Scalar::Int64(5)], &boundaries, &keys);
        assert_eq!(a, b);
        assert_eq!(range_partition_of(&[Scalar::Int64(4)], &boundaries, &keys), 0);
        assert_eq!(range_partition_of(&[Scalar::Int64(6)], &boundaries, &keys), 1);
    }

    #[test]
    fn hash_join_inner() {
        let mut cat = catalog();
        let dim = RecordBatch::from_columns(
            &["grp_id", "w"],
            vec![Column::I64(vec![1, 3]), Column::F64(vec![0.5, 0.9])],
        )
        .unwrap();
        cat.register("dim", Rc::new(MemTable::from_batch(dim)));
        let plan = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(LogicalPlan::Scan {
                table: "dim".to_string(),
                schema: Schema::arc(vec![
                    Field::new("grp_id", DataType::Int64),
                    Field::new("w", DataType::Float64),
                ]),
                projection: None,
                predicate: None,
            }),
            on: vec![(1, 0)],
            variant: JoinVariant::Inner,
        };
        let out = execute_into_batch(&plan, &cat).unwrap();
        // Only grp=1 rows match (grp=2 and dim key 3 have no partner).
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 5);
        for row in out.rows() {
            assert_eq!(row[1], Scalar::Int64(1));
            assert_eq!(row[3], Scalar::Int64(1));
            assert_eq!(row[4], Scalar::Float64(0.5));
        }
    }

    #[test]
    fn join_preserves_duplicate_matches() {
        let mut cat = Catalog::new();
        let l = RecordBatch::from_columns(&["k"], vec![Column::I64(vec![1, 1])]).unwrap();
        let r = RecordBatch::from_columns(&["k2"], vec![Column::I64(vec![1, 1, 1])]).unwrap();
        cat.register("l", Rc::new(MemTable::from_batch(l.clone())));
        cat.register("r", Rc::new(MemTable::from_batch(r.clone())));
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: "l".to_string(),
                schema: Arc::clone(l.schema()),
                projection: None,
                predicate: None,
            }),
            right: Box::new(LogicalPlan::Scan {
                table: "r".to_string(),
                schema: Arc::clone(r.schema()),
                projection: None,
                predicate: None,
            }),
            on: vec![(0, 0)],
            variant: JoinVariant::Inner,
        };
        let out = execute_into_batch(&plan, &cat).unwrap();
        assert_eq!(out.num_rows(), 6, "2 x 3 matching pairs");
    }

    #[test]
    fn window_spec_validation() {
        assert!(WindowSpec::tumbling(10).validate().is_ok());
        assert!(WindowSpec::sliding(10, 5).validate().is_ok());
        assert!(WindowSpec::tumbling(0).validate().is_err());
        assert!(WindowSpec::sliding(10, 0).validate().is_err());
        assert!(WindowSpec::sliding(10, 11).validate().is_err());
        assert!(WindowSpec::sliding(-5, 1).validate().is_err());
    }

    #[test]
    fn window_starts_tumbling_and_sliding() {
        let t = WindowSpec::tumbling(10);
        assert_eq!(t.starts(0), vec![0]);
        assert_eq!(t.starts(9), vec![0]);
        assert_eq!(t.starts(10), vec![10]);
        assert_eq!(t.starts(-1), vec![-10], "negative ts floors");
        let s = WindowSpec::sliding(10, 5);
        assert_eq!(s.starts(0), vec![-5, 0]);
        assert_eq!(s.starts(7), vec![0, 5]);
        assert_eq!(s.starts(12), vec![5, 10]);
        // Every ts belongs to ceil(size/slide) instances.
        let s3 = WindowSpec::sliding(9, 3);
        for ts in -20_i64..20 {
            let starts = s3.starts(ts);
            assert_eq!(starts.len(), 3);
            for w in starts {
                assert!(w <= ts && ts < w + s3.size);
                assert_eq!(w.rem_euclid(s3.slide), 0);
            }
        }
    }

    #[test]
    fn assign_windows_tumbling_appends_column() {
        let batch = RecordBatch::from_columns(
            &["ts", "k"],
            vec![Column::I64(vec![0, 9, 10, 25]), Column::I64(vec![1, 2, 3, 4])],
        )
        .unwrap();
        let out = assign_windows(&batch, 0, &WindowSpec::tumbling(10), "wstart").unwrap();
        assert_eq!(out.num_rows(), 4, "tumbling replicates nothing");
        assert_eq!(out.num_columns(), 3);
        assert_eq!(out.schema().field(2).name, "wstart");
        assert_eq!(out.column(2).as_i64().unwrap(), &[0, 0, 10, 20]);
        assert_eq!(out.column(1).as_i64().unwrap(), &[1, 2, 3, 4], "row order preserved");
    }

    #[test]
    fn assign_windows_sliding_replicates_rows() {
        let batch = RecordBatch::from_columns(&["ts"], vec![Column::I64(vec![7])]).unwrap();
        let out = assign_windows(&batch, 0, &WindowSpec::sliding(10, 5), "w").unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.column(0).as_i64().unwrap(), &[7, 7]);
        assert_eq!(out.column(1).as_i64().unwrap(), &[0, 5], "instances ascending");
    }

    #[test]
    fn assign_windows_rejects_bad_inputs() {
        let batch = RecordBatch::from_columns(&["v"], vec![Column::F64(vec![1.0])]).unwrap();
        assert!(assign_windows(&batch, 0, &WindowSpec::tumbling(10), "w").is_err());
        assert!(assign_windows(&batch, 5, &WindowSpec::tumbling(10), "w").is_err());
    }
}
