//! `Pipeline::push` and the filter kernel against what they replaced.
//!
//! `push` borrows its way from the input batch to the terminal — one
//! selection vector, lazily gathered columns, no projected batch for the
//! aggregate terminals. The reference here does every step by hand, each
//! one materialised: a `filter_map` filter (the kernel `Column::filter`
//! used to be), `project_batch`, then the terminal's own public kernel.

use std::rc::Rc;
use std::sync::Arc;

use lambada_engine::agg::{AggExpr, AggFunc, GroupedAggState};
use lambada_engine::expr::eval::evaluate_mask;
use lambada_engine::join::partition_rows;
use lambada_engine::physical::{project_batch, sort_batch, truncate_rows};
use lambada_engine::pipeline::{agg_func_types, eval_agg_inputs};
use lambada_engine::{
    col, lit_f64, lit_i64, Column, DataType, Expr, Field, JoinState, JoinVariant, Pipeline,
    PipelineOutput, PipelineSpec, RecordBatch, Schema, SchemaRef, SortKey, Terminal,
};

/// The filter of the commit before the selection vector.
fn filter_map_column(column: &Column, mask: &[bool]) -> Column {
    fn keep<T: Copy>(v: &[T], mask: &[bool]) -> Vec<T> {
        v.iter().zip(mask).filter_map(|(x, &m)| m.then_some(*x)).collect()
    }
    match column {
        Column::I64(v) => Column::I64(keep(v, mask)),
        Column::F64(v) => Column::F64(keep(v, mask)),
        Column::Bool(v) => Column::Bool(keep(v, mask)),
    }
}

fn filter_map_batch(batch: &RecordBatch, mask: &[bool]) -> RecordBatch {
    let columns = batch.columns().iter().map(|c| filter_map_column(c, mask)).collect();
    RecordBatch::new(Arc::clone(batch.schema()), columns).unwrap()
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Columns compare by bit pattern: `PartialEq` would call two NaNs unequal.
fn assert_same_column(got: &Column, want: &Column, what: &str) {
    match (got, want) {
        (Column::F64(g), Column::F64(w)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}");
        }
        _ => assert_eq!(got, want, "{what}"),
    }
}

#[test]
fn filter_is_the_filter_map_it_replaced() {
    const ROWS: usize = 1000;
    let mut rng = Rng(17);
    let columns = [
        Column::I64((0..ROWS).map(|_| rng.next() as i64).collect()),
        Column::F64(
            (0..ROWS).map(|i| if i % 97 == 0 { f64::NAN } else { i as f64 * 0.5 }).collect(),
        ),
        Column::Bool((0..ROWS).map(|_| rng.next() & 1 == 1).collect()),
    ];
    let batch = RecordBatch::from_columns(&["i", "f", "b"], columns.to_vec()).unwrap();
    for percent in [0u64, 2, 50, 98, 100] {
        let mask: Vec<bool> = (0..ROWS).map(|_| rng.next() % 100 < percent).collect();
        let kept = mask.iter().filter(|&&m| m).count();
        for column in &columns {
            let got = column.filter(&mask).unwrap();
            assert_eq!(got.len(), kept);
            assert_same_column(&got, &filter_map_column(column, &mask), &format!("{percent}%"));
        }
        let got = batch.filter(&mask).unwrap();
        assert_eq!(got.num_rows(), kept);
        assert_eq!(got.schema(), batch.schema());
        for (g, w) in got.columns().iter().zip(filter_map_batch(&batch, &mask).columns()) {
            assert_same_column(g, w, &format!("batch at {percent}%"));
        }
    }
    // Lengths that straddle the mask's all-kept and none-kept shortcuts.
    for rows in 0..4 {
        let column = Column::I64((0..rows).collect());
        for bits in 0..1u32 << rows {
            let mask: Vec<bool> = (0..rows).map(|r| bits >> r & 1 == 1).collect();
            assert_eq!(column.filter(&mask).unwrap(), filter_map_column(&column, &mask));
        }
    }
    assert!(columns[0].filter(&[true; ROWS - 1]).is_err(), "a short mask");
    assert!(columns[2].filter(&[true; ROWS + 1]).is_err(), "a long mask");
    assert!(batch.filter(&[false; ROWS - 1]).is_err(), "a short mask on a batch");
    assert!(batch.filter(&[]).is_err(), "an empty mask on a batch");
}

fn input_schema() -> SchemaRef {
    Schema::arc(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Float64),
        Field::new("c", DataType::Int64),
    ])
}

/// Four batches of `(a, b, c)`: a few dozen rows, none, one, more. `a`
/// is spread over -50..50 (what the mixed predicate cuts), `c` over a
/// handful of keys.
fn input_batches() -> Vec<RecordBatch> {
    let mut rng = Rng(5);
    [37usize, 0, 1, 64]
        .into_iter()
        .map(|rows| {
            let a = Column::I64((0..rows).map(|_| (rng.next() % 100) as i64 - 50).collect());
            let b = Column::F64((0..rows).map(|_| (rng.next() % 1000) as f64 * 0.37).collect());
            let c = Column::I64((0..rows).map(|_| (rng.next() % 5) as i64).collect());
            RecordBatch::new(input_schema(), vec![a, b, c]).unwrap()
        })
        .collect()
}

fn named(exprs: Vec<Expr>) -> Vec<(Expr, String)> {
    exprs.into_iter().enumerate().map(|(i, e)| (e, format!("p{i}"))).collect()
}

type Projection = Option<Vec<(Expr, String)>>;

/// Every projection leaves `(Int64, Float64, Int64)`, so one set of
/// terminals fits them all.
fn projections() -> Vec<(&'static str, Projection)> {
    vec![
        ("no projection", None),
        ("bare columns", Some(named(vec![col(2), col(1), col(0)]))),
        ("a column named twice", Some(named(vec![col(0), col(1), col(0)]))),
        ("computed", Some(named(vec![col(0).add(col(2)), col(1).mul(lit_f64(2.0)), col(2)]))),
    ]
}

fn predicates() -> Vec<(&'static str, Option<Expr>)> {
    vec![
        ("no predicate", None),
        ("all pass", Some(col(0).ge(lit_i64(-1000)))),
        ("all pass, constant", Some(lit_i64(1).lt(lit_i64(2)))),
        ("none pass", Some(col(0).gt(lit_i64(1000)))),
        ("mixed", Some(col(0).lt(lit_i64(10)).and(col(1).ge(lit_f64(20.0))))),
    ]
}

fn build_side() -> Rc<JoinState> {
    let schema =
        Schema::arc(vec![Field::new("k", DataType::Int64), Field::new("w", DataType::Float64)]);
    let rows = RecordBatch::new(
        Arc::clone(&schema),
        vec![Column::I64(vec![0, 1, 1, 3, 70]), Column::F64(vec![0.5, 1.5, 2.5, 3.5, 4.5])],
    )
    .unwrap();
    Rc::new(JoinState::build(schema, vec![0], &[rows]).unwrap())
}

fn terminals() -> Vec<Terminal> {
    let group_by = vec![(col(2), "g".to_string())];
    // Five float sums (a fused pass and a lone one), two counts, one
    // column under three aggregates, a computed argument.
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, Some(col(1)), "s"),
        AggExpr::new(AggFunc::Count, None, "n"),
        AggExpr::new(AggFunc::Avg, Some(col(0)), "avg_a"),
        AggExpr::new(AggFunc::Min, Some(col(0)), "min_a"),
        AggExpr::new(AggFunc::Sum, Some(col(1).mul(col(1))), "ss"),
        AggExpr::new(AggFunc::Avg, Some(col(1)), "avg_b"),
        AggExpr::new(AggFunc::Sum, Some(col(0)), "sum_a"),
        AggExpr::new(AggFunc::Sum, Some(col(1).sub(lit_f64(1.0))), "s1"),
        AggExpr::new(AggFunc::Max, Some(col(1)), "max_b"),
    ];
    vec![
        Terminal::PartialAggregate { group_by: group_by.clone(), aggs: aggs.clone() },
        Terminal::PartitionedAggregate { group_by, aggs, partitions: 3 },
        Terminal::Collect,
        Terminal::SortPartition {
            keys: vec![SortKey::desc(col(1)), SortKey::asc(col(0))],
            limit: Some(9),
        },
        Terminal::HashPartition { keys: vec![2, 0], partitions: 4 },
        Terminal::Probe { build: build_side(), probe_keys: vec![2], variant: JoinVariant::Inner },
        Terminal::Probe {
            build: build_side(),
            probe_keys: vec![0],
            variant: JoinVariant::LeftOuter,
        },
    ]
}

/// What `spec` makes of `batches`, every step by hand.
fn by_hand(spec: &PipelineSpec, batches: &[RecordBatch]) -> (PipelineOutput, (u64, u64)) {
    let mid = spec.intermediate_schema().unwrap();
    let mut counts = (0u64, 0u64);
    let mut projected = Vec::new();
    for batch in batches {
        counts.0 += batch.num_rows() as u64;
        let filtered = match &spec.predicate {
            Some(p) => filter_map_batch(batch, &evaluate_mask(p, batch).unwrap()),
            None => batch.clone(),
        };
        counts.1 += filtered.num_rows() as u64;
        if filtered.num_rows() == 0 {
            continue;
        }
        projected.push(match &spec.projection {
            Some(exprs) => project_batch(&filtered, exprs, &mid).unwrap(),
            None => filtered,
        });
    }
    let aggregate = |group_by: &[(Expr, String)], aggs: &[AggExpr]| {
        let mut state = GroupedAggState::new(&agg_func_types(aggs, &mid).unwrap()).unwrap();
        for batch in &projected {
            let (groups, args) = eval_agg_inputs(group_by, aggs, batch).unwrap();
            state.update_batch(&groups, &args, batch.num_rows()).unwrap();
        }
        state
    };
    let output = match &spec.terminal {
        Terminal::PartialAggregate { group_by, aggs } => {
            PipelineOutput::Aggregate(aggregate(group_by, aggs))
        }
        Terminal::PartitionedAggregate { group_by, aggs, partitions } => {
            PipelineOutput::AggShards(aggregate(group_by, aggs).split(*partitions))
        }
        Terminal::Collect => PipelineOutput::Batches(projected),
        Terminal::SortPartition { keys, limit } => {
            let all = RecordBatch::concat(mid, &projected).unwrap();
            let sorted = sort_batch(&all, keys).unwrap();
            PipelineOutput::Batches(vec![truncate_rows(sorted, limit.unwrap_or(usize::MAX))])
        }
        Terminal::HashPartition { keys, partitions } => {
            let mut parts = vec![Vec::new(); *partitions];
            for batch in &projected {
                for (p, rows) in partition_rows(batch, keys, *partitions).iter().enumerate() {
                    if !rows.is_empty() {
                        parts[p].push(batch.gather(rows));
                    }
                }
            }
            PipelineOutput::Partitions(parts)
        }
        Terminal::Probe { build, probe_keys, variant } => PipelineOutput::Batches(
            projected
                .iter()
                .map(|b| build.probe_variant(b, probe_keys, *variant).unwrap())
                .filter(|joined| joined.num_rows() > 0)
                .collect(),
        ),
    };
    (output, counts)
}

fn assert_same_batches(got: &[RecordBatch], want: &[RecordBatch], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: batch count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.schema(), w.schema(), "{what}: schema");
        assert_eq!(g.num_rows(), w.num_rows(), "{what}: rows");
        for (gc, wc) in g.columns().iter().zip(w.columns()) {
            assert_same_column(gc, wc, what);
        }
    }
}

fn assert_same_output(got: &PipelineOutput, want: &PipelineOutput, what: &str) {
    match (got, want) {
        (PipelineOutput::Aggregate(g), PipelineOutput::Aggregate(w)) => {
            assert_eq!(g.encode(), w.encode(), "{what}: aggregate state");
        }
        (PipelineOutput::AggShards(g), PipelineOutput::AggShards(w)) => {
            let encode = |shards: &[GroupedAggState]| -> Vec<Vec<u8>> {
                shards.iter().map(GroupedAggState::encode).collect()
            };
            assert_eq!(encode(g), encode(w), "{what}: aggregate shards");
        }
        (PipelineOutput::Batches(g), PipelineOutput::Batches(w)) => assert_same_batches(g, w, what),
        (PipelineOutput::Partitions(g), PipelineOutput::Partitions(w)) => {
            assert_eq!(g.len(), w.len(), "{what}: partitions");
            for (p, (g, w)) in g.iter().zip(w).enumerate() {
                assert_same_batches(g, w, &format!("{what}: partition {p}"));
            }
        }
        _ => panic!("{what}: outputs of different kinds"),
    }
}

#[test]
fn push_is_filter_project_terminal_done_by_hand() {
    let batches = input_batches();
    for terminal in terminals() {
        for (pname, predicate) in predicates() {
            for (jname, projection) in projections() {
                let spec = PipelineSpec {
                    input_schema: input_schema(),
                    predicate: predicate.clone(),
                    projection,
                    terminal: terminal.clone(),
                };
                let what = format!("{terminal:?} / {pname} / {jname}");
                let mut pipeline = Pipeline::new(spec.clone()).unwrap();
                for batch in &batches {
                    pipeline.push(batch).unwrap();
                }
                let (want, counts) = by_hand(&spec, &batches);
                assert_eq!(pipeline.row_counts(), counts, "{what}: row counts");
                assert_same_output(&pipeline.finish().unwrap(), &want, &what);
            }
        }
    }
}

#[test]
fn a_column_the_input_lacks_is_a_typed_error_at_push() {
    // `Pipeline::new` type-checks what it can see; a terminal's own
    // expressions reach `push` unchecked when the projection is absent.
    let spec = PipelineSpec {
        input_schema: input_schema(),
        predicate: Some(col(0).lt(lit_i64(10))),
        projection: None,
        terminal: Terminal::PartialAggregate {
            group_by: vec![(col(7), "g".to_string())],
            aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
        },
    };
    let mut pipeline = Pipeline::new(spec).unwrap();
    for batch in input_batches() {
        if batch.num_rows() > 1 {
            assert!(pipeline.push(&batch).is_err());
        }
    }
}
