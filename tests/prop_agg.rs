//! Property tests: distributed (repartitioned) group-by aggregation must
//! agree with the local reference executor bit-for-bit, over randomized
//! group cardinalities (every-key-distinct, small domains, total skew),
//! file layouts, scan fleet sizes, and merge fleet sizes — and the
//! driver-side merge path must not be used for exchange-planned
//! aggregates (the result flows through agg-merge stages instead).
//!
//! All aggregates here are order-independent *and* bitwise-exact under
//! regrouping (wrapping integer sums, counts, min/max), so the
//! comparison is equality of canonical row multisets, not tolerance.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::{AggStrategy, Lambada, LambadaConfig};
use lambada::engine::{
    execute_into_batch, lit_i64, AggExpr, AggFunc, Catalog, Column, DataType, Df, Field, MemTable,
    RecordBatch, Scalar, Schema,
};
use lambada::sim::{Cloud, CloudConfig, Simulation};
use lambada::workloads::stage_table_real;

fn table_schema() -> Schema {
    Schema::new(vec![
        Field::new("g", DataType::Int64),
        Field::new("vi", DataType::Int64),
        Field::new("vf", DataType::Float64),
    ])
}

/// Group-key distributions: every key distinct (the high-cardinality
/// regime repartitioned aggregation exists for), a small domain (dense
/// groups), a wide sparse domain (some shards empty), and total skew
/// (every row in one group — one merge worker gets everything).
fn arb_keys(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        Just((0..len as i64).collect::<Vec<i64>>()),
        prop::collection::vec(-3i64..4, len..len + 1),
        prop::collection::vec(-1000i64..1000, len..len + 1),
        (0i64..2).prop_map(move |k| vec![k; len]),
    ]
}

#[derive(Debug, Clone)]
struct AggCase {
    keys: Vec<i64>,
    num_files: usize,
    files_per_worker: Option<usize>,
    agg_workers: usize,
    with_filter: bool,
}

fn arb_case() -> impl Strategy<Value = AggCase> {
    (0usize..80).prop_flat_map(|n| {
        (
            arb_keys(n),
            1usize..4,
            (0usize..3).prop_map(|f| (f > 0).then_some(f)),
            1usize..8,
            any::<bool>(),
        )
            .prop_map(|(keys, num_files, files_per_worker, agg_workers, with_filter)| {
                AggCase { keys, num_files, files_per_worker, agg_workers, with_filter }
            })
    })
}

fn make_columns(keys: &[i64]) -> Vec<Column> {
    let n = keys.len();
    vec![
        Column::I64(keys.to_vec()),
        Column::I64((0..n as i64).map(|i| i * 7 - 13).collect()),
        Column::F64((0..n).map(|i| i as f64 * 0.37 - 4.0).collect()),
    ]
}

fn split_files(cols: &[Column], num_files: usize) -> Vec<Vec<Column>> {
    let rows = cols.first().map_or(0, Column::len);
    if rows == 0 {
        return Vec::new();
    }
    let per = rows.div_ceil(num_files.max(1));
    let mut out = Vec::new();
    let mut start = 0;
    while start < rows {
        let idx: Vec<usize> = (start..(start + per).min(rows)).collect();
        out.push(cols.iter().map(|c| c.gather(&idx)).collect());
        start += per;
    }
    out
}

/// Canonical multiset of rows, bitwise-comparable across execution orders.
fn row_multiset(batch: &RecordBatch) -> Vec<Vec<lambada::engine::ScalarKey>> {
    let mut rows: Vec<Vec<lambada::engine::ScalarKey>> =
        (0..batch.num_rows()).map(|i| batch.row(i).iter().map(Scalar::key).collect()).collect();
    rows.sort();
    rows
}

fn aggs() -> Vec<AggExpr> {
    vec![
        AggExpr::new(AggFunc::Count, None, "cnt"),
        AggExpr::new(AggFunc::Sum, Some(lambada::engine::col(1)), "sum_vi"),
        AggExpr::new(AggFunc::Max, Some(lambada::engine::col(1)), "max_vi"),
        AggExpr::new(AggFunc::Min, Some(lambada::engine::col(2)), "min_vf"),
    ]
}

fn grouped_plan(with_filter: bool) -> lambada::engine::LogicalPlan {
    let df = Df::scan("t", &table_schema());
    let df = if with_filter {
        let vi = df.col("vi").unwrap();
        df.filter(vi.le(lit_i64(100))).unwrap()
    } else {
        df
    };
    let g = df.col("g").unwrap();
    df.aggregate(vec![(g, "g")], aggs()).unwrap().build()
}

fn run_case(case: &AggCase) -> (RecordBatch, RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cols = make_columns(&case.keys);
    let spec = stage_table_real(
        &cloud,
        "data",
        "t",
        table_schema(),
        split_files(&cols, case.num_files),
        case.keys.len() as u64,
        2,
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            files_per_worker: case.files_per_worker,
            agg: AggStrategy::Exchange { workers: Some(case.agg_workers) },
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    let plan = grouped_plan(case.with_filter);

    let mut cat = Catalog::new();
    let batch = RecordBatch::new(Arc::new(table_schema()), cols).unwrap();
    cat.register("t", Rc::new(MemTable::from_batch(batch)));
    let reference = execute_into_batch(&plan, &cat).unwrap();

    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    (report.batch.clone(), reference, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Repartitioned group-by over a scan ≡ local reference executor, as
    /// row multisets with bitwise-equal scalars; the result flows
    /// through a scan → exchange → agg-merge DAG, never a driver merge.
    #[test]
    fn distributed_group_by_matches_reference(case in arb_case()) {
        let (distributed, reference, report) = run_case(&case);
        prop_assert_eq!(distributed.num_columns(), reference.num_columns());
        prop_assert_eq!(
            row_multiset(&distributed),
            row_multiset(&reference),
            "group-by mismatch for {:?}",
            case
        );
        // The DAG ran as scan fleet + agg-merge fleet (no driver merge,
        // no single-stage fallback).
        prop_assert_eq!(report.stages.len(), 2);
        prop_assert_eq!(report.stages[0].label.as_str(), "scan:t#0");
        prop_assert_eq!(report.stages[1].label.as_str(), "agg#1");
        prop_assert_eq!(report.stages[1].workers, case.agg_workers);
        // Every group was finalized by exactly one merge worker: the
        // merge fleet's output row count equals the group count.
        prop_assert_eq!(report.stages[1].rows_out, reference.num_rows() as u64);
    }

    /// Join + repartitioned group-by ≡ reference, through the full
    /// scan → exchange → join → exchange → agg-merge DAG.
    #[test]
    fn distributed_group_by_over_join_matches_reference(
        left_keys in arb_keys(40),
        right_keys in arb_keys(25),
        agg_workers in 1usize..6,
        join_workers in 1usize..5,
    ) {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let lcols = make_columns(&left_keys);
        let rcols = make_columns(&right_keys);
        let lspec = stage_table_real(
            &cloud, "data", "l", table_schema(),
            split_files(&lcols, 2), left_keys.len() as u64, 2,
        );
        let rspec = stage_table_real(
            &cloud, "data", "r", table_schema(),
            split_files(&rcols, 2), right_keys.len() as u64, 2,
        );
        let mut system = Lambada::install(
            &cloud,
            LambadaConfig {
                join_workers: Some(join_workers),
                agg: AggStrategy::Exchange { workers: Some(agg_workers) },
                ..LambadaConfig::default()
            },
        );
        system.register_table(lspec);
        system.register_table(rspec);

        // SELECT l.vi % …, count, sum … FROM l JOIN r ON l.g = r.g GROUP BY l.vi
        let left = Df::scan("l", &table_schema());
        let right = Df::scan("r", &table_schema());
        let df = left.join(right, &[("g", "g")]).unwrap();
        let key = df.col("vi").unwrap();
        let plan = df
            .aggregate(
                vec![(key, "k")],
                vec![
                    AggExpr::new(AggFunc::Count, None, "cnt"),
                    AggExpr::new(AggFunc::Sum, Some(lambada::engine::col(4)), "sum_rvi"),
                    AggExpr::new(AggFunc::Max, Some(lambada::engine::col(0)), "max_lg"),
                ],
            )
            .unwrap()
            .build();

        let mut cat = Catalog::new();
        cat.register(
            "l",
            Rc::new(MemTable::from_batch(
                RecordBatch::new(Arc::new(table_schema()), lcols).unwrap(),
            )),
        );
        cat.register(
            "r",
            Rc::new(MemTable::from_batch(
                RecordBatch::new(Arc::new(table_schema()), rcols).unwrap(),
            )),
        );
        let reference = execute_into_batch(&plan, &cat).unwrap();

        let report = sim.block_on({
            let plan = plan.clone();
            async move { system.run_query(&plan).await.unwrap() }
        });
        prop_assert_eq!(
            row_multiset(&report.batch),
            row_multiset(&reference),
            "join + group-by mismatch"
        );
        prop_assert_eq!(report.stages.len(), 4);
        prop_assert_eq!(report.stages[2].label.as_str(), "join#2");
        prop_assert_eq!(report.stages[3].label.as_str(), "agg#3");
        prop_assert_eq!(report.stages[2].workers, join_workers);
        prop_assert_eq!(report.stages[3].workers, agg_workers);
    }
}

/// The cost model sizes the merge fleet when no explicit width is set;
/// results still match the reference.
#[test]
fn cost_model_sized_merge_fleet_matches_reference() {
    let keys: Vec<i64> = (0..500).collect();
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cols = make_columns(&keys);
    let spec = stage_table_real(
        &cloud,
        "data",
        "t",
        table_schema(),
        split_files(&cols, 3),
        keys.len() as u64,
        2,
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig { agg: AggStrategy::Exchange { workers: None }, ..LambadaConfig::default() },
    );
    system.register_table(spec);
    let plan = grouped_plan(false);

    let mut cat = Catalog::new();
    cat.register(
        "t",
        Rc::new(MemTable::from_batch(RecordBatch::new(Arc::new(table_schema()), cols).unwrap())),
    );
    let reference = execute_into_batch(&plan, &cat).unwrap();

    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_eq!(row_multiset(&report.batch), row_multiset(&reference));
    assert_eq!(report.stages.len(), 2);
    assert!(report.stages[1].workers >= 1, "cost model sized the merge fleet");
}
