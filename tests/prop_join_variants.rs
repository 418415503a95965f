//! Property tests for the non-inner distributed joins: semi, anti, and
//! left-outer results must agree with the local reference executor
//! bit-for-bit over randomized tables, key skew, duplicate build keys,
//! file layouts, and fleet sizes — and the variants must compose with
//! the rest of the DAG machinery (semi join feeding a repartitioned
//! aggregation feeding a distributed sort).
//!
//! All columns are integer-valued, so "bit-for-bit" has no float
//! tolerance anywhere; left-outer padding uses the fixed sentinel of
//! `Scalar::null_of`, which both executors share.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::{AggStrategy, Lambada, LambadaConfig, SortStrategy};
use lambada::engine::{
    execute_into_batch, lit_i64, AggExpr, AggFunc, Catalog, Column, DataType, Df, Field,
    JoinVariant, MemTable, RecordBatch, Scalar, Schema, SortKey,
};
use lambada::sim::{Cloud, CloudConfig, Simulation};
use lambada::workloads::stage_table_real;

fn probe_schema() -> Schema {
    Schema::new(vec![
        Field::new("lk", DataType::Int64),
        Field::new("lv", DataType::Int64),
        Field::new("lt", DataType::Int64),
    ])
}

fn build_schema() -> Schema {
    Schema::new(vec![Field::new("rk", DataType::Int64), Field::new("rw", DataType::Int64)])
}

/// Key distributions: a small domain (dense matches and *duplicate build
/// keys*), a wide domain (sparse matches, unmatched probe rows, empty
/// partitions), and total skew (every key equal — one partition holds
/// everything, and a semi/anti probe either keeps all rows or none).
fn arb_keys(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        prop::collection::vec(-3i64..4, len..len + 1),
        prop::collection::vec(-1000i64..1000, len..len + 1),
        (0i64..2).prop_map(move |k| vec![k; len]),
    ]
}

fn arb_variant() -> impl Strategy<Value = JoinVariant> {
    prop_oneof![
        Just(JoinVariant::Semi),
        Just(JoinVariant::Anti),
        Just(JoinVariant::LeftOuter),
        Just(JoinVariant::Inner),
    ]
}

#[derive(Debug, Clone)]
struct VariantCase {
    variant: JoinVariant,
    probe_keys: Vec<i64>,
    build_keys: Vec<i64>,
    probe_files: usize,
    build_files: usize,
    files_per_worker: Option<usize>,
    join_workers: usize,
    with_filter: bool,
}

fn arb_case() -> impl Strategy<Value = VariantCase> {
    (0usize..50, 0usize..30).prop_flat_map(|(ln, rn)| {
        (
            arb_variant(),
            arb_keys(ln),
            arb_keys(rn),
            1usize..4,
            1usize..4,
            (0usize..3).prop_map(|f| (f > 0).then_some(f)),
            1usize..8,
            any::<bool>(),
        )
            .prop_map(
                |(
                    variant,
                    probe_keys,
                    build_keys,
                    probe_files,
                    build_files,
                    files_per_worker,
                    join_workers,
                    with_filter,
                )| {
                    VariantCase {
                        variant,
                        probe_keys,
                        build_keys,
                        probe_files,
                        build_files,
                        files_per_worker,
                        join_workers,
                        with_filter,
                    }
                },
            )
    })
}

fn make_columns(schema: &Schema, keys: &[i64], tag: i64) -> Vec<Column> {
    let n = keys.len();
    let mut cols = vec![
        Column::I64(keys.to_vec()),
        Column::I64((0..n as i64).map(|i| tag * 1000 + i).collect()),
    ];
    if schema.len() == 3 {
        cols.push(Column::I64((0..n as i64).map(|i| i % 5).collect()));
    }
    cols
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

/// Canonical multiset of rows: every scalar lowered to its total-order
/// key (left-outer NaN padding included — the sentinel has one fixed bit
/// pattern), rows sorted — bit-for-bit comparable across execution
/// orders.
fn row_multiset(batch: &RecordBatch) -> Vec<Vec<lambada::engine::ScalarKey>> {
    let mut rows: Vec<Vec<lambada::engine::ScalarKey>> =
        (0..batch.num_rows()).map(|i| batch.row(i).iter().map(Scalar::key).collect()).collect();
    rows.sort();
    rows
}

fn run_case(case: &VariantCase) -> (RecordBatch, RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let lcols = make_columns(&probe_schema(), &case.probe_keys, 1);
    let rcols = make_columns(&build_schema(), &case.build_keys, 2);
    let lspec = stage_table_real(
        &cloud,
        "data",
        "l",
        probe_schema(),
        split_files(&lcols, case.probe_files),
        case.probe_keys.len() as u64,
        2,
    );
    let rspec = stage_table_real(
        &cloud,
        "data",
        "r",
        build_schema(),
        split_files(&rcols, case.build_files),
        case.build_keys.len() as u64,
        2,
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            files_per_worker: case.files_per_worker,
            join_workers: Some(case.join_workers),
            ..LambadaConfig::default()
        },
    );
    system.register_table(lspec);
    system.register_table(rspec);

    // Variant join built via the Df frontend, optionally with a
    // probe-side filter that lands below the join after push-down (the
    // probe side is the preserved side of every variant).
    let left = Df::scan("l", &probe_schema());
    let right = Df::scan("r", &build_schema());
    let mut df = left.join_variant(right, &[("lk", "rk")], case.variant).unwrap();
    if case.with_filter {
        let tag = df.col("lt").unwrap();
        df = df.filter(tag.le(lit_i64(2))).unwrap();
    }
    let plan = df.build();

    // Reference: same rows, in-memory, local execution.
    let mut cat = Catalog::new();
    let lbatch = RecordBatch::new(Arc::new(probe_schema()), lcols).unwrap();
    let rbatch = RecordBatch::new(Arc::new(build_schema()), rcols).unwrap();
    cat.register("l", Rc::new(MemTable::from_batch(lbatch)));
    cat.register("r", Rc::new(MemTable::from_batch(rbatch)));
    let reference = execute_into_batch(&plan, &cat).unwrap();

    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    (report.batch.clone(), reference, report)
}

/// Exact row-sequence equality (bit-for-bit, integers only here).
fn assert_rows_identical(
    got: &RecordBatch,
    want: &RecordBatch,
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(got.num_rows(), want.num_rows());
    prop_assert_eq!(got.num_columns(), want.num_columns());
    for i in 0..got.num_rows() {
        prop_assert_eq!(got.row(i), want.row(i), "row {} differs", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Distributed semi/anti/left-outer (and inner, as the control) hash
    /// join ≡ local reference executor, as row multisets with
    /// bitwise-equal scalars, across fleet sizes, skew, and duplicate
    /// build keys.
    #[test]
    fn distributed_variant_join_matches_reference(case in arb_case()) {
        let (distributed, reference, report) = run_case(&case);
        prop_assert_eq!(distributed.num_columns(), reference.num_columns());
        prop_assert_eq!(
            row_multiset(&distributed),
            row_multiset(&reference),
            "{:?} join mismatch for {:?}",
            case.variant,
            case
        );
        // No local fallback: the DAG ran as scan, scan, join fleets, and
        // the stage label names the variant.
        prop_assert_eq!(report.stages.len(), 3);
        prop_assert_eq!(report.stages[2].workers, case.join_workers);
        prop_assert!(
            report.stages[2].label.starts_with(case.variant.label()),
            "label {} for {:?}",
            &report.stages[2].label,
            case.variant
        );
    }

    /// A semi (or anti) join feeding a repartitioned aggregation feeding
    /// a distributed sort — the nested-variant composition — ≡ reference
    /// as the *exact row sequence* (integer sums are exact, sort keys
    /// total).
    #[test]
    fn variant_join_into_agg_into_sort_matches_reference_exactly(
        probe_keys in arb_keys(40),
        build_keys in arb_keys(20),
        semi in any::<bool>(),
        join_workers in 1usize..5,
        agg_workers in 1usize..5,
        sort_workers in 1usize..5,
        limit in 1usize..12,
    ) {
        let variant = if semi { JoinVariant::Semi } else { JoinVariant::Anti };
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let lcols = make_columns(&probe_schema(), &probe_keys, 3);
        let rcols = make_columns(&build_schema(), &build_keys, 4);
        let lspec = stage_table_real(
            &cloud, "data", "l", probe_schema(),
            split_files(&lcols, 2), probe_keys.len() as u64, 2,
        );
        let rspec = stage_table_real(
            &cloud, "data", "r", build_schema(),
            split_files(&rcols, 2), build_keys.len() as u64, 2,
        );
        let mut system = Lambada::install(&cloud, LambadaConfig {
            join_workers: Some(join_workers),
            agg: AggStrategy::Exchange { workers: Some(agg_workers) },
            sort: SortStrategy::Exchange { workers: Some(sort_workers) },
            ..LambadaConfig::default()
        });
        system.register_table(lspec);
        system.register_table(rspec);

        // SELECT lt, count(*), sum(lv) FROM l [SEMI|ANTI] JOIN r ON lk=rk
        // GROUP BY lt ORDER BY count DESC, lt LIMIT n — the group and
        // aggregate columns live on the probe side, as they must for a
        // one-sided join.
        let left = Df::scan("l", &probe_schema());
        let right = Df::scan("r", &build_schema());
        let joined = left.join_variant(right, &[("lk", "rk")], variant).unwrap();
        let lt = joined.col("lt").unwrap();
        let lv = joined.col("lv").unwrap();
        let plan = joined
            .aggregate(
                vec![(lt, "lt")],
                vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Sum, Some(lv), "sum_lv"),
                ],
            )
            .unwrap()
            .sort(vec![
                SortKey::desc(lambada::engine::col(1)),
                SortKey::asc(lambada::engine::col(0)),
            ])
            .unwrap()
            .limit(limit)
            .unwrap()
            .build();

        let mut cat = Catalog::new();
        cat.register("l", Rc::new(MemTable::from_batch(
            RecordBatch::new(Arc::new(probe_schema()), lcols).unwrap(),
        )));
        cat.register("r", Rc::new(MemTable::from_batch(
            RecordBatch::new(Arc::new(build_schema()), rcols).unwrap(),
        )));
        let reference = execute_into_batch(&plan, &cat).unwrap();
        let report = sim.block_on({
            let plan = plan.clone();
            async move { system.run_query(&plan).await.unwrap() }
        });
        assert_rows_identical(&report.batch, &reference)?;
        // Fully serverless five-stage DAG: scan, scan, variant join,
        // agg-merge, sort — the driver only concatenates + truncates.
        prop_assert_eq!(report.stages.len(), 5);
        let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
        prop_assert!(labels[2].starts_with(variant.label()), "{:?}", labels);
        prop_assert!(labels[3].starts_with("agg#"));
        prop_assert!(labels[4].starts_with("sort#"));
    }
}
