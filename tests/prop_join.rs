//! Property test: distributed hash joins must agree with the local
//! reference executor `physical::execute` bit-for-bit, over randomized
//! tables, key domains (including heavy skew and keys that hash to empty
//! partitions), file layouts, and worker counts.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::{Lambada, LambadaConfig};
use lambada::engine::{
    execute_into_batch, lit_i64, Catalog, Column, DataType, Df, Field, MemTable, RecordBatch,
    Scalar, Schema,
};
use lambada::sim::{Cloud, CloudConfig, Simulation};
use lambada::workloads::stage_table_real;

fn left_schema() -> Schema {
    Schema::new(vec![
        Field::new("lk", DataType::Int64),
        Field::new("lv", DataType::Float64),
        Field::new("lt", DataType::Int64),
    ])
}

fn right_schema() -> Schema {
    Schema::new(vec![Field::new("rk", DataType::Int64), Field::new("rw", DataType::Float64)])
}

/// Key distributions: a small domain (dense matches), a wide domain
/// (sparse matches, empty partitions), and total skew (every key equal —
/// one partition holds everything).
fn arb_keys(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        prop::collection::vec(-3i64..4, len..len + 1),
        prop::collection::vec(-1000i64..1000, len..len + 1),
        (0i64..2).prop_map(move |k| vec![k; len]),
    ]
}

#[derive(Debug, Clone)]
struct JoinCase {
    left_keys: Vec<i64>,
    right_keys: Vec<i64>,
    left_files: usize,
    right_files: usize,
    files_per_worker: Option<usize>,
    join_workers: usize,
    with_filter: bool,
}

fn arb_case() -> impl Strategy<Value = JoinCase> {
    (0usize..50, 0usize..30).prop_flat_map(|(ln, rn)| {
        (
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
                    left_keys,
                    right_keys,
                    left_files,
                    right_files,
                    files_per_worker,
                    join_workers,
                    with_filter,
                )| {
                    JoinCase {
                        left_keys,
                        right_keys,
                        left_files,
                        right_files,
                        files_per_worker,
                        join_workers,
                        with_filter,
                    }
                },
            )
    })
}

fn make_batches(schema: &Schema, keys: &[i64], tag: i64) -> Vec<Column> {
    let n = keys.len();
    let mut cols = vec![
        Column::I64(keys.to_vec()),
        Column::F64((0..n).map(|i| tag as f64 * 1000.0 + i as f64 * 0.25).collect()),
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
/// key, rows sorted — bit-for-bit comparable across execution orders.
fn row_multiset(batch: &RecordBatch) -> Vec<Vec<lambada::engine::ScalarKey>> {
    let mut rows: Vec<Vec<lambada::engine::ScalarKey>> =
        (0..batch.num_rows()).map(|i| batch.row(i).iter().map(Scalar::key).collect()).collect();
    rows.sort();
    rows
}

fn run_case(case: &JoinCase) -> (RecordBatch, RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let lcols = make_batches(&left_schema(), &case.left_keys, 1);
    let rcols = make_batches(&right_schema(), &case.right_keys, 2);
    let lspec = stage_table_real(
        &cloud,
        "data",
        "l",
        left_schema(),
        split_files(&lcols, case.left_files),
        case.left_keys.len() as u64,
        2,
    );
    let rspec = stage_table_real(
        &cloud,
        "data",
        "r",
        right_schema(),
        split_files(&rcols, case.right_files),
        case.right_keys.len() as u64,
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

    // Equi-join built via the Df frontend, optionally with a filter that
    // lands on one side after push-down.
    let left = Df::scan("l", &left_schema());
    let right = Df::scan("r", &right_schema());
    let mut df = left.join(right, &[("lk", "rk")]).unwrap();
    if case.with_filter {
        let tag = df.col("lt").unwrap();
        df = df.filter(tag.le(lit_i64(2))).unwrap();
    }
    let plan = df.build();

    // Reference: same rows, in-memory, local execution.
    let mut cat = Catalog::new();
    let lbatch = RecordBatch::new(Arc::new(left_schema()), lcols).unwrap();
    let rbatch = RecordBatch::new(Arc::new(right_schema()), rcols).unwrap();
    cat.register("l", Rc::new(MemTable::from_batch(lbatch)));
    cat.register("r", Rc::new(MemTable::from_batch(rbatch)));
    let reference = execute_into_batch(&plan, &cat).unwrap();

    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    (report.batch.clone(), reference, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Distributed partitioned hash join ≡ local reference executor, as
    /// row multisets with bitwise-equal scalars.
    #[test]
    fn distributed_join_matches_reference(case in arb_case()) {
        let (distributed, reference, report) = run_case(&case);
        prop_assert_eq!(distributed.num_columns(), reference.num_columns());
        prop_assert_eq!(
            row_multiset(&distributed),
            row_multiset(&reference),
            "join mismatch for {:?}",
            case
        );
        // No local fallback: the DAG ran as scan, scan, join fleets.
        prop_assert_eq!(report.stages.len(), 3);
        prop_assert_eq!(report.stages[2].workers, case.join_workers);
    }
}
