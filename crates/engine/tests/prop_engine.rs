//! Engine-level property tests: the optimizer must never change query
//! results, and vectorized evaluation must agree with a row-at-a-time
//! oracle.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada_engine::agg::{AggExpr, AggFunc};
use lambada_engine::expr::{col, lit_f64, lit_i64, Expr};
use lambada_engine::logical::LogicalPlan;
use lambada_engine::{
    execute_into_batch, Catalog, Column, MemTable, Optimizer, RecordBatch, Scalar,
};

fn table_schema() -> lambada_engine::Schema {
    lambada_engine::Schema::new(vec![
        lambada_engine::Field::new("a", lambada_engine::DataType::Int64),
        lambada_engine::Field::new("b", lambada_engine::DataType::Int64),
        lambada_engine::Field::new("x", lambada_engine::DataType::Float64),
        lambada_engine::Field::new("y", lambada_engine::DataType::Float64),
    ])
}

fn catalog(rows: &[(i64, i64, f64, f64)]) -> Catalog {
    let batch = RecordBatch::new(
        Arc::new(table_schema()),
        vec![
            Column::I64(rows.iter().map(|r| r.0).collect()),
            Column::I64(rows.iter().map(|r| r.1).collect()),
            Column::F64(rows.iter().map(|r| r.2).collect()),
            Column::F64(rows.iter().map(|r| r.3).collect()),
        ],
    )
    .expect("well-formed batch");
    let mut cat = Catalog::new();
    cat.register("t", Rc::new(MemTable::from_batch(batch)));
    cat
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, f64, f64)>> {
    prop::collection::vec((-20i64..20, -5i64..5, -10.0f64..10.0, -10.0f64..10.0), 0..120)
}

/// Boolean predicates over the four columns, with arithmetic inside.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let num = prop_oneof![
        (0usize..2).prop_map(col),
        (-15i64..15).prop_map(lit_i64),
        ((0usize..2), (-5i64..5)).prop_map(|(c, k)| col(c).add(lit_i64(k))),
        ((0usize..2), (-3i64..3)).prop_map(|(c, k)| col(c).mul(lit_i64(k))),
    ];
    let fnum = prop_oneof![
        (2usize..4).prop_map(col),
        (-8.0f64..8.0).prop_map(lit_f64),
        ((2usize..4), (-2.0f64..2.0)).prop_map(|(c, k)| col(c).mul(lit_f64(k))),
    ];
    let leaf = prop_oneof![
        (num.clone(), num.clone(), any::<u8>()).prop_map(|(l, r, op)| cmp(l, r, op)),
        (fnum.clone(), fnum.clone(), any::<u8>()).prop_map(|(l, r, op)| cmp(l, r, op)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Expr::not),
        ]
    })
}

fn cmp(l: Expr, r: Expr, op: u8) -> Expr {
    match op % 6 {
        0 => l.eq(r),
        1 => l.ne(r),
        2 => l.lt(r),
        3 => l.le(r),
        4 => l.gt(r),
        _ => l.ge(r),
    }
}

fn scan() -> LogicalPlan {
    LogicalPlan::Scan {
        table: "t".to_string(),
        schema: Arc::new(table_schema()),
        projection: None,
        predicate: None,
    }
}

fn batches_equal(a: &RecordBatch, b: &RecordBatch) -> bool {
    if a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns() {
        return false;
    }
    for i in 0..a.num_rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
            let same = match (x, y) {
                (Scalar::Float64(p), Scalar::Float64(q)) => {
                    p.to_bits() == q.to_bits() || (p - q).abs() <= 1e-9 * p.abs().max(1.0)
                }
                _ => x == y,
            };
            if !same {
                return false;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimizing filter + aggregate plans preserves results exactly.
    #[test]
    fn optimizer_preserves_aggregates(rows in arb_rows(), pred in arb_pred()) {
        let cat = catalog(&rows);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: pred,
            }),
            group_by: vec![(col(1), "g".to_string())],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, Some(col(2)), "s"),
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Min, Some(col(0)), "lo"),
                AggExpr::new(AggFunc::Max, Some(col(3)), "hi"),
            ],
        };
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let before = execute_into_batch(&plan, &cat).unwrap();
        let after = execute_into_batch(&optimized, &cat).unwrap();
        prop_assert!(
            batches_equal(&before, &after),
            "optimizer changed results:\n{}\nvs\n{}",
            plan.display_indent(),
            optimized.display_indent()
        );
    }

    /// Vectorized predicate evaluation agrees with a per-row oracle.
    #[test]
    fn masks_match_row_oracle(rows in arb_rows(), pred in arb_pred()) {
        let cat = catalog(&rows);
        let plan = LogicalPlan::Filter { input: Box::new(scan()), predicate: pred.clone() };
        let out = execute_into_batch(&plan, &cat).unwrap();
        // Oracle: evaluate the predicate on single-row batches.
        let schema = Arc::new(table_schema());
        let mut expect = 0usize;
        for r in &rows {
            let one = RecordBatch::new(
                Arc::clone(&schema),
                vec![
                    Column::I64(vec![r.0]),
                    Column::I64(vec![r.1]),
                    Column::F64(vec![r.2]),
                    Column::F64(vec![r.3]),
                ],
            ).unwrap();
            let mask = lambada_engine::expr::eval::evaluate_mask(&pred, &one).unwrap();
            if mask[0] {
                expect += 1;
            }
        }
        prop_assert_eq!(out.num_rows(), expect);
    }

    /// Sorting is a permutation ordered by the keys.
    #[test]
    fn sort_orders_and_permutes(rows in arb_rows()) {
        let cat = catalog(&rows);
        let plan = LogicalPlan::Sort {
            input: Box::new(scan()),
            keys: vec![
                lambada_engine::SortKey::asc(col(1)),
                lambada_engine::SortKey::desc(col(0)),
            ],
        };
        let out = execute_into_batch(&plan, &cat).unwrap();
        prop_assert_eq!(out.num_rows(), rows.len());
        for i in 1..out.num_rows() {
            let (p, q) = (out.row(i - 1), out.row(i));
            let k1 = (p[1].as_i64().unwrap(), q[1].as_i64().unwrap());
            prop_assert!(k1.0 <= k1.1, "primary key out of order");
            if k1.0 == k1.1 {
                prop_assert!(
                    p[0].as_i64().unwrap() >= q[0].as_i64().unwrap(),
                    "secondary key (desc) out of order"
                );
            }
        }
        // Permutation check via multiset of first column.
        let mut before: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let mut after: Vec<i64> = out.column(0).as_i64().unwrap().to_vec();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
    }
}

/// The pipeline probe terminal (build-side `JoinState` + streamed probe
/// batches) must agree with the reference executor's hash join — for
/// every [`lambada_engine::JoinVariant`] — and the wire roundtrip must
/// not change results.
fn join_row_multiset(batches: &[RecordBatch]) -> Vec<Vec<lambada_engine::ScalarKey>> {
    let mut rows: Vec<Vec<lambada_engine::ScalarKey>> = batches
        .iter()
        .flat_map(|b| {
            (0..b.num_rows())
                .map(|i| b.row(i).iter().map(Scalar::key).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probe_pipeline_matches_reference_join(
        left in prop::collection::vec((-8i64..8, -4.0f64..4.0), 0..60),
        right in prop::collection::vec((-8i64..8, -4.0f64..4.0), 0..40),
        chunk in 1usize..16,
    ) {
        use lambada_engine::join::JoinState;
        use lambada_engine::pipeline::{Pipeline, PipelineOutput, PipelineSpec, Terminal};

        let schema = |prefix: &str| {
            std::sync::Arc::new(lambada_engine::Schema::new(vec![
                lambada_engine::Field::new(format!("{prefix}k"), lambada_engine::DataType::Int64),
                lambada_engine::Field::new(format!("{prefix}v"), lambada_engine::DataType::Float64),
            ]))
        };
        let to_batch = |rows: &[(i64, f64)], s: &lambada_engine::SchemaRef| {
            RecordBatch::new(
                Arc::clone(s),
                vec![
                    Column::I64(rows.iter().map(|r| r.0).collect()),
                    Column::F64(rows.iter().map(|r| r.1).collect()),
                ],
            )
            .unwrap()
        };
        let (ls, rs) = (schema("l"), schema("r"));
        let lbatch = to_batch(&left, &ls);
        let rbatch = to_batch(&right, &rs);

        // Reference: the executor's hash join over in-memory tables.
        let mut cat = Catalog::new();
        cat.register("l", Rc::new(MemTable::from_batch(lbatch.clone())));
        cat.register("r", Rc::new(MemTable::from_batch(rbatch.clone())));
        for variant in [
            lambada_engine::JoinVariant::Inner,
            lambada_engine::JoinVariant::LeftOuter,
            lambada_engine::JoinVariant::Semi,
            lambada_engine::JoinVariant::Anti,
        ] {
            let plan = LogicalPlan::Join {
                left: Box::new(LogicalPlan::Scan {
                    table: "l".to_string(),
                    schema: Arc::clone(&ls),
                    projection: None,
                    predicate: None,
                }),
                right: Box::new(LogicalPlan::Scan {
                    table: "r".to_string(),
                    schema: Arc::clone(&rs),
                    projection: None,
                    predicate: None,
                }),
                on: vec![(0, 0)],
                variant,
            };
            let reference = lambada_engine::physical::execute(&plan, &cat).unwrap();

            // Probe side streams through a pipeline in `chunk`-row batches.
            let state =
                JoinState::build(Arc::clone(&rs), vec![0], std::slice::from_ref(&rbatch))
                    .unwrap();
            let spec = PipelineSpec {
                input_schema: Arc::clone(&ls),
                predicate: None,
                projection: None,
                terminal: Terminal::Probe { build: Rc::new(state), probe_keys: vec![0], variant },
            };
            let mut pipeline = Pipeline::new(spec).unwrap();
            let mut start = 0;
            while start < left.len() {
                let idx: Vec<usize> = (start..(start + chunk).min(left.len())).collect();
                pipeline.push(&lbatch.gather(&idx)).unwrap();
                start += chunk;
            }
            let PipelineOutput::Batches(joined) = pipeline.finish().unwrap() else {
                panic!("probe terminal collects batches");
            };
            prop_assert_eq!(
                join_row_multiset(&joined),
                join_row_multiset(&reference),
                "{:?}",
                variant
            );
        }
    }
}
