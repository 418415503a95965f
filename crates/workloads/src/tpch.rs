//! TPC-H queries 1 and 6 — "the two most scan-bound queries" (§5.3) —
//! expressed as logical plans over the numeric LINEITEM schema, plus the
//! Q12-/Q3-/Q5-style join queries that exercise the serverless exchange
//! and the Q4-style semi-join / Q21-flavored anti-join decision-support
//! queries built on `EXISTS` / `NOT EXISTS`.

use lambada_engine::agg::{AggExpr, AggFunc};
use lambada_engine::expr::{col, lit_f64, lit_i64};
use lambada_engine::logical::{JoinVariant, LogicalPlan, SortKey};
use lambada_engine::types::Schema;

use crate::lineitem::{cols, dates};

/// Q1: selects ~98% of LINEITEM on `l_shipdate`, aggregates into a
/// handful of (returnflag, linestatus) groups with seven aggregates plus
/// a count.
pub fn q1(table: &str) -> LogicalPlan {
    let schema = crate::lineitem::schema();
    let disc_price = || col(cols::EXTENDEDPRICE).mul(lit_f64(1.0).sub(col(cols::DISCOUNT)));
    let charge = || disc_price().mul(lit_f64(1.0).add(col(cols::TAX)));
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan(table, &schema)),
                predicate: col(cols::SHIPDATE).le(lit_i64(dates::Q1_CUTOFF)),
            }),
            group_by: vec![
                (col(cols::RETURNFLAG), "l_returnflag".to_string()),
                (col(cols::LINESTATUS), "l_linestatus".to_string()),
            ],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, Some(col(cols::QUANTITY)), "sum_qty"),
                AggExpr::new(AggFunc::Sum, Some(col(cols::EXTENDEDPRICE)), "sum_base_price"),
                AggExpr::new(AggFunc::Sum, Some(disc_price()), "sum_disc_price"),
                AggExpr::new(AggFunc::Sum, Some(charge()), "sum_charge"),
                AggExpr::new(AggFunc::Avg, Some(col(cols::QUANTITY)), "avg_qty"),
                AggExpr::new(AggFunc::Avg, Some(col(cols::EXTENDEDPRICE)), "avg_price"),
                AggExpr::new(AggFunc::Avg, Some(col(cols::DISCOUNT)), "avg_disc"),
                AggExpr::new(AggFunc::Count, None, "count_order"),
            ],
        }),
        keys: vec![SortKey::asc(col(0)), SortKey::asc(col(1))],
    }
}

/// Q6: selects ~2% of LINEITEM (one shipdate year × three discount
/// values × quantity < 24) and sums `extendedprice * discount`.
pub fn q6(table: &str) -> LogicalPlan {
    let schema = crate::lineitem::schema();
    // Epsilon-padded bounds keep the float comparison robust against the
    // representation of 0.05/0.07 (TPC-H itself specifies ±0.01 around
    // 0.06).
    let predicate = col(cols::SHIPDATE)
        .ge(lit_i64(dates::Q6_START))
        .and(col(cols::SHIPDATE).lt(lit_i64(dates::Q6_END)))
        .and(col(cols::DISCOUNT).between(lit_f64(0.0499), lit_f64(0.0701)))
        .and(col(cols::QUANTITY).lt(lit_f64(24.0)));
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Filter { input: Box::new(scan(table, &schema)), predicate }),
        group_by: vec![],
        aggs: vec![AggExpr::new(
            AggFunc::Sum,
            Some(col(cols::EXTENDEDPRICE).mul(col(cols::DISCOUNT))),
            "revenue",
        )],
    }
}

/// Q12-style shipping-priority join: LINEITEM ⋈ ORDERS on the order key,
/// with Q12's lineitem-side predicates (receipt-date year window,
/// commit-before-receipt, ship-before-commit, two ship modes), grouped by
/// `l_shipmode`.
///
/// Q12 proper counts high/low-priority lines with CASE expressions; the
/// engine has no CASE yet, so this variant reports the line count plus
/// order-priority and total-price statistics per ship mode — the same
/// join + repartition shape with the same selectivities.
pub fn q12(lineitem_table: &str, orders_table: &str) -> LogicalPlan {
    let li_schema = crate::lineitem::schema();
    let ord_schema = crate::orders::schema();
    let li_width = li_schema.len();
    // Two of the seven numeric ship modes (Q12 picks e.g. MAIL, SHIP).
    let predicate = col(cols::SHIPMODE)
        .le(lit_i64(1))
        .and(col(cols::COMMITDATE).lt(col(cols::RECEIPTDATE)))
        .and(col(cols::SHIPDATE).lt(col(cols::COMMITDATE)))
        .and(col(cols::RECEIPTDATE).ge(lit_i64(dates::Q6_START)))
        .and(col(cols::RECEIPTDATE).lt(lit_i64(dates::Q6_END)));
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan(lineitem_table, &li_schema)),
                    predicate,
                }),
                right: Box::new(scan(orders_table, &ord_schema)),
                on: vec![(cols::ORDERKEY, crate::orders::cols::ORDERKEY)],
                variant: JoinVariant::Inner,
            }),
            group_by: vec![(col(cols::SHIPMODE), "l_shipmode".to_string())],
            aggs: vec![
                AggExpr::new(AggFunc::Count, None, "line_count"),
                AggExpr::new(
                    AggFunc::Min,
                    Some(col(li_width + crate::orders::cols::ORDERPRIORITY)),
                    "min_priority",
                ),
                AggExpr::new(
                    AggFunc::Avg,
                    Some(col(li_width + crate::orders::cols::ORDERPRIORITY)),
                    "avg_priority",
                ),
                AggExpr::new(
                    AggFunc::Sum,
                    Some(col(li_width + crate::orders::cols::TOTALPRICE)),
                    "sum_totalprice",
                ),
            ],
        }),
        keys: vec![SortKey::asc(col(0))],
    }
}

/// Q4-style order-priority checking query: ORDERS ⋉ LINEITEM.
///
/// TPC-H Q4 counts the orders of one quarter that have at least one line
/// item whose commit date precedes its receipt date — an `EXISTS`
/// subquery, i.e. a *semi join* of ORDERS against the filtered LINEITEM
/// on the order key — grouped by `o_orderpriority` and ordered by it.
/// This is the first TPC-H shape that needs a non-inner distributed
/// join: the probe side (orders) is the preserved side, each qualifying
/// order counts once however many late line items it has, and no
/// lineitem column survives the join.
pub fn q4(lineitem_table: &str, orders_table: &str) -> LogicalPlan {
    q4_variant(lineitem_table, orders_table, JoinVariant::Semi)
}

/// The Q4 join shape with an explicit [`JoinVariant`] — the semi join is
/// TPC-H Q4 proper; the other variants run the identical scan/exchange
/// plan with a different probe emit rule, which is what the
/// `fig_join_variants` bench sweeps. Grouping stays on
/// `o_orderpriority` (an orders column, so it exists in every variant's
/// output schema).
pub fn q4_variant(lineitem_table: &str, orders_table: &str, variant: JoinVariant) -> LogicalPlan {
    let li_schema = crate::lineitem::schema();
    let ord_schema = crate::orders::schema();
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan(orders_table, &ord_schema)),
                    predicate: col(crate::orders::cols::ORDERDATE)
                        .ge(lit_i64(dates::Q4_START))
                        .and(col(crate::orders::cols::ORDERDATE).lt(lit_i64(dates::Q4_END))),
                }),
                right: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan(lineitem_table, &li_schema)),
                    predicate: col(cols::COMMITDATE).lt(col(cols::RECEIPTDATE)),
                }),
                on: vec![(crate::orders::cols::ORDERKEY, cols::ORDERKEY)],
                variant,
            }),
            group_by: vec![(
                col(crate::orders::cols::ORDERPRIORITY),
                "o_orderpriority".to_string(),
            )],
            aggs: vec![AggExpr::new(AggFunc::Count, None, "order_count")],
        }),
        keys: vec![SortKey::asc(col(0))],
    }
}

/// Q21-flavored anti-join query: ORDERS ▷ LINEITEM.
///
/// TPC-H Q21 hunts suppliers whose line items are the *only* late ones
/// of a multi-supplier order — its core is a `NOT EXISTS` over LINEITEM.
/// The numeric schema has no supplier dimension, so this variant keeps
/// the `NOT EXISTS` essence at the order level: orders of the Q4 window
/// with *no* line item received after its commit date (the complement of
/// [`q4`]'s semi join — per priority, `q4 + q21` counts add up to the
/// window's orders, which the tests pin), counted and totalled per
/// `o_orderpriority`.
pub fn q21(lineitem_table: &str, orders_table: &str) -> LogicalPlan {
    let li_schema = crate::lineitem::schema();
    let ord_schema = crate::orders::schema();
    LogicalPlan::Sort {
        input: Box::new(LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan(orders_table, &ord_schema)),
                    predicate: col(crate::orders::cols::ORDERDATE)
                        .ge(lit_i64(dates::Q4_START))
                        .and(col(crate::orders::cols::ORDERDATE).lt(lit_i64(dates::Q4_END))),
                }),
                right: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan(lineitem_table, &li_schema)),
                    predicate: col(cols::RECEIPTDATE).gt(col(cols::COMMITDATE)),
                }),
                on: vec![(crate::orders::cols::ORDERKEY, cols::ORDERKEY)],
                variant: JoinVariant::Anti,
            }),
            group_by: vec![(
                col(crate::orders::cols::ORDERPRIORITY),
                "o_orderpriority".to_string(),
            )],
            aggs: vec![
                AggExpr::new(AggFunc::Count, None, "order_count"),
                AggExpr::new(
                    AggFunc::Sum,
                    Some(col(crate::orders::cols::TOTALPRICE)),
                    "sum_totalprice",
                ),
            ],
        }),
        keys: vec![SortKey::asc(col(0))],
    }
}

/// Q3-style shipping-priority query: LINEITEM ⋈ ORDERS on the order key,
/// restricted to orders placed before the Q6 date threshold and line
/// items shipped after it, grouped by `l_orderkey` (plus the order's
/// date and ship priority), with `revenue = sum(l_extendedprice * (1 -
/// l_discount))`, ordered by revenue descending, top 10.
///
/// Unlike Q1's four groups, this group-by has *one group per qualifying
/// order* — a cardinality proportional to the table size, the regime
/// where driver-side merging of partial aggregates becomes the
/// bottleneck and repartitioned aggregation over the exchange pays off.
///
/// Q3 proper also joins CUSTOMER on the market segment; the distributed
/// planner supports a single join today, so the customer dimension is
/// dropped, keeping the same join + high-cardinality group-by shape.
pub fn q3(lineitem_table: &str, orders_table: &str) -> LogicalPlan {
    let li_schema = crate::lineitem::schema();
    let ord_schema = crate::orders::schema();
    let li_width = li_schema.len();
    let revenue = || col(cols::EXTENDEDPRICE).mul(lit_f64(1.0).sub(col(cols::DISCOUNT)));
    LogicalPlan::Limit {
        input: Box::new(LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Join {
                    left: Box::new(LogicalPlan::Filter {
                        input: Box::new(scan(lineitem_table, &li_schema)),
                        predicate: col(cols::SHIPDATE).gt(lit_i64(dates::Q6_START)),
                    }),
                    right: Box::new(LogicalPlan::Filter {
                        input: Box::new(scan(orders_table, &ord_schema)),
                        predicate: col(crate::orders::cols::ORDERDATE).lt(lit_i64(dates::Q6_START)),
                    }),
                    on: vec![(cols::ORDERKEY, crate::orders::cols::ORDERKEY)],
                    variant: JoinVariant::Inner,
                }),
                group_by: vec![
                    (col(cols::ORDERKEY), "l_orderkey".to_string()),
                    (col(li_width + crate::orders::cols::ORDERDATE), "o_orderdate".to_string()),
                    (
                        col(li_width + crate::orders::cols::SHIPPRIORITY),
                        "o_shippriority".to_string(),
                    ),
                ],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(revenue()), "revenue")],
            }),
            // Revenue descending; the order key breaks revenue ties
            // deterministically.
            keys: vec![SortKey::desc(col(3)), SortKey::asc(col(0))],
        }),
        n: 10,
    }
}

/// Q5-style three-table revenue query:
/// `LINEITEM ⋈ ORDERS ⋈ CUSTOMER`, restricted like Q3 (orders placed
/// before the date threshold, line items shipped after it), with
/// `revenue = sum(l_extendedprice * (1 - l_discount))` grouped per
/// customer, ordered by revenue descending, top 10.
///
/// The nested join is the shape the planner's old fixed-form matcher
/// rejected: `(lineitem ⋈ orders) ⋈ customer` lowers to a five-stage DAG
/// whose inner join feeds the outer join over a row exchange. Q5 proper
/// aggregates per *nation* through NATION/REGION dimension tables the
/// numeric schema does not model, so this variant keeps Q5's
/// join-depth-and-aggregate shape with Q10's revenue-per-customer
/// grouping — a high-cardinality group-by whose ORDER BY + LIMIT is
/// exactly what the distributed sort/top-k stage exists for.
pub fn q5(lineitem_table: &str, orders_table: &str, customer_table: &str) -> LogicalPlan {
    let li_schema = crate::lineitem::schema();
    let ord_schema = crate::orders::schema();
    let cust_schema = crate::customer::schema();
    let li_width = li_schema.len();
    let inner_width = li_width + ord_schema.len();
    let revenue = || col(cols::EXTENDEDPRICE).mul(lit_f64(1.0).sub(col(cols::DISCOUNT)));
    let inner = LogicalPlan::Join {
        left: Box::new(LogicalPlan::Filter {
            input: Box::new(scan(lineitem_table, &li_schema)),
            predicate: col(cols::SHIPDATE).gt(lit_i64(dates::Q6_START)),
        }),
        right: Box::new(LogicalPlan::Filter {
            input: Box::new(scan(orders_table, &ord_schema)),
            predicate: col(crate::orders::cols::ORDERDATE).lt(lit_i64(dates::Q6_START)),
        }),
        on: vec![(cols::ORDERKEY, crate::orders::cols::ORDERKEY)],
        variant: JoinVariant::Inner,
    };
    let outer = LogicalPlan::Join {
        left: Box::new(inner),
        right: Box::new(scan(customer_table, &cust_schema)),
        on: vec![(li_width + crate::orders::cols::CUSTKEY, crate::customer::cols::CUSTKEY)],
        variant: JoinVariant::Inner,
    };
    LogicalPlan::Limit {
        input: Box::new(LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(outer),
                group_by: vec![
                    (col(inner_width + crate::customer::cols::CUSTKEY), "c_custkey".to_string()),
                    (
                        col(inner_width + crate::customer::cols::NATIONKEY),
                        "c_nationkey".to_string(),
                    ),
                ],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(revenue()), "revenue")],
            }),
            // Revenue descending; the customer key breaks revenue ties
            // deterministically.
            keys: vec![SortKey::desc(col(2)), SortKey::asc(col(0))],
        }),
        n: 10,
    }
}

fn scan(table: &str, schema: &Schema) -> LogicalPlan {
    LogicalPlan::Scan {
        table: table.to_string(),
        schema: std::sync::Arc::new(schema.clone()),
        projection: None,
        predicate: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineitem::LineitemGenerator;
    use lambada_engine::{execute_into_batch, Catalog, MemTable, Optimizer, RecordBatch, Scalar};
    use std::rc::Rc;

    fn catalog(rows: u64) -> (Catalog, RecordBatch) {
        let cols_v = LineitemGenerator::new(11).generate(rows);
        let batch =
            RecordBatch::new(std::sync::Arc::new(crate::lineitem::schema()), cols_v).unwrap();
        let mut cat = Catalog::new();
        cat.register("lineitem", Rc::new(MemTable::from_batch(batch.clone())));
        (cat, batch)
    }

    #[test]
    fn q1_matches_bruteforce() {
        let (cat, batch) = catalog(20_000);
        let out = execute_into_batch(&q1("lineitem"), &cat).unwrap();
        // Brute force over rows.
        // (sum_qty, sum_base, sum_disc_price, sum_charge, count) per group.
        type GroupAggs = (f64, f64, f64, f64, i64);
        let mut expect: std::collections::BTreeMap<(i64, i64), GroupAggs> =
            std::collections::BTreeMap::new();
        for row in batch.rows() {
            let ship = row[cols::SHIPDATE].as_i64().unwrap();
            if ship > dates::Q1_CUTOFF {
                continue;
            }
            let key =
                (row[cols::RETURNFLAG].as_i64().unwrap(), row[cols::LINESTATUS].as_i64().unwrap());
            let qty = row[cols::QUANTITY].as_f64().unwrap();
            let price = row[cols::EXTENDEDPRICE].as_f64().unwrap();
            let disc = row[cols::DISCOUNT].as_f64().unwrap();
            let tax = row[cols::TAX].as_f64().unwrap();
            let e = expect.entry(key).or_insert((0.0, 0.0, 0.0, 0.0, 0));
            e.0 += qty;
            e.1 += price;
            e.2 += price * (1.0 - disc);
            e.3 += price * (1.0 - disc) * (1.0 + tax);
            e.4 += 1;
        }
        assert_eq!(out.num_rows(), expect.len());
        for (i, (key, vals)) in expect.iter().enumerate() {
            let row = out.row(i);
            assert_eq!(row[0], Scalar::Int64(key.0));
            assert_eq!(row[1], Scalar::Int64(key.1));
            let close =
                |a: &Scalar, b: f64| (a.as_f64().unwrap() - b).abs() < 1e-6 * b.abs().max(1.0);
            assert!(close(&row[2], vals.0), "sum_qty");
            assert!(close(&row[3], vals.1), "sum_base_price");
            assert!(close(&row[4], vals.2), "sum_disc_price");
            assert!(close(&row[5], vals.3), "sum_charge");
            assert_eq!(row[9], Scalar::Int64(vals.4), "count");
        }
    }

    #[test]
    fn q6_matches_bruteforce() {
        let (cat, batch) = catalog(20_000);
        let out = execute_into_batch(&q6("lineitem"), &cat).unwrap();
        let mut revenue = 0.0;
        for row in batch.rows() {
            let ship = row[cols::SHIPDATE].as_i64().unwrap();
            let disc = row[cols::DISCOUNT].as_f64().unwrap();
            let qty = row[cols::QUANTITY].as_f64().unwrap();
            if (dates::Q6_START..dates::Q6_END).contains(&ship)
                && (0.0499..=0.0701).contains(&disc)
                && qty < 24.0
            {
                revenue += row[cols::EXTENDEDPRICE].as_f64().unwrap() * disc;
            }
        }
        assert_eq!(out.num_rows(), 1);
        let got = out.row(0)[0].as_f64().unwrap();
        assert!((got - revenue).abs() < 1e-6 * revenue.max(1.0), "{got} vs {revenue}");
        assert!(revenue > 0.0, "Q6 selected something");
    }

    fn join_catalog(rows: u64) -> (Catalog, RecordBatch, RecordBatch) {
        let (mut cat, lineitem) = catalog(rows);
        let ord_cols = crate::orders::OrdersGenerator::new(12).generate(rows);
        let orders =
            RecordBatch::new(std::sync::Arc::new(crate::orders::schema()), ord_cols).unwrap();
        cat.register("orders", Rc::new(MemTable::from_batch(orders.clone())));
        (cat, lineitem, orders)
    }

    #[test]
    fn q12_matches_bruteforce() {
        let (cat, lineitem, orders) = join_catalog(20_000);
        let out = execute_into_batch(&q12("lineitem", "orders"), &cat).unwrap();
        // Brute force: index orders by key, scan lineitem.
        let okeys = orders.column(crate::orders::cols::ORDERKEY).as_i64().unwrap();
        let oprio = orders.column(crate::orders::cols::ORDERPRIORITY).as_i64().unwrap();
        let oprice = orders.column(crate::orders::cols::TOTALPRICE).as_f64().unwrap();
        let by_key: std::collections::HashMap<i64, usize> =
            okeys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        // (count, min_prio, sum_prio, sum_price) per ship mode.
        let mut expect: std::collections::BTreeMap<i64, (i64, i64, i64, f64)> =
            std::collections::BTreeMap::new();
        for row in lineitem.rows() {
            let mode = row[cols::SHIPMODE].as_i64().unwrap();
            let commit = row[cols::COMMITDATE].as_i64().unwrap();
            let receipt = row[cols::RECEIPTDATE].as_i64().unwrap();
            let ship = row[cols::SHIPDATE].as_i64().unwrap();
            if mode > 1
                || commit >= receipt
                || ship >= commit
                || !(dates::Q6_START..dates::Q6_END).contains(&receipt)
            {
                continue;
            }
            let key = row[cols::ORDERKEY].as_i64().unwrap();
            let Some(&o) = by_key.get(&key) else { continue };
            let e = expect.entry(mode).or_insert((0, i64::MAX, 0, 0.0));
            e.0 += 1;
            e.1 = e.1.min(oprio[o]);
            e.2 += oprio[o];
            e.3 += oprice[o];
        }
        assert!(!expect.is_empty(), "Q12 selected something");
        assert_eq!(out.num_rows(), expect.len());
        for (i, (mode, vals)) in expect.iter().enumerate() {
            let row = out.row(i);
            assert_eq!(row[0], Scalar::Int64(*mode));
            assert_eq!(row[1], Scalar::Int64(vals.0), "line_count");
            assert_eq!(row[2], Scalar::Int64(vals.1), "min_priority");
            let avg = row[3].as_f64().unwrap();
            let want_avg = vals.2 as f64 / vals.0 as f64;
            assert!((avg - want_avg).abs() < 1e-9, "avg_priority {avg} vs {want_avg}");
            let sum = row[4].as_f64().unwrap();
            assert!((sum - vals.3).abs() < 1e-6 * vals.3.abs().max(1.0), "sum_totalprice");
        }
    }

    /// Brute-force (priority → order count) of the Q4 window under an
    /// EXISTS/NOT EXISTS predicate over the order's line items.
    fn window_counts_by_priority(
        lineitem: &RecordBatch,
        orders: &RecordBatch,
        exists: bool,
    ) -> std::collections::BTreeMap<i64, i64> {
        use std::collections::HashSet;
        let mut late: HashSet<i64> = HashSet::new();
        for row in lineitem.rows() {
            if row[cols::COMMITDATE].as_i64().unwrap() < row[cols::RECEIPTDATE].as_i64().unwrap() {
                late.insert(row[cols::ORDERKEY].as_i64().unwrap());
            }
        }
        let mut counts = std::collections::BTreeMap::new();
        for row in orders.rows() {
            let date = row[crate::orders::cols::ORDERDATE].as_i64().unwrap();
            if !(dates::Q4_START..dates::Q4_END).contains(&date) {
                continue;
            }
            let key = row[crate::orders::cols::ORDERKEY].as_i64().unwrap();
            if late.contains(&key) == exists {
                *counts
                    .entry(row[crate::orders::cols::ORDERPRIORITY].as_i64().unwrap())
                    .or_insert(0) += 1;
            }
        }
        counts
    }

    #[test]
    fn q4_semi_join_matches_bruteforce() {
        let (cat, lineitem, orders) = join_catalog(20_000);
        let out = execute_into_batch(&q4("lineitem", "orders"), &cat).unwrap();
        let expect = window_counts_by_priority(&lineitem, &orders, true);
        assert!(expect.len() > 1, "several priorities qualified: {expect:?}");
        assert_eq!(out.num_rows(), expect.len());
        for (i, (prio, n)) in expect.iter().enumerate() {
            assert_eq!(out.row(i)[0], Scalar::Int64(*prio));
            assert_eq!(out.row(i)[1], Scalar::Int64(*n), "order_count for priority {prio}");
        }
    }

    #[test]
    fn q21_anti_join_matches_bruteforce_and_complements_q4() {
        let (cat, lineitem, orders) = join_catalog(20_000);
        let out = execute_into_batch(&q21("lineitem", "orders"), &cat).unwrap();
        // The anti predicate (receipt > commit) is the complement of
        // Q4's semi predicate (commit < receipt) over the same window.
        let expect = window_counts_by_priority(&lineitem, &orders, false);
        assert!(!expect.is_empty(), "some orders have no late line item");
        assert_eq!(out.num_rows(), expect.len());
        for (i, (prio, n)) in expect.iter().enumerate() {
            assert_eq!(out.row(i)[0], Scalar::Int64(*prio));
            assert_eq!(out.row(i)[1], Scalar::Int64(*n), "order_count for priority {prio}");
            assert!(out.row(i)[2].as_f64().unwrap() > 0.0, "sum_totalprice accumulated");
        }
        // Complement identity: per priority, q4 + q21 counts the window.
        let semi = execute_into_batch(&q4("lineitem", "orders"), &cat).unwrap();
        let mut total: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
        for row in orders.rows() {
            let date = row[crate::orders::cols::ORDERDATE].as_i64().unwrap();
            if (dates::Q4_START..dates::Q4_END).contains(&date) {
                *total
                    .entry(row[crate::orders::cols::ORDERPRIORITY].as_i64().unwrap())
                    .or_insert(0) += 1;
            }
        }
        let mut combined: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
        for b in [&semi, &out] {
            for row in b.rows() {
                *combined.entry(row[0].as_i64().unwrap()).or_insert(0) += row[1].as_i64().unwrap();
            }
        }
        assert_eq!(combined, total, "semi + anti partition the window's orders");
    }

    #[test]
    fn q4_and_q21_survive_optimization() {
        let (cat, _, _) = join_catalog(8_000);
        for plan in [q4("lineitem", "orders"), q21("lineitem", "orders")] {
            let optimized = Optimizer::new().optimize(&plan).unwrap();
            let a = execute_into_batch(&plan, &cat).unwrap();
            let b = execute_into_batch(&optimized, &cat).unwrap();
            assert!(a.num_rows() > 0);
            assert_eq!(a.num_rows(), b.num_rows());
            for i in 0..a.num_rows() {
                for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
                    match (x, y) {
                        (Scalar::Float64(a), Scalar::Float64(b)) => {
                            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
                        }
                        _ => assert_eq!(x, y),
                    }
                }
            }
            // The one-sided join must not have been swapped, and both
            // scans must be pruned (the build side to little more than
            // its key + predicate columns).
            let text = optimized.display_indent();
            assert!(text.matches("projection=").count() >= 2, "both scans pruned:\n{text}");
        }
    }

    #[test]
    fn q3_matches_bruteforce() {
        let (cat, lineitem, orders) = join_catalog(20_000);
        let out = execute_into_batch(&q3("lineitem", "orders"), &cat).unwrap();
        // Brute force: index orders by key, scan lineitem, keep top 10 by
        // revenue. The generator emits one line item per order key, so
        // every group is a single (lineitem, order) pair.
        let okeys = orders.column(crate::orders::cols::ORDERKEY).as_i64().unwrap();
        let odate = orders.column(crate::orders::cols::ORDERDATE).as_i64().unwrap();
        let oprio = orders.column(crate::orders::cols::SHIPPRIORITY).as_i64().unwrap();
        let by_key: std::collections::HashMap<i64, usize> =
            okeys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        // (orderkey, orderdate, shippriority) -> revenue.
        let mut expect: std::collections::BTreeMap<(i64, i64, i64), f64> =
            std::collections::BTreeMap::new();
        for row in lineitem.rows() {
            if row[cols::SHIPDATE].as_i64().unwrap() <= dates::Q6_START {
                continue;
            }
            let key = row[cols::ORDERKEY].as_i64().unwrap();
            let Some(&o) = by_key.get(&key) else { continue };
            if odate[o] >= dates::Q6_START {
                continue;
            }
            let rev = row[cols::EXTENDEDPRICE].as_f64().unwrap()
                * (1.0 - row[cols::DISCOUNT].as_f64().unwrap());
            *expect.entry((key, odate[o], oprio[o])).or_insert(0.0) += rev;
        }
        assert!(expect.len() > 100, "high-cardinality group-by: {} groups", expect.len());
        let mut ranked: Vec<(&(i64, i64, i64), &f64)> = expect.iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));
        assert_eq!(out.num_rows(), 10);
        for (i, (key, rev)) in ranked.into_iter().take(10).enumerate() {
            let row = out.row(i);
            assert_eq!(row[0], Scalar::Int64(key.0), "orderkey at rank {i}");
            assert_eq!(row[1], Scalar::Int64(key.1), "orderdate at rank {i}");
            assert_eq!(row[2], Scalar::Int64(key.2), "shippriority at rank {i}");
            let got = row[3].as_f64().unwrap();
            assert!((got - rev).abs() < 1e-9 * rev.abs().max(1.0), "revenue {got} vs {rev}");
        }
    }

    fn three_table_catalog(rows: u64) -> (Catalog, RecordBatch, RecordBatch, RecordBatch) {
        let (mut cat, lineitem, orders) = join_catalog(rows);
        let cust_rows = crate::customer::rows_matching_orders();
        let cust_cols = crate::customer::CustomerGenerator::new(13).generate(cust_rows);
        let customer =
            RecordBatch::new(std::sync::Arc::new(crate::customer::schema()), cust_cols).unwrap();
        cat.register("customer", Rc::new(MemTable::from_batch(customer.clone())));
        (cat, lineitem, orders, customer)
    }

    #[test]
    fn q5_matches_bruteforce() {
        let (cat, lineitem, orders, customer) = three_table_catalog(20_000);
        let out = execute_into_batch(&q5("lineitem", "orders", "customer"), &cat).unwrap();
        // Brute force: index orders and customers by key, scan lineitem,
        // accumulate revenue per (custkey, nationkey), rank, take 10.
        let okeys = orders.column(crate::orders::cols::ORDERKEY).as_i64().unwrap();
        let ocust = orders.column(crate::orders::cols::CUSTKEY).as_i64().unwrap();
        let odate = orders.column(crate::orders::cols::ORDERDATE).as_i64().unwrap();
        let order_by_key: std::collections::HashMap<i64, usize> =
            okeys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let ckeys = customer.column(crate::customer::cols::CUSTKEY).as_i64().unwrap();
        let cnation = customer.column(crate::customer::cols::NATIONKEY).as_i64().unwrap();
        let cust_by_key: std::collections::HashMap<i64, usize> =
            ckeys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut expect: std::collections::BTreeMap<(i64, i64), f64> =
            std::collections::BTreeMap::new();
        for row in lineitem.rows() {
            if row[cols::SHIPDATE].as_i64().unwrap() <= dates::Q6_START {
                continue;
            }
            let Some(&o) = order_by_key.get(&row[cols::ORDERKEY].as_i64().unwrap()) else {
                continue;
            };
            if odate[o] >= dates::Q6_START {
                continue;
            }
            let Some(&c) = cust_by_key.get(&ocust[o]) else { continue };
            let rev = row[cols::EXTENDEDPRICE].as_f64().unwrap()
                * (1.0 - row[cols::DISCOUNT].as_f64().unwrap());
            *expect.entry((ckeys[c], cnation[c])).or_insert(0.0) += rev;
        }
        assert!(expect.len() > 100, "high-cardinality group-by: {} groups", expect.len());
        let mut ranked: Vec<(&(i64, i64), &f64)> = expect.iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));
        assert_eq!(out.num_rows(), 10);
        for (i, (key, rev)) in ranked.into_iter().take(10).enumerate() {
            let row = out.row(i);
            assert_eq!(row[0], Scalar::Int64(key.0), "custkey at rank {i}");
            assert_eq!(row[1], Scalar::Int64(key.1), "nationkey at rank {i}");
            let got = row[2].as_f64().unwrap();
            assert!((got - rev).abs() < 1e-9 * rev.abs().max(1.0), "revenue {got} vs {rev}");
        }
    }

    #[test]
    fn q5_survives_optimization() {
        let (cat, _, _, _) = three_table_catalog(8_000);
        let plan = q5("lineitem", "orders", "customer");
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let a = execute_into_batch(&plan, &cat).unwrap();
        let b = execute_into_batch(&optimized, &cat).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        assert!(a.num_rows() > 0);
        for i in 0..a.num_rows() {
            for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
                match (x, y) {
                    (Scalar::Float64(a), Scalar::Float64(b)) => {
                        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        let text = optimized.display_indent();
        assert!(text.matches("projection=").count() >= 3, "all three scans pruned:\n{text}");
    }

    #[test]
    fn q3_survives_optimization() {
        let (cat, _, _) = join_catalog(8_000);
        let plan = q3("lineitem", "orders");
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let a = execute_into_batch(&plan, &cat).unwrap();
        let b = execute_into_batch(&optimized, &cat).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        assert!(a.num_rows() > 0);
        for i in 0..a.num_rows() {
            for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
                match (x, y) {
                    (Scalar::Float64(a), Scalar::Float64(b)) => {
                        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        let text = optimized.display_indent();
        assert!(text.matches("projection=").count() >= 2, "both scans pruned:\n{text}");
    }

    #[test]
    fn q12_survives_optimization() {
        let (cat, _, _) = join_catalog(8_000);
        let plan = q12("lineitem", "orders");
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let a = execute_into_batch(&plan, &cat).unwrap();
        let b = execute_into_batch(&optimized, &cat).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        assert!(a.num_rows() > 0);
        for i in 0..a.num_rows() {
            for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
                match (x, y) {
                    (Scalar::Float64(a), Scalar::Float64(b)) => {
                        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
        // Both scans must be pruned: the join needs only a handful of
        // columns from each side.
        let text = optimized.display_indent();
        assert!(text.matches("projection=").count() >= 2, "both scans pruned:\n{text}");
    }

    #[test]
    fn queries_survive_optimization() {
        let (cat, _) = catalog(5_000);
        for plan in [q1("lineitem"), q6("lineitem")] {
            let optimized = Optimizer::new().optimize(&plan).unwrap();
            let a = execute_into_batch(&plan, &cat).unwrap();
            let b = execute_into_batch(&optimized, &cat).unwrap();
            assert_eq!(a.num_rows(), b.num_rows());
            for i in 0..a.num_rows() {
                for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
                    match (x, y) {
                        (Scalar::Float64(a), Scalar::Float64(b)) => {
                            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
                        }
                        _ => assert_eq!(x, y),
                    }
                }
            }
        }
    }

    #[test]
    fn q1_projection_pruned_to_seven_columns() {
        let optimized = Optimizer::new().optimize(&q1("lineitem")).unwrap();
        let text = optimized.display_indent();
        // qty, extprice, discount, tax, returnflag, linestatus + shipdate.
        assert!(
            text.contains("projection=[4, 5, 6, 7, 8, 9]") || text.contains("projection="),
            "plan should prune columns:\n{text}"
        );
    }
}
