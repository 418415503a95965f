//! Property tests for the general DAG lowering: multi-way (nested) hash
//! joins, the distributed range-partitioned sort/top-k, and DISTINCT must
//! agree with the local reference executor bit-for-bit over randomized
//! tables, key skew, file layouts, and fleet sizes.
//!
//! Sort cases use total-order keys (every column a tiebreaker) and
//! integer-valued data, so "bit-for-bit" means the *exact* row sequence —
//! not just the multiset.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::{AggStrategy, Lambada, LambadaConfig, Placement, SortStrategy, TransportKind};
use lambada::engine::{
    execute_into_batch, lit_i64, AggExpr, AggFunc, Catalog, Column, DataType, Df, Field, MemTable,
    RecordBatch, Scalar, Schema, SortKey,
};
use lambada::sim::{Cloud, CloudConfig, CostItem, Simulation};
use lambada::workloads::stage_table_real;

fn t_schema() -> Schema {
    Schema::new(vec![
        Field::new("k1", DataType::Int64),
        Field::new("k2", DataType::Int64),
        Field::new("a", DataType::Int64),
    ])
}

fn u_schema() -> Schema {
    Schema::new(vec![Field::new("uk", DataType::Int64), Field::new("b", DataType::Int64)])
}

fn v_schema() -> Schema {
    Schema::new(vec![Field::new("vk", DataType::Int64), Field::new("c", DataType::Int64)])
}

/// Key distributions: a small domain (dense matches), a wide domain
/// (sparse matches, empty partitions), and total skew (every key equal —
/// one partition holds everything).
fn arb_keys(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        prop::collection::vec(-3i64..4, len..len + 1),
        prop::collection::vec(-500i64..500, len..len + 1),
        (0i64..2).prop_map(move |k| vec![k; len]),
    ]
}

/// Keys for a cut sort: any [`arb_keys`] draw, or one hot key holding
/// most rows, whose runs span several blocks and the boundaries around
/// them.
fn arb_sort_keys(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        arb_keys(len),
        prop::collection::vec(
            (0..5, -20i64..20).prop_map(|(w, k)| if w < 4 { 7 } else { k }),
            len..len + 1
        ),
    ]
}

fn columns_for(schema: &Schema, keys: &[i64], keys2: Option<&[i64]>, tag: i64) -> Vec<Column> {
    let n = keys.len();
    let mut cols = vec![Column::I64(keys.to_vec())];
    if let Some(k2) = keys2 {
        cols.push(Column::I64(k2.to_vec()));
    }
    while cols.len() < schema.len() {
        let salt = cols.len() as i64;
        cols.push(Column::I64((0..n as i64).map(|i| tag * 1000 + salt * 37 + i).collect()));
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

/// Canonical multiset of rows for order-insensitive comparison.
fn row_multiset(batch: &RecordBatch) -> Vec<Vec<lambada::engine::ScalarKey>> {
    let mut rows: Vec<Vec<lambada::engine::ScalarKey>> =
        (0..batch.num_rows()).map(|i| batch.row(i).iter().map(Scalar::key).collect()).collect();
    rows.sort();
    rows
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

#[derive(Debug, Clone)]
struct MultiwayCase {
    t_k1: Vec<i64>,
    t_k2: Vec<i64>,
    u_keys: Vec<i64>,
    v_keys: Vec<i64>,
    files: usize,
    files_per_worker: Option<usize>,
    join_workers: usize,
    with_filter: bool,
}

fn arb_multiway() -> impl Strategy<Value = MultiwayCase> {
    (0usize..40, 0usize..25, 0usize..25).prop_flat_map(|(tn, un, vn)| {
        (
            arb_keys(tn),
            arb_keys(tn),
            arb_keys(un),
            arb_keys(vn),
            1usize..4,
            (0usize..3).prop_map(|f| (f > 0).then_some(f)),
            1usize..7,
            any::<bool>(),
        )
            .prop_map(
                |(
                    t_k1,
                    t_k2,
                    u_keys,
                    v_keys,
                    files,
                    files_per_worker,
                    join_workers,
                    with_filter,
                )| {
                    MultiwayCase {
                        t_k1,
                        t_k2,
                        u_keys,
                        v_keys,
                        files,
                        files_per_worker,
                        join_workers,
                        with_filter,
                    }
                },
            )
    })
}

/// A three-table join tree whose `t` carries `rows` wide random keys:
/// every `u` key is one of them, and `k2` meets `v` in a small domain.
fn wide_multiway(rows: usize, seed: u64) -> MultiwayCase {
    let mut x = seed | 1;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 16
    };
    let t_k1: Vec<i64> = (0..rows).map(|_| next() as i64).collect();
    let t_k2: Vec<i64> = (0..rows).map(|_| (next() % 20) as i64).collect();
    MultiwayCase {
        u_keys: t_k1.iter().step_by(7).copied().collect(),
        t_k1,
        t_k2,
        v_keys: (0..20).collect(),
        files: 1,
        files_per_worker: None,
        join_workers: 1,
        with_filter: false,
    }
}

fn arb_wide_multiway() -> impl Strategy<Value = MultiwayCase> {
    (20_000usize..24_000, any::<u64>()).prop_map(|(rows, seed)| wide_multiway(rows, seed))
}

struct Staged {
    sim: Simulation,
    system: Lambada,
    catalog: Catalog,
}

/// A second installation on `system`'s cloud, configured like it but on
/// the direct transport, over the same registered `tables`: a query runs
/// on both wires by running on both installations. Make it before the
/// first run — installing re-registers the worker function, which
/// empties its warm pool.
fn direct_twin(system: &Lambada, tables: &[&str]) -> Lambada {
    let config = LambadaConfig { transport: TransportKind::Direct, ..system.config().clone() };
    let mut twin = Lambada::install(system.cloud(), config);
    for name in tables {
        twin.register_table(system.table(name).unwrap());
    }
    twin
}

fn stage_three_tables(case: &MultiwayCase, config: LambadaConfig) -> Staged {
    stage_three_tables_in(case, [case.files; 3], config)
}

/// [`stage_three_tables`] with `t`, `u` and `v` split into the given
/// numbers of files.
fn stage_three_tables_in(case: &MultiwayCase, files: [usize; 3], config: LambadaConfig) -> Staged {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let tcols = columns_for(&t_schema(), &case.t_k1, Some(&case.t_k2), 1);
    let ucols = columns_for(&u_schema(), &case.u_keys, None, 2);
    let vcols = columns_for(&v_schema(), &case.v_keys, None, 3);
    let mut system = Lambada::install(&cloud, config);
    let mut catalog = Catalog::new();
    for ((name, schema, cols), files) in
        [("t", t_schema(), tcols), ("u", u_schema(), ucols), ("v", v_schema(), vcols)]
            .into_iter()
            .zip(files)
    {
        let spec = stage_table_real(
            &cloud,
            "data",
            name,
            schema.clone(),
            split_files(&cols, files),
            cols.first().map_or(0, Column::len) as u64,
            2,
        );
        system.register_table(spec);
        let batch = RecordBatch::new(Arc::new(schema), cols).unwrap();
        catalog.register(name, Rc::new(MemTable::from_batch(batch)));
    }
    Staged { sim, system, catalog }
}

fn multiway_plan(case: &MultiwayCase) -> lambada::engine::LogicalPlan {
    // (t ⋈ u on k1) ⋈ v on k2 — a three-table join tree.
    let t = Df::scan("t", &t_schema());
    let u = Df::scan("u", &u_schema());
    let v = Df::scan("v", &v_schema());
    let mut df = t.join(u, &[("k1", "uk")]).unwrap().join(v, &[("k2", "vk")]).unwrap();
    if case.with_filter {
        let a = df.col("a").unwrap();
        df = df.filter(a.le(lit_i64(1_000_000))).unwrap();
    }
    df.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Multi-way (nested) distributed join ≡ local reference executor,
    /// as row multisets with bitwise-equal scalars.
    #[test]
    fn multiway_join_matches_reference(case in arb_multiway()) {
        let staged = stage_three_tables(&case, LambadaConfig {
            files_per_worker: case.files_per_worker,
            join_workers: Some(case.join_workers),
            ..LambadaConfig::default()
        });
        let plan = multiway_plan(&case);
        let reference = execute_into_batch(&plan, &staged.catalog).unwrap();
        let system = staged.system;
        let report = staged.sim.block_on({
            let plan = plan.clone();
            async move { system.run_query(&plan).await.unwrap() }
        });
        prop_assert_eq!(report.batch.num_columns(), reference.num_columns());
        prop_assert_eq!(
            row_multiset(&report.batch),
            row_multiset(&reference),
            "multiway join mismatch for {:?}",
            case
        );
        // No local fallback, no flat special case: five stages ran with
        // two join fleets (stage order depends on the join reorderer).
        prop_assert_eq!(report.stages.len(), 5);
        let join_fleets: Vec<usize> = report
            .stages
            .iter()
            .filter(|s| s.label.starts_with("join#"))
            .map(|s| s.workers)
            .collect();
        prop_assert_eq!(join_fleets, vec![case.join_workers; 2]);
    }

    /// A stage's request counts are what its clients were billed: a
    /// three-table join tree over thousands of rows — more than a
    /// sender's inline budget, so edges go through files or mailboxes —
    /// aggregated on the driver or by a merge fleet of its own, run alone
    /// on each transport, has its stages' GETs and PUTs (hedges included)
    /// and LISTs (none) equal to the bill's units over the query's window,
    /// its stages' queue requests plus the driver's equal to the billed
    /// SQS requests, and its workers' relay messages and bytes twice the
    /// relay's own: every mailbox message is sent once and fetched once.
    #[test]
    fn per_stage_request_counts_are_the_bill_on_both_transports(
        rows in (3000usize..9000, 500usize..3000),
        seed in any::<u64>(),
        files in (1usize..4, 1usize..4),
        join_workers in 1usize..4,
        merge_workers in 0usize..3,
    ) {
        let (tn, un) = rows;
        // Every t row meets about one u row and exactly one v row.
        let draw = |n: usize, domain: u64, salt: u64| -> Vec<i64> {
            let mut x = seed ^ salt;
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) % domain) as i64
                })
                .collect()
        };
        let case = MultiwayCase {
            t_k1: draw(tn, un as u64, 1),
            t_k2: draw(tn, 50, 2),
            u_keys: draw(un, un as u64, 3),
            v_keys: (0..50).collect(),
            files: 1,
            files_per_worker: Some(1),
            join_workers,
            with_filter: false,
        };
        let agg = match merge_workers {
            0 => AggStrategy::DriverMerge,
            w => AggStrategy::Exchange { workers: Some(w) },
        };
        let staged = stage_three_tables_in(&case, [files.0, files.1, 1], LambadaConfig {
            files_per_worker: Some(1),
            join_workers: Some(join_workers),
            agg,
            ..LambadaConfig::default()
        });
        let joined = Df::from_plan(multiway_plan(&case)).unwrap();
        let (k2, a) = (joined.col("k2").unwrap(), joined.col("a").unwrap());
        let plan = joined
            .aggregate(vec![(k2, "k2")], vec![AggExpr::new(AggFunc::Sum, Some(a), "sum_a")])
            .unwrap()
            .build();
        let reference = execute_into_batch(&plan, &staged.catalog).unwrap();
        let system = staged.system;
        let direct = direct_twin(&system, &["t", "u", "v"]);
        let runs = staged.sim.block_on(async move {
            let dag = system.plan(&plan).unwrap();
            let mut runs = Vec::new();
            for system in [&system, &direct] {
                let relayed = system.cloud().p2p.counters();
                let report = system.run_dag(&dag).await.unwrap();
                let (sends, bytes, _) = system.cloud().p2p.counters();
                runs.push((report, (sends - relayed.0, bytes - relayed.1)));
            }
            runs
        });
        for (report, (sends, bytes)) in runs {
            prop_assert_eq!(row_multiset(&report.batch), row_multiset(&reference));
            let counted = |f: fn(&lambada::core::StageReport) -> u64| -> f64 {
                report.stages.iter().map(f).sum::<u64>() as f64
            };
            let billed = |item| report.cost.units(item);
            prop_assert_eq!(counted(|s| s.get_requests + s.hedged_gets), billed(CostItem::S3Get));
            prop_assert_eq!(counted(|s| s.put_requests + s.hedged_puts), billed(CostItem::S3Put));
            prop_assert_eq!(counted(|s| s.list_requests), billed(CostItem::S3List));
            prop_assert_eq!(billed(CostItem::S3List), 0.0);
            let driver = report.driver_sqs_requests as f64;
            prop_assert_eq!(counted(|s| s.sqs_requests) + driver, billed(CostItem::SqsRequests));
            let workers = &report.worker_metrics;
            prop_assert_eq!(workers.iter().map(|w| w.p2p_requests).sum::<u64>(), 2 * sends);
            prop_assert_eq!(workers.iter().map(|w| w.p2p_bytes).sum::<u64>(), 2 * bytes);
        }
    }

    /// A scan packed by size whose only reader is a one-worker join keeps
    /// its fleet and crosses the edge, or folds into the join's
    /// invocation, as its predicted span says. `t` holds wide random keys,
    /// so its bytes do not compress away, in file counts on both sides of
    /// the crossover (`multiway_file_counts_span_the_fold_crossover`):
    /// either way, on each transport, bit for bit the reference.
    #[test]
    fn multiway_scans_fold_or_cross_bit_identically_on_both_transports(
        case in arb_wide_multiway(),
        files in 5usize..33,
    ) {
        let staged = stage_three_tables_in(&case, [files, 1, 1], LambadaConfig {
            join_workers: Some(1),
            ..LambadaConfig::default()
        });
        let plan = multiway_plan(&case);
        let reference = execute_into_batch(&plan, &staged.catalog).unwrap();
        let system = staged.system;
        let direct = direct_twin(&system, &["t", "u", "v"]);
        let reports = staged.sim.block_on(async move {
            let dag = system.plan(&plan).unwrap();
            let mut reports = Vec::new();
            for system in [&system, &direct] {
                reports.push(system.run_dag(&dag).await.unwrap());
            }
            reports
        });
        for report in reports {
            prop_assert_eq!(row_multiset(&report.batch), row_multiset(&reference));
        }
    }

    /// A one-worker join tree over one- and two-worker scans (one file a
    /// worker) runs each join in the invocation of its host — its
    /// deepest one-worker input that no one else reads — with the other
    /// side addressed through the inbox, on both transports: bit for bit
    /// the reference, and one invocation per fleet slot less one per
    /// fused edge. Warm, every fused edge of the launch plan holds; cold,
    /// a host may outwait its bound behind a cold start and fall back,
    /// which costs exactly one invocation more.
    #[test]
    fn one_worker_joins_run_in_their_hosts_on_both_transports(
        sizes in (1usize..40, 1usize..25, 1usize..25),
        fleets in (1usize..3, 1usize..3, 1usize..3),
        keys in any::<u64>(),
        with_filter in any::<bool>(),
    ) {
        let (tn, un, vn) = sizes;
        let draw = |n: usize, salt: u64| -> Vec<i64> {
            (0..n as u64).map(|i| ((i * 7 + salt + keys % 5) % 4) as i64 - 1).collect()
        };
        let case = MultiwayCase {
            t_k1: draw(tn, 0),
            t_k2: draw(tn, 1),
            u_keys: draw(un, 2),
            v_keys: draw(vn, 3),
            files: 1,
            files_per_worker: Some(1),
            join_workers: 1,
            with_filter,
        };
        let plan = multiway_plan(&case);
        let staged = stage_three_tables_in(&case, [fleets.0, fleets.1, fleets.2], LambadaConfig {
            files_per_worker: Some(1),
            join_workers: Some(1),
            ..LambadaConfig::default()
        });
        let reference = execute_into_batch(&plan, &staged.catalog).unwrap();
        let system = staged.system;
        let direct = direct_twin(&system, &["t", "u", "v"]);
        let (fused, reports) = staged.sim.block_on(async move {
            let dag = system.plan(&plan).unwrap();
            // Co-hosted scans count with the fused stages: each runs in
            // another stage's invocation.
            let placement = system.launch_plan(&dag, None).unwrap().placement;
            let fused = placement.iter().filter(|&&p| p != Placement::Apart).count();
            let mut reports = Vec::new();
            // Cold first, then warm on each transport.
            for system in [&system, &system, &direct] {
                reports.push(system.run_dag(&dag).await.unwrap());
            }
            (fused, reports)
        });
        prop_assert!(fused >= 1, "a one-worker join over a one-worker scan fuses");
        for (run, report) in reports.iter().enumerate() {
            prop_assert_eq!(row_multiset(&report.batch), row_multiset(&reference));
            let slots: usize = report.stages.iter().map(|s| s.workers).sum();
            let held = report.stages.iter().filter(|s| s.chain != s.id).count();
            prop_assert_eq!(report.invocations() as usize, slots - held);
            prop_assert!(held <= fused && (run == 0 || held == fused), "run {}: {} of {}", run, held, fused);
        }
    }

    /// Distributed range-partitioned sort/top-k over a scan ≡ reference,
    /// as the exact row sequence (total-order keys).
    #[test]
    fn distributed_sort_matches_reference_exactly(
        keys in arb_keys(35),
        files in 1usize..4,
        files_per_worker in (0usize..3).prop_map(|f| (f > 0).then_some(f)),
        sort_workers in 1usize..7,
        limit in (any::<bool>(), 0usize..20).prop_map(|(some, n)| some.then_some(n)),
        descending in any::<bool>(),
    ) {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let schema = u_schema();
        let cols = columns_for(&schema, &keys, None, 4);
        let mut system = Lambada::install(&cloud, LambadaConfig {
            files_per_worker,
            sort: SortStrategy::Exchange { workers: Some(sort_workers) },
            ..LambadaConfig::default()
        });
        let spec = stage_table_real(
            &cloud, "data", "u", schema.clone(),
            split_files(&cols, files), keys.len() as u64, 2,
        );
        system.register_table(spec);
        let mut catalog = Catalog::new();
        catalog.register(
            "u",
            Rc::new(MemTable::from_batch(RecordBatch::new(Arc::new(schema.clone()), cols).unwrap())),
        );

        // ORDER BY uk [DESC], b — every column a key, so the order is total.
        let df = Df::scan("u", &schema);
        let k = df.col("uk").unwrap();
        let b = df.col("b").unwrap();
        let sk = if descending { SortKey::desc(k) } else { SortKey::asc(k) };
        let mut df = df.sort(vec![sk, SortKey::asc(b)]).unwrap();
        if let Some(n) = limit {
            df = df.limit(n).unwrap();
        }
        let plan = df.build();

        let reference = execute_into_batch(&plan, &catalog).unwrap();
        let report = sim.block_on({
            let plan = plan.clone();
            async move { system.run_query(&plan).await.unwrap() }
        });
        assert_rows_identical(&report.batch, &reference)?;
        // The sort genuinely ran as a fleet, not on the driver.
        prop_assert_eq!(report.stages.len(), 2);
        prop_assert!(report.stages[1].label.starts_with("sort#"));
        prop_assert_eq!(report.stages[1].workers, sort_workers);
        // A lone scanner feeding a lone sorter is one fused invocation.
        let scanners = report.stages[0].workers;
        let fused = usize::from(scanners == 1 && sort_workers == 1);
        prop_assert_eq!(report.invocations() as usize, scanners + sort_workers - fused);
    }

    /// The cut sort: 1–4 producers of up to 120 rows each — fewer than a
    /// block per sample row, several rows a block, or none once the
    /// filter drops their rows — into 2–8 sorters and then into one, with
    /// and without LIMIT, ≡ the reference's exact row sequence on both
    /// transports, and nothing lists or streams. One sorter is the same
    /// protocol: addressed to every block of several producers, or handed
    /// all of a lone producer's blocks in its fused invocation.
    #[test]
    fn cut_sort_matches_reference_exactly_on_both_transports(
        producers in prop::collection::vec(1usize..120, 1..5).prop_flat_map(|sizes| {
            let rows = sizes.iter().sum();
            (Just(sizes), arb_sort_keys(rows))
        }),
        keep in 0i64..300,
        sort_workers in 2usize..9,
        limit in (any::<bool>(), 0usize..40).prop_map(|(some, n)| some.then_some(n)),
        descending in any::<bool>(),
    ) {
        let (sizes, keys) = producers;
        let schema = u_schema();
        let rows = keys.len();
        let cols = vec![Column::I64(keys), Column::I64((0..rows as i64).collect())];
        let mut files: Vec<Vec<Column>> = Vec::new();
        let mut start = 0;
        for &size in &sizes {
            let idx: Vec<usize> = (start..start + size).collect();
            files.push(cols.iter().map(|c| c.gather(&idx)).collect());
            start += size;
        }
        let mut catalog = Catalog::new();
        catalog.register(
            "u",
            Rc::new(MemTable::from_batch(RecordBatch::new(Arc::new(schema.clone()), cols).unwrap())),
        );

        // WHERE b < keep — later producers keep nothing — ORDER BY uk
        // [DESC], b: every column a key, so the order is total.
        let df = Df::scan("u", &schema);
        let (k, b) = (df.col("uk").unwrap(), df.col("b").unwrap());
        let sk = if descending { SortKey::desc(k) } else { SortKey::asc(k) };
        let mut df = df.filter(b.clone().lt(lit_i64(keep))).unwrap().sort(vec![sk, SortKey::asc(b)]).unwrap();
        if let Some(n) = limit {
            df = df.limit(n).unwrap();
        }
        let plan = df.build();
        let reference = execute_into_batch(&plan, &catalog).unwrap();
        for sort_workers in [sort_workers, 1] {
            let sim = Simulation::new();
            let cloud = Cloud::new(&sim, CloudConfig::default());
            let mut system = Lambada::install(&cloud, LambadaConfig {
                // One producer per file.
                files_per_worker: Some(1),
                sort: SortStrategy::Exchange { workers: Some(sort_workers) },
                ..LambadaConfig::default()
            });
            let table = stage_table_real(&cloud, "data", "u", schema.clone(), files.clone(), rows as u64, 2);
            system.register_table(table);
            let direct = direct_twin(&system, &["u"]);
            let plan = plan.clone();
            let reports = sim.block_on(async move {
                let dag = system.plan(&plan).unwrap();
                let mut reports = Vec::new();
                for system in [&system, &direct] {
                    reports.push(system.run_dag(&dag).await.unwrap());
                }
                reports
            });
            // A lone producer and a lone sorter run as one invocation.
            let fused = usize::from(sizes.len() == 1 && sort_workers == 1);
            for report in &reports {
                assert_rows_identical(&report.batch, &reference)?;
                prop_assert_eq!(report.stages[1].workers, sort_workers);
                prop_assert_eq!(report.invocations() as usize, sizes.len() + sort_workers - fused);
                prop_assert!(report.stages.iter().all(|s| s.list_requests == 0), "nothing lists");
                prop_assert_eq!(report.p2p_requests(), 0, "blocks never stream");
            }
        }
    }

    /// Group-by + ORDER BY + LIMIT with both exchange strategies on —
    /// repartitioned aggregation feeding a sort fleet — ≡ reference,
    /// as the exact row sequence (integer sums are exact, keys total).
    #[test]
    fn exchange_agg_into_sort_matches_reference_exactly(
        keys in arb_keys(40),
        files in 1usize..3,
        agg_workers in 1usize..5,
        sort_workers in 1usize..5,
        limit in 1usize..12,
    ) {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let schema = u_schema();
        let cols = columns_for(&schema, &keys, None, 5);
        let mut system = Lambada::install(&cloud, LambadaConfig {
            agg: AggStrategy::Exchange { workers: Some(agg_workers) },
            sort: SortStrategy::Exchange { workers: Some(sort_workers) },
            ..LambadaConfig::default()
        });
        let spec = stage_table_real(
            &cloud, "data", "u", schema.clone(),
            split_files(&cols, files), keys.len() as u64, 2,
        );
        system.register_table(spec);
        let mut catalog = Catalog::new();
        catalog.register(
            "u",
            Rc::new(MemTable::from_batch(RecordBatch::new(Arc::new(schema.clone()), cols).unwrap())),
        );

        // SELECT uk, sum(b) GROUP BY uk ORDER BY sum_b DESC, uk LIMIT n.
        let df = Df::scan("u", &schema);
        let k = df.col("uk").unwrap();
        let b = df.col("b").unwrap();
        let plan = df
            .aggregate(vec![(k, "uk")], vec![AggExpr::new(AggFunc::Sum, Some(b), "sum_b")])
            .unwrap()
            .sort(vec![SortKey::desc(lambada::engine::col(1)), SortKey::asc(lambada::engine::col(0))])
            .unwrap()
            .limit(limit)
            .unwrap()
            .build();

        let reference = execute_into_batch(&plan, &catalog).unwrap();
        let report = sim.block_on({
            let plan = plan.clone();
            async move { system.run_query(&plan).await.unwrap() }
        });
        assert_rows_identical(&report.batch, &reference)?;
        // scan → agg-merge → sort: fully serverless, driver concatenates.
        prop_assert_eq!(report.stages.len(), 3);
        prop_assert!(report.stages[1].label.starts_with("agg#"));
        prop_assert!(report.stages[2].label.starts_with("sort#"));
        prop_assert_eq!(report.stages[2].workers, sort_workers);
        // Fleet sizes drawn from ranges that include 1: every 1 → 1 edge
        // fuses, and each fused edge saves an invocation.
        let scanners = report.stages[0].workers;
        let fused = usize::from(scanners == 1 && agg_workers == 1)
            + usize::from(agg_workers == 1 && sort_workers == 1);
        prop_assert_eq!(
            report.invocations() as usize,
            scanners + agg_workers + sort_workers - fused
        );
    }

    /// DISTINCT ≡ reference under both aggregation strategies.
    #[test]
    fn distinct_matches_reference_under_both_strategies(
        keys in arb_keys(30),
        dup_factor in 1usize..4,
        files in 1usize..3,
        agg_workers in 1usize..5,
    ) {
        // Duplicate every row dup_factor times so DISTINCT has real work.
        let mut dup = Vec::with_capacity(keys.len() * dup_factor);
        for &k in &keys {
            for _ in 0..dup_factor {
                dup.push(k);
            }
        }
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("m", DataType::Int64),
        ]);
        let n = dup.len();
        let cols = vec![
            Column::I64(dup.clone()),
            Column::I64((0..n as i64).map(|i| (i / (dup_factor as i64).max(1)) % 3).collect()),
        ];
        let mut catalog = Catalog::new();
        catalog.register(
            "d",
            Rc::new(MemTable::from_batch(
                RecordBatch::new(Arc::new(schema.clone()), cols.clone()).unwrap(),
            )),
        );
        let plan = Df::scan("d", &schema).distinct().unwrap().build();
        let reference = execute_into_batch(&plan, &catalog).unwrap();

        for agg in [AggStrategy::DriverMerge, AggStrategy::Exchange { workers: Some(agg_workers) }] {
            let sim = Simulation::new();
            let cloud = Cloud::new(&sim, CloudConfig::default());
            let mut system = Lambada::install(&cloud, LambadaConfig {
                agg,
                ..LambadaConfig::default()
            });
            let spec = stage_table_real(
                &cloud, "data", "d", schema.clone(),
                split_files(&cols, files), n as u64, 2,
            );
            system.register_table(spec);
            let report = sim.block_on({
                let plan = plan.clone();
                async move { system.run_query(&plan).await.unwrap() }
            });
            prop_assert_eq!(
                row_multiset(&report.batch),
                row_multiset(&reference),
                "distinct mismatch under {:?}",
                agg
            );
        }
    }
}

/// Which fleet reports to the driver in
/// [`a_reporting_fleet_keeps_only_what_the_driver_keeps`].
#[derive(Clone, Copy, Debug)]
enum Reporter {
    Scan,
    Join,
    AggMerge,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Metamorphic: under `SortStrategy::Driver` the driver sorts, and a
    /// reporting fleet of 1–4 scan, join or agg-merge workers keeps only
    /// its own top n first. Over a sort key tied many ways, `ORDER BY k2
    /// LIMIT n` is the first n rows of `ORDER BY k2`, and `LIMIT n` the
    /// first n of the unlimited query, bit for bit, for n of 0, 1, 3 and
    /// more than the rows, on both transports — and no reporting worker
    /// ships more than n rows.
    #[test]
    fn a_reporting_fleet_keeps_only_what_the_driver_keeps(
        reporter in prop_oneof![Just(Reporter::Scan), Just(Reporter::Join), Just(Reporter::AggMerge)],
        rows in 1usize..60,
        ties in 1i64..4,
        fleet in 1usize..5,
        pick in 0usize..4,
        salt in 0i64..1000,
        descending in any::<bool>(),
    ) {
        // t: join/group key k1, sort key k2 with `ties` values, unique a;
        // u: unique keys, so a join keeps at most t's rows.
        let k1: Vec<i64> = (0..rows as i64).map(|i| (i * 5 + salt) % 23).collect();
        let k2: Vec<i64> = (0..rows as i64).map(|i| (i * 7 + salt) % ties).collect();
        let tcols = columns_for(&t_schema(), &k1, Some(&k2), 1);
        let ucols = columns_for(&u_schema(), &(0..20).collect::<Vec<_>>(), None, 2);
        let n = [0, 1, 3, rows + 5][pick];

        let t = Df::scan("t", &t_schema());
        let base = match reporter {
            Reporter::Scan => t,
            Reporter::Join => t.join(Df::scan("u", &u_schema()), &[("k1", "uk")]).unwrap(),
            Reporter::AggMerge => {
                let (k1, k2, a) = (t.col("k1").unwrap(), t.col("k2").unwrap(), t.col("a").unwrap());
                t.aggregate(
                    vec![(k1, "k1"), (k2, "k2")],
                    vec![AggExpr::new(AggFunc::Sum, Some(a), "sum_a")],
                )
                .unwrap()
            }
        };
        let k = base.col("k2").unwrap();
        let sorted = base.clone().sort(vec![if descending { SortKey::desc(k) } else { SortKey::asc(k) }]).unwrap();
        let plans = [
            sorted.clone().limit(n).unwrap().build(),
            sorted.build(),
            base.clone().limit(n).unwrap().build(),
            base.build(),
        ];

        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let mut system = Lambada::install(&cloud, LambadaConfig {
            // One scan worker per file.
            files_per_worker: Some(1),
            join_workers: Some(fleet),
            agg: AggStrategy::Exchange { workers: Some(fleet) },
            sort: SortStrategy::Driver,
            ..LambadaConfig::default()
        });
        let scan_files = if matches!(reporter, Reporter::Scan) { fleet } else { 2 };
        for (name, schema, cols, files) in
            [("t", t_schema(), &tcols, scan_files), ("u", u_schema(), &ucols, 1)]
        {
            let spec = stage_table_real(
                &cloud, "data", name, schema, split_files(cols, files), cols[0].len() as u64, 2,
            );
            system.register_table(spec);
        }
        let mut catalog = Catalog::new();
        for (name, schema, cols) in [("t", t_schema(), tcols), ("u", u_schema(), ucols)] {
            let batch = RecordBatch::new(Arc::new(schema), cols).unwrap();
            catalog.register(name, Rc::new(MemTable::from_batch(batch)));
        }
        let reference = execute_into_batch(&plans[1], &catalog).unwrap();

        let direct = direct_twin(&system, &["t", "u"]);
        let runs = sim.block_on(async move {
            let mut runs = Vec::new();
            for system in [&system, &direct] {
                let mut reports = Vec::new();
                for plan in &plans {
                    let dag = system.plan(plan).unwrap();
                    reports.push(system.run_dag(&dag).await.unwrap());
                }
                runs.push(reports);
            }
            runs
        });
        let prefix = match reporter {
            Reporter::Scan => "scan:",
            Reporter::Join => "join#",
            Reporter::AggMerge => "agg#",
        };
        for reports in &runs {
            let [top, all_sorted, first, all] = &reports[..] else { unreachable!() };
            prop_assert_eq!(row_multiset(&all_sorted.batch), row_multiset(&reference));
            for (limited, whole) in [(top, all_sorted), (first, all)] {
                let keep: Vec<usize> = (0..whole.batch.num_rows().min(n)).collect();
                assert_rows_identical(&limited.batch, &whole.batch.gather(&keep))?;
                let last = limited.stages.last().unwrap();
                prop_assert!(last.label.starts_with(prefix), "{} reports", last.label);
                let shipped = &limited.worker_metrics[limited.worker_metrics.len() - last.workers..];
                prop_assert_eq!(shipped.len(), last.workers);
                for m in shipped {
                    prop_assert!(m.rows_out <= n as u64, "a worker shipped {} of {}", m.rows_out, n);
                }
            }
        }
    }
}

/// A shared edge is partitioned once, so its consumers' fleets must
/// agree. Pins cannot disagree (one pin per operator kind), but
/// model-sized fleets can: a hand-built diamond whose scan `t` feeds a
/// tiny self-join (1 worker) and a join against an 8 GiB table (16
/// workers). The driver must answer with the verifier's `V-FLEET-004`
/// before a single worker is invoked.
#[test]
fn unequal_consumer_fleets_on_a_shared_edge_are_rejected_before_launch() {
    use lambada::core::stage::{
        FinalStage, JoinStage, QueryDag, ScanStage, StageKind, StageOutput,
    };
    use lambada::core::verify::codes;
    use lambada::core::{CoreError, TableFile, TableSpec};
    use lambada::engine::{JoinVariant, PipelineSpec, SchemaRef, Terminal};

    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let config = LambadaConfig::default();
    assert!(config.join_workers.is_none(), "join fleets are sized by the cost model");
    let function = config.function_name.clone();
    let mut system = Lambada::install(&cloud, config);
    let cols = columns_for(&u_schema(), &[1, 2, 3], None, 1);
    system.register_table(stage_table_real(&cloud, "data", "t", u_schema(), vec![cols], 3, 2));
    // Never read: the plan is rejected first. Only its size matters.
    let huge = TableFile::real("data", "u/part-0", 8 << 30);
    system.register_table(TableSpec::new("u", v_schema(), vec![huge], 1 << 28));

    let collect = |input_schema: SchemaRef| PipelineSpec {
        input_schema,
        predicate: None,
        projection: None,
        terminal: Terminal::Collect,
    };
    let scan = |table: &str, schema: &SchemaRef| {
        StageKind::Scan(ScanStage {
            table: table.to_string(),
            scan_columns: vec![0, 1],
            prune_predicate: None,
            pipeline: collect(Arc::clone(schema)),
            output: StageOutput::Exchange { keys: vec![0] },
        })
    };
    let join = |probe: (usize, &SchemaRef), build: (usize, &SchemaRef), output: StageOutput| {
        let mut fields = probe.1.fields.clone();
        fields.extend(build.1.fields.clone());
        let joined = Schema::arc(fields);
        let stage = StageKind::Join(JoinStage {
            probe_input: probe.0,
            build_input: build.0,
            probe_schema: Arc::clone(probe.1),
            build_schema: Arc::clone(build.1),
            probe_keys: vec![0],
            build_keys: vec![0],
            variant: JoinVariant::Inner,
            post: collect(Arc::clone(&joined)),
            output,
        });
        (stage, joined)
    };
    let (t, u) = (Arc::new(u_schema()), Arc::new(v_schema()));
    let (tt_join, tt) = join((0, &t), (0, &t), StageOutput::Exchange { keys: vec![0] });
    let (tu_join, tu) = join((0, &t), (1, &u), StageOutput::Exchange { keys: vec![0] });
    let (top_join, top) = join((2, &tt), (3, &tu), StageOutput::Driver);
    let dag = QueryDag {
        stages: vec![scan("t", &t), scan("u", &u), tt_join, tu_join, top_join],
        final_stage: FinalStage::CollectBatches { schema: top, post: Vec::new() },
    };
    dag.validate().unwrap();

    let err = sim.block_on(async move { system.run_dag(&dag).await.unwrap_err() });
    let CoreError::InvalidPlan(diags) = &err else { panic!("expected InvalidPlan, got {err}") };
    assert!(diags.iter().any(|d| d.code == codes::FLEET_SHARED_EDGE), "{diags:?}");
    assert!(err.to_string().contains("V-FLEET-004"), "{err}");
    assert_eq!(cloud.faas.counters(&function).0, 0, "no worker was invoked");
}

/// The file counts the fold property draws span the crossover: in a few
/// files `t`'s two workers would each ship more than their inline budget,
/// so it folds into the join's invocation; in many, each of its many
/// workers ships a small share inline, and it keeps its fleet.
#[test]
fn multiway_file_counts_span_the_fold_crossover() {
    let case = wide_multiway(20_000, 1);
    for (files, folds) in [(5, true), (32, false)] {
        let staged = stage_three_tables_in(
            &case,
            [files, 1, 1],
            LambadaConfig { join_workers: Some(1), ..LambadaConfig::default() },
        );
        let dag = staged.system.plan(&multiway_plan(&case)).unwrap();
        let launch = staged.system.launch_plan(&dag, None).unwrap();
        let scan = |k: &lambada::core::StageKind| matches!(k, lambada::core::StageKind::Scan(s) if s.table == "t");
        let t = dag.stages.iter().position(scan).unwrap();
        assert_eq!(launch.workers[t] == 1, folds, "{files} files: {:?}", launch.workers);
    }
}
