//! End-to-end distributed execution: Lambada's serverless Q1/Q6 results
//! must match the single-node reference engine bit-for-bit in structure
//! and within float tolerance in values. Every query leaves nothing
//! behind: no object, queue, endpoint or running task.

mod common;

use std::rc::Rc;
use std::sync::Arc;

use common::assert_quiescent;
use lambada::core::{
    stage_edge_counts, AggStrategy, InvocationStrategy, Lambada, LambadaConfig, TransportKind,
};
use lambada::engine::{execute_into_batch, Catalog, DataType, MemTable, RecordBatch, Scalar};
use lambada::sim::{Cloud, CloudConfig, CostItem, Simulation};
use lambada::workloads::{
    lineitem_schema, loader, orders_schema, stage_real, stage_table_real, StageOptions,
};

fn stage_opts(scale: f64, seed: u64) -> StageOptions {
    StageOptions { scale, num_files: 6, row_groups_per_file: 3, seed }
}

/// The exact same rows the staged files contain, as an in-memory table.
fn reference_catalog(scale: f64, seed: u64) -> Catalog {
    let schema = Arc::new(lineitem_schema());
    let batches: Vec<RecordBatch> =
        lambada::workloads::loader::generate_file_columns(stage_opts(scale, seed))
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&schema), cols).unwrap())
            .collect();
    let mut cat = Catalog::new();
    cat.register("lineitem", Rc::new(MemTable::new(schema, batches).unwrap()));
    cat
}

fn assert_batches_close(a: &RecordBatch, b: &RecordBatch) {
    assert_eq!(a.num_rows(), b.num_rows(), "row count");
    assert_eq!(a.num_columns(), b.num_columns(), "column count");
    for i in 0..a.num_rows() {
        for (x, y) in a.row(i).iter().zip(b.row(i).iter()) {
            match (x, y) {
                (Scalar::Float64(p), Scalar::Float64(q)) => {
                    assert!((p - q).abs() <= 1e-6 * p.abs().max(1.0), "row {i}: {p} vs {q}");
                }
                _ => assert_eq!(x, y, "row {i}"),
            }
        }
    }
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

fn run_distributed(
    plan: &lambada::engine::LogicalPlan,
    scale: f64,
    seed: u64,
    config: LambadaConfig,
) -> (RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = stage_opts(scale, seed);
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let mut system = Lambada::install(&cloud, config);
    system.register_table(spec);
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    (report.batch.clone(), report)
}

#[test]
fn q1_distributed_matches_reference() {
    let scale = 0.002;
    let seed = 41;
    let plan = lambada::workloads::q1("lineitem");
    let reference = execute_into_batch(
        &lambada::engine::Optimizer::new().optimize(&plan).unwrap(),
        &reference_catalog(scale, seed),
    )
    .unwrap();
    let (batch, report) = run_distributed(&plan, scale, seed, LambadaConfig::default());
    assert_batches_close(&batch, &reference);
    // Six latency-bound files, packed a round of four connections to a
    // worker.
    assert_eq!(report.workers, 2);
    assert!(report.latency_secs > 0.0);
    assert!(report.cost.total() > 0.0);
    // Q1 groups: 4 (A/F, N/F, N/O, R/F).
    assert_eq!(batch.num_rows(), 4);
}

#[test]
fn q6_distributed_matches_reference() {
    let scale = 0.002;
    let seed = 42;
    let plan = lambada::workloads::q6("lineitem");
    let reference = execute_into_batch(
        &lambada::engine::Optimizer::new().optimize(&plan).unwrap(),
        &reference_catalog(scale, seed),
    )
    .unwrap();
    let (batch, _) = run_distributed(&plan, scale, seed, LambadaConfig::default());
    assert_batches_close(&batch, &reference);
    assert_eq!(batch.num_rows(), 1);
    assert!(batch.row(0)[0].as_f64().unwrap() > 0.0);
}

/// The installation picks the invocation shape per fleet, so both shapes
/// are driven here through the explicit entry point: Q6's scan fleet is
/// built by hand, invoked directly and through the two-level tree, and
/// its reports merged like the driver merges them.
#[test]
fn direct_and_two_level_invocation_agree() {
    use lambada::core::invoke::labels;
    use lambada::core::stage::FinalStage;
    use lambada::core::{
        invoke_workers_as, ChainStage, EdgeTransport, ResultPayload, ScanFiles, StageKind,
        StageSink, StageTask, WorkerPayload, WorkerResult, WorkerTask,
    };
    use lambada::engine::physical::agg_state_to_batch;
    use lambada::engine::GroupedAggState;

    let plan = lambada::workloads::q6("lineitem");
    let run = |strategy: InvocationStrategy| {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let spec = stage_real(&cloud, "tpch", "lineitem", stage_opts(0.001, 7));
        let workers = spec.files.len();
        let mut system = Lambada::install(&cloud, LambadaConfig::default());
        system.register_table(spec.clone());
        let dag = system.plan(&plan).unwrap();
        let [scan @ StageKind::Scan(_)] = dag.stages.as_slice() else {
            panic!("Q6 is one scan stage");
        };
        let FinalStage::MergeAggregate { agg_schema, funcs, post } = &dag.final_stage else {
            panic!("Q6 merges aggregate states on the driver");
        };
        assert!(post.is_empty(), "nothing left to apply after the merge");
        let config = system.config();
        let task = Rc::new(StageTask {
            kind: scan.clone(),
            in_channels: Vec::new(),
            scan: Some(Rc::new(ScanFiles {
                table: Rc::new(spec),
                chunks: (0..workers).map(|w| w..w + 1).collect(),
                config: config.scan,
            })),
            sink: StageSink::Report { top: None, emit_state: false },
            transport: Rc::new(EdgeTransport::new(config.exchange.clone(), None)),
            result_bucket: config.result_bucket.clone(),
            result_prefix: "results/by-hand".to_string(),
            inboxes: Vec::new(),
        });
        let list: Rc<[ChainStage]> = Rc::new([ChainStage {
            sid: 0,
            label: "scan:lineitem#0".to_string(),
            task,
            slot: 0,
            inbox: None,
            cohosted: false,
        }]);
        cloud.sqs.create_queue("by-hand");
        let payloads: Vec<WorkerPayload> = (0..workers as u64)
            .map(|w| WorkerPayload {
                worker_id: w,
                attempt: 0,
                query: 0,
                task: WorkerTask::Stage(Rc::clone(&list)),
                edges: Vec::new(),
                children: Vec::new(),
                result_queue: "by-hand".to_string(),
            })
            .collect();
        let function = config.function_name.clone();
        let mut results = sim.block_on({
            let cloud = cloud.clone();
            async move {
                invoke_workers_as(&cloud, &function, payloads, strategy).await.unwrap();
                let sqs = cloud.driver_sqs();
                let mut out = Vec::new();
                while out.len() < workers {
                    let wait = std::time::Duration::from_secs(2);
                    for msg in sqs.receive("by-hand", 10, wait).await.unwrap() {
                        out.push(WorkerResult::decode(&msg).unwrap());
                    }
                }
                out
            }
        });
        results.sort_by_key(|r| r.worker_id);
        let mut state = GroupedAggState::new(funcs).unwrap();
        for r in &results {
            match r.outcome.as_ref().unwrap() {
                ResultPayload::AggState(bytes) => {
                    state.merge(&GroupedAggState::decode(bytes).unwrap()).unwrap();
                }
                ResultPayload::Empty => {}
                other => panic!("worker {} reported {other:?}", r.worker_id),
            }
        }
        let second_generation = cloud.trace.spans(labels::SPAWN).len();
        (agg_state_to_batch(&state, agg_schema).unwrap(), second_generation)
    };
    let (direct, direct_spawns) = run(InvocationStrategy::Direct);
    let (tree, tree_spawns) = run(InvocationStrategy::TwoLevel);
    assert_eq!(direct_spawns, 0, "the driver invoked every worker itself");
    assert_eq!(tree_spawns, 3, "six workers: three first-generation workers with a child each");
    assert_eq!(direct, tree, "the shape moves the clock, never a bit of the result");
    // And the shape the installation picks for this fleet gives the same.
    let by_file = LambadaConfig { files_per_worker: Some(1), ..LambadaConfig::default() };
    let (chosen, _) = run_distributed(&plan, 0.001, 7, by_file);
    assert_eq!(chosen, direct);
}

#[test]
fn files_per_worker_changes_worker_count_not_results() {
    let plan = lambada::workloads::q1("lineitem");
    let (b1, r1) = run_distributed(
        &plan,
        0.001,
        3,
        LambadaConfig { files_per_worker: Some(1), ..LambadaConfig::default() },
    );
    let (b2, r2) = run_distributed(
        &plan,
        0.001,
        3,
        LambadaConfig { files_per_worker: Some(3), ..LambadaConfig::default() },
    );
    // Unpinned, six latency-bound files pack a round of four connections
    // to a worker.
    let (b3, r3) = run_distributed(&plan, 0.001, 3, LambadaConfig::default());
    assert_eq!(r1.workers, 6);
    assert_eq!(r2.workers, 2);
    assert_eq!(r3.workers, 2);
    assert_batches_close(&b1, &b2);
    assert_batches_close(&b1, &b3);
}

#[test]
fn collect_query_roundtrips_through_storage() {
    // A filter-only query exercises the collect fragment path: workers
    // store batches in S3, the driver downloads and concatenates.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = stage_opts(0.0005, 9);
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    system.register_table(spec);
    let df = system.from_table("lineitem").unwrap();
    let pred = df.col("l_quantity").unwrap().lt(lambada::engine::lit_f64(3.0));
    let plan = df.filter(pred).unwrap().build();

    let reference = execute_into_batch(&plan, &reference_catalog(0.0005, 9)).unwrap();
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch.num_rows(), reference.num_rows());
    assert!(report.batch.num_rows() > 0);
}

/// Twelve workers' results, each above the inline limit, are stored —
/// and fetched by the driver all at once: finalizing costs about one
/// first-byte latency plus the transfer, not twelve round trips.
#[test]
fn stored_results_are_fetched_concurrently() {
    let sim = Simulation::new();
    let mut config = CloudConfig::default();
    config.s3.ttfb_median = std::time::Duration::from_millis(100);
    let cloud = Cloud::new(&sim, config);
    let opts = StageOptions { scale: 0.005, num_files: 12, row_groups_per_file: 2, seed: 9 };
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let rows = spec.total_rows;
    let config = LambadaConfig { files_per_worker: Some(1), ..LambadaConfig::default() };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(spec);
    let df = system.from_table("lineitem").unwrap();
    let pred = df.col("l_quantity").unwrap().gt(lambada::engine::lit_f64(0.0));
    let plan = df.filter(pred).unwrap().build();
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch.num_rows() as u64, rows, "every row is back");
    let scan = &report.stages[0];
    assert_eq!((scan.workers, scan.put_requests), (12, 12), "every worker stored its result");
    // The driver's GETs of them count in the stage: the report holds
    // every request billed.
    let billed: f64 =
        [CostItem::S3Get, CostItem::S3Put].map(|i| cloud.billing.units(i)).iter().sum();
    assert_eq!(report.s3_requests() as f64, billed);
    let finalize = report.latency_secs - scan.wall_secs;
    let ttfb = cloud.config.s3.ttfb_median.as_secs_f64();
    assert!(finalize < 3.0 * ttfb, "finalize took {finalize} s for twelve stored results");
}

#[test]
fn cold_runs_slower_than_hot() {
    // Fig 10: cold runs carry a ~20% end-to-end penalty.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = stage_opts(0.002, 5);
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    system.register_table(spec);
    let plan = lambada::workloads::q1("lineitem");
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let (cold, hot) = sim.block_on(async move {
        let cold = system.run_query(&plan).await.unwrap();
        let hot = system.run_query(&plan).await.unwrap();
        (cold, hot)
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert!(cold.cold_starts as usize >= cold.workers / 2, "mostly cold");
    // The warm pool holds as many containers as the cold run's *peak
    // concurrency*, which can be one short of the worker count when an
    // early finisher's container served a late invocation.
    assert!(hot.cold_starts <= 1, "second run reuses warm containers");
    assert!(
        cold.latency_secs > hot.latency_secs,
        "cold {} vs hot {}",
        cold.latency_secs,
        hot.latency_secs
    );
}

#[test]
fn query_cost_is_dominated_by_lambda_compute() {
    let plan = lambada::workloads::q1("lineitem");
    let (_, report) = run_distributed(&plan, 0.002, 13, LambadaConfig::default());
    let lambda = report.cost.dollars(CostItem::LambdaGibSeconds);
    assert!(lambda > 0.0);
    // Every file is latency-bound: its footer read is the whole file.
    let files = stage_opts(0.002, 13).num_files as u64;
    assert_eq!(report.stages[0].get_requests, files, "one GET per file");
    assert_eq!(report.cost.units(CostItem::S3Get), files as f64);
    let workers = report.workers as f64;
    assert!(report.cost.units(CostItem::SqsRequests) >= workers, "one result per worker");
}

#[test]
fn q3_group_by_runs_repartitioned_and_matches_reference() {
    // The Q3-style join + high-cardinality group-by must execute as a
    // scan → exchange → join → exchange → agg-merge QueryDag — the
    // driver-side merge path replaced by a serverless merge fleet — with
    // per-stage request counts matching the stage-edge cost model.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.002;
    let seed = 33;
    let li_spec = stage_real(&cloud, "tpch", "lineitem", stage_opts(scale, seed));
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let join_workers = 3;
    let agg_workers = 4;
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            // One scan worker per file, as the request counts below assume.
            files_per_worker: Some(1),
            join_workers: Some(join_workers),
            agg: AggStrategy::Exchange { workers: Some(agg_workers) },
            ..LambadaConfig::default()
        },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);

    // Reference: the exact same rows, executed locally.
    let mut cat = reference_catalog(scale, seed);
    let ord_schema = Arc::new(lambada::workloads::orders_schema());
    let ord_batches: Vec<RecordBatch> =
        lambada::workloads::loader::generate_orders_file_columns(orders_opts)
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&ord_schema), cols).unwrap())
            .collect();
    cat.register(
        "orders",
        Rc::new(lambada::engine::MemTable::new(ord_schema, ord_batches).unwrap()),
    );
    let plan = lambada::workloads::q3("lineitem", "orders");
    let reference =
        execute_into_batch(&lambada::engine::Optimizer::new().optimize(&plan).unwrap(), &cat)
            .unwrap();

    // The object store first, then the direct transport on the same DAG.
    let direct_system = direct_twin(&system, &["lineitem", "orders"]);
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let (report, direct) = sim.block_on(async {
        let dag = system.plan(&plan).unwrap();
        let store = system.run_dag(&dag).await.unwrap();
        (store, direct_system.run_dag(&dag).await.unwrap())
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_batches_close(&report.batch, &reference);
    assert_eq!(direct.batch, report.batch, "the transports agree bit for bit");
    assert_eq!(report.batch.num_rows(), 10, "top-10 post-op applied on the driver");

    // The full DAG ran: two scan fleets, the join fleet, the merge fleet.
    assert_eq!(report.stages.len(), 4);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert!(labels[0].starts_with("scan:") && labels[1].starts_with("scan:"));
    assert_eq!(&labels[2..], ["join#2", "agg#3"]);
    let ids: Vec<usize> = report.stages.iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3], "stable topo-ordered stage ids");
    let scans = &report.stages[..2];
    let join = &report.stages[2];
    let agg = &report.stages[3];
    assert_eq!(join.workers, join_workers);
    assert_eq!(agg.workers, agg_workers);
    // High cardinality really reached the merge fleet: far more groups
    // than Q1's four, all finalized serverlessly — and each merge worker
    // ships only its own top 10 of them to the driver.
    assert!(join.rows_out > 100, "{} groups sharded to the merge fleet", join.rows_out);
    assert!(agg.rows_out <= 10 * agg_workers as u64, "{} rows reported", agg.rows_out);

    // Request counts stay within the stage-edge cost model (writes at
    // most one per sender, GETs bounded by senders × receivers, no LIST:
    // the driver hands every receiver its sections). A sender writes only
    // when its sections exceed its inline budget, INLINE_EDGE_BYTES over
    // its consumer's senders: on the scan → join edge (10 senders) 4 of
    // the 6 lineitem scanners and no orders scanner, so inline and file
    // senders mix on one edge; the join workers' grouped shards all ride
    // inline to the merge fleet.
    let scan_senders: usize = scans.iter().map(|s| s.workers).sum();
    let join_edge = stage_edge_counts(scan_senders as f64, join_workers as f64);
    let scan_puts: Vec<u64> = scans.iter().map(|s| s.put_requests).collect();
    assert_eq!(scan_puts, vec![4, 0], "only the scanners over budget PUT");
    assert!(scan_puts.iter().sum::<u64>() <= join_edge.writes as u64);
    assert_eq!(join.get_requests, 4 * join_workers as u64, "one GET per file sender");
    assert!(join.get_requests <= join_edge.reads as u64);
    assert_eq!(join.list_requests, 0, "an addressed edge lists nothing");
    assert_eq!(join.put_requests, 0, "every grouped shard rides inline");
    assert_eq!(agg.get_requests, 0, "so the merge fleet fetches nothing");
    assert_eq!(agg.list_requests, 0, "an addressed edge lists nothing");
    // Merge workers report their top 10 finalized rows (no driver
    // merge), well under the inline limit, so they ride the result
    // messages: no result PUT at all.
    assert_eq!(agg.put_requests, 0, "finalized groups ride the result messages");
    // Both exchange edges carried bytes.
    assert!(scans.iter().all(|s| s.bytes_exchanged > 0));
    assert!(join.bytes_exchanged > 0, "join fleet exchanged grouped state shards");

    // On the direct transport the scanners over budget stream their
    // sections through the relay instead: no scan PUTs, no join GETs. The
    // join → agg edge rides inline on both transports, and neither lists.
    let (direct_scans, direct_join) = (&direct.stages[..2], &direct.stages[2]);
    assert!(direct_scans.iter().all(|s| s.put_requests == 0), "nothing stored");
    assert_eq!(direct_join.get_requests, 0, "nothing fetched from the store");
    assert!(direct_join.p2p_requests > 0, "the scan → join edge streams");
    for r in [&report, &direct] {
        let (join, agg) = (&r.stages[2], &r.stages[3]);
        assert_eq!((join.put_requests, agg.get_requests, agg.p2p_requests), (0, 0, 0));
        assert!(r.stages.iter().all(|s| s.list_requests == 0));
    }
}

/// A driver-merged aggregate state too large for a result message is
/// stored in the result bucket, as batches are: Q3 under `DriverMerge`
/// with one join worker, whose grouped state is several times SQS's cap,
/// returns the reference executor's result, and its join stage's one PUT
/// is that state.
#[test]
fn an_agg_state_over_the_message_cap_is_stored_and_merged() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let li_opts = StageOptions { scale: 0.02, num_files: 8, row_groups_per_file: 4, seed: 1 };
    let li_spec = stage_real(&cloud, "tpch", "lineitem", li_opts);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed: 1,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let config = LambadaConfig { join_workers: Some(1), ..LambadaConfig::default() };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li_spec);
    system.register_table(ord_spec);

    let mut cat = Catalog::new();
    let tables = [
        ("lineitem", lineitem_schema(), loader::generate_file_columns(li_opts)),
        ("orders", orders_schema(), loader::generate_orders_file_columns(orders_opts)),
    ];
    for (name, schema, files) in tables {
        let schema = Arc::new(schema);
        let batches = files.into_iter().map(|c| RecordBatch::new(Arc::clone(&schema), c).unwrap());
        let batches = batches.collect();
        cat.register(name, Rc::new(MemTable::new(schema, batches).unwrap()));
    }
    let plan = lambada::workloads::q3("lineitem", "orders");
    let optimized = lambada::engine::Optimizer::new().optimize(&plan).unwrap();
    let reference = execute_into_batch(&optimized, &cat).unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch, reference);
    let join = &report.stages[2];
    assert_eq!((join.label.as_str(), join.workers), ("join#2", 1));
    assert_eq!(join.put_requests, 1, "the state is stored, not sent");
}

/// A wider sort fleet trades per-worker state for invocations, not
/// requests: the driver picks the range boundaries from the producers'
/// block starts, so sorters spend no request agreeing on them, and the
/// S3 request $ at two or four sorters stays within 10% of one sorter's.
#[test]
fn q5_multiway_runs_fully_serverlessly_with_request_counts_matching_the_model() {
    let one = q5_multiway(1);
    for width in [2, 4] {
        let dollars = q5_multiway(width);
        assert!(dollars <= 1.1 * one, "{width} sorters: ${dollars:.8} against one's ${one:.8}");
    }
}

/// A one-worker sort fleet has one range and the same protocol: every
/// merge worker cuts its run into blocks, and the lone sorter, given no
/// boundary, keeps every row of every block.
#[test]
fn q5_multiway_with_a_lone_sorter_skips_the_sample_barrier() {
    q5_multiway(1);
}

/// Runs Q5 into `sort_workers` sorters, checks it, and returns its S3
/// request $.
fn q5_multiway(sort_workers: usize) -> f64 {
    // The acceptance shape for general DAG lowering: a 3-table join with
    // group-by, ORDER BY, and LIMIT plans and executes entirely in the
    // serverless scope — nested join over a row exchange, repartitioned
    // aggregation, and a distributed range-partitioned sort — so the
    // driver neither merges nor sorts, only concatenates + truncates.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.002;
    let seed = 55;
    let li_spec = stage_real(&cloud, "tpch", "lineitem", stage_opts(scale, seed));
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let cust_opts = lambada::workloads::CustomerStageOptions {
        rows: lambada::workloads::customer::rows_matching_orders(),
        num_files: 3,
        row_groups_per_file: 3,
        seed,
    };
    let cust_spec = lambada::workloads::stage_real_customer(&cloud, "tpch", "customer", cust_opts);
    let join_workers = 3;
    let agg_workers = 4;
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            // One scan worker per file, as the request counts below assume.
            files_per_worker: Some(1),
            join_workers: Some(join_workers),
            agg: lambada::core::AggStrategy::Exchange { workers: Some(agg_workers) },
            sort: lambada::core::SortStrategy::Exchange { workers: Some(sort_workers) },
            ..LambadaConfig::default()
        },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    system.register_table(cust_spec);

    // Reference: the exact same rows, executed locally.
    let mut cat = reference_catalog(scale, seed);
    let ord_schema = Arc::new(lambada::workloads::orders_schema());
    let ord_batches: Vec<RecordBatch> =
        lambada::workloads::loader::generate_orders_file_columns(orders_opts)
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&ord_schema), cols).unwrap())
            .collect();
    cat.register(
        "orders",
        Rc::new(lambada::engine::MemTable::new(ord_schema, ord_batches).unwrap()),
    );
    let cust_schema = Arc::new(lambada::workloads::customer_schema());
    let cust_batches: Vec<RecordBatch> =
        lambada::workloads::loader::generate_customer_file_columns(cust_opts)
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&cust_schema), cols).unwrap())
            .collect();
    cat.register(
        "customer",
        Rc::new(lambada::engine::MemTable::new(cust_schema, cust_batches).unwrap()),
    );
    let plan = lambada::workloads::q5("lineitem", "orders", "customer");
    let reference =
        execute_into_batch(&lambada::engine::Optimizer::new().optimize(&plan).unwrap(), &cat)
            .unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    // Exact equality including row order: the q5 sort keys are total
    // (custkey breaks revenue ties), so the serverless sort's
    // concatenated runs must reproduce the reference order bit-for-bit.
    assert_batches_close(&report.batch, &reference);
    assert_eq!(report.batch.num_rows(), 10, "top 10 delivered");

    // The full seven-stage DAG ran: three scans, the nested joins, the
    // merge fleet, the sort fleet. (The join reorderer put the large
    // customer relation on the outer probe side.)
    assert_eq!(report.stages.len(), 7);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "scan:customer#0",
            "scan:lineitem#1",
            "scan:orders#2",
            "join#3",
            "join#4",
            "agg#5",
            "sort#6"
        ]
    );
    let inner_join = &report.stages[3];
    let outer_join = &report.stages[4];
    let agg = &report.stages[5];
    let sort = &report.stages[6];
    assert_eq!(inner_join.workers, join_workers);
    assert_eq!(outer_join.workers, join_workers);
    assert_eq!(agg.workers, agg_workers);
    assert_eq!(sort.workers, sort_workers);
    // High cardinality genuinely flowed through the exchange: the outer
    // join shipped one grouped-state entry per qualifying group. Limit
    // pushdown then capped what each merge worker handed the sort fleet
    // at its local top 10, so the sort stage saw at most limit × fleet
    // rows of the hundreds of groups.
    assert!(outer_join.rows_out > 100, "{} grouped entries exchanged", outer_join.rows_out);
    assert!(agg.rows_out <= 10 * agg_workers as u64, "limit pushed into the merge fleet");
    assert!(sort.rows_out <= 10 * sort_workers as u64, "each range truncated to the limit");

    // Per-stage request counts stay within the stage-edge cost model.
    // Writes are exact: one write-combined PUT per producer worker whose
    // sections exceed its inline budget (INLINE_EDGE_BYTES over its
    // consumer's senders) — every customer scanner, 4 of the 6 lineitem
    // scanners, no orders scanner, no join or merge worker.
    let scan_workers: usize = report.stages[..3].iter().map(|s| s.workers).sum();
    let scan_puts: Vec<u64> = report.stages[..3].iter().map(|s| s.put_requests).collect();
    assert_eq!(scan_puts, vec![3, 4, 0], "only the scanners over budget PUT");
    assert_eq!(
        (inner_join.put_requests, outer_join.put_requests),
        (0, 0),
        "the re-exchanged rows and the agg shards ride inline"
    );
    // The merge fleet's runs, cut into blocks when there are several
    // ranges, ride inline: the driver picks the boundaries from the
    // reported starts, so nobody PUTs, GETs or LISTs a sample.
    assert_eq!(
        (agg.put_requests, agg.get_requests, agg.list_requests),
        (0, 0, 0),
        "each merge worker's run rides inline, and its in-edge did too"
    );
    assert_eq!(sort.put_requests, 0, "the sorted top 10 rides the result messages");
    assert_eq!(sort.get_requests, 0, "the runs rode the sorters' payloads");
    // Reads bounded by the model (empty sections are skipped); no stage
    // lists anything or waits.
    let inner_edge = stage_edge_counts(scan_workers as f64, join_workers as f64);
    assert!(inner_join.get_requests >= 1 && inner_join.get_requests <= inner_edge.reads as u64);
    for stage in &report.stages {
        assert_eq!((stage.list_requests, stage.exchange_wait_secs), (0, 0.0), "{}", stage.label);
    }
    // Every exchange edge carried bytes.
    assert!(report.stages[..3].iter().all(|s| s.bytes_exchanged > 0));
    assert!(inner_join.bytes_exchanged > 0, "nested join re-exchanged rows");
    assert!(outer_join.bytes_exchanged > 0, "outer join exchanged grouped state");
    assert!(agg.bytes_exchanged > 0, "merge fleet exchanged sorted runs");
    let prices = cloud.billing.prices();
    report.stages.iter().map(|s| s.request_dollars(&prices)).sum()
}

/// Stage lineitem + orders and register both with the system; returns
/// the reference catalog holding the exact same rows.
fn stage_join_tables(cloud: &Cloud, system: &mut Lambada, scale: f64, seed: u64) -> Catalog {
    let li_spec = stage_real(cloud, "tpch", "lineitem", stage_opts(scale, seed));
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(cloud, "tpch", "orders", orders_opts);
    system.register_table(li_spec);
    system.register_table(ord_spec);
    let mut cat = reference_catalog(scale, seed);
    let ord_schema = Arc::new(lambada::workloads::orders_schema());
    let ord_batches: Vec<RecordBatch> =
        lambada::workloads::loader::generate_orders_file_columns(orders_opts)
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&ord_schema), cols).unwrap())
            .collect();
    cat.register("orders", Rc::new(MemTable::new(ord_schema, ord_batches).unwrap()));
    cat
}

#[test]
fn q4_semi_join_runs_distributed_and_matches_reference() {
    // The Q4-style EXISTS query (orders with a late line item, counted
    // per priority) must run end to end as a distributed *semi* join —
    // scan fleets → hash-partitioned exchange → semi-join fleet — and
    // match the reference executor exactly (integer counts).
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (scale, seed) = (0.002, 61);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    let cat = stage_join_tables(&cloud, &mut system, scale, seed);
    let plan = lambada::workloads::q4("lineitem", "orders");
    let reference =
        execute_into_batch(&lambada::engine::Optimizer::new().optimize(&plan).unwrap(), &cat)
            .unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_batches_close(&report.batch, &reference);
    assert!(report.batch.num_rows() > 1, "several priorities qualified");

    // The one-sided join was not swapped: orders stays the probe side,
    // and the stage label names the variant. The one-worker semi join
    // runs in the one-worker orders scan, its larger input, which hands
    // its rows on in memory; lineitem's cross the exchange.
    assert_eq!(report.stages.len(), 3);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["scan:orders#0", "scan:lineitem#1", "semi-join#2"]);
    let workers: Vec<usize> = report.stages.iter().map(|s| s.workers).collect();
    assert_eq!((workers[0], workers[2], report.stages[2].chain), (1, 1, 0));
    assert_eq!(report.stages[0].bytes_exchanged, 0);
    assert!(report.stages[1].bytes_exchanged > 0);
}

#[test]
fn q4_semi_join_feeds_agg_and_sort_fleets() {
    // Nested-variant composition: with both exchange strategies on, the
    // semi join's probe output repartitions into an agg-merge fleet
    // whose finalized groups feed a distributed sort — five stages, the
    // driver only concatenates.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (scale, seed) = (0.002, 62);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            join_workers: Some(3),
            agg: AggStrategy::Exchange { workers: Some(2) },
            sort: lambada::core::SortStrategy::Exchange { workers: Some(2) },
            ..LambadaConfig::default()
        },
    );
    let cat = stage_join_tables(&cloud, &mut system, scale, seed);
    let plan = lambada::workloads::q4("lineitem", "orders");
    let reference =
        execute_into_batch(&lambada::engine::Optimizer::new().optimize(&plan).unwrap(), &cat)
            .unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    // Total sort keys (priority is the group key), so exact order holds.
    assert_batches_close(&report.batch, &reference);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["scan:orders#0", "scan:lineitem#1", "semi-join#2", "agg#3", "sort#4"]);
    assert!(report.stages[2].bytes_exchanged > 0, "semi join exchanged grouped state");
    assert!(report.stages[3].bytes_exchanged > 0, "merge fleet exchanged sorted runs");
}

/// Inline and file senders, on one edge and on both transports: Q1, Q12
/// and Q4, with the agg and sort exchanges on so that each has stage
/// edges, return the reference executor's result whether their edges run
/// over the object store or the direct transport — bit for bit across
/// the transports, and against the reference wherever it sums integers.
/// Lineitem is staged in four files, the first three times the others'
/// size, so on Q4's lineitem edge the big sender writes its file while
/// the others ride their messages.
#[test]
fn inline_and_file_senders_mix_bit_identically_on_both_transports() {
    use lambada::core::SortStrategy;
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let config = LambadaConfig {
        join_workers: Some(3),
        agg: AggStrategy::Exchange { workers: Some(2) },
        sort: SortStrategy::Exchange { workers: Some(2) },
        ..LambadaConfig::default()
    };
    let mut system = Lambada::install(&cloud, config);
    let (scale, seed) = (0.005, 55);
    let cat = stage_join_tables(&cloud, &mut system, scale, seed);
    let schema = Arc::new(lineitem_schema());
    let files: Vec<RecordBatch> =
        lambada::workloads::loader::generate_file_columns(stage_opts(scale, seed))
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&schema), cols).unwrap())
            .collect();
    let big = RecordBatch::concat(Arc::clone(&schema), &files[..3]).unwrap();
    let uneven = std::iter::once(&big).chain(&files[3..]).map(|b| b.columns().to_vec()).collect();
    let rows = lambada::workloads::lineitem::rows_for_scale(scale);
    let li =
        stage_table_real(&cloud, "tpch-uneven", "lineitem", lineitem_schema(), uneven, rows, 3);
    system.register_table(li);

    let direct_system = direct_twin(&system, &["lineitem", "orders"]);
    let mut lineitem_puts = Vec::new();
    for plan in [
        lambada::workloads::q1("lineitem"),
        lambada::workloads::q12("lineitem", "orders"),
        lambada::workloads::q4("lineitem", "orders"),
    ] {
        let optimized = lambada::engine::Optimizer::new().optimize(&plan).unwrap();
        let reference = execute_into_batch(&optimized, &cat).unwrap();
        let dag = system.plan(&plan).unwrap();
        let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
        let (store, direct) = sim.block_on(async {
            let store = system.run_dag(&dag).await.unwrap();
            (store, direct_system.run_dag(&dag).await.unwrap())
        });
        assert_quiescent(&sim, &cloud, &config, queues);
        assert_eq!(direct.batch, store.batch, "the transports agree bit for bit");
        assert_batches_close(&store.batch, &reference);
        if !store.batch.schema().fields.iter().any(|f| f.dtype == DataType::Float64) {
            assert_eq!(store.batch, reference, "integer results match the reference exactly");
        }
        let scan = store.stages.iter().find(|s| s.label.starts_with("scan:lineitem")).unwrap();
        lineitem_puts.push(scan.put_requests);
    }
    // Q1's shards and Q12's filtered rows ride inline from every sender;
    // on Q4's edge only the big file's sender is over its budget.
    assert_eq!(lineitem_puts, vec![0, 0, 1]);
}

/// Half of all requests in the slow tail, so hedges fire in every query:
/// Q12 and Q3, each alone on a fresh cloud, on both transports, still
/// match the reference, and their reports count exactly what was billed —
/// every GET and PUT with its hedges, which are the store's own hedges,
/// and every invocation.
#[test]
fn reports_count_every_billed_request_while_hedges_fire() {
    use lambada::sim::services::object_store::S3Config;
    let mut hedged = 0;
    for transport in [TransportKind::ObjectStore, TransportKind::Direct] {
        for plan in [
            lambada::workloads::q12("lineitem", "orders"),
            lambada::workloads::q3("lineitem", "orders"),
        ] {
            let sim = Simulation::new();
            let s3 = S3Config { tail_probability: 0.5, ..S3Config::default() };
            let cloud = Cloud::new(&sim, CloudConfig { s3, ..CloudConfig::default() });
            let config = LambadaConfig {
                transport,
                join_workers: Some(3),
                agg: AggStrategy::Exchange { workers: Some(2) },
                ..LambadaConfig::default()
            };
            let mut system = Lambada::install(&cloud, config);
            let cat = stage_join_tables(&cloud, &mut system, 0.005, 71);
            let optimized = lambada::engine::Optimizer::new().optimize(&plan).unwrap();
            let reference = execute_into_batch(&optimized, &cat).unwrap();
            let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
            let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
            assert_quiescent(&sim, &cloud, &config, queues);
            assert_batches_close(&report.batch, &reference);

            let units = |item| cloud.billing.units(item);
            let s3_billed =
                units(CostItem::S3Get) + units(CostItem::S3Put) + units(CostItem::S3List);
            assert_eq!(report.s3_requests() as f64, s3_billed, "{transport:?}");
            let invoked = units(CostItem::LambdaRequests);
            assert_eq!(report.request_count() as f64, s3_billed + invoked, "{transport:?}");
            let hedges = cloud.s3.hedges();
            let stages = |f: fn(&lambada::core::StageReport) -> u64| -> u64 {
                report.stages.iter().map(f).sum()
            };
            let counted = (stages(|s| s.hedged_gets), stages(|s| s.hedged_puts));
            assert_eq!(counted, (hedges.gets, hedges.puts), "{transport:?}");
            hedged += hedges.gets + hedges.puts;
        }
    }
    assert!(hedged > 0, "the tail made some requests late");
}

#[test]
fn q21_anti_join_runs_distributed_and_matches_reference() {
    // The Q21-flavored NOT EXISTS query (orders with no late line item)
    // must run as a distributed *anti* join and complement Q4's counts
    // over the same window.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (scale, seed) = (0.002, 63);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    let cat = stage_join_tables(&cloud, &mut system, scale, seed);
    let plan = lambada::workloads::q21("lineitem", "orders");
    let reference =
        execute_into_batch(&lambada::engine::Optimizer::new().optimize(&plan).unwrap(), &cat)
            .unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let (report, semi_report) = sim.block_on({
        let plan = plan.clone();
        let semi_plan = lambada::workloads::q4("lineitem", "orders");
        async move {
            let anti = system.run_query(&plan).await.unwrap();
            let semi = system.run_query(&semi_plan).await.unwrap();
            (anti, semi)
        }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_batches_close(&report.batch, &reference);
    assert!(report.batch.num_rows() > 0, "some orders have no late line item");
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["scan:orders#0", "scan:lineitem#1", "anti-join#2"]);

    // Complement identity across the two distributed runs: per
    // priority, semi + anti counts equal the window's order count.
    let count_by_prio = |b: &RecordBatch| {
        let mut m = std::collections::BTreeMap::new();
        for i in 0..b.num_rows() {
            m.insert(b.row(i)[0].as_i64().unwrap(), b.row(i)[1].as_i64().unwrap());
        }
        m
    };
    let semi = count_by_prio(&semi_report.batch);
    let anti = count_by_prio(&report.batch);
    let total: i64 = semi.values().sum::<i64>() + anti.values().sum::<i64>();
    assert!(total > 0);
    // Every priority appears on at least one side, and the two sides
    // never disagree about the window (spot-checked against the
    // reference above; this pins cross-query consistency).
    for p in semi.keys().chain(anti.keys()) {
        let s = semi.get(p).copied().unwrap_or(0);
        let a = anti.get(p).copied().unwrap_or(0);
        assert!(s + a > 0, "priority {p} vanished");
    }
}

#[test]
fn diamond_dag_schedules_and_matches_reference() {
    // A diamond the planner never emits: two join stages consuming the
    // *same* two scan edges, their outputs joined by a third join. The
    // topological wave scheduler must launch the middle joins
    // concurrently in one wave and wire every edge correctly.
    use lambada::core::stage::{
        FinalStage, JoinStage, QueryDag, ScanStage, StageKind, StageOutput,
    };
    use lambada::engine::{Column, DataType, Field, PipelineSpec, Schema, Terminal};

    let t_schema =
        Schema::new(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]);
    let u_schema =
        Schema::new(vec![Field::new("uk", DataType::Int64), Field::new("w", DataType::Int64)]);

    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let tcols = vec![Column::I64(vec![1, 2, 3, 4, 5]), Column::I64(vec![10, 20, 30, 40, 50])];
    let ucols = vec![Column::I64(vec![2, 3, 3, 7]), Column::I64(vec![200, 300, 301, 700])];
    let join_workers = 3;
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig { join_workers: Some(join_workers), ..LambadaConfig::default() },
    );
    let mut cat = Catalog::new();
    for (name, schema, cols) in [("t", t_schema.clone(), tcols), ("u", u_schema.clone(), ucols)] {
        let spec = lambada::workloads::stage_table_real(
            &cloud,
            "data",
            name,
            schema.clone(),
            vec![cols.clone()],
            cols[0].len() as u64,
            2,
        );
        system.register_table(spec);
        cat.register(
            name,
            Rc::new(lambada::engine::MemTable::from_batch(
                RecordBatch::new(Arc::new(schema), cols).unwrap(),
            )),
        );
    }

    let t_ref = Arc::new(t_schema.clone());
    let u_ref = Arc::new(u_schema.clone());
    let scan_stage = |table: &str, schema: &Arc<Schema>| {
        StageKind::Scan(ScanStage {
            table: table.to_string(),
            scan_columns: vec![0, 1],
            prune_predicate: None,
            pipeline: PipelineSpec {
                input_schema: Arc::clone(schema),
                predicate: None,
                projection: None,
                terminal: Terminal::Collect,
            },
            output: StageOutput::Exchange { keys: vec![0] },
        })
    };
    let mut joined_fields = t_schema.fields.clone();
    joined_fields.extend(u_schema.fields.clone());
    let tu_schema = Schema::arc(joined_fields);
    let mid_join = |output: StageOutput| {
        StageKind::Join(JoinStage {
            probe_input: 0,
            build_input: 1,
            probe_schema: Arc::clone(&t_ref),
            build_schema: Arc::clone(&u_ref),
            probe_keys: vec![0],
            build_keys: vec![0],
            variant: lambada::engine::JoinVariant::Inner,
            post: PipelineSpec {
                input_schema: Arc::clone(&tu_schema),
                predicate: None,
                projection: None,
                terminal: Terminal::Collect,
            },
            output,
        })
    };
    let mut final_fields = tu_schema.fields.clone();
    final_fields.extend(tu_schema.fields.clone());
    let final_schema = Schema::arc(final_fields);
    let dag = QueryDag {
        stages: vec![
            scan_stage("t", &t_ref),
            scan_stage("u", &u_ref),
            mid_join(StageOutput::Exchange { keys: vec![0] }),
            mid_join(StageOutput::Exchange { keys: vec![0] }),
            StageKind::Join(JoinStage {
                probe_input: 2,
                build_input: 3,
                probe_schema: Arc::clone(&tu_schema),
                build_schema: Arc::clone(&tu_schema),
                probe_keys: vec![0],
                build_keys: vec![0],
                variant: lambada::engine::JoinVariant::Inner,
                post: PipelineSpec {
                    input_schema: Arc::clone(&final_schema),
                    predicate: None,
                    projection: None,
                    terminal: Terminal::Collect,
                },
                output: StageOutput::Driver,
            }),
        ],
        final_stage: FinalStage::CollectBatches { schema: final_schema, post: vec![] },
    };
    dag.validate().unwrap();

    // Reference: (t ⋈ u) ⋈ (t ⋈ u) on the shared key, locally.
    let tu = lambada::engine::LogicalPlan::Join {
        left: Box::new(lambada::engine::LogicalPlan::Scan {
            table: "t".to_string(),
            schema: Arc::clone(&t_ref),
            projection: None,
            predicate: None,
        }),
        right: Box::new(lambada::engine::LogicalPlan::Scan {
            table: "u".to_string(),
            schema: Arc::clone(&u_ref),
            projection: None,
            predicate: None,
        }),
        on: vec![(0, 0)],
        variant: lambada::engine::JoinVariant::Inner,
    };
    let plan = lambada::engine::LogicalPlan::Join {
        left: Box::new(tu.clone()),
        right: Box::new(tu),
        on: vec![(0, 0)],
        variant: lambada::engine::JoinVariant::Inner,
    };
    let reference = execute_into_batch(&plan, &cat).unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_dag(&dag).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch.num_columns(), 8);
    assert_eq!(report.batch.num_rows(), reference.num_rows());
    // Multiset comparison: both sides produce k=2 (1×1) and k=3 (2×2)
    // matches squared through the diamond.
    let canon = |b: &RecordBatch| {
        let mut rows: Vec<Vec<lambada::engine::ScalarKey>> =
            (0..b.num_rows()).map(|i| b.row(i).iter().map(Scalar::key).collect()).collect();
        rows.sort();
        rows
    };
    assert_eq!(canon(&report.batch), canon(&reference));
    // The two middle joins ran in the same wave, both fed by both scans.
    assert_eq!(report.stages.len(), 5);
    assert_eq!(report.stages[2].label, "join#2");
    assert_eq!(report.stages[3].label, "join#3");
    assert!(report.stages[2].bytes_exchanged > 0);
    assert!(report.stages[3].bytes_exchanged > 0);
    // One wave snapshot is shared by the concurrent middle joins; the
    // query is faster than running its stages back to back.
    let wall_sum: f64 = report.stages.iter().map(|s| s.wall_secs).sum();
    assert!(report.latency_secs < wall_sum);
}

#[test]
fn q12_join_runs_distributed_and_matches_reference() {
    // The Q12-style lineitem ⋈ orders query must execute through the
    // serverless stage DAG (scan fleets → exchange → join fleet) and
    // match the local reference executor.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.002;
    let seed = 21;
    let li_spec = stage_real(&cloud, "tpch", "lineitem", stage_opts(scale, seed));
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    // One scan worker per file, as the request counts below assume.
    let config = LambadaConfig { files_per_worker: Some(1), ..LambadaConfig::default() };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li_spec);
    system.register_table(ord_spec);

    // Reference: the exact same rows, executed locally.
    let mut cat = reference_catalog(scale, seed);
    let ord_schema = Arc::new(lambada::workloads::orders_schema());
    let ord_batches: Vec<RecordBatch> =
        lambada::workloads::loader::generate_orders_file_columns(orders_opts)
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&ord_schema), cols).unwrap())
            .collect();
    cat.register(
        "orders",
        Rc::new(lambada::engine::MemTable::new(ord_schema, ord_batches).unwrap()),
    );
    let plan = lambada::workloads::q12("lineitem", "orders");
    let reference =
        execute_into_batch(&lambada::engine::Optimizer::new().optimize(&plan).unwrap(), &cat)
            .unwrap();

    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on({
        let plan = plan.clone();
        async move { system.run_query(&plan).await.unwrap() }
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch, reference, "bit-identical to the reference executor");
    assert!(report.batch.num_rows() > 0, "Q12 selected something");

    // The stage DAG really ran: two scan fleets + one join fleet. The
    // join reorderer made the filtered lineitem side the (smaller) build
    // input, so the orders scan launches first as the probe stage.
    assert_eq!(report.stages.len(), 3);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["scan:orders#0", "scan:lineitem#1", "join#2"]);
    assert_eq!(report.stages[0].workers, 4, "one worker per orders file");
    assert_eq!(report.stages[1].workers, 6, "one worker per lineitem file");
    assert!(report.stages[2].workers >= 1);
    // Both scan stages exchanged bytes, and the join fleet received them
    // (exact per-worker request counters). Each orders scanner ships
    // ~72 KB, over its inline budget (INLINE_EDGE_BYTES over the join's
    // 10 senders): one combined PUT each, one GET per join worker. The
    // filtered lineitem side ships a few hundred bytes per scanner: it
    // rides the result messages and the join payloads, no PUT, no GET.
    assert!(report.stages[0].bytes_exchanged > 0);
    assert!(report.stages[1].bytes_exchanged > 0);
    assert_eq!(report.stages[2].bytes_exchanged, 0, "result uploads are not exchange bytes");
    assert_eq!(report.stages[0].put_requests, 4, "one combined PUT per orders scanner");
    assert_eq!(report.stages[1].put_requests, 0, "the lineitem edge rides inline");
    let join_workers = report.stages[2].workers as u64;
    assert_eq!(report.stages[2].get_requests, 4 * join_workers, "orders sections only");
    assert_eq!(report.stages[2].list_requests, 0, "the driver addressed every partition");
    // Both in-edges are complete when the join fleet launches, and each
    // join worker receives them together: its two receives (only join
    // workers read an edge in this DAG) wait for nothing and start at
    // once, and the inline lineitem receive takes no time, so a worker
    // pays one fetch round — the orders one — not one per edge.
    let waits = cloud.trace.spans("exchange_wait");
    assert_eq!(waits.len(), 2 * report.stages[2].workers);
    assert!(waits.iter().all(|e| e.start == e.end), "an addressed edge is never waited for");
    let reads = cloud.trace.spans("exchange_read");
    for w in 0..report.stages[2].workers as u64 {
        let mine: Vec<_> = reads.iter().filter(|e| e.worker == w).collect();
        let [a, b] = mine.as_slice() else { panic!("join worker {w}: {} reads", mine.len()) };
        assert_eq!(a.start, b.start, "join worker {w} starts both receives together");
        let (inline, fetched) = if a.end <= b.end { (a, b) } else { (b, a) };
        assert_eq!(inline.end, inline.start, "join worker {w}'s inline receive is free");
        assert!(fetched.end > fetched.start, "join worker {w} fetches the orders sections");
    }
    // Concurrent scan wave: both scans share one billing snapshot and the
    // query is not slower than the two scans run back to back.
    assert!(report.latency_secs > 0.0);
    assert!(
        report.latency_secs
            < report.stages[0].wall_secs + report.stages[1].wall_secs + report.stages[2].wall_secs,
        "independent scan stages overlap"
    );
    assert!(report.cost.total() > 0.0);
}

/// Dropping the installation, the cloud and the simulation frees the
/// cloud: the worker function registered with the FaaS service must not
/// keep the cloud that owns that service alive (it did, and every
/// session of a long run kept its whole object store resident).
#[test]
fn a_dropped_cloud_is_freed() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = StageOptions { scale: 0.001, num_files: 4, row_groups_per_file: 2, seed: 3 };
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    system.register_table(spec);
    let store = cloud.s3.state_weak();
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move {
        system.run_query(&lambada::workloads::q6("lineitem")).await.unwrap()
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert!(report.workers > 0, "the query really ran on workers");
    assert!(store.upgrade().is_some(), "alive while the cloud is");
    drop(report);
    drop(cloud);
    drop(sim);
    assert!(store.upgrade().is_none(), "the object store outlived every handle to its cloud");
}
