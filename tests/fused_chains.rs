//! Fused chains: between two one-worker fleets a stage edge is an
//! identity, so the consumer runs inside its producer's invocation. The
//! planner's Q12, Q5 and Q3 with cost-model-sized tails must fuse exactly
//! their one-worker tails, match the reference executor, spend no request
//! and leave no object on a fused edge, and still report every stage on
//! its own — on both transports.

use std::rc::Rc;
use std::sync::Arc;

use lambada::core::{
    AggStrategy, CoreError, Lambada, LambadaConfig, QueryReport, QueryService, ServiceConfig,
    SortStrategy, TransportKind,
};
use lambada::engine::{
    execute_into_batch, Catalog, LogicalPlan, MemTable, Optimizer, RecordBatch, SortKey,
};
use lambada::sim::{Cloud, CloudConfig, Simulation};
use lambada::workloads::{
    lineitem_schema, stage_real, stage_real_customer, stage_real_orders, CustomerStageOptions,
    OrdersStageOptions, StageOptions,
};

const SEED: u64 = 17;

fn lineitem_opts() -> StageOptions {
    StageOptions { scale: 0.002, num_files: 6, row_groups_per_file: 3, seed: SEED }
}

fn orders_opts(rows: u64) -> OrdersStageOptions {
    OrdersStageOptions { rows, num_files: 4, row_groups_per_file: 3, seed: SEED }
}

fn customer_opts() -> CustomerStageOptions {
    CustomerStageOptions {
        rows: lambada::workloads::customer::rows_matching_orders(),
        num_files: 3,
        row_groups_per_file: 3,
        seed: SEED,
    }
}

/// Stage the three tables on `cloud`, register them with `system`, and
/// return the reference catalog holding the exact same rows.
fn stage_tables(cloud: &Cloud, system: &mut Lambada) -> Catalog {
    let li = stage_real(cloud, "tpch", "lineitem", lineitem_opts());
    let orders = orders_opts(li.total_rows);
    system.register_table(li);
    system.register_table(stage_real_orders(cloud, "tpch", "orders", orders));
    system.register_table(stage_real_customer(cloud, "tpch", "customer", customer_opts()));
    let mut cat = Catalog::new();
    let mut register = |name: &str, schema: lambada::engine::Schema, files: Vec<Vec<_>>| {
        let schema = Arc::new(schema);
        let batches: Vec<RecordBatch> = files
            .into_iter()
            .map(|cols| RecordBatch::new(Arc::clone(&schema), cols).unwrap())
            .collect();
        cat.register(name, Rc::new(MemTable::new(schema, batches).unwrap()));
    };
    use lambada::workloads::loader;
    register("lineitem", lineitem_schema(), loader::generate_file_columns(lineitem_opts()));
    register(
        "orders",
        lambada::workloads::orders_schema(),
        loader::generate_orders_file_columns(orders),
    );
    register(
        "customer",
        lambada::workloads::customer_schema(),
        loader::generate_customer_file_columns(customer_opts()),
    );
    cat
}

/// Model-sized fleets everywhere (no pins): at this scale every consumer
/// fleet is one worker.
fn config(sort: bool, transport: TransportKind) -> LambadaConfig {
    LambadaConfig {
        agg: AggStrategy::Exchange { workers: None },
        sort: if sort { SortStrategy::Exchange { workers: None } } else { SortStrategy::Driver },
        transport,
        ..LambadaConfig::default()
    }
}

/// A query, whether it sorts serverlessly, and the fused edges its
/// model-sized tail must have, as `(producer, consumer)` labels.
struct Case {
    name: &'static str,
    plan: LogicalPlan,
    sort: bool,
    fused: &'static [(&'static str, &'static str)],
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "Q12",
            plan: lambada::workloads::q12("lineitem", "orders"),
            sort: true,
            fused: &[("join#2", "agg#3"), ("agg#3", "sort#4")],
        },
        Case {
            name: "Q5",
            plan: lambada::workloads::q5("lineitem", "orders", "customer"),
            sort: true,
            fused: &[("join#4", "agg#5"), ("agg#5", "sort#6")],
        },
        Case {
            name: "Q3",
            plan: lambada::workloads::q3("lineitem", "orders"),
            sort: false,
            fused: &[("join#2", "agg#3")],
        },
    ]
}

/// Exchange objects stage `sid` of query `qid` left behind.
fn edge_objects(
    sim: &Simulation,
    cloud: &Cloud,
    config: &LambadaConfig,
    qid: u64,
    sid: usize,
) -> usize {
    let s3 = cloud.driver_s3();
    let buckets: Vec<String> =
        (0..config.exchange.num_buckets).map(|b| config.exchange.bucket_of(b)).collect();
    let needle = format!("/q{qid}/s{sid}/");
    sim.block_on(async move {
        let mut found = 0;
        for bucket in &buckets {
            let keys = s3.list(bucket, "").await.unwrap();
            found += keys.iter().filter(|(key, _)| key.contains(&needle)).count();
        }
        found
    })
}

fn check_fused_run(case: &Case, report: &QueryReport, what: &str) {
    let id = |label: &str| report.stages.iter().position(|s| s.label == label).unwrap();
    let fused: Vec<(usize, usize)> = case.fused.iter().map(|(p, c)| (id(p), id(c))).collect();
    // The chains are exactly the expected fused edges.
    for s in &report.stages {
        let fused_after = fused.iter().find(|&&(_, c)| c == s.id).map(|&(p, _)| p);
        let head = fused_after.map_or(s.id, |p| report.stages[p].chain);
        assert_eq!(s.chain, head, "{what}: {} ran in the chain of stage {}", s.label, s.chain);
    }
    let slots: usize = report.stages.iter().map(|s| s.workers).sum();
    assert_eq!(
        report.invocations() as usize,
        slots - fused.len(),
        "{what}: one invocation a chain"
    );
    assert_eq!(report.workers, slots - fused.len(), "{what}");
    assert_eq!(report.worker_metrics.len(), slots, "{what}: one metrics entry per stage worker");
    for &(p, c) in &fused {
        let (producer, consumer) = (&report.stages[p], &report.stages[c]);
        assert_eq!((producer.workers, consumer.workers), (1, 1), "{what}");
        // Nothing crossed the fused edge: no PUT from its producer (which
        // reports nothing either), no LIST or GET by its consumer (whose
        // one in-edge it is), no exchanged bytes.
        assert_eq!(producer.put_requests, 0, "{what}: {} PUT", producer.label);
        assert_eq!(producer.bytes_exchanged, 0, "{what}: {} shipped bytes", producer.label);
        assert_eq!(
            (consumer.get_requests, consumer.list_requests, consumer.p2p_requests),
            (0, 0, 0),
            "{what}: {} read its fused in-edge",
            consumer.label
        );
        // Each member reports its own rows; both share one window.
        assert!(producer.rows_out > 0 && consumer.rows_out > 0, "{what}: {p} → {c} rows");
        assert_eq!(producer.exec_secs, consumer.exec_secs, "{what}: one invocation's window");
    }
    // The head of every chain did read its in-edges for real.
    for &(p, _) in &fused {
        let head = &report.stages[report.stages[p].chain];
        assert!(head.get_requests + head.p2p_requests > 0, "{what}: {} read nothing", head.label);
    }
}

#[test]
fn model_sized_tails_fuse_and_match_the_reference() {
    for case in cases() {
        let reference = {
            let sim = Simulation::new();
            let cloud = Cloud::new(&sim, CloudConfig::default());
            let mut system = Lambada::install(&cloud, LambadaConfig::default());
            let cat = stage_tables(&cloud, &mut system);
            execute_into_batch(&Optimizer::new().optimize(&case.plan).unwrap(), &cat).unwrap()
        };
        assert!(reference.num_rows() > 0, "{}: the query selects something", case.name);
        for transport in [TransportKind::ObjectStore, TransportKind::Direct] {
            let what = format!("{} on {transport:?}", case.name);
            let sim = Simulation::new();
            let cloud = Cloud::new(&sim, CloudConfig::default());
            let config = config(case.sort, transport);
            let mut system = Lambada::install(&cloud, config.clone());
            stage_tables(&cloud, &mut system);
            // Through the ungated service, so the admission estimate —
            // which drops fused edges and counts one invocation per
            // chain — can be held against the actuals.
            let service = QueryService::with_config(
                system,
                ServiceConfig { max_inflight_workers: 0, ..ServiceConfig::default() },
            );
            let estimate = service.estimate(&case.plan).unwrap();
            let report = sim.block_on(service.run("t", &case.plan)).unwrap();
            assert!(report.request_count() <= estimate.requests, "{what}: an over-estimate");
            assert_eq!(report.batch, reference, "{what}: bit for bit");
            check_fused_run(&case, &report, &what);
            for (p, _) in case.fused {
                let p = report.stages.iter().position(|s| s.label == *p).unwrap();
                let left = edge_objects(&sim, &cloud, &config, report.query_id, p);
                assert_eq!(left, 0, "{what}: objects under a fused edge's channel");
            }
            assert_eq!(cloud.p2p.endpoint_count(), 0, "{what}: endpoints deregistered");
            assert_eq!(sim.live_tasks(), 0, "{what}: nothing left running");
        }
    }
}

/// Fusion follows fleet sizes, nothing else: the same queries with
/// two-worker consumer fleets fuse nothing and launch every fleet slot.
#[test]
fn two_worker_tails_do_not_fuse() {
    for case in cases() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = LambadaConfig {
            join_workers: Some(2),
            agg: AggStrategy::Exchange { workers: Some(2) },
            sort: if case.sort {
                SortStrategy::Exchange { workers: Some(2) }
            } else {
                SortStrategy::Driver
            },
            ..LambadaConfig::default()
        };
        let mut system = Lambada::install(&cloud, config);
        stage_tables(&cloud, &mut system);
        let plan = case.plan.clone();
        let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
        assert!(report.stages.iter().all(|s| s.chain == s.id), "{}: nothing fused", case.name);
        let slots: usize = report.stages.iter().map(|s| s.workers).sum();
        assert_eq!(report.invocations() as usize, slots, "{}", case.name);
    }
}

/// An out-of-memory inside a fused member is the member's typed error:
/// the scan fits a 1 MiB worker, the sort fused after it does not (a
/// sort partition may hold half the budget), and the report names it.
#[test]
fn an_oom_in_a_fused_member_names_the_member() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = StageOptions { scale: 0.0067, num_files: 1, row_groups_per_file: 20, seed: SEED };
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let config = LambadaConfig {
        memory_mib: 1,
        sort: SortStrategy::Exchange { workers: Some(1) },
        ..LambadaConfig::default()
    };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(spec);
    let df = system.from_table("lineitem").unwrap();
    let (key, part) = (df.col("l_orderkey").unwrap(), df.col("l_partkey").unwrap());
    let plan = df
        .select(vec![(key.clone(), "l_orderkey"), (part, "l_partkey")])
        .unwrap()
        .sort(vec![SortKey::asc(key)])
        .unwrap()
        .build();
    let dag = system.plan(&plan).unwrap();
    let launch = system.launch_plan(&dag, None).unwrap();
    assert_eq!(launch.fused, vec![true, false], "the scan hands its run to the sort");
    let err = sim.block_on(async move { system.run_query(&plan).await.unwrap_err() });
    let CoreError::Worker { message, .. } = &err else { panic!("expected a worker error: {err}") };
    assert!(message.starts_with("sort#1 (fused after scan:lineitem#0): "), "{message}");
    assert!(message.contains("out of memory: sort partition"), "{message}");
}
