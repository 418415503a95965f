//! Fused chains: between two one-worker fleets a stage edge is an
//! identity, so the consumer runs inside its host, the producer's
//! invocation — a join too, whose other side's producers post their
//! reports to the running host's inbox. The planner's Q12, Q5 and Q3 with
//! cost-model-sized tails must fuse exactly their one-worker joins and
//! tails, match the reference executor, spend no request and leave no
//! object on a host edge, and still report every stage on its own — on
//! both transports. A host hears its other side without a relay through
//! the driver and a backed-up producer once; a host whose other side is
//! late falls back to the transport after a bounded wait, a killed host
//! ends in a typed timeout, and no path leaves a queue, an endpoint or an
//! object behind. A one-worker scan that a hosted join alone reads runs
//! beside the chain in the host's invocation: a host that falls back runs
//! it again in the fleet that picks the chain up, with every request
//! counted, and its error ends the invocation at once. Every launch
//! hands its workers one list, the chain from the stage it starts at, so
//! a co-hosted scan's error names the invocation it ran in. A packed scan
//! whose only reader runs one worker folds into that reader's invocation
//! when its predicted span says so: at the benchmark's file sizes, not
//! over 64 files of 1 GiB, and never under a pinned `files_per_worker`;
//! at the benchmark's sizes that prediction holds to the simulated scan.

mod common;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use common::assert_quiescent;
use lambada::core::plan;
use lambada::core::worker::host_wait;
use lambada::core::{
    inject_query_worker_faults, AggStrategy, ChainStage, CoreError, Lambada, LambadaConfig,
    LaunchPlan, Placement, QueryDag, QueryReport, QueryService, ServiceConfig, SortStrategy,
    StageKind, StageReport, TransportKind, WorkerPayload, WorkerTask,
};
use lambada::engine::{
    execute_into_batch, Catalog, LogicalPlan, MemTable, Optimizer, RecordBatch, SortKey,
};
use lambada::sim::{Cloud, CloudConfig, CostItem, InjectedFault, Region, Simulation};
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

/// A query, whether it sorts serverlessly, and the edges its model-sized
/// fleets must hand on in memory, as `(producer, consumer)` labels in
/// chain order: a consumer's first pair names its host, a later one a
/// scan co-hosted in that host's invocation.
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
            fused: &[("scan:orders#0", "join#2"), ("join#2", "agg#3"), ("agg#3", "sort#4")],
        },
        Case {
            name: "Q5",
            plan: lambada::workloads::q5("lineitem", "orders", "customer"),
            sort: true,
            // The orders scan's chain is the deeper input of join#4; the
            // one-worker customer scan is co-hosted beside it.
            fused: &[
                ("scan:orders#2", "join#3"),
                ("join#3", "join#4"),
                ("scan:customer#0", "join#4"),
                ("join#4", "agg#5"),
                ("agg#5", "sort#6"),
            ],
        },
        Case {
            name: "Q3",
            plan: lambada::workloads::q3("lineitem", "orders"),
            sort: false,
            fused: &[("scan:orders#1", "join#2"), ("join#2", "agg#3")],
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

fn check_fused_run(case: &Case, dag: &QueryDag, report: &QueryReport, what: &str) {
    let id = |label: &str| report.stages.iter().position(|s| s.label == label).unwrap();
    let fused: Vec<(usize, usize)> = case.fused.iter().map(|(p, c)| (id(p), id(c))).collect();
    // The chains are exactly the expected handed edges: a consumer runs
    // in its host's chain, and a co-hosted scan in its reader's.
    let mut head: Vec<Option<usize>> = vec![None; report.stages.len()];
    for &(p, c) in &fused {
        match head[c] {
            None => head[c] = Some(head[p].unwrap_or(p)),
            Some(h) => head[p] = Some(h),
        }
    }
    for s in &report.stages {
        let head = head[s.id].unwrap_or(s.id);
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
        // Nothing crossed the fused edge: no PUT from its host (which
        // reports nothing either), no exchanged bytes, no LIST by its
        // consumer and no GET or mailbox fetch beyond one per sender of
        // its other in-edges — none when the host edge is its only one.
        assert_eq!(producer.put_requests, 0, "{what}: {} PUT", producer.label);
        assert_eq!(producer.bytes_exchanged, 0, "{what}: {} shipped bytes", producer.label);
        let others: usize = dag.stages[c]
            .inputs()
            .into_iter()
            .filter(|&i| i != p)
            .map(|i| report.stages[i].workers)
            .sum();
        assert_eq!(consumer.list_requests, 0, "{what}: {} listed", consumer.label);
        assert!(
            consumer.get_requests + consumer.p2p_requests <= others as u64,
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
            let dag = system.plan(&case.plan).unwrap();
            // Through the ungated service, so the admission estimate —
            // which drops fused edges and counts one invocation per
            // chain — can be held against the actuals.
            let service = QueryService::with_config(
                system,
                ServiceConfig { max_inflight_workers: 0, ..ServiceConfig::default() },
            );
            let estimate = service.estimate(&case.plan).unwrap();
            let queues = cloud.sqs.queue_count();
            let report = sim.block_on(service.run("t", &case.plan)).unwrap();
            let spent = report.request_dollars(&cloud.billing.prices());
            assert!(spent <= estimate.request_dollars, "{what}: an over-estimate");
            assert_eq!(report.batch, reference, "{what}: bit for bit");
            // Cold starts spread past a host's bound may make it fall back.
            bounded_fallbacks(&case, &cloud, config.memory_mib, &report, &what);
            assert_quiescent(&sim, &cloud, &config, queues);
            // Warm, every chain holds.
            let warm = sim.block_on(service.run("t", &case.plan)).unwrap();
            assert_eq!(warm.batch, reference, "{what}: warm, bit for bit");
            check_fused_run(&case, &dag, &warm, &format!("{what}, warm"));
            assert_quiescent(&sim, &cloud, &config, queues);
        }
    }
}

/// Every host of `report`'s run that fell back at a waiting member did so
/// the bounded way: its own wait for that member lasted at least its
/// bound — the shortest, with no free quantum and no spill — and the
/// fallback cost exactly one invocation more. A join waits when only its
/// host hands it an edge — beside a co-hosted scan it waits for nothing.
/// A case's chain waits at its waiting joins one after the other, and
/// each is waited for once — by the invocation it holds in or falls back
/// from — so the run's waits, in time order, are those joins' in chain
/// order.
fn bounded_fallbacks(case: &Case, cloud: &Cloud, memory: u32, report: &QueryReport, what: &str) {
    let id = |label: &str| report.stages.iter().position(|s| s.label == label).unwrap();
    let fell_back = |label: &str| report.stages[id(label)].chain == id(label);
    let handed = |c: &str| case.fused.iter().filter(|&&(_, x)| x == c).count();
    let waiting = |c: &&str| c.starts_with("join") && handed(c) == 1;
    let joins: Vec<&str> = case.fused.iter().map(|&(_, c)| c).filter(waiting).collect();
    let fallbacks = joins.iter().filter(|c| fell_back(c)).count();
    let slots: usize = report.stages.iter().map(|s| s.workers).sum();
    let invocations = slots - case.fused.len() + fallbacks;
    assert_eq!(report.invocations() as usize, invocations, "{what}: one more a fallback");
    let (prices, quantum) = (cloud.billing.prices(), cloud.config.faas.billing_quantum);
    let bound = host_wait(&prices, memory, quantum, 0.0, false);
    let mut waits = cloud.trace.spans("inbox_wait");
    waits.sort_by_key(|w| w.start);
    assert_eq!(waits.len(), joins.len(), "{what}: one wait a join, {waits:?}");
    for (join, wait) in joins.iter().zip(&waits) {
        let waited = wait.duration_secs();
        if fell_back(join) {
            assert!(waited >= bound, "{what}: {join} fell back after {waited} s of {bound}");
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
        let mut system = Lambada::install(&cloud, config.clone());
        stage_tables(&cloud, &mut system);
        let plan = case.plan.clone();
        let queues = cloud.sqs.queue_count();
        let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
        assert_quiescent(&sim, &cloud, &config, queues);
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
    let mut system = Lambada::install(&cloud, config.clone());
    system.register_table(spec);
    let queues = cloud.sqs.queue_count();
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
    let fused = vec![Placement::Fused, Placement::Apart];
    assert_eq!(launch.placement, fused, "the scan hands its run to the sort");
    let err = sim.block_on(async move { system.run_query(&plan).await.unwrap_err() });
    let CoreError::Worker { message, .. } = &err else { panic!("expected a worker error: {err}") };
    assert!(message.starts_with("sort#1 (fused after scan:lineitem#0): "), "{message}");
    assert!(message.contains("out of memory: sort partition"), "{message}");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// The object-store Q12 of [`cases`] on a fresh cloud with `config`,
/// faulted by `fault`, next to the reference result; the run's outcome
/// and the queue count before it.
fn faulted_q12(
    config: &LambadaConfig,
    fault: impl Fn(&lambada::core::WorkerPayload) -> Option<InjectedFault> + 'static,
) -> (Simulation, Cloud, RecordBatch, Result<QueryReport, CoreError>, usize) {
    let case = cases().remove(0);
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let mut system = Lambada::install(&cloud, config.clone());
    let cat = stage_tables(&cloud, &mut system);
    let reference =
        execute_into_batch(&Optimizer::new().optimize(&case.plan).unwrap(), &cat).unwrap();
    inject_query_worker_faults(&cloud, fault);
    let queues = cloud.sqs.queue_count();
    let outcome = sim.block_on(async move { system.run_query(&case.plan).await });
    (sim, cloud, reference, outcome, queues)
}

/// Whether `payload` scans `table`.
fn scans(payload: &lambada::core::WorkerPayload, table: &str) -> bool {
    match &payload.task {
        WorkerTask::Stage(list) => {
            matches!(&list[0].task.kind, StageKind::Scan(s) if s.table == table)
        }
        _ => false,
    }
}

/// The other side of Q12's join — the lineitem scan — runs 30× slow, so
/// its addresses miss the host's bound: the orders scan waits no longer
/// than its wait bound, then ships its section after all — one PUT on the
/// object store, one relay message on the direct transport, as the
/// unfused edge would — and the join, its agg and sort run as a fleet of
/// their own (one more invocation). The result is bit for bit the
/// reference, and the inbox and the host's file are gone.
#[test]
fn a_late_other_side_makes_the_host_fall_back_within_its_wait_bound() {
    for transport in [TransportKind::ObjectStore, TransportKind::Direct] {
        let config = config(true, transport);
        let memory = config.memory_mib;
        let slow = |p: &lambada::core::WorkerPayload| {
            scans(p, "lineitem").then(|| InjectedFault::slowdown(30.0))
        };
        let (sim, cloud, reference, outcome, queues) = faulted_q12(&config, slow);
        let report = outcome.unwrap();
        let what = format!("{transport:?}");
        assert_eq!(report.batch, reference, "{what}: bit for bit");
        assert_quiescent(&sim, &cloud, &config, queues);
        let id = |label: &str| report.stages.iter().position(|s| s.label == label).unwrap();
        let (host, join) = (&report.stages[id("scan:orders#0")], &report.stages[id("join#2")]);
        assert_eq!((host.chain, join.chain), (host.id, join.id), "{what}: the join ran alone");
        assert_eq!(report.stages[id("sort#4")].chain, join.id, "{what}: its tail ran in it");
        let slots: usize = report.stages.iter().map(|s| s.workers).sum();
        assert_eq!(report.invocations() as usize, slots - 2, "{what}: one invocation more");
        let stored = transport == TransportKind::ObjectStore;
        let shipped = (host.put_requests, host.p2p_requests);
        assert_eq!(shipped, if stored { (1, 0) } else { (0, 1) }, "{what}: the host's one send");
        // Its one file was the query's one object, and the query deleted
        // it (the fresh cloud had deleted nothing before).
        let objects = edge_objects(&sim, &cloud, &config, report.query_id, host.id);
        assert_eq!(objects, 0, "{what}: objects under the host's channel");
        assert_eq!(cloud.s3.deleted_objects(), u64::from(stored), "{what}: objects deleted");

        // The host idled at least the bound past its quantum and at most
        // the rest of that quantum more, plus the inbox poll's round trip:
        // its billed time is its own work, the bound and the send.
        let prices = cloud.billing.prices();
        let quantum = cloud.config.faas.billing_quantum;
        let idle = host_wait(&prices, memory, quantum, 0.0, stored);
        let waits = cloud.trace.durations("inbox_wait");
        assert_eq!(waits.len(), 1, "{what}: {waits:?}");
        let latency = 5.0 * cloud.config.sqs.latency_median.as_secs_f64();
        let bounded = waits[0] >= idle && waits[0] <= idle + quantum + latency;
        assert!(bounded, "{what}: {waits:?} against {idle}");
    }
}

/// A host killed mid-flight never reports: under a small `max_wait` the
/// query ends in a typed timeout — it does not hang on the inbox — and
/// leaves no queue, no object and no task behind.
#[test]
fn a_killed_host_is_a_timeout_and_leaves_no_inbox() {
    let config = LambadaConfig {
        max_wait: Duration::from_secs(5),
        ..config(true, TransportKind::ObjectStore)
    };
    let kill = |p: &lambada::core::WorkerPayload| {
        scans(p, "orders").then(|| InjectedFault::kill(Duration::from_millis(10)))
    };
    let (sim, cloud, _, outcome, queues) = faulted_q12(&config, kill);
    let err = outcome.unwrap_err();
    assert!(matches!(err, CoreError::Timeout { missing_workers: 1, .. }), "{err}");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// Q12's producers post their reports straight to the host's inbox, so
/// in `Region::Us` — a 110 ms driver round trip, which a relay through
/// the driver would add — the host's wait still ends within three
/// in-region queue latencies of the last lineitem worker's end. The
/// chain holds and the result is the reference's.
#[test]
fn the_host_hears_its_other_side_from_the_producers() {
    let case = cases().remove(0);
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig { region: Region::Us, ..CloudConfig::default() });
    let config = config(true, TransportKind::ObjectStore);
    let mut system = Lambada::install(&cloud, config.clone());
    let cat = stage_tables(&cloud, &mut system);
    let reference =
        execute_into_batch(&Optimizer::new().optimize(&case.plan).unwrap(), &cat).unwrap();
    let dag = system.plan(&case.plan).unwrap();
    let queues = cloud.sqs.queue_count();
    let report = sim.block_on(system.run_query(&case.plan)).unwrap();
    assert_eq!(report.batch, reference, "bit for bit");
    check_fused_run(&case, &dag, &report, "Us");
    assert_quiescent(&sim, &cloud, &config, queues);

    // Every invocation but the host's ended before the host's: the host
    // runs the join, its agg and its sort after the lineitem scan's end.
    let mut execs = cloud.trace.spans("faas_exec");
    execs.sort_by_key(|e| e.end);
    execs.pop();
    let lineitem = report.stages.iter().find(|s| s.label == "scan:lineitem#1").unwrap();
    assert_eq!(execs.len(), lineitem.workers, "one invocation per lineitem worker");
    let last = execs.iter().map(|e| e.end).max().unwrap();
    let waits = cloud.trace.spans("inbox_wait");
    assert_eq!(waits.len(), 1, "{waits:?}");
    let latency = cloud.config.sqs.latency_median;
    assert!(waits[0].end <= last + 3 * latency, "waited until {} for {last}", waits[0].end);
}

/// A slowed lineitem producer is backed up, and both its attempts post to
/// the host's inbox before the host — slowed too — reads it: the host
/// keeps the first report per worker, whichever attempt, so the join
/// reads worker 0's section once and matches the reference, and its
/// chain holds: the query costs no invocation but the backup.
#[test]
fn a_backed_up_producer_reaches_the_host_once() {
    let case = cases().remove(0);
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let config = LambadaConfig { speculate: true, ..config(true, TransportKind::ObjectStore) };
    let mut system = Lambada::install(&cloud, config.clone());
    let cat = stage_tables(&cloud, &mut system);
    let reference =
        execute_into_batch(&Optimizer::new().optimize(&case.plan).unwrap(), &cat).unwrap();
    let dag = system.plan(&case.plan).unwrap();
    let queues = cloud.sqs.queue_count();
    // Warm first: a cold lineitem fleet's spans would hide the straggler.
    let warm = sim.block_on(system.run_query(&case.plan)).unwrap();
    assert_eq!(warm.batch, reference, "warm-up, bit for bit");
    check_fused_run(&case, &dag, &warm, "warm-up");
    inject_query_worker_faults(&cloud, |p| {
        if scans(p, "orders") {
            return Some(InjectedFault::slowdown(200.0));
        }
        let straggler = scans(p, "lineitem") && p.worker_id == 0 && p.attempt == 0;
        straggler.then_some(InjectedFault {
            compute_factor: 50.0,
            nic_factor: 0.001,
            kill_after: None,
        })
    });
    cloud.trace.clear();
    let report = sim.block_on(system.run_query(&case.plan)).unwrap();
    assert_eq!(report.batch, reference, "bit for bit");
    let id = |label: &str| report.stages.iter().position(|s| s.label == label).unwrap();
    let lineitem = &report.stages[id("scan:lineitem#1")];
    assert_eq!((lineitem.workers, lineitem.backup_invocations), (2, 1));
    assert_eq!(report.stages[id("join#2")].chain, id("scan:orders#0"), "the chain held");
    let slots: usize = report.stages.iter().map(|s| s.workers).sum();
    assert_eq!(report.invocations() as usize, slots - case.fused.len() + 1, "and the backup");
    // Both attempts of worker 0, and worker 1, had ended when the host
    // began to wait.
    let execs = cloud.trace.spans("faas_exec");
    let wait = cloud.trace.spans("inbox_wait").pop().unwrap();
    assert_eq!(execs.iter().filter(|e| e.end <= wait.start).count(), 3, "{execs:?}");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// Every lineitem worker runs 30× slow.
fn slow_lineitem(p: &lambada::core::WorkerPayload) -> Option<InjectedFault> {
    scans(p, "lineitem").then(|| InjectedFault::slowdown(30.0))
}

/// Q5's customer scan runs beside the chain in the orders scan's
/// invocation. Warm, then with every lineitem worker 30× slow, the host
/// falls back at join#3 — the lineitem reports miss its bound — and drops
/// the scan's parts; the fleet that picks the chain up at join#3 runs the
/// scan again. On both transports the result is the reference's bit for
/// bit, the fallback costs one invocation, the dropped scan's requests
/// count in the host's report — so the stages' GETs and PUTs are exactly
/// the billed ones — and nothing is left behind.
#[test]
fn a_host_that_falls_back_runs_its_co_hosted_scan_again() {
    for transport in [TransportKind::ObjectStore, TransportKind::Direct] {
        let what = format!("{transport:?}");
        let case = cases().remove(1);
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = config(case.sort, transport);
        let mut system = Lambada::install(&cloud, config.clone());
        let cat = stage_tables(&cloud, &mut system);
        let reference =
            execute_into_batch(&Optimizer::new().optimize(&case.plan).unwrap(), &cat).unwrap();
        let dag = system.plan(&case.plan).unwrap();
        let queues = cloud.sqs.queue_count();
        let warm = sim.block_on(system.run_query(&case.plan)).unwrap();
        check_fused_run(&case, &dag, &warm, &format!("{what}, warm-up"));
        inject_query_worker_faults(&cloud, slow_lineitem);
        let report = sim.block_on(system.run_query(&case.plan)).unwrap();
        assert_eq!(report.batch, reference, "{what}: bit for bit");

        let id = |label: &str| report.stages.iter().position(|s| s.label == label).unwrap();
        let (host, join, customer) = (id("scan:orders#2"), id("join#3"), id("scan:customer#0"));
        assert_eq!(report.stages[join].chain, join, "{what}: the host fell back at join#3");
        assert_eq!(report.stages[customer].chain, join, "{what}: the fallback ran the scan");
        let slots: usize = report.stages.iter().map(|s| s.workers).sum();
        assert_eq!(report.invocations() as usize, slots - case.fused.len() + 1, "{what}");
        // The host's GETs are its own scan's and the dropped scan's.
        let gets = |r: &QueryReport, sid: usize| r.stages[sid].get_requests;
        assert_eq!(gets(&report, host), gets(&warm, host) + gets(&warm, customer), "{what}");
        assert_eq!(gets(&report, customer), gets(&warm, customer), "{what}");
        let billed = |item| report.cost.units(item) as u64;
        let counted = |f: fn(&StageReport) -> u64| report.stages.iter().map(f).sum::<u64>();
        let (got, put) = (counted(|s| s.get_requests + s.hedged_gets), billed(CostItem::S3Put));
        assert_eq!(billed(CostItem::S3Get), got, "{what}: every billed GET is a stage's");
        assert_eq!(put, counted(|s| s.put_requests + s.hedged_puts), "{what}: and every PUT");
        assert_quiescent(&sim, &cloud, &config, queues);
    }
}

/// A co-hosted scan's error ends its invocation at once. Q5 over a
/// customer table whose file keys do not exist, with every lineitem
/// worker 30× slow so that the host's join#3 wait would last its whole
/// bound, fails with the scan's typed error, named by the scan and the
/// chain it is co-hosted in. The host's invocation ends before that wait
/// could, and the query leaves nothing behind.
#[test]
fn a_co_hosted_scan_error_ends_its_invocation_at_once() {
    let case = cases().remove(1);
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let config = config(case.sort, TransportKind::ObjectStore);
    let mut system = Lambada::install(&cloud, config.clone());
    stage_tables(&cloud, &mut system);
    let mut customer = stage_real_customer(&cloud, "tpch", "customer", customer_opts());
    for file in &mut customer.files {
        file.key.push_str(".gone");
    }
    let gone = customer.files[0].key.clone();
    system.register_table(customer);
    let queues = cloud.sqs.queue_count();
    // Q12 warms as many containers as Q5 launches invocations.
    sim.block_on(system.run_query(&cases().remove(0).plan)).unwrap();
    inject_query_worker_faults(&cloud, slow_lineitem);
    cloud.trace.clear();
    let start = sim.now();
    let err = sim.block_on(system.run_query(&case.plan)).unwrap_err();
    let CoreError::Worker { message, .. } = &err else { panic!("a worker error: {err}") };
    let named = "scan:customer#0 (co-hosted in scan:orders#2): ";
    assert!(message.starts_with(named) && message.contains(&gone), "{message}");

    let (prices, quantum) = (cloud.billing.prices(), cloud.config.faas.billing_quantum);
    let bound = host_wait(&prices, config.memory_mib, quantum, 0.0, false);
    let waits = cloud.trace.spans("inbox_wait");
    assert!(waits.is_empty(), "the host's wait never ended: {waits:?}");
    let host_end = cloud.trace.spans("faas_exec").iter().map(|e| e.end).min().unwrap();
    let by = start + Duration::from_secs_f64(bound);
    assert!(host_end < by, "the host ended at {host_end}, the wait not before {by}");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// The stage ids of `list`'s entries, read from their labels.
fn list_sids(dag: &QueryDag, list: &[ChainStage]) -> Vec<usize> {
    let plain = |s: &ChainStage| s.label.split(" (").next().unwrap().to_string();
    let id = |label: String| (0..dag.stages.len()).find(|&i| dag.stages[i].label(i) == label);
    list.iter().map(|s| id(plain(s)).unwrap()).collect()
}

/// `list` is a launch's list for the stages `want`, in that order, each
/// entry as the launch plan implies: a co-hosted scan flagged and named
/// by the launch's first stage, its slot its own at its reader — the
/// next member; a member named by its host, the member before it, its
/// slot its host's; a member that waits for another in-edge addressed at
/// that edge's inbox.
fn check_list(launch: &LaunchPlan<'_>, list: &[ChainStage], want: &[usize], what: &str) {
    let dag = launch.edges.dag;
    assert_eq!(list_sids(dag, list), want, "{what}");
    let label = |sid: usize| dag.stages[sid].label(sid);
    let slot_in = |p: usize, c: usize| dag.stages[c].inputs().iter().position(|&i| i == p);
    let mut host = None;
    for (k, (entry, &sid)) in list.iter().zip(want).enumerate() {
        let what = format!("{what}: {}", entry.label);
        let inputs = dag.stages[sid].inputs();
        let cohosted = launch.placement[sid] == Placement::CoHosted;
        assert_eq!(entry.cohosted, cohosted, "{what}");
        let own_host = inputs.iter().copied().find(|&p| launch.placement[p] == Placement::Fused);
        let slot = if cohosted {
            let reader =
                want[k..].iter().copied().find(|&c| launch.placement[c] != Placement::CoHosted);
            slot_in(sid, reader.unwrap())
        } else {
            own_host.map_or(Some(0), |h| slot_in(h, sid))
        };
        assert_eq!(Some(entry.slot), slot, "{what}");
        let apart = inputs.iter().position(|&p| launch.placement[p] == Placement::Apart);
        let inbox = entry.inbox.as_ref().map(|i| (i.slot, i.senders));
        let waits = apart.filter(|_| own_host.is_some() && !cohosted);
        assert_eq!(inbox, waits.map(|slot| (slot, launch.workers[inputs[slot]])), "{what}");
        let named = match (k, host) {
            (0, _) => label(sid),
            _ if cohosted => format!("{} (co-hosted in {})", label(sid), label(want[0])),
            (_, Some(h)) => format!("{} (fused after {})", label(sid), label(h)),
            (_, None) => panic!("{what}: a member with no host before it"),
        };
        assert_eq!(entry.label, named, "{what}");
        if !cohosted {
            host = Some(sid);
        }
    }
}

/// Every list `run` hands a worker, captured through the fault injector,
/// which slows every lineitem worker 30× when `slow`.
fn captured_lists(
    sim: &Simulation,
    cloud: &Cloud,
    system: &Lambada,
    plan: &LogicalPlan,
    slow: bool,
) -> (QueryReport, Vec<Rc<[ChainStage]>>) {
    let lists = Rc::new(RefCell::new(Vec::new()));
    let seen = Rc::clone(&lists);
    inject_query_worker_faults(cloud, move |p: &WorkerPayload| {
        if let WorkerTask::Stage(list) = &p.task {
            seen.borrow_mut().push(Rc::clone(list));
        }
        slow.then(|| slow_lineitem(p)).flatten()
    });
    let report = sim.block_on(system.run_query(plan)).unwrap();
    let lists = lists.take();
    (report, lists)
}

/// Every payload of a warm Q5 carries the chain of the stage it launches,
/// `LaunchPlan::chain(head)`; with every lineitem worker 30× slow the
/// host falls back at join#3, and the launch that picks the chain up
/// carries the rest of the orders scan's chain from join#3 — its customer
/// scan named by join#3, the invocation it runs in. On both transports.
#[test]
fn each_launch_hands_its_workers_the_chain_from_where_it_starts() {
    for transport in [TransportKind::ObjectStore, TransportKind::Direct] {
        let what = format!("{transport:?}");
        let case = cases().remove(1);
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = config(case.sort, transport);
        let mut system = Lambada::install(&cloud, config.clone());
        let cat = stage_tables(&cloud, &mut system);
        let reference =
            execute_into_batch(&Optimizer::new().optimize(&case.plan).unwrap(), &cat).unwrap();
        let dag = system.plan(&case.plan).unwrap();
        let launch = system.launch_plan(&dag, None).unwrap();
        let id = |label: &str| (0..dag.stages.len()).find(|&i| dag.stages[i].label(i) == label);
        let (host, join) = (id("scan:orders#2").unwrap(), id("join#3").unwrap());
        let queues = cloud.sqs.queue_count();
        // Cold starts spread may break a chain: warm first.
        sim.block_on(system.run_query(&case.plan)).unwrap();

        let (warm, lists) = captured_lists(&sim, &cloud, &system, &case.plan, false);
        assert_eq!(warm.batch, reference, "{what}: warm, bit for bit");
        check_fused_run(&case, &dag, &warm, &format!("{what}, warm"));
        assert_eq!(lists.len(), warm.invocations() as usize, "{what}: one list an invocation");
        for list in &lists {
            let head = list_sids(&dag, list)[0];
            check_list(&launch, list, &launch.chain(head), &format!("{what}, warm"));
        }

        let (report, lists) = captured_lists(&sim, &cloud, &system, &case.plan, true);
        assert_eq!(report.batch, reference, "{what}: bit for bit");
        assert_eq!(report.stages[join].chain, join, "{what}: the host fell back at join#3");
        assert_eq!(lists.len(), report.invocations() as usize, "{what}: one list an invocation");
        let chain = launch.chain(host);
        let rest = &chain[chain.iter().position(|&sid| sid == join).unwrap()..];
        let mut fallbacks = 0;
        for list in &lists {
            let head = list_sids(&dag, list)[0];
            let (want, what) = match head == join {
                true => (rest.to_vec(), format!("{what}, the fallback")),
                false => (launch.chain(head), format!("{what}, slow")),
            };
            fallbacks += usize::from(head == join);
            check_list(&launch, list, &want, &what);
        }
        assert_eq!(fallbacks, 1, "{what}: one launch picks the chain up");
        assert_quiescent(&sim, &cloud, &config, queues);
    }
}

/// A co-hosted scan's error names the invocation it ran in, after a
/// fallback too. Q5 with every lineitem worker 30× slow falls back at
/// join#3; once the first invocation has ended — its customer scan had
/// read the customer files by then — a sim task deletes those files, so
/// the fleet that picks the chain up at join#3 fails to scan them, and
/// the error names the scan co-hosted in join#3. Nothing is left behind.
#[test]
fn a_co_hosted_scan_error_after_a_fallback_names_the_launch_it_ran_in() {
    let case = cases().remove(1);
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let config = config(case.sort, TransportKind::ObjectStore);
    let mut system = Lambada::install(&cloud, config.clone());
    stage_tables(&cloud, &mut system);
    let customer = system.table("customer").unwrap();
    let queues = cloud.sqs.queue_count();
    let warm = sim.block_on(system.run_query(&case.plan)).unwrap();
    let dag = system.plan(&case.plan).unwrap();
    check_fused_run(&case, &dag, &warm, "warm-up");
    inject_query_worker_faults(&cloud, slow_lineitem);
    cloud.trace.clear();
    let deleter = cloud.clone();
    cloud.handle.spawn(async move {
        while deleter.trace.spans("faas_exec").is_empty() {
            deleter.handle.sleep(Duration::from_millis(1)).await;
        }
        for file in &customer.files {
            deleter.s3.delete_objects(&file.bucket, [&file.key]);
        }
    });
    let err = sim.block_on(system.run_query(&case.plan)).unwrap_err();
    let CoreError::Worker { message, .. } = &err else { panic!("a worker error: {err}") };
    let named = "scan:customer#0 (co-hosted in join#3): ";
    assert!(message.starts_with(named), "{message}");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// `lineitem` in `files` files of `size` bytes each (about 28 B a row,
/// as the benchmark's SF 0.02 lineitem), beside the benchmark's orders
/// and customer sizes: fake-sized files, enough for a launch plan.
fn sized_tables(files: usize, size: u64) -> plan::Tables {
    use lambada::core::{TableFile, TableSpec};
    use lambada::workloads::{customer_schema, orders_schema};
    let sized = |name: &str, n: usize, size: u64| {
        (0..n).map(|f| TableFile::real("tpch", format!("{name}/{f}"), size)).collect::<Vec<_>>()
    };
    let rows = files as u64 * size / 28;
    let li = sized("lineitem", files, size);
    let orders = sized("orders", 4, 580_000);
    let customer = sized("customer", 2, 578_000);
    let specs = [
        TableSpec::new("lineitem", lineitem_schema(), li, rows),
        TableSpec::new("orders", orders_schema(), orders, 120_000),
        TableSpec::new("customer", customer_schema(), customer, 49_999),
    ];
    specs.into_iter().map(|spec| (spec.name.clone(), Rc::new(spec))).collect()
}

/// Q5 under the join-and-sort exchange config, Q3 under the direct
/// group-by one (the benchmark's `join_shuffle` and `groupby_direct`),
/// each with `edit` applied to its config.
fn benchmark_plans(edit: fn(LambadaConfig) -> LambadaConfig) -> Vec<(LogicalPlan, LambadaConfig)> {
    let exchange = AggStrategy::Exchange { workers: None };
    let q5 = LambadaConfig {
        agg: exchange,
        sort: SortStrategy::Exchange { workers: None },
        ..LambadaConfig::default()
    };
    let q3 = LambadaConfig {
        agg: exchange,
        transport: TransportKind::Direct,
        ..LambadaConfig::default()
    };
    vec![
        (lambada::workloads::q5("lineitem", "orders", "customer"), edit(q5)),
        (lambada::workloads::q3("lineitem", "orders"), edit(q3)),
    ]
}

/// The launch plan of `query` over `files` lineitem files of `size` bytes,
/// with the lineitem scan's id and its one reader's: planned from the
/// tables and the default cloud config alone, with no simulation.
fn lineitem_launch(
    query: &LogicalPlan,
    config: LambadaConfig,
    files: usize,
    size: u64,
    check: impl FnOnce(&LaunchPlan<'_>, usize, usize),
) {
    let tables = sized_tables(files, size);
    let dag = plan::lower(query, &tables, &config).unwrap();
    let launch = plan::launch_plan(&dag, &tables, &config, &CloudConfig::default(), None).unwrap();
    let li = dag
        .stages
        .iter()
        .position(|k| matches!(k, lambada::core::StageKind::Scan(s) if s.table == "lineitem"))
        .unwrap();
    let reader = match launch.edges.readers[li][..] {
        [lambada::core::stage::Reader { stage: Some(c), .. }] => c,
        _ => panic!("lineitem has one stage reader"),
    };
    check(&launch, li, reader);
}

/// Whether `a` and `b` run in one invocation: some chain lists both.
fn one_invocation(launch: &LaunchPlan<'_>, a: usize, b: usize) -> bool {
    (0..launch.workers.len()).any(|h| {
        let chain = launch.chain(h);
        chain.contains(&a) && chain.contains(&b)
    })
}

/// At the benchmark's sizes — eight lineitem files of about 420 KB —
/// packing gives the lineitem scan two workers, and crossing to the
/// one-worker join costs a PUT, a message and a GET more than reading
/// all eight files beside it: Q5's and Q3's lineitem scans run as one
/// worker over every file, in the join's invocation.
#[test]
fn a_small_scan_folds_into_its_one_worker_readers_invocation() {
    for (plan, config) in benchmark_plans(|c| c) {
        lineitem_launch(&plan, config, 8, 420_000, |launch, li, join| {
            assert_eq!((launch.workers[li], launch.workers[join]), (1, 1));
            assert_ne!(launch.placement[li], Placement::Apart);
            assert!(one_invocation(launch, li, join));
            let runs = &launch.scans[li].as_ref().unwrap().chunks;
            assert_eq!((runs.len(), runs[0].clone()), (1, 0..8), "one run of every file");
        });
    }
}

/// The fold's price holds to the simulation: at the benchmark's sizes
/// (SF 0.02: eight lineitem files of about 415 KB, four orders files and
/// the customer file, four row groups a file, data seed 1), the span the
/// planner predicts for Q5's and Q3's folded lineitem scan is within
/// [0.8, 1.25] of the scan's simulated time in its invocation — from the
/// invocation's start to the scan's handoff — over four warm runs.
#[test]
fn a_folded_scans_predicted_span_holds_to_the_simulation() {
    for (query, config) in benchmark_plans(|c| c) {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let li = StageOptions { scale: 0.02, num_files: 8, row_groups_per_file: 4, seed: 1 };
        let li = stage_real(&cloud, "tpch", "lineitem", li);
        let rows = lambada::workloads::orders::rows_matching_lineitem(li.total_rows);
        let ord = OrdersStageOptions { rows, num_files: 4, row_groups_per_file: 4, seed: 1 };
        let cust = CustomerStageOptions { seed: 1, ..customer_opts() };
        let mut system = Lambada::install(&cloud, config.clone());
        system.register_table(li);
        system.register_table(stage_real_orders(&cloud, "tpch", "orders", ord));
        system.register_table(stage_real_customer(&cloud, "tpch", "customer", cust));
        let dag = system.plan(&query).unwrap();
        let launch = system.launch_plan(&dag, None).unwrap();
        let is_lineitem = |k: &StageKind| matches!(k, StageKind::Scan(s) if s.table == "lineitem");
        let scan = dag.stages.iter().position(is_lineitem).unwrap();
        assert_eq!(launch.workers[scan], 1, "the lineitem scan folds");
        let predicted = launch.one_worker_scan_secs(scan, &config, &cloud.config).unwrap();
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let report = sim.block_on(system.run_dag(&dag)).unwrap();
                let at: usize = report.stages[..scan].iter().map(|s| s.workers).sum();
                report.worker_metrics[at].processing_secs
            })
            .collect();
        let simulated = runs[1..].iter().sum::<f64>() / 4.0;
        let ratio = predicted / simulated;
        assert!((0.8..=1.25).contains(&ratio), "predicted {predicted} s, simulated {runs:?} s");
    }
}

/// The same plans over 64 files of 1 GiB, their joins pinned to one
/// worker: the files are past what one worker's memory holds, and apart
/// each runs its own worker, so the scan keeps its packed width.
#[test]
fn a_large_scan_keeps_its_packed_width() {
    let pinned = |c| LambadaConfig { join_workers: Some(1), ..c };
    for (plan, config) in benchmark_plans(pinned) {
        lineitem_launch(&plan, config, 64, 1 << 30, |launch, li, join| {
            assert_eq!((launch.workers[li], launch.workers[join]), (64, 1));
            assert_eq!(launch.placement[li], Placement::Apart);
        });
    }
}

/// A pinned `files_per_worker` is §5.2's chunking and is never folded,
/// however small the files.
#[test]
fn a_pinned_scan_never_folds() {
    let pinned = |c| LambadaConfig { files_per_worker: Some(4), ..c };
    for (plan, config) in benchmark_plans(pinned) {
        lineitem_launch(&plan, config, 8, 420_000, |launch, li, join| {
            assert_eq!((launch.workers[li], launch.workers[join]), (2, 1));
            assert_eq!(launch.placement[li], Placement::Apart);
        });
    }
}

/// Every scan in an invocation rides its one payload with its inline
/// files, so a scan is co-hosted only while they all fit one worker's
/// inline budget. Two inline tables of 9,000 rows, one file each, fit it
/// alone but not together: joined with a count, the smaller scan stays
/// apart and reaches the join through its inbox, and the query matches
/// the reference executor bit for bit — where co-hosting it made one
/// payload past the invoke cap.
#[test]
fn inline_scans_that_fit_only_apart_are_not_cohosted() {
    use lambada::core::{TableFile, TableSpec, INLINE_RESULT_BYTES};
    use lambada::engine::{AggExpr, AggFunc, Df};
    use lambada::workloads::{customer_schema, loader, orders_schema};
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    let rows = 9_000;
    let orders = OrdersStageOptions { rows, num_files: 1, row_groups_per_file: 3, seed: SEED };
    let customer = CustomerStageOptions { rows, num_files: 1, row_groups_per_file: 3, seed: SEED };
    // Stage each table as one stored file, then register its bytes inline.
    let staged = [
        stage_real_orders(&cloud, "tpch", "orders", orders),
        stage_real_customer(&cloud, "tpch", "customer", customer),
    ];
    let mut sizes = Vec::new();
    for spec in staged {
        let s3 = cloud.driver_s3();
        let key = spec.files[0].key.clone();
        let body = sim.block_on(async move { s3.get("tpch", &key).await.unwrap() });
        let file = TableFile::inline(spec.files[0].key.clone(), body);
        sizes.push(file.inline_bytes());
        system.register_table(TableSpec::new(&spec.name, spec.schema, vec![file], rows));
    }
    let budget = INLINE_RESULT_BYTES as u64;
    assert!(sizes.iter().all(|&s| s <= budget), "each fits alone: {sizes:?}");
    assert!(sizes.iter().sum::<u64>() > budget, "not together: {sizes:?}");

    let count = vec![AggExpr::new(AggFunc::Count, None, "n")];
    let joined = Df::scan("orders", &orders_schema())
        .join(Df::scan("customer", &customer_schema()), &[("o_custkey", "c_custkey")])
        .unwrap();
    let plan = joined.aggregate(vec![], count).unwrap().build();
    let dag = system.plan(&plan).unwrap();
    let launch = system.launch_plan(&dag, None).unwrap();
    assert!(!launch.placement.contains(&Placement::CoHosted), "{:?}", launch.placement);
    assert!(launch.placement.contains(&Placement::Fused), "the larger scan still hosts");

    let reference = {
        let mut cat = Catalog::new();
        let mut register = |name: &str, schema: lambada::engine::Schema, cols| {
            let schema = Arc::new(schema);
            let batch = RecordBatch::new(Arc::clone(&schema), cols).unwrap();
            cat.register(name, Rc::new(MemTable::new(schema, vec![batch]).unwrap()));
        };
        let mut orders_cols = loader::generate_orders_file_columns(orders);
        let mut customer_cols = loader::generate_customer_file_columns(customer);
        register("orders", orders_schema(), orders_cols.remove(0));
        register("customer", customer_schema(), customer_cols.remove(0));
        execute_into_batch(&Optimizer::new().optimize(&plan).unwrap(), &cat).unwrap()
    };
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch, reference, "bit for bit");
}
