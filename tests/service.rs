//! The multi-tenant query service: concurrent queries on one
//! installation must match serial execution, respect per-tenant budgets
//! and the global worker cap, queue fairly across tenants, and isolate
//! faults and failures per query — and leave nothing behind: no cloud
//! resource, no tenant reservation and no worker-gate lease.

mod common;

use std::time::Duration;

use common::assert_quiescent;
use lambada::core::stage::{split_with, SplitOptions, StageKind, StageOutput};
use lambada::core::verify::codes;
use lambada::core::{
    inject_query_worker_faults, AggStrategy, CoreError, Lambada, LambadaConfig, QueryReport,
    QueryService, ServiceConfig, SortStrategy, StageSink, TenantBudget, TransportKind,
    WorkerPayload, WorkerTask, WORKER_FUNCTION,
};
use lambada::engine::logical::LogicalPlan;
use lambada::engine::{DataType, Df, Field, Optimizer, RecordBatch, Scalar, Schema};
use lambada::sim::{Cloud, CloudConfig, InjectedFault, Simulation};
use lambada::workloads::{
    q1, q12, q21, q3, q4, q5, q6, stage_real, stage_real_customer, stage_real_orders,
    CustomerStageOptions, OrdersStageOptions, StageOptions,
};

/// Is this payload a worker of an exchange-feeding scan fleet or of a
/// join fleet? (The fleets the fault-isolation tests kill a worker in.)
fn scan_exchange_or_join(p: &WorkerPayload) -> bool {
    let WorkerTask::Stage(list) = &p.task else { return false };
    matches!(
        (&list[0].task.kind, &list[0].task.sink),
        (StageKind::Scan(_), StageSink::Edge { .. } | StageSink::SortEdge { .. })
            | (StageKind::Join(_), _)
    )
}

/// The service's own leak check, once every submission has returned:
/// every tenant runs and queues nothing and holds no reserved request-$,
/// and the worker gate holds no lease.
fn assert_settled(service: &QueryService) {
    for u in service.usage_report() {
        assert_eq!((u.running, u.queued), (0, 0), "tenant {} idle", u.tenant);
        assert_eq!(u.reserved_dollars, 0.0, "tenant {} holds no reservation", u.tenant);
    }
    assert_eq!(service.inflight_workers(), 0, "the gate holds no lease");
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

/// Stage the three TPC-H tables identically on a fresh cloud and install
/// the system. Every fleet is pinned or small so fleet sizes agree
/// between the serial baseline and the (unshrunk) service run.
fn staged_system(sim: &Simulation, config: LambadaConfig) -> (Cloud, Lambada) {
    let cloud = Cloud::new(sim, CloudConfig::default());
    let seed = 33;
    let li = stage_real(
        &cloud,
        "tpch",
        "lineitem",
        StageOptions { scale: 0.005, num_files: 6, row_groups_per_file: 3, seed },
    );
    let ord = stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        OrdersStageOptions { rows: li.total_rows, num_files: 4, row_groups_per_file: 3, seed },
    );
    let cust = stage_real_customer(
        &cloud,
        "tpch",
        "customer",
        CustomerStageOptions {
            rows: lambada::workloads::customer::rows_matching_orders(),
            num_files: 3,
            row_groups_per_file: 3,
            seed,
        },
    );
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li);
    system.register_table(ord);
    system.register_table(cust);
    (cloud, system)
}

/// Lineitem-only staging for the single-table scheduling tests.
fn staged_lineitem(sim: &Simulation) -> (Cloud, Lambada) {
    let cloud = Cloud::new(sim, CloudConfig::default());
    let li = stage_real(
        &cloud,
        "tpch",
        "lineitem",
        StageOptions { scale: 0.005, num_files: 6, row_groups_per_file: 3, seed: 33 },
    );
    let mut system = Lambada::install(&cloud, service_lambada_config());
    system.register_table(li);
    (cloud, system)
}

fn service_lambada_config() -> LambadaConfig {
    LambadaConfig {
        // One scan worker per file: enough producers to warm the
        // consumers' containers, and the faults target one of several.
        files_per_worker: Some(1),
        join_workers: Some(4),
        agg: AggStrategy::Exchange { workers: Some(2) },
        sort: SortStrategy::Exchange { workers: Some(2) },
        speculate: true,
        ..LambadaConfig::default()
    }
}

/// Nine queries from three tenants, every distributed operator covered.
fn workload() -> Vec<(&'static str, LogicalPlan)> {
    vec![
        ("analytics", q3("lineitem", "orders")),
        ("analytics", q12("lineitem", "orders")),
        ("analytics", q5("lineitem", "orders", "customer")),
        ("ops", q4("lineitem", "orders")),
        ("ops", q21("lineitem", "orders")),
        ("ops", q12("lineitem", "orders")),
        ("ml", q1("lineitem")),
        ("ml", q6("lineitem")),
        ("ml", q3("lineitem", "orders")),
    ]
}

/// Serial baseline: the same queries through plain `run_query`, one at a
/// time, on an identically staged fresh cloud.
fn serial_reports() -> Vec<QueryReport> {
    let sim = Simulation::new();
    let (cloud, system) = staged_system(&sim, service_lambada_config());
    let plans: Vec<LogicalPlan> = workload().into_iter().map(|(_, p)| p).collect();
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let reports = sim.block_on(async move {
        let mut out = Vec::new();
        for plan in &plans {
            out.push(system.run_query(plan).await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    reports
}

/// The acceptance e2e: ≥ 8 concurrent queries from 3 tenants through one
/// installation under a global worker cap, with a killed worker in
/// exactly one query. Results match serial execution, budgets hold, the
/// cap holds, the fault is recovered by speculation, neighbors run
/// clean, and no result queue leaks.
#[test]
fn concurrent_service_matches_serial_execution() {
    let serial = serial_reports();

    let sim = Simulation::new();
    let (cloud, system) = staged_system(&sim, service_lambada_config());
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 24,
            max_concurrent_queries: 4,
            // Off so fleet sizes (and so float summation order) match the
            // serial baseline exactly; shrinking gets its own test below.
            shrink_fleets: false,
            default_budget: TenantBudget { max_concurrent_queries: 2, ..TenantBudget::default() },
        },
    );

    // Budgets sized from the admission estimates themselves: the
    // reservation invariant (used + reserved ≤ Σ estimates) then makes
    // every submission admissible, and the end-of-run assertion that no
    // tenant exceeded its budget is the real acceptance check.
    let mut dollar_budgets: std::collections::HashMap<&str, f64> = Default::default();
    for (tenant, plan) in &workload() {
        let est = service.estimate(plan).unwrap();
        *dollar_budgets.entry(tenant).or_default() += est.request_dollars;
    }
    for (tenant, budget) in &dollar_budgets {
        service.set_budget(
            tenant,
            TenantBudget {
                max_concurrent_queries: 2,
                max_request_dollars: Some(*budget),
                weight: 1.0,
            },
        );
    }

    // Kill worker 1's original attempt in the scan and join fleets of
    // query id 1 (the second query admitted) — and only there. Merge and
    // sort fleets are spared only to keep the kill set small: no fleet
    // waits on its peers, so a kill anywhere is recovered by the same
    // reported-quorum trigger (a killed sort producer has its own test
    // in `failure_injection.rs`).
    inject_query_worker_faults(&cloud, |p| {
        (p.query == 1 && p.worker_id == 1 && p.attempt == 0 && scan_exchange_or_join(p))
            .then(|| InjectedFault::kill(Duration::from_millis(10)))
    });

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let reports = sim.block_on(async {
        let handles: Vec<_> =
            workload().iter().map(|(tenant, plan)| service.submit(tenant, plan)).collect();
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_settled(&service);

    // Bit-identical results vs serial execution, per submission.
    assert_eq!(reports.len(), serial.len());
    for (concurrent, serial) in reports.iter().zip(&serial) {
        assert_batches_close(&concurrent.batch, &serial.batch);
        assert_eq!(concurrent.workers, serial.workers, "unshrunk fleets match the baseline");
    }

    // The killed worker was recovered by speculation inside query 1;
    // every other query ran without a single backup.
    assert!(cloud.faas.injected_kills(WORKER_FUNCTION) >= 1);
    for r in &reports {
        if r.query_id == 1 {
            assert!(r.backup_invocations() >= 1, "query 1's kill was speculated against");
        } else {
            assert_eq!(r.backup_invocations(), 0, "query {} ran clean", r.query_id);
        }
        assert!(r.span_secs >= r.latency_secs, "span includes admission queueing");
    }

    // Tenant attribution and budget compliance.
    let usage = service.usage_report();
    assert_eq!(usage.len(), 3);
    for u in &usage {
        assert_eq!(u.completed, 3, "tenant {} finished its three queries", u.tenant);
        assert_eq!(u.failed + u.rejected, 0);
        assert!(
            u.request_dollars_used <= dollar_budgets[u.tenant.as_str()],
            "tenant {} within its request-$ budget: {} <= {}",
            u.tenant,
            u.request_dollars_used,
            dollar_budgets[u.tenant.as_str()]
        );
        assert!(u.request_dollars_used > 0.0, "exact accounting really accrued");
    }
    for (r, (tenant, _)) in reports.iter().zip(workload().iter()) {
        assert_eq!(&r.tenant, tenant);
    }

    // The global in-flight worker cap held, and it actually bound (the
    // nine queries' fleets sum far past 24).
    assert!(service.peak_inflight_workers() <= 24);
    assert!(service.peak_inflight_workers() > 0);

    // No result queue leaked, faulted query included.
    assert_eq!(cloud.sqs.queue_count(), 0);
}

/// Concurrent tenants on the *direct* transport: per-query key
/// namespacing must survive the shared p2p rendezvous — every query's
/// endpoints live under its own `x{install}/q{id}/` prefix, so nine
/// interleaved queries streaming through one relay never read each
/// other's partitions, results match the serial object-store baseline,
/// and end-of-query cleanup leaves no endpoint behind.
#[test]
fn concurrent_tenants_on_direct_transport_share_the_rendezvous_cleanly() {
    let serial = serial_reports();

    let sim = Simulation::new();
    let config = LambadaConfig {
        transport: lambada::core::TransportKind::Direct,
        ..service_lambada_config()
    };
    let (cloud, system) = staged_system(&sim, config);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 24,
            max_concurrent_queries: 4,
            shrink_fleets: false,
            default_budget: TenantBudget { max_concurrent_queries: 2, ..TenantBudget::default() },
        },
    );
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let reports = sim.block_on(async {
        let handles: Vec<_> =
            workload().iter().map(|(tenant, plan)| service.submit(tenant, plan)).collect();
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(reports.len(), serial.len());
    for (direct, serial) in reports.iter().zip(&serial) {
        assert_batches_close(&direct.batch, &serial.batch);
        assert_eq!(direct.workers, serial.workers, "fleet sizes match the baseline");
        // Every join's scan edges are over their inline budget, so they
        // stream. Edges under it ride the messages and a sort edge's
        // blocks go inline or to a file, so a query of only those (Q1's
        // scan → merge → sort) — or of no edge at all (Q6) — moves
        // nothing over the relay and spends its baseline's requests.
        let joins = direct.stages.iter().any(|s| s.label.contains("join#"));
        assert_eq!(direct.p2p_requests() > 0, joins, "query {} rode the relay", direct.query_id);
        if joins {
            assert!(
                direct.s3_requests() < serial.s3_requests(),
                "query {} spent fewer S3 requests than its baseline: {} vs {}",
                direct.query_id,
                direct.s3_requests(),
                serial.s3_requests()
            );
        } else {
            assert_eq!(direct.s3_requests(), serial.s3_requests(), "query {}", direct.query_id);
        }
    }
    let (sends, bytes, drops) = cloud.p2p.counters();
    assert!(sends > 0 && bytes > 0);
    assert_eq!(drops, 0);
    // Every query's guard deregistered its endpoints; no mailbox leaks
    // across queries, and no result queue either.
    assert_eq!(cloud.p2p.endpoint_count(), 0, "rendezvous left clean");
    assert_eq!(cloud.sqs.queue_count(), 0);
}

/// With shrinking on, contention caps per-query fleets (Kassing et al.:
/// divide the shared worker budget across active queries) and results
/// still match the serial baseline.
#[test]
fn contention_shrinks_fleets_without_changing_results() {
    let serial = serial_reports();

    let sim = Simulation::new();
    let (cloud, system) = staged_system(&sim, service_lambada_config());
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 16,
            max_concurrent_queries: 4,
            shrink_fleets: true,
            default_budget: TenantBudget::default(),
        },
    );
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let reports = sim.block_on(async {
        let handles: Vec<_> =
            workload().iter().map(|(tenant, plan)| service.submit(tenant, plan)).collect();
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    for (concurrent, serial) in reports.iter().zip(&serial) {
        assert_batches_close(&concurrent.batch, &serial.batch);
        assert!(concurrent.workers <= serial.workers);
    }
    // Shrinking really engaged: at least one query ran a smaller total
    // fleet than its solo baseline (16 / 4 active caps scans to 4 of 6).
    assert!(
        reports.iter().zip(&serial).any(|(c, s)| c.workers < s.workers),
        "some fleet shrank under contention"
    );
    assert!(service.peak_inflight_workers() <= 16, "shrunk fleets never overrun the gate");
    assert_eq!(cloud.sqs.queue_count(), 0);
}

/// Weighted fair queueing: a one-query tenant is not starved by another
/// tenant's burst, and a heavier weight drains a backlog faster.
/// Two collect-rooted (filter-only) queries with different predicates,
/// submitted together. The broad one's per-worker results exceed the
/// inline limit, so every worker stores its batches under a key
/// namespaced by installation and query, and each concurrent result
/// equals its serial one — scan results used to share `results/w{worker}`
/// and the two queries overwrote each other's objects. The result PUTs
/// are also counted: one per worker for the stored query, none for the
/// narrow one, whose results ride the result messages.
#[test]
fn concurrent_collect_queries_match_their_serial_results() {
    let plans = |system: &Lambada| -> Vec<LogicalPlan> {
        let df = system.from_table("lineitem").unwrap();
        let qty = df.col("l_quantity").unwrap();
        vec![
            df.clone().filter(qty.clone().lt(lambada::engine::lit_f64(3.0))).unwrap().build(),
            df.filter(qty.gt(lambada::engine::lit_f64(8.0))).unwrap().build(),
        ]
    };

    let sim = Simulation::new();
    let (cloud, system) = staged_lineitem(&sim);
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let serial: Vec<QueryReport> = sim.block_on(async {
        let mut out = Vec::new();
        for plan in plans(&system) {
            out.push(system.run_query(&plan).await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);

    let sim = Simulation::new();
    let (cloud, system) = staged_lineitem(&sim);
    let plans = plans(&system);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 0,
            max_concurrent_queries: 2,
            shrink_fleets: false,
            default_budget: TenantBudget { max_concurrent_queries: 2, ..TenantBudget::default() },
        },
    );
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let concurrent: Vec<QueryReport> = sim.block_on(async {
        let handles: Vec<_> = plans.iter().map(|plan| service.submit("adhoc", plan)).collect();
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);

    for (c, s) in concurrent.iter().zip(&serial) {
        assert!(s.batch.num_rows() > 0);
        assert_batches_close(&c.batch, &s.batch);
        assert_eq!(c.stages.len(), 1, "a collect-rooted scan is a one-stage DAG");
    }
    let [narrow, broad] = [&concurrent[0].stages[0], &concurrent[1].stages[0]];
    assert_eq!(narrow.put_requests, 0, "small results arrive inline");
    assert_eq!(broad.put_requests, broad.workers as u64, "one result PUT each");
    assert_ne!(serial[0].batch.num_rows(), serial[1].batch.num_rows(), "distinct predicates");
}

#[test]
fn fair_queueing_interleaves_tenants() {
    let sim = Simulation::new();
    let (cloud, system) = staged_lineitem(&sim);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 0,
            max_concurrent_queries: 1,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );
    let plan = q6("lineitem");
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (burst, light) = sim.block_on(async {
        let burst: Vec<_> = (0..4).map(|_| service.submit("burst", &plan)).collect();
        let light = service.submit("light", &plan);
        let mut burst_reports = Vec::new();
        for h in burst {
            burst_reports.push(h.await.unwrap());
        }
        (burst_reports, light.await.unwrap())
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    // The burst's first query was already running, but the light tenant's
    // virtual time (0) beat the burst's advancing clock for the next
    // slot: light finishes before the burst's second query.
    assert!(
        light.span_secs < burst[1].span_secs,
        "light tenant not starved: {} vs {}",
        light.span_secs,
        burst[1].span_secs
    );
    // Everyone still finishes.
    assert_eq!(service.tenant_usage("burst").unwrap().completed, 4);
    assert_eq!(service.tenant_usage("light").unwrap().completed, 1);
}

#[test]
fn heavier_weight_drains_faster() {
    let sim = Simulation::new();
    let (cloud, system) = staged_lineitem(&sim);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 0,
            max_concurrent_queries: 1,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );
    service.set_budget("gold", TenantBudget { weight: 4.0, ..TenantBudget::default() });
    service.set_budget("bronze", TenantBudget { weight: 1.0, ..TenantBudget::default() });
    let plan = q6("lineitem");
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (gold, bronze) = sim.block_on(async {
        let gold: Vec<_> = (0..3).map(|_| service.submit("gold", &plan)).collect();
        let bronze: Vec<_> = (0..3).map(|_| service.submit("bronze", &plan)).collect();
        let mut g = Vec::new();
        for h in gold {
            g.push(h.await.unwrap());
        }
        let mut b = Vec::new();
        for h in bronze {
            b.push(h.await.unwrap());
        }
        (g, b)
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert!(
        gold.last().unwrap().span_secs < bronze.last().unwrap().span_secs,
        "the 4x-weighted tenant drains its backlog first"
    );
}

/// Per-tenant budgets: submissions whose estimate would overdraw the
/// request-$ budget are rejected up front, accepted queries are charged
/// their exact actuals, and a rejected query leaks nothing.
#[test]
fn request_budget_rejects_and_accounts_exactly() {
    let sim = Simulation::new();
    let (cloud, system) = staged_lineitem(&sim);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 0,
            max_concurrent_queries: 4,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );
    let plan = q1("lineitem");
    let est = service.estimate(&plan).unwrap();
    assert!(est.request_dollars > 0.0);
    // Room for one reservation, not two.
    let budget = 1.5 * est.request_dollars;
    service.set_budget(
        "capped",
        TenantBudget {
            max_request_dollars: Some(budget),
            max_concurrent_queries: 4,
            ..TenantBudget::default()
        },
    );
    // And a tenant with no money at all.
    service.set_budget(
        "broke",
        TenantBudget { max_request_dollars: Some(0.0), ..TenantBudget::default() },
    );
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let outcomes = sim.block_on(async {
        let handles: Vec<_> = vec![
            service.submit("capped", &plan),
            service.submit("capped", &plan),
            service.submit("capped", &plan),
            service.submit("broke", &plan),
        ];
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await);
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_settled(&service);
    assert!(outcomes[0].is_ok(), "first submission fits the budget");
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        match o {
            Err(CoreError::Rejected { tenant, reason }) => {
                assert_eq!(tenant, if i == 3 { "broke" } else { "capped" });
                assert!(!reason.is_empty());
            }
            other => panic!("submission {i} should be rejected, got {other:?}"),
        }
    }
    let capped = service.tenant_usage("capped").unwrap();
    assert_eq!((capped.completed, capped.rejected, capped.failed), (1, 2, 0));
    assert!(capped.request_dollars_used > 0.0 && capped.request_dollars_used <= budget);
    assert!(
        capped.request_dollars_used <= est.request_dollars,
        "the conservative estimate covered the actuals: {} <= {}",
        capped.request_dollars_used,
        est.request_dollars
    );
    let broke = service.tenant_usage("broke").unwrap();
    assert_eq!((broke.completed, broke.rejected), (0, 1));
    assert_eq!(broke.request_dollars_used, 0.0);
    // Rejected and completed queries alike left no result queues behind.
    assert_eq!(cloud.sqs.queue_count(), 0);
}

/// A query failing mid-wave (worker OOM) is isolated: its tenant eats
/// the failure, neighbors complete untouched, and every result queue —
/// the failed query's included — is deleted.
#[test]
fn mid_wave_failure_is_isolated_and_leaks_nothing() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let li = stage_real(
        &cloud,
        "tpch",
        "lineitem",
        StageOptions { scale: 0.01, num_files: 4, row_groups_per_file: 2, seed: 21 },
    );
    // A paper-scale descriptor table whose decoded row groups overflow a
    // 512 MiB worker (the OOM setup of the failure-injection tests).
    let doomed = lambada::workloads::stage_descriptors(
        &cloud,
        "tpch",
        "big",
        &lambada::workloads::DescriptorOptions {
            scale: 100.0,
            num_files: 2,
            row_groups_per_file: 2,
            sample_rows: 5_000,
            ..lambada::workloads::DescriptorOptions::default()
        },
    );
    let mut system =
        Lambada::install(&cloud, LambadaConfig { memory_mib: 512, ..LambadaConfig::default() });
    system.register_table(li);
    system.register_table(doomed);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 16,
            max_concurrent_queries: 4,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (ok1, err, ok2) = sim.block_on(async {
        let a = service.submit("ok", &q1("lineitem"));
        let b = service.submit("doomed", &q1("big"));
        let c = service.submit("ok", &q6("lineitem"));
        (a.await, b.await, c.await)
    });
    // Failing fast does not cancel the doomed fleet's other worker (that
    // is cancellation's job): it runs into its own OOM a minute later.
    sim.block_on(cloud.handle.sleep(Duration::from_secs(120)));
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_settled(&service);
    assert_eq!(ok1.unwrap().batch.num_rows(), 4, "neighbor unaffected by the OOM");
    assert!(matches!(err, Err(CoreError::Worker { .. })), "the OOM surfaced to its submitter");
    assert!(ok2.unwrap().batch.num_rows() > 0);
    let usage = service.tenant_usage("doomed").unwrap();
    assert_eq!((usage.completed, usage.failed), (0, 1));
    assert_eq!(service.tenant_usage("ok").unwrap().completed, 2);
    assert_eq!(cloud.sqs.queue_count(), 0, "failed query's stage queues deleted");
}

/// Ungated, uncontended: a killed worker in one query must not delay its
/// neighbors at all — their spans match a fault-free service run.
#[test]
fn fault_in_one_query_does_not_delay_neighbors() {
    let run = |fault: bool| {
        let sim = Simulation::new();
        let (cloud, system) = staged_system(&sim, service_lambada_config());
        if fault {
            inject_query_worker_faults(&cloud, |p| {
                (p.query == 2 && p.worker_id == 1 && p.attempt == 0 && scan_exchange_or_join(p))
                    .then(|| InjectedFault::kill(Duration::from_millis(10)))
            });
        }
        let service = QueryService::with_config(
            system,
            ServiceConfig {
                max_inflight_workers: 0,
                max_concurrent_queries: 16,
                shrink_fleets: false,
                default_budget: TenantBudget { max_concurrent_queries: 8, ..Default::default() },
            },
        );
        let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
        let reports = sim.block_on(async {
            let handles: Vec<_> =
                workload().iter().map(|(tenant, plan)| service.submit(tenant, plan)).collect();
            let mut out = Vec::new();
            for h in handles {
                out.push(h.await.unwrap());
            }
            out
        });
        assert_quiescent(&sim, &cloud, &config, queues);
        reports
    };
    let clean = run(false);
    let faulted = run(true);
    for (c, f) in clean.iter().zip(&faulted) {
        assert_batches_close(&c.batch, &f.batch);
        assert_eq!(c.query_id, f.query_id, "identical admission order");
        if f.query_id == 2 {
            assert!(f.backup_invocations() >= 1);
            assert!(f.span_secs > c.span_secs, "recovery costs the faulted query time");
        } else {
            assert_eq!(f.backup_invocations(), 0);
            // Neighbors share the driver's invocation pipe (and the
            // cloud's RNG stream) with the recovering query, so their
            // spans wobble by scheduling noise — but never by anything
            // close to the multi-second speculation wait the faulted
            // query itself eats.
            assert!(
                (f.span_secs - c.span_secs).abs() < 0.25 * c.span_secs + 0.5,
                "neighbor {} not materially delayed: {} vs {}",
                f.query_id,
                f.span_secs,
                c.span_secs
            );
        }
    }
}

/// A malformed DAG submitted through the service is rejected by the
/// static verifier with a typed diagnostic — before a cent of the
/// tenant's budget is reserved and before a single worker launches —
/// and the service keeps serving valid queries afterwards.
#[test]
fn invalid_dag_is_rejected_before_any_spend() {
    let sim = Simulation::new();
    let (cloud, system) = staged_lineitem(&sim);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 16,
            max_concurrent_queries: 4,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );

    // Planner output with one seeded contract break: a mid-DAG stage
    // claiming driver output while a downstream join still reads it.
    let t = Schema::new(vec![Field::new("k1", DataType::Int64), Field::new("a", DataType::Int64)]);
    let u = Schema::new(vec![Field::new("uk", DataType::Int64), Field::new("b", DataType::Int64)]);
    let plan = Df::scan("t", &t).join(Df::scan("u", &u), &[("k1", "uk")]).unwrap().build();
    let optimized = Optimizer::new().optimize(&plan).unwrap();
    let mut dag = split_with(&optimized, &SplitOptions::default()).unwrap();
    match &mut dag.stages[0] {
        StageKind::Scan(s) => s.output = StageOutput::Driver,
        other => panic!("expected a scan first stage, got {other:?}"),
    }

    let handle = service.submit_dag("acme", &dag);
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(handle).unwrap_err();
    assert_quiescent(&sim, &cloud, &config, queues);
    match err {
        CoreError::InvalidPlan(diags) => {
            assert!(
                diags.iter().any(|d| d.code == codes::TOPO_DRIVER),
                "expected {} in {diags:?}",
                codes::TOPO_DRIVER
            );
        }
        other => panic!("expected InvalidPlan, got {other:?}"),
    }

    // Zero spend: no worker ever launched, no budget reserved, nothing
    // settled against the tenant.
    assert_eq!(service.peak_inflight_workers(), 0, "no worker may launch");
    if let Some(usage) = service.tenant_usage("acme") {
        assert_eq!(usage.request_dollars_used, 0.0, "no request-$ settled");
        assert_eq!(usage.reserved_dollars, 0.0, "no request-$ reserved");
        assert_eq!(usage.completed + usage.failed, 0);
        assert_eq!(usage.running + usage.queued, 0);
    }

    // The rejection is per-query: the same tenant's next valid query
    // runs to completion and is the only thing the ledger records.
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(service.run("acme", &q6("lineitem"))).unwrap();
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_settled(&service);
    assert!(report.batch.num_rows() >= 1);
    let usage = service.tenant_usage("acme").expect("valid query registers the tenant");
    assert_eq!(usage.completed, 1);
    assert!(usage.request_dollars_used > 0.0);
}

/// Satellite check on the admission estimator: under the direct
/// transport the exchange edges are priced with the fallback bound from
/// `direct_edge_counts`, so the same join query reserves a strictly
/// smaller request-$ envelope than under the object-store transport —
/// while the worker plan (and so the fair-queueing cost) is identical.
#[test]
fn direct_transport_shrinks_admission_estimate() {
    let estimate_with = |transport: TransportKind| {
        let sim = Simulation::new();
        let (_cloud, system) =
            staged_system(&sim, LambadaConfig { transport, ..service_lambada_config() });
        let service = QueryService::new(system);
        service.estimate(&q3("lineitem", "orders")).unwrap()
    };
    let store = estimate_with(TransportKind::ObjectStore);
    let direct = estimate_with(TransportKind::Direct);
    assert_eq!(store.workers, direct.workers, "transport must not change the fleet plan");
    assert!(
        direct.request_dollars < store.request_dollars,
        "direct envelope {} must undercut store envelope {}",
        direct.request_dollars,
        store.request_dollars
    );
}

/// With half of all requests in the slow tail, hedges fire, and the
/// tenant ledger is still the bill: the request-$ a tenant is charged for
/// Q1, Q12 and Q3, run together, are those of the billed S3 requests and
/// invocations, which the reports count exactly (no attempt is
/// discarded: speculation is off). A hedge at most doubles a request, so
/// the envelope's 2× margin still bounds every query.
#[test]
fn the_tenant_ledger_is_the_bill_while_hedges_fire() {
    use lambada::sim::services::object_store::S3Config;
    use lambada::sim::CostItem;
    let sim = Simulation::new();
    let s3 = S3Config { tail_probability: 0.5, ..S3Config::default() };
    let cloud = Cloud::new(&sim, CloudConfig { s3, ..CloudConfig::default() });
    let li = stage_real(
        &cloud,
        "tpch",
        "lineitem",
        StageOptions { scale: 0.005, num_files: 6, row_groups_per_file: 3, seed: 7 },
    );
    let ord = stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        OrdersStageOptions { rows: li.total_rows, num_files: 4, row_groups_per_file: 3, seed: 7 },
    );
    let config = LambadaConfig { speculate: false, ..service_lambada_config() };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li);
    system.register_table(ord);
    let service = QueryService::new(system);
    let plans = [q1("lineitem"), q12("lineitem", "orders"), q3("lineitem", "orders")];
    let estimates: Vec<_> = plans.iter().map(|p| service.estimate(p).unwrap()).collect();
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let reports = sim.block_on(async {
        let handles: Vec<_> = plans.iter().map(|p| service.submit("t", p)).collect();
        let mut out = Vec::new();
        for h in handles {
            out.push(h.await.unwrap());
        }
        out
    });
    assert_quiescent(&sim, &cloud, &config, queues);
    let prices = cloud.billing.prices();
    for (report, estimate) in reports.iter().zip(&estimates) {
        assert!(report.request_dollars(&prices) <= estimate.request_dollars, "{estimate:?}");
    }
    let hedges = cloud.s3.hedges();
    assert!(hedges.gets + hedges.puts > 0, "the tail made some requests late");
    let items = [CostItem::S3Get, CostItem::S3Put, CostItem::S3List, CostItem::LambdaRequests];
    let billed: f64 = items.iter().map(|&i| cloud.billing.units(i)).sum();
    let bill = cloud.billing.snapshot();
    let dollars: f64 = items.iter().map(|&i| bill.dollars(i)).sum();
    let usage = service.tenant_usage("t").unwrap();
    let counted: u64 = reports.iter().map(|r| r.s3_requests() + r.invocations()).sum();
    assert_eq!(counted as f64, billed);
    let off = (usage.request_dollars_used - dollars).abs();
    assert!(off <= 1e-12 * dollars, "{} vs {dollars}", usage.request_dollars_used);
}

/// Inline edges loosen the request envelope, never break it: every query
/// of the `service_mix` benchmark (Q1, Q6, Q12 and Q4 at SF 0.01 under
/// its configuration, where most edges ride the messages) spends at most
/// the envelope before its 2× margin, whichever way its senders went.
#[test]
fn the_admission_envelope_bounds_every_service_mix_query() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let li = stage_real(
        &cloud,
        "tpch",
        "lineitem",
        StageOptions { scale: 0.01, num_files: 6, row_groups_per_file: 3, seed: 1 },
    );
    let ord = stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        OrdersStageOptions { rows: li.total_rows, num_files: 4, row_groups_per_file: 3, seed: 1 },
    );
    let config = LambadaConfig {
        join_workers: Some(4),
        agg: AggStrategy::Exchange { workers: Some(2) },
        ..LambadaConfig::default()
    };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li);
    system.register_table(ord);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 24,
            max_concurrent_queries: 8,
            shrink_fleets: true,
            default_budget: TenantBudget::default(),
        },
    );
    let mut puts = 0;
    for plan in
        [q1("lineitem"), q6("lineitem"), q12("lineitem", "orders"), q4("lineitem", "orders")]
    {
        let estimate = service.estimate(&plan).unwrap();
        let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
        let report = sim.block_on(service.submit("mix", &plan)).unwrap();
        assert_quiescent(&sim, &cloud, &config, queues);
        let spent = report.request_dollars(&cloud.billing.prices());
        assert!(2.0 * spent <= estimate.request_dollars, "${spent} vs {estimate:?}");
        puts += report.stages.iter().map(|s| s.put_requests).sum::<u64>();
    }
    assert!(puts > 0, "some sender was over its budget and wrote a file");
}
