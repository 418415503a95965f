//! Failure handling: workers report out-of-memory instead of dying
//! silently (§3.3) and the driver fails fast on the first error report;
//! timed-out workers *do* die silently; stragglers and silent deaths are
//! recovered by speculative re-invocation when enabled, and pinned to
//! stall the query when not. Whatever the failure, the query leaves
//! nothing behind but what a straggler it did not wait for writes later.

mod common;

use std::rc::Rc;
use std::time::Duration;

use common::assert_quiescent;
use lambada::core::{
    inject_query_worker_faults, inject_worker_faults, CoreError, Lambada, LambadaConfig, Placement,
    SortStrategy, StageKind, TransportKind, WorkerTask,
};
use lambada::engine::{RecordBatch, Scalar};
use lambada::sim::{Cloud, CloudConfig, InjectedFault, LinkFault, Simulation};
use lambada::workloads::{q1, stage_real, StageOptions};

fn staged(sim: &Simulation, scale: f64) -> (Cloud, lambada::core::TableSpec) {
    let cloud = Cloud::new(sim, CloudConfig::default());
    let opts = StageOptions { scale, num_files: 4, row_groups_per_file: 2, seed: 21 };
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    (cloud, spec)
}

/// A paper-scale descriptor table whose per-worker scan takes seconds —
/// the regime where a straggler's slowdown dominates the fleet span
/// instead of hiding behind cold starts.
fn staged_descriptors(sim: &Simulation) -> (Cloud, lambada::core::TableSpec) {
    let cloud = Cloud::new(sim, CloudConfig::default());
    let opts = lambada::workloads::DescriptorOptions {
        scale: 4.0,
        num_files: 4,
        ..lambada::workloads::DescriptorOptions::default()
    };
    let spec = lambada::workloads::stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    (cloud, spec)
}

#[test]
fn oom_is_reported_not_silent() {
    // A paper-scale descriptor table with huge row groups: a 512 MiB
    // worker cannot hold one decoded row group of Q1's seven columns.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = lambada::workloads::DescriptorOptions {
        scale: 100.0,
        num_files: 2,
        row_groups_per_file: 2,
        sample_rows: 5_000,
        ..lambada::workloads::DescriptorOptions::default()
    };
    let spec = lambada::workloads::stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    let mut system =
        Lambada::install(&cloud, LambadaConfig { memory_mib: 512, ..LambadaConfig::default() });
    system.register_table(spec);
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap_err() });
    settle(&sim, &cloud);
    assert_quiescent(&sim, &cloud, &config, queues);
    // The driver fails fast: the *first* error report surfaces without
    // waiting for the rest of the fleet.
    match err {
        CoreError::Worker { message, .. } => {
            assert!(message.contains("out of memory"), "got: {message}");
        }
        other => panic!("expected a worker error report, got {other}"),
    }
}

#[test]
fn worker_errors_fail_fast() {
    // Same OOM setup, but every worker except 0 is also injected ~30x
    // slow. Before fail-fast the driver sat on worker 0's OOM report
    // until the stragglers' reports trickled in; now the query must fail
    // at the speed of the fastest error, not the slowest worker.
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = lambada::workloads::DescriptorOptions {
        scale: 100.0,
        num_files: 2,
        row_groups_per_file: 2,
        sample_rows: 5_000,
        ..lambada::workloads::DescriptorOptions::default()
    };
    let spec = lambada::workloads::stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    let mut system =
        Lambada::install(&cloud, LambadaConfig { memory_mib: 512, ..LambadaConfig::default() });
    system.register_table(spec);
    inject_worker_faults(&cloud, |wid, _| (wid != 0).then(|| InjectedFault::slowdown(30.0)));
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap_err() });
    assert!(matches!(err, CoreError::Worker { worker_id: 0, .. }), "got {err}");
    // Worker 0 hits its OOM after scanning one huge row group (~100
    // virtual seconds); worker 1's equivalent scan runs ~30x longer
    // under the fault. The error must surface at worker 0's pace.
    assert!(sim.now().as_secs_f64() < 150.0, "failed only at t = {}", sim.now().as_secs_f64());
    settle(&sim, &cloud);
    assert_quiescent(&sim, &cloud, &config, queues);
}

#[test]
fn big_enough_workers_succeed_on_same_data() {
    let sim = Simulation::new();
    let (cloud, spec) = staged(&sim, 0.01);
    let mut system =
        Lambada::install(&cloud, LambadaConfig { memory_mib: 2048, ..LambadaConfig::default() });
    system.register_table(spec);
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch.num_rows(), 4);
}

#[test]
fn function_timeout_kills_workers_and_driver_gives_up() {
    let sim = Simulation::new();
    let (cloud, spec) = staged(&sim, 0.01);
    // A timeout far below the work required — less than one first byte
    // from the object store, and a scan needs the footer and then a row
    // group: every worker is killed mid-flight and never posts a result
    // (the realistic silent death).
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            // One scan worker per file: the faults target one of several.
            files_per_worker: Some(1),
            timeout: Duration::from_millis(10),
            max_wait: Duration::from_secs(30),
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap_err() });
    assert_quiescent(&sim, &cloud, &config, queues);
    match err {
        CoreError::Timeout { missing_workers, .. } => assert_eq!(missing_workers, 4),
        other => panic!("expected driver timeout, got {other}"),
    }
    // The FaaS layer counted the kills: the whole four-file fleet.
    let (_, _, timeouts) = cloud.faas.counters("lambada-worker");
    assert_eq!(timeouts, 4);
    // Even the failed stage's result queue was cleaned up.
    assert_eq!(cloud.sqs.queue_count(), 0);
}

#[test]
fn slow_worker_is_recovered_by_a_speculative_backup() {
    // One worker of four runs 10x slow (compute and NIC). With
    // speculation on, the driver notices the holdout once the other
    // three have reported and ~2x their median span has elapsed,
    // re-invokes it, and the fast backup's result wins — the query
    // finishes in a fraction of the straggler's time and never
    // approaches max_wait.
    let sim = Simulation::new();
    let (cloud, spec) = staged_descriptors(&sim);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            max_wait: Duration::from_secs(8),
            speculate: true,
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    inject_worker_faults(&cloud, |wid, attempt| {
        (wid == 3 && attempt == 0).then(|| InjectedFault::slowdown(10.0))
    });
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
    settle(&sim, &cloud);
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.stages.len(), 1);
    assert_eq!(report.stages[0].workers, 4);
    // Exactly the one straggler was re-invoked, once.
    assert_eq!(report.stages[0].backup_invocations, 1);
    let (invocations, _, _) = cloud.faas.counters("lambada-worker");
    assert_eq!(invocations, 5, "4 originals + 1 backup");
    // Bounded latency: well under the deadline, and far below the
    // straggler's solo finish (~10s; see the pinned stall below).
    assert!(report.latency_secs < 6.0, "latency {}", report.latency_secs);
}

#[test]
fn without_speculation_a_straggler_stalls_the_query() {
    // The same 10x straggler with speculation disabled (the default):
    // the driver waits for every worker and gives up at max_wait. This
    // pins the no-speculation behavior so the recovery above is
    // attributable to the backup, not to the fault being mild.
    let sim = Simulation::new();
    let (cloud, spec) = staged_descriptors(&sim);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            max_wait: Duration::from_secs(8),
            speculate: false,
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    inject_worker_faults(&cloud, |wid, attempt| {
        (wid == 3 && attempt == 0).then(|| InjectedFault::slowdown(10.0))
    });
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap_err() });
    settle(&sim, &cloud);
    assert_quiescent(&sim, &cloud, &config, queues);
    match err {
        CoreError::Timeout { missing_workers, waited_secs } => {
            assert_eq!(missing_workers, 1, "only the straggler is missing");
            assert!(waited_secs >= 8.0, "the driver really waited: {waited_secs}");
        }
        other => panic!("expected driver timeout, got {other}"),
    }
    assert_eq!(cloud.sqs.queue_count(), 0, "queue cleaned up even on timeout");
}

#[test]
fn killed_worker_is_recovered_by_a_speculative_backup() {
    // A worker dies silently mid-flight (the realistic straggler of
    // §3.3's threat model — no error report, no result). Speculation
    // re-invokes it and the backup delivers the correct Q1 result.
    let sim = Simulation::new();
    let (cloud, spec) = staged(&sim, 0.01);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            // One scan worker per file: the faults target one of several.
            files_per_worker: Some(1),
            max_wait: Duration::from_secs(60),
            speculate: true,
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    inject_worker_faults(&cloud, |wid, attempt| {
        (wid == 1 && attempt == 0).then(|| InjectedFault::kill(Duration::from_millis(10)))
    });
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.batch.num_rows(), 4, "Q1's four groups survive the death");
    assert_eq!(report.backup_invocations(), 1);
    assert_eq!(cloud.faas.injected_kills("lambada-worker"), 1);
    assert!(report.latency_secs < 15.0, "bounded recovery: {}", report.latency_secs);
}

#[test]
fn a_lost_backup_never_fails_the_query() {
    // Speculation must be strictly safe: if the backup itself dies
    // silently, the slow-but-healthy original still wins and the query
    // completes (at the straggler's pace) instead of failing.
    let sim = Simulation::new();
    let (cloud, spec) = staged_descriptors(&sim);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            max_wait: Duration::from_secs(60),
            speculate: true,
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    inject_worker_faults(&cloud, |wid, attempt| match (wid, attempt) {
        (3, 0) => Some(InjectedFault::slowdown(10.0)),
        (3, _) => Some(InjectedFault::kill(Duration::from_millis(10))),
        _ => None,
    });
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert_eq!(report.backup_invocations(), 1, "the backup was tried");
    assert_eq!(cloud.faas.injected_kills("lambada-worker"), 1, "... and died");
    // The original straggler delivered (~10s solo span), not the backup.
    assert!(report.latency_secs > 6.0 && report.latency_secs < 20.0);
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

/// Run the Q12 join with an optional straggling lineitem scanner;
/// returns the result batch and total backup invocations.
fn run_q12_join(straggler: bool) -> (RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.05;
    let seed = 21;
    let li_opts = StageOptions { scale, num_files: 6, row_groups_per_file: 3, seed };
    let li_spec = stage_real(&cloud, "tpch", "lineitem", li_opts);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    // One worker per file (every file here is past the latency bound, so
    // this is the packed shape): each scan keeps its own fleet and crosses
    // its edge, rather than folding into the one-worker join's invocation.
    let config =
        LambadaConfig { speculate: true, files_per_worker: Some(1), ..LambadaConfig::default() };
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li_spec);
    system.register_table(ord_spec);
    if straggler {
        // Worker 1 exists in both concurrent scan fleets (orders and
        // lineitem), so each stage gets one straggler with a crippled
        // NIC. Both stay busy long past the speculation threshold, so
        // backups re-scan their files and re-write their shuffle
        // partitions under the next attempt id. The originals still
        // finish later and write their own files — the join fleet must
        // never mix the two attempts.
        inject_worker_faults(&cloud, |wid, attempt| {
            (wid == 1 && attempt == 0).then_some(InjectedFault {
                compute_factor: 50.0,
                nic_factor: 0.001,
                kill_after: None,
            })
        });
    }
    let plan = lambada::workloads::q12("lineitem", "orders");
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    assert_left_nothing_but_stragglers(&sim, &cloud, &config, queues, straggler);
    (report.batch.clone(), report)
}

/// A join worker receives both in-edges together, but a build side that
/// fails is the worker's failure at once: whether its probe section is
/// there or missing, it reports at the same instant.
#[test]
fn a_join_worker_reports_a_bad_build_side_without_waiting_for_its_probe_edge() {
    use lambada::core::{
        address_sections, invoke_workers_as, ChainStage, EdgeTransport, InEdge, InvocationStrategy,
        PartData, StageKind, StageSink, StageTask, WorkerEnv, WorkerPayload, WorkerResult,
        WorkerTask,
    };

    // Seconds from launch until the worker's error report is received.
    let run = |probe_written: bool| -> f64 {
        let sim = Simulation::new();
        let (cloud, li_spec) = staged(&sim, 0.002);
        let orders_opts = lambada::workloads::OrdersStageOptions {
            rows: li_spec.total_rows,
            num_files: 2,
            row_groups_per_file: 1,
            seed: 21,
        };
        let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
        let mut system = Lambada::install(&cloud, LambadaConfig::default());
        system.register_table(li_spec);
        system.register_table(ord_spec);
        let dag = system.plan(&lambada::workloads::q12("lineitem", "orders")).unwrap();
        let Some(join @ StageKind::Join(_)) = dag.stages.last() else {
            panic!("Q12 ends in a join stage");
        };
        let config = system.config();
        let transport = Rc::new(EdgeTransport::new(config.exchange.clone(), None));
        let (probe, build) = ("xhand/q0/s0".to_string(), "xhand/q0/s1".to_string());
        let task = Rc::new(StageTask {
            kind: join.clone(),
            in_channels: vec![probe.clone(), build.clone()],
            scan: None,
            sink: StageSink::Report { top: None, emit_state: false },
            transport: Rc::clone(&transport),
            result_bucket: config.result_bucket.clone(),
            result_prefix: "results/by-hand".to_string(),
            inboxes: Vec::new(),
        });
        let mut payload = WorkerPayload {
            worker_id: 0,
            attempt: 0,
            query: 0,
            task: WorkerTask::Stage(Rc::new([ChainStage {
                sid: 2,
                label: "join#2".to_string(),
                task,
                slot: 0,
                inbox: None,
                cohosted: false,
            }])),
            edges: Vec::new(),
            children: Vec::new(),
            result_queue: "by-hand".to_string(),
        };
        cloud.sqs.create_queue("by-hand");
        let function = config.function_name.clone();
        sim.block_on({
            let cloud = cloud.clone();
            async move {
                // The build producer shipped bytes that are no record batch.
                let garbage = || vec![PartData::Real(b"not a record batch".to_vec())];
                let sender = WorkerEnv::bare(&cloud, 9, 2048, Default::default());
                // A budget of 0: the sections go into files.
                let (_, sections, inline) =
                    transport.send(&sender, &build, 0, garbage(), 0, true).await.unwrap();
                if probe_written {
                    transport.send(&sender, &probe, 0, garbage(), 0, true).await.unwrap();
                }
                // Without its write, the probe address points at nothing.
                let senders = address_sections(0, &sections, &inline, &[(0, 0)], 1).unwrap();
                let edge = InEdge { senders, bounds: Vec::new() };
                payload.edges = vec![edge.clone(), edge];
                let launched = cloud.handle.now();
                invoke_workers_as(&cloud, &function, vec![payload], InvocationStrategy::Direct)
                    .await
                    .unwrap();
                let sqs = cloud.driver_sqs();
                for _ in 0..10 {
                    let wait = Duration::from_secs(2);
                    if let Some(msg) = sqs.receive("by-hand", 1, wait).await.unwrap().pop() {
                        let result = WorkerResult::decode(&msg).unwrap();
                        assert!(result.outcome.is_err(), "decoded garbage: {:?}", result.outcome);
                        return (cloud.handle.now() - launched).as_secs_f64();
                    }
                }
                panic!("the join worker never reported");
            }
        })
    };
    let (ready, stalled) = (run(true), run(false));
    // The probe edge's first back-off alone is 0.5 s, its ladder over an hour.
    assert!((stalled - ready).abs() < 0.05, "probe ready: {ready} s, never written: {stalled} s");
}

#[test]
fn straggling_scan_workers_recover_with_duplicate_shuffle_files() {
    // End to end through the duplicate-tolerant exchange: backup scan
    // workers re-write their shuffle files on the scan → join edges, and
    // the join result still matches the run without any fault.
    let (clean, clean_report) = run_q12_join(false);
    assert_eq!(clean_report.backup_invocations(), 0);
    let (faulted, report) = run_q12_join(true);
    // Each scan stage counts exactly its one straggler's backup; the
    // join fleet needed none.
    assert_eq!(report.stages[0].label, "scan:orders#0");
    assert_eq!(report.stages[0].backup_invocations, 1);
    assert_eq!(report.stages[1].label, "scan:lineitem#1");
    assert_eq!(report.stages[1].backup_invocations, 1);
    assert_eq!(report.stages[2].backup_invocations, 0);
    assert!(faulted.num_rows() > 0);
    assert_batches_close(&faulted, &clean);
}

/// Run the Q3-style join + repartitioned aggregation with an optional
/// straggler *inside the join fleet* — an inner (non-final) stage whose
/// output feeds the agg-merge fleet over the exchange.
fn run_q3_inner(straggler: bool) -> (RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.02;
    let seed = 27;
    let li_opts = StageOptions { scale, num_files: 6, row_groups_per_file: 3, seed };
    let li_spec = stage_real(&cloud, "tpch", "lineitem", li_opts);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let join_workers = 8;
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            speculate: true,
            join_workers: Some(join_workers),
            agg: lambada::core::AggStrategy::Exchange { workers: Some(2) },
            ..LambadaConfig::default()
        },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    if straggler {
        // Worker id 7 exists only in the 8-strong join fleet (the scans
        // have 4 and 6 workers, the merge fleet 2), so the fault hits
        // exactly one inner-stage worker. Its backup re-reads both
        // co-partitions, re-joins, and re-writes its grouped-state shard
        // under the next attempt id; the merge fleet must pick exactly
        // one attempt per sender.
        inject_worker_faults(&cloud, |wid, attempt| {
            (wid == 7 && attempt == 0).then_some(InjectedFault {
                compute_factor: 50.0,
                nic_factor: 0.001,
                kill_after: None,
            })
        });
    }
    let plan = lambada::workloads::q3("lineitem", "orders");
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    assert_left_nothing_but_stragglers(&sim, &cloud, &config, queues, straggler);
    (report.batch.clone(), report)
}

#[test]
fn speculation_recovers_a_straggler_in_an_inner_join_stage() {
    // PR 3 proved scan-stage stragglers recover; the topo scheduler must
    // give *every* stage the same protection. Here the straggler sits in
    // the join stage of a four-stage DAG (scan, scan, join, agg-merge) —
    // an inner stage whose consumers read its exchange edge — and the
    // final result must match the fault-free run.
    let (clean, clean_report) = run_q3_inner(false);
    assert_eq!(clean_report.backup_invocations(), 0);
    let (faulted, report) = run_q3_inner(true);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["scan:lineitem#0", "scan:orders#1", "join#2", "agg#3"]);
    assert_eq!(report.stages[0].backup_invocations, 0);
    assert_eq!(report.stages[1].backup_invocations, 0);
    assert_eq!(report.stages[2].backup_invocations, 1, "the join straggler was speculated");
    assert_eq!(report.stages[3].backup_invocations, 0);
    assert!(faulted.num_rows() > 0);
    assert_batches_close(&faulted, &clean);
}

/// Run the Q21-flavored anti join (orders ▷ lineitem, counted per
/// priority, repartitioned aggregation above) with an optional straggler
/// *inside the anti-join fleet*.
fn run_q21_anti(straggler: bool) -> (RecordBatch, lambada::core::QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.02;
    let seed = 29;
    let li_opts = StageOptions { scale, num_files: 6, row_groups_per_file: 3, seed };
    let li_spec = stage_real(&cloud, "tpch", "lineitem", li_opts);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let join_workers = 8;
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            speculate: true,
            join_workers: Some(join_workers),
            agg: lambada::core::AggStrategy::Exchange { workers: Some(2) },
            ..LambadaConfig::default()
        },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    if straggler {
        // Worker id 7 exists only in the 8-strong anti-join fleet (the
        // scans have 4 and 6 workers, the merge fleet 2), and it dies
        // silently mid-flight — the extreme straggler: unlike the q3
        // slowdown case, the probe side here (a 92-day order window) is
        // small enough that a merely slow worker could finish under the
        // speculation threshold. Its backup must re-read both
        // co-partitions, re-run the anti probe — whose result depends on
        // the *complete* build side, so a partially-read build would
        // emit extra rows (false "no match" verdicts), not just fewer —
        // and re-write its grouped-state shard under the next attempt id.
        inject_worker_faults(&cloud, |wid, attempt| {
            (wid == 7 && attempt == 0).then(|| InjectedFault::kill(Duration::from_millis(5)))
        });
    }
    let plan = lambada::workloads::q21("lineitem", "orders");
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    assert_quiescent(&sim, &cloud, &config, queues);
    (report.batch.clone(), report)
}

#[test]
fn speculation_recovers_a_straggler_in_an_anti_join_stage() {
    // Anti joins are the most straggler-sensitive variant: a worker that
    // silently dropped part of its build co-partition would emit *extra*
    // rows (false "no match" verdicts), so recovery must re-run the
    // whole co-partition under a fresh attempt and the merge fleet must
    // pick exactly one attempt per sender. The recovered result must
    // match the fault-free run bit-for-bit.
    let (clean, clean_report) = run_q21_anti(false);
    assert_eq!(clean_report.backup_invocations(), 0);
    let (faulted, report) = run_q21_anti(true);
    let labels: Vec<&str> = report.stages.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(labels, vec!["scan:orders#0", "scan:lineitem#1", "anti-join#2", "agg#3"]);
    assert_eq!(report.stages[0].backup_invocations, 0);
    assert_eq!(report.stages[1].backup_invocations, 0);
    assert_eq!(report.stages[2].backup_invocations, 1, "the anti-join straggler was speculated");
    assert_eq!(report.stages[3].backup_invocations, 0);
    assert!(faulted.num_rows() > 0);
    assert_batches_close(&faulted, &clean);
}

/// A static p2p link-fault rule: `(endpoint, sender, attempt) -> fault`.
type LinkFaultFn = fn(&str, u32, u32) -> Option<LinkFault>;

/// Run the Q12 join on the *direct* transport with optional worker and
/// p2p-link faults; returns the result batch, the report, and the cloud
/// (for p2p counters).
fn run_q12_direct(
    worker_fault: Option<fn(u64, u32) -> Option<InjectedFault>>,
    link_fault: Option<LinkFaultFn>,
) -> (RecordBatch, lambada::core::QueryReport, Cloud) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let scale = 0.05;
    let seed = 21;
    let li_opts = StageOptions { scale, num_files: 6, row_groups_per_file: 3, seed };
    let li_spec = stage_real(&cloud, "tpch", "lineitem", li_opts);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let mut system = Lambada::install(
        &cloud,
        // One worker per file, as in `run_q12_join`.
        LambadaConfig {
            speculate: true,
            transport: TransportKind::Direct,
            files_per_worker: Some(1),
            ..LambadaConfig::default()
        },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    if let Some(f) = worker_fault {
        inject_worker_faults(&cloud, f);
    }
    if let Some(f) = link_fault {
        cloud.p2p.set_link_faults(Rc::new(f));
    }
    let plan = lambada::workloads::q12("lineitem", "orders");
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    // A producer on a degraded link is alive, not dead: its streams run
    // on past the query.
    assert_left_nothing_but_stragglers(&sim, &cloud, &config, queues, worker_fault.is_none());
    (report.batch.clone(), report, cloud)
}

#[test]
fn killed_producer_on_direct_transport_recovers_over_store_fallback() {
    // The worst combined failure on the direct path: scan worker 1 dies
    // silently mid-stream (a partial p2p transfer leaves *nothing* in
    // any mailbox), and every p2p link from sender 1 stays severed — so
    // its speculative backup cannot stream either and must take the
    // object-store fallback. The backup's section table says so, the
    // driver addresses the join workers to the fallback file, and the
    // join must still match the clean object-store run exactly.
    let (clean, clean_report) = run_q12_join(false);
    assert_eq!(clean_report.backup_invocations(), 0);
    let (recovered, report, cloud) = run_q12_direct(
        Some(|wid, attempt| {
            (wid == 1 && attempt == 0).then(|| InjectedFault::kill(Duration::from_millis(10)))
        }),
        Some(|_endpoint, sender, _attempt| (sender == 1).then(LinkFault::dropped)),
    );
    assert!(report.backup_invocations() >= 1, "the kill was speculated against");
    assert!(cloud.faas.injected_kills("lambada-worker") >= 1);
    let (_, _, drops) = cloud.p2p.counters();
    assert!(drops > 0, "the backup really hit the severed links");
    // The fallback shows up as store GETs on the consumer side, read
    // straight from the file — no grace polls, no LIST; healthy senders
    // still rode the relay.
    assert!(report.p2p_requests() > 0, "healthy senders stayed on the relay");
    let join = report.stages.iter().find(|s| s.label == "join#2").expect("Q12's join");
    assert!(join.get_requests > 0, "the fallback file was read");
    assert_eq!((join.list_requests, join.exchange_wait_secs), (0, 0.0));
    assert!(join.exec_secs < 0.5, "join#2 ran {} s", join.exec_secs);
    assert_batches_close(&recovered, &clean);
}

#[test]
fn degraded_p2p_link_recovers_without_wrong_results() {
    // One producer's relay connections run at ~0.8 KB/s (attempt 0
    // only): the worker computes on time but its streams never finish,
    // so it never reports. Speculation re-invokes it; the backup's
    // attempt-1 streams ride healthy links, receivers take the highest
    // complete attempt per sender, and the result matches the clean run.
    let (clean, _) = run_q12_join(false);
    let (recovered, report, cloud) = run_q12_direct(
        None,
        Some(|_endpoint, sender, attempt| {
            (sender == 1 && attempt == 0).then(|| LinkFault::degraded(1e-5))
        }),
    );
    assert!(report.backup_invocations() >= 1, "the stalled streamer was speculated against");
    assert!(report.p2p_requests() > 0);
    let (_, _, drops) = cloud.p2p.counters();
    assert_eq!(drops, 0, "degraded, not severed");
    assert_batches_close(&recovered, &clean);
}

/// A killed sort producer is recovered by the ordinary quorum rule: no
/// producer of a sort edge waits for its peers, so the other three
/// scanners report, the quorum forms, and exactly the dead one is
/// re-invoked — on both transports, faster than the sample barrier's
/// probe recovered it (6.18 s on the object store, 6.07 s direct).
#[test]
fn killed_sort_producer_is_recovered_by_the_quorum_rule() {
    for (kind, barrier_secs) in [(TransportKind::ObjectStore, 6.18), (TransportKind::Direct, 6.07)]
    {
        let run = |fault: bool| {
            let sim = Simulation::new();
            let (cloud, spec) = staged(&sim, 0.01);
            let mut system = Lambada::install(
                &cloud,
                LambadaConfig {
                    // One scan worker per file: the faults target one of several.
                    files_per_worker: Some(1),
                    sort: SortStrategy::Exchange { workers: Some(2) },
                    transport: kind,
                    max_wait: Duration::from_secs(120),
                    speculate: true,
                    ..LambadaConfig::default()
                },
            );
            system.register_table(spec);
            if fault {
                // Kill one worker of the 4-strong scan fleet feeding the
                // sort; the other three report as they finish.
                inject_worker_faults(&cloud, |wid, attempt| {
                    (wid == 1 && attempt == 0)
                        .then(|| InjectedFault::kill(Duration::from_millis(10)))
                });
            }
            // A bare ORDER BY ... LIMIT over the scan: the scan fleet
            // itself produces the sort edge.
            let df = system.from_table("lineitem").unwrap();
            let key = df.col("l_extendedprice").unwrap();
            let plan = df
                .sort(vec![lambada::engine::SortKey::desc(key)])
                .unwrap()
                .limit(10)
                .unwrap()
                .build();
            let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
            let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
            assert_quiescent(&sim, &cloud, &config, queues);
            report
        };
        let clean = run(false);
        assert_eq!(clean.backup_invocations(), 0, "{kind:?}: clean run needs no backups");
        let recovered = run(true);
        assert_eq!(
            (recovered.stages[0].backup_invocations, recovered.backup_invocations()),
            (1, 1),
            "{kind:?}: exactly the dead producer was re-invoked"
        );
        assert_batches_close(&recovered.batch, &clean.batch);
        for stage in &recovered.stages {
            assert_eq!((stage.list_requests, stage.exchange_wait_secs), (0, 0.0), "{kind:?}");
        }
        assert!(
            recovered.latency_secs < barrier_secs,
            "{kind:?}: recovered in {} s",
            recovered.latency_secs
        );
    }
}

#[test]
fn result_queues_do_not_leak_across_queries() {
    // The driver creates one result queue per stage per query; each must
    // be deleted once its fleet is collected, or a query sequence leaks
    // queues without bound.
    let sim = Simulation::new();
    let (cloud, spec) = staged(&sim, 0.01);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    system.register_table(spec);
    for _ in 0..3 {
        sim.block_on(system.run_query(&q1("lineitem"))).unwrap();
        assert_quiescent(&sim, &cloud, system.config(), 0);
    }
}

#[test]
fn unknown_table_is_a_clean_error() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let system = Lambada::install(&cloud, LambadaConfig::default());
    let (config, queues) = (system.config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(async move { system.run_query(&q1("nope")).await.unwrap_err() });
    assert_quiescent(&sim, &cloud, &config, queues);
    assert!(matches!(err, CoreError::Unsupported(_)));
}

/// Q12 at a small scale, one scan worker per file, with `fault` on orders
/// scanner 1's original attempt: every orders scanner ships over its
/// inline budget, so each writes one file. Returns the simulation, the
/// cloud, the config, the outcome and the queue count before the query.
fn q12_with_a_faulted_orders_scanner(
    fault: InjectedFault,
    speculate: bool,
) -> (Simulation, Cloud, LambadaConfig, Result<lambada::core::QueryReport, CoreError>, usize) {
    let sim = Simulation::new();
    let (cloud, li_spec) = staged(&sim, 0.002);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed: 21,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    let config = LambadaConfig {
        files_per_worker: Some(1),
        speculate,
        max_wait: Duration::from_secs(60),
        ..LambadaConfig::default()
    };
    let mut system = Lambada::install(&cloud, config.clone());
    system.register_table(li_spec);
    system.register_table(ord_spec);
    inject_query_worker_faults(&cloud, move |p| {
        let orders = match &p.task {
            WorkerTask::Stage(list) => {
                matches!(&list[0].task.kind, StageKind::Scan(s) if s.table == "orders")
            }
            _ => false,
        };
        (orders && p.worker_id == 1 && p.attempt == 0).then_some(fault)
    });
    let queues = cloud.sqs.queue_count();
    let plan = lambada::workloads::q12("lineitem", "orders");
    let outcome = sim.block_on(async move { system.run_query(&plan).await });
    (sim, cloud, config, outcome, queues)
}

/// Objects in the exchange buckets.
fn exchange_objects(cloud: &Cloud, config: &LambadaConfig) -> usize {
    let buckets = (0..config.exchange.num_buckets).map(|b| config.exchange.bucket_of(b));
    buckets.map(|b| cloud.s3.bucket_object_count(&b)).sum()
}

/// The one object a query can leave: a speculated straggler that is
/// slow but alive writes its attempt's file after the query returned,
/// when the query's owner has already deleted every key it knew. The
/// query itself leaves nothing; once the straggler ends, exactly its one
/// file remains.
#[test]
fn a_slow_speculated_straggler_leaves_exactly_its_one_file() {
    let slow = InjectedFault { compute_factor: 50.0, nic_factor: 0.001, kill_after: None };
    let (sim, cloud, config, outcome, queues) = q12_with_a_faulted_orders_scanner(slow, true);
    let report = outcome.unwrap();
    assert_eq!(report.stages[0].label, "scan:orders#0");
    assert_eq!((report.stages[0].put_requests, report.stages[0].backup_invocations), (4, 1));
    assert_eq!(exchange_objects(&cloud, &config), 0, "the query deleted its files");
    assert_eq!(cloud.s3.deleted_objects(), 4, "three originals' files and the backup's");
    assert_eq!(sim.live_tasks(), 1, "the straggler still runs");
    settle(&sim, &cloud);
    assert_eq!(exchange_objects(&cloud, &config), 1, "the straggler's late file");
    let left = sim.block_on(cloud.driver_s3().list(&config.exchange.bucket_of(1), "")).unwrap();
    let keys: Vec<&str> = left.iter().map(|(key, _)| key.as_str()).collect();
    assert!(matches!(keys.as_slice(), [key] if key.ends_with("/s0/snd1a0")), "{keys:?}");
    assert_eq!(cloud.sqs.queue_count(), queues);
}

/// The same query with the straggler killed instead: its backup's file
/// is deleted with the rest, and nothing remains.
#[test]
fn a_killed_speculated_straggler_leaves_nothing() {
    let kill = InjectedFault::kill(Duration::from_millis(10));
    let (sim, cloud, config, outcome, queues) = q12_with_a_faulted_orders_scanner(kill, true);
    assert_eq!(outcome.unwrap().stages[0].backup_invocations, 1);
    assert_eq!(cloud.faas.injected_kills("lambada-worker"), 1);
    assert_eq!(cloud.s3.deleted_objects(), 4);
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// A killed producer with no backup times the query out after its three
/// fleet-mates wrote their files: the timeout still deletes them.
#[test]
fn a_timeout_deletes_the_files_written_before_it() {
    let kill = InjectedFault::kill(Duration::from_millis(10));
    let (sim, cloud, config, outcome, queues) = q12_with_a_faulted_orders_scanner(kill, false);
    let err = outcome.unwrap_err();
    assert!(matches!(err, CoreError::Timeout { missing_workers: 1, .. }), "{err}");
    assert_eq!(cloud.s3.deleted_objects(), 3, "the other orders scanners' files");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// A consumer fleet that fails after its producers wrote their files: the
/// eight scanners of a 1 MiB installation each PUT their sorted run's
/// blocks, and a sorter, holding more than half its budget, reports an
/// OOM. The typed error still deletes all eight files.
#[test]
fn a_consumer_oom_deletes_its_producers_files() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = StageOptions { scale: 0.02, num_files: 8, row_groups_per_file: 10, seed: 21 };
    let spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let config = LambadaConfig {
        memory_mib: 1,
        files_per_worker: Some(1),
        sort: SortStrategy::Exchange { workers: Some(2) },
        ..LambadaConfig::default()
    };
    let mut system = Lambada::install(&cloud, config.clone());
    system.register_table(spec);
    let df = system.from_table("lineitem").unwrap();
    let (key, part) = (df.col("l_orderkey").unwrap(), df.col("l_partkey").unwrap());
    let plan = df
        .select(vec![(key.clone(), "l_orderkey"), (part, "l_partkey")])
        .unwrap()
        .sort(vec![lambada::engine::SortKey::asc(key)])
        .unwrap()
        .build();
    let queues = cloud.sqs.queue_count();
    let err = sim.block_on(async move { system.run_query(&plan).await.unwrap_err() });
    let CoreError::Worker { message, .. } = &err else { panic!("expected a worker error: {err}") };
    assert!(message.contains("out of memory: sort partition"), "{message}");
    assert_eq!(cloud.s3.deleted_objects(), 8, "every scanner's file");
    settle(&sim, &cloud);
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// Q12's join runs in the orders scan and waits for the lineitem scan's
/// reports on its inbox. A lineitem producer whose file vanished reports
/// an error there too: the host fails at once with that producer's
/// error, well inside its wait bound, instead of idling it out and
/// shipping its part, and the query leaves nothing behind. (Warm, so
/// that no cold start stands between the two fleets.)
#[test]
fn a_hosts_other_side_error_ends_its_wait_at_once() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = StageOptions { scale: 0.002, num_files: 6, row_groups_per_file: 3, seed: 21 };
    let li_spec = stage_real(&cloud, "tpch", "lineitem", opts);
    let orders_opts = lambada::workloads::OrdersStageOptions {
        rows: li_spec.total_rows,
        num_files: 4,
        row_groups_per_file: 3,
        seed: 21,
    };
    let ord_spec = lambada::workloads::stage_real_orders(&cloud, "tpch", "orders", orders_opts);
    // Worker 1 of the two lineitem scanners reads files 3 to 5.
    let gone = li_spec.files[5].clone();
    let config = LambadaConfig::default();
    let mut system = Lambada::install(&cloud, config.clone());
    system.register_table(li_spec);
    system.register_table(ord_spec);
    let plan = lambada::workloads::q12("lineitem", "orders");
    let placement = system.launch_plan(&system.plan(&plan).unwrap(), None).unwrap().placement;
    assert_eq!(placement[0], Placement::Fused, "the orders scan hosts the join");
    let queues = cloud.sqs.queue_count();
    sim.block_on(system.run_query(&plan)).unwrap();
    cloud.s3.delete_objects(&gone.bucket, [&gone.key]);
    cloud.trace.clear();
    let err = sim.block_on(system.run_query(&plan)).unwrap_err();
    let CoreError::Worker { worker_id: 0, message } = &err else {
        panic!("the host's error: {err}")
    };
    let named = "join#2 (fused after scan:orders#0): worker 1 reported error: ";
    assert!(message.starts_with(named) && message.contains(&gone.key), "{message}");

    let (prices, quantum) = (cloud.billing.prices(), cloud.config.faas.billing_quantum);
    let bound = lambada::core::worker::host_wait(&prices, config.memory_mib, quantum, 0.0, false);
    let waits = cloud.trace.durations("inbox_wait");
    assert!(matches!(waits[..], [w] if w < bound / 2.0), "{waits:?} against {bound}");
    settle(&sim, &cloud);
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// After a query: with `stragglers` still running, the query's own
/// objects are gone; without, it left nothing at all.
fn assert_left_nothing_but_stragglers(
    sim: &Simulation,
    cloud: &Cloud,
    config: &LambadaConfig,
    queues: usize,
    stragglers: bool,
) {
    if stragglers {
        assert_eq!(exchange_objects(cloud, config), 0, "the query's files were deleted");
        assert_eq!(cloud.s3.bucket_object_count(&config.result_bucket), 0);
        assert_eq!(cloud.sqs.queue_count(), queues);
    } else {
        assert_quiescent(sim, cloud, config, queues);
    }
}

/// Run the simulation on until every task a returned query left running
/// has ended — a straggler whose backup won, or the fleet-mates of a
/// worker whose error failed the query fast: nothing cancels them yet.
fn settle(sim: &Simulation, cloud: &Cloud) {
    for _ in 0..1000 {
        if sim.live_tasks() == 0 {
            return;
        }
        sim.block_on(cloud.handle.sleep(Duration::from_secs(10)));
    }
    panic!("{} tasks still running at {}", sim.live_tasks(), sim.now());
}
