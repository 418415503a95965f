//! Continuous queries end-to-end: micro-batch streaming with windowed
//! aggregation must reproduce the batch reference executor bit-for-bit
//! over the whole stream — through the shared multi-tenant service,
//! concurrent with ad-hoc queries, across worker kills and degraded
//! direct-transport links, and with late events provably excluded.
//! Each micro-batch's files ride its scan workers' invocation payloads:
//! no stream bucket is ever created, every inline byte crosses the
//! driver's link once per invocation that carries it, and a batch leaves
//! nothing behind.

mod common;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use common::assert_quiescent;
use lambada::core::invoke::{choose_strategy, InvocationStrategy};
use lambada::core::streaming::{streamify, windowed_event_schema};
use lambada::core::verify::codes;
use lambada::core::{
    events_to_batch, inject_query_worker_faults, AggStrategy, ContinuousQuery, CoreError, Lambada,
    LambadaConfig, Placement, QueryService, ServiceConfig, StageKind, StreamSpec, TableFile,
    TenantBudget, TransportKind, WorkerTask, WINDOW_COLUMN,
};
use lambada::engine::logical::{JoinVariant, LogicalPlan};
use lambada::engine::{
    assign_windows, col, execute_into_batch, AggExpr, AggFunc, Catalog, Column, DataType, Field,
    MemTable, RecordBatch, Schema, WindowSpec,
};
use lambada::sim::{
    Cloud, CloudConfig, EventSource, InjectedFault, LinkFault, Simulation, SourceConfig,
    SourceEvent,
};
use lambada::workloads::{q1, stage_real, stage_table_real, StageOptions};

/// Grouping keys the event source draws from; the dimension table covers
/// all of them so the stream⋈dim join never drops a row.
const KEY_DOMAIN: i64 = 8;

fn dim_schema() -> Schema {
    Schema::new(vec![Field::new("dkey", DataType::Int64), Field::new("weight", DataType::Int64)])
}

fn dim_columns() -> Vec<Column> {
    let keys: Vec<i64> = (0..KEY_DOMAIN).collect();
    let weights: Vec<i64> = (0..KEY_DOMAIN).map(|k| (k + 1) * 10).collect();
    vec![Column::I64(keys), Column::I64(weights)]
}

fn dim_batch() -> RecordBatch {
    RecordBatch::from_columns(&["dkey", "weight"], dim_columns()).unwrap()
}

/// The Q3-style continuous query: windowed stream joined to a static
/// dimension, grouped by (window start, key). All aggregate inputs are
/// `i64`, so every sum — including Avg's internal one — is exact and the
/// result is independent of merge order.
fn windowed_plan(stream_table: &str, dim_table: &str) -> LogicalPlan {
    // Join output layout: ts=0 key=1 value=2 wstart=3 | dkey=4 weight=5.
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: stream_table.to_string(),
                schema: Arc::new(windowed_event_schema()),
                projection: None,
                predicate: None,
            }),
            right: Box::new(LogicalPlan::Scan {
                table: dim_table.to_string(),
                schema: Arc::new(dim_schema()),
                projection: None,
                predicate: None,
            }),
            on: vec![(1, 0)],
            variant: JoinVariant::Inner,
        }),
        group_by: vec![(col(3), WINDOW_COLUMN.to_string()), (col(1), "key".to_string())],
        aggs: vec![
            AggExpr::new(AggFunc::Sum, Some(col(2)), "sum_value"),
            AggExpr::new(AggFunc::Sum, Some(col(2).mul(col(5))), "weighted"),
            AggExpr::new(AggFunc::Count, None, "n"),
            AggExpr::new(AggFunc::Avg, Some(col(2)), "avg_value"),
        ],
    }
}

/// A windowed aggregate of the stream alone: each scan worker reports its
/// partial state to the driver in its result message, so nothing but the
/// batch's files crosses the driver's link.
fn stream_only_plan(stream_table: &str) -> LogicalPlan {
    LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Scan {
            table: stream_table.to_string(),
            schema: Arc::new(windowed_event_schema()),
            projection: None,
            predicate: None,
        }),
        group_by: vec![(col(3), WINDOW_COLUMN.to_string()), (col(1), "key".to_string())],
        aggs: vec![
            AggExpr::new(AggFunc::Sum, Some(col(2)), "sum_value"),
            AggExpr::new(AggFunc::Count, None, "n"),
        ],
    }
}

/// Batch reference: window-assign the *entire* kept stream at once and
/// run the same plan through the local engine. `agg_state_to_batch`
/// sorts groups by (window start, key) on both paths, so the streaming
/// emissions concatenated over the run must equal this bit-for-bit.
fn reference_windows(kept: &[SourceEvent], window: &WindowSpec) -> RecordBatch {
    reference_windows_over(kept, window, dim_batch())
}

/// [`reference_windows`] joined to the dimension rows `dim`.
fn reference_windows_over(
    kept: &[SourceEvent],
    window: &WindowSpec,
    dim: RecordBatch,
) -> RecordBatch {
    let cat = reference_catalog(kept, window, dim);
    execute_into_batch(&windowed_plan("stream_ref", "dim_ref"), &cat).unwrap()
}

/// The whole kept stream, window-assigned, as `stream_ref`, beside the
/// dimension rows `dim` as `dim_ref`.
fn reference_catalog(kept: &[SourceEvent], window: &WindowSpec, dim: RecordBatch) -> Catalog {
    let windowed =
        assign_windows(&events_to_batch(kept).unwrap(), 0, window, WINDOW_COLUMN).unwrap();
    let mut cat = Catalog::new();
    cat.register("stream_ref", Rc::new(MemTable::from_batch(windowed)));
    cat.register("dim_ref", Rc::new(MemTable::from_batch(dim)));
    cat
}

fn streaming_config(agg: AggStrategy, transport: TransportKind) -> LambadaConfig {
    LambadaConfig {
        // One scan worker per file: enough producers to warm the
        // consumers' containers, and the faults target one of several.
        files_per_worker: Some(1),
        join_workers: Some(4),
        agg,
        transport,
        speculate: true,
        ..LambadaConfig::default()
    }
}

/// Fresh cloud with the dimension table staged as real columnar files
/// (plus TPC-H lineitem for the ad-hoc tenant when asked), wrapped in a
/// query service.
fn streaming_service(
    sim: &Simulation,
    config: LambadaConfig,
    with_lineitem: bool,
) -> (Cloud, QueryService) {
    let cloud = Cloud::new(sim, CloudConfig::default());
    let dim = stage_table_real(
        &cloud,
        "dims",
        "dim",
        dim_schema(),
        vec![dim_columns()],
        KEY_DOMAIN as u64,
        1,
    );
    let mut system = Lambada::install(&cloud, config);
    system.register_table(dim);
    if with_lineitem {
        let li = stage_real(
            &cloud,
            "tpch",
            "lineitem",
            StageOptions { scale: 0.005, num_files: 6, row_groups_per_file: 3, seed: 33 },
        );
        system.register_table(li);
    }
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 32,
            max_concurrent_queries: 4,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );
    (cloud, service)
}

/// Whether stream `name` has a bucket: its micro-batches ride their scan
/// workers' payloads, so it never should.
fn stream_bucket(cloud: &Cloud, name: &str) -> bool {
    cloud.s3.bucket_exists(&format!("stream-{name}"))
}

fn plan_fn(_sys: &Lambada, table: &str) -> lambada::core::Result<LogicalPlan> {
    Ok(windowed_plan(table, "dim"))
}

/// Replay of the runtime's late/watermark fold: each batch is filtered
/// against the watermark the *previous* batch established, then the
/// watermark advances to `max kept ts − lateness`. Pins the exact late
/// count and the exact kept set the reference must be computed over.
struct Fold {
    kept: Vec<SourceEvent>,
    late: u64,
}

fn fold_batches(batches: &[Vec<SourceEvent>], lateness: i64) -> Fold {
    let mut kept = Vec::new();
    let mut late = 0u64;
    let mut watermark = i64::MIN;
    let mut max_ts = i64::MIN;
    for batch in batches {
        for e in batch {
            if e.ts >= watermark {
                max_ts = max_ts.max(e.ts);
                kept.push(*e);
            } else {
                late += 1;
            }
        }
        if max_ts > i64::MIN {
            watermark = max_ts.saturating_sub(lateness);
        }
    }
    Fold { kept, late }
}

fn source_batches(config: SourceConfig, batches: usize, per_batch: usize) -> Vec<Vec<SourceEvent>> {
    let mut src = EventSource::new(config);
    (0..batches).map(|_| src.next_events(per_batch)).collect()
}

/// The acceptance e2e: 24 micro-batches of a Q3-style windowed
/// join-aggregate through the shared installation, concurrent with an
/// ad-hoc tenant query, with a join worker silently killed in exactly
/// one micro-batch. The concatenated emissions (plus the end-of-stream
/// flush) are bit-identical to the batch reference over the full
/// stream; the kill is recovered by speculation without double-counted
/// or lost window state.
#[test]
fn continuous_windows_match_batch_reference_through_shared_service() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 5, ..StreamSpec::default() };
    let batches = source_batches(
        SourceConfig { seed: 7, events_per_tick: 10.0, max_delay: 5, ..SourceConfig::default() },
        24,
        40,
    );
    // lateness == the source's out-of-orderness bound, so nothing is
    // late and the reference covers every generated event.
    let reference = reference_windows(&batches.concat(), &spec.window);

    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::Exchange { workers: Some(2) }, TransportKind::ObjectStore),
        true,
    );

    // Kill join worker 1's original attempt — only while armed, i.e.
    // during micro-batch 9. The concurrent ad-hoc query (Q1) has no
    // join fleet, so the kill is scoped to the streaming query. Its
    // inputs ride its payload, so it reads nothing: the kill comes 1 ms
    // in, while its report is still on its way.
    let armed = Rc::new(Cell::new(false));
    let armed_f = Rc::clone(&armed);
    inject_query_worker_faults(&cloud, move |p| {
        (armed_f.get()
            && p.worker_id == 1
            && p.attempt == 0
            && matches!(&p.task, WorkerTask::Stage(l) if matches!(l[0].task.kind, StageKind::Join(_))))
        .then(|| InjectedFault::kill(Duration::from_millis(1)))
    });

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (out, incremental_emissions, killed_backups, late, batches_run, adhoc) =
        sim.block_on(async {
            let adhoc = service.submit("dashboards", &q1("lineitem"));
            let mut cq =
                ContinuousQuery::new(&service, "streaming", "clicks", spec, plan_fn).unwrap();
            let mut parts = Vec::new();
            let mut killed_backups = 0;
            for (i, b) in batches.iter().enumerate() {
                armed.set(i == 9);
                let r = cq.push_batch(b).await.unwrap();
                assert!(!stream_bucket(&cloud, "clicks"), "batch {i} stored its files");
                if i == 9 {
                    killed_backups = r.query.as_ref().unwrap().backup_invocations();
                }
                if r.emitted.num_rows() > 0 {
                    parts.push(r.emitted);
                }
            }
            armed.set(false);
            let incremental = parts.len();
            parts.push(cq.finish().unwrap());
            let out = RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap();
            (out, incremental, killed_backups, cq.late_events(), cq.batches_run(), adhoc.await)
        });
    assert_quiescent(&sim, &cloud, &config, queues);

    // Bit-identical to the batch reference over the full stream.
    assert_eq!(out, reference);
    assert_eq!(late, 0, "in-bound disorder is never classified late");
    assert_eq!(batches_run, 24, "every micro-batch ran a distributed query");
    assert!(
        incremental_emissions >= 5,
        "the watermark closed windows incrementally, not just at finish: {incremental_emissions}"
    );

    // The kill really happened and was recovered inside its batch.
    assert!(cloud.faas.injected_kills("lambada-worker") >= 1);
    assert!(killed_backups >= 1, "the killed join worker was speculated against");

    // The ad-hoc tenant ran concurrently on the same installation.
    let adhoc = adhoc.unwrap();
    assert!(adhoc.batch.num_rows() > 0);
    let usage = service.usage_report();
    assert_eq!(usage.len(), 2);
    for u in &usage {
        assert_eq!(u.failed + u.rejected, 0, "tenant {} ran clean", u.tenant);
        match u.tenant.as_str() {
            "streaming" => assert_eq!(u.completed, 24),
            "dashboards" => assert_eq!(u.completed, 1),
            other => panic!("unexpected tenant {other}"),
        }
    }
    assert!(service.peak_inflight_workers() <= 32);
    assert!(service.peak_inflight_workers() > 0);
}

/// Driver-merged aggregation over a *sliding* window: the other
/// `AggStrategy`, where workers report partial states straight to the
/// driver, must carry state across batches to the same bit-identical
/// emissions.
#[test]
fn driver_merged_sliding_windows_match_the_reference() {
    let spec =
        StreamSpec { window: WindowSpec::sliding(12, 4), lateness: 5, ..StreamSpec::default() };
    let batches = source_batches(
        SourceConfig { seed: 21, events_per_tick: 8.0, max_delay: 5, ..SourceConfig::default() },
        12,
        30,
    );
    let reference = reference_windows(&batches.concat(), &spec.window);

    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (out, carried_after) = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "slides", spec, plan_fn).unwrap();
        let mut parts = Vec::new();
        for b in &batches {
            let r = cq.push_batch(b).await.unwrap();
            assert!(!stream_bucket(&cloud, "slides"));
            assert_quiescent(&sim, &cloud, &config, queues);
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        parts.push(cq.finish().unwrap());
        (RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap(), cq.carried_groups())
    });

    assert_eq!(out, reference);
    assert_eq!(carried_after, 0, "finish() drained every open window");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// Direct worker-to-worker transport with every p2p link from one
/// sender severed during two mid-stream batches: the transport falls
/// back to the object store, and the carried window state comes through
/// uncorrupted — emissions still match the reference exactly. Batches 3
/// to 6 are too big for their scan senders to ship inline, so they
/// stream; the rest ride inline.
#[test]
fn severed_direct_link_falls_back_without_corrupting_carried_state() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 5, ..StreamSpec::default() };
    let config =
        SourceConfig { seed: 5, events_per_tick: 10.0, max_delay: 5, ..SourceConfig::default() };
    let mut src = EventSource::new(config);
    let batches: Vec<Vec<SourceEvent>> =
        (0..16).map(|i| src.next_events(if (3..7).contains(&i) { 8000 } else { 30 })).collect();
    let reference = reference_windows(&batches.concat(), &spec.window);

    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::Exchange { workers: Some(2) }, TransportKind::Direct),
        false,
    );

    let armed = Rc::new(Cell::new(false));
    let armed_f = Rc::clone(&armed);
    cloud.p2p.set_link_faults(Rc::new(move |_endpoint, sender, _attempt| {
        (armed_f.get() && sender == 1).then(LinkFault::dropped)
    }));

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let out = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "direct", spec, plan_fn).unwrap();
        let mut parts = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            armed.set((4..6).contains(&i));
            let r = cq.push_batch(b).await.unwrap();
            assert!(!stream_bucket(&cloud, "direct"), "batch {i}");
            assert_quiescent(&sim, &cloud, &config, queues);
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        armed.set(false);
        parts.push(cq.finish().unwrap());
        RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap()
    });

    assert_eq!(out, reference);
    let (sends, _bytes, drops) = cloud.p2p.counters();
    assert!(drops > 0, "the severed links were really exercised");
    assert!(sends > drops, "healthy batches stayed on the relay");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// Fault-injected late events: events displaced beyond the watermark at
/// their batch's start are counted in `late_events` and excluded from
/// every window — the emissions equal the reference computed over the
/// kept events only, and the exact late count matches an independent
/// replay of the watermark fold.
#[test]
fn late_events_are_counted_and_provably_excluded() {
    let spec =
        StreamSpec { window: WindowSpec::sliding(9, 3), lateness: 3, ..StreamSpec::default() };
    let source = SourceConfig {
        seed: 11,
        events_per_tick: 10.0,
        max_delay: 3,
        late_probability: 0.25,
        late_extra: 30,
        ..SourceConfig::default()
    };
    let (batches, injected) = {
        let mut src = EventSource::new(source);
        let b: Vec<Vec<SourceEvent>> = (0..12).map(|_| src.next_events(30)).collect();
        let injected = src.injected_late();
        (b, injected)
    };
    let fold = fold_batches(&batches, spec.lateness);
    assert!(fold.late > 0, "the seed really produced late-classified events");
    // In-bound disorder is never classified late, so every late event is
    // one the source displaced beyond the bound.
    assert!(fold.late <= injected, "late classifications ⊆ injected late events");
    let reference = reference_windows(&fold.kept, &spec.window);

    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (out, late) = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "late", spec, plan_fn).unwrap();
        let mut parts = Vec::new();
        let mut late = 0u64;
        for b in &batches {
            let r = cq.push_batch(b).await.unwrap();
            assert!(!stream_bucket(&cloud, "late"));
            assert_quiescent(&sim, &cloud, &config, queues);
            late += r.late_events;
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        parts.push(cq.finish().unwrap());
        (RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap(), late)
    });

    assert_eq!(out, reference, "late events affected no window");
    assert_eq!(late, fold.late, "exact late count matches the replayed fold");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// A micro-batch whose events are all late submits no distributed query
/// at all: no staging, no admission, no budget spend.
#[test]
fn all_late_batch_submits_no_query() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 0, ..StreamSpec::default() };
    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "gaps", spec, plan_fn).unwrap();
        let fresh = vec![SourceEvent { ts: 100, key: 1, value: 5 }];
        let stale =
            vec![SourceEvent { ts: 1, key: 2, value: 7 }, SourceEvent { ts: 2, key: 3, value: 9 }];
        let first = cq.push_batch(&fresh).await.unwrap();
        assert!(first.query.is_some());
        assert_eq!(first.watermark, 100);
        let second = cq.push_batch(&stale).await.unwrap();
        assert!(second.query.is_none(), "an all-late batch runs no query");
        assert_eq!(second.late_events, 2);
        assert_eq!(second.emitted.num_rows(), 0);
        assert_eq!(cq.batches_run(), 1);
        let tail = cq.finish().unwrap();
        assert_eq!(tail.num_rows(), 1, "only the fresh event's window exists");
        assert_eq!(tail.row(0)[0], lambada::engine::Scalar::Int64(100));
    });
    assert!(!stream_bucket(&cloud, "gaps"));
    // The first batch's cold join fleet was speculated against, and the
    // original it backed up runs on past the query (nothing cancels it)
    // for a few hundred milliseconds. It reports to the deleted queue
    // and writes nothing.
    sim.block_on(cloud.handle.sleep(Duration::from_secs(1)));
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// A micro-batch whose query fails leaves nothing behind: a tenant with
/// no request budget has its batch rejected before any worker runs, no
/// stream bucket exists, and there was nothing to delete.
#[test]
fn a_failed_batch_leaves_nothing_behind() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 0, ..StreamSpec::default() };
    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );
    let broke = TenantBudget { max_request_dollars: Some(0.0), ..TenantBudget::default() };
    service.set_budget("streaming", broke);
    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let err = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "broke", spec, plan_fn).unwrap();
        cq.push_batch(&[SourceEvent { ts: 100, key: 1, value: 5 }]).await.err()
    });
    assert!(matches!(err, Some(CoreError::Rejected { .. })), "{err:?}");
    assert!(!stream_bucket(&cloud, "broke"), "the rejected batch stored its files");
    assert_eq!(cloud.s3.deleted_objects(), 0, "nothing was written, so nothing deleted");
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// What a plan function saw of each micro-batch while it was registered:
/// its files, their encoded bytes, and whether every one was inline.
#[derive(Default)]
struct Seen {
    files: Cell<usize>,
    bytes: Cell<u64>,
    all_inline: Cell<bool>,
}

impl Seen {
    fn record(&self, sys: &Lambada, table: &str) {
        let spec = sys.table(table).expect("the batch is registered while it plans");
        self.files.set(spec.files.len());
        self.bytes.set(spec.files.iter().map(TableFile::inline_bytes).sum());
        self.all_inline.set(spec.files.iter().all(|f| f.inline.is_some() && f.bucket.is_empty()));
    }
}

/// A stream joined to a one-worker dimension table whose scan hosts the
/// join: the stream's one scan worker is co-hosted in the dimension
/// scan's invocation, so its batch rides that payload. Each batch is one
/// invocation, its inline bytes cross the driver's link exactly once —
/// the link carries nothing else here, the aggregate state riding the
/// result message — and the stream scan makes no GET. Emissions stay
/// bit-identical to the reference.
#[test]
fn a_cohosted_stream_scan_carries_its_batch_over_the_driver_link_once() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 5, ..StreamSpec::default() };
    let batches = source_batches(
        SourceConfig { seed: 3, events_per_tick: 10.0, max_delay: 5, ..SourceConfig::default() },
        6,
        40,
    );
    // A dimension table larger than any batch, so its scan hosts the
    // join: keys no event has, with weights that do not compress.
    let filler = 4_000i64;
    let keys: Vec<i64> = (0..KEY_DOMAIN).chain(1_000..1_000 + filler).collect();
    let weight = |k: i64| if k < KEY_DOMAIN { (k + 1) * 10 } else { k * 2_654_435_761 % 1_000_003 };
    let weights: Vec<i64> = keys.iter().map(|&k| weight(k)).collect();
    let dim = vec![Column::I64(keys), Column::I64(weights)];
    let reference = reference_windows_over(
        &batches.concat(),
        &spec.window,
        RecordBatch::from_columns(&["dkey", "weight"], dim.clone()).unwrap(),
    );

    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let rows = KEY_DOMAIN as u64 + filler as u64;
    let dim = stage_table_real(&cloud, "dims", "dim", dim_schema(), vec![dim], rows, 1);
    let mut system = Lambada::install(&cloud, LambadaConfig::default());
    system.register_table(dim);
    let service = QueryService::new(system);

    let seen = Rc::new(Seen::default());
    let cohosted = Rc::new(Cell::new(false));
    let (seen_f, cohosted_f) = (Rc::clone(&seen), Rc::clone(&cohosted));
    let plan = move |sys: &Lambada, table: &str| {
        seen_f.record(sys, table);
        let plan = windowed_plan(table, "dim");
        let dag = streamify(sys.plan(&plan)?)?;
        let launch = sys.launch_plan(&dag, None)?;
        let stream = dag
            .stages
            .iter()
            .position(|s| matches!(s, lambada::core::StageKind::Scan(scan) if scan.table == table));
        cohosted_f.set(stream.is_some_and(|sid| launch.placement[sid] == Placement::CoHosted));
        Ok(plan)
    };

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let out = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "joined", spec, plan).unwrap();
        let mut parts = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            let link = cloud.driver_link().total_bytes();
            let r = cq.push_batch(b).await.unwrap();
            let carried = cloud.driver_link().total_bytes() - link;
            assert!(cohosted.get(), "batch {i}: the stream scan is co-hosted");
            assert!(seen.all_inline.get(), "batch {i}: every file is inline");
            let query = r.query.expect("every batch runs");
            assert_eq!(query.invocations(), 1, "batch {i}: one invocation runs the chain");
            // The link's byte count accumulates rate × time in floats.
            let once = (carried - seen.bytes.get() as f64).abs() < 1.0;
            assert!(once, "batch {i}: {carried} B carried for {} B", seen.bytes.get());
            let scans = query.stages.iter().filter(|s| s.label.starts_with("scan:joined"));
            assert!(scans.map(|s| s.get_requests).eq([0]), "batch {i}: the stream scan GETs");
            assert!(!stream_bucket(&cloud, "joined"));
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        parts.push(cq.finish().unwrap());
        RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap()
    });
    assert_eq!(out, reference);
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// A batch cut into enough files that one worker each makes a fleet the
/// driver launches two-level: every first-generation payload carries its
/// group's files within the invoke cap — no invocation is refused — and
/// the driver's link, which carries nothing else for a stream-only
/// aggregate, carries at least every batch's bytes (a speculative backup
/// carries its files again). Emissions stay bit-identical to the
/// reference.
#[test]
fn a_batch_of_many_files_launches_two_level_within_the_payload_cap() {
    let spec = StreamSpec {
        window: WindowSpec::tumbling(10),
        lateness: 5,
        batch_files: 128,
        ..StreamSpec::default()
    };
    let batches = source_batches(
        SourceConfig { seed: 13, events_per_tick: 40.0, max_delay: 5, ..SourceConfig::default() },
        3,
        600,
    );
    let catalog = reference_catalog(&batches.concat(), &spec.window, dim_batch());
    let reference = execute_into_batch(&stream_only_plan("stream_ref"), &catalog).unwrap();

    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );
    let seen = Rc::new(Seen::default());
    let seen_f = Rc::clone(&seen);
    let plan = move |sys: &Lambada, table: &str| {
        seen_f.record(sys, table);
        Ok(stream_only_plan(table))
    };

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let out = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "wide", spec, plan).unwrap();
        let mut parts = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            let link = cloud.driver_link().total_bytes();
            let r = cq.push_batch(b).await.unwrap();
            let carried = cloud.driver_link().total_bytes() - link;
            assert!(seen.all_inline.get(), "batch {i}: every file is inline");
            assert!(carried >= seen.bytes.get() as f64, "batch {i}: {carried} B carried");
            let query = r.query.expect("every batch runs");
            let files = seen.files.get();
            let two_level = choose_strategy(cloud.region(), files) == InvocationStrategy::TwoLevel;
            assert!(two_level, "batch {i}: {files} files");
            let scan = query.stages.iter().find(|s| s.label.starts_with("scan:wide"));
            assert_eq!(scan.map(|s| (s.workers, s.get_requests)), Some((files, 0)), "batch {i}");
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        parts.push(cq.finish().unwrap());
        RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap()
    });
    assert_eq!(out, reference);
    assert!(!stream_bucket(&cloud, "wide"));
    sim.block_on(cloud.handle.sleep(Duration::from_secs(1)));
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// A stream scan worker killed mid-batch: its speculative backup is the
/// same payload re-issued, so it re-reads the same inline files, and the
/// emissions stay bit-identical to the reference.
#[test]
fn a_killed_stream_scan_worker_is_backed_up_from_the_same_payload() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 5, ..StreamSpec::default() };
    let batches = source_batches(
        SourceConfig { seed: 17, events_per_tick: 10.0, max_delay: 5, ..SourceConfig::default() },
        8,
        40,
    );
    let reference = reference_windows(&batches.concat(), &spec.window);

    let sim = Simulation::new();
    let (cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::Exchange { workers: Some(2) }, TransportKind::ObjectStore),
        false,
    );
    // Kill the stream scan's worker 1, original attempt, in batch 3 only.
    let armed = Rc::new(Cell::new(false));
    let armed_f = Rc::clone(&armed);
    inject_query_worker_faults(&cloud, move |p| {
        let stream_scan = matches!(&p.task, WorkerTask::Stage(l)
            if matches!(&l[0].task.kind, StageKind::Scan(s) if s.table.starts_with("killed_b")));
        (armed_f.get() && stream_scan && p.worker_id == 1 && p.attempt == 0)
            .then(|| InjectedFault::kill(Duration::from_millis(1)))
    });

    let (config, queues) = (service.system().config().clone(), cloud.sqs.queue_count());
    let (out, backups) = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "killed", spec, plan_fn).unwrap();
        let (mut parts, mut backups) = (Vec::new(), 0);
        for (i, b) in batches.iter().enumerate() {
            armed.set(i == 3);
            let r = cq.push_batch(b).await.unwrap();
            if i == 3 {
                backups = r.query.as_ref().unwrap().backup_invocations();
            }
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        armed.set(false);
        parts.push(cq.finish().unwrap());
        (RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap(), backups)
    });
    assert_eq!(out, reference);
    assert!(cloud.faas.injected_kills("lambada-worker") >= 1, "the kill happened");
    assert!(backups >= 1, "the killed scan worker was speculated against");
    assert!(!stream_bucket(&cloud, "killed"));
    sim.block_on(cloud.handle.sleep(Duration::from_secs(1)));
    assert_quiescent(&sim, &cloud, &config, queues);
}

/// Malformed streaming plans are rejected at construction, before any
/// byte is staged: a non-aggregation plan fails `streamify`, and an
/// aggregation that does not group by the window column first trips the
/// V-STREAM-002 verifier check.
#[test]
fn malformed_streaming_plans_are_rejected_up_front() {
    let sim = Simulation::new();
    let (_cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );

    let scan_only = ContinuousQuery::new(
        &service,
        "streaming",
        "bad1",
        StreamSpec::default(),
        |_sys, table| {
            Ok(LogicalPlan::Scan {
                table: table.to_string(),
                schema: Arc::new(windowed_event_schema()),
                projection: None,
                predicate: None,
            })
        },
    );
    assert!(matches!(scan_only, Err(CoreError::Unsupported(_))), "a scan-only plan cannot stream");

    let wrong_key = ContinuousQuery::new(
        &service,
        "streaming",
        "bad2",
        StreamSpec::default(),
        |_sys, table| {
            Ok(LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Scan {
                    table: table.to_string(),
                    schema: Arc::new(windowed_event_schema()),
                    projection: None,
                    predicate: None,
                }),
                // Groups by the event key only — the window column never
                // reaches the group key list.
                group_by: vec![(col(1), "key".to_string())],
                aggs: vec![AggExpr::new(AggFunc::Sum, Some(col(2)), "sum_value")],
            })
        },
    );
    match wrong_key {
        Err(CoreError::InvalidPlan(diags)) => {
            assert!(diags.iter().any(|d| d.code == codes::STREAM_WINDOW_KEY), "{diags:?}");
        }
        Err(e) => panic!("expected V-STREAM-002 rejection, got {e:?}"),
        Ok(_) => panic!("expected V-STREAM-002 rejection, got a constructed query"),
    }
}
