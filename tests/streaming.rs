//! Continuous queries end-to-end: micro-batch streaming with windowed
//! aggregation must reproduce the batch reference executor bit-for-bit
//! over the whole stream — through the shared multi-tenant service,
//! concurrent with ad-hoc queries, across worker kills and degraded
//! direct-transport links, and with late events provably excluded.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use lambada::core::streaming::windowed_event_schema;
use lambada::core::verify::codes;
use lambada::core::{
    events_to_batch, inject_query_worker_faults, AggStrategy, ContinuousQuery, CoreError, Lambada,
    LambadaConfig, QueryService, ServiceConfig, StageOp, StreamSpec, TenantBudget, TransportKind,
    WorkerTask, WINDOW_COLUMN,
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

/// Batch reference: window-assign the *entire* kept stream at once and
/// run the same plan through the local engine. `agg_state_to_batch`
/// sorts groups by (window start, key) on both paths, so the streaming
/// emissions concatenated over the run must equal this bit-for-bit.
fn reference_windows(kept: &[SourceEvent], window: &WindowSpec) -> RecordBatch {
    let windowed =
        assign_windows(&events_to_batch(kept).unwrap(), 0, window, WINDOW_COLUMN).unwrap();
    let mut cat = Catalog::new();
    cat.register("stream_ref", Rc::new(MemTable::from_batch(windowed)));
    cat.register("dim_ref", Rc::new(MemTable::from_batch(dim_batch())));
    execute_into_batch(&windowed_plan("stream_ref", "dim_ref"), &cat).unwrap()
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
            && matches!(&p.task, WorkerTask::Stage(t) if matches!(t.op, StageOp::Join { .. })))
        .then(|| InjectedFault::kill(Duration::from_millis(1)))
    });

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
    assert_eq!(cloud.sqs.queue_count(), 0, "no result queue leaked");
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

    let (out, carried_after) = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "slides", spec, plan_fn).unwrap();
        let mut parts = Vec::new();
        for b in &batches {
            let r = cq.push_batch(b).await.unwrap();
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        parts.push(cq.finish().unwrap());
        (RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap(), cq.carried_groups())
    });

    assert_eq!(out, reference);
    assert_eq!(carried_after, 0, "finish() drained every open window");
    assert_eq!(cloud.sqs.queue_count(), 0);
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

    let out = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "direct", spec, plan_fn).unwrap();
        let mut parts = Vec::new();
        for (i, b) in batches.iter().enumerate() {
            armed.set((4..6).contains(&i));
            let r = cq.push_batch(b).await.unwrap();
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
    assert_eq!(cloud.sqs.queue_count(), 0);
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

    let (out, late) = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "streaming", "late", spec, plan_fn).unwrap();
        let mut parts = Vec::new();
        let mut late = 0u64;
        for b in &batches {
            let r = cq.push_batch(b).await.unwrap();
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
    assert_eq!(cloud.sqs.queue_count(), 0);
}

/// A micro-batch whose events are all late submits no distributed query
/// at all: no staging, no admission, no budget spend.
#[test]
fn all_late_batch_submits_no_query() {
    let spec =
        StreamSpec { window: WindowSpec::tumbling(10), lateness: 0, ..StreamSpec::default() };
    let sim = Simulation::new();
    let (_cloud, service) = streaming_service(
        &sim,
        streaming_config(AggStrategy::DriverMerge, TransportKind::ObjectStore),
        false,
    );

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
