//! Streaming-equivalence property suite: for random streams (seed, rate,
//! disorder bound, key skew), random window shapes (tumbling and sliding),
//! random micro-batch boundaries, both aggregation strategies, and both
//! stage-edge transports, the continuous query's concatenated window
//! emissions must be bit-identical to the batch reference executor run
//! once over the entire stream.
//!
//! Every aggregate input is integer-valued — sums (including Avg's
//! internal one) are exact in `f64`, so "bit-identical" needs no
//! tolerance and no merge-order caveat.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::streaming::windowed_event_schema;
use lambada::core::{
    events_to_batch, AggStrategy, ContinuousQuery, Lambada, LambadaConfig, QueryService,
    ServiceConfig, StreamSpec, TenantBudget, TransportKind, WINDOW_COLUMN,
};
use lambada::engine::logical::{JoinVariant, LogicalPlan};
use lambada::engine::{
    assign_windows, col, execute_into_batch, AggExpr, AggFunc, Catalog, Column, DataType, Field,
    MemTable, RecordBatch, Schema, WindowSpec,
};
use lambada::sim::{Cloud, CloudConfig, EventSource, Simulation, SourceConfig, SourceEvent};
use lambada::workloads::stage_table_real;

/// Upper bound on the source's key domain; the staged dimension covers
/// all of it, so the stream⋈dim join keeps every event row.
const MAX_KEYS: i64 = 8;

fn dim_schema() -> Schema {
    Schema::new(vec![Field::new("dkey", DataType::Int64), Field::new("weight", DataType::Int64)])
}

fn dim_columns() -> Vec<Column> {
    let keys: Vec<i64> = (0..MAX_KEYS).collect();
    let weights: Vec<i64> = (0..MAX_KEYS).map(|k| (k + 1) * 10).collect();
    vec![Column::I64(keys), Column::I64(weights)]
}

fn dim_batch() -> RecordBatch {
    RecordBatch::from_columns(&["dkey", "weight"], dim_columns()).unwrap()
}

/// The windowed join-aggregate both paths run: stream ⋈ dim on the key,
/// grouped by (window start, key), with exact-integer aggregates.
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

fn reference_windows(kept: &[SourceEvent], window: &WindowSpec) -> RecordBatch {
    let windowed =
        assign_windows(&events_to_batch(kept).unwrap(), 0, window, WINDOW_COLUMN).unwrap();
    let mut cat = Catalog::new();
    cat.register("stream_ref", Rc::new(MemTable::from_batch(windowed)));
    cat.register("dim_ref", Rc::new(MemTable::from_batch(dim_batch())));
    execute_into_batch(&windowed_plan("stream_ref", "dim_ref"), &cat).unwrap()
}

/// One randomized stream scenario.
#[derive(Debug, Clone)]
struct StreamCase {
    seed: u64,
    /// Events per tick in quarter steps (`rate_quarters / 4`).
    rate_quarters: u32,
    size: i64,
    slide: i64,
    /// Source out-of-orderness bound; the spec's allowed lateness equals
    /// it, so no event is ever classified late.
    max_delay: i64,
    key_domain: u64,
    /// Random micro-batch boundaries.
    batch_sizes: Vec<usize>,
    exchange_agg: bool,
    direct: bool,
}

fn arb_case() -> impl Strategy<Value = StreamCase> {
    (2i64..=16)
        .prop_flat_map(|size| {
            (
                (any::<u64>(), 4u32..=60, Just(size), 1i64..=size, 0i64..=6),
                (
                    1u64..=MAX_KEYS as u64,
                    prop::collection::vec(1usize..50, 3..8),
                    any::<bool>(),
                    any::<bool>(),
                ),
            )
        })
        .prop_map(
            |(
                (seed, rate_quarters, size, slide, max_delay),
                (key_domain, batch_sizes, exchange_agg, direct),
            )| StreamCase {
                seed,
                rate_quarters,
                size,
                slide,
                max_delay,
                key_domain,
                batch_sizes,
                exchange_agg,
                direct,
            },
        )
}

fn run_case(case: &StreamCase) {
    let spec = StreamSpec {
        window: WindowSpec::sliding(case.size, case.slide),
        lateness: case.max_delay,
        ..StreamSpec::default()
    };
    let mut src = EventSource::new(SourceConfig {
        seed: case.seed,
        events_per_tick: f64::from(case.rate_quarters) / 4.0,
        key_domain: case.key_domain,
        max_delay: case.max_delay,
        ..SourceConfig::default()
    });
    let batches: Vec<Vec<SourceEvent>> =
        case.batch_sizes.iter().map(|&n| src.next_events(n)).collect();
    let reference = reference_windows(&batches.concat(), &spec.window);

    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let dim = stage_table_real(
        &cloud,
        "dims",
        "dim",
        dim_schema(),
        vec![dim_columns()],
        MAX_KEYS as u64,
        1,
    );
    let agg = if case.exchange_agg {
        AggStrategy::Exchange { workers: Some(2) }
    } else {
        AggStrategy::DriverMerge
    };
    let transport = if case.direct { TransportKind::Direct } else { TransportKind::ObjectStore };
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            join_workers: Some(3),
            agg,
            transport,
            speculate: false,
            ..LambadaConfig::default()
        },
    );
    system.register_table(dim);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 0,
            max_concurrent_queries: 2,
            shrink_fleets: false,
            default_budget: TenantBudget::default(),
        },
    );

    let (out, late) = sim.block_on(async {
        let mut cq = ContinuousQuery::new(&service, "prop", "s", spec, |_sys, table| {
            Ok(windowed_plan(table, "dim"))
        })
        .unwrap();
        let mut parts = Vec::new();
        for b in &batches {
            let r = cq.push_batch(b).await.unwrap();
            if r.emitted.num_rows() > 0 {
                parts.push(r.emitted);
            }
        }
        parts.push(cq.finish().unwrap());
        (RecordBatch::concat(cq.agg_schema().clone(), &parts).unwrap(), cq.late_events())
    });

    assert_eq!(late, 0, "lateness == disorder bound never classifies late: {case:?}");
    assert_eq!(out, reference, "streamed windows diverged from the batch reference: {case:?}");
    assert_eq!(cloud.sqs.queue_count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concatenated window emissions are bit-identical to the batch
    /// reference across the full randomized matrix.
    #[test]
    fn streamed_windows_equal_the_batch_reference(case in arb_case()) {
        run_case(&case);
    }
}
