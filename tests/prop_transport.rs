//! Transport-equivalence property suite: every distributed operator —
//! the four hash-join variants, the repartitioned aggregation, and the
//! range-partitioned sort/top-k — must produce bitwise-identical row
//! multisets whether its stage edges run on the object-store baseline or
//! on the direct worker-to-worker transport, across fleet sizes, key
//! skew, duplicate-attempt interleavings (speculative backups re-sending
//! partitions), and a silently killed producer.
//!
//! Small tables ship every edge inline, on either transport alike, and
//! the relay stays idle; padding the probe table past the inline cap
//! makes its senders too big for their budget, so the relay and the
//! object store carry them, and the relay must then spare S3 requests —
//! unless the probe scan hosts a one-worker join, whose probe rows then
//! cross no wire at all.
//!
//! Both runs execute on the *same* installation over the same staged
//! files, so any divergence is attributable to the transport alone. All
//! columns are integer-valued: "bitwise" has no float tolerance.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::message::INLINE_EDGE_BYTES;
use lambada::core::{
    AggStrategy, ExecPolicy, Lambada, LambadaConfig, QueryReport, SortStrategy, SpeculationConfig,
    TransportKind,
};
use lambada::engine::logical::LogicalPlan;
use lambada::engine::{
    execute_into_batch, AggExpr, AggFunc, Catalog, Column, DataType, Df, Field, JoinVariant,
    MemTable, RecordBatch, Scalar, Schema, SortKey,
};
use lambada::sim::{Cloud, CloudConfig, InjectedFault, Simulation};
use lambada::workloads::stage_table_real;

fn probe_schema() -> Schema {
    Schema::new(vec![
        Field::new("lk", DataType::Int64),
        Field::new("lv", DataType::Int64),
        Field::new("lt", DataType::Int64),
    ])
}

fn build_schema() -> Schema {
    Schema::new(vec![Field::new("rk", DataType::Int64), Field::new("rw", DataType::Int64)])
}

/// Key distributions: a small domain (dense matches, duplicate build
/// keys), a wide domain (sparse matches, empty exchange partitions), and
/// total skew (every row lands on one partition — on the direct path,
/// one mailbox receives everything while its peers get empty streams).
fn arb_keys(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        prop::collection::vec(-3i64..4, len..len + 1),
        prop::collection::vec(-1000i64..1000, len..len + 1),
        (0i64..2).prop_map(move |k| vec![k; len]),
    ]
}

fn arb_variant() -> impl Strategy<Value = JoinVariant> {
    prop_oneof![
        Just(JoinVariant::Inner),
        Just(JoinVariant::Semi),
        Just(JoinVariant::Anti),
        Just(JoinVariant::LeftOuter),
    ]
}

fn make_columns(schema: &Schema, keys: &[i64], tag: i64) -> Vec<Column> {
    let n = keys.len();
    let mut cols = vec![
        Column::I64(keys.to_vec()),
        Column::I64((0..n as i64).map(|i| tag * 1000 + i).collect()),
    ];
    if schema.len() == 3 {
        cols.push(Column::I64((0..n as i64).map(|i| i % 5).collect()));
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

/// Canonical multiset of rows, bitwise-comparable across run orders.
fn row_multiset(batch: &RecordBatch) -> Vec<Vec<lambada::engine::ScalarKey>> {
    let mut rows: Vec<Vec<lambada::engine::ScalarKey>> =
        (0..batch.num_rows()).map(|i| batch.row(i).iter().map(Scalar::key).collect()).collect();
    rows.sort();
    rows
}

/// `keys` cycled until their probe rows — three `Int64` columns, 24 B
/// apiece before any framing — outweigh [`INLINE_EDGE_BYTES`]. However
/// the files split them, some probe scanner then holds more than its
/// share of the cap, which is at least its inline budget: it ships its
/// edge through the relay or the object store. No keys stay none.
fn past_the_inline_cap(keys: &[i64]) -> Vec<i64> {
    let rows = if keys.is_empty() { 0 } else { INLINE_EDGE_BYTES / 24 + 1 };
    keys.iter().copied().cycle().take(rows.max(keys.len())).collect()
}

/// The direct run moved something over the relay and so spent fewer S3
/// requests than the baseline, which never touches it.
fn relay_spares_s3_requests(store: &QueryReport, direct: &QueryReport) -> bool {
    store.p2p_requests() == 0
        && direct.p2p_requests() > 0
        && direct.s3_requests() < store.s3_requests()
}

/// Neither run touched the relay, and both spent the same S3 requests:
/// every edge rode the messages.
fn relay_idle(store: &QueryReport, direct: &QueryReport) -> bool {
    (store.p2p_requests(), direct.p2p_requests()) == (0, 0)
        && direct.s3_requests() == store.s3_requests()
}

/// Whether the probe scan hosted the join in both runs: a one-worker join
/// runs in the invocation of its larger one-worker input, which hands
/// its rows on in memory, so no wire carries them.
fn probe_hosted(store: &QueryReport, direct: &QueryReport) -> bool {
    [store, direct].iter().all(|report| {
        let join = report.stages.iter().find(|s| s.label.contains("join#"));
        join.is_some_and(|j| report.stages[j.chain].label.starts_with("scan:l#"))
    })
}

fn policy(kind: TransportKind) -> ExecPolicy {
    ExecPolicy { transport: Some(kind), ..ExecPolicy::default() }
}

/// Stage both tables, install with `config`, and run `plan` twice on the
/// same installation — object-store baseline first, direct second.
fn run_on_both_transports(
    probe_keys: &[i64],
    build_keys: &[i64],
    probe_files: usize,
    build_files: usize,
    config: LambadaConfig,
    plan: &LogicalPlan,
) -> (QueryReport, QueryReport) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let lcols = make_columns(&probe_schema(), probe_keys, 1);
    let rcols = make_columns(&build_schema(), build_keys, 2);
    let lspec = stage_table_real(
        &cloud,
        "data",
        "l",
        probe_schema(),
        split_files(&lcols, probe_files),
        probe_keys.len() as u64,
        2,
    );
    let rspec = stage_table_real(
        &cloud,
        "data",
        "r",
        build_schema(),
        split_files(&rcols, build_files),
        build_keys.len() as u64,
        2,
    );
    let mut system = Lambada::install(&cloud, config);
    system.register_table(lspec);
    system.register_table(rspec);
    let plan = plan.clone();
    sim.block_on(async move {
        let dag = system.plan(&plan).unwrap();
        let store = system.run_dag_with(&dag, &policy(TransportKind::ObjectStore)).await.unwrap();
        let direct = system.run_dag_with(&dag, &policy(TransportKind::Direct)).await.unwrap();
        (store, direct)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All four distributed join variants: DirectTransport ≡ object-store
    /// baseline as bitwise row multisets, across fleet sizes, file
    /// layouts, key skew and probe sizes on both sides of the inline
    /// budget. Under it the relay stays idle; past it the direct run
    /// streams and spares S3 requests.
    #[test]
    fn direct_join_variants_match_object_store(
        variant in arb_variant(),
        probe_keys in (0usize..50).prop_flat_map(arb_keys),
        build_keys in (0usize..30).prop_flat_map(arb_keys),
        over_budget in prop_oneof![Just(false), Just(true)],
        probe_files in 1usize..4,
        build_files in 1usize..4,
        join_workers in 1usize..8,
    ) {
        let probe_keys = if over_budget { past_the_inline_cap(&probe_keys) } else { probe_keys };
        let left = Df::scan("l", &probe_schema());
        let right = Df::scan("r", &build_schema());
        let plan = left.join_variant(right, &[("lk", "rk")], variant).unwrap().build();
        let (store, direct) = run_on_both_transports(
            &probe_keys,
            &build_keys,
            probe_files,
            build_files,
            LambadaConfig { join_workers: Some(join_workers), ..LambadaConfig::default() },
            &plan,
        );
        prop_assert_eq!(
            row_multiset(&direct.batch),
            row_multiset(&store.batch),
            "{:?} join diverged across transports",
            variant
        );
        let streams = over_budget && !probe_keys.is_empty() && !probe_hosted(&store, &direct);
        prop_assert!(
            if streams { relay_spares_s3_requests(&store, &direct) } else { relay_idle(&store, &direct) },
            "direct: {} S3 requests and {} over the relay; store: {} and {}",
            direct.s3_requests(),
            direct.p2p_requests(),
            store.s3_requests(),
            store.p2p_requests()
        );
    }

    /// The full distributed pipeline — join feeding a repartitioned
    /// aggregation feeding a range-partitioned top-k sort — returns the
    /// *exact row sequence* on both transports, and both match the local
    /// reference executor.
    #[test]
    fn direct_agg_and_sort_match_object_store_and_reference(
        probe_keys in arb_keys(40),
        build_keys in arb_keys(20),
        over_budget in prop_oneof![Just(false), Just(true)],
        join_workers in 1usize..5,
        agg_workers in 1usize..5,
        sort_workers in 1usize..5,
        limit in 1usize..12,
    ) {
        let left = Df::scan("l", &probe_schema());
        let right = Df::scan("r", &build_schema());
        let joined = left.join_variant(right, &[("lk", "rk")], JoinVariant::Inner).unwrap();
        let lt = joined.col("lt").unwrap();
        let lv = joined.col("lv").unwrap();
        let plan = joined
            .aggregate(
                vec![(lt, "lt")],
                vec![
                    AggExpr::new(AggFunc::Count, None, "n"),
                    AggExpr::new(AggFunc::Sum, Some(lv), "sum_lv"),
                ],
            )
            .unwrap()
            .sort(vec![
                SortKey::desc(lambada::engine::col(1)),
                SortKey::asc(lambada::engine::col(0)),
            ])
            .unwrap()
            .limit(limit)
            .unwrap()
            .build();
        let probe_keys = if over_budget { past_the_inline_cap(&probe_keys) } else { probe_keys };
        let (store, direct) = run_on_both_transports(
            &probe_keys,
            &build_keys,
            2,
            2,
            LambadaConfig {
                join_workers: Some(join_workers),
                agg: AggStrategy::Exchange { workers: Some(agg_workers) },
                sort: SortStrategy::Exchange { workers: Some(sort_workers) },
                ..LambadaConfig::default()
            },
            &plan,
        );
        // Exact sequence: the sort fixes a total order, integers are
        // exact, so the two transports must agree bit for bit.
        prop_assert_eq!(direct.batch.num_rows(), store.batch.num_rows());
        for i in 0..direct.batch.num_rows() {
            prop_assert_eq!(direct.batch.row(i), store.batch.row(i), "row {} differs", i);
        }
        // And both match the local reference executor.
        let mut cat = Catalog::new();
        cat.register("l", Rc::new(MemTable::from_batch(
            RecordBatch::new(Arc::new(probe_schema()), make_columns(&probe_schema(), &probe_keys, 1))
                .unwrap(),
        )));
        cat.register("r", Rc::new(MemTable::from_batch(
            RecordBatch::new(Arc::new(build_schema()), make_columns(&build_schema(), &build_keys, 2))
                .unwrap(),
        )));
        let reference = execute_into_batch(&plan, &cat).unwrap();
        prop_assert_eq!(row_multiset(&direct.batch), row_multiset(&reference));
        // Only the probe edge over budget rides the relay, unless it is a
        // host edge: a sort edge's blocks never stream, and every other
        // edge rides the messages.
        prop_assert!(if over_budget && !probe_hosted(&store, &direct) {
            relay_spares_s3_requests(&store, &direct)
        } else {
            relay_idle(&store, &direct)
        });
    }
}

/// Shared setup for the fault cases: lineitem-style synthetic tables big
/// enough that a straggling producer trips the speculation thresholds —
/// its probe edge is too big to ride inline, so it streams.
fn fault_case_plan() -> LogicalPlan {
    let left = Df::scan("l", &probe_schema());
    let right = Df::scan("r", &build_schema());
    let joined = left.join_variant(right, &[("lk", "rk")], JoinVariant::Inner).unwrap();
    let lt = joined.col("lt").unwrap();
    let lv = joined.col("lv").unwrap();
    joined
        .aggregate(
            vec![(lt, "lt")],
            vec![
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Sum, Some(lv), "sum_lv"),
            ],
        )
        .unwrap()
        .sort(vec![SortKey::asc(lambada::engine::col(0))])
        .unwrap()
        .build()
}

fn fault_case_keys() -> (Vec<i64>, Vec<i64>) {
    // Deterministic, moderately skewed keys: every partition nonempty,
    // some much fuller than others.
    let probe: Vec<i64> = (0..8000).map(|i| (i * i) % 37 - 7).collect();
    let build: Vec<i64> = (0..120).map(|i| (i * 3) % 37 - 7).collect();
    (probe, build)
}

/// Run the fault-case plan under `kind` with speculation on and an
/// optional per-worker fault.
fn run_fault_case(
    kind: TransportKind,
    fault: Option<fn(u64, u32) -> Option<InjectedFault>>,
) -> QueryReport {
    let (probe_keys, build_keys) = fault_case_keys();
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let lcols = make_columns(&probe_schema(), &probe_keys, 1);
    let rcols = make_columns(&build_schema(), &build_keys, 2);
    let lspec = stage_table_real(
        &cloud,
        "data",
        "l",
        probe_schema(),
        split_files(&lcols, 4),
        probe_keys.len() as u64,
        2,
    );
    let rspec = stage_table_real(
        &cloud,
        "data",
        "r",
        build_schema(),
        split_files(&rcols, 3),
        build_keys.len() as u64,
        2,
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            // One scan worker per file: enough producers to warm the
            // consumers' containers, and the faults target one of several.
            files_per_worker: Some(1),
            join_workers: Some(4),
            agg: AggStrategy::Exchange { workers: Some(2) },
            transport: kind,
            speculation: SpeculationConfig {
                enabled: true,
                quantile: 0.7,
                multiplier: 2.0,
                max_attempts: 1,
                ..SpeculationConfig::default()
            },
            ..LambadaConfig::default()
        },
    );
    system.register_table(lspec);
    system.register_table(rspec);
    if let Some(f) = fault {
        lambada::core::inject_worker_faults(&cloud, f);
    }
    let plan = fault_case_plan();
    sim.block_on(async move { system.run_query(&plan).await.unwrap() })
}

/// Duplicate-attempt interleaving on the direct path: a scan producer
/// with a crippled NIC (about 1 KB/s: a straggler by its own slowness,
/// well past the fleet's cold starts) keeps streaming its attempt-0
/// partitions while its speculative backup re-sends them as attempt 1. Consumers
/// must pick exactly one attempt per sender — highest wins on ties of
/// availability — and the result must match the clean baseline run.
#[test]
fn duplicate_attempts_on_direct_path_match_clean_baseline() {
    let clean = run_fault_case(TransportKind::ObjectStore, None);
    assert_eq!(clean.backup_invocations(), 0);
    let dup = run_fault_case(
        TransportKind::Direct,
        Some(|wid, attempt| {
            (wid == 1 && attempt == 0).then_some(InjectedFault {
                compute_factor: 50.0,
                nic_factor: 0.00001,
                kill_after: None,
            })
        }),
    );
    assert!(dup.backup_invocations() >= 1, "the straggler was speculated against");
    assert!(dup.p2p_requests() > 0);
    assert_eq!(row_multiset(&dup.batch), row_multiset(&clean.batch));
}

/// A silently killed producer on the direct path: its p2p streams die
/// with it (messages become visible only after a complete transfer, so a
/// kill leaves nothing in any mailbox), speculation re-invokes it, and
/// the backup's attempt-1 partitions carry the stage. The result must
/// match the clean object-store baseline bit for bit.
#[test]
fn killed_producer_on_direct_path_matches_clean_baseline() {
    let clean = run_fault_case(TransportKind::ObjectStore, None);
    let killed = run_fault_case(
        TransportKind::Direct,
        Some(|wid, attempt| {
            (wid == 1 && attempt == 0)
                .then(|| InjectedFault::kill(std::time::Duration::from_millis(10)))
        }),
    );
    assert!(killed.backup_invocations() >= 1, "the kill was speculated against");
    assert_eq!(row_multiset(&killed.batch), row_multiset(&clean.batch));
}
