//! Event-driven scheduler integration suite: the one scheduler — a
//! stage launches once its own inputs completed — must produce the
//! reference executor's rows on an unbalanced multi-join DAG, repeat
//! them bit for bit, and stay deadlock-free under a shared
//! [`WorkerGate`] cap smaller than the combined fleets; and speculation
//! must recover a killed producer, its consumers addressed from the
//! backup's report.

use std::rc::Rc;
use std::sync::Arc;

use lambada::core::{
    AggStrategy, ExecPolicy, Lambada, LambadaConfig, QueryReport, SortStrategy, SpeculationConfig,
    WorkerGate,
};
use lambada::engine::logical::LogicalPlan;
use lambada::engine::{
    execute_into_batch, AggExpr, AggFunc, Catalog, Column, DataType, Df, Field, MemTable,
    RecordBatch, Scalar, ScalarKey, Schema, SortKey,
};
use lambada::sim::{Cloud, CloudConfig, InjectedFault, Simulation};
use lambada::workloads::stage_table_real;

fn keys(n: usize, salt: u64, domain: i64) -> Vec<i64> {
    (0..n as u64)
        .map(|i| {
            let x = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (x % domain as u64) as i64
        })
        .collect()
}

fn table_cols(n: usize, salt: u64, prefix: usize, domain: i64) -> (Schema, Vec<Column>) {
    let schema = Schema::new(vec![
        Field::new(format!("k{prefix}"), DataType::Int64),
        Field::new(format!("v{prefix}"), DataType::Int64),
    ]);
    let k = keys(n, salt, domain);
    let v: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
    (schema, vec![Column::I64(k), Column::I64(v)])
}

fn split_files(cols: &[Column], num_files: usize) -> Vec<Vec<Column>> {
    let rows = cols.first().map_or(0, Column::len);
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

/// Stage the unbalanced shape the scheduler benchmarks use in
/// miniature: a three-table dimension chain beside a wider fact scan,
/// all joined. Small key domain so every join matches rows. The catalog
/// holds the same tables in memory for the reference executor.
fn install_unbalanced(cloud: &Cloud, config: LambadaConfig) -> (Lambada, LogicalPlan, Catalog) {
    let mut system = Lambada::install(cloud, config);
    let mut catalog = Catalog::new();
    let mut dfs = Vec::new();
    for (name, prefix, rows, files, salt) in [
        ("t0", 0usize, 240usize, 3usize, 0xA5A5u64),
        ("t1", 1, 60, 1, 0xA5A6),
        ("t2", 2, 40, 1, 0xA5A7),
        ("big", 9, 320, 4, 0xBEEF),
    ] {
        let (schema, cols) = table_cols(rows, salt, prefix, 13);
        let spec = stage_table_real(
            cloud,
            "data",
            name,
            schema.clone(),
            split_files(&cols, files),
            rows as u64,
            2,
        );
        system.register_table(spec);
        dfs.push(Df::scan(name, &schema));
        let batch = RecordBatch::new(Arc::new(schema), cols).unwrap();
        catalog.register(name, Rc::new(MemTable::from_batch(batch)));
    }
    let big = dfs.remove(3);
    let mut df = dfs.remove(0);
    for (t, right) in dfs.into_iter().enumerate() {
        let key = format!("k{}", t + 1);
        df = df.join(right, &[("k0", key.as_str())]).unwrap();
    }
    let plan = df.join(big, &[("k0", "k9")]).unwrap().build();
    (system, plan, catalog)
}

/// Canonical multiset of rows: a distributed join emits the reference's
/// rows in partition order, not in the reference's order.
fn row_multiset(batch: &RecordBatch) -> Vec<Vec<ScalarKey>> {
    let mut rows: Vec<Vec<ScalarKey>> =
        (0..batch.num_rows()).map(|i| batch.row(i).iter().map(Scalar::key).collect()).collect();
    rows.sort();
    rows
}

/// Two runs of the same DAG on the same installation return the
/// reference executor's rows, and each other's bit for bit.
#[test]
fn unbalanced_dag_matches_the_reference_bit_for_bit() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (system, plan, catalog) = install_unbalanced(
        &cloud,
        LambadaConfig { join_workers: Some(4), ..LambadaConfig::default() },
    );
    let reference = execute_into_batch(&plan, &catalog).unwrap();
    assert!(reference.num_rows() > 0, "the chain must actually join rows");
    sim.block_on(async move {
        let dag = system.plan(&plan).unwrap();
        let first = system.run_dag(&dag).await.unwrap();
        let second = system.run_dag(&dag).await.unwrap();
        assert_eq!(row_multiset(&first.batch), row_multiset(&reference), "vs reference");
        assert_eq!(second.batch, first.batch, "a second run moved rows");
        let lists: u64 = first.stages.iter().map(|s| s.list_requests).sum();
        assert_eq!(lists, 0, "every edge addressed, none listed");
    });
}

/// A worker gate whose cap is smaller than the combined fleets of the
/// concurrent scans: a fleet asks for workers only once its inputs
/// completed and released theirs, so the query completes instead of
/// deadlocking, matches the ungated run, and never exceeds the cap.
#[test]
fn a_binding_worker_gate_completes_without_deadlock() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (system, plan, _) = install_unbalanced(
        &cloud,
        LambadaConfig { join_workers: Some(4), ..LambadaConfig::default() },
    );
    sim.block_on(async move {
        let dag = system.plan(&plan).unwrap();
        let free = system.run_dag(&dag).await.unwrap();
        // Cap 4 admits any single fleet whole (joins are pinned at 4)
        // but never two of them together.
        let gate = WorkerGate::new(4);
        let policy = ExecPolicy { gate: Some(gate.clone()), ..ExecPolicy::default() };
        let gated = system.run_dag_with(&dag, &policy).await.unwrap();
        assert_eq!(gated.batch, free.batch, "gating must not change rows");
        assert_eq!(gate.inflight(), 0, "every lease released");
        assert!(
            gate.peak_inflight() <= 4,
            "no fleet is pinned above the cap, so the cap binds: peak {}",
            gate.peak_inflight()
        );
    });
}

/// The fault-suite plan: join feeding a repartitioned aggregation
/// feeding a distributed sort.
fn fault_plan() -> LogicalPlan {
    let left = Df::scan(
        "l",
        &Schema::new(vec![Field::new("k0", DataType::Int64), Field::new("v0", DataType::Int64)]),
    );
    let right = Df::scan(
        "r",
        &Schema::new(vec![Field::new("k1", DataType::Int64), Field::new("v1", DataType::Int64)]),
    );
    let joined = left.join(right, &[("k0", "k1")]).unwrap();
    let k = joined.col("k0").unwrap();
    let v = joined.col("v0").unwrap();
    joined
        .aggregate(
            vec![(k, "k")],
            vec![
                AggExpr::new(AggFunc::Count, None, "n"),
                AggExpr::new(AggFunc::Sum, Some(v), "sum_v"),
            ],
        )
        .unwrap()
        .sort(vec![SortKey::asc(lambada::engine::col(0))])
        .unwrap()
        .build()
}

fn run_fault_case(fault: Option<fn(u64, u32) -> Option<InjectedFault>>) -> QueryReport {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (ls, lcols) = table_cols(400, 0x1111, 0, 37);
    let (rs, rcols) = table_cols(120, 0x2222, 1, 37);
    let lspec = stage_table_real(&cloud, "data", "l", ls, split_files(&lcols, 4), 400, 2);
    let rspec = stage_table_real(&cloud, "data", "r", rs, split_files(&rcols, 3), 120, 2);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            // One scan worker per file: enough producers to warm the
            // consumers' containers, and the faults target one of several.
            files_per_worker: Some(1),
            join_workers: Some(4),
            agg: AggStrategy::Exchange { workers: Some(2) },
            sort: SortStrategy::Exchange { workers: Some(2) },
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
    let plan = fault_plan();
    sim.block_on(async move {
        let dag = system.plan(&plan).unwrap();
        system.run_dag(&dag).await.unwrap()
    })
}

/// A producer silently killed mid-flight: the per-stage straggler
/// watcher (anchored to the fleet's own post-gate launch instant)
/// re-invokes it, the driver keeps the backup's report — the first for
/// that worker — and addresses the consumers from its section table, and
/// the result matches the clean run bit for bit.
#[test]
fn speculation_recovers_a_killed_producer() {
    let clean = run_fault_case(None);
    assert_eq!(clean.backup_invocations(), 0);
    assert!(clean.batch.num_rows() > 0);
    let killed = run_fault_case(Some(|wid, attempt| {
        (wid == 1 && attempt == 0)
            .then(|| InjectedFault::kill(std::time::Duration::from_millis(10)))
    }));
    assert!(killed.backup_invocations() >= 1, "the kill was speculated against");
    assert_eq!(killed.batch, clean.batch);
    let join = killed.stages.iter().find(|s| s.label.starts_with("join#")).unwrap();
    assert_eq!((join.list_requests, join.exchange_wait_secs), (0, 0.0));
}
