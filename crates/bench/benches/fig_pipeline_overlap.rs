//! Event-driven stage scheduling on an *unbalanced* multi-join DAG: a
//! wide, slow fact scan sits beside a deep chain of small dimension
//! joins. Eager launch runs the whole dimension chain concurrently with
//! the fact scan, and overlap additionally starts cost-approved
//! consumers while their producers still run, streaming sections in
//! through the exchange's discovery polls. Overlapped consumers bill
//! while polling (Kassing et al., CIDR 2022), so the bench also meters
//! the extra billed poll-wait and holds it against the cost model's
//! documented `OVERLAP_POLL_HEADROOM` bound.
//!
//! Both modes must produce bit-identical results — every edge still
//! synchronizes through storage; the scheduler only moves launch
//! instants.
//!
//! Quick mode for CI: `LAMBADA_FIG_OVERLAP_ROWS=6000
//! cargo bench --bench fig_pipeline_overlap`.

use lambada_bench::{banner, env_usize, record_bench_summary};
use lambada_core::costmodel::OVERLAP_POLL_HEADROOM;
use lambada_core::{ExecPolicy, Lambada, LambadaConfig, QueryReport, SchedMode};
use lambada_engine::types::{DataType, Field, Schema};
use lambada_engine::{Column, Df};
use lambada_sim::{Cloud, CloudConfig, Simulation};
use lambada_workloads::stage_table_real;

/// Deterministic key stream (no rand dependency in the harness).
fn keys(n: usize, salt: u64, domain: i64) -> Vec<i64> {
    (0..n as u64)
        .map(|i| {
            let x = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (x % domain as u64) as i64
        })
        .collect()
}

fn table_cols(n: usize, salt: u64, prefix: usize) -> (Schema, Vec<Column>) {
    let schema = Schema::new(vec![
        Field::new(format!("k{prefix}"), DataType::Int64),
        Field::new(format!("v{prefix}"), DataType::Int64),
    ]);
    let k = keys(n, salt, (n as i64 / 2).max(4));
    let v: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
    (schema, vec![Column::I64(k), Column::I64(v)])
}

/// Build the unbalanced DAG and run it under one scheduler mode: a
/// small fact table joins a chain of two tiny dimensions (the deep,
/// fast branch), and the chain's output then joins the wide fact table
/// `big` (the shallow, slow branch). `big` is split over 16 files that
/// `files_per_worker` folds onto a *single* worker, so its scan stage
/// pays ~16 sequential file fetches while every chain stage is a
/// single-file quickie: the dimension chain finishes inside `big`'s
/// scan window.
fn run_unbalanced(rows: usize, mode: SchedMode) -> QueryReport {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig { join_workers: Some(4), files_per_worker: 64, ..LambadaConfig::default() },
    );
    // The deep branch: fact t0 and two tiny dimensions, one file each.
    let mut dfs = Vec::new();
    for t in 0..3usize {
        let n = if t == 0 { rows / 2 } else { rows / 64 };
        let (schema, cols) = table_cols(n.max(8), 0xA5A5 + t as u64, t);
        let name = format!("t{t}");
        let spec = stage_table_real(
            &cloud,
            "data",
            &name,
            schema.clone(),
            vec![cols.clone()],
            cols[0].len() as u64,
            2,
        );
        system.register_table(spec);
        dfs.push(Df::scan(name, &schema));
    }
    // The shallow branch: the wide fact table, 64 files on one worker.
    let files = 64usize;
    let per = (rows / files).max(8);
    let big_schema =
        Schema::new(vec![Field::new("k9", DataType::Int64), Field::new("v9", DataType::Int64)]);
    let file_cols: Vec<Vec<Column>> = (0..files)
        .map(|f| {
            let k = keys(per, 0xBEEF + f as u64, (per as i64 / 2).max(4));
            let v: Vec<i64> = (0..per as i64).map(|i| i % 97).collect();
            vec![Column::I64(k), Column::I64(v)]
        })
        .collect();
    let big_spec = stage_table_real(
        &cloud,
        "data",
        "big",
        big_schema.clone(),
        file_cols,
        (per * files) as u64,
        3,
    );
    system.register_table(big_spec);

    let mut df = dfs.remove(0);
    for (t, right) in dfs.into_iter().enumerate() {
        let right_key = format!("k{}", t + 1);
        df = df.join(right, &[("k0", right_key.as_str())]).unwrap();
    }
    let plan = df.join(Df::scan("big", &big_schema), &[("k0", "k9")]).unwrap().build();
    let policy = ExecPolicy { scheduler: Some(mode), ..ExecPolicy::default() };
    sim.block_on(async move {
        let dag = system.plan(&plan).unwrap();
        system.run_dag_with(&dag, &policy).await.unwrap()
    })
}

fn request_dollars(report: &QueryReport) -> f64 {
    let prices = lambada_sim::Prices::default();
    report.stages.iter().map(|s| s.request_dollars(&prices)).sum()
}

fn poll_wait(report: &QueryReport) -> f64 {
    report.stages.iter().map(|s| s.exchange_wait_secs).sum()
}

fn worker_exec(report: &QueryReport) -> f64 {
    report.worker_metrics.iter().map(|m| m.processing_secs).sum()
}

fn main() {
    let rows = env_usize("LAMBADA_FIG_OVERLAP_ROWS", 24_000);

    banner(
        "Fig pipeline-overlap",
        &format!("eager vs overlapped stage scheduling, {rows}-row fact table"),
    );

    let modes = [("eager", SchedMode::Eager), ("overlap", SchedMode::Overlap)];
    let mut reports = Vec::new();
    println!(
        "{:<9} {:>12} {:>14} {:>14} {:>14}",
        "mode", "span [s]", "queue-wait [s]", "poll-wait [s]", "requests [$]"
    );
    for (label, mode) in modes {
        let r = run_unbalanced(rows, mode);
        let queue_wait: f64 = r.stages.iter().map(|s| s.queue_wait_secs).sum();
        println!(
            "{label:<9} {:>12.2} {:>14.2} {:>14.2} {:>14.6}",
            r.latency_secs,
            queue_wait,
            poll_wait(&r),
            request_dollars(&r),
        );
        for s in &r.stages {
            println!(
                "  {:<16} {:>2} workers  queue {:>5.2}s  exec {:>5.2}s  poll {:>5.2}s",
                s.label, s.workers, s.queue_wait_secs, s.exec_secs, s.exchange_wait_secs
            );
        }
        record_bench_summary("fig_pipeline_overlap", label, r.latency_secs, request_dollars(&r));
        reports.push((label, r));
    }

    // Bit-identical results: the scheduler moves launch instants, never
    // rows — storage synchronization makes every mode read complete,
    // deduplicated co-partitions.
    let (eager, overlap) = (&reports[0].1, &reports[1].1);
    assert_eq!(overlap.batch, eager.batch, "overlap result diverged from eager's");

    // Overlap's price: consumers launched early bill their discovery
    // polls. The cost model only approves an edge when the predicted
    // poll-wait stays under OVERLAP_POLL_HEADROOM of the consumer's own
    // work, so the *extra* measured poll-wait (beyond what eager pays
    // anyway) must stay under that fraction of total billed worker time.
    let extra_wait = (poll_wait(overlap) - poll_wait(eager)).max(0.0);
    let bound = OVERLAP_POLL_HEADROOM * worker_exec(overlap);
    println!(
        "--> overlap extra billed poll-wait: {extra_wait:.2}s (bound {bound:.2}s = headroom \
         {OVERLAP_POLL_HEADROOM} x {:.2}s billed worker time)",
        worker_exec(overlap)
    );
    assert!(
        extra_wait <= bound,
        "overlap billed {extra_wait:.2}s extra poll-wait, over the documented headroom bound \
         {bound:.2}s"
    );
}
