//! Distributed group-by aggregation end to end: the TPC-H Q3-style join
//! plus *high-cardinality* group-by (one group per qualifying order)
//! running as a purely serverless stage DAG — scan fleets hash-partition
//! both tables onto exchange edges, a join fleet builds + probes its
//! co-partitions and pre-aggregates, then ships its grouped state
//! *sharded by group-key hash* over a second exchange edge to an
//! agg-merge fleet that merges and finalizes, and each merge worker
//! reports only its own top 10. The driver only concatenates those rows
//! and applies the top-10 sort — no driver-side aggregate merge, no
//! always-on infrastructure anywhere.
//!
//! ```sh
//! cargo run --release --example tpch_group_by
//! ```

use lambada::core::{AggStrategy, Lambada, LambadaConfig};
use lambada::sim::{Cloud, CloudConfig, Simulation};
use lambada::workloads::{stage_real, stage_real_orders, OrdersStageOptions, StageOptions};

fn main() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());

    // Stage both relations as real columnar files in the object store.
    let scale = 0.005;
    let li = stage_real(
        &cloud,
        "tpch",
        "lineitem",
        StageOptions { scale, num_files: 8, ..StageOptions::default() },
    );
    let orders = stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        OrdersStageOptions { rows: li.total_rows, num_files: 6, ..OrdersStageOptions::default() },
    );
    println!(
        "staged lineitem: {} rows in {} files; orders: {} rows in {} files",
        li.total_rows,
        li.files.len(),
        orders.total_rows,
        orders.files.len(),
    );

    // `AggStrategy::Exchange` routes grouped aggregates through the
    // exchange; `workers: None` lets the cost model size the merge fleet.
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig { agg: AggStrategy::Exchange { workers: None }, ..LambadaConfig::default() },
    );
    system.register_table(li);
    system.register_table(orders);

    let plan = lambada::workloads::q3("lineitem", "orders");
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });

    println!(
        "\ntop {} orders by revenue (orderkey, orderdate, shippriority, revenue):",
        report.batch.num_rows()
    );
    for row in report.batch.rows() {
        println!("  {row:?}");
    }

    let prices = cloud.billing.prices();
    println!("\nper-stage execution (request counts are exact per-worker sums):");
    println!(
        "  {:<16} {:>8} {:>10} {:>12} {:>8} {:>8} {:>8} {:>12}",
        "stage", "workers", "wall s", "rows out", "GETs", "PUTs", "LISTs", "requests $"
    );
    for s in &report.stages {
        println!(
            "  {:<16} {:>8} {:>10.2} {:>12} {:>8} {:>8} {:>8} {:>12.8}",
            s.label,
            s.workers,
            s.wall_secs,
            s.rows_out,
            s.get_requests,
            s.put_requests,
            s.list_requests,
            s.request_dollars(&prices),
        );
    }
    // Q3 groups by a key the join partitions on: every group is one join
    // worker's, so the join fleet's shards hold each group once.
    let groups =
        report.stages.iter().find(|s| s.label.starts_with("join#")).map_or(0, |s| s.rows_out);
    println!(
        "\ntotal: {} workers, {:.2}s end-to-end, ${:.6} ({} cold starts)",
        report.workers,
        report.latency_secs,
        report.dollars(),
        report.cold_starts,
    );
    println!(
        "{groups} groups were merged and finalized by the serverless agg fleet — the driver \
         never touched a partial aggregate state"
    );
}
