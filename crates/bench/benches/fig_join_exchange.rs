//! Distributed join over the serverless exchange: latency and request
//! cost versus join-fleet size.
//!
//! Not a figure of the paper — the paper benchmarks the exchange operator
//! in isolation (§4.4, Fig 9/13) and leaves repartitioning operators as
//! the motivating workload. This experiment closes that loop: a TPC-H
//! Q12-style LINEITEM ⋈ ORDERS runs end to end through scan → exchange →
//! join stages, sweeping the join fleet size W. Requests follow the
//! stage-edge exchange shape (senders · 1 write-combined PUT, receivers ·
//! ranged GETs, no LIST: the driver addresses every section), printed
//! beside the closed-form accounting of `exchange_cost.rs`.
//!
//! ```sh
//! cargo bench -p lambada-bench --bench fig_join_exchange
//! ```

use lambada_bench::{banner, env_f64, env_usize};
use lambada_core::{request_dollars, stage_edge_counts, Lambada, LambadaConfig};
use lambada_sim::{Cloud, CloudConfig, CostItem, Prices, Simulation};
use lambada_workloads::{stage_real, stage_real_orders, OrdersStageOptions, StageOptions};

fn main() {
    banner(
        "join_exchange",
        "Q12-style join latency + request cost vs join workers (stage-edge exchange)",
    );
    let scale = env_f64("LAMBADA_JOIN_SCALE", 0.005);
    let li_files = env_usize("LAMBADA_JOIN_LI_FILES", 8);
    let ord_files = env_usize("LAMBADA_JOIN_ORD_FILES", 6);
    let prices = Prices::default();

    println!(
        "{:<4} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>14} {:>14}",
        "W", "total s", "scan s", "join s", "PUTs", "GETs", "LISTs", "requests $", "model $"
    );
    for join_workers in [1usize, 2, 4, 8, 16] {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let li = stage_real(
            &cloud,
            "tpch",
            "lineitem",
            StageOptions { scale, num_files: li_files, ..StageOptions::default() },
        );
        let orders = stage_real_orders(
            &cloud,
            "tpch",
            "orders",
            OrdersStageOptions {
                rows: li.total_rows,
                num_files: ord_files,
                ..OrdersStageOptions::default()
            },
        );
        let mut system = Lambada::install(
            &cloud,
            LambadaConfig { join_workers: Some(join_workers), ..LambadaConfig::default() },
        );
        system.register_table(li);
        system.register_table(orders);
        let plan = lambada_workloads::q12("lineitem", "orders");
        let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });

        // Scan stages run concurrently; their wave wall time is the max.
        let scan_secs: f64 = report.stages.iter().take(2).map(|s| s.wall_secs).fold(0.0, f64::max);
        let join_stage = report.stages.last().expect("join stage");
        // Exchange requests exactly: the scan fleets' write-combined PUTs
        // plus the join fleet's partition GETs (and LISTs, which an
        // addressed edge never issues).
        let exchange_requests: f64 = report
            .stages
            .iter()
            .map(|s| {
                if s.label.starts_with("join#") {
                    s.get_requests as f64 * prices.s3_get + s.list_requests as f64 * prices.s3_list
                } else {
                    s.put_requests as f64 * prices.s3_put
                }
            })
            .sum();
        // Closed-form model: each scan fleet is one sender group; GETs
        // are bounded by senders · receivers (empty sections are skipped,
        // so the measurement must come in at or under the model).
        let senders = (li_files + ord_files) as f64;
        let model = stage_edge_counts(senders, join_workers as f64);
        let (mr, mw) = request_dollars(&model, &prices);
        println!(
            "{:<4} {:>10.2} {:>10.2} {:>10.2} {:>8.0} {:>8.0} {:>8.0} {:>14.8} {:>14.8}",
            join_workers,
            report.latency_secs,
            scan_secs,
            join_stage.wall_secs,
            report.cost.units(CostItem::S3Put),
            report.cost.units(CostItem::S3Get),
            report.cost.units(CostItem::S3List),
            exchange_requests,
            mr + mw,
        );
    }
    println!("\npaper context: §4.4 builds the exchange so repartitioning operators can run");
    println!("purely serverless; request cost grows with W (more ranged GETs) while");
    println!("join latency shrinks until co-partitions stop amortizing invocation overhead —");
    println!("the fleet-sizing trade-off of Kassing et al. (CIDR 2022).");
}
