//! Repartitioned group-by aggregation over the serverless exchange:
//! latency and request cost versus merge-fleet width.
//!
//! Not a figure of the paper — Lambada merges partial aggregates on the
//! driver (§3.2), which is O(groups × workers) on the client and the
//! scatter-gather limit that staged shuffles remove. This experiment
//! runs a TPC-H Q3-style join + *high-cardinality* group-by (one group
//! per qualifying order) end to end through scan → exchange → join →
//! exchange → agg-merge stages, sweeping the merge fleet size W. The
//! join edge's requests stay fixed while the agg edge's GETs grow with
//! W (no LIST: the driver addresses every section); both are printed
//! beside the closed-form stage-edge accounting of `exchange_cost.rs`.
//!
//! ```sh
//! cargo bench -p lambada-bench --bench fig_agg_exchange
//! ```

use lambada_bench::{banner, env_f64, env_usize};
use lambada_core::{request_dollars, stage_edge_counts, AggStrategy, Lambada, LambadaConfig};
use lambada_sim::{Cloud, CloudConfig, CostItem, Prices, Simulation};
use lambada_workloads::{stage_real, stage_real_orders, OrdersStageOptions, StageOptions};

fn main() {
    banner(
        "agg_exchange",
        "Q3-style join + high-cardinality group-by: latency + request cost vs merge workers",
    );
    let scale = env_f64("LAMBADA_AGG_SCALE", 0.005);
    let li_files = env_usize("LAMBADA_AGG_LI_FILES", 8);
    let ord_files = env_usize("LAMBADA_AGG_ORD_FILES", 6);
    let join_workers = env_usize("LAMBADA_AGG_JOIN_WORKERS", 4);
    let prices = Prices::default();

    println!(
        "{:<4} {:>8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>14} {:>14}",
        "W",
        "groups",
        "total s",
        "join s",
        "agg s",
        "PUTs",
        "GETs",
        "LISTs",
        "agg edge $",
        "model $"
    );
    for agg_workers in [1usize, 2, 4, 8, 16] {
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
            LambadaConfig {
                join_workers: Some(join_workers),
                agg: AggStrategy::Exchange { workers: Some(agg_workers) },
                ..LambadaConfig::default()
            },
        );
        system.register_table(li);
        system.register_table(orders);
        let plan = lambada_workloads::q3("lineitem", "orders");
        let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });

        let join_stage =
            report.stages.iter().find(|s| s.label.starts_with("join#")).expect("join stage");
        let agg_stage =
            report.stages.iter().find(|s| s.label.starts_with("agg#")).expect("agg stage");
        // The agg edge exactly: the join fleet's shard PUTs plus the
        // merge fleet's shard GETs (and LISTs, which an addressed edge
        // never issues).
        let agg_edge_dollars = join_stage.put_requests as f64 * prices.s3_put
            + agg_stage.get_requests as f64 * prices.s3_get
            + agg_stage.list_requests as f64 * prices.s3_list;
        // Closed-form stage-edge model for the same edge (GETs are an
        // upper bound: empty shards are skipped).
        let model = stage_edge_counts(join_workers as f64, agg_workers as f64);
        let (mr, mw) = request_dollars(&model, &prices);
        println!(
            "{:<4} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>8.0} {:>8.0} {:>8.0} {:>14.8} {:>14.8}",
            agg_workers,
            // The groups sharded to the merge fleet (each in one join
            // worker's shards): a merge worker reports only its top 10.
            join_stage.rows_out,
            report.latency_secs,
            join_stage.wall_secs,
            agg_stage.wall_secs,
            report.cost.units(CostItem::S3Put),
            report.cost.units(CostItem::S3Get),
            report.cost.units(CostItem::S3List),
            agg_edge_dollars,
            mr + mw,
        );
    }
    println!("\npaper context: §3.2 merges partial aggregates on the driver, which caps");
    println!("group-by cardinality at what one client can merge; repartitioned aggregation");
    println!("moves the merge into a serverless fleet. Wider merge fleets shrink per-worker");
    println!("state but pay more ranged GETs on the agg edge — the same fleet-sizing");
    println!("trade-off as the join (Kassing et al., CIDR 2022).");
}
