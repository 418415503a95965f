//! Distributed join variants over the serverless exchange: latency,
//! output cardinality, and request cost versus join variant and fleet
//! width.
//!
//! Not a figure of the paper — Lambada (§4.4) builds the exchange so
//! repartitioning operators can run purely serverless and leaves the
//! operator zoo as workload; Kassing et al. (CIDR 2022) show per-stage
//! fleet sizing matters most on multi-join plans. This experiment sweeps
//! both axes at once: the TPC-H Q4 join shape (ORDERS against the
//! late-lineitem subquery) runs under all four `JoinVariant`s — the
//! scan/exchange plan is *identical* across variants, only the probe's
//! emit rule differs — across join-fleet widths W. Semi/anti output a
//! probe subset with no build columns, so their result upload volume
//! undercuts inner/left-outer at every W; request cost grows with W
//! (more ranged GETs) identically for all variants.
//!
//! ```sh
//! cargo bench -p lambada-bench --bench fig_join_variants
//! ```
//!
//! Env knobs: `LAMBADA_FIG_VARIANTS_SCALE` (TPC-H scale factor, default
//! 0.01), `LAMBADA_FIG_VARIANTS_LI_FILES` / `_ORD_FILES` (file counts),
//! `LAMBADA_FIG_VARIANTS_WIDTHS` (number of fleet widths from
//! {1, 2, 4, 8, 16} to sweep, default all).

use lambada_bench::{banner, env_f64, env_usize};
use lambada_core::{Lambada, LambadaConfig};
use lambada_engine::JoinVariant;
use lambada_sim::{Cloud, CloudConfig, Prices, Simulation};
use lambada_workloads::{stage_real, stage_real_orders, OrdersStageOptions, StageOptions};

fn main() {
    banner("join_variants", "Q4-shape join latency + request cost vs JoinVariant and join workers");
    let scale = env_f64("LAMBADA_FIG_VARIANTS_SCALE", 0.01);
    let li_files = env_usize("LAMBADA_FIG_VARIANTS_LI_FILES", 6);
    let ord_files = env_usize("LAMBADA_FIG_VARIANTS_ORD_FILES", 4);
    let widths = env_usize("LAMBADA_FIG_VARIANTS_WIDTHS", 5);
    let prices = Prices::default();

    println!(
        "{:<11} {:<4} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>14}",
        "variant", "W", "total s", "join s", "rows out", "PUTs", "GETs", "LISTs", "requests $"
    );
    for variant in
        [JoinVariant::Inner, JoinVariant::LeftOuter, JoinVariant::Semi, JoinVariant::Anti]
    {
        for &join_workers in [1usize, 2, 4, 8, 16].iter().take(widths.max(1)) {
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
            let plan = lambada_workloads::q4_variant("lineitem", "orders", variant);
            let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });

            let join_stage = report
                .stages
                .iter()
                .find(|s| s.label.starts_with(variant.label()))
                .expect("join stage ran");
            let request_dollars: f64 =
                report.stages.iter().map(|s| s.request_dollars(&prices)).sum();
            println!(
                "{:<11} {:<4} {:>10.2} {:>10.2} {:>10} {:>8} {:>8} {:>8} {:>14.8}",
                variant.label(),
                join_workers,
                report.latency_secs,
                join_stage.wall_secs,
                join_stage.rows_out,
                report.stages.iter().map(|s| s.put_requests).sum::<u64>(),
                report.stages.iter().map(|s| s.get_requests).sum::<u64>(),
                report.stages.iter().map(|s| s.list_requests).sum::<u64>(),
                request_dollars,
            );
        }
    }
    println!("\npaper context: the exchange plan (scan fleets, hash-partitioned edges, attempt-");
    println!("suffixed keys) is identical for every variant — only the probe emit rule differs,");
    println!("so semi/anti ship a probe subset with no build columns (fewest rows out) while");
    println!("left-outer ships the most; request cost climbs with W for all variants alike,");
    println!("the per-stage fleet-sizing trade-off of Kassing et al. (CIDR 2022).");
}
