//! The purely serverless exchange operator (§4.4): shuffle real data
//! between workers through cloud storage only, with the algorithm family
//! side by side.
//!
//! ```sh
//! cargo run --release --example exchange_shuffle
//! ```

use lambada::core::{
    request_counts, run_exchange, ComputeCostModel, ExchangeAlgo, ExchangeConfig, ExchangeSide,
    PartData, WorkerEnv,
};
use lambada::sim::{Cloud, CloudConfig, CostItem, Simulation};

fn run_variant(algo: ExchangeAlgo, write_combining: bool, workers: usize) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let cfg = ExchangeConfig { algo, write_combining, ..ExchangeConfig::default() };
    cfg.buckets.install(&cloud);
    let side = ExchangeSide::new();

    let start = cloud.handle.now();
    sim.block_on({
        let cloud2 = cloud.clone();
        let cfg = cfg.clone();
        async move {
            let mut joins = Vec::new();
            for p in 0..workers {
                let env = WorkerEnv::bare(&cloud2, p as u64, 2048, ComputeCostModel::default());
                let cfg = cfg.clone();
                let side = side.clone();
                joins.push(cloud2.handle.spawn(async move {
                    // Every worker holds one real record per destination.
                    let parts: Vec<PartData> = (0..workers)
                        .map(|d| PartData::Real(format!("row from {p} for {d}").into_bytes()))
                        .collect();
                    let out = run_exchange(&env, &cfg, p, workers, parts, &side).await.unwrap();
                    assert_eq!(out.received.len(), workers, "every sender reached worker {p}");
                }));
            }
            for j in joins {
                j.await;
            }
        }
    });
    let elapsed = (cloud.handle.now() - start).as_secs_f64();
    let model = request_counts(algo, write_combining, workers as f64);
    println!(
        "{:<7} P={workers:<4} {:>6.1}s  GETs {:>6.0} (model {:>6.0})  PUTs {:>5.0} (model {:>5.0})  LISTs {:>5.0}  ${:.6}",
        algo.label(write_combining),
        elapsed,
        cloud.billing.units(CostItem::S3Get),
        model.reads,
        cloud.billing.units(CostItem::S3Put),
        model.writes,
        cloud.billing.units(CostItem::S3List),
        cloud.billing.total(),
    );
}

fn main() {
    println!("serverless exchange: every variant delivers every row; requests follow Table 2\n");
    let workers = 16;
    for wc in [false, true] {
        run_variant(ExchangeAlgo::OneLevel, wc, workers);
        run_variant(ExchangeAlgo::TwoLevel, wc, workers);
    }
    // Three-level needs a perfect cube.
    for wc in [false, true] {
        run_variant(ExchangeAlgo::ThreeLevel, wc, 27);
    }
    println!("\nwrite combining cuts writes from P^(1+1/k) to P per level; multi-level");
    println!("routing cuts reads from P^2 to k*P^(1+1/k) — the knobs of Fig 9.");
}
