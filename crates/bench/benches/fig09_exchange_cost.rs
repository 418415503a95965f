//! Fig 9 + Table 2: request cost per worker of the S3-based exchange
//! algorithms, with the closed-form models validated against simulated
//! request counts at small scale.

use lambada_bench::{banner, fresh_cloud, GIB, MIB};
use lambada_core::{
    request_counts, request_dollars, run_exchange, ComputeCostModel, ExchangeAlgo, ExchangeConfig,
    ExchangeSide, PartData, WorkerEnv,
};
use lambada_sim::{CostItem, Prices};

fn main() {
    banner("Fig 9", "cost of S3-based exchange algorithms per worker [$]");
    let prices = Prices::default();
    let variants = [
        (ExchangeAlgo::OneLevel, false),
        (ExchangeAlgo::OneLevel, true),
        (ExchangeAlgo::TwoLevel, false),
        (ExchangeAlgo::TwoLevel, true),
        (ExchangeAlgo::ThreeLevel, false),
        (ExchangeAlgo::ThreeLevel, true),
    ];
    print!("{:>8}", "P");
    for (algo, wc) in variants {
        print!(" {:>11}", algo.label(wc));
    }
    println!(" {:>23}", "worker cost band");
    for p in [64.0f64, 256.0, 1024.0, 4096.0, 16384.0] {
        print!("{p:>8.0}");
        for (algo, wc) in variants {
            let counts = request_counts(algo, wc, p);
            let (r, w) = request_dollars(&counts, &prices);
            print!(" {:>11.6}", (r + w) / p);
        }
        // Band: one scan of 100 MiB to three scans of 1 GiB per worker at
        // 85 MiB/s with 2 GiB memory (the horizontal range in the figure).
        let lo = lambada_core::exchange_cost::worker_dollars_per_worker(
            1,
            100.0 * MIB,
            85.0 * MIB,
            2.0,
            &prices,
        );
        let hi = lambada_core::exchange_cost::worker_dollars_per_worker(
            3,
            GIB,
            85.0 * MIB,
            2.0,
            &prices,
        );
        println!("   [{lo:.6}, {hi:.6}]");
    }
    println!("--> paper: 1l grows quadratically and dwarfs worker cost beyond ~256 workers;");
    println!("    2l-wc drops requests below worker cost almost everywhere; 3l-wc negligible");

    banner("Table 2 validation", "simulated request counts vs closed forms");
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
        "variant", "P", "reads(model)", "reads(sim)", "writes(model)", "writes(sim)"
    );
    for (algo, wc, p) in [
        (ExchangeAlgo::OneLevel, false, 16usize),
        (ExchangeAlgo::OneLevel, true, 16),
        (ExchangeAlgo::TwoLevel, false, 16),
        (ExchangeAlgo::TwoLevel, true, 16),
        (ExchangeAlgo::ThreeLevel, false, 27),
        (ExchangeAlgo::ThreeLevel, true, 27),
    ] {
        let (sim, cloud) = fresh_cloud();
        let cfg = ExchangeConfig { algo, write_combining: wc, ..ExchangeConfig::default() };
        cfg.buckets.install(&cloud);
        let side = ExchangeSide::new();
        sim.block_on({
            let cloud2 = cloud.clone();
            let cfg = cfg.clone();
            async move {
                let mut joins = Vec::new();
                for w in 0..p {
                    let env = WorkerEnv::bare(&cloud2, w as u64, 2048, ComputeCostModel::default());
                    let cfg = cfg.clone();
                    let side = side.clone();
                    joins.push(cloud2.handle.spawn(async move {
                        let parts: Vec<PartData> =
                            (0..p).map(|_| PartData::Modeled(64 << 10)).collect();
                        run_exchange(&env, &cfg, w, p, parts, &side).await.unwrap();
                    }));
                }
                for j in joins {
                    j.await;
                }
            }
        });
        let model = request_counts(algo, wc, p as f64);
        println!(
            "{:>8} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            algo.label(wc),
            p,
            model.reads,
            cloud.billing.units(CostItem::S3Get),
            model.writes,
            cloud.billing.units(CostItem::S3Put),
        );
    }
}
