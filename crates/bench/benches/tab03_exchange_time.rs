//! Table 3: running time of S3-based exchange operators on 100 GB,
//! compared with the published Pocket and Locus numbers.

use lambada_baselines::ephemeral::{table3_lambada_paper, table3_references};
use lambada_bench::{banner, run_modeled_exchange, GIB};
use lambada_core::{ExchangeBuckets, ExchangeConfig};

fn main() {
    banner("Table 3", "running time of S3-based exchange operators (100 GB)");
    println!("{:<22} {:>9} {:>10} {:>10}", "system", "workers", "storage", "time [s]");
    for r in table3_references() {
        let w = r.workers.map(|w| w.to_string()).unwrap_or_else(|| "dynamic".to_string());
        println!("{:<22} {:>9} {:>10} {:>10.0}", r.system, w, r.storage, r.seconds);
    }
    let paper = table3_lambada_paper();
    for (i, workers) in [250usize, 500, 1000].into_iter().enumerate() {
        let cfg = ExchangeConfig {
            buckets: ExchangeBuckets { num_buckets: 32, ..ExchangeBuckets::default() },
            run_id: workers as u64,
            ..ExchangeConfig::default()
        };
        let summary = run_modeled_exchange(workers, 100.0 * GIB, cfg, 0.0015, 0.45, 42);
        println!(
            "{:<22} {:>9} {:>10} {:>10.1}   (paper: {:.0} s)",
            "Lambada (this repo)", workers, "S3", summary.makespan_secs, paper[i].1
        );
    }
    println!("--> paper: Lambada beats Pocket's S3 baseline 5x at 250 workers and stays");
    println!("    ahead of Pocket-on-VMs (2.5x/2x/1.4x) with zero always-on infrastructure");

    banner("§5.5 large datasets", "two-level exchange at 1 TB and 3 TB");
    for (bytes, workers, paper_secs) in [(1e12, 1250usize, 56.0), (3e12, 2500, 159.0)] {
        let cfg = ExchangeConfig {
            buckets: ExchangeBuckets { num_buckets: 64, ..ExchangeBuckets::default() },
            run_id: workers as u64,
            ..ExchangeConfig::default()
        };
        // Straggler pressure grows with scale (§5.5 observes 30% -> 4x
        // write-tail from 1250 to 2500 workers).
        let (p_straggle, factor) = if workers > 2000 { (0.004, 0.25) } else { (0.002, 0.6) };
        let summary = run_modeled_exchange(workers, bytes, cfg, p_straggle, factor, 7);
        println!(
            "{:>8.0} GB {:>6} workers: {:>7.1} s   (paper: {:.0} s; Locus 1 TB on VMs: 39 s)",
            bytes / 1e9,
            workers,
            summary.makespan_secs,
            paper_secs
        );
    }
}
