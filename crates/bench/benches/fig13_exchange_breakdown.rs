//! Fig 13: break-down and per-phase running-time distribution of
//! TwoLevelExchange at 1 TB / 1250 workers and 3 TB / 2500 workers.

use lambada_bench::{banner, env_usize, run_modeled_exchange};
use lambada_core::{ExchangeBuckets, ExchangeConfig};

fn main() {
    let w1 = env_usize("LAMBADA_FIG13_W1", 1250);
    let w2 = env_usize("LAMBADA_FIG13_W2", 2500);
    for (bytes, workers, straggle_p, straggle_f, paper) in [
        (1e12, w1, 0.002, 0.6, "fastest ~85% of slowest; waits moderate; tail ~1.3x median"),
        (
            3e12,
            w2,
            0.004,
            0.25,
            ">2x slower than straggler-free; >half the time is waiting; tail ~4x",
        ),
    ] {
        banner("Fig 13", &format!("{:.0} TB, {workers} workers — phase break-down", bytes / 1e12));
        let cfg = ExchangeConfig {
            buckets: ExchangeBuckets { num_buckets: 64, ..ExchangeBuckets::default() },
            run_id: workers as u64,
            ..ExchangeConfig::default()
        };
        let s = run_modeled_exchange(workers, bytes, cfg, straggle_p, straggle_f, 1234);
        println!(
            "makespan {:.1} s; fastest worker {:.1} s ({:.0}% of slowest)",
            s.makespan_secs,
            s.fastest_total_secs,
            100.0 * s.fastest_total_secs / s.makespan_secs
        );
        println!(
            "{:<18} {:>10} {:>10} {:>10} {:>10}",
            "phase", "fastest", "median", "p95", "max [s]"
        );
        let mut wait_median_total = 0.0;
        let mut all_median_total = 0.0;
        for (label, min, median, p95, max) in &s.phases {
            println!("{label:<18} {min:>10.2} {median:>10.2} {p95:>10.2} {max:>10.2}");
            if label.contains("wait") {
                wait_median_total += median;
            }
            all_median_total += median;
        }
        println!(
            "median wait share: {:.0}%   (paper: {paper})",
            100.0 * wait_median_total / all_median_total.max(1e-9)
        );
    }
    println!("\n--> paper: write phases are stable to the 95th percentile, then a heavy tail;");
    println!("    slow writers cause waits for their whole group, which cascade into round 2 —");
    println!("    moderate at 1 TB, dominant at 3 TB");
}
