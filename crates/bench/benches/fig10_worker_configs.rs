//! Fig 10: TPC-H Q1 at SF 1000 under varying worker memory (M) and files
//! per worker (F), cold and hot.

use lambada_bench::{banner, env_usize, run_tpch_descriptor};

fn main() {
    let num_files = env_usize("LAMBADA_FILES", 320);
    // Each file is one of SF 1k's 320: fewer files are a smaller table,
    // not larger files, which a 512 MiB worker could not hold.
    let scale = 1000.0 * num_files as f64 / 320.0;
    banner("Fig 10a", &format!("Q1, SF {scale} ({num_files} files), F=1, varying memory M"));
    println!(
        "{:>10} {:>8} {:>12} {:>10} {:>12} {:>10}",
        "M [MiB]", "workers", "cold [s]", "cold [c]", "hot [s]", "hot [c]"
    );
    for m in [512u32, 1024, 1792, 2048, 3008] {
        let run = run_tpch_descriptor("q1", scale, num_files, m, 1);
        println!(
            "{:>10} {:>8} {:>12.1} {:>10.2} {:>12.1} {:>10.2}",
            m,
            run.cold.workers,
            run.cold.latency_secs,
            run.cold.dollars() * 100.0,
            run.hot.latency_secs,
            run.hot.dollars() * 100.0,
        );
    }
    println!("--> paper: 512->1792 MiB gets much faster (GZIP scan is CPU-bound) and slightly");
    println!("    cheaper; beyond 1792 price rises without speedup; cold ~20% slower; all <10 s");

    banner("Fig 10b", &format!("Q1, SF {scale}, M=1792 MiB, varying files per worker F"));
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>12} {:>10}",
        "F", "workers", "cold [s]", "cold [c]", "hot [s]", "hot [c]"
    );
    // F = 8 is twice the scan's connections: its second round of footer
    // GETs goes out as the first round lands.
    for f in [8usize, 4, 2, 1] {
        let run = run_tpch_descriptor("q1", scale, num_files, 1792, f);
        println!(
            "{:>6} {:>8} {:>12.1} {:>10.2} {:>12.1} {:>10.2}",
            f,
            run.cold.workers,
            run.cold.latency_secs,
            run.cold.dollars() * 100.0,
            run.hot.latency_secs,
            run.hot.dollars() * 100.0,
        );
    }
    println!("--> paper: more workers = faster but diminishing gains at increased cost");
    println!("    (the Fig 1a trade-off replayed on real queries)");
}
