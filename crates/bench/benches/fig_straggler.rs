//! Straggler tail latency, with and without speculative re-invocation —
//! the Fig 13 shape (stragglers dominate the tail at scale) applied to a
//! full query: worker 0 of a Q1 scan fleet is slowed by a factor `f`
//! (compute and NIC), and the query's end-to-end latency is measured
//! against a straggler-free run.
//!
//! Without speculation the query tracks the straggler linearly; with it,
//! latency plateaus at roughly `multiplier x median + backup span`,
//! whatever the severity.
//!
//! Quick mode for CI: `LAMBADA_FIG_STRAGGLER_POINTS=2
//! LAMBADA_FIG_STRAGGLER_FILES=4 cargo bench --bench fig_straggler`.

use lambada_bench::{banner, env_f64, env_usize};
use lambada_core::{inject_worker_faults, Lambada, LambadaConfig};
use lambada_sim::{Cloud, CloudConfig, InjectedFault, Simulation};
use lambada_workloads::{q1, stage_descriptors, DescriptorOptions};

struct Run {
    latency_secs: f64,
    backups: u64,
}

fn run_q1(files: usize, scale: f64, severity: f64, speculate: bool) -> Run {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let opts = DescriptorOptions { scale, num_files: files, ..DescriptorOptions::default() };
    let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    let mut system =
        Lambada::install(&cloud, LambadaConfig { speculate, ..LambadaConfig::default() });
    system.register_table(spec);
    if severity > 1.0 {
        inject_worker_faults(&cloud, move |wid, attempt| {
            (wid == 0 && attempt == 0).then(|| InjectedFault::slowdown(severity))
        });
    }
    let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
    Run { latency_secs: report.latency_secs, backups: report.backup_invocations() }
}

fn main() {
    let points = env_usize("LAMBADA_FIG_STRAGGLER_POINTS", 5);
    let files = env_usize("LAMBADA_FIG_STRAGGLER_FILES", 8);
    let scale = env_f64("LAMBADA_FIG_STRAGGLER_SCALE", 8.0);
    // Quick mode keeps the *highest* severities — the regime where
    // speculation visibly pays.
    let severities: Vec<f64> =
        [2.0, 5.0, 10.0, 20.0, 40.0].into_iter().rev().take(points).rev().collect();

    banner(
        "Fig straggler",
        &format!("Q1 tail latency vs straggler severity, {files} workers, SF {scale}"),
    );
    let base = run_q1(files, scale, 1.0, false);
    println!("straggler-free baseline: {:.2} s", base.latency_secs);
    println!(
        "{:<10} {:>14} {:>18} {:>8} {:>9}",
        "severity", "no-spec [s]", "speculation [s]", "backups", "speedup"
    );
    for &severity in &severities {
        let off = run_q1(files, scale, severity, false);
        let on = run_q1(files, scale, severity, true);
        println!(
            "{severity:<10} {:>14.2} {:>18.2} {:>8} {:>8.2}x",
            off.latency_secs,
            on.latency_secs,
            on.backups,
            off.latency_secs / on.latency_secs
        );
        // Speculation must never lose more than polling noise (losing
        // backups cost requests, not latency — first result wins).
        assert!(
            on.latency_secs <= off.latency_secs * 1.05 + 0.5,
            "speculation must not lose: {severity}x ({} vs {})",
            on.latency_secs,
            off.latency_secs
        );
    }
    println!("\n--> without speculation the tail tracks the straggler linearly;");
    println!("    with it, one backup caps latency near 2x the healthy median —");
    println!("    the Fig 13 waits collapse instead of cascading");
}
