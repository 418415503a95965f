//! Shared helpers for the experiment harness.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper: it runs the simulation (or evaluates the analytic model), prints
//! the same rows/series the paper reports, and annotates the paper's
//! published values for comparison. `cargo bench --workspace` regenerates
//! everything; the rows each target prints are the paper-vs-measured
//! record (the repo's own benchmark is described in `benchmark/README.md`).
//! Three targets are not figures: `micro_primitives` times the kernels,
//! and `fig_straggler` / `fig_join_variants` print sweeps of what no
//! benchmark workload runs (speculation; anti and left-outer joins).

use lambada_core::{
    run_exchange, ComputeCostModel, ExchangeConfig, ExchangeSide, Lambada, LambadaConfig, PartData,
    QueryReport, WorkerEnv,
};
use lambada_sim::{Cloud, CloudConfig, SimRng, Simulation};
use lambada_workloads::{stage_descriptors, DescriptorOptions};

pub const MIB: f64 = 1024.0 * 1024.0;
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Print a figure/table header.
pub fn banner(id: &str, caption: &str) {
    println!("\n=== {id}: {caption} ===");
}

/// Environment-variable override for experiment scale, letting CI run the
/// full paper-scale sweeps while local runs stay quick.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A fresh simulation + cloud with the default (paper-calibrated) config.
pub fn fresh_cloud() -> (Simulation, Cloud) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    (sim, cloud)
}

/// Cold + hot executions of one TPC-H query on a paper-scale descriptor
/// table (§5.2's methodology: fresh function, run twice).
pub struct TpchRun {
    pub cold: QueryReport,
    pub hot: QueryReport,
}

/// Run Q1/Q6 against an SF-`scale` descriptor table of `num_files` files.
pub fn run_tpch_descriptor(
    query: &str,
    scale: f64,
    num_files: usize,
    memory_mib: u32,
    files_per_worker: usize,
) -> TpchRun {
    let sim = Simulation::new();
    let workers = num_files.div_ceil(files_per_worker);
    let mut config = CloudConfig::default();
    // §5.1: the default 1k concurrency limit was raised via a support
    // request for the larger scale factors.
    config.faas.account_concurrency = config.faas.account_concurrency.max(workers + 64);
    let cloud = Cloud::new(&sim, config);
    let opts = DescriptorOptions { scale, num_files, ..DescriptorOptions::default() };
    let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            memory_mib,
            files_per_worker: Some(files_per_worker),
            ..LambadaConfig::default()
        },
    );
    system.register_table(spec);
    let plan = match query {
        "q1" => lambada_workloads::q1("lineitem"),
        "q6" => lambada_workloads::q6("lineitem"),
        other => panic!("unknown query {other}"),
    };
    let (cold, hot) = sim.block_on(async move {
        let cold = system.run_query(&plan).await.unwrap();
        let hot = system.run_query(&plan).await.unwrap();
        (cold, hot)
    });
    TpchRun { cold, hot }
}

/// Per-phase summary of an exchange run across workers.
pub struct ExchangeRunSummary {
    pub makespan_secs: f64,
    pub fastest_total_secs: f64,
    /// (label, fastest, median, p95, max) per phase.
    pub phases: Vec<(String, f64, f64, f64, f64)>,
}

/// Drive a full modeled exchange with optional straggler injection.
/// `data_bytes_total` is the total shuffled volume (split evenly).
pub fn run_modeled_exchange(
    workers: usize,
    data_bytes_total: f64,
    cfg: ExchangeConfig,
    straggler_probability: f64,
    straggler_factor: f64,
    seed: u64,
) -> ExchangeRunSummary {
    let (sim, cloud) = fresh_cloud();
    cfg.buckets.install(&cloud);
    let rng = SimRng::new(seed);
    let per_worker = data_bytes_total / workers as f64;
    let per_dest = (per_worker / workers as f64).max(1.0) as u64;
    let side = ExchangeSide::new();
    let start = cloud.handle.now();
    let rounds = cfg.algo.levels() as usize;
    let totals = sim.block_on({
        let cloud2 = cloud.clone();
        async move {
            let mut joins = Vec::new();
            for p in 0..workers {
                // Straggler injection: a small fraction of workers get a
                // degraded NIC (the write-phase tail of Fig 13).
                let factor = if rng.bernoulli(straggler_probability) {
                    straggler_factor * rng.range_f64(0.8, 1.2)
                } else {
                    rng.lognormal(1.0, 0.04)
                };
                let env = WorkerEnv::bare_with_nic_factor(
                    &cloud2,
                    p as u64,
                    2048,
                    ComputeCostModel::default(),
                    factor.min(1.1),
                );
                let cfg = cfg.clone();
                let side = side.clone();
                joins.push(cloud2.handle.spawn(async move {
                    let t0 = env.cloud.handle.now();
                    let parts: Vec<PartData> =
                        (0..workers).map(|_| PartData::Modeled(per_dest)).collect();
                    run_exchange(&env, &cfg, p, workers, parts, &side).await.unwrap();
                    (env.cloud.handle.now() - t0).as_secs_f64()
                }));
            }
            let mut out = Vec::with_capacity(workers);
            for j in joins {
                out.push(j.await);
            }
            out
        }
    });
    let makespan = (cloud.handle.now() - start).as_secs_f64();
    let fastest = totals.iter().copied().fold(f64::INFINITY, f64::min);

    // Each worker records one span per label per round, in round order.
    let mut phases = Vec::new();
    for label in ["exchange_write", "exchange_wait", "exchange_read"] {
        let spans = cloud.trace.spans(label);
        let mut by_round: Vec<Vec<f64>> = vec![Vec::new(); rounds];
        let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for e in spans {
            let c = counts.entry(e.worker).or_insert(0);
            if *c < rounds {
                by_round[*c].push(e.duration_secs());
            }
            *c += 1;
        }
        for (r, slice) in by_round.iter().enumerate() {
            if let Some(s) = lambada_sim::stats::Summary::of(slice) {
                phases.push((
                    format!("round {} {}", r + 1, label.trim_start_matches("exchange_")),
                    s.min,
                    s.median,
                    s.p95,
                    s.max,
                ));
            }
        }
    }
    ExchangeRunSummary { makespan_secs: makespan, fastest_total_secs: fastest, phases }
}
