//! Ablation: which of the scan operator's concurrency levels (§4.3.2)
//! actually pay? One worker scans its SF-1000 file under combinations of
//! connection budget and row-group pipelining, then on the default
//! configuration at 1792 MiB (one hardware thread, one decode lane) and at
//! 3008 MiB (two). Exits non-zero unless the 3008 MiB scan is the shorter
//! and its decodes, from the first on, end sooner than their charges could
//! run one after another on one vCPU — which no scan on one lane can do,
//! however fast its network.

use std::process::ExitCode;
use std::rc::Rc;
use std::time::Duration;

use lambada_bench::{banner, fresh_cloud};
use lambada_core::{scan_table, ComputeCostModel, ScanConfig, TableSpec, WorkerEnv};
use lambada_format::Compression;
use lambada_sim::sync::mpsc;
use lambada_sim::{Cloud, Simulation};
use lambada_workloads::{stage_descriptors, DescriptorOptions};

/// Q1's seven columns.
const Q1_COLUMNS: [usize; 7] = [4, 5, 6, 7, 8, 9, 10];

fn staged() -> (Simulation, Cloud, TableSpec) {
    let (sim, cloud) = fresh_cloud();
    let opts = DescriptorOptions { sample_rows: 20_000, ..DescriptorOptions::default() };
    let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
    (sim, cloud, spec)
}

fn run(memory_mib: u32, cfg: ScanConfig) -> f64 {
    let (sim, cloud, spec) = staged();
    let env = WorkerEnv::bare(&cloud, 0, memory_mib, ComputeCostModel::default());
    let schema = Rc::new(spec.schema.clone());
    // One worker, one file — the F=1 assignment of §5.2.
    let files = spec.files[..1].to_vec();
    sim.block_on({
        let handle = cloud.handle.clone();
        async move {
            let t0 = handle.now();
            let (tx, mut rx) = mpsc::channel();
            let scan = {
                let env2 = env.clone();
                let schema = Rc::clone(&schema);
                handle.spawn(async move {
                    // No pruning predicate.
                    scan_table(&env2, &cfg, &files, &schema, &Q1_COLUMNS, None, tx).await.unwrap()
                })
            };
            while let Some(item) = rx.recv().await {
                if let lambada_core::ScanItem::Modeled { rows, .. } = item {
                    env.compute(env.costs.process_seconds(rows)).await;
                }
            }
            scan.await;
            (handle.now() - t0).as_secs_f64()
        }
    })
}

/// The default scan of the same file alone on a `memory_mib` worker:
/// seconds from its first decode charge to its end, and the decode
/// seconds of its chunks at one vCPU.
fn decode_phase(memory_mib: u32) -> (f64, f64) {
    let (sim, cloud, spec) = staged();
    let env = WorkerEnv::bare(&cloud, 0, memory_mib, ComputeCostModel::default());
    let file = &spec.files[..1];
    let meta = file[0].meta.as_ref().expect("a descriptor file");
    let decode_secs = meta
        .row_groups
        .iter()
        .flat_map(|rg| Q1_COLUMNS.iter().map(|&c| &rg.columns[c]))
        .map(|c| {
            let heavy = c.compression == Compression::Lz;
            env.costs.chunk_decode_seconds(c.compressed_len, c.uncompressed_len, heavy)
        })
        .sum();
    let cpu = env.ctx.instance.cpu.clone();
    let handle = cloud.handle.clone();
    let span = sim.block_on(async move {
        let (tx, mut rx) = mpsc::channel();
        let scan = {
            let (files, schema) = (file.to_vec(), spec.schema.clone());
            handle.spawn(async move {
                let cfg = ScanConfig::default();
                scan_table(&env, &cfg, &files, &schema, &Q1_COLUMNS, None, tx).await.unwrap()
            })
        };
        // The footer's parse is the worker's first charge; the chunks'
        // decodes follow it.
        while cpu.jobs_joined() < 2 {
            handle.sleep(Duration::from_micros(100)).await;
        }
        let from = handle.now();
        while rx.recv().await.is_some() {}
        scan.await;
        (handle.now() - from).as_secs_f64()
    });
    (span, decode_secs)
}

fn main() -> ExitCode {
    banner(
        "Ablation",
        "scan operator concurrency levels, one SF-1000 file (~190 MiB of Q1 columns)",
    );
    let base = ScanConfig::default();
    println!("{:<52} {:>10}", "configuration (1792 MiB worker)", "scan [s]");
    let configs: Vec<(&str, u32, ScanConfig)> = vec![
        (
            "all levels off: 1 conn, no rg pipeline",
            1792,
            ScanConfig { connections: 1, row_group_pipeline: 1, ..base },
        ),
        (
            "level 1+2: 4 connections, no rg pipeline",
            1792,
            ScanConfig { connections: 4, row_group_pipeline: 1, ..base },
        ),
        (
            "level 3: + 2 row groups in flight (paper default)",
            1792,
            ScanConfig { connections: 4, row_group_pipeline: 2, ..base },
        ),
        (
            "deeper pipeline: 4 row groups in flight",
            1792,
            ScanConfig { connections: 4, row_group_pipeline: 4, ..base },
        ),
        (
            "small requests: 1 MiB chunks (more GETs)",
            1792,
            ScanConfig { max_request_bytes: 1 << 20, ..base },
        ),
    ];
    for (label, mem, cfg) in configs {
        println!("{:<52} {:>10.2}", label, run(mem, cfg));
    }
    println!("\n{:<52} {:>10}", "default configuration", "scan [s]");
    let one_lane = run(1792, base);
    let two_lanes = run(3008, base);
    println!("{:<52} {:>10.2}", "1792 MiB: one vCPU, one decode lane", one_lane);
    println!("{:<52} {:>10.2}", "3008 MiB: 1.68 vCPU, two decode lanes", two_lanes);
    println!(
        "\n{:<52} {:>10} {:>10}",
        "decodes alone, first charge to end", "span [s]", "1 vCPU [s]"
    );
    let phases = [(1792, decode_phase(1792)), (3008, decode_phase(3008))];
    for (memory_mib, (span, serial)) in phases {
        println!("{:<52} {:>10.2} {:>10.2}", format!("{memory_mib} MiB"), span, serial);
    }
    println!("\n--> overlap (levels 2-3) hides most download latency behind decode; a");
    println!("    worker decodes on one lane per vCPU, so above 1792 MiB a row group's");
    println!("    chunks decode on two lanes at once");
    let [(_, (one_span, one_serial)), (_, (two_span, two_serial))] = phases;
    let mut ok = true;
    if one_span < one_serial {
        eprintln!("one lane decoded in {one_span:.3} s, under its {one_serial:.3} s at one vCPU");
        ok = false;
    }
    if two_span >= two_serial {
        eprintln!(
            "two lanes decoded in {two_span:.3} s, not under their {two_serial:.3} s at one vCPU"
        );
        ok = false;
    }
    if two_lanes >= one_lane {
        eprintln!(
            "the 3008 MiB scan ({two_lanes:.3} s) is not shorter than 1792 MiB's ({one_lane:.3} s)"
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
