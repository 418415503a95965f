//! Table 1: characteristics of function invocations per region, measured
//! from the driver's location (Zurich in the paper).

use std::rc::Rc;
use std::time::Duration;

use lambada_bench::banner;
use lambada_sim::services::faas::FunctionSpec;
use lambada_sim::sync::Semaphore;
use lambada_sim::{Cloud, CloudConfig, Region, Simulation};

fn cloud_for(region: Region) -> (Simulation, Cloud) {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig { region, ..CloudConfig::default() });
    cloud.faas.register(
        FunctionSpec::new("noop", 512, Duration::from_secs(30)),
        Rc::new(|_ctx, _p| Box::pin(async {})),
    );
    (sim, cloud)
}

fn single_invocation_ms(region: Region) -> f64 {
    let (sim, cloud) = cloud_for(region);
    sim.block_on({
        let caller = cloud.driver_invoker();
        let handle = cloud.handle.clone();
        async move {
            let t0 = handle.now();
            caller.invoke("noop", Rc::new(()), 0).await.unwrap();
            (handle.now() - t0).as_secs_f64() * 1e3
        }
    })
}

fn concurrent_rate(region: Region, threads: usize, n: usize) -> f64 {
    let (sim, cloud) = cloud_for(region);
    sim.block_on({
        let caller = cloud.driver_invoker();
        let handle = cloud.handle.clone();
        async move {
            let sem = Semaphore::new(threads);
            let t0 = handle.now();
            let mut joins = Vec::with_capacity(n);
            for _ in 0..n {
                let caller = caller.clone();
                let sem = sem.clone();
                joins.push(handle.spawn(async move {
                    let _permit = sem.acquire(1).await;
                    caller.invoke("noop", Rc::new(()), 0).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
            // Steady-state rate: exclude the last call's in-flight latency.
            let elapsed = (handle.now() - t0).as_secs_f64() - caller.latency().as_secs_f64();
            n as f64 / elapsed
        }
    })
}

fn intra_region_rate(region: Region, n: usize) -> f64 {
    let (sim, cloud) = cloud_for(region);
    sim.block_on({
        let caller = cloud.worker_invoker();
        let handle = cloud.handle.clone();
        async move {
            let sem = Semaphore::new(lambada_sim::region::INTRA_INVOKER_THREADS);
            let t0 = handle.now();
            let mut joins = Vec::with_capacity(n);
            for _ in 0..n {
                let caller = caller.clone();
                let sem = sem.clone();
                joins.push(handle.spawn(async move {
                    let _permit = sem.acquire(1).await;
                    caller.invoke("noop", Rc::new(()), 0).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
            let elapsed = (handle.now() - t0).as_secs_f64() - caller.latency().as_secs_f64();
            n as f64 / elapsed
        }
    })
}

fn main() {
    banner("Table 1", "characteristics of function invocations by region");
    println!("{:<28} {:>8} {:>8} {:>8} {:>8}", "metric", "eu", "us", "sa", "ap");
    let singles: Vec<f64> = Region::ALL.iter().map(|&r| single_invocation_ms(r)).collect();
    println!(
        "{:<28} {:>8.0} {:>8.0} {:>8.0} {:>8.0}   (paper: 36 / 363 / 474 / 536)",
        "single invocation [ms]", singles[0], singles[1], singles[2], singles[3]
    );
    let rates: Vec<f64> = Region::ALL.iter().map(|&r| concurrent_rate(r, 128, 1000)).collect();
    println!(
        "{:<28} {:>8.0} {:>8.0} {:>8.0} {:>8.0}   (paper: 294 / 276 / 243 / 222)",
        "concurrent rate [inv/s]", rates[0], rates[1], rates[2], rates[3]
    );
    let intra: Vec<f64> = Region::ALL.iter().map(|&r| intra_region_rate(r, 400)).collect();
    println!(
        "{:<28} {:>8.0} {:>8.0} {:>8.0} {:>8.0}   (paper:  81 /  79 /  84 /  81)",
        "intra-region rate [inv/s]", intra[0], intra[1], intra[2], intra[3]
    );
    println!(
        "--> invoking 1000 workers directly takes {:.1} s from 'eu' — too slow for",
        1000.0 / rates[0]
    );
    println!("    interactive queries, motivating the two-level invocation of Fig 5");
}
