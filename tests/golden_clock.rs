//! Golden virtual-clock pins: fixed-seed scenarios whose latency, bill,
//! request counts and trace length are compared with constants, bit for
//! bit.
//!
//! `tests/determinism.rs` compares a run with *itself*, so a change in
//! event order between two commits (the order of same-instant polls
//! decides the order of draws from the store-wide and FaaS-wide RNGs)
//! passes it. These pins compare a run with the *previous commit's*.
//!
//! **Regenerating.** A failing scenario prints the value it measured as
//! a Rust expression; paste it over the constant. Do that only in a PR
//! that moves the virtual clock on purpose and says so in CHANGES.md. A
//! PR that only changes how the simulator executes (`crates/sim`'s
//! executor, timers, resources, sync primitives) may **not** regenerate
//! them: for such a PR a moved pin is a bug in the PR.

use std::time::Duration;

use lambada::core::{
    inject_worker_faults, AggStrategy, Lambada, LambadaConfig, QueryReport, QueryService,
    ServiceConfig, TenantBudget, TransportKind,
};
use lambada::sim::{Cloud, CloudConfig, CostItem, InjectedFault, Simulation};
use lambada::workloads::{
    q1, q12, q3, q6, stage_descriptors, stage_real, stage_real_orders, DescriptorOptions,
    OrdersStageOptions, StageOptions,
};

/// Everything a scenario pins. `queries` is one `(latency_secs, cost.total())`
/// pair per report, as `f64::to_bits`.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    queries: Vec<(u64, u64)>,
    s3_gets: u64,
    s3_puts: u64,
    s3_lists: u64,
    trace_len: usize,
}

fn pin(cloud: &Cloud, reports: &[QueryReport]) -> Pin {
    Pin {
        queries: reports
            .iter()
            .map(|r| (r.latency_secs.to_bits(), r.cost.total().to_bits()))
            .collect(),
        s3_gets: cloud.billing.units(CostItem::S3Get) as u64,
        s3_puts: cloud.billing.units(CostItem::S3Put) as u64,
        s3_lists: cloud.billing.units(CostItem::S3List) as u64,
        trace_len: cloud.trace.len(),
    }
}

/// Run `scenario` on a fresh simulation and compare with `expected`.
fn check(name: &str, expected: Pin, scenario: impl FnOnce(&Simulation) -> Pin) {
    let sim = Simulation::new();
    let actual = scenario(&sim);
    // Leak gauges: the scenario's cloud and installation are dropped, so
    // nothing of it may still be scheduled.
    assert_eq!(sim.pending_timers(), 0, "{name}: live timers left behind");
    assert_eq!(sim.live_tasks(), 0, "{name}: unfinished tasks left behind");
    assert!(
        actual == expected,
        "{name}: the virtual clock moved (see the module docs before pasting). Measured:\n\
         Pin {{ queries: vec!{:?}, s3_gets: {}, s3_puts: {}, s3_lists: {}, trace_len: {} }}\n\
         expected:\n{expected:?}",
        actual.queries,
        actual.s3_gets,
        actual.s3_puts,
        actual.s3_lists,
        actual.trace_len
    );
}

fn cloud(sim: &Simulation, seed: u64) -> Cloud {
    Cloud::new(sim, CloudConfig { seed, ..CloudConfig::default() })
}

fn lineitem(cloud: &Cloud, scale: f64, num_files: usize) -> lambada::core::TableSpec {
    let opts = StageOptions { scale, num_files, row_groups_per_file: 3, seed: 5 };
    stage_real(cloud, "tpch", "lineitem", opts)
}

fn orders(cloud: &Cloud, rows: u64) -> lambada::core::TableSpec {
    let opts = OrdersStageOptions { rows, num_files: 3, row_groups_per_file: 2, seed: 5 };
    stage_real_orders(cloud, "tpch", "orders", opts)
}

/// Lineitem + orders on a fresh cloud, installed with `config`.
fn join_system(sim: &Simulation, seed: u64, config: LambadaConfig) -> (Cloud, Lambada) {
    let cloud = cloud(sim, seed);
    let li = lineitem(&cloud, 0.004, 4);
    let ord = orders(&cloud, li.total_rows);
    let mut system = Lambada::install(&cloud, config);
    system.register_table(li);
    system.register_table(ord);
    (cloud, system)
}

fn exchange_config() -> LambadaConfig {
    LambadaConfig {
        join_workers: Some(3),
        agg: AggStrategy::Exchange { workers: Some(2) },
        ..LambadaConfig::default()
    }
}

/// Q6 on real files: NIC sharing, CPU sharing and the GET limiter.
#[test]
fn q6_on_real_files() {
    let expected = Pin {
        queries: vec![(4604807926223726205, 4529051753090497676)],
        s3_gets: 4,
        s3_puts: 0,
        s3_lists: 0,
        trace_len: 6,
    };
    check("q6_on_real_files", expected, |sim| {
        let cloud = cloud(sim, 11);
        let mut system = Lambada::install(&cloud, LambadaConfig::default());
        system.register_table(lineitem(&cloud, 0.01, 4));
        let report = sim.block_on(async move { system.run_query(&q6("lineitem")).await.unwrap() });
        pin(&cloud, &[report])
    });
}

/// Q12 over the object-store exchange: PUTs and addressed ranged GETs on
/// edges.
#[test]
fn q12_over_the_object_store_exchange() {
    let expected = Pin {
        queries: vec![(4610127651386149371, 4541013025470417561)],
        s3_gets: 10,
        s3_puts: 1,
        s3_lists: 0,
        trace_len: 63,
    };
    check("q12_over_the_object_store_exchange", expected, |sim| {
        let (cloud, system) = join_system(sim, 12, exchange_config());
        let plan = q12("lineitem", "orders");
        let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
        pin(&cloud, &[report])
    });
}

/// Q3 on the direct transport: p2p links between worker NICs.
#[test]
fn q3_on_the_direct_transport() {
    let expected = Pin {
        queries: vec![(4611365134850756730, 4540039037383325696)],
        s3_gets: 7,
        s3_puts: 0,
        s3_lists: 0,
        trace_len: 63,
    };
    check("q3_on_the_direct_transport", expected, |sim| {
        let config = LambadaConfig { transport: TransportKind::Direct, ..exchange_config() };
        let (cloud, system) = join_system(sim, 13, config);
        let plan = q3("lineitem", "orders");
        let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
        pin(&cloud, &[report])
    });
}

/// Two tenants through the query service under a gate smaller than one
/// round's fleets: admission queue, worker gate, `StageBoard` notify and
/// the result queues' long poll.
#[test]
fn two_tenants_through_a_small_gate() {
    let expected = Pin {
        queries: vec![
            (4608131269581918342, 4547508873457748686),
            (4607712350630785052, 4547206346854939849),
            (4604229031032629808, 4536494668447788098),
            (4601748565739694826, 4545767500817190505),
        ],
        s3_gets: 31,
        s3_puts: 3,
        s3_lists: 0,
        trace_len: 155,
    };
    check("two_tenants_through_a_small_gate", expected, |sim| {
        let (cloud, system) = join_system(sim, 14, exchange_config());
        let service = QueryService::with_config(
            system,
            ServiceConfig {
                max_inflight_workers: 6,
                max_concurrent_queries: 3,
                shrink_fleets: true,
                default_budget: TenantBudget::default(),
            },
        );
        let plans = [
            ("a", q1("lineitem")),
            ("b", q12("lineitem", "orders")),
            ("a", q6("lineitem")),
            ("b", q3("lineitem", "orders")),
        ];
        let reports = sim.block_on(async {
            let handles: Vec<_> = plans.iter().map(|(t, p)| service.submit(t, p)).collect();
            let mut out = Vec::new();
            for h in handles {
                out.push(h.await.unwrap());
            }
            out
        });
        pin(&cloud, &reports)
    });
}

/// Descriptor Q1 on 40 files: a 40-worker fleet the driver invokes
/// directly (the two-level tree pays only past ≈ 90 workers in `eu`, see
/// `invoke::choose_strategy`) and the modelled scan (no real bytes). No
/// pin here covers the tree's shape: `tests/plan_table.rs` shows it for
/// the 320-worker SF 1000 scan (32 × 10).
#[test]
fn descriptor_q1_on_40_files() {
    let expected = Pin {
        // 1713 scan GETs and 9 hedges of late ones. Row groups decode
        // chunk by chunk as their GETs land (3.127 s → 3.075 s).
        queries: vec![(4614107636595870518, 4570016956469661583)],
        s3_gets: 1722,
        s3_puts: 0,
        s3_lists: 0,
        trace_len: 240,
    };
    check("descriptor_q1_on_40_files", expected, |sim| {
        let cloud = cloud(sim, 15);
        let opts =
            DescriptorOptions { scale: 100.0, num_files: 40, ..DescriptorOptions::default() };
        let spec = stage_descriptors(&cloud, "tpch", "lineitem", &opts);
        let mut system = Lambada::install(&cloud, LambadaConfig::default());
        system.register_table(spec);
        let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
        pin(&cloud, &[report])
    });
}

/// A worker killed mid-flight and recovered by a speculative backup:
/// the FaaS layer's handler-versus-death race.
#[test]
fn killed_worker_with_speculation() {
    let expected = Pin {
        queries: vec![(4610867626275678774, 4537557200906433768)],
        s3_gets: 5,
        s3_puts: 0,
        s3_lists: 0,
        trace_len: 29,
    };
    check("killed_worker_with_speculation", expected, |sim| {
        let cloud = cloud(sim, 16);
        let config = LambadaConfig {
            // One scan worker per file, so worker 1 is one of four.
            files_per_worker: Some(1),
            max_wait: Duration::from_secs(60),
            speculate: true,
            ..LambadaConfig::default()
        };
        let mut system = Lambada::install(&cloud, config);
        system.register_table(lineitem(&cloud, 0.01, 4));
        inject_worker_faults(&cloud, |wid, attempt| {
            (wid == 1 && attempt == 0).then(|| InjectedFault::kill(Duration::from_millis(10)))
        });
        let report = sim.block_on(async move { system.run_query(&q1("lineitem")).await.unwrap() });
        assert_eq!(report.backup_invocations(), 1);
        pin(&cloud, &[report])
    });
}
