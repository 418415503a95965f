//! The launch plan as text: one line per stage of every benchmark query,
//! compared with the committed `tests/plan_table.txt`, as
//! `golden_clock.rs` compares the virtual clock.
//!
//! Each query is planned at the benchmark's sizes and installation
//! config (`benchmark/src/workload.rs`: data seed 1, four row groups a
//! file) — Q1 and Q6 at `scan_agg`'s, Q12 and Q5 at `join_shuffle`'s, Q3
//! at `groupby_direct`'s, Q1, Q6, Q12 and Q4 at `service_mix`'s — and Q1
//! and Q6 over the descriptor lineitem of SF 1000 in 320 files, whose
//! 320-worker scan launches through the two-level tree. Every query is
//! planned at 2048 MiB and at 1024 MiB.
//!
//! A line reads: the stage's label, its fleet, the installation's pin
//! (`-` for none), its placement, the head of the chain it runs in, its
//! out-edge's partition count, each sender's inline budget (`-` for the
//! driver-bound last stage) and its byte estimate. A chain head's line
//! ends with its launch shape: `direct`, or `n1 × group` from
//! [`invoke::launch_shape`].
//!
//! Staging the tables uses a simulation (the loaders encode and store
//! real files); planning does not: [`plan::launch_plan`] reads the
//! tables, the installation's config and the cloud's config alone.
//!
//! **Regenerating.** A failing run prints the table it rendered; paste it
//! over `tests/plan_table.txt` only in a change that moves a planner
//! choice on purpose and says which in CHANGES.md. The diff of that file
//! is the move.

use std::rc::Rc;

use lambada::core::invoke::{self, InvocationStrategy};
use lambada::core::plan::{self, LaunchPlan, Placement};
use lambada::core::{AggStrategy, LambadaConfig, ServiceConfig, SortStrategy, TableSpec};
use lambada::core::{TenantBudget, TransportKind};
use lambada::engine::LogicalPlan;
use lambada::sim::{Cloud, CloudConfig, Region, Simulation};
use lambada::workloads::{
    customer, orders, q1, q12, q3, q4, q5, q6, rows_for_scale, stage_descriptors, stage_real,
    stage_real_customer, stage_real_orders, CustomerStageOptions, DescriptorOptions,
    OrdersStageOptions, StageOptions,
};

const DATA_SEED: u64 = 1;
const ROW_GROUPS_PER_FILE: usize = 4;

/// The benchmark's lineitem at `scale` in `files` files, and — with
/// `orders` — its orders in four files.
fn staged(cloud: &Cloud, scale: f64, files: usize, with_orders: bool) -> Vec<TableSpec> {
    let li = StageOptions {
        scale,
        num_files: files,
        row_groups_per_file: ROW_GROUPS_PER_FILE,
        seed: DATA_SEED,
    };
    let mut tables = vec![stage_real(cloud, "tpch", "lineitem", li)];
    if with_orders {
        let rows = orders::rows_matching_lineitem(rows_for_scale(scale));
        let opts = OrdersStageOptions {
            rows,
            num_files: 4,
            row_groups_per_file: ROW_GROUPS_PER_FILE,
            seed: DATA_SEED,
        };
        tables.push(stage_real_orders(cloud, "tpch", "orders", opts));
    }
    tables
}

/// One stage's line, from the plan's public fields.
fn render(launch: &LaunchPlan<'_>, region: Region) -> String {
    let dag = launch.edges.dag;
    let n = dag.stages.len();
    let handed =
        |s: usize| dag.stages[s].inputs().iter().any(|&p| launch.placement[p] == Placement::Fused);
    let heads = (0..n).filter(|&s| launch.placement[s] != Placement::CoHosted && !handed(s));
    let mut chain_of = vec![usize::MAX; n];
    for head in heads {
        for s in launch.chain(head) {
            chain_of[s] = head;
        }
    }
    let mut out = String::new();
    for (s, &head) in chain_of.iter().enumerate() {
        let pin = launch.pins[s].map_or_else(|| "-".to_string(), |p| p.to_string());
        let budget = match launch.inline_budgets[s] {
            u64::MAX => "-".to_string(),
            b => b.to_string(),
        };
        let placement = format!("{:?}", launch.placement[s]);
        out.push_str(&format!(
            "  {:<22} fleet {:>3}  pin {:>2}  {:<8}  chain {:>2}  parts {:>3}  inline {:>6}  est {:>13}",
            dag.stages[s].label(s),
            launch.workers[s],
            pin,
            placement,
            head,
            launch.partitions[s],
            budget,
            launch.est[s],
        ));
        if head == s {
            let workers = launch.workers[s];
            let shape = match invoke::choose_strategy(region, workers) {
                InvocationStrategy::Direct => "direct".to_string(),
                InvocationStrategy::TwoLevel => {
                    let (n1, group) = invoke::launch_shape(region, workers);
                    format!("{n1} × {group}")
                }
            };
            out.push_str(&format!("  launch {shape}"));
        }
        out.push('\n');
    }
    out
}

/// Every query of one workload under `config`, at 2048 and 1024 MiB.
fn workload(
    out: &mut String,
    title: &str,
    tables: &[TableSpec],
    config: &LambadaConfig,
    queries: &[(&str, LogicalPlan)],
) {
    let cloud = CloudConfig::default();
    let tables: plan::Tables =
        tables.iter().map(|t| (t.name.clone(), Rc::new(t.clone()))).collect();
    out.push_str(&format!("# {title}\n"));
    for memory_mib in [2048, 1024] {
        let config = LambadaConfig { memory_mib, ..config.clone() };
        for (name, query) in queries {
            out.push_str(&format!("{name} @ {memory_mib} MiB\n"));
            let dag = plan::lower(query, &tables, &config).unwrap();
            let launch = plan::launch_plan(&dag, &tables, &config, &cloud, None).unwrap();
            out.push_str(&render(&launch, cloud.region));
        }
    }
}

fn rendered() -> String {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let (li, ord, cust) = ("lineitem", "orders", "customer");
    let mut out = String::new();

    let scan_agg = staged(&cloud, 0.05, 8, false);
    let default = LambadaConfig::default();
    let title = "scan_agg: lineitem SF 0.05 in 8 files";
    workload(&mut out, title, &scan_agg, &default, &[("Q1", q1(li)), ("Q6", q6(li))]);

    let mut sf002 = staged(&cloud, 0.02, 8, true);
    let join_shuffle = LambadaConfig {
        agg: AggStrategy::Exchange { workers: None },
        sort: SortStrategy::Exchange { workers: None },
        ..LambadaConfig::default()
    };
    let groupby_direct = LambadaConfig {
        agg: AggStrategy::Exchange { workers: None },
        transport: TransportKind::Direct,
        ..LambadaConfig::default()
    };
    let title = "groupby_direct: lineitem SF 0.02 in 8 files, orders in 4";
    workload(&mut out, title, &sf002, &groupby_direct, &[("Q3", q3(li, ord))]);
    let customer = CustomerStageOptions {
        rows: customer::rows_matching_orders(),
        seed: DATA_SEED,
        ..CustomerStageOptions::default()
    };
    sf002.push(stage_real_customer(&cloud, "tpch", cust, customer));
    let title = "join_shuffle: lineitem SF 0.02 in 8 files, orders in 4, customer";
    let queries = [("Q12", q12(li, ord)), ("Q5", q5(li, ord, cust))];
    workload(&mut out, title, &sf002, &join_shuffle, &queries);

    let service_mix = LambadaConfig {
        join_workers: Some(4),
        agg: AggStrategy::Exchange { workers: Some(2) },
        service: ServiceConfig {
            max_inflight_workers: 24,
            max_concurrent_queries: 8,
            shrink_fleets: true,
            default_budget: TenantBudget::default(),
        },
        ..LambadaConfig::default()
    };
    let title = "service_mix: lineitem SF 0.01 in 6 files, orders in 4";
    let queries = [("Q1", q1(li)), ("Q6", q6(li)), ("Q12", q12(li, ord)), ("Q4", q4(li, ord))];
    workload(&mut out, title, &staged(&cloud, 0.01, 6, true), &service_mix, &queries);

    let opts = DescriptorOptions {
        scale: 1000.0,
        num_files: 320,
        seed: DATA_SEED,
        ..DescriptorOptions::default()
    };
    let sf1000 = [stage_descriptors(&cloud, "tpch", li, &opts)];
    let title = "scan_sf1000_modeled: descriptor lineitem SF 1000 in 320 files";
    workload(&mut out, title, &sf1000, &default, &[("Q1", q1(li)), ("Q6", q6(li))]);
    out
}

/// Every line of the rendered plans equals the committed table's.
#[test]
fn the_benchmark_plans_match_the_committed_table() {
    let actual = rendered();
    let expected = include_str!("plan_table.txt");
    if actual != expected {
        let same = actual.lines().zip(expected.lines()).take_while(|(a, e)| a == e).count();
        panic!(
            "the launch plans moved at line {} (see the module docs before pasting). \
             Rendered:\n{actual}",
            same + 1
        );
    }
}
