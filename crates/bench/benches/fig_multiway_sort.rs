//! Multi-way joins and the distributed sort/top-k under the general DAG
//! lowering: latency and exact request cost (a) vs *join depth* — each
//! extra join adds a wave and a row re-exchange — and (b) vs *sort-fleet
//! width* — more sorters cut per-worker state but every worker pays its
//! invocation (the Kassing et al. resource-allocation trade-off on the
//! last stage of the DAG). The sort edge's range boundaries come from
//! the driver, which pools the producers' reported block keys, so a
//! wider sort fleet spends no request on agreeing them: no run lists
//! anything, and every width's request $ stays within 10% of one
//! sorter's.
//!
//! Every query runs fully serverlessly: repartitioned aggregation into a
//! merge fleet, range-partitioned sort into a sort fleet, driver only
//! concatenating pre-sorted runs.
//!
//! Quick mode for CI: `LAMBADA_FIG_MULTIWAY_DEPTHS=2
//! LAMBADA_FIG_MULTIWAY_ROWS=4000 LAMBADA_FIG_MULTIWAY_WIDTHS=2
//! cargo bench --bench fig_multiway_sort`.

use lambada_bench::{banner, env_usize, record_bench_summary};
use lambada_core::{AggStrategy, Lambada, LambadaConfig, QueryReport, SortStrategy};
use lambada_engine::expr::col;
use lambada_engine::logical::SortKey;
use lambada_engine::types::{DataType, Field, Schema};
use lambada_engine::{AggExpr, AggFunc, Column, Df};
use lambada_sim::{Cloud, CloudConfig, Simulation};
use lambada_workloads::stage_table_real;

/// Deterministic little pseudo-random stream (no rand dependency here).
fn keys(n: usize, salt: u64, domain: i64) -> Vec<i64> {
    (0..n as u64)
        .map(|i| {
            let x = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (x % domain as u64) as i64
        })
        .collect()
}

fn table_cols(n: usize, salt: u64, prefix: usize) -> (Schema, Vec<Column>) {
    let schema = Schema::new(vec![
        Field::new(format!("k{prefix}"), DataType::Int64),
        Field::new(format!("v{prefix}"), DataType::Int64),
    ]);
    let k = keys(n, salt, (n as i64 / 2).max(4));
    let v: Vec<i64> = (0..n as i64).map(|i| i % 97).collect();
    (schema, vec![Column::I64(k), Column::I64(v)])
}

/// Join `depth` tables onto a base fact table, aggregate, sort, top-10.
fn run_chain(rows: usize, depth: usize, sort_workers: usize) -> QueryReport {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            join_workers: Some(4),
            agg: AggStrategy::Exchange { workers: Some(4) },
            sort: SortStrategy::Exchange { workers: Some(sort_workers) },
            ..LambadaConfig::default()
        },
    );
    let mut dfs = Vec::new();
    for t in 0..=depth {
        // Dimension tables shrink with depth so the chain stays selective.
        let n = if t == 0 { rows } else { rows / (1 << (t - 1)).min(8) };
        let (schema, cols) = table_cols(n.max(8), 0xA5A5 + t as u64, t);
        let name = format!("t{t}");
        let spec = stage_table_real(
            &cloud,
            "data",
            &name,
            schema.clone(),
            vec![cols.clone()],
            cols[0].len() as u64,
            2,
        );
        system.register_table(spec);
        dfs.push(Df::scan(name, &schema));
    }
    let mut df = dfs.remove(0);
    for (t, right) in dfs.into_iter().enumerate() {
        let right_key = format!("k{}", t + 1);
        df = df.join(right, &[("k0", right_key.as_str())]).unwrap();
    }
    let plan = df
        .aggregate(vec![(col(0), "k")], vec![AggExpr::new(AggFunc::Sum, Some(col(1)), "sum_v")])
        .unwrap()
        .sort(vec![SortKey::desc(col(1)), SortKey::asc(col(0))])
        .unwrap()
        .limit(10)
        .unwrap()
        .build();
    sim.block_on(async move { system.run_query(&plan).await.unwrap() })
}

/// The run's S3 request $, after checking it listed nothing.
fn request_dollars(report: &QueryReport) -> f64 {
    let lists: u64 = report.stages.iter().map(|s| s.list_requests).sum();
    assert_eq!(lists, 0, "the driver addresses every edge, the sort edge's blocks included");
    let prices = lambada_sim::Prices::default();
    report.stages.iter().map(|s| s.request_dollars(&prices)).sum()
}

fn main() {
    let depths = env_usize("LAMBADA_FIG_MULTIWAY_DEPTHS", 3);
    let rows = env_usize("LAMBADA_FIG_MULTIWAY_ROWS", 20_000);
    let widths = env_usize("LAMBADA_FIG_MULTIWAY_WIDTHS", 4);

    banner(
        "Fig multiway+sort",
        &format!("latency / request cost vs join depth and sort-fleet width, {rows} base rows"),
    );

    println!("(a) join depth (sort fleet fixed at 2):");
    println!(
        "{:<7} {:>7} {:>12} {:>14} {:>10}",
        "depth", "stages", "latency [s]", "requests [$]", "backups"
    );
    for depth in 1..=depths {
        let r = run_chain(rows, depth, 2);
        assert_eq!(r.batch.num_rows().min(10), r.batch.num_rows());
        println!(
            "{depth:<7} {:>7} {:>12.2} {:>14.6} {:>10}",
            r.stages.len(),
            r.latency_secs,
            request_dollars(&r),
            r.backup_invocations(),
        );
        record_bench_summary(
            "fig_multiway_sort",
            &format!("depth{depth}"),
            r.latency_secs,
            request_dollars(&r),
        );
    }

    println!("\n(b) sort-fleet width (depth fixed at 2):");
    println!("{:<7} {:>12} {:>14} {:>14}", "width", "latency [s]", "requests [$]", "sort rows in");
    let mut one_sorter = None;
    for i in 0..widths {
        let width = 1 << i;
        let r = run_chain(rows, 2.min(depths), width);
        let sort = r.stages.last().expect("sort stage last");
        assert!(sort.label.starts_with("sort#"), "sort fleet is the DAG's last stage");
        let dollars = request_dollars(&r);
        let base = *one_sorter.get_or_insert(dollars);
        assert!(
            dollars <= 1.1 * base,
            "width {width}: ${dollars:.6} against one sorter's ${base:.6}"
        );
        println!("{width:<7} {:>12.2} {:>14.6} {:>14}", r.latency_secs, dollars, sort.rows_out);
    }

    println!("\n--> each join level adds one wave (two stages) and a row re-exchange;");
    println!("    the sort fleet's width trades per-worker state for per-worker");
    println!("    invocations, not requests: the driver picks the boundaries from");
    println!("    the producers' block keys — top-k pushdown keeps the exchanged");
    println!("    volume near the limit whatever the width");
}
