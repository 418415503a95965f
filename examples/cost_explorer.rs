//! Interactive-style cost exploration (Fig 1 in miniature): when is
//! serverless the right architecture for a 1 TB scan? Plus a per-stage
//! request-cost breakdown of a real multi-way query DAG.
//!
//! ```sh
//! cargo run --example cost_explorer -- [bytes_tb] [queries_per_hour]
//! ```

use lambada::baselines::iaas::{
    faas_hourly_cost, job_scoped_faas, job_scoped_vm, qaas_hourly_cost, AlwaysOnConfig,
    InstanceType,
};
use lambada::core::{AggStrategy, Lambada, LambadaConfig, SortStrategy};
use lambada::sim::{Cloud, CloudConfig, Prices, Simulation};

/// Print one query's per-stage breakdown table from the exact
/// per-worker request counters. Stage labels carry the operator that
/// actually ran — `semi-join#2`, not a generic `join#2` — and `chain`
/// names the stage whose invocation ran it (a one-worker stage fused
/// after its one-worker producer runs in the producer's, and a one-worker
/// scan co-hosted beside it in the same one). The total row
/// counts invocations, not fleet slots.
fn print_stages(title: &str, report: &lambada::core::QueryReport) {
    println!("\n{title}");
    println!(
        "  {:<18} {:>7} {:<16} {:>9} {:>9} {:>6} {:>6} {:>6} {:>12}",
        "stage", "workers", "chain", "queue [s]", "exec [s]", "GET", "PUT", "LIST", "requests [$]"
    );
    let prices = Prices::default();
    for s in &report.stages {
        println!(
            "  {:<18} {:>7} {:<16} {:>9.2} {:>9.2} {:>6} {:>6} {:>6} {:>12.7}",
            s.label,
            s.workers,
            report.stages[s.chain].label,
            s.queue_wait_secs,
            s.exec_secs,
            s.get_requests,
            s.put_requests,
            s.list_requests,
            s.request_dollars(&prices)
        );
    }
    let total: f64 = report.stages.iter().map(|s| s.request_dollars(&prices)).sum();
    println!(
        "  {:<18} {:>7} {:<16} {:>19.2} {:>37.7}",
        "total",
        report.invocations(),
        "invocations",
        report.latency_secs,
        total
    );
}

/// Run the Q4-style semi join (orders with a late line item, counted per
/// priority) through a repartitioned aggregation and print its per-stage
/// breakdown — the join stage's label surfaces the variant.
fn semi_join_breakdown() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let li_spec = lambada::workloads::stage_real(
        &cloud,
        "tpch",
        "lineitem",
        lambada::workloads::StageOptions {
            scale: 0.002,
            num_files: 6,
            row_groups_per_file: 3,
            seed: 7,
        },
    );
    let ord_spec = lambada::workloads::stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        lambada::workloads::OrdersStageOptions {
            rows: li_spec.total_rows,
            num_files: 4,
            row_groups_per_file: 3,
            seed: 7,
        },
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig { agg: AggStrategy::Exchange { workers: None }, ..LambadaConfig::default() },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    let plan = lambada::workloads::q4("lineitem", "orders");
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    print_stages(
        "per-stage breakdown of the Q4-style EXISTS query (semi join, SF 0.002):",
        &report,
    );
    println!(
        "  ({} priorities; each qualifying order counted once — the semi join ships only \
         probe rows)",
        report.batch.num_rows()
    );
    // No edge here writes a file: the one-worker orders scan hosts the
    // one-worker semi join, handing its rows on in its invocation, and
    // the semi join hands its part to the merge worker the same way.
    let puts =
        |label: &str| report.stages.iter().find(|s| s.label == label).map(|s| s.put_requests);
    assert_eq!(puts("scan:orders#0"), Some(0), "the orders edge wrote a file");
    assert_eq!(puts("semi-join#2"), Some(0), "the semi-join → agg edge wrote a file");
}

/// Run the Q5-style three-table query (nested joins → repartitioned
/// aggregation → distributed sort) at toy scale and print what every
/// stage of the DAG cost, using the exact per-worker request counters.
fn stage_breakdown() {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let li_spec = lambada::workloads::stage_real(
        &cloud,
        "tpch",
        "lineitem",
        lambada::workloads::StageOptions {
            scale: 0.002,
            num_files: 6,
            row_groups_per_file: 3,
            seed: 7,
        },
    );
    let ord_spec = lambada::workloads::stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        lambada::workloads::OrdersStageOptions {
            rows: li_spec.total_rows,
            num_files: 4,
            row_groups_per_file: 3,
            seed: 7,
        },
    );
    let cust_spec = lambada::workloads::stage_real_customer(
        &cloud,
        "tpch",
        "customer",
        lambada::workloads::CustomerStageOptions::default(),
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig {
            agg: AggStrategy::Exchange { workers: None },
            sort: SortStrategy::Exchange { workers: None },
            ..LambadaConfig::default()
        },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    system.register_table(cust_spec);
    let plan = lambada::workloads::q5("lineitem", "orders", "customer");
    let report = sim.block_on(async move { system.run_query(&plan).await.unwrap() });
    print_stages("per-stage breakdown of the Q5-style multi-way query (SF 0.002):", &report);
    // The driver hands every consumer its sections, the sort fleet's
    // blocks included: nothing in the whole query lists.
    let lists: u64 = report.stages.iter().map(|s| s.list_requests).sum();
    assert_eq!(lists, 0, "a stage listed its in-edges");
    println!(
        "  ({} result rows; the driver only concatenated pre-sorted runs — no merge, no sort)",
        report.batch.num_rows()
    );
}

/// Run a small multi-tenant mix through the query service and print the
/// per-tenant rollup: what each tenant ran, what it actually cost in
/// requests and dollars (exact per-stage counters, not the shared
/// billing window), and how long its queries spent submission→done.
fn tenant_rollup() {
    use lambada::core::{QueryService, ServiceConfig, TenantBudget};
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let li_spec = lambada::workloads::stage_real(
        &cloud,
        "tpch",
        "lineitem",
        lambada::workloads::StageOptions {
            scale: 0.002,
            num_files: 6,
            row_groups_per_file: 3,
            seed: 7,
        },
    );
    let ord_spec = lambada::workloads::stage_real_orders(
        &cloud,
        "tpch",
        "orders",
        lambada::workloads::OrdersStageOptions {
            rows: li_spec.total_rows,
            num_files: 4,
            row_groups_per_file: 3,
            seed: 7,
        },
    );
    let mut system = Lambada::install(
        &cloud,
        LambadaConfig { agg: AggStrategy::Exchange { workers: None }, ..LambadaConfig::default() },
    );
    system.register_table(li_spec);
    system.register_table(ord_spec);
    let service = QueryService::with_config(
        system,
        ServiceConfig {
            max_inflight_workers: 16,
            max_concurrent_queries: 4,
            shrink_fleets: true,
            default_budget: TenantBudget::default(),
        },
    );
    let jobs = [
        ("bi-dashboards", lambada::workloads::q3("lineitem", "orders")),
        ("bi-dashboards", lambada::workloads::q12("lineitem", "orders")),
        ("ad-hoc", lambada::workloads::q1("lineitem")),
        ("ad-hoc", lambada::workloads::q6("lineitem")),
        ("nightly-audit", lambada::workloads::q4("lineitem", "orders")),
    ];
    sim.block_on(async {
        let handles: Vec<_> = jobs.iter().map(|(t, p)| service.submit(t, p)).collect();
        for h in handles {
            h.await.unwrap();
        }
    });
    println!(
        "\nper-tenant rollup (5 concurrent queries, 16-worker cap, shrink on):\n  {:<15} {:>4} \
         {:>12} {:>9} {:>9}",
        "tenant", "done", "requests [$]", "p50 [s]", "max [s]"
    );
    for u in service.usage_report() {
        let mut spans = u.spans_secs.clone();
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = spans.get(spans.len().saturating_sub(1) / 2).copied().unwrap_or(0.0);
        let max = spans.last().copied().unwrap_or(0.0);
        println!(
            "  {:<15} {:>4} {:>12.7} {:>9.2} {:>9.2}",
            u.tenant, u.completed, u.request_dollars_used, p50, max
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tb: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let qph: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4.0);
    let bytes = tb * 1e12;

    println!("scanning {tb} TB at {qph} queries/hour — who should run it?\n");

    println!("job-scoped (start resources per query):");
    let vm = job_scoped_vm(InstanceType::c5n_xlarge(), 32, bytes);
    let faas = job_scoped_faas(2048, bytes);
    println!(
        "  32x c5n.xlarge : {:>8.1} s/query  ${:.4}/query   (2 min startup)",
        vm.running_time_secs, vm.cost_usd
    );
    println!(
        "  2048 functions : {:>8.1} s/query  ${:.4}/query   (4 s startup)",
        faas.running_time_secs, faas.cost_usd
    );

    println!("\nalways-on (keep a cluster hot for 10 s answers):");
    for instance in [
        InstanceType::r5_12xlarge_dram(),
        InstanceType::i3_16xlarge_nvme(),
        InstanceType::c5n_18xlarge_s3(),
    ] {
        let cfg = AlwaysOnConfig::sized_for(instance, bytes, 10.0);
        println!(
            "  {:>2}x {:<22}: ${:>7.2}/hour regardless of load",
            cfg.nodes,
            instance.name,
            cfg.hourly_cost(qph)
        );
    }

    println!("\nusage-priced at {qph} q/h:");
    println!("  QaaS ($5/TiB)  : ${:>7.2}/hour", qaas_hourly_cost(bytes, qph));
    println!("  FaaS (Lambada) : ${:>7.2}/hour", faas_hourly_cost(bytes, qph));

    let dram = AlwaysOnConfig::sized_for(InstanceType::r5_12xlarge_dram(), bytes, 10.0);
    let crossover = dram.hourly_cost(0.0) / job_scoped_faas(2048, bytes).cost_usd;
    println!(
        "\n--> below ~{crossover:.0} queries/hour, serverless wins: interactive latency with \
         zero idle cost.\n    That is the paper's sweet spot: interactive analytics on cold data."
    );

    stage_breakdown();
    semi_join_breakdown();
    tenant_rollup();
}
