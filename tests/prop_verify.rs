//! Property suite for the static plan verifier (`core::verify`).
//!
//! Two directions: (1) *soundness of the planner* — every `split_with`
//! output over randomized supported plan shapes and planner options
//! verifies with zero diagnostics, a well-formed fleet plan passes the
//! sizing pass, its edge table is exactly the inverse of `inputs()` plus
//! the driver, and an installation's launch plan wires every edge to its
//! readers' fleet size; (2) *sensitivity of the verifier* — hand-seeded
//! invalid DAGs (schema mismatch, inconsistent exchange keys,
//! inconsistent partition counts, mid-DAG driver output, zero-worker
//! fleet, terminal/output disagreement) are each rejected with the
//! expected diagnostic code.

use std::sync::Arc;

use proptest::prelude::*;

use lambada::core::stage::{
    split_with, FinalStage, JoinStage, QueryDag, ReaderRole, ScanStage, SplitOptions, StageKind,
    StageOutput,
};
use lambada::core::verify::codes;
use lambada::core::{
    verify_dag, verify_fleets, AggStrategy, CoreError, Diagnostic, Lambada, LambadaConfig,
    SortStrategy, TableFile, TableSpec,
};
use lambada::engine::pipeline::{PipelineSpec, Terminal};
use lambada::engine::{
    lit_i64, AggExpr, AggFunc, DataType, Df, Field, JoinVariant, Optimizer, Schema, SchemaRef,
};
use lambada::sim::{Cloud, CloudConfig, Simulation};

fn t_schema() -> Schema {
    Schema::new(vec![
        Field::new("k1", DataType::Int64),
        Field::new("k2", DataType::Int64),
        Field::new("a", DataType::Int64),
    ])
}

fn u_schema() -> Schema {
    Schema::new(vec![Field::new("uk", DataType::Int64), Field::new("b", DataType::Int64)])
}

fn v_schema() -> Schema {
    Schema::new(vec![Field::new("vk", DataType::Int64), Field::new("c", DataType::Int64)])
}

/// One supported plan shape, exercising every distributed operator the
/// planner lowers: scans, all four join variants, nested joins,
/// driver-merged and repartitioned aggregation, distinct, and
/// distributed sort/top-k — with an optional filter and limit mixed in.
fn build_plan(shape: usize, with_filter: bool, limit: usize) -> lambada::engine::LogicalPlan {
    let t = || Df::scan("t", &t_schema());
    let u = || Df::scan("u", &u_schema());
    let v = || Df::scan("v", &v_schema());
    let filtered_t = |df: Df| {
        if with_filter {
            let a = df.col("a").unwrap();
            df.filter(a.le(lit_i64(500))).unwrap()
        } else {
            df
        }
    };
    match shape {
        0 => filtered_t(t()).build(),
        1 => {
            let df = filtered_t(t());
            let k1 = df.col("k1").unwrap();
            let a = df.col("a").unwrap();
            df.select(vec![(k1, "k1"), (a, "a")]).unwrap().build()
        }
        2 => {
            let df = filtered_t(t());
            let k1 = df.col("k1").unwrap();
            let a = df.col("a").unwrap();
            df.aggregate(vec![(k1, "k1")], vec![AggExpr::new(AggFunc::Sum, Some(a), "sum_a")])
                .unwrap()
                .build()
        }
        3 => filtered_t(t()).reduce_sum("a").unwrap().build(),
        4 => filtered_t(t()).distinct().unwrap().build(),
        5 => filtered_t(t().join(u(), &[("k1", "uk")]).unwrap()).build(),
        6 => {
            filtered_t(t().join(u(), &[("k1", "uk")]).unwrap().join(v(), &[("k2", "vk")]).unwrap())
                .build()
        }
        7 => filtered_t(t().semi_join(u(), &[("k1", "uk")]).unwrap()).build(),
        8 => filtered_t(t().anti_join(u(), &[("k1", "uk")]).unwrap()).build(),
        9 => t().left_outer_join(u(), &[("k1", "uk")]).unwrap().build(),
        10 => {
            let df = filtered_t(t().join(u(), &[("k1", "uk")]).unwrap());
            let k1 = df.col("k1").unwrap();
            let b = df.col("b").unwrap();
            df.aggregate(vec![(k1, "k1")], vec![AggExpr::new(AggFunc::Sum, Some(b), "sum_b")])
                .unwrap()
                .build()
        }
        11 => filtered_t(t()).sort_by(&["k1", "k2", "a"]).unwrap().limit(limit).unwrap().build(),
        12 => {
            let df = u();
            let uk = df.col("uk").unwrap();
            let b = df.col("b").unwrap();
            df.aggregate(vec![(uk, "uk")], vec![AggExpr::new(AggFunc::Sum, Some(b), "sum_b")])
                .unwrap()
                .sort_by(&["uk"])
                .unwrap()
                .limit(limit)
                .unwrap()
                .build()
        }
        _ => filtered_t(t().join(u(), &[("k1", "uk")]).unwrap())
            .sort_by(&["k1", "k2"])
            .unwrap()
            .limit(limit)
            .unwrap()
            .build(),
    }
}

/// A plausible fleet plan: scans follow the file layout (2 here),
/// consumer fleets are model-sized (3 here) — every consumer of a shared
/// edge agrees by construction.
fn uniform_fleets(dag: &QueryDag) -> Vec<usize> {
    dag.stages
        .iter()
        .map(|k| match k {
            StageKind::Scan(_) => 2,
            _ => 3,
        })
        .collect()
}

/// An installation planning like `opts`, with `t` (3 files), `u` (2) and
/// `v` (1) registered — nothing is staged, a launch plan reads only the
/// registry.
fn installation(opts: &SplitOptions) -> Lambada {
    let sim = Simulation::new();
    let cloud = Cloud::new(&sim, CloudConfig::default());
    let mut config = LambadaConfig::default();
    if opts.exchange_aggregates {
        config.agg = AggStrategy::Exchange { workers: None };
    }
    if opts.exchange_sorts {
        config.sort = SortStrategy::Exchange { workers: None };
    }
    let mut system = Lambada::install(&cloud, config);
    for (name, schema, files) in [("t", t_schema(), 3), ("u", u_schema(), 2), ("v", v_schema(), 1)]
    {
        let files = (0..files)
            .map(|i| TableFile::real("tables", format!("{name}/{i}"), 1 << (20 + i)))
            .collect();
        system.register_table(TableSpec::new(name, schema, files, 1_000));
    }
    system
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every planner output over supported shapes × planner options
    /// verifies clean, structurally and under a well-formed fleet plan.
    #[test]
    fn split_outputs_verify_clean(
        shape in 0usize..14,
        with_filter in any::<bool>(),
        limit in 1usize..20,
        exchange_aggregates in any::<bool>(),
        exchange_sorts in any::<bool>(),
    ) {
        let plan = build_plan(shape, with_filter, limit);
        let optimized = Optimizer::new().optimize(&plan).unwrap();
        let opts = SplitOptions { exchange_aggregates, exchange_sorts };
        let dag = split_with(&optimized, &opts).unwrap();
        let diags = verify_dag(&dag);
        prop_assert!(diags.is_empty(), "shape {shape} opts {opts:?}: {diags:?}");
        let fleets = uniform_fleets(&dag);
        let unpinned = vec![None; dag.stages.len()];
        let fleet_diags = verify_fleets(&dag.edges(), &fleets, &unpinned);
        prop_assert!(fleet_diags.is_empty(), "shape {shape}: {fleet_diags:?}");

        // The edge table is the inverse of `inputs()`: stage `c` reads
        // stage `p` once per occurrence of `p` in `c`'s inputs, and the
        // driver is the one extra reader, on the last stage.
        let edges = dag.edges();
        let last = dag.stages.len() - 1;
        for p in 0..dag.stages.len() {
            let mut want: Vec<Option<usize>> = Vec::new();
            for (c, kind) in dag.stages.iter().enumerate() {
                want.extend(kind.inputs().iter().filter(|&&i| i == p).map(|_| Some(c)));
            }
            if p == last {
                want.push(None);
            }
            let got: Vec<Option<usize>> = edges.readers[p].iter().map(|r| r.stage).collect();
            prop_assert_eq!(&got, &want, "shape {} readers of stage {}", shape, p);
            for r in &edges.readers[p] {
                prop_assert_eq!(r.stage.is_none(), r.role == ReaderRole::Final);
            }
        }

        // The launch plan wires every out-edge to its readers' fleets.
        let system = installation(&opts);
        let launch = system.launch_plan(&dag, None).unwrap();
        for (p, kind) in dag.stages.iter().enumerate() {
            for c in launch.edges.readers[p].iter().filter_map(|r| r.stage) {
                prop_assert_eq!(launch.partitions[p], launch.workers[c], "edge {} → {}", p, c);
            }
            prop_assert_eq!(
                launch.sort_edges[p].is_some(),
                matches!(kind.output(), StageOutput::SortExchange),
                "stage {}", p
            );
            prop_assert_eq!(launch.scans[p].is_some(), matches!(kind, StageKind::Scan(_)));
        }
        prop_assert_eq!(launch.partitions[last], 0, "the driver reads no partitions");
    }
}

// ---- seeded-invalid DAGs: each rejected with its specific code ----

fn base_join_dag() -> QueryDag {
    let plan = Df::scan("t", &t_schema())
        .join(Df::scan("u", &u_schema()), &[("k1", "uk")])
        .unwrap()
        .build();
    let optimized = Optimizer::new().optimize(&plan).unwrap();
    split_with(&optimized, &SplitOptions::default()).unwrap()
}

fn join_stage_mut(dag: &mut QueryDag) -> &mut JoinStage {
    let last = dag.stages.len() - 1;
    match &mut dag.stages[last] {
        StageKind::Join(j) => j,
        other => panic!("expected a join last stage, got {other:?}"),
    }
}

fn has_code(diags: &[Diagnostic], code: &str) -> bool {
    diags.iter().any(|d| d.code == code)
}

fn retype(schema: &SchemaRef, col: usize, to: DataType) -> SchemaRef {
    let mut fields = schema.fields.clone();
    fields[col].dtype = to;
    Arc::new(Schema::new(fields))
}

#[test]
fn edge_schema_mismatch_is_rejected() {
    let mut dag = base_join_dag();
    let probe_input = {
        let j = join_stage_mut(&mut dag);
        j.probe_schema = retype(&j.probe_schema, 0, DataType::Float64);
        j.probe_input
    };
    let diags = verify_dag(&dag);
    assert!(has_code(&diags, codes::SCHEMA_EDGE), "{diags:?}");
    assert!(diags.iter().any(|d| d.code == codes::SCHEMA_EDGE
        && d.message.contains(&format!("producer stage {probe_input}"))));
    // And `validate` surfaces it as the typed error.
    match dag.validate() {
        Err(CoreError::InvalidPlan(diags)) => assert!(has_code(&diags, codes::SCHEMA_EDGE)),
        other => panic!("expected InvalidPlan, got {other:?}"),
    }
}

#[test]
fn inconsistent_exchange_keys_are_rejected() {
    let mut dag = base_join_dag();
    let probe_input = join_stage_mut(&mut dag).probe_input;
    match &mut dag.stages[probe_input] {
        StageKind::Scan(s) => s.output = StageOutput::Exchange { keys: vec![1] },
        other => panic!("expected a scan producer, got {other:?}"),
    }
    let diags = verify_dag(&dag);
    assert!(has_code(&diags, codes::EXCH_KEYS), "{diags:?}");
}

#[test]
fn mid_dag_driver_output_is_rejected() {
    let mut dag = base_join_dag();
    match &mut dag.stages[0] {
        StageKind::Scan(s) => s.output = StageOutput::Driver,
        other => panic!("expected a scan first stage, got {other:?}"),
    }
    let diags = verify_dag(&dag);
    assert!(has_code(&diags, codes::TOPO_DRIVER), "{diags:?}");
}

#[test]
fn terminal_output_disagreement_is_rejected() {
    let mut dag = base_join_dag();
    let probe_input = join_stage_mut(&mut dag).probe_input;
    match &mut dag.stages[probe_input] {
        StageKind::Scan(s) => {
            s.pipeline.terminal = Terminal::SortPartition { keys: Vec::new(), limit: None };
        }
        other => panic!("expected a scan producer, got {other:?}"),
    }
    let diags = verify_dag(&dag);
    assert!(has_code(&diags, codes::TERM_OUTPUT), "{diags:?}");
}

/// A diamond-ish DAG whose scan edge is shared by two join consumers:
/// structurally valid, so fleet-plan mutations isolate the sizing codes.
fn shared_edge_dag() -> QueryDag {
    let pair =
        Schema::arc(vec![Field::new("k", DataType::Int64), Field::new("x", DataType::Int64)]);
    let quad = Schema::arc((0..4).map(|i| Field::new(format!("c{i}"), DataType::Int64)).collect());
    let hex = Schema::arc((0..6).map(|i| Field::new(format!("c{i}"), DataType::Int64)).collect());
    let scan = StageKind::Scan(ScanStage {
        table: "t".to_string(),
        scan_columns: vec![0, 1],
        prune_predicate: None,
        pipeline: PipelineSpec {
            input_schema: pair.clone(),
            predicate: None,
            projection: None,
            terminal: Terminal::Collect,
        },
        output: StageOutput::Exchange { keys: vec![0] },
    });
    let mid = StageKind::Join(JoinStage {
        probe_input: 0,
        build_input: 0,
        probe_schema: pair.clone(),
        build_schema: pair.clone(),
        probe_keys: vec![0],
        build_keys: vec![0],
        variant: JoinVariant::Inner,
        post: PipelineSpec {
            input_schema: quad.clone(),
            predicate: None,
            projection: None,
            terminal: Terminal::Collect,
        },
        output: StageOutput::Exchange { keys: vec![0] },
    });
    let top = StageKind::Join(JoinStage {
        probe_input: 1,
        build_input: 0,
        probe_schema: quad,
        build_schema: pair,
        probe_keys: vec![0],
        build_keys: vec![0],
        variant: JoinVariant::Inner,
        post: PipelineSpec {
            input_schema: hex.clone(),
            predicate: None,
            projection: None,
            terminal: Terminal::Collect,
        },
        output: StageOutput::Driver,
    });
    QueryDag {
        stages: vec![scan, mid, top],
        final_stage: FinalStage::CollectBatches { schema: hex, post: Vec::new() },
    }
}

#[test]
fn shared_edge_dag_is_structurally_valid() {
    let diags = verify_dag(&shared_edge_dag());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn inconsistent_partition_counts_are_rejected() {
    // Stage 0 feeds stages 1 and 2; their fleets (= the edge's partition
    // count) disagree.
    let dag = shared_edge_dag();
    let diags = verify_fleets(&dag.edges(), &[2, 3, 4], &[None; 3]);
    assert!(has_code(&diags, codes::FLEET_SHARED_EDGE), "{diags:?}");
    // Agreeing consumer fleets pass.
    assert!(verify_fleets(&dag.edges(), &[2, 3, 3], &[None; 3]).is_empty());
}

#[test]
fn zero_worker_fleet_is_rejected() {
    let dag = shared_edge_dag();
    let diags = verify_fleets(&dag.edges(), &[2, 0, 0], &[None; 3]);
    assert!(has_code(&diags, codes::FLEET_ZERO), "{diags:?}");
}

#[test]
fn unrespected_pin_and_model_bound_are_rejected() {
    let dag = shared_edge_dag();
    // Both join fleets pinned to 5 workers (`join_workers: Some(5)`).
    let diags = verify_fleets(&dag.edges(), &[2, 3, 3], &[None, Some(5), Some(5)]);
    assert!(has_code(&diags, codes::FLEET_PIN), "{diags:?}");
    let diags = verify_fleets(&dag.edges(), &[2, 300, 300], &[None; 3]);
    assert!(has_code(&diags, codes::FLEET_MODEL_BOUND), "{diags:?}");
}
