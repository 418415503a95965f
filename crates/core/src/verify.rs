//! Static plan verification: machine-check the operator contracts of
//! `docs/OPERATORS.md` over any [`QueryDag`] *before* a single worker
//! launches.
//!
//! Serverless mistakes are billed per request (§2): a malformed DAG that
//! reaches the scheduler burns invocations and storage requests before it
//! fails. This module turns the prose invariants into mechanical checks
//! that run at three choke points — [`crate::stage::split_with`]
//! debug-asserts its own output verifies, [`crate::Lambada::run_dag_with`]
//! rejects unverified DAGs with [`crate::CoreError::InvalidPlan`], and the
//! query service verifies before admission reserves a cent of tenant
//! budget.
//!
//! The pass is split in three because the information arrives in steps:
//!
//! * [`verify_dag`] checks everything the plan data itself determines —
//!   topology, schema flow across every exchange edge, terminal/output
//!   agreement, exchange-key consistency, final-stage agreement;
//! * [`verify_fleets`] checks the sizing the driver computes per
//!   execution — nonzero fleets, cost-model bounds, pinned fleets
//!   respected, shared edges with equal consumer fleets (the partition
//!   count of an edge *is* its consumer's fleet size), and endpoint
//!   namespace uniqueness on the direct transport;
//! * [`verify_schedule`] checks the launch plan the event-driven
//!   scheduler computed — every input edge covered by a wait (at least
//!   transitively), the wait graph acyclic, and no overlapped launch
//!   across a sort-sample barrier.
//!
//! Every finding is a typed [`Diagnostic`] with a stable code (table in
//! `docs/VERIFIER.md`); callers collect all of them rather than stopping
//! at the first, so a broken planner change surfaces every violated
//! contract in one run.

use std::collections::HashSet;
use std::fmt;

use lambada_engine::pipeline::{agg_func_types, PipelineSpec, Terminal};
use lambada_engine::types::{Schema, SchemaRef};

use crate::sched::{SchedulePlan, WaitEvent};
use crate::stage::{FinalStage, QueryDag, StageKind, StageOutput};

/// Stable diagnostic codes; one section per invariant family. The full
/// table, cross-linked to the OPERATORS.md contract each code enforces,
/// lives in `docs/VERIFIER.md`.
pub mod codes {
    /// A stage consumes a stage at or after its own index (not
    /// topologically ordered), or the DAG is empty.
    pub const TOPO_ORDER: &str = "V-TOPO-001";
    /// Driver output misplaced: exactly the last stage must report to
    /// the driver.
    pub const TOPO_DRIVER: &str = "V-TOPO-002";
    /// Producer edge-row schema does not match the consumer's declared
    /// input schema (join probe/build schema, sort edge schema).
    pub const SCHEMA_EDGE: &str = "V-SCHEMA-001";
    /// A partition/join key column index is out of schema bounds.
    pub const SCHEMA_KEY_BOUNDS: &str = "V-SCHEMA-002";
    /// Probe/build key lists disagree in arity or column types.
    pub const SCHEMA_KEY_TYPES: &str = "V-SCHEMA-003";
    /// Join post-pipeline input schema does not match the variant's
    /// probe output (`probe ++ build` for inner/left-outer, probe alone
    /// for semi/anti).
    pub const SCHEMA_JOIN_POST: &str = "V-SCHEMA-004";
    /// Agg-merge stage inconsistent with its producer: schema width,
    /// accumulator shapes, or group-key types disagree.
    pub const SCHEMA_AGG: &str = "V-SCHEMA-005";
    /// A sort key expression does not resolve over the sort stage's edge
    /// schema.
    pub const SCHEMA_SORT_KEY: &str = "V-SCHEMA-006";
    /// A stage's own pipeline does not type-check (predicate, projection
    /// or terminal expressions fail over their input schema).
    pub const SCHEMA_PIPELINE: &str = "V-SCHEMA-007";
    /// Producer output kind does not match what the consumer expects
    /// (joins consume `Exchange`, agg-merges `AggExchange`, sorts
    /// `SortExchange`).
    pub const EXCH_KIND: &str = "V-EXCH-001";
    /// Hash-partition key sets disagree across an edge: the producer
    /// shards on different columns than the consumer co-partitions on.
    pub const EXCH_KEYS: &str = "V-EXCH-002";
    /// A producer feeds more than one sort stage: a sort edge carries
    /// exactly one sample channel and one boundary set.
    pub const EXCH_SORT_FANOUT: &str = "V-EXCH-003";
    /// A stage's `StageOutput` disagrees with its pipeline terminal
    /// (e.g. `AggExchange` without `PartialAggregate`).
    pub const TERM_OUTPUT: &str = "V-TERM-001";
    /// A runtime-only terminal (`HashPartition`, `PartitionedAggregate`,
    /// `Probe`) appears in plan data; the driver swaps those in at
    /// payload-build time, they never live in a [`super::QueryDag`].
    pub const TERM_RUNTIME_ONLY: &str = "V-TERM-002";
    /// `FinalStage::MergeAggregate` disagrees with the last stage
    /// (terminal kind, schema width, or accumulator shapes).
    pub const FINAL_MERGE_AGG: &str = "V-FINAL-001";
    /// `FinalStage::CollectBatches` schema does not match the last
    /// stage's output schema.
    pub const FINAL_COLLECT: &str = "V-FINAL-002";
    /// A fleet plan is malformed: wrong length, or a zero-worker fleet.
    pub const FLEET_ZERO: &str = "V-FLEET-001";
    /// An unpinned consumer fleet exceeds the cost model's sizing bound
    /// ([`super::MAX_MODEL_FLEET`]).
    pub const FLEET_MODEL_BOUND: &str = "V-FLEET-002";
    /// A pinned fleet size was not respected by the plan.
    pub const FLEET_PIN: &str = "V-FLEET-003";
    /// Consumers sharing one exchange edge have different fleet sizes;
    /// the edge's partition count is its consumer fleet size, so shared
    /// edges need equal consumer fleets.
    pub const FLEET_SHARED_EDGE: &str = "V-FLEET-004";
    /// A non-driver output edge has no consumer (dangling exchange), or
    /// a sort edge's consumer set is not exactly one sort stage — the
    /// barrier/sample channel exists only on sort-feeding stages.
    pub const XPORT_DANGLING: &str = "V-XPORT-001";
    /// Two edges of one query would claim the same transport endpoint
    /// name (exchange channels and sample channels must be disjoint).
    pub const XPORT_ENDPOINT: &str = "V-XPORT-002";
    /// A schedule plan is malformed: it sizes a different number of
    /// stages than the DAG, or a wait does not point at a lower-indexed
    /// stage (the waiter itself, a later stage, a stage outside the
    /// DAG) — the index order is what rules out wait cycles.
    pub const SCHED_SHAPE: &str = "V-SCHED-001";
    /// An overlapped (`Launched`) wait targets a producer whose output
    /// crosses a sort-sample barrier; the producer fleet synchronizes
    /// on samples from all members, so overlap is forbidden there.
    pub const SCHED_SORT_BARRIER: &str = "V-SCHED-002";
    /// A stage's waits do not cover one of its input edges, even
    /// transitively — the stage could launch before its producer has.
    pub const SCHED_UNCOVERED_EDGE: &str = "V-SCHED-003";
    /// `FinalStage::CarryAggState` disagrees with the last stage
    /// (terminal kind, schema width, or accumulator shapes) — the carried
    /// state would not merge with what workers report.
    pub const STREAM_FINAL: &str = "V-STREAM-001";
    /// A streaming plan's aggregate schema has no window key: the first
    /// group column must be the `Int64` window start (named
    /// [`crate::streaming::WINDOW_COLUMN`]), or watermark-driven emission
    /// cannot split closed windows off the carried state.
    pub const STREAM_WINDOW_KEY: &str = "V-STREAM-002";
    /// A window spec is malformed (non-positive size, slide outside
    /// `(0, size]`) or the allowed lateness is negative.
    pub const STREAM_SPEC: &str = "V-STREAM-003";
    /// A streaming plan contains a sort stage; per-batch sorted output is
    /// meaningless when results only materialize at window close, and the
    /// carry final stage has no row-shaped output to sort.
    pub const STREAM_POST: &str = "V-STREAM-004";
}

/// Largest fleet the cost model can legitimately size: every consumer
/// sizer in [`crate::costmodel::ComputeCostModel`] clamps to this, so an
/// unpinned fleet above it cannot have come from the model.
pub const MAX_MODEL_FLEET: usize = 256;

/// One verifier finding: a stable machine-checkable `code`, the stage it
/// anchors to (`None` for whole-plan findings such as final-stage
/// disagreement), and a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: &'static str,
    pub stage: Option<usize>,
    pub message: String,
}

impl Diagnostic {
    fn new(code: &'static str, stage: impl Into<Option<usize>>, message: String) -> Diagnostic {
        Diagnostic { code, stage: stage.into(), message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stage {
            Some(sid) => write!(f, "{} [stage {}]: {}", self.code, sid, self.message),
            None => write!(f, "{}: {}", self.code, self.message),
        }
    }
}

/// Fleet-sizing pins and bounds for [`verify_fleets`], derived from the
/// driver's installation config (`join_workers`, exchange-aggregate and
/// exchange-sort worker pins).
#[derive(Clone, Copy, Debug)]
pub struct FleetBounds {
    /// Pinned join fleet size, if the installation pins one.
    pub join_pin: Option<usize>,
    /// Pinned agg-merge fleet size.
    pub agg_pin: Option<usize>,
    /// Pinned sort fleet size.
    pub sort_pin: Option<usize>,
    /// Upper bound for unpinned, cost-model-sized consumer fleets.
    pub max_model_fleet: usize,
}

impl Default for FleetBounds {
    fn default() -> Self {
        FleetBounds {
            join_pin: None,
            agg_pin: None,
            sort_pin: None,
            max_model_fleet: MAX_MODEL_FLEET,
        }
    }
}

fn schemas_compatible(a: &Schema, b: &Schema) -> bool {
    // Positional type equality; names are presentation-only and renaming
    // through a projection is legal.
    a.len() == b.len() && a.fields.iter().zip(&b.fields).all(|(fa, fb)| fa.dtype == fb.dtype)
}

fn schema_types(s: &Schema) -> String {
    let names: Vec<&str> = s.fields.iter().map(|f| f.dtype.name()).collect();
    format!("[{}]", names.join(", "))
}

/// What role a consumer plays on an edge, for message text and kind checks.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ConsumerRole {
    JoinProbe,
    JoinBuild,
    AggInput,
    SortInput,
}

/// Type-check one scan/join pipeline in isolation: predicate, projection
/// and terminal expressions must resolve over their schemas, and the
/// terminal must be a planner terminal (the driver swaps in the sharding
/// runtime terminals at payload-build time).
fn check_pipeline(sid: usize, what: &str, p: &PipelineSpec, out: &mut Vec<Diagnostic>) {
    if let Some(pred) = &p.predicate {
        if let Err(e) = pred.data_type(&p.input_schema) {
            out.push(Diagnostic::new(
                codes::SCHEMA_PIPELINE,
                sid,
                format!("{what} predicate does not type-check: {e}"),
            ));
        }
    }
    if let Some(exprs) = &p.projection {
        for (i, (e, _)) in exprs.iter().enumerate() {
            if let Err(err) = e.data_type(&p.input_schema) {
                out.push(Diagnostic::new(
                    codes::SCHEMA_PIPELINE,
                    sid,
                    format!("{what} projection expr {i} does not type-check: {err}"),
                ));
            }
        }
    }
    let mid = match p.intermediate_schema() {
        Ok(m) => m,
        // Projection errors already reported above.
        Err(_) => return,
    };
    match &p.terminal {
        Terminal::Collect => {}
        Terminal::PartialAggregate { group_by, aggs } => {
            for (i, (e, _)) in group_by.iter().enumerate() {
                if let Err(err) = e.data_type(&mid) {
                    out.push(Diagnostic::new(
                        codes::SCHEMA_PIPELINE,
                        sid,
                        format!("{what} group-by expr {i} does not type-check: {err}"),
                    ));
                }
            }
            if let Err(err) = agg_func_types(aggs, &mid) {
                out.push(Diagnostic::new(
                    codes::SCHEMA_PIPELINE,
                    sid,
                    format!("{what} aggregate expressions do not type-check: {err}"),
                ));
            }
        }
        Terminal::SortPartition { keys, .. } => {
            for (i, k) in keys.iter().enumerate() {
                if let Err(err) = k.expr.data_type(&mid) {
                    out.push(Diagnostic::new(
                        codes::SCHEMA_PIPELINE,
                        sid,
                        format!("{what} local-sort key {i} does not type-check: {err}"),
                    ));
                }
            }
        }
        Terminal::HashPartition { .. }
        | Terminal::PartitionedAggregate { .. }
        | Terminal::Probe { .. } => {
            out.push(Diagnostic::new(
                codes::TERM_RUNTIME_ONLY,
                sid,
                format!(
                    "{what} carries runtime-only terminal {} in plan data; the driver \
                     installs sharding terminals at payload-build time",
                    terminal_name(&p.terminal)
                ),
            ));
        }
    }
}

fn terminal_name(t: &Terminal) -> &'static str {
    match t {
        Terminal::PartialAggregate { .. } => "PartialAggregate",
        Terminal::PartitionedAggregate { .. } => "PartitionedAggregate",
        Terminal::Collect => "Collect",
        Terminal::HashPartition { .. } => "HashPartition",
        Terminal::SortPartition { .. } => "SortPartition",
        Terminal::Probe { .. } => "Probe",
    }
}

fn output_name(o: &StageOutput) -> &'static str {
    match o {
        StageOutput::Driver => "Driver",
        StageOutput::Exchange { .. } => "Exchange",
        StageOutput::AggExchange => "AggExchange",
        StageOutput::SortExchange => "SortExchange",
    }
}

/// Structurally verify a [`QueryDag`] against the operator contracts.
/// Returns every violated invariant as a [`Diagnostic`]; an empty vector
/// means the plan is well-formed. Topology is checked first and returned
/// alone when broken — the later passes index into `stages` through the
/// edges and need the topological invariant to hold.
pub fn verify_dag(dag: &QueryDag) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Pass 1 — topology: inputs strictly precede consumers, and exactly
    // the last stage reports to the driver.
    if dag.stages.is_empty() {
        return vec![Diagnostic::new(codes::TOPO_ORDER, None, "plan has no stages".to_string())];
    }
    for (sid, kind) in dag.stages.iter().enumerate() {
        for input in kind.inputs() {
            if input >= sid {
                out.push(Diagnostic::new(
                    codes::TOPO_ORDER,
                    sid,
                    format!("stage {sid} consumes stage {input}: not topologically ordered"),
                ));
            }
        }
        let is_last = sid + 1 == dag.stages.len();
        if is_last != matches!(kind.output(), StageOutput::Driver) {
            out.push(Diagnostic::new(
                codes::TOPO_DRIVER,
                sid,
                format!(
                    "stage {sid} of {}: exactly the last stage must output to the driver \
                     (found {})",
                    dag.stages.len(),
                    output_name(kind.output()),
                ),
            ));
        }
    }
    if !out.is_empty() {
        return out;
    }

    // Pass 2 — per-stage pipelines type-check, and each stage's terminal
    // agrees with where its output goes.
    for (sid, kind) in dag.stages.iter().enumerate() {
        if let Some(p) = kind.pipeline() {
            let what = match kind {
                StageKind::Scan(_) => "scan pipeline",
                _ => "join post-pipeline",
            };
            check_pipeline(sid, what, p, &mut out);
            let terminal_ok = match kind.output() {
                // Driver-bound stages report batches or partial agg state.
                StageOutput::Driver => {
                    matches!(p.terminal, Terminal::Collect | Terminal::PartialAggregate { .. })
                }
                // Row exchanges carry the Collect placeholder (the driver
                // swaps in HashPartition once the consumer fleet is sized).
                StageOutput::Exchange { .. } => matches!(p.terminal, Terminal::Collect),
                StageOutput::AggExchange => {
                    matches!(p.terminal, Terminal::PartialAggregate { .. })
                }
                StageOutput::SortExchange => matches!(p.terminal, Terminal::SortPartition { .. }),
            };
            if !terminal_ok {
                out.push(Diagnostic::new(
                    codes::TERM_OUTPUT,
                    sid,
                    format!(
                        "terminal {} does not agree with output {}",
                        terminal_name(&p.terminal),
                        output_name(kind.output()),
                    ),
                ));
            }
        }
        if let StageKind::AggMerge(a) = kind {
            if !matches!(a.output, StageOutput::Driver | StageOutput::SortExchange) {
                out.push(Diagnostic::new(
                    codes::TERM_OUTPUT,
                    sid,
                    format!(
                        "agg-merge stage outputs {}; only Driver or SortExchange \
                         consume finalized groups",
                        output_name(&a.output),
                    ),
                ));
            }
        }
        if let StageKind::Join(j) = kind {
            // The post-pipeline's input is the variant's probe output.
            let mut fields = j.probe_schema.fields.clone();
            if j.variant.keeps_build_columns() {
                fields.extend(j.build_schema.fields.clone());
            }
            let expect = Schema::new(fields);
            if !schemas_compatible(&expect, &j.post.input_schema) {
                out.push(Diagnostic::new(
                    codes::SCHEMA_JOIN_POST,
                    sid,
                    format!(
                        "{} join post input schema {} does not match variant output {}",
                        j.variant.label(),
                        schema_types(&j.post.input_schema),
                        schema_types(&expect),
                    ),
                ));
            }
            // Key lists must pair up with equal types on both sides.
            if j.probe_keys.len() != j.build_keys.len() || j.probe_keys.is_empty() {
                out.push(Diagnostic::new(
                    codes::SCHEMA_KEY_TYPES,
                    sid,
                    format!(
                        "join keys must pair up nonempty: {} probe vs {} build",
                        j.probe_keys.len(),
                        j.build_keys.len(),
                    ),
                ));
            } else {
                for (i, (&pk, &bk)) in j.probe_keys.iter().zip(&j.build_keys).enumerate() {
                    let (pt, bt) =
                        match (j.probe_schema.fields.get(pk), j.build_schema.fields.get(bk)) {
                            (Some(p), Some(b)) => (p.dtype, b.dtype),
                            _ => {
                                out.push(Diagnostic::new(
                                    codes::SCHEMA_KEY_BOUNDS,
                                    sid,
                                    format!(
                                        "join key pair {i} ({pk}, {bk}) out of schema bounds \
                                     ({} probe, {} build columns)",
                                        j.probe_schema.len(),
                                        j.build_schema.len(),
                                    ),
                                ));
                                continue;
                            }
                        };
                    if pt != bt {
                        out.push(Diagnostic::new(
                            codes::SCHEMA_KEY_TYPES,
                            sid,
                            format!(
                                "join key pair {i} types disagree: probe {} vs build {}",
                                pt.name(),
                                bt.name(),
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Pass 3 — edges: walk every producer's consumer set and check the
    // exchange contract (output kind, schema flow, key agreement).
    let edge: Vec<Option<SchemaRef>> = dag.stages.iter().map(StageKind::edge_schema).collect();
    let mut consumers: Vec<Vec<(usize, ConsumerRole)>> = vec![Vec::new(); dag.stages.len()];
    for (sid, kind) in dag.stages.iter().enumerate() {
        match kind {
            StageKind::Scan(_) => {}
            StageKind::Join(j) => {
                consumers[j.probe_input].push((sid, ConsumerRole::JoinProbe));
                consumers[j.build_input].push((sid, ConsumerRole::JoinBuild));
            }
            StageKind::AggMerge(a) => consumers[a.input].push((sid, ConsumerRole::AggInput)),
            StageKind::Sort(s) => consumers[s.input].push((sid, ConsumerRole::SortInput)),
        }
    }

    for (pid, kind) in dag.stages.iter().enumerate() {
        let fed = &consumers[pid];
        let expected_role = match kind.output() {
            StageOutput::Driver => None,
            StageOutput::Exchange { .. } => Some("a join stage"),
            StageOutput::AggExchange => Some("an agg-merge stage"),
            StageOutput::SortExchange => Some("a sort stage"),
        };
        if expected_role.is_some() && fed.is_empty() {
            out.push(Diagnostic::new(
                codes::XPORT_DANGLING,
                pid,
                format!("stage outputs {} but no stage consumes it", output_name(kind.output())),
            ));
            continue;
        }
        for &(cid, role) in fed {
            let kind_ok = matches!(
                (kind.output(), role),
                (StageOutput::Exchange { .. }, ConsumerRole::JoinProbe | ConsumerRole::JoinBuild)
                    | (StageOutput::AggExchange, ConsumerRole::AggInput)
                    | (StageOutput::SortExchange, ConsumerRole::SortInput)
            );
            if !kind_ok {
                out.push(Diagnostic::new(
                    codes::EXCH_KIND,
                    pid,
                    format!(
                        "stage outputs {} but stage {cid} consumes it as {:?}; expected {}",
                        output_name(kind.output()),
                        role,
                        expected_role.unwrap_or("no consumer (driver output)"),
                    ),
                ));
                continue;
            }
            let Some(produced) = edge[pid].as_ref() else {
                // Pipeline failed to type-check; already reported.
                continue;
            };
            match (&dag.stages[cid], role) {
                (StageKind::Join(j), ConsumerRole::JoinProbe | ConsumerRole::JoinBuild) => {
                    let (declared, keys, side) = if role == ConsumerRole::JoinProbe {
                        (&j.probe_schema, &j.probe_keys, "probe")
                    } else {
                        (&j.build_schema, &j.build_keys, "build")
                    };
                    if !schemas_compatible(produced, declared) {
                        out.push(Diagnostic::new(
                            codes::SCHEMA_EDGE,
                            cid,
                            format!(
                                "{side} schema {} of join stage {cid} does not match \
                                 producer stage {pid} edge rows {}",
                                schema_types(declared),
                                schema_types(produced),
                            ),
                        ));
                    }
                    // The producer shards on exactly the columns this
                    // side co-partitions on, or worker p of the join
                    // fleet does not own co-partition p of this input.
                    if let StageOutput::Exchange { keys: produced_keys } = kind.output() {
                        if produced_keys != keys {
                            out.push(Diagnostic::new(
                                codes::EXCH_KEYS,
                                pid,
                                format!(
                                    "producer shards on columns {:?} but join stage {cid} \
                                     co-partitions its {side} side on {:?}",
                                    produced_keys, keys,
                                ),
                            ));
                        }
                        if let Some(&bad) = produced_keys.iter().find(|&&k| k >= produced.len()) {
                            out.push(Diagnostic::new(
                                codes::SCHEMA_KEY_BOUNDS,
                                pid,
                                format!(
                                    "partition key column {bad} out of bounds for edge rows {}",
                                    schema_types(produced),
                                ),
                            ));
                        }
                    }
                }
                (StageKind::AggMerge(a), ConsumerRole::AggInput) => {
                    // The producer's PartialAggregate terminal determines
                    // the group/accumulator shapes the merge fleet owns.
                    let Some(pp) = kind.pipeline() else {
                        out.push(Diagnostic::new(
                            codes::EXCH_KIND,
                            pid,
                            format!(
                                "agg-merge stage {cid} consumes a {} stage; only scan/join \
                                 stages produce partial aggregate state",
                                kind.label(pid),
                            ),
                        ));
                        continue;
                    };
                    let Terminal::PartialAggregate { group_by, aggs } = &pp.terminal else {
                        // Reported as V-TERM-001 in pass 2.
                        continue;
                    };
                    if a.agg_schema.len() != group_by.len() + aggs.len() {
                        out.push(Diagnostic::new(
                            codes::SCHEMA_AGG,
                            cid,
                            format!(
                                "agg schema has {} columns but the producer groups by {} \
                                 keys with {} aggregates",
                                a.agg_schema.len(),
                                group_by.len(),
                                aggs.len(),
                            ),
                        ));
                        continue;
                    }
                    if let Ok(mid) = pp.intermediate_schema() {
                        for (i, (e, _)) in group_by.iter().enumerate() {
                            if let Ok(t) = e.data_type(&mid) {
                                if t != a.agg_schema.field(i).dtype {
                                    out.push(Diagnostic::new(
                                        codes::SCHEMA_AGG,
                                        cid,
                                        format!(
                                            "group key {i} is {} in the producer but {} in \
                                             the agg schema",
                                            t.name(),
                                            a.agg_schema.field(i).dtype.name(),
                                        ),
                                    ));
                                }
                            }
                        }
                        if let Ok(funcs) = agg_func_types(aggs, &mid) {
                            if funcs != a.funcs {
                                out.push(Diagnostic::new(
                                    codes::SCHEMA_AGG,
                                    cid,
                                    format!(
                                        "accumulator shapes {:?} do not match the \
                                         producer's aggregates {:?}",
                                        a.funcs, funcs,
                                    ),
                                ));
                            }
                        }
                    }
                }
                (StageKind::Sort(s), ConsumerRole::SortInput) => {
                    if !schemas_compatible(produced, &s.schema) {
                        out.push(Diagnostic::new(
                            codes::SCHEMA_EDGE,
                            cid,
                            format!(
                                "sort stage edge schema {} does not match producer stage \
                                 {pid} edge rows {}",
                                schema_types(&s.schema),
                                schema_types(produced),
                            ),
                        ));
                    }
                    for (i, k) in s.keys.iter().enumerate() {
                        if let Err(err) = k.expr.data_type(&s.schema) {
                            out.push(Diagnostic::new(
                                codes::SCHEMA_SORT_KEY,
                                cid,
                                format!(
                                    "sort key {i} does not resolve over the edge schema: {err}"
                                ),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
        // A run is range-partitioned by exactly one boundary set, so a
        // producer feeds at most one sort stage (one sample channel).
        let sort_consumers = fed.iter().filter(|(_, r)| *r == ConsumerRole::SortInput).count();
        if sort_consumers > 1 {
            out.push(Diagnostic::new(
                codes::EXCH_SORT_FANOUT,
                pid,
                format!(
                    "stage feeds {sort_consumers} sort stages; a sort edge carries exactly \
                     one boundary set"
                ),
            ));
        }
    }

    // Pass 4 — final stage agrees with what the last stage reports.
    let last_id = dag.stages.len() - 1;
    let last = &dag.stages[last_id];
    match &dag.final_stage {
        FinalStage::MergeAggregate { agg_schema, funcs, .. } => {
            match last.pipeline().map(|p| (&p.terminal, p)) {
                Some((Terminal::PartialAggregate { group_by, aggs }, p)) => {
                    if agg_schema.len() != group_by.len() + aggs.len() {
                        out.push(Diagnostic::new(
                            codes::FINAL_MERGE_AGG,
                            None,
                            format!(
                                "final agg schema has {} columns but the last stage groups \
                                 by {} keys with {} aggregates",
                                agg_schema.len(),
                                group_by.len(),
                                aggs.len(),
                            ),
                        ));
                    } else if let Ok(mid) = p.intermediate_schema() {
                        if let Ok(expect) = agg_func_types(aggs, &mid) {
                            if &expect != funcs {
                                out.push(Diagnostic::new(
                                    codes::FINAL_MERGE_AGG,
                                    None,
                                    format!(
                                        "final accumulator shapes {funcs:?} do not match \
                                         the last stage's aggregates {expect:?}",
                                    ),
                                ));
                            }
                        }
                    }
                }
                _ => out.push(Diagnostic::new(
                    codes::FINAL_MERGE_AGG,
                    None,
                    format!(
                        "MergeAggregate final stage needs a scan/join last stage with a \
                         PartialAggregate terminal; found {}",
                        last.label(last_id),
                    ),
                )),
            }
        }
        FinalStage::CarryAggState { agg_schema, funcs } => {
            // The carried state must merge with what the last stage
            // reports: same agreement rules as MergeAggregate, except an
            // agg-merge last stage is also legal (its workers re-emit
            // unfinalized state when the final stage carries).
            match last {
                StageKind::AggMerge(a) => {
                    if !schemas_compatible(&a.agg_schema, agg_schema) || &a.funcs != funcs {
                        out.push(Diagnostic::new(
                            codes::STREAM_FINAL,
                            None,
                            format!(
                                "CarryAggState disagrees with the agg-merge last stage: \
                                 schema {} vs {}, funcs {funcs:?} vs {:?}",
                                schema_types(agg_schema),
                                schema_types(&a.agg_schema),
                                a.funcs,
                            ),
                        ));
                    }
                }
                _ => match last.pipeline().map(|p| (&p.terminal, p)) {
                    Some((Terminal::PartialAggregate { group_by, aggs }, p)) => {
                        if agg_schema.len() != group_by.len() + aggs.len() {
                            out.push(Diagnostic::new(
                                codes::STREAM_FINAL,
                                None,
                                format!(
                                    "carried agg schema has {} columns but the last stage \
                                     groups by {} keys with {} aggregates",
                                    agg_schema.len(),
                                    group_by.len(),
                                    aggs.len(),
                                ),
                            ));
                        } else if let Ok(mid) = p.intermediate_schema() {
                            if let Ok(expect) = agg_func_types(aggs, &mid) {
                                if &expect != funcs {
                                    out.push(Diagnostic::new(
                                        codes::STREAM_FINAL,
                                        None,
                                        format!(
                                            "carried accumulator shapes {funcs:?} do not \
                                             match the last stage's aggregates {expect:?}",
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    _ => out.push(Diagnostic::new(
                        codes::STREAM_FINAL,
                        None,
                        format!(
                            "CarryAggState final stage needs an agg-merge last stage or a \
                             scan/join last stage with a PartialAggregate terminal; found {}",
                            last.label(last_id),
                        ),
                    )),
                },
            }
        }
        FinalStage::CollectBatches { schema, .. } => {
            let reported = match last.pipeline() {
                Some(p) if !matches!(p.terminal, Terminal::Collect) => None,
                _ => last.edge_schema(),
            };
            match reported {
                Some(got) if schemas_compatible(&got, schema) => {}
                Some(got) => out.push(Diagnostic::new(
                    codes::FINAL_COLLECT,
                    None,
                    format!(
                        "CollectBatches schema {} does not match the last stage's output {}",
                        schema_types(schema),
                        schema_types(&got),
                    ),
                )),
                // Terminal mismatch already reported as V-TERM-001; a
                // PartialAggregate last stage under CollectBatches is
                // still a final-stage disagreement worth naming.
                None => out.push(Diagnostic::new(
                    codes::FINAL_COLLECT,
                    None,
                    format!(
                        "CollectBatches final stage but the last stage ({}) does not \
                         report batches",
                        last.label(last_id),
                    ),
                )),
            }
        }
    }

    out
}

/// Verify the streaming-specific contracts of a per-micro-batch DAG:
/// the plan must end in [`FinalStage::CarryAggState`] with the window
/// start leading the group key (V-STREAM-001/002), the window spec and
/// allowed lateness must be well-formed (V-STREAM-003), and no sort
/// stage may appear (V-STREAM-004). [`crate::streaming::ContinuousQuery`]
/// runs this at construction, alongside [`verify_dag`], before the first
/// batch is admitted.
pub fn verify_stream(
    dag: &QueryDag,
    window: &lambada_engine::WindowSpec,
    lateness: i64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Err(e) = window.validate() {
        out.push(Diagnostic::new(codes::STREAM_SPEC, None, format!("invalid window spec: {e}")));
    }
    if lateness < 0 {
        out.push(Diagnostic::new(
            codes::STREAM_SPEC,
            None,
            format!("allowed lateness must be non-negative, got {lateness}"),
        ));
    }
    for (sid, kind) in dag.stages.iter().enumerate() {
        if matches!(kind, StageKind::Sort(_)) {
            out.push(Diagnostic::new(
                codes::STREAM_POST,
                sid,
                "sort stage in a streaming plan; results only materialize at window close"
                    .to_string(),
            ));
        }
    }
    match &dag.final_stage {
        FinalStage::CarryAggState { agg_schema, funcs } => {
            let num_keys = agg_schema.len().saturating_sub(funcs.len());
            if num_keys == 0 {
                out.push(Diagnostic::new(
                    codes::STREAM_WINDOW_KEY,
                    None,
                    "streaming aggregate has no group keys; the window start must lead the key"
                        .to_string(),
                ));
            } else if agg_schema.field(0).dtype != lambada_engine::DataType::Int64
                || agg_schema.field(0).name != crate::streaming::WINDOW_COLUMN
            {
                out.push(Diagnostic::new(
                    codes::STREAM_WINDOW_KEY,
                    None,
                    format!(
                        "first group column must be the Int64 window start `{}`, got `{}` ({})",
                        crate::streaming::WINDOW_COLUMN,
                        agg_schema.field(0).name,
                        agg_schema.field(0).dtype
                    ),
                ));
            }
        }
        _ => out.push(Diagnostic::new(
            codes::STREAM_FINAL,
            None,
            "streaming plan must end in a CarryAggState final stage".to_string(),
        )),
    }
    out
}

/// Verify a concrete fleet plan for an already-structurally-valid DAG:
/// one worker count per stage, every fleet nonzero, unpinned consumer
/// fleets within the cost model's bound, pins respected, shared edges
/// with equal consumer fleets, and the query's transport endpoint
/// namespace collision-free. Call only after [`verify_dag`] came back
/// empty — this pass indexes through the edges.
pub fn verify_fleets(dag: &QueryDag, fleets: &[usize], bounds: &FleetBounds) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if fleets.len() != dag.stages.len() {
        return vec![Diagnostic::new(
            codes::FLEET_ZERO,
            None,
            format!(
                "fleet plan sizes {} stages but the DAG has {}",
                fleets.len(),
                dag.stages.len()
            ),
        )];
    }
    for (sid, (kind, &w)) in dag.stages.iter().zip(fleets).enumerate() {
        if w == 0 {
            // A scan over an empty table legitimately launches no
            // workers; consumer fleets double as partition counts and
            // must be nonzero (the model and the pins both clamp to 1).
            if !matches!(kind, StageKind::Scan(_)) {
                out.push(Diagnostic::new(
                    codes::FLEET_ZERO,
                    sid,
                    "zero-worker consumer fleet; its size is the edge partition count".to_string(),
                ));
            }
            continue;
        }
        let pin = match kind {
            StageKind::Scan(_) => None,
            StageKind::Join(_) => bounds.join_pin,
            StageKind::AggMerge(_) => bounds.agg_pin,
            StageKind::Sort(_) => bounds.sort_pin,
        };
        match (pin, kind) {
            (Some(p), _) => {
                if w != p.max(1) {
                    out.push(Diagnostic::new(
                        codes::FLEET_PIN,
                        sid,
                        format!("fleet sized {w} but the installation pins {} workers", p.max(1)),
                    ));
                }
            }
            // Scan fleets follow the file layout, not the consumer
            // sizers; consumers without a pin must come from the model.
            (None, StageKind::Scan(_)) => {}
            (None, _) => {
                if w > bounds.max_model_fleet {
                    out.push(Diagnostic::new(
                        codes::FLEET_MODEL_BOUND,
                        sid,
                        format!(
                            "unpinned fleet sized {w} exceeds the cost model bound of {}",
                            bounds.max_model_fleet,
                        ),
                    ));
                }
            }
        }
    }

    // Shared edges: every consumer of one producer reads the same
    // partitioned edge, so their fleets (the partition count) must agree.
    let mut consumer_fleet: Vec<Option<(usize, usize)>> = vec![None; dag.stages.len()];
    for (sid, kind) in dag.stages.iter().enumerate() {
        for input in kind.inputs() {
            let w = fleets[sid];
            match consumer_fleet[input] {
                Some((other, ow)) if ow != w => out.push(Diagnostic::new(
                    codes::FLEET_SHARED_EDGE,
                    input,
                    format!(
                        "shared edge partitioned {ow} ways for stage {other} but {w} ways \
                         for stage {sid}; consumer fleets must agree",
                    ),
                )),
                Some(_) => {}
                None => consumer_fleet[input] = Some((sid, w)),
            }
        }
    }

    // Endpoint namespace: within one query, every exchange receiver
    // endpoint (`s{sid}/r{p}`) and sample endpoint (`s{sid}smp/r0`) must
    // be unique — the direct transport's rendezvous registrations and the
    // object-store fallback keys both key on these names.
    let mut endpoints: HashSet<String> = HashSet::new();
    for (sid, kind) in dag.stages.iter().enumerate() {
        if let Some((_, parts)) = consumer_fleet[sid] {
            for r in 0..parts {
                let ep = format!("s{sid}/r{r}");
                if !endpoints.insert(ep.clone()) {
                    out.push(Diagnostic::new(
                        codes::XPORT_ENDPOINT,
                        sid,
                        format!("duplicate transport endpoint {ep}"),
                    ));
                }
            }
        }
        if matches!(kind.output(), StageOutput::SortExchange) {
            let ep = format!("s{sid}smp/r0");
            if !endpoints.insert(ep.clone()) {
                out.push(Diagnostic::new(
                    codes::XPORT_ENDPOINT,
                    sid,
                    format!("duplicate sample endpoint {ep}"),
                ));
            }
        }
    }

    out
}

/// Verify a launch plan for an already-structurally-valid DAG: one wait
/// list per stage; every wait on a *lower-indexed* stage of the DAG
/// (stages are topologically numbered and a plan waits on inputs only,
/// so index order is the deadlock-freedom argument: the wait graph
/// cannot hold a cycle); no overlapped launch across a sort-sample
/// barrier; and every input edge covered by a wait — directly or
/// transitively (a wait on `p` covers everything `p` itself waited on,
/// since `p` could not have launched earlier). Call only after
/// [`verify_dag`] came back empty.
pub fn verify_schedule(dag: &QueryDag, plan: &SchedulePlan) -> Vec<Diagnostic> {
    let n = dag.stages.len();
    let mut out = Vec::new();
    if plan.waits.len() != n {
        return vec![Diagnostic::new(
            codes::SCHED_SHAPE,
            None,
            format!("schedule plans {} stages but the DAG has {}", plan.waits.len(), n),
        )];
    }
    // launch_known[sid]: stages guaranteed to have launched before sid
    // does, closed under the waits' own coverage. Waits point backward,
    // so index order has every awaited stage resolved already.
    let mut launch_known: Vec<HashSet<usize>> = Vec::with_capacity(n);
    for (sid, waits) in plan.waits.iter().enumerate() {
        let mut known: HashSet<usize> = HashSet::new();
        for w in waits {
            let p = w.stage();
            if p >= sid {
                out.push(Diagnostic::new(
                    codes::SCHED_SHAPE,
                    sid,
                    format!("wait on stage {p}; a stage may wait on lower-indexed stages only"),
                ));
                continue;
            }
            if matches!(w, WaitEvent::Launched(_))
                && matches!(dag.stages[p].output(), StageOutput::SortExchange)
            {
                out.push(Diagnostic::new(
                    codes::SCHED_SORT_BARRIER,
                    sid,
                    format!(
                        "overlapped launch across stage {p}'s sort-sample barrier; \
                         sort edges require completion waits"
                    ),
                ));
            }
            known.insert(p);
            known.extend(launch_known[p].iter().copied());
        }
        for input in dag.stages[sid].inputs() {
            if !known.contains(&input) {
                out.push(Diagnostic::new(
                    codes::SCHED_UNCOVERED_EDGE,
                    sid,
                    format!(
                        "input stage {input} is not covered by any wait; the stage \
                         could launch before its producer"
                    ),
                ));
            }
        }
        launch_known.push(known);
    }
    out
}

/// Shared test-only DAG builders: small, verify-clean plans both the
/// verifier and the scheduler unit tests exercise.
#[cfg(test)]
pub(crate) mod test_dags {
    use lambada_engine::pipeline::{PipelineSpec, Terminal};
    use lambada_engine::types::{DataType, Field, Schema, SchemaRef};
    use lambada_engine::{Expr, JoinVariant, SortKey};

    use crate::stage::{
        FinalStage, JoinStage, QueryDag, ScanStage, SortStage, StageKind, StageOutput,
    };

    pub(crate) fn schema(n: usize) -> SchemaRef {
        Schema::arc((0..n).map(|i| Field::new(format!("c{i}"), DataType::Int64)).collect())
    }

    pub(crate) fn collect_scan(output: StageOutput) -> StageKind {
        StageKind::Scan(ScanStage {
            table: "t".to_string(),
            scan_columns: vec![0, 1],
            prune_predicate: None,
            pipeline: PipelineSpec {
                input_schema: schema(2),
                predicate: None,
                projection: None,
                terminal: Terminal::Collect,
            },
            output,
        })
    }

    /// An inner join over two 2-column edges, projected back down to 2
    /// columns so joins compose into chains with uniform edge schemas.
    pub(crate) fn join_stage(probe: usize, build: usize, output: StageOutput) -> StageKind {
        StageKind::Join(JoinStage {
            probe_input: probe,
            build_input: build,
            probe_schema: schema(2),
            build_schema: schema(2),
            probe_keys: vec![0],
            build_keys: vec![0],
            variant: JoinVariant::Inner,
            post: PipelineSpec {
                input_schema: schema(4),
                predicate: None,
                projection: Some(vec![
                    (Expr::Col(0), "c0".to_string()),
                    (Expr::Col(1), "c1".to_string()),
                ]),
                terminal: Terminal::Collect,
            },
            output,
        })
    }

    pub(crate) fn single_scan_dag() -> QueryDag {
        QueryDag {
            stages: vec![collect_scan(StageOutput::Driver)],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        }
    }

    pub(crate) fn scan_sort_dag() -> QueryDag {
        let mut scan = collect_scan(StageOutput::SortExchange);
        if let StageKind::Scan(s) = &mut scan {
            s.pipeline.terminal =
                Terminal::SortPartition { keys: vec![SortKey::asc(Expr::Col(0))], limit: None };
        }
        QueryDag {
            stages: vec![
                scan,
                StageKind::Sort(SortStage {
                    input: 0,
                    schema: schema(2),
                    keys: vec![SortKey::asc(Expr::Col(0))],
                    limit: None,
                }),
            ],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        }
    }

    pub(crate) fn two_scan_join_dag() -> QueryDag {
        QueryDag {
            stages: vec![
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                join_stage(0, 1, StageOutput::Driver),
            ],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        }
    }

    /// Diamond: scan 0 feeds joins 1 and 2, which join 3 fans back in.
    pub(crate) fn diamond_dag() -> QueryDag {
        QueryDag {
            stages: vec![
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                join_stage(0, 0, StageOutput::Exchange { keys: vec![0] }),
                join_stage(0, 0, StageOutput::Exchange { keys: vec![0] }),
                join_stage(1, 2, StageOutput::Driver),
            ],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        }
    }

    /// Two level-0 scans, a join over scan 0 at level 1, and a final
    /// join at level 2 consuming the level-1 join plus level-0 scan 1 —
    /// the unbalanced shape where waves and eager scheduling differ.
    pub(crate) fn unbalanced_join_dag() -> QueryDag {
        QueryDag {
            stages: vec![
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                join_stage(0, 0, StageOutput::Exchange { keys: vec![0] }),
                join_stage(2, 1, StageOutput::Driver),
            ],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_dags::{
        collect_scan, scan_sort_dag, schema, single_scan_dag, two_scan_join_dag,
        unbalanced_join_dag,
    };
    use super::*;
    use crate::costmodel::ComputeCostModel;
    use crate::sched::{plan_schedule, SchedMode};
    use lambada_engine::Expr;

    #[test]
    fn trivial_scan_verifies_clean() {
        assert!(verify_dag(&single_scan_dag()).is_empty());
        assert!(verify_fleets(&single_scan_dag(), &[3], &FleetBounds::default()).is_empty());
    }

    #[test]
    fn empty_dag_is_rejected() {
        let dag = QueryDag {
            stages: Vec::new(),
            final_stage: FinalStage::CollectBatches { schema: schema(1), post: Vec::new() },
        };
        let diags = verify_dag(&dag);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::TOPO_ORDER);
    }

    #[test]
    fn collect_schema_mismatch_is_final_collect() {
        let mut dag = single_scan_dag();
        dag.final_stage = FinalStage::CollectBatches { schema: schema(3), post: Vec::new() };
        let diags = verify_dag(&dag);
        assert!(diags.iter().any(|d| d.code == codes::FINAL_COLLECT), "{diags:?}");
    }

    #[test]
    fn dangling_exchange_is_flagged() {
        let dag = QueryDag {
            stages: vec![
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                collect_scan(StageOutput::Driver),
            ],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        };
        let diags = verify_dag(&dag);
        assert!(diags.iter().any(|d| d.code == codes::XPORT_DANGLING), "{diags:?}");
    }

    #[test]
    fn runtime_terminal_in_plan_data_is_flagged() {
        let mut dag = single_scan_dag();
        if let StageKind::Scan(s) = &mut dag.stages[0] {
            s.pipeline.terminal = Terminal::HashPartition { keys: vec![0], partitions: 4 };
        }
        let diags = verify_dag(&dag);
        assert!(diags.iter().any(|d| d.code == codes::TERM_RUNTIME_ONLY), "{diags:?}");
        assert!(diags.iter().any(|d| d.code == codes::TERM_OUTPUT), "{diags:?}");
    }

    #[test]
    fn bad_projection_is_schema_pipeline() {
        let mut dag = single_scan_dag();
        if let StageKind::Scan(s) = &mut dag.stages[0] {
            s.pipeline.projection = Some(vec![(Expr::Col(7), "x".to_string())]);
        }
        let diags = verify_dag(&dag);
        assert!(diags.iter().any(|d| d.code == codes::SCHEMA_PIPELINE), "{diags:?}");
    }

    #[test]
    fn fleet_checks_catch_zero_pin_and_bound() {
        let dag = scan_sort_dag();
        let diags = verify_fleets(&dag, &[1, 0], &FleetBounds::default());
        assert!(diags.iter().any(|d| d.code == codes::FLEET_ZERO), "{diags:?}");
        // An empty scan legitimately launches no workers.
        assert!(verify_fleets(&dag, &[0, 2], &FleetBounds::default()).is_empty());
        let diags = verify_fleets(&dag, &[1], &FleetBounds::default());
        assert!(diags.iter().any(|d| d.code == codes::FLEET_ZERO), "{diags:?}");
        let bounds = FleetBounds { sort_pin: Some(4), ..FleetBounds::default() };
        let diags = verify_fleets(&dag, &[1, 2], &bounds);
        assert!(diags.iter().any(|d| d.code == codes::FLEET_PIN), "{diags:?}");
        let diags = verify_fleets(&dag, &[1, 500], &FleetBounds::default());
        assert!(diags.iter().any(|d| d.code == codes::FLEET_MODEL_BOUND), "{diags:?}");
    }

    #[test]
    fn diagnostic_display_carries_stage() {
        let d = Diagnostic::new(codes::FLEET_ZERO, 3, "zero-worker fleet".to_string());
        assert_eq!(d.to_string(), "V-FLEET-001 [stage 3]: zero-worker fleet");
        let d = Diagnostic::new(codes::FINAL_COLLECT, None, "mismatch".to_string());
        assert_eq!(d.to_string(), "V-FINAL-002: mismatch");
    }

    #[test]
    fn planner_schedules_verify_clean_in_every_mode() {
        let costs = ComputeCostModel::default();
        for dag in [two_scan_join_dag(), scan_sort_dag(), unbalanced_join_dag()] {
            let diags = verify_dag(&dag);
            assert!(diags.is_empty(), "{diags:?}");
            for mode in [SchedMode::Eager, SchedMode::Overlap] {
                let est = vec![1 << 20; dag.stages.len()];
                let workers = vec![2; dag.stages.len()];
                let plan = plan_schedule(&dag, &costs, mode, &est, &workers);
                assert!(verify_schedule(&dag, &plan).is_empty(), "{mode:?}");
            }
        }
    }

    #[test]
    fn schedule_shape_errors_are_sched_001() {
        let dag = two_scan_join_dag();
        let plan = SchedulePlan { mode: SchedMode::Eager, waits: vec![Vec::new()] };
        let diags = verify_schedule(&dag, &plan);
        assert!(diags.iter().all(|d| d.code == codes::SCHED_SHAPE), "{diags:?}");
        assert_eq!(diags.len(), 1);
        // A wait pointing at the waiter itself is rejected.
        let plan = SchedulePlan {
            mode: SchedMode::Eager,
            waits: vec![
                vec![WaitEvent::Completed(0)],
                Vec::new(),
                vec![WaitEvent::Completed(0), WaitEvent::Completed(1)],
            ],
        };
        let diags = verify_schedule(&dag, &plan);
        assert!(diags.iter().any(|d| d.code == codes::SCHED_SHAPE), "{diags:?}");
        // So is a forward wait, on its own or as half of a cycle: only
        // the stage that points forward is flagged, once.
        let plan = SchedulePlan {
            mode: SchedMode::Overlap,
            waits: vec![
                vec![WaitEvent::Launched(1)],
                vec![WaitEvent::Launched(0)],
                vec![WaitEvent::Completed(0), WaitEvent::Completed(1), WaitEvent::Completed(9)],
            ],
        };
        let diags = verify_schedule(&dag, &plan);
        assert!(diags.iter().all(|d| d.code == codes::SCHED_SHAPE), "{diags:?}");
        assert_eq!(diags.iter().map(|d| d.stage).collect::<Vec<_>>(), vec![Some(0), Some(2)]);
    }

    #[test]
    fn overlap_across_a_sort_barrier_is_sched_002() {
        let dag = scan_sort_dag();
        let plan = SchedulePlan {
            mode: SchedMode::Overlap,
            waits: vec![Vec::new(), vec![WaitEvent::Launched(0)]],
        };
        let diags = verify_schedule(&dag, &plan);
        assert!(diags.iter().any(|d| d.code == codes::SCHED_SORT_BARRIER), "{diags:?}");
        // The same wait as a completion is fine.
        let plan = SchedulePlan {
            mode: SchedMode::Overlap,
            waits: vec![Vec::new(), vec![WaitEvent::Completed(0)]],
        };
        assert!(verify_schedule(&dag, &plan).is_empty());
    }

    #[test]
    fn uncovered_input_edge_is_sched_003_and_coverage_is_transitive() {
        let dag = two_scan_join_dag();
        let plan = SchedulePlan {
            mode: SchedMode::Eager,
            waits: vec![Vec::new(), Vec::new(), vec![WaitEvent::Completed(0)]],
        };
        let diags = verify_schedule(&dag, &plan);
        assert!(diags.iter().any(|d| d.code == codes::SCHED_UNCOVERED_EDGE), "{diags:?}");
        // A plan where stage 3 covers its level-0 input only
        // transitively (3 waits on 2, which waits on 0 and 1) must be
        // accepted: a wait on `p` carries everything `p` waited on.
        let dag = unbalanced_join_dag();
        let plan = SchedulePlan {
            mode: SchedMode::Eager,
            waits: vec![
                Vec::new(),
                Vec::new(),
                vec![WaitEvent::Completed(0), WaitEvent::Completed(1)],
                vec![WaitEvent::Completed(2)],
            ],
        };
        assert!(verify_schedule(&dag, &plan).is_empty());
    }
}
