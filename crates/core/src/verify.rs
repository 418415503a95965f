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
//! Every pass reads the DAG's one derived [`EdgeTable`]
//! ([`QueryDag::edges`]): per producer what it emits and who reads it —
//! consumer stages and, on the last stage, the driver's final stage. The
//! pass is split in three because the information arrives in steps:
//!
//! * [`verify_dag`] checks everything the plan data itself determines —
//!   topology, each stage's own pipeline and keys, and then one walk over
//!   every reader of every edge with one "emitted vs. declared"
//!   comparison: the diagnostic code is chosen by the reader (a join
//!   side or sort edge, an agg-merge fleet, or one of the three final
//!   stages), the comparison is the same;
//! * [`verify_fleets`] checks the sizing the planner computes per
//!   execution — nonzero fleets, cost-model bounds, pinned fleets
//!   respected, shared edges with equal consumer fleets (the partition
//!   count of an edge *is* its consumer's fleet size) —
//!   [`verify_fused`] that every fused edge is a 1 → 1 host edge, one
//!   host to a consumer, and every co-hosted stage a one-worker scan
//!   whose one reader has a host, and [`verify_payloads`] that every
//!   invocation of the wired plan fits the platform's caps.
//!
//! The scheduler needs no check of its own: a stage waits for exactly
//! its inputs, which the topological-order check already holds to
//! lower-indexed stages, so the wait graph cannot hold a cycle.
//!
//! Every finding is a typed [`Diagnostic`] with a stable code (table in
//! `docs/VERIFIER.md`); callers collect all of them rather than stopping
//! at the first, so a broken planner change surfaces every violated
//! contract in one run.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::fmt;

use lambada_engine::pipeline::{agg_func_types, PipelineSpec, Terminal};
use lambada_engine::types::Schema;

use crate::message::{INLINE_EDGE_BYTES, SECTION_BYTES};
use crate::plan::{LaunchPlan, Placement};
use crate::stage::{
    Declares, EdgeTable, Emits, FinalStage, QueryDag, Reader, ReaderRole, StageKind, StageOutput,
};
use crate::transport::{ADDRESS_BYTES, KEY_BYTES};

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
    /// A producer feeds more than one sort stage: its blocks are
    /// addressed under exactly one boundary set.
    pub const EXCH_SORT_FANOUT: &str = "V-EXCH-003";
    /// A stage's `StageOutput` disagrees with its pipeline terminal
    /// (e.g. `AggExchange` without `PartialAggregate`).
    pub const TERM_OUTPUT: &str = "V-TERM-001";
    /// A runtime-only terminal (`HashPartition`, `PartitionedAggregate`,
    /// `Probe`) appears in plan data; the driver swaps those in at
    /// payload-build time, they never live in a [`super::QueryDag`].
    pub const TERM_RUNTIME_ONLY: &str = "V-TERM-002";
    /// `FinalStage::MergeAggregate` disagrees with the last stage
    /// (terminal kind, schema width, group-key types, or accumulator
    /// shapes).
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
    /// A fused edge is no host edge: its producer or consumer fleet is
    /// not one worker, it has another reader (or the driver reads it), or
    /// its consumer already runs in another host — the consumer could not
    /// run inside the producer's invocation on the producer's parts — or
    /// its consumer waits for other in-edges than exactly one, which its
    /// inbox could not tell apart.
    pub const FLEET_FUSED: &str = "V-FLEET-005";
    /// An invocation of the plan could overrun the platform's caps: a
    /// chain head's largest tree group of payloads — its inline files,
    /// addresses and boundaries, and every sender's inline share — is
    /// past Lambda's asynchronous invoke cap, or a sender's inline share
    /// and section table are past what its result message holds for them.
    pub const FLEET_PAYLOAD: &str = "V-FLEET-006";
    /// A non-driver output edge has no consumer (dangling exchange), or
    /// a sort edge's consumer set is not exactly one sort stage — a run
    /// cut into blocks means something only to one sort fleet.
    pub const XPORT_DANGLING: &str = "V-XPORT-001";
    /// `FinalStage::CarryAggState` disagrees with the last stage
    /// (terminal kind, schema width, group-key types, or accumulator
    /// shapes) — the carried state would not merge with what workers
    /// report.
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

/// Largest fleet the cost model can legitimately size: the consumer
/// sizer [`crate::costmodel::ComputeCostModel::consumer_workers`] clamps
/// to this, so an unpinned fleet above it cannot have come from the model.
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

fn schemas_compatible(a: &Schema, b: &Schema) -> bool {
    // Positional type equality; names are presentation-only and renaming
    // through a projection is legal.
    a.len() == b.len() && a.fields.iter().zip(&b.fields).all(|(fa, fb)| fa.dtype == fb.dtype)
}

fn schema_types(s: &Schema) -> String {
    let names: Vec<&str> = s.fields.iter().map(|f| f.dtype.name()).collect();
    format!("[{}]", names.join(", "))
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
/// means the plan is well-formed.
pub fn verify_dag(dag: &QueryDag) -> Vec<Diagnostic> {
    checked_edges(dag).err().unwrap_or_default()
}

/// [`verify_dag`], handing back the [`EdgeTable`] the checks walked so
/// the sizing and scheduling passes that come next read the same table.
/// Topology is checked first and returned alone when broken — the later
/// passes index into `stages` through the edges and need the topological
/// invariant to hold.
pub fn checked_edges(dag: &QueryDag) -> Result<EdgeTable<'_>, Vec<Diagnostic>> {
    let mut out = Vec::new();

    // Pass 1 — topology: inputs strictly precede consumers, and exactly
    // the last stage reports to the driver.
    if dag.stages.is_empty() {
        return Err(vec![Diagnostic::new(
            codes::TOPO_ORDER,
            None,
            "plan has no stages".to_string(),
        )]);
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
        return Err(out);
    }

    // Pass 2 — each stage on its own: pipelines type-check, terminals
    // agree with where the output goes, join and sort keys resolve.
    for (sid, kind) in dag.stages.iter().enumerate() {
        check_stage(sid, kind, &mut out);
    }

    // Pass 3 — edges: every reader of every producer, the driver's final
    // stage included, against the exchange contract (output kind, what is
    // emitted vs. what the reader declares, key agreement).
    let edges = dag.edges();
    for (pid, readers) in edges.readers.iter().enumerate() {
        if readers.is_empty() {
            out.push(Diagnostic::new(
                codes::XPORT_DANGLING,
                pid,
                format!(
                    "stage outputs {} but no stage consumes it",
                    output_name(dag.stages[pid].output())
                ),
            ));
        }
        for reader in readers {
            check_reader(&edges, pid, reader, &mut out);
        }
        // A run is range-partitioned by exactly one boundary set, so a
        // producer feeds at most one sort stage (one boundary set).
        let sort_readers = readers.iter().filter(|r| r.role == ReaderRole::SortInput).count();
        if sort_readers > 1 {
            out.push(Diagnostic::new(
                codes::EXCH_SORT_FANOUT,
                pid,
                format!(
                    "stage feeds {sort_readers} sort stages; a sort edge carries exactly \
                     one boundary set"
                ),
            ));
        }
    }
    if out.is_empty() {
        Ok(edges)
    } else {
        Err(out)
    }
}

/// One stage in isolation: its pipeline type-checks, its terminal agrees
/// with its output, and the keys it declares resolve over the schemas it
/// declares.
fn check_stage(sid: usize, kind: &StageKind, out: &mut Vec<Diagnostic>) {
    if let Some(p) = kind.pipeline() {
        let what = match kind {
            StageKind::Scan(_) => "scan pipeline",
            _ => "join post-pipeline",
        };
        check_pipeline(sid, what, p, out);
        let terminal_ok = match kind.output() {
            // Driver-bound stages report batches or partial agg state.
            StageOutput::Driver => {
                matches!(p.terminal, Terminal::Collect | Terminal::PartialAggregate { .. })
            }
            // Row exchanges carry the Collect placeholder (the driver
            // swaps in HashPartition once the consumer fleet is sized).
            StageOutput::Exchange { .. } => matches!(p.terminal, Terminal::Collect),
            StageOutput::AggExchange => matches!(p.terminal, Terminal::PartialAggregate { .. }),
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
    match kind {
        StageKind::Scan(_) => {}
        StageKind::AggMerge(a) => {
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
        StageKind::Sort(s) => {
            for (i, k) in s.keys.iter().enumerate() {
                if let Err(err) = k.expr.data_type(&s.schema) {
                    out.push(Diagnostic::new(
                        codes::SCHEMA_SORT_KEY,
                        sid,
                        format!("sort key {i} does not resolve over the edge schema: {err}"),
                    ));
                }
            }
        }
        StageKind::Join(j) => {
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
                return;
            }
            for (i, (&pk, &bk)) in j.probe_keys.iter().zip(&j.build_keys).enumerate() {
                match (j.probe_schema.fields.get(pk), j.build_schema.fields.get(bk)) {
                    (Some(p), Some(b)) if p.dtype == b.dtype => {}
                    (Some(p), Some(b)) => out.push(Diagnostic::new(
                        codes::SCHEMA_KEY_TYPES,
                        sid,
                        format!(
                            "join key pair {i} types disagree: probe {} vs build {}",
                            p.dtype.name(),
                            b.dtype.name(),
                        ),
                    )),
                    _ => out.push(Diagnostic::new(
                        codes::SCHEMA_KEY_BOUNDS,
                        sid,
                        format!(
                            "join key pair {i} ({pk}, {bk}) out of schema bounds \
                             ({} probe, {} build columns)",
                            j.probe_schema.len(),
                            j.build_schema.len(),
                        ),
                    )),
                }
            }
        }
    }
}

/// The one "emitted vs. declared" comparison every edge goes through,
/// whoever reads it: rows agree by positional type equality; aggregate
/// state agrees in width, group-key types and accumulator shapes.
/// Returns what disagrees, from the reader's point of view.
fn shape_mismatch(emitted: &Emits, declared: &Declares<'_>) -> Option<String> {
    match (emitted, declared) {
        (Emits::Rows(rows), Declares::Rows(schema)) => {
            (!schemas_compatible(rows, schema)).then(|| {
                format!(
                    "declares rows {} but is sent rows {}",
                    schema_types(schema),
                    schema_types(rows)
                )
            })
        }
        (Emits::AggState { keys, funcs }, Declares::AggState { agg_schema, funcs: declared }) => {
            if agg_schema.len() != keys.len() + funcs.len() {
                return Some(format!(
                    "declares an agg schema of {} columns but is sent state grouped by {} \
                     keys with {} aggregates",
                    agg_schema.len(),
                    keys.len(),
                    funcs.len(),
                ));
            }
            if let Some((i, key)) =
                keys.iter().enumerate().find(|(i, key)| agg_schema.field(*i).dtype != **key)
            {
                return Some(format!(
                    "declares group key {i} as {} but is sent {}",
                    agg_schema.field(i).dtype.name(),
                    key.name(),
                ));
            }
            (funcs.as_slice() != *declared)
                .then(|| format!("declares accumulator shapes {declared:?} but is sent {funcs:?}"))
        }
        (Emits::Rows(_), Declares::AggState { .. }) => {
            Some("merges aggregate state but is sent rows".to_string())
        }
        (Emits::AggState { .. }, Declares::Rows(_)) => {
            Some("reads rows but is sent partial aggregate state".to_string())
        }
    }
}

/// Check one reader of producer `pid` against the exchange contract: the
/// producer's output kind fits the reader's role, what it emits is what
/// the reader declares, and a join side is sharded on the columns it
/// co-partitions on. The reader picks the code and the anchor of a
/// disagreement; the comparison is [`shape_mismatch`] for all of them.
fn check_reader(edges: &EdgeTable<'_>, pid: usize, reader: &Reader<'_>, out: &mut Vec<Diagnostic>) {
    let dag = edges.dag;
    let output = dag.stages[pid].output();
    let kind_ok = matches!(
        (output, reader.role),
        (StageOutput::Exchange { .. }, ReaderRole::JoinProbe | ReaderRole::JoinBuild)
            | (StageOutput::AggExchange, ReaderRole::AggInput)
            | (StageOutput::SortExchange, ReaderRole::SortInput)
            | (StageOutput::Driver, ReaderRole::Final)
    );
    let who = || match reader.stage {
        Some(c) => format!("stage {c} ({})", dag.stages[c].label(c)),
        None => "the driver's final stage".to_string(),
    };
    if !kind_ok {
        out.push(Diagnostic::new(
            codes::EXCH_KIND,
            pid,
            format!(
                "stage outputs {} but {} reads it as {:?}",
                output_name(output),
                who(),
                reader.role
            ),
        ));
        return;
    }
    // A producer whose own pipeline is broken was reported in pass 2.
    let Some(emitted) = &edges.emits[pid] else { return };
    if let Some(problem) = shape_mismatch(emitted, &reader.declares) {
        let code = match (reader.role, &dag.final_stage) {
            (ReaderRole::JoinProbe | ReaderRole::JoinBuild | ReaderRole::SortInput, _) => {
                codes::SCHEMA_EDGE
            }
            (ReaderRole::AggInput, _) => codes::SCHEMA_AGG,
            (ReaderRole::Final, FinalStage::MergeAggregate { .. }) => codes::FINAL_MERGE_AGG,
            (ReaderRole::Final, FinalStage::CollectBatches { .. }) => codes::FINAL_COLLECT,
            (ReaderRole::Final, FinalStage::CarryAggState { .. }) => codes::STREAM_FINAL,
        };
        out.push(Diagnostic::new(
            code,
            reader.stage,
            format!("{}, as {:?}, {problem} by producer stage {pid}", who(), reader.role),
        ));
    }
    // The producer shards on exactly the columns this join side
    // co-partitions on, or worker p of the join fleet does not own
    // co-partition p of this input.
    if let (StageOutput::Exchange { keys: sharded }, Some(StageKind::Join(j))) =
        (output, reader.stage.map(|c| &dag.stages[c]))
    {
        let (side, keys) = match reader.role {
            ReaderRole::JoinProbe => ("probe", &j.probe_keys),
            _ => ("build", &j.build_keys),
        };
        if sharded != keys {
            out.push(Diagnostic::new(
                codes::EXCH_KEYS,
                pid,
                format!(
                    "producer shards on columns {sharded:?} but {} co-partitions its {side} \
                     side on {keys:?}",
                    who(),
                ),
            ));
        }
        if let Emits::Rows(rows) = emitted {
            if let Some(&bad) = sharded.iter().find(|&&k| k >= rows.len()) {
                out.push(Diagnostic::new(
                    codes::SCHEMA_KEY_BOUNDS,
                    pid,
                    format!(
                        "partition key column {bad} out of bounds for edge rows {}",
                        schema_types(rows),
                    ),
                ));
            }
        }
    }
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

/// Verify a concrete fleet plan over a verified DAG's [`EdgeTable`]
/// ([`checked_edges`]): one worker count and one pin per stage (`None`
/// for scans and for consumers the cost model sizes), every consumer
/// fleet nonzero, unpinned consumer fleets within the cost model's bound,
/// pins respected, and shared edges read by equal fleets. Transport
/// endpoint names need no check: `x{instance}/q{query}/s{stage}/r{p}` is
/// injective in the stage id, and one function spells the channel for
/// both the driver and the workers.
pub fn verify_fleets(
    edges: &EdgeTable<'_>,
    fleets: &[usize],
    pins: &[Option<usize>],
) -> Vec<Diagnostic> {
    let stages = &edges.dag.stages;
    let mut out = Vec::new();
    if fleets.len() != stages.len() || pins.len() != stages.len() {
        return vec![Diagnostic::new(
            codes::FLEET_ZERO,
            None,
            format!(
                "fleet plan sizes {} stages and pins {} but the DAG has {}",
                fleets.len(),
                pins.len(),
                stages.len()
            ),
        )];
    }
    for (sid, kind) in stages.iter().enumerate() {
        let w = fleets[sid];
        let is_scan = matches!(kind, StageKind::Scan(_));
        match pins[sid] {
            // A scan over an empty table legitimately launches no
            // workers; consumer fleets double as partition counts and
            // must be nonzero (the model and the pins both clamp to 1).
            _ if w == 0 && is_scan => {}
            _ if w == 0 => out.push(Diagnostic::new(
                codes::FLEET_ZERO,
                sid,
                "zero-worker consumer fleet; its size is the edge partition count".to_string(),
            )),
            Some(p) if w != p.max(1) => out.push(Diagnostic::new(
                codes::FLEET_PIN,
                sid,
                format!("fleet sized {w} but the installation pins {} workers", p.max(1)),
            )),
            // Scan fleets follow the file layout, not the consumer
            // sizers; consumers without a pin must come from the model.
            None if !is_scan && w > MAX_MODEL_FLEET => out.push(Diagnostic::new(
                codes::FLEET_MODEL_BOUND,
                sid,
                format!(
                    "unpinned fleet sized {w} exceeds the cost model bound of {MAX_MODEL_FLEET}"
                ),
            )),
            _ => {}
        }
        // Shared edges: every consumer of this stage reads the same
        // partitioned edge, so their fleets (the partition count) agree.
        let mut consumers =
            edges.readers[sid].iter().filter_map(|r| r.stage).map(|c| (c, fleets[c]));
        if let Some((first, parts)) = consumers.next() {
            for (other, w) in consumers.filter(|&(_, w)| w != parts) {
                out.push(Diagnostic::new(
                    codes::FLEET_SHARED_EDGE,
                    sid,
                    format!(
                        "shared edge partitioned {parts} ways for stage {first} but {w} ways \
                         for stage {other}; consumer fleets must agree",
                    ),
                ));
            }
        }
    }
    out
}

/// Verify the placements of a sized plan ([`crate::LaunchPlan::placement`],
/// one per stage). A fused edge runs its consumer inside its host — the
/// producer's one invocation — on the host's parts, so both fleets are
/// one worker, the consumer is the host edge's only reader (not the
/// driver), and a consumer has at most one host. A co-hosted stage runs
/// in its reader's host invocation from that invocation's start, so it
/// is a one-worker scan — it reads no edge — whose only reader runs one
/// worker and has a host. A consumer that reads an edge besides its host's
/// and its co-hosted scans' *waits* for exactly one: its inbox carries the
/// untagged reports of one producer stage, whose addresses the host
/// computes.
pub fn verify_fused(
    edges: &EdgeTable<'_>,
    fleets: &[usize],
    placement: &[Placement],
) -> Vec<Diagnostic> {
    let stages = &edges.dag.stages;
    if placement.len() != stages.len() || fleets.len() != stages.len() {
        return vec![Diagnostic::new(
            codes::FLEET_FUSED,
            None,
            format!(
                "placement marks {} stages and fleets size {} but the DAG has {}",
                placement.len(),
                fleets.len(),
                stages.len()
            ),
        )];
    }
    let fused = |p: usize| placement[p] == Placement::Fused;
    let cohosted = |p: usize| placement[p] == Placement::CoHosted;
    let mut out = Vec::new();
    for p in (0..stages.len()).filter(|&p| placement[p] != Placement::Apart) {
        let readers = &edges.readers[p];
        let problem = match readers[..] {
            _ if fleets[p] != 1 => format!("its producer runs {} workers", fleets[p]),
            _ if cohosted(p) && !stages[p].inputs().is_empty() => "it reads an edge".to_string(),
            [Reader { stage: Some(c), .. }] if fleets[c] != 1 => {
                format!("its consumer stage {c} runs {} workers", fleets[c])
            }
            [Reader { stage: Some(c), .. }] => {
                let inputs = stages[c].inputs();
                let handed = 1 + inputs.iter().filter(|&&i| cohosted(i)).count();
                let others = inputs.iter().filter(|&&i| i != p && !cohosted(i)).count();
                match inputs.iter().find(|&&h| fused(h) && (h < p || cohosted(p))) {
                    Some(h) if fused(p) => {
                        format!("its consumer stage {c} already runs in stage {h}")
                    }
                    None if cohosted(p) => format!("its consumer stage {c} has no host"),
                    None if inputs.len() > handed && others != 1 => format!(
                        "its consumer stage {c} waits for {others} in-edges besides it, not one"
                    ),
                    _ => continue,
                }
            }
            _ if readers.iter().any(|r| r.stage.is_none()) => "the driver reads it".to_string(),
            _ => format!("it has {} readers, not one stage", readers.len()),
        };
        let message = match placement[p] {
            Placement::CoHosted => format!(
                "stage marked co-hosted but {problem}; only a one-worker scan read by one hosted \
                 worker alone runs in its host"
            ),
            _ => format!("out-edge marked fused but {problem}; only a 1 → 1 host edge fuses"),
        };
        out.push(Diagnostic::new(codes::FLEET_FUSED, p, message));
    }
    out
}

/// Verify that every invocation of a wired plan fits the platform's caps
/// (`V-FLEET-006`), the payload bound the plan's budgets promise. A
/// chain head's fleet launches in tree groups of at most
/// `invoke::tree_shape`'s group (one payload, directly invoked, is a
/// group of one), and a group's first-generation payload carries all of
/// them: per payload the addresses of every sender of the head's
/// in-edges and, into a sort fleet, its range's boundaries; the inline
/// files of the group's heaviest runs of the chain's scans, co-hosted
/// ones included; and every sender's whole inline share, all of which
/// may be the group's. That must fit
/// [`MAX_ASYNC_PAYLOAD_BYTES`](lambada_sim::services::faas::MAX_ASYNC_PAYLOAD_BYTES).
/// And each sender's share, beside its section table, must fit the
/// message cap less what the rest of a message takes
/// ([`INLINE_EDGE_BYTES`]). One pass over the stages and the scanned
/// files' runs.
pub fn verify_payloads(launch: &LaunchPlan<'_>) -> Vec<Diagnostic> {
    use lambada_sim::services::faas::MAX_ASYNC_PAYLOAD_BYTES as INVOKE_CAP;
    let (stages, workers, budgets) =
        (&launch.edges.dag.stages, &launch.workers, &launch.inline_budgets);
    let mut out = Vec::new();
    let mut over = |sid: usize, what: String, bytes: u64, cap: usize| {
        if bytes > cap as u64 {
            let message = format!("{what} may take {bytes} B, past the {cap} B cap");
            out.push(Diagnostic::new(codes::FLEET_PAYLOAD, sid, message));
        }
    };
    for (p, &share) in budgets.iter().enumerate().filter(|(_, &b)| b < u64::MAX) {
        let sections =
            launch.sort_reader(p).map_or(launch.partitions[p], |_| crate::worker::SORT_SAMPLE_ROWS);
        let bytes = share.saturating_add((sections * SECTION_BYTES) as u64);
        over(p, "a sender's inline share and section table".into(), bytes, INLINE_EDGE_BYTES);
    }
    for h in (0..stages.len()).filter(|&h| workers[h] > 0 && launch.is_chain_head(h)) {
        let inputs = stages[h].inputs();
        let bounds =
            if let StageKind::Sort(s) = &stages[h] { 2 * s.keys.len() * KEY_BYTES } else { 0 };
        let located = inputs.iter().map(|&p| workers[p]).sum::<usize>() * ADDRESS_BYTES + bounds;
        let chain = launch.chain(h);
        let run = |w| crate::plan::inline_file_bytes(&launch.scans, chain.iter().copied(), w);
        let mut runs: Vec<u64> = (0..workers[h] as u64).map(run).collect();
        // The group's heaviest runs, whichever the tree deals to it.
        let group = crate::invoke::tree_shape(workers[h]).1;
        runs.select_nth_unstable_by(group - 1, |a, b| b.cmp(a));
        let files = runs[..group].iter().sum::<u64>() + (group * located) as u64;
        let shares = inputs.iter().map(|&p| budgets[p].saturating_mul(workers[p] as u64));
        let bytes = shares.fold(files, u64::saturating_add);
        over(h, format!("a tree group of the invocation {chain:?} heads"), bytes, INVOKE_CAP);
    }
    out
}

/// Shared test-only DAG builders: small, verify-clean plans both the
/// verifier and the scheduler unit tests exercise.
#[cfg(test)]
pub(crate) mod test_dags {
    use lambada_engine::pipeline::{PipelineSpec, Terminal};
    use lambada_engine::types::{DataType, Field, Schema, SchemaRef};
    use lambada_engine::{AggExpr, AggFunc, Expr, JoinVariant, SortKey};

    use crate::plan::LaunchPlan;
    use crate::stage::{
        AggMergeStage, FinalStage, JoinStage, QueryDag, ScanStage, SortStage, StageKind,
        StageOutput,
    };

    /// A launch plan over `dag` with the given fleet sizes, nothing
    /// pinned.
    pub(crate) fn sized(dag: &QueryDag, workers: Vec<usize>) -> LaunchPlan<'_> {
        let n = dag.stages.len();
        LaunchPlan::wire(dag.edges(), vec![None; n], workers, Vec::new(), vec![None; n])
    }

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

    /// `GROUP BY c0` with `sum(c1)` over a 2-column Int64 edge.
    pub(crate) fn sum_by_c0() -> Terminal {
        Terminal::PartialAggregate {
            group_by: vec![(Expr::Col(0), "c0".to_string())],
            aggs: vec![AggExpr::new(AggFunc::Sum, Some(Expr::Col(1)), "s")],
        }
    }

    /// The accumulator shapes of [`sum_by_c0`].
    pub(crate) fn sum_funcs() -> Vec<(AggFunc, Option<DataType>)> {
        vec![(AggFunc::Sum, Some(DataType::Int64))]
    }

    /// The output schema of [`sum_by_c0`], with the group key declared as
    /// `key` (`Int64` is what the producer groups by).
    pub(crate) fn sum_schema(key: DataType) -> SchemaRef {
        Schema::arc(vec![Field::new("c0", key), Field::new("s", DataType::Int64)])
    }

    /// A scan running [`sum_by_c0`] as its terminal.
    pub(crate) fn agg_scan(output: StageOutput) -> StageKind {
        let mut scan = collect_scan(output);
        if let StageKind::Scan(s) = &mut scan {
            s.pipeline.terminal = sum_by_c0();
        }
        scan
    }

    /// The merge fleet of [`sum_by_c0`] shards.
    pub(crate) fn agg_merge(input: usize, output: StageOutput) -> StageKind {
        StageKind::AggMerge(AggMergeStage {
            input,
            agg_schema: sum_schema(DataType::Int64),
            funcs: sum_funcs(),
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

    /// Two scans, a join over scan 0 alone, and a final join consuming
    /// that join plus scan 1 — the unbalanced shape where a stage must
    /// wait on exactly its own inputs: the final join on the first join
    /// and scan 1, never on scan 0 directly.
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
        agg_merge, agg_scan, collect_scan, diamond_dag, join_stage, scan_sort_dag, schema,
        single_scan_dag, sized, sum_funcs, sum_schema, two_scan_join_dag, unbalanced_join_dag,
    };
    use super::*;
    use crate::plan::LaunchPlan;
    use lambada_engine::types::{DataType, Field};
    use lambada_engine::{AggFunc, Expr};

    #[test]
    fn trivial_scan_verifies_clean() {
        assert!(verify_dag(&single_scan_dag()).is_empty());
        assert!(verify_fleets(&single_scan_dag().edges(), &[3], &[None]).is_empty());
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
        let edges = dag.edges();
        let unpinned = [None, None];
        let diags = verify_fleets(&edges, &[1, 0], &unpinned);
        assert!(diags.iter().any(|d| d.code == codes::FLEET_ZERO), "{diags:?}");
        // An empty scan legitimately launches no workers.
        assert!(verify_fleets(&edges, &[0, 2], &unpinned).is_empty());
        let diags = verify_fleets(&edges, &[1], &unpinned);
        assert!(diags.iter().any(|d| d.code == codes::FLEET_ZERO), "{diags:?}");
        // The sort fleet is pinned to 4 workers.
        let diags = verify_fleets(&edges, &[1, 2], &[None, Some(4)]);
        assert!(diags.iter().any(|d| d.code == codes::FLEET_PIN), "{diags:?}");
        let diags = verify_fleets(&edges, &[1, 500], &unpinned);
        assert!(diags.iter().any(|d| d.code == codes::FLEET_MODEL_BOUND), "{diags:?}");
    }

    /// The driver's final stage is one more reader of the last edge, so
    /// it goes through the same comparison an agg-merge reader does: a
    /// group key the producer emits as `Int64` but the final schema
    /// declares `Float64` would be silently coerced at run time (or fail
    /// after every worker was billed).
    #[test]
    fn final_stages_check_group_key_types() {
        use DataType::{Float64, Int64};
        let merge = |key| FinalStage::MergeAggregate {
            agg_schema: sum_schema(key),
            funcs: sum_funcs(),
            post: Vec::new(),
        };
        let carry =
            |key| FinalStage::CarryAggState { agg_schema: sum_schema(key), funcs: sum_funcs() };
        let scan_rooted = || vec![agg_scan(StageOutput::Driver)];
        let merge_rooted =
            || vec![agg_scan(StageOutput::AggExchange), agg_merge(0, StageOutput::Driver)];
        type Stages = fn() -> Vec<StageKind>;
        type Final = fn(DataType) -> FinalStage;
        let cases: [(Stages, Final, &str); 3] = [
            (scan_rooted, merge, codes::FINAL_MERGE_AGG),
            (scan_rooted, carry, codes::STREAM_FINAL),
            (merge_rooted, carry, codes::STREAM_FINAL),
        ];
        for (stages, final_stage, code) in cases {
            let good = QueryDag { stages: stages(), final_stage: final_stage(Int64) };
            assert!(verify_dag(&good).is_empty(), "{:?}", verify_dag(&good));
            let bad = QueryDag { stages: stages(), final_stage: final_stage(Float64) };
            let diags = verify_dag(&bad);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!((diags[0].code, diags[0].stage), (code, None), "{diags:?}");
            assert!(diags[0].message.contains("group key 0"), "{diags:?}");
        }
    }

    /// Width and accumulator shapes go through the same comparison, for
    /// stage readers and final stages alike.
    #[test]
    fn agg_shape_disagreements_pick_the_readers_code() {
        let wide =
            Schema::arc(["c0", "x", "s"].iter().map(|n| Field::new(*n, DataType::Int64)).collect());
        let counts = vec![(AggFunc::Count, None)];
        // An agg-merge reader: V-SCHEMA-005 at the merge stage.
        for (agg_schema, funcs) in
            [(wide.clone(), sum_funcs()), (sum_schema(DataType::Int64), counts.clone())]
        {
            let mut dag = QueryDag {
                stages: vec![agg_scan(StageOutput::AggExchange), agg_merge(0, StageOutput::Driver)],
                final_stage: FinalStage::CollectBatches {
                    schema: agg_schema.clone(),
                    post: Vec::new(),
                },
            };
            if let StageKind::AggMerge(a) = &mut dag.stages[1] {
                (a.agg_schema, a.funcs) = (agg_schema, funcs);
            }
            let diags = verify_dag(&dag);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!((diags[0].code, diags[0].stage), (codes::SCHEMA_AGG, Some(1)), "{diags:?}");
        }
        // The driver as the reader: V-FINAL-001, whole-plan.
        for (agg_schema, funcs) in [(wide, sum_funcs()), (sum_schema(DataType::Int64), counts)] {
            let dag = QueryDag {
                stages: vec![agg_scan(StageOutput::Driver)],
                final_stage: FinalStage::MergeAggregate { agg_schema, funcs, post: Vec::new() },
            };
            let diags = verify_dag(&dag);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!((diags[0].code, diags[0].stage), (codes::FINAL_MERGE_AGG, None));
        }
        // Rows where state is declared, and state where rows are.
        let mut dag = single_scan_dag();
        dag.final_stage = FinalStage::MergeAggregate {
            agg_schema: sum_schema(DataType::Int64),
            funcs: sum_funcs(),
            post: Vec::new(),
        };
        let diags = verify_dag(&dag);
        assert!(diags.iter().any(|d| d.code == codes::FINAL_MERGE_AGG), "{diags:?}");
        let dag = QueryDag {
            stages: vec![agg_scan(StageOutput::Driver)],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        };
        let diags = verify_dag(&dag);
        assert!(diags.iter().any(|d| d.code == codes::FINAL_COLLECT), "{diags:?}");
    }

    /// scan (partial agg) → agg-merge → driver: the one-input shape a
    /// fused chain is made of.
    fn merge_chain_dag() -> QueryDag {
        QueryDag {
            stages: vec![agg_scan(StageOutput::AggExchange), agg_merge(0, StageOutput::Driver)],
            final_stage: FinalStage::CollectBatches {
                schema: sum_schema(DataType::Int64),
                post: Vec::new(),
            },
        }
    }

    /// Placement is a pure function of fleet sizes, byte estimates and
    /// the edge table: a one-worker consumer runs in the one-worker
    /// producer it alone reads with the deepest chain — ties to the larger
    /// estimate, then the lower id — every other such producer that is a
    /// scan is co-hosted beside it, and nothing else moves.
    #[test]
    fn one_worker_consumers_run_in_their_deepest_one_worker_producer() {
        use Placement::{Apart as A, CoHosted as C, Fused as F};
        let placed = |dag: &QueryDag, workers: Vec<usize>| sized(dag, workers).placement;
        let chain = merge_chain_dag();
        assert_eq!(placed(&chain, vec![1, 1]), [F, A]);
        assert_eq!(placed(&chain, vec![2, 1]), [A, A], "two producers");
        assert_eq!(placed(&chain, vec![1, 2]), [A, A], "two consumers");
        // A join runs in one of its scans: the lower id on a tie, the
        // larger estimate otherwise, the one-worker one if only one is;
        // the other one-worker scan is co-hosted.
        let join = two_scan_join_dag();
        assert_eq!(placed(&join, vec![1; 3]), [F, C, A]);
        let wired = |workers: Vec<usize>, est: &[u64]| {
            LaunchPlan::wire(join.edges(), vec![None; 3], workers, est.to_vec(), vec![None; 3])
                .placement
        };
        assert_eq!(wired(vec![1; 3], &[10, 20, 0]), [C, F, A], "the larger estimate");
        assert_eq!(wired(vec![2, 1, 1], &[]), [A, F, A]);
        assert_eq!(placed(&join, vec![1, 1, 2]), [A; 3], "a two-worker join");
        // Beside its co-hosted scan the join waits for nothing: the
        // chain lists the scan just before it.
        let launch = sized(&join, vec![1; 3]);
        assert!(!launch.waits(2) && !launch.is_chain_head(2) && !launch.is_chain_head(1));
        assert_eq!(launch.chain(0), [0, 1, 2]);
        // With a two-worker other side it waits for that side's reports.
        let launch = sized(&join, vec![2, 1, 1]);
        assert!(launch.waits(2) && launch.is_chain_head(0));
        assert_eq!(launch.chain(1), [1, 2]);
        // In the diamond the scan has four readers; in the unbalanced
        // shape join 2 reads scan 0 twice. Either way the final join's
        // two inputs are chains of one stage, the lower id hosts and the
        // other, a join, stays apart.
        assert_eq!(placed(&diamond_dag(), vec![1; 4]), [A, F, A, A]);
        assert_eq!(placed(&unbalanced_join_dag(), vec![1; 4]), [A, F, A, A]);
        // The one-worker sort edge fuses; the chain is one invocation.
        let sort = scan_sort_dag();
        let launch = sized(&sort, vec![1, 1]);
        assert_eq!(launch.placement, [F, A]);
        assert_eq!(launch.chain(0), [0, 1]);
        assert!(launch.is_chain_head(0) && !launch.is_chain_head(1) && !launch.waits(1));
        assert!(verify_fused(&launch.edges, &launch.workers, &launch.placement).is_empty());
        for dag in [two_scan_join_dag(), diamond_dag(), unbalanced_join_dag()] {
            let launch = sized(&dag, vec![1; dag.stages.len()]);
            assert!(verify_fused(&launch.edges, &launch.workers, &launch.placement).is_empty());
        }
    }

    /// The deepest chain hosts: in a three-way join tree whose first join
    /// runs in its scan, the second join runs in the first — depth 2 —
    /// not in the other scan, whatever the estimates say. The scans that
    /// host nothing are co-hosted, each listed just before its reader, so
    /// no join waits and the tree is one invocation.
    #[test]
    fn the_deepest_chain_hosts() {
        use Placement::{Apart as A, CoHosted as C, Fused as F};
        let dag = deepest_chain_dag();
        let est = [5, 1, 1000, 1, 1];
        let launch =
            LaunchPlan::wire(dag.edges(), vec![None; 5], vec![1; 5], est.to_vec(), vec![None; 5]);
        assert_eq!(launch.placement, [F, C, C, F, A]);
        assert_eq!(launch.chain(0), [0, 1, 3, 2, 4]);
        assert!(!launch.waits(3) && !launch.waits(4));
        assert!(verify_fused(&launch.edges, &launch.workers, &launch.placement).is_empty());
    }

    /// Three scans, a join over the first two and a final join over the
    /// third and that join.
    fn deepest_chain_dag() -> QueryDag {
        QueryDag {
            stages: vec![
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                join_stage(0, 1, StageOutput::Exchange { keys: vec![0] }),
                join_stage(2, 3, StageOutput::Driver),
            ],
            final_stage: FinalStage::CollectBatches { schema: schema(2), post: Vec::new() },
        }
    }

    /// A fused edge must be a host edge; a plan marking anything else
    /// fused is rejected: two hosts for one consumer, a host the driver
    /// reads, fleets of more than one worker.
    #[test]
    fn a_fused_edge_that_is_no_identity_is_fleet_005() {
        use Placement::{Apart as A, Fused as F};
        let join = two_scan_join_dag();
        let chain = merge_chain_dag();
        let cases: [(&QueryDag, &[usize], &[Placement], &str); 7] = [
            (&join, &[1, 1, 1], &[F, F, A], "stage 2 already runs in stage 0"),
            (&join, &[1, 1, 1], &[A, A, F], "the driver reads it"),
            (&chain, &[1, 1], &[A, F], "the driver reads it"),
            (&chain, &[2, 1], &[F, A], "producer runs 2 workers"),
            (&chain, &[1, 3], &[F, A], "consumer stage 1 runs 3 workers"),
            (&diamond_dag(), &[1; 4], &[F, A, A, A], "4 readers, not one stage"),
            (&chain, &[1, 1], &[F], "the DAG has 2"),
        ];
        for (dag, fleets, placement, says) in cases {
            let diags = verify_fused(&dag.edges(), fleets, placement);
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, codes::FLEET_FUSED);
            assert!(diags[0].message.contains(says), "{}", diags[0].message);
        }
    }

    /// The one finding of `placement` on `dag` with `fleets`.
    fn one_finding(dag: &QueryDag, fleets: &[usize], placement: &[Placement]) -> String {
        let diags = verify_fused(&dag.edges(), fleets, placement);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::FLEET_FUSED);
        diags[0].message.clone()
    }

    /// A co-hosted stage starts with its reader's host invocation, so it
    /// must read no edge: a join co-hosted beside the final join's host is
    /// rejected.
    #[test]
    fn a_co_hosted_stage_that_reads_an_edge_is_fleet_005() {
        use Placement::{Apart as A, CoHosted as C, Fused as F};
        let message = one_finding(&deepest_chain_dag(), &[1; 5], &[F, C, F, C, A]);
        assert!(message.contains("stage marked co-hosted but it reads an edge"), "{message}");
    }

    /// A co-hosted stage hands all its parts to one reader: the diamond's
    /// scan, read four times, is rejected.
    #[test]
    fn a_co_hosted_stage_with_more_than_one_reader_is_fleet_005() {
        use Placement::{Apart as A, CoHosted as C};
        let message = one_finding(&diamond_dag(), &[1; 4], &[C, A, A, A]);
        assert!(message.contains("it has 4 readers, not one stage"), "{message}");
    }

    /// A co-hosted stage runs in its reader's host invocation: a reader of
    /// two workers, or one with no host, is rejected.
    #[test]
    fn a_co_hosted_stage_whose_reader_is_no_hosted_worker_is_fleet_005() {
        use Placement::{Apart as A, CoHosted as C};
        let join = two_scan_join_dag();
        let message = one_finding(&join, &[1, 1, 2], &[A, C, A]);
        assert!(message.contains("its consumer stage 2 runs 2 workers"), "{message}");
        let message = one_finding(&join, &[1, 1, 1], &[A, C, A]);
        assert!(message.contains("its consumer stage 2 has no host"), "{message}");
    }

    /// A waiting stage reads exactly one in-edge besides its host's: the
    /// reports in its inbox carry no stage, so a join whose host is both
    /// its inputs — one reader of a hand-built edge table — is rejected,
    /// and every fused plan the launch plan wires passes.
    #[test]
    fn a_waiting_stage_reads_one_other_in_edge() {
        use Placement::{Apart as A, Fused as F};
        let dag = unbalanced_join_dag();
        let mut edges = dag.edges();
        edges.readers[0].truncate(1);
        let diags = verify_fused(&edges, &[1; 4], &[F, A, A, A]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::FLEET_FUSED);
        assert!(diags[0].message.contains("waits for 0 in-edges besides it"), "{diags:?}");
        let launch = sized(&dag, vec![1; 4]);
        assert!(launch.waits(3));
        assert!(verify_fused(&launch.edges, &launch.workers, &launch.placement).is_empty());
    }

    #[test]
    fn diagnostic_display_carries_stage() {
        let d = Diagnostic::new(codes::FLEET_ZERO, 3, "zero-worker fleet".to_string());
        assert_eq!(d.to_string(), "V-FLEET-001 [stage 3]: zero-worker fleet");
        let d = Diagnostic::new(codes::FINAL_COLLECT, None, "mismatch".to_string());
        assert_eq!(d.to_string(), "V-FINAL-002: mismatch");
    }
}
