//! The distributed planner: split an optimized logical plan into a DAG of
//! serverless stages plus a driver-scope final stage (§3.2: "a query plan
//! is divided into scopes, each of which may run in a different target
//! platform").
//!
//! # The lowering
//!
//! [`split`] peels driver-side post-ops (`Sort`, `Limit`, the projection
//! above an aggregate) off the top of the optimized plan, then *recursively*
//! lowers the remainder into a [`QueryDag`] — stages in topological order,
//! connected by exchange edges through serverless storage (§4.4). There is
//! no fixed set of plan shapes: any tree of the supported operators lowers,
//! nested joins included.
//!
//! * **scan stages** are the leaves: one fleet per base table scanning its
//!   files, running `filter → project → terminal` over the scan output.
//!   A scan rooted directly under the driver reports its results; a scan
//!   feeding a consumer stage hash-partitions its rows onto an exchange
//!   edge ([`StageOutput::Exchange`]);
//! * **join stages** consume two row-exchange edges — each produced by a
//!   scan *or another join stage*, which is what unlocks multi-way
//!   (3+-table) join trees. Worker `p` of a join fleet owns co-partition
//!   `p` of both inputs: it builds a hash table from the build side,
//!   probes it with the probe side under the stage's
//!   [`lambada_engine::JoinVariant`] (inner, left-outer, semi, anti —
//!   the exchange plan is identical across variants; only the probe's
//!   emit rule differs), and runs the post-join pipeline (residual
//!   filter, projection, terminal). A join below another join
//!   hash-partitions its output rows on the parent's keys, exactly like a
//!   scan stage would;
//! * **agg-merge stages** finalize a repartitioned group-by aggregation
//!   (enabled by [`SplitOptions::exchange_aggregates`]): producers shard
//!   their grouped partial states by group-key hash over the exchange
//!   ([`StageOutput::AggExchange`]), and the merge fleet owns disjoint
//!   group ranges. Global aggregates (empty `GROUP BY`) always merge on
//!   the driver — one group repartitions to one shard;
//! * **sort stages** run a trailing `ORDER BY [LIMIT]` as a distributed
//!   range-partitioned sort (enabled by [`SplitOptions::exchange_sorts`]):
//!   the producer fleet locally sorts (and top-k-truncates) its rows
//!   ([`lambada_engine::pipeline::Terminal::SortPartition`]) and ships
//!   the runs onto the edge ([`StageOutput::SortExchange`]), cut into
//!   blocks whose first keys the driver picks the range boundaries from;
//!   sort worker `p` then keeps and sorts range `p`, so the driver only
//!   *concatenates* the runs in partition order — no driver-side sort or
//!   merge anywhere.
//!
//! Anything else (aggregates below joins, computed projections that do not
//! compose) is an error: [`CoreError::Unsupported`], returned to the
//! caller. Nothing runs such a plan instead.
//!
//! # The edge table
//!
//! The driver scope is one more reader of the last edge. [`QueryDag::edges`]
//! derives, once per DAG, *who reads which stage's output, as what, and what
//! must agree across it*: per producer its [`Reader`]s (a consumer stage in
//! a [`ReaderRole`], or the driver's [`FinalStage`]), what the producer
//! [`Emits`] (rows of a schema, or aggregate state of given key types and
//! accumulator shapes) and what each reader [`Declares`]. The verifier's
//! edge pass, the driver's launch plan (partition counts, sort-edge specs)
//! and the service's admission estimate all read this one table; none of
//! them walks `inputs()` for itself.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use lambada_engine::logical::{JoinVariant, LogicalPlan, SortKey};
use lambada_engine::pipeline::{agg_func_types, PipelineSpec, Terminal};
use lambada_engine::types::{DataType, SchemaRef};
use lambada_engine::{AggFunc, Expr};

use crate::error::{CoreError, Result};

/// Planner knobs, fixed by the driver's installation config.
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitOptions {
    /// Route grouped aggregates through the exchange (scan/join stages
    /// ship sharded partial states to an [`AggMergeStage`] fleet) instead
    /// of merging partial states on the driver. Global aggregates (empty
    /// `GROUP BY`) always stay on the driver — one group repartitions to
    /// one shard, so a merge fleet would only add a wave.
    pub exchange_aggregates: bool,
    /// Lower a trailing `ORDER BY [LIMIT]` into a distributed
    /// range-partitioned [`SortStage`] whenever the sorted rows already
    /// live in the serverless scope as batches (collect-rooted queries,
    /// or repartitioned aggregations whose merge fleet feeds the sort).
    /// Driver-merged aggregates keep the driver-side sort post-op: their
    /// result only materializes on the driver.
    pub exchange_sorts: bool,
}

/// Driver-side operators applied after merging worker outputs.
#[derive(Clone, Debug)]
pub enum PostOp {
    Sort(Vec<SortKey>),
    Limit(usize),
    Project(Vec<(Expr, String)>, SchemaRef),
}

/// What the driver does with the final stage's worker results.
#[derive(Clone, Debug)]
pub enum FinalStage {
    /// Merge partial aggregate states, finalize, then apply post-ops.
    MergeAggregate {
        /// Output schema of the aggregate node.
        agg_schema: SchemaRef,
        /// Accumulator shapes, to build an empty state when every worker
        /// reports empty.
        funcs: Vec<(AggFunc, Option<DataType>)>,
        post: Vec<PostOp>,
    },
    /// Concatenate collected batches (in worker order — which is range
    /// order below a sort stage), then apply post-ops. When those lead
    /// with `ORDER BY … LIMIT n` or `LIMIT n`, each reporting worker has
    /// already kept its own top n ([`crate::worker::ReportTop`]): the
    /// driver merges those, and keeps the same rows it would from all.
    CollectBatches { schema: SchemaRef, post: Vec<PostOp> },
    /// Merge partial aggregate states but do *not* finalize: the driver
    /// returns the merged state's wire encoding so a caller can carry it
    /// across query executions. This is the streaming runtime's per-batch
    /// final stage — `core::streaming` merges each micro-batch's state
    /// into the windows accumulated so far and finalizes a window only
    /// when the watermark closes it. No post-ops: nothing row-shaped
    /// materializes on the driver.
    CarryAggState {
        /// Output schema of the aggregate node (window key first).
        agg_schema: SchemaRef,
        /// Accumulator shapes, to build an empty state when every worker
        /// reports empty.
        funcs: Vec<(AggFunc, Option<DataType>)>,
    },
}

/// Where a stage's pipeline output goes.
#[derive(Clone, Debug)]
pub enum StageOutput {
    /// Workers report to the driver (the stage is the DAG's last).
    Driver,
    /// Workers hash-partition their rows on `keys` (indices into the
    /// pipeline's intermediate schema) and write them to the exchange
    /// edge feeding the consumer stage.
    Exchange { keys: Vec<usize> },
    /// Workers shard their partial-aggregate *state* by group-key hash
    /// and write the shards to the exchange edge feeding an
    /// [`AggMergeStage`]. The stage's pipeline terminal is
    /// [`Terminal::PartialAggregate`] here; the driver swaps in
    /// [`Terminal::PartitionedAggregate`] once the merge fleet is sized.
    AggExchange,
    /// Workers ship their locally sorted runs onto the exchange edge
    /// feeding a [`SortStage`], which the driver range-partitions by
    /// boundaries it picks from the runs' reported block keys. The
    /// consumer sort stage carries the keys and limit; the driver wires
    /// partition counts at launch.
    SortExchange,
}

/// A scan-rooted fragment: one serverless fleet scanning table files.
#[derive(Clone, Debug)]
pub struct ScanStage {
    pub table: String,
    /// Base-schema columns the scan must produce (union of projection and
    /// filter columns), ascending.
    pub scan_columns: Vec<usize>,
    /// Base-schema predicate for row-group pruning.
    pub prune_predicate: Option<Expr>,
    /// Worker pipeline over the scan output. For [`StageOutput::Exchange`]
    /// the terminal is [`Terminal::Collect`] here; the driver swaps in
    /// [`Terminal::HashPartition`] once it has chosen the consumer
    /// stage's worker count.
    pub pipeline: PipelineSpec,
    pub output: StageOutput,
}

/// A partitioned hash-join stage: worker `p` of the fleet receives
/// co-partition `p` of both exchange inputs, builds a hash table from the
/// build side, probes it with the probe side under the join `variant`,
/// and runs `post`.
///
/// All four [`JoinVariant`]s share this one physical stage shape: the
/// hash-partitioned exchange edges and duplicate-tolerant attempt keys
/// are identical; only the probe's emit rule differs. Semi/anti/outer
/// joins preserve the probe (left) side, so the planner always keeps
/// their build on the right input — the optimizer's build-side swap is
/// inner-only.
#[derive(Clone, Debug)]
pub struct JoinStage {
    /// DAG index of the probe-side (left) input stage — a scan or a join.
    pub probe_input: usize,
    /// DAG index of the build-side (right) input stage — a scan or a join.
    pub build_input: usize,
    /// Schema of the probe input rows (its producer's intermediate schema).
    pub probe_schema: SchemaRef,
    pub build_schema: SchemaRef,
    /// Join-key columns within the probe / build schemas.
    pub probe_keys: Vec<usize>,
    pub build_keys: Vec<usize>,
    /// Which rows the probe emits; see [`JoinVariant`].
    pub variant: JoinVariant,
    /// Post-join pipeline: `input_schema` is the variant's probe output
    /// (`probe ++ build` for inner/left-outer, probe alone for
    /// semi/anti), predicate is the residual (cross-side) filter,
    /// projection restores the plan's output columns, and the terminal is
    /// partial aggregation, local sorting, or collection.
    pub post: PipelineSpec,
    /// Driver for join-rooted queries; [`StageOutput::Exchange`] when a
    /// parent join consumes this join's rows; [`StageOutput::AggExchange`]
    /// / [`StageOutput::SortExchange`] when a repartitioned aggregation or
    /// distributed sort sits above.
    pub output: StageOutput,
}

/// A repartitioned-aggregation merge stage: worker `p` of the fleet
/// receives shard `p` of every producer's partial-aggregate state (the
/// groups whose key hashes to `p`), merges them, finalizes, and either
/// stores the resulting batch for the driver or feeds it to a sort stage.
/// Because producers shard by group-key hash, the fleet's group ranges
/// are disjoint and no driver-side merge is needed.
#[derive(Clone, Debug)]
pub struct AggMergeStage {
    /// DAG index of the producer stage (a scan or join stage with
    /// [`StageOutput::AggExchange`]).
    pub input: usize,
    /// Output schema of the aggregate node (group keys ++ finalized
    /// aggregates) — what the stored batches use.
    pub agg_schema: SchemaRef,
    /// Accumulator shapes, to build an empty state when a partition
    /// receives no groups.
    pub funcs: Vec<(AggFunc, Option<DataType>)>,
    /// Driver, or [`StageOutput::SortExchange`] when a distributed sort
    /// consumes the finalized groups.
    pub output: StageOutput,
}

/// A distributed sort/top-k stage: worker `p` of the fleet receives range
/// partition `p` of every producer's locally sorted run, sorts it, and
/// truncates to `limit`. Ranges are disjoint and ordered, so the driver
/// concatenates the fleet's outputs in worker order and the result is
/// globally sorted — the driver-side sort of §3.2 moved into the
/// serverless scope.
#[derive(Clone, Debug)]
pub struct SortStage {
    /// DAG index of the producer stage (with [`StageOutput::SortExchange`]).
    pub input: usize,
    /// Schema of the rows on the edge (the producer's output schema).
    pub schema: SchemaRef,
    /// Sort keys over `schema`.
    pub keys: Vec<SortKey>,
    /// Per-partition top-k truncation (the query's `LIMIT`).
    pub limit: Option<usize>,
}

/// One node of the stage DAG.
#[derive(Clone, Debug)]
pub enum StageKind {
    Scan(ScanStage),
    Join(JoinStage),
    AggMerge(AggMergeStage),
    Sort(SortStage),
}

impl StageKind {
    /// DAG indices of the stages feeding this one (always smaller than
    /// this stage's own index — [`QueryDag::stages`] is topologically
    /// ordered).
    pub fn inputs(&self) -> Vec<usize> {
        match self {
            StageKind::Scan(_) => Vec::new(),
            StageKind::Join(j) => vec![j.probe_input, j.build_input],
            StageKind::AggMerge(a) => vec![a.input],
            StageKind::Sort(s) => vec![s.input],
        }
    }

    /// Where this stage's output goes.
    pub fn output(&self) -> &StageOutput {
        match self {
            StageKind::Scan(s) => &s.output,
            StageKind::Join(j) => &j.output,
            StageKind::AggMerge(a) => &a.output,
            StageKind::Sort(_) => &StageOutput::Driver,
        }
    }

    /// The worker pipeline whose terminal shapes this stage's output: a
    /// scan's pipeline or a join's post pipeline. Agg-merge and sort
    /// stages run no pipeline.
    pub fn pipeline(&self) -> Option<&PipelineSpec> {
        match self {
            StageKind::Scan(s) => Some(&s.pipeline),
            StageKind::Join(j) => Some(&j.post),
            StageKind::AggMerge(_) | StageKind::Sort(_) => None,
        }
    }

    /// Mutable [`StageKind::pipeline`]: where the driver installs the
    /// sharding terminal once the consumer fleet is sized.
    pub fn pipeline_mut(&mut self) -> Option<&mut PipelineSpec> {
        match self {
            StageKind::Scan(s) => Some(&mut s.pipeline),
            StageKind::Join(j) => Some(&mut j.post),
            StageKind::AggMerge(_) | StageKind::Sort(_) => None,
        }
    }

    /// What this stage puts on its outgoing edge (or reports to the
    /// driver). Scan/join stages ship their pipeline's intermediate
    /// schema as rows, or — under a `PartialAggregate` terminal — grouped
    /// state; `None` when the pipeline does not type-check or carries a
    /// runtime-only terminal. Agg-merge stages emit finalized `agg_schema`
    /// rows, except that the last stage under a carry final stage
    /// (`carried`) re-emits its merged state unfinalized. Sort stages emit
    /// their edge schema.
    fn emits(&self, carried: bool) -> Option<Emits> {
        match self {
            StageKind::Scan(_) | StageKind::Join(_) => {
                let p = self.pipeline()?;
                let mid = p.intermediate_schema().ok()?;
                match &p.terminal {
                    Terminal::Collect | Terminal::SortPartition { .. } => Some(Emits::Rows(mid)),
                    Terminal::PartialAggregate { group_by, aggs } => Some(Emits::AggState {
                        keys: group_by
                            .iter()
                            .map(|(e, _)| e.data_type(&mid))
                            .collect::<std::result::Result<_, _>>()
                            .ok()?,
                        funcs: agg_func_types(aggs, &mid).ok()?,
                    }),
                    Terminal::HashPartition { .. }
                    | Terminal::PartitionedAggregate { .. }
                    | Terminal::Probe { .. } => None,
                }
            }
            StageKind::AggMerge(a) if carried => {
                let num_keys = a.agg_schema.len().saturating_sub(a.funcs.len());
                Some(Emits::AggState {
                    keys: a.agg_schema.fields[..num_keys].iter().map(|f| f.dtype).collect(),
                    funcs: a.funcs.clone(),
                })
            }
            StageKind::AggMerge(a) => Some(Emits::Rows(a.agg_schema.clone())),
            StageKind::Sort(s) => Some(Emits::Rows(s.schema.clone())),
        }
    }

    /// Human label carrying the stage's stable topo-ordered id:
    /// `scan:lineitem#0`, `join#2`, `semi-join#2`, `anti-join#2`,
    /// `left-join#2`, `agg#3`, `sort#4`. Join stages surface their
    /// [`JoinVariant`] so reports and the `cost_explorer` breakdown name
    /// the operator that actually ran.
    pub fn label(&self, id: usize) -> String {
        match self {
            StageKind::Scan(s) => format!("scan:{}#{id}", s.table),
            StageKind::Join(j) => format!("{}#{id}", j.variant.label()),
            StageKind::AggMerge(_) => format!("agg#{id}"),
            StageKind::Sort(_) => format!("sort#{id}"),
        }
    }
}

/// A distributed query: stages in topological order (the last stage feeds
/// the driver), connected by exchange edges, plus the driver-scope final
/// stage. Single-stage plans are just trivial DAGs — the scheduler treats
/// every shape, diamonds included, uniformly.
#[derive(Clone, Debug)]
pub struct QueryDag {
    pub stages: Vec<StageKind>,
    pub final_stage: FinalStage,
}

/// What a producer stage puts on its out-edge.
#[derive(Clone, Debug, PartialEq)]
pub enum Emits {
    /// Record batches of this schema.
    Rows(SchemaRef),
    /// Grouped partial-aggregate state: the group-key types and the
    /// accumulator shapes.
    AggState { keys: Vec<DataType>, funcs: Vec<(AggFunc, Option<DataType>)> },
}

/// What a reader says it reads; must agree with what its producer
/// [`Emits`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Declares<'a> {
    /// Record batches of this schema (a join side, a sort edge, the
    /// driver's collected batches).
    Rows(&'a SchemaRef),
    /// Aggregate state that finalizes into `agg_schema` (group keys ++
    /// one column per accumulator in `funcs`).
    AggState { agg_schema: &'a SchemaRef, funcs: &'a [(AggFunc, Option<DataType>)] },
}

/// The part a reader plays on the edge it reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReaderRole {
    JoinProbe,
    JoinBuild,
    AggInput,
    SortInput,
    /// The driver's [`FinalStage`], reading the last stage's reports.
    Final,
}

/// One reader of a producer's output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reader<'a> {
    /// DAG index of the reading stage; `None` for the driver.
    pub stage: Option<usize>,
    pub role: ReaderRole,
    pub declares: Declares<'a>,
}

/// The derived edge table of one [`QueryDag`]: per producer stage what
/// it emits and who reads it. Built by [`QueryDag::edges`].
#[derive(Clone, Debug)]
pub struct EdgeTable<'a> {
    pub dag: &'a QueryDag,
    /// Per stage: what it emits; `None` when its own pipeline is broken.
    pub emits: Vec<Option<Emits>>,
    /// Per stage: its readers, consumer stages in DAG order (a join's
    /// probe side before its build side), the driver last.
    pub readers: Vec<Vec<Reader<'a>>>,
}

impl QueryDag {
    /// Statically verify the plan against the operator contracts —
    /// topology, per-stage pipelines, and every edge of the
    /// [`EdgeTable`], the driver's included — via
    /// [`crate::verify::verify_dag`]. Fleet sizing is checked separately
    /// once the driver has planned worker counts
    /// ([`crate::verify::verify_fleets`]).
    pub fn validate(&self) -> Result<()> {
        crate::verify::checked_edges(self).map(|_| ()).map_err(CoreError::InvalidPlan)
    }

    /// Derive the edge table: the one place a per-producer reader list
    /// is built. Safe on any DAG — an input index outside the DAG has no
    /// producer to be listed under (the verifier reports it as
    /// `V-TOPO-001`).
    pub fn edges(&self) -> EdgeTable<'_> {
        let carried = matches!(self.final_stage, FinalStage::CarryAggState { .. });
        let last = self.stages.len().checked_sub(1);
        let emits = self
            .stages
            .iter()
            .enumerate()
            .map(|(sid, k)| k.emits(carried && Some(sid) == last))
            .collect();
        let mut readers: Vec<Vec<Reader<'_>>> = vec![Vec::new(); self.stages.len()];
        let mut read = |producer: usize, stage, role, declares| {
            if let Some(list) = readers.get_mut(producer) {
                list.push(Reader { stage, role, declares });
            }
        };
        for (sid, kind) in self.stages.iter().enumerate() {
            let by = Some(sid);
            match kind {
                StageKind::Scan(_) => {}
                StageKind::Join(j) => {
                    read(j.probe_input, by, ReaderRole::JoinProbe, Declares::Rows(&j.probe_schema));
                    read(j.build_input, by, ReaderRole::JoinBuild, Declares::Rows(&j.build_schema));
                }
                StageKind::AggMerge(a) => read(
                    a.input,
                    by,
                    ReaderRole::AggInput,
                    Declares::AggState { agg_schema: &a.agg_schema, funcs: &a.funcs },
                ),
                StageKind::Sort(s) => {
                    read(s.input, by, ReaderRole::SortInput, Declares::Rows(&s.schema));
                }
            }
        }
        let declares = match &self.final_stage {
            FinalStage::MergeAggregate { agg_schema, funcs, .. }
            | FinalStage::CarryAggState { agg_schema, funcs } => {
                Declares::AggState { agg_schema, funcs }
            }
            FinalStage::CollectBatches { schema, .. } => Declares::Rows(schema),
        };
        if let Some(last) = last {
            read(last, None, ReaderRole::Final, declares);
        }
        EdgeTable { dag: self, emits, readers }
    }
}

/// Split an *optimized* plan into a stage DAG with default options
/// (driver-side aggregate merging and sorting). Any tree of
/// `Scan | Filter | Project | Join | Aggregate(top) | Sort(top) | Limit(top)`
/// lowers — joins nest arbitrarily. An aggregate below a join is
/// `CoreError::Unsupported`, returned to the caller: no other engine runs it.
pub fn split(plan: &LogicalPlan) -> Result<QueryDag> {
    split_with(plan, &SplitOptions::default())
}

/// [`split`] with explicit planner options; see [`SplitOptions`].
///
/// In debug builds every emitted DAG is re-checked by the static plan
/// verifier — a lowering bug that breaks an operator contract fails loudly
/// here instead of burning invocations downstream.
pub fn split_with(plan: &LogicalPlan, opts: &SplitOptions) -> Result<QueryDag> {
    let dag = split_with_inner(plan, opts)?;
    debug_assert!(
        dag.validate().is_ok(),
        "split_with produced a DAG the plan verifier rejects: {:?}",
        dag.validate()
    );
    Ok(dag)
}

fn split_with_inner(plan: &LogicalPlan, opts: &SplitOptions) -> Result<QueryDag> {
    let mut post: Vec<PostOp> = Vec::new();
    let mut node = plan;
    // Peel driver-side post-ops.
    loop {
        match node {
            LogicalPlan::Sort { input, keys } => {
                post.push(PostOp::Sort(keys.clone()));
                node = input;
            }
            LogicalPlan::Limit { input, n } => {
                post.push(PostOp::Limit(*n));
                node = input;
            }
            LogicalPlan::Project { input, exprs }
                if matches!(input.as_ref(), LogicalPlan::Aggregate { .. }) =>
            {
                let schema = node.schema()?;
                post.push(PostOp::Project(exprs.clone(), schema));
                node = input;
            }
            _ => break,
        }
    }
    post.reverse(); // apply bottom-up

    // Schema of the rows the last fleet holds (under an aggregate, the
    // aggregate's output schema).
    let schema = node.schema()?;
    // The aggregate on top of the producer subtree, if any. A grouped
    // one repartitions through an agg-merge fleet under
    // `exchange_aggregates`; a global one always merges on the driver —
    // one group repartitions to one shard.
    let agg = match node {
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let mid_schema = input.schema()?;
            let funcs = agg_func_types(aggs, &mid_schema)?;
            Some((input.as_ref(), group_by, aggs, funcs))
        }
        _ => None,
    };
    let merge_fleet =
        matches!(&agg, Some((_, group_by, ..)) if opts.exchange_aggregates && !group_by.is_empty());
    // A trailing `ORDER BY [LIMIT]` (and nothing else) lowers into a
    // distributed sort stage when the sorted rows materialize
    // serverlessly. A driver-merged aggregate only materializes on the
    // driver, so its Sort/Limit stay driver post-ops. So does every
    // `ORDER BY` without `exchange_sorts`: the reporting workers then
    // keep their own top n under a LIMIT, and the driver merges them.
    let sort_spec = match post.as_slice() {
        _ if !opts.exchange_sorts || (agg.is_some() && !merge_fleet) => None,
        [PostOp::Sort(keys)] => Some((keys.clone(), None)),
        [PostOp::Sort(keys), PostOp::Limit(n)] => Some((keys.clone(), Some(*n))),
        _ => None,
    };
    let sort_or_driver =
        || if sort_spec.is_some() { StageOutput::SortExchange } else { StageOutput::Driver };

    // One sequence: producer [→ agg-merge] [→ sort] → final.
    let mut stages = Vec::new();
    let mut last = match &agg {
        Some((input, group_by, aggs, _)) => lower_stage(
            input,
            Terminal::PartialAggregate { group_by: (*group_by).clone(), aggs: (*aggs).clone() },
            if merge_fleet { StageOutput::AggExchange } else { StageOutput::Driver },
            &mut stages,
        )?,
        None => {
            // Feeding a sort fleet, the producer locally sorts and
            // truncates before it range-partitions.
            let terminal = match &sort_spec {
                Some((keys, limit)) => {
                    Terminal::SortPartition { keys: keys.clone(), limit: *limit }
                }
                None => Terminal::Collect,
            };
            lower_stage(node, terminal, sort_or_driver(), &mut stages)?
        }
    };
    if let Some((.., funcs)) = agg {
        if !merge_fleet {
            let final_stage = FinalStage::MergeAggregate { agg_schema: schema, funcs, post };
            return Ok(QueryDag { stages, final_stage });
        }
        // Repartitioned aggregation: an agg-merge fleet finalizes the
        // sharded grouped states; the driver only concatenates.
        stages.push(StageKind::AggMerge(AggMergeStage {
            input: last,
            agg_schema: schema.clone(),
            funcs,
            output: sort_or_driver(),
        }));
        last = stages.len() - 1;
    }
    if let Some((keys, limit)) = sort_spec {
        // The sort fleet totally orders the rows: only concatenation (and
        // the LIMIT's truncation) is left for the driver.
        stages.push(StageKind::Sort(SortStage {
            input: last,
            schema: schema.clone(),
            keys,
            limit,
        }));
        post = limit.map(PostOp::Limit).into_iter().collect();
    }
    Ok(QueryDag { stages, final_stage: FinalStage::CollectBatches { schema, post } })
}

/// Lower a subtree `[Project|Filter]* → (Scan | Join)` into the stage
/// whose pipeline ends in `terminal` and whose result leaves through
/// `output`, appending it (after its own input stages, for a join) in
/// topological order. Returns the stage's DAG index. A join input is just
/// the `(Collect, Exchange { keys })` case: a nested join's post-pipeline
/// rows leave through the hash exchange exactly like a scan's would, and
/// the driver swaps in `HashPartition` once the consumer fleet is sized.
fn lower_stage(
    node: &LogicalPlan,
    terminal: Terminal,
    output: StageOutput,
    stages: &mut Vec<StageKind>,
) -> Result<usize> {
    match peel_to_join(node)? {
        Some(join) => lower_join(join, terminal, output, stages),
        None => {
            stages.push(StageKind::Scan(lower_scan_stage(node, terminal, output)?));
            Ok(stages.len() - 1)
        }
    }
}

/// A join node with the `Project|Filter` chain above it folded, bottom-up,
/// into one `(predicates, projection)` pair over the join output.
struct PeeledJoin<'a> {
    left: &'a LogicalPlan,
    right: &'a LogicalPlan,
    on: &'a [(usize, usize)],
    variant: JoinVariant,
    predicates: Vec<Expr>,
    projection: Option<Vec<(Expr, String)>>,
}

/// Walk a `Project|Filter` chain down to the join it ends in; `None` when
/// it ends in anything else (a scan-rooted fragment). Stacked projections
/// compose only when the lower one is simple column references (which is
/// what the join reorderer emits); otherwise the plan is unsupported.
fn peel_to_join(node: &LogicalPlan) -> Result<Option<PeeledJoin<'_>>> {
    let unsupported = |what: &str| CoreError::Unsupported(what.to_string());
    Ok(Some(match node {
        LogicalPlan::Join { left, right, on, variant } => PeeledJoin {
            left,
            right,
            on,
            variant: *variant,
            predicates: Vec::new(),
            projection: None,
        },
        LogicalPlan::Filter { input, predicate } => {
            let Some(mut join) = peel_to_join(input)? else { return Ok(None) };
            join.predicates.push(match &join.projection {
                None => predicate.clone(),
                Some(exprs) => remap_through_simple(predicate, exprs).ok_or_else(|| {
                    unsupported("filter above a computed projection above a join")
                })?,
            });
            join
        }
        LogicalPlan::Project { input, exprs } => {
            let Some(mut join) = peel_to_join(input)? else { return Ok(None) };
            join.projection = Some(match &join.projection {
                None => exprs.clone(),
                Some(lower) => exprs
                    .iter()
                    .map(|(e, name)| {
                        let through = remap_through_simple(e, lower).ok_or_else(|| {
                            unsupported("stacked computed projections above a join")
                        })?;
                        Ok((through, name.clone()))
                    })
                    .collect::<Result<_>>()?,
            });
            join
        }
        _ => return Ok(None),
    }))
}

/// The partitioned hash-join lowering: the residual `Project|Filter`
/// nodes above the join become the join stage's post pipeline, and each
/// join input — scan or nested join — lowers into a stage feeding a
/// hash-partitioned exchange edge. `output` is where the join stage's
/// post pipeline sends its result. Returns the join stage's DAG index.
fn lower_join(
    join: PeeledJoin<'_>,
    terminal: Terminal,
    output: StageOutput,
    stages: &mut Vec<StageKind>,
) -> Result<usize> {
    let PeeledJoin { left, right, on, variant, predicates, projection } = join;
    let predicate = if predicates.is_empty() {
        None
    } else {
        Some(lambada_engine::optimizer::conjoin(predicates))
    };

    let probe_schema = left.schema()?;
    let build_schema = right.schema()?;
    let probe_keys: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    let build_keys: Vec<usize> = on.iter().map(|&(_, r)| r).collect();

    // The post pipeline's input is the variant's probe output: the
    // joined row `probe ++ build` for inner and left-outer joins, the
    // probe row alone for semi/anti joins.
    let mut joined_fields = probe_schema.fields.clone();
    if variant.keeps_build_columns() {
        joined_fields.extend(build_schema.fields.clone());
    }
    let post = PipelineSpec {
        input_schema: lambada_engine::Schema::arc(joined_fields),
        predicate,
        projection,
        terminal,
    };

    let probe_input = lower_stage(
        left,
        Terminal::Collect,
        StageOutput::Exchange { keys: probe_keys.clone() },
        stages,
    )?;
    let build_input = lower_stage(
        right,
        Terminal::Collect,
        StageOutput::Exchange { keys: build_keys.clone() },
        stages,
    )?;
    stages.push(StageKind::Join(JoinStage {
        probe_input,
        build_input,
        probe_schema,
        build_schema,
        probe_keys,
        build_keys,
        variant,
        post,
        output,
    }));
    Ok(stages.len() - 1)
}

/// Rewrite `expr`'s column references through a projection whose entries
/// must all be simple columns. Returns `None` when any referenced entry
/// is computed.
fn remap_through_simple(expr: &Expr, projection: &[(Expr, String)]) -> Option<Expr> {
    let refs = expr.referenced_columns();
    let mut mapping = std::collections::HashMap::new();
    for i in refs {
        match projection.get(i) {
            Some((Expr::Col(src), _)) => {
                mapping.insert(i, *src);
            }
            _ => return None,
        }
    }
    Some(expr.remap_columns(&|i| mapping[&i]))
}

/// Lower a scan-rooted fragment `[Project?] → Scan` (the optimizer has
/// already pushed filters into the scan) into one scan stage with the
/// given terminal and output, in one walk over the matched `Scan` node.
fn lower_scan_stage(
    node: &LogicalPlan,
    terminal: Terminal,
    output: StageOutput,
) -> Result<ScanStage> {
    // Optional projection between consumer and scan.
    let (projection_exprs, scan_node) = match node {
        LogicalPlan::Project { input, exprs } => (Some(exprs), input.as_ref()),
        other => (None, other),
    };
    let LogicalPlan::Scan { table, schema, projection, predicate } = scan_node else {
        return Err(CoreError::Unsupported(format!(
            "fragment input must be [Project →] Scan after optimization, got:\n{}",
            scan_node.display_indent()
        )));
    };
    let scan_schema = scan_node.schema()?;
    let scan_output_cols: Vec<usize> = match projection {
        Some(p) => p.clone(),
        None => (0..scan_schema.len()).collect(),
    };
    // The scan operator must also download predicate columns (for
    // row-level filtering in the pipeline): its columns are the union.
    let mut scan_columns = scan_output_cols.clone();
    if let Some(p) = predicate {
        scan_columns.extend(p.referenced_columns());
    }
    scan_columns.sort_unstable();
    scan_columns.dedup();
    // Base-schema column → position in the union; total over the scan's
    // output columns and the predicate's columns by construction.
    let union_pos: std::collections::HashMap<usize, usize> =
        scan_columns.iter().enumerate().map(|(pos, &base)| (base, pos)).collect();

    // Pipeline projection: plan projection exprs (remapped from scan
    // output positions to union positions), or a plain column selection
    // when the union is wider than the scan output.
    let pipeline_projection = match projection_exprs {
        Some(exprs) => Some(
            exprs
                .iter()
                .map(|(e, n)| (e.remap_columns(&|i| union_pos[&scan_output_cols[i]]), n.clone()))
                .collect(),
        ),
        None if scan_columns == scan_output_cols => None,
        None => Some(
            scan_output_cols
                .iter()
                .zip(scan_schema.fields.iter())
                .map(|(base, f)| (Expr::Col(union_pos[base]), f.name.clone()))
                .collect(),
        ),
    };
    let pipeline = PipelineSpec {
        input_schema: std::sync::Arc::new(schema.project(&scan_columns)),
        predicate: predicate.as_ref().map(|p| p.remap_columns(&|base| union_pos[&base])),
        projection: pipeline_projection,
        terminal,
    };
    Ok(ScanStage {
        table: table.clone(),
        scan_columns,
        prune_predicate: predicate.clone(),
        pipeline,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambada_engine::expr::{col, lit_i64};
    use lambada_engine::types::{Field, Schema};
    use lambada_engine::{AggExpr as A, Optimizer};

    fn base_schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("g", DataType::Int64),
            Field::new("d", DataType::Int64),
        ])
    }

    fn scan(table: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.to_string(),
            schema: Schema::arc(base_schema().fields),
            projection: None,
            predicate: None,
        }
    }

    fn q1ish() -> LogicalPlan {
        // SELECT g, sum(b) FROM t WHERE d <= 10 GROUP BY g ORDER BY g
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan("t")),
                    predicate: col(3).le(lit_i64(10)),
                }),
                group_by: vec![(col(2), "g".to_string())],
                aggs: vec![A::new(AggFunc::Sum, Some(col(1)), "sum_b")],
            }),
            keys: vec![SortKey::asc(col(0))],
        };
        Optimizer::new().optimize(&plan).unwrap()
    }

    #[test]
    fn splits_aggregate_query() {
        let dag = split(&q1ish()).unwrap();
        assert_eq!(dag.stages.len(), 1);
        dag.validate().unwrap();
        let StageKind::Scan(stage) = &dag.stages[0] else {
            panic!("expected scan stage");
        };
        assert_eq!(stage.table, "t");
        // Union of projection {b, g} and predicate {d}.
        assert_eq!(stage.scan_columns, vec![1, 2, 3]);
        assert_eq!(stage.prune_predicate, Some(col(3).le(lit_i64(10))));
        // Pipeline predicate remapped to union positions (d is #2).
        assert_eq!(stage.pipeline.predicate, Some(col(2).le(lit_i64(10))));
        assert!(matches!(stage.output, StageOutput::Driver));
        let FinalStage::MergeAggregate { agg_schema, funcs, post } = &dag.final_stage else {
            panic!("expected aggregate final stage");
        };
        assert_eq!(agg_schema.len(), 2);
        assert_eq!(funcs.len(), 1);
        assert_eq!(post.len(), 1, "sort survives as a post-op");
    }

    #[test]
    fn collect_fragment_for_filter_only_query() {
        let plan =
            LogicalPlan::Filter { input: Box::new(scan("t")), predicate: col(0).le(lit_i64(3)) };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let dag = split(&plan).unwrap();
        assert_eq!(dag.stages.len(), 1);
        let StageKind::Scan(stage) = &dag.stages[0] else {
            panic!("expected scan stage");
        };
        assert!(matches!(dag.final_stage, FinalStage::CollectBatches { .. }));
        assert!(matches!(stage.pipeline.terminal, Terminal::Collect));
    }

    #[test]
    fn join_splits_into_three_stage_dag() {
        // SELECT * FROM t JOIN u ON t.a = u.g WHERE t.d <= 10
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("t")),
                right: Box::new(scan("u")),
                on: vec![(0, 2)],
                variant: JoinVariant::Inner,
            }),
            predicate: col(3).le(lit_i64(10)),
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let dag = split(&plan).unwrap();
        assert_eq!(dag.stages.len(), 3);
        dag.validate().unwrap();
        let StageKind::Scan(probe) = &dag.stages[0] else { panic!("probe scan") };
        let StageKind::Scan(build) = &dag.stages[1] else { panic!("build scan") };
        let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
        // The join reorderer put the filtered (smaller-estimated) side on
        // the build side; the restoring projection lands in the join
        // stage's post pipeline.
        assert_eq!(probe.table, "u");
        assert_eq!(build.table, "t");
        assert!(join.post.projection.is_some(), "column order restored after the swap");
        let StageOutput::Exchange { keys } = &probe.output else {
            panic!("probe feeds the exchange");
        };
        assert_eq!(keys, &join.probe_keys);
        assert_eq!(join.probe_input, 0);
        assert_eq!(join.build_input, 1);
        // Pushed-down filter reached the build scan, not the join stage.
        assert!(build.prune_predicate.is_some());
        assert!(join.post.predicate.is_none());
        assert!(matches!(join.post.terminal, Terminal::Collect));
        assert!(matches!(dag.final_stage, FinalStage::CollectBatches { .. }));
    }

    #[test]
    fn aggregate_over_join_lands_in_join_stage() {
        // SELECT t.g, sum(u.b) FROM t JOIN u ON t.a = u.a GROUP BY t.g
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("t")),
                right: Box::new(scan("u")),
                on: vec![(0, 0)],
                variant: JoinVariant::Inner,
            }),
            group_by: vec![(col(2), "g".to_string())],
            aggs: vec![A::new(AggFunc::Sum, Some(col(5)), "sum_ub")],
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let dag = split(&plan).unwrap();
        assert_eq!(dag.stages.len(), 3);
        let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
        assert!(matches!(join.post.terminal, Terminal::PartialAggregate { .. }));
        assert!(matches!(dag.final_stage, FinalStage::MergeAggregate { .. }));
        // Both scans pruned to what the join + aggregate need.
        let StageKind::Scan(probe) = &dag.stages[0] else { panic!() };
        let StageKind::Scan(build) = &dag.stages[1] else { panic!() };
        assert_eq!(probe.scan_columns, vec![0, 2], "key + group column");
        assert_eq!(build.scan_columns, vec![0, 1], "key + agg argument");
        // Keys are expressed in the pruned (intermediate) schemas.
        assert_eq!(join.probe_keys, vec![0]);
        assert_eq!(join.build_keys, vec![0]);
    }

    #[test]
    fn cross_side_residual_stays_in_join_stage() {
        // WHERE t.b < u.b cannot be pushed to either side.
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("t")),
                right: Box::new(scan("u")),
                on: vec![(0, 0)],
                variant: JoinVariant::Inner,
            }),
            predicate: col(1).lt(col(5)),
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let dag = split(&plan).unwrap();
        let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
        assert!(join.post.predicate.is_some(), "residual predicate kept for the join stage");
    }

    #[test]
    fn exchange_planned_aggregate_splits_into_scan_exchange_merge() {
        let opts = SplitOptions { exchange_aggregates: true, ..SplitOptions::default() };
        let dag = split_with(&q1ish(), &opts).unwrap();
        assert_eq!(dag.stages.len(), 2);
        dag.validate().unwrap();
        let StageKind::Scan(scan) = &dag.stages[0] else { panic!("scan stage") };
        // The scan keeps its partial-aggregation terminal (the driver
        // swaps in the partitioned variant) but feeds the agg exchange.
        assert!(matches!(scan.pipeline.terminal, Terminal::PartialAggregate { .. }));
        assert!(matches!(scan.output, StageOutput::AggExchange));
        let StageKind::AggMerge(merge) = &dag.stages[1] else { panic!("agg-merge stage") };
        assert_eq!(merge.input, 0);
        assert_eq!(merge.agg_schema.len(), 2);
        assert_eq!(merge.funcs.len(), 1);
        assert!(matches!(merge.output, StageOutput::Driver));
        // The driver-side merge path is gone: the final stage only
        // concatenates finalized partition batches.
        let FinalStage::CollectBatches { schema, post } = &dag.final_stage else {
            panic!("expected collect final stage, not a driver merge");
        };
        assert_eq!(schema.len(), 2);
        assert_eq!(post.len(), 1, "sort survives as a post-op");
    }

    #[test]
    fn exchange_planned_aggregate_over_join_appends_merge_stage() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("t")),
                right: Box::new(scan("u")),
                on: vec![(0, 0)],
                variant: JoinVariant::Inner,
            }),
            group_by: vec![(col(2), "g".to_string())],
            aggs: vec![A::new(AggFunc::Sum, Some(col(5)), "sum_ub")],
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let opts = SplitOptions { exchange_aggregates: true, ..SplitOptions::default() };
        let dag = split_with(&plan, &opts).unwrap();
        assert_eq!(dag.stages.len(), 4);
        let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
        assert!(matches!(join.post.terminal, Terminal::PartialAggregate { .. }));
        assert!(matches!(join.output, StageOutput::AggExchange));
        let StageKind::AggMerge(merge) = &dag.stages[3] else { panic!("agg-merge stage") };
        assert_eq!(merge.input, 2, "merge fleet consumes the join stage's shards");
        assert!(matches!(dag.final_stage, FinalStage::CollectBatches { .. }));
    }

    #[test]
    fn global_aggregate_stays_on_the_driver_even_with_exchange_aggregates() {
        // SELECT sum(b) FROM t — one group, nothing to repartition.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan("t")),
            group_by: vec![],
            aggs: vec![A::new(AggFunc::Sum, Some(col(1)), "sum_b")],
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let opts = SplitOptions { exchange_aggregates: true, ..SplitOptions::default() };
        let dag = split_with(&plan, &opts).unwrap();
        assert_eq!(dag.stages.len(), 1);
        assert!(matches!(dag.final_stage, FinalStage::MergeAggregate { .. }));
    }

    fn three_way_join() -> LogicalPlan {
        // (t ⋈ u) ⋈ v — the shape the old fixed matcher rejected.
        let inner = LogicalPlan::Join {
            left: Box::new(scan("t")),
            right: Box::new(scan("u")),
            on: vec![(0, 0)],
            variant: JoinVariant::Inner,
        };
        LogicalPlan::Join {
            left: Box::new(inner),
            right: Box::new(scan("v")),
            on: vec![(2, 0)],
            variant: JoinVariant::Inner,
        }
    }

    #[test]
    fn nested_joins_lower_to_a_five_stage_dag() {
        let dag = split(&three_way_join()).unwrap();
        assert_eq!(dag.stages.len(), 5);
        dag.validate().unwrap();
        // Topological order: inner join's scans, inner join, outer
        // build scan, outer join.
        let StageKind::Join(inner) = &dag.stages[2] else { panic!("inner join at 2") };
        let StageKind::Join(outer) = &dag.stages[4] else { panic!("outer join last") };
        assert_eq!((inner.probe_input, inner.build_input), (0, 1));
        assert_eq!((outer.probe_input, outer.build_input), (2, 3));
        // The inner join's rows leave on a hash-partitioned row exchange
        // keyed by the outer join's probe keys.
        let StageOutput::Exchange { keys } = &inner.output else {
            panic!("inner join feeds a row exchange");
        };
        assert_eq!(keys, &outer.probe_keys);
        assert_eq!(outer.probe_keys, vec![2]);
        assert!(matches!(inner.post.terminal, Terminal::Collect));
        assert!(matches!(outer.output, StageOutput::Driver));
        // The inner join's output schema (t ++ u) is the outer probe side.
        assert_eq!(outer.probe_schema.len(), 8);
        assert_eq!(outer.build_schema.len(), 4);
        // Labels carry stable topo ids.
        let labels: Vec<String> = dag.stages.iter().enumerate().map(|(i, s)| s.label(i)).collect();
        assert_eq!(labels, ["scan:t#0", "scan:u#1", "join#2", "scan:v#3", "join#4"]);
    }

    #[test]
    fn join_depth_three_lowers() {
        // ((t ⋈ u) ⋈ v) ⋈ w: seven stages, joins at 2, 4, 6.
        let plan = LogicalPlan::Join {
            left: Box::new(three_way_join()),
            right: Box::new(scan("w")),
            on: vec![(0, 0)],
            variant: JoinVariant::Inner,
        };
        let dag = split(&plan).unwrap();
        assert_eq!(dag.stages.len(), 7);
        dag.validate().unwrap();
        assert!(matches!(&dag.stages[6], StageKind::Join(j)
            if j.probe_input == 4 && j.build_input == 5));
    }

    #[test]
    fn aggregate_over_nested_join_repartitions_from_the_outer_join() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(three_way_join()),
            group_by: vec![(col(2), "g".to_string())],
            aggs: vec![A::new(AggFunc::Sum, Some(col(1)), "s")],
        };
        let opts = SplitOptions { exchange_aggregates: true, ..SplitOptions::default() };
        let dag = split_with(&plan, &opts).unwrap();
        assert_eq!(dag.stages.len(), 6);
        dag.validate().unwrap();
        let StageKind::Join(outer) = &dag.stages[4] else { panic!("outer join") };
        assert!(matches!(outer.output, StageOutput::AggExchange));
        let StageKind::AggMerge(merge) = &dag.stages[5] else { panic!("merge fleet") };
        assert_eq!(merge.input, 4);
    }

    #[test]
    fn semi_join_lowers_with_probe_only_post_schema() {
        // SELECT g, count(*) FROM t SEMI JOIN u ON t.a = u.g GROUP BY g
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan("t")),
                right: Box::new(scan("u")),
                on: vec![(0, 2)],
                variant: JoinVariant::Semi,
            }),
            group_by: vec![(col(2), "g".to_string())],
            aggs: vec![A::new(AggFunc::Count, None, "n")],
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let dag = split(&plan).unwrap();
        assert_eq!(dag.stages.len(), 3);
        dag.validate().unwrap();
        let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
        assert_eq!(join.variant, JoinVariant::Semi);
        // The post pipeline consumes the probe rows alone, and the build
        // scan was pruned to its key column.
        assert_eq!(join.post.input_schema.len(), join.probe_schema.len());
        let StageKind::Scan(build) = &dag.stages[1] else { panic!("build scan") };
        assert_eq!(build.scan_columns, vec![2], "build side: key only");
        assert!(matches!(join.post.terminal, Terminal::PartialAggregate { .. }));
        // The label carries the variant.
        assert_eq!(dag.stages[2].label(2), "semi-join#2");
    }

    #[test]
    fn variant_labels_surface_in_stage_labels() {
        for (variant, want) in [
            (JoinVariant::Anti, "anti-join#2"),
            (JoinVariant::LeftOuter, "left-join#2"),
            (JoinVariant::Inner, "join#2"),
        ] {
            let plan = LogicalPlan::Join {
                left: Box::new(scan("t")),
                right: Box::new(scan("u")),
                on: vec![(0, 0)],
                variant,
            };
            let dag = split(&plan).unwrap();
            dag.validate().unwrap();
            let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
            assert_eq!(join.variant, variant);
            assert_eq!(dag.stages[2].label(2), want);
            // Output width follows the variant.
            let want_width = if variant.keeps_build_columns() { 8 } else { 4 };
            assert_eq!(join.post.input_schema.len(), want_width);
        }
    }

    #[test]
    fn semi_join_feeding_agg_and_sort_lowers_fully_serverless() {
        // Semi join → repartitioned aggregation → distributed sort: the
        // nested-variant composition of the tentpole.
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Aggregate {
                    input: Box::new(LogicalPlan::Join {
                        left: Box::new(scan("t")),
                        right: Box::new(scan("u")),
                        on: vec![(0, 2)],
                        variant: JoinVariant::Semi,
                    }),
                    group_by: vec![(col(2), "g".to_string())],
                    aggs: vec![A::new(AggFunc::Count, None, "n")],
                }),
                keys: vec![SortKey::asc(col(0))],
            }),
            n: 5,
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let opts = SplitOptions { exchange_aggregates: true, exchange_sorts: true };
        let dag = split_with(&plan, &opts).unwrap();
        dag.validate().unwrap();
        let labels: Vec<String> = dag.stages.iter().enumerate().map(|(i, s)| s.label(i)).collect();
        assert_eq!(labels, ["scan:t#0", "scan:u#1", "semi-join#2", "agg#3", "sort#4"]);
        let StageKind::Join(join) = &dag.stages[2] else { panic!("join stage") };
        assert!(matches!(join.output, StageOutput::AggExchange));
    }

    #[test]
    fn trailing_sort_limit_lowers_to_a_sort_stage() {
        // SELECT * FROM t WHERE a <= 3 ORDER BY b DESC LIMIT 5
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Filter {
                    input: Box::new(scan("t")),
                    predicate: col(0).le(lit_i64(3)),
                }),
                keys: vec![SortKey::desc(col(1))],
            }),
            n: 5,
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let opts = SplitOptions { exchange_sorts: true, ..SplitOptions::default() };
        let dag = split_with(&plan, &opts).unwrap();
        assert_eq!(dag.stages.len(), 2);
        dag.validate().unwrap();
        let StageKind::Scan(producer) = &dag.stages[0] else { panic!("scan stage") };
        assert!(matches!(producer.output, StageOutput::SortExchange));
        let Terminal::SortPartition { keys, limit } = &producer.pipeline.terminal else {
            panic!("producer locally sorts + truncates");
        };
        assert_eq!(keys.len(), 1);
        assert_eq!(*limit, Some(5), "limit pushed into the producer");
        let StageKind::Sort(sort) = &dag.stages[1] else { panic!("sort stage") };
        assert_eq!(sort.input, 0);
        assert_eq!(sort.limit, Some(5));
        // The driver only concatenates + truncates; no Sort post-op left.
        let FinalStage::CollectBatches { post, .. } = &dag.final_stage else {
            panic!("collect final stage");
        };
        assert_eq!(post.len(), 1);
        assert!(matches!(post[0], PostOp::Limit(5)));
    }

    #[test]
    fn exchange_agg_with_trailing_sort_appends_merge_and_sort_stages() {
        // Q5-ish shape: agg over a join, ORDER BY + LIMIT on top, both
        // exchange options on — the whole query runs serverlessly.
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Aggregate {
                    input: Box::new(LogicalPlan::Join {
                        left: Box::new(scan("t")),
                        right: Box::new(scan("u")),
                        on: vec![(0, 0)],
                        variant: JoinVariant::Inner,
                    }),
                    group_by: vec![(col(2), "g".to_string())],
                    aggs: vec![A::new(AggFunc::Sum, Some(col(5)), "s")],
                }),
                keys: vec![SortKey::desc(col(1))],
            }),
            n: 3,
        };
        let plan = Optimizer::new().optimize(&plan).unwrap();
        let opts = SplitOptions { exchange_aggregates: true, exchange_sorts: true };
        let dag = split_with(&plan, &opts).unwrap();
        assert_eq!(dag.stages.len(), 5, "scan, scan, join, agg-merge, sort");
        dag.validate().unwrap();
        let StageKind::AggMerge(merge) = &dag.stages[3] else { panic!("merge fleet") };
        assert!(matches!(merge.output, StageOutput::SortExchange));
        let StageKind::Sort(sort) = &dag.stages[4] else { panic!("sort fleet") };
        assert_eq!(sort.input, 3);
        assert_eq!(sort.schema.len(), 2, "sorts the finalized groups");
        let FinalStage::CollectBatches { post, .. } = &dag.final_stage else {
            panic!("concatenate only");
        };
        assert!(matches!(post.as_slice(), [PostOp::Limit(3)]));
    }

    #[test]
    fn driver_merged_aggregate_keeps_the_sort_on_the_driver() {
        // Without exchange_aggregates the aggregate only materializes on
        // the driver — a sort stage has nothing serverless to sort.
        let opts = SplitOptions { exchange_sorts: true, ..SplitOptions::default() };
        let dag = split_with(&q1ish(), &opts).unwrap();
        assert_eq!(dag.stages.len(), 1);
        let FinalStage::MergeAggregate { post, .. } = &dag.final_stage else {
            panic!("driver merge");
        };
        assert!(matches!(post.as_slice(), [PostOp::Sort(_)]));
    }

    #[test]
    fn distinct_lowers_through_the_agg_machinery() {
        let plan = lambada_engine::Df::from_plan(scan("t")).unwrap().distinct().unwrap().build();
        let plan = Optimizer::new().optimize(&plan).unwrap();
        // Driver merge: a single partial-aggregate fragment.
        let dag = split(&plan).unwrap();
        assert_eq!(dag.stages.len(), 1);
        let FinalStage::MergeAggregate { funcs, agg_schema, .. } = &dag.final_stage else {
            panic!("distinct merges like a group-by");
        };
        assert!(funcs.is_empty(), "no aggregates, just distinct keys");
        assert_eq!(agg_schema.len(), 4);
        // Exchange mode: scan shards distinct keys into a merge fleet.
        let opts = SplitOptions { exchange_aggregates: true, ..SplitOptions::default() };
        let dag = split_with(&plan, &opts).unwrap();
        assert_eq!(dag.stages.len(), 2);
        assert!(matches!(&dag.stages[1], StageKind::AggMerge(m) if m.funcs.is_empty()));
    }

    #[test]
    fn validate_rejects_malformed_dags() {
        let ok = split(&three_way_join()).unwrap();
        // Reverse the stage order: inputs now point forward.
        let mut backwards = ok.clone();
        backwards.stages.reverse();
        assert!(backwards.validate().is_err());
        // A non-final stage claiming driver output.
        let mut wrong_output = ok;
        let last = wrong_output.stages.len() - 1;
        if let StageKind::Join(j) = &mut wrong_output.stages[last] {
            j.output = StageOutput::Exchange { keys: vec![0] };
        }
        assert!(wrong_output.validate().is_err());
    }

    // ---- the edge table, on hand-built DAGs ----

    use crate::verify::test_dags::{
        agg_merge, agg_scan, collect_scan, diamond_dag, join_stage, scan_sort_dag, schema,
        sum_by_c0, sum_funcs, sum_schema,
    };

    fn rows<'a>(stage: Option<usize>, role: ReaderRole, schema: &'a SchemaRef) -> Reader<'a> {
        Reader { stage, role, declares: Declares::Rows(schema) }
    }

    #[test]
    fn edge_table_of_a_diamond_lists_both_joins_on_the_shared_scan() {
        use ReaderRole::{Final, JoinBuild, JoinProbe};
        let dag = diamond_dag();
        let edges = dag.edges();
        let s2 = schema(2);
        assert_eq!(
            edges.readers,
            vec![
                // One scan read by two joins, each on both sides.
                vec![
                    rows(Some(1), JoinProbe, &s2),
                    rows(Some(1), JoinBuild, &s2),
                    rows(Some(2), JoinProbe, &s2),
                    rows(Some(2), JoinBuild, &s2),
                ],
                vec![rows(Some(3), JoinProbe, &s2)],
                vec![rows(Some(3), JoinBuild, &s2)],
                vec![rows(None, Final, &s2)],
            ]
        );
        assert_eq!(edges.emits, vec![Some(Emits::Rows(s2.clone())); 4]);
    }

    #[test]
    fn edge_table_of_scan_to_sort_marks_the_sort_barrier() {
        let dag = scan_sort_dag();
        let edges = dag.edges();
        let s2 = schema(2);
        assert_eq!(
            edges.readers,
            vec![
                vec![rows(Some(1), ReaderRole::SortInput, &s2)],
                vec![rows(None, ReaderRole::Final, &s2)],
            ]
        );
        // A locally sorted run is still rows of the pipeline's schema.
        assert_eq!(edges.emits, vec![Some(Emits::Rows(s2.clone())); 2]);
    }

    #[test]
    fn edge_table_of_join_agg_merge_sort_switches_from_state_to_rows() {
        let mut join = join_stage(0, 1, StageOutput::AggExchange);
        if let StageKind::Join(j) = &mut join {
            j.post.terminal = sum_by_c0();
        }
        let agg_schema = sum_schema(DataType::Int64);
        let dag = QueryDag {
            stages: vec![
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                collect_scan(StageOutput::Exchange { keys: vec![0] }),
                join,
                agg_merge(2, StageOutput::SortExchange),
                StageKind::Sort(SortStage {
                    input: 3,
                    schema: agg_schema.clone(),
                    keys: vec![SortKey::asc(col(0))],
                    limit: Some(3),
                }),
            ],
            final_stage: FinalStage::CollectBatches { schema: agg_schema.clone(), post: vec![] },
        };
        dag.validate().unwrap();
        let edges = dag.edges();
        let (s2, funcs) = (schema(2), sum_funcs());
        assert_eq!(
            edges.readers,
            vec![
                vec![rows(Some(2), ReaderRole::JoinProbe, &s2)],
                vec![rows(Some(2), ReaderRole::JoinBuild, &s2)],
                vec![Reader {
                    stage: Some(3),
                    role: ReaderRole::AggInput,
                    declares: Declares::AggState { agg_schema: &agg_schema, funcs: &funcs },
                }],
                vec![rows(Some(4), ReaderRole::SortInput, &agg_schema)],
                vec![rows(None, ReaderRole::Final, &agg_schema)],
            ]
        );
        assert_eq!(
            edges.emits,
            vec![
                Some(Emits::Rows(s2.clone())),
                Some(Emits::Rows(s2.clone())),
                // The join ships grouped state; the merge fleet finalizes
                // it into rows, which the sort fleet passes on.
                Some(Emits::AggState { keys: vec![DataType::Int64], funcs: funcs.clone() }),
                Some(Emits::Rows(agg_schema.clone())),
                Some(Emits::Rows(agg_schema.clone())),
            ]
        );
    }

    #[test]
    fn edge_table_under_a_carry_final_keeps_the_last_stage_unfinalized() {
        let (agg_schema, funcs) = (sum_schema(DataType::Int64), sum_funcs());
        let carry =
            FinalStage::CarryAggState { agg_schema: agg_schema.clone(), funcs: funcs.clone() };
        let state = Some(Emits::AggState { keys: vec![DataType::Int64], funcs: funcs.clone() });
        let driver = Reader {
            stage: None,
            role: ReaderRole::Final,
            declares: Declares::AggState { agg_schema: &agg_schema, funcs: &funcs },
        };
        // Scan-rooted: the scan's partial state goes straight to the driver.
        let dag =
            QueryDag { stages: vec![agg_scan(StageOutput::Driver)], final_stage: carry.clone() };
        let edges = dag.edges();
        assert_eq!(edges.readers, vec![vec![driver]]);
        assert_eq!(edges.emits, vec![state.clone()]);
        // Merge-rooted: the merge fleet re-emits state instead of rows —
        // only under a carry final, and only as the last stage.
        let stages = vec![agg_scan(StageOutput::AggExchange), agg_merge(0, StageOutput::Driver)];
        let dag = QueryDag { stages: stages.clone(), final_stage: carry };
        assert_eq!(dag.edges().emits, vec![state.clone(), state.clone()]);
        assert_eq!(dag.edges().readers[1], vec![driver]);
        let collect = FinalStage::CollectBatches { schema: agg_schema.clone(), post: vec![] };
        let dag = QueryDag { stages, final_stage: collect };
        assert_eq!(dag.edges().emits, vec![state, Some(Emits::Rows(agg_schema.clone()))]);
    }

    #[test]
    fn edge_table_never_panics_on_a_malformed_dag() {
        // No stages: no driver reader to attach. An input outside the DAG:
        // no producer to list the reader under.
        let mut dag = scan_sort_dag();
        if let StageKind::Sort(s) = &mut dag.stages[1] {
            s.input = 7;
        }
        let edges = dag.edges();
        assert_eq!(edges.readers, vec![vec![], vec![rows(None, ReaderRole::Final, &schema(2))]]);
        assert!(dag.validate().is_err());
        dag.stages.clear();
        assert!(dag.edges().readers.is_empty());
        assert!(dag.validate().is_err());
    }
}
