//! The Lambada driver: runs on the data scientist's machine, invokes the
//! serverless workers, and collects their results from the result queue
//! (§3.1/§3.3). Nothing here is "always on" — every run pays only for the
//! requests and worker-seconds it uses.
//!
//! Queries execute as a stage DAG under an *event-driven stage
//! scheduler*: every stage gets its own concurrently spawned fleet
//! future, which sleeps on a shared [`StageBoard`] until the stage's
//! *own* inputs have completed — so it never idles behind an unrelated
//! topological level-mate — then admits, invokes, and collects its
//! fleet, writing its output onto an exchange edge for consumer fleets
//! (join, agg-merge, sort workers) to pick up. The driver is the one
//! place that decides which copy of a producer's output a consumer
//! reads: it keeps the first report per worker, every report carries
//! the worker's section table, and each consumer worker's payload
//! carries the exact attempt, offset, length and wire of its section
//! from every sender ([`crate::transport::SectionAddr`]). A consumer
//! therefore fetches its inputs without a LIST, a poll or a wait. A
//! sender under its edge's inline budget ([`LaunchPlan::inline_budgets`])
//! reports its sections themselves, and the driver hands each consumer
//! its slices in the payload: no request at either end. A sort edge is
//! no exception: its producers cut their sorted runs into blocks and
//! report the blocks' first keys, from which the driver picks the range
//! boundaries and addresses each sorter to the blocks that can hold its
//! range (`section_tables`). The scheduler is shape-agnostic: a
//! single-fragment Q1 is just a one-stage DAG, a
//! five-way join tree or a diamond runs through exactly the same loop,
//! and speculation, fleet sizing, and [`StageReport`]s apply to every
//! stage uniformly. Per-stage worker counts, queue-wait vs execution time,
//! and exact request counters are reported in [`QueryReport::stages`].
//!
//! Everything about the fleets that can be known before the first
//! invocation is fixed once per `(dag, fleet_cap)`, in
//! [`Lambada::launch_plan`]: the DAG is verified, then one pass over the
//! stages yields each stage's pin, byte estimate and fleet size (scans
//! by their file sizes, consumer fleets by their pin or else the compute
//! cost model), and the DAG's edge table ([`crate::stage::EdgeTable`]) turns
//! those into every out-edge's partition count and sort-edge spec, and
//! marks the edges that are *fused*. The fleet verifier, the p2p
//! registration, the stage-task builder and the service's admission
//! estimate all take that [`LaunchPlan`]; none of them sizes or wires
//! anything again.
//!
//! A stage boundary costs something only where rows change workers. An
//! edge from a one-worker fleet into a one-worker consumer that alone
//! reads it is an identity, so it may be fused ([`LaunchPlan::fused`]):
//! the consumer runs inside its *host*, the producer's invocation, and a
//! chain of such stages (Q12's orders scan → join → agg → sort) is one
//! fleet future, one invocation, one result message — with one
//! [`StageReport`] per stage all the same. A member that reads other
//! edges (the join) gets their addresses through its inbox while the
//! host runs; a host that waits past its priced bound ships its part
//! after all, and the rest of the chain launches as a fleet of its own.
//! Results ride that message when they are small
//! ([`crate::message::INLINE_RESULT_BYTES`]); the driver fetches the
//! stored rest concurrently. Collection keeps a few result-queue long
//! polls in flight, one more than the missing reports need, and handles
//! each as it completes, so a stage ends when its last report arrives,
//! not when the slowest poll times out or a fresh poll reaches the queue.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use lambada_engine::agg::GroupedAggState;
use lambada_engine::logical::LogicalPlan;
use lambada_engine::physical::{
    agg_state_to_batch, cmp_key_rows, project_batch, range_boundaries, range_partition_of,
    sort_batch, truncate_rows,
};
use lambada_engine::pipeline::Terminal;
use lambada_engine::{Column, DataType, Df, Optimizer, RecordBatch, Scalar};
use lambada_sim::services::object_store::Bytes;
use lambada_sim::sync::{select2, Either};
use lambada_sim::{BillingSnapshot, Cloud};

use crate::costmodel::ComputeCostModel;
use crate::error::{CoreError, Result};
use crate::exchange::{install_exchange_buckets, ExchangeConfig, ExchangeSide};
use crate::invoke::{self, invoke_workers};
use crate::message::{
    encode_in_edges, ResultPayload, Section, Wire, WorkerMetrics, WorkerResult, SQS_MESSAGE_BYTES,
};
use crate::scan::ScanConfig;
use crate::sched::StageBoard;
use crate::service::{ServiceConfig, WorkerGate};
use crate::stage::{
    self, EdgeTable, FinalStage, PostOp, QueryDag, Reader, ReaderRole, SplitOptions, StageKind,
    StageOutput,
};
use crate::table::TableSpec;
use crate::transport::{address_sections, EdgeTransport, InEdge, TransportKind, ADDRESS_BYTES};
use crate::verify;
use crate::worker::{
    edge_bytes, register_worker_function, EdgeRead, FusedStage, ReportTop, ScanOp, SortEdgeSpec,
    StageOp, StageSink, StageTask, WorkerPayload, WorkerTask,
};

/// How grouped aggregates are finalized.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum AggStrategy {
    /// Workers report partial states to the driver, which merges and
    /// finalizes them (§3.2's scatter-gather shape) — right for
    /// low-cardinality group-bys like Q1's four groups, where shipping
    /// states through the exchange would cost more than it saves.
    #[default]
    DriverMerge,
    /// Repartitioned aggregation: producers shard their grouped partial
    /// states by group-key hash over the exchange and a dedicated
    /// serverless fleet merges + finalizes each disjoint partition, so
    /// the driver only concatenates finished batches — high-cardinality
    /// group-bys stop being O(groups × workers) on the client. `workers`
    /// fixes the merge-fleet size (= shard count); `None` lets the
    /// compute cost model size it.
    Exchange { workers: Option<usize> },
}

/// How trailing `ORDER BY [LIMIT]` clauses are executed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum SortStrategy {
    /// The driver sorts the collected result — right for the small
    /// results of driver-merged aggregates, where a sort fleet would only
    /// add a wave. Under a `LIMIT n`, each worker that reports rows keeps
    /// its own stable top n first ([`crate::worker::ReportTop`]), so the
    /// driver merges at most workers × n rows.
    #[default]
    Driver,
    /// Distributed range-partitioned sort: producers locally sort (and
    /// top-k-truncate) their rows and ship them, cut into blocks, to a
    /// dedicated sort fleet; the driver picks the range boundaries from
    /// the blocks' first keys, every sorter keeps and sorts its range,
    /// and the driver only concatenates the fleet's pre-sorted runs in
    /// partition order. `workers` fixes the sort-fleet size (= range
    /// count); `None` lets the compute cost model size it.
    Exchange { workers: Option<usize> },
}

/// System configuration fixed at installation time (§2.1's "installation").
#[derive(Clone, Debug)]
pub struct LambadaConfig {
    pub function_name: String,
    /// Worker memory size M (the knob of Fig 10).
    pub memory_mib: u32,
    pub timeout: Duration,
    /// Fixed files per scan worker F; the worker count is then
    /// `ceil(#files / F)` (§5.2). `None` derives each scan's chunks from
    /// its file sizes: latency-bound files are packed a round of
    /// connections to a worker ([`Lambada::launch_plan`]).
    pub files_per_worker: Option<usize>,
    pub scan: ScanConfig,
    pub costs: ComputeCostModel,
    /// Give up waiting for workers after this long.
    pub max_wait: Duration,
    /// Bucket for collect-fragment outputs.
    pub result_bucket: String,
    /// Exchange-edge configuration for multi-stage (join) queries.
    pub exchange: ExchangeConfig,
    /// Fixed join-fleet size (= exchange partition count). `None` lets
    /// the compute cost model size the fleet from the estimated
    /// exchanged bytes and the worker memory budget.
    pub join_workers: Option<usize>,
    /// Where grouped aggregates are merged and finalized.
    pub agg: AggStrategy,
    /// Where trailing sorts run.
    pub sort: SortStrategy,
    /// Which wire stage edges run on: the paper's object-store shuffle
    /// (default) or direct worker-to-worker streaming with object-store
    /// fallback.
    pub transport: TransportKind,
    /// Speculative re-invocation of straggling workers: once 70% of a
    /// fleet has reported and twice their median span has passed, the
    /// driver re-invokes every worker still missing, once each. The
    /// first result per `worker_id` wins, and its section table is the
    /// one consumers are addressed from. Off by default.
    pub speculate: bool,
    /// Multi-tenant query service layer (admission control, per-tenant
    /// budgets, global in-flight worker cap). Only consulted by
    /// [`crate::service::QueryService`]; plain [`Lambada::run_query`]
    /// calls ignore it.
    pub service: ServiceConfig,
}

impl Default for LambadaConfig {
    fn default() -> Self {
        LambadaConfig {
            function_name: "lambada-worker".to_string(),
            memory_mib: 2048,
            timeout: Duration::from_secs(300),
            files_per_worker: None,
            scan: ScanConfig::default(),
            costs: ComputeCostModel::default(),
            max_wait: Duration::from_secs(900),
            result_bucket: "lambada-results".to_string(),
            exchange: ExchangeConfig::default(),
            join_workers: None,
            agg: AggStrategy::DriverMerge,
            sort: SortStrategy::Driver,
            transport: TransportKind::default(),
            speculate: false,
            service: ServiceConfig::default(),
        }
    }
}

/// Scheduling constraints one query executes under. Plain
/// [`Lambada::run_dag`] calls use the default (no gate, no cap, the
/// `"local"` tenant); the query service builds one per admitted query.
#[derive(Clone, Default)]
pub struct ExecPolicy {
    /// Global in-flight worker gate shared across concurrent queries; a
    /// stage's fleet acquires permits before invoking and releases them
    /// once collected.
    pub gate: Option<WorkerGate>,
    /// Cap on cost-model-sized fleets (contention shrinking). Fleets the
    /// installation pins explicitly stay pinned.
    pub fleet_cap: Option<usize>,
    /// Tenant the query is billed to (`None` ⇒ `"local"`).
    pub tenant: Option<String>,
    /// Submission time; `span_secs` then includes admission queueing.
    pub submitted: Option<lambada_sim::SimTime>,
    /// Per-query transport override (`None` ⇒ the installation's
    /// [`LambadaConfig::transport`]).
    pub transport: Option<TransportKind>,
}

/// Per-stage execution summary of one query.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Stable topologically ordered stage id within the DAG (also the
    /// exchange-channel suffix `s{id}` of the stage's output edge).
    pub id: usize,
    /// Human label carrying the id: `scan:lineitem#0`, `join#2`,
    /// `agg#3`, `sort#4`.
    pub label: String,
    pub workers: usize,
    /// Id of the stage whose invocations ran this one: `id` itself, or
    /// the head of the fused chain this stage ran in (see
    /// [`LaunchPlan::fused`]) — or, after its host fell back, the stage
    /// the rest of the chain launched at. A fused stage shares its
    /// head's launch, timing and billing window, and launches no
    /// invocation of its own.
    pub chain: usize,
    /// Virtual seconds from the stage's enqueue (query start) to its
    /// last worker report: `queue_wait_secs + exec_secs`.
    pub wall_secs: f64,
    /// Virtual seconds the stage spent waiting before launch: sleeping
    /// on its launch plan's wait events (dependency readiness) plus
    /// queueing on the shared worker gate.
    pub queue_wait_secs: f64,
    /// Virtual seconds from fleet launch (gate admitted, invocation
    /// begins) to the last worker report.
    pub exec_secs: f64,
    /// Billed virtual seconds this stage's workers spent blocked in
    /// exchange discovery polls, summed over the fleet: 0, since the
    /// driver addresses every stage edge.
    pub exchange_wait_secs: f64,
    /// Billing delta over this stage's execution window. Stages launch
    /// concurrently and their windows overlap, so summing this field
    /// across stages over-counts; use the per-stage request counters
    /// below for exact attribution.
    pub cost: BillingSnapshot,
    /// Rows produced by the stage (exchanged or reported).
    pub rows_out: u64,
    /// Bytes this stage's workers moved onto exchange edges (scan stages
    /// of a join; zero for stages that report to the driver).
    pub bytes_exchanged: u64,
    /// Exact S3 request counts summed over this stage's workers: table
    /// scans + exchange reads, and the driver's reads of their stored
    /// results (GET), exchange writes + result uploads (PUT), and LISTs —
    /// 0, since the driver addresses every stage edge.
    pub get_requests: u64,
    pub put_requests: u64,
    pub list_requests: u64,
    /// The duplicates those GETs and PUTs sent when they ran past their
    /// hedge deadline (the object store's module docs), billed beside
    /// them: a closed form's counts are the two above, the bill is both.
    pub hedged_gets: u64,
    pub hedged_puts: u64,
    /// Messages this stage's workers moved over the p2p relay (always 0
    /// on the object-store transport; excluded from [`QueryReport::s3_requests`]).
    pub p2p_requests: u64,
    /// Speculative backup invocations this stage's fleet needed (0 when
    /// no worker straggled past the speculation thresholds).
    pub backup_invocations: u64,
}

impl StageReport {
    /// Dollar cost of this stage's S3 requests (exact, per worker
    /// accounting — unlike [`StageReport::cost`], safe to sum).
    pub fn request_dollars(&self, prices: &lambada_sim::Prices) -> f64 {
        (self.get_requests + self.hedged_gets) as f64 * prices.s3_get
            + (self.put_requests + self.hedged_puts) as f64 * prices.s3_put
            + self.list_requests as f64 * prices.s3_list
    }

    /// Every S3 request this stage was billed: GET, PUT and LIST, with
    /// their hedges.
    pub fn s3_requests(&self) -> u64 {
        self.get_requests
            + self.hedged_gets
            + self.put_requests
            + self.hedged_puts
            + self.list_requests
    }
}

/// Report of one query execution.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The query result.
    pub batch: RecordBatch,
    /// Tenant the query ran for (`"local"` outside the query service).
    pub tenant: String,
    /// Driver-assigned query id (the `q{id}` of the query's exchange
    /// channels and result queues) — what [`crate::worker::inject_query_worker_faults`]
    /// matches on.
    pub query_id: u64,
    /// End-to-end latency in (virtual) seconds: invocation + work +
    /// result collection (§5.1's measurement definition).
    pub latency_secs: f64,
    /// Submission → completion span in (virtual) seconds. Equals
    /// `latency_secs` for direct `run_dag` calls; under the query service
    /// it additionally counts time queued in admission control.
    pub span_secs: f64,
    /// Seconds spent in driver-side invocation calls, summed over stages.
    pub invoke_secs: f64,
    /// Billing delta over this query's execution window. Exact when the
    /// query ran alone; under the concurrent query service the window
    /// also bills neighbors' requests, so per-tenant accounting uses the
    /// exact per-stage request counters ([`QueryReport::request_dollars`])
    /// instead.
    pub cost: BillingSnapshot,
    /// Worker invocations launched across all stages: one per fleet
    /// slot, except that a fused chain of one-worker stages runs in one
    /// invocation. (`Σ stages[i].workers` minus the fused edges that
    /// held — a host that fell back launched one more; speculative
    /// backups are counted separately.)
    pub workers: usize,
    pub cold_starts: u64,
    pub worker_metrics: Vec<WorkerMetrics>,
    /// One entry per executed stage, in launch order.
    pub stages: Vec<StageReport>,
    /// Merged-but-unfinalized aggregate state, present exactly when the
    /// DAG's final stage is [`FinalStage::CarryAggState`] (the wire
    /// encoding of [`lambada_engine::GroupedAggState`]; `batch` is empty
    /// then). The streaming runtime merges it into the window state it
    /// carries across micro-batches.
    pub agg_state: Option<Vec<u8>>,
}

impl QueryReport {
    pub fn dollars(&self) -> f64 {
        self.cost.total()
    }

    /// Total speculative backup invocations across all stages.
    pub fn backup_invocations(&self) -> u64 {
        self.stages.iter().map(|s| s.backup_invocations).sum()
    }

    /// Exact S3 request count across all stages (GET + PUT + LIST and
    /// their hedges, from the per-worker counters — safe to sum across
    /// concurrent queries).
    pub fn s3_requests(&self) -> u64 {
        self.stages.iter().map(StageReport::s3_requests).sum()
    }

    /// Messages moved over the p2p relay across all stages (0 on the
    /// object-store transport).
    pub fn p2p_requests(&self) -> u64 {
        self.stages.iter().map(|s| s.p2p_requests).sum()
    }

    /// Worker invocations this query paid for: one per fleet slot — a
    /// fused chain being one — plus the speculative backups.
    pub fn invocations(&self) -> u64 {
        self.workers as u64 + self.backup_invocations()
    }

    /// Requests the query is charged for under per-tenant budget
    /// accounting: exact S3 requests plus worker invocations. Unlike
    /// [`QueryReport::cost`], attribution stays exact when queries run
    /// concurrently.
    pub fn request_count(&self) -> u64 {
        self.s3_requests() + self.invocations()
    }

    /// Dollar cost of [`QueryReport::request_count`] at the given prices
    /// — the request-$ drawn against a tenant's budget.
    pub fn request_dollars(&self, prices: &lambada_sim::Prices) -> f64 {
        self.stages.iter().map(|s| s.request_dollars(prices)).sum::<f64>()
            + self.invocations() as f64 * prices.lambda_request
    }
}

/// A Lambada installation bound to one simulated cloud.
pub struct Lambada {
    cloud: Cloud,
    config: LambadaConfig,
    /// Registered tables. Interior-mutable so long-lived shared handles
    /// (the query service holds the installation in an `Rc`) can
    /// register/unregister the short-lived per-micro-batch tables the
    /// streaming runtime stages.
    tables: std::cell::RefCell<HashMap<String, Rc<TableSpec>>>,
    query_seq: std::cell::Cell<u64>,
    /// Process-unique installation id, namespacing exchange-edge keys so
    /// several installations (or re-installs) on one cloud never collide.
    instance: u64,
}

static INSTANCE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Scope guard for a query's inboxes: dropping it (query finished,
/// successfully or not) deletes every one, so no query leaks a queue.
struct QueueGuard {
    sqs: lambada_sim::services::queue::QueueService,
    names: Vec<String>,
}

impl Drop for QueueGuard {
    fn drop(&mut self) {
        for name in &self.names {
            self.sqs.delete_queue(name);
        }
    }
}

/// Scope guard for the p2p endpoints a direct-transport query registers:
/// dropping it (query finished, successfully or not) deregisters every
/// endpoint under the query's key prefix so the rendezvous service never
/// accumulates dead mailboxes across queries.
struct P2pGuard {
    p2p: lambada_sim::P2pService,
    prefix: String,
}

impl Drop for P2pGuard {
    fn drop(&mut self) {
        self.p2p.deregister_prefix(&self.prefix);
    }
}

/// Everything about a query's fleets that is fixed before the first
/// invocation, for one `(dag, fleet_cap)`: the DAG's [`EdgeTable`] plus,
/// per stage, the installation's pin, the fleet size, the partition count of its out-edge, whether that edge is
/// fused and — for a stage feeding a sort fleet — the sort-edge spec.
/// Built by
/// [`Lambada::launch_plan`]; the fleet verifier, the p2p registration,
/// the stage-task builder and the service's admission estimate all read
/// it.
pub struct LaunchPlan<'a> {
    pub edges: EdgeTable<'a>,
    /// The installation's fixed fleet size (`join_workers`, the
    /// `workers` of [`AggStrategy::Exchange`] / [`SortStrategy::Exchange`]);
    /// `None` for scans and for consumers the cost model sizes.
    pub pins: Vec<Option<usize>>,
    /// Fleet size.
    pub workers: Vec<usize>,
    /// How many ways the stage shards its output: its consumers' fleet
    /// size, 0 for the driver-bound last stage.
    pub partitions: Vec<usize>,
    /// `Some` exactly for a stage one of whose readers is a sort stage:
    /// the keys, limit and schema its fleet ships its runs with.
    pub sort_edges: Vec<Option<SortEdgeSpec>>,
    /// Whether the stage's out-edge is *fused*: the stage is its reader's
    /// *host*. Both run on one worker, the reader is the edge's only one,
    /// and the reader runs inside the host's invocation on the parts the
    /// host hands on — no exchange objects, requests, invocation or
    /// result message for the edge. A reader with other in-edges gets
    /// their addresses through its inbox while the host runs.
    pub fused: Vec<bool>,
    /// How many encoded bytes each sender of the stage's out-edge may
    /// ship inline: its [`crate::transport::inline_budget`] among every
    /// sender of all the reader's in-edges — its
    /// [`crate::transport::block_budget`] on a sort edge — the smallest
    /// over its readers. `u64::MAX` for the driver-bound last stage,
    /// which ships nothing.
    pub inline_budgets: Vec<u64>,
    /// For scan stages, the scanned table and each worker's run of its
    /// files.
    pub scans: Vec<Option<ScanFleet>>,
}

/// A scan stage's table and, by worker id, each worker's run of its files.
pub type ScanFleet = (Rc<TableSpec>, Vec<Range<usize>>);

impl<'a> LaunchPlan<'a> {
    /// Wire sized fleets to the edges: every out-edge's partition count,
    /// sort-edge spec and fusion follow from its readers' fleet sizes.
    /// Taking the last reader is exact on every plan that is used:
    /// [`crate::verify::verify_fleets`], run on the wired plan, holds
    /// every consumer of a shared edge to one fleet size (`V-FLEET-004`),
    /// and the edge pass a producer to at most one sort reader
    /// (`V-EXCH-003`).
    ///
    /// Fusion: a one-worker consumer runs in the invocation of its *host*,
    /// the one-worker producer whose out-edge it alone reads with the
    /// deepest chain — ties go to the larger byte estimate `est`, then to
    /// the lower stage id. The deepest chain is the one likely to finish
    /// last, so the consumer's other inputs have most time to complete
    /// before the host needs them. A chain launches when its head may,
    /// and a member's other in-edges reach it through its inbox.
    pub fn wire(
        edges: EdgeTable<'a>,
        pins: Vec<Option<usize>>,
        workers: Vec<usize>,
        est: &[u64],
        scans: Vec<Option<ScanFleet>>,
    ) -> LaunchPlan<'a> {
        let n = workers.len();
        let mut partitions = vec![0; n];
        let mut sort_edges = vec![None; n];
        let mut inline_budgets = vec![u64::MAX; n];
        for (pid, readers) in edges.readers.iter().enumerate() {
            for reader in readers {
                let Some(consumer) = reader.stage else { continue };
                partitions[pid] = workers[consumer];
                let senders = edges.dag.stages[consumer].inputs().iter().map(|&i| workers[i]).sum();
                let mut share = crate::transport::inline_budget(senders, workers[consumer]);
                if let (ReaderRole::SortInput, StageKind::Sort(s)) =
                    (reader.role, &edges.dag.stages[consumer])
                {
                    let keys = s.keys.len();
                    share = crate::transport::block_budget(senders, workers[consumer], keys);
                    sort_edges[pid] = Some(SortEdgeSpec {
                        keys: s.keys.clone(),
                        limit: s.limit,
                        schema: s.schema.clone(),
                    });
                }
                inline_budgets[pid] = inline_budgets[pid].min(share);
            }
        }
        // Stages are in topological order, so every input's chain depth
        // is final before its reader picks a host.
        let (mut fused, mut depth) = (vec![false; n], vec![1usize; n]);
        for c in (0..n).filter(|&c| workers[c] == 1) {
            let sole_reader = |p: &usize| match edges.readers[*p][..] {
                [Reader { stage: Some(r), .. }] => r == c,
                _ => false,
            };
            let inputs = edges.dag.stages[c].inputs();
            let candidates = inputs.into_iter().filter(|&p| workers[p] == 1).filter(sole_reader);
            let host = candidates.max_by_key(|&p| (depth[p], est.get(p).copied(), Reverse(p)));
            if let Some(p) = host {
                fused[p] = true;
                depth[c] = depth[p] + 1;
            }
        }
        LaunchPlan { edges, pins, workers, partitions, sort_edges, fused, inline_budgets, scans }
    }

    /// The stage that reads `sid`'s fused out-edge, if it is fused.
    pub(crate) fn fused_into(&self, sid: usize) -> Option<usize> {
        match self.edges.readers[sid][..] {
            [Reader { stage: Some(c), .. }] if self.fused[sid] => Some(c),
            _ => None,
        }
    }

    /// Whether `sid` runs after its host but reads other edges too: its
    /// host's invocation waits for their addresses in `sid`'s inbox.
    pub(crate) fn waits(&self, sid: usize) -> bool {
        !self.is_chain_head(sid) && self.edges.dag.stages[sid].inputs().len() > 1
    }

    /// Whether `sid` runs in an invocation of its own fleet — it is no
    /// fused edge's reader — rather than after its host.
    pub(crate) fn is_chain_head(&self, sid: usize) -> bool {
        !self.edges.dag.stages[sid].inputs().iter().any(|&p| self.fused[p])
    }

    /// The stages one invocation of `head`'s fleet runs: `head`, then
    /// every stage fused after it, in order — each the host of the next.
    pub(crate) fn chain(&self, head: usize) -> Vec<usize> {
        std::iter::successors(Some(head), |&sid| self.fused_into(sid)).collect()
    }
}

/// Result of one fleet launch: the collected worker reports plus timing.
struct StageRun {
    /// The stages its invocations ran: a chain head, or the member a host
    /// fell back at, then the members fused after it that ran.
    chain: Vec<usize>,
    results: Vec<WorkerResult>,
    workers: usize,
    invoke_secs: f64,
    /// Enqueue → launch: board waits plus gate queueing.
    queue_wait_secs: f64,
    /// Launch → last worker report.
    exec_secs: f64,
    cost: BillingSnapshot,
    backup_invocations: u64,
}

impl Lambada {
    /// Install the system: register the worker function and create the
    /// result + exchange buckets. Only serverless resources — nothing
    /// keeps running between queries.
    pub fn install(cloud: &Cloud, config: LambadaConfig) -> Lambada {
        register_worker_function(
            cloud,
            &config.function_name,
            config.memory_mib,
            config.timeout,
            config.costs,
        );
        cloud.s3.create_bucket(&config.result_bucket);
        install_exchange_buckets(cloud, &config.exchange);
        Lambada {
            cloud: cloud.clone(),
            config,
            tables: std::cell::RefCell::new(HashMap::new()),
            query_seq: std::cell::Cell::new(0),
            instance: INSTANCE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    pub fn config(&self) -> &LambadaConfig {
        &self.config
    }

    pub fn cloud(&self) -> &Cloud {
        &self.cloud
    }

    pub fn register_table(&mut self, spec: TableSpec) {
        self.register_table_shared(spec);
    }

    /// Register a table through a shared (`&self`) handle — how the
    /// streaming runtime registers each micro-batch's staged table on the
    /// installation the query service holds in an `Rc`.
    pub fn register_table_shared(&self, spec: TableSpec) {
        self.tables.borrow_mut().insert(spec.name.clone(), Rc::new(spec));
    }

    /// Drop a registered table (the files it points to are untouched).
    pub fn unregister_table(&self, name: &str) {
        self.tables.borrow_mut().remove(name);
    }

    pub fn table(&self, name: &str) -> Option<TableSpec> {
        self.tables.borrow().get(name).map(|spec| TableSpec::clone(spec))
    }

    /// Build a [`Df`] over a registered table.
    pub fn from_table(&self, name: &str) -> Result<Df> {
        let tables = self.tables.borrow();
        let spec = tables.get(name).ok_or_else(|| unknown_table(name))?;
        Ok(Df::scan(name, &spec.schema))
    }

    fn table_spec(&self, name: &str) -> Result<Rc<TableSpec>> {
        self.tables.borrow().get(name).cloned().ok_or_else(|| unknown_table(name))
    }

    /// Optimize and lower a logical plan into this installation's stage
    /// DAG without executing it — what [`Lambada::run_query`] does before
    /// dispatch, and what the query service plans at submission time.
    pub fn plan(&self, plan: &LogicalPlan) -> Result<QueryDag> {
        let hints: HashMap<String, u64> =
            self.tables.borrow().iter().map(|(k, v)| (k.clone(), v.total_rows)).collect();
        let optimized = Optimizer::with_row_hints(hints).optimize(plan)?;
        let opts = SplitOptions {
            exchange_aggregates: matches!(self.config.agg, AggStrategy::Exchange { .. }),
            exchange_sorts: matches!(self.config.sort, SortStrategy::Exchange { .. }),
        };
        stage::split_with(&optimized, &opts)
    }

    /// Statically verify a DAG against this installation without
    /// executing anything: the structural operator contracts
    /// ([`crate::verify::verify_dag`]) plus the fleet plan the driver
    /// would launch ([`crate::verify::verify_fleets`]). Returns
    /// [`CoreError::InvalidPlan`] carrying every violated contract. The
    /// query service runs this before admission reserves tenant budget.
    pub fn verify_plan(&self, dag: &QueryDag) -> Result<()> {
        self.launch_plan(dag, None).map(|_| ())
    }

    /// Verify `dag` and fix everything about its fleets that is known
    /// before the first invocation — the [`LaunchPlan`]: the structural
    /// contracts first ([`crate::verify::checked_edges`]), then one
    /// sizing pass over the stages, then the sizing invariants
    /// ([`crate::verify::verify_fleets`]: nonzero consumer fleets, model
    /// bounds, pins, shared-edge agreement). Every consumer fleet's size
    /// doubles as the partition count of the exchange edges feeding it,
    /// so fixing all sizes up front is what lets independent stages
    /// launch together: a producer can shard its output for a consumer
    /// fleet that does not exist yet.
    ///
    /// Sizing: a scan fleet follows its file sizes — a worker per
    /// connections' round of latency-bound files, one per larger file — or
    /// is `ceil(#files / F)` under a pinned F (§5.2); a consumer fleet
    /// (join, agg-merge, sort) is sized per stage by
    /// [`ComputeCostModel::consumer_workers`] from the bytes it takes in —
    /// a join's two inputs together, an agg-merge fleet's states, a sort's
    /// input — the resource-allocation trade-off of Kassing et al.
    /// applied at every level of the DAG, unless the installation pins
    /// it. `fleet_cap` (contention shrinking under the query service)
    /// clamps model-sized fleets and scan fleets; explicitly pinned
    /// fleets stay pinned. The byte estimates run bottom-up: table bytes
    /// scaled by the fraction of surviving columns for scans, the
    /// variant-aware [`ComputeCostModel::join_output_bytes`] for joins, an
    /// 8:1 pre-aggregation compaction for agg-merge fleets, pass-through
    /// for sorts.
    pub fn launch_plan<'a>(
        &self,
        dag: &'a QueryDag,
        fleet_cap: Option<usize>,
    ) -> Result<LaunchPlan<'a>> {
        let edges = verify::checked_edges(dag).map_err(CoreError::InvalidPlan)?;
        let costs = &self.config.costs;
        let budget = u64::from(self.config.memory_mib) * 1024 * 1024;
        let packing = match self.config.files_per_worker {
            Some(f) => Packing::Pinned(f),
            None => Packing::BySize {
                latency_bound: crate::scan::latency_bound_bytes(
                    &self.config.scan,
                    &self.cloud.config,
                ),
                connections: self.config.scan.connections,
            },
        };
        // Pinned fleets stay pinned; model-sized ones shrink to the cap.
        let sized = |pin: Option<usize>, model: usize| match (pin, fleet_cap) {
            (Some(pinned), _) => pinned.max(1),
            (None, Some(cap)) => model.min(cap.max(1)).max(1),
            (None, None) => model,
        };
        let n = dag.stages.len();
        let mut pins = Vec::with_capacity(n);
        let mut est: Vec<u64> = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        let mut scans = Vec::with_capacity(n);
        for kind in &dag.stages {
            let (pin, bytes, fleet, scan) = match kind {
                StageKind::Scan(scan) => {
                    let table = self.table_spec(&scan.table)?;
                    let chunks = scan_chunks(&table.files, packing, fleet_cap);
                    // Crude column-selectivity estimate: exchanged bytes
                    // scale with the fraction of columns that survive.
                    let frac = scan.scan_columns.len() as f64 / table.schema.len().max(1) as f64;
                    let bytes = (table.total_bytes() as f64 * frac) as u64;
                    (None, bytes, chunks.len(), Some((table, chunks)))
                }
                StageKind::Join(j) => {
                    let (probe, build) = (est[j.probe_input], est[j.build_input]);
                    let pin = self.config.join_workers;
                    let bytes = costs.join_output_bytes(j.variant, probe, build);
                    let fleet =
                        sized(pin, costs.consumer_workers(probe.saturating_add(build), budget));
                    (pin, bytes, fleet, None)
                }
                StageKind::AggMerge(a) => {
                    let pin = match self.config.agg {
                        AggStrategy::Exchange { workers } => workers,
                        AggStrategy::DriverMerge => None,
                    };
                    let states = est[a.input] / 8;
                    (pin, states, sized(pin, costs.consumer_workers(states, budget)), None)
                }
                StageKind::Sort(s) => {
                    let pin = match self.config.sort {
                        SortStrategy::Exchange { workers } => workers,
                        SortStrategy::Driver => None,
                    };
                    let input = est[s.input];
                    (pin, input, sized(pin, costs.consumer_workers(input, budget)), None)
                }
            };
            pins.push(pin);
            est.push(bytes);
            workers.push(fleet);
            scans.push(scan);
        }
        let launch = LaunchPlan::wire(edges, pins, workers, &est, scans);
        let mut diags = verify::verify_fleets(&launch.edges, &launch.workers, &launch.pins);
        diags.extend(verify::verify_fused(&launch.edges, &launch.workers, &launch.fused));
        if diags.is_empty() {
            Ok(launch)
        } else {
            Err(CoreError::InvalidPlan(diags))
        }
    }

    /// Optimize and execute a query across serverless workers.
    pub async fn run_query(&self, plan: &LogicalPlan) -> Result<QueryReport> {
        let dag = self.plan(plan)?;
        self.run_dag(&dag).await
    }

    /// Execute a stage DAG across serverless workers — the event-driven
    /// stage scheduler. Public so tests (and adventurous callers) can run
    /// hand-built DAG shapes, diamonds included, that the planner does
    /// not emit.
    pub async fn run_dag(&self, dag: &QueryDag) -> Result<QueryReport> {
        self.run_dag_with(dag, &ExecPolicy::default()).await
    }

    /// [`Lambada::run_dag`] under an explicit [`ExecPolicy`]: the same
    /// event-driven scheduler, but fleets are clamped to the policy's cap
    /// and gated through its shared worker gate. The query service runs
    /// every admitted query through here; several `run_dag_with` futures
    /// for one installation interleave freely — exchange channels and
    /// result queues are already namespaced by query id.
    pub async fn run_dag_with(&self, dag: &QueryDag, policy: &ExecPolicy) -> Result<QueryReport> {
        // Structure, fleet sizes and the sizing invariants, all before a
        // single worker is invoked.
        let launch = self.launch_plan(dag, policy.fleet_cap)?;
        let qid = self.query_seq.get();
        self.query_seq.set(qid + 1);

        let start = self.cloud.handle.now();
        let cost_before = self.cloud.billing.snapshot();

        // The wire every stage edge of this query runs on. On the direct
        // transport, the driver registers all consumer endpoints with the
        // rendezvous service *now* — the launch plan fixed every fleet
        // size, so the address book is complete before the first producer
        // launches even though consumer fleets launch later. Registration
        // failures (capacity) are fine: senders fall back to the object
        // store for unregistered endpoints. A sort edge has no endpoint —
        // blocks are not receivers — and neither has a fused edge, unless
        // its reader waits: then the host may ship its part after all.
        let transport_kind = policy.transport.unwrap_or(self.config.transport);
        let transport = Rc::new(EdgeTransport::new(
            self.config.exchange.clone(),
            ExchangeSide::new(),
            (transport_kind == TransportKind::Direct).then(|| self.cloud.p2p.clone()),
        ));
        let _p2p_guard = (transport_kind == TransportKind::Direct).then(|| {
            for (sid, &parts) in launch.partitions.iter().enumerate() {
                let handed = launch.fused_into(sid).is_some_and(|c| !launch.waits(c));
                if handed || launch.sort_edges[sid].is_some() {
                    continue;
                }
                let channel = self.channel(qid, sid);
                for r in 0..parts {
                    self.cloud.p2p.register(&format!("{channel}/r{r}"));
                }
            }
            P2pGuard { p2p: self.cloud.p2p.clone(), prefix: format!("x{}/q{qid}/", self.instance) }
        });

        // Build every stage's task, consumers first so a host can link
        // the stage it hands its part to, before anything launches: a
        // planning failure must surface before the first invocation.
        // Edge addresses are the one per-worker part known only at
        // launch: the fleet fills them in.
        let n = dag.stages.len();
        let mut tasks: Vec<Rc<StageTask>> = Vec::with_capacity(n); // stage n - 1 first
        for sid in (0..n).rev() {
            let fused_into = launch.fused_into(sid).map(|c| FusedStage {
                label: format!(
                    "{} (fused after {})",
                    dag.stages[c].label(c),
                    dag.stages[sid].label(sid)
                ),
                task: Rc::clone(&tasks[n - 1 - c]),
                slot: dag.stages[c].inputs().iter().position(|&i| i == sid).unwrap_or_default(),
                inbox: launch.waits(c).then(|| self.inbox(qid, c)),
            });
            tasks.push(Rc::new(self.stage_task(qid, sid, &launch, &transport, fused_into)?));
        }
        tasks.reverse();
        // Every waiting stage's inbox exists before its host launches and
        // is deleted when the query ends, however it ends.
        let inboxes = QueueGuard {
            sqs: self.cloud.sqs.clone(),
            names: (0..n)
                .filter(|&sid| launch.waits(sid))
                .map(|sid| self.inbox(qid, sid))
                .collect(),
        };
        for inbox in &inboxes.names {
            self.cloud.sqs.create_queue(inbox);
        }

        // One concurrently spawned fleet future per chain head, sequenced
        // by the shared board: each future sleeps until its head's inputs
        // have completed, addresses its workers' reads from their
        // producers' section tables, admits its whole fleet through the
        // gate, invokes, feeds its members' inboxes, and collects.
        let board = Rc::new(StageBoard::new(dag));
        let heads: Vec<usize> = (0..n).filter(|&sid| launch.is_chain_head(sid)).collect();
        let mut handles = Vec::with_capacity(heads.len());
        for &head in &heads {
            let chain = launch.chain(head).into_iter().map(|sid| Member {
                sid,
                task: Rc::clone(&tasks[sid]),
                receivers: launch.partitions[sid],
                sort: launch.sort_edges[sid].clone(),
                inbox: launch.waits(sid).then(|| self.inbox(qid, sid)),
            });
            let fleet = Fleet {
                query: qid,
                queues: format!("lambada-results-x{}-q{qid}", self.instance),
                workers: launch.workers[head],
                chain: chain.collect(),
            };
            handles.push(self.cloud.handle.spawn(run_fleet(
                self.cloud.clone(),
                self.config.clone(),
                policy.gate.clone(),
                Rc::clone(&board),
                fleet,
            )));
        }
        // On failure the board's failed flag stands the unlaunched
        // fleets down (they resolve to `None`), so this join always
        // drains; the lowest-numbered failing chain head — the most
        // upstream, usually the root cause — wins error reporting.
        let outcomes = lambada_sim::sync::join_all(handles).await;
        drop(inboxes);
        if let Some(e) = outcomes.iter().find_map(|o| o.as_ref().err()) {
            return Err(e.clone());
        }
        let mut runs: Vec<Option<StageRun>> = (0..n).map(|_| None).collect();
        let mut results: Vec<Vec<WorkerResult>> = vec![Vec::new(); n];
        let mut chain_of = vec![0; n];
        let (mut invoke_secs, mut workers_total) = (0.0, 0);
        for (&head, outcome) in heads.iter().zip(outcomes) {
            for mut run in outcome?.ok_or_else(|| never_ran(head))? {
                invoke_secs += run.invoke_secs;
                workers_total += run.workers;
                // Every worker's report splits into one per stage it ran.
                let ran = std::mem::take(&mut run.chain);
                let first = ran.first().copied().unwrap_or(head);
                for &sid in &ran {
                    chain_of[sid] = first;
                }
                for r in std::mem::take(&mut run.results) {
                    let split = r.split_fused();
                    if split.len() != ran.len() {
                        return Err(CoreError::Engine(format!(
                            "a worker of stage {first} reported {} stages of its {}",
                            split.len(),
                            ran.len()
                        )));
                    }
                    for (&sid, r) in ran.iter().zip(split) {
                        results[sid].push(r);
                    }
                }
                runs[first] = Some(run);
            }
        }

        let mut stage_reports: Vec<StageReport> = Vec::with_capacity(n);
        let mut all_metrics: Vec<WorkerMetrics> = Vec::new();
        let mut cold_starts = 0u64;
        for (sid, kind) in dag.stages.iter().enumerate() {
            let head = chain_of[sid];
            let run = runs[head].as_ref().ok_or_else(|| never_ran(sid))?;
            let reports = &results[sid];
            let sum = |f: fn(&WorkerMetrics) -> u64| reports.iter().map(|r| f(&r.metrics)).sum();
            cold_starts += reports.iter().filter(|r| r.metrics.cold_start).count() as u64;
            all_metrics.extend(reports.iter().map(|r| r.metrics));
            stage_reports.push(StageReport {
                id: sid,
                label: kind.label(sid),
                workers: launch.workers[sid],
                chain: head,
                wall_secs: run.queue_wait_secs + run.exec_secs,
                queue_wait_secs: run.queue_wait_secs,
                exec_secs: run.exec_secs,
                exchange_wait_secs: reports.iter().map(|r| r.metrics.exchange_wait_secs).sum(),
                cost: run.cost,
                rows_out: reports
                    .iter()
                    .map(|r| match &r.outcome {
                        Ok(ResultPayload::Exchanged { rows, .. })
                        | Ok(ResultPayload::Sections { rows, .. })
                        | Ok(ResultPayload::Stored { rows, .. })
                        | Ok(ResultPayload::InlineBatches { rows, .. }) => *rows,
                        _ => r.metrics.rows_out,
                    })
                    .sum(),
                bytes_exchanged: reports
                    .iter()
                    .map(|r| match &r.outcome {
                        Ok(ResultPayload::Exchanged { bytes, .. })
                        | Ok(ResultPayload::Sections { bytes, .. }) => *bytes,
                        _ => 0,
                    })
                    .sum(),
                get_requests: sum(|m| m.get_requests),
                put_requests: sum(|m| m.put_requests),
                list_requests: sum(|m| m.list_requests),
                hedged_gets: sum(|m| m.hedged_gets),
                hedged_puts: sum(|m| m.hedged_puts),
                p2p_requests: sum(|m| m.p2p_requests),
                // Backups relaunch a whole chain: counted once, at its head.
                backup_invocations: if head == sid { run.backup_invocations } else { 0 },
            });
        }

        let final_results = results.pop().unwrap_or_default();
        let reported = match stage_reports.last_mut() {
            Some(last) => self.reported(&final_results, last).await?,
            None => Vec::new(),
        };
        let (batch, agg_state) = self.finalize(&dag.final_stage, &reported)?;
        let now = self.cloud.handle.now();
        let latency_secs = (now - start).as_secs_f64();
        let span_secs = (now - policy.submitted.unwrap_or(start)).as_secs_f64();
        let cost = self.cloud.billing.snapshot().since(&cost_before);
        Ok(QueryReport {
            batch,
            tenant: policy.tenant.clone().unwrap_or_else(|| "local".to_string()),
            query_id: qid,
            latency_secs,
            span_secs,
            invoke_secs,
            cost,
            workers: workers_total,
            cold_starts,
            worker_metrics: all_metrics,
            stages: stage_reports,
            agg_state,
        })
    }

    /// Build stage `sid`'s task — the one assignment its whole fleet
    /// shares: the planner's stage as the operator, its in-edges resolved
    /// to channels and sender counts, and its output as a sink, all sized
    /// by the launch plan; `fused_into` is the stage its fused out-edge
    /// hands its part to.
    fn stage_task(
        &self,
        qid: u64,
        sid: usize,
        launch: &LaunchPlan<'_>,
        transport: &Rc<EdgeTransport>,
        fused_into: Option<FusedStage>,
    ) -> Result<StageTask> {
        let dag = launch.edges.dag;
        let mut kind = dag.stages[sid].clone();
        let channel = self.channel(qid, sid);
        let (partitions, inline_budget) = (launch.partitions[sid], launch.inline_budgets[sid]);
        let sink = match (&launch.sort_edges[sid], kind.output()) {
            (Some(edge), _) => StageSink::SortEdge { channel, inline_budget, edge: edge.clone() },
            (None, StageOutput::Driver) => StageSink::Report { top: report_top(&dag.final_stage) },
            (None, _) => StageSink::Edge { channel, inline_budget },
        };
        // Swap the planner's placeholder terminal for the sharding
        // variant, now that the consumer fleet is sized. (Sort-exchange
        // stages keep their SortPartition terminal: the producers cut
        // blocks whatever the range count, and the driver picks the
        // ranges.)
        let sharding = match (kind.output(), kind.pipeline().map(|p| &p.terminal)) {
            (StageOutput::Exchange { keys }, Some(Terminal::Collect)) => {
                Some(Terminal::HashPartition { keys: keys.clone(), partitions })
            }
            (StageOutput::AggExchange, Some(Terminal::PartialAggregate { group_by, aggs })) => {
                Some(Terminal::PartitionedAggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                    partitions,
                })
            }
            // Anything else keeps the planner's terminal; the verifier has
            // already matched it against the output (`V-TERM-*`).
            _ => None,
        };
        if let (Some(pipeline), Some(terminal)) = (kind.pipeline_mut(), sharding) {
            pipeline.terminal = terminal;
        }

        // Slot `i` is the stage's `i`-th input, as the payload addresses it.
        let edge = |slot: usize, input: usize| EdgeRead { channel: self.channel(qid, input), slot };
        let op = match kind {
            StageKind::Scan(stage) => {
                let (table, chunks) =
                    launch.scans[sid].clone().ok_or_else(|| unknown_table(&stage.table))?;
                StageOp::Scan(Rc::new(ScanOp { stage, table, scan: self.config.scan, chunks }))
            }
            StageKind::Join(stage) => StageOp::Join {
                probe: edge(0, stage.probe_input),
                build: edge(1, stage.build_input),
                stage,
            },
            StageKind::AggMerge(stage) => StageOp::AggMerge {
                input: edge(0, stage.input),
                stage,
                // Last stage under a carry final stage: the merge fleet
                // re-emits unfinalized state for the driver to carry
                // across micro-batches.
                emit_state: sid + 1 == dag.stages.len()
                    && matches!(dag.final_stage, FinalStage::CarryAggState { .. }),
            },
            StageKind::Sort(stage) => StageOp::Sort { input: edge(0, stage.input), stage },
        };
        Ok(StageTask {
            op,
            sink,
            transport: Rc::clone(transport),
            result_bucket: self.config.result_bucket.clone(),
            result_prefix: format!("results/x{}-q{qid}", self.instance),
            fused_into,
        })
    }

    /// Exchange-edge key prefix of stage `sid` of query `qid`, namespaced
    /// by the installation so concurrent or successive installations on
    /// one cloud never read each other's shuffle files.
    fn channel(&self, qid: u64, sid: usize) -> String {
        format!("x{}/q{qid}/s{sid}", self.instance)
    }

    /// The inbox of stage `sid` of query `qid`: where the driver sends the
    /// addresses of its other in-edges while its host runs.
    fn inbox(&self, qid: u64, sid: usize) -> String {
        format!("lambada-inbox-x{}-q{qid}-s{sid}", self.instance)
    }

    /// Driver-scope post-processing (§3.2: "post-processing like
    /// aggregating the intermediate worker results"). Returns the result
    /// batch plus, for [`FinalStage::CarryAggState`] only, the merged
    /// unfinalized state for the caller to carry.
    fn finalize(
        &self,
        final_stage: &FinalStage,
        reported: &[Bytes],
    ) -> Result<(RecordBatch, Option<Vec<u8>>)> {
        match final_stage {
            FinalStage::MergeAggregate { agg_schema, funcs, post } => {
                let batch = agg_state_to_batch(&merge_agg_states(funcs, reported)?, agg_schema)?;
                Ok((self.apply_post(batch, post)?, None))
            }
            FinalStage::CarryAggState { agg_schema, funcs } => {
                // Merge without finalizing: speculation's first-result-wins
                // collection already guarantees one payload per worker slot,
                // and an exchange merge fleet's shards hold disjoint groups,
                // so this merge never double-counts.
                let state = merge_agg_states(funcs, reported)?;
                Ok((RecordBatch::empty(agg_schema.clone()), Some(state.encode())))
            }
            FinalStage::CollectBatches { schema, post } => {
                let mut batches = Vec::new();
                for bytes in reported {
                    batches.extend(crate::partition::decode_batches(bytes)?);
                }
                let batch = RecordBatch::concat(schema.clone(), &batches)?;
                Ok((self.apply_post(batch, post)?, None))
            }
        }
    }

    /// The bytes of every report, in worker order: agg state or batches
    /// as they rode the message, or as stored — every stored report's GET
    /// is in flight before the first is awaited, and counts in `stage`'s
    /// requests. Reports of nothing are skipped.
    async fn reported(
        &self,
        results: &[WorkerResult],
        stage: &mut StageReport,
    ) -> Result<Vec<Bytes>> {
        let fetches: Vec<_> = results
            .iter()
            .map(|r| match &r.outcome {
                Ok(ResultPayload::Stored { bucket, key, .. }) => {
                    let (s3, bucket, key) = (self.cloud.driver_s3(), bucket.clone(), key.clone());
                    Some(self.cloud.handle.spawn(async move { s3.get(&bucket, &key).await }))
                }
                _ => None,
            })
            .collect();
        let mut reported = Vec::with_capacity(results.len());
        for (r, fetch) in results.iter().zip(fetches) {
            reported.push(match (&r.outcome, fetch) {
                (
                    Ok(ResultPayload::AggState(bytes) | ResultPayload::InlineBatches { bytes, .. }),
                    _,
                ) => Bytes::copy_from_slice(bytes),
                (_, Some(fetch)) => {
                    let got = fetch.await?;
                    stage.get_requests += 1;
                    stage.hedged_gets += got.hedges;
                    got.value.as_real().cloned().ok_or_else(|| {
                        CoreError::Storage("stored result was synthetic".to_string())
                    })?
                }
                _ => continue,
            });
        }
        Ok(reported)
    }

    fn apply_post(&self, mut batch: RecordBatch, post: &[PostOp]) -> Result<RecordBatch> {
        for op in post {
            batch = match op {
                PostOp::Sort(keys) => sort_batch(&batch, keys)?,
                PostOp::Limit(n) => truncate_rows(batch, *n),
                PostOp::Project(exprs, schema) => project_batch(&batch, exprs, schema)?,
            };
        }
        Ok(batch)
    }
}

/// What a worker reporting to `final_stage` keeps of its rows: the
/// leading part of the driver's post-ops that commutes with concatenating
/// the reports in worker order — `ORDER BY … LIMIT n` or `LIMIT n`.
fn report_top(final_stage: &FinalStage) -> Option<ReportTop> {
    let FinalStage::CollectBatches { post, .. } = final_stage else {
        return None;
    };
    match post.as_slice() {
        [PostOp::Sort(keys), PostOp::Limit(n), ..] => Some(ReportTop { keys: keys.clone(), n: *n }),
        [PostOp::Limit(n), ..] => Some(ReportTop { keys: Vec::new(), n: *n }),
        _ => None,
    }
}

fn unknown_table(name: &str) -> CoreError {
    CoreError::Unsupported(format!("unknown table {name}"))
}

fn never_ran(sid: usize) -> CoreError {
    CoreError::Engine(format!("stage {sid} never produced a run"))
}

/// Merge every worker's reported partial-aggregate state into one.
fn merge_agg_states(
    funcs: &[(lambada_engine::AggFunc, Option<lambada_engine::DataType>)],
    reported: &[Bytes],
) -> Result<GroupedAggState> {
    let mut state = GroupedAggState::new(funcs)?;
    for bytes in reported {
        state.merge(&GroupedAggState::decode(bytes)?)?;
    }
    Ok(state)
}

/// How a scan's files are dealt to its workers.
#[derive(Clone, Copy, Debug)]
enum Packing {
    /// F files per worker (§5.2).
    Pinned(usize),
    /// Consecutive files of at most `latency_bound` bytes share workers,
    /// at most `connections` to one; a larger file gets a worker of its own.
    BySize { latency_bound: u64, connections: usize },
}

/// A scan fleet: each worker's run of the table's files, contiguous and in
/// order. Pinned, this is §5.2's `W = ceil(#files / F)`. By size, a run of
/// `L` consecutive latency-bound files goes to `ceil(L / connections)`
/// workers, dealt evenly: each such file is one GET ([`crate::scan`]) and
/// a worker reads its files at once, so its run costs one round of
/// first-byte latency where as many workers would cost as many
/// invocations and billing quanta. When the policy's fleet cap binds, the
/// files are dealt evenly to `cap` workers. [`Lambada::launch_plan`] is
/// the one caller: the chunks it hands the payload builder and the worker
/// count that fixes exchange sender counts come from the same call, so the
/// planned count always equals the number of payloads built.
fn scan_chunks(
    files: &[crate::table::TableFile],
    packing: Packing,
    fleet_cap: Option<usize>,
) -> Vec<Range<usize>> {
    let n = files.len();
    let chunks: Vec<Range<usize>> = match packing {
        Packing::Pinned(f) => (0..n).step_by(f.max(1)).map(|s| s..(s + f.max(1)).min(n)).collect(),
        Packing::BySize { latency_bound, connections } => {
            let large = |i: &usize| files[*i].size > latency_bound;
            let mut chunks = Vec::new();
            let mut start = 0;
            while start < n {
                let end =
                    if large(&start) { start + 1 } else { (start..n).find(large).unwrap_or(n) };
                chunks.extend(dealt(start..end, (end - start).div_ceil(connections.max(1))));
                start = end;
            }
            chunks
        }
    };
    match fleet_cap {
        Some(cap) if chunks.len() > cap.max(1) => dealt(0..n, cap.max(1)).collect(),
        _ => chunks,
    }
}

/// `files` dealt to `workers` contiguous runs whose lengths differ by at
/// most one.
fn dealt(files: Range<usize>, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let (start, n) = (files.start, files.len());
    (0..workers).map(move |w| start + w * n / workers..start + (w + 1) * n / workers)
}

/// One chain's fleet as the driver spawns it.
struct Fleet {
    query: u64,
    /// Prefix of the result queue each launch creates for itself:
    /// `{queues}-s{head}`.
    queues: String,
    /// The head's fleet size (a chain of several stages is one worker).
    workers: usize,
    /// The head, then every stage fused after it.
    chain: Vec<Member>,
}

/// One stage of a chain, as its fleet future drives it.
struct Member {
    sid: usize,
    /// What a fleet launched at this stage runs.
    task: Rc<StageTask>,
    /// Consumer fleet size of the stage's out-edge: how many sections
    /// every report must carry (0 when the driver reads it).
    receivers: usize,
    /// The stage's out-edge, if it is a sort edge: its reports carry
    /// blocks and starts, not one section per receiver.
    sort: Option<SortEdgeSpec>,
    /// Where it waits for its other in-edges' addresses, if it has any:
    /// the member before it is its host.
    inbox: Option<String>,
}

/// Invoke one chain's fleet and collect every worker's report. A free
/// function over owned handles: the driver spawns one per chain head and
/// the shared [`StageBoard`] sequences them — each future first sleeps
/// until its head's inputs have completed, then addresses every
/// worker's reads from its producers' section tables, admits its whole
/// fleet through the gate, invokes, and collects. While it collects, it
/// sends every waiting member its other in-edges' addresses the moment
/// their producers complete ([`feed_inboxes`]). The members that ran
/// complete with the fleet; the last one's section tables go on the
/// board for its consumers.
///
/// A host that fell back reports the members up to itself, with its own
/// section table: the future then launches the rest of the chain as a
/// fleet of its own, once the member it stopped at is ready, and so on
/// until the chain has run. One [`StageRun`] per launch comes back.
///
/// Each launch creates its result queue and deletes it once the fleet is
/// collected (success or failure) — per-stage queues would otherwise
/// leak one queue per stage per query. Late reports from superseded
/// stragglers land on the deleted queue and vanish, which is exactly
/// first-result-wins.
///
/// Under the query service, `gate` is the installation's shared worker
/// gate: the whole fleet's permits are acquired *before* anything is
/// invoked and released when collection finishes, success or failure.
/// No fleet synchronizes internally, so a partial launch could not
/// deadlock; the lease is whole because the fleet launches at once — its
/// invocation tree and the straggler watcher's spans both assume so, and
/// a fleet launched in waves would have its later waves speculated
/// against. A host holding its lease waits for other fleets at most its
/// bounded inbox wait, so it never holds the gate for good.
///
/// Returns `Ok(None)` when another stage failed before this one
/// launched: the board's failure flag lets unlaunched fleets stand down
/// without inventing an error of their own — the failing stage already
/// carries the root cause.
async fn run_fleet(
    cloud: Cloud,
    config: LambadaConfig,
    gate: Option<WorkerGate>,
    board: Rc<StageBoard>,
    fleet: Fleet,
) -> Result<Option<Vec<StageRun>>> {
    let Fleet { query, queues, mut workers, chain } = fleet;
    let (mut runs, mut at) = (Vec::new(), 0);
    while let Some(head) = chain.get(at) {
        let enqueued = cloud.handle.now();
        loop {
            if board.failed() {
                return Ok(None);
            }
            if board.ready(head.sid) {
                break;
            }
            board.notified().await;
        }
        let result_queue = format!("{queues}-s{}", head.sid);
        let payloads: Vec<WorkerPayload> = (0..workers)
            .map(|w| WorkerPayload {
                // The worker id doubles as the file-chunk id (scans) or
                // the partition id (consumers).
                worker_id: w as u64,
                attempt: 0,
                query,
                task: WorkerTask::Stage(Rc::clone(&head.task)),
                edges: board.addresses(head.sid, w),
                children: Vec::new(),
                result_queue: result_queue.clone(),
            })
            .collect();
        let lease = match &gate {
            Some(g) => Some(g.admit(workers).await),
            None => None,
        };
        cloud.sqs.create_queue(&result_queue);
        let stage_start = cloud.handle.now();
        let queue_wait_secs = (stage_start - enqueued).as_secs_f64();
        let cost_before = cloud.billing.snapshot();
        // Only the straggler watcher re-reads the assignments; don't copy a
        // paper-scale fleet's payloads when speculation is off.
        let retained: Vec<WorkerPayload> =
            if config.speculate { payloads.clone() } else { Vec::new() };
        let invoked = invoke_workers(&cloud, &config.function_name, payloads).await;
        let invoke_secs = (cloud.handle.now() - stage_start).as_secs_f64();
        let collected = match invoked {
            Ok(()) => {
                let mut collect = std::pin::pin!(collect_results(
                    &cloud,
                    &config,
                    &result_queue,
                    workers,
                    &retained,
                    stage_start
                ));
                let feed = feed_inboxes(&cloud, &board, &chain[at..]);
                match select2(collect.as_mut(), feed).await {
                    Either::Left(collected) => collected,
                    Either::Right(Ok(())) => collect.await,
                    Either::Right(Err(e)) => Err(e),
                }
            }
            Err(e) => Err(e),
        };
        cloud.sqs.delete_queue(&result_queue);
        drop(lease);
        let written = collected.and_then(|c| {
            let ran = members_ran(&c.results, &chain[at..])?;
            let last = &chain[at + ran - 1];
            let tables = section_tables(&c.results, last.receivers, last.sort.as_ref())?;
            Ok((c, ran, tables))
        });
        let (collected, ran, tables) = match written {
            Ok(written) => written,
            Err(e) => {
                // Wake every still-waiting fleet so it can stand down.
                board.fail();
                return Err(e);
            }
        };
        let members = &chain[at..at + ran];
        if let Some((last, ahead)) = members.split_last() {
            for member in ahead {
                board.complete(member.sid, Vec::new());
            }
            board.complete(last.sid, tables);
        }
        runs.push(StageRun {
            chain: members.iter().map(|m| m.sid).collect(),
            results: collected.results,
            workers,
            invoke_secs,
            queue_wait_secs,
            exec_secs: (cloud.handle.now() - stage_start).as_secs_f64(),
            cost: cloud.billing.snapshot().since(&cost_before),
            backup_invocations: collected.backup_invocations,
        });
        // A fused member runs on one worker, and so does the fleet that
        // picks the chain up after a host fell back.
        (at, workers) = (at + ran, 1);
    }
    Ok(Some(runs))
}

/// How many members of `chain` — a launch's head, then the members fused
/// after it — the launch's workers ran: all of them, or the ones up to a
/// host that fell back before a waiting member. Every report must agree.
fn members_ran(results: &[WorkerResult], chain: &[Member]) -> Result<usize> {
    let ran = results.first().map_or(chain.len(), |r| r.fused.len() + 1);
    let stopped_at_inbox = chain.get(ran).is_some_and(|m| m.inbox.is_some());
    let agreed = results.iter().all(|r| r.fused.len() + 1 == ran);
    if !agreed || ran > chain.len() || (ran < chain.len() && !stopped_at_inbox) {
        let (head, members) = (chain.first().map_or(0, |m| m.sid), chain.len());
        return Err(CoreError::Engine(format!(
            "a worker of stage {head} reported {ran} stages of its {members}-stage chain"
        )));
    }
    Ok(ran)
}

/// Send each waiting member of `chain` — a launch's head, then the
/// members fused after it — the addresses of its other in-edges the
/// moment their producers complete, in chain order, over the driver's
/// SQS client: the same [`InEdge`]s its payload would have carried, held
/// to the same cap and paying their inline bytes over the driver's link
/// the same way. (A launch after a fallback may send a member a second,
/// identical message: the first it reads is the one.) Returns once every
/// member is sent, or the query failed.
async fn feed_inboxes(cloud: &Cloud, board: &StageBoard, chain: &[Member]) -> Result<()> {
    for pair in chain.windows(2) {
        let ([host, member], Some(inbox)) = (pair, &pair[1].inbox) else { continue };
        loop {
            if board.failed() {
                return Ok(());
            }
            if board.ready_beside(member.sid, host.sid) {
                break;
            }
            board.notified().await;
        }
        let edges = board.addresses(member.sid, 0);
        let size = edge_bytes(&edges, ADDRESS_BYTES);
        if size > SQS_MESSAGE_BYTES {
            return Err(CoreError::Queue(format!(
                "stage {}'s addresses take {size} B, over the {SQS_MESSAGE_BYTES} B cap",
                member.sid
            )));
        }
        invoke::carry_inline(cloud, edge_bytes(&edges, 0)).await;
        cloud.driver_sqs().send(inbox, encode_in_edges(&edges)).await?;
    }
    Ok(())
}

/// Where each of the `receivers` consumer workers finds the out-edge,
/// from the kept reports in worker order: one address per sender, and —
/// on a sort edge (`sort`) — its range's boundaries ([`InEdge::bounds`]);
/// nothing when the driver reads the output. Every sender's table is
/// addressed by the one rule, [`address_sections`], over its spans: each
/// section is its own receiver's on a hash or agg edge, and a sort edge's
/// block can hold the ranges from its first key's to the next block's
/// first key's (or its own last key's) under the boundaries that one
/// [`range_boundaries`] call picks from the pool of every sender's block
/// first keys. A report that wrote no edge, or whose table or starts do
/// not fit it, is a typed error.
pub(crate) fn section_tables(
    results: &[WorkerResult],
    receivers: usize,
    sort: Option<&SortEdgeSpec>,
) -> Result<Vec<InEdge>> {
    if receivers == 0 {
        return Ok(Vec::new());
    }
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        let Ok(ResultPayload::Sections { sections, inline, starts, .. }) = &r.outcome else {
            let worker = r.worker_id;
            let what = format!("worker {worker} reported no section table for its out-edge");
            return Err(CoreError::Format(what));
        };
        let keys = match (sort, starts) {
            (Some(edge), starts) => block_starts(edge, sections, starts.as_deref())?,
            (None, Some(_)) => {
                return Err(CoreError::Format("starts on an edge of no blocks".into()))
            }
            (None, None) => Vec::new(),
        };
        reports.push((r.attempt, sections, inline, keys));
    }
    let mut edges = vec![InEdge::default(); receivers];
    let boundaries = match sort {
        Some(edge) => {
            let pool = reports.iter().flat_map(|r| r.3.split_last().map_or(&[][..], |(_, b)| b));
            range_boundaries(pool.cloned().collect(), &edge.keys, receivers)
        }
        None => Vec::new(),
    };
    for (r, e) in edges.iter_mut().enumerate().filter(|_| !boundaries.is_empty()) {
        e.bounds = boundaries[r.saturating_sub(1)..(r + 1).min(receivers - 1)].to_vec();
    }
    let own: Vec<(usize, usize)> = (0..receivers).map(|r| (r, r)).collect();
    for (attempt, sections, inline, keys) in reports {
        let blocks: Vec<(usize, usize)>;
        let spans = match sort {
            Some(edge) => {
                let range = |key: &Vec<Scalar>| range_partition_of(key, &boundaries, &edge.keys);
                blocks = keys.windows(2).map(|w| (range(&w[0]), range(&w[1]))).collect();
                &blocks
            }
            None => &own,
        };
        let addrs = address_sections(attempt, sections, inline, spans, receivers)?;
        for (edge, addr) in edges.iter_mut().zip(addrs) {
            edge.senders.push(addr);
        }
    }
    Ok(edges)
}

/// One sort-edge sender's blocks checked against its reported `starts`,
/// as key rows: none from a sender of no blocks, else one row more than
/// it cut blocks, of the sort keys' types, in sort order, and the blocks
/// on one file or blob. Anything else is a typed error — never a
/// boundary picked from a lying pool.
fn block_starts(
    edge: &SortEdgeSpec,
    blocks: &[Section],
    starts: Option<&[u8]>,
) -> Result<Vec<Vec<Scalar>>> {
    let wire = blocks.first().map_or(Wire::File, |s| s.wire);
    if wire == Wire::Mailbox || blocks.iter().any(|s| s.wire != wire) {
        return Err(CoreError::Format("a sort edge's blocks ride one file or blob".to_string()));
    }
    let types = edge.keys.iter().map(|k| k.expr.data_type(&edge.schema));
    let types = types.collect::<lambada_engine::Result<Vec<_>>>()?;
    let mut rows = Vec::new();
    for batch in starts.map(crate::partition::decode_batches).transpose()?.unwrap_or_default() {
        let got: Vec<DataType> = batch.columns().iter().map(Column::dtype).collect();
        if got != types {
            return Err(CoreError::Format(format!("starts of {got:?} for sort keys of {types:?}")));
        }
        rows.extend(batch.rows());
    }
    let blocks = blocks.len();
    let want = if starts.is_none() && blocks == 0 { 0 } else { blocks + 1 };
    if rows.len() != want {
        return Err(CoreError::Format(format!("{} starts for {blocks} blocks", rows.len())));
    }
    let descends = |w: &[Vec<Scalar>]| cmp_key_rows(&w[0], &w[1], &edge.keys).is_gt();
    if rows.windows(2).any(descends) {
        return Err(CoreError::Format("starts out of sort order".to_string()));
    }
    Ok(rows)
}

/// Long-poll duration of one result-queue receive call.
const RECEIVE_WAIT: Duration = Duration::from_secs(1);

/// Fraction of a fleet that must have reported before its missing
/// workers are speculated against. The quorum is clamped to
/// `workers - 1`, so a small fleet can still speculate against its one
/// holdout; 0.7 also leaves room for two holdouts from seven workers up,
/// where 0.9 would wait for all but one below twenty.
const SPECULATION_QUANTILE: f64 = 0.7;

/// A missing worker is re-invoked once the fleet's elapsed time exceeds
/// this multiple of the reporters' median span.
const SPECULATION_MULTIPLIER: f64 = 2.0;

/// Backup attempts per worker beyond the original (attempt 0).
const MAX_BACKUP_ATTEMPTS: u32 = 1;

/// What [`collect_results`] hands back: one report per worker, plus how
/// many speculative backups the straggler watcher launched.
struct Collected {
    results: Vec<WorkerResult>,
    backup_invocations: u64,
}

/// Poll the result queue until all workers reported (§3.3). Like the
/// invoker, the driver polls from a small thread pool — with thousands
/// of workers a single serial receive loop would dominate query latency:
/// one long poll per ten missing reports (at most 16) stays in flight,
/// plus one spare, each is handled the moment it returns and replaced
/// while reports are missing, and the rest are dropped — their timers
/// cancelled — once the fleet is complete, so collection ends with the
/// last report rather than with the slowest poll's [`RECEIVE_WAIT`]. The
/// spare is what keeps a report from waiting out a poll's round trip: a
/// poll that returns with the first of two close reports leaves another
/// already listening for the second.
///
/// After every receive the driver plays straggler watcher: once
/// [`SPECULATION_QUANTILE`] of the fleet has reported and the holdouts
/// exceed [`SPECULATION_MULTIPLIER`] × the fleet's median span, every
/// missing worker is speculatively re-invoked (§3.3's "the driver
/// decides", applied to silent deaths and stragglers instead of error
/// reports). The first result per `worker_id` wins, whatever its attempt
/// id — the stage-edge dedup rule: consumers are addressed from that
/// report's section table alone, so a backup's copy and its original's
/// are never combined.
///
/// `stage_start` is the stage's own launch instant (post-board-wait,
/// post-gate), so the quorum trigger anchors to when *this* fleet
/// actually started — never to when an unrelated stage of the same query
/// launched. No worker waits for a peer, so a dead one never holds the
/// rest under the quorum: every other worker reports.
async fn collect_results(
    cloud: &Cloud,
    config: &LambadaConfig,
    queue: &str,
    workers: usize,
    payloads: &[WorkerPayload],
    stage_start: lambada_sim::SimTime,
) -> Result<Collected> {
    let mut seen: HashSet<u64> = HashSet::with_capacity(workers);
    let mut results = Vec::with_capacity(workers);
    // Arrival spans (launch → report) of the workers heard so far; the
    // speculation threshold is a multiple of their median.
    let mut spans: Vec<f64> = Vec::with_capacity(workers);
    let mut attempts_launched: HashMap<u64, u32> = HashMap::new();
    let mut backup_invocations = 0u64;
    // Clamp the quorum to leave at least one reporter short: with small
    // fleets `ceil(SPECULATION_QUANTILE × workers)` would otherwise equal
    // the whole fleet and speculation could never trigger. (A one-worker
    // fleet has no reporters to take a median from, so it never
    // speculates.)
    let quorum = ((SPECULATION_QUANTILE * workers as f64).ceil() as usize)
        .clamp(1, workers.saturating_sub(1).max(1));
    let deadline = cloud.handle.now() + config.max_wait;
    let pollers = workers.div_ceil(10).clamp(1, 16);
    let sqs = cloud.driver_sqs();
    let receive = || Box::pin(sqs.receive(queue, 10, RECEIVE_WAIT));
    let mut receives = Vec::with_capacity(pollers);
    while seen.len() < workers {
        if cloud.handle.now() >= deadline {
            return Err(CoreError::Timeout {
                waited_secs: (cloud.handle.now() - stage_start).as_secs_f64(),
                missing_workers: workers - seen.len(),
            });
        }
        let wanted = pollers.min((workers - seen.len()).div_ceil(10)) + 1;
        while receives.len() < wanted {
            receives.push(receive());
        }
        for msg in first_done(&mut receives).await? {
            let result = WorkerResult::decode(&msg)?;
            if seen.contains(&result.worker_id) {
                continue; // a superseded duplicate lost the race
            }
            if let Err(message) = &result.outcome {
                // Fail fast (§3.3: errors are reported, the driver
                // decides): a fast OOM must not wait out the slowest
                // worker before surfacing. Only an *original* attempt's
                // error is terminal, though — a failed backup is a lost
                // race whose original is still running (or will hit
                // max_wait), so speculation can never fail a query that
                // would have succeeded without it.
                if result.attempt == 0 {
                    return Err(CoreError::Worker {
                        worker_id: result.worker_id,
                        message: message.clone(),
                    });
                }
                continue;
            }
            seen.insert(result.worker_id);
            spans.push((cloud.handle.now() - stage_start).as_secs_f64());
            results.push(result);
        }

        if config.speculate && seen.len() < workers && seen.len() >= quorum {
            let mut sorted = spans.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let elapsed = (cloud.handle.now() - stage_start).as_secs_f64();
            if elapsed > SPECULATION_MULTIPLIER * median {
                backup_invocations +=
                    speculate(cloud, config, payloads, &seen, &mut attempts_launched).await?;
            }
        }
    }
    results.sort_by_key(|r| r.worker_id);
    Ok(Collected { results, backup_invocations })
}

/// Await whichever of `pending` completes first (the earliest in the
/// list on a tie) and remove it; the others stay in flight.
async fn first_done<F: Future + Unpin>(pending: &mut Vec<F>) -> F::Output {
    std::future::poll_fn(|cx| {
        for i in 0..pending.len() {
            if let Poll::Ready(out) = Pin::new(&mut pending[i]).poll(cx) {
                pending.remove(i);
                return Poll::Ready(out);
            }
        }
        Poll::Pending
    })
    .await
}

/// Re-invoke, as its next attempt, every worker that has not reported
/// and has backup attempts left. Returns how many backups were launched.
async fn speculate(
    cloud: &Cloud,
    config: &LambadaConfig,
    payloads: &[WorkerPayload],
    seen: &HashSet<u64>,
    attempts_launched: &mut HashMap<u64, u32>,
) -> Result<u64> {
    let mut backups = Vec::new();
    for p in payloads {
        if seen.contains(&p.worker_id) {
            continue;
        }
        let launched = attempts_launched.entry(p.worker_id).or_insert(0);
        if *launched >= MAX_BACKUP_ATTEMPTS {
            continue;
        }
        *launched += 1;
        backups.push(p.backup(*launched));
    }
    let launched = backups.len() as u64;
    if launched > 0 {
        invoke::invoke_backups(cloud, &config.function_name, backups).await?;
    }
    Ok(launched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::WorkerEnv;
    use crate::exchange::{encode_bundle_into, PartData};
    use crate::invoke::{build_tree, choose_strategy, InvocationStrategy};
    use crate::message::{Section, Wire, INLINE_EDGE_BYTES};
    use crate::table::TableFile;
    use crate::transport::{At, SectionAddr, ADDRESS_BYTES};
    use lambada_engine::logical::SortKey;
    use lambada_engine::types::{Field, Schema};
    use lambada_engine::{AggExpr, AggFunc};
    use lambada_sim::services::faas::MAX_ASYNC_PAYLOAD_BYTES;
    use lambada_sim::services::object_store::Bytes;
    use lambada_sim::{secs, CloudConfig, Simulation};

    /// A cloud with the worker function registered and a `results` queue.
    fn installed() -> (Simulation, Cloud, LambadaConfig) {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = LambadaConfig::default();
        let (name, memory, timeout) = (&config.function_name, config.memory_mib, config.timeout);
        register_worker_function(&cloud, name, memory, timeout, config.costs);
        cloud.sqs.create_queue("results");
        (sim, cloud, config)
    }

    /// Worker `worker`'s report of one inline section, `part`, for a
    /// one-worker consumer, as attempt `attempt`.
    fn inline_report(worker: u64, attempt: u32, part: &[u8]) -> WorkerResult {
        let mut blob = Vec::new();
        let parts = [(0, PartData::Real(part.to_vec()))];
        let (len, _) = encode_bundle_into(&mut blob, &parts).unwrap();
        let sections = vec![Section { len, wire: Wire::Inline }];
        let inline = Bytes::from(blob);
        let payload =
            ResultPayload::Sections { rows: 1, bytes: len, sections, inline, starts: None };
        WorkerResult::ok(worker, payload, WorkerMetrics::default()).with_attempt(attempt)
    }

    /// Speculation over inline senders: worker 0's backup reports first
    /// and its original after it, both inline with different bytes. The
    /// driver keeps the first report per worker, and the consumer decodes
    /// exactly the kept attempt's bytes — never both, never the original.
    #[test]
    fn a_consumer_decodes_the_kept_attempts_inline_bytes() {
        let (sim, cloud, config) = installed();
        let parts = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let sqs = cloud.driver_sqs();
                for r in [inline_report(0, 1, b"backup"), inline_report(0, 0, b"original")] {
                    sqs.send("results", r.encode()).await.unwrap();
                }
                sqs.send("results", inline_report(1, 0, b"other").encode()).await.unwrap();
                let start = cloud.handle.now();
                let collected = collect_results(&cloud, &config, "results", 2, &[], start).await;
                let tables = section_tables(&collected.unwrap().results, 1, None).unwrap();
                let addrs = tables[0].senders.clone();
                assert_eq!(addrs.iter().map(|a| a.attempt).collect::<Vec<_>>(), vec![1, 0]);
                let t = EdgeTransport::new(config.exchange.clone(), ExchangeSide::new(), None);
                let env = WorkerEnv::bare(&cloud, 0, 2048, config.costs);
                t.recv(&env, "x0/q0/s0", 0, &addrs).await.unwrap()
            }
        });
        let bytes = |b: &[u8]| PartData::Real(b.to_vec());
        assert_eq!(parts.0, vec![bytes(b"backup"), bytes(b"other")]);
        assert_eq!(parts.1.get_requests, 0, "nothing is fetched");
    }

    /// A 256-sender edge into a 128-worker consumer fleet, which the
    /// driver invokes through the two-level tree: every sender ships its
    /// whole budget inline, all of it to the first tree group, so that
    /// group's first-generation payload carries all 256 senders' bytes
    /// and its eleven workers' 256 addresses each — within Lambda's cap,
    /// and invoked, where a budget blind to the addresses would overrun
    /// it. A payload past the cap is a typed error, not a panic.
    #[test]
    fn a_first_generation_payload_stays_within_the_invoke_cap() {
        let (sim, cloud, config) = installed();
        let (senders, receivers) = (256, 128);
        assert_eq!(choose_strategy(cloud.region(), receivers), InvocationStrategy::TwoLevel);
        let budget = crate::transport::inline_budget(senders, receivers);
        let group = build_tree(vec![payload(0, Vec::new()); receivers])[0].children.len() + 1;
        assert_eq!(group, invoke::tree_shape(receivers).1);
        let addresses = group * senders * ADDRESS_BYTES;
        assert!(INLINE_EDGE_BYTES + addresses > MAX_ASYNC_PAYLOAD_BYTES);
        let (carried, invoked, over) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let t = EdgeTransport::new(config.exchange.clone(), ExchangeSide::new(), None);
                let mut tables = Vec::new();
                for s in 0..senders {
                    let env = WorkerEnv::bare(&cloud, s as u64, 2048, config.costs);
                    // One part, to a receiver of the first group, that
                    // encodes to the budget: its count, receiver id and
                    // two-byte length prefix, then its bytes.
                    let mut parts = vec![PartData::Real(Vec::new()); receivers];
                    parts[s % group] = PartData::Real(vec![s as u8; budget as usize - 4]);
                    let (_, sections, inline) =
                        t.send(&env, "x0/q0/s0", s, parts, budget, true).await.unwrap();
                    assert_eq!(sections[s % group], Section { len: budget, wire: Wire::Inline });
                    let own: Vec<_> = (0..receivers).map(|r| (r, r)).collect();
                    tables.push(address_sections(0, &sections, &inline, &own, receivers).unwrap());
                }
                let payloads: Vec<WorkerPayload> = (0..receivers)
                    .map(|r| payload(r as u64, tables.iter().map(|t| t[r].clone()).collect()))
                    .collect();
                let carried: Vec<usize> = build_tree(payloads.clone())
                    .iter()
                    .map(|p| p.edge_bytes(ADDRESS_BYTES))
                    .collect();
                let invoked = invoke_workers(&cloud, &config.function_name, payloads).await;
                let bytes = Bytes::from(vec![0; MAX_ASYNC_PAYLOAD_BYTES + 1]);
                let huge = payload(0, vec![SectionAddr { attempt: 0, at: At::Inline(bytes) }]);
                (carried, invoked, invoke_workers(&cloud, &config.function_name, vec![huge]).await)
            }
        });
        let first = senders * budget as usize + addresses;
        assert_eq!(carried[0], first, "the first group carries every sender's bytes");
        assert!(first <= INLINE_EDGE_BYTES, "{first}");
        assert!(carried.iter().all(|&c| c <= MAX_ASYNC_PAYLOAD_BYTES), "{carried:?}");
        assert!(invoked.is_ok(), "{invoked:?}");
        assert!(matches!(&over, Err(CoreError::Invoke(m)) if m.contains("cap")), "{over:?}");
    }

    /// A no-op worker's payload with in-edge addresses `addrs`.
    fn payload(worker_id: u64, addrs: Vec<SectionAddr>) -> WorkerPayload {
        WorkerPayload {
            worker_id,
            attempt: 0,
            query: 0,
            task: WorkerTask::Noop,
            edges: vec![InEdge { senders: addrs, bounds: Vec::new() }],
            children: Vec::new(),
            result_queue: "results".to_string(),
        }
    }

    /// A fleet of more than ten workers is collected when its last report
    /// arrives: once one report is missing only one long poll waits for
    /// it — none is left to wait out its [`RECEIVE_WAIT`] — and the polls
    /// still in flight are dropped with their timers. Worker 39 reports
    /// last, alone, ~0.8 s after the others. (When every round of four
    /// polls waited for all four, this fleet was collected 1.03 s after
    /// that report.)
    #[test]
    fn a_large_fleet_is_collected_when_its_last_report_arrives() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = LambadaConfig::default();
        let function = config.function_name.clone();
        register_worker_function(
            &cloud,
            &function,
            config.memory_mib,
            config.timeout,
            config.costs,
        );
        crate::worker::inject_worker_faults(&cloud, |wid, _| {
            (wid == 39).then(|| lambada_sim::InjectedFault::slowdown(106.0))
        });
        cloud.sqs.create_queue("results");
        let payloads = (0..40)
            .map(|w| WorkerPayload {
                worker_id: w,
                attempt: 0,
                query: 0,
                task: WorkerTask::Compute { vcpu_seconds: 0.01, threads: 1 },
                edges: Vec::new(),
                children: Vec::new(),
                result_queue: "results".to_string(),
            })
            .collect();
        let (reported, collected_at) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let start = cloud.handle.now();
                invoke_workers(&cloud, &function, payloads).await.unwrap();
                let collected = collect_results(&cloud, &config, "results", 40, &[], start).await;
                (collected.unwrap().results.len(), cloud.handle.now())
            }
        });
        assert_eq!(reported, 40);
        // A worker's report leaves when its processing ends.
        let processed = cloud.trace.spans("worker_processing");
        let last_report = processed.iter().map(|e| e.end).max().unwrap();
        assert!(processed.iter().filter(|e| e.end + secs(0.2) > last_report).count() == 1);
        let lag = (collected_at - last_report).as_secs_f64();
        let sqs_median = cloud.config.sqs.latency_median.as_secs_f64();
        assert!(lag < 2.0 * sqs_median, "collected {lag} s after the last report");
        assert_eq!(sim.pending_timers(), 0, "the dropped polls cancelled their timers");
    }

    /// A poll that returns with the first of two close reports leaves a
    /// spare already listening: the second is collected the moment it
    /// lands, not a fresh poll's round trip (the driver's RTT plus SQS
    /// latency, ≈ 30 ms) later.
    #[test]
    fn a_second_close_report_is_collected_the_moment_it_lands() {
        let (sim, cloud, config) = installed();
        let (landed, collected) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let (sender, at) = (cloud.sqs.client(Duration::ZERO), cloud.handle.clone());
                let last = cloud.handle.spawn(async move {
                    at.sleep(Duration::from_millis(100)).await;
                    sender.send("results", inline_report(0, 0, b"a").encode()).await.unwrap();
                    at.sleep(Duration::from_millis(5)).await;
                    sender.send("results", inline_report(1, 0, b"b").encode()).await.unwrap();
                    at.now()
                });
                let start = cloud.handle.now();
                let collected = collect_results(&cloud, &config, "results", 2, &[], start).await;
                assert_eq!(collected.unwrap().results.len(), 2);
                (last.await, cloud.handle.now())
            }
        });
        let lag = (collected - landed).as_secs_f64();
        assert!(lag < 1e-3, "collected {lag} s after the last report landed");
        assert_eq!(sim.pending_timers(), 0, "the spare poll was dropped with its timers");
    }

    /// A real file of `size` bytes.
    fn file_of(size: u64) -> crate::table::TableFile {
        crate::table::TableFile::real("data", "f", size)
    }

    /// Latency-bound files are dealt evenly, a round of connections to a
    /// worker; a larger file gets a worker of its own and splits the runs
    /// around it. A pin is §5.2's chunking, and a binding fleet cap deals
    /// every file evenly.
    #[test]
    fn scan_fleets_follow_file_sizes() {
        let by_size = Packing::BySize { latency_bound: 100, connections: 4 };
        let chunks = |sizes: &[u64], packing, cap| {
            scan_chunks(&sizes.iter().map(|&s| file_of(s)).collect::<Vec<_>>(), packing, cap)
        };
        let lens = |c: Vec<Range<usize>>| c.iter().map(|r| r.len()).collect::<Vec<_>>();
        assert_eq!(chunks(&[10; 8], by_size, None), vec![0..4, 4..8]);
        assert_eq!(lens(chunks(&[10; 6], by_size, None)), vec![3, 3], "not 4 + 2");
        assert_eq!(lens(chunks(&[10; 5], by_size, None)), vec![2, 3]);
        assert_eq!(chunks(&[10, 10, 101, 10, 100], by_size, None), vec![0..2, 2..3, 3..5]);
        assert_eq!(chunks(&[500; 3], by_size, None), vec![0..1, 1..2, 2..3]);
        assert_eq!(chunks(&[], by_size, None), Vec::<Range<usize>>::new(), "no file, no worker");
        assert_eq!(chunks(&[10; 7], Packing::Pinned(3), None), vec![0..3, 3..6, 6..7]);
        assert_eq!(lens(chunks(&[500; 10], by_size, Some(4))), vec![2, 3, 2, 3]);
        assert_eq!(chunks(&[10; 8], by_size, Some(2)), vec![0..4, 4..8], "the cap does not bind");
    }

    /// Consumer fleets are sized from the bytes they take in, and an
    /// agg-merge fleet takes in states: its input compacted 8:1. Over a
    /// 16 GiB scan at 2 GiB (512 MiB usable per worker) the merge fleet
    /// holds 2 GiB of states, 4 workers, where a sort of the same scan
    /// gets 32; a sort of the merged states gets the merge fleet's 4.
    #[test]
    fn an_agg_merge_fleet_is_sized_from_its_compacted_states() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = LambadaConfig {
            agg: AggStrategy::Exchange { workers: None },
            sort: SortStrategy::Exchange { workers: None },
            ..LambadaConfig::default()
        };
        let mut system = Lambada::install(&cloud, config);
        let schema =
            Schema::new(vec![Field::new("g", DataType::Int64), Field::new("v", DataType::Int64)]);
        let files = (0..16).map(|i| TableFile::real("data", format!("t/{i}"), 1 << 30)).collect();
        system.register_table(TableSpec::new("t", schema.clone(), files, 1 << 30));
        let fleets = |plan: Df| {
            let dag = system.plan(&plan.build()).unwrap();
            system.launch_plan(&dag, None).unwrap().workers
        };
        let g = || lambada_engine::col(0);
        let sum_v = vec![AggExpr::new(AggFunc::Sum, Some(lambada_engine::col(1)), "s")];
        let agg = Df::scan("t", &schema).aggregate(vec![(g(), "g")], sum_v).unwrap();
        assert_eq!(fleets(agg.clone()), vec![16, 4], "scan, agg-merge");
        let sorted = Df::scan("t", &schema).sort(vec![SortKey::asc(g())]).unwrap();
        assert_eq!(fleets(sorted), vec![16, 32], "scan, sort");
        let merged_sorted = agg.sort(vec![SortKey::asc(g())]).unwrap();
        assert_eq!(fleets(merged_sorted), vec![16, 4, 4], "scan, agg-merge, sort");
    }

    /// A sort-edge report of `blocks` ten-byte file blocks and `starts`.
    fn block_report(blocks: usize, starts: Option<Vec<u8>>) -> WorkerResult {
        let sections = vec![Section { len: 10, wire: Wire::File }; blocks];
        let (rows, bytes, inline) = (1, 10 * blocks as u64, Bytes::new());
        let payload = ResultPayload::Sections { rows, bytes, sections, inline, starts };
        WorkerResult::ok(0, payload, WorkerMetrics::default())
    }

    /// One encoded key column, the shape of a producer's starts.
    fn starts(column: Column) -> Option<Vec<u8>> {
        let batch = RecordBatch::from_columns(&["k0"], vec![column]).unwrap();
        Some(crate::partition::encode_batches(&[batch]).unwrap())
    }

    /// The driver checks a sort edge's report before it picks a boundary
    /// from it: one start more than the blocks, of the sort keys' types,
    /// in sort order, the blocks on one file or blob, and starts only on a
    /// sort edge — anything else is a typed error. A damaged tag-7 message, cut anywhere or
    /// with any bit flipped, decodes to an error or to a report the
    /// driver checks, never to a panic.
    #[test]
    fn malformed_starts_are_typed_errors_at_the_driver() {
        let schema = Schema::arc(vec![Field::new("k", DataType::Int64)]);
        let keys = vec![SortKey::asc(lambada_engine::col(0))];
        let edge = SortEdgeSpec { keys, limit: None, schema };
        let tables = |report: WorkerResult, sort| section_tables(&[report], 2, sort);
        let good = || block_report(2, starts(Column::I64(vec![1, 5, 9])));
        let edges = tables(good(), Some(&edge)).unwrap();
        assert_eq!(edges[0].bounds, vec![vec![Scalar::Int64(5)]], "the pool is 1 and 5");
        let at = |r: usize| edges[r].senders[0].at.clone();
        assert_eq!(
            (at(0), at(1)),
            (At::File { offset: 0, len: 10 }, At::File { offset: 0, len: 20 })
        );

        let wired = |wires: [Wire; 2]| {
            let mut report = good();
            if let Ok(ResultPayload::Sections { sections, .. }) = &mut report.outcome {
                sections.iter_mut().zip(wires).for_each(|(s, wire)| s.wire = wire);
            }
            report
        };
        for (what, report, sort) in [
            ("blocks on a mailbox", wired([Wire::Mailbox; 2]), Some(&edge)),
            ("blocks on two wires", wired([Wire::File, Wire::Mailbox]), Some(&edge)),
            ("a row short", block_report(2, starts(Column::I64(vec![1, 5]))), Some(&edge)),
            ("other types", block_report(2, starts(Column::F64(vec![1.0, 5.0, 9.0]))), Some(&edge)),
            ("out of order", block_report(2, starts(Column::I64(vec![5, 1, 9]))), Some(&edge)),
            ("blocks without starts", block_report(2, None), Some(&edge)),
            ("starts on an edge of no blocks", good(), None),
        ] {
            let err = tables(report, sort);
            assert!(matches!(err, Err(CoreError::Format(_))), "{what}: {err:?}");
        }
        assert_eq!(tables(block_report(0, None), Some(&edge)).unwrap()[1].senders.len(), 1);

        let bytes = good().encode();
        let mut damaged = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            if let Ok(report) = WorkerResult::decode(&damaged) {
                let _ = tables(report, Some(&edge));
            }
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..bytes.len() {
            if let Ok(report) = WorkerResult::decode(&bytes[..cut]) {
                let _ = tables(report, Some(&edge));
            }
        }
    }
}
