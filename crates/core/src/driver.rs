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
//! invocation — fleet sizes, partition counts, inline budgets, which
//! edges are handed on in memory — is the query's [`LaunchPlan`], fixed
//! before anything launches by the planner ([`crate::plan`]); the driver
//! reads it and sizes nothing. A fused chain of one-worker stages with
//! its co-hosted scans is one fleet future, one invocation and one
//! result message, with one [`StageReport`] per stage all the same. A
//! member that reads another edge (Q12's join) gets that edge's reports
//! on its inbox while the host runs, straight from its producers — the
//! driver relays nothing — and the host addresses it; a host that waits
//! past its priced bound ships its part after all, and the rest of the
//! chain — its co-hosted scans included — launches as a fleet of its
//! own. Each launch hands its workers one list, the suffix of
//! [`LaunchPlan::chain`] from the stage it starts at ([`ChainStage`]),
//! each stage named for that launch.
//! Results ride that message when they are small
//! ([`crate::message::INLINE_RESULT_BYTES`]); the driver fetches the
//! stored rest concurrently. Collection keeps a few result-queue long
//! polls in flight, one more than the missing reports need, and handles
//! each as it completes, so a stage ends when its last report arrives,
//! not when the slowest poll times out or a fresh poll reaches the queue.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::{BTreeMap, HashMap, HashSet};
use std::future::Future;
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
use lambada_engine::{Column, DataType, Df, RecordBatch, Scalar};
use lambada_sim::services::object_store::Bytes;
use lambada_sim::services::queue::SqsClient;
use lambada_sim::{BillingSnapshot, Cloud, Tally};

use crate::costmodel::ComputeCostModel;
use crate::error::{CoreError, Result};
use crate::exchange::ExchangeBuckets;
use crate::invoke::{self, invoke_workers};
use crate::message::{ResultPayload, Section, Wire, WorkerMetrics, WorkerResult};
use crate::plan::{self, LaunchPlan, Placement};
use crate::scan::ScanConfig;
use crate::sched::StageBoard;
use crate::service::{ServiceConfig, WorkerGate};
use crate::stage::{FinalStage, PostOp, QueryDag, SortStage, StageKind, StageOutput};
use crate::table::TableSpec;
use crate::transport::{address_sections, EdgeTransport, InEdge, TransportKind};
use crate::worker::{
    register_worker_function, result_key, ChainStage, Inbox, ReportTop, StageSink, StageTask,
    WorkerPayload, WorkerTask,
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

/// The name the worker function is registered under: one function per
/// installation (§2.1), which [`Lambada::install`] registers and every
/// fleet invokes.
pub const WORKER_FUNCTION: &str = "lambada-worker";

/// System configuration fixed at installation time (§2.1's "installation").
#[derive(Clone, Debug)]
pub struct LambadaConfig {
    /// Worker memory size M (the knob of Fig 10).
    pub memory_mib: u32,
    pub timeout: Duration,
    /// Fixed files per scan worker F; the worker count is then
    /// `ceil(#files / F)` (§5.2). `None` derives each scan's chunks from
    /// its file sizes: latency-bound files are packed a round of
    /// connections to a worker ([`plan::launch_plan`]).
    pub files_per_worker: Option<usize>,
    pub scan: ScanConfig,
    pub costs: ComputeCostModel,
    /// Give up waiting for workers after this long.
    pub max_wait: Duration,
    /// Bucket for collect-fragment outputs.
    pub result_bucket: String,
    /// The buckets stage-edge files shard over (§4.4.1).
    pub exchange: ExchangeBuckets,
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
            memory_mib: 2048,
            timeout: Duration::from_secs(300),
            files_per_worker: None,
            scan: ScanConfig::default(),
            costs: ComputeCostModel::default(),
            max_wait: Duration::from_secs(900),
            result_bucket: "lambada-results".to_string(),
            exchange: ExchangeBuckets::default(),
            join_workers: None,
            agg: AggStrategy::DriverMerge,
            sort: SortStrategy::Driver,
            transport: TransportKind::default(),
            speculate: false,
            service: ServiceConfig::default(),
        }
    }
}

/// Scheduling constraints the driver enforces on one query: the worker
/// gate and the fleet cap. Plain [`Lambada::run_dag`] calls use the
/// default (no gate, no cap); the query service builds one per admitted
/// query, and stamps the tenant and span on the report itself.
#[derive(Clone, Default)]
pub struct ExecPolicy {
    /// Global in-flight worker gate shared across concurrent queries; a
    /// stage's fleet acquires permits before invoking and releases them
    /// once collected.
    pub gate: Option<WorkerGate>,
    /// Cap on cost-model-sized fleets (contention shrinking). Fleets the
    /// installation pins explicitly stay pinned.
    pub fleet_cap: Option<usize>,
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
    /// the head of the fused chain this stage ran in, as a member or as
    /// a co-hosted scan (see [`LaunchPlan::placement`]) — or, after its
    /// host fell back, the stage the rest of the chain launched at. Such
    /// a stage shares its head's launch and timing, and launches no
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
    /// driver addresses every stage edge — but a hosted stage's other
    /// in-edge, which its host addresses from its inbox: that wait is
    /// the member's processing time (the trace's `inbox_wait`), not this.
    pub exchange_wait_secs: f64,
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
    /// Queue requests this stage's workers were billed: their result
    /// messages' sends, to the driver and to the inboxes they feed, and
    /// the inbox receives of a stage that waits. With
    /// [`QueryReport::driver_sqs_requests`] the stages' counts sum to the
    /// query's billed SQS requests.
    pub sqs_requests: u64,
    /// Speculative backup invocations this stage's fleet needed (0 when
    /// no worker straggled past the speculation thresholds).
    pub backup_invocations: u64,
}

impl StageReport {
    /// Dollar cost of this stage's S3 requests (exact, per worker
    /// accounting: safe to sum across stages and concurrent queries).
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
    /// Tenant the query ran for: `"local"` as the driver returns it; the
    /// query service stamps the submitting tenant.
    pub tenant: String,
    /// Driver-assigned query id (the `q{id}` of the query's exchange
    /// channels and result queues) — what [`crate::worker::inject_query_worker_faults`]
    /// matches on.
    pub query_id: u64,
    /// End-to-end latency in (virtual) seconds: invocation + work +
    /// result collection (§5.1's measurement definition).
    pub latency_secs: f64,
    /// Submission → completion span in (virtual) seconds. Equals
    /// `latency_secs` as the driver returns it; the query service stamps
    /// the span from submission at the instant the driver returned, so it
    /// also counts the time queued in admission control.
    pub span_secs: f64,
    /// Seconds spent in driver-side invocation calls, summed over stages.
    pub invoke_secs: f64,
    /// The query's billing window: the cloud's billing delta from launch
    /// to return. Exact when the query ran alone; under the concurrent
    /// query service the window also bills neighbors' requests, so
    /// per-tenant accounting uses the exact per-stage request counters
    /// ([`QueryReport::request_dollars`]) instead. It stays a window until
    /// each stage carries an exact bill of its own (ROADMAP item 3(b)–(c)).
    pub cost: BillingSnapshot,
    /// Worker invocations launched across all stages: one per fleet
    /// slot, except that a fused chain of one-worker stages and its
    /// co-hosted scans run in one invocation. (`Σ stages[i].workers`
    /// minus the stages that ran in another's invocation — a host that
    /// fell back launched one more; speculative backups are counted
    /// separately.)
    pub workers: usize,
    pub cold_starts: u64,
    pub worker_metrics: Vec<WorkerMetrics>,
    /// One entry per executed stage, in launch order.
    pub stages: Vec<StageReport>,
    /// The driver's own queue requests: its receives on the query's
    /// result queues, empty ones included.
    pub driver_sqs_requests: u64,
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
    /// fused chain with its co-hosted scans being one — plus the
    /// speculative backups.
    pub fn invocations(&self) -> u64 {
        self.workers as u64 + self.backup_invocations()
    }

    /// Dollar cost of the query's exact S3 requests
    /// ([`QueryReport::s3_requests`]) and worker invocations
    /// ([`QueryReport::invocations`]) at the given prices — the request-$
    /// drawn against a tenant's budget. Unlike [`QueryReport::cost`],
    /// attribution stays exact when queries run concurrently.
    pub fn request_dollars(&self, prices: &lambada_sim::Prices) -> f64 {
        self.stages.iter().map(|s| s.request_dollars(prices)).sum::<f64>()
            + self.invocations() as f64 * prices.lambda_request
    }
}

/// A Lambada installation bound to one simulated cloud.
pub struct Lambada {
    cloud: Cloud,
    config: Rc<LambadaConfig>,
    /// Registered tables. Interior-mutable so long-lived shared handles
    /// (the query service holds the installation in an `Rc`) can
    /// register/unregister the short-lived per-micro-batch tables the
    /// streaming runtime stages.
    tables: std::cell::RefCell<HashMap<String, Rc<TableSpec>>>,
    query_seq: std::cell::Cell<u64>,
    /// Process-unique installation id, namespacing every per-query name
    /// ([`QueryScope`]) so several installations (or re-installs) on one
    /// cloud never collide.
    instance: u64,
}

static INSTANCE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The one owner of what a query creates in the cloud. Opened once per
/// [`Lambada::run_dag_with`] from the installation id `i` and the query
/// id `q`, it names every per-query resource, registers the p2p
/// endpoints and creates the inboxes before anything launches, holds the
/// query's [`EdgeTransport`], and releases everything in its one
/// [`Drop`] when the query returns, however it returns — success, typed
/// error or timeout:
///
/// | resource | name | released |
/// |---|---|---|
/// | stage `s`'s out-edge (channel) | `x{i}/q{q}/s{s}` | — |
/// | receiver `r`'s endpoint on it | `x{i}/q{q}/s{s}/r{r}`, by [`EdgeTransport::endpoint`] | deregistered by prefix |
/// | a sender's file on it | `x{i}/q{q}/s{s}/snd{w}a{attempt}`, in an exchange bucket | deleted |
/// | stage `s`'s inbox, where its other in-edge's producers post their reports | `lambada-inbox-x{i}-q{q}-s{s}` | deleted |
/// | the result queue of a launch at stage `h` | `lambada-results-x{i}-q{q}-s{h}` | deleted by its launch ([`run_fleet`]) |
/// | worker `w`'s stored result | `results/x{i}-q{q}/w{w}`, in the result bucket | deleted |
///
/// Every channel, endpoint and edge file lies under the prefix
/// `x{i}/q{q}/`, and every queue name and result key carries
/// `x{i}-q{q}`: no name of one query is another query's, or another
/// installation's. The objects are deleted by key, with no LIST
/// ([`ObjectStore::delete_objects`](lambada_sim::services::object_store::ObjectStore::delete_objects)):
/// the launch plan fixes every fleet, so the keys are every worker's
/// file on every out-edge not handed on in-process, for attempt 0 and,
/// under speculation, its backup, and every final worker's result.
///
/// One object can outlive the query: a speculated straggler that is slow
/// but alive may PUT its attempt's file after the query returned.
/// Cancelling the running attempts (ROADMAP item 13(b)) closes that.
pub(crate) struct QueryScope {
    cloud: Cloud,
    config: Rc<LambadaConfig>,
    query: u64,
    /// `x{i}/q{q}/`.
    prefix: String,
    /// `x{i}-q{q}`.
    tag: String,
    transport: Rc<EdgeTransport>,
    inboxes: Vec<String>,
    /// `(stage, workers)` for every stage whose out-edge may be written
    /// to the object store.
    senders: Vec<(usize, usize)>,
    /// The driver-bound stage's fleet: each worker may store its result.
    reporters: usize,
    /// The driver's queue client for the query's result queues: its
    /// tally is the driver's own queue requests.
    sqs: SqsClient,
}

impl QueryScope {
    /// Open query `query`'s scope on `system` for the fleets of `launch`,
    /// on the installation's [`LambadaConfig::transport`] — the one
    /// setting that picks a query's wire. On the direct transport it
    /// registers every consumer endpoint *now*: the launch plan fixed
    /// every fleet size, so the address book is complete before the first
    /// producer launches, even though consumer fleets launch later. A
    /// registration failure (capacity) is fine: senders fall back to the
    /// object store for an unregistered endpoint. A sort edge
    /// ([`LaunchPlan::sort_reader`]) has no endpoint — blocks are not
    /// receivers — and neither has a co-hosted edge, nor a fused one
    /// unless its reader waits: then the host may ship its part after all
    /// ([`LaunchPlan::ships`]). Every waiting stage's inbox exists before
    /// its host or any of its producers launches.
    fn open(system: &Lambada, query: u64, launch: &LaunchPlan<'_>) -> Self {
        let (cloud, instance) = (&system.cloud, system.instance);
        let p2p = (system.config.transport == TransportKind::Direct).then(|| cloud.p2p.clone());
        let direct = p2p.is_some();
        let mut scope = QueryScope {
            cloud: cloud.clone(),
            config: Rc::clone(&system.config),
            query,
            prefix: format!("x{instance}/q{query}/"),
            tag: format!("x{instance}-q{query}"),
            transport: Rc::new(EdgeTransport::new(system.config.exchange.clone(), p2p)),
            inboxes: Vec::new(),
            senders: Vec::new(),
            reporters: launch.workers.last().copied().unwrap_or_default(),
            sqs: cloud.driver_sqs(),
        };
        for (sid, &parts) in launch.partitions.iter().enumerate() {
            let ships = launch.ships(sid);
            let streams = direct && ships && launch.sort_reader(sid).is_none();
            for r in (0..parts).filter(|_| streams) {
                cloud.p2p.register(&EdgeTransport::endpoint(&scope.channel(sid), r));
            }
            if parts > 0 && ships {
                scope.senders.push((sid, launch.workers[sid]));
            }
        }
        let waiting = (0..launch.workers.len()).filter(|&sid| launch.waits(sid));
        scope.inboxes = waiting.map(|sid| scope.inbox(sid)).collect();
        for inbox in &scope.inboxes {
            cloud.sqs.create_queue(inbox);
        }
        scope
    }

    /// Stage `sid`'s out-edge.
    fn channel(&self, sid: usize) -> String {
        format!("{}s{sid}", self.prefix)
    }

    /// Stage `sid`'s inbox: where the producers of its other in-edge post
    /// their reports while its host runs.
    fn inbox(&self, sid: usize) -> String {
        format!("lambada-inbox-{}-s{sid}", self.tag)
    }

    /// The result queue of a launch at stage `head`.
    fn result_queue(&self, head: usize) -> String {
        format!("lambada-results-{}-s{head}", self.tag)
    }

    /// The key prefix of the query's stored results.
    fn result_prefix(&self) -> String {
        format!("results/{}", self.tag)
    }

    /// Every object key the query can write, by bucket.
    fn objects(&self) -> BTreeMap<String, Vec<String>> {
        let attempts = if self.config.speculate { MAX_BACKUP_ATTEMPTS } else { 0 };
        let mut objects: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for &(sid, workers) in &self.senders {
            let channel = self.channel(sid);
            for (w, a) in (0..workers).flat_map(|w| (0..=attempts).map(move |a| (w, a))) {
                let (bucket, key) = self.transport.file_of(&channel, w, a);
                objects.entry(bucket).or_default().push(key);
            }
        }
        let prefix = self.result_prefix();
        let results = (0..self.reporters as u64).map(|w| result_key(&prefix, w));
        objects.entry(self.config.result_bucket.clone()).or_default().extend(results);
        objects
    }
}

impl Drop for QueryScope {
    fn drop(&mut self) {
        self.cloud.p2p.deregister_prefix(&self.prefix);
        for inbox in &self.inboxes {
            self.cloud.sqs.delete_queue(inbox);
        }
        for (bucket, keys) in self.objects() {
            self.cloud.s3.delete_objects(&bucket, keys);
        }
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
    backup_invocations: u64,
}

impl Lambada {
    /// Install the system: register the worker function and create the
    /// result + exchange buckets. Only serverless resources — nothing
    /// keeps running between queries.
    pub fn install(cloud: &Cloud, config: LambadaConfig) -> Lambada {
        register_worker_function(
            cloud,
            WORKER_FUNCTION,
            config.memory_mib,
            config.timeout,
            config.costs,
        );
        cloud.s3.create_bucket(&config.result_bucket);
        config.exchange.install(cloud);
        Lambada {
            cloud: cloud.clone(),
            config: Rc::new(config),
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
    /// streaming runtime registers each micro-batch's table on the
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
        let spec = tables.get(name).ok_or_else(|| plan::unknown_table(name))?;
        Ok(Df::scan(name, &spec.schema))
    }

    /// Optimize and lower a logical plan into this installation's stage
    /// DAG without executing it — what [`Lambada::run_query`] does before
    /// dispatch, and what the query service plans at submission time
    /// ([`plan::lower`]).
    pub fn plan(&self, plan: &LogicalPlan) -> Result<QueryDag> {
        plan::lower(plan, &self.tables.borrow(), &self.config)
    }

    /// Statically verify a DAG against this installation without
    /// executing anything: the structural operator contracts
    /// ([`crate::verify::verify_dag`]) plus the fleet plan the driver
    /// would launch ([`crate::verify::verify_fleets`],
    /// [`crate::verify::verify_fused`], [`crate::verify::verify_payloads`]).
    /// Returns [`CoreError::InvalidPlan`] carrying every violated
    /// contract. The query service runs this before admission reserves
    /// tenant budget.
    pub fn verify_plan(&self, dag: &QueryDag) -> Result<()> {
        self.launch_plan(dag, None).map(|_| ())
    }

    /// Verify `dag` and fix everything about its fleets that is known
    /// before the first invocation, under `fleet_cap`: the
    /// [`LaunchPlan`] [`plan::launch_plan`] builds from the registered
    /// tables, this installation's config and the cloud's.
    pub fn launch_plan<'a>(
        &self,
        dag: &'a QueryDag,
        fleet_cap: Option<usize>,
    ) -> Result<LaunchPlan<'a>> {
        plan::launch_plan(dag, &self.tables.borrow(), &self.config, &self.cloud.config, fleet_cap)
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

        let scope = Rc::new(QueryScope::open(self, qid, &launch));

        // Build every stage's task before anything launches. Edge
        // addresses are the one per-worker part known only at launch: the
        // fleet fills them in.
        let n = dag.stages.len();
        let tasks: Vec<_> =
            (0..n).map(|sid| Rc::new(self.stage_task(&scope, sid, &launch))).collect();
        let heads: Vec<usize> = (0..n).filter(|&sid| launch.is_chain_head(sid)).collect();
        let entry = |sid: usize| {
            let (slot, waits) = launch.handoff(sid);
            let inbox =
                waits.map(|(slot, senders)| Inbox { queue: scope.inbox(sid), slot, senders });
            let cohosted = launch.placement[sid] == Placement::CoHosted;
            let (label, task) = (dag.stages[sid].label(sid), Rc::clone(&tasks[sid]));
            ChainStage { sid, label, task, slot, inbox, cohosted }
        };

        // One concurrently spawned fleet future per chain head, sequenced
        // by the shared board: each future sleeps until its head's inputs
        // have completed, addresses its workers' reads from their
        // producers' section tables, admits its whole fleet through the
        // gate, invokes, and collects.
        let board = Rc::new(StageBoard::new(dag));
        let mut handles = Vec::with_capacity(heads.len());
        for &head in &heads {
            let chain = launch.chain(head).into_iter().map(entry).collect();
            handles.push(self.cloud.handle.spawn(run_fleet(
                Rc::clone(&scope),
                policy.gate.clone(),
                Rc::clone(&board),
                launch.workers[head],
                chain,
            )));
        }
        // On failure the board's failed flag stands the unlaunched
        // fleets down (they resolve to `None`), so this join always
        // drains; the lowest-numbered failing chain head — the most
        // upstream, usually the root cause — wins error reporting.
        let outcomes = lambada_sim::sync::join_all(handles).await;
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
                    for (&sid, r) in ran.iter().zip(r.split_fused()) {
                        results[sid].push(r);
                    }
                }
                runs[first] = Some(run);
            }
        }

        // The driver's GETs of stored reports count in the last stage's.
        let (reported, fetched) = self.reported(results.last().map_or(&[], Vec::as_slice)).await?;
        let mut stage_reports: Vec<StageReport> = Vec::with_capacity(n);
        let mut all_metrics: Vec<WorkerMetrics> = Vec::new();
        let mut cold_starts = 0u64;
        for (sid, kind) in dag.stages.iter().enumerate() {
            let head = chain_of[sid];
            let run = runs[head].as_ref().ok_or_else(|| never_ran(sid))?;
            let reports = &results[sid];
            let mut driver = WorkerMetrics::default();
            if sid + 1 == n {
                driver.add(fetched);
            }
            let sum = |f: fn(&WorkerMetrics) -> u64| {
                reports.iter().map(|r| f(&r.metrics)).sum::<u64>() + f(&driver)
            };
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
                sqs_requests: sum(|m| m.sqs_requests),
                // Backups relaunch a whole chain: counted once, at its head.
                backup_invocations: if head == sid { run.backup_invocations } else { 0 },
            });
        }

        let (batch, agg_state) = self.finalize(&dag.final_stage, &reported)?;
        let now = self.cloud.handle.now();
        let latency_secs = (now - start).as_secs_f64();
        let cost = self.cloud.billing.snapshot().since(&cost_before);
        Ok(QueryReport {
            batch,
            tenant: "local".to_string(),
            query_id: qid,
            latency_secs,
            span_secs: latency_secs,
            invoke_secs,
            cost,
            workers: workers_total,
            cold_starts,
            worker_metrics: all_metrics,
            stages: stage_reports,
            driver_sqs_requests: scope.sqs.tally().sqs_requests,
            agg_state,
        })
    }

    /// Build stage `sid`'s task — the one assignment its whole fleet
    /// shares: the planner's stage with its terminal sized for the sink,
    /// its in-edges' channels by slot, a scan's file runs, and its output
    /// as a sink, all sized by the launch plan.
    fn stage_task(&self, scope: &QueryScope, sid: usize, launch: &LaunchPlan<'_>) -> StageTask {
        let dag = launch.edges.dag;
        let mut kind = dag.stages[sid].clone();
        let channel = scope.channel(sid);
        let (partitions, inline_budget) = (launch.partitions[sid], launch.inline_budgets[sid]);
        let sink = match (launch.sort_reader(sid), kind.output()) {
            (Some(sort), _) => StageSink::SortEdge {
                channel,
                inline_budget,
                receivers: partitions,
                sort: sort.clone(),
            },
            (None, StageOutput::Driver) => StageSink::Report {
                top: report_top(&dag.final_stage),
                // The driver carries the merged state across micro-batches.
                emit_state: matches!(dag.final_stage, FinalStage::CarryAggState { .. }),
            },
            (None, _) => StageSink::Edge { channel, inline_budget, receivers: partitions },
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
        let in_channels = kind.inputs().into_iter().map(|input| scope.channel(input)).collect();
        let scan = launch.scans[sid].clone();
        // Every hosted stage that reads the out-edge unfused waits for it.
        let waiting = launch.edges.readers[sid].iter().filter_map(|r| r.stage);
        let waiting = waiting.filter(|&c| launch.waits(c) && launch.fused_into(sid) != Some(c));
        StageTask {
            kind,
            in_channels,
            scan,
            sink,
            transport: Rc::clone(&scope.transport),
            result_bucket: self.config.result_bucket.clone(),
            result_prefix: scope.result_prefix(),
            inboxes: waiting.map(|c| scope.inbox(c)).collect(),
        }
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
    /// is in flight before the first is awaited — and the tally of the
    /// driver's client that fetched them. Reports of nothing are skipped.
    async fn reported(&self, results: &[WorkerResult]) -> Result<(Vec<Bytes>, Tally)> {
        let s3 = self.cloud.driver_s3();
        let fetches: Vec<_> = results
            .iter()
            .map(|r| match &r.outcome {
                Ok(ResultPayload::Stored { bucket, key, .. }) => {
                    let (s3, bucket, key) = (s3.clone(), bucket.clone(), key.clone());
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
                    fetch.await?.as_real().cloned().ok_or_else(|| {
                        CoreError::Storage("stored result was synthetic".to_string())
                    })?
                }
                _ => continue,
            });
        }
        Ok((reported, s3.tally()))
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

/// The list a launch at `chain[0]` hands each of its workers: every stage
/// of the chain from there on, each named for the invocation it runs in —
/// a member after the first by its host, a co-hosted scan by the
/// launch's first stage, which is that invocation's.
fn launch_list(chain: &[ChainStage]) -> Rc<[ChainStage]> {
    let first = chain.first().map_or("", |s| &s.label);
    let mut host = first;
    let named = chain.iter().enumerate().map(|(k, s)| {
        let own = s.label.as_str();
        let label = match k {
            0 => own.to_string(),
            _ if s.cohosted => format!("{own} (co-hosted in {first})"),
            _ => format!("{own} (fused after {})", std::mem::replace(&mut host, own)),
        };
        ChainStage { label, ..s.clone() }
    });
    named.collect()
}

/// Invoke one chain's fleet and collect every worker's report: `workers`
/// workers (a chain of several stages is one) running `chain` — the head,
/// then every stage fused after it, each member's co-hosted scans just
/// before it, under their plain labels ([`launch_list`] names them for
/// each launch). A free function over owned handles: the driver spawns
/// one per chain head and the shared [`StageBoard`] sequences them — each
/// future first sleeps until its head's inputs have completed, then
/// addresses every worker's reads from its producers' section tables,
/// admits its whole fleet through the gate, invokes, and collects. A waiting member's
/// other in-edge reaches its host from the producers themselves, never
/// through here. The members that ran complete with the fleet; the last
/// one's section tables go on the board for its consumers.
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
    scope: Rc<QueryScope>,
    gate: Option<WorkerGate>,
    board: Rc<StageBoard>,
    mut workers: usize,
    chain: Vec<ChainStage>,
) -> Result<Option<Vec<StageRun>>> {
    let (cloud, config) = (&scope.cloud, &scope.config);
    let (mut runs, mut at) = (Vec::new(), 0);
    while let Some(head) = chain.get(at).map(|s| s.sid) {
        let list = launch_list(&chain[at..]);
        let enqueued = cloud.handle.now();
        loop {
            if board.failed() {
                return Ok(None);
            }
            if board.ready(head) {
                break;
            }
            board.notified().await;
        }
        let result_queue = scope.result_queue(head);
        let payloads: Vec<WorkerPayload> = (0..workers)
            .map(|w| WorkerPayload {
                // The worker id doubles as the file-chunk id (scans) or
                // the partition id (consumers).
                worker_id: w as u64,
                attempt: 0,
                query: scope.query,
                task: WorkerTask::Stage(Rc::clone(&list)),
                edges: board.addresses(head, w),
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
        // Only the straggler watcher re-reads the assignments; don't copy a
        // paper-scale fleet's payloads when speculation is off.
        let retained: Vec<WorkerPayload> =
            if config.speculate { payloads.clone() } else { Vec::new() };
        let weights = list.first().map_or_else(Vec::new, |s| scan_weights(&s.task, workers));
        let invoked = invoke_workers(cloud, WORKER_FUNCTION, payloads, &weights).await;
        let invoke_secs = (cloud.handle.now() - stage_start).as_secs_f64();
        let collected = match invoked {
            Ok(()) => {
                let sqs = &scope.sqs;
                collect_results(cloud, config, sqs, &result_queue, workers, &retained, stage_start)
                    .await
            }
            Err(e) => Err(e),
        };
        cloud.sqs.delete_queue(&result_queue);
        drop(lease);
        let written = collected.and_then(|c| {
            let ran = members_ran(&c.results, &list)?;
            let sink = &list[ran - 1].task.sink;
            let tables = section_tables(&c.results, sink.receivers(), sink.sort())?;
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
        let members = &list[..ran];
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
            backup_invocations: collected.backup_invocations,
        });
        // A fused member runs on one worker, and so does the fleet that
        // picks the chain up after a host fell back.
        (at, workers) = (at + ran, 1);
    }
    Ok(Some(runs))
}

/// Each of a scan launch's `workers` by the bytes it is predicted to read
/// ([`crate::predict::scan_weight`]), so the tree starts the heaviest
/// first; no weights for any other launch.
fn scan_weights(task: &StageTask, workers: usize) -> Vec<u64> {
    let (StageKind::Scan(stage), Some(scan)) = (&task.kind, &task.scan) else {
        return Vec::new();
    };
    let (columns, predicate) = (&stage.scan_columns, stage.prune_predicate.as_ref());
    let weight = |w| crate::predict::scan_weight(scan.files(w as u64), columns, predicate);
    (0..workers).map(weight).collect()
}

/// How many stages of `chain` — the launch's list — the launch's workers
/// ran: all of them, or the ones up to a host that fell back before a
/// waiting member. Every report must agree: the one chain-length check.
fn members_ran(results: &[WorkerResult], chain: &[ChainStage]) -> Result<usize> {
    let ran = results.first().map_or(chain.len(), |r| r.fused.len() + 1);
    let stopped_at_inbox = chain.get(ran).is_some_and(|s| s.inbox.is_some());
    let agreed = results.iter().all(|r| r.fused.len() + 1 == ran);
    if !agreed || ran > chain.len() || (ran < chain.len() && !stopped_at_inbox) {
        let (head, members) = (chain.first().map_or(0, |s| s.sid), chain.len());
        return Err(CoreError::Engine(format!(
            "a worker of stage {head} reported {ran} stages of its {members}-stage chain"
        )));
    }
    Ok(ran)
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
    sort: Option<&SortStage>,
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
    edge: &SortStage,
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
    sqs: &SqsClient,
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
            if !result.kept(&seen)? {
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
                    speculate(cloud, payloads, &seen, &mut attempts_launched).await?;
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
        // Directly from the driver: backup fleets are a handful of
        // workers, so the two-level tree would only add latency. Each
        // backup carries no children — every missing worker, a dead
        // first-generation worker's never-invoked subtree included, is
        // re-issued individually.
        let direct = invoke::InvocationStrategy::Direct;
        invoke::invoke_workers_as(cloud, WORKER_FUNCTION, backups, direct).await?;
    }
    Ok(launched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::WorkerEnv;
    use crate::exchange::{encode_bundle_into, PartData};
    use crate::invoke::{build_tree, schedule, InvocationStrategy::Soonest};
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
        let (name, memory, timeout) = (WORKER_FUNCTION, config.memory_mib, config.timeout);
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
                let collected =
                    collect_results(&cloud, &config, &cloud.driver_sqs(), "results", 2, &[], start)
                        .await;
                let tables = section_tables(&collected.unwrap().results, 1, None).unwrap();
                let addrs = tables[0].senders.clone();
                assert_eq!(addrs.iter().map(|a| a.attempt).collect::<Vec<_>>(), vec![1, 0]);
                let t = EdgeTransport::new(config.exchange.clone(), None);
                let env = WorkerEnv::bare(&cloud, 0, 2048, config.costs);
                (t.recv(&env, "x0/q0/s0", 0, &addrs).await.unwrap(), env.tally())
            }
        });
        let bytes = |b: &[u8]| PartData::Real(b.to_vec());
        assert_eq!(parts.0, vec![bytes(b"backup"), bytes(b"other")]);
        assert_eq!(parts.1.gets, 0, "nothing is fetched");
    }

    /// A 256-sender edge into a 128-worker consumer fleet, which the
    /// driver invokes through the two-level tree: every sender ships its
    /// whole budget inline, all of it to the first tree group, so that
    /// group's first-generation payload carries all 256 senders' bytes
    /// and its six workers' 256 addresses each — within Lambda's cap,
    /// and invoked. The budget leaves room for the √P tree's group of
    /// eleven, which a budget blind to the addresses would overrun, and
    /// the launched group is never larger. A payload past the cap is a
    /// typed error, not a panic.
    #[test]
    fn a_first_generation_payload_stays_within_the_invoke_cap() {
        let (sim, cloud, config) = installed();
        let (senders, receivers) = (256, 128);
        assert!(schedule(cloud.region(), receivers, Soonest).iter().any(|s| s.parent.is_some()));
        let budget = crate::transport::inline_budget(senders, receivers, 0);
        let ids = (0..receivers).map(|r| payload(r as u64, Vec::new())).collect();
        let tree = build_tree(cloud.region(), ids, &[], Soonest);
        let first_group: Vec<usize> = std::iter::once(&tree[0])
            .chain(&tree[0].children)
            .map(|p| p.worker_id as usize)
            .collect();
        let (group, budgeted) = (first_group.len(), invoke::tree_shape(receivers).1);
        assert!(group <= budgeted, "{group} > {budgeted}");
        assert!(INLINE_EDGE_BYTES + budgeted * senders * ADDRESS_BYTES > MAX_ASYNC_PAYLOAD_BYTES);
        let addresses = group * senders * ADDRESS_BYTES;
        let (carried, invoked, over) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let t = EdgeTransport::new(config.exchange.clone(), None);
                let mut tables = Vec::new();
                for s in 0..senders {
                    let env = WorkerEnv::bare(&cloud, s as u64, 2048, config.costs);
                    // One part, to a receiver of the first group, that
                    // encodes to the budget: its count, receiver id and
                    // two-byte length prefix, then its bytes.
                    let to = first_group[s % group];
                    let mut parts = vec![PartData::Real(Vec::new()); receivers];
                    parts[to] = PartData::Real(vec![s as u8; budget as usize - 4]);
                    let (_, sections, inline) =
                        t.send(&env, "x0/q0/s0", s, parts, budget, true).await.unwrap();
                    assert_eq!(sections[to], Section { len: budget, wire: Wire::Inline });
                    let own: Vec<_> = (0..receivers).map(|r| (r, r)).collect();
                    tables.push(address_sections(0, &sections, &inline, &own, receivers).unwrap());
                }
                let payloads: Vec<WorkerPayload> = (0..receivers)
                    .map(|r| payload(r as u64, tables.iter().map(|t| t[r].clone()).collect()))
                    .collect();
                let carried: Vec<usize> =
                    build_tree(cloud.region(), payloads.clone(), &[], Soonest)
                        .iter()
                        .map(|p| p.edge_bytes(ADDRESS_BYTES))
                        .collect();
                let invoked = invoke_workers(&cloud, WORKER_FUNCTION, payloads, &[]).await;
                let bytes = Bytes::from(vec![0; MAX_ASYNC_PAYLOAD_BYTES + 1]);
                let huge = payload(0, vec![SectionAddr { attempt: 0, at: At::Inline(bytes) }]);
                (carried, invoked, invoke_workers(&cloud, WORKER_FUNCTION, vec![huge], &[]).await)
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
        register_worker_function(
            &cloud,
            WORKER_FUNCTION,
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
                invoke_workers(&cloud, WORKER_FUNCTION, payloads, &[]).await.unwrap();
                let collected = collect_results(
                    &cloud,
                    &config,
                    &cloud.driver_sqs(),
                    "results",
                    40,
                    &[],
                    start,
                )
                .await;
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
                let collected =
                    collect_results(&cloud, &config, &cloud.driver_sqs(), "results", 2, &[], start)
                        .await;
                assert_eq!(collected.unwrap().results.len(), 2);
                (last.await, cloud.handle.now())
            }
        });
        let lag = (collected - landed).as_secs_f64();
        assert!(lag < 1e-3, "collected {lag} s after the last report landed");
        assert_eq!(sim.pending_timers(), 0, "the spare poll was dropped with its timers");
    }

    /// A query's names come from its scope alone. Every endpoint the scope
    /// registers is the transport's endpoint for its channel and receiver
    /// and lies under the prefix its release deregisters; its inboxes exist
    /// until it is dropped. The names of two queries of one installation,
    /// and of one query id on two installations, are pairwise distinct,
    /// and no scope's prefix covers another scope's channel (query 1's
    /// does not cover query 10's).
    #[test]
    fn a_query_scope_names_and_releases_what_its_query_creates() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let config = LambadaConfig {
            join_workers: Some(1),
            agg: AggStrategy::Exchange { workers: Some(3) },
            files_per_worker: Some(1),
            ..LambadaConfig::default()
        };
        let field = |name: &str| Field::new(name, DataType::Int64);
        let (t, u) = (Schema::new(vec![field("g"), field("v")]), Schema::new(vec![field("k")]));
        let install = |transport| {
            let mut system =
                Lambada::install(&cloud, LambadaConfig { transport, ..config.clone() });
            for (name, schema, files) in [("t", &t, 1), ("u", &u, 2)] {
                let files =
                    (0..files).map(|f| TableFile::real("data", format!("{name}/{f}"), 1000));
                system.register_table(TableSpec::new(name, schema.clone(), files.collect(), 100));
            }
            system
        };
        let (a, b) = (install(TransportKind::Direct), install(TransportKind::ObjectStore));
        // scan t, a two-worker scan u → a one-worker join, fused into
        // scan t and waiting on its inbox for u's reports → a three-worker
        // agg-merge fleet. (Beside a one-worker u, co-hosted in its host,
        // the join would wait for nothing.)
        let sum_v = vec![AggExpr::new(AggFunc::Sum, Some(lambada_engine::col(1)), "s")];
        let joined = Df::scan("t", &t).join(Df::scan("u", &u), &[("g", "k")]).unwrap();
        let query = joined.aggregate(vec![(lambada_engine::col(0), "g")], sum_v).unwrap();
        let dag = a.plan(&query.build()).unwrap();
        let (plan_a, plan_b) =
            (a.launch_plan(&dag, None).unwrap(), b.launch_plan(&dag, None).unwrap());
        let stages = 0..dag.stages.len();
        let endpoints = |scope: &QueryScope, launch: &LaunchPlan<'_>| -> Vec<Rc<str>> {
            let ends = stages.clone().flat_map(|sid| {
                let channel = scope.channel(sid);
                (0..launch.partitions[sid]).map(move |r| EdgeTransport::endpoint(&channel, r))
            });
            ends.filter(|e| cloud.p2p.is_registered(e)).collect()
        };

        let queues = cloud.sqs.queue_count();
        let scope = QueryScope::open(&a, 0, &plan_a);
        let registered = endpoints(&scope, &plan_a);
        assert!(registered.len() > 3, "the agg edge's three and a join input's: {registered:?}");
        assert_eq!(registered.len(), cloud.p2p.endpoint_count(), "nothing else is registered");
        assert!(registered.iter().all(|e| e.starts_with(&scope.prefix)), "{registered:?}");
        assert!(!scope.inboxes.is_empty(), "the join waits on its inbox");
        assert_eq!(cloud.sqs.queue_count(), queues + scope.inboxes.len());
        drop(scope);
        assert_eq!((cloud.p2p.endpoint_count(), cloud.sqs.queue_count()), (0, queues));

        let scopes = [
            QueryScope::open(&a, 1, &plan_a),
            QueryScope::open(&a, 10, &plan_a),
            QueryScope::open(&b, 1, &plan_b),
        ];
        let mut names = HashSet::new();
        for scope in &scopes {
            for sid in stages.clone() {
                let channel = scope.channel(sid);
                let ends = (0..3).map(|r| EdgeTransport::endpoint(&channel, r).to_string());
                let queues = [scope.inbox(sid), scope.result_queue(sid)];
                for name in ends.chain(queues).chain([channel.clone(), scope.result_prefix()]) {
                    names.insert(name);
                }
                let mut others = scopes.iter().filter(|other| other.prefix != scope.prefix);
                assert!(others.all(|other| !channel.starts_with(&other.prefix)), "{channel}");
            }
        }
        let per_scope = dag.stages.len() * 6 + 1;
        assert_eq!(names.len(), scopes.len() * per_scope, "no name is shared");
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
        let edge = SortStage { input: 0, schema, keys, limit: None };
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

        crate::wire_fuzz::sweep(&good().encode(), |_, damaged| {
            if let Ok(report) = WorkerResult::decode(damaged) {
                let _ = tables(report, Some(&edge));
            }
        });
    }
}
