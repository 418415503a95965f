//! The serverless worker: event handler + execution engine wrapper (§3.3).
//!
//! The handler extracts the worker id, plan fragment, and inputs from the
//! invocation payload, runs the fragment while it invokes its
//! second-generation children (if any), and posts a success or error
//! message to the result queue — including out-of-memory situations,
//! which are *reported* rather than dying silently.
//!
//! # One stage task
//!
//! Every stage of a query DAG reaches the worker as the same
//! [`StageTask`]: the planner's own stage ([`StageKind`]: scan, join,
//! agg-merge or sort), its in-edges' channels by *slot* — an edge's
//! position in [`StageKind::inputs`] — a scan's table files
//! ([`ScanFiles`]), and a *sink* ([`StageSink`]: report to the driver, a
//! hash/agg-shard exchange edge, or a sort-exchange edge). The task is
//! shared by the fleet; what differs per worker rides its payload
//! ([`WorkerPayload::edges`]: where each sender's section of every in-edge
//! is, by slot). `run_stage` is the only path from one to the other —
//! read edges → stage → emit — so draining an edge, rejecting modeled
//! payloads, folding the stage's request tally into its metrics
//! ([`WorkerEnv::for_stage`]), and turning a [`PipelineOutput`] into a
//! result each exist once, whatever the stage. The exchange (§4.4) is
//! just another stage behind the same handler.
//!
//! # Fused chains and co-hosted scans
//!
//! Between two one-worker fleets an exchange edge is an identity: all of
//! the producer's output goes to the consumer's one worker. The driver
//! marks such an edge *fused* and runs the consumer inside its *host*,
//! the producer's invocation. What an invocation runs is one list
//! ([`WorkerTask::Stage`], one [`ChainStage`] per stage): the launch's
//! first stage, then every stage fused after it, each member's co-hosted
//! scans just before it. `run_members` runs the members — the entries
//! that are not co-hosted — one after the other, and a member's sink
//! hands all its parts — receiver 0's one part, or a sorted run's blocks
//! — to the next member as the exact [`PartData`] bytes the transport
//! would have delivered, with no PUT, LIST, GET, partitioning charge or
//! result message, so the consumer's decode → merge/sort/join path is the
//! one it runs behind a real edge. The handed parts stand in for one
//! in-edge ([`ChainStage::slot`]).
//!
//! A member's other one-worker input that it alone reads and that reads
//! no edge itself — a scan — is *co-hosted* ([`ChainStage::cohosted`]):
//! `run_chain` starts every co-hosted scan of the list when the
//! invocation starts, beside the chain, in the one future the invocation
//! runs, and each hands its parts to its reader in memory as a host does.
//! So a chain plus its co-hosted scans is one invocation, and a join
//! beside a co-hosted scan waits for nothing. No scan outlives its
//! invocation: its error ends the invocation at once, named by its label
//! (`scan:… (co-hosted in …)`, after the launch's first stage); and when
//! the host falls back before the scan's reader, the scan's parts are
//! dropped — the fleet that picks the chain up runs it again — while its
//! tally still folds into the report the invocation posts.
//!
//! A member with an in-edge that is neither — a join whose other side
//! runs a fleet of its own — reads it from the reports its producers post
//! to the member's inbox ([`ChainStage::inbox`]) in the same message they
//! send the driver, so the driver relays nothing: the host keeps reports
//! by the driver's rule ([`WorkerResult::kept`]) and addresses the edge
//! by the driver's rule too, the same [`InEdge`] its payload would have
//! carried. The host waits for them at most [`host_wait`], which prices
//! the idle memory against the member's own launch, and fails at once on
//! a producer's error; past the bound the host ships its parts through
//! the transport after all, reports its section table, and the driver
//! launches the rest of the list as a fleet of its own. A handed edge has
//! no addresses, so a fused sorter has no range boundaries and keeps
//! every row. A member's operator state is dropped before the next member
//! starts, every budget check stays, and each stage reports its own
//! metrics ([`WorkerResult::fused`]: the list's entries ahead of the one
//! that ran last, in list order).
//!
//! # Results
//!
//! Agg state ([`ResultPayload::AggState`]) and batches
//! ([`ResultPayload::InlineBatches`]) ride the result message while they
//! encode to at most [`INLINE_RESULT_BYTES`]; larger ones are stored in
//! the result bucket, one object per worker ([`ResultPayload::Stored`]).
//! So do a stage edge's sections while they fit the sink's inline budget
//! (see [`crate::transport`]): the message, and then each consumer's
//! invocation payload, carries them, and both pay their transfer over the
//! driver's link ([`invoke::carry_inline`]).
//!
//! Reported batches are first cut to what the driver keeps: when its
//! post-ops lead with `ORDER BY … LIMIT n` or `LIMIT n`, the report sink
//! carries it ([`ReportTop`]) and the worker ships its own stable top n —
//! Q3's ten of 26 542 groups ride the message. The driver still sorts and
//! truncates the concatenation, now of at most workers × n rows.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use lambada_engine::agg::GroupedAggState;
use lambada_engine::join::JoinState;
use lambada_engine::logical::SortKey;
use lambada_engine::physical::{
    agg_state_to_batch, range_partition_batch, sort_key_columns, sort_limit,
};
use lambada_engine::pipeline::{Pipeline, PipelineOutput, PipelineSpec, Terminal};
use lambada_engine::types::{Field, Schema};
use lambada_engine::RecordBatch;
use lambada_sim::services::faas::{FunctionSpec, InstanceCtx, InvokePayload};
use lambada_sim::services::object_store::Body;
use lambada_sim::services::queue::send_requests;
use lambada_sim::sync::{mpsc, oneshot, try_join2, try_join_all};
use lambada_sim::{Cloud, Prices, SimTime, Tally};

use crate::costmodel::ComputeCostModel;
use crate::driver::section_tables;
use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::exchange::PartData;
use crate::invoke;
use crate::message::{ResultPayload, WorkerMetrics, WorkerResult, INLINE_RESULT_BYTES};
use crate::scan::{scan_table, ScanConfig, ScanItem};
use crate::stage::{ScanStage, SortStage, StageKind};
use crate::table::{TableFile, TableSpec};
use crate::transport::{At, EdgeTransport, InEdge, TransportKind, KEY_BYTES};

/// What a scan stage reads that its [`ScanStage`] does not name: the
/// table's base schema and files (shared with the installation's
/// registry), each worker's run of them, and how to read them. Worker `w`
/// of the fleet scans run `w`.
#[derive(Debug)]
pub struct ScanFiles {
    pub table: Rc<TableSpec>,
    /// Each worker's run of `table.files`, by worker id.
    pub chunks: Vec<Range<usize>>,
    pub config: ScanConfig,
}

impl ScanFiles {
    /// Worker `w`'s run of the table's files.
    pub(crate) fn files(&self, w: u64) -> &[TableFile] {
        let chunk = self.chunks.get(w as usize).cloned().unwrap_or_default();
        self.table.files.get(chunk).unwrap_or_default()
    }
}

/// Where a stage's output goes. An edge sink's `inline_budget` is how
/// many encoded bytes a sender may ship inline rather than through the
/// transport's wires (see [`crate::message::INLINE_EDGE_BYTES`]), and
/// its `receivers` how many consumer workers read the edge: the sections
/// every report of it carries.
pub enum StageSink {
    /// Report to the driver: agg state or batches inline in the message,
    /// or, past its limit, as one stored object in the result bucket —
    /// batches cut to their [`ReportTop`] first, when the driver's
    /// post-ops lead with one. Under `emit_state` an agg-merge stage hands
    /// its merged state on *unfinalized*: set for streaming queries, whose
    /// driver carries the state across micro-batches and finalizes only
    /// at window close (an averaged `Avg` cannot re-merge).
    Report { top: Option<ReportTop>, emit_state: bool },
    /// Shard onto the exchange edge `channel`: hash-partitioned rows
    /// ([`Terminal::HashPartition`]) or grouped partial-aggregate state
    /// ([`Terminal::PartitionedAggregate`]).
    Edge { channel: String, inline_budget: u64, receivers: usize },
    /// Cut the locally sorted run into blocks onto the exchange edge
    /// `channel`, feeding the sort fleet that runs `sort`.
    ///
    /// One protocol at every width: no producer partitions anything. Each
    /// cuts its run into blocks and reports their first sort keys, the
    /// driver pools those keys into the range boundaries — none for one
    /// range — and every sorter keeps the rows of its own range from the
    /// blocks it is addressed, or all of them when it has no boundaries.
    /// Blocks are not receivers, so a sort edge never streams and the
    /// driver registers no endpoint for it, on either transport; a fused
    /// edge hands every block on.
    SortEdge { channel: String, inline_budget: u64, receivers: usize, sort: SortStage },
}

/// The rows a reporting worker keeps of its batches: the first `n` under
/// `keys` (a stable sort; as they come when `keys` is empty) — the
/// leading `ORDER BY … LIMIT n`, or `LIMIT n`, of the driver's post-ops.
/// The driver still applies both to the reports concatenated in worker
/// order and gets the same rows: its global top n under (key, worker,
/// row) lies within the union of every worker's own top n.
#[derive(Clone, Debug)]
pub struct ReportTop {
    pub keys: Vec<SortKey>,
    pub n: usize,
}

impl StageSink {
    /// An edge sink's channel and inline budget; `None` for a report.
    fn edge(&self) -> Option<(&str, u64)> {
        match self {
            StageSink::Report { .. } => None,
            StageSink::Edge { channel, inline_budget, .. }
            | StageSink::SortEdge { channel, inline_budget, .. } => Some((channel, *inline_budget)),
        }
    }

    /// How many consumer workers read the out-edge: 0 for a report.
    pub(crate) fn receivers(&self) -> usize {
        match self {
            StageSink::Report { .. } => 0,
            StageSink::Edge { receivers, .. } | StageSink::SortEdge { receivers, .. } => *receivers,
        }
    }

    /// The sort stage reading a sort edge.
    pub(crate) fn sort(&self) -> Option<&SortStage> {
        match self {
            StageSink::SortEdge { sort, .. } => Some(sort),
            _ => None,
        }
    }
}

/// One stage's assignment, shared by its whole fleet: the planner's
/// stage, its in-edges and its sink. Consumer stages own one
/// co-partition each: the worker id doubles as the partition id.
pub struct StageTask {
    /// The planner's stage, its pipeline's terminal sized for the sink.
    pub kind: StageKind,
    /// Each in-edge's channel, by slot: the edge's position in
    /// [`StageKind::inputs`], which is also where the payload's
    /// [`WorkerPayload::edges`] addresses it. A join reads its probe side
    /// at slot 0 and its build side at slot 1.
    pub in_channels: Vec<String>,
    /// A scan's table and file runs; `None` for every other stage.
    pub scan: Option<Rc<ScanFiles>>,
    pub sink: StageSink,
    /// The wire every in-edge arrives on and the out-edge leaves on.
    pub transport: Rc<EdgeTransport>,
    pub result_bucket: String,
    /// Key prefix of stored results, namespaced by installation and
    /// query (`results/x{instance}-q{query}`); worker `w` stores under
    /// `{result_prefix}/w{w}`.
    pub result_prefix: String,
    /// The inboxes of the hosted stages that read the out-edge while
    /// their hosts run ([`ChainStage::inbox`]): every report goes to each
    /// of them as well as to the driver.
    pub inboxes: Vec<String>,
}

impl StageTask {
    /// A scan task's planner stage and files.
    fn scan_parts(&self) -> Result<(&ScanStage, &ScanFiles)> {
        let StageKind::Scan(stage) = &self.kind else {
            return Err(CoreError::Engine("only a scan stage reads files".to_string()));
        };
        let scan = self.scan.as_deref().ok_or_else(|| {
            CoreError::Engine(format!("scan of {} carries no files", stage.table))
        })?;
        Ok((stage, scan))
    }
}

/// One stage of the list a launch hands each of its workers
/// ([`WorkerTask::Stage`]): the launch's first stage, then every stage
/// fused after it, each member's co-hosted scans just before it.
#[derive(Clone)]
pub struct ChainStage {
    /// The stage's id in its query's DAG.
    pub sid: usize,
    /// How errors name the stage in this launch's invocations: `agg#5
    /// (fused after join#4)`, `scan:customer#0 (co-hosted in join#3)`.
    /// The first stage's is its plain label, and its errors go unnamed.
    pub label: String,
    pub task: Rc<StageTask>,
    /// Which of its reader's in-edges the parts handed on in memory are:
    /// a co-hosted scan's own, or a member's host's (unread when the
    /// member is its launch's first: its host shipped them). 0 for a
    /// chain's head.
    pub slot: usize,
    /// Where the stage's waiting in-edge reaches it; `None` when it reads
    /// no edge besides its host's and its co-hosted scans'.
    pub inbox: Option<Inbox>,
    /// A co-hosted scan: it runs beside the chain from the invocation's
    /// start and hands its parts to the next member in memory.
    pub cohosted: bool,
}

/// A hosted stage's other in-edge: its producers post their reports to
/// the stage's inbox, and the host addresses the edge from them.
#[derive(Clone)]
pub struct Inbox {
    /// The inbox queue's name.
    pub queue: String,
    /// Which of the stage's in-edges it is.
    pub slot: usize,
    /// The producer's fleet size: one report per worker completes it.
    pub senders: usize,
}

/// What a worker is asked to do.
#[derive(Clone)]
pub enum WorkerTask {
    /// Return immediately (invocation benchmarks, Table 1 / Fig 5).
    Noop,
    /// Fixed amount of number crunching on N threads (Fig 4).
    Compute { vcpu_seconds: f64, threads: usize },
    /// The stages of a query DAG one invocation runs, in order: one
    /// stage, or a fused chain with its co-hosted scans.
    Stage(Rc<[ChainStage]>),
}

/// The invocation payload (the "event" of the Lambda function).
#[derive(Clone)]
pub struct WorkerPayload {
    pub worker_id: u64,
    /// 0 for the original invocation; speculative backups of a straggler
    /// carry 1.. so their exchange writes and result reports stay
    /// distinguishable from the original's.
    pub attempt: u32,
    /// Driver-assigned query id this worker belongs to. With the query
    /// service running many queries concurrently on one installation,
    /// this is what lets fault injection (and debugging) target exactly
    /// one query's fleets.
    pub query: u64,
    pub task: WorkerTask,
    /// Per in-edge of the stage (in [`crate::stage::StageKind::inputs`]
    /// order), one address per sender — where this worker's section of
    /// each producer's output is — and, on a sort edge, its range's
    /// boundaries. Filled in by the driver once the producers reported;
    /// empty for stages that read no edge.
    pub edges: Vec<InEdge>,
    /// Second-generation workers to invoke while running `task` (§4.2).
    pub children: Vec<Rc<WorkerPayload>>,
    pub result_queue: String,
}

impl WorkerPayload {
    /// Edge bytes this payload carries, its children's included: its
    /// inline sections and boundaries ([`KEY_BYTES`] a key), the inline
    /// files of every scan the invocation runs — its own run's and those
    /// of its chain's co-hosted scans — plus `per_address` for each
    /// address. With 0 that is what crosses the driver's link; with
    /// [`crate::transport::ADDRESS_BYTES`] it is what the payload is sized
    /// at against the invoke cap. The rest of the task is not sized: the
    /// fleet shares it, and the sim hands it over by reference.
    pub fn edge_bytes(&self, per_address: usize) -> usize {
        let addrs = self.edges.iter().flat_map(|e| &e.senders).map(|a| match &a.at {
            At::Inline(bytes) => bytes.len() + per_address,
            _ => per_address,
        });
        let bounds = self.edges.iter().flat_map(|e| &e.bounds).map(|row| row.len() * KEY_BYTES);
        let stages = match &self.task {
            WorkerTask::Stage(list) => &list[..],
            _ => &[],
        };
        let scans = stages.iter().filter_map(|s| s.task.scan.as_deref());
        let files = scans.flat_map(|scan| scan.files(self.worker_id));
        let files: u64 = files.map(TableFile::inline_bytes).sum();
        let children = self.children.iter().map(|c| c.edge_bytes(per_address));
        addrs.sum::<usize>() + bounds.sum::<usize>() + files as usize + children.sum::<usize>()
    }

    /// The same assignment re-issued as a speculative backup: next
    /// attempt id, the same edge addresses, no children (every missing
    /// worker is re-invoked individually, so a dead first-generation
    /// worker's subtree is recovered leaf by leaf).
    pub fn backup(&self, attempt: u32) -> WorkerPayload {
        WorkerPayload {
            worker_id: self.worker_id,
            attempt,
            query: self.query,
            task: self.task.clone(),
            edges: self.edges.clone(),
            children: Vec::new(),
            result_queue: self.result_queue.clone(),
        }
    }
}

/// How long a host, `elapsed` seconds into its invocation, may idle for
/// its next member's addresses before idling costs more than running that
/// member on its own. The rest of the billing quantum it has started is
/// free; past it, its memory may idle for as many whole quanta as the
/// member's own launch would cost: the invoke request, one quantum and —
/// when the host's section would go through the object store (`spills`:
/// over its inline budget, on the object-store transport; the direct
/// transport streams it) — the PUT and GET that carry it. Idling into a
/// quantum bills all of it, so the bound stops at the last whole one that
/// costs no more than the launch. Derived from the prices, the function's
/// memory and the quantum alone: nothing here is a knob.
pub fn host_wait(
    prices: &Prices,
    memory_mib: u32,
    quantum: f64,
    elapsed: f64,
    spills: bool,
) -> f64 {
    let per_second = prices.lambda_gib_second * f64::from(memory_mib) / 1024.0;
    let free = if quantum > 0.0 { (elapsed / quantum).ceil() * quantum - elapsed } else { 0.0 };
    let transfer = if spills { prices.s3_put + prices.s3_get } else { 0.0 };
    let launch = prices.lambda_request + quantum * per_second + transfer;
    let idle = match (per_second > 0.0, quantum > 0.0) {
        (false, _) => 0.0,
        (true, false) => launch / per_second,
        (true, true) => (launch / (quantum * per_second)).floor() * quantum,
    };
    free.max(0.0) + idle
}

/// Register the Lambada worker function on the cloud. Re-registering
/// replaces the function and drops warm containers ("freshly created
/// function", §5.2).
pub fn register_worker_function(
    cloud: &Cloud,
    name: &str,
    memory_mib: u32,
    timeout: std::time::Duration,
    costs: ComputeCostModel,
) {
    // Weak: the FaaS service stores the handler, and the cloud owns the
    // service — a strong handle here would keep every cloud alive forever.
    let cloud2 = cloud.downgrade();
    let fname = name.to_string();
    let handler = move |ctx: InstanceCtx, payload: InvokePayload| {
        let cloud = cloud2.upgrade();
        let fname = fname.clone();
        Box::pin(async move {
            let (Some(cloud), Ok(payload)) = (cloud, payload.downcast::<WorkerPayload>()) else {
                return; // cloud gone or not a Lambada payload; nothing to report to
            };
            run_handler(cloud, fname, ctx, payload, costs).await;
        }) as std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>
    };
    cloud.faas.register(FunctionSpec::new(name, memory_mib, timeout), Rc::new(handler));
}

/// Install a per-worker fault injector on the cloud's FaaS service:
/// `decide(worker_id, attempt)` picks the fault (if any) for each
/// Lambada worker invocation. Straggler/failure experiments use this to
/// make worker *k* slow or kill it mid-flight through the real dispatch
/// path — e.g. `(wid == 3 && attempt == 0).then(|| InjectedFault::slowdown(10.0))`
/// slows only the original attempt, so the speculative backup recovers.
pub fn inject_worker_faults<F>(cloud: &Cloud, decide: F)
where
    F: Fn(u64, u32) -> Option<lambada_sim::InjectedFault> + 'static,
{
    cloud.faas.set_fault_injector(Rc::new(move |payload: &dyn std::any::Any| {
        payload.downcast_ref::<WorkerPayload>().and_then(|p| decide(p.worker_id, p.attempt))
    }));
}

/// Like [`inject_worker_faults`], but `decide` sees the whole payload —
/// the driver-assigned query id, the task, the attempt — so concurrency
/// experiments can fault the fleets of exactly one query (or only
/// particular stage kinds) while its neighbors on the same installation
/// run clean.
pub fn inject_query_worker_faults<F>(cloud: &Cloud, decide: F)
where
    F: Fn(&WorkerPayload) -> Option<lambada_sim::InjectedFault> + 'static,
{
    cloud.faas.set_fault_injector(Rc::new(move |payload: &dyn std::any::Any| {
        payload.downcast_ref::<WorkerPayload>().and_then(&decide)
    }));
}

async fn run_handler(
    cloud: Cloud,
    function: String,
    ctx: InstanceCtx,
    payload: Rc<WorkerPayload>,
    costs: ComputeCostModel,
) {
    let wid = payload.worker_id;
    let now = cloud.handle.now();
    cloud.trace.record(wid, invoke::labels::RUNNING, now, now);
    let mut env = WorkerEnv::new(&cloud, ctx, wid, costs);
    env.attempt = payload.attempt;

    let run = async {
        let start = cloud.handle.now();
        let outcome = run_task(&env, &payload).await;
        let processing = (cloud.handle.now() - start).as_secs_f64();
        cloud.trace.record(wid, "worker_processing", start, cloud.handle.now());
        match outcome {
            Ok((result, mut metrics, fused)) => {
                metrics.cold_start = env.ctx.cold;
                WorkerResult { fused, ..WorkerResult::ok(wid, result, metrics) }
            }
            Err(message) => {
                let metrics = WorkerMetrics {
                    processing_secs: processing,
                    cold_start: env.ctx.cold,
                    ..WorkerMetrics::default()
                };
                WorkerResult::error(wid, message, metrics)
            }
        }
    };
    let mut msg = if payload.children.is_empty() {
        run.await
    } else {
        // A first-generation worker runs its fragment while it invokes its
        // second-generation children (§4.2); a child it failed to invoke
        // makes its report an error all the same.
        let caller = cloud.worker_invoker();
        let children = async {
            let invoked =
                invoke::invoke_children(&cloud, &caller, &function, wid, &payload.children).await;
            Ok::<_, std::convert::Infallible>(invoked)
        };
        match try_join2(children, run).await {
            Ok((Ok(()), msg)) => msg,
            Ok((Err(e), _)) => {
                let message = format!("child invocation failed: {e}");
                WorkerResult::error(wid, message, WorkerMetrics::default())
            }
            Err(never) => match never {},
        }
    }
    .with_attempt(payload.attempt);
    // Success or error, the handler posts a message to the result queue
    // from which the driver polls (§3.3). Inline edge sections make it
    // bigger and cross the driver's link. The same message goes to the
    // inboxes of the stage it ran last — the one after the `fused` reports
    // ahead of it or, on an error, the list's tail — in the region: those
    // sends start first and never wait behind the carry.
    let last = match (&payload.task, &msg.outcome) {
        (WorkerTask::Stage(list), Ok(_)) => list.get(msg.fused.len()),
        (WorkerTask::Stage(list), Err(_)) => list.last(),
        _ => None,
    };
    let inboxes = last.map_or(&[][..], |s| &s.task.inboxes[..]);
    let encoded = encode_counted(&mut msg, 1 + inboxes.len() as u64);
    let to_inboxes = async {
        for inbox in inboxes {
            post(&env, inbox, &msg, encoded.clone()).await;
        }
        Ok::<(), std::convert::Infallible>(())
    };
    let to_driver = post_to_driver(&env, &payload.result_queue, &msg, &encoded);
    let _ = try_join2(to_inboxes, to_driver).await;
}

/// Encode `msg` with the queue requests its `copies` sends are billed
/// counted in its last stage's metrics, one per started 64 KiB chunk each
/// ([`send_requests`]). The count is part of the message it counts, so it
/// is the count at the length it encodes to.
fn encode_counted(msg: &mut WorkerResult, copies: u64) -> Vec<u8> {
    let (metrics, mut chunks) = (msg.metrics, 1);
    loop {
        msg.metrics = metrics;
        msg.metrics.add(Tally { sqs_requests: copies * chunks, ..Tally::default() });
        let encoded = msg.encode();
        match send_requests(encoded.len()) {
            billed if billed == chunks => return encoded,
            billed => chunks = billed,
        }
    }
}

/// [`post`] to the driver's result queue, the message's inline edge
/// sections carried over the driver's link first.
async fn post_to_driver(env: &WorkerEnv, queue: &str, msg: &WorkerResult, encoded: &[u8]) {
    if let Ok(ResultPayload::Sections { inline, .. }) = &msg.outcome {
        invoke::carry_inline(&env.cloud, inline.len()).await;
    }
    post(env, queue, msg, encoded.to_vec()).await;
}

/// Send `msg`, encoded, to `queue`; one the queue refuses is still
/// reported, as an error.
async fn post(env: &WorkerEnv, queue: &str, msg: &WorkerResult, encoded: Vec<u8>) {
    if let Err(e) = env.sqs.send(queue, encoded).await {
        let refused =
            WorkerResult::error(msg.worker_id, format!("result message: {e}"), msg.metrics);
        let _ = env.sqs.send(queue, refused.with_attempt(msg.attempt).encode()).await;
    }
}

/// What one stage reports: its payload and metrics.
type Report = (ResultPayload, WorkerMetrics);

/// What an invocation ran: the last stage's report, and the reports of
/// the fused members ahead of it. Errors are the message to report.
type Ran = std::result::Result<(ResultPayload, WorkerMetrics, Vec<Report>), String>;

async fn run_task(env: &WorkerEnv, payload: &WorkerPayload) -> Ran {
    let start = env.cloud.handle.now();
    match &payload.task {
        WorkerTask::Noop => {}
        WorkerTask::Compute { vcpu_seconds, threads } => {
            let threads = (*threads).max(1);
            let share = vcpu_seconds / threads as f64;
            let mut joins = Vec::with_capacity(threads);
            for _ in 0..threads {
                let env2 = env.clone();
                joins.push(env.cloud.handle.spawn(async move { env2.compute(share).await }));
            }
            for j in joins {
                j.await;
            }
        }
        WorkerTask::Stage(list) => return run_chain(env, list, &payload.edges).await,
    }
    let processing_secs = (env.cloud.handle.now() - start).as_secs_f64();
    let metrics = WorkerMetrics { processing_secs, ..WorkerMetrics::default() };
    Ok((ResultPayload::Empty, metrics, Vec::new()))
}

/// What a co-hosted scan hands its reader: its report, its parts and its
/// tally.
type Beside = (ResultPayload, WorkerMetrics, Handoff, Tally);

/// Run a launch's list in one invocation: its chain ([`run_members`])
/// and every co-hosted scan start together and run concurrently in this
/// one future, so none outlives the invocation: an error in any of them
/// ends it at once, the scan's named by its label. A scan's time runs
/// from the invocation's start to its handoff. A host that fell back
/// before a scan's reader drops the scan's parts — the fleet that picks
/// the chain up runs the scan again — but the scan's requests were this
/// invocation's, and its tally folds into the report it posts.
async fn run_chain(env: &WorkerEnv, list: &[ChainStage], edges: &[InEdge]) -> Ran {
    let start = env.cloud.handle.now();
    let beside: Vec<&ChainStage> = list.iter().filter(|s| s.cohosted).collect();
    let (senders, receivers): (Vec<_>, VecDeque<_>) =
        beside.iter().map(|_| oneshot::channel::<Beside>()).unzip();
    let pending = RefCell::new(receivers);
    type Branch<'a> =
        Pin<Box<dyn Future<Output = std::result::Result<Option<Chain>, String>> + 'a>>;
    let mut branches: Vec<Branch<'_>> =
        vec![Box::pin(async { run_members(env, list, edges, start, &pending).await.map(Some) })];
    for (co, tx) in beside.into_iter().zip(senders) {
        branches.push(Box::pin(async move {
            let stage = env.for_stage();
            let ran = run_stage(&stage, &co.task, Vec::new(), &[], true).await;
            let named = |e: CoreError| format!("{}: {e}", co.label);
            let (payload, mut metrics, handoff) = ran.map_err(named)?;
            let handoff = handoff.ok_or_else(|| format!("{}: nothing handed on", co.label))?;
            metrics.processing_secs = (env.cloud.handle.now() - start).as_secs_f64();
            // The reader may be gone: its host fell back and dropped it.
            let _ = tx.send((payload, metrics, handoff, stage.tally()));
            Ok(None)
        }));
    }
    let ran = try_join_all(branches).await?.into_iter().flatten().next();
    let (payload, mut metrics, ahead) =
        ran.ok_or_else(|| "the chain reported nothing".to_string())?;
    for dropped in pending.into_inner() {
        if let Ok((_, _, _, tally)) = dropped.await {
            metrics.add(tally);
        }
    }
    Ok((payload, metrics, ahead))
}

/// What a chain ran: the last member's report and the reports ahead of it.
type Chain = (ResultPayload, WorkerMetrics, Vec<Report>);

/// Run the list's members — its stages that are not co-hosted — one after
/// the other, from `start`: the first reads its in-edges at `edges`;
/// every member after it reads the parts its host handed on, the parts
/// of the co-hosted scans listed before it from `pending` (in list order)
/// and, if it waits for another in-edge, the reports its producers post
/// to its inbox. A host waits for those at most [`host_wait`]; past that
/// it ships its parts through the transport, reports its section table,
/// and the chain ends there: the driver launches the rest of it. A
/// member's time runs from its host's handoff, its waits included; an
/// error names the member it happened in. The reports ahead of the last
/// are the list's entries before it, in order.
async fn run_members(
    env: &WorkerEnv,
    list: &[ChainStage],
    edges: &[InEdge],
    start: SimTime,
    pending: &RefCell<VecDeque<oneshot::Receiver<Beside>>>,
) -> std::result::Result<Chain, String> {
    let (mut ahead, mut hosts) = (Vec::new(), Vec::new());
    let (mut at, mut handed) = (0, Vec::new());
    let mut edges = Cow::Borrowed(edges);
    let (mut member_start, mut stage) = (start, env.for_stage());
    // The last member's time is the chain's less its hosts'.
    let last_secs =
        |hosts: &[f64]| (env.cloud.handle.now() - start).as_secs_f64() - hosts.iter().sum::<f64>();
    while let Some(member) = list.get(at) {
        let named = |e: CoreError| match at {
            0 => e.to_string(),
            _ => format!("{}: {e}", member.label),
        };
        let next = (at + 1..list.len()).find(|&i| !list[i].cohosted);
        let parts = std::mem::take(&mut handed);
        let ran = run_stage(&stage, &member.task, parts, &edges, next.is_some());
        let (payload, mut metrics, handoff) = ran.await.map_err(named)?;
        let (Some(next), Some(handoff)) = (next, handoff) else {
            metrics.processing_secs = last_secs(&hosts);
            return Ok((payload, metrics, ahead));
        };
        let (reader, handed_off) = (&list[next], env.cloud.handle.now());
        // The reader's requests, its inbox receives first, count on a
        // stage env of its own.
        stage = env.for_stage();
        edges = match &reader.inbox {
            None => Cow::Borrowed(&[]),
            Some(inbox) => {
                let addressed = await_addresses(&stage, &member.task, inbox, &handoff).await;
                match addressed.map_err(|e| format!("{}: {e}", reader.label))? {
                    Some(addressed) => Cow::Owned(addressed),
                    None => {
                        // The member's own tally is folded already. The
                        // reader does not run here: its receives and the
                        // ship count in the member's report.
                        let payload = ship(&stage, &member.task, handoff).await.map_err(named)?;
                        metrics.add(stage.tally());
                        metrics.processing_secs = last_secs(&hosts);
                        return Ok((payload, metrics, ahead));
                    }
                }
            }
        };
        metrics.processing_secs = (handed_off - member_start).as_secs_f64();
        hosts.push(metrics.processing_secs);
        ahead.push((payload, metrics));
        handed.push((reader.slot, handoff.parts));
        for co in &list[at + 1..next] {
            let scan = pending.borrow_mut().pop_front();
            let handed_on = match scan {
                Some(scan) => scan.await.ok(),
                None => None,
            };
            let Some((payload, metrics, handoff, _)) = handed_on else {
                return Err(format!("{}: handed nothing on", co.label));
            };
            ahead.push((payload, metrics));
            handed.push((co.slot, handoff.parts));
        }
        (at, member_start) = (next, handed_off);
    }
    Err("the chain ran nothing".to_string())
}

/// The next member's in-edges, its other one addressed from the reports
/// its producers post to `inbox`, waiting at most [`host_wait`] for one
/// per producer worker: `None` if they did not all come. Reports are
/// kept by the driver's own rule ([`WorkerResult::kept`]) — an original
/// attempt's error ends the wait at once as that producer's error — and
/// addressed by its own rule too ([`section_tables`]).
async fn await_addresses(
    env: &WorkerEnv,
    task: &StageTask,
    inbox: &Inbox,
    handoff: &Handoff,
) -> Result<Option<Vec<InEdge>>> {
    let held: u64 = handoff.parts.iter().map(PartData::len).sum();
    let stored = task.transport.kind() == TransportKind::ObjectStore;
    let spills = stored && task.sink.edge().is_some_and(|(_, budget)| held > budget);
    let start = env.cloud.handle.now();
    let elapsed = (start - env.started).as_secs_f64();
    let (prices, quantum) = (env.cloud.billing.prices(), env.cloud.config.faas.billing_quantum);
    let wait = host_wait(&prices, env.ctx.memory_mib(), quantum, elapsed, spills);
    let deadline = start + Duration::from_secs_f64(wait);
    let mut reports: Vec<WorkerResult> = Vec::with_capacity(inbox.senders);
    let mut seen = HashSet::with_capacity(inbox.senders);
    let mut failed = None;
    while reports.len() < inbox.senders && failed.is_none() {
        let left = deadline.saturating_since(env.cloud.handle.now());
        for msg in env.sqs.receive(&inbox.queue, 10, left).await? {
            let report = WorkerResult::decode(&msg)?;
            match report.kept(&seen) {
                Ok(true) => {
                    seen.insert(report.worker_id);
                    reports.push(report);
                }
                Ok(false) => {}
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        if env.cloud.handle.now() >= deadline {
            break;
        }
    }
    env.cloud.trace.record(env.worker_id, "inbox_wait", start, env.cloud.handle.now());
    if let Some(e) = failed {
        return Err(e);
    }
    if reports.len() < inbox.senders {
        return Ok(None);
    }
    reports.sort_by_key(|r| r.worker_id);
    let mut edges = vec![InEdge::default(); inbox.slot + 1];
    edges[inbox.slot] = section_tables(&reports, 1, None)?.pop().unwrap_or_default();
    Ok(Some(edges))
}

/// Blocks a sort-edge producer cuts its run into, at most: their first
/// keys are its share of the pool the range boundaries are picked from.
/// The pool only steers partition *balance*, never correctness — every
/// row lands in exactly one range either way — so a small constant
/// suffices.
pub(crate) const SORT_SAMPLE_ROWS: usize = 32;

/// What a fused member hands the next: the rows that left it, its parts
/// for receiver 0 — or its run's blocks — and, on a sort edge, their
/// first keys.
#[derive(Debug)]
struct Handoff {
    rows: u64,
    parts: Vec<PartData>,
    starts: Option<Vec<u8>>,
}

/// Send `handoff` onto the task's out-edge through the transport, the
/// one write whatever wire carries it, and report the section table.
async fn ship(env: &WorkerEnv, task: &StageTask, handoff: Handoff) -> Result<ResultPayload> {
    let Some((channel, inline_budget)) = task.sink.edge() else {
        return Err(CoreError::Engine("a stage that reports has no edge to ship on".to_string()));
    };
    let Handoff { rows, parts, starts } = handoff;
    // Blocks (what starts come with) stream to no mailbox, and the
    // starts ride the message beside whatever goes inline.
    let (stream, starts_len) = (starts.is_none(), starts.as_ref().map_or(0, Vec::len));
    let inline_budget = inline_budget.saturating_sub(starts_len as u64);
    let sender = env.worker_id as usize;
    let (bytes, sections, inline) =
        task.transport.send(env, channel, sender, parts, inline_budget, stream).await?;
    Ok(ResultPayload::Sections { rows, bytes, sections, inline, starts })
}

/// Receive this worker's co-partition of the stage's in-edge at `slot`
/// from the senders `edges` addresses — or, on a fused edge, take the
/// parts its host `handed` on, at no cost — and hand back the non-empty
/// payloads in sender order. Modeled payloads carry no rows to compute on
/// and are rejected.
async fn recv_edge(
    env: &WorkerEnv,
    task: &StageTask,
    slot: usize,
    edges: &[InEdge],
    handed: Option<Vec<PartData>>,
) -> Result<Vec<Vec<u8>>> {
    if let Some(parts) = handed {
        return real_payloads(parts);
    }
    let channel = task.in_channels.get(slot).map_or("", String::as_str);
    let addrs = edges
        .get(slot)
        .ok_or_else(|| CoreError::Engine(format!("no addresses for in-edge {slot} ({channel})")))?;
    let receiver = env.worker_id as usize;
    real_payloads(task.transport.recv(env, channel, receiver, &addrs.senders).await?)
}

/// The non-empty payloads of received parts, in order.
fn real_payloads(parts: Vec<PartData>) -> Result<Vec<Vec<u8>>> {
    let mut payloads = Vec::with_capacity(parts.len());
    for part in parts {
        match part {
            PartData::Real(bytes) if bytes.is_empty() => {}
            PartData::Real(bytes) => payloads.push(bytes),
            PartData::Modeled(_) => {
                return Err(CoreError::Unsupported(
                    "stage edges need real exchange payloads".to_string(),
                ))
            }
        }
    }
    Ok(payloads)
}

/// The parts handed on in memory for the in-edge at `slot`, if any: by
/// its host or a co-hosted scan.
fn handed_for(handed: &mut Vec<(usize, Vec<PartData>)>, slot: usize) -> Option<Vec<PartData>> {
    let at = handed.iter().position(|(s, _)| *s == slot)?;
    Some(handed.swap_remove(at).1)
}

/// Decode received edge payloads into record batches, one payload at a
/// time (a payload's bytes are dropped once its batches are out).
fn decode_parts(payloads: Vec<Vec<u8>>) -> impl Iterator<Item = Result<RecordBatch>> {
    payloads.into_iter().flat_map(|bytes| match crate::partition::decode_batches(&bytes) {
        Ok(batches) => batches.into_iter().map(Ok).collect(),
        Err(e) => vec![Err(e)],
    })
}

/// Encode per-receiver batch lists as exchange parts. Receivers with
/// nothing to fetch get a zero-length part, which they learn from the
/// section table alone.
fn batch_parts(partitions: &[Vec<RecordBatch>]) -> Result<Vec<PartData>> {
    partitions
        .iter()
        .map(|batches| {
            if batches.iter().all(|b| b.num_rows() == 0) {
                Ok(PartData::Real(Vec::new()))
            } else {
                Ok(PartData::Real(crate::partition::encode_batches(batches)?))
            }
        })
        .collect()
}

/// Report what a stage hands the driver — its agg state or its result
/// batches, cut to the sink's [`ReportTop`] — inline in the message while
/// it encodes to at most [`INLINE_RESULT_BYTES`], otherwise through the
/// one result upload: large results go to cloud storage, not through the
/// queue. The key is namespaced by installation and query, so concurrent
/// queries on one installation never overwrite each other.
async fn report(
    env: &WorkerEnv,
    task: &StageTask,
    mut output: PipelineOutput,
    metrics: &mut WorkerMetrics,
) -> Result<ResultPayload> {
    if let (StageSink::Report { top: Some(top), .. }, PipelineOutput::Batches(batches)) =
        (&task.sink, &mut output)
    {
        let rows: usize = batches.iter().map(RecordBatch::num_rows).sum();
        // More rows than the driver keeps: ship only those that can reach
        // its result. (A worker with at most `n` ships all as they are;
        // the driver's own sort orders them.)
        if let Some(first) = batches.first().filter(|_| rows > top.n) {
            let all = RecordBatch::concat(first.schema().clone(), batches)?;
            *batches = vec![sort_limit(all, &top.keys, Some(top.n))?];
        }
    }
    let (rows, bytes) = match &output {
        PipelineOutput::Aggregate(state) => (metrics.rows_out, state.encode()),
        PipelineOutput::Batches(batches) => {
            let rows: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
            metrics.rows_out = rows;
            if rows == 0 {
                return Ok(ResultPayload::Empty);
            }
            (rows, crate::partition::encode_batches(batches)?)
        }
        _ => {
            return Err(CoreError::Engine(
                "a sharding terminal cannot report to the driver".to_string(),
            ))
        }
    };
    if bytes.len() <= INLINE_RESULT_BYTES {
        return Ok(match output {
            PipelineOutput::Aggregate(_) => ResultPayload::AggState(bytes),
            _ => ResultPayload::InlineBatches { rows, bytes },
        });
    }
    let key = result_key(&task.result_prefix, env.worker_id);
    env.s3.put(&task.result_bucket, &key, Body::from_vec(bytes)).await?;
    Ok(ResultPayload::Stored { bucket: task.result_bucket.clone(), key, rows })
}

/// Worker `worker`'s stored-result key under `prefix`.
pub(crate) fn result_key(prefix: &str, worker: u64) -> String {
    format!("{prefix}/w{worker}")
}

/// Cut one producer's locally sorted run for its sort edge, into any
/// number of ranges: the parts it ships are at most [`SORT_SAMPLE_ROWS`]
/// contiguous blocks, cut at the rows `i * rows / min(SORT_SAMPLE_ROWS,
/// rows)`, and the starts it reports are the sort keys of those rows,
/// then of the run's last row. The driver pools the blocks' first keys
/// into the range boundaries and addresses every sorter to the blocks
/// that can hold its range; the sorter keeps its own rows. The producer
/// itself partitions nothing and waits for no one.
fn sort_edge_parts(
    edge: &SortStage,
    run: &RecordBatch,
) -> Result<(Vec<PartData>, Option<Vec<u8>>)> {
    let rows = run.num_rows();
    let count = SORT_SAMPLE_ROWS.min(rows);
    if count == 0 {
        return Ok((Vec::new(), None));
    }
    let mut cuts: Vec<usize> = (0..count).map(|i| i * rows / count).collect();
    let blocks: Vec<Vec<RecordBatch>> = (0..count)
        .map(|i| {
            let end = cuts.get(i + 1).copied().unwrap_or(rows);
            vec![run.gather(&(cuts[i]..end).collect::<Vec<_>>())]
        })
        .collect();
    cuts.push(rows - 1);
    let keys: Vec<_> = sort_key_columns(run, &edge.keys)?.iter().map(|c| c.gather(&cuts)).collect();
    let fields = keys.iter().enumerate().map(|(j, c)| Field::new(format!("k{j}"), c.dtype()));
    let starts = RecordBatch::new(Schema::arc(fields.collect()), keys)?;
    Ok((batch_parts(&blocks)?, Some(crate::partition::encode_batches(&[starts])?)))
}

/// Run the scan of one worker, feeding items into `pipeline` with OOM
/// accounting; returns the scan metrics and modeled row count.
async fn drive_scan(
    env: &WorkerEnv,
    task: &Rc<StageTask>,
    pipeline: &mut Pipeline,
) -> Result<(crate::scan::ScanMetrics, u64)> {
    let budget = env.engine_memory_budget();
    let (tx, mut rx) = mpsc::channel::<ScanItem>();
    let scan_handle = {
        let (env2, task) = (env.clone(), Rc::clone(task));
        env.cloud.handle.spawn(async move {
            let (stage, scan) = task.scan_parts()?;
            let (files, schema) = (scan.files(env2.worker_id), &scan.table.schema);
            let (columns, prune) = (&stage.scan_columns, stage.prune_predicate.as_ref());
            scan_table(&env2, &scan.config, files, schema, columns, prune, tx).await
        })
    };

    let mut modeled_rows = 0u64;
    while let Some(item) = rx.recv().await {
        match item {
            ScanItem::Batch(batch) => {
                env.compute(env.costs.process_seconds(batch.num_rows() as u64)).await;
                let batch_bytes = (batch.num_rows() * batch.num_columns() * 8) as u64;
                pipeline.push(&batch)?;
                let state = pipeline.approx_state_bytes() as u64;
                let held = state + 3 * batch_bytes;
                within_memory(held, budget, "engine state plus 3x the working set")?;
            }
            ScanItem::Modeled { rows, bytes } => {
                env.compute(env.costs.process_seconds(rows)).await;
                modeled_rows += rows;
                within_memory(3 * bytes, budget, "3x a modelled row group")?;
            }
        }
    }
    let scan_metrics = scan_handle.await?;
    Ok((scan_metrics, modeled_rows))
}

/// The worker's one memory rule (§3.3: report out-of-memory instead of
/// dying silently): `held` bytes of `what` may not exceed `limit` — the
/// engine's budget for what lives the whole stage, half of it for what a
/// join or a sort holds beside its input.
fn within_memory(held: u64, limit: u64, what: &str) -> Result<()> {
    if held > limit {
        return Err(CoreError::Engine(format!(
            "out of memory: {what} of {held} B exceeds {limit} B"
        )));
    }
    Ok(())
}

/// Run one stage task: the planner's stage turns its files or in-edges
/// into a [`PipelineOutput`], and the sink turns that into the worker's
/// result — agg state or batches inline, one stored object, or a write
/// onto the out-edge (§4.4's "operators that repartition data", executed
/// with no infrastructure beyond storage and functions). `edges` addresses
/// the in-edges by slot; `handed` is, by slot, the parts its host and
/// co-hosted scans handed on in memory for some of them. When the stage
/// `hands_on` — its out-edge is fused, or it is co-hosted — what it would
/// ship comes back beside the report instead. `env` is the stage's own
/// ([`WorkerEnv::for_stage`]): after its last request, its tally folds
/// into the metrics.
async fn run_stage(
    env: &WorkerEnv,
    task: &Rc<StageTask>,
    mut handed: Vec<(usize, Vec<PartData>)>,
    edges: &[InEdge],
    hands_on: bool,
) -> Result<(ResultPayload, WorkerMetrics, Option<Handoff>)> {
    let p = env.worker_id as usize;
    let budget = env.engine_memory_budget();
    let mut metrics = WorkerMetrics::default();

    let output = match &task.kind {
        StageKind::Scan(_) => {
            let (stage, _) = task.scan_parts()?;
            let mut pipeline = Pipeline::new(stage.pipeline.clone())?;
            let (scan_metrics, modeled_rows) = drive_scan(env, task, &mut pipeline).await?;
            if modeled_rows > 0 && !matches!(task.sink, StageSink::Report { .. }) {
                return Err(CoreError::Unsupported(
                    "exchange edges need real table files (descriptor-backed tables carry no rows to repartition)"
                        .to_string(),
                ));
            }
            let (rows_in, rows_out) = pipeline.row_counts();
            metrics.rows_in = rows_in + modeled_rows;
            metrics.rows_out = rows_out;
            metrics.row_groups_pruned = scan_metrics.row_groups_pruned;
            metrics.row_groups_scanned =
                scan_metrics.row_groups_total - scan_metrics.row_groups_pruned;
            pipeline.finish()?
        }
        StageKind::Join(stage) => {
            // Build + probe one co-partition, then run the post-join
            // pipeline. Both in-edges (probe at slot 0, build at slot 1)
            // are received together — each costs a fetch round of pure
            // latency — and consumed in a fixed order: build fully, then
            // probe.
            // ---- Build side: the whole co-partition, then one hash table.
            let (build_handed, probe_handed) =
                (handed_for(&mut handed, 1), handed_for(&mut handed, 0));
            let build_side = async {
                let payloads = recv_edge(env, task, 1, edges, build_handed).await?;
                let build_batches = decode_parts(payloads).collect::<Result<Vec<_>>>()?;
                let build_rows: u64 = build_batches.iter().map(|b| b.num_rows() as u64).sum();
                env.compute(env.costs.process_seconds(build_rows)).await;
                let table = JoinState::build(
                    stage.build_schema.clone(),
                    stage.build_keys.clone(),
                    &build_batches,
                )?;
                within_memory(table.approx_bytes() as u64, budget / 2, "build-side hash table")?;
                Ok::<_, CoreError>((table, build_rows))
            };
            // A build-side failure is the worker's failure at once: the
            // probe receive is dropped, not waited for.
            let ((table, build_rows), probed) =
                try_join2(build_side, recv_edge(env, task, 0, edges, probe_handed)).await?;
            let probe_payloads = probed?;

            // ---- Probe side: stream the co-partition through the table.
            let mut probe_pipeline = Pipeline::new(PipelineSpec {
                input_schema: stage.probe_schema.clone(),
                predicate: None,
                projection: None,
                terminal: Terminal::Probe {
                    build: Rc::new(table),
                    probe_keys: stage.probe_keys.clone(),
                    variant: stage.variant,
                },
            })?;
            for batch in decode_parts(probe_payloads) {
                let batch = batch?;
                env.compute(env.costs.process_seconds(batch.num_rows() as u64)).await;
                probe_pipeline.push(&batch)?;
                let joined = probe_pipeline.approx_state_bytes() as u64;
                within_memory(joined, budget / 2, "joined rows")?;
            }
            let (probe_rows, _) = probe_pipeline.row_counts();
            metrics.rows_in = probe_rows + build_rows;
            metrics.rows_exchanged = probe_rows + build_rows;
            let PipelineOutput::Batches(joined) = probe_pipeline.finish()? else {
                return Err(CoreError::Engine(
                    "probe terminal must collect joined batches".to_string(),
                ));
            };

            // ---- Post-join pipeline.
            let mut post = Pipeline::new(stage.post.clone())?;
            for batch in &joined {
                env.compute(env.costs.process_seconds(batch.num_rows() as u64)).await;
                post.push(batch)?;
            }
            metrics.rows_out = post.row_counts().1;
            post.finish()?
        }
        StageKind::AggMerge(stage) => {
            // Merge shard `p` of every producer's partial-aggregate state —
            // the groups whose key hashes to `p`, so the fleet's group
            // ranges are disjoint — and finalize it.
            let mut state = GroupedAggState::new(&stage.funcs)?;
            let handed = handed_for(&mut handed, 0);
            for bytes in recv_edge(env, task, 0, edges, handed).await? {
                let shard = GroupedAggState::decode(&bytes)?;
                metrics.rows_in += shard.num_groups() as u64;
                env.compute(env.costs.process_seconds(shard.num_groups() as u64)).await;
                state.merge(&shard)?;
                within_memory(state.approx_bytes() as u64, budget, "merged aggregate state")?;
            }
            metrics.rows_exchanged = metrics.rows_in;
            if let StageSink::Report { emit_state: true, .. } = task.sink {
                metrics.rows_out = state.num_groups() as u64;
                PipelineOutput::Aggregate(state)
            } else {
                let mut batch = agg_state_to_batch(&state, &stage.agg_schema)?;
                metrics.rows_out = batch.num_rows() as u64;
                if let Some(sort) = task.sink.sort() {
                    // A sort fleet consumes the finalized groups: this
                    // merge worker is a sort-exchange producer, so it
                    // sorts and top-k-truncates locally, as a
                    // `Terminal::SortPartition` pipeline would.
                    batch = sort_limit(batch, &sort.keys, sort.limit)?;
                }
                PipelineOutput::Batches(vec![batch])
            }
        }
        StageKind::Sort(stage) => {
            // Sort range partition `p` of every producer's run and truncate
            // it to the limit. Ranges are disjoint and ordered by partition
            // id, so the driver's concatenation (in worker order) is
            // globally sorted. A sort edge's blocks hold other ranges' rows
            // too: keep this range's, in the order they came. With no
            // bounds — one range, or a fused edge — every row is this
            // range's.
            let bounds = edges.first().map_or(&[][..], |e| &e.bounds[..]);
            let (mut batches, mut received) = (Vec::new(), 0u64);
            let mut state_bytes = 0u64;
            let handed = handed_for(&mut handed, 0);
            let payloads = recv_edge(env, task, 0, edges, handed).await?;
            for batch in decode_parts(payloads) {
                let mut batch = batch?;
                if !bounds.is_empty() {
                    received += (batch.num_rows() * batch.num_columns() * 8) as u64;
                    let mut ranges = range_partition_batch(&batch, &stage.keys, bounds)?;
                    batch = ranges.swap_remove(usize::from(p > 0));
                }
                state_bytes += (batch.num_rows() * batch.num_columns() * 8) as u64;
                within_memory(state_bytes, budget / 2, "sort partition")?;
                batches.push(batch);
            }
            if !bounds.is_empty() {
                env.compute(env.costs.partition_seconds(received)).await;
            }
            let rows_in: u64 = batches.iter().map(|b| b.num_rows() as u64).sum();
            metrics.rows_in = rows_in;
            metrics.rows_exchanged = rows_in;
            env.compute(env.costs.process_seconds(rows_in)).await;
            let all = RecordBatch::concat(stage.schema.clone(), &batches)?;
            let sorted = sort_limit(all, &stage.keys, stage.limit)?;
            metrics.rows_out = sorted.num_rows() as u64;
            PipelineOutput::Batches(vec![sorted])
        }
    };

    // What leaves on an edge: filtered rows for hash-partition terminals,
    // grouped states (one "row" per group) for partitioned aggregates, a
    // sorted run cut into blocks for sort edges.
    let (rows, parts, starts) = match (&task.sink, output) {
        (StageSink::Report { .. }, output) => {
            let payload = report(env, task, output, &mut metrics).await?;
            metrics.add(env.tally());
            return Ok((payload, metrics, None));
        }
        (StageSink::Edge { .. }, PipelineOutput::Partitions(partitions)) => {
            (metrics.rows_out, batch_parts(&partitions)?, None)
        }
        (StageSink::Edge { .. }, PipelineOutput::AggShards(shards)) => {
            // Empty shards become zero-length parts, like empty batch lists.
            let parts = shards
                .iter()
                .map(|s| PartData::Real(if s.num_groups() == 0 { Vec::new() } else { s.encode() }))
                .collect();
            (shards.iter().map(|s| s.num_groups() as u64).sum(), parts, None)
        }
        (StageSink::SortEdge { sort, .. }, PipelineOutput::Batches(run)) => {
            let run = RecordBatch::concat(sort.schema.clone(), &run)?;
            let (parts, starts) = sort_edge_parts(sort, &run)?;
            (run.num_rows() as u64, parts, starts)
        }
        (StageSink::Edge { .. }, _) => {
            return Err(CoreError::Engine("an exchange edge needs a sharding terminal".to_string()))
        }
        (StageSink::SortEdge { .. }, _) => {
            return Err(CoreError::Engine(
                "a sort edge needs a collecting (sort-partition) terminal".to_string(),
            ))
        }
    };
    metrics.rows_exchanged += rows;
    let handoff = Handoff { rows, parts, starts };
    let (payload, handoff) = if hands_on {
        // The parts go to the next stage as they are: no request, no
        // partitioning charge.
        (ResultPayload::Exchanged { rows, bytes: 0 }, Some(handoff))
    } else {
        (ship(env, task, handoff).await?, None)
    };
    metrics.add(env.tally());
    Ok((payload, metrics, handoff))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::ExchangeBuckets;
    use crate::stage::StageOutput;
    use crate::transport::SectionAddr;
    use lambada_engine::types::DataType;
    use lambada_engine::{col, AggExpr, AggFunc, Column, Scalar};
    use lambada_sim::{CloudConfig, Simulation};

    /// A one-worker scan task over an empty `t` whose pipeline ends in
    /// `terminal`, shipping to `sink`.
    fn scan_task(terminal: Terminal, output: StageOutput, sink: StageSink) -> Rc<StageTask> {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let stage = ScanStage {
            table: "t".to_string(),
            scan_columns: vec![0],
            prune_predicate: None,
            pipeline: PipelineSpec {
                input_schema: Schema::arc(schema.fields.clone()),
                predicate: None,
                projection: None,
                terminal,
            },
            output,
        };
        Rc::new(StageTask {
            kind: StageKind::Scan(stage),
            in_channels: Vec::new(),
            scan: Some(Rc::new(ScanFiles {
                table: Rc::new(TableSpec::new("t", schema, Vec::new(), 0)),
                chunks: Vec::new(),
                config: ScanConfig::default(),
            })),
            sink,
            transport: Rc::new(EdgeTransport::new(ExchangeBuckets::default(), None)),
            result_bucket: "results".to_string(),
            result_prefix: "results/x0-q0".to_string(),
            inboxes: Vec::new(),
        })
    }

    /// A plan the verifier would reject can still reach a worker through
    /// a hand-built payload: a partial aggregate (one inline state) wired
    /// to an exchange edge (which ships shards). The stage task must
    /// answer with a typed error for the result queue, not a panic that
    /// kills the invocation silently.
    #[test]
    fn mismatched_output_and_sink_is_a_typed_error() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
        let terminal = Terminal::PartialAggregate {
            group_by: Vec::new(),
            aggs: vec![AggExpr::new(AggFunc::Count, None, "n")],
        };
        let sink =
            StageSink::Edge { channel: "x0/q0/s0".to_string(), inline_budget: 0, receivers: 1 };
        let task = scan_task(terminal, StageOutput::AggExchange, sink);
        let err = sim.block_on(async move {
            run_stage(&env, &task, Vec::new(), &[], false).await.unwrap_err()
        });
        assert!(
            matches!(&err, CoreError::Engine(m) if m.contains("needs a sharding terminal")),
            "got: {err}"
        );
    }

    /// Result batches that encode to exactly [`INLINE_RESULT_BYTES`] ride
    /// the message; one byte more and they are stored, with one PUT.
    #[test]
    fn results_up_to_the_inline_limit_ride_the_message() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        cloud.s3.create_bucket("results");
        let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
        let task = scan_task(
            Terminal::Collect,
            StageOutput::Driver,
            StageSink::Report { top: None, emit_state: false },
        );
        // The column name's length moves the encoded size byte by byte
        // (its length prefix stays two bytes from 128 on).
        let rows = INLINE_RESULT_BYTES / 8 - 64;
        let batch = |name_len: usize| {
            let name = "c".repeat(name_len);
            RecordBatch::from_columns(&[name.as_str()], vec![Column::I64(vec![1; rows])]).unwrap()
        };
        let size = |b: &RecordBatch| {
            crate::partition::encode_batches(std::slice::from_ref(b)).unwrap().len()
        };
        let at_limit = 200 + INLINE_RESULT_BYTES - size(&batch(200));
        let (inline, over) = (batch(at_limit), batch(at_limit + 1));
        assert_eq!((size(&inline), size(&over)), (INLINE_RESULT_BYTES, INLINE_RESULT_BYTES + 1));
        let (inline, stored, puts) = sim.block_on(async move {
            let mut metrics = WorkerMetrics::default();
            let batches = |batch| PipelineOutput::Batches(vec![batch]);
            let inline = report(&env, &task, batches(inline), &mut metrics).await.unwrap();
            let puts = env.tally().puts;
            let stored = report(&env, &task, batches(over), &mut metrics).await.unwrap();
            (inline, stored, (puts, env.tally().puts))
        });
        assert!(
            matches!(&inline, ResultPayload::InlineBatches { rows: r, bytes }
                if *r == rows as u64 && bytes.len() == INLINE_RESULT_BYTES),
            "{inline:?}"
        );
        assert!(matches!(stored, ResultPayload::Stored { .. }), "{stored:?}");
        assert_eq!(puts, (0, 1));
    }

    /// A reporting worker keeps what the driver keeps: rows that encode
    /// to twice [`INLINE_RESULT_BYTES`], under a sink carrying `ORDER BY
    /// a DESC LIMIT 10`, shrink to their stable top 10 and ride the
    /// message — no PUT — in the order the driver's sort would give them.
    #[test]
    fn a_report_under_a_limit_ships_its_top_rows_inline() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        cloud.s3.create_bucket("results");
        let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
        let top = ReportTop { keys: vec![SortKey::desc(col(0))], n: 10 };
        let sink = StageSink::Report { top: Some(top), emit_state: false };
        let task = scan_task(Terminal::Collect, StageOutput::Driver, sink);
        // Key `i % 1000`: each key is tied 33 ways, so the top 10 are the
        // first ten rows of key 999, in row order.
        let rows = INLINE_RESULT_BYTES / 8 + 100;
        let batch = RecordBatch::from_columns(
            &["a", "b"],
            vec![
                Column::I64((0..rows as i64).map(|i| i % 1000).collect()),
                Column::I64((0..rows as i64).collect()),
            ],
        )
        .unwrap();
        let size = crate::partition::encode_batches(std::slice::from_ref(&batch)).unwrap().len();
        assert!(size > 2 * INLINE_RESULT_BYTES, "{size} B");
        let halves =
            [0..rows / 2, rows / 2..rows].map(|r| batch.gather(&r.collect::<Vec<_>>())).to_vec();
        let (payload, metrics, puts) = sim.block_on(async move {
            let mut metrics = WorkerMetrics { rows_out: rows as u64, ..WorkerMetrics::default() };
            let payload =
                report(&env, &task, PipelineOutput::Batches(halves), &mut metrics).await.unwrap();
            (payload, metrics, env.tally().puts)
        });
        let ResultPayload::InlineBatches { rows: 10, bytes } = &payload else {
            panic!("expected 10 inline rows, got {payload:?}");
        };
        assert_eq!((puts, metrics.rows_out), (0, 10));
        let got = crate::partition::decode_batches(bytes).unwrap();
        let want = RecordBatch::from_columns(
            &["a", "b"],
            vec![
                Column::I64(vec![999; 10]),
                Column::I64((0..10).map(|i| 999 + 1000 * i).collect()),
            ],
        )
        .unwrap();
        assert_eq!(got, vec![want]);
    }

    /// A sort edge of two ranges over a run of 64 rows whose key 21 is
    /// hot — rows 21 to 63 — cut into 32 blocks of two rows. The pooled
    /// first keys put the boundary at 21, inside block 10 (keys 20 and
    /// 21): the driver addresses that block to both sorters, and each
    /// keeps exactly its range's rows, in run order.
    #[test]
    fn a_block_straddling_a_boundary_reaches_both_sorters_and_each_keeps_its_own() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let env = |w| WorkerEnv::bare(&cloud, w, 2048, ComputeCostModel::default());
        let schema =
            Schema::arc(vec![Field::new("k", DataType::Int64), Field::new("v", DataType::Int64)]);
        let keys: Vec<i64> = (0..64).map(|row| row.min(21)).collect();
        let run = RecordBatch::new(
            schema.clone(),
            vec![Column::I64(keys), Column::I64((0..64).collect())],
        )
        .unwrap();
        let sort_keys = vec![SortKey::asc(col(0))];
        let edge = SortStage { input: 0, schema, keys: sort_keys, limit: None };
        let transport = Rc::new(EdgeTransport::new(ExchangeBuckets::default(), None));
        let (blocks, edges) = sim.block_on({
            let (env, transport, edge) = (env(0), Rc::clone(&transport), &edge);
            async move {
                let (parts, starts) = sort_edge_parts(edge, &run).unwrap();
                let (_, sections, inline) =
                    transport.send(&env, "x0/q0/s0", 0, parts, u64::MAX, false).await.unwrap();
                let (rows, bytes) = (64, inline.len() as u64);
                let report = ResultPayload::Sections {
                    rows,
                    bytes,
                    sections: sections.clone(),
                    inline,
                    starts,
                };
                let report = WorkerResult::ok(0, report, WorkerMetrics::default());
                (sections, crate::driver::section_tables(&[report], 2, Some(edge)).unwrap())
            }
        });
        assert_eq!(blocks.len(), 32);
        let bound = vec![vec![Scalar::Int64(21)]];
        assert!(edges.iter().all(|e| e.bounds == bound), "{edges:?}");
        let len = |e: &InEdge| match &e.senders[..] {
            [SectionAddr { at: At::Inline(bytes), .. }] => bytes.len() as u64,
            other => panic!("one inline address per sender, not {other:?}"),
        };
        let before: u64 = blocks[..10].iter().map(|s| s.len).sum();
        let after: u64 = blocks[11..].iter().map(|s| s.len).sum();
        assert_eq!(
            (len(&edges[0]), len(&edges[1])),
            (before + blocks[10].len, blocks[10].len + after)
        );

        let task = Rc::new(StageTask {
            kind: StageKind::Sort(edge),
            in_channels: vec!["x0/q0/s0".to_string()],
            scan: None,
            sink: StageSink::Report { top: None, emit_state: false },
            transport,
            result_bucket: "results".to_string(),
            result_prefix: "results/x0-q0".to_string(),
            inboxes: Vec::new(),
        });
        for (r, rows) in [(0usize, 0..21i64), (1, 21..64)] {
            let (env, edge) = (env(r as u64), edges[r].clone());
            let ran = sim.block_on(async {
                run_stage(&env, &task, Vec::new(), &[edge], false).await.unwrap()
            });
            let ResultPayload::InlineBatches { bytes, .. } = &ran.0 else { panic!("{:?}", ran.0) };
            let got = crate::partition::decode_batches(bytes).unwrap();
            let got: Vec<i64> =
                got.iter().flat_map(|b| b.column(1).as_i64().unwrap().to_vec()).collect();
            assert_eq!(got, rows.collect::<Vec<_>>(), "sorter {r}");
            assert_eq!(ran.1.rows_in, got.len() as u64, "sorter {r} counts the rows it keeps");
        }
    }

    /// One range is the same protocol: a lone sorter's producer cuts its
    /// run into blocks, the driver picks no boundary, and the sorter —
    /// addressed to every block, or handed them all by a fused producer —
    /// keeps every row and is charged its sort alone, no partitioning.
    #[test]
    fn a_lone_sorter_keeps_every_block_and_charges_only_its_sort() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let env = WorkerEnv::bare(&cloud, 0, 2048, ComputeCostModel::default());
        let schema = Schema::arc(vec![Field::new("k", DataType::Int64)]);
        let run = RecordBatch::new(schema.clone(), vec![Column::I64((0..100).collect())]).unwrap();
        let keys = vec![SortKey::asc(col(0))];
        let edge = SortStage { input: 0, schema, keys, limit: None };
        let transport = Rc::new(EdgeTransport::new(ExchangeBuckets::default(), None));
        let (parts, addressed) = sim.block_on(async {
            let (parts, starts) = sort_edge_parts(&edge, &run).unwrap();
            let (_, sections, inline) =
                transport.send(&env, "x0/q0/s0", 0, parts.clone(), u64::MAX, false).await.unwrap();
            let bytes = inline.len() as u64;
            let report = ResultPayload::Sections { rows: 100, bytes, sections, inline, starts };
            let report = WorkerResult::ok(0, report, WorkerMetrics::default());
            (parts, crate::driver::section_tables(&[report], 1, Some(&edge)).unwrap())
        });
        assert_eq!(parts.len(), SORT_SAMPLE_ROWS);
        assert_eq!(addressed[0].bounds, Vec::<Vec<Scalar>>::new(), "one range, no boundary");

        let task = Rc::new(StageTask {
            kind: StageKind::Sort(edge),
            in_channels: vec!["x0/q0/s0".to_string()],
            scan: None,
            sink: StageSink::Report { top: None, emit_state: false },
            transport,
            result_bucket: "results".to_string(),
            result_prefix: "results/x0-q0".to_string(),
            inboxes: Vec::new(),
        });
        let now = || cloud.handle.now();
        let sort_secs = sim.block_on(async {
            let start = now();
            env.compute(env.costs.process_seconds(100)).await;
            now() - start
        });
        for (what, handed, edges) in
            [("addressed", Vec::new(), addressed), ("fused", vec![(0, parts)], vec![])]
        {
            let (ran, took) = sim.block_on(async {
                let start = now();
                let ran = run_stage(&env, &task, handed, &edges, false).await.unwrap();
                (ran, now() - start)
            });
            let ResultPayload::InlineBatches { bytes, .. } = ran.0 else { panic!("{what}") };
            let got = crate::partition::decode_batches(&bytes).unwrap();
            let got = got.iter().flat_map(|b| b.column(0).as_i64().unwrap().to_vec());
            assert_eq!(got.collect::<Vec<i64>>(), (0..100).collect::<Vec<_>>(), "{what}");
            assert_eq!(took, sort_secs, "{what}: the sort is all it is charged");
        }
    }

    /// The wait bound in worked numbers, at the default prices and a
    /// 100 ms quantum: a 2 GiB host's quantum costs $3.3e-6, and a
    /// member's own launch is the $2e-7 request and a quantum — one whole
    /// quantum of idling, 0.1 s — plus $5.4e-6 of PUT and GET for a
    /// section that would go through the object store — $8.9e-6, two
    /// whole quanta. The rest of the quantum the host has started comes on
    /// top, free. At 1 GiB the quantum costs half: $7.25e-6 is four. With
    /// no quantum the idle is priced by the second.
    #[test]
    fn the_host_wait_prices_idle_memory_against_a_launch() {
        let prices = Prices::default();
        let wait = |memory, elapsed, spills| host_wait(&prices, memory, 0.1, elapsed, spills);
        let near = |got: f64, want: f64| (got - want).abs() < 1e-9;
        assert!(near(wait(2048, 0.0, false), 0.1), "{}", wait(2048, 0.0, false));
        assert!(near(wait(2048, 0.0, true), 0.2), "{}", wait(2048, 0.0, true));
        assert!(near(wait(2048, 0.03, true), 0.27), "the quantum's rest");
        assert!(near(wait(2048, 0.13, true), 0.27), "each quantum alike");
        assert!(near(wait(1024, 0.0, true), 0.4), "{}", wait(1024, 0.0, true));
        assert!(near(host_wait(&prices, 2048, 0.0, 0.37, false), 2e-7 / 3.3e-5));
    }
}
