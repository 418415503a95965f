//! The multi-tenant query service: many concurrent [`QueryDag`]s on one
//! installation.
//!
//! The driver's event-driven stage scheduler ([`Lambada::run_dag`])
//! executes one query at a time; this layer turns the same installation
//! into a *service*.
//! Tenants submit logical plans ([`QueryService::submit`]) and get back
//! handles that resolve to [`QueryReport`]s as queries finish. Between
//! submission and execution sits an admission controller
//! (weighted fair queueing across tenants, per-tenant budgets on
//! concurrency and request-$) and a global in-flight
//! worker gate that arbitrates the installation's invoke/collect
//! capacity across the interleaved stage fleets of every running query.
//!
//! Isolation between concurrent queries costs nothing extra: exchange
//! channels and result queues are already namespaced by query id, and
//! failure handling and straggler speculation are per-fleet, so one
//! query failing fast or re-invoking backups never stalls a neighbor.
//! What the service adds is *policy*: Lambada (SIGMOD 2020) sizes fleets
//! per query in isolation; at service scale the binding constraint is
//! the shared resource budget across queries (Kassing et al., CIDR
//! 2022), which is exactly what the worker gate and the contention-aware
//! fleet cap ([`crate::ComputeCostModel::contended_fleet_cap`]) encode.
//!
//! See `docs/SERVICE.md` for the submission lifecycle, the fairness
//! policy, and the budget accounting formulas.

mod admission;

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use lambada_engine::logical::LogicalPlan;
use lambada_sim::sync::{Semaphore, SemaphorePermit};
use lambada_sim::JoinHandle;

use crate::driver::{ExecPolicy, Lambada, LambadaConfig, LaunchPlan, Placement, QueryReport};
use crate::error::Result;
use crate::exchange_cost::{direct_edge_counts, stage_edge_counts, RequestCounts};
use crate::stage::QueryDag;
use crate::transport::TransportKind;

use admission::AdmissionController;
pub use admission::{TenantBudget, TenantUsage};
// The continuous-query handle submits through this service layer; re-export
// it here so streaming reads as part of the service API surface.
pub use crate::streaming::{ContinuousQuery, StreamBatchReport, StreamSpec};

/// Service-layer configuration, part of [`crate::LambadaConfig`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Global in-flight worker cap shared by every concurrent query's
    /// fleets (0 = ungated). A stage acquires `min(fleet, cap)` permits
    /// before invoking anything and holds them until its results are
    /// collected.
    pub max_inflight_workers: usize,
    /// Queries executing concurrently across all tenants; submissions
    /// beyond this wait in the fair queue.
    pub max_concurrent_queries: usize,
    /// Shrink cost-model-sized fleets while several queries share the
    /// worker budget ([`crate::ComputeCostModel::contended_fleet_cap`]).
    /// Fleets the installation pins explicitly stay pinned.
    pub shrink_fleets: bool,
    /// Budget for tenants without an explicit [`QueryService::set_budget`].
    pub default_budget: TenantBudget,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_inflight_workers: 512,
            max_concurrent_queries: 8,
            shrink_fleets: true,
            default_budget: TenantBudget::default(),
        }
    }
}

/// The shared in-flight worker gate. Cloning shares the gate.
#[derive(Clone)]
pub struct WorkerGate {
    sem: Semaphore,
    cap: usize,
    inflight: Rc<Cell<usize>>,
    peak: Rc<Cell<usize>>,
}

impl WorkerGate {
    pub fn new(cap: usize) -> WorkerGate {
        let cap = cap.max(1);
        WorkerGate {
            sem: Semaphore::new(cap),
            cap,
            inflight: Rc::new(Cell::new(0)),
            peak: Rc::new(Cell::new(0)),
        }
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Workers currently holding leases.
    pub fn inflight(&self) -> usize {
        self.inflight.get()
    }

    /// High-water mark of [`WorkerGate::inflight`]. With fleet shrinking
    /// on, every fleet fits under the cap and this never exceeds it; a
    /// fleet pinned larger than the cap is admitted whole (a fleet
    /// launches at once, see `run_fleet`) and shows up here.
    pub fn peak_inflight(&self) -> usize {
        self.peak.get()
    }

    /// Acquire capacity for a whole fleet, FIFO behind earlier fleets.
    pub async fn admit(&self, workers: usize) -> WorkerLease {
        let permits = workers.clamp(1, self.cap);
        let permit = self.sem.acquire(permits).await;
        let now = self.inflight.get() + workers;
        self.inflight.set(now);
        if now > self.peak.get() {
            self.peak.set(now);
        }
        WorkerLease { gate: self.clone(), workers, _permit: permit }
    }
}

/// RAII lease returned by [`WorkerGate::admit`]; dropping it releases
/// the fleet's permits.
pub struct WorkerLease {
    gate: WorkerGate,
    workers: usize,
    _permit: SemaphorePermit,
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        self.gate.inflight.set(self.gate.inflight.get() - self.workers);
    }
}

/// Pre-execution resource envelope of one query — what admission control
/// reserves against the tenant's request-$ budget until the query
/// settles with its exact [`QueryReport::request_dollars`].
/// Deliberately conservative (see `docs/SERVICE.md`): an under-estimate
/// could let a tenant overshoot its budget, an over-estimate only delays
/// the tenant's own later submissions.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryEstimate {
    /// Total planned workers across all stages (uncapped) — also the
    /// query's weighted-fair-queueing cost.
    pub workers: usize,
    /// The request envelope — S3 GETs and PUTs plus worker invocations —
    /// priced at the cloud's [`lambada_sim::Prices`], with a 2× margin.
    pub request_dollars: f64,
}

/// A submitted query; resolves to its [`QueryReport`] (or the error that
/// rejected or failed it). Submission already happened — dropping the
/// handle does not cancel the query.
pub struct QueryHandle {
    join: JoinHandle<Result<QueryReport>>,
}

impl Future for QueryHandle {
    type Output = Result<QueryReport>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.join).poll(cx)
    }
}

/// One installation serving many tenants' queries concurrently.
pub struct QueryService {
    system: Rc<Lambada>,
    admission: AdmissionController,
    gate: Option<WorkerGate>,
    config: ServiceConfig,
}

impl QueryService {
    /// Wrap an installed system, taking the service policy from its
    /// [`crate::LambadaConfig::service`].
    pub fn new(system: Lambada) -> QueryService {
        let config = system.config().service.clone();
        QueryService::with_config(system, config)
    }

    /// Wrap an installed system under an explicit policy.
    pub fn with_config(system: Lambada, config: ServiceConfig) -> QueryService {
        let gate =
            (config.max_inflight_workers > 0).then(|| WorkerGate::new(config.max_inflight_workers));
        QueryService {
            system: Rc::new(system),
            admission: AdmissionController::new(
                config.max_concurrent_queries,
                config.default_budget.clone(),
            ),
            gate,
            config,
        }
    }

    pub fn system(&self) -> &Lambada {
        &self.system
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Set (or replace) one tenant's budget. Usage already accrued is
    /// kept; only future admission decisions see the new limits.
    pub fn set_budget(&self, tenant: &str, budget: TenantBudget) {
        self.admission.set_budget(tenant, budget);
    }

    /// The admission estimate a submission of `plan` would reserve.
    pub fn estimate(&self, plan: &LogicalPlan) -> Result<QueryEstimate> {
        let dag = self.system.plan(plan)?;
        Ok(estimate_dag(&self.system, &self.system.launch_plan(&dag, None)?))
    }

    /// High-water mark of in-flight workers across all queries (0 when
    /// the service runs ungated).
    pub fn peak_inflight_workers(&self) -> usize {
        self.gate.as_ref().map_or(0, |g| g.peak_inflight())
    }

    /// Workers holding a lease on the gate right now (0 when the service
    /// runs ungated, and once every query has returned).
    pub fn inflight_workers(&self) -> usize {
        self.gate.as_ref().map_or(0, |g| g.inflight())
    }

    /// Per-tenant usage rollup, sorted by tenant id.
    pub fn usage_report(&self) -> Vec<TenantUsage> {
        self.admission.usage_report()
    }

    /// One tenant's usage, if it ever submitted.
    pub fn tenant_usage(&self, tenant: &str) -> Option<TenantUsage> {
        self.admission.tenant_usage(tenant)
    }

    /// Submit a query for `tenant`. Returns immediately with a handle;
    /// planning, static verification, admission (budget check + fair
    /// queueing), execution, and budget settlement all happen in a
    /// spawned task.
    pub fn submit(&self, tenant: &str, plan: &LogicalPlan) -> QueryHandle {
        let plan = plan.clone();
        self.spawn(tenant, move |system| system.plan(&plan))
    }

    /// Submit a hand-built stage DAG for `tenant` — the service-side
    /// counterpart of [`Lambada::run_dag`]. The DAG runs through the
    /// same static verification and admission as a planned query, so a
    /// malformed DAG is rejected with [`crate::CoreError::InvalidPlan`] before
    /// a cent of the tenant's budget is reserved or a worker invoked.
    pub fn submit_dag(&self, tenant: &str, dag: &QueryDag) -> QueryHandle {
        let dag = dag.clone();
        self.spawn(tenant, move |_| Ok(dag))
    }

    /// The one spawn path of both submissions: note the submission time,
    /// then build the DAG and [`admit_and_run`] it in a task of its own.
    fn spawn(
        &self,
        tenant: &str,
        dag: impl FnOnce(&Lambada) -> Result<QueryDag> + 'static,
    ) -> QueryHandle {
        let system = Rc::clone(&self.system);
        let (admission, gate) = (self.admission.clone(), self.gate.clone());
        let shrink = self.config.shrink_fleets;
        let tenant = tenant.to_string();
        let submitted = self.system.cloud().handle.now();
        let join = self.system.cloud().handle.spawn(async move {
            let dag = dag(&system)?;
            admit_and_run(system, admission, gate, shrink, tenant, submitted, dag).await
        });
        QueryHandle { join }
    }

    /// Submit and wait: the one-query convenience wrapper over
    /// [`QueryService::submit`].
    pub async fn run(&self, tenant: &str, plan: &LogicalPlan) -> Result<QueryReport> {
        self.submit(tenant, plan).await
    }
}

/// The shared back half of [`QueryService::submit`] and
/// [`QueryService::submit_dag`]: statically verify, estimate, admit,
/// execute, stamp, settle. Verification runs *first* — a malformed plan
/// never reserves budget, never queues for admission, and never invokes
/// a worker; the tenant's usage is untouched by the rejection. The
/// driver knows no tenant: the report it returns is stamped here with
/// its tenant and its span from submission, admission queueing
/// included, read at the virtual instant the driver returned.
async fn admit_and_run(
    system: Rc<Lambada>,
    admission: AdmissionController,
    gate: Option<WorkerGate>,
    shrink: bool,
    tenant: String,
    submitted: lambada_sim::SimTime,
    dag: QueryDag,
) -> Result<QueryReport> {
    // The estimate is read off the very launch plan that was verified.
    let estimate = estimate_dag(&system, &system.launch_plan(&dag, None)?);
    admission.admit(&tenant, &estimate).await?;
    let fleet_cap = match &gate {
        Some(g) if shrink => {
            Some(system.config().costs.contended_fleet_cap(g.cap(), admission.active_queries()))
        }
        _ => None,
    };
    let mut outcome = system.run_dag_with(&dag, &ExecPolicy { gate, fleet_cap }).await;
    let span_secs = (system.cloud().handle.now() - submitted).as_secs_f64();
    match &mut outcome {
        Ok(report) => {
            report.span_secs = span_secs;
            let dollars = report.request_dollars(&system.cloud().billing.prices());
            admission.settle_success(&tenant, &estimate, dollars, span_secs);
            report.tenant = tenant;
        }
        Err(_) => admission.settle_failure(&tenant, &estimate),
    }
    outcome
}

/// Fraction of a direct-transport edge's receivers the estimate assumes
/// fall back to the object store (unregistered endpoints, relay
/// capacity). The reservation must stay an over-estimate — an
/// under-estimate could let a tenant overshoot its budget — so the
/// envelope prices a quarter of every fleet on the store path rather
/// than assuming the p2p fast path always holds; the 2× margin applies
/// on top.
const DIRECT_FALLBACK_HEADROOM: f64 = 0.25;

/// The request envelope of one launch plan, before the margin. It has
/// no LIST term: no stage edge lists ([`stage_edge_counts`],
/// [`direct_edge_counts`]).
#[derive(Default)]
struct Envelope {
    gets: f64,
    puts: f64,
    invocations: u64,
}

impl Envelope {
    fn add(&mut self, c: RequestCounts) {
        self.gets += c.reads;
        self.puts += c.writes;
    }
}

/// Count a DAG's verified, uncapped launch plan into its request
/// envelope. The plan gives per-stage worker counts, every edge's
/// readers and the fused and co-hosted edges, which cost no request and
/// share their reader's invocation — the envelope drops them and counts
/// one invocation per chain with its co-hosted scans, so it stays an
/// over-estimate. Every
/// exchange edge is charged with [`stage_edge_counts`] — or, on the
/// direct transport, with [`direct_edge_counts`] under the
/// [`DIRECT_FALLBACK_HEADROOM`] fallback bound — and lists nothing: the
/// driver addresses its receivers. A sort edge never streams, so it is
/// charged as a stored edge on either transport.
/// Scans are charged a per-file metadata + column-chunk envelope for
/// every stored file; inline files are charged no GET.
fn envelope(launch: &LaunchPlan<'_>, cfg: &LambadaConfig) -> Envelope {
    let fleets = &launch.workers;
    // The S3 requests of an edge from `senders` to `receivers`: every
    // receiver touches the store on the store transport or when the edge
    // cannot stream, the fallback fraction otherwise.
    let exchange = |senders: f64, receivers: f64, streams: bool| match cfg.transport {
        TransportKind::Direct if streams => {
            direct_edge_counts(senders, (receivers * DIRECT_FALLBACK_HEADROOM).ceil())
        }
        _ => stage_edge_counts(senders, receivers),
    };
    let mut env = Envelope::default();
    for (pid, readers) in launch.edges.readers.iter().enumerate() {
        let senders = fleets[pid] as f64;
        // Every stage uploads at most one result object per worker.
        env.puts += senders;
        if let Some(table) = launch.scans[pid].as_ref().map(|s| &s.table) {
            // Footer fetches plus a column-chunk envelope (8 row groups
            // per file covers every staged layout comfortably) plus
            // range splits of large chunks — for stored files: an inline
            // one rides its payload and makes no request.
            let width = table.schema.len().max(1) as f64;
            let stored = table.files.iter().filter(|f| f.inline.is_none());
            let (files, bytes) = stored.fold((0.0, 0.0), |(n, b), f| (n + 1.0, b + f.size as f64));
            env.gets += files * (2.0 + 8.0 * width);
            env.gets += bytes / (cfg.scan.max_request_bytes.max(1) as f64);
        }
        if launch.placement[pid] != Placement::Apart {
            continue;
        }
        let streams = launch.sort_reader(pid).is_none();
        for consumer in readers.iter().filter_map(|r| r.stage) {
            env.add(exchange(senders, fleets[consumer] as f64, streams));
        }
    }
    let workers: usize = fleets.iter().sum();
    let handed = launch.placement.iter().filter(|&&p| p != Placement::Apart).count();
    env.invocations = (workers - handed) as u64;
    env
}

/// Build the admission estimate from a DAG's verified, uncapped launch
/// plan: its request [`envelope`] priced at the cloud's prices, with a
/// 2× margin for speculation and slack.
fn estimate_dag(system: &Lambada, launch: &LaunchPlan<'_>) -> QueryEstimate {
    let env = envelope(launch, system.config());
    let prices = system.cloud().billing.prices();
    let margin = 2.0;
    let dollars = env.gets * prices.s3_get
        + env.puts * prices.s3_put
        + env.invocations as f64 * prices.lambda_request;
    QueryEstimate { workers: launch.workers.iter().sum(), request_dollars: dollars * margin }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{TableFile, TableSpec};
    use crate::verify::test_dags::{scan_sort_dag, sized};
    use lambada_engine::{col, AggExpr, AggFunc, Df};
    use lambada_sim::services::object_store::Body;
    use lambada_sim::{Cloud, CloudConfig, Simulation};

    /// An inline file rides its scan worker's payload and makes no
    /// request: a micro-batch's DAG over two inline files is charged no
    /// scan GET, where the same two files stored are charged the per-file
    /// envelope, 2 × (2 + 8 × 4 columns) = 68 GETs and a fraction for
    /// range splits.
    #[test]
    fn a_batch_over_inline_files_is_charged_no_scan_get() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        let mut system = Lambada::install(&cloud, LambadaConfig::default());
        let schema = crate::streaming::windowed_event_schema();
        let inline =
            (0..2).map(|i| TableFile::inline(format!("b/p{i}"), Body::from_vec(vec![0; 9_000])));
        let stored = (0..2).map(|i| TableFile::real("data", format!("t/p{i}"), 9_000));
        system.register_table(TableSpec::new("batch", schema.clone(), inline.collect(), 4_000));
        system.register_table(TableSpec::new("table", schema.clone(), stored.collect(), 4_000));
        let gets = |table: &str| {
            let count = vec![AggExpr::new(AggFunc::Count, None, "n")];
            let plan = Df::scan(table, &schema).aggregate(vec![(col(3), "wstart")], count).unwrap();
            let dag = system.plan(&plan.build()).unwrap();
            envelope(&system.launch_plan(&dag, None).unwrap(), system.config()).gets
        };
        assert_eq!(gets("batch"), 0.0);
        let stored = gets("table");
        assert!((68.0..69.0).contains(&stored), "{stored}");
    }

    /// A sort edge of several ranges — or of one — is an edge like any
    /// other, listing nothing, but it never streams: 8 merge workers
    /// feeding `s` sorters are charged 8 PUTs and 8 × `s` GETs on both
    /// transports.
    #[test]
    fn a_sort_edge_of_several_ranges_is_charged_as_a_stored_edge() {
        let dag = scan_sort_dag();
        let direct = LambadaConfig { transport: TransportKind::Direct, ..LambadaConfig::default() };
        for sorters in [2, 1] {
            let launch = sized(&dag, vec![8, sorters]);
            for config in [LambadaConfig::default(), direct.clone()] {
                let env = envelope(&launch, &config);
                let s = sorters as f64;
                assert_eq!(env.gets, 8.0 * s, "{:?}", config.transport);
                assert_eq!(stage_edge_counts(8.0, s).lists, 0.0, "the edge lists nothing");
                // Result uploads (8 + s) and the edge's PUTs.
                assert_eq!(env.puts, 8.0 + s + 8.0);
                assert_eq!(env.invocations, 8 + sorters as u64);
            }
        }
    }
}
