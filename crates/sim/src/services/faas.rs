//! FaaS (AWS-Lambda-like) service.
//!
//! Models everything §3.3 and §4.1–4.2 of the paper depend on:
//!
//! * functions registered with a memory size (which determines the CPU
//!   share, `memory / 1792 MiB` vCPUs, and the NIC profile);
//! * an account-wide concurrent-execution limit (default 1k, raised via a
//!   support request in §5.1);
//! * cold vs warm starts, with a compute penalty on cold invocations
//!   ("somewhat slower execution, possibly due to loading of code from the
//!   dependency layer", §5.2);
//! * per-caller invocation throughput (Table 1): the driver's 128 requester
//!   threads achieve 220–290 inv/s, a worker inside the region ~80 inv/s;
//! * function timeouts that kill the handler (silent death — error
//!   reporting is the worker wrapper's job, §3.3);
//! * the asynchronous invocation's payload cap ([`MAX_ASYNC_PAYLOAD_BYTES`]).

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::time::Duration;

use crate::billing::{Billing, CostItem};
use crate::executor::SimHandle;
use crate::region::Region;
use crate::resource::{BurstLink, BurstLinkConfig, PsResource, TokenBucket};
use crate::rng::SimRng;
use crate::sync::{select2, Either, Semaphore};
use crate::trace::Trace;

/// Payload handed to a function invocation (the JSON event in real Lambda).
pub type InvokePayload = Rc<dyn Any>;

/// Lambda's cap on an asynchronous ("Event") invocation's payload: 256 KiB.
pub const MAX_ASYNC_PAYLOAD_BYTES: usize = 256 * 1024;

type LocalBoxFuture = Pin<Box<dyn Future<Output = ()>>>;

/// The code of a function: maps an instance context and payload to a future.
pub type Handler = Rc<dyn Fn(InstanceCtx, InvokePayload) -> LocalBoxFuture>;

/// A fault injected into one invocation (straggler / failure experiments).
///
/// Generalizes the bench-only NIC degradation of
/// `WorkerEnv::bare_with_nic_factor` to the real FaaS dispatch path, so
/// end-to-end tests can make worker *k* of a fleet slow or kill it
/// mid-flight without bypassing invocation, cold starts, or timeouts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InjectedFault {
    /// Multiplier on the handler's compute charges (> 1 slows it down).
    pub compute_factor: f64,
    /// Multiplier on the container's NIC bandwidth (< 1 slows transfers).
    pub nic_factor: f64,
    /// Kill the invocation silently after this much execution time — the
    /// same silent death as a function timeout, but per invocation.
    pub kill_after: Option<Duration>,
}

impl Default for InjectedFault {
    fn default() -> Self {
        InjectedFault { compute_factor: 1.0, nic_factor: 1.0, kill_after: None }
    }
}

impl InjectedFault {
    /// A straggler: compute slowed and NIC degraded by `factor`.
    pub fn slowdown(factor: f64) -> InjectedFault {
        InjectedFault {
            compute_factor: factor.max(1.0),
            nic_factor: (1.0 / factor.max(1.0)).min(1.0),
            ..InjectedFault::default()
        }
    }

    /// A silent mid-flight death after `after` of execution.
    pub fn kill(after: Duration) -> InjectedFault {
        InjectedFault { kill_after: Some(after), ..InjectedFault::default() }
    }

    fn degrades_nic(&self) -> bool {
        self.nic_factor != 1.0
    }
}

/// Decides, per invocation, whether to inject a fault. The callback sees
/// the raw payload (`&dyn Any`); callers that know the concrete payload
/// type downcast it to target specific workers/attempts.
pub type FaultInjector = Rc<dyn Fn(&dyn Any) -> Option<InjectedFault>>;

/// Service-level tunables.
#[derive(Clone, Debug)]
pub struct FaasConfig {
    /// Account-wide concurrent execution limit (default 1k per §5.1).
    pub account_concurrency: usize,
    /// Billing quantum in seconds (100 ms in the paper's era).
    pub billing_quantum: f64,
    /// Median container cold-start time (runtime + dependency layer init).
    pub cold_start_median: Duration,
    /// Log-normal sigma of cold-start times.
    pub cold_start_sigma: f64,
    /// Warm-start dispatch overhead.
    pub warm_start: Duration,
    /// Compute slowdown factor applied to the first (cold) invocation of a
    /// container (Fig 10 observes ~20% slower cold runs).
    pub cold_compute_penalty: f64,
    /// Log-normal sigma on invocation API latency.
    pub invoke_jitter_sigma: f64,
}

impl Default for FaasConfig {
    fn default() -> Self {
        FaasConfig {
            account_concurrency: 1000,
            billing_quantum: 0.1,
            cold_start_median: Duration::from_millis(650),
            cold_start_sigma: 0.25,
            warm_start: Duration::from_millis(12),
            cold_compute_penalty: 1.18,
            invoke_jitter_sigma: 0.12,
        }
    }
}

/// NIC model mapping a function's memory size to a [`BurstLinkConfig`].
/// Calibrated to reproduce Fig 6: ~90 MiB/s sustained for all sizes
/// (slightly lower under 1 GiB), burst bandwidth proportional to memory
/// (≈300 MiB/s at 3008 MiB) sustained for a few seconds, and a
/// per-connection cap near the sustained rate.
#[derive(Clone, Debug)]
pub struct NicModel {
    /// Sustained rate for workers with ≥ `small_mem_mib` memory (bytes/s).
    pub sustained_full: f64,
    /// Sustained rate for small workers (bytes/s).
    pub sustained_small: f64,
    /// Memory threshold below which the sustained rate drops (MiB).
    pub small_mem_mib: u32,
    /// Per-connection cap (bytes/s).
    pub per_conn: f64,
    /// Burst rate per MiB of memory (bytes/s per MiB).
    pub burst_per_mib: f64,
    /// Burst duration at full burst rate (seconds of credits).
    pub burst_seconds: f64,
}

const MIB: f64 = 1024.0 * 1024.0;

impl Default for NicModel {
    fn default() -> Self {
        NicModel {
            sustained_full: 92.0 * MIB,
            sustained_small: 72.0 * MIB,
            small_mem_mib: 1024,
            per_conn: 95.0 * MIB,
            burst_per_mib: 0.1 * MIB,
            burst_seconds: 1.0,
        }
    }
}

impl NicModel {
    pub fn link_config(&self, memory_mib: u32) -> BurstLinkConfig {
        let sustained = if memory_mib < self.small_mem_mib {
            self.sustained_small
        } else {
            self.sustained_full
        };
        let burst = (self.burst_per_mib * f64::from(memory_mib)).max(sustained);
        BurstLinkConfig {
            sustained,
            burst,
            per_conn: self.per_conn,
            credit_cap: burst * self.burst_seconds,
        }
    }
}

/// vCPU share allocated to a function: `memory / 1792 MiB` (§4.1).
pub fn cpu_share(memory_mib: u32) -> f64 {
    f64::from(memory_mib) / 1792.0
}

/// Static configuration of a registered function.
#[derive(Clone)]
pub struct FunctionSpec {
    pub name: String,
    pub memory_mib: u32,
    pub timeout: Duration,
}

impl FunctionSpec {
    pub fn new(name: impl Into<String>, memory_mib: u32, timeout: Duration) -> Self {
        FunctionSpec { name: name.into(), memory_mib, timeout }
    }

    pub fn memory_gib(&self) -> f64 {
        f64::from(self.memory_mib) / 1024.0
    }
}

/// A warm (or freshly started) container.
pub struct Instance {
    pub id: u64,
    pub memory_mib: u32,
    pub cpu: PsResource,
    pub link: BurstLink,
}

impl Instance {
    /// A container of `memory_mib` with the memory-dependent CPU share
    /// ([`cpu_share`]) and a NIC shaped by `link`.
    pub fn new(handle: SimHandle, id: u64, memory_mib: u32, link: BurstLinkConfig) -> Instance {
        let cpu = PsResource::new(handle.clone(), cpu_share(memory_mib), 1.0);
        Instance { id, memory_mib, cpu, link: BurstLink::new(handle, link) }
    }
}

/// What a handler gets: its container resources plus a compute helper that
/// accounts for CPU shares and the cold-start penalty.
#[derive(Clone)]
pub struct InstanceCtx {
    pub handle: SimHandle,
    pub instance: Rc<Instance>,
    pub cold: bool,
    compute_penalty: f64,
}

impl InstanceCtx {
    /// A context outside the FaaS dispatch path (warm, no penalty) — used
    /// by tests and benches that drive worker code directly.
    pub fn bare(handle: SimHandle, instance: Rc<Instance>) -> InstanceCtx {
        InstanceCtx { handle, instance, cold: false, compute_penalty: 1.0 }
    }

    /// Execute `vcpu_seconds` of single-threaded work on this container's
    /// CPU share. Spawn several concurrent calls for multi-threaded
    /// compute; they share the allocation like real threads do (Fig 4).
    pub async fn compute(&self, vcpu_seconds: f64) {
        self.instance.cpu.run(vcpu_seconds * self.compute_penalty).await;
    }

    pub fn memory_mib(&self) -> u32 {
        self.instance.memory_mib
    }

    pub fn link(&self) -> BurstLink {
        self.instance.link.clone()
    }
}

/// Invocation errors visible to the caller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvokeError {
    FunctionNotFound(String),
    /// A payload of this many bytes, over [`MAX_ASYNC_PAYLOAD_BYTES`].
    PayloadTooLarge(usize),
}

impl fmt::Display for InvokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvokeError::FunctionNotFound(n) => write!(f, "function not found: {n}"),
            InvokeError::PayloadTooLarge(n) => {
                write!(f, "a payload of {n} B exceeds the {MAX_ASYNC_PAYLOAD_BYTES} B cap")
            }
        }
    }
}

impl std::error::Error for InvokeError {}

/// One execution of a function, as Lambda's `REPORT` log line has it:
/// the bill of that execution alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvocationRecord {
    /// The container it ran in ([`Instance::id`]).
    pub instance: u64,
    /// Whether the container was started for it.
    pub cold: bool,
    /// Seconds from the handler's start to its return, timeout or death.
    pub exec_s: f64,
    /// `exec_s` in billing quanta, rounded up.
    pub billed_quanta: u64,
    /// The function's memory × the billed duration: what it is billed for.
    pub gib_s: f64,
}

struct Function {
    spec: FunctionSpec,
    handler: Handler,
    warm: VecDeque<Rc<Instance>>,
    /// One per finished execution, in the order they finished, once
    /// [`FaasService::keep_records`] asks for them.
    records: Option<Vec<InvocationRecord>>,
    invocations: u64,
    cold_starts: u64,
    timeouts: u64,
    injected_kills: u64,
}

struct FaasInner {
    functions: HashMap<String, Function>,
    next_instance: u64,
}

/// The FaaS service.
#[derive(Clone)]
pub struct FaasService {
    inner: Rc<RefCell<FaasInner>>,
    concurrency: Semaphore,
    cfg: Rc<FaasConfig>,
    nic: Rc<NicModel>,
    handle: SimHandle,
    billing: Billing,
    rng: SimRng,
    trace: Trace,
    injector: Rc<RefCell<Option<FaultInjector>>>,
}

impl FaasService {
    pub fn new(
        handle: SimHandle,
        cfg: FaasConfig,
        nic: NicModel,
        billing: Billing,
        rng: SimRng,
        trace: Trace,
    ) -> Self {
        let concurrency = Semaphore::new(cfg.account_concurrency);
        FaasService {
            inner: Rc::new(RefCell::new(FaasInner { functions: HashMap::new(), next_instance: 0 })),
            concurrency,
            cfg: Rc::new(cfg),
            nic: Rc::new(nic),
            handle,
            billing,
            rng,
            trace,
            injector: Rc::new(RefCell::new(None)),
        }
    }

    /// Install a per-invocation fault injector (replaces any previous
    /// one). Every subsequent execution consults it with the invocation
    /// payload; `None` leaves the invocation untouched.
    pub fn set_fault_injector(&self, injector: FaultInjector) {
        *self.injector.borrow_mut() = Some(injector);
    }

    /// Number of invocations of `name` silently killed by injected faults.
    pub fn injected_kills(&self, name: &str) -> u64 {
        self.inner.borrow().functions.get(name).map_or(0, |f| f.injected_kills)
    }

    /// Register (or replace) a function. Replacing drops all warm
    /// containers, making the next invocations cold — the paper's "freshly
    /// created function" (§5.2).
    pub fn register(&self, spec: FunctionSpec, handler: Handler) {
        let mut inner = self.inner.borrow_mut();
        inner.functions.insert(
            spec.name.clone(),
            Function {
                spec,
                handler,
                warm: VecDeque::new(),
                records: None,
                invocations: 0,
                cold_starts: 0,
                timeouts: 0,
                injected_kills: 0,
            },
        );
    }

    /// (invocations, cold starts, timeouts) counters for a function.
    pub fn counters(&self, name: &str) -> (u64, u64, u64) {
        match self.inner.borrow().functions.get(name) {
            Some(f) => (f.invocations, f.cold_starts, f.timeouts),
            None => (0, 0, 0),
        }
    }

    /// Keep an [`InvocationRecord`] of every execution of `name` that
    /// finishes from now on. None is kept unless asked: the records grow
    /// with every execution for the life of the cloud.
    pub fn keep_records(&self, name: &str) {
        if let Some(f) = self.inner.borrow_mut().functions.get_mut(name) {
            f.records.get_or_insert_with(Vec::new);
        }
    }

    /// The executions of `name` finished since [`FaasService::keep_records`],
    /// in the order they finished (none once `name` is re-registered).
    pub fn records(&self, name: &str) -> Vec<InvocationRecord> {
        let inner = self.inner.borrow();
        inner.functions.get(name).and_then(|f| f.records.clone()).unwrap_or_default()
    }

    /// A caller profile for the driver's machine in `region`, modelling the
    /// concurrent invocation throughput of Table 1.
    pub fn driver_caller(&self, region: Region) -> FaasCaller {
        let rate = region.concurrent_invocation_rate();
        FaasCaller {
            svc: self.clone(),
            rate: TokenBucket::new(self.handle.clone(), rate, 1.0),
            latency: region.single_invocation(),
        }
    }

    /// A caller profile for a worker inside the region (Table 1 row 3).
    /// Each first-generation worker gets its own caller.
    pub fn worker_caller(&self, region: Region) -> FaasCaller {
        let rate = region.intra_region_rate();
        FaasCaller {
            svc: self.clone(),
            rate: TokenBucket::new(self.handle.clone(), rate, 1.0),
            latency: region.intra_invocation(),
        }
    }

    fn spawn_execution(&self, name: &str, payload: InvokePayload) -> Result<(), InvokeError> {
        if !self.inner.borrow().functions.contains_key(name) {
            return Err(InvokeError::FunctionNotFound(name.to_string()));
        }
        let svc = self.clone();
        let name = name.to_string();
        self.handle.spawn(async move { svc.execute(&name, payload).await });
        Ok(())
    }

    async fn execute(&self, name: &str, payload: InvokePayload) {
        let _permit = self.concurrency.acquire(1).await;
        let fault = {
            let injector = self.injector.borrow();
            injector.as_ref().and_then(|f| f(&*payload))
        };
        // Take a warm container or start a cold one.
        let (mut instance, handler, cold, timeout, mem_gib) = {
            let mut inner = self.inner.borrow_mut();
            let next_id = inner.next_instance;
            let f = inner.functions.get_mut(name).expect("function checked at invoke");
            f.invocations += 1;
            let (instance, cold) = match f.warm.pop_front() {
                Some(i) => (i, false),
                None => {
                    f.cold_starts += 1;
                    let (memory, handle) = (f.spec.memory_mib, self.handle.clone());
                    let nic = self.nic.link_config(memory);
                    (Rc::new(Instance::new(handle, next_id, memory, nic)), true)
                }
            };
            if cold {
                inner.next_instance += 1;
            }
            let f = inner.functions.get(name).expect("function exists");
            (instance, Rc::clone(&f.handler), cold, f.spec.timeout, f.spec.memory_gib())
        };
        // An NIC fault gets a dedicated degraded container (never returned
        // to the warm pool, so healthy invocations stay unaffected).
        if let Some(fault) = fault.filter(InjectedFault::degrades_nic) {
            let mut nic = self.nic.link_config(instance.memory_mib);
            nic.sustained *= fault.nic_factor;
            nic.burst *= fault.nic_factor;
            nic.per_conn *= fault.nic_factor;
            nic.credit_cap *= fault.nic_factor;
            let handle = self.handle.clone();
            instance = Rc::new(Instance::new(handle, instance.id, instance.memory_mib, nic));
        }

        let init_start = self.handle.now();
        if cold {
            let d = self
                .rng
                .lognormal(self.cfg.cold_start_median.as_secs_f64(), self.cfg.cold_start_sigma);
            self.handle.sleep(Duration::from_secs_f64(d)).await;
        } else {
            self.handle.sleep(self.cfg.warm_start).await;
        }
        self.trace.record(instance.id, "faas_init", init_start, self.handle.now());

        let start = self.handle.now();
        let base_penalty = if cold { self.cfg.cold_compute_penalty } else { 1.0 };
        let ctx = InstanceCtx {
            handle: self.handle.clone(),
            instance: Rc::clone(&instance),
            cold,
            compute_penalty: base_penalty * fault.map_or(1.0, |f| f.compute_factor.max(1.0)),
        };
        let fut = handler(ctx, payload);
        // The handler races the function timeout and (if injected) the
        // kill point — both end in the same silent death.
        let death = fault.and_then(|f| f.kill_after).map_or(timeout, |k| k.min(timeout));
        let died = matches!(select2(fut, self.handle.sleep(death)).await, Either::Right(()));
        let end = self.handle.now();
        let exec_s = end.saturating_since(start).as_secs_f64();
        let (billed_quanta, gib_s) =
            self.billing.record_lambda_duration(mem_gib, exec_s, self.cfg.billing_quantum);
        let record = InvocationRecord { instance: instance.id, cold, exec_s, billed_quanta, gib_s };
        self.trace.record(instance.id, "faas_exec", start, end);

        let killed = died && fault.and_then(|f| f.kill_after).is_some_and(|k| k < timeout);
        let degraded = fault.is_some_and(|f| f.degrades_nic());
        let mut inner = self.inner.borrow_mut();
        if let Some(f) = inner.functions.get_mut(name) {
            if let Some(records) = &mut f.records {
                records.push(record);
            }
            if killed {
                f.injected_kills += 1; // container discarded; silent death
            } else if died {
                f.timeouts += 1; // container is discarded; the worker died silently
            } else if !degraded {
                f.warm.push_back(instance);
            }
        }
    }
}

/// A caller-side handle: owns the invocation-rate budget of one machine
/// (the driver) or one worker.
#[derive(Clone)]
pub struct FaasCaller {
    svc: FaasService,
    rate: TokenBucket,
    latency: Duration,
}

impl FaasCaller {
    /// Asynchronously invoke a function ("Event" invocation type: returns
    /// once the request is accepted, not when the function finishes) with
    /// a payload that encodes to `bytes`; over [`MAX_ASYNC_PAYLOAD_BYTES`]
    /// it is rejected before it is sent.
    pub async fn invoke(
        &self,
        function: &str,
        payload: InvokePayload,
        bytes: usize,
    ) -> Result<(), InvokeError> {
        if bytes > MAX_ASYNC_PAYLOAD_BYTES {
            return Err(InvokeError::PayloadTooLarge(bytes));
        }
        self.rate.acquire(1.0).await;
        let jitter =
            self.svc.rng.lognormal(self.latency.as_secs_f64(), self.svc.cfg.invoke_jitter_sigma);
        self.svc.handle.sleep(Duration::from_secs_f64(jitter)).await;
        self.svc.billing.record(CostItem::LambdaRequests, 1.0);
        self.svc.spawn_execution(function, payload)
    }

    /// The per-request latency of this caller.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::Prices;
    use crate::executor::Simulation;
    use crate::sync::mpsc;

    fn service(sim: &Simulation, cfg: FaasConfig) -> (FaasService, Billing) {
        let billing = Billing::new(Prices::default());
        let svc = FaasService::new(
            sim.handle(),
            cfg,
            NicModel::default(),
            billing.clone(),
            SimRng::new(7),
            Trace::new(),
        );
        (svc, billing)
    }

    fn quiet_cfg() -> FaasConfig {
        FaasConfig {
            cold_start_median: Duration::from_millis(500),
            cold_start_sigma: 0.0,
            invoke_jitter_sigma: 0.0,
            ..FaasConfig::default()
        }
    }

    #[test]
    fn invoke_runs_handler_and_bills_duration() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (svc, billing) = service(&sim, quiet_cfg());
        let (tx, mut rx) = mpsc::channel();
        svc.register(
            FunctionSpec::new("f", 2048, Duration::from_secs(60)),
            Rc::new(move |ctx: InstanceCtx, _p| {
                let tx = tx.clone();
                Box::pin(async move {
                    ctx.compute(1.0).await;
                    tx.send(ctx.handle.now()).unwrap();
                })
            }),
        );
        let caller = svc.driver_caller(Region::Eu);
        sim.block_on(async move {
            caller.invoke("f", Rc::new(()), 0).await.unwrap();
            rx.recv().await.unwrap();
        });
        assert_eq!(billing.units(CostItem::LambdaRequests), 1.0);
        // 2048 MiB = 2 GiB; duration >= ~1s of compute.
        assert!(billing.units(CostItem::LambdaGibSeconds) >= 2.0);
        let (inv, cold, timeouts) = svc.counters("f");
        assert_eq!((inv, cold, timeouts), (1, 1, 0));
        let _ = h;
    }

    #[test]
    fn warm_reuse_after_completion() {
        let sim = Simulation::new();
        let (svc, _) = service(&sim, quiet_cfg());
        let (tx, mut rx) = mpsc::channel();
        svc.register(
            FunctionSpec::new("f", 1792, Duration::from_secs(60)),
            Rc::new(move |ctx: InstanceCtx, _p| {
                let tx = tx.clone();
                Box::pin(async move {
                    tx.send((ctx.instance.id, ctx.cold)).unwrap();
                })
            }),
        );
        let caller = svc.driver_caller(Region::Eu);
        let (first, second) = sim.block_on(async move {
            caller.invoke("f", Rc::new(()), 0).await.unwrap();
            let first = rx.recv().await.unwrap();
            caller.invoke("f", Rc::new(()), 0).await.unwrap();
            let second = rx.recv().await.unwrap();
            (first, second)
        });
        assert!(first.1, "first invocation should be cold");
        assert!(!second.1, "second invocation should be warm");
        assert_eq!(first.0, second.0, "same container reused");
    }

    /// Once asked for, every execution leaves one record — the cold first,
    /// the warm reuse of its container, and one the timeout killed — and the
    /// records priced one by one sum to the bill: the GiB-seconds line
    /// bit for bit, and one request each.
    #[test]
    fn every_execution_is_recorded_and_the_records_price_to_the_lambda_bill() {
        let sim = Simulation::new();
        let (svc, billing) = service(&sim, quiet_cfg());
        svc.register(
            FunctionSpec::new("f", 2048, Duration::from_millis(800)),
            Rc::new(move |ctx: InstanceCtx, p: InvokePayload| {
                let secs = *p.downcast_ref::<f64>().expect("seconds of compute");
                Box::pin(async move { ctx.compute(secs).await })
            }),
        );
        svc.keep_records("f");
        let caller = svc.driver_caller(Region::Eu);
        sim.block_on({
            let h = sim.handle();
            async move {
                for secs in [0.25, 0.03, 5.0] {
                    caller.invoke("f", Rc::new(secs), 0).await.unwrap();
                    h.sleep(Duration::from_secs(3)).await;
                }
            }
        });
        let records = svc.records("f");
        let summary: Vec<(bool, u64)> = records.iter().map(|r| (r.cold, r.billed_quanta)).collect();
        // 0.25 vCPU-s at 1.14 vCPU, with the cold penalty: 3 quanta; 30 ms
        // warm: 1; killed at the 800 ms timeout: 8 (or 9, past it by a hair).
        assert_eq!(summary[..2], [(true, 3), (false, 1)]);
        assert!(!summary[2].0 && (8..=9).contains(&summary[2].1), "{summary:?}");
        assert_eq!(records[0].instance, records[1].instance, "the warm run reused the container");
        assert_eq!(svc.counters("f"), (3, 1, 1));
        for r in &records {
            assert_eq!(r.billed_quanta, (r.exec_s / 0.1).ceil() as u64);
            assert_eq!(r.gib_s, 2.0 * (r.billed_quanta as f64 * 0.1));
        }
        let prices = billing.prices();
        let gib_s = records.iter().fold(0.0, |usd, r| usd + r.gib_s * prices.lambda_gib_second);
        let bill = billing.snapshot();
        assert_eq!(gib_s.to_bits(), bill.dollars(CostItem::LambdaGibSeconds).to_bits());
        assert_eq!(bill.units(CostItem::LambdaRequests), records.len() as f64);
        // A function whose records no one asked for keeps none.
        let handler: Handler = Rc::new(|_ctx, _p| Box::pin(async {}));
        svc.register(FunctionSpec::new("g", 2048, Duration::from_secs(1)), handler);
        let caller = svc.driver_caller(Region::Eu);
        let h = sim.handle();
        sim.block_on(async move {
            caller.invoke("g", Rc::new(()), 0).await.unwrap();
            h.sleep(Duration::from_secs(3)).await;
        });
        assert_eq!((svc.counters("g").0, svc.records("g").len()), (1, 0));
    }

    #[test]
    fn register_replacement_forces_cold_start() {
        let sim = Simulation::new();
        let (svc, _) = service(&sim, quiet_cfg());
        let handler: Handler = Rc::new(|_ctx, _p| Box::pin(async {}));
        let spec = FunctionSpec::new("f", 1792, Duration::from_secs(60));
        svc.register(spec.clone(), Rc::clone(&handler));
        let caller = svc.driver_caller(Region::Eu);
        sim.block_on({
            let caller = caller.clone();
            let svc = svc.clone();
            let h = sim.handle();
            async move {
                caller.invoke("f", Rc::new(()), 0).await.unwrap();
                h.sleep(Duration::from_secs(5)).await;
                svc.register(spec, handler); // fresh function
                caller.invoke("f", Rc::new(()), 0).await.unwrap();
                h.sleep(Duration::from_secs(5)).await;
            }
        });
        let (inv, cold, _) = svc.counters("f");
        assert_eq!(inv, 1, "counters reset on re-register");
        assert_eq!(cold, 1, "re-registered function starts cold");
    }

    #[test]
    fn concurrency_limit_queues_executions() {
        let sim = Simulation::new();
        let h = sim.handle();
        let cfg = FaasConfig {
            account_concurrency: 2,
            cold_start_median: Duration::ZERO,
            cold_start_sigma: 0.0,
            warm_start: Duration::ZERO,
            invoke_jitter_sigma: 0.0,
            ..FaasConfig::default()
        };
        let (svc, _) = service(&sim, cfg);
        let (tx, mut rx) = mpsc::channel();
        svc.register(
            FunctionSpec::new("f", 1792, Duration::from_secs(60)),
            Rc::new(move |ctx: InstanceCtx, _p| {
                let tx = tx.clone();
                Box::pin(async move {
                    ctx.handle.sleep(Duration::from_secs(1)).await;
                    tx.send(ctx.handle.now().as_secs_f64()).unwrap();
                })
            }),
        );
        let caller = svc.driver_caller(Region::Eu);
        let finishes = sim.block_on(async move {
            for _ in 0..4 {
                caller.invoke("f", Rc::new(()), 0).await.unwrap();
            }
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(rx.recv().await.unwrap());
            }
            out
        });
        // With concurrency 2, the last two executions must start after the
        // first two finish: finish times split into two waves ~1 s apart.
        assert!(finishes[3] - finishes[0] > 0.9, "finishes = {finishes:?}");
        let _ = h;
    }

    #[test]
    fn timeout_kills_handler_silently() {
        let sim = Simulation::new();
        let (svc, _) = service(&sim, quiet_cfg());
        let (tx, mut rx) = mpsc::channel();
        svc.register(
            FunctionSpec::new("f", 1792, Duration::from_millis(100)),
            Rc::new(move |ctx: InstanceCtx, _p| {
                let tx = tx.clone();
                Box::pin(async move {
                    ctx.handle.sleep(Duration::from_secs(10)).await;
                    tx.send(()).unwrap(); // never reached
                })
            }),
        );
        let caller = svc.driver_caller(Region::Eu);
        let got = sim.block_on({
            let h = sim.handle();
            async move {
                caller.invoke("f", Rc::new(()), 0).await.unwrap();
                h.sleep(Duration::from_secs(20)).await;
                rx.try_recv()
            }
        });
        assert!(got.is_none(), "timed-out handler must not produce output");
        let (_, _, timeouts) = svc.counters("f");
        assert_eq!(timeouts, 1);
    }

    /// A 256 KiB payload is invoked; one byte more is a typed error,
    /// neither billed nor run.
    #[test]
    fn payloads_over_the_async_cap_are_rejected() {
        let sim = Simulation::new();
        let (svc, billing) = service(&sim, quiet_cfg());
        svc.register(
            FunctionSpec::new("f", 512, Duration::from_secs(60)),
            Rc::new(|_ctx, _p| Box::pin(async {})),
        );
        let caller = svc.driver_caller(Region::Eu);
        let h = sim.handle();
        let (at_cap, over) = sim.block_on(async move {
            let at_cap = caller.invoke("f", Rc::new(()), MAX_ASYNC_PAYLOAD_BYTES).await;
            let over = caller.invoke("f", Rc::new(()), MAX_ASYNC_PAYLOAD_BYTES + 1).await;
            h.sleep(Duration::from_secs(5)).await;
            (at_cap, over)
        });
        assert_eq!(at_cap, Ok(()));
        assert_eq!(over, Err(InvokeError::PayloadTooLarge(MAX_ASYNC_PAYLOAD_BYTES + 1)));
        assert_eq!(billing.units(CostItem::LambdaRequests), 1.0);
        assert_eq!(svc.counters("f").0, 1);
    }

    #[test]
    fn driver_invocation_rate_matches_table1() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (svc, _) = service(&sim, quiet_cfg());
        svc.register(
            FunctionSpec::new("f", 512, Duration::from_secs(60)),
            Rc::new(|_ctx, _p| Box::pin(async {})),
        );
        let caller = svc.driver_caller(Region::Us);
        let elapsed = sim.block_on(async move {
            let sem = Semaphore::new(128); // the driver's 128 threads
            let mut joins = Vec::new();
            for _ in 0..1000 {
                let caller = caller.clone();
                let sem = sem.clone();
                joins.push(h.spawn(async move {
                    let _p = sem.acquire(1).await;
                    caller.invoke("f", Rc::new(()), 0).await.unwrap();
                }));
            }
            for j in joins {
                j.await;
            }
            h.now().as_secs_f64()
        });
        let rate = 1000.0 / elapsed;
        // Table 1: 276 inv/s from "us"; §4.2: 1000 workers take 3.4-4.4 s.
        assert!((rate - 276.0).abs() < 30.0, "rate = {rate}");
    }
}
