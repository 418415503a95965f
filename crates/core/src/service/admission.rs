//! Admission control: per-tenant budgets and weighted fair queueing.
//!
//! Every submission first passes a budget check (reject outright rather
//! than queue a query that could never be afforded), then reserves the
//! request-$ of its [`super::QueryEstimate`] and waits in the fair
//! queue. Dispatch picks, among tenants with headroom, the waiter whose
//! tenant has the smallest *virtual time* — a per-tenant clock advanced
//! by `cost / weight` at every grant — so a burst from one tenant
//! interleaves with, rather than starves, everyone else, and a higher
//! weight drains a tenant's queue proportionally faster. When a query
//! settles, its reservation is replaced by its exact request-$
//! ([`crate::QueryReport::request_dollars`]) and the next waiter
//! dispatches. Request-$ is the one spend measure:
//! the paper prices every GET, PUT, LIST and invocation (§4.3.1, §4.4).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use lambada_sim::sync::oneshot;

use super::QueryEstimate;
use crate::error::{CoreError, Result};

/// Per-tenant resource limits.
#[derive(Clone, Debug)]
pub struct TenantBudget {
    /// Queries this tenant may have executing at once; further
    /// submissions queue (they are not rejected).
    pub max_concurrent_queries: usize,
    /// Lifetime request-$ budget: the S3 requests and worker invocations
    /// of [`crate::QueryReport::request_dollars`], priced from the cloud's
    /// [`lambada_sim::Prices`]; `None` = unmetered. Submissions whose
    /// estimate would overdraw it are rejected.
    pub max_request_dollars: Option<f64>,
    /// Fair-queueing weight: a tenant with weight 2 drains its backlog
    /// twice as fast as a weight-1 tenant under contention.
    pub weight: f64,
}

impl Default for TenantBudget {
    fn default() -> Self {
        TenantBudget { max_concurrent_queries: 4, max_request_dollars: None, weight: 1.0 }
    }
}

/// Usage rollup of one tenant, as returned by
/// [`super::QueryService::usage_report`].
#[derive(Clone, Debug, Default)]
pub struct TenantUsage {
    pub tenant: String,
    /// Queries currently executing.
    pub running: usize,
    /// Queries currently queued in admission.
    pub queued: usize,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    /// Exact request-$ charged (settled queries only).
    pub request_dollars_used: f64,
    /// Request-$ reserved by the estimates of queries queued or running:
    /// 0 once every submission has settled.
    pub reserved_dollars: f64,
    /// Submission → completion spans of completed queries, in
    /// completion order (percentile fodder for rollups and benches).
    pub spans_secs: Vec<f64>,
}

struct TenantState {
    budget: TenantBudget,
    running: usize,
    /// Weighted-fair-queueing virtual time.
    vtime: f64,
    /// The request-$ of every reservation not yet settled. Kept whole
    /// rather than as a running sum, so that it is exactly 0 with none
    /// left however concurrent reservations were added and released.
    reserved: Vec<f64>,
    usage: TenantUsage,
}

impl TenantState {
    fn new(tenant: &str, budget: TenantBudget) -> TenantState {
        TenantState {
            budget,
            running: 0,
            vtime: 0.0,
            reserved: Vec::new(),
            usage: TenantUsage { tenant: tenant.to_string(), ..TenantUsage::default() },
        }
    }

    fn reserved_dollars(&self) -> f64 {
        self.reserved.iter().sum()
    }

    /// Drop the reservation `est` made.
    fn release(&mut self, est: &QueryEstimate) {
        let made = |d: &f64| d.to_bits() == est.request_dollars.to_bits();
        let i = self.reserved.iter().position(made).expect("settled estimate was reserved");
        self.reserved.swap_remove(i);
    }
}

struct Waiter {
    tenant: String,
    /// Submission order; the tie-breaker keeping dispatch deterministic.
    seq: u64,
    /// WFQ cost (the estimate's total workers).
    cost: f64,
    grant: oneshot::Sender<()>,
}

struct State {
    max_concurrent: usize,
    default_budget: TenantBudget,
    running: usize,
    seq: u64,
    tenants: HashMap<String, TenantState>,
    waiting: Vec<Waiter>,
}

/// Shared admission-control state. Cloning shares the controller.
#[derive(Clone)]
pub(super) struct AdmissionController {
    inner: Rc<RefCell<State>>,
}

impl AdmissionController {
    pub(super) fn new(max_concurrent: usize, default_budget: TenantBudget) -> AdmissionController {
        AdmissionController {
            inner: Rc::new(RefCell::new(State {
                max_concurrent: max_concurrent.max(1),
                default_budget,
                running: 0,
                seq: 0,
                tenants: HashMap::new(),
                waiting: Vec::new(),
            })),
        }
    }

    pub(super) fn set_budget(&self, tenant: &str, budget: TenantBudget) {
        let mut st = self.inner.borrow_mut();
        let default = st.default_budget.clone();
        st.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(tenant, default))
            .budget = budget;
        drop(st);
        self.dispatch();
    }

    /// Queries executing right now, across all tenants.
    pub(super) fn active_queries(&self) -> usize {
        self.inner.borrow().running
    }

    pub(super) fn tenant_usage(&self, tenant: &str) -> Option<TenantUsage> {
        self.inner.borrow().tenants.get(tenant).map(snapshot_usage)
    }

    pub(super) fn usage_report(&self) -> Vec<TenantUsage> {
        let st = self.inner.borrow();
        let mut out: Vec<TenantUsage> = st.tenants.values().map(snapshot_usage).collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// Check budgets, reserve the estimate, and wait for a fair-queue
    /// grant. Returns `Err(CoreError::Rejected)` without queueing when a
    /// budget could never cover the estimate.
    pub(super) async fn admit(&self, tenant: &str, est: &QueryEstimate) -> Result<()> {
        let rx = {
            let mut st = self.inner.borrow_mut();
            let default = st.default_budget.clone();
            let seq = st.seq;
            st.seq += 1;
            let t = st
                .tenants
                .entry(tenant.to_string())
                .or_insert_with(|| TenantState::new(tenant, default));
            if t.budget.max_concurrent_queries == 0 {
                t.usage.rejected += 1;
                return Err(CoreError::Rejected {
                    tenant: tenant.to_string(),
                    reason: "tenant concurrency budget is zero".to_string(),
                });
            }
            if let Some(max) = t.budget.max_request_dollars {
                let committed = t.usage.request_dollars_used + t.reserved_dollars();
                if committed + est.request_dollars > max {
                    t.usage.rejected += 1;
                    return Err(CoreError::Rejected {
                        tenant: tenant.to_string(),
                        reason: format!(
                            "request-$ budget exhausted: ${committed:.6} used/reserved + \
                             ${:.6} estimated > ${max:.6}",
                            est.request_dollars
                        ),
                    });
                }
            }
            t.reserved.push(est.request_dollars);
            t.usage.queued += 1;
            let (grant, rx) = oneshot::channel();
            st.waiting.push(Waiter {
                tenant: tenant.to_string(),
                seq,
                cost: (est.workers.max(1)) as f64,
                grant,
            });
            rx
        };
        self.dispatch();
        rx.await.map_err(|_| CoreError::Rejected {
            tenant: tenant.to_string(),
            reason: "admission controller dropped the grant".to_string(),
        })
    }

    /// Replace the reservation with exact actuals and free the slot.
    pub(super) fn settle_success(
        &self,
        tenant: &str,
        est: &QueryEstimate,
        dollars: f64,
        span_secs: f64,
    ) {
        {
            let mut st = self.inner.borrow_mut();
            st.running -= 1;
            let t = st.tenants.get_mut(tenant).expect("settled tenant exists");
            t.running -= 1;
            t.release(est);
            t.usage.request_dollars_used += dollars;
            t.usage.completed += 1;
            t.usage.spans_secs.push(span_secs);
        }
        self.dispatch();
    }

    /// Release a failed query's reservation and slot. Failed queries are
    /// not charged: their partial requests stay on the installation's
    /// billing ledger, but budget enforcement is about *intended* spend
    /// and the exact per-query counters of a failed run never finished
    /// accumulating.
    pub(super) fn settle_failure(&self, tenant: &str, est: &QueryEstimate) {
        {
            let mut st = self.inner.borrow_mut();
            st.running -= 1;
            let t = st.tenants.get_mut(tenant).expect("settled tenant exists");
            t.running -= 1;
            t.release(est);
            t.usage.failed += 1;
        }
        self.dispatch();
    }

    /// Grant queued waiters while slots and per-tenant headroom allow,
    /// always to the eligible tenant with the smallest virtual time
    /// (earliest submission as tie-breaker).
    fn dispatch(&self) {
        loop {
            let waiter = {
                let mut st = self.inner.borrow_mut();
                if st.running >= st.max_concurrent {
                    break;
                }
                let mut best: Option<(f64, u64, usize)> = None;
                for (i, w) in st.waiting.iter().enumerate() {
                    let t = &st.tenants[&w.tenant];
                    if t.running >= t.budget.max_concurrent_queries {
                        continue;
                    }
                    let key = (t.vtime, w.seq);
                    if best.is_none_or(|(v, s, _)| key < (v, s)) {
                        best = Some((key.0, key.1, i));
                    }
                }
                let Some((_, _, i)) = best else { break };
                let w = st.waiting.remove(i);
                st.running += 1;
                let t = st.tenants.get_mut(&w.tenant).expect("waiting tenant exists");
                t.running += 1;
                t.usage.queued -= 1;
                t.vtime += w.cost / t.budget.weight.max(f64::EPSILON);
                w
            };
            let tenant = waiter.tenant.clone();
            if waiter.grant.send(()).is_err() {
                // The submitting task vanished between queueing and
                // grant; reclaim the slot and keep dispatching. (The
                // reservation leaks by design: without the task there is
                // nobody left to settle it, and vanishing mid-admission
                // only happens when the simulation is being torn down.)
                let mut st = self.inner.borrow_mut();
                st.running -= 1;
                if let Some(t) = st.tenants.get_mut(&tenant) {
                    t.running -= 1;
                }
            }
        }
    }
}

fn snapshot_usage(t: &TenantState) -> TenantUsage {
    TenantUsage { running: t.running, reserved_dollars: t.reserved_dollars(), ..t.usage.clone() }
}
