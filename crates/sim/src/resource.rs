//! Shared-resource models: token buckets, processor sharing, and the
//! credit-based burst link.
//!
//! Three primitives generate most of the performance behaviour in the paper:
//!
//! * [`TokenBucket`] — request-rate limits (S3's per-bucket GET/PUT quotas,
//!   the Lambda invocation API rate).
//! * [`PsResource`] — processor sharing for CPU threads inside a function.
//!   AWS allocates `memory / 1792 MiB` vCPUs to a function (§4.1, Fig 4);
//!   each thread can use at most one vCPU, and concurrent threads split the
//!   allocation evenly.
//! * [`BurstLink`] — a function's NIC under credit-based traffic shaping
//!   (§4.3.1, Fig 6): ~90 MiB/s sustained, with a memory-dependent burst
//!   rate that lasts until a credit pool drains; concurrent connections are
//!   each capped near the sustained rate, so bursts require parallelism.
//!
//! The last two are one fair-share job table (`FairShare`) that differs only
//! in how membership becomes a rate. It integrates remaining work at the
//! instants membership or the rate changes and keeps **one** timer, armed
//! for the earliest finisher; [`ShareJob`] is the future of one job. Those
//! instants, the tie rules and the deadline formula are part of the virtual
//! clock (see "Simulator" in `docs/ARCHITECTURE.md`): changing them moves
//! every pinned number.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::executor::{SimHandle, Sleep};
use crate::sync::oneshot;
use crate::time::SimTime;

const WORK_EPS: f64 = 1e-9;

/// Classic token bucket with FIFO waiters.
#[derive(Clone)]
pub struct TokenBucket {
    st: Rc<RefCell<TbState>>,
    handle: SimHandle,
}

struct TbState {
    rate: f64,
    capacity: f64,
    tokens: f64,
    last: SimTime,
    queue: VecDeque<(f64, oneshot::Sender<()>)>,
    draining: bool,
}

impl TbState {
    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        if dt > 0.0 {
            self.tokens = (self.tokens + self.rate * dt).min(self.capacity);
        }
        self.last = now;
    }
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/s with burst capacity `capacity`.
    /// Starts full.
    pub fn new(handle: SimHandle, rate: f64, capacity: f64) -> Self {
        assert!(rate > 0.0 && capacity > 0.0);
        let last = handle.now();
        TokenBucket {
            st: Rc::new(RefCell::new(TbState {
                rate,
                capacity,
                tokens: capacity,
                last,
                queue: VecDeque::new(),
                draining: false,
            })),
            handle,
        }
    }

    /// Tokens currently available (after refill to now).
    pub fn available(&self) -> f64 {
        let mut st = self.st.borrow_mut();
        let now = self.handle.now();
        st.refill(now);
        st.tokens
    }

    /// Acquire `n` tokens, waiting in FIFO order if necessary.
    pub async fn acquire(&self, n: f64) {
        assert!(n >= 0.0);
        if n == 0.0 {
            return;
        }
        let rx = {
            let mut st = self.st.borrow_mut();
            st.refill(self.handle.now());
            if st.queue.is_empty() && st.tokens >= n {
                st.tokens -= n;
                return;
            }
            let (tx, rx) = oneshot::channel();
            st.queue.push_back((n, tx));
            if !st.draining {
                st.draining = true;
                let this = self.clone();
                self.handle.spawn(async move { this.drain().await });
            }
            rx
        };
        rx.await.expect("token bucket drainer terminated");
    }

    async fn drain(&self) {
        loop {
            let wait = {
                let mut st = self.st.borrow_mut();
                st.refill(self.handle.now());
                match st.queue.front() {
                    None => {
                        st.draining = false;
                        return;
                    }
                    Some(&(need, _)) => {
                        if st.tokens >= need {
                            let (need, tx) = st.queue.pop_front().expect("front checked");
                            st.tokens -= need;
                            if tx.send(()).is_err() {
                                // Waiter cancelled; reclaim its tokens.
                                st.tokens = (st.tokens + need).min(st.capacity);
                            }
                            continue;
                        }
                        (need - st.tokens) / st.rate
                    }
                }
            };
            self.handle.sleep(Duration::from_secs_f64(wait) + Duration::from_nanos(1)).await;
        }
    }
}

/// How a [`FairShare`] resource turns membership into rates.
enum Shaping {
    /// `capacity` units in total, at most `per_job_cap` per job.
    Cpu { capacity: f64, per_job_cap: f64 },
    /// Dual-rate credit-based traffic shaping.
    Link { cfg: BurstLinkConfig, credits: f64 },
}

struct Job {
    id: u64,
    /// Work left as of `FairShare::last`.
    rem: f64,
    /// Taken when the job is woken because it is finished.
    waker: Option<Waker>,
}

/// The state shared by [`PsResource`] and [`BurstLink`]: jobs that all
/// progress at the same rate, which changes only when a job joins or
/// leaves or the link's credits run out.
///
/// Remaining work is integrated lazily by `advance`, called exactly when
/// a job joins, a job leaves (finished or dropped), and the timer fires.
/// There is **one** live timer, armed for whichever job finishes first
/// under the current rate (the lowest id on a tie) or for the credit
/// boundary if that comes sooner; every call of `rearm` replaces it, so a
/// join or a leave costs one reschedule, not a poll of every job.
struct FairShare {
    handle: SimHandle,
    shaping: Shaping,
    /// Ordered by id: ids only grow and a join appends.
    jobs: Vec<Job>,
    next_job: u64,
    last: SimTime,
    /// Work done so far (a link's `total_bytes`).
    moved: f64,
    timer: Option<Sleep>,
}

impl FairShare {
    fn new(handle: SimHandle, shaping: Shaping) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(FairShare {
            last: handle.now(),
            handle,
            shaping,
            jobs: Vec::new(),
            next_job: 0,
            moved: 0.0,
            timer: None,
        }))
    }

    /// Rate of each of the `n > 0` active jobs.
    fn per_job_rate(&self) -> f64 {
        let n = self.jobs.len() as f64;
        match &self.shaping {
            Shaping::Cpu { capacity, per_job_cap } => (capacity / n).min(*per_job_cap),
            Shaping::Link { cfg, credits } => link_rate(cfg, *credits, n) / n,
        }
    }

    /// Bring every job's remaining work (and the link's credits) to now.
    fn advance(&mut self) {
        let now = self.handle.now();
        let mut t = std::mem::replace(&mut self.last, now);
        let n = self.jobs.len() as f64;
        match &mut self.shaping {
            Shaping::Cpu { .. } => {
                let dt = now.saturating_since(t).as_secs_f64();
                if dt > 0.0 && !self.jobs.is_empty() {
                    let r = self.per_job_rate();
                    for job in &mut self.jobs {
                        job.rem = (job.rem - r * dt).max(0.0);
                    }
                }
            }
            Shaping::Link { cfg, credits } if self.jobs.is_empty() => {
                // Credits refill at the sustained rate when idle.
                let dt = now.saturating_since(t).as_secs_f64();
                *credits = (*credits + cfg.sustained * dt).min(cfg.credit_cap);
            }
            // Integrate piecewise over credit-state boundaries (credits
            // hitting zero or full change the rate).
            Shaping::Link { cfg, credits } => {
                while t < now {
                    let r = link_rate(cfg, *credits, n);
                    let drain = r - cfg.sustained; // >0 drains credits, <0 refills
                    let remaining = now.saturating_since(t).as_secs_f64();
                    let seg = if drain > WORK_EPS && *credits > WORK_EPS {
                        (*credits / drain).min(remaining)
                    } else if drain < -WORK_EPS && *credits < cfg.credit_cap {
                        (((cfg.credit_cap - *credits) / -drain).min(remaining)).max(0.0)
                    } else {
                        remaining
                    };
                    let per_job = r / n;
                    for job in &mut self.jobs {
                        job.rem = (job.rem - per_job * seg).max(0.0);
                    }
                    self.moved += r * seg;
                    *credits = (*credits - drain * seg).clamp(0.0, cfg.credit_cap);
                    let step = Duration::from_secs_f64(seg);
                    if step.is_zero() {
                        break; // sub-nanosecond remainder; avoid spinning
                    }
                    t += step;
                }
            }
        }
    }

    /// Replace the timer after the membership or the rate changed. Jobs
    /// that are finished already are woken now instead (in id order), and
    /// no timer is armed: each of them leaves in this instant, which
    /// re-arms.
    fn rearm(&mut self) {
        self.timer = None;
        // `min_by` keeps the first of equal elements: the lowest id.
        let Some(first) = self.jobs.iter().min_by(|a, b| a.rem.total_cmp(&b.rem)) else {
            return;
        };
        if first.rem <= WORK_EPS {
            for job in self.jobs.iter_mut().filter(|j| j.rem <= WORK_EPS) {
                if let Some(waker) = job.waker.take() {
                    waker.wake();
                }
            }
            return;
        }
        let now = self.handle.now();
        let after = |secs: f64| now + Duration::from_secs_f64(secs) + Duration::from_nanos(1);
        let mut deadline = after(first.rem / self.per_job_rate());
        if let Shaping::Link { cfg, credits } = &self.shaping {
            // The instant the credits run out at the current rate, if ever.
            let drain = link_rate(cfg, *credits, self.jobs.len() as f64) - cfg.sustained;
            if drain > WORK_EPS && *credits > WORK_EPS {
                deadline = deadline.min(after(*credits / drain));
            }
        }
        let mut timer = self.handle.sleep_until(deadline);
        timer.arm(first.waker.as_ref().expect("an unfinished job keeps its waker"));
        self.timer = Some(timer);
    }

    /// Remove job `id` (finished or dropped mid-flight); its share goes
    /// to its peers from this instant.
    fn leave(&mut self, id: u64) {
        self.advance();
        self.jobs.retain(|j| j.id != id);
        self.rearm();
    }
}

/// Total rate of a link carrying `n > 0` transfers.
fn link_rate(cfg: &BurstLinkConfig, credits: f64, n: f64) -> f64 {
    let shaping = if credits > WORK_EPS { cfg.burst } else { cfg.sustained };
    (cfg.per_conn * n).min(shaping)
}

/// One job on a fair-share resource: the future returned by
/// [`PsResource::run`] and [`BurstLink::transfer`]. It joins when first
/// polled. Cancellation-safe: dropping it mid-flight removes the job and
/// re-arms the resource's timer.
pub struct ShareJob {
    st: Rc<RefCell<FairShare>>,
    work: f64,
    id: Option<u64>,
}

impl Future for ShareJob {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.work <= 0.0 {
            return Poll::Ready(());
        }
        let mut st = this.st.borrow_mut();
        let Some(id) = this.id else {
            st.advance();
            let id = st.next_job;
            st.next_job += 1;
            st.jobs.push(Job { id, rem: this.work, waker: Some(cx.waker().clone()) });
            if this.work <= WORK_EPS {
                st.leave(id);
                return Poll::Ready(());
            }
            this.id = Some(id);
            st.rearm();
            return Poll::Pending;
        };
        // Woken by the timer (for this job or, on a spurious poll, for a
        // peer): that is an instant the shares are integrated at.
        let due = st.timer.as_ref().is_some_and(Sleep::is_due);
        if due {
            st.advance();
        }
        let job = st.jobs.iter_mut().find(|j| j.id == id).expect("job registered");
        if job.rem <= WORK_EPS {
            this.id = None;
            st.leave(id);
            return Poll::Ready(());
        }
        let moved = !job.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker()));
        if moved {
            job.waker = Some(cx.waker().clone());
        }
        if due || moved {
            st.rearm();
        }
        Poll::Pending
    }
}

impl Drop for ShareJob {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.st.borrow_mut().leave(id);
        }
    }
}

/// Processor-sharing resource: `capacity` units total, at most `per_job_cap`
/// units per job, split evenly among active jobs.
///
/// Units are arbitrary; for CPU modelling they are vCPUs and
/// [`PsResource::run`] takes vCPU-seconds of work.
#[derive(Clone)]
pub struct PsResource {
    st: Rc<RefCell<FairShare>>,
    capacity: f64,
}

impl PsResource {
    pub fn new(handle: SimHandle, capacity: f64, per_job_cap: f64) -> Self {
        assert!(capacity > 0.0 && per_job_cap > 0.0);
        PsResource { st: FairShare::new(handle, Shaping::Cpu { capacity, per_job_cap }), capacity }
    }

    /// Number of active jobs.
    pub fn active(&self) -> usize {
        self.st.borrow().jobs.len()
    }

    /// The resource's total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Jobs that have joined so far (a job of no work never joins).
    pub fn jobs_joined(&self) -> u64 {
        self.st.borrow().next_job
    }

    /// Execute `work` units of demand (e.g. vCPU-seconds), sharing the
    /// resource with concurrent jobs.
    pub fn run(&self, work: f64) -> ShareJob {
        ShareJob { st: Rc::clone(&self.st), work, id: None }
    }
}

/// Configuration of a [`BurstLink`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLinkConfig {
    /// Long-run rate in bytes/s (the ~90 MiB/s of Fig 6a).
    pub sustained: f64,
    /// Peak rate in bytes/s while burst credits remain (Fig 6b).
    pub burst: f64,
    /// Per-connection cap in bytes/s (a single connection never exceeds
    /// roughly the sustained rate, Fig 6b "1 connection").
    pub per_conn: f64,
    /// Credit pool in bytes; drains at `actual_rate - sustained` and refills
    /// at `sustained - actual_rate`, bounding burst duration to a few
    /// seconds as observed in §4.3.1.
    pub credit_cap: f64,
}

impl BurstLinkConfig {
    /// A link with no burst behaviour (e.g. the driver's WAN link).
    pub fn flat(rate: f64) -> Self {
        BurstLinkConfig { sustained: rate, burst: rate, per_conn: rate, credit_cap: 0.0 }
    }
}

/// A shared network link with dual-rate credit-based traffic shaping.
///
/// All concurrent transfers progress at the same per-connection rate
/// `min(per_conn, total_rate / n)` where `total_rate` is the burst rate
/// while credits remain and the sustained rate afterwards.
#[derive(Clone)]
pub struct BurstLink {
    st: Rc<RefCell<FairShare>>,
}

impl BurstLink {
    pub fn new(handle: SimHandle, cfg: BurstLinkConfig) -> Self {
        BurstLink { st: FairShare::new(handle, Shaping::Link { cfg, credits: cfg.credit_cap }) }
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.st.borrow().jobs.len()
    }

    /// Total bytes moved through this link so far.
    pub fn total_bytes(&self) -> f64 {
        let mut st = self.st.borrow_mut();
        st.advance();
        st.moved
    }

    /// Transfer `bytes` through the link, sharing bandwidth with concurrent
    /// transfers and honoring burst credits.
    pub fn transfer(&self, bytes: f64) -> ShareJob {
        ShareJob { st: Rc::clone(&self.st), work: bytes, id: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::time::secs;

    const MIB: f64 = 1024.0 * 1024.0;

    #[test]
    fn token_bucket_enforces_rate() {
        let sim = Simulation::new();
        let h = sim.handle();
        let elapsed = sim.block_on(async move {
            let tb = TokenBucket::new(h.clone(), 10.0, 10.0);
            // Burst drains the initial 10 tokens instantly; 90 more tokens
            // at 10/s => 9 seconds.
            for _ in 0..100 {
                tb.acquire(1.0).await;
            }
            h.now().as_secs_f64()
        });
        assert!((elapsed - 9.0).abs() < 0.01, "elapsed = {elapsed}");
    }

    #[test]
    fn token_bucket_fifo_under_contention() {
        let sim = Simulation::new();
        let h = sim.handle();
        let order = sim.block_on(async move {
            let tb = TokenBucket::new(h.clone(), 1.0, 1.0);
            let order = Rc::new(RefCell::new(Vec::new()));
            let mut joins = Vec::new();
            for i in 0..4u32 {
                let tb = tb.clone();
                let order = Rc::clone(&order);
                joins.push(h.spawn(async move {
                    tb.acquire(1.0).await;
                    order.borrow_mut().push(i);
                }));
            }
            for j in joins {
                j.await;
            }
            let o = order.borrow().clone();
            o
        });
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ps_single_job_runs_at_per_job_cap() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            // 1.678 vCPUs available, one thread capped at 1.0: 2 vCPU-s of
            // work takes 2 s.
            let cpu = PsResource::new(h.clone(), 1.678, 1.0);
            cpu.run(2.0).await;
            h.now().as_secs_f64()
        });
        assert!((t - 2.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn ps_two_jobs_share_capacity() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            // Two threads on 1.678 vCPUs: each runs at 0.839, so 2 vCPU-s of
            // work each finishes at 2/0.839 = 2.384 s (the paper's 1.67x).
            let cpu = PsResource::new(h.clone(), 1.678, 1.0);
            let a = h.spawn({
                let cpu = cpu.clone();
                async move { cpu.run(2.0).await }
            });
            let b = h.spawn({
                let cpu = cpu.clone();
                async move { cpu.run(2.0).await }
            });
            a.await;
            b.await;
            h.now().as_secs_f64()
        });
        assert!((t - 2.0 / 0.839).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn ps_small_function_throttles_single_thread() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            // 512 MiB => 512/1792 = 0.2857 vCPUs; 1 vCPU-s takes 3.5 s.
            let share = 512.0 / 1792.0;
            let cpu = PsResource::new(h.clone(), share, 1.0);
            cpu.run(1.0).await;
            h.now().as_secs_f64()
        });
        assert!((t - 1792.0 / 512.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn ps_membership_change_rebalances() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (ta, tb) = sim.block_on(async move {
            let cpu = PsResource::new(h.clone(), 1.0, 1.0);
            // Job A: 2 units. Job B arrives at t=1 with 0.5 units.
            let a = h.spawn({
                let cpu = cpu.clone();
                let h2 = h.clone();
                async move {
                    cpu.run(2.0).await;
                    h2.now().as_secs_f64()
                }
            });
            let b = h.spawn({
                let cpu = cpu.clone();
                let h2 = h.clone();
                async move {
                    h2.sleep(secs(1.0)).await;
                    cpu.run(0.5).await;
                    h2.now().as_secs_f64()
                }
            });
            (a.await, b.await)
        });
        // From t=1 both share 0.5 each. B finishes its 0.5 units at t=2.
        // A has 1.0 remaining at t=1, completes 0.5 by t=2, then finishes
        // the last 0.5 alone by t=2.5.
        assert!((tb - 2.0).abs() < 1e-6, "tb = {tb}");
        assert!((ta - 2.5).abs() < 1e-6, "ta = {ta}");
    }

    #[test]
    fn burst_link_large_transfer_approaches_sustained_rate() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            let cfg = BurstLinkConfig {
                sustained: 90.0 * MIB,
                burst: 300.0 * MIB,
                per_conn: 95.0 * MIB,
                credit_cap: 300.0 * MIB, // ~1.4 s of burst headroom
            };
            let link = BurstLink::new(h.clone(), cfg);
            link.transfer(1024.0 * MIB).await;
            h.now().as_secs_f64()
        });
        // Single connection is capped at per_conn=95 MiB/s: 1024/95 = 10.78 s.
        assert!((t - 1024.0 / 95.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn burst_link_parallel_small_transfers_exceed_sustained() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            let cfg = BurstLinkConfig {
                sustained: 90.0 * MIB,
                burst: 300.0 * MIB,
                per_conn: 95.0 * MIB,
                credit_cap: 600.0 * MIB,
            };
            let link = BurstLink::new(h.clone(), cfg);
            // 4 connections x 25 MiB = 100 MiB within burst credits:
            // total rate min(4*95, 300) = 300 MiB/s => 1/3 s.
            let mut joins = Vec::new();
            for _ in 0..4 {
                let link = link.clone();
                joins.push(h.spawn(async move { link.transfer(25.0 * MIB).await }));
            }
            for j in joins {
                j.await;
            }
            h.now().as_secs_f64()
        });
        assert!((t - 100.0 / 300.0).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn burst_link_credits_exhaust_mid_transfer() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            let cfg = BurstLinkConfig {
                sustained: 100.0,
                burst: 300.0,
                per_conn: 300.0,
                credit_cap: 200.0,
            };
            let link = BurstLink::new(h.clone(), cfg);
            // Burst at 300 drains 200 credits at (300-100)=200/s => 1 s of
            // burst moving 300 bytes; remaining 700 bytes at 100/s => 7 s.
            link.transfer(1000.0).await;
            h.now().as_secs_f64()
        });
        assert!((t - 8.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn burst_link_credits_refill_when_idle() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (t1, t2) = sim.block_on(async move {
            let cfg = BurstLinkConfig {
                sustained: 100.0,
                burst: 300.0,
                per_conn: 300.0,
                credit_cap: 200.0,
            };
            let link = BurstLink::new(h.clone(), cfg);
            link.transfer(300.0).await; // exactly the burst phase, 1 s
            let t1 = h.now().as_secs_f64();
            h.sleep(secs(2.0)).await; // refill at 100/s => full again
            let start = h.now();
            link.transfer(300.0).await;
            let t2 = (h.now() - start).as_secs_f64();
            (t1, t2)
        });
        assert!((t1 - 1.0).abs() < 1e-6, "t1 = {t1}");
        assert!((t2 - 1.0).abs() < 1e-6, "t2 = {t2}");
    }
}
