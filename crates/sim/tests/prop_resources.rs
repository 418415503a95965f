//! Property tests for the resource models: the virtual-time physics every
//! experiment's timing rests on.

use std::time::Duration;

use proptest::prelude::*;

use lambada_sim::resource::ShareJob;
use lambada_sim::sync::{select2, Either};
use lambada_sim::{BurstLink, BurstLinkConfig, PsResource, SimTime, Simulation, TokenBucket};

const WORK_EPS: f64 = 1e-9;

/// One job of a schedule: joins at `start`, and is dropped mid-flight
/// `drop_after` later unless it finished first.
#[derive(Clone, Copy, Debug)]
struct Spec {
    start: SimTime,
    work: f64,
    drop_after: Option<Duration>,
}

impl Spec {
    fn drop_at(&self) -> Option<SimTime> {
        self.drop_after.map(|d| self.start + d)
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Cpu { capacity: f64, per_job_cap: f64 },
    Link(BurstLinkConfig),
}

/// What a schedule produced: per job the instant it finished (`None` if it
/// was dropped first), and the work the resource moved in total.
#[derive(Debug, PartialEq)]
struct Outcome {
    finished: Vec<Option<SimTime>>,
    moved: f64,
}

/// A plain discrete-event integrator of piecewise fair sharing, with the
/// resource models' conventions (`WORK_EPS`, a finish timer 1 ns past the
/// computed instant, credits as in `BurstLinkConfig`) and none of their
/// machinery: no futures, wakers, timers or cancellation.
fn reference(kind: Kind, specs: &[Spec]) -> Outcome {
    let mut credits = match kind {
        Kind::Link(cfg) => cfg.credit_cap,
        Kind::Cpu { .. } => 0.0,
    };
    let total_rate = |n: f64, credits: f64| match kind {
        Kind::Cpu { capacity, per_job_cap } => (capacity / n).min(per_job_cap) * n,
        Kind::Link(cfg) => {
            (cfg.per_conn * n).min(if credits > WORK_EPS { cfg.burst } else { cfg.sustained })
        }
    };
    let per_job = |n: f64, credits: f64| match kind {
        Kind::Cpu { capacity, per_job_cap } => (capacity / n).min(per_job_cap),
        Kind::Link(_) => total_rate(n, credits) / n,
    };
    let mut pending: Vec<usize> = (0..specs.len()).collect();
    pending.sort_by_key(|&i| (specs[i].start, i));
    let mut pending = std::collections::VecDeque::from(pending);
    let mut active: Vec<(usize, f64)> = Vec::new(); // (job, remaining), in join order
    let mut finished = vec![None; specs.len()];
    let mut moved = 0.0;
    let mut last = SimTime::ZERO;
    let mut timer: Option<SimTime> = None;
    loop {
        let next_join = pending.front().map(|&i| specs[i].start);
        let next_drop = active.iter().filter_map(|&(i, _)| specs[i].drop_at()).min();
        let Some(now) = [next_join, next_drop, timer].into_iter().flatten().min() else {
            break;
        };
        // Integrate [last, now] at the rates of the current membership.
        let n = active.len() as f64;
        match kind {
            Kind::Cpu { .. } => {
                let dt = now.saturating_since(last).as_secs_f64();
                if dt > 0.0 && !active.is_empty() {
                    let r = per_job(n, credits);
                    active.iter_mut().for_each(|(_, rem)| *rem = (*rem - r * dt).max(0.0));
                    moved += r * n * dt;
                }
            }
            Kind::Link(cfg) if active.is_empty() => {
                let dt = now.saturating_since(last).as_secs_f64();
                credits = (credits + cfg.sustained * dt).min(cfg.credit_cap);
            }
            Kind::Link(cfg) => {
                let mut t = last;
                while t < now {
                    let r = total_rate(n, credits);
                    let drain = r - cfg.sustained;
                    let left = now.saturating_since(t).as_secs_f64();
                    let seg = if drain > WORK_EPS && credits > WORK_EPS {
                        (credits / drain).min(left)
                    } else if drain < -WORK_EPS && credits < cfg.credit_cap {
                        ((cfg.credit_cap - credits) / -drain).min(left).max(0.0)
                    } else {
                        left
                    };
                    active.iter_mut().for_each(|(_, rem)| *rem = (*rem - r / n * seg).max(0.0));
                    moved += r * seg;
                    credits = (credits - drain * seg).clamp(0.0, cfg.credit_cap);
                    let step = Duration::from_secs_f64(seg);
                    if step.is_zero() {
                        break;
                    }
                    t += step;
                }
            }
        }
        last = now;
        // Joins, drops and finishes of this instant.
        while pending.front().is_some_and(|&i| specs[i].start == now) {
            let i = pending.pop_front().expect("front checked");
            active.push((i, specs[i].work));
        }
        active.retain(|&(i, rem)| {
            if rem <= WORK_EPS {
                finished[i] = Some(now);
            }
            rem > WORK_EPS && specs[i].drop_at() != Some(now)
        });
        // The next finish (1 ns late, like the models' timers) or the
        // instant the credits run out, whichever comes first.
        timer = active.iter().map(|&(_, rem)| rem).min_by(f64::total_cmp).map(|rem| {
            let n = active.len() as f64;
            let one = Duration::from_nanos(1);
            let finish = now + Duration::from_secs_f64(rem / per_job(n, credits)) + one;
            match kind {
                Kind::Link(cfg) if credits > WORK_EPS => {
                    let drain = total_rate(n, credits) - cfg.sustained;
                    if drain > WORK_EPS {
                        finish.min(now + Duration::from_secs_f64(credits / drain) + one)
                    } else {
                        finish
                    }
                }
                _ => finish,
            }
        });
    }
    Outcome { finished, moved }
}

/// The same schedule on the real resource models: one task per job.
/// Returns the outcome and the number of polls it took.
fn simulate(kind: Kind, specs: &[Spec]) -> (Outcome, u64) {
    enum Res {
        Cpu(PsResource),
        Link(BurstLink),
    }
    impl Res {
        fn job(&self, work: f64) -> ShareJob {
            match self {
                Res::Cpu(cpu) => cpu.run(work),
                Res::Link(link) => link.transfer(work),
            }
        }
    }
    let sim = Simulation::new();
    let h = sim.handle();
    let res = std::rc::Rc::new(match kind {
        Kind::Cpu { capacity, per_job_cap } => {
            Res::Cpu(PsResource::new(h.clone(), capacity, per_job_cap))
        }
        Kind::Link(cfg) => Res::Link(BurstLink::new(h.clone(), cfg)),
    });
    let outcome = sim.block_on({
        let res = std::rc::Rc::clone(&res);
        let specs = specs.to_vec();
        async move {
            let mut joins = Vec::new();
            for spec in specs {
                let h2 = h.clone();
                let res = std::rc::Rc::clone(&res);
                joins.push(h.spawn(async move {
                    h2.sleep_until(spec.start).await;
                    let job = res.job(spec.work);
                    match spec.drop_after {
                        None => job.await,
                        Some(after) => {
                            if let Either::Right(()) = select2(job, h2.sleep(after)).await {
                                return None; // `job` was dropped mid-flight
                            }
                        }
                    }
                    Some(h2.now())
                }));
            }
            let mut finished = Vec::new();
            for j in joins {
                finished.push(j.await);
            }
            let moved = match &*res {
                Res::Link(link) => link.total_bytes(),
                Res::Cpu(_) => f64::NAN, // a PsResource keeps no total
            };
            Outcome { finished, moved }
        }
    });
    assert_eq!(sim.pending_timers(), 0, "a finished schedule leaves no timer");
    (outcome, sim.steps())
}

/// Random join / finish / mid-flight-drop schedules. Starts fall on a
/// coarse grid so that several jobs often join in the same instant.
fn schedule() -> impl Strategy<Value = Vec<Spec>> {
    let job = (0u64..12, 0.01f64..3.0, 0u32..4, 0.001f64..2.0).prop_map(
        |(slot, work, dropped, after)| Spec {
            start: SimTime::from_nanos(slot * 250_000_000),
            work,
            drop_after: (dropped == 0).then(|| Duration::from_secs_f64(after)),
        },
    );
    prop::collection::vec(job, 1..24)
}

/// Completion instants equal the reference's to the nanosecond — which
/// also says that a dropped job's share went to its peers at the instant
/// of the drop — and the link's byte total is the work actually done.
fn check_against_reference(kind: Kind, specs: &[Spec]) -> Result<(), TestCaseError> {
    let expected = reference(kind, specs);
    let (actual, _) = simulate(kind, specs);
    prop_assert_eq!(&actual.finished, &expected.finished);
    if let Kind::Link(_) = kind {
        prop_assert!(
            (actual.moved - expected.moved).abs() <= 1e-9 * expected.moved.max(1.0),
            "total_bytes {} vs reference {}",
            actual.moved,
            expected.moved
        );
        let done: f64 =
            specs.iter().zip(&actual.finished).filter_map(|(spec, at)| at.map(|_| spec.work)).sum();
        let offered: f64 = specs.iter().map(|spec| spec.work).sum();
        prop_assert!(actual.moved >= done - 1e-6 && actual.moved <= offered + 1e-6);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Token bucket conservation: acquiring N tokens total takes at least
    /// (N - capacity)/rate seconds and at most N/rate plus slack.
    #[test]
    fn token_bucket_conserves_rate(
        rate in 1.0f64..500.0,
        cap in 1.0f64..50.0,
        n in 1usize..200,
    ) {
        let sim = Simulation::new();
        let h = sim.handle();
        let elapsed = sim.block_on({
            let h = h.clone();
            async move {
                let tb = TokenBucket::new(h.clone(), rate, cap);
                for _ in 0..n {
                    tb.acquire(1.0).await;
                }
                h.now().as_secs_f64()
            }
        });
        let lower = ((n as f64 - cap) / rate).max(0.0);
        let upper = n as f64 / rate + 1.0;
        prop_assert!(elapsed >= lower - 1e-6, "elapsed {elapsed} < lower {lower}");
        prop_assert!(elapsed <= upper + 1e-6, "elapsed {elapsed} > upper {upper}");
    }

    /// Processor sharing conservation: K concurrent jobs of equal work
    /// finish together at total_work / min(capacity, K * per_job_cap).
    #[test]
    fn ps_resource_conserves_work(
        capacity in 0.1f64..4.0,
        jobs in 1usize..6,
        work in 0.01f64..5.0,
    ) {
        let sim = Simulation::new();
        let h = sim.handle();
        let elapsed = sim.block_on({
            let h = h.clone();
            async move {
                let cpu = PsResource::new(h.clone(), capacity, 1.0);
                let mut joins = Vec::new();
                for _ in 0..jobs {
                    let cpu = cpu.clone();
                    joins.push(h.spawn(async move { cpu.run(work).await }));
                }
                for j in joins {
                    j.await;
                }
                h.now().as_secs_f64()
            }
        });
        let rate = capacity.min(jobs as f64 * 1.0);
        let expected = jobs as f64 * work / rate;
        prop_assert!(
            (elapsed - expected).abs() < 1e-3 * expected.max(1.0),
            "elapsed {elapsed} vs expected {expected}"
        );
    }

    /// Burst link conservation: a single transfer of B bytes takes exactly
    /// the piecewise burst-then-sustained time.
    #[test]
    fn burst_link_piecewise_time(
        sustained in 10.0f64..100.0,
        burst_extra in 0.0f64..200.0,
        credits in 0.0f64..500.0,
        bytes in 1.0f64..5000.0,
    ) {
        let burst = sustained + burst_extra;
        let sim = Simulation::new();
        let h = sim.handle();
        let elapsed = sim.block_on({
            let h = h.clone();
            async move {
                let link = BurstLink::new(
                    h.clone(),
                    BurstLinkConfig {
                        sustained,
                        burst,
                        per_conn: burst + 1.0,
                        credit_cap: credits,
                    },
                );
                link.transfer(bytes).await;
                h.now().as_secs_f64()
            }
        });
        // Analytic expectation: burst phase until credits drain, then
        // sustained.
        let expected = if burst_extra < 1e-9 {
            bytes / sustained
        } else {
            let burst_secs = credits / burst_extra;
            let burst_bytes = burst_secs * burst;
            if bytes <= burst_bytes {
                bytes / burst
            } else {
                burst_secs + (bytes - burst_bytes) / sustained
            }
        };
        prop_assert!(
            (elapsed - expected).abs() < 1e-3 * expected.max(1e-3),
            "elapsed {elapsed} vs expected {expected}"
        );
    }

    /// `PsResource` against the reference integrator.
    #[test]
    fn ps_resource_matches_reference(
        capacity in 0.2f64..3.0,
        per_job_cap in 0.3f64..1.5,
        specs in schedule(),
    ) {
        check_against_reference(Kind::Cpu { capacity, per_job_cap }, &specs)?;
    }

    /// `BurstLink` against the reference integrator, with burst credits
    /// (they drain, run out mid-transfer and refill) and without.
    #[test]
    fn burst_link_matches_reference(
        sustained in 0.5f64..2.0,
        burst_extra in 0.0f64..4.0,
        per_conn in 0.3f64..2.0,
        credit_cap in 0.0f64..3.0,
        flat in 0u32..3,
        specs in schedule(),
    ) {
        let cfg = if flat == 0 {
            BurstLinkConfig::flat(sustained)
        } else {
            BurstLinkConfig { sustained, burst: sustained + burst_extra, per_conn, credit_cap }
        };
        check_against_reference(Kind::Link(cfg), &specs)?;
    }

    /// Poll budget: n equal transfers through one link cost O(n) polls —
    /// a join or a leave reschedules one timer instead of re-polling
    /// every transfer in flight.
    #[test]
    fn equal_transfers_finish_within_a_linear_poll_budget(n in 1usize..=64) {
        let spec = Spec { start: SimTime::ZERO, work: 1.0, drop_after: None };
        let (outcome, polls) = simulate(Kind::Link(BurstLinkConfig::flat(8.0)), &vec![spec; n]);
        prop_assert!(outcome.finished.iter().all(Option::is_some));
        prop_assert!(polls <= 6 * n as u64 + 4, "{polls} polls for {n} transfers");
    }

    /// Determinism: the executor schedules identically for identical
    /// workloads.
    #[test]
    fn executor_schedule_is_deterministic(delays in prop::collection::vec(0u64..1000, 1..30)) {
        let run = |delays: &[u64]| -> Vec<(usize, f64)> {
            let sim = Simulation::new();
            let h = sim.handle();
            sim.block_on({
                let h = h.clone();
                let delays = delays.to_vec();
                async move {
                    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
                    let mut joins = Vec::new();
                    for (i, &d) in delays.iter().enumerate() {
                        let h2 = h.clone();
                        let log = std::rc::Rc::clone(&log);
                        joins.push(h.spawn(async move {
                            h2.sleep(std::time::Duration::from_millis(d)).await;
                            log.borrow_mut().push((i, h2.now().as_secs_f64()));
                        }));
                    }
                    for j in joins {
                        j.await;
                    }
                    let out = log.borrow().clone();
                    out
                }
            })
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }
}
