//! A single-threaded, deterministic async executor driven by virtual time.
//!
//! Futures model cloud entities (the driver, serverless workers, background
//! drainers). Nothing ever blocks a real thread: awaiting [`Sleep`] registers
//! a timer in virtual time, and when no task is runnable the executor jumps
//! the clock to the earliest pending timer. Identical inputs (and seeds)
//! therefore produce byte-identical schedules, traces, and bills.
//!
//! One **step** pops a task key from the FIFO ready queue, takes that
//! task's future and its waker out of the task **slab**, polls it once and
//! puts both back (or frees the slot): no hashing and no allocation. Each
//! task gets one waker, built at spawn. A slab key names the slot *and* the
//! insertion, so a wake left over from the slot's previous owner is dropped
//! instead of polling the new one.
//!
//! Timers live in a binary heap ordered by `(deadline, registration seq)`;
//! a heap entry names a key of a second slab, which holds the waker.
//! Dropping a [`Sleep`] (or a resource replacing the one it armed)
//! **cancels**: the waker is removed at once and the heap entry, finding no
//! waker when it is popped, is discarded without a wake and without moving
//! the clock. [`Simulation::steps`] counts polls; [`Simulation::live_tasks`]
//! and [`Simulation::pending_timers`] are the leak gauges.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::sync::oneshot;
use crate::time::SimTime;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Where a slab value lives and the unique `seq` it was inserted under.
type Key = (usize, u64);

/// Values in reusable slots. A key names its slot *and* its insertion, so
/// a key that outlived its value (a stale wake, a cancelled timer's heap
/// entry) finds nothing, even after the slot was reused.
struct Slab<T> {
    slots: Vec<Option<(u64, T)>>,
    free: Vec<usize>,
    next_seq: u64,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new(), next_seq: 0, live: 0 }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, make: impl FnOnce(Key) -> T) -> Key {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let key = (slot, self.next_seq);
        self.next_seq += 1;
        self.live += 1;
        let value = Some((key.1, make(key)));
        match self.slots.get_mut(slot) {
            Some(reused) => *reused = value,
            None => self.slots.push(value),
        }
        key
    }

    fn get_mut(&mut self, (slot, seq): Key) -> Option<&mut T> {
        match self.slots.get_mut(slot) {
            Some(Some((owner, value))) if *owner == seq => Some(value),
            _ => None,
        }
    }

    fn remove(&mut self, key: Key) -> Option<T> {
        self.get_mut(key)?;
        self.free.push(key.0);
        self.live -= 1;
        self.slots[key.0].take().map(|(_, value)| value)
    }
}

/// Queue of tasks that are ready to be polled. Shared with wakers, which
/// must be `Send + Sync` per the `Waker` contract even though the executor
/// itself is single-threaded, hence the (never contended) mutex.
type ReadyQueue = Mutex<VecDeque<Key>>;

struct TaskWaker {
    task: Key,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.lock().expect("ready queue poisoned").push_back(self.task);
    }
}

struct RootWaker {
    // Publishes nothing but itself, and the executor is single-threaded.
    woken: AtomicBool,
}

impl Wake for RootWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.store(true, Ordering::Relaxed);
    }
}

pub(crate) struct Inner {
    now: Cell<SimTime>,
    /// Each task with the one waker built for it at spawn; `None` while
    /// the task is being polled.
    tasks: RefCell<Slab<Option<(LocalFuture, Waker)>>>,
    ready: Arc<ReadyQueue>,
    /// Wakers of the live timers, and `(deadline, timer key)` of every
    /// timer not popped yet. The earliest deadline pops first; equal
    /// deadlines pop in registration order, which is `seq` order.
    timers: RefCell<Slab<Waker>>,
    timer_heap: RefCell<BinaryHeap<Reverse<(SimTime, u64, usize)>>>,
    steps: Cell<u64>,
}

/// Owns the virtual clock, the task set, and the timer heap.
///
/// Create one per experiment, [`spawn`](SimHandle::spawn) entity tasks via a
/// [`SimHandle`], and drive everything with [`Simulation::block_on`].
pub struct Simulation {
    inner: Rc<Inner>,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    pub fn new() -> Self {
        Simulation {
            inner: Rc::new(Inner {
                now: Cell::new(SimTime::ZERO),
                tasks: RefCell::default(),
                ready: Arc::default(),
                timers: RefCell::default(),
                timer_heap: RefCell::default(),
                steps: Cell::new(0),
            }),
        }
    }

    /// A cloneable handle for spawning tasks and reading the clock.
    pub fn handle(&self) -> SimHandle {
        SimHandle { inner: Rc::clone(&self.inner) }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Total number of task polls performed so far (for diagnostics).
    pub fn steps(&self) -> u64 {
        self.inner.steps.get()
    }

    /// Spawned tasks that have not finished (leak gauge: 0 once every
    /// entity of an experiment is done and dropped).
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().live
    }

    /// Timers that are registered and not cancelled (leak gauge).
    pub fn pending_timers(&self) -> usize {
        self.inner.timers.borrow().live
    }

    /// Drive the simulation until `root` completes, advancing virtual time
    /// as needed. Spawned tasks that are still pending when `root` finishes
    /// are left in place (and dropped with the simulation).
    ///
    /// Panics on deadlock: no runnable task, no pending timer, root pending.
    pub fn block_on<F: Future>(&self, root: F) -> F::Output {
        let mut root = Box::pin(root);
        let root_flag = Arc::new(RootWaker { woken: AtomicBool::new(true) });
        let root_waker = Waker::from(Arc::clone(&root_flag));

        loop {
            // Poll the root future whenever it has been woken.
            if root_flag.woken.swap(false, Ordering::Relaxed) {
                self.inner.steps.set(self.inner.steps.get() + 1);
                let mut cx = Context::from_waker(&root_waker);
                if let Poll::Ready(out) = root.as_mut().poll(&mut cx) {
                    return out;
                }
                // The poll may have re-woken the root (e.g. `yield_now`);
                // re-check the flag before looking at timers.
                continue;
            }

            // Drain one ready task, then re-check the root.
            let next = self.inner.ready.lock().expect("ready queue poisoned").pop_front();
            if let Some(task) = next {
                self.poll_task(task);
                continue;
            }

            // Nothing runnable: advance virtual time to the next live timer
            // (an entry whose timer was cancelled finds no waker).
            let fired = loop {
                let Some(Reverse((deadline, seq, slot))) = self.inner.timer_heap.borrow_mut().pop()
                else {
                    break None;
                };
                if let Some(waker) = self.inner.timers.borrow_mut().remove((slot, seq)) {
                    break Some((deadline, waker));
                }
            };
            match fired {
                Some((deadline, waker)) => {
                    debug_assert!(deadline >= self.inner.now.get());
                    if deadline > self.inner.now.get() {
                        self.inner.now.set(deadline);
                    }
                    waker.wake();
                }
                None => panic!(
                    "simulation deadlock at {}: {} task(s) pending but no timer is set",
                    self.inner.now.get(),
                    self.live_tasks(),
                ),
            }
        }
    }

    fn poll_task(&self, task: Key) {
        // Take the future out while polling so the task can re-entrantly
        // spawn or wake other tasks without aliasing the slab.
        let taken = self.inner.tasks.borrow_mut().get_mut(task).and_then(Option::take);
        let Some((mut fut, waker)) = taken else {
            return; // stale wake for a finished task
        };
        self.inner.steps.set(self.inner.steps.get() + 1);
        let done = fut.as_mut().poll(&mut Context::from_waker(&waker)).is_ready();
        let mut tasks = self.inner.tasks.borrow_mut();
        if done {
            tasks.remove(task);
        } else if let Some(slot) = tasks.get_mut(task) {
            *slot = Some((fut, waker));
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Task futures frequently capture `SimHandle`s (an `Rc` back to
        // `Inner`); dropping them here breaks those cycles. They are taken
        // out of the slab first: a dropped future may wake a task.
        let tasks = std::mem::take(&mut *self.inner.tasks.borrow_mut());
        drop(tasks);
    }
}

/// Cheap, cloneable access to the executor from inside tasks.
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<Inner>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Spawn a task. The returned [`JoinHandle`] resolves to the task's
    /// output; dropping it detaches the task.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let (tx, rx) = oneshot::channel();
        let wrapped: LocalFuture = Box::pin(async move {
            let out = fut.await;
            let _ = tx.send(out);
        });
        let ready = Arc::clone(&self.inner.ready);
        self.inner.tasks.borrow_mut().insert(|task| {
            let waker = Waker::from(Arc::new(TaskWaker { task, ready }));
            waker.wake_by_ref(); // a new task is runnable
            Some((wrapped, waker))
        });
        JoinHandle { rx }
    }

    /// Sleep for `dur` of virtual time.
    pub fn sleep(&self, dur: Duration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Sleep until the given instant (completes immediately if in the past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep { deadline, inner: Rc::clone(&self.inner), timer: None }
    }

    /// Yield to other ready tasks without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }
}

/// Future returned by [`SimHandle::sleep`]. Dropping it before the
/// deadline cancels its timer.
pub struct Sleep {
    deadline: SimTime,
    inner: Rc<Inner>,
    timer: Option<Key>,
}

impl Sleep {
    /// Whether the deadline has been reached.
    pub(crate) fn is_due(&self) -> bool {
        self.inner.now.get() >= self.deadline
    }

    /// Register the timer (once): wake `waker` at the deadline unless this
    /// `Sleep` is dropped first. Polling arms with the task's waker; a
    /// resource arms with the waker of the job it schedules.
    pub(crate) fn arm(&mut self, waker: &Waker) {
        if self.timer.is_none() {
            let key = self.inner.timers.borrow_mut().insert(|_| waker.clone());
            self.inner.timer_heap.borrow_mut().push(Reverse((self.deadline, key.1, key.0)));
            self.timer = Some(key);
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.is_due() {
            return Poll::Ready(());
        }
        self.arm(cx.waker());
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(key) = self.timer {
            self.inner.timers.borrow_mut().remove(key);
        }
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Handle to a spawned task's result.
pub struct JoinHandle<T> {
    rx: oneshot::Receiver<T>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Ok(v)) => Poll::Ready(v),
            Poll::Ready(Err(_)) => panic!("spawned task dropped without completing"),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{select2, Either};
    use crate::time::secs;

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Simulation::new();
        let h = sim.handle();
        let out = sim.block_on(async move {
            let start = h.now();
            h.sleep(secs(5.0)).await;
            (h.now() - start).as_secs_f64()
        });
        assert_eq!(out, 5.0);
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u32, f64)>>> = Rc::default();
        let out = sim.block_on({
            let h2 = h.clone();
            let log = Rc::clone(&log);
            async move {
                let mut joins = Vec::new();
                for i in 0..3u32 {
                    let h3 = h2.clone();
                    let log = Rc::clone(&log);
                    joins.push(h2.spawn(async move {
                        h3.sleep(secs(f64::from(3 - i))).await;
                        log.borrow_mut().push((i, h3.now().as_secs_f64()));
                    }));
                }
                for j in joins {
                    j.await;
                }
                log.borrow().clone()
            }
        });
        assert_eq!(out, vec![(2, 1.0), (1, 2.0), (0, 3.0)]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Simulation::new();
        let h = sim.handle();
        let v = sim.block_on(async move {
            let jh = h.spawn(async { 41 + 1 });
            jh.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let sim = Simulation::new();
        let h = sim.handle();
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        sim.block_on({
            let h2 = h.clone();
            let order = Rc::clone(&order);
            async move {
                let mut joins = Vec::new();
                for i in 0..4u32 {
                    let h3 = h2.clone();
                    let order = Rc::clone(&order);
                    joins.push(h2.spawn(async move {
                        h3.sleep(secs(1.0)).await;
                        order.borrow_mut().push(i);
                    }));
                }
                for j in joins {
                    j.await;
                }
            }
        });
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropping_a_sleep_cancels_its_timer() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async move {
            let loser = h.sleep(secs(900.0));
            match select2(h.sleep(secs(1.0)), loser).await {
                Either::Left(()) => {}
                Either::Right(()) => panic!("the 900 s sleep won"),
            }
            // Both timers are gone: the winner fired, the loser was dropped.
            h.yield_now().await;
        });
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(sim.live_tasks(), 0);
        // A cancelled entry neither wakes anything nor moves the clock.
        let h = sim.handle();
        sim.block_on(async move { h.sleep(secs(1.0)).await });
        assert_eq!(sim.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn a_reused_slot_ignores_wakes_meant_for_its_previous_task() {
        /// Hands its task's waker out, then finishes.
        struct LeakWaker(Rc<RefCell<Option<Waker>>>);
        impl Future for LeakWaker {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                *self.0.borrow_mut() = Some(cx.waker().clone());
                Poll::Ready(())
            }
        }
        let sim = Simulation::new();
        let h = sim.handle();
        let polls_of_second = sim.block_on(async move {
            let leaked = Rc::new(RefCell::new(None));
            h.spawn(LeakWaker(Rc::clone(&leaked))).await;
            let polls = Rc::new(Cell::new(0));
            let second = h.spawn({
                let (h, polls) = (h.clone(), Rc::clone(&polls));
                async move {
                    // Counts the polls of this task while it sleeps.
                    let count = std::future::poll_fn(|_| {
                        polls.set(polls.get() + 1);
                        Poll::<()>::Pending
                    });
                    select2(h.sleep(secs(1.0)), count).await;
                }
            });
            h.yield_now().await; // the second task takes the freed slot
            leaked.borrow().as_ref().expect("first task ran").wake_by_ref();
            second.await;
            polls.get()
        });
        // Its first poll reaches `count`; the timer's finds the sleep done.
        assert_eq!(polls_of_second, 1, "the stale wake polled the slot's new task");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_panics() {
        let sim = Simulation::new();
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn yield_now_runs_other_tasks_at_same_instant() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.yield_now().await;
            h.now()
        });
        assert_eq!(t, SimTime::ZERO);
    }
}
