//! Synchronization primitives for the single-threaded virtual-time executor.
//!
//! These mirror the usual async toolbox (oneshot, mpsc, notify, semaphore,
//! select) but are `Rc`-based: the executor never crosses threads, so no
//! atomics are needed beyond what `Waker` requires.
//!
//! Every waiting future here keeps at most one registration however often
//! it is polled (a slot it overwrites, or a list entry it updates), and
//! [`select2`] drops its loser, which for a `Sleep` cancels the timer: a
//! spurious poll never turns into extra wake-ups later.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Single-producer, single-consumer, single-value channel.
pub mod oneshot {
    use super::*;

    struct Inner<T> {
        value: Option<T>,
        waker: Option<Waker>,
        sender_alive: bool,
        receiver_alive: bool,
    }

    /// Sending half; consumed by [`Sender::send`].
    pub struct Sender<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Receiving half; a future resolving to `Result<T, Closed>`.
    pub struct Receiver<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Error: the sender was dropped without sending.
    #[derive(Debug, PartialEq, Eq)]
    pub struct Closed;

    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Rc::new(RefCell::new(Inner {
            value: None,
            waker: None,
            sender_alive: true,
            receiver_alive: true,
        }));
        (Sender { inner: Rc::clone(&inner) }, Receiver { inner })
    }

    impl<T> Sender<T> {
        /// Send the value; fails (returning it) if the receiver is gone.
        pub fn send(self, value: T) -> Result<(), T> {
            let mut inner = self.inner.borrow_mut();
            if !inner.receiver_alive {
                return Err(value);
            }
            inner.value = Some(value);
            if let Some(w) = inner.waker.take() {
                drop(inner);
                w.wake();
            }
            Ok(())
        }

        /// Whether the receiving half still exists.
        pub fn receiver_alive(&self) -> bool {
            self.inner.borrow().receiver_alive
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.inner.borrow_mut();
            inner.sender_alive = false;
            if let Some(w) = inner.waker.take() {
                drop(inner);
                w.wake();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.borrow_mut().receiver_alive = false;
        }
    }

    impl<T> Future for Receiver<T> {
        type Output = Result<T, Closed>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.inner.borrow_mut();
            if let Some(v) = inner.value.take() {
                return Poll::Ready(Ok(v));
            }
            if !inner.sender_alive {
                return Poll::Ready(Err(Closed));
            }
            inner.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Unbounded multi-producer, single-consumer channel.
pub mod mpsc {
    use super::*;

    struct Inner<T> {
        queue: VecDeque<T>,
        recv_waker: Option<Waker>,
        senders: usize,
        receiver_alive: bool,
    }

    pub struct Sender<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    pub struct Receiver<T> {
        inner: Rc<RefCell<Inner<T>>>,
    }

    /// Error: the receiver was dropped; the message is returned.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Rc::new(RefCell::new(Inner {
            queue: VecDeque::new(),
            recv_waker: None,
            senders: 1,
            receiver_alive: true,
        }));
        (Sender { inner: Rc::clone(&inner) }, Receiver { inner })
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.inner.borrow_mut();
            if !inner.receiver_alive {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            if let Some(w) = inner.recv_waker.take() {
                drop(inner);
                w.wake();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.borrow_mut().senders += 1;
            Sender { inner: Rc::clone(&self.inner) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.inner.borrow_mut();
            inner.senders -= 1;
            if inner.senders == 0 {
                if let Some(w) = inner.recv_waker.take() {
                    drop(inner);
                    w.wake();
                }
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.borrow_mut().receiver_alive = false;
        }
    }

    impl<T> Receiver<T> {
        /// Receive the next message; resolves to `None` once the queue is
        /// empty and every sender has been dropped.
        pub fn recv(&mut self) -> Recv<'_, T> {
            Recv { rx: self }
        }

        /// Non-blocking receive.
        pub fn try_recv(&mut self) -> Option<T> {
            self.inner.borrow_mut().queue.pop_front()
        }

        pub fn len(&self) -> usize {
            self.inner.borrow().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    pub struct Recv<'a, T> {
        rx: &'a mut Receiver<T>,
    }

    impl<T> Future for Recv<'_, T> {
        type Output = Option<T>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.rx.inner.borrow_mut();
            if let Some(v) = inner.queue.pop_front() {
                return Poll::Ready(Some(v));
            }
            if inner.senders == 0 {
                return Poll::Ready(None);
            }
            inner.recv_waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Edge-triggered broadcast notification.
///
/// [`Notify::notified`] captures the current epoch and resolves once any
/// later [`Notify::notify_all`] bumps it, so a notification between creating
/// the future and first polling it is never lost. A [`Notified`] registers
/// its waker once, however often it is polled, so a spurious poll never
/// buys the task an extra wake-up at the next notification.
#[derive(Clone, Default)]
pub struct Notify {
    inner: Rc<RefCell<NotifyInner>>,
}

#[derive(Default)]
struct NotifyInner {
    epoch: u64,
    wakers: Vec<Waker>,
}

impl Notify {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wake every pending [`Notified`] future.
    pub fn notify_all(&self) {
        let wakers = {
            let mut inner = self.inner.borrow_mut();
            inner.epoch += 1;
            std::mem::take(&mut inner.wakers)
        };
        for w in wakers {
            w.wake();
        }
    }

    /// A future that resolves at the next `notify_all` after this call.
    pub fn notified(&self) -> Notified {
        Notified { inner: Rc::clone(&self.inner), epoch: self.inner.borrow().epoch, slot: None }
    }
}

pub struct Notified {
    inner: Rc<RefCell<NotifyInner>>,
    epoch: u64,
    /// Where this future's waker sits in `wakers`. The list only grows
    /// until the epoch changes, so the index stays valid while it matters.
    slot: Option<usize>,
}

impl Future for Notified {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut inner = this.inner.borrow_mut();
        if inner.epoch != this.epoch {
            return Poll::Ready(());
        }
        match this.slot {
            Some(i) => inner.wakers[i].clone_from(cx.waker()),
            None => {
                this.slot = Some(inner.wakers.len());
                inner.wakers.push(cx.waker().clone());
            }
        }
        Poll::Pending
    }
}

/// Counting semaphore with FIFO fairness.
///
/// Used for account-level concurrency limits (AWS Lambda's concurrent
/// execution quota) and client-side thread pools (the driver's 128 invoker
/// threads in §4.2 of the paper).
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

struct SemInner {
    permits: usize,
    waiters: VecDeque<(usize, oneshot::Sender<()>)>,
}

impl Semaphore {
    pub fn new(permits: usize) -> Self {
        Semaphore { inner: Rc::new(RefCell::new(SemInner { permits, waiters: VecDeque::new() })) }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Acquire `n` permits, waiting FIFO behind earlier acquirers.
    pub async fn acquire(&self, n: usize) -> SemaphorePermit {
        let rx = {
            let mut inner = self.inner.borrow_mut();
            if inner.waiters.is_empty() && inner.permits >= n {
                inner.permits -= n;
                return SemaphorePermit { sem: self.clone(), n };
            }
            let (tx, rx) = oneshot::channel();
            inner.waiters.push_back((n, tx));
            rx
        };
        rx.await.expect("semaphore dropped while waiting");
        SemaphorePermit { sem: self.clone(), n }
    }

    fn release(&self, n: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.permits += n;
        // Grant as many FIFO waiters as fit. Cancelled waiters (dropped
        // receivers) forfeit their slot and the permits are reclaimed.
        while let Some((need, _)) = inner.waiters.front() {
            let need = *need;
            if inner.permits < need {
                break;
            }
            let (_, tx) = inner.waiters.pop_front().expect("front checked");
            inner.permits -= need;
            if tx.send(()).is_err() {
                inner.permits += need;
            }
        }
    }
}

/// RAII guard returning permits on drop.
pub struct SemaphorePermit {
    sem: Semaphore,
    n: usize,
}

impl Drop for SemaphorePermit {
    fn drop(&mut self) {
        self.sem.release(self.n);
    }
}

/// Result of [`select2`].
pub enum Either<A, B> {
    Left(A),
    Right(B),
}

/// Await whichever of two futures completes first; the loser is dropped.
pub fn select2<A: Future, B: Future>(a: A, b: B) -> Select2<A, B> {
    Select2 { a, b }
}

pub struct Select2<A, B> {
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Select2<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Safety: `a` and `b` are structurally pinned; they are never moved
        // out of `self` while pinned.
        let this = unsafe { self.get_unchecked_mut() };
        let a = unsafe { Pin::new_unchecked(&mut this.a) };
        if let Poll::Ready(v) = a.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        let b = unsafe { Pin::new_unchecked(&mut this.b) };
        if let Poll::Ready(v) = b.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

/// Await two futures together in one task: resolves with `a`'s error as
/// soon as `a` fails (dropping `b`, like [`select2`] drops its loser),
/// otherwise once both have finished, with `a`'s value and `b`'s output.
/// Each poll drives `a` first, so same-instant progress is in argument
/// order. Unlike spawning, the futures may borrow from the caller.
pub fn try_join2<T, E, A, B>(a: A, b: B) -> TryJoin2<T, A, B>
where
    A: Future<Output = Result<T, E>>,
    B: Future,
{
    TryJoin2 { a, b, a_out: None, b_out: None }
}

pub struct TryJoin2<T, A, B: Future> {
    a: A,
    b: B,
    a_out: Option<T>,
    b_out: Option<B::Output>,
}

impl<T, E, A, B> Future for TryJoin2<T, A, B>
where
    A: Future<Output = Result<T, E>>,
    B: Future,
{
    type Output = Result<(T, B::Output), E>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // Safety: `a` and `b` are structurally pinned; they are never moved
        // out of `self` while pinned. The outputs are plain values.
        let this = unsafe { self.get_unchecked_mut() };
        if this.a_out.is_none() {
            let a = unsafe { Pin::new_unchecked(&mut this.a) };
            match a.poll(cx) {
                Poll::Ready(Ok(v)) => this.a_out = Some(v),
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => {}
            }
        }
        if this.b_out.is_none() {
            let b = unsafe { Pin::new_unchecked(&mut this.b) };
            if let Poll::Ready(v) = b.poll(cx) {
                this.b_out = Some(v);
            }
        }
        if this.a_out.is_some() && this.b_out.is_some() {
            let both = this.a_out.take().zip(this.b_out.take());
            return Poll::Ready(Ok(both.expect("both outputs checked present")));
        }
        Poll::Pending
    }
}

/// Await the futures of a vector together in one task: resolves with the
/// first error as soon as any fails (dropping the rest, like
/// [`try_join2`] drops its `b`), otherwise once all have finished, with
/// their values in input order. Each poll drives the unfinished futures
/// in input order, so same-instant progress is in that order. The
/// futures may borrow from the caller; they share one type, so mixed
/// futures come boxed.
pub fn try_join_all<T, E, F>(futures: Vec<F>) -> TryJoinAll<T, F>
where
    F: Future<Output = Result<T, E>> + Unpin,
{
    let outs = futures.iter().map(|_| None).collect();
    TryJoinAll { futures: futures.into_iter().map(Some).collect(), outs }
}

pub struct TryJoinAll<T, F> {
    /// `None` once finished.
    futures: Vec<Option<F>>,
    outs: Vec<Option<T>>,
}

// The futures are `Unpin` and the outputs are plain values: nothing here
// is structurally pinned.
impl<T, F: Unpin> Unpin for TryJoinAll<T, F> {}

impl<T, E, F> Future for TryJoinAll<T, F>
where
    F: Future<Output = Result<T, E>> + Unpin,
{
    type Output = Result<Vec<T>, E>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        for (slot, out) in this.futures.iter_mut().zip(&mut this.outs) {
            let Some(future) = slot else { continue };
            match Pin::new(future).poll(cx) {
                Poll::Ready(Ok(v)) => {
                    *out = Some(v);
                    *slot = None;
                }
                Poll::Ready(Err(e)) => {
                    this.futures.clear();
                    return Poll::Ready(Err(e));
                }
                Poll::Pending => {}
            }
        }
        if this.futures.iter().any(Option::is_some) {
            return Poll::Pending;
        }
        Poll::Ready(Ok(this.outs.iter_mut().filter_map(Option::take).collect()))
    }
}

/// Await the futures of a vector **one after the other**, returning
/// outputs in input order. Only futures that already run on their own —
/// [`crate::JoinHandle`]s of spawned tasks — overlap; plain futures start
/// when their turn comes, so `n` one-second sleeps take `n` seconds. To
/// overlap work that borrows from the caller use [`try_join2`]; otherwise
/// spawn it first and pass the handles.
pub async fn join_all<F: Future>(futures: Vec<F>) -> Vec<F::Output> {
    let mut out = Vec::with_capacity(futures.len());
    for f in futures {
        out.push(f.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::time::secs;

    #[test]
    fn oneshot_roundtrip() {
        let sim = Simulation::new();
        let h = sim.handle();
        let v = sim.block_on(async move {
            let (tx, rx) = oneshot::channel();
            h.spawn(async move {
                let _ = tx.send(7u32);
            });
            rx.await.unwrap()
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn oneshot_sender_drop_closes() {
        let sim = Simulation::new();
        let v = sim.block_on(async {
            let (tx, rx) = oneshot::channel::<u32>();
            drop(tx);
            rx.await
        });
        assert_eq!(v, Err(oneshot::Closed));
    }

    #[test]
    fn mpsc_delivers_in_order_and_closes() {
        let sim = Simulation::new();
        let h = sim.handle();
        let v = sim.block_on(async move {
            let (tx, mut rx) = mpsc::channel();
            for i in 0..3 {
                let tx = tx.clone();
                let h2 = h.clone();
                h.spawn(async move {
                    h2.sleep(secs(f64::from(i + 1))).await;
                    tx.send(i).unwrap();
                });
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        assert_eq!(v, vec![0, 1, 2]);
    }

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Simulation::new();
        let h = sim.handle();
        let peak = sim.block_on(async move {
            let sem = Semaphore::new(2);
            let active = Rc::new(RefCell::new((0usize, 0usize))); // (current, peak)
            let mut joins = Vec::new();
            for _ in 0..6 {
                let sem = sem.clone();
                let h2 = h.clone();
                let active = Rc::clone(&active);
                joins.push(h.spawn(async move {
                    let _p = sem.acquire(1).await;
                    {
                        let mut a = active.borrow_mut();
                        a.0 += 1;
                        a.1 = a.1.max(a.0);
                    }
                    h2.sleep(secs(1.0)).await;
                    active.borrow_mut().0 -= 1;
                }));
            }
            for j in joins {
                j.await;
            }
            let p = active.borrow().1;
            p
        });
        assert_eq!(peak, 2);
    }

    #[test]
    fn semaphore_fifo_order() {
        let sim = Simulation::new();
        let h = sim.handle();
        let order = sim.block_on(async move {
            let sem = Semaphore::new(1);
            let order = Rc::new(RefCell::new(Vec::new()));
            let mut joins = Vec::new();
            for i in 0..4u32 {
                let sem = sem.clone();
                let h2 = h.clone();
                let order = Rc::clone(&order);
                joins.push(h.spawn(async move {
                    let _p = sem.acquire(1).await;
                    order.borrow_mut().push(i);
                    h2.sleep(secs(0.1)).await;
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
    fn notify_wakes_all_waiters_without_lost_wakeups() {
        let sim = Simulation::new();
        let h = sim.handle();
        let n = sim.block_on(async move {
            let notify = Notify::new();
            let count = Rc::new(RefCell::new(0));
            let mut joins = Vec::new();
            for _ in 0..3 {
                let fut = notify.notified();
                let count = Rc::clone(&count);
                joins.push(h.spawn(async move {
                    fut.await;
                    *count.borrow_mut() += 1;
                }));
            }
            // Notification happens before the spawned tasks first poll;
            // epoch capture at `notified()` must prevent a lost wakeup.
            notify.notify_all();
            for j in joins {
                j.await;
            }
            let c = *count.borrow();
            c
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn notified_registers_once_however_often_it_is_polled() {
        let notify = Notify::new();
        let (mut a, mut b) = (notify.notified(), notify.notified());
        let mut cx = Context::from_waker(Waker::noop());
        for _ in 0..5 {
            assert!(Pin::new(&mut a).poll(&mut cx).is_pending());
            assert!(Pin::new(&mut b).poll(&mut cx).is_pending());
        }
        assert_eq!(notify.inner.borrow().wakers.len(), 2, "one entry per waiting future");
        notify.notify_all();
        assert!(notify.inner.borrow().wakers.is_empty());
        assert!(Pin::new(&mut a).poll(&mut cx).is_ready());
        assert!(Pin::new(&mut b).poll(&mut cx).is_ready());
    }

    #[test]
    fn join_all_awaits_in_order_and_only_spawned_handles_overlap() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async {
            // Each future takes its deadline when it is first polled.
            let one_second = || async { h.sleep(secs(1.0)).await };
            join_all(vec![one_second(), one_second()]).await
        });
        assert_eq!(sim.now().as_secs_f64(), 2.0, "plain futures run one after the other");

        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async move {
            let spawned = (0..2)
                .map(|_| {
                    let h2 = h.clone();
                    h.spawn(async move { h2.sleep(secs(1.0)).await })
                })
                .collect();
            join_all(spawned).await
        });
        assert_eq!(sim.now().as_secs_f64(), 1.0, "spawned tasks overlap");
    }

    #[test]
    fn try_join_all_overlaps_and_returns_at_the_first_error_of_any() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = RefCell::new(Vec::new());
        let out = sim.block_on(async {
            let step = |name: &'static str, s: f64, ok: bool| {
                let (h, log) = (&h, &log);
                Box::pin(async move {
                    h.sleep(secs(s)).await;
                    log.borrow_mut().push(name);
                    if ok {
                        Ok(name)
                    } else {
                        Err(name)
                    }
                })
            };
            let all = try_join_all(vec![step("a", 2.0, true), step("b", 1.0, true)]).await;
            // `d` fails after 1 s: neither `c`'s nor `e`'s rest is waited for.
            let failed = try_join_all(vec![
                step("c", 5.0, true),
                step("d", 1.0, false),
                step("e", 9.0, true),
            ])
            .await;
            (all, failed)
        });
        assert_eq!(out.0, Ok(vec!["a", "b"]), "values in input order");
        assert_eq!(out.1, Err("d"));
        assert_eq!(*log.borrow(), vec!["b", "a", "d"]);
        assert_eq!(sim.now().as_secs_f64(), 3.0, "2 s + 1 s");
        assert_eq!(sim.pending_timers(), 0, "the dropped sleeps cancelled their timers");
    }

    #[test]
    fn try_join2_overlaps_borrowing_futures_and_returns_at_the_first_error_of_a() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = RefCell::new(Vec::new());
        let out = sim.block_on(async {
            let step = |name: &'static str, s: f64, ok: bool| {
                let (h, log) = (&h, &log);
                async move {
                    h.sleep(secs(s)).await;
                    log.borrow_mut().push(name);
                    if ok {
                        Ok(name)
                    } else {
                        Err(name)
                    }
                }
            };
            let first = try_join2(step("a", 2.0, true), step("b", 1.0, true)).await;
            let tie = try_join2(step("c", 1.0, true), step("d", 1.0, false)).await;
            // `a` fails after 1 s: `b`'s remaining 9 s are not waited for.
            let failed = try_join2(step("e", 1.0, false), step("f", 10.0, true)).await;
            (first, tie, failed)
        });
        assert_eq!(out.0, Ok(("a", Ok("b"))));
        assert_eq!(out.1, Ok(("c", Err("d"))), "only `a`'s error cuts the join short");
        assert_eq!(out.2, Err("e"));
        assert_eq!(*log.borrow(), vec!["b", "a", "c", "d", "e"]);
        assert_eq!(sim.now().as_secs_f64(), 4.0, "2 s + 1 s + 1 s");
        assert_eq!(sim.pending_timers(), 0, "the dropped sleep cancelled its timer");
    }

    #[test]
    fn select2_picks_earlier_timer() {
        let sim = Simulation::new();
        let h = sim.handle();
        let which = sim.block_on(async move {
            match select2(h.sleep(secs(2.0)), h.sleep(secs(1.0))).await {
                Either::Left(()) => "left",
                Either::Right(()) => "right",
            }
        });
        assert_eq!(which, "right");
        assert_eq!(sim.now().as_secs_f64(), 1.0);
    }
}
