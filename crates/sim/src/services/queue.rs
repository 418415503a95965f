//! SQS-like message queue.
//!
//! Lambada uses the queue for short messages only: workers post success or
//! error reports, and the driver polls until it has heard from all workers
//! (§3.3). Both sends and (possibly empty) receives are billed requests.
//! A message body is capped at [`MAX_MESSAGE_BYTES`], and a send is billed
//! one request per started [`BILLED_CHUNK_BYTES`] of it, as on AWS.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use crate::billing::{Billing, CostItem, SharedTally, Tally};
use crate::executor::SimHandle;
use crate::rng::SimRng;
use crate::sync::{select2, Notify};

/// SQS's cap on one message body: 256 KiB.
pub const MAX_MESSAGE_BYTES: usize = 256 * 1024;

/// SQS bills a send one request per started 64 KiB chunk of its body.
pub const BILLED_CHUNK_BYTES: usize = 64 * 1024;

/// The requests a send of a `len`-byte body is billed: one per started
/// [`BILLED_CHUNK_BYTES`], and one for an empty body.
pub fn send_requests(len: usize) -> u64 {
    len.div_ceil(BILLED_CHUNK_BYTES).max(1) as u64
}

/// Queue service parameters.
#[derive(Clone, Debug)]
pub struct SqsConfig {
    /// Median request latency.
    pub latency_median: Duration,
    /// Log-normal sigma on request latency.
    pub latency_sigma: f64,
    /// Maximum messages per receive call (10 on AWS).
    pub max_batch: usize,
}

impl Default for SqsConfig {
    fn default() -> Self {
        SqsConfig { latency_median: Duration::from_millis(10), latency_sigma: 0.2, max_batch: 10 }
    }
}

/// Errors surfaced by the queue service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqsError {
    NoSuchQueue(String),
    /// A message body of this many bytes, over [`MAX_MESSAGE_BYTES`].
    MessageTooLarge(usize),
}

impl fmt::Display for SqsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqsError::NoSuchQueue(q) => write!(f, "no such queue: {q}"),
            SqsError::MessageTooLarge(n) => {
                write!(f, "a message of {n} B exceeds the {MAX_MESSAGE_BYTES} B cap")
            }
        }
    }
}

impl std::error::Error for SqsError {}

struct QueueState {
    messages: VecDeque<Vec<u8>>,
    arrivals: Notify,
}

/// The shared queue service.
#[derive(Clone)]
pub struct QueueService {
    st: Rc<RefCell<HashMap<String, Rc<RefCell<QueueState>>>>>,
    cfg: Rc<SqsConfig>,
    handle: SimHandle,
    billing: Billing,
    rng: SimRng,
}

impl QueueService {
    pub fn new(handle: SimHandle, cfg: SqsConfig, billing: Billing, rng: SimRng) -> Self {
        QueueService {
            st: Rc::new(RefCell::new(HashMap::new())),
            cfg: Rc::new(cfg),
            handle,
            billing,
            rng,
        }
    }

    /// Create a queue (idempotent, free — done at installation time).
    pub fn create_queue(&self, name: &str) {
        self.st.borrow_mut().entry(name.to_string()).or_insert_with(|| {
            Rc::new(RefCell::new(QueueState { messages: VecDeque::new(), arrivals: Notify::new() }))
        });
    }

    /// Delete a queue (control-plane, free). Pending messages are
    /// dropped, later sends fail with [`SqsError::NoSuchQueue`] and
    /// in-flight receives drain nothing more — close enough to SQS for
    /// the driver's per-stage result queues, which would otherwise leak
    /// one queue per stage per query.
    pub fn delete_queue(&self, name: &str) {
        self.st.borrow_mut().remove(name);
    }

    /// Number of queues currently in existence (leak checks in tests).
    pub fn queue_count(&self) -> usize {
        self.st.borrow().len()
    }

    /// Messages currently queued.
    pub fn depth(&self, name: &str) -> usize {
        self.st.borrow().get(name).map(|q| q.borrow().messages.len()).unwrap_or(0)
    }

    /// A per-caller client with extra request latency (distance to
    /// region), counting into a fresh [`Tally`].
    pub fn client(&self, extra_latency: Duration) -> SqsClient {
        SqsClient { svc: self.clone(), extra_latency, tally: SharedTally::default() }
    }

    fn queue(&self, name: &str) -> Result<Rc<RefCell<QueueState>>, SqsError> {
        self.st.borrow().get(name).cloned().ok_or_else(|| SqsError::NoSuchQueue(name.to_string()))
    }

    fn latency(&self) -> Duration {
        Duration::from_secs_f64(
            self.rng.lognormal(self.cfg.latency_median.as_secs_f64(), self.cfg.latency_sigma),
        )
    }
}

/// Per-caller queue access. Every request it is billed is counted in its
/// [`Tally`] as it is billed; clones share the tally.
#[derive(Clone)]
pub struct SqsClient {
    svc: QueueService,
    extra_latency: Duration,
    tally: SharedTally,
}

impl SqsClient {
    /// This client, counting into `tally` instead.
    pub fn counting_into(&self, tally: SharedTally) -> SqsClient {
        SqsClient { tally, ..self.clone() }
    }

    /// What this client (and every client sharing its tally) did so far.
    pub fn tally(&self) -> Tally {
        self.tally.get()
    }

    /// Send one message: rejected over [`MAX_MESSAGE_BYTES`], billed one
    /// request per started [`BILLED_CHUNK_BYTES`].
    pub async fn send(&self, queue: &str, msg: Vec<u8>) -> Result<(), SqsError> {
        let q = self.svc.queue(queue)?;
        if msg.len() > MAX_MESSAGE_BYTES {
            return Err(SqsError::MessageTooLarge(msg.len()));
        }
        self.svc.handle.sleep(self.extra_latency + self.svc.latency()).await;
        let requests = send_requests(msg.len());
        self.svc.billing.record(CostItem::SqsRequests, requests as f64);
        self.tally.count(|t| t.sqs_requests += requests);
        let mut st = q.borrow_mut();
        st.messages.push_back(msg);
        let arrivals = st.arrivals.clone();
        drop(st);
        arrivals.notify_all();
        Ok(())
    }

    /// Receive up to `max` messages, long-polling up to `wait` if the queue
    /// is empty. Every call — including ones returning nothing — is a
    /// billed request.
    pub async fn receive(
        &self,
        queue: &str,
        max: usize,
        wait: Duration,
    ) -> Result<Vec<Vec<u8>>, SqsError> {
        let q = self.svc.queue(queue)?;
        self.svc.handle.sleep(self.extra_latency + self.svc.latency()).await;
        self.svc.billing.record(CostItem::SqsRequests, 1.0);
        self.tally.count(|t| t.sqs_requests += 1);
        let deadline = self.svc.handle.now() + wait;
        let max = max.min(self.svc.cfg.max_batch);
        loop {
            let (batch, arrivals) = {
                let mut st = q.borrow_mut();
                let n = st.messages.len().min(max);
                let batch: Vec<Vec<u8>> = st.messages.drain(..n).collect();
                (batch, st.arrivals.clone())
            };
            if !batch.is_empty() || self.svc.handle.now() >= deadline {
                return Ok(batch);
            }
            select2(self.svc.handle.sleep_until(deadline), arrivals.notified()).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::Prices;
    use crate::executor::Simulation;

    fn setup(sim: &Simulation) -> (QueueService, SqsClient, Billing) {
        let billing = Billing::new(Prices::default());
        let svc =
            QueueService::new(sim.handle(), SqsConfig::default(), billing.clone(), SimRng::new(3));
        let client = svc.client(Duration::ZERO);
        (svc, client, billing)
    }

    #[test]
    fn send_receive_roundtrip() {
        let sim = Simulation::new();
        let (svc, client, billing) = setup(&sim);
        svc.create_queue("results");
        let got = sim.block_on(async move {
            client.send("results", vec![1, 2]).await.unwrap();
            client.send("results", vec![3]).await.unwrap();
            client.receive("results", 10, Duration::from_secs(1)).await.unwrap()
        });
        assert_eq!(got, vec![vec![1, 2], vec![3]]);
        assert_eq!(billing.units(CostItem::SqsRequests), 3.0);
    }

    /// A client counts what the queue bills it: a send one request per
    /// started 64 KiB chunk, a receive one per call, empty or not; a send
    /// the queue refuses is billed nothing and counted nothing.
    #[test]
    fn a_client_counts_what_it_is_billed() {
        let sim = Simulation::new();
        let (svc, client, billing) = setup(&sim);
        svc.create_queue("q");
        let shared = SharedTally::default();
        let counted = client.counting_into(shared.clone());
        let tally = sim.block_on(async move {
            counted.send("q", vec![0; BILLED_CHUNK_BYTES + 1]).await.unwrap();
            counted.send("q", Vec::new()).await.unwrap();
            assert!(counted.send("gone", vec![1]).await.is_err());
            counted.receive("q", 10, Duration::from_millis(1)).await.unwrap();
            counted.receive("q", 10, Duration::from_millis(1)).await.unwrap();
            counted.tally()
        });
        assert_eq!(tally, Tally { sqs_requests: 5, ..Tally::default() });
        assert_eq!((shared.get(), client.tally()), (tally, Tally::default()));
        assert_eq!(billing.units(CostItem::SqsRequests), 5.0);
        assert_eq!((send_requests(0), send_requests(BILLED_CHUNK_BYTES)), (1, 1));
    }

    #[test]
    fn long_poll_wakes_on_arrival() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (svc, client, _) = setup(&sim);
        svc.create_queue("q");
        let sender = svc.client(Duration::ZERO);
        let (msgs, t) = sim.block_on({
            let h2 = h.clone();
            async move {
                h2.spawn({
                    let h3 = h2.clone();
                    async move {
                        h3.sleep(Duration::from_secs(2)).await;
                        sender.send("q", vec![9]).await.unwrap();
                    }
                });
                let msgs = client.receive("q", 10, Duration::from_secs(20)).await.unwrap();
                (msgs, h2.now().as_secs_f64())
            }
        });
        assert_eq!(msgs, vec![vec![9]]);
        assert!(t < 3.0, "long poll returned promptly at t = {t}");
    }

    #[test]
    fn empty_receive_times_out_and_is_billed() {
        let sim = Simulation::new();
        let (svc, client, billing) = setup(&sim);
        svc.create_queue("q");
        let msgs =
            sim.block_on(
                async move { client.receive("q", 10, Duration::from_secs(1)).await.unwrap() },
            );
        assert!(msgs.is_empty());
        assert_eq!(billing.units(CostItem::SqsRequests), 1.0);
        assert!(sim.now().as_secs_f64() >= 1.0);
    }

    #[test]
    fn receive_caps_batch_at_sqs_limit() {
        let sim = Simulation::new();
        let (svc, client, _) = setup(&sim);
        svc.create_queue("q");
        let got = sim.block_on(async move {
            for i in 0..15u8 {
                client.send("q", vec![i]).await.unwrap();
            }
            client.receive("q", 100, Duration::ZERO).await.unwrap()
        });
        assert_eq!(got.len(), 10, "AWS caps receive batches at 10");
        assert_eq!(svc.depth("q"), 5);
    }

    #[test]
    fn delete_queue_drops_messages_and_rejects_sends() {
        let sim = Simulation::new();
        let (svc, client, _) = setup(&sim);
        svc.create_queue("q");
        assert_eq!(svc.queue_count(), 1);
        let err = sim.block_on(async move {
            client.send("q", vec![1]).await.unwrap();
            client.svc.delete_queue("q");
            client.send("q", vec![2]).await.unwrap_err()
        });
        assert_eq!(err, SqsError::NoSuchQueue("q".to_string()));
        assert_eq!(svc.queue_count(), 0);
        assert_eq!(svc.depth("q"), 0);
    }

    /// A send is one request per started 64 KiB of its body, and a body
    /// over 256 KiB is a typed error that bills nothing.
    #[test]
    fn sends_bill_per_64_kib_chunk_up_to_the_256_kib_cap() {
        let sim = Simulation::new();
        let (svc, client, billing) = setup(&sim);
        svc.create_queue("q");
        let billed = |len: usize| {
            let (client, billing) = (client.clone(), billing.clone());
            sim.block_on(async move {
                let before = billing.units(CostItem::SqsRequests);
                let sent = client.send("q", vec![7; len]).await;
                (sent, billing.units(CostItem::SqsRequests) - before)
            })
        };
        assert_eq!(billed(0), (Ok(()), 1.0));
        assert_eq!(billed(BILLED_CHUNK_BYTES), (Ok(()), 1.0));
        assert_eq!(billed(BILLED_CHUNK_BYTES + 1), (Ok(()), 2.0));
        assert_eq!(billed(MAX_MESSAGE_BYTES), (Ok(()), 4.0));
        let over = MAX_MESSAGE_BYTES + 1;
        assert_eq!(billed(over), (Err(SqsError::MessageTooLarge(over)), 0.0));
        assert_eq!(svc.depth("q"), 4, "the rejected message was never queued");
    }

    #[test]
    fn missing_queue_errors() {
        let sim = Simulation::new();
        let (_, client, _) = setup(&sim);
        let err = sim.block_on(async move { client.send("nope", vec![]).await.unwrap_err() });
        assert_eq!(err, SqsError::NoSuchQueue("nope".to_string()));
    }
}
