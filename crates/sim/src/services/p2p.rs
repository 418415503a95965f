//! Worker-to-worker network service: rendezvous + relay.
//!
//! Lambda functions cannot accept inbound connections, so direct
//! worker-to-worker communication needs a rendezvous service that
//! registers endpoints and relays (or NAT-punches) traffic between
//! them — the architecture of lambdatization's `chappy` (a tiny seed
//! server brokering QUIC streams between functions). This module models
//! that service: the driver **registers** consumer endpoints before a
//! stage launches, producers **send** attempt-tagged messages to an
//! endpoint's mailbox through their own traffic-shaped NIC plus a
//! per-connection relay pipe, and consumers later **fetch** bodies from
//! the mailbox. Mailbox reads are non-destructive (several peers may
//! drain the same endpoint, e.g. a sort-sample barrier) and metadata
//! polls are free — the entire point of the direct transport is that
//! discovery stops costing object-store requests.
//!
//! Faults are injected per *link* — `(endpoint, sender, attempt)` —
//! so tests can degrade or sever exactly one producer's connection and
//! leave the rest of the fleet healthy.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use crate::billing::{SharedTally, Tally};
use crate::executor::SimHandle;
use crate::resource::BurstLink;
use crate::services::object_store::Body;

/// Rendezvous/relay service parameters.
#[derive(Clone, Debug)]
pub struct P2pConfig {
    /// Per-connection relay bandwidth in bytes/s (the pipe between two
    /// workers through the relay; each transfer also flows through the
    /// sending worker's NIC).
    pub bandwidth: f64,
    /// Per-message fixed latency (connection setup + relay hop).
    pub latency: Duration,
    /// Latency of a rendezvous lookup (resolving an endpoint before a
    /// send or fetch).
    pub rendezvous_latency: Duration,
    /// Maximum number of registered endpoints. Registration beyond this
    /// fails, leaving those consumers unreachable — senders must fall
    /// back to the object store for them.
    pub max_endpoints: usize,
}

impl Default for P2pConfig {
    fn default() -> Self {
        P2pConfig {
            // A relayed QUIC stream between two Lambda workers sustains
            // less than the NIC line rate; ~80 MB/s per connection.
            bandwidth: 80e6,
            latency: Duration::from_millis(3),
            rendezvous_latency: Duration::from_millis(2),
            max_endpoints: 65_536,
        }
    }
}

/// A fault injected on one p2p link (one `(endpoint, sender, attempt)`
/// triple): degrade its bandwidth or sever it entirely.
#[derive(Clone, Copy, Debug)]
pub struct LinkFault {
    /// Multiplier on the relay bandwidth for this link (e.g. `0.001`
    /// models a nearly-dead connection).
    pub bandwidth_factor: f64,
    /// Sever the link: sends fail with [`P2pError::LinkDropped`].
    pub drop: bool,
}

impl LinkFault {
    /// A link running at `factor` of its nominal bandwidth.
    pub fn degraded(factor: f64) -> LinkFault {
        LinkFault { bandwidth_factor: factor, drop: false }
    }

    /// A severed link.
    pub fn dropped() -> LinkFault {
        LinkFault { bandwidth_factor: 1.0, drop: true }
    }
}

/// Decides the fault (if any) on the link `(endpoint, sender, attempt)`.
pub type LinkFaultInjector = Rc<dyn Fn(&str, u32, u32) -> Option<LinkFault>>;

/// Errors surfaced by the p2p service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P2pError {
    /// The endpoint was never registered (or registration capacity was
    /// exhausted) — the sender must use the fallback path.
    Unregistered(String),
    /// The link was severed by fault injection.
    LinkDropped(String),
    /// No message from `(sender, attempt)` has arrived at `endpoint`.
    NoSuchMessage { endpoint: String, sender: u32, attempt: u32 },
}

impl fmt::Display for P2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            P2pError::Unregistered(e) => write!(f, "endpoint not registered: {e}"),
            P2pError::LinkDropped(e) => write!(f, "p2p link dropped: {e}"),
            P2pError::NoSuchMessage { endpoint, sender, attempt } => {
                write!(f, "no message at {endpoint} from snd{sender}a{attempt}")
            }
        }
    }
}

impl std::error::Error for P2pError {}

struct Message {
    sender: u32,
    attempt: u32,
    body: Body,
}

#[derive(Default)]
struct State {
    /// Registered endpoints and their mailboxes. A mailbox holds every
    /// message pushed to the endpoint; reads never consume.
    endpoints: HashMap<String, Vec<Message>>,
    fault: Option<LinkFaultInjector>,
    sends: u64,
    bytes: u64,
    drops: u64,
}

/// The shared rendezvous/relay service. Create per-worker
/// [`P2pClient`]s with [`P2pService::client`]; registration, metadata
/// polls, and cleanup are driver-side control-plane calls directly on
/// the service.
#[derive(Clone)]
pub struct P2pService {
    st: Rc<RefCell<State>>,
    cfg: Rc<P2pConfig>,
    handle: SimHandle,
}

impl P2pService {
    pub fn new(handle: SimHandle, cfg: P2pConfig) -> P2pService {
        P2pService { st: Rc::new(RefCell::new(State::default())), cfg: Rc::new(cfg), handle }
    }

    /// Register an endpoint so producers can stream to it. Returns
    /// `false` when registration capacity is exhausted — those
    /// consumers stay unreachable and senders fall back to the object
    /// store. Idempotent for an already-registered endpoint.
    pub fn register(&self, endpoint: &str) -> bool {
        let mut st = self.st.borrow_mut();
        if st.endpoints.contains_key(endpoint) {
            return true;
        }
        if st.endpoints.len() >= self.cfg.max_endpoints {
            return false;
        }
        st.endpoints.insert(endpoint.to_string(), Vec::new());
        true
    }

    pub fn is_registered(&self, endpoint: &str) -> bool {
        self.st.borrow().endpoints.contains_key(endpoint)
    }

    /// Drop every endpoint under `prefix` and its buffered messages
    /// (end-of-query cleanup).
    pub fn deregister_prefix(&self, prefix: &str) {
        self.st.borrow_mut().endpoints.retain(|k, _| !k.starts_with(prefix));
    }

    /// Number of currently registered endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.st.borrow().endpoints.len()
    }

    /// Free metadata snapshot of an endpoint's arrivals:
    /// `(sender, attempt, len)` per buffered message, or `None` when
    /// the endpoint is not registered. This is the direct transport's
    /// discovery primitive — it replaces the object store's billed
    /// LIST polls.
    pub fn arrivals(&self, endpoint: &str) -> Option<Vec<(u32, u32, u64)>> {
        let st = self.st.borrow();
        st.endpoints
            .get(endpoint)
            .map(|msgs| msgs.iter().map(|m| (m.sender, m.attempt, m.body.len())).collect())
    }

    /// Install (or replace) the per-link fault injector.
    pub fn set_link_faults(&self, injector: LinkFaultInjector) {
        self.st.borrow_mut().fault = Some(injector);
    }

    /// Totals since construction: `(sends, bytes, drops)`.
    pub fn counters(&self) -> (u64, u64, u64) {
        let st = self.st.borrow();
        (st.sends, st.bytes, st.drops)
    }

    /// A client whose transfers flow through `link` (the calling
    /// worker's NIC), counting into a tally of its own.
    pub fn client(&self, link: BurstLink) -> P2pClient {
        P2pClient { svc: self.clone(), link, tally: SharedTally::default() }
    }

    fn fault_for(&self, endpoint: &str, sender: u32, attempt: u32) -> Option<LinkFault> {
        let st = self.st.borrow();
        st.fault.as_ref().and_then(|f| f(endpoint, sender, attempt))
    }
}

/// Per-worker p2p access: all body bandwidth is charged against this
/// client's NIC link on top of the relay's per-connection pipe. Every
/// message it delivers or fetches is counted in its [`Tally`]; clones
/// share the tally.
#[derive(Clone)]
pub struct P2pClient {
    svc: P2pService,
    link: BurstLink,
    tally: SharedTally,
}

impl P2pClient {
    /// This client, counting into `tally` from now on.
    pub fn counting_into(&self, tally: SharedTally) -> P2pClient {
        P2pClient { tally, ..self.clone() }
    }

    /// What this client and every client sharing its tally did so far.
    pub fn tally(&self) -> Tally {
        self.tally.get()
    }

    fn count(&self, bytes: u64) {
        self.tally.count(|t| {
            t.p2p_messages += 1;
            t.p2p_bytes += bytes;
        });
    }

    /// Stream a message to a registered endpoint's mailbox. The message
    /// becomes visible only after the whole transfer completes — a
    /// sender killed mid-stream leaves nothing behind. Duplicate sends
    /// for the same `(sender, attempt)` overwrite (retry semantics).
    pub async fn send(
        &self,
        endpoint: &str,
        sender: u32,
        attempt: u32,
        body: Body,
    ) -> Result<(), P2pError> {
        let svc = &self.svc;
        svc.handle.sleep(svc.cfg.rendezvous_latency).await;
        if !svc.is_registered(endpoint) {
            return Err(P2pError::Unregistered(endpoint.to_string()));
        }
        let fault = svc.fault_for(endpoint, sender, attempt);
        if fault.is_some_and(|f| f.drop) {
            svc.st.borrow_mut().drops += 1;
            return Err(P2pError::LinkDropped(endpoint.to_string()));
        }
        let factor = fault.map_or(1.0, |f| f.bandwidth_factor).max(1e-9);
        svc.handle.sleep(svc.cfg.latency).await;
        // Upload through the worker's NIC, then through the relay's
        // per-connection pipe (store-and-forward).
        self.link.transfer(body.len() as f64).await;
        let pipe_secs = body.len() as f64 / (svc.cfg.bandwidth * factor);
        svc.handle.sleep(Duration::from_secs_f64(pipe_secs)).await;
        let mut st = svc.st.borrow_mut();
        if !st.endpoints.contains_key(endpoint) {
            // Deregistered while in flight (query torn down).
            return Err(P2pError::Unregistered(endpoint.to_string()));
        }
        st.sends += 1;
        st.bytes += body.len();
        self.count(body.len());
        let mailbox = st.endpoints.get_mut(endpoint).expect("checked above");
        match mailbox.iter_mut().find(|m| m.sender == sender && m.attempt == attempt) {
            Some(m) => m.body = body,
            None => mailbox.push(Message { sender, attempt, body }),
        }
        Ok(())
    }

    /// Fetch the body of a buffered message. Non-destructive: several
    /// peers may fetch the same message (the sort-sample barrier).
    pub async fn fetch(&self, endpoint: &str, sender: u32, attempt: u32) -> Result<Body, P2pError> {
        let svc = &self.svc;
        svc.handle.sleep(svc.cfg.rendezvous_latency + svc.cfg.latency).await;
        let body = {
            let st = svc.st.borrow();
            let mailbox = st
                .endpoints
                .get(endpoint)
                .ok_or_else(|| P2pError::Unregistered(endpoint.to_string()))?;
            mailbox
                .iter()
                .find(|m| m.sender == sender && m.attempt == attempt)
                .map(|m| m.body.clone())
                .ok_or_else(|| P2pError::NoSuchMessage {
                    endpoint: endpoint.to_string(),
                    sender,
                    attempt,
                })?
        };
        self.link.transfer(body.len() as f64).await;
        self.count(body.len());
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Simulation;
    use crate::resource::BurstLinkConfig;

    fn setup(sim: &Simulation, cfg: P2pConfig) -> (P2pService, P2pClient) {
        let h = sim.handle();
        let svc = P2pService::new(h.clone(), cfg);
        let link = BurstLink::new(h, BurstLinkConfig::flat(1e9));
        let client = svc.client(link);
        (svc, client)
    }

    #[test]
    fn send_fetch_roundtrip_is_nondestructive() {
        let sim = Simulation::new();
        let (svc, client) = setup(&sim, P2pConfig::default());
        assert!(svc.register("q0/s1/r0"));
        let (a, b) = sim.block_on(async move {
            client.send("q0/s1/r0", 2, 0, Body::from_vec(vec![7, 8])).await.unwrap();
            let a = client.fetch("q0/s1/r0", 2, 0).await.unwrap();
            let b = client.fetch("q0/s1/r0", 2, 0).await.unwrap();
            (a, b)
        });
        assert_eq!(a.as_real().unwrap().as_ref(), &[7, 8]);
        assert_eq!(b.as_real().unwrap().as_ref(), &[7, 8]);
        assert_eq!(svc.arrivals("q0/s1/r0").unwrap(), vec![(2, 0, 2)]);
        assert_eq!(svc.counters(), (1, 2, 0));
    }

    /// A client counts a send when its message lands and a fetch when its
    /// body returns, body bytes each; a send over a dropped link and a
    /// fetch of nothing count nothing.
    #[test]
    fn a_client_tallies_what_it_sent_and_fetched() {
        let sim = Simulation::new();
        let (svc, client) = setup(&sim, P2pConfig::default());
        svc.register("e");
        svc.set_link_faults(Rc::new(|_, sender, _| (sender == 9).then(LinkFault::dropped)));
        let counted = client.clone();
        sim.block_on(async move {
            client.send("e", 1, 0, Body::Synthetic(40)).await.unwrap();
            client.send("e", 9, 0, Body::Synthetic(40)).await.unwrap_err();
            client.fetch("e", 1, 0).await.unwrap();
            client.fetch("e", 2, 0).await.unwrap_err();
        });
        assert_eq!(counted.tally(), Tally { p2p_messages: 2, p2p_bytes: 80, ..Tally::default() });
        assert_eq!(svc.counters(), (1, 40, 1));
    }

    #[test]
    fn unregistered_endpoint_rejects_sends() {
        let sim = Simulation::new();
        let (svc, client) = setup(&sim, P2pConfig { max_endpoints: 1, ..P2pConfig::default() });
        assert!(svc.register("a"));
        assert!(!svc.register("b"), "capacity exhausted");
        assert!(svc.register("a"), "re-registering is idempotent");
        let err = sim.block_on(async move { client.send("b", 0, 0, Body::Synthetic(1)).await });
        assert_eq!(err, Err(P2pError::Unregistered("b".to_string())));
        assert!(svc.arrivals("b").is_none());
    }

    #[test]
    fn dropped_link_counts_and_errors() {
        let sim = Simulation::new();
        let (svc, client) = setup(&sim, P2pConfig::default());
        svc.register("e");
        svc.set_link_faults(Rc::new(|endpoint, sender, attempt| {
            (endpoint == "e" && sender == 3 && attempt == 0).then(LinkFault::dropped)
        }));
        let (bad, good) = sim.block_on(async move {
            let bad = client.send("e", 3, 0, Body::Synthetic(10)).await;
            let good = client.send("e", 3, 1, Body::Synthetic(10)).await;
            (bad, good)
        });
        assert_eq!(bad, Err(P2pError::LinkDropped("e".to_string())));
        assert_eq!(good, Ok(()));
        let (sends, bytes, drops) = svc.counters();
        assert_eq!((sends, bytes, drops), (1, 10, 1));
        assert_eq!(svc.arrivals("e").unwrap(), vec![(3, 1, 10)], "only the retry arrived");
    }

    #[test]
    fn degraded_link_slows_the_transfer() {
        let sim = Simulation::new();
        let cfg = P2pConfig {
            bandwidth: 1000.0,
            latency: Duration::ZERO,
            rendezvous_latency: Duration::ZERO,
            ..P2pConfig::default()
        };
        let (svc, client) = setup(&sim, cfg);
        svc.register("e");
        svc.set_link_faults(Rc::new(|_, _, attempt| {
            (attempt == 0).then(|| LinkFault::degraded(0.1))
        }));
        let (t_slow, t_fast) = sim.block_on({
            let h = sim.handle();
            async move {
                let t0 = h.now();
                client.send("e", 0, 0, Body::Synthetic(1000)).await.unwrap();
                let t_slow = (h.now() - t0).as_secs_f64();
                let t1 = h.now();
                client.send("e", 0, 1, Body::Synthetic(1000)).await.unwrap();
                (t_slow, (h.now() - t1).as_secs_f64())
            }
        });
        // 1000 bytes at 100 B/s vs 1000 B/s (the NIC is ~free here).
        assert!(t_slow > 9.0 && t_slow < 11.0, "degraded: {t_slow}");
        assert!(t_fast < 1.5, "healthy: {t_fast}");
    }

    #[test]
    fn deregister_prefix_clears_mailboxes() {
        let sim = Simulation::new();
        let (svc, client) = setup(&sim, P2pConfig::default());
        svc.register("x0/q1/s0/r0");
        svc.register("x0/q2/s0/r0");
        sim.block_on(async move {
            client.send("x0/q1/s0/r0", 0, 0, Body::Synthetic(5)).await.unwrap();
        });
        svc.deregister_prefix("x0/q1/");
        assert!(!svc.is_registered("x0/q1/s0/r0"));
        assert!(svc.is_registered("x0/q2/s0/r0"));
        assert_eq!(svc.endpoint_count(), 1);
    }

    #[test]
    fn duplicate_send_overwrites_same_attempt() {
        let sim = Simulation::new();
        let (svc, client) = setup(&sim, P2pConfig::default());
        svc.register("e");
        sim.block_on(async move {
            client.send("e", 1, 0, Body::Synthetic(4)).await.unwrap();
            client.send("e", 1, 0, Body::Synthetic(9)).await.unwrap();
            client.send("e", 1, 1, Body::Synthetic(6)).await.unwrap();
        });
        assert_eq!(svc.arrivals("e").unwrap(), vec![(1, 0, 9), (1, 1, 6)]);
    }
}
