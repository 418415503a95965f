//! S3-like object store.
//!
//! Models the aspects of cloud storage the paper's design reacts to:
//! per-request latency (time to first byte), per-bucket request-rate limits
//! (the reason the exchange operator shards file names over buckets,
//! §4.4.1), per-request billing (GET vs PUT vs LIST prices, §4.3.1/§4.4),
//! and body transfer through the caller's traffic-shaped NIC (§4.3.1).
//!
//! A request's first byte comes after a log-normal latency, or 12× that
//! for the rare tail request: the stragglers Lambada fights with
//! "aggressive timeouts and retries" (footnote 17). A GET or PUT that has
//! not answered by its *hedge deadline* — three sigmas out on its own
//! latency model, `median × e^{3σ}` plus the client's `extra_latency` —
//! sends one duplicate, and the first answer wins (Dean & Barroso's hedged
//! request). Both are billed and both take a rate-limiter token; a hedged
//! PUT uploads its body twice, a hedged GET downloads the winner's only.
//! The caller's client counts the duplicates it paid for in its
//! [`Tally`], and the store counts them apart ([`ObjectStore::hedges`]),
//! so a closed form of protocol requests is billed requests less hedges.
//! Only a request past its deadline draws a second latency, so a run
//! where none is late draws exactly the latencies an unhedged store
//! would.
//!
//! DELETE is one call on the store, [`ObjectStore::delete_objects`], made
//! by the owner of a finished query for every key it can have written.
//! It is free, as on AWS, and applies at once, because
//! nobody awaits it: it takes no rate-limiter token, since every key lies
//! under a finished query's own prefix, and draws no latency, so every
//! GET and PUT draws exactly what it would without it. The store counts
//! the objects it removed ([`ObjectStore::deleted_objects`]).
//!
//! Objects may carry [`Body::Synthetic`] payloads: byte counts without
//! materialized bytes, used to run paper-scale experiments (hundreds of
//! GiB) without allocating them. All timing and billing treat synthetic and
//! real bodies identically.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::{Rc, Weak};
use std::time::Duration;

pub use bytes::Bytes;

use crate::billing::{Billing, CostItem, SharedTally, Tally};
use crate::executor::SimHandle;
use crate::resource::{BurstLink, TokenBucket};
use crate::rng::SimRng;

/// An object payload: real bytes or a modeled size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    Real(Bytes),
    Synthetic(u64),
}

impl Body {
    pub fn from_vec(v: Vec<u8>) -> Body {
        Body::Real(Bytes::from(v))
    }

    pub fn len(&self) -> u64 {
        match self {
            Body::Real(b) => b.len() as u64,
            Body::Synthetic(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte range `[offset, offset + len)`, clamped to the body size.
    pub fn slice(&self, offset: u64, len: u64) -> Body {
        let total = self.len();
        let start = offset.min(total);
        let end = offset.saturating_add(len).min(total);
        match self {
            Body::Real(b) => Body::Real(b.slice(start as usize..end as usize)),
            Body::Synthetic(_) => Body::Synthetic(end - start),
        }
    }

    /// Real bytes, if materialized.
    pub fn as_real(&self) -> Option<&Bytes> {
        match self {
            Body::Real(b) => Some(b),
            Body::Synthetic(_) => None,
        }
    }
}

/// Errors surfaced by the store. Rate limiting is modeled as queueing (the
/// SDK's retry-with-backoff behaviour), not as errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum S3Error {
    NoSuchBucket(String),
    NoSuchKey { bucket: String, key: String },
}

impl fmt::Display for S3Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            S3Error::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            S3Error::NoSuchKey { bucket, key } => write!(f, "no such key: {bucket}/{key}"),
        }
    }
}

impl std::error::Error for S3Error {}

/// Object-store service parameters.
#[derive(Clone, Debug)]
pub struct S3Config {
    /// GET requests/s per partitioned key prefix before throttling (5,500
    /// as of July 2018, §4.4.1).
    pub get_rate_per_bucket: f64,
    /// PUT/LIST requests/s per partitioned key prefix (3,500).
    pub put_rate_per_bucket: f64,
    /// Median time to first byte for GET.
    pub ttfb_median: Duration,
    /// Log-normal sigma of the TTFB distribution.
    pub ttfb_sigma: f64,
    /// Probability that a request hits the slow tail (the stragglers that
    /// footnote 17 fights with aggressive timeouts and retries; a GET or
    /// PUT hedges them, see the module docs).
    pub tail_probability: f64,
    /// Latency multiplier for tail requests.
    pub tail_multiplier: f64,
    /// Extra fixed latency for PUT over GET.
    pub put_extra: Duration,
}

impl Default for S3Config {
    fn default() -> Self {
        S3Config {
            get_rate_per_bucket: 5500.0,
            put_rate_per_bucket: 3500.0,
            ttfb_median: Duration::from_millis(12),
            ttfb_sigma: 0.25,
            tail_probability: 0.004,
            tail_multiplier: 12.0,
            put_extra: Duration::from_millis(8),
        }
    }
}

/// Duplicates the store has been sent, by request kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hedges {
    pub gets: u64,
    pub puts: u64,
}

#[derive(Default)]
struct BucketState {
    objects: BTreeMap<String, Body>,
    // S3 rate limits apply per partitioned key prefix (AWS performance
    // guidelines), so a bucket keeps one limiter per prefix-up-to-last-/.
    get_limiters: HashMap<String, TokenBucket>,
    put_limiters: HashMap<String, TokenBucket>,
}

type Buckets = HashMap<String, Rc<RefCell<BucketState>>>;

/// The limiter of `key`'s rate-limit partition (everything up to the last
/// '/'), created full on first use. The lookup borrows the prefix from
/// `key`: a request whose limiter exists builds no `String`.
fn limiter(
    map: &mut HashMap<String, TokenBucket>,
    handle: &SimHandle,
    rate: f64,
    key: &str,
) -> TokenBucket {
    let prefix = key.rfind('/').map_or("", |i| &key[..i]);
    if let Some(found) = map.get(prefix) {
        return found.clone();
    }
    let created = TokenBucket::new(handle.clone(), rate, rate);
    map.insert(prefix.to_string(), created.clone());
    created
}

/// The shared object-store service. Create per-caller [`S3Client`]s with
/// [`ObjectStore::client`].
#[derive(Clone)]
pub struct ObjectStore {
    st: Rc<RefCell<Buckets>>,
    cfg: Rc<S3Config>,
    handle: SimHandle,
    billing: Billing,
    rng: SimRng,
    hedges: Rc<Cell<Hedges>>,
    deleted: Rc<Cell<u64>>,
}

impl ObjectStore {
    pub fn new(handle: SimHandle, cfg: S3Config, billing: Billing, rng: SimRng) -> Self {
        let (st, cfg, hedges, deleted) =
            (Rc::default(), Rc::new(cfg), Rc::default(), Rc::default());
        ObjectStore { st, cfg, handle, billing, rng, hedges, deleted }
    }

    /// Duplicates sent so far: billed requests less these are the
    /// requests the callers' protocols issued.
    pub fn hedges(&self) -> Hedges {
        self.hedges.get()
    }

    /// Objects [`ObjectStore::delete_objects`] has removed so far.
    pub fn deleted_objects(&self) -> u64 {
        self.deleted.get()
    }

    /// A weak handle on the stored state — buckets and every object in
    /// them. It upgrades for as long as any store or client handle is
    /// alive, which is how a test shows a dropped cloud was really freed.
    pub fn state_weak(&self) -> Weak<dyn Any> {
        Rc::downgrade(&self.st) as Weak<dyn Any>
    }

    /// Create a bucket (idempotent, free, instantaneous — done at
    /// installation time per §4.4.1).
    pub fn create_bucket(&self, name: &str) {
        let mut st = self.st.borrow_mut();
        if !st.contains_key(name) {
            st.insert(name.to_string(), Rc::default());
        }
    }

    pub fn bucket_exists(&self, name: &str) -> bool {
        self.st.borrow().contains_key(name)
    }

    /// Insert an object without latency, billing, or bandwidth — used to
    /// stage *input datasets* that exist before the experiment starts
    /// ("cold data" already resident in cloud storage), never for data a
    /// run produces: the query path (`crates/core`) has no caller, which
    /// `cargo xtask lint`'s `free-staging` rule checks. A stream's
    /// micro-batches ride their workers' invocation payloads instead.
    pub fn stage(&self, bucket: &str, key: &str, body: Body) {
        self.create_bucket(bucket);
        let st = self.st.borrow();
        let b = st.get(bucket).expect("bucket just created");
        b.borrow_mut().objects.insert(key.to_string(), body);
    }

    /// Total bytes stored in a bucket.
    pub fn bucket_bytes(&self, bucket: &str) -> u64 {
        let st = self.st.borrow();
        st.get(bucket).map(|b| b.borrow().objects.values().map(Body::len).sum()).unwrap_or(0)
    }

    /// Number of objects in a bucket.
    pub fn bucket_object_count(&self, bucket: &str) -> usize {
        let st = self.st.borrow();
        st.get(bucket).map(|b| b.borrow().objects.len()).unwrap_or(0)
    }

    /// DELETE `keys` from `bucket` (see the module docs): free, at once,
    /// with no limiter token and no latency draw. A key or bucket that
    /// does not exist is skipped. Returns how many objects it removed.
    pub fn delete_objects<K: AsRef<str>>(
        &self,
        bucket: &str,
        keys: impl IntoIterator<Item = K>,
    ) -> usize {
        let Ok(b) = self.bucket(bucket) else { return 0 };
        let mut b = b.borrow_mut();
        let removed = keys.into_iter().filter(|k| b.objects.remove(k.as_ref()).is_some()).count();
        self.deleted.set(self.deleted.get() + removed as u64);
        removed
    }

    /// A client whose transfers flow through `link` (a function instance's
    /// NIC or the driver's WAN link) with `extra_latency` added per request
    /// (distance from the region), counting into a tally of its own.
    pub fn client(&self, link: BurstLink, extra_latency: Duration) -> S3Client {
        S3Client { store: self.clone(), link, extra_latency, tally: SharedTally::default() }
    }

    fn bucket(&self, name: &str) -> Result<Rc<RefCell<BucketState>>, S3Error> {
        self.st.borrow().get(name).cloned().ok_or_else(|| S3Error::NoSuchBucket(name.to_string()))
    }

    fn get_limiter(&self, bucket: &RefCell<BucketState>, key: &str) -> TokenBucket {
        let rate = self.cfg.get_rate_per_bucket;
        limiter(&mut bucket.borrow_mut().get_limiters, &self.handle, rate, key)
    }

    fn put_limiter(&self, bucket: &RefCell<BucketState>, key: &str) -> TokenBucket {
        let rate = self.cfg.put_rate_per_bucket;
        limiter(&mut bucket.borrow_mut().put_limiters, &self.handle, rate, key)
    }

    fn sample_latency(&self, base: Duration) -> Duration {
        let mut lat = self.rng.lognormal(base.as_secs_f64(), self.cfg.ttfb_sigma);
        if self.rng.bernoulli(self.cfg.tail_probability) {
            lat *= self.cfg.tail_multiplier;
        }
        Duration::from_secs_f64(lat)
    }

    /// A duplicate's latency: one draw from the model's log-normal body.
    /// The tail is one request's bad luck (a slow server, a lost packet);
    /// the duplicate is a fresh connection.
    fn sample_body(&self, base: Duration) -> Duration {
        Duration::from_secs_f64(self.rng.lognormal(base.as_secs_f64(), self.cfg.ttfb_sigma))
    }

    /// How long a request of median latency `base` waits before it sends
    /// its duplicate: three sigmas out, which one body draw in 740 passes
    /// (and, at the defaults, every tail draw).
    fn hedge_deadline(&self, base: Duration) -> Duration {
        base.mul_f64((3.0 * self.cfg.ttfb_sigma).exp())
    }

    /// Bill one request of `item` and its `hedges` duplicates.
    fn bill(&self, item: CostItem, hedges: u64) {
        self.billing.record(item, (1 + hedges) as f64);
        let mut counted = self.hedges.get();
        match item {
            CostItem::S3Put => counted.puts += hedges,
            _ => counted.gets += hedges,
        }
        self.hedges.set(counted);
    }
}

/// Per-caller S3 access: all request latency and body bandwidth are charged
/// against this client's link, and every request is counted in its
/// [`Tally`] where it is billed. Clones share the tally.
#[derive(Clone)]
pub struct S3Client {
    store: ObjectStore,
    link: BurstLink,
    extra_latency: Duration,
    tally: SharedTally,
}

impl S3Client {
    /// The link this client transfers through.
    pub fn link(&self) -> &BurstLink {
        &self.link
    }

    /// This client, counting into `tally` from now on.
    pub fn counting_into(&self, tally: SharedTally) -> S3Client {
        S3Client { tally, ..self.clone() }
    }

    /// What this client and every client sharing its tally did so far.
    pub fn tally(&self) -> Tally {
        self.tally.get()
    }

    /// Bill one GET or PUT and its `hedges` duplicates, and count them
    /// with the `bytes` of the object they read or stored.
    fn bill(&self, item: CostItem, hedges: u64, bytes: u64) {
        self.store.bill(item, hedges);
        self.tally.count(|t| {
            let (requests, duplicates, moved) = match item {
                CostItem::S3Put => (&mut t.puts, &mut t.hedged_puts, &mut t.bytes_written),
                _ => (&mut t.gets, &mut t.hedged_gets, &mut t.bytes_read),
            };
            *requests += 1;
            *duplicates += hedges;
            *moved += bytes;
        });
    }

    /// Wait for the first byte of a request of median latency `base`
    /// whose `limiter` token is taken, hedging once: a request that has
    /// not answered by its deadline sends one duplicate, which takes a
    /// token of its own, and the first answer wins. Returns the
    /// duplicates sent.
    async fn first_byte(&self, limiter: &TokenBucket, base: Duration) -> u64 {
        let store = &self.store;
        let first = self.extra_latency + store.sample_latency(base);
        let deadline = self.extra_latency + store.hedge_deadline(base);
        if first <= deadline {
            store.handle.sleep(first).await;
            return 0;
        }
        let sent = store.handle.now();
        store.handle.sleep(deadline).await;
        limiter.acquire(1.0).await;
        let second = self.extra_latency + store.sample_body(base);
        let waited = store.handle.now() - sent;
        store.handle.sleep(first.min(waited + second).saturating_sub(waited)).await;
        1
    }

    /// GET an entire object.
    pub async fn get(&self, bucket: &str, key: &str) -> Result<Body, S3Error> {
        self.get_range(bucket, key, 0, u64::MAX).await
    }

    /// Ranged GET (`Ranges:` header): download `len` bytes at `offset`.
    /// Hedged; only the winner's body moves.
    pub async fn get_range(
        &self,
        bucket: &str,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<Body, S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        let limiter = store.get_limiter(&b, key);
        limiter.acquire(1.0).await;
        let hedges = self.first_byte(&limiter, store.cfg.ttfb_median).await;
        let body = b.borrow().objects.get(key).map(|body| body.slice(offset, len));
        self.bill(CostItem::S3Get, hedges, body.as_ref().map_or(0, Body::len));
        let body = body.ok_or_else(|| S3Error::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })?;
        self.link.transfer(body.len() as f64).await;
        Ok(body)
    }

    /// PUT an object. Hedged; a duplicate uploads the body again.
    pub async fn put(&self, bucket: &str, key: &str, body: Body) -> Result<(), S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        let limiter = store.put_limiter(&b, key);
        limiter.acquire(1.0).await;
        let hedges = self.first_byte(&limiter, store.cfg.ttfb_median + store.cfg.put_extra).await;
        self.bill(CostItem::S3Put, hedges, body.len());
        self.link.transfer(body.len() as f64 * (1 + hedges) as f64).await;
        b.borrow_mut().objects.insert(key.to_string(), body);
        Ok(())
    }

    /// LIST keys under a prefix; returns `(key, size)` pairs in key order.
    /// Billed one LIST request per started page of 1000 keys.
    pub async fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<(String, u64)>, S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        store.put_limiter(&b, prefix).acquire(1.0).await;
        store.handle.sleep(self.extra_latency + store.sample_latency(store.cfg.ttfb_median)).await;
        let out: Vec<(String, u64)> = {
            let st = b.borrow();
            st.objects
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.len()))
                .collect()
        };
        let pages = (out.len().max(1)).div_ceil(1000) as u64;
        store.billing.record(CostItem::S3List, pages as f64);
        self.tally.count(|t| t.list_units += pages);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::Prices;
    use crate::executor::Simulation;
    use crate::resource::BurstLinkConfig;

    fn setup(sim: &Simulation) -> (ObjectStore, S3Client, Billing) {
        let h = sim.handle();
        let billing = Billing::new(Prices::default());
        let store =
            ObjectStore::new(h.clone(), S3Config::default(), billing.clone(), SimRng::new(1));
        let link = BurstLink::new(h, BurstLinkConfig::flat(100.0 * 1024.0 * 1024.0));
        let client = store.client(link, Duration::ZERO);
        (store, client, billing)
    }

    #[test]
    fn put_get_roundtrip_with_billing() {
        let sim = Simulation::new();
        let (store, client, billing) = setup(&sim);
        store.create_bucket("b");
        let body = sim.block_on(async move {
            client.put("b", "k", Body::from_vec(vec![1, 2, 3])).await.unwrap();
            client.get("b", "k").await.unwrap()
        });
        assert_eq!(body.as_real().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(billing.units(CostItem::S3Put), 1.0);
        assert_eq!(billing.units(CostItem::S3Get), 1.0);
    }

    #[test]
    fn ranged_get_slices() {
        let sim = Simulation::new();
        let (store, client, _) = setup(&sim);
        store.stage("b", "k", Body::from_vec((0u8..100).collect()));
        let body = sim.block_on(async move { client.get_range("b", "k", 10, 5).await.unwrap() });
        assert_eq!(body.as_real().unwrap().as_ref(), &[10, 11, 12, 13, 14]);
    }

    #[test]
    fn synthetic_bodies_slice_by_size() {
        let b = Body::Synthetic(1000);
        assert_eq!(b.slice(900, 500).len(), 100);
        assert_eq!(b.slice(0, 10).len(), 10);
        assert!(b.as_real().is_none());
    }

    #[test]
    fn missing_key_is_charged_and_errors() {
        let sim = Simulation::new();
        let (store, client, billing) = setup(&sim);
        store.create_bucket("b");
        let err = sim.block_on(async move { client.get("b", "nope").await.unwrap_err() });
        assert!(matches!(err, S3Error::NoSuchKey { .. }));
        assert_eq!(billing.units(CostItem::S3Get), 1.0);
    }

    #[test]
    fn list_returns_prefix_matches_in_order() {
        let sim = Simulation::new();
        let (store, client, billing) = setup(&sim);
        store.stage("b", "x/2", Body::Synthetic(2));
        store.stage("b", "x/1", Body::Synthetic(1));
        store.stage("b", "y/9", Body::Synthetic(9));
        let keys = sim.block_on(async move { client.list("b", "x/").await.unwrap() });
        assert_eq!(keys, vec![("x/1".to_string(), 1), ("x/2".to_string(), 2)]);
        assert_eq!(billing.units(CostItem::S3List), 1.0);
    }

    /// A client counts what the store bills it, where it bills it — a
    /// GET of a missing key too, with no bytes. Clients counting into
    /// one tally, and their clones, share it; the client they came from
    /// counts apart.
    #[test]
    fn a_client_tallies_what_the_store_bills() {
        let sim = Simulation::new();
        let (store, client, billing) = setup(&sim);
        store.stage("b", "x/1", Body::Synthetic(7));
        let shared = SharedTally::default();
        let (one, other) =
            (client.counting_into(shared.clone()), client.counting_into(shared.clone()));
        sim.block_on(async move {
            one.put("b", "x/2", Body::from_vec(vec![1, 2, 3])).await.unwrap();
            other.get_range("b", "x/1", 2, 100).await.unwrap();
            other.clone().get("b", "nope").await.unwrap_err();
            one.list("b", "x/").await.unwrap();
        });
        let want = Tally {
            gets: 2,
            bytes_read: 5,
            puts: 1,
            bytes_written: 3,
            list_units: 1,
            ..Tally::default()
        };
        assert_eq!(shared.get(), want);
        assert_eq!(client.tally(), Tally::default());
        let units = [CostItem::S3Get, CostItem::S3Put, CostItem::S3List].map(|i| billing.units(i));
        assert_eq!(units, [2.0, 1.0, 1.0]);
    }

    #[test]
    fn rate_limit_queues_requests() {
        let sim = Simulation::new();
        let h = sim.handle();
        let billing = Billing::new(Prices::default());
        let cfg = S3Config {
            get_rate_per_bucket: 10.0,
            ttfb_median: Duration::ZERO,
            ttfb_sigma: 0.0,
            tail_probability: 0.0,
            ..S3Config::default()
        };
        let store = ObjectStore::new(h.clone(), cfg, billing, SimRng::new(1));
        store.stage("b", "k", Body::Synthetic(0));
        let link = BurstLink::new(h.clone(), BurstLinkConfig::flat(1e9));
        let client = store.client(link, Duration::ZERO);
        let t = sim.block_on(async move {
            let mut joins = Vec::new();
            for _ in 0..30 {
                let c = client.clone();
                joins.push(h.spawn(async move { c.get("b", "k").await.unwrap() }));
            }
            for j in joins {
                j.await;
            }
            h.now().as_secs_f64()
        });
        // 10 burst tokens, then 20 more at 10/s => ~2 s.
        assert!((t - 2.0).abs() < 0.05, "t = {t}");
    }

    /// A store whose every request draws its median times
    /// `tail_multiplier` exactly (σ = 0, always the tail), and a client 5 ms
    /// from the region on a 1 MB/s link.
    fn always_late(sim: &Simulation, tail_multiplier: f64) -> (ObjectStore, S3Client, Billing) {
        let h = sim.handle();
        let billing = Billing::new(Prices::default());
        let cfg = S3Config {
            ttfb_sigma: 0.0,
            tail_probability: 1.0,
            tail_multiplier,
            ..S3Config::default()
        };
        let store = ObjectStore::new(h.clone(), cfg, billing.clone(), SimRng::new(1));
        let link = BurstLink::new(h, BurstLinkConfig::flat(1e6));
        (store.clone(), store.client(link, Duration::from_millis(5)), billing)
    }

    /// Equal to the nanosecond, up to the fair-share timer's rounding.
    fn assert_close(got: Duration, want: Duration) {
        assert!(got.abs_diff(want) <= Duration::from_micros(1), "{got:?} vs {want:?}");
    }

    /// With σ = 0 the deadline is the median plus the client's extra
    /// latency, and a duplicate draws the median: every late GET and PUT
    /// sends exactly one, whose answer comes at deadline + extra + median.
    /// Both requests are billed, the PUT moves its body twice and the GET
    /// once.
    #[test]
    fn a_late_request_hedges_once_and_its_duplicate_answers() {
        let sim = Simulation::new();
        let (store, client, billing) = always_late(&sim, 12.0);
        store.create_bucket("b");
        let (h, link) = (sim.handle(), client.link().clone());
        let (put, get) = sim.block_on(async move {
            let t0 = h.now();
            client.put("b", "k", Body::Synthetic(1000)).await.unwrap();
            let (put, t1) = (client.tally().hedged_puts, h.now());
            let get = client.get("b", "k").await.unwrap();
            ((put, t1 - t0), (client.tally().hedged_gets, get.len(), h.now() - t1))
        });
        let (extra, ms) = (Duration::from_millis(5), Duration::from_millis(1));
        let (get_median, put_median) = (12 * ms, 20 * ms);
        assert_eq!(put.0, 1);
        assert_close(put.1, 2 * (extra + put_median) + 2 * ms);
        assert_eq!((get.0, get.1), (1, 1000));
        assert_close(get.2, 2 * (extra + get_median) + ms);
        assert_eq!(billing.units(CostItem::S3Put), 2.0);
        assert_eq!(billing.units(CostItem::S3Get), 2.0);
        assert_eq!(store.hedges(), Hedges { gets: 1, puts: 1 });
        // The timer's rounding nanosecond moves a byte's thousandth.
        assert!((link.total_bytes() - 3000.0).abs() < 0.01, "{}", link.total_bytes());
    }

    /// A late request whose duplicate would answer later than it still
    /// answers first; both requests are billed.
    #[test]
    fn the_first_answer_wins_even_when_it_is_the_late_one() {
        let sim = Simulation::new();
        let (store, client, billing) = always_late(&sim, 1.5);
        store.stage("b", "k", Body::Synthetic(0));
        let h = sim.handle();
        let (hedges, took) = sim.block_on(async move {
            let start = h.now();
            client.get("b", "k").await.unwrap();
            (client.tally().hedged_gets, h.now() - start)
        });
        assert_eq!(hedges, 1);
        assert_close(took, Duration::from_millis(5) + Duration::from_millis(18));
        assert_eq!(billing.units(CostItem::S3Get), 2.0);
        assert_eq!(store.hedges(), Hedges { gets: 1, puts: 0 });
    }

    /// With no tail, no request at the defaults reaches its deadline in
    /// this run, and each waits exactly the latency an unhedged store
    /// draws: the log-normal, then the tail's Bernoulli trial. The
    /// deletes between them draw nothing and take no time.
    #[test]
    fn requests_before_their_deadline_draw_what_an_unhedged_store_draws() {
        let sim = Simulation::new();
        let h = sim.handle();
        let billing = Billing::new(Prices::default());
        let cfg = S3Config { tail_probability: 0.0, ..S3Config::default() };
        let store = ObjectStore::new(h.clone(), cfg.clone(), billing.clone(), SimRng::new(1));
        store.create_bucket("b");
        let client =
            store.client(BurstLink::new(h.clone(), BurstLinkConfig::flat(1e9)), Duration::ZERO);
        let deleter = store.clone();
        let waits = sim.block_on(async move {
            let mut waits = Vec::new();
            for i in 0..200 {
                let (start, key) = (h.now(), format!("k{}", i / 2));
                if i % 2 == 0 {
                    client.put("b", &key, Body::Synthetic(0)).await.unwrap();
                } else {
                    client.get("b", &key).await.unwrap();
                    assert_eq!(deleter.delete_objects("b", [key.as_str(), "gone"]), 1);
                }
                let tally = client.tally();
                assert_eq!((tally.hedged_gets, tally.hedged_puts), (0, 0));
                waits.push(h.now() - start);
            }
            waits
        });
        assert_eq!((store.deleted_objects(), store.bucket_object_count("b")), (100, 0));
        let twin = SimRng::new(1);
        for (i, wait) in waits.into_iter().enumerate() {
            let base = if i % 2 == 0 { cfg.ttfb_median + cfg.put_extra } else { cfg.ttfb_median };
            let drawn = twin.lognormal(base.as_secs_f64(), cfg.ttfb_sigma);
            assert!(!twin.bernoulli(cfg.tail_probability));
            assert_eq!(wait, Duration::from_secs_f64(drawn), "request {i}");
        }
        assert_eq!(store.hedges(), Hedges::default());
        assert_eq!(billing.units(CostItem::S3Put) + billing.units(CostItem::S3Get), 200.0);
    }

    /// A delete removes what exists and nothing else: a missing key or
    /// bucket is a no-op that returns 0, the gauge counts only removed
    /// objects, and nothing is billed or waited for.
    #[test]
    fn a_delete_counts_only_the_objects_that_existed() {
        let sim = Simulation::new();
        let (store, _, billing) = setup(&sim);
        store.stage("b", "x/1", Body::Synthetic(1));
        store.stage("b", "x/2", Body::Synthetic(2));
        assert_eq!(store.delete_objects("b", ["x/1", "x/3"]), 1);
        assert_eq!(store.delete_objects("b", ["x/1"]), 0, "already gone");
        assert_eq!(store.delete_objects("nope", ["x/2"]), 0, "no such bucket");
        assert_eq!(store.delete_objects("b", Vec::<String>::new()), 0);
        assert_eq!(store.deleted_objects(), 1);
        assert_eq!((store.bucket_object_count("b"), store.bucket_bytes("b")), (1, 2));
        assert_eq!(billing.total(), 0.0);
        assert_eq!((sim.now(), sim.pending_timers()), (crate::SimTime::ZERO, 0));
    }
}
