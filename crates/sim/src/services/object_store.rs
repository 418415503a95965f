//! S3-like object store.
//!
//! Models the aspects of cloud storage the paper's design reacts to:
//! per-request latency (time to first byte), per-bucket request-rate limits
//! (the reason the exchange operator shards file names over buckets,
//! §4.4.1), per-request billing (GET vs PUT vs LIST prices, §4.3.1/§4.4),
//! and body transfer through the caller's traffic-shaped NIC (§4.3.1).
//!
//! Objects may carry [`Body::Synthetic`] payloads: byte counts without
//! materialized bytes, used to run paper-scale experiments (hundreds of
//! GiB) without allocating them. All timing and billing treat synthetic and
//! real bodies identically.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::{Rc, Weak};
use std::time::Duration;

pub use bytes::Bytes;

use crate::billing::{Billing, CostItem};
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
    /// footnote 17 fights with aggressive timeouts and retries).
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

#[derive(Default)]
struct BucketState {
    objects: BTreeMap<String, Body>,
    gets: u64,
    puts: u64,
    lists: u64,
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
}

impl ObjectStore {
    pub fn new(handle: SimHandle, cfg: S3Config, billing: Billing, rng: SimRng) -> Self {
        ObjectStore { st: Rc::default(), cfg: Rc::new(cfg), handle, billing, rng }
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
    /// ("cold data" already resident in cloud storage).
    pub fn stage(&self, bucket: &str, key: &str, body: Body) {
        self.create_bucket(bucket);
        let st = self.st.borrow();
        let b = st.get(bucket).expect("bucket just created");
        b.borrow_mut().objects.insert(key.to_string(), body);
    }

    /// Request counters for a bucket: (gets, puts, lists).
    pub fn bucket_counters(&self, bucket: &str) -> (u64, u64, u64) {
        let st = self.st.borrow();
        match st.get(bucket) {
            Some(b) => {
                let b = b.borrow();
                (b.gets, b.puts, b.lists)
            }
            None => (0, 0, 0),
        }
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

    /// Remove all objects from a bucket (test/bench housekeeping; free).
    pub fn clear_bucket(&self, bucket: &str) {
        let st = self.st.borrow();
        if let Some(b) = st.get(bucket) {
            b.borrow_mut().objects.clear();
        }
    }

    /// A client whose transfers flow through `link` (a function instance's
    /// NIC or the driver's WAN link) with `extra_latency` added per request
    /// (distance from the region).
    pub fn client(&self, link: BurstLink, extra_latency: Duration) -> S3Client {
        S3Client { store: self.clone(), link, extra_latency }
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
}

/// Per-caller S3 access: all request latency and body bandwidth are charged
/// against this client's link.
#[derive(Clone)]
pub struct S3Client {
    store: ObjectStore,
    link: BurstLink,
    extra_latency: Duration,
}

impl S3Client {
    /// The link this client transfers through.
    pub fn link(&self) -> &BurstLink {
        &self.link
    }

    /// GET an entire object.
    pub async fn get(&self, bucket: &str, key: &str) -> Result<Body, S3Error> {
        self.get_range(bucket, key, 0, u64::MAX).await
    }

    /// Ranged GET (`Ranges:` header): download `len` bytes at `offset`.
    pub async fn get_range(
        &self,
        bucket: &str,
        key: &str,
        offset: u64,
        len: u64,
    ) -> Result<Body, S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        store.get_limiter(&b, key).acquire(1.0).await;
        store.handle.sleep(self.extra_latency + store.sample_latency(store.cfg.ttfb_median)).await;
        store.billing.record(CostItem::S3Get, 1.0);
        b.borrow_mut().gets += 1;
        let body = {
            let st = b.borrow();
            st.objects.get(key).map(|body| body.slice(offset, len)).ok_or_else(|| {
                S3Error::NoSuchKey { bucket: bucket.to_string(), key: key.to_string() }
            })?
        };
        self.link.transfer(body.len() as f64).await;
        Ok(body)
    }

    /// PUT an object.
    pub async fn put(&self, bucket: &str, key: &str, body: Body) -> Result<(), S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        store.put_limiter(&b, key).acquire(1.0).await;
        let base = store.cfg.ttfb_median + store.cfg.put_extra;
        store.handle.sleep(self.extra_latency + store.sample_latency(base)).await;
        store.billing.record(CostItem::S3Put, 1.0);
        self.link.transfer(body.len() as f64).await;
        let mut st = b.borrow_mut();
        st.puts += 1;
        st.objects.insert(key.to_string(), body);
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
        let pages = (out.len().max(1)).div_ceil(1000) as f64;
        store.billing.record(CostItem::S3List, pages);
        b.borrow_mut().lists += pages as u64;
        Ok(out)
    }

    /// HEAD: does the object exist? Billed like a GET.
    pub async fn exists(&self, bucket: &str, key: &str) -> Result<bool, S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        store.get_limiter(&b, key).acquire(1.0).await;
        store.handle.sleep(self.extra_latency + store.sample_latency(store.cfg.ttfb_median)).await;
        store.billing.record(CostItem::S3Get, 1.0);
        let mut st = b.borrow_mut();
        st.gets += 1;
        Ok(st.objects.contains_key(key))
    }

    /// DELETE (free of request charges, like AWS).
    pub async fn delete(&self, bucket: &str, key: &str) -> Result<(), S3Error> {
        let store = &self.store;
        let b = store.bucket(bucket)?;
        store.handle.sleep(self.extra_latency + store.sample_latency(store.cfg.ttfb_median)).await;
        b.borrow_mut().objects.remove(key);
        Ok(())
    }

    /// GET with retries until the object exists (the exchange receivers'
    /// "repeat reading a file until that file exists", §4.4.1). Every
    /// attempt is a billed request.
    pub async fn get_with_retry(
        &self,
        bucket: &str,
        key: &str,
        poll_interval: Duration,
        max_attempts: usize,
    ) -> Result<Body, S3Error> {
        let mut last_err = None;
        for attempt in 0..max_attempts {
            match self.get(bucket, key).await {
                Ok(body) => return Ok(body),
                Err(e @ S3Error::NoSuchKey { .. }) => {
                    last_err = Some(e);
                    if attempt + 1 < max_attempts {
                        self.store.handle.sleep(poll_interval).await;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("at least one attempt"))
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

    #[test]
    fn get_with_retry_waits_for_producer() {
        let sim = Simulation::new();
        let h = sim.handle();
        let (store, client, billing) = setup(&sim);
        store.create_bucket("b");
        let writer =
            store.client(BurstLink::new(h.clone(), BurstLinkConfig::flat(1e9)), Duration::ZERO);
        let body = sim.block_on({
            let h2 = h.clone();
            async move {
                h2.spawn({
                    let h3 = h2.clone();
                    async move {
                        h3.sleep(Duration::from_secs(1)).await;
                        writer.put("b", "late", Body::Synthetic(7)).await.unwrap();
                    }
                });
                client.get_with_retry("b", "late", Duration::from_millis(100), 100).await.unwrap()
            }
        });
        assert_eq!(body.len(), 7);
        // Polling attempts before success are billed GETs.
        assert!(billing.units(CostItem::S3Get) > 1.0);
    }
}
