//! The purely serverless exchange operator (§4.4).
//!
//! Workers cannot accept connections, so all data movement goes through
//! the object store. The family of algorithms:
//!
//! * **BasicExchange (1l)** — every worker writes one file per receiver
//!   and reads one file per sender: `P²` reads and writes (Algorithm 1).
//! * **TwoLevelExchange (2l)** — IDs are projected onto a grid; round 1
//!   exchanges within rows, round 2 within columns: `2·P·√P` requests
//!   (Algorithm 2). Generalizes to k levels over a `side^k` hyper-grid.
//! * **Write combining (-wc)** — all partitions a worker produces in one
//!   round go into a single file; receivers discover per-receiver offsets
//!   from the file *name* via LIST requests (§4.4.3, the cheaper variant
//!   for ≥ ~12 workers since LIST is priced like PUT).
//!
//! File names shard across `num_buckets` buckets to spread S3's
//! per-bucket request-rate limits (§4.4.1).
//!
//! # Stage edges and key namespacing
//!
//! The same machinery powers *stage edges*
//! ([`crate::transport::EdgeTransport`]): write-combined shuffles where
//! the producer and consumer are different worker fleets (scan → join,
//! scan/join → agg-merge). A stage edge writes with `put_combined` and
//! reads with `fetch_copies`, and never waits: its consumer fleet
//! launches after every producer reported its section table, so the
//! driver hands each receiver the exact attempt, offset and length of
//! every sender's section — or the section itself, when it rode the
//! sender's result message inline. Every stage-edge key is
//!
//! ```text
//! x{instance}/q{query}/s{stage}/snd{sender}a{attempt}
//! ```
//!
//! where `instance` is the process-unique installation id, `query` the
//! installation's query sequence number, and `stage` the producer's DAG
//! index, so two concurrent installations (or two concurrent queries of
//! one installation) with identical DAG shapes can never read each
//! other's shuffle files — isolation is part of the key, not a runtime
//! check. The key's length does not grow with the consumer fleet.
//!
//! The `a{attempt}` component makes the exchange *duplicate-tolerant*:
//! when the driver speculatively re-invokes a straggling producer, the
//! backup writes a fresh file under the next attempt id instead of
//! overwriting the original's, and the driver addresses only the
//! attempt whose report it kept (the first per worker).
//!
//! # Discovery among running peers
//!
//! Algorithm 1's rounds ([`run_exchange`]) are the one exchange whose
//! peers run at once, so nobody can address them: receivers discover
//! copies (`await_copies`) by LIST polls with back-off, collapsed to one
//! copy per sender by a deterministic highest-attempt-wins rule. The
//! files carry the per-receiver byte offsets in their *name*
//! (`snd{p}a{attempt}.{rcv}_{len}...`), which lets a receiver turn one
//! LIST into ranged GETs without touching file contents (§4.4.3).
//!
//! Payloads are either real bytes (tests, small-scale validation) or
//! modeled sizes ([`PartData::Modeled`]) for paper-scale runs; modeled
//! bundle composition is carried by [`ExchangeSide`], a zero-cost
//! simulation side channel that stands in for the self-describing bundle
//! headers of real files.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Duration;

use lambada_format::binio::{BinReader, BinWriter};
use lambada_sim::services::object_store::{Body, Bytes, S3Client};
use lambada_sim::sync::{join_all, Semaphore};
use lambada_sim::SimHandle;

use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::exchange_cost::ExchangeAlgo;
use crate::routing::{kroot_ceil, Grid, HyperGrid};

/// One partition's payload.
#[derive(Clone, Debug, PartialEq)]
pub enum PartData {
    Real(Vec<u8>),
    Modeled(u64),
}

impl PartData {
    pub fn len(&self) -> u64 {
        match self {
            PartData::Real(b) => b.len() as u64,
            PartData::Modeled(n) => *n,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_real(&self) -> bool {
        matches!(self, PartData::Real(_))
    }
}

/// The exchange buckets: file names shard over `num_buckets` buckets to
/// spread S3's per-bucket request-rate limits (§4.4.1). This is all a
/// query reads of the exchange setup ([`crate::LambadaConfig::exchange`]);
/// Algorithm 1's rounds read it through [`ExchangeConfig::buckets`].
#[derive(Clone, Debug)]
pub struct ExchangeBuckets {
    pub num_buckets: usize,
}

/// What every exchange bucket's name starts with: bucket `i` is
/// `{EXCHANGE_BUCKET_PREFIX}-{i}`.
pub const EXCHANGE_BUCKET_PREFIX: &str = "lambada-x";

impl Default for ExchangeBuckets {
    fn default() -> Self {
        ExchangeBuckets { num_buckets: 16 }
    }
}

impl ExchangeBuckets {
    /// The bucket of sender (or sender group) `id`.
    pub fn bucket_of(&self, id: usize) -> String {
        format!("{EXCHANGE_BUCKET_PREFIX}-{}", id % self.num_buckets.max(1))
    }

    /// Create the buckets (installation time, free — §4.4.1).
    pub fn install(&self, cloud: &lambada_sim::Cloud) {
        for i in 0..self.num_buckets.max(1) {
            cloud.s3.create_bucket(&self.bucket_of(i));
        }
    }
}

/// Configuration of one Algorithm-1 exchange ([`run_exchange`]).
#[derive(Clone, Debug)]
pub struct ExchangeConfig {
    pub buckets: ExchangeBuckets,
    pub algo: ExchangeAlgo,
    pub write_combining: bool,
    /// Receiver LIST poll interval ("repeat a few times until they see
    /// the files produced by all senders").
    pub poll_interval: Duration,
    pub max_polls: usize,
    /// Namespaces the keys of one exchange execution.
    pub run_id: u64,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            buckets: ExchangeBuckets::default(),
            algo: ExchangeAlgo::TwoLevel,
            write_combining: true,
            poll_interval: Duration::from_millis(250),
            max_polls: 2400,
            run_id: 0,
        }
    }
}

/// Per-destination sizes of one bundle (destination, byte length).
pub(crate) type BundleSizes = Vec<(u32, u64)>;

/// Simulation side channel: bundle composition of modeled (synthetic)
/// files, keyed by `(bucket/key, receiver)`.
#[derive(Clone, Default)]
pub struct ExchangeSide {
    sections: Rc<RefCell<HashMap<(String, u32), BundleSizes>>>,
}

impl ExchangeSide {
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn put(&self, file: String, receiver: u32, parts: Vec<(u32, u64)>) {
        self.sections.borrow_mut().insert((file, receiver), parts);
    }

    pub(crate) fn get(&self, file: &str, receiver: u32) -> Vec<(u32, u64)> {
        self.sections.borrow().get(&(file.to_string(), receiver)).cloned().unwrap_or_default()
    }
}

/// Per-round timing, also recorded into the cloud trace as
/// `exchange_write` / `exchange_wait` / `exchange_read` spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundTiming {
    pub write_secs: f64,
    pub wait_secs: f64,
    pub read_secs: f64,
}

/// Outcome of one worker's participation in an exchange.
pub struct ExchangeOutcome {
    /// Parts received for this worker (all destined to it).
    pub received: Vec<(u32, PartData)>,
    pub rounds: Vec<RoundTiming>,
}

struct RoundPlan {
    targets: Vec<usize>,
    route: Box<dyn Fn(usize) -> usize>,
    senders: Vec<usize>,
    group_of: Box<dyn Fn(usize) -> usize>,
}

fn build_rounds(algo: ExchangeAlgo, p: usize, total: usize) -> Vec<RoundPlan> {
    match algo {
        ExchangeAlgo::OneLevel => vec![RoundPlan {
            targets: (0..total).collect(),
            route: Box::new(|dest| dest),
            senders: (0..total).collect(),
            group_of: Box::new(|_| 0),
        }],
        ExchangeAlgo::TwoLevel => {
            let g = Grid::new(total);
            vec![
                RoundPlan {
                    targets: g.round1_receivers(p),
                    route: Box::new(move |dest| g.round1_target(p, dest)),
                    senders: g.round1_senders(p),
                    group_of: Box::new(move |w| g.row(w)),
                },
                RoundPlan {
                    targets: g.round2_receivers(p),
                    route: Box::new(move |dest| dest),
                    senders: g.round2_senders(p),
                    group_of: Box::new(move |w| g.rows() + g.col(w)),
                },
            ]
        }
        ExchangeAlgo::ThreeLevel => {
            let h = HyperGrid::new(total, 3);
            (0..3u32)
                .map(|round| {
                    let j = h.round_digit(round);
                    RoundPlan {
                        targets: h.group(p, round),
                        route: Box::new(move |dest| h.target(p, dest, round)),
                        senders: h.group(p, round),
                        group_of: Box::new(move |w| {
                            // Canonical group id: zero out the routed digit.
                            w - h.digit(w, j) * h.side.pow(j)
                        }),
                    }
                })
                .collect()
        }
    }
}

/// Encode one receiver's bundle into a standalone [`Body`]: the
/// non-write-combined path, where every bundle becomes its own object.
pub fn encode_bundle(parts: &[(u32, PartData)]) -> Result<(Body, Option<BundleSizes>)> {
    let mut out = Vec::new();
    match encode_bundle_into(&mut out, parts)? {
        (_, None) => Ok((Body::from_vec(out), None)),
        (total, sizes) => Ok((Body::Synthetic(total), sizes)),
    }
}

/// Append one receiver's bundle as a section of a write-combined file,
/// reusing the caller's scratch buffer instead of allocating a fresh
/// `Vec` per bundle. Returns the section's modeled byte length and, for
/// bundles carrying any [`PartData::Modeled`] part, the per-destination
/// side sizes (in which case nothing is appended to `out` — the caller
/// accounts the section as synthetic).
pub fn encode_bundle_into(
    out: &mut Vec<u8>,
    parts: &[(u32, PartData)],
) -> Result<(u64, Option<BundleSizes>)> {
    let before = out.len();
    let mut w = BinWriter::from_vec(std::mem::take(out));
    w.varint(parts.len() as u64);
    for (dest, data) in parts {
        match data {
            PartData::Real(b) => {
                w.varint(u64::from(*dest));
                w.bytes(b);
            }
            // One modeled part makes the whole section synthetic: undo
            // what was appended and account sizes only.
            PartData::Modeled(_) => {
                *out = w.into_bytes();
                out.truncate(before);
                let total: u64 = parts.iter().map(|(_, d)| d.len() + 10).sum::<u64>() + 4;
                let sizes = parts.iter().map(|(dest, d)| (*dest, d.len())).collect();
                return Ok((total, Some(sizes)));
            }
        }
    }
    *out = w.into_bytes();
    Ok(((out.len() - before) as u64, None))
}

/// Decode one receiver's section of an exchange file — one bundle, or
/// several back to back (a sort-edge address spanning blocks) — back
/// into `(destination, payload)` parts; synthetic bodies reconstitute
/// from the side-channel `side_sizes`.
pub fn decode_bundle(body: Body, side_sizes: Vec<(u32, u64)>) -> Result<Vec<(u32, PartData)>> {
    match body {
        Body::Real(bytes) => {
            let mut r = BinReader::new(&bytes);
            let corrupt = |e: lambada_format::FormatError| CoreError::Format(e.to_string());
            // Pushed as they decode, never reserved from the claimed count.
            let mut out = Vec::new();
            while !r.is_exhausted() {
                for _ in 0..r.varint().map_err(corrupt)? {
                    let dest = u32::try_from(r.varint().map_err(corrupt)?)
                        .map_err(|_| CoreError::Format("destination past u32".to_string()))?;
                    out.push((dest, PartData::Real(r.bytes().map_err(corrupt)?.to_vec())));
                }
            }
            Ok(out)
        }
        Body::Synthetic(_) => {
            Ok(side_sizes.into_iter().map(|(d, l)| (d, PartData::Modeled(l))).collect())
        }
    }
}

/// Key of sender `sender`'s write-combined file under `prefix` (which
/// ends in `/`): `{prefix}snd{sender}a{attempt}`. The attempt id keeps a
/// speculative backup from overwriting or mixing with the original.
pub(crate) fn edge_key(prefix: &str, sender: usize, attempt: u32) -> String {
    format!("{prefix}snd{sender}a{attempt}")
}

/// [`edge_key`] with the per-receiver lengths in the name (§4.4.3
/// variant 2), for receivers that discover files by LIST:
/// `{prefix}snd{p}a{attempt}.{rcv}_{len}.{rcv}_{len}...`
fn wc_key(prefix: &str, sender: usize, attempt: u32, sections: &[(u32, u64)]) -> String {
    let mut name = edge_key(prefix, sender, attempt);
    for (rcv, len) in sections {
        name.push_str(&format!(".{rcv}_{len}"));
    }
    name
}

/// Parse an exchange key's last component — `snd{p}a{attempt}`, then
/// the name sections (none for the per-receiver keys of the
/// non-write-combined arm) — into sender id, attempt id and sections.
fn parse_key(key: &str) -> Result<(usize, u32, BundleSizes)> {
    let bad = || CoreError::Storage(format!("bad exchange key {key}"));
    let mut parts = key.rsplit('/').next().unwrap_or(key).split('.');
    let head = parts.next().and_then(|t| t.strip_prefix("snd")?.split_once('a'));
    let (snd, attempt) = head.ok_or_else(bad)?;
    let mut sections = Vec::new();
    for item in parts {
        let (rcv, len) = item.split_once('_').ok_or_else(bad)?;
        sections.push((rcv.parse().map_err(|_| bad())?, len.parse().map_err(|_| bad())?));
    }
    Ok((snd.parse().map_err(|_| bad())?, attempt.parse().map_err(|_| bad())?, sections))
}

/// `receiver`'s `(offset, len)` within a write-combined file, from the
/// sections its name carries; `None` when the file has no section for it.
fn section_of(sections: &[(u32, u64)], receiver: usize) -> Option<(u64, u64)> {
    let mut offset = 0u64;
    for &(rcv, len) in sections {
        if rcv as usize == receiver {
            return Some((offset, len));
        }
        offset += len;
    }
    None
}

/// **The one write.** Assemble one sender's write-combined file — one
/// bundle per receiver, back to back — and PUT it under `prefix` in
/// `bucket`: an object-store stage-edge send (all receivers), a direct
/// send's fallback (the receivers whose p2p links failed), a sort-edge
/// producer's blocks and each write-combined Algorithm-1 round. `entries`
/// must be sorted by receiver id; a receiver with no parts gets a
/// zero-length section (it learns there is nothing to fetch) and no
/// bytes. With `named`, the section lengths also ride in the key, for
/// receivers that discover the file by LIST. Returns the section table,
/// `(receiver, len)` in file order.
pub(crate) async fn put_combined(
    env: &WorkerEnv,
    side: &ExchangeSide,
    bucket: &str,
    prefix: &str,
    sender: usize,
    named: bool,
    entries: Vec<(u32, Vec<(u32, PartData)>)>,
) -> Result<BundleSizes> {
    let mut file_bytes: Vec<u8> = Vec::new();
    let mut synthetic_total = 0u64;
    let mut sections: BundleSizes = Vec::with_capacity(entries.len());
    let mut side_entries: Vec<(u32, BundleSizes)> = Vec::new();
    for (rcv, bundle) in entries {
        if bundle.is_empty() {
            sections.push((rcv, 0));
            continue;
        }
        let (len, sizes) = encode_bundle_into(&mut file_bytes, &bundle)?;
        sections.push((rcv, len));
        if let Some(sizes) = sizes {
            synthetic_total += len;
            side_entries.push((rcv, sizes));
        }
    }
    let key = if named {
        wc_key(prefix, sender, env.attempt, &sections)
    } else {
        edge_key(prefix, sender, env.attempt)
    };
    let body = if side_entries.is_empty() {
        Body::from_vec(file_bytes)
    } else {
        Body::Synthetic(synthetic_total + file_bytes.len() as u64)
    };
    for (rcv, sizes) in side_entries {
        side.put(format!("{bucket}/{key}"), rcv, sizes);
    }
    env.s3.put(bucket, &key, body).await?;
    Ok(sections)
}

/// Where a receiver looks for some of its senders: the files under
/// `prefix` (which ends in `/`) in `bucket`.
pub(crate) struct Place {
    pub bucket: String,
    pub prefix: String,
    /// The senders expected here.
    pub senders: Vec<usize>,
}

impl Place {
    /// Group `senders` by the `(bucket, prefix)` each one writes under,
    /// in order of first appearance — the order every poll visits them.
    pub(crate) fn group(
        senders: impl IntoIterator<Item = usize>,
        place_of: impl Fn(usize) -> (String, String),
    ) -> Vec<Place> {
        let mut places: Vec<Place> = Vec::new();
        for s in senders {
            let (bucket, prefix) = place_of(s);
            match places.iter_mut().find(|p| p.bucket == bucket && p.prefix == prefix) {
                Some(place) => place.senders.push(s),
                None => places.push(Place { bucket, prefix, senders: vec![s] }),
            }
        }
        places
    }
}

/// Side-channel key carrying the modeled-bundle composition of one p2p
/// message (the analogue of a store copy's `bucket/key`).
pub(crate) fn p2p_side_key(endpoint: &str, sender: usize, attempt: u32) -> String {
    format!("p2p/{endpoint}/snd{sender}a{attempt}")
}

/// Where a copy sits.
pub(crate) enum CopyAt {
    /// In the receiver's mailbox at this endpoint.
    Mailbox(Rc<str>),
    /// In the object store, at the receiver's `offset` within a
    /// write-combined file (`None`: the whole object is the receiver's).
    Store { bucket: String, key: String, offset: Option<u64> },
    /// In the receiver's invocation payload: the section's own bytes.
    Inline(Bytes),
}

/// One sender's copy of what it holds for this receiver.
pub(crate) struct Copy {
    pub sender: usize,
    pub attempt: u32,
    /// Bytes to fetch; zero announces an empty part.
    pub len: u64,
    pub at: CopyAt,
}

/// Discovery's dedup rule: keep the highest attempt per sender, so a
/// speculative backup's copy is never combined with its original's; the
/// first copy seen wins a tie. (An addressed stage edge needs no rule
/// here: the driver addresses the attempt whose report it kept.)
fn offer(best: &mut BTreeMap<usize, Copy>, copy: Copy) {
    let attempt = copy.attempt;
    match best.get(&copy.sender) {
        Some(cur) if cur.attempt >= attempt => {}
        _ => {
            best.insert(copy.sender, copy);
        }
    }
}

fn complete(place: &Place, best: &BTreeMap<usize, Copy>) -> bool {
    place.senders.iter().all(|s| best.contains_key(s))
}

/// One discovery pass: one LIST of every place that still misses a
/// sender. The LISTs of a pass are in flight together (one first-byte
/// latency, not one per bucket) and their listings are offered in place
/// order, so the copies chosen are those of a one-by-one pass; the first
/// failed listing in place order is the error. `section_for` names the
/// receiver whose section of each write-combined file is the copy (a
/// file without one is no copy of anything for it); `None` takes whole
/// objects.
pub(crate) async fn discover(
    handle: &SimHandle,
    s3: &S3Client,
    places: &[Place],
    section_for: Option<usize>,
    best: &mut BTreeMap<usize, Copy>,
) -> Result<()> {
    let mut listings = Vec::new();
    for place in places.iter().filter(|p| !complete(p, best)) {
        let (s3, bucket, prefix) = (s3.clone(), place.bucket.clone(), place.prefix.clone());
        listings.push((place, handle.spawn(async move { s3.list(&bucket, &prefix).await })));
    }
    for (place, listing) in listings {
        for (key, size) in listing.await? {
            let (sender, attempt, sections) = parse_key(&key)?;
            let (offset, len) = match section_for {
                None => (None, size),
                Some(receiver) => match section_of(&sections, receiver) {
                    Some((offset, len)) => (Some(offset), len),
                    None => continue,
                },
            };
            let at = CopyAt::Store { bucket: place.bucket.clone(), key, offset };
            offer(best, Copy { sender, attempt, len, at });
        }
    }
    Ok(())
}

/// **The one wait**, for Algorithm 1's peers, which run at once: poll
/// until every sender of every place has a copy — one [`discover`] pass
/// per round — then back off, or time out with the number of senders
/// still missing. Returns one copy per expected sender in sender order.
pub(crate) async fn await_copies(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    places: &[Place],
    section_for: Option<usize>,
) -> Result<Vec<Copy>> {
    let wait_start = env.cloud.handle.now();
    let mut best = BTreeMap::new();
    let mut polls = 0usize;
    loop {
        discover(&env.cloud.handle, &env.s3, places, section_for, &mut best).await?;
        if places.iter().all(|p| complete(p, &best)) {
            let mut copies: Vec<Copy> =
                places.iter().flat_map(|p| &p.senders).filter_map(|s| best.remove(s)).collect();
            copies.sort_by_key(|c| c.sender);
            return Ok(copies);
        }
        polls += 1;
        if polls >= cfg.max_polls {
            return Err(CoreError::Timeout {
                waited_secs: (env.cloud.handle.now() - wait_start).as_secs_f64(),
                missing_workers: places
                    .iter()
                    .flat_map(|p| &p.senders)
                    .filter(|s| !best.contains_key(s))
                    .count(),
            });
        }
        env.cloud.handle.sleep(backoff(cfg.poll_interval, polls)).await;
    }
}

/// **The one fetch.** One task per non-empty copy, in `copies` order, 16
/// connections at a time: a p2p fetch from the mailbox, a ranged/whole
/// GET, or nothing for an inline copy, then [`decode_bundle`]. Returns
/// the fetched copies' parts, in `copies` order.
pub(crate) async fn fetch_copies(
    env: &WorkerEnv,
    side: &ExchangeSide,
    receiver: usize,
    copies: Vec<Copy>,
) -> Result<Vec<(u32, PartData)>> {
    let conn = Semaphore::new(16);
    let receiver = receiver as u32;
    let mut fetches = Vec::new();
    for copy in copies {
        if copy.len == 0 {
            continue; // empty part: announced, never fetched, omitted
        }
        let env2 = env.clone();
        let conn2 = conn.clone();
        let side2 = side.clone();
        fetches.push(env.cloud.handle.spawn(async move {
            let _permit = conn2.acquire(1).await;
            match copy.at {
                CopyAt::Mailbox(endpoint) => {
                    let body = env2
                        .p2p
                        .fetch(&endpoint, copy.sender as u32, copy.attempt)
                        .await
                        .map_err(|e| CoreError::Storage(e.to_string()))?;
                    let sizes =
                        side2.get(&p2p_side_key(&endpoint, copy.sender, copy.attempt), receiver);
                    decode_bundle(body, sizes)
                }
                CopyAt::Store { bucket, key, offset } => {
                    let body = match offset {
                        Some(off) => env2.s3.get_range(&bucket, &key, off, copy.len).await?,
                        None => env2.s3.get(&bucket, &key).await?,
                    };
                    decode_bundle(body, side2.get(&format!("{bucket}/{key}"), receiver))
                }
                CopyAt::Inline(bytes) => decode_bundle(Body::Real(bytes), vec![]),
            }
        }));
    }
    let fetched = join_all(fetches).await.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(fetched.into_iter().flatten().collect())
}

/// Exponential poll backoff (capped at 8x) keeps the LIST count per
/// worker at "a few" even when stragglers stretch the wait (Table 2's
/// O(P) #lists).
fn backoff(base: Duration, polls: usize) -> Duration {
    let factor = 1u32 << polls.min(3);
    base * factor
}

/// Run worker `p`'s side of the exchange among `total` workers.
/// `parts[d]` is the data this worker holds for final partition `d`; a
/// worker outside the exchange, a part list of another length, or a
/// three-level exchange whose fleet is not a perfect cube
/// ([`HyperGrid`]) is a typed error.
pub async fn run_exchange(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    p: usize,
    total: usize,
    parts: Vec<PartData>,
    side: &ExchangeSide,
) -> Result<ExchangeOutcome> {
    if p >= total || parts.len() != total {
        let held = parts.len();
        let task = format!("worker {p} holding {held} parts of a {total}-worker exchange");
        return Err(CoreError::Engine(task));
    }
    if cfg.algo == ExchangeAlgo::ThreeLevel && kroot_ceil(total, 3).pow(3) != total {
        let fleet = format!("worker {p} of a {total}-worker exchange: three levels need a cube");
        return Err(CoreError::Engine(fleet));
    }
    let conn = Semaphore::new(16);
    let mut held: Vec<(u32, PartData)> =
        parts.into_iter().enumerate().map(|(d, data)| (d as u32, data)).collect();
    let rounds = build_rounds(cfg.algo, p, total);
    let mut timings = Vec::with_capacity(rounds.len());

    for (round_idx, round) in rounds.iter().enumerate() {
        // In-memory partitioning of everything currently held (Alg 1 l.2).
        let held_bytes: u64 = held.iter().map(|(_, d)| d.len()).sum();
        env.compute(env.costs.partition_seconds(held_bytes)).await;
        // Keyed in target order: the write phase below walks this map,
        // and PUT issue order decides who queues on the connection
        // semaphore — it must not vary run to run.
        let mut bundles: BTreeMap<usize, Vec<(u32, PartData)>> =
            round.targets.iter().map(|&t| (t, Vec::new())).collect();
        for (dest, data) in held.drain(..) {
            let target = (round.route)(dest as usize);
            bundles
                .get_mut(&target)
                .ok_or_else(|| {
                    CoreError::Storage(format!("route produced non-target worker {target}"))
                })?
                .push((dest, data));
        }
        for b in bundles.values_mut() {
            b.sort_by_key(|(d, _)| *d);
        }
        // Write-combined files live under their sender's group prefix,
        // one object per receiver under the receiver's own.
        let group_place = |s: usize| {
            let gid = (round.group_of)(s);
            (cfg.buckets.bucket_of(gid), format!("x{}/r{round_idx}/g{gid}/", cfg.run_id))
        };

        // ---- Write phase -------------------------------------------------
        let write_start = env.cloud.handle.now();
        if cfg.write_combining {
            let (bucket, prefix) = group_place(p);
            let entries = bundles.into_iter().map(|(rcv, b)| (rcv as u32, b)).collect();
            put_combined(env, side, &bucket, &prefix, p, true, entries).await?;
        } else {
            let mut puts = Vec::new();
            for (&target, bundle) in &bundles {
                let (body, sizes) = encode_bundle(bundle)?;
                let key =
                    format!("x{}/r{round_idx}/rcv{target}/snd{p}a{}", cfg.run_id, env.attempt);
                let bucket = cfg.buckets.bucket_of(target);
                if let Some(sizes) = sizes {
                    side.put(format!("{bucket}/{key}"), target as u32, sizes);
                }
                let env2 = env.clone();
                let conn2 = conn.clone();
                puts.push(env.cloud.handle.spawn(async move {
                    let _permit = conn2.acquire(1).await;
                    env2.s3.put(&bucket, &key, body).await
                }));
            }
            for r in join_all(puts).await {
                r?;
            }
        }
        let write_end = env.cloud.handle.now();
        env.cloud.trace.record(p as u64, "exchange_write", write_start, write_end);

        // ---- Wait phase (LIST polling) ------------------------------------
        let (places, section_for) = if cfg.write_combining {
            (Place::group(round.senders.iter().copied(), group_place), Some(p))
        } else {
            let bucket = cfg.buckets.bucket_of(p);
            let prefix = format!("x{}/r{round_idx}/rcv{p}/", cfg.run_id);
            (vec![Place { bucket, prefix, senders: round.senders.clone() }], None)
        };
        let copies = await_copies(env, cfg, &places, section_for).await?;
        let wait_end = env.cloud.handle.now();
        env.cloud.trace.record(p as u64, "exchange_wait", write_end, wait_end);

        // ---- Read phase ----------------------------------------------------
        held.extend(fetch_copies(env, side, p, copies).await?);
        let read_end = env.cloud.handle.now();
        env.cloud.trace.record(p as u64, "exchange_read", wait_end, read_end);

        timings.push(RoundTiming {
            write_secs: (write_end - write_start).as_secs_f64(),
            wait_secs: (wait_end - write_end).as_secs_f64(),
            read_secs: (read_end - wait_end).as_secs_f64(),
        });
    }

    Ok(ExchangeOutcome { received: held, rounds: timings })
}

#[cfg(test)]
mod tests {
    use lambada_sim::{secs, Cloud, CloudConfig, Simulation};

    use super::*;
    use crate::costmodel::ComputeCostModel;
    use crate::wire_fuzz::{sweep, Damage};

    const CHANNEL: &str = "x9/q0/s0";

    /// The files of one channel of an Algorithm-1 exchange.
    struct Channel {
        cfg: ExchangeConfig,
        side: ExchangeSide,
    }

    impl Channel {
        /// Where sender `sender`'s file goes: sharded over the buckets by
        /// sender id.
        fn place_of(&self, sender: usize) -> (String, String) {
            (self.cfg.buckets.bucket_of(sender), format!("{CHANNEL}/"))
        }
    }

    /// `num_buckets` buckets, polled every 10 ms at most `max_polls` times.
    fn polling(num_buckets: usize, max_polls: usize) -> ExchangeConfig {
        ExchangeConfig {
            buckets: ExchangeBuckets { num_buckets, ..ExchangeBuckets::default() },
            poll_interval: Duration::from_millis(10),
            max_polls,
            ..ExchangeConfig::default()
        }
    }

    /// A cloud with `cfg`'s buckets, and a channel under them.
    fn channel(cfg: ExchangeConfig) -> (Simulation, Cloud, Channel) {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        cfg.buckets.install(&cloud);
        (sim, cloud, Channel { cfg, side: ExchangeSide::new() })
    }

    fn worker(cloud: &Cloud, id: u64, attempt: u32) -> WorkerEnv {
        let mut env = WorkerEnv::bare(cloud, id, 2048, ComputeCostModel::default());
        env.attempt = attempt;
        env
    }

    fn real(bytes: &[u8]) -> PartData {
        PartData::Real(bytes.to_vec())
    }

    /// Sender `sender`'s named file holding `payload` for `receiver`: an
    /// Algorithm-1 file with its section lengths in the key.
    async fn put_file(t: &Channel, env: &WorkerEnv, sender: usize, receiver: u32, payload: &[u8]) {
        let bundles = vec![(receiver, vec![(receiver, real(payload))])];
        let (bucket, prefix) = t.place_of(sender);
        put_combined(env, &t.side, &bucket, &prefix, sender, true, bundles).await.unwrap();
    }

    /// A discovery pass LISTs every incomplete bucket at once: with eight
    /// senders on eight buckets already written, discovery costs about one
    /// first-byte latency, not eight, and spends the LISTs and chooses the
    /// copies of a pass that visits the buckets one by one.
    #[test]
    fn a_discovery_pass_lists_all_buckets_in_one_round() {
        let (sim, cloud, t) = channel(polling(8, 50));
        let ttfb = cloud.config.s3.ttfb_median.as_secs_f64();
        let chosen = |best: &BTreeMap<usize, Copy>| -> Vec<(usize, u32, u64, String)> {
            let key = |c: &Copy| match &c.at {
                CopyAt::Store { bucket, key, .. } => format!("{bucket}/{key}"),
                CopyAt::Mailbox(endpoint) => endpoint.to_string(),
                CopyAt::Inline(_) => "inline".to_string(),
            };
            best.values().map(|c| (c.sender, c.attempt, c.len, key(c))).collect()
        };
        sim.block_on({
            let cloud = cloud.clone();
            async move {
                // Senders 2 and 5 were speculated against: two files each.
                for s in 0..8 {
                    put_file(&t, &worker(&cloud, s as u64, 0), s, 0, &[s as u8; 16]).await;
                }
                for s in [2, 5] {
                    let env = worker(&cloud, s as u64, 1);
                    put_file(&t, &env, s, 0, &[0xB0 | s as u8; 24]).await;
                }
                let places = Place::group(0..8, |s| t.place_of(s));
                assert_eq!(places.len(), 8, "one bucket per sender");
                let (handle, s3) = (&cloud.handle, worker(&cloud, 10, 0).s3);

                let start = handle.now();
                let mut one_by_one = BTreeMap::new();
                for place in &places {
                    let place = std::slice::from_ref(place);
                    discover(handle, &s3, place, Some(0), &mut one_by_one).await.unwrap();
                }
                let serial_secs = (handle.now() - start).as_secs_f64();
                let lists = s3.tally().list_units;

                let start = handle.now();
                let mut together = BTreeMap::new();
                discover(handle, &s3, &places, Some(0), &mut together).await.unwrap();
                let round_secs = (handle.now() - start).as_secs_f64();
                let spent = s3.tally().list_units - lists;
                assert_eq!((spent, lists), (8, 8));
                assert_eq!(chosen(&together), chosen(&one_by_one));
                assert_eq!(together[&2].attempt, 1, "the backup's file wins");
                assert!(serial_secs > 6.0 * ttfb, "one by one: {serial_secs} s");
                assert!(round_secs < 2.5 * ttfb, "one round: {round_secs} s");
            }
        });
    }

    /// The out-of-order attempts a discovery can see: a receiver
    /// starts waiting before anything is written, so its first pass finds
    /// an empty prefix and it keeps polling; the speculative attempt-1
    /// file then lands first and the straggling attempt-0 original later.
    /// The wait returns exactly one copy, attempt 1's.
    #[test]
    fn discovery_keeps_the_highest_attempt_when_attempts_land_out_of_order() {
        let (sim, cloud, t) = channel(ExchangeConfig::default());
        let t = Rc::new(t);
        let (parts, lists, waited) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let waiting = cloud.handle.spawn({
                    let (cloud, t) = (cloud.clone(), Rc::clone(&t));
                    async move {
                        let env = worker(&cloud, 10, 0);
                        let places = Place::group(0..1, |s| t.place_of(s));
                        let copies = await_copies(&env, &t.cfg, &places, Some(0)).await?;
                        let waited = env.cloud.handle.now().as_secs_f64();
                        let lists = env.tally().list_units;
                        let parts = fetch_copies(&env, &t.side, 0, copies).await?;
                        Ok::<_, CoreError>((parts, lists, waited))
                    }
                });
                // Let the first discovery pass find nothing.
                cloud.handle.sleep(secs(0.7)).await;
                for (attempt, payload) in [(1, b"attempt-one-wins"), (0, b"attempt-zero-old")] {
                    put_file(&t, &worker(&cloud, 0, attempt), 0, 0, payload).await;
                }
                waiting.await.unwrap()
            }
        });
        assert!(waited > 0.7 && lists > 1, "the receiver really waited: {waited} s, {lists} LISTs");
        assert_eq!(parts, vec![(0, real(b"attempt-one-wins"))]);
    }

    /// Discovery of named (Algorithm-1) files: a listed file with no
    /// section for this receiver is not a copy, so its sender stays
    /// missing and the timeout says so.
    #[test]
    fn a_file_without_the_receivers_section_leaves_its_sender_missing() {
        let (sim, cloud, t) = channel(polling(1, 6));
        let err = sim.block_on(async move {
            put_file(&t, &worker(&cloud, 0, 0), 0, 0, b"mine").await;
            put_file(&t, &worker(&cloud, 1, 0), 1, 1, b"someone else's").await;
            let places = Place::group(0..2, |s| t.place_of(s));
            await_copies(&worker(&cloud, 10, 0), &t.cfg, &places, Some(0)).await.err()
        });
        assert!(matches!(err, Some(CoreError::Timeout { missing_workers: 1, .. })), "{err:?}");
    }

    /// A key parses back into what [`wc_key`] or [`edge_key`] put in it;
    /// anything else — no attempt, a section without its length, a
    /// non-number — is a typed error.
    #[test]
    fn keys_parse_back_and_malformed_keys_are_errors() {
        let key = wc_key("x1/r0/g0/", 12, 3, &[(0, 5), (2, 7)]);
        assert_eq!(parse_key(&key).unwrap(), (12, 3, vec![(0, 5), (2, 7)]));
        assert_eq!(parse_key(&edge_key("x1/r0/rcv2/", 4, 0)).unwrap(), (4, 0, vec![]));
        for bad in ["x1/snd4", "x1/rcv4a0", "x1/snd4a0.2", "x1/snd4ax", "x1/snd4a0.2_x"] {
            assert!(matches!(parse_key(bad), Err(CoreError::Storage(_))), "{bad}");
        }
    }

    /// Bytes on the wire, the offsets at which a bundle in them ends, and
    /// the parts they decode to.
    type OnWire = (Vec<u8>, Vec<usize>, Vec<(u32, PartData)>);

    /// Bundles as a wire carries them: one part, many parts (an empty one
    /// among them), two bundles back to back (as a sort-edge address spans
    /// blocks) and an empty bundle.
    fn wire_bundles() -> Vec<OnWire> {
        let one = vec![(3, real(b"one part"))];
        let many: Vec<(u32, PartData)> =
            (0..9).map(|d| (d * 37, real(&vec![d as u8; d as usize * 29]))).collect();
        let (first, second) = (vec![(0, real(&[7; 200]))], vec![(1, real(b"xy")), (2, real(b""))]);
        let encoded = |bundles: &[&[(u32, PartData)]]| {
            let (mut out, mut ends) = (Vec::new(), Vec::new());
            for bundle in bundles {
                encode_bundle_into(&mut out, bundle).unwrap();
                ends.push(out.len());
            }
            (out, ends)
        };
        let with = |(bytes, ends): (Vec<u8>, Vec<usize>), parts| (bytes, ends, parts);
        vec![
            with(encoded(&[&one]), one.clone()),
            with(encoded(&[&many]), many.clone()),
            with(encoded(&[&first, &second]), [first.clone(), second.clone()].concat()),
            with(encoded(&[&[]]), Vec::new()),
        ]
    }

    fn decoded(bytes: &[u8]) -> Result<Vec<(u32, PartData)>> {
        decode_bundle(Body::from_vec(bytes.to_vec()), Vec::new())
    }

    /// Every truncation and every single-bit flip of a bundle on the wire
    /// decodes or is a typed format error, never a panic; a cut decodes
    /// only where a bundle ends (or at nothing), to the bundles before it.
    #[test]
    fn every_cut_or_flipped_bundle_decodes_or_is_a_format_error() {
        for (bytes, ends, parts) in wire_bundles() {
            assert_eq!(decoded(&bytes).unwrap(), parts);
            let mut errors = 0;
            sweep(&bytes, |damage, damaged| match (damage, decoded(damaged)) {
                (Damage::Cut(cut), Ok(got)) => {
                    assert!(cut == 0 || ends.contains(&cut), "a cut at {cut} decoded");
                    assert_eq!(got, parts[..got.len()], "cut at {cut}");
                }
                (Damage::Flip(_), Ok(_)) | (Damage::Cut(_), Err(CoreError::Format(_))) => {}
                (Damage::Flip(_), Err(CoreError::Format(_))) => errors += 1,
                (damage, Err(e)) => panic!("{damage:?}: {e}"),
            });
            assert!(errors > 0, "some flips break the structure");
        }
    }

    /// Lengths and counts are claims, not allocations: a part claiming
    /// 2^40 bytes, or a bundle claiming 2^60 parts, over a handful of real
    /// bytes is a format error, found without reserving what it claims.
    #[test]
    fn lying_bundle_lengths_are_format_errors_without_allocating() {
        let mut w = BinWriter::new();
        w.varint(1);
        w.varint(4);
        w.varint(1 << 40);
        w.raw(&[1, 2, 3]);
        assert!(matches!(decoded(&w.into_bytes()), Err(CoreError::Format(_))));

        let mut w = BinWriter::new();
        w.varint(1 << 60);
        w.varint(4);
        w.bytes(&[1, 2, 3]);
        assert!(matches!(decoded(&w.into_bytes()), Err(CoreError::Format(_))));

        // The second of two back-to-back bundles lies.
        let (mut bytes, _) = encode_bundle(&[(0, real(b"fine"))]).unwrap();
        let mut w = BinWriter::from_vec(bytes.as_real().unwrap().to_vec());
        w.varint(2);
        w.varint(1);
        w.varint(1 << 40);
        bytes = Body::from_vec(w.into_bytes());
        assert!(matches!(decode_bundle(bytes, Vec::new()), Err(CoreError::Format(_))));
    }

    /// A destination past `u32` is an error, not a wrap onto receiver
    /// `dest mod 2^32`.
    #[test]
    fn a_destination_past_u32_is_an_error() {
        let parts = [(3, PartData::Real(vec![1, 2]))];
        let (body, _) = encode_bundle(&parts).unwrap();
        let decoded = decode_bundle(body, Vec::new()).unwrap();
        assert_eq!(decoded, parts);
        let mut w = BinWriter::new();
        w.varint(1);
        w.varint((1 << 32) + 3);
        w.bytes(&[1, 2]);
        let err = decode_bundle(Body::from_vec(w.into_bytes()), Vec::new()).unwrap_err();
        assert!(matches!(&err, CoreError::Format(m) if m.contains("destination")), "{err}");
    }
}
