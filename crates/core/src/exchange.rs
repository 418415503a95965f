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
use crate::message::Wire;
use crate::routing::{Grid, HyperGrid};

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

/// Exchange operator configuration.
#[derive(Clone, Debug)]
pub struct ExchangeConfig {
    pub algo: ExchangeAlgo,
    pub write_combining: bool,
    /// Buckets to shard file names over (created at installation time).
    pub num_buckets: usize,
    pub bucket_prefix: String,
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
            algo: ExchangeAlgo::TwoLevel,
            write_combining: true,
            num_buckets: 16,
            bucket_prefix: "lambada-x".to_string(),
            poll_interval: Duration::from_millis(250),
            max_polls: 2400,
            run_id: 0,
        }
    }
}

impl ExchangeConfig {
    pub fn bucket_of(&self, id: usize) -> String {
        format!("{}-{}", self.bucket_prefix, id % self.num_buckets.max(1))
    }
}

/// Create the exchange buckets (installation time, free — §4.4.1).
pub fn install_exchange_buckets(cloud: &lambada_sim::Cloud, cfg: &ExchangeConfig) {
    for i in 0..cfg.num_buckets.max(1) {
        cloud.s3.create_bucket(&format!("{}-{i}", cfg.bucket_prefix));
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

/// Parse `snd{p}` or `snd{p}a{attempt}` (a bare suffix is attempt 0).
fn parse_sender_attempt(token: &str, key: &str) -> Result<(usize, u32)> {
    let body = token
        .strip_prefix("snd")
        .ok_or_else(|| CoreError::Storage(format!("bad exchange key {key}")))?;
    let (snd, attempt) =
        match body.split_once('a') {
            Some((s, a)) => (
                s.parse::<usize>().ok(),
                Some(a.parse::<u32>().map_err(|_| {
                    CoreError::Storage(format!("bad attempt in exchange key {key}"))
                })?),
            ),
            None => (body.parse::<usize>().ok(), Some(0)),
        };
    match (snd, attempt) {
        (Some(s), Some(a)) => Ok((s, a)),
        _ => Err(CoreError::Storage(format!("bad exchange key {key}"))),
    }
}

/// Parse an exchange key into sender id, attempt id and name sections
/// (none for the per-receiver keys of the non-write-combined arm).
fn parse_wc_sections(key: &str) -> Result<(usize, u32, BundleSizes)> {
    let tail = key
        .rsplit('/')
        .next()
        .ok_or_else(|| CoreError::Storage(format!("bad exchange key {key}")))?;
    let mut parts = tail.split('.');
    let (snd, attempt) = parse_sender_attempt(
        parts.next().ok_or_else(|| CoreError::Storage(format!("bad exchange key {key}")))?,
        key,
    )?;
    let mut sections = Vec::new();
    for item in parts {
        let (rcv, len) = item
            .split_once('_')
            .ok_or_else(|| CoreError::Storage(format!("bad section in key {key}")))?;
        let rcv = rcv.parse::<u32>().map_err(|_| CoreError::Storage(format!("bad key {key}")))?;
        let len = len.parse::<u64>().map_err(|_| CoreError::Storage(format!("bad key {key}")))?;
        sections.push((rcv, len));
    }
    Ok((snd, attempt, sections))
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
/// receivers that discover the file by LIST. Returns the bytes written,
/// the section table, `(receiver, len)` in file order, and the PUT's
/// hedges.
pub(crate) async fn put_combined(
    env: &WorkerEnv,
    side: &ExchangeSide,
    bucket: &str,
    prefix: &str,
    sender: usize,
    named: bool,
    entries: Vec<(u32, Vec<(u32, PartData)>)>,
) -> Result<(u64, BundleSizes, u64)> {
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
    let written = body.len();
    for (rcv, sizes) in side_entries {
        side.put(format!("{bucket}/{key}"), rcv, sizes);
    }
    let hedges = env.s3.put(bucket, &key, body).await?.hedges;
    Ok((written, sections, hedges))
}

/// Request accounting of one stage-edge receive
/// ([`crate::transport::EdgeTransport::recv`], with or without a
/// mailbox). The driver addresses every receiver, so a receive lists
/// nothing and waits for nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeReadStats {
    pub get_requests: u64,
    /// Duplicates of late GETs, billed beside `get_requests`.
    pub hedged_gets: u64,
    pub bytes_read: u64,
    /// Messages fetched over the p2p relay instead of the object store
    /// (always 0 on the object-store transport).
    pub p2p_requests: u64,
    /// Payload bytes received over the p2p relay.
    pub p2p_bytes: u64,
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
/// objects. Returns the LISTs spent.
pub(crate) async fn discover(
    handle: &SimHandle,
    s3: &S3Client,
    places: &[Place],
    section_for: Option<usize>,
    best: &mut BTreeMap<usize, Copy>,
) -> Result<u64> {
    let mut listings = Vec::new();
    for place in places.iter().filter(|p| !complete(p, best)) {
        let (s3, bucket, prefix) = (s3.clone(), place.bucket.clone(), place.prefix.clone());
        listings.push((place, handle.spawn(async move { s3.list(&bucket, &prefix).await })));
    }
    let lists = listings.len() as u64;
    for (place, listing) in listings {
        for (key, size) in listing.await? {
            let (sender, attempt, sections) = parse_wc_sections(&key)?;
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
    Ok(lists)
}

/// **The one wait**, for Algorithm 1's peers, which run at once: poll
/// until every sender of every place has a copy — one [`discover`] pass
/// per round — then back off, or time out with the number of senders
/// still missing. Returns one copy per expected sender in sender order,
/// and the LISTs spent.
pub(crate) async fn await_copies(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    places: &[Place],
    section_for: Option<usize>,
) -> Result<(Vec<Copy>, u64)> {
    let wait_start = env.cloud.handle.now();
    let mut best = BTreeMap::new();
    let (mut lists, mut polls) = (0u64, 0usize);
    loop {
        lists += discover(&env.cloud.handle, &env.s3, places, section_for, &mut best).await?;
        if places.iter().all(|p| complete(p, &best)) {
            let mut copies: Vec<Copy> =
                places.iter().flat_map(|p| &p.senders).filter_map(|s| best.remove(s)).collect();
            copies.sort_by_key(|c| c.sender);
            return Ok((copies, lists));
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
/// GET, or nothing for an inline copy, then [`decode_bundle`]. Returns,
/// per fetched copy, the wire it came over, its parts and the GET's
/// hedges.
pub(crate) async fn fetch_copies(
    env: &WorkerEnv,
    side: &ExchangeSide,
    receiver: usize,
    copies: Vec<Copy>,
) -> Result<Vec<(Wire, Vec<(u32, PartData)>, u64)>> {
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
                        .p2p()
                        .fetch(&endpoint, copy.sender as u32, copy.attempt)
                        .await
                        .map_err(|e| CoreError::Storage(e.to_string()))?;
                    let sizes =
                        side2.get(&p2p_side_key(&endpoint, copy.sender, copy.attempt), receiver);
                    Ok((Wire::Mailbox, decode_bundle(body, sizes)?, 0))
                }
                CopyAt::Store { bucket, key, offset } => {
                    let got = match offset {
                        Some(off) => env2.s3.get_range(&bucket, &key, off, copy.len).await?,
                        None => env2.s3.get(&bucket, &key).await?,
                    };
                    let sizes = side2.get(&format!("{bucket}/{key}"), receiver);
                    Ok((Wire::File, decode_bundle(got.value, sizes)?, got.hedges))
                }
                CopyAt::Inline(bytes) => {
                    Ok((Wire::Inline, decode_bundle(Body::Real(bytes), vec![])?, 0))
                }
            }
        }));
    }
    join_all(fetches).await.into_iter().collect()
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
/// worker outside the exchange, or a part list of another length, is a
/// typed error.
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
            (cfg.bucket_of(gid), format!("x{}/r{round_idx}/g{gid}/", cfg.run_id))
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
                let bucket = cfg.bucket_of(target);
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
            let bucket = cfg.bucket_of(p);
            let prefix = format!("x{}/r{round_idx}/rcv{p}/", cfg.run_id);
            (vec![Place { bucket, prefix, senders: round.senders.clone() }], None)
        };
        let (copies, _) = await_copies(env, cfg, &places, section_for).await?;
        let wait_end = env.cloud.handle.now();
        env.cloud.trace.record(p as u64, "exchange_wait", write_end, wait_end);

        // ---- Read phase ----------------------------------------------------
        for (_, parts, _) in fetch_copies(env, side, p, copies).await? {
            held.extend(parts);
        }
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
    use super::*;

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
