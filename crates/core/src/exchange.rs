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
//! ([`crate::transport::ObjectStoreTransport`]): write-combined
//! shuffles where the producer and consumer are different worker fleets
//! (scan → join, scan/join → agg-merge). Every stage-edge key lives
//! under a caller-supplied `channel` prefix of the form
//!
//! ```text
//! x{instance}/q{query}/s{stage}/snd{sender}a{attempt}.{rcv}_{len}...
//! ```
//!
//! where `instance` is the process-unique installation id, `query` the
//! installation's query sequence number, and `stage` the producer's DAG
//! index. Receivers LIST-poll exactly this prefix, so two concurrent
//! installations (or two concurrent queries of one installation) with
//! identical DAG shapes can never read each other's shuffle files —
//! isolation is part of the key, not a runtime check. The per-receiver
//! byte offsets ride in the file *name* (the `.{rcv}_{len}` sections),
//! which is what lets a receiver turn one LIST into ranged GETs without
//! touching file contents (§4.4.3).
//!
//! The `a{attempt}` component makes the exchange *duplicate-tolerant*:
//! when the driver speculatively re-invokes a straggling producer, the
//! backup writes a fresh file under the next attempt id instead of
//! overwriting the original's. Receivers collapse the listing to one
//! file per sender with a deterministic highest-attempt-wins rule, so
//! sections of different attempts are never combined and duplicate
//! files from one sender never satisfy the wait for another.
//!
//! Payloads are either real bytes (tests, small-scale validation) or
//! modeled sizes ([`PartData::Modeled`]) for paper-scale runs; modeled
//! bundle composition is carried by [`ExchangeSide`], a zero-cost
//! simulation side channel that stands in for the self-describing bundle
//! headers of real files.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Duration;

use lambada_format::binio::{BinReader, BinWriter};
use lambada_sim::services::object_store::Body;
use lambada_sim::sync::{join_all, Semaphore};
use lambada_sim::SimTime;

use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::exchange_cost::ExchangeAlgo;
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

/// Decode one receiver's section of an exchange file back into
/// `(destination, payload)` parts; synthetic bodies reconstitute from
/// the side-channel `side_sizes`.
pub fn decode_bundle(body: Body, side_sizes: Vec<(u32, u64)>) -> Result<Vec<(u32, PartData)>> {
    match body {
        Body::Real(bytes) => {
            let mut r = BinReader::new(&bytes);
            let n = r.varint().map_err(|e| CoreError::Format(e.to_string()))?;
            let mut out = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let dest = r.varint().map_err(|e| CoreError::Format(e.to_string()))? as u32;
                let data = r.bytes().map_err(|e| CoreError::Format(e.to_string()))?.to_vec();
                out.push((dest, PartData::Real(data)));
            }
            Ok(out)
        }
        Body::Synthetic(_) => {
            Ok(side_sizes.into_iter().map(|(d, l)| (d, PartData::Modeled(l))).collect())
        }
    }
}

/// Offsets encoded into write-combined file names (§4.4.3 variant 2),
/// extended with the sender's attempt id so speculative backup workers
/// never overwrite or get mixed with the original's file:
/// `snd{p}a{attempt}.{rcv}_{len}.{rcv}_{len}...`
fn wc_name(
    run: u64,
    round: usize,
    group: usize,
    sender: usize,
    attempt: u32,
    sections: &[(u32, u64)],
) -> String {
    wc_key(&format!("x{run}/r{round}/g{group}"), sender, attempt, sections)
}

/// Same name scheme under an arbitrary prefix (stage-edge exchanges).
pub(crate) fn wc_key(prefix: &str, sender: usize, attempt: u32, sections: &[(u32, u64)]) -> String {
    let mut name = format!("{prefix}/snd{sender}a{attempt}");
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

/// A parsed write-combined key: sender id, attempt id, name sections.
pub(crate) type ParsedWcKey = (usize, u32, BundleSizes);

pub(crate) fn parse_wc_sections(key: &str) -> Result<ParsedWcKey> {
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

/// Collapse a listing to one file per sender with a deterministic
/// highest-attempt-wins rule, so a speculative backup's re-written
/// shuffle file can never be combined with the original's. Sections are
/// per-file, so whichever attempt wins is read self-consistently.
pub(crate) fn dedupe_listing(
    listing: &[(String, u64)],
) -> Result<HashMap<usize, (u32, String, BundleSizes)>> {
    let mut found: HashMap<usize, (u32, String, BundleSizes)> = HashMap::new();
    for (key, _) in listing {
        let (snd, attempt, sections) = parse_wc_sections(key)?;
        match found.get(&snd) {
            Some((best, _, _)) if *best >= attempt => {}
            _ => {
                found.insert(snd, (attempt, key.clone(), sections));
            }
        }
    }
    Ok(found)
}

/// Run one worker's side of the exchange. `parts[d]` is the data this
/// worker holds for final partition `d` (length must equal `total`).
pub async fn run_exchange(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    p: usize,
    total: usize,
    parts: Vec<PartData>,
    side: &ExchangeSide,
) -> Result<ExchangeOutcome> {
    assert_eq!(parts.len(), total, "one part per destination worker");
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

        // ---- Write phase -------------------------------------------------
        let write_start = env.cloud.handle.now();
        if cfg.write_combining {
            let gid = (round.group_of)(p);
            let mut file_bytes: Vec<u8> = Vec::new();
            let mut synthetic_total = 0u64;
            let mut any_synthetic = false;
            let mut name_sections: Vec<(u32, u64)> = Vec::with_capacity(bundles.len());
            let mut side_entries: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
            for (&rcv, bundle) in &bundles {
                let (len, sizes) = encode_bundle_into(&mut file_bytes, bundle)?;
                name_sections.push((rcv as u32, len));
                if let Some(sizes) = sizes {
                    any_synthetic = true;
                    synthetic_total += len;
                    side_entries.push((rcv as u32, sizes));
                }
            }
            let key = wc_name(cfg.run_id, round_idx, gid, p, env.attempt, &name_sections);
            let bucket = cfg.bucket_of(gid);
            let body = if any_synthetic {
                Body::Synthetic(synthetic_total + file_bytes.len() as u64)
            } else {
                Body::from_vec(file_bytes)
            };
            for (rcv, sizes) in side_entries {
                side.put(format!("{bucket}/{key}"), rcv, sizes);
            }
            env.s3.put(&bucket, &key, body).await?;
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
        let my_files = wait_for_senders(env, cfg, p, round_idx, round).await?;
        let wait_end = env.cloud.handle.now();
        env.cloud.trace.record(p as u64, "exchange_wait", write_end, wait_end);

        // ---- Read phase ----------------------------------------------------
        held.extend(fetch_sections(env, side, p, my_files).await?);
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

/// One write-combined PUT of `(receiver, payload)` entries onto a stage
/// edge: the whole of an object-store send, and the direct transport's
/// fallback file (which carries sections only for the receivers whose
/// p2p links failed). A single PUT per sender carries every receiver's
/// section, with per-receiver offsets in the file *name* (§4.4.3),
/// sharded over the exchange buckets by sender id (§4.4.1). Entries must
/// be sorted by receiver id; empty payloads get a zero-length name
/// section (so receivers learn they have nothing to fetch) and no bytes.
pub(crate) async fn stage_edge_put(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    channel: &str,
    sender: usize,
    entries: Vec<(u32, PartData)>,
    side: &ExchangeSide,
) -> Result<u64> {
    let start = env.cloud.handle.now();
    let mut file_bytes: Vec<u8> = Vec::new();
    let mut synthetic_total = 0u64;
    let mut any_synthetic = false;
    let mut name_sections: Vec<(u32, u64)> = Vec::with_capacity(entries.len());
    let mut side_entries: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
    for (rcv, data) in entries {
        if data.is_empty() {
            name_sections.push((rcv, 0));
            continue;
        }
        let (len, sizes) = encode_bundle_into(&mut file_bytes, &[(rcv, data)])?;
        name_sections.push((rcv, len));
        if let Some(sizes) = sizes {
            any_synthetic = true;
            synthetic_total += len;
            side_entries.push((rcv, sizes));
        }
    }
    let key = wc_key(channel, sender, env.attempt, &name_sections);
    let bucket = cfg.bucket_of(sender);
    let body = if any_synthetic {
        Body::Synthetic(synthetic_total + file_bytes.len() as u64)
    } else {
        Body::from_vec(file_bytes)
    };
    let written = body.len();
    for (rcv, sizes) in side_entries {
        side.put(format!("{bucket}/{key}"), rcv, sizes);
    }
    env.s3.put(&bucket, &key, body).await?;
    env.cloud.trace.record(env.worker_id, "exchange_write", start, env.cloud.handle.now());
    Ok(written)
}

/// Request accounting of one stage-edge receive
/// ([`crate::transport::ExchangeTransport::recv`], either wire).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeReadStats {
    pub list_requests: u64,
    pub get_requests: u64,
    pub bytes_read: u64,
    /// Messages fetched over the p2p relay instead of the object store
    /// (always 0 on the object-store transport).
    pub p2p_requests: u64,
    /// Payload bytes received over the p2p relay.
    pub p2p_bytes: u64,
    /// Virtual seconds this receiver spent blocked in discovery polls
    /// before every producer section was visible. Billed worker time:
    /// under overlapped scheduling the consumer fleet is running (and
    /// paying) while it polls, so the driver meters this per stage and
    /// holds it against [`crate::costmodel::OVERLAP_POLL_HEADROOM`].
    pub wait_secs: f64,
}

/// A file a receiver must read: bucket, key, and this receiver's
/// `(offset, len)` section of a write-combined file (`None`: the whole
/// object is this receiver's).
pub(crate) type FileRef = (String, String, Option<(u64, u64)>);

/// `receiver`'s `(offset, len)` within a write-combined file, from the
/// sections its name carries; `None` when the file has no section for it.
pub(crate) fn section_of(sections: &[(u32, u64)], receiver: usize) -> Option<(u64, u64)> {
    let mut offset = 0u64;
    for &(rcv, len) in sections {
        if rcv as usize == receiver {
            return Some((offset, len));
        }
        offset += len;
    }
    None
}

/// The discovery loop, shared by the Algorithm-1 shuffle and the
/// object-store stage edge: LIST-poll `bucket` under `prefix` (with
/// backoff) until every `expected` sender's file is visible, then return
/// one reference per sender in `expected` order, plus the LISTs spent.
/// `section_for` names the receiver whose section of each write-combined
/// file to reference; `None` references whole files (per-receiver keys
/// carry no name sections). Listings are deduped per sender (highest
/// attempt wins): "enough files" is not "all senders", and a speculative
/// backup's duplicate must neither mask a sender still missing nor
/// appear as a phantom extra one.
pub(crate) async fn discover_files(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    bucket: &str,
    prefix: &str,
    expected: &[usize],
    section_for: Option<usize>,
    wait_start: SimTime,
) -> Result<(Vec<FileRef>, u64)> {
    let mut polls = 0;
    loop {
        let listing = env.s3.list(bucket, prefix).await?;
        let found = dedupe_listing(&listing)?;
        if expected.iter().all(|s| found.contains_key(s)) {
            let mut files = Vec::with_capacity(expected.len());
            for s in expected {
                let (_, key, sections) = &found[s];
                let section = match section_for {
                    Some(receiver) => Some(section_of(sections, receiver).ok_or_else(|| {
                        CoreError::Storage(format!("no section for receiver {receiver} in {key}"))
                    })?),
                    None => None,
                };
                files.push((bucket.to_string(), key.clone(), section));
            }
            return Ok((files, polls as u64 + 1));
        }
        polls += 1;
        if polls >= cfg.max_polls {
            return Err(CoreError::Timeout {
                waited_secs: (env.cloud.handle.now() - wait_start).as_secs_f64(),
                missing_workers: expected.iter().filter(|s| !found.contains_key(s)).count(),
            });
        }
        env.cloud.handle.sleep(backoff(cfg.poll_interval, polls)).await;
    }
}

/// GET every non-empty file reference (16 connections at a time) and
/// decode the bundles, in `files` order.
pub(crate) async fn fetch_sections(
    env: &WorkerEnv,
    side: &ExchangeSide,
    receiver: usize,
    files: Vec<FileRef>,
) -> Result<Vec<(u32, PartData)>> {
    let conn = Semaphore::new(16);
    let mut gets = Vec::new();
    for (bucket, key, section) in files {
        if matches!(section, Some((_, 0))) {
            continue; // empty write-combined section, nothing to fetch
        }
        let env2 = env.clone();
        let conn2 = conn.clone();
        let side2 = side.clone();
        gets.push(env.cloud.handle.spawn(async move {
            let _permit = conn2.acquire(1).await;
            let body = match section {
                Some((off, len)) => env2.s3.get_range(&bucket, &key, off, len).await?,
                None => env2.s3.get(&bucket, &key).await?,
            };
            let sizes = side2.get(&format!("{bucket}/{key}"), receiver as u32);
            decode_bundle(body, sizes)
        }));
    }
    let mut out = Vec::new();
    for r in join_all(gets).await {
        out.extend(r?);
    }
    Ok(out)
}

/// Exponential poll backoff (capped at 8x) keeps the LIST count per
/// worker at "a few" even when stragglers stretch the wait (Table 2's
/// O(P) #lists).
pub(crate) fn backoff(base: std::time::Duration, polls: usize) -> std::time::Duration {
    let factor = 1u32 << polls.min(3);
    base * factor
}

/// Poll LISTs until every expected sender's file for this round is
/// visible; returns the file references this worker must read.
async fn wait_for_senders(
    env: &WorkerEnv,
    cfg: &ExchangeConfig,
    p: usize,
    round_idx: usize,
    round: &RoundPlan,
) -> Result<Vec<FileRef>> {
    let wait_start = env.cloud.handle.now();
    // Write-combined files live under their sender's group prefix, one
    // file per receiver under the receiver's own. Group the senders by
    // (bucket, prefix) — in key order, so the poll sequence repeats run
    // to run — and poll each group until all expected names appear.
    let mut groups: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for &s in &round.senders {
        let place = if cfg.write_combining {
            let gid = (round.group_of)(s);
            (cfg.bucket_of(gid), format!("x{}/r{round_idx}/g{gid}/", cfg.run_id))
        } else {
            (cfg.bucket_of(p), format!("x{}/r{round_idx}/rcv{p}/", cfg.run_id))
        };
        groups.entry(place).or_default().push(s);
    }
    let section_for = cfg.write_combining.then_some(p);
    let mut out = Vec::with_capacity(round.senders.len());
    for ((bucket, prefix), expected) in groups {
        let (files, _) =
            discover_files(env, cfg, &bucket, &prefix, &expected, section_for, wait_start).await?;
        out.extend(files);
    }
    Ok(out)
}
