//! The stage-edge transport abstraction: how a producer fleet's
//! partitioned output reaches its consumer fleet.
//!
//! The Lambada paper routes every shuffle byte through the object store
//! (§4.4): one write-combined PUT per sender, LIST polls for discovery,
//! ranged GETs per `(sender, receiver)` pair. That is the correctness
//! keystone — duplicate-tolerant via attempt-suffixed keys, storage-
//! synchronized so fleets of different waves never need to coexist — but
//! also the dominant request-cost and latency term of the exchange.
//! [`ExchangeTransport`] abstracts the edge so a *direct* worker-to-worker
//! path (in the style of lambdatization's `chappy` rendezvous/relay) can
//! replace the storage hop without weakening any of those guarantees.
//!
//! # The transport contract
//!
//! Whatever the wire, every implementation must preserve the baseline's
//! observable semantics:
//!
//! * **Registration.** Consumers are addressed by *endpoint*
//!   `{channel}/r{receiver}`. The driver registers every consumer
//!   endpoint of a query (and the `{channel}smp/r0` sample-barrier
//!   endpoints of sort edges) with the rendezvous service *before the
//!   first stage launches* — fleet sizes are fixed up front, so the
//!   address book is complete even though consumer fleets start waves
//!   later. Cleanup deregisters the query's whole endpoint prefix.
//! * **Fallback.** A send to an unregistered endpoint (rendezvous
//!   capacity exhausted, query torn down) or over a severed link must
//!   not lose data: the sender falls back to the object store, writing
//!   one write-combined file that carries sections *only for the
//!   receivers whose direct sends failed*. Receivers merge both paths.
//! * **Attempt semantics.** Every message and fallback key carries the
//!   sender's attempt id. Receivers collapse duplicates per sender with
//!   the same deterministic highest-attempt-wins rule as the baseline —
//!   across both paths, with the direct copy winning ties — so a
//!   speculative backup can never be mixed with its original, on either
//!   wire.
//! * **Empty parts.** A zero-length partition is announced (zero-length
//!   message / zero-length name section) but never fetched, and is
//!   omitted from the received part list — exactly the baseline's
//!   skip-empty-sections behavior.
//!
//! [`ObjectStoreTransport`] is the paper baseline. [`DirectTransport`]
//! streams attempt-suffixed partitions through the sim's p2p
//! rendezvous/relay service and only touches the object store for
//! fallback; its discovery polls are free, which is where the request
//! savings come from (see `exchange_cost::direct_edge_counts`).

use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::pin::Pin;

use lambada_sim::services::object_store::{Body, S3Client};
use lambada_sim::sync::{join_all, Semaphore};
use lambada_sim::P2pService;

use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::exchange::{
    backoff, decode_bundle, discover_files, encode_bundle, fetch_sections, parse_wc_sections,
    section_of, stage_edge_put, EdgeReadStats, ExchangeConfig, ExchangeSide, FileRef, PartData,
};

/// Which stage-edge transport a query runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// The paper baseline: every shuffle byte through the object store.
    #[default]
    ObjectStore,
    /// Worker-to-worker streaming through the p2p rendezvous/relay, with
    /// the object store as fallback for unreachable peers.
    Direct,
}

/// Request accounting of one stage-edge send.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EdgeWriteStats {
    /// Bytes written to the object store (the full combined file on the
    /// baseline; only the fallback file, if any, on the direct path).
    pub bytes_written: u64,
    /// Object-store PUTs issued (0 on a fully direct send).
    pub put_requests: u64,
    /// Messages delivered over the p2p relay.
    pub p2p_requests: u64,
    /// Payload bytes sent over the p2p relay.
    pub p2p_bytes: u64,
}

type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// One stage edge's wire: how sender `s`'s partitioned output reaches
/// receivers `0..partitions`, and how receiver `r` collects its
/// co-partition from senders `0..senders`. Object-safe (methods return
/// boxed futures) so worker payloads can carry `Rc<dyn ExchangeTransport>`
/// and the driver can pick the transport per query.
pub trait ExchangeTransport {
    fn kind(&self) -> TransportKind;

    /// Ship `parts[r]` (payload destined to consumer worker `r`) onto the
    /// edge `channel` as sender `sender`. Charges the in-memory
    /// partitioning compute, then moves the bytes; empty parts are
    /// announced but carry nothing.
    fn send<'a>(
        &'a self,
        env: &'a WorkerEnv,
        channel: &'a str,
        sender: usize,
        parts: Vec<PartData>,
    ) -> BoxFuture<'a, Result<EdgeWriteStats>>;

    /// Collect receiver `receiver`'s co-partition from all `senders`
    /// producers of the edge `channel`: poll until one copy per sender is
    /// discovered (highest attempt wins), fetch the non-empty ones, and
    /// return their payloads (empty parts omitted).
    fn recv<'a>(
        &'a self,
        env: &'a WorkerEnv,
        channel: &'a str,
        receiver: usize,
        senders: usize,
    ) -> BoxFuture<'a, Result<(Vec<PartData>, EdgeReadStats)>>;

    /// Driver-side, non-blocking: which of `0..senders` have already
    /// produced something on `channel`? One discovery pass, no polling —
    /// what the barrier-aware straggler watcher uses to tell workers
    /// *blocked on* a sort-sample barrier from the worker that died
    /// *before* it.
    fn probe<'a>(
        &'a self,
        s3: &'a S3Client,
        channel: &'a str,
        senders: usize,
    ) -> BoxFuture<'a, Result<HashSet<usize>>>;
}

/// One object-store discovery pass over a channel: LIST every bucket the
/// senders shard across and collect the sender ids seen.
async fn store_probe(
    s3: &S3Client,
    cfg: &ExchangeConfig,
    channel: &str,
    senders: usize,
) -> Result<HashSet<usize>> {
    let buckets: HashSet<String> = (0..senders).map(|s| cfg.bucket_of(s)).collect();
    let prefix = format!("{channel}/");
    let mut passed = HashSet::new();
    for bucket in buckets {
        for (key, _) in s3.list(&bucket, &prefix).await? {
            let (snd, _, _) = parse_wc_sections(&key)?;
            passed.insert(snd);
        }
    }
    Ok(passed)
}

/// The paper baseline (§4.4): write-combined, bucket-sharded,
/// LIST-discovered object-store shuffle — the exchange variant where the
/// producer and consumer are different worker fleets rather than one
/// fleet shuffling among itself.
pub struct ObjectStoreTransport {
    cfg: ExchangeConfig,
    side: ExchangeSide,
}

impl ObjectStoreTransport {
    pub fn new(cfg: ExchangeConfig, side: ExchangeSide) -> Self {
        ObjectStoreTransport { cfg, side }
    }
}

impl ExchangeTransport for ObjectStoreTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::ObjectStore
    }

    fn send<'a>(
        &'a self,
        env: &'a WorkerEnv,
        channel: &'a str,
        sender: usize,
        parts: Vec<PartData>,
    ) -> BoxFuture<'a, Result<EdgeWriteStats>> {
        Box::pin(async move {
            let held_bytes: u64 = parts.iter().map(PartData::len).sum();
            env.compute(env.costs.partition_seconds(held_bytes)).await;
            let entries: Vec<(u32, PartData)> =
                parts.into_iter().enumerate().map(|(rcv, data)| (rcv as u32, data)).collect();
            let written =
                stage_edge_put(env, &self.cfg, channel, sender, entries, &self.side).await?;
            Ok(EdgeWriteStats { bytes_written: written, put_requests: 1, ..Default::default() })
        })
    }

    /// LIST-poll until all `senders` producer files are visible
    /// (receivers may start before producers finish — everything
    /// synchronizes through storage), then ranged-GET this receiver's
    /// section of each file.
    fn recv<'a>(
        &'a self,
        env: &'a WorkerEnv,
        channel: &'a str,
        receiver: usize,
        senders: usize,
    ) -> BoxFuture<'a, Result<(Vec<PartData>, EdgeReadStats)>> {
        Box::pin(async move {
            let mut stats = EdgeReadStats::default();
            if senders == 0 {
                return Ok((Vec::new(), stats));
            }
            let wait_start = env.cloud.handle.now();
            // Senders shard across buckets by id; poll each bucket that
            // holds at least one expected sender.
            let mut by_bucket: HashMap<String, Vec<usize>> = HashMap::new();
            for s in 0..senders {
                by_bucket.entry(self.cfg.bucket_of(s)).or_default().push(s);
            }
            // Visit bucket groups in sender order and slot each sender's
            // file reference by its id, so the assembled part order — and
            // therefore the consumer's byte stream — is identical run to
            // run no matter how senders shard across buckets or which
            // LIST returns first.
            let mut groups: Vec<(String, Vec<usize>)> = by_bucket.into_iter().collect();
            groups.sort_by_key(|(_, ss)| ss[0]);
            let prefix = format!("{channel}/");
            let mut slots: Vec<Option<FileRef>> = vec![None; senders];
            for (bucket, expected) in groups {
                let (files, lists) = discover_files(
                    env,
                    &self.cfg,
                    &bucket,
                    &prefix,
                    &expected,
                    Some(receiver),
                    wait_start,
                )
                .await?;
                stats.list_requests += lists;
                for (s, file) in expected.into_iter().zip(files) {
                    slots[s] = Some(file);
                }
            }
            let wait_end = env.cloud.handle.now();
            stats.wait_secs = (wait_end - wait_start).as_secs_f64();
            env.cloud.trace.record(env.worker_id, "exchange_wait", wait_start, wait_end);

            let files = slots.into_iter().flatten().collect();
            let mut out = Vec::new();
            for (_, data) in fetch_sections(env, &self.side, receiver, files).await? {
                stats.get_requests += 1;
                stats.bytes_read += data.len();
                out.push(data);
            }
            env.cloud.trace.record(
                env.worker_id,
                "exchange_read",
                wait_end,
                env.cloud.handle.now(),
            );
            Ok((out, stats))
        })
    }

    fn probe<'a>(
        &'a self,
        s3: &'a S3Client,
        channel: &'a str,
        senders: usize,
    ) -> BoxFuture<'a, Result<HashSet<usize>>> {
        Box::pin(async move { store_probe(s3, &self.cfg, channel, senders).await })
    }
}

/// Side-channel key carrying the modeled-bundle composition of one p2p
/// message (the direct-path analogue of the store key the baseline uses).
fn p2p_side_key(endpoint: &str, sender: usize, attempt: u32) -> String {
    format!("p2p/{endpoint}/snd{sender}a{attempt}")
}

/// Where one sender's copy was discovered during a direct-transport
/// receive. Highest attempt wins across both paths; at equal attempts the
/// direct copy is preferred (same bytes, no GET).
enum Found {
    Direct { attempt: u32, len: u64 },
    Store { attempt: u32, bucket: String, key: String, offset: u64, len: u64 },
}

impl Found {
    fn attempt(&self) -> u32 {
        match self {
            Found::Direct { attempt, .. } | Found::Store { attempt, .. } => *attempt,
        }
    }
}

/// Number of free mailbox polls a registered receiver makes before it
/// starts paying for object-store fallback LISTs as well. Healthy direct
/// edges never touch the store; a receiver missing a sender only starts
/// billing LISTs once the data is plausibly late.
const FALLBACK_GRACE_POLLS: usize = 3;

/// Direct worker-to-worker transport: producers stream attempt-suffixed
/// partitions straight to registered consumer endpoints through the p2p
/// rendezvous/relay; unreachable receivers are covered by one
/// write-combined object-store fallback file per sender. Discovery on the
/// direct path is a free mailbox-metadata poll — the LIST/GET/PUT terms
/// of the baseline's cost model vanish for every link that stays direct.
pub struct DirectTransport {
    cfg: ExchangeConfig,
    side: ExchangeSide,
    p2p: P2pService,
}

impl DirectTransport {
    pub fn new(cfg: ExchangeConfig, side: ExchangeSide, p2p: P2pService) -> Self {
        DirectTransport { cfg, side, p2p }
    }
}

impl ExchangeTransport for DirectTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Direct
    }

    fn send<'a>(
        &'a self,
        env: &'a WorkerEnv,
        channel: &'a str,
        sender: usize,
        parts: Vec<PartData>,
    ) -> BoxFuture<'a, Result<EdgeWriteStats>> {
        Box::pin(async move {
            let mut stats = EdgeWriteStats::default();
            let held_bytes: u64 = parts.iter().map(PartData::len).sum();
            env.compute(env.costs.partition_seconds(held_bytes)).await;
            let start = env.cloud.handle.now();

            let client = env.p2p();
            let attempt = env.attempt;
            let conn = Semaphore::new(16);
            let mut sends = Vec::with_capacity(parts.len());
            for (rcv, data) in parts.into_iter().enumerate() {
                let endpoint = format!("{channel}/r{rcv}");
                // The same bundle encoding as the baseline, so a received
                // part is bit-identical whichever wire carried it. Empty
                // parts become zero-length messages: the receiver learns
                // the sender completed, fetches nothing, omits the part.
                let body = if data.is_empty() {
                    Body::from_vec(Vec::new())
                } else {
                    let (body, sizes) = encode_bundle(&[(rcv as u32, data.clone())])?;
                    if let Some(sizes) = sizes {
                        self.side.put(p2p_side_key(&endpoint, sender, attempt), rcv as u32, sizes);
                    }
                    body
                };
                let client2 = client.clone();
                let conn2 = conn.clone();
                sends.push(env.cloud.handle.spawn(async move {
                    let _permit = conn2.acquire(1).await;
                    let len = body.len();
                    match client2.send(&endpoint, sender as u32, attempt, body).await {
                        Ok(()) => Ok(len),
                        // Unregistered endpoint, severed link: this
                        // receiver's payload rides the fallback file.
                        Err(_) => Err((rcv as u32, data)),
                    }
                }));
            }
            let mut fallback: Vec<(u32, PartData)> = Vec::new();
            for outcome in join_all(sends).await {
                match outcome {
                    Ok(len) => {
                        stats.p2p_requests += 1;
                        stats.p2p_bytes += len;
                    }
                    Err(entry) => fallback.push(entry),
                }
            }
            if !fallback.is_empty() {
                fallback.sort_by_key(|(rcv, _)| *rcv);
                let written =
                    stage_edge_put(env, &self.cfg, channel, sender, fallback, &self.side).await?;
                stats.bytes_written += written;
                stats.put_requests += 1;
            }
            env.cloud.trace.record(env.worker_id, "exchange_write", start, env.cloud.handle.now());
            Ok(stats)
        })
    }

    fn recv<'a>(
        &'a self,
        env: &'a WorkerEnv,
        channel: &'a str,
        receiver: usize,
        senders: usize,
    ) -> BoxFuture<'a, Result<(Vec<PartData>, EdgeReadStats)>> {
        Box::pin(async move {
            let mut stats = EdgeReadStats::default();
            if senders == 0 {
                return Ok((Vec::new(), stats));
            }
            let wait_start = env.cloud.handle.now();
            let endpoint = format!("{channel}/r{receiver}");
            // An unregistered own endpoint (rendezvous capacity exhausted)
            // means every sender fell back for us — skip the grace polls.
            let own_registered = self.p2p.is_registered(&endpoint);
            let buckets: HashSet<String> = (0..senders).map(|s| self.cfg.bucket_of(s)).collect();
            let prefix = format!("{channel}/");

            let mut best: HashMap<usize, Found> = HashMap::new();
            let mut polls = 0usize;
            loop {
                best.clear();
                // Free mailbox-metadata poll: the direct path's discovery.
                if let Some(arrivals) = self.p2p.arrivals(&endpoint) {
                    for (snd, attempt, len) in arrivals {
                        let snd = snd as usize;
                        match best.get(&snd) {
                            Some(cur) if cur.attempt() >= attempt => {}
                            _ => {
                                best.insert(snd, Found::Direct { attempt, len });
                            }
                        }
                    }
                }
                // Billed object-store fallback discovery. A fallback file
                // carries sections only for the receivers whose direct
                // sends failed, so a file is a copy for us only when it
                // has *our* section — unlike the baseline, a missing
                // section is "not on this path", not an error.
                if polls >= FALLBACK_GRACE_POLLS || !own_registered {
                    for bucket in &buckets {
                        let listing = env.s3.list(bucket, &prefix).await?;
                        stats.list_requests += 1;
                        for (key, _) in &listing {
                            let (snd, attempt, sections) = parse_wc_sections(key)?;
                            let Some((offset, len)) = section_of(&sections, receiver) else {
                                continue;
                            };
                            match best.get(&snd) {
                                Some(cur) if cur.attempt() >= attempt => {}
                                _ => {
                                    best.insert(
                                        snd,
                                        Found::Store {
                                            attempt,
                                            bucket: bucket.clone(),
                                            key: key.clone(),
                                            offset,
                                            len,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                if (0..senders).all(|s| best.contains_key(&s)) {
                    break;
                }
                polls += 1;
                if polls >= self.cfg.max_polls {
                    return Err(CoreError::Timeout {
                        waited_secs: (env.cloud.handle.now() - wait_start).as_secs_f64(),
                        missing_workers: (0..senders).filter(|s| !best.contains_key(s)).count(),
                    });
                }
                env.cloud.handle.sleep(backoff(self.cfg.poll_interval, polls)).await;
            }
            let wait_end = env.cloud.handle.now();
            stats.wait_secs = (wait_end - wait_start).as_secs_f64();
            env.cloud.trace.record(env.worker_id, "exchange_wait", wait_start, wait_end);

            let conn = Semaphore::new(16);
            let mut fetches = Vec::with_capacity(senders);
            for snd in 0..senders {
                // lint: allow(unwrap) — the poll loop above breaks only
                // once `best` holds an announcement for every sender, so
                // each `snd` in `0..senders` is present by construction.
                let found = best.remove(&snd).expect("loop exits only when complete");
                if matches!(&found, Found::Direct { len: 0, .. } | Found::Store { len: 0, .. }) {
                    continue; // empty part: announced, never fetched, omitted
                }
                let env2 = env.clone();
                let conn2 = conn.clone();
                let side2 = self.side.clone();
                let client2 = env.p2p();
                let endpoint2 = endpoint.clone();
                let receiver = receiver as u32;
                fetches.push(env.cloud.handle.spawn(async move {
                    let _permit = conn2.acquire(1).await;
                    match found {
                        Found::Direct { attempt, .. } => {
                            let body = client2
                                .fetch(&endpoint2, snd as u32, attempt)
                                .await
                                .map_err(|e| CoreError::Storage(e.to_string()))?;
                            let sizes =
                                side2.get(&p2p_side_key(&endpoint2, snd, attempt), receiver);
                            Ok((true, decode_bundle(body, sizes)?))
                        }
                        Found::Store { bucket, key, offset, len, .. } => {
                            let body = env2.s3.get_range(&bucket, &key, offset, len).await?;
                            let sizes = side2.get(&format!("{bucket}/{key}"), receiver);
                            Ok::<_, CoreError>((false, decode_bundle(body, sizes)?))
                        }
                    }
                }));
            }
            let mut out = Vec::new();
            for fetched in join_all(fetches).await {
                let (direct, parts) = fetched?;
                for (_, data) in parts {
                    if direct {
                        stats.p2p_requests += 1;
                        stats.p2p_bytes += data.len();
                    } else {
                        stats.get_requests += 1;
                        stats.bytes_read += data.len();
                    }
                    out.push(data);
                }
            }
            env.cloud.trace.record(
                env.worker_id,
                "exchange_read",
                wait_end,
                env.cloud.handle.now(),
            );
            Ok((out, stats))
        })
    }

    fn probe<'a>(
        &'a self,
        s3: &'a S3Client,
        channel: &'a str,
        senders: usize,
    ) -> BoxFuture<'a, Result<HashSet<usize>>> {
        Box::pin(async move {
            // Arrivals at receiver 0's endpoint cover the direct path (the
            // sample barrier routes everything to r0); the store listing
            // covers fallback writers.
            let mut passed = HashSet::new();
            if let Some(arrivals) = self.p2p.arrivals(&format!("{channel}/r0")) {
                for (snd, _, _) in arrivals {
                    passed.insert(snd as usize);
                }
            }
            passed.extend(store_probe(s3, &self.cfg, channel, senders).await?);
            Ok(passed)
        })
    }
}
