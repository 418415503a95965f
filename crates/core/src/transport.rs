//! The stage-edge transport: how a producer fleet's partitioned output
//! reaches its consumer fleet.
//!
//! The Lambada paper routes every shuffle byte through the object store
//! (§4.4): one write-combined PUT per sender, LIST polls for discovery,
//! ranged GETs per `(sender, receiver)` pair. That is the correctness
//! keystone — duplicate-tolerant via attempt-suffixed keys, storage-
//! synchronized so fleets launched at different times never need to
//! coexist — but also the dominant request-cost and latency term of the
//! exchange. A *direct* worker-to-worker path (in the style of
//! lambdatization's `chappy` rendezvous/relay) replaces the storage hop
//! without weakening any of those guarantees.
//!
//! # One edge, with or without a mailbox
//!
//! There is one transport, [`EdgeTransport`], and one protocol: write
//! (`exchange::put_combined`), wait (`exchange::await_copies`), fetch
//! (`exchange::fetch_copies`). The direct transport is that
//! protocol with a p2p *mailbox* per receiver in front of it; **the
//! object-store transport is the direct transport with no mailbox** —
//! nothing is ever delivered, so everything rides the combined file, and
//! a direct edge whose every endpoint is unreachable issues exactly the
//! object store's requests. The contract:
//!
//! * **Registration.** Consumers are addressed by *endpoint*
//!   `{channel}/r{receiver}`. The driver registers every consumer
//!   endpoint of a query (and the `{channel}smp/r0` sample-barrier
//!   endpoint of each sort edge that has one) with the rendezvous service *before the
//!   first stage launches* — fleet sizes are fixed up front, so the
//!   address book is complete even though consumer fleets launch later.
//!   Cleanup deregisters the query's whole endpoint prefix.
//! * **Fallback.** A send to an unregistered endpoint (rendezvous
//!   capacity exhausted, query torn down) or over a severed link must
//!   not lose data: whatever a sender could not deliver goes into one
//!   write-combined file that carries sections *only for those
//!   receivers*. A receiver polls its mailbox for free and, once a copy
//!   is plausibly late, LISTs the store as well; a listed file without
//!   its section is not a copy for it.
//! * **Attempt semantics.** Every message and file key carries the
//!   sender's attempt id. Receivers keep the highest attempt per sender
//!   — across both paths, with the direct copy winning ties — so a
//!   speculative backup can never be mixed with its original.
//! * **Empty parts.** A zero-length partition is announced (zero-length
//!   message / zero-length name section) but never fetched, and is
//!   omitted from the received part list.
//!
//! Mailbox polls are free, which is where the direct path's request
//! savings come from (see `exchange_cost::direct_edge_counts`).

use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

use lambada_sim::services::object_store::Body;
use lambada_sim::sync::{join_all, Semaphore};
use lambada_sim::{Cloud, P2pService};

use crate::env::WorkerEnv;
use crate::error::Result;
use crate::exchange::{
    await_copies, discover, encode_bundle, fetch_copies, p2p_side_key, put_combined, EdgeReadStats,
    ExchangeConfig, ExchangeSide, Mailbox, PartData, Pass, Place,
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

/// One stage edge's wire: how sender `s`'s partitioned output reaches
/// receivers `0..partitions`, and how receiver `r` collects its
/// co-partition from senders `0..senders`. With a p2p service it streams
/// to the receivers' mailboxes ([`TransportKind::Direct`]); without one
/// every byte goes through the object store (the paper baseline, §4.4).
pub struct EdgeTransport {
    cfg: ExchangeConfig,
    side: ExchangeSide,
    p2p: Option<P2pService>,
}

impl EdgeTransport {
    pub fn new(cfg: ExchangeConfig, side: ExchangeSide, p2p: Option<P2pService>) -> Self {
        EdgeTransport { cfg, side, p2p }
    }

    pub fn kind(&self) -> TransportKind {
        match self.p2p {
            Some(_) => TransportKind::Direct,
            None => TransportKind::ObjectStore,
        }
    }

    /// Where sender `sender`'s combined file of `channel` goes: sharded
    /// over the exchange buckets by sender id (§4.4.1).
    fn place_of(&self, channel: &str, sender: usize) -> (String, String) {
        (self.cfg.bucket_of(sender), format!("{channel}/"))
    }

    /// Where receiver `receiver` finds the `senders` producers of
    /// `channel`: its mailbox, if the edge has p2p, and the senders'
    /// combined files.
    fn sources(
        &self,
        channel: &str,
        receiver: usize,
        senders: usize,
    ) -> (Option<Mailbox>, Vec<Place>) {
        let mailbox = self.p2p.as_ref().map(|p2p| Mailbox {
            p2p: p2p.clone(),
            endpoint: Rc::from(format!("{channel}/r{receiver}")),
        });
        (mailbox, Place::group(0..senders, |s| self.place_of(channel, s)))
    }

    /// Ship `parts[r]` (payload destined to consumer worker `r`) onto the
    /// edge `channel` as sender `sender`. Charges the in-memory
    /// partitioning compute, streams what it can over p2p, and PUTs one
    /// combined file for the rest — everything, without p2p. Empty parts
    /// are announced but carry nothing.
    pub async fn send(
        &self,
        env: &WorkerEnv,
        channel: &str,
        sender: usize,
        parts: Vec<PartData>,
    ) -> Result<EdgeWriteStats> {
        let mut stats = EdgeWriteStats::default();
        let held_bytes: u64 = parts.iter().map(PartData::len).sum();
        env.compute(env.costs.partition_seconds(held_bytes)).await;
        let start = env.cloud.handle.now();

        let mut entries: Vec<(u32, PartData)> =
            parts.into_iter().enumerate().map(|(rcv, data)| (rcv as u32, data)).collect();
        if self.p2p.is_some() {
            entries = self.stream(env, channel, sender, entries, &mut stats).await?;
        }
        if !entries.is_empty() {
            // The same bundle encoding on both paths, so a received part
            // is bit-identical whichever wire carried it.
            let bundles = entries
                .into_iter()
                .map(|(rcv, data)| (rcv, if data.is_empty() { vec![] } else { vec![(rcv, data)] }))
                .collect();
            let (bucket, prefix) = self.place_of(channel, sender);
            stats.bytes_written +=
                put_combined(env, &self.side, &bucket, &prefix, sender, bundles).await?;
            stats.put_requests += 1;
        }
        env.cloud.trace.record(env.worker_id, "exchange_write", start, env.cloud.handle.now());
        Ok(stats)
    }

    /// Stream each entry to its receiver's mailbox, 16 connections at a
    /// time, and hand back the entries that could not be delivered
    /// (unregistered endpoint, severed link), sorted by receiver.
    async fn stream(
        &self,
        env: &WorkerEnv,
        channel: &str,
        sender: usize,
        entries: Vec<(u32, PartData)>,
        stats: &mut EdgeWriteStats,
    ) -> Result<Vec<(u32, PartData)>> {
        let client = env.p2p();
        let attempt = env.attempt;
        let conn = Semaphore::new(16);
        let mut sends = Vec::with_capacity(entries.len());
        for entry in entries {
            let rcv = entry.0;
            let endpoint = format!("{channel}/r{rcv}");
            // Empty parts become zero-length messages: the receiver learns
            // the sender completed, fetches nothing, omits the part.
            let body = if entry.1.is_empty() {
                Body::from_vec(Vec::new())
            } else {
                let (body, sizes) = encode_bundle(std::slice::from_ref(&entry))?;
                if let Some(sizes) = sizes {
                    self.side.put(p2p_side_key(&endpoint, sender, attempt), rcv, sizes);
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
                    Err(_) => Err(entry),
                }
            }));
        }
        let mut undelivered = Vec::new();
        for outcome in join_all(sends).await {
            match outcome {
                Ok(len) => {
                    stats.p2p_requests += 1;
                    stats.p2p_bytes += len;
                }
                Err(entry) => undelivered.push(entry),
            }
        }
        Ok(undelivered)
    }

    /// Collect receiver `receiver`'s co-partition from all `senders`
    /// producers of the edge `channel`: wait until one copy per sender is
    /// discovered (highest attempt wins), fetch the non-empty ones, and
    /// return their payloads in sender order (empty parts omitted).
    pub async fn recv(
        &self,
        env: &WorkerEnv,
        channel: &str,
        receiver: usize,
        senders: usize,
    ) -> Result<(Vec<PartData>, EdgeReadStats)> {
        self.recv_paced(env, channel, receiver, senders, Pass::Together).await
    }

    /// [`Self::recv`] on a barrier among running peers — every producer
    /// of a sort edge reads section 0 of all `senders` samples, its own
    /// included, right after writing it. Discovery walks the buckets one
    /// by one: the peers write within a few first-byte latencies of each
    /// other, so a pass that takes that long finds them all, where one
    /// round would miss the late ones and pay a back-off plus a re-LIST.
    pub async fn recv_barrier(
        &self,
        env: &WorkerEnv,
        channel: &str,
        senders: usize,
    ) -> Result<(Vec<PartData>, EdgeReadStats)> {
        self.recv_paced(env, channel, 0, senders, Pass::OneByOne).await
    }

    async fn recv_paced(
        &self,
        env: &WorkerEnv,
        channel: &str,
        receiver: usize,
        senders: usize,
        pass: Pass,
    ) -> Result<(Vec<PartData>, EdgeReadStats)> {
        let mut stats = EdgeReadStats::default();
        if senders == 0 {
            return Ok((Vec::new(), stats));
        }
        let wait_start = env.cloud.handle.now();
        let (mailbox, places) = self.sources(channel, receiver, senders);
        let (copies, lists) =
            await_copies(env, &self.cfg, mailbox.as_ref(), &places, Some(receiver), pass).await?;
        stats.list_requests = lists;
        let wait_end = env.cloud.handle.now();
        stats.wait_secs = (wait_end - wait_start).as_secs_f64();
        env.cloud.trace.record(env.worker_id, "exchange_wait", wait_start, wait_end);

        let mut out = Vec::new();
        for (direct, parts) in fetch_copies(env, &self.side, receiver, copies).await? {
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
        env.cloud.trace.record(env.worker_id, "exchange_read", wait_end, env.cloud.handle.now());
        Ok((out, stats))
    }

    /// Driver-side, non-blocking: which of `0..senders` have already
    /// produced something on `channel`? One discovery pass as receiver 0
    /// (the sample barrier routes everything there), no polling — what
    /// the barrier-aware straggler watcher uses to tell workers *blocked
    /// on* a sort-sample barrier from the worker that died *before* it.
    pub async fn probe(
        &self,
        cloud: &Cloud,
        channel: &str,
        senders: usize,
    ) -> Result<HashSet<usize>> {
        let (mailbox, places) = self.sources(channel, 0, senders);
        let mut seen = BTreeMap::new();
        let s3 = cloud.driver_s3();
        discover(&cloud.handle, &s3, mailbox.as_ref(), &places, Some(0), true, &mut seen).await?;
        Ok(seen.into_keys().collect())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use lambada_sim::{Cloud, CloudConfig, CostItem, P2pConfig, Simulation};

    use super::*;
    use crate::costmodel::ComputeCostModel;
    use crate::error::CoreError;
    use crate::exchange::install_exchange_buckets;

    const CHANNEL: &str = "x9/q0/s0";

    /// A cloud with the exchange buckets and an edge of either kind.
    /// `endpoints` caps the rendezvous service; all senders share one
    /// bucket, so one LIST sees every file of the channel.
    fn edge(
        direct: bool,
        endpoints: usize,
        max_polls: usize,
    ) -> (Simulation, Cloud, EdgeTransport) {
        edge_over(1, direct, endpoints, max_polls)
    }

    /// [`edge`] with the senders sharded over `num_buckets` buckets.
    fn edge_over(
        num_buckets: usize,
        direct: bool,
        endpoints: usize,
        max_polls: usize,
    ) -> (Simulation, Cloud, EdgeTransport) {
        let sim = Simulation::new();
        let p2p = P2pConfig { max_endpoints: endpoints, ..P2pConfig::default() };
        let cloud = Cloud::new(&sim, CloudConfig { p2p, ..CloudConfig::default() });
        let cfg = ExchangeConfig {
            num_buckets,
            poll_interval: Duration::from_millis(10),
            max_polls,
            ..ExchangeConfig::default()
        };
        install_exchange_buckets(&cloud, &cfg);
        let transport =
            EdgeTransport::new(cfg, ExchangeSide::new(), direct.then(|| cloud.p2p.clone()));
        (sim, cloud, transport)
    }

    fn worker(cloud: &Cloud, id: u64, attempt: u32) -> WorkerEnv {
        let mut env = WorkerEnv::bare(cloud, id, 2048, ComputeCostModel::default());
        env.attempt = attempt;
        env
    }

    fn real(bytes: &[u8]) -> PartData {
        PartData::Real(bytes.to_vec())
    }

    /// Sender `sender`'s combined file holding `payload` for `receiver`.
    async fn put_file(
        t: &EdgeTransport,
        env: &WorkerEnv,
        sender: usize,
        receiver: u32,
        payload: &[u8],
    ) {
        let bundles = vec![(receiver, vec![(receiver, real(payload))])];
        let (bucket, prefix) = t.place_of(CHANNEL, sender);
        put_combined(env, &t.side, &bucket, &prefix, sender, bundles).await.unwrap();
    }

    /// (a) The object-store edge *is* the direct edge with no reachable
    /// endpoint: same parts, same GET/PUT/LIST counts, same stats.
    #[test]
    fn direct_edge_without_endpoints_is_the_object_store_edge() {
        let run = |direct: bool| {
            let (sim, cloud, t) = edge(direct, 0, 50);
            assert_eq!(t.kind() == TransportKind::Direct, direct);
            let cloud2 = cloud.clone();
            let got = sim.block_on(async move {
                for r in 0..3usize {
                    let registered = cloud2.p2p.register(&format!("{CHANNEL}/r{r}"));
                    assert!(!registered, "the rendezvous service has no capacity");
                }
                let mut writes = Vec::new();
                for s in 0..3usize {
                    let parts = vec![real(&[s as u8; 40]), real(&[]), real(&[7, s as u8])];
                    let env = worker(&cloud2, s as u64, 0);
                    writes.push(t.send(&env, CHANNEL, s, parts).await.unwrap());
                }
                let mut reads = Vec::new();
                for r in 0..3usize {
                    let env = worker(&cloud2, 10 + r as u64, 0);
                    reads.push(t.recv(&env, CHANNEL, r, 3).await.unwrap());
                }
                (writes, reads)
            });
            let units = [CostItem::S3Get, CostItem::S3Put, CostItem::S3List]
                .map(|item| cloud.billing.units(item));
            (got, units)
        };
        let ((store_writes, store_reads), store_units) = run(false);
        let ((direct_writes, direct_reads), direct_units) = run(true);
        assert_eq!(store_reads[0].0, vec![real(&[0; 40]), real(&[1; 40]), real(&[2; 40])]);
        assert_eq!(store_reads[1].0, Vec::new(), "empty parts are announced, not fetched");
        assert_eq!(direct_reads, store_reads);
        assert_eq!(direct_writes, store_writes);
        assert_eq!(direct_units, store_units);
        assert_eq!(store_units, [6.0, 3.0, 3.0]);
    }

    /// (b) Sender 0 has a copy on each path; sender 1 is only in a
    /// fallback file, so the receiver lists after its grace rounds and
    /// sees both of sender 0's. The higher attempt wins whichever path it
    /// is on, and the direct copy wins a tie.
    #[test]
    fn highest_attempt_wins_across_paths_and_direct_wins_a_tie() {
        // (attempt on p2p, attempt in the file, payload that must win)
        for (p2p_attempt, file_attempt, winner) in
            [(0, 1, b"file"), (1, 0, b"p2p!"), (0, 0, b"p2p!")]
        {
            let (sim, cloud, t) = edge(true, 8, 50);
            cloud.p2p.register(&format!("{CHANNEL}/r0"));
            let (parts, stats) = sim.block_on({
                let cloud = cloud.clone();
                async move {
                    let env = worker(&cloud, 0, p2p_attempt);
                    let sent = t.send(&env, CHANNEL, 0, vec![real(b"p2p!")]).await.unwrap();
                    assert_eq!((sent.p2p_requests, sent.put_requests), (1, 0));
                    put_file(&t, &worker(&cloud, 0, file_attempt), 0, 0, b"file").await;
                    put_file(&t, &worker(&cloud, 1, 0), 1, 0, b"only").await;
                    t.recv(&worker(&cloud, 10, 0), CHANNEL, 0, 2).await.unwrap()
                }
            });
            assert_eq!(parts, vec![real(winner), real(b"only")], "{p2p_attempt} vs {file_attempt}");
            let direct = u64::from(winner == b"p2p!");
            assert_eq!((stats.p2p_requests, stats.get_requests), (direct, 2 - direct));
            assert_eq!(stats.list_requests, 1, "one LIST, after the mailbox-only grace rounds");
        }
    }

    /// (b') A pass LISTs every incomplete bucket at once: with eight
    /// senders on eight buckets already written, discovery costs about one
    /// first-byte latency, not eight, and spends the LISTs and chooses the
    /// copies of a pass that visits the buckets one by one.
    #[test]
    fn a_discovery_pass_lists_all_buckets_in_one_round() {
        use crate::exchange::{Copy, CopyAt};
        let (sim, cloud, t) = edge_over(8, false, 0, 50);
        let ttfb = cloud.config.s3.ttfb_median.as_secs_f64();
        let chosen = |best: &BTreeMap<usize, Copy>| -> Vec<(usize, u32, u64, String)> {
            let key = |c: &Copy| match &c.at {
                CopyAt::Store { bucket, key, .. } => format!("{bucket}/{key}"),
                CopyAt::Mailbox(endpoint) => endpoint.to_string(),
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
                    put_file(&t, &worker(&cloud, s as u64, 1), s, 0, &[0xB0 | s as u8; 24]).await;
                }
                let (_, places) = t.sources(CHANNEL, 0, 8);
                assert_eq!(places.len(), 8, "one bucket per sender");
                let (handle, s3) = (&cloud.handle, worker(&cloud, 10, 0).s3);

                let start = handle.now();
                let (mut one_by_one, mut lists) = (BTreeMap::new(), 0);
                for place in &places {
                    let place = std::slice::from_ref(place);
                    lists += discover(handle, &s3, None, place, Some(0), true, &mut one_by_one)
                        .await
                        .unwrap();
                }
                let serial_secs = (handle.now() - start).as_secs_f64();

                let start = handle.now();
                let mut together = BTreeMap::new();
                let spent = discover(handle, &s3, None, &places, Some(0), true, &mut together)
                    .await
                    .unwrap();
                let round_secs = (handle.now() - start).as_secs_f64();
                assert_eq!((spent, lists), (8, 8));
                assert_eq!(chosen(&together), chosen(&one_by_one));
                assert_eq!(together[&2].attempt, 1, "the backup's file wins");
                assert!(serial_secs > 6.0 * ttfb, "one by one: {serial_secs} s");
                assert!(round_secs < 2.5 * ttfb, "one round: {round_secs} s");

                // The same through a receive: the wait is that one round.
                let (parts, stats) = t.recv(&worker(&cloud, 11, 0), CHANNEL, 0, 8).await.unwrap();
                assert!(stats.wait_secs < 2.5 * ttfb, "exchange_wait {} s", stats.wait_secs);
                assert_eq!((stats.list_requests, stats.get_requests), (8, 8));
                assert_eq!(parts[2], real(&[0xB2; 24]));
                assert_eq!(parts[3], real(&[3; 16]));
            }
        });
    }

    /// (b'') A barrier among running peers walks its buckets one by one:
    /// four peers that write their sample within a few first-byte
    /// latencies of each other all complete in one pass — one LIST per
    /// bucket, no back-off — where the one-round receive sends the early
    /// ones to sleep and to LIST again.
    #[test]
    fn a_barrier_pass_outlasts_the_skew_among_its_peers() {
        let run = |barrier: bool| {
            let (sim, cloud, t) = edge_over(4, false, 0, 50);
            let ttfb = cloud.config.s3.ttfb_median;
            let t = Rc::new(t);
            let peers: Vec<_> = (0..4usize)
                .map(|p| {
                    let (cloud, t) = (cloud.clone(), Rc::clone(&t));
                    cloud.handle.clone().spawn(async move {
                        let env = worker(&cloud, p as u64, 0);
                        cloud.handle.sleep(ttfb.mul_f64(0.5 * p as f64)).await;
                        t.send(&env, "x9/q0/s0smp", p, vec![real(&[p as u8; 8])]).await.unwrap();
                        let (parts, stats) = if barrier {
                            t.recv_barrier(&env, "x9/q0/s0smp", 4).await.unwrap()
                        } else {
                            t.recv(&env, "x9/q0/s0smp", 0, 4).await.unwrap()
                        };
                        assert_eq!(parts, (0..4).map(|s| real(&[s; 8])).collect::<Vec<_>>());
                        stats
                    })
                })
                .collect();
            sim.block_on(join_all(peers))
        };
        let ttfb = CloudConfig::default().s3.ttfb_median.as_secs_f64();
        for stats in run(true) {
            assert_eq!(stats.list_requests, 4, "one pass");
            assert!(stats.wait_secs < 5.0 * ttfb, "four LISTs, no back-off: {}", stats.wait_secs);
        }
        let one_round = run(false);
        assert!(one_round[0].list_requests > 4, "the first writer misses the late samples");
        assert_eq!(one_round[3].list_requests, 4, "the last writer finds everyone");
    }

    /// (c) A listed file with no section for this receiver is not a copy:
    /// its sender stays missing and the timeout says so, on both kinds.
    #[test]
    fn a_file_without_the_receivers_section_leaves_its_sender_missing() {
        for direct in [false, true] {
            let (sim, cloud, t) = edge(direct, 8, 6);
            cloud.p2p.register(&format!("{CHANNEL}/r0"));
            let err = sim.block_on({
                let cloud = cloud.clone();
                async move {
                    put_file(&t, &worker(&cloud, 0, 0), 0, 0, b"mine").await;
                    put_file(&t, &worker(&cloud, 1, 0), 1, 1, b"someone else's").await;
                    t.recv(&worker(&cloud, 10, 0), CHANNEL, 0, 2).await.unwrap_err()
                }
            });
            assert!(
                matches!(err, CoreError::Timeout { missing_workers: 1, .. }),
                "direct={direct}: {err}"
            );
        }
    }

    /// (d) One send is one `exchange_write` span, fallback file included.
    #[test]
    fn a_send_records_one_write_span_on_every_path() {
        // (direct, registered endpoints of two, PUTs expected)
        for (direct, registered, puts) in [(false, 0, 1), (true, 0, 1), (true, 1, 1), (true, 2, 0)]
        {
            let (sim, cloud, t) = edge(direct, 8, 50);
            for r in 0..registered {
                cloud.p2p.register(&format!("{CHANNEL}/r{r}"));
            }
            let stats = sim.block_on({
                let cloud = cloud.clone();
                async move {
                    let parts = vec![real(b"left"), real(b"right")];
                    t.send(&worker(&cloud, 0, 0), CHANNEL, 0, parts).await.unwrap()
                }
            });
            assert_eq!(stats.put_requests, puts, "direct={direct} registered={registered}");
            assert_eq!(stats.p2p_requests, registered as u64);
            assert_eq!(
                cloud.trace.spans("exchange_write").len(),
                1,
                "direct={direct} registered={registered}"
            );
        }
    }
}
