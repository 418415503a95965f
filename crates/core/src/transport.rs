//! The stage-edge transport: how a producer fleet's partitioned output
//! reaches its consumer fleet.
//!
//! The Lambada paper routes every shuffle byte through the object store
//! (§4.4): one write-combined PUT per sender, ranged GETs per `(sender,
//! receiver)` pair. That is the correctness keystone — duplicate-tolerant
//! via attempt-suffixed keys, storage-synchronized so fleets launched at
//! different times never need to coexist — but also the dominant
//! request-cost and latency term of the exchange. A *direct*
//! worker-to-worker path (in the style of lambdatization's `chappy`
//! rendezvous/relay) replaces the storage hop without weakening any of
//! those guarantees.
//!
//! # One edge, with or without a mailbox, addressed by the driver
//!
//! There is one transport, [`EdgeTransport`], and one protocol: a sender
//! writes (`exchange::put_combined`) and reports its section table, the
//! driver addresses every receiver, the receiver fetches
//! (`exchange::fetch_copies`). The direct transport is that protocol with
//! a p2p *mailbox* per receiver in front of it; **the object-store
//! transport is the direct transport with no mailbox** — nothing is ever
//! delivered, so everything rides the combined file, and a direct edge
//! whose every endpoint is unreachable issues exactly the object store's
//! requests. The contract:
//!
//! * **Registration.** Consumers are addressed by *endpoint*
//!   `{channel}/r{receiver}`. The driver registers every consumer
//!   endpoint of a query with the rendezvous service *before the first
//!   stage launches* — none for a sort edge, which never streams.
//!   Cleanup deregisters the query's whole endpoint prefix.
//! * **Section tables.** [`EdgeTransport::send`] returns one [`Section`]
//!   per receiver: its length and which of three wires carries it — the
//!   receiver's mailbox, the sender's file, or inline. The worker reports
//!   it ([`crate::message::ResultPayload::Sections`]); the driver keeps
//!   the first report per worker and, once a consumer fleet's inputs are
//!   complete, hands each consumer worker one [`SectionAddr`] per sender
//!   ([`address_sections`]). [`EdgeTransport::recv`] goes straight to the
//!   fetch: no LIST, no poll, no back-off, no wait.
//! * **Sort edges.** Into any number of sorters, a producer's sections
//!   are the *blocks* of its sorted run instead, and it reports their
//!   first keys (`crate::worker` cuts them). Blocks are not receivers:
//!   they ride inline or in one combined file, never a mailbox — so a
//!   sort edge does not stream on the direct transport, even into one
//!   sorter. From the pooled first keys the driver picks the range
//!   boundaries (none for one range), and the same [`address_sections`]
//!   hands each receiver one address per sender over the run of blocks
//!   that can hold its range, beside that range's boundaries
//!   ([`InEdge::bounds`]), by which the receiver keeps its own rows.
//! * **Inline senders.** A sender whose sections all encode to at most
//!   its inline budget ([`inline_budget`]: what is left of
//!   [`crate::message::INLINE_EDGE_BYTES`] after the section tables and
//!   addresses, shared by the consumer's senders; [`block_budget`] on a
//!   sort edge) writes no file and sends no message:
//!   its sections ride its result message, and the driver copies each
//!   receiver's slice into that receiver's invocation payload, which it
//!   decodes with no request. The decision is the same on both
//!   transports and is taken before any mailbox streaming; modeled parts
//!   never inline.
//! * **Fallback.** A send to an unregistered endpoint (rendezvous
//!   capacity exhausted, query torn down) or over a severed link must
//!   not lose data: whatever a sender could not deliver goes into one
//!   write-combined file that carries sections *only for those
//!   receivers*, and the table says which receivers those are.
//! * **Attempt semantics.** Every message and file key carries the
//!   sender's attempt id, and an address names one attempt, so a
//!   speculative backup can never be mixed with its original.
//! * **Empty parts.** A zero-length partition travels nowhere: the table's
//!   zero length is all its receiver learns, so a sender whose every part
//!   is empty PUTs nothing and sends no message. It is never fetched and
//!   is omitted from the received part list.
//!
//! Nothing on a stage edge discovers its copies: LIST polls are left to
//! Algorithm 1's peers (`exchange::run_exchange`). Mailbox fetches are
//! free, which is where the direct path's request savings come from (see
//! `exchange_cost::direct_edge_counts`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::rc::Rc;

use lambada_engine::Scalar;
use lambada_sim::services::object_store::Bytes;
use lambada_sim::sync::{join_all, Semaphore};
use lambada_sim::P2pService;

use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::exchange::{
    edge_key, encode_bundle, encode_bundle_into, fetch_copies, p2p_side_key, put_combined, Copy,
    CopyAt, ExchangeBuckets, ExchangeSide, PartData,
};
use crate::invoke::tree_shape;
use crate::message::{inline_claim, INLINE_EDGE_BYTES, SECTION_BYTES};
pub use crate::message::{Section, Wire};
use crate::worker::SORT_SAMPLE_ROWS;

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

/// Where a receiver finds one sender's section of a stage edge: the
/// sender's attempt whose report the driver kept, and where on its wire
/// the section is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionAddr {
    pub attempt: u32,
    pub at: At,
}

/// Where on its wire one section is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum At {
    /// `len` bytes at `offset` within the attempt's combined file; `len`
    /// 0 for an empty part.
    File { offset: u64, len: u64 },
    /// A `len`-byte message in the receiver's mailbox.
    Mailbox { len: u64 },
    /// The section itself: a view of the sender's inline blob, shared,
    /// not copied.
    Inline(Bytes),
}

/// Where one consumer worker finds its part of one in-edge: one address
/// per sender and, on a sort edge, the boundaries of its own range — the
/// one below it unless it is the first range, then the one above it
/// unless it is the last, so none when there is one range. Of the rows
/// it receives it keeps those whose range among its bounds is
/// `usize::from(worker > 0)`, or every row when it has no bounds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InEdge {
    pub senders: Vec<SectionAddr>,
    pub bounds: Vec<Vec<Scalar>>,
}

/// The most an address adds to an invocation payload besides its inline
/// bytes: the attempt, offset and length as varints at their widest (5,
/// 10 and 10 B) and a wire tag.
pub const ADDRESS_BYTES: usize = 26;

/// The most one sort-key value of a boundary adds to a payload: an
/// `Int64` or a `Float64`.
pub const KEY_BYTES: usize = 8;

/// Each sender's inline budget into a consumer stage of `receivers`
/// workers whose in-edges have `senders` senders in all:
/// [`INLINE_EDGE_BYTES`] less what locates the sections — a message's
/// section table ([`SECTION_BYTES`] per receiver) and the addresses of
/// the largest payload ([`ADDRESS_BYTES`] per sender for each receiver
/// of a tree group, which covers a directly invoked payload) — and less
/// the `files` bytes of inline table files each payload carries beside
/// them (a one-worker chain's co-hosted scans'), shared evenly. Any set of
/// senders' inline bytes then fits beside the addresses and files in any
/// payload, and each sender's fits beside its table in its message.
pub fn inline_budget(senders: usize, receivers: usize, files: usize) -> u64 {
    shared_budget(senders, receivers, receivers * SECTION_BYTES, files)
}

/// [`inline_budget`] for the senders of a sort edge over `keys` sort
/// keys: a table holds up to `SORT_SAMPLE_ROWS` (32) blocks whatever the
/// fleet, and every payload carries its range's two boundaries besides
/// the addresses. A sender's starts ride its message too, so it inlines
/// only what fits its budget beside them.
pub fn block_budget(senders: usize, receivers: usize, keys: usize, files: usize) -> u64 {
    shared_budget(
        senders,
        receivers,
        SORT_SAMPLE_ROWS * SECTION_BYTES,
        2 * keys * KEY_BYTES + files,
    )
}

/// What is left of [`INLINE_EDGE_BYTES`] after one message's `table` and
/// the largest payload — a tree group of receivers, each with one
/// address per sender and `per_payload` more bytes — shared evenly by
/// the `senders`.
fn shared_budget(senders: usize, receivers: usize, table: usize, per_payload: usize) -> u64 {
    let payloads = tree_shape(receivers).1 * (senders * ADDRESS_BYTES + per_payload);
    let located = INLINE_EDGE_BYTES.saturating_sub(table + payloads);
    (located / senders.max(1)) as u64
}

/// Turn one sender's reported section table and inline blob into one
/// address per receiver of a `receivers`-worker consumer fleet.
/// `spans[b]` is the first and the last receiver section `b` can hold:
/// `(r, r)` for receiver `r`'s own section of a hash or agg edge, the
/// ranges a sorted block can hold on a sort edge. Spans never decrease,
/// so the sections receiver `r` needs are contiguous, and its address
/// covers that run — a zero-length one when there is none. Each wire's
/// sections lie back to back in table order, so an offset is a prefix
/// sum of the sections before it on its wire. A table of another length
/// than `spans`, whose file sections end past `u64::MAX` or whose inline
/// sections do not fill the blob exactly, is a typed error, and so is a
/// run that is not on one wire or a mailbox section addressed to any
/// receiver but its own: a mailbox holds one message per receiver.
pub fn address_sections(
    attempt: u32,
    sections: &[Section],
    inline: &Bytes,
    spans: &[(usize, usize)],
    receivers: usize,
) -> Result<Vec<SectionAddr>> {
    if spans.len() != sections.len() {
        let (got, want) = (sections.len(), spans.len());
        return Err(CoreError::Format(format!("a table of {got} sections for {want} spans")));
    }
    let len = inline.len();
    if inline_claim(sections) != Some(len as u64) {
        return Err(CoreError::Format(format!("inline sections do not fill a {len} B blob")));
    }
    // Where each section starts on its wire.
    let (mut file, mut blob, mut offsets) = (0u64, 0u64, Vec::with_capacity(sections.len()));
    for s in sections {
        let end = match s.wire {
            Wire::File => &mut file,
            Wire::Inline => &mut blob,
            Wire::Mailbox => {
                offsets.push(0);
                continue;
            }
        };
        offsets.push(*end);
        *end = end.checked_add(s.len).ok_or_else(overflow)?;
    }
    let address = |r: usize| {
        let first = spans.partition_point(|&(_, last)| last < r);
        let end = spans.partition_point(|&(first, _)| first <= r).max(first);
        let run = &sections[first..end];
        let Some(wire) = run.first().map(|s| s.wire) else {
            return Ok(SectionAddr { attempt, at: At::File { offset: 0, len: 0 } });
        };
        if run.iter().any(|s| s.wire != wire) {
            return Err(CoreError::Format(format!("receiver {r}'s sections span two wires")));
        }
        if wire == Wire::Mailbox && (first, end) != (r, r + 1) {
            let what = format!("mailbox sections {first}..{end} addressed to receiver {r}");
            return Err(CoreError::Format(what));
        }
        // In range: a file or blob run ends within its wire's total.
        let (offset, len) = (offsets[first], run.iter().map(|s| s.len).sum::<u64>());
        let at = match wire {
            Wire::Mailbox => At::Mailbox { len },
            Wire::File => At::File { offset, len },
            Wire::Inline => At::Inline(inline.slice(offset as usize..(offset + len) as usize)),
        };
        Ok(SectionAddr { attempt, at })
    };
    (0..receivers).map(address).collect()
}

fn overflow() -> CoreError {
    CoreError::Format("section offsets overflow the file".to_string())
}

/// A sender's traveling `entries` as one inline blob — each receiver's
/// bundle, back to back, marked [`Wire::Inline`] in `sections` — iff
/// every one is real and together they encode to at most `budget` bytes.
/// Senders far over budget are turned away before anything is encoded.
/// One turned away after encoding leaves its entries marked inline: the
/// stream or file that then carries them re-marks every one.
fn inline_blob(
    entries: &[(u32, PartData)],
    budget: u64,
    sections: &mut [Section],
) -> Result<Option<Vec<u8>>> {
    let raw: u64 = entries.iter().map(|(_, data)| data.len()).sum();
    if raw > budget || !entries.iter().all(|(_, data)| data.is_real()) {
        return Ok(None);
    }
    let mut blob = Vec::new();
    for entry in entries {
        let (len, _) = encode_bundle_into(&mut blob, std::slice::from_ref(entry))?;
        sections[entry.0 as usize] = Section { len, wire: Wire::Inline };
    }
    Ok((blob.len() as u64 <= budget).then_some(blob))
}

/// One stage edge's wire: how sender `s`'s partitioned output reaches
/// receivers `0..partitions`, and how receiver `r` collects its
/// co-partition from every sender. With a p2p service it streams to the
/// receivers' mailboxes ([`TransportKind::Direct`]); without one every
/// byte goes through the object store (the paper baseline, §4.4).
pub struct EdgeTransport {
    buckets: ExchangeBuckets,
    side: ExchangeSide,
    p2p: Option<P2pService>,
}

impl EdgeTransport {
    /// An edge whose files shard over `buckets`, streaming through `p2p`
    /// when there is one.
    pub fn new(buckets: ExchangeBuckets, p2p: Option<P2pService>) -> Self {
        EdgeTransport { buckets, side: ExchangeSide::new(), p2p }
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
        (self.buckets.bucket_of(sender), format!("{channel}/"))
    }

    /// Where sender `sender`'s file of `channel` from attempt `attempt`
    /// lies, as `(bucket, key)`: for a receive, and for the query's owner
    /// ([`crate::driver::QueryScope`]) to delete.
    pub(crate) fn file_of(&self, channel: &str, sender: usize, attempt: u32) -> (String, String) {
        let (bucket, prefix) = self.place_of(channel, sender);
        (bucket, edge_key(&prefix, sender, attempt))
    }

    /// Receiver `receiver`'s p2p endpoint on `channel`: the one place an
    /// endpoint is named, for the driver's registration
    /// ([`crate::driver::QueryScope`]) and for both ends of a stream.
    pub(crate) fn endpoint(channel: &str, receiver: usize) -> Rc<str> {
        Rc::from(format!("{channel}/r{receiver}"))
    }

    /// Ship `parts` onto the edge `channel` as sender `sender`: one part
    /// per consumer worker — or, with `stream` off, one per block of a
    /// sorted run, which no mailbox receives. Charges the in-memory
    /// partitioning compute; then, if every non-empty part is real and
    /// they encode to at most `inline_budget` bytes together, returns them
    /// as the inline blob and writes nothing. Otherwise it streams what it
    /// may over p2p and PUTs one combined file for the rest — everything,
    /// without p2p or `stream`. Empty parts travel nowhere. Returns the
    /// bytes moved — file, streamed bodies and inline blob — the section
    /// table (one [`Section`] per part) and the blob. Its requests count in
    /// `env`'s tally.
    pub async fn send(
        &self,
        env: &WorkerEnv,
        channel: &str,
        sender: usize,
        parts: Vec<PartData>,
        inline_budget: u64,
        stream: bool,
    ) -> Result<(u64, Vec<Section>, Bytes)> {
        let held_bytes: u64 = parts.iter().map(PartData::len).sum();
        env.compute(env.costs.partition_seconds(held_bytes)).await;
        let start = env.cloud.handle.now();

        let mut sections = vec![Section { len: 0, wire: Wire::File }; parts.len()];
        let entries = parts.into_iter().enumerate().filter(|(_, data)| !data.is_empty());
        let mut entries: Vec<(u32, PartData)> =
            entries.map(|(rcv, data)| (rcv as u32, data)).collect();
        let inline = inline_blob(&entries, inline_budget, &mut sections)?;
        if inline.is_none() && stream && self.p2p.is_some() {
            entries = self.stream(env, channel, sender, entries, &mut sections).await?;
        }
        if inline.is_none() && !entries.is_empty() {
            // The same bundle encoding on every wire, so a received part
            // is bit-identical whichever wire carried it.
            let bundles = entries.into_iter().map(|(rcv, data)| (rcv, vec![(rcv, data)])).collect();
            let (bucket, prefix) = self.place_of(channel, sender);
            let filed =
                put_combined(env, &self.side, &bucket, &prefix, sender, false, bundles).await?;
            for (rcv, len) in filed {
                sections[rcv as usize] = Section { len, wire: Wire::File };
            }
        }
        env.cloud.trace.record(env.worker_id, "exchange_write", start, env.cloud.handle.now());
        // Each non-empty part's section now names the wire that carried it.
        let moved = sections.iter().map(|s| s.len).sum();
        Ok((moved, sections, Bytes::from(inline.unwrap_or_default())))
    }

    /// Stream each entry to its receiver's mailbox, 16 connections at a
    /// time, marking the delivered ones' sections, and hand back the
    /// entries that could not be delivered (unregistered endpoint,
    /// severed link), sorted by receiver.
    async fn stream(
        &self,
        env: &WorkerEnv,
        channel: &str,
        sender: usize,
        entries: Vec<(u32, PartData)>,
        sections: &mut [Section],
    ) -> Result<Vec<(u32, PartData)>> {
        let attempt = env.attempt;
        let conn = Semaphore::new(16);
        let mut sends = Vec::with_capacity(entries.len());
        for entry in entries {
            let rcv = entry.0;
            let endpoint = Self::endpoint(channel, rcv as usize);
            let (body, sizes) = encode_bundle(std::slice::from_ref(&entry))?;
            if let Some(sizes) = sizes {
                self.side.put(p2p_side_key(&endpoint, sender, attempt), rcv, sizes);
            }
            let client2 = env.p2p.clone();
            let conn2 = conn.clone();
            sends.push(env.cloud.handle.spawn(async move {
                let _permit = conn2.acquire(1).await;
                let len = body.len();
                match client2.send(&endpoint, sender as u32, attempt, body).await {
                    Ok(()) => Ok((rcv, len)),
                    Err(_) => Err(entry),
                }
            }));
        }
        let mut undelivered = Vec::new();
        for outcome in join_all(sends).await {
            match outcome {
                Ok((rcv, len)) => sections[rcv as usize] = Section { len, wire: Wire::Mailbox },
                Err(entry) => undelivered.push(entry),
            }
        }
        Ok(undelivered)
    }

    /// Collect receiver `receiver`'s co-partition of the edge `channel`
    /// from the senders the driver addressed, `addrs[s]` for sender `s`:
    /// decode the inline sections and fetch the other non-empty ones
    /// straight from their wires — one request per address — and return
    /// their payloads in sender order (empty parts omitted). A mailbox
    /// address on a transport without p2p is a typed error. Its requests
    /// count in `env`'s tally.
    pub async fn recv(
        &self,
        env: &WorkerEnv,
        channel: &str,
        receiver: usize,
        addrs: &[SectionAddr],
    ) -> Result<Vec<PartData>> {
        let endpoint = Self::endpoint(channel, receiver);
        let mut copies = Vec::with_capacity(addrs.len());
        for (sender, a) in addrs.iter().enumerate() {
            let (len, at) = match (&a.at, &self.p2p) {
                (At::Mailbox { .. }, None) => {
                    return Err(CoreError::Storage(format!(
                        "sender {sender} of {channel} addressed a mailbox on the object-store transport"
                    )))
                }
                (At::Inline(bytes), _) => (bytes.len() as u64, CopyAt::Inline(bytes.clone())),
                (At::Mailbox { len }, Some(_)) => (*len, CopyAt::Mailbox(Rc::clone(&endpoint))),
                (At::File { offset, len }, _) => {
                    let (bucket, key) = self.file_of(channel, sender, a.attempt);
                    (*len, CopyAt::Store { bucket, key, offset: Some(*offset) })
                }
            };
            copies.push(Copy { sender, attempt: a.attempt, len, at });
        }
        // Nothing to wait for: the span stays, zero long.
        let start = env.cloud.handle.now();
        env.cloud.trace.record(env.worker_id, "exchange_wait", start, start);
        let fetched = fetch_copies(env, &self.side, receiver, copies).await?;
        let out = fetched.into_iter().map(|(_, data)| data).collect();
        env.cloud.trace.record(env.worker_id, "exchange_read", start, env.cloud.handle.now());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use lambada_sim::{Cloud, CloudConfig, CostItem, P2pConfig, Simulation, Tally};

    use super::*;
    use crate::costmodel::ComputeCostModel;

    const CHANNEL: &str = "x9/q0/s0";

    /// A cloud with the exchange buckets and an edge of either kind.
    /// `endpoints` caps the rendezvous service.
    fn edge(direct: bool, endpoints: usize) -> (Simulation, Cloud, EdgeTransport) {
        let sim = Simulation::new();
        let p2p = P2pConfig { max_endpoints: endpoints, ..P2pConfig::default() };
        let cloud = Cloud::new(&sim, CloudConfig { p2p, ..CloudConfig::default() });
        let buckets = ExchangeBuckets::default();
        buckets.install(&cloud);
        let transport = EdgeTransport::new(buckets, direct.then(|| cloud.p2p.clone()));
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

    /// What the driver hands receiver `receiver`: one address per sender,
    /// from each sender's `(attempt, section table, inline blob)`.
    fn addresses(tables: &[(u32, Vec<Section>, Bytes)], receiver: usize) -> Vec<SectionAddr> {
        tables
            .iter()
            .map(|(attempt, sections, inline)| {
                let own: Vec<_> = (0..sections.len()).map(|r| (r, r)).collect();
                let addrs = address_sections(*attempt, sections, inline, &own, sections.len());
                addrs.unwrap().swap_remove(receiver)
            })
            .collect()
    }

    /// (a) The object-store edge *is* the direct edge with no reachable
    /// endpoint: same tables, same parts, same GET/PUT counts, same
    /// tallies — and neither lists anything.
    #[test]
    fn direct_edge_without_endpoints_is_the_object_store_edge() {
        let run = |direct: bool| {
            let (sim, cloud, t) = edge(direct, 0);
            assert_eq!(t.kind() == TransportKind::Direct, direct);
            let cloud2 = cloud.clone();
            let got = sim.block_on(async move {
                for r in 0..3usize {
                    let registered = cloud2.p2p.register(&EdgeTransport::endpoint(CHANNEL, r));
                    assert!(!registered, "the rendezvous service has no capacity");
                }
                let (mut writes, mut tables) = (Vec::new(), Vec::new());
                for s in 0..3usize {
                    let parts = vec![real(&[s as u8; 40]), real(&[]), real(&[7, s as u8])];
                    let env = worker(&cloud2, s as u64, 0);
                    let (moved, sections, inline) =
                        t.send(&env, CHANNEL, s, parts, 0, true).await.unwrap();
                    writes.push((moved, env.tally()));
                    tables.push((0, sections, inline));
                }
                let mut reads = Vec::new();
                for r in 0..3usize {
                    let env = worker(&cloud2, 10 + r as u64, 0);
                    let parts = t.recv(&env, CHANNEL, r, &addresses(&tables, r)).await.unwrap();
                    reads.push((parts, env.tally()));
                }
                (writes, tables, reads)
            });
            let units = [CostItem::S3Get, CostItem::S3Put, CostItem::S3List]
                .map(|item| cloud.billing.units(item));
            (got, units)
        };
        let ((store_writes, store_tables, store_reads), store_units) = run(false);
        let ((direct_writes, direct_tables, direct_reads), direct_units) = run(true);
        let file = |len| Section { len, wire: Wire::File };
        assert_eq!(store_tables[1].1, vec![file(43), file(0), file(5)]);
        assert!(store_tables.iter().all(|(_, _, inline)| inline.is_empty()), "a budget of 0");
        assert_eq!(store_reads[0].0, vec![real(&[0; 40]), real(&[1; 40]), real(&[2; 40])]);
        assert_eq!(store_reads[1].0, Vec::new(), "empty parts are announced, not fetched");
        assert_eq!(direct_tables, store_tables);
        assert_eq!(direct_reads, store_reads);
        assert_eq!(direct_writes, store_writes);
        assert_eq!(direct_units, store_units);
        assert_eq!(store_units, [6.0, 3.0, 0.0]);
    }

    /// (d) One send is one `exchange_write` span, fallback file included,
    /// and its table says where every receiver's copy went: a registered
    /// receiver's to its mailbox, the rest into the file. Each receiver
    /// then reads from where its copy is, with no LIST and no wait.
    #[test]
    fn a_send_records_one_write_span_on_every_path() {
        // (direct, registered endpoints of two, PUTs expected)
        for (direct, registered, puts) in [(false, 0, 1), (true, 0, 1), (true, 1, 1), (true, 2, 0)]
        {
            let what = format!("direct={direct} registered={registered}");
            let (sim, cloud, t) = edge(direct, 8);
            for r in 0..registered {
                cloud.p2p.register(&EdgeTransport::endpoint(CHANNEL, r));
            }
            let ((stats, sections, _), reads) = sim.block_on({
                let cloud = cloud.clone();
                async move {
                    let parts = vec![real(b"left"), real(b"right")];
                    let env = worker(&cloud, 0, 0);
                    let (_, sections, inline) =
                        t.send(&env, CHANNEL, 0, parts, 0, true).await.unwrap();
                    let tables = [(0, sections.clone(), inline.clone())];
                    let mut reads = Vec::new();
                    for r in 0..2 {
                        let env = worker(&cloud, 10, 0);
                        let parts = t.recv(&env, CHANNEL, r, &addresses(&tables, r)).await.unwrap();
                        reads.push((parts, env.tally()));
                    }
                    ((env.tally(), sections, inline), reads)
                }
            });
            assert_eq!(stats.puts, puts, "{what}");
            assert_eq!(stats.p2p_messages, registered as u64);
            assert_eq!(cloud.trace.spans("exchange_write").len(), 1, "{what}");
            let wires: Vec<Wire> = sections.iter().map(|s| s.wire).collect();
            let expect: Vec<Wire> =
                (0..2).map(|r| if r < registered { Wire::Mailbox } else { Wire::File }).collect();
            assert_eq!(wires, expect, "{what}");
            for (r, (parts, stats)) in reads.iter().enumerate() {
                assert_eq!(parts, &vec![real([&b"left"[..], b"right"][r])], "{what}");
                assert_eq!(stats.p2p_messages, u64::from(r < registered), "{what}");
            }
            assert_eq!(cloud.billing.units(CostItem::S3List), 0.0, "{what}");
        }
    }

    /// (e) An addressed receive reads the attempt it is handed and
    /// nothing else: attempt 0's addresses while the bucket also holds a
    /// different attempt-1 file of that sender return attempt 0's bytes,
    /// with no LIST and no wait.
    #[test]
    fn an_addressed_receive_reads_the_attempt_it_is_handed() {
        let (sim, cloud, t) = edge(false, 0);
        let (parts, stats) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let (original, backup) = (worker(&cloud, 0, 0), worker(&cloud, 0, 1));
                let (_, sections, inline) =
                    t.send(&original, CHANNEL, 0, vec![real(b"first")], 0, true).await.unwrap();
                t.send(&backup, CHANNEL, 0, vec![real(b"backup!")], 0, true).await.unwrap();
                let env = worker(&cloud, 10, 0);
                let addrs = addresses(&[(0, sections, inline)], 0);
                (t.recv(&env, CHANNEL, 0, &addrs).await.unwrap(), env.tally())
            }
        });
        assert_eq!(parts, vec![real(b"first")]);
        assert_eq!(stats.gets, 1);
        assert_eq!(cloud.billing.units(CostItem::S3List), 0.0);
    }

    /// (f) A hash edge's table has one section per receiver on any mix of
    /// wires: file offsets advance only over file sections, inline ones
    /// are slices of the blob. A table the driver cannot address from,
    /// and an address the transport cannot serve, are typed errors: a
    /// table of the wrong length, sections ending past `u64::MAX` or not
    /// filling the blob, a mailbox address on the object-store transport.
    #[test]
    fn addresses_that_do_not_fit_are_typed_errors() {
        let file = |len| Section { len, wire: Wire::File };
        let mail = |len| Section { len, wire: Wire::Mailbox };
        let inl = |len| Section { len, wire: Wire::Inline };
        let (none, blob) = (Bytes::new(), Bytes::from(vec![1, 2, 3, 4, 5, 6]));
        let own = |n: usize| (0..n).map(|r| (r, r)).collect::<Vec<_>>();
        let f = |offset, len| At::File { offset, len };
        let (slice, mailbox) = (|range| At::Inline(blob.slice(range)), |len| At::Mailbox { len });
        // (table, blob, receivers, one address per receiver)
        let cases = [
            (
                vec![file(5), mail(9), file(0), file(7)],
                &none,
                4,
                vec![f(0, 5), mailbox(9), f(5, 0), f(5, 7)],
            ),
            (vec![inl(2), file(9), inl(4)], &blob, 3, vec![slice(0..2), f(0, 9), slice(2..6)]),
            (
                vec![file(u64::MAX), mail(1), file(0)],
                &none,
                3,
                vec![f(0, u64::MAX), mailbox(1), f(u64::MAX, 0)],
            ),
        ];
        for (table, blob, receivers, want) in cases {
            let got = address_sections(2, &table, blob, &own(receivers), receivers).unwrap();
            assert!(got.iter().all(|a| a.attempt == 2), "{table:?}");
            assert_eq!(got.into_iter().map(|a| a.at).collect::<Vec<_>>(), want, "{table:?}");
        }

        for (what, table, blob, spans) in [
            ("a table short of its receivers", vec![file(5)], &none, own(2)),
            ("file sections past u64::MAX", vec![file(u64::MAX), file(1)], &none, own(2)),
            ("inline sections past the blob", vec![inl(2), inl(5)], &blob, own(2)),
            ("inline sections short of it", vec![inl(2), inl(2)], &blob, own(2)),
            ("inline sections past u64::MAX", vec![inl(u64::MAX), inl(1)], &blob, own(2)),
        ] {
            let err = address_sections(0, &table, blob, &spans, 2);
            assert!(matches!(err, Err(CoreError::Format(_))), "{what}: {err:?}");
        }

        let (sim, cloud, t) = edge(false, 0);
        let mailbox = sim.block_on(async move {
            let addr = SectionAddr { attempt: 0, at: At::Mailbox { len: 0 } };
            t.recv(&worker(&cloud, 10, 0), CHANNEL, 0, &[addr]).await.err()
        });
        assert!(matches!(&mailbox, Some(CoreError::Storage(m)) if m.contains("mailbox")));
    }

    /// (f') A sort-edge sender's blocks, addressed by the same rule: each
    /// receiver gets one address over the contiguous blocks whose spans
    /// hold its range — both receivers of the boundary a block straddles,
    /// a zero-length one when no block does — in the file or in the blob.
    /// Spans of another length than the table, a run on two wires and a
    /// mailbox section addressed to any receiver but its own are typed
    /// errors.
    #[test]
    fn blocks_are_addressed_to_every_range_their_spans_hold() {
        let file = |len| Section { len, wire: Wire::File };
        let mail = |len| Section { len, wire: Wire::Mailbox };
        let inl = |len| Section { len, wire: Wire::Inline };
        let (none, blob) = (Bytes::new(), Bytes::from(vec![1, 2, 3, 4, 5, 6]));
        let f = |offset, len| At::File { offset, len };
        let slice = |range| At::Inline(blob.slice(range));
        // (table, blob, spans, receivers, one address per receiver)
        let cases = [
            (
                vec![file(5), file(7), file(2), file(9)],
                &none,
                vec![(0, 0), (0, 1), (1, 1), (3, 3)],
                4,
                vec![f(0, 12), f(5, 9), f(0, 0), f(14, 9)],
            ),
            (vec![inl(2), inl(4)], &blob, vec![(0, 1), (1, 1)], 2, vec![slice(0..2), slice(0..6)]),
            (Vec::new(), &none, Vec::new(), 3, vec![f(0, 0); 3]),
        ];
        for (table, blob, spans, receivers, want) in cases {
            let got = address_sections(4, &table, blob, &spans, receivers).unwrap();
            assert!(got.iter().all(|a| a.attempt == 4), "{table:?}");
            assert_eq!(got.into_iter().map(|a| a.at).collect::<Vec<_>>(), want, "{table:?}");
        }

        for (what, table, blob, spans) in [
            ("spans short of the table", vec![file(2), file(4)], &none, vec![(0, 0)]),
            ("a run on two wires", vec![inl(2), file(4)], &blob.slice(0..2), vec![(0, 0), (0, 1)]),
            ("another receiver's mailbox", vec![mail(2)], &none, vec![(1, 1)]),
            ("a run of mailboxes", vec![mail(u64::MAX), mail(1)], &none, vec![(0, 0), (0, 1)]),
        ] {
            let err = address_sections(0, &table, blob, &spans, 2);
            assert!(matches!(err, Err(CoreError::Format(_))), "{what}: {err:?}");
        }
    }

    /// (h) Empty parts travel nowhere: a sender whose every part is empty
    /// PUTs no zero-byte file and sends no zero-length message, on either
    /// transport and even with no inline budget, and its receivers read
    /// nothing, request nothing.
    #[test]
    fn a_sender_of_empty_parts_spends_no_request() {
        for direct in [false, true] {
            let (sim, cloud, t) = edge(direct, 8);
            for r in 0..3 {
                cloud.p2p.register(&EdgeTransport::endpoint(CHANNEL, r));
            }
            let (sent, table, reads) = sim.block_on({
                let cloud = cloud.clone();
                async move {
                    let env = worker(&cloud, 0, 0);
                    let (moved, sections, inline) =
                        t.send(&env, CHANNEL, 0, vec![real(&[]); 3], 0, true).await.unwrap();
                    let table = [(0, sections.clone(), inline)];
                    let mut reads = Vec::new();
                    for r in 0..3 {
                        let env = worker(&cloud, 10, 0);
                        let parts = t.recv(&env, CHANNEL, r, &addresses(&table, r)).await.unwrap();
                        reads.push((parts, env.tally()));
                    }
                    ((moved, env.tally()), sections, reads)
                }
            });
            assert_eq!(sent, (0, Tally::default()), "direct={direct}");
            assert_eq!(table, vec![Section { len: 0, wire: Wire::File }; 3]);
            for (parts, stats) in reads {
                assert_eq!((parts, stats), (Vec::new(), Tally::default()));
            }
            let units = [CostItem::S3Get, CostItem::S3Put, CostItem::S3List];
            assert_eq!(units.map(|item| cloud.billing.units(item)), [0.0; 3], "direct={direct}");
            assert_eq!(cloud.p2p.counters().0, 0, "direct={direct}: no zero-length message");
        }
    }

    /// (i) The inline budget is inclusive: a sender whose sections encode
    /// to one byte under it or exactly to it rides inline — no PUT, no
    /// message, no GET, and its receivers decode the same parts as from a
    /// file — and one byte over it writes its file, on either transport.
    #[test]
    fn senders_at_and_under_the_budget_ride_inline_and_over_it_write() {
        let parts = || vec![real(&[1; 300]), real(&[]), real(&[2; 40])];
        // Each bundle: its part count, receiver id and length prefix (two
        // bytes for 300).
        let encoded = (1 + 1 + 2 + 300) + (1 + 1 + 1 + 40);
        for direct in [false, true] {
            for (budget, inline) in [(encoded + 1, true), (encoded, true), (encoded - 1, false)] {
                let what = format!("direct={direct} budget={budget}");
                let (sim, cloud, t) = edge(direct, 0);
                let ((sent, sections, blob), reads) = sim.block_on({
                    let cloud = cloud.clone();
                    async move {
                        let env = worker(&cloud, 0, 0);
                        let (moved, sections, blob) =
                            t.send(&env, CHANNEL, 0, parts(), budget, true).await.unwrap();
                        let table = [(0, sections.clone(), blob.clone())];
                        let mut reads = Vec::new();
                        for r in 0..3 {
                            let env = worker(&cloud, 10, 0);
                            let addrs = addresses(&table, r);
                            reads.push(t.recv(&env, CHANNEL, r, &addrs).await.unwrap());
                        }
                        (((moved, env.tally()), sections, blob), reads)
                    }
                });
                let wire = if inline { Wire::Inline } else { Wire::File };
                let wires: Vec<Wire> = sections.iter().map(|s| s.wire).collect();
                assert_eq!(wires, vec![wire, Wire::File, wire], "{what}");
                assert_eq!(sections[0].len + sections[2].len, encoded, "{what}");
                let expect = [vec![real(&[1; 300])], Vec::new(), vec![real(&[2; 40])]];
                assert_eq!(reads, expect, "{what}");
                let riding = if inline { encoded } else { 0 };
                assert_eq!((sent.0, blob.len() as u64), (encoded, riding), "{what}");
                assert_eq!(sent.1.puts, u64::from(!inline), "{what}");
                let gets = cloud.billing.units(CostItem::S3Get);
                assert_eq!(gets, if inline { 0.0 } else { 2.0 }, "{what}");
            }
        }
    }

    /// (g) A stage-edge key does not grow with the consumer fleet: a
    /// 256-receiver edge's file key stays far under S3's 1 KiB cap, where
    /// naming every section in it would not.
    #[test]
    fn a_wide_edges_keys_stay_under_the_s3_key_cap() {
        let (sim, cloud, t) = edge(false, 0);
        let (keys, sections) = sim.block_on({
            let cloud = cloud.clone();
            async move {
                let parts = (0..256).map(|r| real(&vec![7; 100 + r])).collect();
                let (_, sections, _) =
                    t.send(&worker(&cloud, 4095, 3), CHANNEL, 4095, parts, 0, true).await.unwrap();
                let (bucket, prefix) = t.place_of(CHANNEL, 4095);
                (cloud.driver_s3().list(&bucket, &prefix).await.unwrap(), sections)
            }
        });
        let keys: Vec<&str> = keys.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, vec![format!("{CHANNEL}/snd4095a3")]);
        let named: usize = sections
            .iter()
            .enumerate()
            .map(|(r, s)| format!(".{r}_{}", s.len).len())
            .sum::<usize>()
            + keys[0].len();
        assert!(keys[0].len() < 1024 && named > 1024, "{} vs {named} bytes", keys[0].len());
    }
}
