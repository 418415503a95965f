//! The S3-based scan operator (§4.3, Fig 8).
//!
//! Design points taken from the paper:
//!
//! * the footer is loaded "with a single file read" — a speculative tail
//!   range request, retried with the exact size if the footer turns out
//!   larger (level 4 exploits this: metadata for *all* files is prefetched
//!   by a dedicated task to hide the latency of these small requests, up
//!   to a footer GET per connection on the wire, the next one sent as soon
//!   as any of them lands, while the landed footers are parsed);
//! * min/max statistics prune entire row groups against the pushed-down
//!   predicate before any data is downloaded (Fig 11);
//! * only projected/predicate column chunks are downloaded, one ranged GET
//!   per chunk (level 2 runs chunks of a row group concurrently), split
//!   into multiple requests only above a size threshold (level 1, the
//!   trade-off of Fig 7: more requests cost more money);
//! * the same trade-off below the chunk sizes the paper studied: a span
//!   of no more bytes than a connection moves in one first-byte latency
//!   is *latency-bound* — the over-read costs less time than one more
//!   round trip and less money than one more request. A latency-bound
//!   *file* is its footer read: that one GET is the whole file. A
//!   latency-bound row group (its scanned chunks' span, gaps included)
//!   is one ranged GET. Either way the chunks are zero-copy slices of
//!   the one body;
//! * a row group whose scanned span lies inside the body the footer came
//!   in (the whole file, or the tail of a larger one) is sliced from that
//!   body and costs no request at all;
//! * an inline file ([`TableFile::inline`]) rode the worker's invocation
//!   payload: its footer read is that body, so the whole file is sliced
//!   from it with no request, and none of it counts in the worker's
//!   bytes read ([`crate::WorkerMetrics::bytes_read`]);
//! * up to `row_group_pipeline` row groups are in flight at once
//!   (level 3), overlapping downloads with decompression of the previous
//!   group;
//! * a row group decodes on as many *lanes* as the container has
//!   hardware threads, one per vCPU begun (⌈memory / 1792 MiB⌉, §4.1,
//!   Fig 4): one up to 1792 MiB, two up to 3584 MiB, which covers the
//!   paper's largest function (3008 MiB), and one more per 1792 MiB
//!   above. It decodes as its chunks land: a lane that is free takes its
//!   share of the landed chunks not yet decoded (their decode seconds ÷
//!   free lanes, rounded up to whole landings, in scan order), so a row
//!   group downloaded a GET per chunk decodes its first chunks while the
//!   rest are on the wire, and one that has landed by its turn decodes on
//!   every lane. One the footer's body holds, or one GET brings, lands in
//!   one piece: one charge on one lane.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use lambada_engine::expr::range::can_match;
use lambada_engine::{Column, Expr, RecordBatch, Schema};
use lambada_format::{ColumnChunkMeta, Compression, FileMeta, FormatError, RowGroupMeta};
use lambada_sim::services::object_store::Body;
use lambada_sim::sync::{mpsc, Semaphore};
use lambada_sim::{CloudConfig, JoinHandle};

use crate::env::WorkerEnv;
use crate::error::{CoreError, Result};
use crate::table::TableFile;

/// The bytes one connection moves within one first-byte latency, capped at
/// the request limit: a span of no more is *latency-bound* — a second
/// request for part of it would take longer than reading over the gaps —
/// and a file of no more is read whole by its footer read. The driver packs
/// latency-bound files into scan workers by the same limit.
pub(crate) fn latency_bound_bytes(cfg: &ScanConfig, cloud: &CloudConfig) -> u64 {
    let per_latency = cloud.s3.ttfb_median.as_secs_f64() * cloud.nic.per_conn;
    cfg.max_request_bytes.max(1).min(per_latency as u64)
}

/// Scan operator tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ScanConfig {
    /// Split chunk downloads into requests of at most this many bytes
    /// (the chunk-size knob of Fig 7).
    pub max_request_bytes: u64,
    /// Concurrent in-flight requests (connections) per scan: each
    /// [`scan_table`] call has its own, so a worker running several scans
    /// at once (a co-hosted scan beside its host's) runs this many each.
    pub connections: usize,
    /// Row groups downloaded ahead (level 3); the paper uses two.
    pub row_group_pipeline: usize,
    /// Speculative footer fetch size, for a file too large to read whole.
    pub metadata_tail_bytes: u64,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            max_request_bytes: 16 << 20,
            connections: 4,
            row_group_pipeline: 2,
            metadata_tail_bytes: 64 << 10,
        }
    }
}

/// One unit of scan output.
pub enum ScanItem {
    /// Decoded rows (real files).
    Batch(RecordBatch),
    /// Modeled rows (descriptor-backed files): timing and billing have
    /// been charged; only the shape is reported.
    Modeled { rows: u64, bytes: u64 },
}

/// Counters the scan maintains (feed [`crate::message::WorkerMetrics`];
/// its requests are counted by the worker's client).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanMetrics {
    pub files: u64,
    pub row_groups_total: u64,
    pub row_groups_pruned: u64,
    pub rows: u64,
}

/// One ranged GET under the connection budget.
async fn get_range(
    env: &WorkerEnv,
    conn: &Semaphore,
    file: &TableFile,
    offset: u64,
    len: u64,
) -> Result<Body> {
    let _permit = conn.acquire(1).await;
    Ok(env.s3.get_range(&file.bucket, &file.key, offset, len).await?)
}

/// A file's footer and the body it came in: the file's bytes
/// `[offset, size)` — all of them for a latency-bound file.
struct Footer {
    meta: Rc<FileMeta>,
    offset: u64,
    body: Body,
}

/// The bytes of a real file's body.
fn real_bytes(body: &Body) -> Result<&[u8]> {
    body.as_real()
        .map(|b| b.as_ref())
        .ok_or_else(|| CoreError::Format("real file returned synthetic body".to_string()))
}

/// Fetch a file's footer with one read. A file of at most
/// `coalesce_below` bytes is latency-bound, so the read is the whole file
/// and brings every row group with it; a larger one reads its last
/// `tail_bytes`, retried with the exact size if the footer turns out
/// larger. Each GET holds one of the scan's footer `slots` until it lands,
/// so its parse frees the slot for the next file's GET. The body comes
/// back with the footer, so a row group inside it costs no further
/// request. An inline file's footer read is its payload body, the whole
/// file: no request, no connection, no byte read from the store.
async fn fetch_metadata(
    env: &WorkerEnv,
    conn: &Semaphore,
    slots: &Semaphore,
    file: &TableFile,
    tail_bytes: u64,
    coalesce_below: u64,
) -> Result<Footer> {
    if let Some(body) = &file.inline {
        env.compute(env.costs.metadata_parse_s).await;
        let named = |e: String| CoreError::Format(format!("inline file {}: {e}", file.key));
        let bytes = body.as_real().ok_or_else(|| named("synthetic body".to_string()))?;
        let meta = FileMeta::parse_tail(bytes).map_err(|e| named(e.to_string()))?;
        return Ok(Footer { meta: Rc::new(meta), offset: 0, body: body.clone() });
    }
    let want = if file.size <= coalesce_below { file.size } else { tail_bytes.min(file.size) };
    let slot = slots.acquire(1).await;
    let body = get_range(env, conn, file, file.size - want, want).await?;
    drop(slot);
    env.compute(env.costs.metadata_parse_s).await;
    if let Some(meta) = &file.meta {
        // Descriptor-backed file: the range request above charged the
        // realistic latency/bytes/cost; the metadata rides along.
        return Ok(Footer { meta: Rc::clone(meta), offset: file.size - want, body });
    }
    let parsed = FileMeta::parse_tail(real_bytes(&body)?);
    match parsed {
        Ok(meta) => Ok(Footer { meta: Rc::new(meta), offset: file.size - want, body }),
        // Speculative fetch too small: retry with the exact size (a body
        // that is already the whole file has no more to give).
        Err(FormatError::TailTooShort(need)) if want < file.size => {
            let want = (need as u64).min(file.size);
            let _slot = slots.acquire(1).await;
            let body = get_range(env, conn, file, file.size - want, want).await?;
            let meta = FileMeta::parse_tail(real_bytes(&body)?)?;
            Ok(Footer { meta: Rc::new(meta), offset: file.size - want, body })
        }
        Err(e) => Err(e.into()),
    }
}

/// Reject a footer whose schema is not the table's.
fn check_width(file: &TableFile, meta: &FileMeta, width: usize) -> Result<()> {
    if meta.schema.len() != width {
        return Err(CoreError::Format(format!(
            "file {} has {} columns, table schema has {width}",
            file.key,
            meta.schema.len()
        )));
    }
    Ok(())
}

/// Reject a footer whose scanned chunks do not lie inside the file, before
/// any of them sizes a request list, a buffer or a slice: every `(offset,
/// compressed_len)` of the scan columns must end at or before
/// [`TableFile::size`], without overflowing.
fn check_chunk_ranges(file: &TableFile, meta: &FileMeta, columns: &[usize]) -> Result<()> {
    for (rg_idx, rg) in meta.row_groups.iter().enumerate() {
        for &c in columns {
            let chunk = &rg.columns[c];
            if chunk.offset.checked_add(chunk.compressed_len).is_none_or(|end| end > file.size) {
                return Err(CoreError::Format(format!(
                    "file {}: row group {rg_idx} column {c} claims bytes {}+{}, the file has {}",
                    file.key, chunk.offset, chunk.compressed_len, file.size
                )));
            }
        }
    }
    Ok(())
}

/// A column chunk as its requests come back: one request's body is kept
/// as it came; the bodies of several are copied into one buffer. Any
/// synthetic part makes the whole chunk synthetic (a descriptor table's
/// are all, and cost neither a buffer nor a copy).
enum ChunkParts {
    Whole(Body),
    Assembled(Vec<u8>),
    Synthetic,
}

/// Download one column chunk (possibly as several ranged requests). The
/// chunk's range has passed [`check_chunk_ranges`].
async fn download_chunk(
    env: &WorkerEnv,
    conn: &Semaphore,
    file: &TableFile,
    chunk: &ColumnChunkMeta,
    max_request_bytes: u64,
) -> Result<Body> {
    // Launch all requests for this chunk concurrently; the connection
    // semaphore bounds global parallelism (levels 1+2 share the budget).
    // A paper-scale scan spawns tens of thousands of these tasks per
    // query, so each carries the client and two names only.
    let mut joins = Vec::new();
    let mut off = chunk.offset;
    let end = chunk.offset + chunk.compressed_len;
    while off < end {
        let len = max_request_bytes.min(end - off);
        let (s3, conn, bucket, key) =
            (env.s3.clone(), conn.clone(), file.bucket.clone(), file.key.clone());
        joins.push(env.cloud.handle.spawn(async move {
            let _permit = conn.acquire(1).await;
            s3.get_range(&bucket, &key, off, len).await
        }));
        off += len;
    }
    let mut got: Option<ChunkParts> = None;
    let mut n_bytes = 0u64;
    for j in joins {
        let body = j.await?;
        n_bytes += body.len();
        got = Some(match (got, body) {
            (None, body) => ChunkParts::Whole(body),
            (Some(ChunkParts::Whole(Body::Real(first))), Body::Real(bytes)) => {
                let mut buf = Vec::with_capacity(chunk.compressed_len as usize);
                buf.extend_from_slice(&first);
                buf.extend_from_slice(&bytes);
                ChunkParts::Assembled(buf)
            }
            (Some(ChunkParts::Assembled(mut buf)), Body::Real(bytes)) => {
                buf.extend_from_slice(&bytes);
                ChunkParts::Assembled(buf)
            }
            _ => ChunkParts::Synthetic,
        });
    }
    Ok(match got {
        Some(ChunkParts::Whole(body)) => body,
        Some(ChunkParts::Assembled(buf)) => Body::from_vec(buf),
        Some(ChunkParts::Synthetic) => Body::Synthetic(n_bytes),
        None => Body::from_vec(Vec::new()),
    })
}

/// The scanned span of a row group: its first and one past its last
/// scanned byte, gaps included.
fn scanned_span(chunks: &[(usize, ColumnChunkMeta)]) -> (u64, u64) {
    let start = chunks.iter().map(|(_, c)| c.offset).min().unwrap_or(0);
    let end = chunks.iter().map(|(_, c)| c.offset + c.compressed_len).max().unwrap_or(0);
    (start, end)
}

/// The chunks as zero-copy slices of `body`, which holds the file's bytes
/// from `offset` on and every byte of them.
fn slice_chunks(chunks: &[(usize, ColumnChunkMeta)], body: &Body, offset: u64) -> Vec<Body> {
    chunks.iter().map(|(_, c)| body.slice(c.offset - offset, c.compressed_len)).collect()
}

/// Whether a row group's min/max statistics let `predicate` match any of
/// its rows (Fig 11); with no predicate every row group does.
pub(crate) fn may_match(predicate: Option<&Expr>, rg: &RowGroupMeta) -> bool {
    let stats = |i: usize| rg.columns.get(i).and_then(|c| c.stats);
    predicate.is_none_or(|pred| can_match(pred, &stats))
}

/// Start the downloads of one row group's scanned chunks, in `chunks`
/// order; each handle yields the bodies of a run of the chunks, and
/// together they yield one body per chunk. A scanned span of at most
/// `coalesce_below` bytes is one ranged GET whose body the chunks slice
/// (one handle); a wider one is a download per chunk, all launched at
/// once (level 2), each landing on its own (a handle per chunk).
fn download_row_group(
    env: &WorkerEnv,
    conn: &Semaphore,
    file: &TableFile,
    chunks: Rc<[(usize, ColumnChunkMeta)]>,
    max_request_bytes: u64,
    coalesce_below: u64,
) -> Vec<JoinHandle<Result<Vec<Body>>>> {
    let (start, end) = scanned_span(&chunks);
    let span = end - start;
    let (env, conn, file) = (env.clone(), conn.clone(), file.clone());
    let handle = env.cloud.handle.clone();
    if span > 0 && span <= coalesce_below {
        return vec![handle.spawn(async move {
            let whole = get_range(&env, &conn, &file, start, span).await?;
            Ok(slice_chunks(&chunks, &whole, start))
        })];
    }
    (0..chunks.len())
        .map(|i| {
            let (env, conn, file, chunks) =
                (env.clone(), conn.clone(), file.clone(), chunks.clone());
            handle.spawn(async move {
                let chunk = &chunks[i].1;
                Ok(vec![download_chunk(&env, &conn, &file, chunk, max_request_bytes).await?])
            })
        })
        .collect()
}

/// A scan's footer reads not yet handed over, in file order, each with
/// its output once it has one.
type Ahead<F> = VecDeque<(Pin<Box<F>>, Option<<F as Future>::Output>)>;

/// Drive every read in `ahead` and resolve with the first one's output
/// once it has one, so outputs leave in order while the reads overlap;
/// `None` once `ahead` is empty.
async fn next_in_order<F: Future>(ahead: &mut Ahead<F>) -> Option<F::Output> {
    std::future::poll_fn(|cx| {
        for (read, out) in ahead.iter_mut().filter(|(_, out)| out.is_none()) {
            if let Poll::Ready(done) = read.as_mut().poll(cx) {
                *out = Some(done);
            }
        }
        let Some((_, out)) = ahead.front_mut() else { return Poll::Ready(None) };
        let Some(first) = out.take() else { return Poll::Pending };
        ahead.pop_front();
        Poll::Ready(Some(first))
    })
    .await
}

/// A row group in flight: its rows, its scanned chunks and their
/// landings — each a run of the chunks' bodies, in scan order: one for a
/// row group the footer's body holds or a single GET brings, one per
/// chunk for a download per chunk.
struct InFlight {
    rows: u64,
    chunks: Rc<[(usize, ColumnChunkMeta)]>,
    landings: Vec<JoinHandle<Result<Vec<Body>>>>,
}

/// Decode and emit the oldest in-flight row group. Its landings join a
/// queue in scan order as they land (a landing waits for those before
/// it), and each of the container's lanes — one per hardware thread —
/// that is free takes its share of the queue: landings from the front,
/// at least one, until they hold the queue's decode seconds over the free
/// lanes. A lane is one charge of its landings' decode seconds, polled in
/// place; the lanes share the CPU with whatever else the worker runs. So
/// a row group downloaded a chunk at a time decodes its first chunks
/// while the rest are on the wire, and one that lands whole is one
/// charge, as it is with one lane.
async fn drain_one(
    env: &WorkerEnv,
    base_schema: &Schema,
    columns: &[usize],
    metrics: &mut ScanMetrics,
    rg: InFlight,
    tx: &mpsc::Sender<ScanItem>,
) -> Result<()> {
    let lanes = (env.ctx.instance.cpu.capacity().ceil() as usize).max(1);
    let decode_seconds = |chunks: &[(usize, ColumnChunkMeta)]| {
        chunks.iter().fold(0.0, |secs, (_, chunk)| {
            secs + env.costs.chunk_decode_seconds(
                chunk.compressed_len,
                chunk.uncompressed_len,
                chunk.compression == Compression::Lz,
            )
        })
    };
    let mut landings = rg.landings.into_iter().peekable();
    // The landed chunks' bodies in scan order, and of the landings not yet
    // charged, each one's chunk count and decode seconds.
    let mut bodies: Vec<Body> = Vec::with_capacity(rg.chunks.len());
    let (mut queued, mut charged) = (VecDeque::<(usize, f64)>::new(), 0);
    let mut busy: Vec<Pin<Box<dyn Future<Output = ()> + '_>>> = Vec::with_capacity(lanes);
    std::future::poll_fn(|cx| loop {
        while let Some(next) = landings.peek_mut() {
            match Pin::new(next).poll(cx) {
                Poll::Pending => break,
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Ready(Ok(landed)) => {
                    landings.next();
                    let at = bodies.len();
                    queued.push_back((
                        landed.len(),
                        decode_seconds(&rg.chunks[at..][..landed.len()]),
                    ));
                    bodies.extend(landed);
                }
            }
        }
        busy.retain_mut(|lane| lane.as_mut().poll(cx).is_pending());
        if queued.is_empty() || busy.len() == lanes {
            let done = landings.peek().is_none() && queued.is_empty() && busy.is_empty();
            return if done { Poll::Ready(Ok(())) } else { Poll::Pending };
        }
        while busy.len() < lanes && !queued.is_empty() {
            let share =
                queued.iter().map(|&(_, secs)| secs).sum::<f64>() / (lanes - busy.len()) as f64;
            let (mut n, mut taken) = (0, 0.0);
            while let Some(&(chunks, secs)) = queued.front().filter(|_| n == 0 || taken < share) {
                queued.pop_front();
                (n, taken) = (n + chunks, taken + secs);
            }
            let secs = decode_seconds(&rg.chunks[charged..charged + n]);
            charged += n;
            busy.push(Box::pin(env.compute(secs)));
        }
    })
    .await?;
    let (mut cols, mut all_real) = (Vec::with_capacity(columns.len()), true);
    for ((col_idx, chunk), body) in rg.chunks.iter().zip(&bodies) {
        let Some(bytes) = body.as_real().filter(|_| all_real) else {
            all_real = false;
            continue;
        };
        let ptype = base_schema.field(*col_idx).dtype.to_physical().map_err(CoreError::from)?;
        cols.push(Column::from_data(lambada_format::decode_chunk(chunk, ptype, bytes)?));
    }
    metrics.rows += rg.rows;
    let item = if all_real && !cols.is_empty() {
        let schema = std::sync::Arc::new(base_schema.project(columns));
        ScanItem::Batch(RecordBatch::new(schema, cols).map_err(CoreError::from)?)
    } else {
        let bytes: u64 = rg.chunks.iter().map(|(_, c)| c.uncompressed_len).sum();
        ScanItem::Modeled { rows: rg.rows, bytes }
    };
    tx.send(item).map_err(|_| CoreError::Engine("scan consumer dropped".to_string()))?;
    Ok(())
}

/// Scan the given files, emitting [`ScanItem`]s in file/row-group order
/// into `items` (the consumer overlaps pipeline processing with further
/// downloads).
///
/// `columns` (base-schema indices, ascending) selects the output columns;
/// `prune_predicate` (base-schema indices) is used only for row-group
/// pruning — row-level filtering happens downstream in the pipeline.
pub async fn scan_table(
    env: &WorkerEnv,
    cfg: &ScanConfig,
    files: &[TableFile],
    base_schema: &Schema,
    columns: &[usize],
    prune_predicate: Option<&Expr>,
    items: mpsc::Sender<ScanItem>,
) -> Result<ScanMetrics> {
    let mut metrics = ScanMetrics::default();
    let conn = Semaphore::new(cfg.connections.max(1));
    let max_req = cfg.max_request_bytes.max(1);
    let coalesce_below = latency_bound_bytes(cfg, &env.cloud.config);

    // Level 4: prefetch metadata in a dedicated task. Every file's footer
    // read starts at once and waits for one of `connections` slots, each
    // held across one footer GET alone: a GET that lands frees its slot
    // for the next file's while its footer is parsed, so at most a
    // connection's worth of footer GETs is ahead of the chunk GETs, and a
    // worker's packed latency-bound files download back to back. Footers
    // are handed over in file order; each is checked against the scan
    // first, and the task stops at the first file that fails (or once the
    // scan is gone), dropping the reads still in flight.
    let (meta_tx, mut meta_rx) = mpsc::channel::<Result<Footer>>();
    {
        let env = env.clone();
        let conn = conn.clone();
        let files: Vec<TableFile> = files.to_vec();
        let columns = columns.to_vec();
        let width = base_schema.len();
        let tail = cfg.metadata_tail_bytes;
        let slots = Semaphore::new(cfg.connections.max(1));
        env.cloud.handle.clone().spawn(async move {
            let (env, conn, slots, columns) = (&env, &conn, &slots, &columns);
            let fetch = |file: TableFile| async move {
                let footer = fetch_metadata(env, conn, slots, &file, tail, coalesce_below).await?;
                check_width(&file, &footer.meta, width)?;
                check_chunk_ranges(&file, &footer.meta, columns)?;
                Ok(footer)
            };
            let mut ahead = files.into_iter().map(|f| (Box::pin(fetch(f)), None)).collect();
            while let Some(out) = next_in_order(&mut ahead).await {
                let failed = out.is_err();
                if meta_tx.send(out).is_err() || failed {
                    return;
                }
            }
        });
    }

    // In-flight row groups (level 3), oldest first.
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    for file in files {
        let footer = match meta_rx.recv().await {
            Some(f) => f?,
            None => return Err(CoreError::Storage("metadata prefetch task died".to_string())),
        };
        metrics.files += 1;
        for rg in &footer.meta.row_groups {
            metrics.row_groups_total += 1;
            if !may_match(prune_predicate, rg) {
                metrics.row_groups_pruned += 1;
                continue;
            }
            // Wait for a pipeline slot.
            while inflight.len() >= cfg.row_group_pipeline.max(1) {
                let Some(head) = inflight.pop_front() else { break };
                drain_one(env, base_schema, columns, &mut metrics, head, &items).await?;
            }
            // Level 2/1: download the needed chunks of this row group.
            let chunks: Rc<[(usize, ColumnChunkMeta)]> =
                columns.iter().map(|&c| (c, rg.columns[c].clone())).collect();
            // A row group the footer's body holds is already here: one
            // landing of every chunk.
            let landings = if scanned_span(&chunks).0 >= footer.offset {
                let held = slice_chunks(&chunks, &footer.body, footer.offset);
                vec![env.cloud.handle.spawn(async move { Ok(held) })]
            } else {
                download_row_group(env, &conn, file, chunks.clone(), max_req, coalesce_below)
            };
            inflight.push_back(InFlight { rows: rg.num_rows, chunks, landings });
        }
    }
    while let Some(head) = inflight.pop_front() {
        drain_one(env, base_schema, columns, &mut metrics, head, &items).await?;
    }
    Ok(metrics)
}
