//! Wire messages between workers and the driver.
//!
//! Workers post exactly one message to the result queue per invocation —
//! success with a payload, or an error report (§3.3). Messages are
//! hand-serialized with the same binary codec the file format uses.
//!
//! A message must fit one SQS message ([`SQS_MESSAGE_BYTES`]), so a
//! worker returns its batches or agg state inline only up to
//! [`INLINE_RESULT_BYTES`] and stores larger ones in cloud storage
//! (§3.3). Stage-edge sections
//! ride a message under the same bound ([`INLINE_EDGE_BYTES`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use lambada_engine::Scalar;
use lambada_format::binio::{BinReader, BinWriter};
use lambada_format::FormatError;
use lambada_sim::services::object_store::Bytes;

use crate::error::{CoreError, Result};
use crate::transport::{At, InEdge, SectionAddr};

/// SQS's cap on one message body: 256 KiB.
pub const SQS_MESSAGE_BYTES: usize = lambada_sim::services::queue::MAX_MESSAGE_BYTES;

/// Largest encoded batches or agg state a worker returns inline in its
/// result message ([`ResultPayload::InlineBatches`],
/// [`ResultPayload::AggState`]); anything larger is stored in the result
/// bucket ([`ResultPayload::Stored`]). The message
/// cap less 4 KiB for the rest of the message: the header and member
/// count (≤ 46 B), and per stage the invocation ran its
/// [`WorkerMetrics`] (≤ 137 B, and ≤ 20 B of hedge counters) plus, ahead
/// of the last, its payload (≤ 21 B) — room for chains of twenty-odd
/// fused stages.
pub const INLINE_RESULT_BYTES: usize = SQS_MESSAGE_BYTES - 4 * 1024;

/// What may ride toward one consumer stage, all together: the inline
/// bytes of its senders plus the section tables and addresses that
/// locate them. Each of its `n` senders inlines its whole output iff it
/// encodes to at most its share of what the tables and addresses leave
/// ([`crate::transport::inline_budget`]). So one sender's result message, and
/// any set of consumer workers' invocation payloads (a two-level tree's
/// first generation included), stays within both 256 KiB caps, SQS's
/// and Lambda's asynchronous invoke's, with the same 4 KiB to spare as
/// [`INLINE_RESULT_BYTES`].
pub const INLINE_EDGE_BYTES: usize = INLINE_RESULT_BYTES;

/// Per-worker execution metrics, reported with every result.
///
/// Wire stability: append-only. Fields encode in declaration order with
/// the varint codec; reorder or remove one and a driver decoding results
/// from an already-deployed worker fleet reads garbage. New counters go
/// at the end, with decode defaults for short reads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerMetrics {
    /// Time spent executing the plan fragment (seconds, excludes
    /// invocation latency — the paper's Fig 11 "processing time").
    pub processing_secs: f64,
    /// Rows scanned (after row-group pruning).
    pub rows_in: u64,
    /// Rows surviving the filter.
    pub rows_out: u64,
    /// Bytes downloaded from cloud storage.
    pub bytes_read: u64,
    /// GET requests issued.
    pub get_requests: u64,
    /// Row groups pruned via min/max statistics.
    pub row_groups_pruned: u64,
    /// Row groups scanned.
    pub row_groups_scanned: u64,
    /// Bytes written to cloud storage (exchange edges, stored results).
    pub bytes_written: u64,
    /// PUT requests issued (exchange writes, result uploads).
    pub put_requests: u64,
    /// LIST requests issued: 0 on a query stage, whose in-edges the
    /// driver addresses (only an Algorithm-1 exchange,
    /// [`crate::exchange::run_exchange`], discovers by LIST).
    pub list_requests: u64,
    /// Rows exchanged to the consumer stage (hash-partition fragments) or
    /// received from producer stages (join workers).
    pub rows_exchanged: u64,
    /// Messages moved over the p2p relay (direct transport only).
    pub p2p_requests: u64,
    /// Payload bytes moved over the p2p relay (direct transport only).
    pub p2p_bytes: u64,
    /// Whether this invocation was a cold start.
    pub cold_start: bool,
    /// Virtual seconds spent blocked in exchange discovery polls waiting
    /// for peers' sections to appear — billed worker time; 0 on a query
    /// stage, whose in-edges the driver addresses, so nothing waits.
    pub exchange_wait_secs: f64,
    /// Duplicate GETs sent for GETs past their hedge deadline, each billed
    /// beside the one in `get_requests` it duplicated. Encoded apart, at
    /// the end of the [`WorkerResult`].
    pub hedged_gets: u64,
    /// Duplicate PUTs, likewise beside `put_requests`.
    pub hedged_puts: u64,
}

impl WorkerMetrics {
    fn encode(&self, w: &mut BinWriter) {
        w.f64(self.processing_secs);
        w.varint(self.rows_in);
        w.varint(self.rows_out);
        w.varint(self.bytes_read);
        w.varint(self.get_requests);
        w.varint(self.row_groups_pruned);
        w.varint(self.row_groups_scanned);
        w.varint(self.bytes_written);
        w.varint(self.put_requests);
        w.varint(self.list_requests);
        w.varint(self.rows_exchanged);
        w.varint(self.p2p_requests);
        w.varint(self.p2p_bytes);
        w.bool(self.cold_start);
        w.f64(self.exchange_wait_secs);
    }

    /// `may_end`: these metrics may end the message, so an encoder from
    /// before `exchange_wait_secs` may have stopped short of it.
    fn decode(r: &mut BinReader<'_>, may_end: bool) -> std::result::Result<Self, FormatError> {
        Ok(WorkerMetrics {
            processing_secs: r.f64()?,
            rows_in: r.varint()?,
            rows_out: r.varint()?,
            bytes_read: r.varint()?,
            get_requests: r.varint()?,
            row_groups_pruned: r.varint()?,
            row_groups_scanned: r.varint()?,
            bytes_written: r.varint()?,
            put_requests: r.varint()?,
            list_requests: r.varint()?,
            rows_exchanged: r.varint()?,
            p2p_requests: r.varint()?,
            p2p_bytes: r.varint()?,
            cold_start: r.bool()?,
            // Appended after the first release; absent on messages from
            // older encoders, so a short read defaults it.
            exchange_wait_secs: if may_end && r.is_exhausted() { 0.0 } else { r.f64()? },
            hedged_gets: 0,
            hedged_puts: 0,
        })
    }
}

/// Which wire carries one receiver's section of a stage edge.
///
/// Wire stability: encodes as one byte, `File` 0, `Mailbox` 1 and
/// `Inline` 2; the values are frozen once assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    /// The sender's write-combined object file.
    File = 0,
    /// The receiver's p2p mailbox (direct transport only).
    Mailbox = 1,
    /// The sender's result message, then the receiver's invocation
    /// payload: no request at either end.
    Inline = 2,
}

/// One receiver's section of a sender's write onto a stage edge: its
/// byte length (0: an empty part, nothing to fetch) and where it is.
/// Sections of the file, and inline sections in the sender's blob, lie
/// back to back in receiver order.
///
/// Wire stability: encodes as `varint len`, then the [`Wire`] byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Section {
    pub len: u64,
    pub wire: Wire,
}

/// The most one [`Section`] adds to a result message: its length as a
/// varint at its widest (10 B) and the wire byte.
pub const SECTION_BYTES: usize = 11;

/// The payload of a successful worker.
///
/// Wire stability: variants encode by fixed tag (0–7; `Exchanged` is 4,
/// errors are 3, and a section table with starts is 7 — tag 6's fields,
/// then the starts); tags are frozen once assigned. New payload kinds take the
/// next free tag — never reuse one, a mixed-version fleet would
/// misparse old results. The `AggState` encoding
/// ([`lambada_engine::agg::GroupedAggState::encode`]) is additionally
/// the *carried window state* of continuous queries
/// (`FinalStage::CarryAggState`): the driver merges it across
/// micro-batches and may hold it for the lifetime of a stream, so the
/// state bytes are as frozen as the tag — append-only evolution with
/// short-read defaults, never a reinterpretation of existing bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum ResultPayload {
    /// Serialized partial-aggregate state of at most
    /// [`INLINE_RESULT_BYTES`], inline in the message.
    AggState(Vec<u8>),
    /// Batches or agg state larger than [`INLINE_RESULT_BYTES`] were
    /// written to cloud storage instead: `rows` result rows, or the rows
    /// out of the stage that built the state.
    Stored { bucket: String, key: String, rows: u64 },
    /// Fragment produced nothing (e.g. all row groups pruned).
    Empty,
    /// The fragment's rows went to the next stage of a fused chain in the
    /// same invocation (`bytes` 0).
    Exchanged { rows: u64, bytes: u64 },
    /// Encoded result batches small enough to ride the message itself
    /// (at most [`INLINE_RESULT_BYTES`]): no PUT, no driver GET.
    InlineBatches { rows: u64, bytes: Vec<u8> },
    /// The fragment's rows went onto a stage edge: `bytes` crossed it,
    /// and `sections[r]` tells the driver where receiver `r`'s part is —
    /// what it hands every consumer worker so no receiver lists storage.
    /// `inline` holds the [`Wire::Inline`] sections back to back; it
    /// follows the fused members (only hedge counters come after it), and
    /// a message from an older encoder, which ends before it, decodes with
    /// none. On a sort edge
    /// the sections are the blocks of the sender's sorted run, and
    /// `starts` (encoded key columns,
    /// [`crate::partition::encode_batches`]) holds each block's first
    /// sort key and then the run's last.
    Sections {
        rows: u64,
        bytes: u64,
        sections: Vec<Section>,
        inline: Bytes,
        starts: Option<Vec<u8>>,
    },
}

/// One message on the result queue.
///
/// Wire stability: append-only, same codec discipline as
/// [`WorkerMetrics`]; the outcome tag distinguishes success payloads
/// from error reports and is frozen. Fields appended after the fused
/// members go after the inline blob, whose length the section table
/// gives: there the hedge counters of every stage end a message that has
/// any, and a message without them decodes with none.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerResult {
    pub worker_id: u64,
    /// Which invocation attempt produced this result: 0 for the
    /// original, 1.. for speculative backups. The driver keeps the first
    /// result per `worker_id` regardless of attempt.
    pub attempt: u32,
    /// The last stage's outcome (the only stage, unless the invocation
    /// ran a fused chain).
    pub outcome: std::result::Result<ResultPayload, String>,
    pub metrics: WorkerMetrics,
    /// A fused chain's members ahead of the last, in chain order: each
    /// one's own payload (what it handed on) and metrics. Empty for an
    /// invocation that ran one stage. Appended after the first release;
    /// a short read leaves it empty.
    pub fused: Vec<(ResultPayload, WorkerMetrics)>,
}

impl WorkerResult {
    pub fn ok(worker_id: u64, payload: ResultPayload, metrics: WorkerMetrics) -> WorkerResult {
        WorkerResult { worker_id, attempt: 0, outcome: Ok(payload), metrics, fused: Vec::new() }
    }

    pub fn error(
        worker_id: u64,
        message: impl Into<String>,
        metrics: WorkerMetrics,
    ) -> WorkerResult {
        WorkerResult {
            worker_id,
            attempt: 0,
            outcome: Err(message.into()),
            metrics,
            fused: Vec::new(),
        }
    }

    /// Tag this result with the attempt id that produced it.
    pub fn with_attempt(mut self, attempt: u32) -> WorkerResult {
        self.attempt = attempt;
        self
    }

    /// One result per stage the invocation ran, in chain order: the
    /// fused members ahead of the last, then the last one's own.
    pub(crate) fn split_fused(mut self) -> Vec<WorkerResult> {
        let fused = std::mem::take(&mut self.fused);
        let (worker_id, attempt) = (self.worker_id, self.attempt);
        let mut out: Vec<WorkerResult> = fused
            .into_iter()
            .map(|(payload, metrics)| WorkerResult::ok(worker_id, payload, metrics))
            .map(|r| r.with_attempt(attempt))
            .collect();
        out.push(self);
        out
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = BinWriter::new();
        w.varint(self.worker_id);
        w.varint(u64::from(self.attempt));
        match &self.outcome {
            Ok(payload) => encode_payload(&mut w, payload),
            Err(msg) => {
                w.u8(3);
                w.string(msg);
            }
        }
        self.metrics.encode(&mut w);
        w.varint(self.fused.len() as u64);
        for (payload, metrics) in &self.fused {
            encode_payload(&mut w, payload);
            metrics.encode(&mut w);
        }
        if let Ok(ResultPayload::Sections { inline, .. }) = &self.outcome {
            w.raw(inline);
        }
        // Appended after the blob: every stage's hedge counters, the last
        // stage's first, when any is not 0 — so a message without hedges
        // is byte for byte what an older encoder sent.
        let counters: Vec<u64> = std::iter::once(&self.metrics)
            .chain(self.fused.iter().map(|(_, m)| m))
            .flat_map(|m| [m.hedged_gets, m.hedged_puts])
            .collect();
        if counters.iter().any(|&n| n > 0) {
            counters.into_iter().for_each(|n| w.varint(n));
        }
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<WorkerResult> {
        let mut r = BinReader::new(bytes);
        let inner = (|| -> std::result::Result<WorkerResult, FormatError> {
            let worker_id = r.varint()?;
            let attempt = r.varint()? as u32;
            let outcome = match r.u8()? {
                3 => Err(r.string()?),
                tag => Ok(decode_payload(tag, &mut r)?),
            };
            let mut metrics = WorkerMetrics::decode(&mut r, true)?;
            // Appended after the first release: absent on messages from
            // older encoders. Entries are pushed as they decode, never
            // reserved from the claimed count.
            let mut fused = Vec::new();
            let members = if r.is_exhausted() { 0 } else { r.varint()? };
            for _ in 0..members {
                let mut payload = decode_payload(r.u8()?, &mut r)?;
                attach_inline(Some(&mut payload), &mut BinReader::new(&[]))?;
                fused.push((payload, WorkerMetrics::decode(&mut r, false)?));
            }
            let mut outcome = outcome;
            attach_inline(outcome.as_mut().ok(), &mut r)?;
            // The hedge counters end the message, if any was sent.
            if !r.is_exhausted() {
                for m in std::iter::once(&mut metrics).chain(fused.iter_mut().map(|(_, m)| m)) {
                    (m.hedged_gets, m.hedged_puts) = (r.varint()?, r.varint()?);
                }
                if !r.is_exhausted() {
                    let extra = r.remaining();
                    return Err(FormatError::Corrupt(format!(
                        "{extra} B after the hedge counters"
                    )));
                }
            }
            Ok(WorkerResult { worker_id, attempt, outcome, metrics, fused })
        })();
        inner.map_err(|e| CoreError::Format(e.to_string()))
    }
}

/// How many blob bytes a section table's inline sections claim, all
/// together; `None` past `u64::MAX`.
pub(crate) fn inline_claim(sections: &[Section]) -> Option<u64> {
    let mut inline = sections.iter().filter(|s| s.wire == Wire::Inline);
    inline.try_fold(0u64, |sum, s| sum.checked_add(s.len))
}

/// Hand a decoded outcome its inline blob: as many of `r`'s bytes as its
/// inline sections claim — none but a section table's — and a claim past
/// what is left is an error, checked before anything is copied.
fn attach_inline(
    outcome: Option<&mut ResultPayload>,
    r: &mut BinReader<'_>,
) -> std::result::Result<(), FormatError> {
    let (claimed, inline) = match outcome {
        Some(ResultPayload::Sections { sections, inline, .. }) => (inline_claim(sections), inline),
        _ => (Some(0), &mut Bytes::new()),
    };
    let left = r.remaining();
    let Some(len) = claimed.and_then(|c| usize::try_from(c).ok()).filter(|&c| c <= left) else {
        let claim = format!("inline sections claim {claimed:?} B of a blob of at most {left} B");
        return Err(FormatError::Corrupt(claim));
    };
    *inline = Bytes::copy_from_slice(r.raw(len)?);
    Ok(())
}

fn encode_payload(w: &mut BinWriter, payload: &ResultPayload) {
    match payload {
        ResultPayload::AggState(bytes) => {
            w.u8(0);
            w.bytes(bytes);
        }
        ResultPayload::Stored { bucket, key, rows } => {
            w.u8(1);
            w.string(bucket);
            w.string(key);
            w.varint(*rows);
        }
        ResultPayload::Empty => w.u8(2),
        ResultPayload::Exchanged { rows, bytes } => {
            w.u8(4);
            w.varint(*rows);
            w.varint(*bytes);
        }
        ResultPayload::InlineBatches { rows, bytes } => {
            w.u8(5);
            w.varint(*rows);
            w.bytes(bytes);
        }
        // The inline blob goes at the end of the message.
        ResultPayload::Sections { rows, bytes, sections, inline: _, starts } => {
            w.u8(if starts.is_some() { 7 } else { 6 });
            w.varint(*rows);
            w.varint(*bytes);
            w.varint(sections.len() as u64);
            for s in sections {
                w.varint(s.len);
                w.u8(s.wire as u8);
            }
            if let Some(starts) = starts {
                w.bytes(starts);
            }
        }
    }
}

fn decode_payload(
    tag: u8,
    r: &mut BinReader<'_>,
) -> std::result::Result<ResultPayload, FormatError> {
    Ok(match tag {
        0 => ResultPayload::AggState(r.bytes()?.to_vec()),
        1 => ResultPayload::Stored { bucket: r.string()?, key: r.string()?, rows: r.varint()? },
        2 => ResultPayload::Empty,
        4 => ResultPayload::Exchanged { rows: r.varint()?, bytes: r.varint()? },
        5 => ResultPayload::InlineBatches { rows: r.varint()?, bytes: r.bytes()?.to_vec() },
        6 | 7 => {
            let (rows, bytes, count) = (r.varint()?, r.varint()?, r.varint()?);
            // Pushed as they decode, never reserved from the claimed count.
            let mut sections = Vec::new();
            for _ in 0..count {
                let len = r.varint()?;
                let wire = match r.u8()? {
                    0 => Wire::File,
                    1 => Wire::Mailbox,
                    2 => Wire::Inline,
                    other => return Err(FormatError::Corrupt(format!("unknown wire {other}"))),
                };
                sections.push(Section { len, wire });
            }
            let starts = if tag == 7 { Some(r.bytes()?.to_vec()) } else { None };
            ResultPayload::Sections { rows, bytes, sections, inline: Bytes::new(), starts }
        }
        other => return Err(FormatError::Corrupt(format!("unknown result tag {other}"))),
    })
}

/// The inbox message the driver sends a hosted stage: where it finds
/// its other in-edges, one [`InEdge`] per in-edge in input order — the
/// one its host hands on empty. It is what the stage's invocation
/// payload would have carried, sized the same way
/// ([`crate::worker::edge_bytes`]), so it fits one SQS message whenever
/// that payload fits the invoke cap.
///
/// Wire stability: a `varint` edge count, then per edge its senders — a
/// `varint` count, and per sender a `varint` attempt and a tag: 0 a file
/// section with `varint` offset and length, 1 a mailbox section with
/// `varint` length, 2 an inline section with its length-prefixed bytes —
/// and its bounds: a `varint` row count, and per row a `varint` key count
/// and per key a tag (0 `Int64`, 1 `Float64`, 2 `Boolean`) and 8 bytes.
/// Tags are frozen once assigned.
pub fn encode_in_edges(edges: &[InEdge]) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.varint(edges.len() as u64);
    for edge in edges {
        w.varint(edge.senders.len() as u64);
        for addr in &edge.senders {
            w.varint(u64::from(addr.attempt));
            match &addr.at {
                At::File { offset, len } => {
                    w.u8(0);
                    w.varint(*offset);
                    w.varint(*len);
                }
                At::Mailbox { len } => {
                    w.u8(1);
                    w.varint(*len);
                }
                At::Inline(bytes) => {
                    w.u8(2);
                    w.bytes(bytes);
                }
            }
        }
        w.varint(edge.bounds.len() as u64);
        for row in &edge.bounds {
            w.varint(row.len() as u64);
            for key in row {
                match key {
                    Scalar::Int64(v) => {
                        w.u8(0);
                        w.i64(*v);
                    }
                    Scalar::Float64(v) => {
                        w.u8(1);
                        w.f64(*v);
                    }
                    Scalar::Boolean(v) => {
                        w.u8(2);
                        w.u64(u64::from(*v));
                    }
                }
            }
        }
    }
    w.into_bytes()
}

/// Decode [`encode_in_edges`]: a cut, a bad tag or trailing bytes is a
/// typed error, never a panic.
pub fn decode_in_edges(bytes: &[u8]) -> Result<Vec<InEdge>> {
    let mut r = BinReader::new(bytes);
    let inner = (|| -> std::result::Result<Vec<InEdge>, FormatError> {
        // Pushed as they decode, never reserved from a claimed count.
        let mut edges = Vec::new();
        for _ in 0..r.varint()? {
            let mut edge = InEdge::default();
            for _ in 0..r.varint()? {
                let attempt = u32::try_from(r.varint()?)
                    .map_err(|_| FormatError::Corrupt("attempt past u32".to_string()))?;
                let at = match r.u8()? {
                    0 => At::File { offset: r.varint()?, len: r.varint()? },
                    1 => At::Mailbox { len: r.varint()? },
                    2 => At::Inline(Bytes::copy_from_slice(r.bytes()?)),
                    other => return Err(FormatError::Corrupt(format!("unknown address {other}"))),
                };
                edge.senders.push(SectionAddr { attempt, at });
            }
            for _ in 0..r.varint()? {
                let mut row = Vec::new();
                for _ in 0..r.varint()? {
                    row.push(match r.u8()? {
                        0 => Scalar::Int64(r.i64()?),
                        1 => Scalar::Float64(r.f64()?),
                        2 => Scalar::Boolean(r.u64()? != 0),
                        other => return Err(FormatError::Corrupt(format!("unknown key {other}"))),
                    });
                }
                edge.bounds.push(row);
            }
            edges.push(edge);
        }
        if !r.is_exhausted() {
            return Err(FormatError::Corrupt(format!("{} B after the in-edges", r.remaining())));
        }
        Ok(edges)
    })();
    inner.map_err(|e| CoreError::Format(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> WorkerMetrics {
        WorkerMetrics {
            processing_secs: 2.5,
            rows_in: 1000,
            rows_out: 20,
            bytes_read: 1 << 20,
            get_requests: 9,
            row_groups_pruned: 3,
            row_groups_scanned: 5,
            bytes_written: 1 << 18,
            put_requests: 2,
            list_requests: 3,
            rows_exchanged: 17,
            p2p_requests: 4,
            p2p_bytes: 4096,
            cold_start: true,
            exchange_wait_secs: 0.75,
            hedged_gets: 2,
            hedged_puts: 1,
        }
    }

    /// `msg` as an encoder from before hedging sent it.
    fn unhedged(msg: &WorkerResult) -> WorkerResult {
        let mut msg = msg.clone();
        for m in std::iter::once(&mut msg.metrics).chain(msg.fused.iter_mut().map(|(_, m)| m)) {
            (m.hedged_gets, m.hedged_puts) = (0, 0);
        }
        msg
    }

    #[test]
    fn short_read_defaults_trailing_metrics() {
        // A pre-`exchange_wait_secs` encoder stops after `cold_start`
        // (8 bytes before the end of the metrics, which the empty fused
        // member count follows); decode must tolerate the truncated tail.
        let msg = unhedged(&WorkerResult::ok(7, ResultPayload::Empty, metrics()));
        let mut bytes = msg.encode();
        bytes.truncate(bytes.len() - 1 - 8);
        let got = WorkerResult::decode(&bytes).unwrap();
        assert_eq!(got.metrics.exchange_wait_secs, 0.0);
        assert!(got.metrics.cold_start);
    }

    #[test]
    fn agg_result_roundtrip() {
        let msg = WorkerResult::ok(7, ResultPayload::AggState(vec![1, 2, 3]), metrics());
        assert_eq!(WorkerResult::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn backup_attempt_roundtrips() {
        let msg = WorkerResult::ok(7, ResultPayload::Empty, metrics()).with_attempt(2);
        let got = WorkerResult::decode(&msg.encode()).unwrap();
        assert_eq!(got.attempt, 2);
        assert_eq!(got, msg);
    }

    #[test]
    fn stored_result_roundtrip() {
        let msg = WorkerResult::ok(
            1,
            ResultPayload::Stored { bucket: "b".to_string(), key: "k".to_string(), rows: 5 },
            WorkerMetrics::default(),
        );
        assert_eq!(WorkerResult::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn error_result_roundtrip() {
        let msg = WorkerResult::error(3, "out of memory", metrics());
        let got = WorkerResult::decode(&msg.encode()).unwrap();
        assert_eq!(got.outcome.clone().unwrap_err(), "out of memory");
        assert_eq!(got, msg);
    }

    #[test]
    fn exchanged_result_roundtrip() {
        let msg =
            WorkerResult::ok(2, ResultPayload::Exchanged { rows: 1234, bytes: 56789 }, metrics());
        assert_eq!(WorkerResult::decode(&msg.encode()).unwrap(), msg);
    }

    /// A stage-edge report: one section per receiver, on either wire.
    fn sections_result() -> WorkerResult {
        let sections = vec![
            Section { len: 300, wire: Wire::File },
            Section { len: 0, wire: Wire::Mailbox },
            Section { len: 1 << 40, wire: Wire::Mailbox },
            Section { len: 0, wire: Wire::File },
        ];
        let inline = Bytes::new();
        let payload =
            ResultPayload::Sections { rows: 77, bytes: 300, sections, inline, starts: None };
        WorkerResult::ok(2, payload, metrics()).with_attempt(1)
    }

    /// An inline sender's report at the end of a fused chain: two inline
    /// sections, whose bytes end the message after the fused member.
    fn inline_result() -> WorkerResult {
        let inline = |len| Section { len, wire: Wire::Inline };
        let sections = vec![inline(3), Section { len: 0, wire: Wire::File }, inline(2)];
        let blob = Bytes::from(vec![1, 2, 3, 4, 5]);
        let payload =
            ResultPayload::Sections { rows: 9, bytes: 5, sections, inline: blob, starts: None };
        let head = (ResultPayload::Exchanged { rows: 40, bytes: 0 }, metrics());
        WorkerResult { fused: vec![head], ..WorkerResult::ok(3, payload, metrics()) }
    }

    /// A sort-edge producer's report: two inline blocks and the starts.
    fn starts_result() -> WorkerResult {
        let sections = vec![Section { len: 2, wire: Wire::Inline }; 2];
        let starts = Some(vec![9; 40]);
        let inline = Bytes::from(vec![1, 2, 3, 4]);
        let payload = ResultPayload::Sections { rows: 6, bytes: 4, sections, inline, starts };
        WorkerResult::ok(5, payload, metrics())
    }

    #[test]
    fn section_table_result_roundtrips() {
        for msg in [sections_result(), inline_result(), starts_result()] {
            assert_eq!(WorkerResult::decode(&msg.encode()).unwrap(), msg);
        }
        let bytes = unhedged(&inline_result()).encode();
        assert_eq!(&bytes[bytes.len() - 5..], &[1, 2, 3, 4, 5], "the blob ends it, unhedged");
    }

    /// A table without starts is tag 6, byte for byte; one with starts is
    /// tag 7: the same bytes up to the table's end, then the starts.
    #[test]
    fn starts_take_tag_7_after_tag_6s_fields() {
        let with = starts_result();
        let Ok(ResultPayload::Sections { rows, bytes, sections, inline, .. }) = &with.outcome
        else {
            panic!("a section table")
        };
        let without = ResultPayload::Sections {
            rows: *rows,
            bytes: *bytes,
            sections: sections.clone(),
            inline: inline.clone(),
            starts: None,
        };
        let (a, b) = (WorkerResult::ok(5, without, metrics()).encode(), with.encode());
        // Worker id, attempt, then the tag; the table is 1 + 1 + 1 + 2 × 2.
        assert_eq!((a[2], b[2]), (6, 7));
        let table = 3 + 7;
        assert_eq!(a[3..table], b[3..table]);
        assert_eq!(b[table..table + 41], [&[40][..], &[9; 40]].concat()[..]);
        assert_eq!(a[table..], b[table + 41..], "metrics, members and blob follow alike");
    }

    #[test]
    fn garbage_rejected() {
        assert!(WorkerResult::decode(&[9, 9, 9]).is_err());
    }

    /// A three-stage chain's report: an inline tail and two members
    /// ahead of it that handed their rows on.
    fn chain_result() -> WorkerResult {
        let head = WorkerMetrics { rows_out: 40, ..metrics() };
        let mid = WorkerMetrics { rows_in: 40, rows_out: 3, ..WorkerMetrics::default() };
        let tail = ResultPayload::InlineBatches { rows: 3, bytes: vec![7; 40] };
        WorkerResult {
            fused: vec![
                (ResultPayload::Exchanged { rows: 40, bytes: 0 }, head),
                (ResultPayload::Exchanged { rows: 3, bytes: 0 }, mid),
            ],
            ..WorkerResult::ok(4, tail, metrics())
        }
        .with_attempt(1)
    }

    #[test]
    fn inline_result_and_fused_members_roundtrip_and_split() {
        let msg = chain_result();
        assert_eq!(WorkerResult::decode(&msg.encode()).unwrap(), msg);
        let split = msg.clone().split_fused();
        assert_eq!(split.len(), 3);
        assert!(split.iter().all(|r| (r.worker_id, r.attempt) == (4, 1) && r.fused.is_empty()));
        assert_eq!(split[0].outcome, Ok(ResultPayload::Exchanged { rows: 40, bytes: 0 }));
        assert_eq!(split[1].metrics.rows_out, 3);
        assert_eq!((&split[2].outcome, split[2].metrics), (&msg.outcome, msg.metrics));
    }

    /// Every truncation of a message is an error — except exactly where
    /// an older encoder ended its message (before the hedge counters,
    /// before the fused members, before `exchange_wait_secs`), which
    /// decodes to what that encoder would have sent. No encoder from
    /// before the fused members wrote inline sections or starts, so a
    /// message with a blob or starts has only the first such end.
    #[test]
    fn every_truncation_is_an_error_except_an_older_encoders_end() {
        let stored =
            ResultPayload::Stored { bucket: "b".to_string(), key: "k".to_string(), rows: 5 };
        for msg in [
            chain_result(),
            sections_result(),
            inline_result(),
            starts_result(),
            WorkerResult::error(3, "out of memory", metrics()),
            WorkerResult::ok(1, stored, metrics()),
        ] {
            let bytes = msg.encode();
            let unhedged = unhedged(&msg);
            let before_hedges = unhedged.encode().len();
            assert!(before_hedges < bytes.len(), "the message ends in hedge counters");
            let unfused = WorkerResult { fused: Vec::new(), ..unhedged.clone() };
            let old = !matches!(&msg.outcome, Ok(ResultPayload::Sections { inline, starts, .. })
                if !inline.is_empty() || starts.is_some());
            let before_fused = unfused.encode().len() - 1;
            let before_wait = before_fused - 8;
            for cut in 0..bytes.len() {
                let got = WorkerResult::decode(&bytes[..cut]);
                if cut == before_hedges {
                    assert_eq!(got.unwrap(), unhedged);
                } else if old && cut == before_fused {
                    assert_eq!(got.unwrap(), unfused);
                } else if old && cut == before_wait {
                    let mut old = unfused.clone();
                    old.metrics.exchange_wait_secs = 0.0;
                    assert_eq!(got.unwrap(), old);
                } else {
                    assert!(got.is_err(), "cut at {cut} of {}", bytes.len());
                }
            }
        }
    }

    /// Any single flipped bit decodes to an error or to some message,
    /// never to a panic.
    #[test]
    fn every_single_bit_flip_decodes_or_errs_without_panicking() {
        for msg in [chain_result(), sections_result(), inline_result(), starts_result()] {
            let bytes = msg.encode();
            let mut damaged = bytes.clone();
            let mut errors = 0;
            for bit in 0..bytes.len() * 8 {
                damaged[bit / 8] ^= 1 << (bit % 8);
                errors += usize::from(WorkerResult::decode(&damaged).is_err());
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            assert!(errors > 0, "some flips break the structure");
        }
    }

    /// Lengths and counts are claims, not allocations: a message claiming
    /// 2^40 inline bytes or 2^60 fused members over a handful of real
    /// bytes is an error, found without reserving what it claims.
    #[test]
    fn lying_lengths_are_errors_without_allocating() {
        let mut w = BinWriter::new();
        w.varint(1);
        w.varint(0);
        w.u8(5);
        w.varint(3);
        w.varint(1 << 40);
        w.raw(&[1, 2, 3]);
        assert!(WorkerResult::decode(&w.into_bytes()).is_err());

        let mut bytes = unhedged(&WorkerResult::ok(1, ResultPayload::Empty, metrics())).encode();
        assert_eq!(bytes.pop(), Some(0), "the empty member count ends the message");
        let mut w = BinWriter::from_vec(bytes);
        w.varint(1 << 60);
        w.u8(2);
        assert!(WorkerResult::decode(&w.into_bytes()).is_err());

        // A section table claiming 2^60 entries over one real section.
        let mut w = BinWriter::new();
        w.varint(1);
        w.varint(0);
        w.u8(6);
        w.varint(5);
        w.varint(9);
        w.varint(1 << 60);
        w.varint(9);
        w.u8(0);
        assert!(WorkerResult::decode(&w.into_bytes()).is_err());

        // Inline sections claiming 2^40 bytes over a three-byte blob.
        let huge = vec![Section { len: 1 << 40, wire: Wire::Inline }];
        let inline = Bytes::new();
        let payload =
            ResultPayload::Sections { rows: 1, bytes: 3, sections: huge, inline, starts: None };
        let mut bytes = WorkerResult::ok(1, payload, metrics()).encode();
        bytes.extend([1, 2, 3]);
        assert!(WorkerResult::decode(&bytes).is_err());

        // Starts claiming 2^40 bytes over an empty table.
        let mut w = BinWriter::new();
        w.varint(1);
        w.varint(0);
        w.u8(7);
        w.varint(0);
        w.varint(0);
        w.varint(0);
        w.varint(1 << 40);
        w.raw(&[9; 8]);
        assert!(WorkerResult::decode(&w.into_bytes()).is_err());
    }

    /// The blob is exactly as long as the table's inline sections claim,
    /// and the hedge counters, a pair per stage, are all that may follow
    /// it: one byte short of the blob, one byte after it or after a
    /// payload with no table, or one after the counters are typed errors.
    #[test]
    fn a_blob_that_does_not_match_its_table_is_an_error() {
        let bytes = unhedged(&inline_result()).encode();
        let err = WorkerResult::decode(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(&err, CoreError::Format(m) if m.contains("blob")), "{err}");
        let empty = WorkerResult::ok(1, ResultPayload::Empty, metrics());
        for mut damaged in [bytes, unhedged(&empty).encode(), empty.encode()] {
            damaged.push(6);
            let err = WorkerResult::decode(&damaged).unwrap_err();
            assert!(matches!(&err, CoreError::Format(_)), "{err}");
        }
    }

    /// A wire byte no encoder writes is an error, not a guess.
    #[test]
    fn an_unknown_wire_is_an_error() {
        let mut bytes = sections_result().encode();
        // The first section's wire byte follows its two-byte length (300).
        let wire = 1 + 1 + 1 + 1 + 2 + 1 + 2;
        assert_eq!(bytes[wire], 0, "the file wire");
        bytes[wire] = 3;
        let err = WorkerResult::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown wire 3"), "{err}");
    }

    /// An inbox message carries a hosted stage's in-edges exactly — every
    /// wire, attempts past a byte, boundaries of each key type, the
    /// host's empty edge — within the bytes its payload would have been
    /// sized at plus a tag a key. Cut anywhere or with a bit flipped, it
    /// decodes to an error or to in-edges, never to a panic.
    #[test]
    fn in_edges_roundtrip_and_damage_is_a_typed_error() {
        let addr = |attempt, at| SectionAddr { attempt, at };
        let edges = vec![
            InEdge::default(),
            InEdge {
                senders: vec![
                    addr(0, At::File { offset: 1 << 40, len: 300 }),
                    addr(70_000, At::Mailbox { len: 12 }),
                    addr(1, At::Inline(Bytes::from(vec![7u8; 200]))),
                    addr(0, At::File { offset: 0, len: 0 }),
                ],
                bounds: vec![
                    vec![Scalar::Int64(-5), Scalar::Float64(2.5)],
                    vec![Scalar::Boolean(true), Scalar::Int64(i64::MAX)],
                ],
            },
        ];
        let bytes = encode_in_edges(&edges);
        assert_eq!(decode_in_edges(&bytes).unwrap(), edges);
        let keys = 4;
        let sized = crate::worker::edge_bytes(&edges, crate::transport::ADDRESS_BYTES);
        assert!(bytes.len() <= sized + keys + 8, "{} B for {sized}", bytes.len());
        assert_eq!(decode_in_edges(&encode_in_edges(&[])).unwrap(), Vec::<InEdge>::new());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(decode_in_edges(&trailing), Err(CoreError::Format(_))));
        for cut in 0..bytes.len() {
            assert!(decode_in_edges(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut damaged = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_in_edges(&damaged);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
