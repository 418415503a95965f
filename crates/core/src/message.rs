//! Wire messages between workers and the driver.
//!
//! Workers post exactly one message to the result queue per invocation —
//! success with a payload, or an error report (§3.3) — and the same
//! bytes to the inbox of every hosted stage that waits on their
//! out-edge. Messages are hand-serialized with the same binary codec the
//! file format uses.
//!
//! A message must fit one SQS message ([`SQS_MESSAGE_BYTES`]), so a
//! worker returns its batches or agg state inline only up to
//! [`INLINE_RESULT_BYTES`] and stores larger ones in cloud storage
//! (§3.3). Stage-edge sections
//! ride a message under the same bound ([`INLINE_EDGE_BYTES`]).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashSet;

use lambada_format::binio::{BinReader, BinWriter};
use lambada_format::FormatError;
use lambada_sim::services::object_store::Bytes;
use lambada_sim::Tally;

use crate::error::{CoreError, Result};

/// SQS's cap on one message body: 256 KiB.
pub const SQS_MESSAGE_BYTES: usize = lambada_sim::services::queue::MAX_MESSAGE_BYTES;

/// Largest encoded batches or agg state a worker returns inline in its
/// result message ([`ResultPayload::InlineBatches`],
/// [`ResultPayload::AggState`]); anything larger is stored in the result
/// bucket ([`ResultPayload::Stored`]). The message
/// cap less 4 KiB for the rest of the message: the header and member
/// count (≤ 46 B), and per stage the invocation ran its
/// [`WorkerMetrics`] (≤ 157 B) plus, ahead
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
/// Wire stability: every field encodes in declaration order with the
/// varint codec, and decode reads exactly that layout: a message cut
/// short is a typed error. A new field is appended after the last one
/// (`sqs_requests` is the latest), never inserted. The driver installs
/// the worker function from its own build ([`crate::Lambada::install`]),
/// so no other layout reaches it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkerMetrics {
    /// Time spent executing the plan fragment (seconds, excludes
    /// invocation latency — the paper's Fig 11 "processing time").
    pub processing_secs: f64,
    /// Rows scanned (after row-group pruning).
    pub rows_in: u64,
    /// Rows surviving the filter.
    pub rows_out: u64,
    /// Bytes the stage's client downloaded from cloud storage: table file
    /// ranges, stored edge sections with their bundle headers.
    pub bytes_read: u64,
    /// GET requests the stage's client issued.
    pub get_requests: u64,
    /// Row groups pruned via min/max statistics.
    pub row_groups_pruned: u64,
    /// Row groups scanned.
    pub row_groups_scanned: u64,
    /// Bytes written to cloud storage (exchange edges, stored results).
    pub bytes_written: u64,
    /// PUT requests issued (exchange writes, result uploads).
    pub put_requests: u64,
    /// LIST units the stage's client was billed ([`Tally::list_units`]):
    /// 0 on every query path, since a query stage's in-edges are
    /// addressed by the driver and only the Algorithm-1 exchange
    /// ([`crate::exchange::run_exchange`]) discovers by LIST.
    pub list_requests: u64,
    /// Rows exchanged to the consumer stage (hash-partition fragments) or
    /// received from producer stages (join workers).
    pub rows_exchanged: u64,
    /// Messages the stage sent over the p2p relay plus those it fetched
    /// (direct transport only).
    pub p2p_requests: u64,
    /// Bodies of the messages the stage sent over the relay plus those it
    /// fetched, bundle headers included (direct transport only).
    pub p2p_bytes: u64,
    /// Whether this invocation was a cold start.
    pub cold_start: bool,
    /// Virtual seconds blocked in exchange discovery polls: always 0, for
    /// the reason `list_requests` is — a query stage's in-edges are
    /// addressed, so nothing polls. Kept because [`crate::StageReport`]
    /// sums it and the benchmark reads that sum.
    pub exchange_wait_secs: f64,
    /// Duplicate GETs sent for GETs past their hedge deadline, each billed
    /// beside the one in `get_requests` it duplicated.
    pub hedged_gets: u64,
    /// Duplicate PUTs, likewise beside `put_requests`.
    pub hedged_puts: u64,
    /// Queue requests the stage was billed: its result message's sends
    /// to the driver and to every inbox it feeds (one per started 64 KiB
    /// chunk each), and its inbox receives.
    pub sqs_requests: u64,
}

impl WorkerMetrics {
    /// Fold what a stage's clients did ([`crate::WorkerEnv::for_stage`])
    /// into its report: the one place request counts enter a report.
    pub fn add(&mut self, tally: Tally) {
        self.get_requests += tally.gets;
        self.hedged_gets += tally.hedged_gets;
        self.bytes_read += tally.bytes_read;
        self.put_requests += tally.puts;
        self.hedged_puts += tally.hedged_puts;
        self.bytes_written += tally.bytes_written;
        self.list_requests += tally.list_units;
        self.p2p_requests += tally.p2p_messages;
        self.p2p_bytes += tally.p2p_bytes;
        self.sqs_requests += tally.sqs_requests;
    }

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
        w.varint(self.hedged_gets);
        w.varint(self.hedged_puts);
        w.varint(self.sqs_requests);
    }

    fn decode(r: &mut BinReader<'_>) -> std::result::Result<Self, FormatError> {
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
            exchange_wait_secs: r.f64()?,
            hedged_gets: r.varint()?,
            hedged_puts: r.varint()?,
            sqs_requests: r.varint()?,
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
/// next free tag, never a reused one, and a tag no encoder writes is a
/// typed error. The `AggState` encoding
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
    /// ends the message, after the fused members. On a sort edge
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
/// Wire stability: one layout, read exactly as written — `varint`
/// worker id and attempt, the outcome (a payload tag, or the frozen
/// error tag 3 and its message), the last stage's [`WorkerMetrics`], a
/// `varint` count of fused members and each member's payload and
/// metrics, then the inline blob, whose length the section table gives.
/// A cut, a value out of range or a byte after the blob is a typed
/// error.
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
    /// The entries of the invocation's launch list ahead of the one that
    /// ran last, in list order: each one's own payload (what it handed
    /// on) and metrics. Empty for an invocation that ran one stage.
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

    /// Whether a collector keeps this report, given the workers whose
    /// report it kept already (`seen`): the one acceptance rule, the
    /// driver's and a host's alike. A worker's first success is kept, and
    /// every consumer is addressed from its section table alone, so an
    /// original's and a backup's are never combined. An original
    /// attempt's error is that worker's error (§3.3: errors are reported,
    /// the driver decides), so a fast failure never waits out the slowest
    /// worker. A backup's error is a lost race whose original still runs,
    /// so speculation never fails a query that would succeed without it;
    /// it is skipped, as is any report after the kept one.
    pub fn kept(&self, seen: &HashSet<u64>) -> Result<bool> {
        match &self.outcome {
            _ if seen.contains(&self.worker_id) => Ok(false),
            Ok(_) => Ok(true),
            Err(message) if self.attempt == 0 => {
                Err(CoreError::Worker { worker_id: self.worker_id, message: message.clone() })
            }
            Err(_) => Ok(false),
        }
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
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> Result<WorkerResult> {
        let mut r = BinReader::new(bytes);
        let inner = (|| -> std::result::Result<WorkerResult, FormatError> {
            let worker_id = r.varint()?;
            let attempt = u32::try_from(r.varint()?)
                .map_err(|_| FormatError::Corrupt("attempt past u32".to_string()))?;
            let mut outcome = match r.u8()? {
                3 => Err(r.string()?),
                tag => Ok(decode_payload(tag, &mut r)?),
            };
            let metrics = WorkerMetrics::decode(&mut r)?;
            // Pushed as they decode, never reserved from the claimed count.
            let mut fused = Vec::new();
            for _ in 0..r.varint()? {
                let mut payload = decode_payload(r.u8()?, &mut r)?;
                attach_inline(Some(&mut payload), &mut BinReader::new(&[]))?;
                fused.push((payload, WorkerMetrics::decode(&mut r)?));
            }
            attach_inline(outcome.as_mut().ok(), &mut r)?;
            if !r.is_exhausted() {
                let extra = r.remaining();
                return Err(FormatError::Corrupt(format!("{extra} B after the blob")));
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
            sqs_requests: 6,
        }
    }

    /// `msg` with no hedged request in any stage.
    fn unhedged(msg: &WorkerResult) -> WorkerResult {
        let mut msg = msg.clone();
        for m in std::iter::once(&mut msg.metrics).chain(msg.fused.iter_mut().map(|(_, m)| m)) {
            (m.hedged_gets, m.hedged_puts) = (0, 0);
        }
        msg
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

    /// An attempt past `u32` is an error, not a wrap: 2^32 would read as
    /// attempt 0, and a backup's error as the original's, failing the
    /// query.
    #[test]
    fn an_attempt_past_u32_is_an_error() {
        let bytes = WorkerResult::error(7, "lost race", metrics()).encode();
        assert_eq!(bytes[..2], [7, 0], "a one-byte worker id, then a one-byte attempt");
        let mut w = BinWriter::from_vec(vec![7]);
        w.varint(1 << 32);
        w.raw(&bytes[2..]);
        let err = WorkerResult::decode(&w.into_bytes()).unwrap_err();
        assert!(matches!(&err, CoreError::Format(m) if m.contains("attempt")), "{err}");
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
        let bytes = inline_result().encode();
        assert_eq!(&bytes[bytes.len() - 5..], &[1, 2, 3, 4, 5], "the blob ends it");
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

    /// Every truncation of every message shape is an error: no field is
    /// optional, so no cut reads as another, valid message.
    #[test]
    fn every_truncation_is_an_error() {
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
            for cut in 0..bytes.len() {
                let got = WorkerResult::decode(&bytes[..cut]);
                assert!(got.is_err(), "cut at {cut} of {}", bytes.len());
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
    /// and nothing follows it: one byte short of the blob, or one byte
    /// after it or after a message with no table, is a typed error.
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
    /// The acceptance rule over every case: a report of a worker already
    /// seen is skipped, whatever it says; an unseen worker's success is
    /// kept, whatever its attempt; an unseen original's error is that
    /// worker's error; an unseen backup's error is skipped.
    #[test]
    fn kept_keeps_a_first_success_and_fails_on_an_original_s_error() {
        #[derive(Debug, PartialEq)]
        enum Want {
            Kept,
            Skipped,
            Failed,
        }
        let cases = [
            (true, 0, true, Want::Skipped),
            (true, 0, false, Want::Skipped),
            (true, 1, true, Want::Skipped),
            (true, 1, false, Want::Skipped),
            (false, 0, true, Want::Kept),
            (false, 0, false, Want::Failed),
            (false, 1, true, Want::Kept),
            (false, 1, false, Want::Skipped),
        ];
        for (seen, attempt, ok, want) in cases {
            let report = match ok {
                true => WorkerResult::ok(7, ResultPayload::Empty, metrics()),
                false => WorkerResult::error(7, "out of memory", metrics()),
            };
            let report = report.with_attempt(attempt);
            let seen: HashSet<u64> = if seen { HashSet::from([7]) } else { HashSet::from([3]) };
            let got = match report.kept(&seen) {
                Ok(true) => Want::Kept,
                Ok(false) => Want::Skipped,
                Err(CoreError::Worker { worker_id: 7, message }) if message == "out of memory" => {
                    Want::Failed
                }
                Err(e) => panic!("{e}"),
            };
            assert_eq!(got, want, "seen {seen:?}, attempt {attempt}, ok {ok}");
        }
    }
}
