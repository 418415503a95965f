//! Registered tables: named collections of files, in cloud storage or
//! riding their scan workers' invocation payloads.

use std::rc::Rc;

use lambada_engine::types::Schema;
use lambada_format::FileMeta;
use lambada_sim::services::object_store::Body;

/// One file of a table.
///
/// Files come in three flavours:
///
/// * **real** — the object store holds the complete encoded bytes; the
///   scan downloads, decodes, and feeds rows to the pipeline (used by
///   tests, examples, and small-scale validation);
/// * **descriptor-backed** — the object store holds a synthetic body of
///   the file's *size* only, and the footer metadata rides along here.
///   All timing, request, and billing behaviour is identical (the scan
///   still fetches the footer range and every projected column chunk it
///   does not hold, by the same plan as a real file's);
///   only the decode is replaced by its modeled CPU charge. This is how
///   paper-scale experiments (SF 1000 = 151 GiB of Parquet) run without
///   materializing 151 GiB;
/// * **inline** — the encoded bytes ride the scan worker's invocation
///   payload and are never stored: the driver carries them over its link
///   ([`crate::invoke::carry_inline`]), and the scan reads the footer and
///   every row group from them with no request. This is how a stream's
///   micro-batches reach their workers (Lambada §4.1: the payload carries
///   a worker's work). An inline file has no bucket; its key names it in
///   errors.
///
/// A file is descriptor-backed or inline, never both: each constructor
/// makes one flavour, and the scan reads an inline file's bytes first.
#[derive(Clone, Debug)]
pub struct TableFile {
    pub bucket: String,
    pub key: String,
    /// Total object size in bytes.
    pub size: u64,
    /// Carried metadata for descriptor-backed files (`None` for real and
    /// inline files, whose footer is parsed from their bytes).
    pub meta: Option<Rc<FileMeta>>,
    /// The encoded bytes of an inline file.
    pub inline: Option<Body>,
}

impl TableFile {
    pub fn real(bucket: impl Into<String>, key: impl Into<String>, size: u64) -> TableFile {
        TableFile { bucket: bucket.into(), key: key.into(), size, meta: None, inline: None }
    }

    pub fn descriptor(
        bucket: impl Into<String>,
        key: impl Into<String>,
        size: u64,
        meta: Rc<FileMeta>,
    ) -> TableFile {
        TableFile { bucket: bucket.into(), key: key.into(), size, meta: Some(meta), inline: None }
    }

    /// A file whose encoded `bytes` ride its scan worker's payload.
    pub fn inline(key: impl Into<String>, bytes: Body) -> TableFile {
        let size = bytes.len();
        TableFile { bucket: String::new(), key: key.into(), size, meta: None, inline: Some(bytes) }
    }

    pub fn is_descriptor(&self) -> bool {
        self.meta.is_some()
    }

    /// The bytes this file adds to its scan worker's payload: its size
    /// if it is inline, else none.
    pub fn inline_bytes(&self) -> u64 {
        self.inline.as_ref().map_or(0, Body::len)
    }
}

/// A registered table: schema plus its files.
#[derive(Clone, Debug)]
pub struct TableSpec {
    pub name: String,
    pub schema: Schema,
    pub files: Vec<TableFile>,
    pub total_rows: u64,
}

impl TableSpec {
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        files: Vec<TableFile>,
        total_rows: u64,
    ) -> TableSpec {
        TableSpec { name: name.into(), schema, files, total_rows }
    }

    /// Total bytes across all files, inline ones included.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }
}
