//! Registered tables: named collections of files in cloud storage.

use std::rc::Rc;

use lambada_engine::types::Schema;
use lambada_format::FileMeta;

/// One file of a table.
///
/// Files come in two flavours:
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
///   materializing 151 GiB.
#[derive(Clone, Debug)]
pub struct TableFile {
    pub bucket: String,
    pub key: String,
    /// Total object size in bytes.
    pub size: u64,
    /// Carried metadata for descriptor-backed files (`None` for real
    /// files, whose footer is parsed from downloaded bytes).
    pub meta: Option<Rc<FileMeta>>,
}

impl TableFile {
    pub fn real(bucket: impl Into<String>, key: impl Into<String>, size: u64) -> TableFile {
        TableFile { bucket: bucket.into(), key: key.into(), size, meta: None }
    }

    pub fn descriptor(
        bucket: impl Into<String>,
        key: impl Into<String>,
        size: u64,
        meta: Rc<FileMeta>,
    ) -> TableFile {
        TableFile { bucket: bucket.into(), key: key.into(), size, meta: Some(meta) }
    }

    pub fn is_descriptor(&self) -> bool {
        self.meta.is_some()
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

    /// Total stored bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }
}
