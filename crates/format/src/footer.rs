//! File footer: schema, row-group layout, column-chunk byte ranges, and
//! statistics — everything the scan operator needs "with a single file
//! read" (§4.3.2).
//!
//! File layout:
//!
//! ```text
//! [column chunk payloads ...][footer body][footer_len: u32 LE][magic "LPQ1"]
//! ```

use crate::binio::{BinReader, BinWriter};
use crate::compress::Compression;
use crate::encoding::Encoding;
use crate::error::{corrupt, FormatError, Result};
use crate::schema::FileSchema;
use crate::stats::ChunkStats;

/// Trailing magic bytes.
pub const MAGIC: [u8; 4] = *b"LPQ1";

/// Bytes after the footer body: length word + magic.
pub const TRAILER_LEN: usize = 8;

/// Location and shape of one column chunk within the file.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnChunkMeta {
    /// Absolute file offset of the (compressed) payload.
    pub offset: u64,
    /// Stored payload length in bytes (what a ranged GET downloads).
    pub compressed_len: u64,
    /// Encoded length before heavy compression (decompression output size).
    pub uncompressed_len: u64,
    /// Number of values.
    pub num_values: u64,
    pub encoding: Encoding,
    pub compression: Compression,
    pub stats: Option<ChunkStats>,
}

impl ColumnChunkMeta {
    fn encode(&self, w: &mut BinWriter) {
        w.varint(self.offset);
        w.varint(self.compressed_len);
        w.varint(self.uncompressed_len);
        w.varint(self.num_values);
        w.u8(self.encoding.tag());
        w.u8(self.compression.tag());
        match &self.stats {
            Some(s) => {
                w.bool(true);
                s.encode(w);
            }
            None => w.bool(false),
        }
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Self> {
        Ok(ColumnChunkMeta {
            offset: r.varint()?,
            compressed_len: r.varint()?,
            uncompressed_len: r.varint()?,
            num_values: r.varint()?,
            encoding: Encoding::from_tag(r.u8()?)?,
            compression: Compression::from_tag(r.u8()?)?,
            stats: if r.bool()? { Some(ChunkStats::decode(r)?) } else { None },
        })
    }
}

/// One row group: consecutive rows stored as consecutive column chunks.
#[derive(Clone, Debug, PartialEq)]
pub struct RowGroupMeta {
    pub num_rows: u64,
    pub columns: Vec<ColumnChunkMeta>,
}

impl RowGroupMeta {
    /// Total stored bytes across all column chunks.
    pub fn total_compressed_len(&self) -> u64 {
        self.columns.iter().map(|c| c.compressed_len).sum()
    }

    /// Stored bytes for a projection (by column index).
    pub fn projected_compressed_len(&self, projection: &[usize]) -> u64 {
        projection.iter().map(|&i| self.columns[i].compressed_len).sum()
    }

    /// The contiguous byte range `[start, end)` covering all chunks.
    pub fn byte_range(&self) -> (u64, u64) {
        let start = self.columns.iter().map(|c| c.offset).min().unwrap_or(0);
        let end = self.columns.iter().map(|c| c.offset + c.compressed_len).max().unwrap_or(0);
        (start, end)
    }

    fn encode(&self, w: &mut BinWriter) {
        w.varint(self.num_rows);
        w.varint(self.columns.len() as u64);
        for c in &self.columns {
            c.encode(w);
        }
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Self> {
        let num_rows = r.varint()?;
        let n = r.varint()? as usize;
        // Every entry takes bytes: a count past what is left is a lie.
        let mut columns = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            columns.push(ColumnChunkMeta::decode(r)?);
        }
        Ok(RowGroupMeta { num_rows, columns })
    }
}

/// Parsed footer of one file.
#[derive(Clone, Debug, PartialEq)]
pub struct FileMeta {
    pub schema: FileSchema,
    pub num_rows: u64,
    pub row_groups: Vec<RowGroupMeta>,
}

impl FileMeta {
    /// Serialize the footer (body + trailer) to append after the payloads.
    pub fn encode_footer(&self) -> Vec<u8> {
        let mut w = BinWriter::new();
        self.schema.encode(&mut w);
        w.varint(self.num_rows);
        w.varint(self.row_groups.len() as u64);
        for rg in &self.row_groups {
            rg.encode(&mut w);
        }
        let body_len = w.len();
        w.u32(body_len as u32);
        w.raw(&MAGIC);
        w.into_bytes()
    }

    /// Parse a footer given the *tail* of the file (any suffix that ends at
    /// the file's last byte). Returns [`FormatError::TailTooShort`] with the
    /// number of bytes needed when the suffix does not yet contain the
    /// whole footer — the S3 scan operator uses this to size its second
    /// metadata fetch if its speculative first fetch was too small.
    pub fn parse_tail(tail: &[u8]) -> Result<FileMeta> {
        if tail.len() < TRAILER_LEN {
            return Err(FormatError::TailTooShort(TRAILER_LEN));
        }
        let magic = &tail[tail.len() - 4..];
        if magic != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let len_bytes = &tail[tail.len() - 8..tail.len() - 4];
        let body_len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        let total = body_len + TRAILER_LEN;
        if tail.len() < total {
            return Err(FormatError::TailTooShort(total));
        }
        let body = &tail[tail.len() - total..tail.len() - TRAILER_LEN];
        let mut r = BinReader::new(body);
        let schema = FileSchema::decode(&mut r)?;
        let num_rows = r.varint()?;
        let n = r.varint()? as usize;
        let mut row_groups = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            row_groups.push(RowGroupMeta::decode(&mut r)?);
        }
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes in footer body"));
        }
        let meta = FileMeta { schema, num_rows, row_groups };
        meta.validate()?;
        Ok(meta)
    }

    /// Structural sanity checks.
    pub fn validate(&self) -> Result<()> {
        let ncols = self.schema.len();
        let mut rows = 0u64;
        for (i, rg) in self.row_groups.iter().enumerate() {
            if rg.columns.len() != ncols {
                return Err(corrupt(format!(
                    "row group {i} has {} column chunks, schema has {ncols}",
                    rg.columns.len()
                )));
            }
            for (j, c) in rg.columns.iter().enumerate() {
                if c.num_values != rg.num_rows {
                    return Err(corrupt(format!(
                        "row group {i} column {j}: {} values vs {} rows",
                        c.num_values, rg.num_rows
                    )));
                }
            }
            rows = rows.checked_add(rg.num_rows).ok_or_else(|| corrupt("row count overflows"))?;
        }
        if rows != self.num_rows {
            return Err(corrupt(format!(
                "row groups sum to {rows} rows, footer claims {}",
                self.num_rows
            )));
        }
        Ok(())
    }

    /// Total stored payload bytes.
    pub fn total_compressed_len(&self) -> u64 {
        self.row_groups.iter().map(RowGroupMeta::total_compressed_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSchema, PhysicalType};

    fn sample_meta() -> FileMeta {
        FileMeta {
            schema: FileSchema::new(vec![
                ColumnSchema::new("a", PhysicalType::I64),
                ColumnSchema::new("b", PhysicalType::F64),
            ]),
            num_rows: 10,
            row_groups: vec![RowGroupMeta {
                num_rows: 10,
                columns: vec![
                    ColumnChunkMeta {
                        offset: 0,
                        compressed_len: 40,
                        uncompressed_len: 80,
                        num_values: 10,
                        encoding: Encoding::Delta,
                        compression: Compression::Lz,
                        stats: Some(ChunkStats::I64 { min: 1, max: 10 }),
                    },
                    ColumnChunkMeta {
                        offset: 40,
                        compressed_len: 80,
                        uncompressed_len: 80,
                        num_values: 10,
                        encoding: Encoding::Plain,
                        compression: Compression::None,
                        stats: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn footer_roundtrip() {
        let meta = sample_meta();
        let footer = meta.encode_footer();
        let got = FileMeta::parse_tail(&footer).unwrap();
        assert_eq!(got, meta);
    }

    #[test]
    fn parse_from_longer_tail() {
        let meta = sample_meta();
        let mut file = vec![0u8; 120]; // payloads
        file.extend(meta.encode_footer());
        // Hand it the whole file as "tail".
        assert_eq!(FileMeta::parse_tail(&file).unwrap(), meta);
    }

    #[test]
    fn short_tail_reports_needed_bytes() {
        let meta = sample_meta();
        let footer = meta.encode_footer();
        let short = &footer[footer.len() - TRAILER_LEN..];
        match FileMeta::parse_tail(short) {
            Err(FormatError::TailTooShort(n)) => {
                assert_eq!(n, footer.len());
                // Retrying with exactly n bytes succeeds.
                assert!(FileMeta::parse_tail(&footer[footer.len() - n..]).is_ok());
            }
            other => panic!("expected TailTooShort, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut footer = sample_meta().encode_footer();
        let n = footer.len();
        footer[n - 1] = b'X';
        assert_eq!(FileMeta::parse_tail(&footer).unwrap_err(), FormatError::BadMagic);
    }

    #[test]
    fn validation_catches_row_mismatch() {
        let mut meta = sample_meta();
        meta.num_rows = 11;
        assert!(meta.validate().is_err());
        let mut meta = sample_meta();
        meta.row_groups[0].columns[0].num_values = 9;
        assert!(meta.validate().is_err());
    }

    #[test]
    fn byte_range_and_sizes() {
        let meta = sample_meta();
        let rg = &meta.row_groups[0];
        assert_eq!(rg.byte_range(), (0, 120));
        assert_eq!(rg.total_compressed_len(), 120);
        assert_eq!(rg.projected_compressed_len(&[1]), 80);
        assert_eq!(meta.total_compressed_len(), 120);
    }
}
