//! Decoding side: footer parsing plus column-chunk decoding.
//!
//! Deliberately I/O-free: callers (the S3 scan operator in `lambada-core`,
//! or local tests) fetch byte ranges however they like and hand slices in.
//! This mirrors Fig 8's layering, where the Parquet library sits above a
//! user-provided random-access file system.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::compress;
use crate::data::ColumnData;
use crate::encoding;
use crate::error::{corrupt, Result};
use crate::footer::{ColumnChunkMeta, FileMeta};
use crate::schema::PhysicalType;

/// Parse the footer from complete file bytes.
pub fn read_footer(file: &[u8]) -> Result<FileMeta> {
    FileMeta::parse_tail(file)
}

/// Decode one column chunk from its stored bytes.
pub fn decode_chunk(
    meta: &ColumnChunkMeta,
    ptype: PhysicalType,
    bytes: &[u8],
) -> Result<ColumnData> {
    if bytes.len() as u64 != meta.compressed_len {
        return Err(corrupt(format!(
            "chunk payload is {} bytes, metadata says {}",
            bytes.len(),
            meta.compressed_len
        )));
    }
    let encoded = compress::invert(bytes, meta.compression, meta.uncompressed_len as usize)?;
    encoding::decode(&encoded, meta.encoding, ptype, meta.num_values as usize)
}

/// Decode the projected columns of one row group from complete file bytes.
pub fn read_row_group(
    file: &[u8],
    meta: &FileMeta,
    row_group: usize,
    projection: &[usize],
) -> Result<Vec<ColumnData>> {
    let rg = meta
        .row_groups
        .get(row_group)
        .ok_or_else(|| corrupt(format!("row group {row_group} out of range")))?;
    let mut out = Vec::with_capacity(projection.len());
    for &col in projection {
        let chunk =
            rg.columns.get(col).ok_or_else(|| corrupt(format!("column {col} out of range")))?;
        let end = chunk.offset.checked_add(chunk.compressed_len);
        let bytes = end
            .and_then(|end| file.get(chunk.offset as usize..end as usize))
            .ok_or_else(|| corrupt("chunk byte range outside file"))?;
        out.push(decode_chunk(chunk, meta.schema.column(col).ptype, bytes)?);
    }
    Ok(out)
}

/// Decode an entire file: footer plus every row group, all columns.
pub fn read_all(file: &[u8]) -> Result<(FileMeta, Vec<Vec<ColumnData>>)> {
    let meta = read_footer(file)?;
    let projection: Vec<usize> = (0..meta.schema.len()).collect();
    let mut groups = Vec::with_capacity(meta.row_groups.len());
    for i in 0..meta.row_groups.len() {
        groups.push(read_row_group(file, &meta, i, &projection)?);
    }
    Ok((meta, groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Compression;
    use crate::schema::{ColumnSchema, FileSchema};
    use crate::writer::{write_file, WriterOptions};

    fn sample_file(compression: Compression) -> (Vec<u8>, Vec<Vec<ColumnData>>) {
        let schema = FileSchema::new(vec![
            ColumnSchema::new("date", PhysicalType::I64),
            ColumnSchema::new("price", PhysicalType::F64),
        ]);
        let groups = vec![
            vec![
                ColumnData::I64((0..500).map(|i| 8000 + i / 10).collect()),
                ColumnData::F64((0..500).map(|i| f64::from(i) * 0.5).collect()),
            ],
            vec![
                ColumnData::I64((0..300).map(|i| 8050 + i / 10).collect()),
                ColumnData::F64((0..300).map(|i| f64::from(i) * 0.25).collect()),
            ],
        ];
        let opts = WriterOptions { compression, ..WriterOptions::default() };
        (write_file(schema, &groups, opts).unwrap(), groups)
    }

    #[test]
    fn full_roundtrip_uncompressed() {
        let (file, groups) = sample_file(Compression::None);
        let (meta, got) = read_all(&file).unwrap();
        assert_eq!(meta.num_rows, 800);
        assert_eq!(got, groups);
    }

    #[test]
    fn full_roundtrip_lz() {
        let (file, groups) = sample_file(Compression::Lz);
        let (_, got) = read_all(&file).unwrap();
        assert_eq!(got, groups);
    }

    #[test]
    fn projection_reads_only_requested_columns() {
        let (file, groups) = sample_file(Compression::Lz);
        let meta = read_footer(&file).unwrap();
        let cols = read_row_group(&file, &meta, 1, &[1]).unwrap();
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0], groups[1][1]);
    }

    #[test]
    fn chunk_length_mismatch_detected() {
        let (file, _) = sample_file(Compression::None);
        let meta = read_footer(&file).unwrap();
        let chunk = &meta.row_groups[0].columns[0];
        let bad = &file[chunk.offset as usize..(chunk.offset + chunk.compressed_len - 1) as usize];
        assert!(decode_chunk(chunk, PhysicalType::I64, bad).is_err());
    }

    #[test]
    fn out_of_range_requests_rejected() {
        let (file, _) = sample_file(Compression::None);
        let meta = read_footer(&file).unwrap();
        assert!(read_row_group(&file, &meta, 9, &[0]).is_err());
        assert!(read_row_group(&file, &meta, 0, &[5]).is_err());
    }

    #[test]
    fn lz_shrinks_structured_file() {
        let (plain, _) = sample_file(Compression::None);
        let (lz, _) = sample_file(Compression::Lz);
        assert!(lz.len() < plain.len(), "lz {} vs plain {}", lz.len(), plain.len());
    }
}
