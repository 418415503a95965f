//! Hash partitioning and batch (de)serialization for data movement.
//!
//! The exchange operator's "DramPartitioning" step (Algorithm 1, line 2)
//! splits a worker's rows into `P` partitions by key hash; batches travel
//! through cloud storage serialized in the same columnar container the
//! input files use (plain encoding, no heavy compression — shuffle data
//! is written once and read once).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::Arc;

use lambada_engine::{Column, RecordBatch};
use lambada_format::{read_all, write_file, Compression, Encoding, WriterOptions};

use crate::error::{CoreError, Result};

/// Partition id of one row: the engine's shared partition hash, so the
/// exchange operator and the distributed join's
/// [`Terminal::HashPartition`] pipelines agree on where every key lives.
///
/// [`Terminal::HashPartition`]: lambada_engine::pipeline::Terminal
pub use lambada_engine::join::row_partition;

/// Split a batch into `partitions` batches by key hash. Every input row
/// appears in exactly one output batch.
pub fn partition_batch(
    batch: &RecordBatch,
    key_cols: &[usize],
    partitions: usize,
) -> Result<Vec<RecordBatch>> {
    assert!(partitions > 0);
    let indices = lambada_engine::join::partition_rows(batch, key_cols, partitions);
    Ok(indices.into_iter().map(|idx| batch.gather(&idx)).collect())
}

/// Serialize batches into one self-contained byte blob.
pub fn encode_batches(batches: &[RecordBatch]) -> Result<Vec<u8>> {
    let Some(first) = batches.first() else {
        return Err(CoreError::Engine("cannot encode zero batches".to_string()));
    };
    let schema = first.schema().to_file_schema()?;
    let mut groups = Vec::with_capacity(batches.len());
    for b in batches {
        let cols: lambada_engine::Result<Vec<_>> =
            b.columns().iter().map(|c| c.clone().into_data()).collect();
        groups.push(cols?);
    }
    let opts = WriterOptions {
        compression: Compression::None,
        encoding: Some(Encoding::Plain),
        write_stats: false,
    };
    Ok(write_file(schema, &groups, opts)?)
}

/// Inverse of [`encode_batches`].
pub fn decode_batches(bytes: &[u8]) -> Result<Vec<RecordBatch>> {
    let (meta, groups) = read_all(bytes)?;
    let schema = Arc::new(lambada_engine::Schema::from_file_schema(&meta.schema));
    let mut out = Vec::with_capacity(groups.len());
    for cols in groups {
        let columns: Vec<Column> = cols.into_iter().map(Column::from_data).collect();
        out.push(RecordBatch::new(Arc::clone(&schema), columns)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambada_engine::Column;

    fn batch(n: usize) -> RecordBatch {
        RecordBatch::from_columns(
            &["k", "v"],
            vec![
                Column::I64((0..n as i64).collect()),
                Column::F64((0..n).map(|i| i as f64 * 0.5).collect()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn partitioning_is_total_and_disjoint() {
        let b = batch(1000);
        let parts = partition_batch(&b, &[0], 7).unwrap();
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(RecordBatch::num_rows).sum();
        assert_eq!(total, 1000);
        // Each key lands in the partition its hash says.
        for (pid, p) in parts.iter().enumerate() {
            for row in 0..p.num_rows() {
                assert_eq!(row_partition(p, &[0], 7, row), pid);
            }
        }
    }

    #[test]
    fn partitioning_spreads_reasonably() {
        let b = batch(10_000);
        let parts = partition_batch(&b, &[0], 16).unwrap();
        for p in &parts {
            let n = p.num_rows();
            assert!((400..900).contains(&n), "partition size {n} badly skewed");
        }
    }

    #[test]
    fn same_key_same_partition() {
        let b =
            RecordBatch::from_columns(&["k"], vec![Column::I64(vec![42, 42, 42, 7, 7])]).unwrap();
        let parts = partition_batch(&b, &[0], 5).unwrap();
        let nonempty: Vec<usize> =
            parts.iter().map(RecordBatch::num_rows).filter(|&n| n > 0).collect();
        assert!(nonempty.len() <= 2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let batches = vec![batch(10), batch(3)];
        let bytes = encode_batches(&batches).unwrap();
        let got = decode_batches(&bytes).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].num_rows(), 10);
        assert_eq!(got[1].column(1), batches[1].column(1));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(encode_batches(&[]).is_err());
    }

    /// An exchange payload is bytes another worker wrote: cut short or
    /// with any one bit flipped it decodes to an error or to batches of
    /// the payload's shape, never to a panic.
    #[test]
    fn damaged_payloads_are_errors_never_panics() {
        let batches = vec![batch(10), batch(3)];
        let bytes = encode_batches(&batches).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_batches(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut damaged = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            if let Ok(got) = decode_batches(&damaged) {
                let rows: Vec<usize> = got.iter().map(RecordBatch::num_rows).collect();
                assert_eq!(rows, [10, 3], "bit {bit}");
            }
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// A footer claiming 2^40 rows over the same few bytes: the decoder
    /// reserves what the bytes can back, not what the count says (this
    /// aborted the process on an 8 TiB allocation).
    #[test]
    fn a_payload_lying_about_its_row_count_is_an_error() {
        use lambada_format::{FileMeta, TRAILER_LEN};
        let bytes = encode_batches(&[batch(10)]).unwrap();
        let mut meta = FileMeta::parse_tail(&bytes).unwrap();
        let payload = bytes.len() - meta.encode_footer().len();
        for claimed in [1u64 << 40, u64::MAX / 4, 11, 9] {
            meta.num_rows = claimed;
            meta.row_groups[0].num_rows = claimed;
            for chunk in &mut meta.row_groups[0].columns {
                chunk.num_values = claimed;
            }
            let mut lying = bytes[..payload].to_vec();
            lying.extend(meta.encode_footer());
            assert!(lying.len() > payload + TRAILER_LEN);
            assert!(decode_batches(&lying).is_err(), "claiming {claimed} rows");
        }
    }
}
