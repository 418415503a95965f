//! Light-weight column encodings.
//!
//! §4.3.2: "Each column chunk may use a light-weight and a heavy-weight
//! compression scheme, such as run-length encoding and GZIP". These are
//! the light-weight schemes; the heavy-weight codec lives in
//! [`crate::compress`].
//!
//! * [`Encoding::Plain`] — fixed-width little-endian values.
//! * [`Encoding::Rle`] — run-length encoding of repeated values, good for
//!   the low-cardinality coded TPC-H attributes (`l_returnflag`,
//!   `l_linestatus`, `l_shipmode`).
//! * [`Encoding::Delta`] — zigzag-varint deltas, good for sorted columns
//!   like `l_shipdate` (the sort order §5.1 establishes) and near-
//!   sequential keys.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::binio::{BinReader, BinWriter};
use crate::data::ColumnData;
use crate::error::{corrupt, FormatError, Result};
use crate::schema::PhysicalType;

/// Encoding tag stored per column chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Encoding {
    Plain,
    Rle,
    Delta,
}

impl Encoding {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Rle => 1,
            Encoding::Delta => 2,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Encoding::Plain),
            1 => Ok(Encoding::Rle),
            2 => Ok(Encoding::Delta),
            other => Err(corrupt(format!("unknown encoding tag {other}"))),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Rle => "rle",
            Encoding::Delta => "delta",
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode a column with the given encoding.
pub fn encode(data: &ColumnData, encoding: Encoding) -> Result<Vec<u8>> {
    let mut w = BinWriter::with_capacity(data.plain_size() / 2 + 16);
    match (encoding, data) {
        (Encoding::Plain, ColumnData::I64(v)) => {
            for &x in v {
                w.i64(x);
            }
        }
        (Encoding::Plain, ColumnData::F64(v)) => {
            for &x in v {
                w.f64(x);
            }
        }
        (Encoding::Rle, ColumnData::I64(v)) => {
            encode_runs(&mut w, v, |w, &x| w.i64(x));
        }
        (Encoding::Rle, ColumnData::F64(v)) => {
            // Runs compare by bit pattern so NaNs and -0.0 round-trip.
            let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
            encode_runs(&mut w, &bits, |w, &x| w.u64(x));
        }
        (Encoding::Delta, ColumnData::I64(v)) => {
            if let Some((first, rest)) = v.split_first() {
                w.i64(*first);
                let mut prev = *first;
                for &x in rest {
                    w.varint(zigzag(x.wrapping_sub(prev)));
                    prev = x;
                }
            }
        }
        (Encoding::Delta, ColumnData::F64(_)) => {
            return Err(FormatError::Unsupported("delta encoding of f64".to_string()));
        }
    }
    Ok(w.into_bytes())
}

fn encode_runs<T: PartialEq>(w: &mut BinWriter, values: &[T], emit: impl Fn(&mut BinWriter, &T)) {
    let mut i = 0;
    while i < values.len() {
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        w.varint(run as u64);
        emit(w, &values[i]);
        i += run;
    }
}

/// `num_values` fixed-width values, converted a word at a time.
fn decode_plain<T>(bytes: &[u8], num_values: usize, value: fn([u8; 8]) -> T) -> Result<Vec<T>> {
    match num_values.checked_mul(8) {
        Some(len) if len == bytes.len() => {}
        Some(len) if len < bytes.len() => return Err(trailing_bytes()),
        _ => return Err(FormatError::UnexpectedEof),
    }
    // `chunks_exact(8)` with the width in the type: one pass, no check
    // per value.
    let (words, _) = bytes.as_chunks::<8>();
    Ok(words.iter().map(|&word| value(word)).collect())
}

/// Runs of `(count, value)` adding up to `num_values` values. The vector
/// grows a run at a time: a run is a few bytes whatever it claims, so a
/// count the allocator cannot back is an error like any other.
fn decode_runs<T: Clone>(
    r: &mut BinReader<'_>,
    num_values: usize,
    value: fn(u64) -> T,
) -> Result<Vec<T>> {
    let mut v = Vec::new();
    while v.len() < num_values {
        let run = r.varint()?;
        let val = value(r.u64()?);
        let run = match usize::try_from(run) {
            Ok(run) if run != 0 && run <= num_values - v.len() => run,
            _ => return Err(corrupt("RLE run overflows value count")),
        };
        v.try_reserve(run).map_err(|_| corrupt("RLE run is too long to allocate"))?;
        v.extend(std::iter::repeat_n(val, run));
    }
    Ok(v)
}

fn trailing_bytes() -> FormatError {
    corrupt("trailing bytes after encoded column")
}

/// Decode a column of `num_values` values. The count comes from a footer,
/// that is from file or exchange bytes, so nothing is reserved on its
/// word alone: only what `bytes` can back.
pub fn decode(
    bytes: &[u8],
    encoding: Encoding,
    ptype: PhysicalType,
    num_values: usize,
) -> Result<ColumnData> {
    let mut r = BinReader::new(bytes);
    let out = match (encoding, ptype) {
        (Encoding::Plain, PhysicalType::I64) => {
            return decode_plain(bytes, num_values, i64::from_le_bytes).map(ColumnData::I64);
        }
        (Encoding::Plain, PhysicalType::F64) => {
            return decode_plain(bytes, num_values, f64::from_le_bytes).map(ColumnData::F64);
        }
        (Encoding::Rle, PhysicalType::I64) => {
            ColumnData::I64(decode_runs(&mut r, num_values, |raw| raw as i64)?)
        }
        (Encoding::Rle, PhysicalType::F64) => {
            ColumnData::F64(decode_runs(&mut r, num_values, f64::from_bits)?)
        }
        (Encoding::Delta, PhysicalType::I64) => {
            // The first value is a word, each later one at least a byte.
            let mut v = Vec::with_capacity(num_values.min(bytes.len()));
            if num_values > 0 {
                let mut prev = r.i64()?;
                v.push(prev);
                for _ in 1..num_values {
                    prev = prev.wrapping_add(unzigzag(r.varint()?));
                    v.push(prev);
                }
            }
            ColumnData::I64(v)
        }
        (Encoding::Delta, PhysicalType::F64) => {
            return Err(FormatError::Unsupported("delta encoding of f64".to_string()));
        }
    };
    if !r.is_exhausted() {
        return Err(trailing_bytes());
    }
    Ok(out)
}

/// Heuristic encoding choice: RLE when long runs dominate, delta for i64
/// when deltas are varint-small, plain otherwise.
pub fn choose_encoding(data: &ColumnData) -> Encoding {
    match data {
        ColumnData::I64(v) => {
            if v.len() < 2 {
                return Encoding::Plain;
            }
            let mut runs = 1usize;
            let mut small_deltas = 0usize;
            for w in v.windows(2) {
                if w[1] != w[0] {
                    runs += 1;
                }
                if w[1].wrapping_sub(w[0]).unsigned_abs() < (1 << 20) {
                    small_deltas += 1;
                }
            }
            // RLE pays off when the average run is >= ~2.8 values
            // (9-byte run entries vs 8-byte plain values).
            if runs * 3 < v.len() {
                Encoding::Rle
            } else if small_deltas * 10 >= v.len() * 9 {
                Encoding::Delta
            } else {
                Encoding::Plain
            }
        }
        ColumnData::F64(v) => {
            if v.len() < 2 {
                return Encoding::Plain;
            }
            let mut runs = 1usize;
            for w in v.windows(2) {
                if w[1].to_bits() != w[0].to_bits() {
                    runs += 1;
                }
            }
            if runs * 3 < v.len() {
                Encoding::Rle
            } else {
                Encoding::Plain
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: ColumnData, enc: Encoding) {
        let bytes = encode(&data, enc).unwrap();
        let got = decode(&bytes, enc, data.ptype(), data.len()).unwrap();
        assert_eq!(got, data, "encoding {enc:?}");
    }

    #[test]
    fn plain_roundtrips() {
        roundtrip(ColumnData::I64(vec![i64::MIN, -1, 0, 1, i64::MAX]), Encoding::Plain);
        roundtrip(ColumnData::F64(vec![-1.5, 0.0, 3.25, f64::INFINITY]), Encoding::Plain);
        roundtrip(ColumnData::I64(vec![]), Encoding::Plain);
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let data = ColumnData::I64(vec![5; 1000]);
        let bytes = encode(&data, Encoding::Rle).unwrap();
        assert!(bytes.len() < 16, "single run should be tiny, got {}", bytes.len());
        roundtrip(data, Encoding::Rle);
        roundtrip(ColumnData::I64(vec![1, 1, 2, 2, 2, 3]), Encoding::Rle);
        roundtrip(ColumnData::F64(vec![0.05, 0.05, 0.06]), Encoding::Rle);
    }

    #[test]
    fn rle_preserves_negative_zero_and_nan_bits() {
        let data = ColumnData::F64(vec![-0.0, -0.0, f64::NAN, f64::NAN]);
        let bytes = encode(&data, Encoding::Rle).unwrap();
        let got = decode(&bytes, Encoding::Rle, PhysicalType::F64, 4).unwrap();
        let v = got.as_f64().unwrap();
        assert!(v[0].is_sign_negative() && v[0] == 0.0);
        assert!(v[2].is_nan());
    }

    #[test]
    fn delta_roundtrips_sorted_and_unsorted() {
        roundtrip(ColumnData::I64((0..1000).map(|i| 9000 + i * 3).collect()), Encoding::Delta);
        roundtrip(ColumnData::I64(vec![5, -3, 100, 7]), Encoding::Delta);
        roundtrip(ColumnData::I64(vec![i64::MAX, i64::MIN]), Encoding::Delta);
    }

    #[test]
    fn delta_compresses_sorted_dates() {
        let dates: Vec<i64> = (0..10_000).map(|i| 8000 + i / 50).collect();
        let data = ColumnData::I64(dates);
        let bytes = encode(&data, Encoding::Delta).unwrap();
        assert!(bytes.len() < data.plain_size() / 4, "delta should shrink sorted data");
        roundtrip(data, Encoding::Delta);
    }

    #[test]
    fn delta_f64_unsupported() {
        let err = encode(&ColumnData::F64(vec![1.0]), Encoding::Delta).unwrap_err();
        assert!(matches!(err, FormatError::Unsupported(_)));
    }

    #[test]
    fn choose_encoding_heuristics() {
        assert_eq!(choose_encoding(&ColumnData::I64(vec![7; 100])), Encoding::Rle);
        assert_eq!(choose_encoding(&ColumnData::I64((0..100).collect())), Encoding::Delta);
        let random_like: Vec<i64> =
            (0..100i64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)).collect();
        assert_eq!(choose_encoding(&ColumnData::I64(random_like)), Encoding::Plain);
        assert_eq!(choose_encoding(&ColumnData::F64(vec![0.1; 50])), Encoding::Rle);
        assert_eq!(
            choose_encoding(&ColumnData::F64((0..50).map(f64::from).collect())),
            Encoding::Plain
        );
    }

    #[test]
    fn truncated_input_errors() {
        let data = ColumnData::I64(vec![1, 2, 3]);
        let bytes = encode(&data, Encoding::Plain).unwrap();
        let err = decode(&bytes[..bytes.len() - 1], Encoding::Plain, PhysicalType::I64, 3);
        assert_eq!(err.unwrap_err(), FormatError::UnexpectedEof);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let data = ColumnData::I64(vec![1, 2]);
        let mut bytes = encode(&data, Encoding::Plain).unwrap();
        bytes.push(0);
        assert!(decode(&bytes, Encoding::Plain, PhysicalType::I64, 2).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
