//! Damaged and lying input: every decoder that takes bytes from a file or
//! an exchange payload answers with an `Err`, never a panic and never an
//! allocation sized by a count the bytes merely claim.

use lambada_format::{
    encoding, read_all, read_footer, read_row_group, write_file, ColumnData, ColumnSchema,
    Compression, Encoding, FileSchema, FormatError, PhysicalType, WriterOptions,
};

/// One sample per (encoding, type) arm of `encoding::decode`.
fn samples() -> Vec<(Encoding, ColumnData)> {
    let ints = ColumnData::I64(vec![7, 7, 7, -1, 300, 300, i64::MIN, 9_000, 9_001, 9_001]);
    let floats = ColumnData::F64(vec![0.05, 0.05, 0.05, -0.0, f64::NAN, 1e300, 1e300]);
    vec![
        (Encoding::Plain, ints.clone()),
        (Encoding::Plain, floats.clone()),
        (Encoding::Rle, ints.clone()),
        (Encoding::Rle, floats),
        (Encoding::Delta, ints),
    ]
}

/// Every single-bit flip of `bytes`, one at a time.
fn bit_flips(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..bytes.len() * 8).map(|bit| {
        let mut damaged = bytes.to_vec();
        damaged[bit / 8] ^= 1 << (bit % 8);
        damaged
    })
}

#[test]
fn truncated_columns_are_errors_and_flipped_ones_never_panic() {
    for (enc, data) in samples() {
        let bytes = encoding::encode(&data, enc).unwrap();
        for cut in 0..bytes.len() {
            let got = encoding::decode(&bytes[..cut], enc, data.ptype(), data.len());
            assert!(got.is_err(), "{enc:?} {:?} cut at {cut}: {got:?}", data.ptype());
        }
        for damaged in bit_flips(&bytes) {
            // A flipped value bit is another valid column; the length
            // never changes.
            if let Ok(col) = encoding::decode(&damaged, enc, data.ptype(), data.len()) {
                assert_eq!(col.len(), data.len());
            }
        }
    }
}

#[test]
fn a_value_count_the_bytes_cannot_back_is_an_error() {
    // At the parent each of these aborted the process: `with_capacity` of
    // the claimed count, 8 TiB or a capacity overflow.
    let lies = [1usize << 40, usize::MAX / 4, usize::MAX];
    for (enc, data) in samples() {
        let bytes = encoding::encode(&data, enc).unwrap();
        for claimed in lies.into_iter().chain([data.len() + 1, data.len() - 1, 0]) {
            for input in [bytes.as_slice(), &[0u8; 8], &[]] {
                let got = encoding::decode(input, enc, data.ptype(), claimed);
                if claimed != 0 || !input.is_empty() {
                    assert!(got.is_err(), "{enc:?} {:?} claiming {claimed}", data.ptype());
                }
            }
        }
    }
    // The issue's own case, with the variant it should have.
    assert_eq!(
        encoding::decode(&[0; 8], Encoding::Plain, PhysicalType::I64, 1 << 40),
        Err(FormatError::UnexpectedEof)
    );
    // One run claiming the whole lying count: a few bytes of input must
    // not become terabytes of output.
    let mut run = Vec::new();
    let mut count = 1u64 << 60;
    while count >= 0x80 {
        run.push(count as u8 | 0x80);
        count >>= 7;
    }
    run.push(count as u8);
    run.extend_from_slice(&5i64.to_le_bytes());
    let got = encoding::decode(&run, Encoding::Rle, PhysicalType::I64, 1 << 60);
    assert!(matches!(got, Err(FormatError::Corrupt(_))), "{got:?}");
}

fn sample_file(compression: Compression) -> Vec<u8> {
    let schema = FileSchema::new(vec![
        ColumnSchema::new("date", PhysicalType::I64),
        ColumnSchema::new("flag", PhysicalType::I64),
        ColumnSchema::new("price", PhysicalType::F64),
    ]);
    let group = |rows: i64, base: i64| {
        vec![
            ColumnData::I64((0..rows).map(|i| base + i / 4).collect()),
            ColumnData::I64((0..rows).map(|i| i / 16).collect()),
            ColumnData::F64((0..rows).map(|i| (i % 5) as f64 * 0.25).collect()),
        ]
    };
    let opts = WriterOptions { compression, ..WriterOptions::default() };
    write_file(schema, &[group(40, 8000), group(24, 8010)], opts).unwrap()
}

#[test]
fn damaged_files_are_errors_never_panics() {
    for compression in [Compression::None, Compression::Lz] {
        let file = sample_file(compression);
        let (meta, groups) = read_all(&file).unwrap();
        for cut in 0..file.len() {
            assert!(read_all(&file[..cut]).is_err(), "{compression:?} cut at {cut}");
        }
        for damaged in bit_flips(&file) {
            // Payload bits of a plain chunk flip a value; everything
            // else is caught. Whatever decodes keeps the file's shape.
            if let Ok((m, g)) = read_all(&damaged) {
                assert_eq!(m.num_rows, meta.num_rows);
                assert_eq!(g.len(), groups.len());
            }
        }
    }
}

#[test]
fn a_footer_that_lies_about_a_chunk_is_an_error() {
    let file = sample_file(Compression::Lz);
    let meta = read_footer(&file).unwrap();
    type Lie = fn(&mut lambada_format::ColumnChunkMeta);
    let lies: [Lie; 7] = [
        |c| c.offset = u64::MAX,
        |c| c.offset = u64::MAX - c.compressed_len + 1,
        |c| c.compressed_len = u64::MAX,
        |c| c.uncompressed_len = 1 << 40,
        |c| c.uncompressed_len = u64::MAX,
        |c| c.num_values = 1 << 40,
        |c| c.num_values = u64::MAX / 4,
    ];
    for lie in lies {
        for col in 0..meta.schema.len() {
            let mut lying = meta.clone();
            lie(&mut lying.row_groups[0].columns[col]);
            assert!(read_row_group(&file, &lying, 0, &[col]).is_err(), "column {col}");
        }
    }
}
