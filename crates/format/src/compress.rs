//! Heavy-weight compression.
//!
//! Stands in for the GZIP of §4.3.2/§5.1: a byte-oriented LZ77 codec with a
//! hash-chain matcher. Decompression of heavy-compressed column chunks is
//! the CPU-bound part of scanning that makes worker memory size matter in
//! Fig 10 ("scanning GZIP-compressed data is CPU-bound").
//!
//! ## Wire format
//!
//! A sequence of tokens:
//!
//! * control byte `< 0x80`: literal run of `control + 1` bytes (1..=128),
//!   followed by the bytes;
//! * control byte `>= 0x80`: match of length `(control & 0x7f) + MIN_MATCH`
//!   (4..=131), followed by a little-endian `u16` back-distance (1..=65535).

use crate::error::{corrupt, FormatError, Result};

/// Compression tag stored per column chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Compression {
    None,
    Lz,
}

impl Compression {
    pub(crate) fn tag(self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Lz => 1,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(Compression::None),
            1 => Ok(Compression::Lz),
            other => Err(corrupt(format!("unknown compression tag {other}"))),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Compression::None => "none",
            Compression::Lz => "lz",
        }
    }
}

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 131;
const MAX_DISTANCE: usize = 65_535;
const HASH_BITS: u32 = 15;

fn hash4(bytes: &[u8]) -> usize {
    // lint: allow(unwrap) — a four-byte slice always converts to [u8; 4]
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compress `input`; always succeeds (worst case ~0.8% expansion).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let candidate = table[h];
        table[h] = i;
        let matched = if candidate != usize::MAX
            && i - candidate <= MAX_DISTANCE
            && input[candidate..candidate + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            let mut len = MIN_MATCH;
            let max = (input.len() - i).min(MAX_MATCH);
            while len < max && input[candidate + len] == input[i + len] {
                len += 1;
            }
            Some((i - candidate, len))
        } else {
            None
        };
        match matched {
            Some((dist, len)) => {
                flush_literals(&mut out, &input[literal_start..i]);
                out.push(0x80 | (len - MIN_MATCH) as u8);
                out.extend_from_slice(&(dist as u16).to_le_bytes());
                // Index a few positions inside the match so later data can
                // still find it (cheap approximation of full indexing).
                let end = i + len;
                let mut j = i + 1;
                while j + MIN_MATCH <= input.len() && j < end && j < i + 8 {
                    table[hash4(&input[j..])] = j;
                    j += 1;
                }
                i = end;
                literal_start = i;
            }
            None => {
                i += 1;
            }
        }
    }
    flush_literals(&mut out, &input[literal_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(128);
        out.push((n - 1) as u8);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// Decompress into a buffer of exactly `expected_len` bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    // Reserve once, but not on the strength of a claim alone: a token is
    // at least one byte and yields at most MAX_MATCH.
    let mut out = Vec::with_capacity(expected_len.min(input.len().saturating_mul(MAX_MATCH)));
    let mut i = 0usize;
    while i < input.len() {
        let control = input[i];
        i += 1;
        if control < 0x80 {
            let n = control as usize + 1;
            let lits = input.get(i..i + n).ok_or(FormatError::UnexpectedEof)?;
            if out.len() + n > expected_len {
                return Err(corrupt("LZ output exceeds expected length"));
            }
            out.extend_from_slice(lits);
            i += n;
        } else {
            let mut len = (control & 0x7f) as usize + MIN_MATCH;
            let Some(&[lo, hi]) = input.get(i..i + 2) else {
                return Err(FormatError::UnexpectedEof);
            };
            let dist = u16::from_le_bytes([lo, hi]) as usize;
            i += 2;
            if dist == 0 || dist > out.len() {
                return Err(corrupt("LZ match distance out of range"));
            }
            if out.len() + len > expected_len {
                return Err(corrupt("LZ output exceeds expected length"));
            }
            let start = out.len() - dist;
            // A match longer than its distance overlaps its own output
            // (dist = 1 repeats one byte): it repeats its first `dist`
            // bytes, so what is there so far, a whole number of periods,
            // can be copied again, doubling the run each round.
            while len > 0 {
                let n = len.min(out.len() - start);
                out.extend_from_within(start..start + n);
                len -= n;
            }
        }
    }
    if out.len() != expected_len {
        return Err(corrupt(format!("LZ output length {} != expected {expected_len}", out.len())));
    }
    Ok(out)
}

/// Apply a compression scheme.
pub fn apply(data: &[u8], compression: Compression) -> Vec<u8> {
    match compression {
        Compression::None => data.to_vec(),
        Compression::Lz => compress(data),
    }
}

/// Invert a compression scheme.
pub fn invert(data: &[u8], compression: Compression, expected_len: usize) -> Result<Vec<u8>> {
    match compression {
        Compression::None => {
            if data.len() != expected_len {
                return Err(corrupt("uncompressed chunk length mismatch"));
            }
            Ok(data.to_vec())
        }
        Compression::Lz => decompress(data, expected_len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        let d = decompress(&c, data.len()).unwrap();
        assert_eq!(d, data);
        c.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(roundtrip(b""), 0);
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let data: Vec<u8> = b"lambada".iter().copied().cycle().take(10_000).collect();
        let clen = roundtrip(&data);
        assert!(clen < data.len() / 10, "compressed {clen} of {}", data.len());
    }

    #[test]
    fn run_of_single_byte_uses_overlapping_match() {
        let data = vec![0u8; 5000];
        let clen = roundtrip(&data);
        assert!(clen < 200, "clen = {clen}");
    }

    #[test]
    fn incompressible_input_expands_bounded() {
        // Pseudo-random bytes: worst case adds 1 control byte per 128.
        let mut state = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect();
        let clen = roundtrip(&data);
        assert!(clen <= data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn structured_numeric_data_compresses() {
        // Plain-encoded i64s with small values have many zero bytes.
        let mut data = Vec::new();
        for i in 0..4000i64 {
            data.extend_from_slice(&(i % 100).to_le_bytes());
        }
        let clen = roundtrip(&data);
        assert!(clen < data.len() / 3, "clen = {clen} of {}", data.len());
    }

    #[test]
    fn corrupt_distance_rejected() {
        // Match referring before the start of output.
        let bad = vec![0x80, 0x05, 0x00];
        assert!(decompress(&bad, 10).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        assert!(decompress(&c[..c.len() - 1], data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_rejected() {
        let c = compress(b"abcdef");
        assert!(decompress(&c, 5).is_err());
        assert!(decompress(&c, 7).is_err());
    }

    #[test]
    fn match_reaching_past_expected_len_is_a_typed_error() {
        // One literal, then a dist-1 match of 131 bytes: 132 in all.
        let stream = vec![0x00, b'x', 0xff, 0x01, 0x00];
        assert_eq!(decompress(&stream, 132).unwrap(), vec![b'x'; 132]);
        for claimed in [1, 2, 100, 131] {
            let err = decompress(&stream, claimed).unwrap_err();
            assert!(matches!(err, FormatError::Corrupt(_)), "{claimed}: {err:?}");
        }
        assert!(matches!(decompress(&stream, 133), Err(FormatError::Corrupt(_))));
        // A claim no stream this short could fill is not reserved for.
        assert!(matches!(decompress(&stream, usize::MAX), Err(FormatError::Corrupt(_))));
        // Cut inside the distance bytes.
        assert_eq!(decompress(&stream[..4], 132), Err(FormatError::UnexpectedEof));
    }

    /// Byte-at-a-time reference for the match copy.
    fn decompress_bytewise(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < input.len() {
            let control = input[i] as usize;
            if control < 0x80 {
                out.extend_from_slice(&input[i + 1..i + 2 + control]);
                i += 2 + control;
            } else {
                let dist = u16::from_le_bytes([input[i + 1], input[i + 2]]) as usize;
                for _ in 0..(control & 0x7f) + MIN_MATCH {
                    out.push(out[out.len() - dist]);
                }
                i += 3;
            }
        }
        out
    }

    #[test]
    fn random_inputs_with_short_period_runs_roundtrip() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        for _ in 0..200 {
            // Runs of period 1..=8 (overlapping matches) between
            // stretches of noise, run lengths straddling MAX_MATCH.
            let mut data = Vec::new();
            for _ in 0..next(12) {
                let noise = next(40);
                data.extend((0..noise).map(|_| next(256) as u8));
                let period = 1 + next(8);
                let pattern: Vec<u8> = (0..period).map(|_| next(256) as u8).collect();
                let run = next(3 * MAX_MATCH);
                data.extend(pattern.iter().cycle().take(run));
            }
            let c = compress(&data);
            assert_eq!(decompress(&c, data.len()).unwrap(), data);
            assert_eq!(decompress_bytewise(&c), data);
        }
    }

    #[test]
    fn apply_invert_none() {
        let data = b"xyz".to_vec();
        let c = apply(&data, Compression::None);
        assert_eq!(invert(&c, Compression::None, 3).unwrap(), data);
        assert!(invert(&c, Compression::None, 4).is_err());
    }
}
