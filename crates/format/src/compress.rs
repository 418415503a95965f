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
//!
//! ## Decoding
//!
//! [`decompress`] is bound by its tokens, not its bytes: a plain-encoded
//! `f64` column of few distinct values (`l_quantity`, `l_discount`)
//! compresses to about one 8-byte match per value, one of many
//! (`l_extendedprice`) to a literal of a few bytes plus a short match. It
//! therefore writes into a buffer sized once and moves short tokens as
//! 8-byte words; see the function for what that leaves checked (all that
//! a byte-at-a-time decoder checks).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;

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
    #[expect(clippy::expect_used, reason = "a four-byte slice always converts to [u8; 4]")]
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

/// Width of the copies [`decompress`] moves bytes in.
const WORD: usize = 8;

/// Room [`decompress`] keeps after its output, so that the copies of a
/// token may run past the token's end: two words for the shortest match.
const SLACK: usize = 2 * WORD;

/// `buf[to..to + WORD] = buf[from..from + WORD]`, the source read whole
/// before the write.
#[inline(always)]
fn copy_word(buf: &mut [u8], from: usize, to: usize) {
    let mut word = [0u8; WORD];
    word.copy_from_slice(&buf[from..from + WORD]);
    buf[to..to + WORD].copy_from_slice(&word);
}

/// Decompress into a buffer of exactly `expected_len` bytes.
///
/// The buffer is sized once and short tokens are copied into it a word at
/// a time: on numeric column chunks nearly every token is a match of one
/// 8-byte value, give or take a byte, or a literal of a few bytes, so a
/// `memcpy` call and a length update per token cost more than the bytes
/// they move. A word copy may write past the end of its token; those
/// bytes lie in the slack or are overwritten by the next token, and are
/// never read (a match reaches back at most to the bytes decoded so far).
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    // Not sized on the strength of a claim alone: a token is at least one
    // byte and yields at most MAX_MATCH, so `pos` never passes `cap`.
    let cap = expected_len.min(input.len().saturating_mul(MAX_MATCH));
    let mut out = vec![0u8; cap + SLACK];
    let mut pos = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        let control = input[i];
        i += 1;
        if control < 0x80 {
            let n = control as usize + 1;
            let lits = input.get(i..i + n).ok_or(FormatError::UnexpectedEof)?;
            if pos + n > expected_len {
                return Err(corrupt("LZ output exceeds expected length"));
            }
            match input.get(i..i + WORD) {
                Some(word) if n <= WORD => out[pos..pos + WORD].copy_from_slice(word),
                _ => out[pos..pos + n].copy_from_slice(lits),
            }
            pos += n;
            i += n;
        } else {
            let len = (control & 0x7f) as usize + MIN_MATCH;
            let Some(&[lo, hi]) = input.get(i..i + 2) else {
                return Err(FormatError::UnexpectedEof);
            };
            let dist = u16::from_le_bytes([lo, hi]) as usize;
            i += 2;
            if dist == 0 || dist > pos {
                return Err(corrupt("LZ match distance out of range"));
            }
            if pos + len > expected_len {
                return Err(corrupt("LZ output exceeds expected length"));
            }
            let from = pos - dist;
            if dist >= WORD && len <= 2 * WORD {
                // Two words whatever the length: a second copy that runs
                // only for a match longer than one value is a branch on
                // the data's whim, mispredicted more often than the copy
                // costs. In order, so the second may read the first.
                copy_word(&mut out, from, pos);
                copy_word(&mut out, from + WORD, pos + WORD);
            } else if dist >= len {
                out.copy_within(from..from + len, pos);
            } else {
                // The match overlaps its own output (dist = 1 repeats one
                // byte): it repeats its first `dist` bytes. Closer than a
                // word, those go out byte by byte until `step` of them
                // are there — the least multiple of `dist` a word fits
                // in — and the rest is copied at that distance.
                let (head, step) = if dist >= WORD {
                    (0, dist)
                } else {
                    let step = dist * WORD.div_ceil(dist);
                    (len.min(step), step)
                };
                for k in 0..head {
                    out[pos + k] = out[from + k];
                }
                for k in (head..len).step_by(WORD) {
                    copy_word(&mut out, pos + k - step, pos + k);
                }
            }
            pos += len;
        }
    }
    if pos != expected_len {
        return Err(corrupt(format!("LZ output length {pos} != expected {expected_len}")));
    }
    out.truncate(expected_len);
    Ok(out)
}

/// Apply a compression scheme.
pub fn apply(data: &[u8], compression: Compression) -> Vec<u8> {
    match compression {
        Compression::None => data.to_vec(),
        Compression::Lz => compress(data),
    }
}

/// Invert a compression scheme. Uncompressed data is the input itself,
/// borrowed.
pub fn invert(data: &[u8], compression: Compression, expected_len: usize) -> Result<Cow<'_, [u8]>> {
    match compression {
        Compression::None => {
            if data.len() != expected_len {
                return Err(corrupt("uncompressed chunk length mismatch"));
            }
            Ok(Cow::Borrowed(data))
        }
        Compression::Lz => decompress(data, expected_len).map(Cow::Owned),
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

    /// The decoder this module had before it copied words: one byte at a
    /// time into a growing vector, the same checks in the same order.
    fn decompress_bytewise(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < input.len() {
            let control = input[i] as usize;
            i += 1;
            if control < 0x80 {
                let lits = input.get(i..i + control + 1).ok_or(FormatError::UnexpectedEof)?;
                if out.len() + lits.len() > expected_len {
                    return Err(corrupt("LZ output exceeds expected length"));
                }
                out.extend_from_slice(lits);
                i += lits.len();
            } else {
                let len = (control & 0x7f) + MIN_MATCH;
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
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            }
        }
        if out.len() != expected_len {
            return Err(corrupt("LZ output length differs from expected"));
        }
        Ok(out)
    }

    /// Same bytes, or the same error variant.
    fn assert_same_outcome(input: &[u8], expected_len: usize, what: &str) {
        let got = decompress(input, expected_len);
        let want = decompress_bytewise(input, expected_len);
        match (&got, &want) {
            (Ok(g), Ok(w)) => assert_eq!(g, w, "{what}"),
            (Err(FormatError::UnexpectedEof), Err(FormatError::UnexpectedEof))
            | (Err(FormatError::Corrupt(_)), Err(FormatError::Corrupt(_))) => {}
            _ => panic!("{what}: got {got:?}, reference {want:?}"),
        }
    }

    /// `input` itself, every prefix of it and every single-bit flip of it.
    fn assert_same_outcome_under_damage(input: &[u8], expected_len: usize) {
        assert_same_outcome(input, expected_len, "intact");
        for cut in 0..input.len() {
            assert_same_outcome(&input[..cut], expected_len, &format!("cut at {cut}"));
        }
        let mut damaged = input.to_vec();
        for bit in 0..input.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert_same_outcome(&damaged, expected_len, &format!("bit {bit} flipped"));
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }

    fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        }
    }

    #[test]
    fn random_inputs_with_short_period_runs_roundtrip() {
        let mut next = lcg(0x9E37_79B9_7F4A_7C15);
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
            assert_eq!(decompress_bytewise(&c, data.len()).unwrap(), data);
        }
    }

    /// A literal token of `n` random bytes.
    fn push_literal(stream: &mut Vec<u8>, n: usize, next: &mut impl FnMut(usize) -> usize) {
        stream.push((n - 1) as u8);
        stream.extend((0..n).map(|_| next(256) as u8));
    }

    fn push_match(stream: &mut Vec<u8>, len: usize, dist: usize) {
        stream.push(0x80 | (len - MIN_MATCH) as u8);
        stream.extend_from_slice(&(dist as u16).to_le_bytes());
    }

    #[test]
    fn random_token_streams_decode_like_the_bytewise_reference() {
        let mut next = lcg(0x0123_4567_89AB_CDEF);
        // Every distance a word copy can overlap at, and a few beyond.
        let dists: Vec<usize> = (1..=24).chain([25, 31, 32, 33, 63, 64, 65, 127, 300]).collect();
        for (round, &last_dist) in dists.iter().cycle().take(120).enumerate() {
            let mut stream = Vec::new();
            let mut produced = 0usize;
            push_literal(&mut stream, last_dist.min(128), &mut next);
            produced += last_dist.min(128);
            for _ in 0..next(10) {
                if next(3) == 0 {
                    let n = 1 + next(128);
                    push_literal(&mut stream, n, &mut next);
                    produced += n;
                } else {
                    let dist = match next(3) {
                        0 => 1 + next(produced),
                        _ => dists[next(dists.len())],
                    };
                    let len = MIN_MATCH + next(MAX_MATCH - MIN_MATCH + 1);
                    push_match(&mut stream, len, dist.min(produced));
                    produced += len;
                }
            }
            while produced < last_dist {
                push_literal(&mut stream, 128.min(last_dist - produced), &mut next);
                produced += 128.min(last_dist - produced);
            }
            // The last token is a match that ends exactly at the end of
            // the buffer: its final word copy runs into the slack.
            let len = [MIN_MATCH, 5, 7, 8, 9, 15, 16, 17, MAX_MATCH][round % 9];
            push_match(&mut stream, len, last_dist);
            produced += len;
            assert_eq!(decompress_bytewise(&stream, produced).unwrap().len(), produced);
            assert_same_outcome_under_damage(&stream, produced);
            for claimed in [0, 1, produced - 1, produced + 1, produced + SLACK, usize::MAX] {
                assert_same_outcome(&stream, claimed, &format!("claiming {claimed}"));
            }
        }
    }

    #[test]
    fn low_cardinality_f64_chunks_decode_like_the_bytewise_reference() {
        // `l_quantity`-like: 50 distinct doubles in no order, so nearly
        // every token is a match of exactly one value.
        let mut next = lcg(7);
        for values in [1usize, 2, 3, 50, 150] {
            let mut plain = Vec::new();
            for _ in 0..values {
                plain.extend_from_slice(&((1 + next(50)) as f64).to_le_bytes());
            }
            let c = compress(&plain);
            assert_eq!(decompress(&c, plain.len()).unwrap(), plain);
            assert_same_outcome_under_damage(&c, plain.len());
        }
        // `l_extendedprice`-like: a few fresh low bytes, then a match.
        let mut plain = Vec::new();
        for _ in 0..150 {
            plain.extend_from_slice(&(900.0 + next(100_000) as f64 / 100.0).to_le_bytes());
        }
        let c = compress(&plain);
        assert_eq!(decompress(&c, plain.len()).unwrap(), plain);
        assert_same_outcome_under_damage(&c, plain.len());
    }

    #[test]
    fn apply_invert_none() {
        let data = b"xyz".to_vec();
        let c = apply(&data, Compression::None);
        assert_eq!(invert(&c, Compression::None, 3).unwrap(), data);
        assert!(invert(&c, Compression::None, 4).is_err());
    }
}
