//! The engine's one hash table of key tuples.
//!
//! Hash aggregation ([`crate::agg::GroupedAggState`]) and the build side
//! of a hash join ([`crate::join::JoinState`]) both map a tuple of key
//! columns to a dense id. [`KeyTable`] does that a batch at a time: key
//! parts are stored flat as raw 64-bit values (`i64` as is, `f64` by bit
//! pattern, `bool` as 0/1) with one type tag per key *column*, so a
//! lookup compares machine words and never builds a `Scalar` per cell.
//! Ids are handed out in first-seen order, which is what keeps the
//! aggregate wire encoding and every downstream result deterministic.
//!
//! Open addressing with linear probing over a power-of-two slot array at
//! load ≤ ½. The stored per-key hash is the shared
//! [`crate::join::hash_key_parts`] — the partition hash of the exchange —
//! so [`crate::agg::GroupedAggState::split`] reuses it. Slots are indexed
//! by the *high* bits of a second multiply: every key a merge worker
//! receives agrees on `hash % partitions`, so the low bits carry no
//! information there.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::column::Column;
use crate::error::{exec_err, Result};
use crate::join::hash_key_parts;
use crate::types::DataType;

/// Slot marker for "no key here", and [`KeyTable::lookup_columns`]'s id
/// for "key not in the table".
pub(crate) const ABSENT: u32 = u32::MAX;

const MIN_SLOTS: usize = 16;

/// Interned key tuples with dense first-seen ids.
#[derive(Clone, Debug)]
pub(crate) struct KeyTable {
    /// Type of each key part. Fixed by the first key interned; an empty
    /// table takes any shape.
    types: Vec<DataType>,
    /// Key `id` is `parts[id * arity..(id + 1) * arity]`.
    parts: Vec<u64>,
    /// [`hash_key_parts`] of each key.
    hashes: Vec<u64>,
    /// Ids (or [`ABSENT`]); the length is a power of two.
    slots: Vec<u32>,
}

/// The raw 64-bit form of the key columns' first `rows` rows, row-major.
fn raw_rows(cols: &[&Column], rows: usize) -> Result<Vec<u64>> {
    let arity = cols.len();
    let mut raw = vec![0u64; rows * arity];
    for (j, col) in cols.iter().enumerate() {
        if col.len() < rows {
            return exec_err(format!("key column {j} has {} rows, expected {rows}", col.len()));
        }
        let out = raw.iter_mut().skip(j).step_by(arity);
        match col {
            Column::I64(v) => out.zip(v).for_each(|(o, &x)| *o = x as u64),
            Column::F64(v) => out.zip(v).for_each(|(o, &x)| *o = x.to_bits()),
            Column::Bool(v) => out.zip(v).for_each(|(o, &x)| *o = u64::from(x)),
        }
    }
    Ok(raw)
}

impl KeyTable {
    pub(crate) fn new() -> KeyTable {
        KeyTable {
            types: Vec::new(),
            parts: Vec::new(),
            hashes: Vec::new(),
            slots: vec![ABSENT; MIN_SLOTS],
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Type of each key part (meaningless while the table is empty).
    pub(crate) fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Raw parts of key `id`.
    pub(crate) fn key(&self, id: usize) -> &[u64] {
        let arity = self.types.len();
        &self.parts[id * arity..(id + 1) * arity]
    }

    /// Stored [`hash_key_parts`] of key `id`.
    pub(crate) fn hash(&self, id: usize) -> u64 {
        self.hashes[id]
    }

    fn slot_of(&self, hash: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// The id of `key`, or the empty slot where it would go.
    #[inline]
    fn find(&self, hash: u64, key: &[u64]) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.slot_of(hash);
        loop {
            let id = self.slots[slot];
            if id == ABSENT {
                return Err(slot);
            }
            // An element-wise compare: `==` on slices this short costs a
            // `memcmp` call per row.
            let stored = self.key(id as usize);
            if self.hashes[id as usize] == hash && stored.iter().zip(key).all(|(a, b)| a == b) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Take `types` as the table's shape if it is empty; otherwise they
    /// must be the shape it has.
    fn conform(&mut self, types: &[DataType]) -> Result<()> {
        if self.len() == 0 {
            self.types.clear();
            self.types.extend_from_slice(types);
        } else if self.types != types {
            return exec_err(format!(
                "key of types {types:?} does not fit a table keyed by {:?}",
                self.types
            ));
        }
        Ok(())
    }

    /// Append a key known to be absent, at the free slot `find` returned.
    fn push_at(&mut self, slot: usize, hash: u64, key: &[u64]) -> Result<u32> {
        let id = self.len();
        if id >= ABSENT as usize {
            return exec_err("key table is full (2^32 - 1 keys)");
        }
        self.slots[slot] = id as u32;
        self.hashes.push(hash);
        self.parts.extend_from_slice(key);
        if (id + 1) * 2 > self.slots.len() {
            self.index(self.slots.len() * 2);
        }
        Ok(id as u32)
    }

    /// Rebuild the slot array at `slots` entries from the stored hashes.
    fn index(&mut self, slots: usize) {
        self.slots = vec![ABSENT; slots];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.slot_of(hash);
            while self.slots[slot] != ABSENT {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = id as u32;
        }
    }

    /// The keys `ids` (distinct), in that order, as a table of their own.
    pub(crate) fn select(&self, ids: &[usize]) -> KeyTable {
        let mut out = KeyTable {
            types: self.types.clone(),
            parts: Vec::with_capacity(ids.len() * self.types.len()),
            hashes: Vec::with_capacity(ids.len()),
            slots: Vec::new(),
        };
        for &id in ids {
            out.hashes.push(self.hashes[id]);
            out.parts.extend_from_slice(self.key(id));
        }
        out.index((ids.len() * 2).next_power_of_two().max(MIN_SLOTS));
        out
    }

    /// Intern one key of the table's shape: its id and whether it was new.
    #[inline]
    fn intern_hashed(&mut self, hash: u64, key: &[u64]) -> Result<(u32, bool)> {
        match self.find(hash, key) {
            Ok(id) => Ok((id, false)),
            Err(slot) => Ok((self.push_at(slot, hash, key)?, true)),
        }
    }

    /// Intern one key whose hash is known. Returns its id and whether it
    /// was new.
    pub(crate) fn intern(
        &mut self,
        types: &[DataType],
        hash: u64,
        key: &[u64],
    ) -> Result<(u32, bool)> {
        self.conform(types)?;
        self.intern_hashed(hash, key)
    }

    /// Ids of the first `rows` rows of the key columns, interning unseen
    /// keys in row order.
    pub(crate) fn intern_columns(&mut self, cols: &[&Column], rows: usize) -> Result<Vec<u32>> {
        let raw = raw_rows(cols, rows)?;
        if rows == 0 {
            return Ok(Vec::new());
        }
        let types: Vec<DataType> = cols.iter().map(|c| c.dtype()).collect();
        self.conform(&types)?;
        if cols.is_empty() {
            // The one empty key of a global aggregate.
            let (id, _) = self.intern_hashed(hash_key_parts(&[]), &[])?;
            return Ok(vec![id; rows]);
        }
        let mut ids = Vec::with_capacity(rows);
        for key in raw.chunks_exact(cols.len()) {
            ids.push(self.intern_hashed(hash_key_parts(key), key)?.0);
        }
        Ok(ids)
    }

    /// Ids of the first `rows` rows of the key columns, [`ABSENT`] for a
    /// key the table does not hold. Columns of other types than the
    /// table's match nothing: keys compare by type and value.
    pub(crate) fn lookup_columns(&self, cols: &[&Column], rows: usize) -> Result<Vec<u32>> {
        let raw = raw_rows(cols, rows)?;
        let same_shape = self.types.iter().copied().eq(cols.iter().map(|c| c.dtype()));
        if self.len() == 0 || !same_shape {
            return Ok(vec![ABSENT; rows]);
        }
        if cols.is_empty() {
            return Ok(vec![0; rows]);
        }
        Ok(raw
            .chunks_exact(cols.len())
            .map(|key| self.find(hash_key_parts(key), key).unwrap_or(ABSENT))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_first_seen_and_stable_across_growth() {
        let mut t = KeyTable::new();
        let keys: Vec<i64> = (0..5000).map(|i| (i * 7919) % 3000).collect();
        let ids = t.intern_columns(&[&Column::I64(keys.clone())], keys.len()).unwrap();
        assert_eq!(t.len(), 3000);
        let mut next = 0u32;
        let mut seen = std::collections::HashMap::new();
        for (k, id) in keys.iter().zip(&ids) {
            let want = *seen.entry(*k).or_insert_with(|| {
                next += 1;
                next - 1
            });
            assert_eq!(*id, want);
            assert_eq!(t.key(*id as usize), &[*k as u64]);
        }
        let again = t.lookup_columns(&[&Column::I64(keys.clone())], keys.len()).unwrap();
        assert_eq!(again, ids);
        let missing = t.lookup_columns(&[&Column::I64(vec![-1, 3000])], 2).unwrap();
        assert_eq!(missing, vec![ABSENT, ABSENT]);
    }

    #[test]
    fn float_keys_compare_by_bits_and_types_must_agree() {
        let mut t = KeyTable::new();
        let col = Column::F64(vec![0.0, -0.0, f64::NAN, f64::NAN, 0.0]);
        assert_eq!(t.intern_columns(&[&col], 5).unwrap(), vec![0, 1, 2, 2, 0]);
        // An Int64 0 has the raw bits of +0.0 but is another key.
        assert_eq!(t.lookup_columns(&[&Column::I64(vec![0])], 1).unwrap(), vec![ABSENT]);
        assert!(t.intern_columns(&[&Column::I64(vec![0])], 1).is_err());
        assert!(t.intern_columns(&[&col, &col], 1).is_err(), "arity is part of the shape");
    }

    #[test]
    fn zero_arity_has_one_key() {
        let mut t = KeyTable::new();
        assert_eq!(t.intern_columns(&[], 0).unwrap(), Vec::<u32>::new());
        assert_eq!(t.len(), 0, "no rows, no key");
        assert_eq!(t.intern_columns(&[], 3).unwrap(), vec![0, 0, 0]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup_columns(&[], 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn short_key_column_is_an_error() {
        let mut t = KeyTable::new();
        assert!(t.intern_columns(&[&Column::I64(vec![1, 2])], 3).is_err());
        assert!(t.lookup_columns(&[&Column::I64(vec![1, 2])], 3).is_err());
    }

    #[test]
    fn keys_sharing_low_hash_bits_do_not_cluster() {
        // What a merge worker sees: only keys with `hash % 8 == 3`.
        let keys: Vec<i64> =
            (0..200_000i64).filter(|&k| hash_key_parts(&[k as u64]) % 8 == 3).collect();
        let mut t = KeyTable::new();
        t.intern_columns(&[&Column::I64(keys.clone())], keys.len()).unwrap();
        let mask = t.slots.len() - 1;
        let longest = t
            .slots
            .iter()
            .enumerate()
            .filter(|(_, &id)| id != ABSENT)
            .map(|(at, &id)| (at + t.slots.len() - t.slot_of(t.hash(id as usize))) & mask)
            .max()
            .unwrap();
        assert!(longest < 64, "longest probe {longest}");
    }
}
