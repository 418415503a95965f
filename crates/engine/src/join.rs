//! Hash-join state: the build-side hash table and the row-level hash
//! partitioning both sides of a distributed join share.
//!
//! The distributed planner in `lambada-core` splits an equi-join into
//! scan stages that hash-partition their rows on the join keys and a join
//! stage whose workers each receive one co-partition of both inputs
//! (§4.4: repartitioning operators run entirely over the serverless
//! exchange). Build sides travel over the exchange as row batches;
//! [`JoinState`] is the operator state a join worker builds from them
//! and probes, never a wire format. Its index is the same
//! key table (`keytable.rs`) that [`crate::agg::GroupedAggState`]
//! groups with.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::Arc;

use crate::batch::RecordBatch;
use crate::column::Column;
use crate::error::{exec_err, plan_err, Result};
use crate::keytable::{KeyTable, ABSENT};
use crate::logical::JoinVariant;
use crate::scalar::{Scalar, ScalarKey};
use crate::types::{Schema, SchemaRef};

/// One all-sentinel row of `schema` — the `NULL` padding a left-outer
/// join appends to unmatched probe rows (see [`Scalar::null_of`] for the
/// sentinel encoding). Both the local reference executor and the
/// distributed probe terminal pad through this helper, so padded rows are
/// bitwise identical across the two paths.
pub fn null_pad_row(schema: &SchemaRef) -> Result<RecordBatch> {
    let columns =
        schema.fields.iter().map(|f| Column::broadcast(Scalar::null_of(f.dtype), 1)).collect();
    RecordBatch::new(SchemaRef::clone(schema), columns)
}

/// Gather `rows` by `indices`, where the out-of-range index `pad_idx`
/// stands for the sentinel pad row — the left-outer probe's gather,
/// done in one pass without materializing an extended build batch.
fn gather_with_pad(rows: &RecordBatch, indices: &[usize], pad_idx: usize) -> Result<RecordBatch> {
    use crate::scalar::{NULL_BOOL, NULL_F64, NULL_I64};
    let columns = rows
        .columns()
        .iter()
        .map(|c| match c {
            Column::I64(v) => Column::I64(
                indices.iter().map(|&i| if i == pad_idx { NULL_I64 } else { v[i] }).collect(),
            ),
            Column::F64(v) => Column::F64(
                indices.iter().map(|&i| if i == pad_idx { NULL_F64 } else { v[i] }).collect(),
            ),
            Column::Bool(v) => Column::Bool(
                indices.iter().map(|&i| if i == pad_idx { NULL_BOOL } else { v[i] }).collect(),
            ),
        })
        .collect();
    RecordBatch::new(SchemaRef::clone(rows.schema()), columns)
}

/// Multiply-shift hash of one key part in its raw 64-bit form.
#[inline]
fn mix(raw: u64) -> u64 {
    raw.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

/// Multiply-shift hash of one scalar key part.
#[inline]
pub fn hash_scalar_key(k: ScalarKey) -> u64 {
    mix(k.raw())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// [`hash_scalar_keys`] of a key tuple given as raw 64-bit parts
/// ([`ScalarKey::raw`]) — the form `KeyTable` stores.
#[inline]
pub(crate) fn hash_key_parts(parts: &[u64]) -> u64 {
    parts.iter().fold(FNV_OFFSET, |h, &raw| (h ^ mix(raw)).wrapping_mul(FNV_PRIME))
}

/// FNV-style combination of an already-materialized key tuple. This is
/// the same function as [`hash_row_key`] applied to the row's key
/// columns; [`crate::agg::GroupedAggState`] uses it to shard grouped
/// aggregate states by group key over the exchange.
#[inline]
pub fn hash_scalar_keys(keys: &[ScalarKey]) -> u64 {
    keys.iter().fold(FNV_OFFSET, |h, &k| (h ^ hash_scalar_key(k)).wrapping_mul(FNV_PRIME))
}

/// FNV-style combination of the key columns of one row. Every component
/// that co-partitions data (the exchange operator, both sides of a
/// distributed join, the group-key sharding of distributed aggregation)
/// must agree on this function, which is why it lives here rather than in
/// `lambada-core`.
#[inline]
pub fn hash_row_key(batch: &RecordBatch, key_cols: &[usize], row: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for &c in key_cols {
        h ^= hash_scalar_key(batch.column(c).value(row).key());
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Partition id of one row under `partitions`-way hash partitioning.
#[inline]
pub fn row_partition(
    batch: &RecordBatch,
    key_cols: &[usize],
    partitions: usize,
    row: usize,
) -> usize {
    (hash_row_key(batch, key_cols, row) % partitions as u64) as usize
}

/// The hash-partition kernel: the row indices of `batch` that fall into
/// each of `partitions` partitions, ascending within a partition. Every
/// row lands in exactly one list. The pipeline's
/// [`crate::pipeline::Terminal::HashPartition`] and the exchange
/// operator's partitioning step both gather from these lists.
pub fn partition_rows(
    batch: &RecordBatch,
    key_cols: &[usize],
    partitions: usize,
) -> Vec<Vec<usize>> {
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); partitions];
    for row in 0..batch.num_rows() {
        indices[row_partition(batch, key_cols, partitions, row)].push(row);
    }
    indices
}

/// Build-side hash table of a partitioned hash join. Rows are stored
/// columnar (one concatenated batch); a `KeyTable` interns the
/// distinct keys, and the rows of key `k` are
/// `row_index[offsets[k]..offsets[k + 1]]`, ascending.
#[derive(Clone, Debug)]
pub struct JoinState {
    schema: SchemaRef,
    key_cols: Vec<usize>,
    rows: RecordBatch,
    keys: KeyTable,
    offsets: Vec<u32>,
    row_index: Vec<u32>,
}

/// The index is a function of the rows and key columns.
impl PartialEq for JoinState {
    fn eq(&self, other: &JoinState) -> bool {
        self.schema == other.schema && self.key_cols == other.key_cols && self.rows == other.rows
    }
}

impl JoinState {
    /// Build from the build side's batches (concatenates once, so it is
    /// linear in the total row count regardless of batch granularity).
    pub fn build(
        schema: SchemaRef,
        key_cols: Vec<usize>,
        batches: &[RecordBatch],
    ) -> Result<JoinState> {
        for &k in &key_cols {
            if k >= schema.len() {
                return plan_err(format!("join key column {k} out of range"));
            }
        }
        let rows = RecordBatch::concat(Arc::clone(&schema), batches)?;
        if rows.num_rows() >= ABSENT as usize {
            return exec_err(format!("join build side of {} rows is too large", rows.num_rows()));
        }
        let mut keys = KeyTable::new();
        let cols: Vec<&Column> = key_cols.iter().map(|&c| rows.column(c)).collect();
        let ids = keys.intern_columns(&cols, rows.num_rows())?;
        // Counting sort of row numbers by key id: stable, so each key's
        // rows stay in build order.
        let mut offsets = vec![0u32; keys.len() + 1];
        for &id in &ids {
            offsets[id as usize + 1] += 1;
        }
        for k in 0..keys.len() {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets.clone();
        let mut row_index = vec![0u32; ids.len()];
        for (row, &id) in ids.iter().enumerate() {
            let at = &mut next[id as usize];
            row_index[*at as usize] = row as u32;
            *at += 1;
        }
        Ok(JoinState { schema, key_cols, rows, keys, offsets, row_index })
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    pub fn num_rows(&self) -> usize {
        self.rows.num_rows()
    }

    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Approximate retained bytes, for worker OOM modelling.
    pub fn approx_bytes(&self) -> usize {
        let data = self.rows.num_rows() * self.rows.num_columns() * 8;
        let index = self.keys.len() * (self.key_cols.len() * 16 + 48) + self.rows.num_rows() * 8;
        data + index
    }

    /// Build rows holding key `id`, in build order.
    fn matches(&self, id: u32) -> &[u32] {
        let k = id as usize;
        &self.row_index[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }

    /// Inner-equi-join probe: returns `probe columns ++ build columns`
    /// for every matching pair, preserving probe-row order (and duplicate
    /// matches), exactly like the reference executor's hash join.
    pub fn probe(&self, batch: &RecordBatch, probe_keys: &[usize]) -> Result<RecordBatch> {
        self.probe_variant(batch, probe_keys, JoinVariant::Inner)
    }

    /// Variant-aware probe of one batch, preserving probe-row order:
    ///
    /// * [`JoinVariant::Inner`] — `probe ++ build` columns for every
    ///   matching pair (duplicate matches preserved);
    /// * [`JoinVariant::LeftOuter`] — matching pairs, plus every
    ///   unmatched probe row once with its build columns padded by
    ///   [`null_pad_row`] sentinels;
    /// * [`JoinVariant::Semi`] — probe columns only, each matched probe
    ///   row emitted exactly once however many build rows it matches;
    /// * [`JoinVariant::Anti`] — probe columns only, the unmatched rows.
    pub fn probe_variant(
        &self,
        batch: &RecordBatch,
        probe_keys: &[usize],
        variant: JoinVariant,
    ) -> Result<RecordBatch> {
        if probe_keys.len() != self.key_cols.len() {
            return plan_err(format!(
                "probe key count {} != build key count {}",
                probe_keys.len(),
                self.key_cols.len()
            ));
        }
        for &k in probe_keys {
            if k >= batch.num_columns() {
                return plan_err(format!("probe key column {k} out of range"));
            }
        }
        let cols: Vec<&Column> = probe_keys.iter().map(|&c| batch.column(c)).collect();
        let ids = self.keys.lookup_columns(&cols, batch.num_rows())?;
        let mut p_idx: Vec<usize> = Vec::new();
        let mut b_idx: Vec<usize> = Vec::new();
        // Index of the sentinel pad row in the extended build batch of a
        // left-outer probe.
        let pad_idx = self.rows.num_rows();
        for (row, &id) in ids.iter().enumerate() {
            match variant {
                JoinVariant::Inner | JoinVariant::LeftOuter => {
                    if id != ABSENT {
                        let matches = self.matches(id);
                        p_idx.extend(std::iter::repeat_n(row, matches.len()));
                        b_idx.extend(matches.iter().map(|&m| m as usize));
                    } else if variant == JoinVariant::LeftOuter {
                        p_idx.push(row);
                        b_idx.push(pad_idx);
                    }
                }
                JoinVariant::Semi => {
                    if id != ABSENT {
                        p_idx.push(row);
                    }
                }
                JoinVariant::Anti => {
                    if id == ABSENT {
                        p_idx.push(row);
                    }
                }
            }
        }
        let ppart = batch.gather(&p_idx);
        if !variant.keeps_build_columns() {
            // Semi/anti: the output is the filtered probe batch itself.
            return Ok(ppart);
        }
        let bpart = if variant == JoinVariant::LeftOuter {
            // Gather build rows with `pad_idx` entries resolved to the
            // NULL sentinels — O(output), so streaming many probe batches
            // against one build side never re-copies the build columns.
            gather_with_pad(&self.rows, &b_idx, pad_idx)?
        } else {
            self.rows.gather(&b_idx)
        };
        let mut fields = batch.schema().fields.clone();
        fields.extend(self.schema.fields.clone());
        let mut columns = ppart.into_columns();
        columns.extend(bpart.into_columns());
        RecordBatch::new(Schema::arc(fields), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Field};

    fn build_schema() -> SchemaRef {
        Schema::arc(vec![Field::new("k", DataType::Int64), Field::new("w", DataType::Float64)])
    }

    fn build_batch(keys: Vec<i64>, weights: Vec<f64>) -> RecordBatch {
        RecordBatch::new(build_schema(), vec![Column::I64(keys), Column::F64(weights)]).unwrap()
    }

    #[test]
    fn probe_matches_with_duplicates() {
        let state = JoinState::build(
            build_schema(),
            vec![0],
            &[build_batch(vec![1, 1, 2], vec![0.1, 0.2, 0.3])],
        )
        .unwrap();
        let probe = RecordBatch::from_columns(
            &["pk", "v"],
            vec![Column::I64(vec![2, 1, 9]), Column::I64(vec![20, 10, 90])],
        )
        .unwrap();
        let out = state.probe(&probe, &[0]).unwrap();
        // pk=2 matches one build row, pk=1 matches two, pk=9 none.
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 4);
        assert_eq!(
            out.row(0),
            vec![Scalar::Int64(2), Scalar::Int64(20), Scalar::Int64(2), Scalar::Float64(0.3),]
        );
        assert_eq!(out.row(1)[0], Scalar::Int64(1));
        assert_eq!(out.row(2)[0], Scalar::Int64(1));
    }

    #[test]
    fn empty_state_probes_to_zero_rows() {
        let state = JoinState::build(build_schema(), vec![0], &[]).unwrap();
        let probe = RecordBatch::from_columns(&["k"], vec![Column::I64(vec![1, 2])]).unwrap();
        let out = state.probe(&probe, &[0]).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(out.num_columns(), 3);
    }

    #[test]
    fn semi_probe_emits_matched_rows_once() {
        // Build keys 1 (twice) and 2: duplicate build matches must not
        // duplicate semi output rows.
        let state = JoinState::build(
            build_schema(),
            vec![0],
            &[build_batch(vec![1, 1, 2], vec![0.1, 0.2, 0.3])],
        )
        .unwrap();
        let probe = RecordBatch::from_columns(
            &["pk", "v"],
            vec![Column::I64(vec![2, 1, 9, 1]), Column::I64(vec![20, 10, 90, 11])],
        )
        .unwrap();
        let out = state.probe_variant(&probe, &[0], JoinVariant::Semi).unwrap();
        assert_eq!(out.num_columns(), 2, "probe columns only");
        assert_eq!(out.column(0).as_i64().unwrap(), &[2, 1, 1], "probe order, once per row");
        let anti = state.probe_variant(&probe, &[0], JoinVariant::Anti).unwrap();
        assert_eq!(anti.num_columns(), 2);
        assert_eq!(anti.column(0).as_i64().unwrap(), &[9], "only the unmatched row");
    }

    #[test]
    fn left_outer_probe_pads_unmatched_rows() {
        let state =
            JoinState::build(build_schema(), vec![0], &[build_batch(vec![1, 1], vec![0.1, 0.2])])
                .unwrap();
        let probe = RecordBatch::from_columns(&["pk"], vec![Column::I64(vec![1, 9])]).unwrap();
        let out = state.probe_variant(&probe, &[0], JoinVariant::LeftOuter).unwrap();
        // pk=1 matches twice, pk=9 survives once padded.
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 3, "probe ++ build");
        assert_eq!(out.row(2)[0], Scalar::Int64(9));
        assert_eq!(out.row(2)[1], Scalar::null_of(DataType::Int64));
        assert_eq!(out.row(2)[2].key(), Scalar::null_of(DataType::Float64).key());
    }

    #[test]
    fn variant_probes_against_empty_build() {
        let state = JoinState::build(build_schema(), vec![0], &[]).unwrap();
        let probe = RecordBatch::from_columns(&["k"], vec![Column::I64(vec![1, 2])]).unwrap();
        assert_eq!(state.probe_variant(&probe, &[0], JoinVariant::Semi).unwrap().num_rows(), 0);
        assert_eq!(state.probe_variant(&probe, &[0], JoinVariant::Anti).unwrap().num_rows(), 2);
        let outer = state.probe_variant(&probe, &[0], JoinVariant::LeftOuter).unwrap();
        assert_eq!(outer.num_rows(), 2, "every probe row survives padded");
        assert_eq!(outer.num_columns(), 3);
    }

    #[test]
    fn partitioning_is_stable_and_total() {
        let b = build_batch((0..500).collect(), vec![0.0; 500]);
        let mut counts = vec![0usize; 7];
        for row in 0..b.num_rows() {
            let p = row_partition(&b, &[0], 7, row);
            assert!(p < 7);
            counts[p] += 1;
            assert_eq!(p, row_partition(&b, &[0], 7, row), "deterministic");
        }
        assert_eq!(counts.iter().sum::<usize>(), 500);
        assert!(counts.iter().all(|&c| c > 20), "no empty partition at n=500: {counts:?}");
    }

    #[test]
    fn bad_shapes_rejected() {
        assert!(JoinState::build(build_schema(), vec![9], &[]).is_err());
        let state = JoinState::build(build_schema(), vec![0], &[]).unwrap();
        let probe = RecordBatch::from_columns(&["k"], vec![Column::I64(vec![1])]).unwrap();
        assert!(state.probe(&probe, &[0, 1]).is_err());
        assert!(state.probe(&probe, &[7]).is_err(), "probe key column out of range");
    }
}
