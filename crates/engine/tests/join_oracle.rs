//! `JoinState::build` + `probe_variant` against a nested-loop join that
//! shares no code with the key table: all four variants, duplicate and
//! absent keys, NaN / -0.0 / sentinel-valued keys, exact row order.

use std::sync::Arc;

use lambada_engine::join::JoinState;
use lambada_engine::{
    Column, DataType, Field, JoinVariant, RecordBatch, Scalar, ScalarKey, Schema, SchemaRef,
};
use proptest::prelude::*;

const VARIANTS: [JoinVariant; 4] =
    [JoinVariant::Inner, JoinVariant::LeftOuter, JoinVariant::Semi, JoinVariant::Anti];

fn key_of(batch: &RecordBatch, cols: &[usize], row: usize) -> Vec<ScalarKey> {
    cols.iter().map(|&c| batch.column(c).value(row).key()).collect()
}

/// The rows `variant` emits, by bits: probe order outside, build order
/// inside, unmatched left-outer rows padded with the NULL sentinels.
fn nested_loop(
    build: &RecordBatch,
    build_keys: &[usize],
    probe: &RecordBatch,
    probe_keys: &[usize],
    variant: JoinVariant,
) -> Vec<Vec<ScalarKey>> {
    let bits = |b: &RecordBatch, row: usize| -> Vec<ScalarKey> {
        b.row(row).iter().map(Scalar::key).collect()
    };
    let pad: Vec<ScalarKey> =
        build.schema().fields.iter().map(|f| Scalar::null_of(f.dtype).key()).collect();
    let mut out = Vec::new();
    for p in 0..probe.num_rows() {
        let key = key_of(probe, probe_keys, p);
        let matches: Vec<usize> =
            (0..build.num_rows()).filter(|&b| key_of(build, build_keys, b) == key).collect();
        match variant {
            JoinVariant::Inner | JoinVariant::LeftOuter => {
                for &b in &matches {
                    out.push([bits(probe, p), bits(build, b)].concat());
                }
                if matches.is_empty() && variant == JoinVariant::LeftOuter {
                    out.push([bits(probe, p), pad.clone()].concat());
                }
            }
            JoinVariant::Semi if !matches.is_empty() => out.push(bits(probe, p)),
            JoinVariant::Anti if matches.is_empty() => out.push(bits(probe, p)),
            JoinVariant::Semi | JoinVariant::Anti => {}
        }
    }
    out
}

fn rows_by_bits(batch: &RecordBatch) -> Vec<Vec<ScalarKey>> {
    batch.rows().iter().map(|r| r.iter().map(Scalar::key).collect()).collect()
}

/// `(k_int, k_float, k_bool, payload)` rows over small key domains, so
/// duplicates and misses are both common.
fn side(rows: &[(i64, u8, bool)], payload_base: i64) -> RecordBatch {
    const FLOATS: [f64; 5] = [0.0, -0.0, f64::NAN, 1.5, f64::INFINITY];
    let ints = rows.iter().map(|r| if r.0 == 0 { i64::MIN } else { r.0 }).collect();
    let floats = rows.iter().map(|r| FLOATS[r.1 as usize % FLOATS.len()]).collect();
    let bools = rows.iter().map(|r| r.2).collect();
    let payload = (0..rows.len() as i64).map(|i| payload_base + i).collect();
    RecordBatch::from_columns(
        &["ki", "kf", "kb", "v"],
        vec![Column::I64(ints), Column::F64(floats), Column::Bool(bools), Column::I64(payload)],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn probes_match_a_nested_loop_join(
        build_rows in prop::collection::vec((0i64..6, 0u8..5, any::<bool>()), 0..60),
        probe_rows in prop::collection::vec((0i64..8, 0u8..5, any::<bool>()), 0..60),
        keys in prop_oneof![
            Just(vec![0usize]),
            Just(vec![1usize]),
            Just(vec![0usize, 1]),
            Just(vec![2usize, 1, 0]),
            Just(Vec::new()),
        ],
        cut in 0usize..60,
    ) {
        let build = side(&build_rows, 1000);
        let probe = side(&probe_rows, 0);
        // The build side arrives as several batches; the index must not
        // care where they were cut.
        let cut = cut.min(build.num_rows());
        let head: Vec<usize> = (0..cut).collect();
        let tail: Vec<usize> = (cut..build.num_rows()).collect();
        let state = JoinState::build(
            Arc::clone(build.schema()),
            keys.clone(),
            &[build.gather(&head), build.gather(&tail)],
        )
        .unwrap();
        prop_assert_eq!(state.num_rows(), build.num_rows());
        for variant in VARIANTS {
            let got = state.probe_variant(&probe, &keys, variant).unwrap();
            let want = nested_loop(&build, &keys, &probe, &keys, variant);
            prop_assert_eq!(rows_by_bits(&got), want, "{:?} on keys {:?}", variant, &keys);
            let width = if variant.keeps_build_columns() { 8 } else { 4 };
            prop_assert_eq!(got.num_columns(), width);
        }
    }
}

fn int_schema() -> SchemaRef {
    Schema::arc(vec![Field::new("k", DataType::Int64)])
}

/// Keys compare by type and value: an `Int64` 0 and a `Float64` +0.0
/// share their raw bits and must still not join.
#[test]
fn keys_of_different_types_never_match() {
    let build = RecordBatch::new(int_schema(), vec![Column::I64(vec![0, 1])]).unwrap();
    let state = JoinState::build(int_schema(), vec![0], &[build]).unwrap();
    let probe = RecordBatch::from_columns(&["f"], vec![Column::F64(vec![0.0, 1.0])]).unwrap();
    assert_eq!(state.probe_variant(&probe, &[0], JoinVariant::Semi).unwrap().num_rows(), 0);
    assert_eq!(state.probe_variant(&probe, &[0], JoinVariant::Anti).unwrap().num_rows(), 2);
    let outer = state.probe_variant(&probe, &[0], JoinVariant::LeftOuter).unwrap();
    assert_eq!(outer.column(1).as_i64().unwrap(), &[i64::MIN, i64::MIN], "padded, not joined");
}

/// 20 000 build rows over 5 000 keys: every key's matches come back in
/// build order across table growth.
#[test]
fn many_keys_keep_build_order() {
    let n = 20_000i64;
    let keys: Vec<i64> = (0..n).map(|i| (i * 7919) % 5000).collect();
    let build = RecordBatch::from_columns(
        &["k", "row"],
        vec![Column::I64(keys.clone()), Column::I64((0..n).collect())],
    )
    .unwrap();
    let state = JoinState::build(Arc::clone(build.schema()), vec![0], &[build]).unwrap();
    assert_eq!(state.num_keys(), 5000);
    let probe =
        RecordBatch::from_columns(&["k"], vec![Column::I64(vec![4999, 5000, 0, 4999])]).unwrap();
    let out = state.probe_variant(&probe, &[0], JoinVariant::Inner).unwrap();
    let keys = &keys;
    let want = |k: i64| (0..n).filter(move |&i| keys[i as usize] == k);
    let want_rows: Vec<i64> = want(4999).chain(want(0)).chain(want(4999)).collect();
    assert_eq!(out.column(2).as_i64().unwrap(), want_rows.as_slice());
}
