//! Differential tests of the columnar hash aggregation against an oracle
//! that shares no code with it.
//!
//! The reference executor aggregates through `GroupedAggState` itself, so
//! bit-identity to the reference cannot see a bug in that kernel. The
//! [`Oracle`] here is the row-at-a-time fold the kernel replaced — a
//! `HashMap` from boxed `ScalarKey` tuples to a `Vec<Acc>` per group,
//! `Acc::update(Scalar)` per cell — with its own encoder of the frozen
//! `AggState` wire format. A golden fixture written by that encoder
//! before the rewrite pins the format itself.

use std::collections::HashMap;

use lambada_engine::agg::{Acc, AggFunc, GroupedAggState};
use lambada_engine::join::hash_scalar_keys;
use lambada_engine::{Column, DataType, Scalar, ScalarKey};
use lambada_format::binio::BinWriter;
use proptest::prelude::*;

type Funcs = Vec<(AggFunc, Option<DataType>)>;

#[derive(Clone)]
struct Oracle {
    prototypes: Vec<Acc>,
    map: HashMap<Box<[ScalarKey]>, usize>,
    keys: Vec<Box<[ScalarKey]>>,
    accs: Vec<Vec<Acc>>,
}

fn encode_acc(acc: &Acc, w: &mut BinWriter) {
    match *acc {
        Acc::SumI(v) => (w.u8(0), w.i64(v)),
        Acc::SumF(v) => (w.u8(1), w.f64(v)),
        Acc::Count(v) => (w.u8(2), w.i64(v)),
        Acc::MinI(v) => (w.u8(3), w.i64(v)),
        Acc::MinF(v) => (w.u8(4), w.f64(v)),
        Acc::MaxI(v) => (w.u8(5), w.i64(v)),
        Acc::MaxF(v) => (w.u8(6), w.f64(v)),
        Acc::Avg { sum, count } => {
            w.u8(7);
            (w.f64(sum), w.i64(count))
        }
    };
}

fn encode_key(key: &ScalarKey, w: &mut BinWriter) {
    match *key {
        ScalarKey::I(v) => (w.u8(0), w.i64(v)),
        ScalarKey::F(v) => (w.u8(1), w.u64(v)),
        ScalarKey::B(v) => (w.u8(2), w.bool(v)),
    };
}

impl Oracle {
    fn new(funcs: &Funcs) -> Oracle {
        Oracle {
            prototypes: funcs.iter().map(|&(f, t)| Acc::new(f, t).unwrap()).collect(),
            map: HashMap::new(),
            keys: Vec::new(),
            accs: Vec::new(),
        }
    }

    fn empty_like(&self) -> Oracle {
        Oracle {
            prototypes: self.prototypes.clone(),
            map: HashMap::new(),
            keys: Vec::new(),
            accs: Vec::new(),
        }
    }

    fn push_group(&mut self, key: Box<[ScalarKey]>, accs: Vec<Acc>) {
        self.map.insert(key.clone(), self.keys.len());
        self.keys.push(key);
        self.accs.push(accs);
    }

    fn update_batch(&mut self, group_cols: &[Column], arg_cols: &[Option<Column>], rows: usize) {
        for row in 0..rows {
            let key: Box<[ScalarKey]> = group_cols.iter().map(|g| g.value(row).key()).collect();
            let gid = match self.map.get(&key) {
                Some(&gid) => gid,
                None => {
                    self.push_group(key, self.prototypes.clone());
                    self.keys.len() - 1
                }
            };
            for (acc, arg) in self.accs[gid].iter_mut().zip(arg_cols) {
                acc.update(arg.as_ref().map_or(Scalar::Int64(0), |c| c.value(row))).unwrap();
            }
        }
    }

    /// New groups join in the peer's own order.
    fn merge(&mut self, other: &Oracle) {
        for (key, accs) in other.keys.iter().zip(&other.accs) {
            match self.map.get(key) {
                Some(&gid) => {
                    for (a, b) in self.accs[gid].iter_mut().zip(accs) {
                        a.merge(b).unwrap();
                    }
                }
                None => self.push_group(key.clone(), accs.clone()),
            }
        }
    }

    fn split(self, partitions: usize) -> Vec<Oracle> {
        let mut shards: Vec<Oracle> = (0..partitions).map(|_| self.empty_like()).collect();
        for (key, accs) in self.keys.into_iter().zip(self.accs) {
            let p = (hash_scalar_keys(&key) % partitions as u64) as usize;
            shards[p].push_group(key, accs);
        }
        shards
    }

    fn split_off_closed(&mut self, close_before: i64) -> Oracle {
        let mut closed = self.empty_like();
        let mut open = self.empty_like();
        for (key, accs) in self.keys.drain(..).zip(self.accs.drain(..)) {
            let is_closed = matches!(key.first(), Some(&ScalarKey::I(w)) if w < close_before);
            if is_closed { &mut closed } else { &mut open }.push_group(key, accs);
        }
        *self = open;
        closed
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = BinWriter::new();
        w.varint(self.prototypes.len() as u64);
        for p in &self.prototypes {
            encode_acc(p, &mut w);
        }
        w.varint(self.keys.len() as u64);
        for (key, accs) in self.keys.iter().zip(&self.accs) {
            w.varint(key.len() as u64);
            for k in key.iter() {
                encode_key(k, &mut w);
            }
            for a in accs {
                encode_acc(a, &mut w);
            }
        }
        w.into_bytes()
    }

    /// Rows sorted by key, every value by bit pattern.
    fn finalize_bits(&self) -> Vec<(Vec<ScalarKey>, Vec<ScalarKey>)> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
        order
            .into_iter()
            .map(|g| {
                (self.keys[g].to_vec(), self.accs[g].iter().map(|a| a.finalize().key()).collect())
            })
            .collect()
    }
}

fn finalize_bits(state: &GroupedAggState) -> Vec<(Vec<ScalarKey>, Vec<ScalarKey>)> {
    state
        .finalize_rows()
        .iter()
        .map(|(k, v)| (k.iter().map(Scalar::key).collect(), v.iter().map(Scalar::key).collect()))
        .collect()
}

/// SplitMix64: the test draws everything from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const EDGE_I: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 1 << 53];
const EDGE_F: [f64; 7] = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];

/// A column of `rows` values over a domain of about `domain` distinct
/// ones, edge values included.
fn random_column(rng: &mut Rng, dtype: DataType, rows: usize, domain: usize) -> Column {
    match dtype {
        DataType::Int64 => Column::I64(
            (0..rows)
                .map(|_| match rng.below(domain + 1) {
                    0 => EDGE_I[rng.below(EDGE_I.len())],
                    v => v as i64 - (domain / 2) as i64,
                })
                .collect(),
        ),
        DataType::Float64 => Column::F64(
            (0..rows)
                .map(|_| match rng.below(domain + 1) {
                    0 => EDGE_F[rng.below(EDGE_F.len())],
                    v => v as f64 * 0.37 - 3.1,
                })
                .collect(),
        ),
        DataType::Boolean => Column::Bool((0..rows).map(|_| rng.below(2) == 1).collect()),
    }
}

const TYPES: [DataType; 3] = [DataType::Int64, DataType::Float64, DataType::Boolean];

/// Every aggregate the planner can ask for.
fn all_funcs() -> Funcs {
    let mut funcs = vec![(AggFunc::Count, None)];
    for f in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
        funcs.push((f, Some(DataType::Int64)));
        funcs.push((f, Some(DataType::Float64)));
    }
    funcs
}

struct Case {
    funcs: Funcs,
    key_types: Vec<DataType>,
    /// `(group columns, argument columns, rows)` per batch.
    batches: Vec<(Vec<Column>, Vec<Option<Column>>, usize)>,
}

fn random_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let all = all_funcs();
    let funcs: Funcs = (0..1 + rng.below(9)).map(|_| all[rng.below(all.len())]).collect();
    let key_types: Vec<DataType> = (0..rng.below(4)).map(|_| TYPES[rng.below(3)]).collect();
    // 1 to ~1e4 groups: the per-column domain and the row count grow
    // together, and one case in eight is the big one.
    let (domain, max_rows) = match rng.below(8) {
        0 => (20_000, 12_000),
        1 | 2 => (1, 40),
        3 | 4 => (3, 300),
        _ => (40, 2_000),
    };
    let batches = (0..1 + rng.below(5))
        .map(|_| {
            let rows = if rng.below(6) == 0 { 0 } else { rng.below(max_rows + 1) };
            let groups =
                key_types.iter().map(|&t| random_column(&mut rng, t, rows, domain)).collect();
            let args = funcs
                .iter()
                .map(|&(f, t)| match (f, t) {
                    (AggFunc::Count, _) => None,
                    // A float aggregate also takes an Int64 argument
                    // (`Scalar::as_f64`'s coercion).
                    (_, Some(DataType::Float64)) if rng.below(4) == 0 => {
                        Some(random_column(&mut rng, DataType::Int64, rows, 1000))
                    }
                    (_, t) => Some(random_column(&mut rng, t.unwrap(), rows, 1000)),
                })
                .collect();
            (groups, args, rows)
        })
        .collect();
    Case { funcs, key_types, batches }
}

fn check(state: &GroupedAggState, oracle: &Oracle, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(state.num_groups(), oracle.keys.len(), "{}: groups", what);
    prop_assert!(state.encode() == oracle.encode(), "{}: encodings differ", what);
    prop_assert_eq!(finalize_bits(state), oracle.finalize_bits(), "{}: final rows", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever sequence of batches goes in, the kernel and the oracle
    /// agree on the final rows by bits and on every encoded byte — also
    /// after a split and re-merge, a window close, and a wire round trip.
    #[test]
    fn kernel_matches_row_at_a_time_oracle(seed in any::<u64>()) {
        let case = random_case(seed);
        let mut state = GroupedAggState::new(&case.funcs).unwrap();
        let mut oracle = Oracle::new(&case.funcs);
        for (groups, args, rows) in &case.batches {
            state.update_batch(groups, args, *rows).unwrap();
            oracle.update_batch(groups, args, *rows);
        }
        check(&state, &oracle, "after updates")?;

        for partitions in [1usize, 3, 8] {
            let shards = state.clone().split(partitions);
            let want = oracle.clone().split(partitions);
            prop_assert_eq!(shards.len(), partitions);
            let mut merged = GroupedAggState::new(&case.funcs).unwrap();
            let mut want_merged = Oracle::new(&case.funcs);
            // Merge back last shard first: new groups must still arrive
            // in each shard's own order.
            for (shard, want) in shards.iter().zip(&want).rev() {
                check(shard, want, "shard")?;
                merged.merge(shard).unwrap();
                want_merged.merge(want);
            }
            check(&merged, &want_merged, "merged shards")?;
            prop_assert_eq!(finalize_bits(&merged), oracle.finalize_bits());
        }

        // A peer that saw the batches last first, merged into a state
        // that saw only the first: some groups meet, the rest are new.
        let mut base = GroupedAggState::new(&case.funcs).unwrap();
        let mut want_base = Oracle::new(&case.funcs);
        let mut peer = GroupedAggState::new(&case.funcs).unwrap();
        let mut want_peer = Oracle::new(&case.funcs);
        for (n, (groups, args, rows)) in case.batches.iter().enumerate().rev() {
            peer.update_batch(groups, args, *rows).unwrap();
            want_peer.update_batch(groups, args, *rows);
            if n == 0 {
                base.update_batch(groups, args, *rows).unwrap();
                want_base.update_batch(groups, args, *rows);
            }
        }
        base.merge(&peer).unwrap();
        want_base.merge(&want_peer);
        check(&base, &want_base, "merged overlapping peer")?;

        let decoded = GroupedAggState::decode(&state.encode()).unwrap();
        check(&decoded, &oracle, "decoded")?;

        // Close a window boundary that falls inside the first key's
        // range (when there is an Int64 first key at all).
        let close_before = (seed % 41) as i64 - 20;
        let mut open = decoded;
        let closed = open.split_off_closed(close_before);
        let want_closed = oracle.split_off_closed(close_before);
        if case.key_types.first() != Some(&DataType::Int64) {
            prop_assert_eq!(closed.num_groups(), 0);
        }
        check(&closed, &want_closed, "closed windows")?;
        check(&open, &oracle, "open windows")?;

        // The carried state keeps folding: the batches once more.
        for (groups, args, rows) in &case.batches {
            open.update_batch(groups, args, *rows).unwrap();
            oracle.update_batch(groups, args, *rows);
        }
        check(&open, &oracle, "updates after the window close")?;
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every accumulator kind over three key types, with NaN, -0.0 and
/// `i64::MIN` keys, a NaN and an overflowing argument, in two batches.
fn golden_state() -> GroupedAggState {
    let i = Some(DataType::Int64);
    let f = Some(DataType::Float64);
    let mut st = GroupedAggState::new(&[
        (AggFunc::Sum, i),
        (AggFunc::Sum, f),
        (AggFunc::Count, None),
        (AggFunc::Min, i),
        (AggFunc::Min, f),
        (AggFunc::Max, i),
        (AggFunc::Max, f),
        (AggFunc::Avg, f),
        (AggFunc::Avg, i),
    ])
    .unwrap();
    let mut feed = |k0: Vec<i64>, k1: Vec<f64>, k2: Vec<bool>, ai: Vec<i64>, af: Vec<f64>| {
        let rows = k0.len();
        let (ai, af) = (Some(Column::I64(ai)), Some(Column::F64(af)));
        let args = [&ai, &af, &None, &ai, &af, &ai, &af, &af, &ai].map(Clone::clone);
        st.update_batch(&[Column::I64(k0), Column::F64(k1), Column::Bool(k2)], &args, rows)
            .unwrap();
    };
    feed(
        vec![7, i64::MIN, 7, -1, 7],
        vec![0.0, f64::NAN, -0.0, 1.5, 0.0],
        vec![true, false, true, false, true],
        vec![3, -4, i64::MAX, 9, 1],
        vec![0.1, 0.2, -0.0, f64::NAN, 1e300],
    );
    feed(
        vec![-1, 7, 7],
        vec![1.5, -0.0, 0.0],
        vec![false, true, true],
        vec![i64::MAX, 2, -8],
        vec![-2.5, 0.7, 1e300],
    );
    st
}

/// `golden_state().encode()` as written by the encoder of the commit
/// before the columnar rewrite (PR 12). The `AggState` encoding is frozen
/// (`message.rs`, carried streaming state): this must never change.
const GOLDEN_HEX: &str = "\
0900000000000000000001000000000000000002000000000000000003ffffffffffffff7f04000000000000f07f0500\
0000000000008006000000000000f0ff0700000000000000000000000000000000070000000000000000000000000000\
00000403000700000000000000010000000000000000020100fcffffffffffffff019c7500883ce4477e020300000000\
00000003f8ffffffffffffff049a9999999999b93f050300000000000000069c7500883ce4377e079c7500883ce4477e\
03000000000000000700000000000010c003000000000000000300000000000000008001000000000000f87f020000fc\
ffffffffffffff019a9999999999c93f02010000000000000003fcffffffffffffff049a9999999999c93f05fcffffff\
ffffffff069a9999999999c93f079a9999999999c93f01000000000000000700000000000010c0010000000000000003\
000700000000000000010000000000000080020100010000000000008001666666666666e63f02020000000000000003\
020000000000000004000000000000008005ffffffffffffff7f06666666666666e63f07666666666666e63f02000000\
0000000007000000000000e04302000000000000000300ffffffffffffffff01000000000000f83f0200000800000000\
00008001000000000000f87f0202000000000000000309000000000000000400000000000004c005ffffffffffffff7f\
0600000000000004c007000000000000f87f020000000000000007000000000000e0430200000000000000";

fn golden_bytes() -> Vec<u8> {
    (0..GOLDEN_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn encoding_matches_the_golden_fixture() {
    assert_eq!(hex(&golden_state().encode()), GOLDEN_HEX);
    let decoded = GroupedAggState::decode(&golden_bytes()).unwrap();
    assert_eq!(decoded.num_groups(), 4);
    assert_eq!(hex(&decoded.encode()), GOLDEN_HEX);
}

fn sum_state(keys: Vec<i64>, vals: Vec<i64>) -> GroupedAggState {
    let mut st = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
    let rows = keys.len();
    st.update_batch(&[Column::I64(keys)], &[Some(Column::I64(vals))], rows).unwrap();
    st
}

/// One `SumI` prototype, then a group count of 2^48 with nothing behind
/// it. Pre-allocating for that count aborts the process.
#[test]
fn decode_survives_a_lying_group_count() {
    let mut w = BinWriter::new();
    w.varint(1);
    encode_acc(&Acc::SumI(0), &mut w);
    w.varint(1 << 48);
    let bytes = w.into_bytes();
    assert_eq!(bytes.len(), 17);
    assert!(GroupedAggState::decode(&bytes).is_err());
    // The same lie in the prototype count and in a key's arity.
    let mut w = BinWriter::new();
    w.varint(1 << 48);
    assert!(GroupedAggState::decode(&w.into_bytes()).is_err());
    let mut w = BinWriter::new();
    w.varint(0);
    w.varint(1);
    w.varint(1 << 48);
    assert!(GroupedAggState::decode(&w.into_bytes()).is_err());
}

/// Hand-encode `groups` of `(key parts, accumulators)` under one `SumI`
/// prototype.
fn encode_groups(groups: &[(&[ScalarKey], &[Acc])]) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.varint(1);
    encode_acc(&Acc::SumI(0), &mut w);
    w.varint(groups.len() as u64);
    for (key, accs) in groups {
        w.varint(key.len() as u64);
        for k in key.iter() {
            encode_key(k, &mut w);
        }
        for a in accs.iter() {
            encode_acc(a, &mut w);
        }
    }
    w.into_bytes()
}

#[test]
fn decode_rejects_states_no_encoder_writes() {
    let k1 = [ScalarKey::I(1)];
    let k2 = [ScalarKey::I(2)];
    let acc = [Acc::SumI(5)];
    let ok = encode_groups(&[(&k1, &acc), (&k2, &acc)]);
    assert_eq!(GroupedAggState::decode(&ok).unwrap().num_groups(), 2);

    let duplicate = encode_groups(&[(&k1, &acc), (&k1, &acc)]);
    assert!(GroupedAggState::decode(&duplicate).is_err(), "the same key twice");
    let wrong_tag = encode_groups(&[(&k1, &[Acc::Count(5)])]);
    assert!(GroupedAggState::decode(&wrong_tag).is_err(), "Count under a SumI prototype");
    let arity = encode_groups(&[(&k1, &acc), (&[ScalarKey::I(2), ScalarKey::I(3)], &acc)]);
    assert!(GroupedAggState::decode(&arity).is_err(), "key arity differs between groups");
    let key_type = encode_groups(&[(&k1, &acc), (&[ScalarKey::F(2)], &acc)]);
    assert!(GroupedAggState::decode(&key_type).is_err(), "key type differs between groups");
}

/// Truncate and bit-flip a valid encoding at every position: an error or
/// a state that encodes and decodes again, never a panic or an abort.
#[test]
fn decode_of_mutated_bytes_never_panics() {
    let bytes = golden_bytes();
    for len in 0..bytes.len() {
        assert!(GroupedAggState::decode(&bytes[..len]).is_err(), "prefix of {len} bytes");
    }
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            if let Ok(state) = GroupedAggState::decode(&mutated) {
                let again = GroupedAggState::decode(&state.encode()).unwrap();
                assert_eq!(again.num_groups(), state.num_groups());
                assert_eq!(again.finalize_rows().len(), state.num_groups());
            }
        }
    }
}

/// The merged state, and so the bytes an agg-merge stage ships under
/// `emit_state`, depends on the inputs alone: new groups join in the
/// peer's order.
#[test]
fn merge_order_is_deterministic() {
    let peer = sum_state((0..64).map(|k| k * 7 % 64).collect(), (0..64).collect()).encode();
    let encodings: Vec<Vec<u8>> = (0..8)
        .map(|_| {
            let mut base = sum_state(vec![3, 100], vec![1, 1]);
            base.merge(&GroupedAggState::decode(&peer).unwrap()).unwrap();
            base.encode()
        })
        .collect();
    assert!(encodings.iter().all(|e| e == &encodings[0]), "eight merges, one encoding");
    // Base groups first, then the peer's unseen groups in peer order.
    let mut want = Oracle::new(&vec![(AggFunc::Sum, Some(DataType::Int64))]);
    want.update_batch(&[Column::I64(vec![3, 100])], &[Some(Column::I64(vec![1, 1]))], 2);
    let mut peer_oracle = want.empty_like();
    let keys: Vec<i64> = (0..64).map(|k| k * 7 % 64).collect();
    peer_oracle.update_batch(&[Column::I64(keys)], &[Some(Column::I64((0..64).collect()))], 64);
    want.merge(&peer_oracle);
    assert_eq!(encodings[0], want.encode());
}

#[test]
fn merge_rejects_a_state_of_another_shape() {
    let mut a = sum_state(vec![1], vec![1]);
    let other_func = GroupedAggState::new(&[(AggFunc::Count, None)]).unwrap();
    assert!(a.merge(&other_func).is_err());
    let mut float_keys = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
    float_keys.update_batch(&[Column::F64(vec![1.0])], &[Some(Column::I64(vec![1]))], 1).unwrap();
    assert!(a.merge(&float_keys).is_err());
    assert_eq!(a.num_groups(), 1, "a failed merge leaves the state as it was");
}

#[test]
fn short_columns_are_typed_errors() {
    let funcs = [(AggFunc::Sum, Some(DataType::Int64)), (AggFunc::Count, None)];
    let mut st = GroupedAggState::new(&funcs).unwrap();
    let keys = Column::I64(vec![1, 2]);
    let vals = Column::I64(vec![1, 2]);
    let short_key = st.update_batch(&[Column::I64(vec![1])], &[Some(vals.clone()), None], 2);
    assert!(short_key.is_err());
    let short_arg =
        st.update_batch(std::slice::from_ref(&keys), &[Some(Column::I64(vec![1])), None], 2);
    assert!(short_arg.is_err());
    let missing_arg = st.update_batch(std::slice::from_ref(&keys), &[Some(vals)], 2);
    assert!(missing_arg.is_err(), "one argument column per aggregate");
    let wrong_type = st.update_batch(&[keys], &[Some(Column::F64(vec![1.0, 2.0])), None], 2);
    assert!(wrong_type.is_err(), "SUM over Int64 takes no Float64 argument");
}

/// `sums` float sums — `SUM`s and `AVG`s by turns, every third fed an
/// `Int64` column — between two `COUNT`s, an integer sum and a minimum.
/// The float sums fold several to a pass and the counts from one
/// histogram of the group ids; the oracle folds a cell at a time.
fn fused_funcs(sums: usize) -> (Funcs, Vec<DataType>) {
    let mut funcs = vec![(AggFunc::Count, None)];
    let mut arg_types = vec![DataType::Int64];
    for k in 0..sums {
        let func = if k % 2 == 0 { AggFunc::Sum } else { AggFunc::Avg };
        funcs.push((func, Some(DataType::Float64)));
        arg_types.push(if k % 3 == 2 { DataType::Int64 } else { DataType::Float64 });
    }
    funcs.extend([
        (AggFunc::Sum, Some(DataType::Int64)),
        (AggFunc::Count, None),
        (AggFunc::Min, Some(DataType::Float64)),
    ]);
    arg_types.extend([DataType::Int64, DataType::Int64, DataType::Float64]);
    (funcs, arg_types)
}

/// One to nine float sums (every width of the last fused pass) over one
/// group, a few, and ~1e4 — in batches with more rows than the state has
/// groups and with fewer, which is where the count histogram gives way
/// to a pass per column.
#[test]
fn fused_sums_and_the_count_histogram_match_the_oracle() {
    let mut rng = Rng(0xF0_1D);
    for sums in 1..=9 {
        for (domain, batch_rows) in
            [(1, vec![1, 64, 0, 3]), (6, vec![500, 2, 40]), (10_000, vec![9_000, 300, 4_000])]
        {
            let (funcs, arg_types) = fused_funcs(sums);
            let mut state = GroupedAggState::new(&funcs).unwrap();
            let mut oracle = Oracle::new(&funcs);
            for rows in batch_rows {
                let keys = Column::I64((0..rows).map(|_| rng.below(domain) as i64).collect());
                // One Float64 and one Int64 column feed every aggregate
                // of their type: the same column under several folds.
                let floats = random_column(&mut rng, DataType::Float64, rows, 1000);
                let ints = random_column(&mut rng, DataType::Int64, rows, 1000);
                let args: Vec<Option<Column>> = funcs
                    .iter()
                    .zip(&arg_types)
                    .map(|(&(func, _), &t)| match (func, t) {
                        (AggFunc::Count, _) => None,
                        (_, DataType::Float64) => Some(floats.clone()),
                        _ => Some(ints.clone()),
                    })
                    .collect();
                let borrowed: Vec<Option<&Column>> = funcs
                    .iter()
                    .zip(&arg_types)
                    .map(|(&(func, _), &t)| match (func, t) {
                        (AggFunc::Count, _) => None,
                        (_, DataType::Float64) => Some(&floats),
                        _ => Some(&ints),
                    })
                    .collect();
                state.update_columns(&[&keys], &borrowed, rows).unwrap();
                oracle.update_batch(&[keys], &args, rows);
                let what = format!("{sums} sums, {domain} keys, {rows} rows");
                assert_eq!(state.num_groups(), oracle.keys.len(), "{what}");
                assert!(state.encode() == oracle.encode(), "{what}: encodings differ");
                assert_eq!(finalize_bits(&state), oracle.finalize_bits(), "{what}");
            }
        }
    }
}

/// Every argument is checked before the first fold or the first new
/// group: a bad column in the *last* aggregate leaves the state — its
/// groups, its sums, its bytes — as it was.
#[test]
fn a_failed_update_leaves_the_state_as_it_was() {
    let (funcs, _) = fused_funcs(5);
    let mut state = GroupedAggState::new(&funcs).unwrap();
    let keys = Column::I64(vec![1, 2, 1]);
    let floats = Column::F64(vec![0.5, 1.5, 2.5]);
    let ints = Column::I64(vec![7, 8, 9]);
    let args = |last: &Column| -> Vec<Option<Column>> {
        let mut args: Vec<Option<Column>> = funcs[..funcs.len() - 1]
            .iter()
            .map(|&(func, t)| match (func, t) {
                (AggFunc::Count, _) => None,
                (_, Some(DataType::Float64)) => Some(floats.clone()),
                _ => Some(ints.clone()),
            })
            .collect();
        args.push(Some(last.clone()));
        args
    };
    state.update_batch(std::slice::from_ref(&keys), &args(&floats), 3).unwrap();
    let before = state.encode();
    // New groups (3, 4) and fresh values in every good column; the last
    // argument is a row short, then of a type `MIN` over floats rejects.
    let new_keys = Column::I64(vec![3, 4, 1]);
    for bad in [Column::F64(vec![1.0, 2.0]), Column::Bool(vec![true; 3])] {
        let failed = state.update_batch(std::slice::from_ref(&new_keys), &args(&bad), 3);
        assert!(failed.is_err());
        assert_eq!(state.num_groups(), 2);
        assert!(state.encode() == before, "a failed update changed the state");
    }
    // And it still folds: the same state as one that never saw the error.
    let mut oracle = Oracle::new(&funcs);
    oracle.update_batch(std::slice::from_ref(&keys), &args(&floats), 3);
    state.update_batch(std::slice::from_ref(&new_keys), &args(&floats), 3).unwrap();
    oracle.update_batch(std::slice::from_ref(&new_keys), &args(&floats), 3);
    assert!(state.encode() == oracle.encode());
}
