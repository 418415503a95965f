//! Aggregation: functions, accumulators, and serializable grouped state.
//!
//! Workers compute *partial* aggregates over their plan fragments; the
//! driver merges the partial states it collects from the result queue and
//! finalizes them (§3.2: "post-processing like aggregating the
//! intermediate worker results"). [`GroupedAggState`] is therefore both
//! the hash-aggregation operator state and a wire format.
//!
//! The state is columnar: a `KeyTable` interns group keys, and each
//! aggregate keeps one typed vector of accumulators indexed by group id.
//! A batch is folded in passes — group ids for all its rows, then typed
//! loops over that id vector: the float sums several aggregates to a
//! pass, every count from one histogram of the ids, one loop each for the
//! rest — so no `Scalar` is built per cell. Rows still reach each
//! accumulator of each group in row order, which is why results are
//! bit-identical to a row-at-a-time fold.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;
use std::sync::Arc;

use lambada_format::binio::{BinReader, BinWriter};

use crate::batch::RecordBatch;
use crate::column::Column;
use crate::error::{exec_err, plan_err, type_err, Result};
use crate::expr::Expr;
use crate::join::hash_key_parts;
use crate::keytable::KeyTable;
use crate::scalar::{Scalar, ScalarKey};
use crate::types::{DataType, SchemaRef};

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Min,
    Max,
    Count,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Avg => "avg",
        }
    }

    /// Output type given the argument type (`None` = `COUNT(*)`).
    pub fn output_type(self, arg: Option<DataType>) -> Result<DataType> {
        match self {
            AggFunc::Count => Ok(DataType::Int64),
            AggFunc::Avg => match arg {
                Some(t) if t.is_numeric() => Ok(DataType::Float64),
                _ => plan_err("avg requires a numeric argument"),
            },
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => match arg {
                Some(t) if t.is_numeric() => Ok(t),
                _ => plan_err(format!("{} requires a numeric argument", self.name())),
            },
        }
    }
}

/// One aggregate in a plan: function, optional argument, output name.
#[derive(Clone, Debug, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub arg: Option<Expr>,
    pub name: String,
}

impl AggExpr {
    pub fn new(func: AggFunc, arg: Option<Expr>, name: impl Into<String>) -> Self {
        AggExpr { func, arg, name: name.into() }
    }
}

/// A single accumulator instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Acc {
    SumI(i64),
    SumF(f64),
    Count(i64),
    MinI(i64),
    MinF(f64),
    MaxI(i64),
    MaxF(f64),
    Avg { sum: f64, count: i64 },
}

impl Acc {
    /// Fresh accumulator for a function over an argument type.
    pub fn new(func: AggFunc, arg: Option<DataType>) -> Result<Acc> {
        Ok(match (func, arg) {
            (AggFunc::Count, _) => Acc::Count(0),
            (AggFunc::Avg, Some(t)) if t.is_numeric() => Acc::Avg { sum: 0.0, count: 0 },
            (AggFunc::Sum, Some(DataType::Int64)) => Acc::SumI(0),
            (AggFunc::Sum, Some(DataType::Float64)) => Acc::SumF(0.0),
            (AggFunc::Min, Some(DataType::Int64)) => Acc::MinI(i64::MAX),
            (AggFunc::Min, Some(DataType::Float64)) => Acc::MinF(f64::INFINITY),
            (AggFunc::Max, Some(DataType::Int64)) => Acc::MaxI(i64::MIN),
            (AggFunc::Max, Some(DataType::Float64)) => Acc::MaxF(f64::NEG_INFINITY),
            (f, t) => return exec_err(format!("invalid accumulator {f:?} over {t:?}")),
        })
    }

    /// Fold one value in.
    pub fn update(&mut self, v: Scalar) -> Result<()> {
        match self {
            Acc::SumI(s) => *s = s.wrapping_add(v.as_i64()?),
            Acc::SumF(s) => *s += v.as_f64()?,
            Acc::Count(c) => *c += 1,
            Acc::MinI(m) => *m = (*m).min(v.as_i64()?),
            Acc::MinF(m) => *m = m.min(v.as_f64()?),
            Acc::MaxI(m) => *m = (*m).max(v.as_i64()?),
            Acc::MaxF(m) => *m = m.max(v.as_f64()?),
            Acc::Avg { sum, count } => {
                *sum += v.as_f64()?;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Combine a peer partial state.
    pub fn merge(&mut self, other: &Acc) -> Result<()> {
        match (self, other) {
            (Acc::SumI(a), Acc::SumI(b)) => *a = a.wrapping_add(*b),
            (Acc::SumF(a), Acc::SumF(b)) => *a += b,
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::MinI(a), Acc::MinI(b)) => *a = (*a).min(*b),
            (Acc::MinF(a), Acc::MinF(b)) => *a = a.min(*b),
            (Acc::MaxI(a), Acc::MaxI(b)) => *a = (*a).max(*b),
            (Acc::MaxF(a), Acc::MaxF(b)) => *a = a.max(*b),
            (Acc::Avg { sum: s, count: c }, Acc::Avg { sum: os, count: oc }) => {
                *s += os;
                *c += oc;
            }
            (a, b) => return exec_err(format!("cannot merge {a:?} with {b:?}")),
        }
        Ok(())
    }

    /// Final value.
    pub fn finalize(&self) -> Scalar {
        match self {
            Acc::SumI(s) => Scalar::Int64(*s),
            Acc::SumF(s) => Scalar::Float64(*s),
            Acc::Count(c) => Scalar::Int64(*c),
            Acc::MinI(m) => Scalar::Int64(*m),
            Acc::MinF(m) => Scalar::Float64(*m),
            Acc::MaxI(m) => Scalar::Int64(*m),
            Acc::MaxF(m) => Scalar::Float64(*m),
            Acc::Avg { sum, count } => Scalar::Float64(avg(*sum, *count)),
        }
    }

    fn encode(&self, w: &mut BinWriter) {
        match self {
            Acc::SumI(v) => {
                w.u8(0);
                w.i64(*v);
            }
            Acc::SumF(v) => {
                w.u8(1);
                w.f64(*v);
            }
            Acc::Count(v) => {
                w.u8(2);
                w.i64(*v);
            }
            Acc::MinI(v) => {
                w.u8(3);
                w.i64(*v);
            }
            Acc::MinF(v) => {
                w.u8(4);
                w.f64(*v);
            }
            Acc::MaxI(v) => {
                w.u8(5);
                w.i64(*v);
            }
            Acc::MaxF(v) => {
                w.u8(6);
                w.f64(*v);
            }
            Acc::Avg { sum, count } => {
                w.u8(7);
                w.f64(*sum);
                w.i64(*count);
            }
        }
    }

    fn decode(r: &mut BinReader<'_>) -> Result<Acc> {
        Ok(match r.u8()? {
            0 => Acc::SumI(r.i64()?),
            1 => Acc::SumF(r.f64()?),
            2 => Acc::Count(r.i64()?),
            3 => Acc::MinI(r.i64()?),
            4 => Acc::MinF(r.f64()?),
            5 => Acc::MaxI(r.i64()?),
            6 => Acc::MaxF(r.f64()?),
            7 => Acc::Avg { sum: r.f64()?, count: r.i64()? },
            other => return exec_err(format!("unknown accumulator tag {other}")),
        })
    }

    /// Same variant, whatever the value.
    fn same_kind(&self, other: &Acc) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }
}

/// `AVG`'s final value; `NaN` over no rows.
fn avg(sum: f64, count: i64) -> f64 {
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

/// Wire tag of a key part's type.
fn key_tag(dtype: DataType) -> u8 {
    match dtype {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Boolean => 2,
    }
}

/// One key part off the wire: its type and raw 64-bit form.
fn decode_key_part(r: &mut BinReader<'_>) -> Result<(DataType, u64)> {
    Ok(match r.u8()? {
        0 => (DataType::Int64, r.u64()?),
        1 => (DataType::Float64, r.u64()?),
        2 => (DataType::Boolean, u64::from(r.bool()?)),
        other => return exec_err(format!("unknown key tag {other}")),
    })
}

fn gather<T: Copy>(values: &[T], ids: &[usize]) -> Vec<T> {
    ids.iter().map(|&i| values[i]).collect()
}

/// `acc[ids[row]] = f(acc[ids[row]], vals[row])` for every row, in row
/// order: the order a group's values fold in is the order of its rows,
/// which keeps float sums bit-identical however rows are batched.
#[inline]
fn fold<T: Copy, V: Copy>(acc: &mut [T], ids: &[u32], vals: &[V], f: impl Fn(T, V) -> T) {
    for (&gid, &v) in ids.iter().zip(vals) {
        let a = &mut acc[gid as usize];
        *a = f(*a, v);
    }
}

/// A float sum of a batch: the accumulators by group id, and a value per
/// row.
type SumLane<'a> = (&'a mut [f64], &'a [f64]);

/// How many float sums fold in one pass over the rows.
const SUM_LANES: usize = 4;

/// [`fold`] with `+` for several float sums at once. Each sum is still
/// its own fold, a group's values added in row order — floating-point
/// addition is not reassociated, lanes never mix — but `acc[id] += v` is a
/// load that waits for the previous row's store whenever neighbouring
/// rows share a group, which with a handful of groups is most of the
/// time. One pass per sum runs at the speed of that chain; the chains of
/// different sums are independent, so a pass over [`SUM_LANES`] of them
/// overlaps them.
fn fold_sums(ids: &[u32], sums: &mut [SumLane<'_>]) {
    #[inline(always)]
    fn pass<const N: usize>(ids: &[u32], lanes: [&mut SumLane<'_>; N]) {
        let mut lanes = lanes.map(|(acc, vals)| (&mut **acc, &vals[..ids.len()]));
        for (row, &gid) in ids.iter().enumerate() {
            for (acc, vals) in &mut lanes {
                acc[gid as usize] += vals[row];
            }
        }
    }
    for lanes in sums.chunks_mut(SUM_LANES) {
        match lanes {
            [a, b, c, d] => pass(ids, [a, b, c, d]),
            [a, b, c] => pass(ids, [a, b, c]),
            [a, b] => pass(ids, [a, b]),
            [a] => pass(ids, [a]),
            _ => {}
        }
    }
}

/// Add one to `count[ids[row]]` for every row, in each of the `counts`
/// columns. Integer addition is associative, so the rows of a group may
/// be counted once, into a histogram of the ids, and the histogram added
/// to every column: one pass over the rows and one over the groups per
/// column, instead of a pass over the rows per column — taken when that
/// is the shorter walk (it is not for a lone column, or for a batch with
/// fewer rows than the state has groups).
fn count_rows(ids: &[u32], counts: &mut [&mut [i64]]) {
    let Some(groups) = counts.first().map(|c| c.len()) else {
        return;
    };
    if (counts.len() - 1) * ids.len() > counts.len() * groups {
        let mut histogram = vec![0i64; groups];
        fold(&mut histogram, ids, ids, |n, _| n + 1);
        for count in counts {
            for (c, n) in count.iter_mut().zip(&histogram) {
                *c = c.wrapping_add(*n);
            }
        }
    } else {
        for count in counts {
            fold(count, ids, ids, |c, _| c.wrapping_add(1));
        }
    }
}

/// Merge a peer's accumulators: peer group `i` goes to `dst[map[i]]`. A
/// group new to `dst` has the next free id (ids are handed out in peer
/// order) and is copied, not folded into a fresh accumulator.
fn merge_into<T: Copy>(dst: &mut Vec<T>, src: &[T], map: &[u32], f: impl Fn(T, T) -> T) {
    for (&s, &gid) in src.iter().zip(map) {
        match dst.get_mut(gid as usize) {
            Some(d) => *d = f(*d, s),
            None => dst.push(s),
        }
    }
}

/// The first `rows` values of an aggregate argument as `f64`s, with
/// [`Scalar::as_f64`]'s coercion.
fn f64_values(arg: &Column, rows: usize) -> Result<Cow<'_, [f64]>> {
    match arg {
        Column::F64(v) => Ok(Cow::Borrowed(&v[..rows])),
        Column::I64(v) => Ok(v[..rows].iter().map(|&x| x as f64).collect()),
        Column::Bool(_) => type_err("expected float64, got boolean"),
    }
}

/// One aggregate's argument for a batch of `rows` rows, checked and in
/// the type its accumulator folds.
enum Arg<'a> {
    /// `COUNT` ignores its input.
    Ignored,
    I64(&'a [i64]),
    F64(Cow<'a, [f64]>),
}

impl<'a> Arg<'a> {
    fn of(proto: &Acc, arg: Option<&'a Column>, rows: usize) -> Result<Arg<'a>> {
        if let Acc::Count(_) = proto {
            return Ok(Arg::Ignored);
        }
        let Some(arg) = arg else {
            return exec_err("only COUNT takes no argument column");
        };
        if arg.len() < rows {
            return exec_err(format!(
                "aggregate argument column has {} rows, expected {rows}",
                arg.len()
            ));
        }
        Ok(match proto {
            Acc::SumI(_) | Acc::MinI(_) | Acc::MaxI(_) => Arg::I64(&arg.as_i64()?[..rows]),
            _ => Arg::F64(f64_values(arg, rows)?),
        })
    }
}

/// The accumulators of one aggregate for every group, by group id.
#[derive(Clone, Debug)]
enum AccColumn {
    SumI(Vec<i64>),
    SumF(Vec<f64>),
    Count(Vec<i64>),
    MinI(Vec<i64>),
    MinF(Vec<f64>),
    MaxI(Vec<i64>),
    MaxF(Vec<f64>),
    Avg { sum: Vec<f64>, count: Vec<i64> },
}

impl AccColumn {
    /// An empty column of `proto`'s kind.
    fn new(proto: &Acc) -> AccColumn {
        match proto {
            Acc::SumI(_) => AccColumn::SumI(Vec::new()),
            Acc::SumF(_) => AccColumn::SumF(Vec::new()),
            Acc::Count(_) => AccColumn::Count(Vec::new()),
            Acc::MinI(_) => AccColumn::MinI(Vec::new()),
            Acc::MinF(_) => AccColumn::MinF(Vec::new()),
            Acc::MaxI(_) => AccColumn::MaxI(Vec::new()),
            Acc::MaxF(_) => AccColumn::MaxF(Vec::new()),
            Acc::Avg { .. } => AccColumn::Avg { sum: Vec::new(), count: Vec::new() },
        }
    }

    /// Append one group's accumulator, which must be of this kind.
    fn push(&mut self, acc: &Acc) -> Result<()> {
        match (self, acc) {
            (AccColumn::SumI(c), Acc::SumI(v))
            | (AccColumn::Count(c), Acc::Count(v))
            | (AccColumn::MinI(c), Acc::MinI(v))
            | (AccColumn::MaxI(c), Acc::MaxI(v)) => c.push(*v),
            (AccColumn::SumF(c), Acc::SumF(v))
            | (AccColumn::MinF(c), Acc::MinF(v))
            | (AccColumn::MaxF(c), Acc::MaxF(v)) => c.push(*v),
            (AccColumn::Avg { sum, count }, Acc::Avg { sum: s, count: c }) => {
                sum.push(*s);
                count.push(*c);
            }
            (_, acc) => {
                return exec_err(format!("accumulator {acc:?} is not of its aggregate's kind"))
            }
        }
        Ok(())
    }

    fn get(&self, gid: usize) -> Acc {
        match self {
            AccColumn::SumI(c) => Acc::SumI(c[gid]),
            AccColumn::SumF(c) => Acc::SumF(c[gid]),
            AccColumn::Count(c) => Acc::Count(c[gid]),
            AccColumn::MinI(c) => Acc::MinI(c[gid]),
            AccColumn::MinF(c) => Acc::MinF(c[gid]),
            AccColumn::MaxI(c) => Acc::MaxI(c[gid]),
            AccColumn::MaxF(c) => Acc::MaxF(c[gid]),
            AccColumn::Avg { sum, count } => Acc::Avg { sum: sum[gid], count: count[gid] },
        }
    }

    /// The groups `gids`, in that order, as a column of their own.
    fn select(&self, gids: &[usize]) -> AccColumn {
        match self {
            AccColumn::SumI(c) => AccColumn::SumI(gather(c, gids)),
            AccColumn::SumF(c) => AccColumn::SumF(gather(c, gids)),
            AccColumn::Count(c) => AccColumn::Count(gather(c, gids)),
            AccColumn::MinI(c) => AccColumn::MinI(gather(c, gids)),
            AccColumn::MinF(c) => AccColumn::MinF(gather(c, gids)),
            AccColumn::MaxI(c) => AccColumn::MaxI(gather(c, gids)),
            AccColumn::MaxF(c) => AccColumn::MaxF(gather(c, gids)),
            AccColumn::Avg { sum, count } => {
                AccColumn::Avg { sum: gather(sum, gids), count: gather(count, gids) }
            }
        }
    }

    /// Final values of the groups `gids`, in that order.
    fn finalize(&self, gids: &[usize]) -> Column {
        match self {
            AccColumn::SumI(c) | AccColumn::Count(c) | AccColumn::MinI(c) | AccColumn::MaxI(c) => {
                Column::I64(gather(c, gids))
            }
            AccColumn::SumF(c) | AccColumn::MinF(c) | AccColumn::MaxF(c) => {
                Column::F64(gather(c, gids))
            }
            AccColumn::Avg { sum, count } => {
                Column::F64(gids.iter().map(|&g| avg(sum[g], count[g])).collect())
            }
        }
    }

    /// [`Acc::merge`] for a whole peer column (see [`merge_into`]).
    fn merge(&mut self, other: &AccColumn, map: &[u32]) -> Result<()> {
        match (self, other) {
            (AccColumn::SumI(a), AccColumn::SumI(b)) => merge_into(a, b, map, i64::wrapping_add),
            (AccColumn::SumF(a), AccColumn::SumF(b)) => merge_into(a, b, map, |x, y| x + y),
            (AccColumn::Count(a), AccColumn::Count(b)) => merge_into(a, b, map, i64::wrapping_add),
            (AccColumn::MinI(a), AccColumn::MinI(b)) => merge_into(a, b, map, i64::min),
            (AccColumn::MinF(a), AccColumn::MinF(b)) => merge_into(a, b, map, f64::min),
            (AccColumn::MaxI(a), AccColumn::MaxI(b)) => merge_into(a, b, map, i64::max),
            (AccColumn::MaxF(a), AccColumn::MaxF(b)) => merge_into(a, b, map, f64::max),
            (AccColumn::Avg { sum: s, count: c }, AccColumn::Avg { sum: os, count: oc }) => {
                merge_into(s, os, map, |x, y| x + y);
                merge_into(c, oc, map, i64::wrapping_add);
            }
            _ => return exec_err("cannot merge accumulators of different kinds"),
        }
        Ok(())
    }
}

/// `column` as the type a schema asks for, with the one coercion
/// [`Scalar::as_f64`] allows (`Int64` → `Float64`).
fn coerce(column: Column, dtype: DataType) -> Result<Column> {
    match dtype {
        t if column.dtype() == t => Ok(column),
        DataType::Float64 => Ok(Column::F64(f64_values(&column, column.len())?.into_owned())),
        t => type_err(format!("expected {t}, got {}", column.dtype())),
    }
}

/// Hash-aggregation state: a `KeyTable` of group keys handing out
/// dense group ids in first-seen order, and one typed accumulator column
/// per aggregate indexed by those ids. Serializable (worker → driver)
/// and mergeable (driver side); [`Acc`] is the per-group unit on the wire
/// and in a merge, not the storage.
#[derive(Clone, Debug)]
pub struct GroupedAggState {
    /// Prototype accumulators (one per aggregate): a new group starts
    /// from these values.
    prototypes: Vec<Acc>,
    keys: KeyTable,
    /// `accs[i]` has the kind of `prototypes[i]` and one entry per group.
    accs: Vec<AccColumn>,
}

impl GroupedAggState {
    /// Create state for aggregates over the given argument types.
    pub fn new(funcs: &[(AggFunc, Option<DataType>)]) -> Result<GroupedAggState> {
        let prototypes: Result<Vec<Acc>> = funcs.iter().map(|&(f, t)| Acc::new(f, t)).collect();
        Ok(GroupedAggState::with_prototypes(prototypes?))
    }

    fn with_prototypes(prototypes: Vec<Acc>) -> GroupedAggState {
        let accs = prototypes.iter().map(AccColumn::new).collect();
        GroupedAggState { prototypes, keys: KeyTable::new(), accs }
    }

    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Approximate in-memory footprint (used for worker OOM modelling).
    pub fn approx_bytes(&self) -> usize {
        let per_group = self.prototypes.len() * 24 + self.keys.types().len() * 16 + 32;
        self.keys.len() * per_group
    }

    /// Fold a batch in: `group_cols` are the evaluated grouping columns,
    /// `arg_cols[i]` the evaluated argument of aggregate `i` (`None` for
    /// `COUNT(*)`). See [`GroupedAggState::update_columns`], which this
    /// is for a caller that owns its columns.
    pub fn update_batch(
        &mut self,
        group_cols: &[Column],
        arg_cols: &[Option<Column>],
        rows: usize,
    ) -> Result<()> {
        let group_cols: Vec<&Column> = group_cols.iter().collect();
        let arg_cols: Vec<Option<&Column>> = arg_cols.iter().map(Option::as_ref).collect();
        self.update_columns(&group_cols, &arg_cols, rows)
    }

    /// Fold the first `rows` rows of the given columns in. Every argument
    /// is checked and typed before the state is touched, so an `Err`
    /// leaves it as it was. Then: resolve every row's group id against
    /// the key table; fold the float sums (`SUM`, and `AVG`'s sum) several
    /// to a pass (`fold_sums`); count rows per group once for every
    /// `COUNT` and `AVG` (`count_rows`); and run one typed loop for each
    /// remaining aggregate. Within a group *and aggregate*, values fold
    /// in row order.
    pub fn update_columns(
        &mut self,
        group_cols: &[&Column],
        arg_cols: &[Option<&Column>],
        rows: usize,
    ) -> Result<()> {
        if arg_cols.len() != self.prototypes.len() {
            return exec_err(format!(
                "{} argument columns for {} aggregates",
                arg_cols.len(),
                self.prototypes.len()
            ));
        }
        let typed = self.prototypes.iter().zip(arg_cols).map(|(p, arg)| Arg::of(p, *arg, rows));
        let args = typed.collect::<Result<Vec<Arg<'_>>>>()?;
        let known = self.keys.len();
        let ids = self.keys.intern_columns(group_cols, rows)?;
        let spawned = self.keys.len() - known;
        let mut sums: Vec<SumLane<'_>> = Vec::new();
        let mut counts: Vec<&mut [i64]> = Vec::new();
        for ((accs, proto), arg) in self.accs.iter_mut().zip(&self.prototypes).zip(&args) {
            for _ in 0..spawned {
                accs.push(proto)?;
            }
            match (accs, arg) {
                (AccColumn::Count(c), _) => counts.push(c),
                (AccColumn::SumF(c), Arg::F64(v)) => sums.push((c, v)),
                (AccColumn::Avg { sum, count }, Arg::F64(v)) => {
                    sums.push((sum, v));
                    counts.push(count);
                }
                (AccColumn::SumI(c), Arg::I64(v)) => fold(c, &ids, v, i64::wrapping_add),
                (AccColumn::MinI(c), Arg::I64(v)) => fold(c, &ids, v, i64::min),
                (AccColumn::MaxI(c), Arg::I64(v)) => fold(c, &ids, v, i64::max),
                (AccColumn::MinF(c), Arg::F64(v)) => fold(c, &ids, v, f64::min),
                (AccColumn::MaxF(c), Arg::F64(v)) => fold(c, &ids, v, f64::max),
                _ => return exec_err("aggregate argument typed for another accumulator"),
            }
        }
        fold_sums(&ids, &mut sums);
        count_rows(&ids, &mut counts);
        Ok(())
    }

    /// Merge a peer partial state (same shape). Groups new to this state
    /// are appended in the peer's own group order, so the merged state —
    /// and its encoding — is a function of the two inputs alone.
    pub fn merge(&mut self, other: &GroupedAggState) -> Result<()> {
        let same_kinds = self.prototypes.len() == other.prototypes.len()
            && self.prototypes.iter().zip(&other.prototypes).all(|(a, b)| a.same_kind(b));
        if !same_kinds {
            return exec_err(format!(
                "cannot merge aggregates {:?} with {:?}",
                self.prototypes, other.prototypes
            ));
        }
        let types = other.keys.types();
        let mut map = Vec::with_capacity(other.num_groups());
        for gid in 0..other.num_groups() {
            let (id, _) = self.keys.intern(types, other.keys.hash(gid), other.keys.key(gid))?;
            map.push(id);
        }
        for (accs, peer) in self.accs.iter_mut().zip(&other.accs) {
            accs.merge(peer, &map)?;
        }
        Ok(())
    }

    /// The groups `gids`, in that order, as a state of their own.
    fn select(&self, gids: &[usize]) -> GroupedAggState {
        GroupedAggState {
            prototypes: self.prototypes.clone(),
            keys: self.keys.select(gids),
            accs: self.accs.iter().map(|c| c.select(gids)).collect(),
        }
    }

    /// Shard this state `partitions` ways by group-key hash: shard `p`
    /// holds exactly the groups whose key tuple hashes to partition `p`
    /// under [`crate::join::hash_scalar_keys`] — the same hash family the
    /// exchange operator uses for rows, so every producer of a
    /// distributed aggregation routes a given group to the same merge
    /// worker. Groups keep their relative order inside a shard; merging
    /// all shards (in any order) reproduces the input.
    pub fn split(self, partitions: usize) -> Vec<GroupedAggState> {
        let partitions = partitions.max(1);
        let mut gids: Vec<Vec<usize>> = vec![Vec::new(); partitions];
        for gid in 0..self.num_groups() {
            gids[(self.keys.hash(gid) % partitions as u64) as usize].push(gid);
        }
        gids.iter().map(|gids| self.select(gids)).collect()
    }

    /// Group ids in the derived [`ScalarKey`] order of their keys
    /// (`Int64` by value, `Float64` by bit pattern).
    fn sorted_ids(&self) -> Vec<usize> {
        let types = self.keys.types();
        let mut order: Vec<usize> = (0..self.num_groups()).collect();
        order.sort_by(|&a, &b| {
            let parts = self.keys.key(a).iter().zip(self.keys.key(b)).zip(types);
            parts
                .map(|((&x, &y), &t)| match t {
                    DataType::Int64 => (x as i64).cmp(&(y as i64)),
                    DataType::Float64 | DataType::Boolean => x.cmp(&y),
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// Finalize into `(group_key_scalars, agg_scalars)` rows, sorted by key
    /// for deterministic output.
    pub fn finalize_rows(&self) -> Vec<(Vec<Scalar>, Vec<Scalar>)> {
        let types = self.keys.types();
        self.sorted_ids()
            .into_iter()
            .map(|gid| {
                let key = self.keys.key(gid).iter().zip(types);
                let keys = key.map(|(&raw, &t)| ScalarKey::from_raw(t, raw).to_scalar()).collect();
                let vals = self.accs.iter().map(|c| c.get(gid).finalize()).collect();
                (keys, vals)
            })
            .collect()
    }

    /// [`GroupedAggState::finalize_rows`] as a batch with the aggregate
    /// node's output schema (group columns first, then aggregates), built
    /// column by column: the body of [`crate::physical::agg_state_to_batch`].
    pub(crate) fn to_batch(&self, schema: &SchemaRef) -> Result<RecordBatch> {
        let order = self.sorted_ids();
        if order.is_empty() {
            return Ok(RecordBatch::empty(Arc::clone(schema)));
        }
        let types = self.keys.types();
        if types.len() + self.accs.len() != schema.len() {
            return exec_err("aggregate row width does not match schema");
        }
        let key_cols = types.iter().enumerate().map(|(j, &t)| {
            let raw = order.iter().map(|&gid| self.keys.key(gid)[j]);
            match t {
                DataType::Int64 => Column::I64(raw.map(|x| x as i64).collect()),
                DataType::Float64 => Column::F64(raw.map(f64::from_bits).collect()),
                DataType::Boolean => Column::Bool(raw.map(|x| x != 0).collect()),
            }
        });
        let columns: Result<Vec<Column>> = key_cols
            .chain(self.accs.iter().map(|c| c.finalize(&order)))
            .zip(&schema.fields)
            .map(|(c, f)| coerce(c, f.dtype))
            .collect();
        RecordBatch::new(Arc::clone(schema), columns?)
    }

    /// Split off every group whose *first* key is an `Int64` below
    /// `close_before`, returning them as a new state and keeping the rest.
    ///
    /// This is the watermark-driven window-emission primitive of
    /// `lambada-core`'s streaming runtime: windowed plans put the window
    /// start first in the group key, so `split_off_closed(watermark -
    /// size + 1)` peels exactly the window instances the watermark has
    /// closed (a group is emitted exactly once) while open windows stay
    /// behind as carried state. Groups whose first key is not `Int64` (or
    /// states with empty keys) are never split off. Pass `i64::MAX` to
    /// close everything.
    pub fn split_off_closed(&mut self, close_before: i64) -> GroupedAggState {
        let windowed = self.keys.types().first() == Some(&DataType::Int64);
        let (closed, open): (Vec<usize>, Vec<usize>) = (0..self.num_groups())
            .partition(|&gid| windowed && (self.keys.key(gid)[0] as i64) < close_before);
        let closed = self.select(&closed);
        *self = self.select(&open);
        closed
    }

    /// Serialize for the wire (worker result messages): groups in id
    /// order, i.e. first seen first.
    pub fn encode(&self) -> Vec<u8> {
        let types = self.keys.types();
        // At most 9 bytes a key part and 17 an accumulator.
        let per_group = 1 + 9 * types.len() + 17 * self.accs.len();
        let mut w = BinWriter::with_capacity(20 + (1 + self.num_groups()) * per_group);
        w.varint(self.prototypes.len() as u64);
        for p in &self.prototypes {
            p.encode(&mut w);
        }
        w.varint(self.num_groups() as u64);
        for gid in 0..self.num_groups() {
            w.varint(types.len() as u64);
            for (&raw, &t) in self.keys.key(gid).iter().zip(types) {
                w.u8(key_tag(t));
                match t {
                    DataType::Int64 | DataType::Float64 => w.u64(raw),
                    DataType::Boolean => w.bool(raw != 0),
                }
            }
            for accs in &self.accs {
                accs.get(gid).encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Deserialize a wire message. The bytes come off a queue or an
    /// exchange edge, so nothing is allocated on the strength of a count
    /// they claim: every group is read before it is stored, and a state
    /// no encoder produces (groups of different key shapes, an
    /// accumulator of another kind than its aggregate's, a key listed
    /// twice) is a typed error.
    pub fn decode(bytes: &[u8]) -> Result<GroupedAggState> {
        let mut r = BinReader::new(bytes);
        let nproto = r.varint()?;
        let mut prototypes = Vec::new();
        for _ in 0..nproto {
            prototypes.push(Acc::decode(&mut r)?);
        }
        let mut state = GroupedAggState::with_prototypes(prototypes);
        let ngroups = r.varint()?;
        let mut types = Vec::new();
        let mut key = Vec::new();
        for _ in 0..ngroups {
            let arity = r.varint()?;
            types.clear();
            key.clear();
            for _ in 0..arity {
                let (dtype, raw) = decode_key_part(&mut r)?;
                types.push(dtype);
                key.push(raw);
            }
            let (_, new) = state.keys.intern(&types, hash_key_parts(&key), &key)?;
            if !new {
                return exec_err("agg state lists a group key twice");
            }
            for accs in &mut state.accs {
                accs.push(&Acc::decode(&mut r)?)?;
            }
        }
        if !r.is_exhausted() {
            return exec_err("trailing bytes in agg state");
        }
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<(AggFunc, Option<DataType>)> {
        vec![
            (AggFunc::Sum, Some(DataType::Float64)),
            (AggFunc::Count, None),
            (AggFunc::Avg, Some(DataType::Float64)),
            (AggFunc::Min, Some(DataType::Int64)),
        ]
    }

    fn sample_state() -> GroupedAggState {
        let mut st = GroupedAggState::new(&spec()).unwrap();
        let groups = vec![Column::I64(vec![1, 2, 1, 2, 1])];
        let vals = Column::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let ints = Column::I64(vec![10, 20, 5, 40, 7]);
        st.update_batch(&groups, &[Some(vals.clone()), None, Some(vals), Some(ints)], 5).unwrap();
        st
    }

    #[test]
    fn grouped_aggregation_basics() {
        let st = sample_state();
        assert_eq!(st.num_groups(), 2);
        let rows = st.finalize_rows();
        // Group 1: sum 9, count 3, avg 3, min 5. Group 2: sum 6, count 2.
        assert_eq!(rows[0].0, vec![Scalar::Int64(1)]);
        assert_eq!(
            rows[0].1,
            vec![Scalar::Float64(9.0), Scalar::Int64(3), Scalar::Float64(3.0), Scalar::Int64(5)]
        );
        assert_eq!(rows[1].1[0], Scalar::Float64(6.0));
        assert_eq!(rows[1].1[1], Scalar::Int64(2));
    }

    #[test]
    fn merge_equals_union_of_updates() {
        let mut a = sample_state();
        let b = sample_state();
        a.merge(&b).unwrap();
        let rows = a.finalize_rows();
        assert_eq!(rows[0].1[0], Scalar::Float64(18.0));
        assert_eq!(rows[0].1[1], Scalar::Int64(6));
        assert_eq!(rows[0].1[2], Scalar::Float64(3.0), "avg merges correctly");
    }

    #[test]
    fn merge_with_disjoint_groups() {
        let mut a = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
        a.update_batch(&[Column::I64(vec![1])], &[Some(Column::I64(vec![10]))], 1).unwrap();
        let mut b = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
        b.update_batch(&[Column::I64(vec![2])], &[Some(Column::I64(vec![20]))], 1).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.num_groups(), 2);
    }

    #[test]
    fn split_shards_partition_groups_and_merge_back() {
        let mut st = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
        let keys: Vec<i64> = (0..97).collect();
        let vals: Vec<i64> = keys.iter().map(|k| k * 10).collect();
        st.update_batch(&[Column::I64(keys)], &[Some(Column::I64(vals))], 97).unwrap();
        let shards = st.clone().split(5);
        assert_eq!(shards.len(), 5);
        assert_eq!(shards.iter().map(GroupedAggState::num_groups).sum::<usize>(), 97);
        // Each group lands in the shard its key hash dictates.
        for (p, shard) in shards.iter().enumerate() {
            for (keys, _) in shard.finalize_rows() {
                let key: Vec<ScalarKey> = keys.iter().map(Scalar::key).collect();
                assert_eq!((crate::join::hash_scalar_keys(&key) % 5) as usize, p);
            }
        }
        // Merging shards back (in reverse order) reproduces the state.
        let mut merged = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
        for shard in shards.iter().rev() {
            merged.merge(shard).unwrap();
        }
        assert_eq!(merged.finalize_rows(), st.finalize_rows());
    }

    #[test]
    fn split_roundtrips_through_the_wire() {
        let st = sample_state();
        let mut merged = GroupedAggState::new(&spec()).unwrap();
        for shard in st.clone().split(3) {
            merged.merge(&GroupedAggState::decode(&shard.encode()).unwrap()).unwrap();
        }
        assert_eq!(merged.finalize_rows(), st.finalize_rows());
    }

    #[test]
    fn wire_roundtrip() {
        let st = sample_state();
        let bytes = st.encode();
        let got = GroupedAggState::decode(&bytes).unwrap();
        assert_eq!(got.finalize_rows(), st.finalize_rows());
    }

    #[test]
    fn global_aggregate_uses_empty_key() {
        let mut st = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Float64))]).unwrap();
        st.update_batch(&[], &[Some(Column::F64(vec![1.0, 2.0]))], 2).unwrap();
        let rows = st.finalize_rows();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].0.is_empty());
        assert_eq!(rows[0].1[0], Scalar::Float64(3.0));
    }

    #[test]
    fn split_off_closed_partitions_by_first_key() {
        let mut st = GroupedAggState::new(&[(AggFunc::Sum, Some(DataType::Int64))]).unwrap();
        st.update_batch(
            &[Column::I64(vec![0, 10, 20, 10]), Column::I64(vec![7, 8, 7, 8])],
            &[Some(Column::I64(vec![1, 2, 4, 8]))],
            4,
        )
        .unwrap();
        let closed = st.split_off_closed(20);
        assert_eq!(closed.num_groups(), 2, "windows 0 and 10 close");
        assert_eq!(st.num_groups(), 1, "window 20 stays open");
        let rows = closed.finalize_rows();
        assert_eq!(rows[0].0, vec![Scalar::Int64(0), Scalar::Int64(7)]);
        assert_eq!(rows[0].1, vec![Scalar::Int64(1)]);
        assert_eq!(rows[1].0, vec![Scalar::Int64(10), Scalar::Int64(8)]);
        assert_eq!(rows[1].1, vec![Scalar::Int64(10)], "both ts=10 rows folded");
        // Kept state still accepts updates under its rebuilt map.
        st.update_batch(
            &[Column::I64(vec![20]), Column::I64(vec![7])],
            &[Some(Column::I64(vec![100]))],
            1,
        )
        .unwrap();
        assert_eq!(st.num_groups(), 1);
        assert_eq!(st.finalize_rows()[0].1, vec![Scalar::Int64(104)]);
        // Closing everything empties the state.
        let rest = st.split_off_closed(i64::MAX);
        assert_eq!(rest.num_groups(), 1);
        assert_eq!(st.num_groups(), 0);
    }

    #[test]
    fn empty_avg_is_nan() {
        let acc = Acc::new(AggFunc::Avg, Some(DataType::Float64)).unwrap();
        assert!(matches!(acc.finalize(), Scalar::Float64(v) if v.is_nan()));
    }

    #[test]
    fn output_types() {
        assert_eq!(AggFunc::Count.output_type(None).unwrap(), DataType::Int64);
        assert_eq!(AggFunc::Avg.output_type(Some(DataType::Int64)).unwrap(), DataType::Float64);
        assert_eq!(AggFunc::Sum.output_type(Some(DataType::Int64)).unwrap(), DataType::Int64);
        assert!(AggFunc::Sum.output_type(Some(DataType::Boolean)).is_err());
        assert!(AggFunc::Sum.output_type(None).is_err());
    }
}
