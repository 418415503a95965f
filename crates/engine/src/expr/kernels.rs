//! Vectorized kernels: the tight loops expressions compile to.
//!
//! The paper JIT-compiles pipelines to LLVM IR to avoid interpretation in
//! inner loops; the idiomatic Rust equivalent is vectorization — each
//! kernel is a monomorphic loop over typed slices that the compiler
//! auto-vectorizes. Interpretation overhead is paid per *batch*, not per
//! row.
//!
//! Kernels borrow their operands and own only what they compute: a
//! [`Value`] holds a `Cow` of its column, so a column reference is a
//! pointer to the batch's own vector, every kernel reads slices, and the
//! one allocation of an operator is its result. Nothing here copies a
//! column to look at it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;

use crate::column::Column;
use crate::error::{exec_err, type_err, Result};
use crate::expr::BinOp;
use crate::scalar::Scalar;
use crate::types::DataType;

/// Evaluation result: a column — the batch's own, borrowed, or a computed
/// one, owned — or an unbroadcast constant.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    Column(Cow<'a, Column>),
    Scalar(Scalar),
}

impl From<Column> for Value<'_> {
    fn from(column: Column) -> Self {
        Value::Column(Cow::Owned(column))
    }
}

impl<'a> Value<'a> {
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Column(c) => c.dtype(),
            Value::Scalar(s) => s.dtype(),
        }
    }

    /// As a column of `rows` values, borrowed if it was; a constant is
    /// broadcast.
    pub fn into_cow(self, rows: usize) -> Cow<'a, Column> {
        match self {
            Value::Column(c) => c,
            Value::Scalar(s) => Cow::Owned(Column::broadcast(s, rows)),
        }
    }

    /// Materialize as a column of `rows` values: the one copy of a
    /// borrowed column, for a caller that retains it.
    pub fn into_column(self, rows: usize) -> Column {
        self.into_cow(rows).into_owned()
    }

    /// Materialize a boolean value as a mask of `rows` entries.
    pub fn into_mask(self, rows: usize) -> Result<Vec<bool>> {
        match self.into_column(rows) {
            Column::Bool(v) => Ok(v),
            other => type_err(format!("predicate evaluated to {}, not boolean", other.dtype())),
        }
    }
}

enum Num<'a> {
    I64(NumRepr<'a, i64>),
    F64(NumRepr<'a, f64>),
}

/// An operand as a kernel reads it: a slice — borrowed from the operand,
/// or owned where promotion had to compute it — or a constant.
enum NumRepr<'a, T: Clone> {
    Col(Cow<'a, [T]>),
    Scalar(T),
}

fn to_numeric<'a>(v: &'a Value<'_>) -> Result<Num<'a>> {
    Ok(match v {
        Value::Column(c) => match c.as_ref() {
            Column::I64(x) => Num::I64(NumRepr::Col(Cow::Borrowed(x))),
            Column::F64(x) => Num::F64(NumRepr::Col(Cow::Borrowed(x))),
            Column::Bool(_) => return type_err("expected numeric, got boolean"),
        },
        Value::Scalar(Scalar::Int64(x)) => Num::I64(NumRepr::Scalar(*x)),
        Value::Scalar(Scalar::Float64(x)) => Num::F64(NumRepr::Scalar(*x)),
        Value::Scalar(Scalar::Boolean(_)) => return type_err("expected numeric, got boolean"),
    })
}

fn promote_f64(n: Num<'_>) -> NumRepr<'_, f64> {
    match n {
        Num::F64(r) => r,
        Num::I64(NumRepr::Col(v)) => NumRepr::Col(v.iter().map(|&x| x as f64).collect()),
        Num::I64(NumRepr::Scalar(x)) => NumRepr::Scalar(x as f64),
    }
}

/// An operator reached a kernel of another operator family: a bug in
/// [`binary`]'s dispatch, reported like any other failed query.
fn misrouted<T>(kernel: &str, op: BinOp) -> Result<T> {
    exec_err(format!("{kernel} kernel called with {op:?}"))
}

macro_rules! zip_arith {
    ($l:expr, $r:expr, $f:expr, $col:path, $scalar:path) => {
        match ($l, $r) {
            (NumRepr::Col(a), NumRepr::Col(b)) => {
                debug_assert_eq!(a.len(), b.len());
                Value::from($col(a.iter().zip(b.iter()).map(|(x, y)| $f(*x, *y)).collect()))
            }
            (NumRepr::Col(a), NumRepr::Scalar(s)) => {
                Value::from($col(a.iter().map(|x| $f(*x, s)).collect()))
            }
            (NumRepr::Scalar(s), NumRepr::Col(b)) => {
                Value::from($col(b.iter().map(|y| $f(s, *y)).collect()))
            }
            (NumRepr::Scalar(a), NumRepr::Scalar(b)) => Value::Scalar($scalar($f(a, b))),
        }
    };
}

macro_rules! zip_cmp {
    ($l:expr, $r:expr, $f:expr) => {
        zip_arith!($l, $r, $f, Column::Bool, Scalar::Boolean)
    };
}

fn arith_i64(op: BinOp, l: NumRepr<'_, i64>, r: NumRepr<'_, i64>) -> Result<Value<'static>> {
    Ok(match op {
        BinOp::Add => zip_arith!(l, r, i64::wrapping_add, Column::I64, Scalar::Int64),
        BinOp::Sub => zip_arith!(l, r, i64::wrapping_sub, Column::I64, Scalar::Int64),
        BinOp::Mul => zip_arith!(l, r, i64::wrapping_mul, Column::I64, Scalar::Int64),
        BinOp::Div => {
            // Integer division by zero is a query error, not UB.
            let f = |a: i64, b: i64| -> Result<i64> {
                a.checked_div(b).ok_or_else(|| {
                    crate::error::EngineError::ExecError("integer division by zero".to_string())
                })
            };
            match (l, r) {
                (NumRepr::Col(a), NumRepr::Col(b)) => Value::from(Column::I64(
                    a.iter().zip(b.iter()).map(|(x, y)| f(*x, *y)).collect::<Result<_>>()?,
                )),
                (NumRepr::Col(a), NumRepr::Scalar(s)) => {
                    Value::from(Column::I64(a.iter().map(|x| f(*x, s)).collect::<Result<_>>()?))
                }
                (NumRepr::Scalar(s), NumRepr::Col(b)) => {
                    Value::from(Column::I64(b.iter().map(|y| f(s, *y)).collect::<Result<_>>()?))
                }
                (NumRepr::Scalar(a), NumRepr::Scalar(b)) => Value::Scalar(Scalar::Int64(f(a, b)?)),
            }
        }
        _ => return misrouted("int64 arithmetic", op),
    })
}

fn arith_f64(op: BinOp, l: NumRepr<'_, f64>, r: NumRepr<'_, f64>) -> Result<Value<'static>> {
    Ok(match op {
        BinOp::Add => zip_arith!(l, r, |a: f64, b: f64| a + b, Column::F64, Scalar::Float64),
        BinOp::Sub => zip_arith!(l, r, |a: f64, b: f64| a - b, Column::F64, Scalar::Float64),
        BinOp::Mul => zip_arith!(l, r, |a: f64, b: f64| a * b, Column::F64, Scalar::Float64),
        BinOp::Div => zip_arith!(l, r, |a: f64, b: f64| a / b, Column::F64, Scalar::Float64),
        _ => return misrouted("float64 arithmetic", op),
    })
}

fn cmp_i64(op: BinOp, l: NumRepr<'_, i64>, r: NumRepr<'_, i64>) -> Result<Value<'static>> {
    Ok(match op {
        BinOp::Eq => zip_cmp!(l, r, |a: i64, b: i64| a == b),
        BinOp::Ne => zip_cmp!(l, r, |a: i64, b: i64| a != b),
        BinOp::Lt => zip_cmp!(l, r, |a: i64, b: i64| a < b),
        BinOp::Le => zip_cmp!(l, r, |a: i64, b: i64| a <= b),
        BinOp::Gt => zip_cmp!(l, r, |a: i64, b: i64| a > b),
        BinOp::Ge => zip_cmp!(l, r, |a: i64, b: i64| a >= b),
        _ => return misrouted("int64 comparison", op),
    })
}

fn cmp_f64(op: BinOp, l: NumRepr<'_, f64>, r: NumRepr<'_, f64>) -> Result<Value<'static>> {
    Ok(match op {
        BinOp::Eq => zip_cmp!(l, r, |a: f64, b: f64| a == b),
        BinOp::Ne => zip_cmp!(l, r, |a: f64, b: f64| a != b),
        BinOp::Lt => zip_cmp!(l, r, |a: f64, b: f64| a < b),
        BinOp::Le => zip_cmp!(l, r, |a: f64, b: f64| a <= b),
        BinOp::Gt => zip_cmp!(l, r, |a: f64, b: f64| a > b),
        BinOp::Ge => zip_cmp!(l, r, |a: f64, b: f64| a >= b),
        _ => return misrouted("float64 comparison", op),
    })
}

fn logical(op: BinOp, l: &Value<'_>, r: &Value<'_>) -> Result<Value<'static>> {
    fn as_bool<'a>(v: &'a Value<'_>) -> Result<NumRepr<'a, bool>> {
        match v {
            Value::Column(c) => match c.as_ref() {
                Column::Bool(b) => Ok(NumRepr::Col(Cow::Borrowed(b))),
                other => type_err(format!("expected boolean, got {}", other.dtype())),
            },
            Value::Scalar(Scalar::Boolean(b)) => Ok(NumRepr::Scalar(*b)),
            Value::Scalar(other) => type_err(format!("expected boolean, got {}", other.dtype())),
        }
    }
    let l = as_bool(l)?;
    let r = as_bool(r)?;
    Ok(match op {
        BinOp::And => zip_cmp!(l, r, |a: bool, b: bool| a && b),
        BinOp::Or => zip_cmp!(l, r, |a: bool, b: bool| a || b),
        _ => return misrouted("logical", op),
    })
}

/// Apply a binary operator to two values. Column operands must already be
/// equal-length (`rows` each, enforced by the caller via the batch).
pub fn binary(op: BinOp, left: Value<'_>, right: Value<'_>) -> Result<Value<'static>> {
    if let (Value::Column(a), Value::Column(b)) = (&left, &right) {
        if a.len() != b.len() {
            return exec_err(format!("operand lengths differ: {} vs {}", a.len(), b.len()));
        }
    }
    if op.is_logical() {
        return logical(op, &left, &right);
    }
    let l = to_numeric(&left)?;
    let r = to_numeric(&right)?;
    match (l, r) {
        (Num::I64(a), Num::I64(b)) => {
            if op.is_comparison() {
                cmp_i64(op, a, b)
            } else {
                arith_i64(op, a, b)
            }
        }
        (l, r) => {
            let a = promote_f64(l);
            let b = promote_f64(r);
            if op.is_comparison() {
                cmp_f64(op, a, b)
            } else {
                arith_f64(op, a, b)
            }
        }
    }
}

/// Boolean NOT.
pub fn not(v: Value<'_>) -> Result<Value<'static>> {
    Ok(match &v {
        Value::Column(c) => match c.as_ref() {
            Column::Bool(b) => Column::Bool(b.iter().map(|x| !x).collect()).into(),
            other => return type_err(format!("NOT expects boolean, got {}", other.dtype())),
        },
        Value::Scalar(Scalar::Boolean(b)) => Value::Scalar(Scalar::Boolean(!b)),
        Value::Scalar(other) => {
            return type_err(format!("NOT expects boolean, got {}", other.dtype()))
        }
    })
}

/// Arithmetic negation.
pub fn neg(v: Value<'_>) -> Result<Value<'static>> {
    Ok(match &v {
        Value::Column(c) => match c.as_ref() {
            Column::I64(x) => Column::I64(x.iter().map(|a| a.wrapping_neg()).collect()).into(),
            Column::F64(x) => Column::F64(x.iter().map(|a| -a).collect()).into(),
            Column::Bool(_) => return type_err("negation expects numeric, got boolean"),
        },
        Value::Scalar(Scalar::Int64(a)) => Value::Scalar(Scalar::Int64(a.wrapping_neg())),
        Value::Scalar(Scalar::Float64(a)) => Value::Scalar(Scalar::Float64(-a)),
        Value::Scalar(Scalar::Boolean(_)) => {
            return type_err("negation expects numeric, got boolean")
        }
    })
}

/// Numeric cast. A cast to the type a value already has is the value
/// itself, still borrowed if it was.
pub fn cast(v: Value<'_>, to: DataType) -> Result<Value<'_>> {
    if to == DataType::Boolean {
        return type_err("cannot cast to boolean");
    }
    if v.dtype() == to {
        return Ok(v);
    }
    Ok(match (&v, to) {
        (Value::Column(c), _) => match (c.as_ref(), to) {
            (Column::F64(x), DataType::Int64) => {
                Column::I64(x.iter().map(|&a| a as i64).collect()).into()
            }
            (Column::I64(x), DataType::Float64) => {
                Column::F64(x.iter().map(|&a| a as f64).collect()).into()
            }
            (other, to) => return type_err(format!("cannot cast {} to {to}", other.dtype())),
        },
        (Value::Scalar(Scalar::Float64(a)), DataType::Int64) => {
            Value::Scalar(Scalar::Int64(*a as i64))
        }
        (Value::Scalar(Scalar::Int64(a)), DataType::Float64) => {
            Value::Scalar(Scalar::Float64(*a as f64))
        }
        (Value::Scalar(other), to) => {
            return type_err(format!("cannot cast {} to {to}", other.dtype()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coli(v: Vec<i64>) -> Value<'static> {
        Value::from(Column::I64(v))
    }

    fn colf(v: Vec<f64>) -> Value<'static> {
        Value::from(Column::F64(v))
    }

    #[test]
    fn i64_arithmetic() {
        let out = binary(BinOp::Add, coli(vec![1, 2]), coli(vec![10, 20])).unwrap();
        assert_eq!(out, coli(vec![11, 22]));
        let out = binary(BinOp::Mul, coli(vec![3, 4]), Value::Scalar(Scalar::Int64(2))).unwrap();
        assert_eq!(out, coli(vec![6, 8]));
    }

    #[test]
    fn mixed_promotes_to_f64() {
        let out = binary(BinOp::Add, coli(vec![1, 2]), colf(vec![0.5, 0.5])).unwrap();
        assert_eq!(out, colf(vec![1.5, 2.5]));
    }

    #[test]
    fn comparisons_produce_bool() {
        let out = binary(BinOp::Lt, coli(vec![1, 5]), Value::Scalar(Scalar::Int64(3))).unwrap();
        assert_eq!(out, Value::from(Column::Bool(vec![true, false])));
        let out =
            binary(BinOp::Ge, colf(vec![1.0, 3.0]), Value::Scalar(Scalar::Float64(3.0))).unwrap();
        assert_eq!(out, Value::from(Column::Bool(vec![false, true])));
    }

    #[test]
    fn logical_ops() {
        let l = Value::from(Column::Bool(vec![true, true, false]));
        let r = Value::from(Column::Bool(vec![true, false, false]));
        assert_eq!(
            binary(BinOp::And, l.clone(), r.clone()).unwrap(),
            Value::from(Column::Bool(vec![true, false, false]))
        );
        assert_eq!(
            binary(BinOp::Or, l, r).unwrap(),
            Value::from(Column::Bool(vec![true, true, false]))
        );
    }

    #[test]
    fn scalar_scalar_folds() {
        let out =
            binary(BinOp::Mul, Value::Scalar(Scalar::Int64(6)), Value::Scalar(Scalar::Int64(7)))
                .unwrap();
        assert_eq!(out, Value::Scalar(Scalar::Int64(42)));
    }

    #[test]
    fn division_by_zero_int_errors_float_is_inf() {
        assert!(binary(BinOp::Div, coli(vec![1]), coli(vec![0])).is_err());
        let out = binary(BinOp::Div, colf(vec![1.0]), colf(vec![0.0])).unwrap();
        assert_eq!(out, colf(vec![f64::INFINITY]));
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(binary(BinOp::Add, coli(vec![1]), coli(vec![1, 2])).is_err());
    }

    #[test]
    fn not_neg_cast() {
        assert_eq!(
            not(Value::from(Column::Bool(vec![true, false]))).unwrap(),
            Value::from(Column::Bool(vec![false, true]))
        );
        assert_eq!(neg(coli(vec![5, -2])).unwrap(), coli(vec![-5, 2]));
        assert_eq!(cast(coli(vec![2]), DataType::Float64).unwrap(), colf(vec![2.0]));
        assert_eq!(cast(colf(vec![2.9]), DataType::Int64).unwrap(), coli(vec![2]));
        assert!(cast(coli(vec![1]), DataType::Boolean).is_err());
    }

    #[test]
    fn mask_materialization() {
        let v = Value::Scalar(Scalar::Boolean(true));
        assert_eq!(v.into_mask(3).unwrap(), vec![true, true, true]);
        let v = Value::from(Column::I64(vec![1]));
        assert!(v.into_mask(1).is_err());
    }
}
