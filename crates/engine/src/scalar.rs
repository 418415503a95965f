//! Scalar values: literals, aggregate results, group keys.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{type_err, Result};
use crate::types::DataType;

/// Per-type `NULL` sentinels (see [`Scalar::null_of`]): the engine has
/// no null bitmap yet, so outer-join padding uses these fixed values.
pub const NULL_I64: i64 = i64::MIN;
/// The standard NaN bit pattern — deterministic under `ScalarKey`'s
/// by-bits comparison.
pub const NULL_F64: f64 = f64::NAN;
pub const NULL_BOOL: bool = false;

/// A single typed value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scalar {
    Int64(i64),
    Float64(f64),
    Boolean(bool),
}

impl Scalar {
    pub fn dtype(&self) -> DataType {
        match self {
            Scalar::Int64(_) => DataType::Int64,
            Scalar::Float64(_) => DataType::Float64,
            Scalar::Boolean(_) => DataType::Boolean,
        }
    }

    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Scalar::Int64(v) => Ok(*v),
            other => type_err(format!("expected int64, got {}", other.dtype())),
        }
    }

    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Scalar::Float64(v) => Ok(*v),
            Scalar::Int64(v) => Ok(*v as f64),
            other => type_err(format!("expected float64, got {}", other.dtype())),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Scalar::Boolean(v) => Ok(*v),
            other => type_err(format!("expected boolean, got {}", other.dtype())),
        }
    }

    /// Total order within the same type (f64 uses IEEE total order).
    pub fn total_cmp(&self, other: &Scalar) -> Ordering {
        match (self, other) {
            (Scalar::Int64(a), Scalar::Int64(b)) => a.cmp(b),
            (Scalar::Float64(a), Scalar::Float64(b)) => a.total_cmp(b),
            (Scalar::Boolean(a), Scalar::Boolean(b)) => a.cmp(b),
            _ => panic!("cannot compare scalars of different types"),
        }
    }

    /// The sentinel standing in for SQL `NULL` in this engine, which has
    /// no null bitmap yet: [`NULL_I64`], [`NULL_F64`] (the standard NaN
    /// bit pattern), and [`NULL_BOOL`]. Left-outer joins pad unmatched
    /// build columns with these values, and because the constants are
    /// fixed, the padded output is deterministic and bitwise-comparable
    /// across the local reference executor and the distributed path.
    pub fn null_of(dtype: DataType) -> Scalar {
        match dtype {
            DataType::Int64 => Scalar::Int64(NULL_I64),
            DataType::Float64 => Scalar::Float64(NULL_F64),
            DataType::Boolean => Scalar::Boolean(NULL_BOOL),
        }
    }

    /// A hashable, equality-stable key representation (f64 by bit pattern).
    pub fn key(&self) -> ScalarKey {
        match self {
            Scalar::Int64(v) => ScalarKey::I(*v),
            Scalar::Float64(v) => ScalarKey::F(v.to_bits()),
            Scalar::Boolean(v) => ScalarKey::B(*v),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int64(v) => write!(f, "{v}"),
            Scalar::Float64(v) => write!(f, "{v}"),
            Scalar::Boolean(v) => write!(f, "{v}"),
        }
    }
}

/// Hash/Eq-safe projection of a scalar (used as a grouping key part).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarKey {
    I(i64),
    F(u64),
    B(bool),
}

impl ScalarKey {
    /// The 64-bit form hashing and key tables work on: an `i64` as is, an
    /// `f64` by bit pattern, a `bool` as 0/1.
    #[inline]
    pub fn raw(self) -> u64 {
        match self {
            ScalarKey::I(v) => v as u64,
            ScalarKey::F(bits) => bits,
            ScalarKey::B(b) => u64::from(b),
        }
    }

    /// Inverse of [`ScalarKey::raw`] for a key part of type `dtype`.
    #[inline]
    pub fn from_raw(dtype: DataType, raw: u64) -> ScalarKey {
        match dtype {
            DataType::Int64 => ScalarKey::I(raw as i64),
            DataType::Float64 => ScalarKey::F(raw),
            DataType::Boolean => ScalarKey::B(raw != 0),
        }
    }

    /// Back to a scalar value.
    pub fn to_scalar(self) -> Scalar {
        match self {
            ScalarKey::I(v) => Scalar::Int64(v),
            ScalarKey::F(bits) => Scalar::Float64(f64::from_bits(bits)),
            ScalarKey::B(v) => Scalar::Boolean(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Scalar::Int64(5).as_i64().unwrap(), 5);
        assert_eq!(Scalar::Int64(5).as_f64().unwrap(), 5.0);
        assert_eq!(Scalar::Float64(2.5).as_f64().unwrap(), 2.5);
        assert!(Scalar::Float64(2.5).as_i64().is_err());
        assert!(Scalar::Boolean(true).as_bool().unwrap());
    }

    #[test]
    fn key_roundtrip_handles_nan() {
        let s = Scalar::Float64(f64::NAN);
        let k = s.key();
        assert_eq!(k, k);
        assert!(matches!(k.to_scalar(), Scalar::Float64(v) if v.is_nan()));
    }

    #[test]
    fn ordering() {
        assert_eq!(Scalar::Int64(1).total_cmp(&Scalar::Int64(2)), Ordering::Less);
        assert_eq!(Scalar::Float64(-0.0).total_cmp(&Scalar::Float64(0.0)), Ordering::Less);
    }
}
