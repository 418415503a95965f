//! Typed column vectors: the unit of vectorized execution.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Borrow;

use lambada_format::ColumnData;

use crate::error::{exec_err, type_err, Result};
use crate::scalar::Scalar;
use crate::types::DataType;

/// The rows a filter mask keeps, as ascending row numbers: the engine's
/// one filter kernel. [`Column::filter`], [`crate::batch::RecordBatch::filter`]
/// and the pipeline all turn a mask into this once and gather every
/// column through it ([`Column::select`]). `None` stands for "every row":
/// a mask that rejects nothing asks for no gather at all.
pub fn selection(mask: &[bool]) -> Result<Option<Vec<u32>>> {
    if u32::try_from(mask.len()).is_err() {
        return exec_err(format!("a mask of {} rows is past 32-bit row numbers", mask.len()));
    }
    let kept = mask.iter().filter(|&&keep| keep).count();
    if kept == mask.len() {
        return Ok(None);
    }
    // One store per row and no branch on the mask, which on a mixed mask
    // would mispredict: the cursor moves only past a kept row. The spare
    // slot takes the stores of the rows after the last kept one.
    let mut rows = vec![0u32; kept + 1];
    let mut at = 0;
    for (row, &keep) in mask.iter().enumerate() {
        rows[at] = row as u32;
        at += usize::from(keep);
    }
    rows.truncate(kept);
    Ok(Some(rows))
}

/// A column of values, one variant per logical type.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
}

impl Column {
    pub fn dtype(&self) -> DataType {
        match self {
            Column::I64(_) => DataType::Int64,
            Column::F64(_) => DataType::Float64,
            Column::Bool(_) => DataType::Boolean,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Column {
        match dtype {
            DataType::Int64 => Column::I64(Vec::new()),
            DataType::Float64 => Column::F64(Vec::new()),
            DataType::Boolean => Column::Bool(Vec::new()),
        }
    }

    /// A column of `n` copies of a scalar.
    pub fn broadcast(s: Scalar, n: usize) -> Column {
        match s {
            Scalar::Int64(v) => Column::I64(vec![v; n]),
            Scalar::Float64(v) => Column::F64(vec![v; n]),
            Scalar::Boolean(v) => Column::Bool(vec![v; n]),
        }
    }

    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            Column::I64(v) => Ok(v),
            other => type_err(format!("expected int64 column, got {}", other.dtype())),
        }
    }

    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Column::F64(v) => Ok(v),
            other => type_err(format!("expected float64 column, got {}", other.dtype())),
        }
    }

    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            Column::Bool(v) => Ok(v),
            other => type_err(format!("expected boolean column, got {}", other.dtype())),
        }
    }

    /// Value at row `i`.
    pub fn value(&self, i: usize) -> Scalar {
        match self {
            Column::I64(v) => Scalar::Int64(v[i]),
            Column::F64(v) => Scalar::Float64(v[i]),
            Column::Bool(v) => Scalar::Boolean(v[i]),
        }
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return exec_err(format!("mask length {} != column length {}", mask.len(), self.len()));
        }
        Ok(match selection(mask)? {
            Some(rows) => self.select(&rows),
            None => self.clone(),
        })
    }

    /// The rows a [`selection`] names, in its order.
    pub fn select(&self, rows: &[u32]) -> Column {
        fn take<T: Copy>(v: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&i| v[i as usize]).collect()
        }
        match self {
            Column::I64(v) => Column::I64(take(v, rows)),
            Column::F64(v) => Column::F64(take(v, rows)),
            Column::Bool(v) => Column::Bool(take(v, rows)),
        }
    }

    /// Reorder/select rows by index.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::I64(v) => Column::I64(indices.iter().map(|&i| v[i]).collect()),
            Column::F64(v) => Column::F64(indices.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Concatenate same-typed columns.
    pub fn concat<C: Borrow<Column>>(parts: &[C]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return exec_err("cannot concat zero columns");
        };
        let dtype = first.borrow().dtype();
        let total: usize = parts.iter().map(|p| p.borrow().len()).sum();
        match dtype {
            DataType::Int64 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.borrow().as_i64()?);
                }
                Ok(Column::I64(out))
            }
            DataType::Float64 => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.borrow().as_f64()?);
                }
                Ok(Column::F64(out))
            }
            DataType::Boolean => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.borrow().as_bool()?);
                }
                Ok(Column::Bool(out))
            }
        }
    }

    /// From file-format data (always numeric).
    pub fn from_data(data: ColumnData) -> Column {
        match data {
            ColumnData::I64(v) => Column::I64(v),
            ColumnData::F64(v) => Column::F64(v),
        }
    }

    /// To file-format data; fails for boolean columns.
    pub fn into_data(self) -> Result<ColumnData> {
        match self {
            Column::I64(v) => Ok(ColumnData::I64(v)),
            Column::F64(v) => Ok(ColumnData::F64(v)),
            Column::Bool(_) => type_err("boolean columns cannot be stored in files"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_and_gather() {
        let c = Column::I64(vec![10, 20, 30, 40]);
        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f, Column::I64(vec![10, 30]));
        let g = c.gather(&[3, 0, 0]);
        assert_eq!(g, Column::I64(vec![40, 10, 10]));
    }

    #[test]
    fn filter_length_mismatch_errors() {
        let c = Column::I64(vec![1]);
        assert!(c.filter(&[true, false]).is_err());
    }

    #[test]
    fn concat_same_type() {
        let out = Column::concat(&[Column::F64(vec![1.0]), Column::F64(vec![2.0, 3.0])]).unwrap();
        assert_eq!(out, Column::F64(vec![1.0, 2.0, 3.0]));
        assert!(Column::concat(&[Column::F64(vec![1.0]), Column::I64(vec![1])]).is_err());
    }

    #[test]
    fn broadcast_and_value() {
        let c = Column::broadcast(Scalar::Boolean(true), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(2), Scalar::Boolean(true));
    }

    #[test]
    fn format_roundtrip() {
        let c = Column::F64(vec![1.5, 2.5]);
        let d = c.clone().into_data().unwrap();
        assert_eq!(Column::from_data(d), c);
        assert!(Column::Bool(vec![true]).into_data().is_err());
    }
}
