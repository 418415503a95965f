//! Record batches: a schema plus equally-long columns.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::Arc;

use crate::column::{selection, Column};
use crate::error::{exec_err, Result};
use crate::scalar::Scalar;
use crate::types::{Schema, SchemaRef};

/// A horizontal slice of a table in columnar form.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordBatch {
    schema: SchemaRef,
    columns: Vec<Column>,
    rows: usize,
}

impl RecordBatch {
    pub fn new(schema: SchemaRef, columns: Vec<Column>) -> Result<RecordBatch> {
        if schema.len() != columns.len() {
            return exec_err(format!(
                "schema has {} fields but {} columns provided",
                schema.len(),
                columns.len()
            ));
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return exec_err(format!("column {i} has {} rows, expected {rows}", c.len()));
            }
            if c.dtype() != schema.field(i).dtype {
                return exec_err(format!(
                    "column {i} has type {}, schema says {}",
                    c.dtype(),
                    schema.field(i).dtype
                ));
            }
        }
        Ok(RecordBatch { schema, columns, rows })
    }

    /// An empty batch with the given schema.
    pub fn empty(schema: SchemaRef) -> RecordBatch {
        let columns = schema.fields.iter().map(|f| Column::empty(f.dtype)).collect();
        RecordBatch { schema, columns, rows: 0 }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    /// Select columns by index (may repeat/reorder).
    pub fn project(&self, indices: &[usize]) -> RecordBatch {
        let schema = Arc::new(self.schema.project(indices));
        let columns = indices.iter().map(|&i| self.columns[i].clone()).collect();
        RecordBatch { schema, columns, rows: self.rows }
    }

    /// Keep rows where the mask is true.
    pub fn filter(&self, mask: &[bool]) -> Result<RecordBatch> {
        if mask.len() != self.rows {
            return exec_err(format!("mask length {} != batch rows {}", mask.len(), self.rows));
        }
        let Some(rows) = selection(mask)? else {
            return Ok(self.clone());
        };
        let columns = self.columns.iter().map(|c| c.select(&rows)).collect();
        Ok(RecordBatch { schema: Arc::clone(&self.schema), columns, rows: rows.len() })
    }

    /// Reorder rows by index.
    pub fn gather(&self, indices: &[usize]) -> RecordBatch {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(indices)).collect();
        RecordBatch { schema: Arc::clone(&self.schema), columns, rows: indices.len() }
    }

    /// Concatenate batches sharing a schema.
    pub fn concat(schema: SchemaRef, batches: &[RecordBatch]) -> Result<RecordBatch> {
        if batches.is_empty() {
            return Ok(RecordBatch::empty(schema));
        }
        let ncols = schema.len();
        let mut columns = Vec::with_capacity(ncols);
        for i in 0..ncols {
            let parts: Vec<&Column> = batches.iter().map(|b| &b.columns[i]).collect();
            columns.push(Column::concat(&parts)?);
        }
        RecordBatch::new(schema, columns)
    }

    /// Row `i` as scalars (tests and result display).
    pub fn row(&self, i: usize) -> Vec<Scalar> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// All rows as scalar vectors (small results only).
    pub fn rows(&self) -> Vec<Vec<Scalar>> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Build from named columns, inferring the schema.
    pub fn from_columns(names: &[&str], columns: Vec<Column>) -> Result<RecordBatch> {
        let fields = names
            .iter()
            .zip(columns.iter())
            .map(|(n, c)| crate::types::Field::new(*n, c.dtype()))
            .collect();
        RecordBatch::new(Arc::new(Schema::new(fields)), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> RecordBatch {
        RecordBatch::from_columns(
            &["k", "v"],
            vec![Column::I64(vec![1, 2, 3]), Column::F64(vec![0.5, 1.5, 2.5])],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let schema =
            Schema::arc(vec![crate::types::Field::new("a", crate::types::DataType::Int64)]);
        assert!(RecordBatch::new(Arc::clone(&schema), vec![]).is_err());
        assert!(RecordBatch::new(schema, vec![Column::F64(vec![1.0])]).is_err());
    }

    #[test]
    fn project_filter_gather() {
        let b = batch();
        let p = b.project(&[1]);
        assert_eq!(p.schema().fields[0].name, "v");
        let f = b.filter(&[false, true, true]).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.row(0), vec![Scalar::Int64(2), Scalar::Float64(1.5)]);
        let g = b.gather(&[2, 0]);
        assert_eq!(g.row(0)[0], Scalar::Int64(3));
    }

    #[test]
    fn concat_batches() {
        let b = batch();
        let all = RecordBatch::concat(Arc::clone(b.schema()), &[b.clone(), b.clone()]).unwrap();
        assert_eq!(all.num_rows(), 6);
        let empty = RecordBatch::concat(Arc::clone(b.schema()), &[]).unwrap();
        assert_eq!(empty.num_rows(), 0);
    }
}
