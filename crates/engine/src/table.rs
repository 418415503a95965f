//! Table providers: where scans get their data.
//!
//! The reference (single-node) engine scans [`MemTable`]s; the distributed
//! system in `lambada-core` implements its own provider over simulated S3.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::batch::RecordBatch;
use crate::error::{exec_err, Result};
use crate::expr::{eval, Expr};
use crate::types::SchemaRef;

/// A source of record batches.
pub trait TableProvider {
    /// Full (un-projected) schema of the table.
    fn schema(&self) -> SchemaRef;

    /// Estimated row count, if known (used by the join-order optimizer).
    fn row_count_hint(&self) -> Option<u64>;

    /// Scan with optional projection and pushed-down predicate. The
    /// predicate refers to the *full* table schema; the returned batches
    /// contain only the projected columns (in projection order).
    fn scan(
        &self,
        projection: Option<&[usize]>,
        predicate: Option<&Expr>,
    ) -> Result<Vec<RecordBatch>>;
}

/// An in-memory table.
pub struct MemTable {
    schema: SchemaRef,
    batches: Vec<RecordBatch>,
    rows: u64,
}

impl MemTable {
    pub fn new(schema: SchemaRef, batches: Vec<RecordBatch>) -> Result<MemTable> {
        for b in &batches {
            if b.schema().as_ref() != schema.as_ref() {
                return exec_err("batch schema does not match table schema");
            }
        }
        let rows = batches.iter().map(|b| b.num_rows() as u64).sum();
        Ok(MemTable { schema, batches, rows })
    }

    /// Single-batch convenience constructor.
    pub fn from_batch(batch: RecordBatch) -> MemTable {
        let schema = Arc::clone(batch.schema());
        let rows = batch.num_rows() as u64;
        MemTable { schema, batches: vec![batch], rows }
    }

    pub fn batches(&self) -> &[RecordBatch] {
        &self.batches
    }
}

impl TableProvider for MemTable {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn row_count_hint(&self) -> Option<u64> {
        Some(self.rows)
    }

    fn scan(
        &self,
        projection: Option<&[usize]>,
        predicate: Option<&Expr>,
    ) -> Result<Vec<RecordBatch>> {
        let mut out = Vec::with_capacity(self.batches.len());
        for b in &self.batches {
            let filtered = match predicate {
                Some(p) => {
                    let mask = eval::evaluate_mask(p, b)?;
                    b.filter(&mask)?
                }
                None => b.clone(),
            };
            out.push(match projection {
                Some(idx) => filtered.project(idx),
                None => filtered,
            });
        }
        Ok(out)
    }
}

/// Name → table registry used by the local executor.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Rc<dyn TableProvider>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn register(&mut self, name: impl Into<String>, table: Rc<dyn TableProvider>) {
        self.tables.insert(name.into(), table);
    }

    pub fn get(&self, name: &str) -> Result<Rc<dyn TableProvider>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| crate::error::EngineError::PlanError(format!("unknown table: {name}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Row-count hint for the join-order optimizer.
    pub fn row_hint(&self, name: &str) -> Option<u64> {
        self.tables.get(name).and_then(|t| t.row_count_hint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::{col, lit_i64};
    use crate::scalar::Scalar;

    fn table() -> MemTable {
        let batch = RecordBatch::from_columns(
            &["a", "b"],
            vec![Column::I64(vec![1, 2, 3, 4]), Column::F64(vec![0.1, 0.2, 0.3, 0.4])],
        )
        .unwrap();
        MemTable::from_batch(batch)
    }

    #[test]
    fn scan_with_predicate_and_projection() {
        let t = table();
        let out = t.scan(Some(&[1]), Some(&col(0).gt(lit_i64(2)))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_rows(), 2);
        assert_eq!(out[0].num_columns(), 1);
        assert_eq!(out[0].row(0), vec![Scalar::Float64(0.3)]);
    }

    #[test]
    fn catalog_lookup() {
        let mut cat = Catalog::new();
        cat.register("t", Rc::new(table()));
        assert!(cat.get("t").is_ok());
        assert!(cat.get("nope").is_err());
        assert_eq!(cat.row_hint("t"), Some(4));
        assert_eq!(cat.table_names(), vec!["t".to_string()]);
    }

    #[test]
    fn mismatched_batch_schema_rejected() {
        let t = table();
        let wrong = RecordBatch::from_columns(&["x"], vec![Column::I64(vec![1])]).unwrap();
        assert!(MemTable::new(t.schema(), vec![wrong]).is_err());
    }
}
