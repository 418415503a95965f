//! Expression evaluation over record batches.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::borrow::Cow;

use crate::batch::RecordBatch;
use crate::column::Column;
use crate::error::{plan_err, Result};
use crate::expr::kernels::{self, Value};
use crate::expr::Expr;

/// Evaluate an expression against a batch. A column reference evaluates
/// to the batch's own column, borrowed.
pub fn evaluate<'a>(expr: &Expr, batch: &'a RecordBatch) -> Result<Value<'a>> {
    evaluate_over(expr, &|i| batch.columns().get(i))
}

/// Evaluate an expression whose column `i` is `column(i)`: the columns
/// need not sit in a [`RecordBatch`], which is how the pipeline evaluates
/// over filtered or projected columns without assembling one.
pub fn evaluate_over<'a>(
    expr: &Expr,
    column: &impl Fn(usize) -> Option<&'a Column>,
) -> Result<Value<'a>> {
    match expr {
        Expr::Col(i) => match column(*i) {
            Some(c) => Ok(Value::Column(Cow::Borrowed(c))),
            None => plan_err(format!("column index {i} out of range")),
        },
        Expr::Lit(s) => Ok(Value::Scalar(*s)),
        Expr::Binary { op, left, right } => {
            let l = evaluate_over(left, column)?;
            let r = evaluate_over(right, column)?;
            kernels::binary(*op, l, r)
        }
        Expr::Not(e) => kernels::not(evaluate_over(e, column)?),
        Expr::Neg(e) => kernels::neg(evaluate_over(e, column)?),
        Expr::Cast { expr, to } => kernels::cast(evaluate_over(expr, column)?, *to),
    }
}

/// Evaluate a predicate to a boolean mask over the batch's rows.
pub fn evaluate_mask(expr: &Expr, batch: &RecordBatch) -> Result<Vec<bool>> {
    evaluate(expr, batch)?.into_mask(batch.num_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::{col, lit_f64, lit_i64};
    use crate::scalar::Scalar;

    fn batch() -> RecordBatch {
        RecordBatch::from_columns(
            &["qty", "price"],
            vec![Column::I64(vec![10, 30, 50]), Column::F64(vec![1.0, 2.0, 3.0])],
        )
        .unwrap()
    }

    #[test]
    fn evaluates_arithmetic_over_batch() {
        let b = batch();
        // price * (qty + 1)
        let e = col(1).mul(col(0).add(lit_i64(1)));
        let v = evaluate(&e, &b).unwrap();
        assert_eq!(v, Value::from(Column::F64(vec![11.0, 62.0, 153.0])));
    }

    #[test]
    fn evaluates_predicate_mask() {
        let b = batch();
        let e = col(0).lt(lit_i64(40)).and(col(1).ge(lit_f64(2.0)));
        assert_eq!(evaluate_mask(&e, &b).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn constant_predicate_broadcasts() {
        let b = batch();
        let e = lit_i64(1).lt(lit_i64(2));
        assert_eq!(evaluate_mask(&e, &b).unwrap(), vec![true, true, true]);
    }

    #[test]
    fn scalar_expression_returns_scalar() {
        let b = batch();
        let e = lit_i64(2).mul(lit_i64(21));
        assert_eq!(evaluate(&e, &b).unwrap(), Value::Scalar(Scalar::Int64(42)));
    }
}
