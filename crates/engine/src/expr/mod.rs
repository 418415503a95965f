//! Expression trees and their vectorized evaluation.
//!
//! Column references are positional (indices into the operator's input
//! schema); the DataFrame frontend resolves names to indices at plan-build
//! time. Expressions evaluate over [`crate::RecordBatch`]es to
//! [`kernels::Value`]s — whole columns or scalars (constants broadcast
//! lazily).

pub mod eval;
pub mod fold;
pub mod kernels;
pub mod range;

use std::fmt;

use crate::error::{plan_err, type_err, Result};
use crate::scalar::Scalar;
use crate::types::{DataType, Schema};

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// An expression over the columns of one input schema.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal constant.
    Lit(Scalar),
    /// Binary operation.
    Binary { op: BinOp, left: Box<Expr>, right: Box<Expr> },
    /// Boolean negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Numeric cast.
    Cast { expr: Box<Expr>, to: DataType },
}

/// Column reference builder.
pub fn col(i: usize) -> Expr {
    Expr::Col(i)
}

/// Integer literal builder.
pub fn lit_i64(v: i64) -> Expr {
    Expr::Lit(Scalar::Int64(v))
}

/// Float literal builder.
pub fn lit_f64(v: f64) -> Expr {
    Expr::Lit(Scalar::Float64(v))
}

/// Boolean literal builder.
pub fn lit_bool(v: bool) -> Expr {
    Expr::Lit(Scalar::Boolean(v))
}

macro_rules! binop_method {
    ($name:ident, $op:expr) => {
        pub fn $name(self, rhs: Expr) -> Expr {
            Expr::Binary { op: $op, left: Box::new(self), right: Box::new(rhs) }
        }
    };
}

// The fluent builders intentionally mirror the std operator names
// (`a.add(b)`, `a.not()`) without implementing the operator traits, which
// would force `Expr: Copy`-style ergonomics the enum cannot provide.
#[allow(clippy::should_implement_trait)]
impl Expr {
    binop_method!(add, BinOp::Add);
    binop_method!(sub, BinOp::Sub);
    binop_method!(mul, BinOp::Mul);
    binop_method!(div, BinOp::Div);
    binop_method!(eq, BinOp::Eq);
    binop_method!(ne, BinOp::Ne);
    binop_method!(lt, BinOp::Lt);
    binop_method!(le, BinOp::Le);
    binop_method!(gt, BinOp::Gt);
    binop_method!(ge, BinOp::Ge);
    binop_method!(and, BinOp::And);
    binop_method!(or, BinOp::Or);

    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    pub fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }

    pub fn cast(self, to: DataType) -> Expr {
        Expr::Cast { expr: Box::new(self), to }
    }

    /// `lo <= self AND self <= hi` (inclusive on both ends).
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        self.clone().ge(lo).and(self.le(hi))
    }

    /// Result type against an input schema, with numeric promotion
    /// (`i64 op f64 -> f64`).
    pub fn data_type(&self, input: &Schema) -> Result<DataType> {
        match self {
            Expr::Col(i) => {
                if *i >= input.len() {
                    return plan_err(format!("column index {i} out of range for {input}"));
                }
                Ok(input.field(*i).dtype)
            }
            Expr::Lit(s) => Ok(s.dtype()),
            Expr::Binary { op, left, right } => {
                let lt = left.data_type(input)?;
                let rt = right.data_type(input)?;
                if op.is_logical() {
                    if lt != DataType::Boolean || rt != DataType::Boolean {
                        return type_err(format!(
                            "{} requires booleans, got {lt} and {rt}",
                            op.symbol()
                        ));
                    }
                    return Ok(DataType::Boolean);
                }
                if op.is_comparison() {
                    let compatible = (lt.is_numeric() && rt.is_numeric()) || lt == rt;
                    if !compatible {
                        return type_err(format!("cannot compare {lt} with {rt}"));
                    }
                    return Ok(DataType::Boolean);
                }
                // Arithmetic.
                if !lt.is_numeric() || !rt.is_numeric() {
                    return type_err(format!("{} requires numeric operands", op.symbol()));
                }
                if lt == DataType::Float64 || rt == DataType::Float64 {
                    Ok(DataType::Float64)
                } else {
                    Ok(DataType::Int64)
                }
            }
            Expr::Not(e) => {
                if e.data_type(input)? != DataType::Boolean {
                    return type_err("NOT requires a boolean");
                }
                Ok(DataType::Boolean)
            }
            Expr::Neg(e) => {
                let t = e.data_type(input)?;
                if !t.is_numeric() {
                    return type_err("negation requires a numeric");
                }
                Ok(t)
            }
            Expr::Cast { expr, to } => {
                let t = expr.data_type(input)?;
                if !t.is_numeric() || !to.is_numeric() {
                    return type_err("cast supports numeric types only");
                }
                Ok(*to)
            }
        }
    }

    /// Record all referenced column indices into `out`.
    pub fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_columns(out),
            Expr::Cast { expr, .. } => expr.collect_columns(out),
        }
    }

    /// Sorted, deduplicated referenced column indices.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut v = Vec::new();
        self.collect_columns(&mut v);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Rewrite every column reference through `f`.
    pub fn remap_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Lit(s) => Expr::Lit(*s),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.remap_columns(f)),
                right: Box::new(right.remap_columns(f)),
            },
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(f))),
            Expr::Neg(e) => Expr::Neg(Box::new(e.remap_columns(f))),
            Expr::Cast { expr, to } => {
                Expr::Cast { expr: Box::new(expr.remap_columns(f)), to: *to }
            }
        }
    }

    /// Conjoin with another predicate.
    pub fn and_also(self, other: Option<Expr>) -> Expr {
        match other {
            Some(o) => self.and(o),
            None => self,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{i}"),
            Expr::Lit(s) => write!(f, "{s}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("b", DataType::Boolean),
        ])
    }

    #[test]
    fn typing_promotes_numerics() {
        let s = schema();
        assert_eq!(col(0).add(lit_i64(1)).data_type(&s).unwrap(), DataType::Int64);
        assert_eq!(col(0).add(col(1)).data_type(&s).unwrap(), DataType::Float64);
        assert_eq!(col(0).lt(col(1)).data_type(&s).unwrap(), DataType::Boolean);
        assert!(col(2).add(lit_i64(1)).data_type(&s).is_err());
        assert!(col(0).and(col(2)).data_type(&s).is_err());
        assert!(col(9).data_type(&s).is_err());
    }

    #[test]
    fn collect_and_remap() {
        let e = col(2).and(col(0).lt(lit_f64(1.0)));
        assert_eq!(e.referenced_columns(), vec![0, 2]);
        let r = e.remap_columns(&|i| i + 10);
        assert_eq!(r.referenced_columns(), vec![10, 12]);
    }

    #[test]
    fn display_reads_naturally() {
        let e = col(0).ge(lit_i64(5)).and(col(1).mul(lit_f64(2.0)).le(lit_f64(8.0)));
        assert_eq!(format!("{e}"), "((#0 >= 5) AND ((#1 * 2) <= 8))");
    }

    #[test]
    fn between_desugars_to_conjunction() {
        let e = col(0).between(lit_i64(1), lit_i64(5));
        assert_eq!(format!("{e}"), "((#0 >= 1) AND (#0 <= 5))");
    }
}
