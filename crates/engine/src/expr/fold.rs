//! Constant folding: collapse literal-only subtrees at plan time.

use crate::expr::kernels::{self, Value};
use crate::expr::Expr;
use crate::scalar::Scalar;

/// Fold constants bottom-up. Errors in constant subexpressions (e.g.
/// division by zero) are left in place to surface at execution time.
pub fn fold(expr: &Expr) -> Expr {
    match expr {
        Expr::Col(_) | Expr::Lit(_) => expr.clone(),
        Expr::Binary { op, left, right } => {
            let l = fold(left);
            let r = fold(right);
            if let (Expr::Lit(a), Expr::Lit(b)) = (&l, &r) {
                if let Ok(Value::Scalar(s)) =
                    kernels::binary(*op, Value::Scalar(*a), Value::Scalar(*b))
                {
                    return Expr::Lit(s);
                }
            }
            simplify_logical(*op, l, r)
        }
        Expr::Not(e) => {
            let inner = fold(e);
            if let Expr::Lit(Scalar::Boolean(b)) = inner {
                return Expr::Lit(Scalar::Boolean(!b));
            }
            Expr::Not(Box::new(inner))
        }
        Expr::Neg(e) => {
            let inner = fold(e);
            if let Expr::Lit(s) = &inner {
                if let Ok(Value::Scalar(out)) = kernels::neg(Value::Scalar(*s)) {
                    return Expr::Lit(out);
                }
            }
            Expr::Neg(Box::new(inner))
        }
        Expr::Cast { expr, to } => {
            let inner = fold(expr);
            if let Expr::Lit(s) = &inner {
                if let Ok(Value::Scalar(out)) = kernels::cast(Value::Scalar(*s), *to) {
                    return Expr::Lit(out);
                }
            }
            Expr::Cast { expr: Box::new(inner), to: *to }
        }
    }
}

/// Boolean identity simplifications: `true AND x => x`, `false OR x => x`,
/// `false AND x => false`, `true OR x => true`.
fn simplify_logical(op: crate::expr::BinOp, l: Expr, r: Expr) -> Expr {
    use crate::expr::BinOp;
    match (op, &l, &r) {
        (BinOp::And, Expr::Lit(Scalar::Boolean(true)), _) => r,
        (BinOp::And, _, Expr::Lit(Scalar::Boolean(true))) => l,
        (BinOp::And, Expr::Lit(Scalar::Boolean(false)), _)
        | (BinOp::And, _, Expr::Lit(Scalar::Boolean(false))) => Expr::Lit(Scalar::Boolean(false)),
        (BinOp::Or, Expr::Lit(Scalar::Boolean(false)), _) => r,
        (BinOp::Or, _, Expr::Lit(Scalar::Boolean(false))) => l,
        (BinOp::Or, Expr::Lit(Scalar::Boolean(true)), _)
        | (BinOp::Or, _, Expr::Lit(Scalar::Boolean(true))) => Expr::Lit(Scalar::Boolean(true)),
        _ => Expr::Binary { op, left: Box::new(l), right: Box::new(r) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit_bool, lit_f64, lit_i64};

    #[test]
    fn folds_arithmetic_constants() {
        let e = lit_i64(2).mul(lit_i64(3)).add(lit_i64(4));
        assert_eq!(fold(&e), lit_i64(10));
        let e = lit_f64(1.0).div(lit_f64(4.0));
        assert_eq!(fold(&e), lit_f64(0.25));
    }

    #[test]
    fn folds_inside_larger_tree() {
        // col0 >= (1 + 2) => col0 >= 3
        let e = col(0).ge(lit_i64(1).add(lit_i64(2)));
        assert_eq!(fold(&e), col(0).ge(lit_i64(3)));
    }

    #[test]
    fn simplifies_boolean_identities() {
        let p = col(0).lt(lit_i64(5));
        assert_eq!(fold(&lit_bool(true).and(p.clone())), p);
        assert_eq!(fold(&p.clone().or(lit_bool(true))), lit_bool(true));
        assert_eq!(fold(&lit_bool(false).and(p.clone())), lit_bool(false));
        assert_eq!(fold(&lit_bool(false).or(p.clone())), p);
    }

    #[test]
    fn leaves_runtime_errors_unfolded() {
        let e = lit_i64(1).div(lit_i64(0));
        assert_eq!(fold(&e), e, "division by zero must surface at runtime");
    }

    #[test]
    fn folds_not_neg_cast() {
        assert_eq!(fold(&lit_bool(false).not()), lit_bool(true));
        assert_eq!(fold(&lit_i64(5).neg()), lit_i64(-5));
        assert_eq!(fold(&lit_i64(3).cast(crate::types::DataType::Float64)), lit_f64(3.0));
    }
}
