//! # lambada-engine
//!
//! The query compilation and execution framework under Lambada (§3.2):
//! frontends lower into a common logical-plan IR, a rule-based optimizer
//! applies selection/projection push-downs and join ordering, and plans
//! execute as vectorized pipelines over columnar batches.
//!
//! The paper JIT-compiles pipelines to LLVM IR; this reproduction uses
//! vectorized interpretation instead (typed kernels over column batches),
//! which serves the same purpose — no per-row interpretation in inner
//! loops — with idiomatic Rust.
//!
//! Layer map:
//!
//! * [`types`] / [`scalar`] / [`mod@column`] / [`batch`] — the data model;
//! * [`expr`] — expression trees, vectorized kernels, constant folding,
//!   and interval analysis for min/max row-group pruning;
//! * [`logical`] + [`frontend`] — the plan IR and the Listing-1-style
//!   DataFrame builder;
//! * [`optimizer`] — push-downs (selections *and* projections reach below
//!   joins into the scans) and join ordering;
//! * [`physical`] — the local reference executor (ground truth in tests);
//! * [`pipeline`] — push-based fragment execution inside workers, with
//!   terminals for partial aggregation, collection, hash partitioning
//!   (feeding exchange edges), and hash-join probing;
//! * [`agg`] — mergeable, wire-serializable partial aggregates, folded a
//!   batch at a time into typed accumulator columns;
//! * [`join`] — the shared partition hash plus [`join::JoinState`], the
//!   build side of a distributed hash join. Both index their keys with
//!   one engine-internal key table (`keytable.rs`).

pub mod agg;
pub mod batch;
pub mod column;
pub mod error;
pub mod expr;
pub mod frontend;
pub mod join;
mod keytable;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod pipeline;
pub mod scalar;
pub mod table;
pub mod types;

pub use agg::{Acc, AggExpr, AggFunc, GroupedAggState};
pub use batch::RecordBatch;
pub use column::Column;
pub use error::{EngineError, Result};
pub use expr::{col, lit_bool, lit_f64, lit_i64, BinOp, Expr};
pub use frontend::Df;
pub use join::JoinState;
pub use logical::{JoinVariant, LogicalPlan, SortKey};
pub use optimizer::Optimizer;
pub use physical::{assign_windows, execute, execute_into_batch, WindowSpec};
pub use pipeline::{Pipeline, PipelineOutput, PipelineSpec, Terminal};
pub use scalar::{Scalar, ScalarKey};
pub use table::{Catalog, MemTable, TableProvider};
pub use types::{DataType, Field, Schema, SchemaRef};
