//! The repo's benchmark as a library: the `benchmark` binary is a thin
//! command line over these modules, and `tests/smoke.rs` checks them
//! against `BENCHMARK.json`. See `benchmark/README.md`.

pub mod compare;
pub mod gauges;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
