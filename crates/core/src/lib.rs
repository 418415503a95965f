//! # lambada-core
//!
//! The Lambada system (Müller, Marroquín, Alonso; SIGMOD 2020): a purely
//! serverless query processor for interactive analytics on cold data. The
//! driver runs on the data scientist's machine; workers are serverless
//! function invocations; all communication flows through serverless
//! storage (object store, queue, KV) — no "always-on" infrastructure
//! anywhere.
//!
//! The paper's system components map to modules:
//!
//! * [`invoke`] — fleet-sized invocation: directly from the driver, or
//!   through the two-level tree that starts thousands of workers in
//!   seconds (§4.2, Fig 5), whichever Table 1 prices faster;
//! * [`scan`] — the cost/performance-balanced S3 scan operator with
//!   metadata prefetching, min/max row-group pruning, and multi-level
//!   request concurrency (§4.3, Figs 6–8, 11);
//! * [`exchange`] — the purely serverless exchange operator family with
//!   multi-level routing and write combining (§4.4, Fig 9, Tables 2–3,
//!   Fig 13), plus its closed-form cost models in [`exchange_cost`]. The
//!   same machinery powers *stage edges*: write-combined, bucket-sharded
//!   shuffles between the producer and consumer fleets of a multi-stage
//!   query. [`transport`] holds that edge, [`transport::EdgeTransport`]:
//!   senders write and report their section tables, the driver addresses
//!   every receiver, receivers fetch without a LIST — the paper's
//!   object-store baseline when it has no p2p mailboxes,
//!   worker-to-worker streaming through a rendezvous/relay (object store
//!   as fallback) when it does;
//! * [`worker`] / [`driver`] / [`stage`] — the worker handler (one
//!   [`worker::StageTask`] shape for every stage: the planner's stage
//!   → sink; a chain of one-worker stages runs in one invocation), the
//!   driver/session logic, and the distributed planner.
//!   [`stage::split`] recursively lowers any supported plan tree into a
//!   [`stage::QueryDag`] of scan, join (arbitrarily nested), agg-merge
//!   (with [`stage::SplitOptions::exchange_aggregates`]), and
//!   range-partitioned sort stages (with
//!   [`stage::SplitOptions::exchange_sorts`]), which the driver's
//!   event-driven stage scheduler ([`driver::Lambada::run_dag`] over a
//!   [`sched::StageBoard`]) executes shape-agnostically — diamonds
//!   included — launching each stage as soon as its own inputs are
//!   complete;
//! * [`costmodel`] — calibrated vCPU-second charges for engine work and
//!   per-stage fleet sizing for join, agg-merge, and sort fleets;
//! * [`service`] — the multi-tenant query service: many concurrent query
//!   DAGs on one installation behind an admission controller (weighted
//!   fair queueing, per-tenant budgets) and a global in-flight worker
//!   cap, with contention-aware fleet shrinking.

pub mod costmodel;
pub mod driver;
pub mod env;
pub mod error;
pub mod exchange;
pub mod exchange_cost;
pub mod invoke;
pub mod message;
pub mod partition;
pub mod plan;
mod predict;
pub mod routing;
pub mod scan;
pub mod sched;
pub mod service;
pub mod stage;
pub mod streaming;
pub mod table;
pub mod transport;
pub mod verify;
pub mod worker;

pub use costmodel::ComputeCostModel;
pub use driver::{
    AggStrategy, ExecPolicy, Lambada, LambadaConfig, QueryReport, SortStrategy, StageReport,
    WORKER_FUNCTION,
};
pub use env::WorkerEnv;
pub use error::{CoreError, Result};
pub use exchange::{
    decode_bundle, encode_bundle, encode_bundle_into, run_exchange, ExchangeBuckets,
    ExchangeConfig, ExchangeOutcome, ExchangeSide, PartData, EXCHANGE_BUCKET_PREFIX,
};
pub use exchange_cost::{
    direct_edge_counts, request_counts, request_dollars, stage_edge_counts, ExchangeAlgo,
    RequestCounts,
};
pub use invoke::{invoke_workers, invoke_workers_as, InvocationStrategy};
pub use message::{ResultPayload, WorkerMetrics, WorkerResult, INLINE_RESULT_BYTES};
pub use plan::{LaunchPlan, Placement};
pub use scan::{scan_table, ScanConfig, ScanItem, ScanMetrics};
pub use sched::StageBoard;
pub use service::{
    QueryEstimate, QueryHandle, QueryService, ServiceConfig, TenantBudget, TenantUsage, WorkerGate,
};
pub use stage::{QueryDag, SplitOptions, StageKind};
pub use streaming::{
    events_to_batch, streamify, ContinuousQuery, StreamBatchReport, StreamSpec, WINDOW_COLUMN,
};
pub use table::{TableFile, TableSpec};
pub use transport::{
    address_sections, EdgeTransport, InEdge, Section, SectionAddr, TransportKind, Wire,
};
pub use verify::{
    verify_dag, verify_fleets, verify_fused, verify_stream, Diagnostic, MAX_MODEL_FLEET,
};
pub use worker::{
    inject_query_worker_faults, inject_worker_faults, register_worker_function, ChainStage,
    ReportTop, ScanFiles, StageSink, StageTask, WorkerPayload, WorkerTask,
};

/// The one damage sweep every wire decoder's tests run: bytes another
/// worker or the driver wrote, cut short or with one bit flipped, must
/// decode or fail with a typed error — never panic.
#[cfg(test)]
pub(crate) mod wire_fuzz {
    /// How a copy of the wire bytes was damaged.
    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Damage {
        /// Cut to its first `n` bytes.
        Cut(usize),
        /// Bit `b` flipped (byte `b / 8`, bit `b % 8`).
        Flip(usize),
    }

    /// Hand `check` every damaged copy of `bytes`: each cut short of the
    /// whole, shortest first, then each single-bit flip, in bit order.
    pub(crate) fn sweep(bytes: &[u8], mut check: impl FnMut(Damage, &[u8])) {
        for cut in 0..bytes.len() {
            check(Damage::Cut(cut), &bytes[..cut]);
        }
        let mut damaged = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            check(Damage::Flip(bit), &damaged);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
