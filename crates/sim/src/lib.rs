//! # lambada-sim
//!
//! A deterministic discrete-event simulation of a serverless cloud, built
//! for reproducing *Lambada: Interactive Data Analytics on Cold Data using
//! Serverless Cloud Infrastructure* (Müller, Marroquín, Alonso; SIGMOD
//! 2020) without an AWS account.
//!
//! The crate provides:
//!
//! * a **virtual-time async executor** ([`Simulation`], [`SimHandle`]) —
//!   single-threaded, seeded, and fully deterministic;
//! * **resource models** ([`resource`]) — token buckets for request-rate
//!   limits, processor sharing for intra-function CPU threads (Fig 4 of
//!   the paper), and a credit-based burst link for the function NIC
//!   (Figs 6–7);
//! * **service models** ([`services`]) — an S3-like object store with
//!   per-bucket rate limits and per-request billing, an AWS-Lambda-like
//!   FaaS runtime with memory-proportional CPU shares and cold starts, an
//!   SQS-like queue, and a worker-to-worker rendezvous/relay;
//! * a **billing ledger** ([`billing`]) with the paper's published prices,
//!   and a **trace collector** ([`trace`]) for per-worker phase timelines.
//!
//! Everything is assembled by [`Cloud`]:
//!
//! ```
//! use lambada_sim::{Cloud, CloudConfig, Simulation};
//! use lambada_sim::services::object_store::Body;
//!
//! let sim = Simulation::new();
//! let cloud = Cloud::new(&sim, CloudConfig::default());
//! cloud.s3.create_bucket("data");
//! let c = cloud.clone();
//! sim.block_on(async move {
//!     let s3 = c.driver_s3();
//!     s3.put("data", "hello", Body::from_vec(vec![1, 2, 3])).await.unwrap();
//!     assert_eq!(s3.get("data", "hello").await.unwrap().len(), 3);
//!     assert_eq!((s3.tally().gets, s3.tally().puts), (1, 1));
//! });
//! assert!(cloud.billing.total() > 0.0);
//! ```

pub mod billing;
pub mod cloud;
pub mod executor;
pub mod region;
pub mod resource;
pub mod rng;
pub mod services;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use billing::{Billing, BillingSnapshot, CostItem, Prices, SharedTally, Tally};
pub use cloud::{Cloud, CloudConfig, CloudState, WeakCloud};
pub use executor::{JoinHandle, SimHandle, Simulation};
pub use region::Region;
pub use resource::{BurstLink, BurstLinkConfig, PsResource, TokenBucket};
pub use rng::SimRng;
pub use services::faas::{FaultInjector, InjectedFault};
pub use services::p2p::{LinkFault, LinkFaultInjector, P2pClient, P2pConfig, P2pError, P2pService};
pub use services::source::{EventSource, SourceConfig, SourceEvent};
pub use time::{millis, secs, SimTime};
pub use trace::{Trace, TraceEvent};
