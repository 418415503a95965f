//! Serverless service models: FaaS, object store, queue, and the
//! worker-to-worker rendezvous/relay network.

pub mod faas;
pub mod object_store;
pub mod p2p;
pub mod queue;
pub mod source;
