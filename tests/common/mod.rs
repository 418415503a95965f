//! Checks shared by the root suites.

use lambada::core::LambadaConfig;
use lambada::sim::{Cloud, Simulation};

/// A query (or a sequence of them) left nothing behind: no object in
/// the exchange buckets or the result bucket, as many SQS queues as
/// before it (`queues_before`), no registered p2p endpoint, no task
/// still running and no timer still pending.
#[track_caller]
pub fn assert_quiescent(
    sim: &Simulation,
    cloud: &Cloud,
    config: &LambadaConfig,
    queues_before: usize,
) {
    let exchange = (0..config.exchange.num_buckets).map(|b| config.exchange.bucket_of(b));
    for bucket in exchange.chain([config.result_bucket.clone()]) {
        assert_eq!(cloud.s3.bucket_object_count(&bucket), 0, "objects left in {bucket}");
    }
    assert_eq!(cloud.sqs.queue_count(), queues_before, "a queue left behind");
    assert_eq!(cloud.p2p.endpoint_count(), 0, "an endpoint left registered");
    assert_eq!(sim.live_tasks(), 0, "a task left running");
    assert_eq!(sim.pending_timers(), 0, "a timer left pending");
}
