//! Worker-side environment: everything a serverless worker's code can
//! touch — its container resources plus clients to the shared serverless
//! storage services (§3.1: workers communicate through shared storage;
//! the direct exchange transport additionally reaches peers through the
//! p2p rendezvous/relay, with storage as its fallback).

use lambada_sim::services::faas::InstanceCtx;
use lambada_sim::services::object_store::S3Client;
use lambada_sim::services::queue::SqsClient;
use lambada_sim::{Cloud, P2pClient, SharedTally, SimTime, Tally};

use crate::costmodel::ComputeCostModel;

/// Handle bundle for code running inside one worker invocation.
#[derive(Clone)]
pub struct WorkerEnv {
    pub cloud: Cloud,
    pub ctx: InstanceCtx,
    /// Object-store and p2p rendezvous/relay access (the direct exchange
    /// transport), both through this worker's traffic-shaped NIC, and
    /// queue access, all three counting into one [`Tally`].
    pub s3: S3Client,
    pub p2p: P2pClient,
    pub sqs: SqsClient,
    pub worker_id: u64,
    /// Attempt id of this invocation: 0 for the original, 1.. for the
    /// driver's speculative backups. Suffixed onto every exchange key
    /// this worker writes so duplicates stay distinguishable.
    pub attempt: u32,
    pub costs: ComputeCostModel,
    /// When the invocation's handler started: its billed time runs from
    /// here.
    pub started: SimTime,
}

impl WorkerEnv {
    pub fn new(cloud: &Cloud, ctx: InstanceCtx, worker_id: u64, costs: ComputeCostModel) -> Self {
        let s3 = cloud.s3.client(ctx.link(), std::time::Duration::ZERO);
        let p2p = cloud.p2p.client(ctx.link());
        let (sqs, started) = (cloud.instance_sqs(), cloud.handle.now());
        let env = WorkerEnv {
            cloud: cloud.clone(),
            ctx,
            s3,
            p2p,
            sqs,
            worker_id,
            attempt: 0,
            costs,
            started,
        };
        env.for_stage()
    }

    /// This environment with fresh S3, p2p and queue clients that share
    /// one new tally: what one stage's requests are counted in, wherever
    /// (in whichever spawned task) they are made.
    pub fn for_stage(&self) -> WorkerEnv {
        let tally = SharedTally::default();
        let (s3, p2p) =
            (self.s3.counting_into(tally.clone()), self.p2p.counting_into(tally.clone()));
        WorkerEnv { s3, p2p, sqs: self.sqs.counting_into(tally), ..self.clone() }
    }

    /// What this environment's clients did so far.
    pub fn tally(&self) -> Tally {
        self.s3.tally()
    }

    /// An environment outside the FaaS dispatch path (benches and tests
    /// that exercise one component in isolation). The instance still gets
    /// the memory-dependent CPU share and traffic-shaped NIC.
    pub fn bare(cloud: &Cloud, worker_id: u64, memory_mib: u32, costs: ComputeCostModel) -> Self {
        use lambada_sim::services::faas::{cpu_share, Instance, InstanceCtx};
        use lambada_sim::{BurstLink, PsResource};
        let instance = std::rc::Rc::new(Instance {
            id: worker_id,
            memory_mib,
            cpu: PsResource::new(cloud.handle.clone(), cpu_share(memory_mib), 1.0),
            link: BurstLink::new(cloud.handle.clone(), cloud.config.nic.link_config(memory_mib)),
        });
        let ctx = InstanceCtx::bare(cloud.handle.clone(), instance);
        WorkerEnv::new(cloud, ctx, worker_id, costs)
    }

    /// Like [`WorkerEnv::bare`], with the NIC degraded by `bandwidth
    /// factor` — straggler injection for the Fig 13 experiments.
    pub fn bare_with_nic_factor(
        cloud: &Cloud,
        worker_id: u64,
        memory_mib: u32,
        costs: ComputeCostModel,
        factor: f64,
    ) -> Self {
        use lambada_sim::services::faas::{cpu_share, Instance, InstanceCtx};
        use lambada_sim::{BurstLink, PsResource};
        let mut nic = cloud.config.nic.link_config(memory_mib);
        nic.sustained *= factor;
        nic.burst *= factor;
        nic.per_conn *= factor;
        let instance = std::rc::Rc::new(Instance {
            id: worker_id,
            memory_mib,
            cpu: PsResource::new(cloud.handle.clone(), cpu_share(memory_mib), 1.0),
            link: BurstLink::new(cloud.handle.clone(), nic),
        });
        let ctx = InstanceCtx::bare(cloud.handle.clone(), instance);
        WorkerEnv::new(cloud, ctx, worker_id, costs)
    }

    /// Charge single-threaded compute (vCPU-seconds).
    pub async fn compute(&self, vcpu_seconds: f64) {
        self.ctx.compute(vcpu_seconds).await;
    }

    /// Memory budget available to the execution engine. §3.3: the handler
    /// starts the engine "with a memory limit slightly lower than that of
    /// the serverless function" so OOM is reported rather than dying
    /// silently.
    pub fn engine_memory_budget(&self) -> u64 {
        let total = u64::from(self.ctx.memory_mib()) * 1024 * 1024;
        total - total / 8
    }
}
