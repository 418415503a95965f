//! The assembled cloud: every serverless service sharing one clock, one
//! billing ledger, one trace, and one seeded RNG tree.

use std::ops::Deref;
use std::rc::{Rc, Weak};
use std::time::Duration;

use crate::billing::{Billing, Prices};
use crate::executor::{SimHandle, Simulation};
use crate::region::Region;
use crate::resource::{BurstLink, BurstLinkConfig};
use crate::rng::SimRng;
use crate::services::faas::{FaasCaller, FaasConfig, FaasService, NicModel};
use crate::services::object_store::{ObjectStore, S3Client, S3Config};
use crate::services::p2p::{P2pConfig, P2pService};
use crate::services::queue::{QueueService, SqsClient, SqsConfig};
use crate::trace::Trace;

/// Full configuration of a simulated cloud environment.
#[derive(Clone, Debug)]
pub struct CloudConfig {
    pub region: Region,
    pub seed: u64,
    pub prices: Prices,
    pub faas: FaasConfig,
    pub nic: NicModel,
    pub s3: S3Config,
    pub sqs: SqsConfig,
    pub p2p: P2pConfig,
    /// Driver machine's WAN bandwidth in bytes/s (1 Gbps by default; the
    /// driver only ships plans and collects small results).
    pub driver_bandwidth: f64,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            region: Region::Eu,
            seed: 0xDA7A,
            prices: Prices::default(),
            faas: FaasConfig::default(),
            nic: NicModel::default(),
            s3: S3Config::default(),
            sqs: SqsConfig::default(),
            p2p: P2pConfig::default(),
            driver_bandwidth: 125e6,
        }
    }
}

/// Handle bundle to all simulated services: one shared [`CloudState`],
/// so a clone is one reference count and [`Cloud::downgrade`] gives a
/// handle that does not keep the services alive.
#[derive(Clone)]
pub struct Cloud(Rc<CloudState>);

/// What a [`Cloud`] points at (reached through `Deref`).
pub struct CloudState {
    pub handle: SimHandle,
    pub config: Rc<CloudConfig>,
    pub billing: Billing,
    pub trace: Trace,
    pub rng: SimRng,
    pub s3: ObjectStore,
    pub faas: FaasService,
    pub sqs: QueueService,
    pub p2p: P2pService,
    driver_link: BurstLink,
}

impl Cloud {
    pub fn new(sim: &Simulation, config: CloudConfig) -> Cloud {
        let handle = sim.handle();
        let billing = Billing::new(config.prices);
        let trace = Trace::new();
        let rng = SimRng::new(config.seed);
        let s3 = ObjectStore::new(handle.clone(), config.s3.clone(), billing.clone(), rng.fork());
        let faas = FaasService::new(
            handle.clone(),
            config.faas.clone(),
            config.nic.clone(),
            billing.clone(),
            rng.fork(),
            trace.clone(),
        );
        let sqs =
            QueueService::new(handle.clone(), config.sqs.clone(), billing.clone(), rng.fork());
        let p2p = P2pService::new(handle.clone(), config.p2p.clone());
        let driver_link =
            BurstLink::new(handle.clone(), BurstLinkConfig::flat(config.driver_bandwidth));
        Cloud(Rc::new(CloudState {
            handle,
            config: Rc::new(config),
            billing,
            trace,
            rng,
            s3,
            faas,
            sqs,
            p2p,
            driver_link,
        }))
    }

    /// A handle that does not keep the cloud alive. Whatever a service
    /// stores must hold this one: a function handler registered with
    /// [`CloudState::faas`] that captured a `Cloud` would own the service that
    /// owns it, and the cloud — object store and all — would never be
    /// freed.
    pub fn downgrade(&self) -> WeakCloud {
        WeakCloud(Rc::downgrade(&self.0))
    }

    /// Region the driver talks to.
    pub fn region(&self) -> Region {
        self.config.region
    }

    /// S3 access from the driver's machine: WAN latency, driver bandwidth.
    pub fn driver_s3(&self) -> S3Client {
        self.s3.client(self.driver_link.clone(), self.config.region.driver_rtt())
    }

    /// The driver machine's network link, shared by everything it moves.
    pub fn driver_link(&self) -> &BurstLink {
        &self.driver_link
    }

    /// SQS access from the driver's machine.
    pub fn driver_sqs(&self) -> SqsClient {
        self.sqs.client(self.config.region.driver_rtt())
    }

    /// An invocation caller with the driver's Table-1 profile.
    pub fn driver_invoker(&self) -> FaasCaller {
        self.faas.driver_caller(self.config.region)
    }

    /// An invocation caller for one worker inside the region. Each worker
    /// that spawns second-generation workers should get its own.
    pub fn worker_invoker(&self) -> FaasCaller {
        self.faas.worker_caller(self.config.region)
    }

    /// SQS access from inside a function instance.
    pub fn instance_sqs(&self) -> SqsClient {
        self.sqs.client(Duration::ZERO)
    }
}

impl Deref for Cloud {
    type Target = CloudState;

    fn deref(&self) -> &CloudState {
        &self.0
    }
}

/// See [`Cloud::downgrade`].
#[derive(Clone)]
pub struct WeakCloud(Weak<CloudState>);

impl WeakCloud {
    /// The cloud, while some [`Cloud`] handle is still alive.
    pub fn upgrade(&self) -> Option<Cloud> {
        self.0.upgrade().map(Cloud)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::CostItem;
    use crate::services::object_store::Body;

    #[test]
    fn cloud_wires_shared_billing() {
        let sim = Simulation::new();
        let cloud = Cloud::new(&sim, CloudConfig::default());
        cloud.s3.create_bucket("b");
        cloud.sqs.create_queue("q");
        let cloud2 = cloud.clone();
        sim.block_on(async move {
            cloud2.driver_s3().put("b", "k", Body::Synthetic(10)).await.unwrap();
            cloud2.driver_sqs().send("q", vec![1]).await.unwrap();
        });
        assert_eq!(cloud.billing.units(CostItem::S3Put), 1.0);
        assert_eq!(cloud.billing.units(CostItem::SqsRequests), 1.0);
    }

    #[test]
    fn default_config_is_eu_with_paper_prices() {
        let cfg = CloudConfig::default();
        assert_eq!(cfg.region, Region::Eu);
        assert!((cfg.prices.lambda_gib_second - 1.65e-5).abs() < 1e-12);
        assert_eq!(cfg.faas.account_concurrency, 1000);
    }
}
