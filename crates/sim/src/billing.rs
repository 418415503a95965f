//! Usage-based billing: the ledger every service reports to.
//!
//! The paper's central economic argument (Figs 1, 7, 9, 10, 12) is about
//! *which* serverless requests dominate cost. Every simulated service call
//! records its units here, priced with the rates the paper quotes.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The billable dimensions of the simulated cloud.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostItem {
    /// Lambda duration, in GiB-seconds (billed per started 100 ms in the
    /// paper's era).
    LambdaGibSeconds,
    /// Lambda invocation requests.
    LambdaRequests,
    /// S3 GET requests.
    S3Get,
    /// S3 PUT/POST requests.
    S3Put,
    /// S3 LIST requests (priced like PUT, as §4.4.3 notes).
    S3List,
    /// SQS requests (send or receive).
    SqsRequests,
    /// DynamoDB read request units.
    KvReads,
    /// DynamoDB write request units.
    KvWrites,
}

impl CostItem {
    pub const ALL: [CostItem; 8] = [
        CostItem::LambdaGibSeconds,
        CostItem::LambdaRequests,
        CostItem::S3Get,
        CostItem::S3Put,
        CostItem::S3List,
        CostItem::SqsRequests,
        CostItem::KvReads,
        CostItem::KvWrites,
    ];

    fn index(self) -> usize {
        match self {
            CostItem::LambdaGibSeconds => 0,
            CostItem::LambdaRequests => 1,
            CostItem::S3Get => 2,
            CostItem::S3Put => 3,
            CostItem::S3List => 4,
            CostItem::SqsRequests => 5,
            CostItem::KvReads => 6,
            CostItem::KvWrites => 7,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            CostItem::LambdaGibSeconds => "lambda GiB-s",
            CostItem::LambdaRequests => "lambda invocations",
            CostItem::S3Get => "S3 GET",
            CostItem::S3Put => "S3 PUT",
            CostItem::S3List => "S3 LIST",
            CostItem::SqsRequests => "SQS requests",
            CostItem::KvReads => "KV reads",
            CostItem::KvWrites => "KV writes",
        }
    }
}

/// Unit prices in dollars. Defaults follow the rates quoted in the paper
/// (us-east-1, late 2019).
#[derive(Clone, Copy, Debug)]
pub struct Prices {
    /// $ per GiB-second of Lambda compute. The paper quotes a 2 GiB worker
    /// at $3.3e-5 per second => $1.65e-5 per GiB-s.
    pub lambda_gib_second: f64,
    /// $ per invocation ($0.2 per 1M).
    pub lambda_request: f64,
    /// $ per S3 GET ($0.4 per 1M, §4.3.1).
    pub s3_get: f64,
    /// $ per S3 PUT ($5 per 1M, §4.4.1).
    pub s3_put: f64,
    /// $ per S3 LIST ("the price of write requests", §4.4.3).
    pub s3_list: f64,
    /// $ per SQS request ($0.4 per 1M).
    pub sqs_request: f64,
    /// $ per DynamoDB read unit ($0.25 per 1M, on-demand).
    pub kv_read: f64,
    /// $ per DynamoDB write unit ($1.25 per 1M, on-demand).
    pub kv_write: f64,
}

impl Default for Prices {
    fn default() -> Self {
        Prices {
            lambda_gib_second: 1.65e-5,
            lambda_request: 0.2e-6,
            s3_get: 0.4e-6,
            s3_put: 5.0e-6,
            s3_list: 5.0e-6,
            sqs_request: 0.4e-6,
            kv_read: 0.25e-6,
            kv_write: 1.25e-6,
        }
    }
}

impl Prices {
    pub fn price(&self, item: CostItem) -> f64 {
        match item {
            CostItem::LambdaGibSeconds => self.lambda_gib_second,
            CostItem::LambdaRequests => self.lambda_request,
            CostItem::S3Get => self.s3_get,
            CostItem::S3Put => self.s3_put,
            CostItem::S3List => self.s3_list,
            CostItem::SqsRequests => self.sqs_request,
            CostItem::KvReads => self.kv_read,
            CostItem::KvWrites => self.kv_write,
        }
    }
}

#[derive(Clone, Copy, Default, Debug, PartialEq)]
struct Line {
    units: f64,
    dollars: f64,
}

/// A point-in-time copy of the ledger, used to compute per-phase deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BillingSnapshot {
    lines: [Line; 8],
}

impl BillingSnapshot {
    /// Units recorded for an item.
    pub fn units(&self, item: CostItem) -> f64 {
        self.lines[item.index()].units
    }

    /// Dollars recorded for an item.
    pub fn dollars(&self, item: CostItem) -> f64 {
        self.lines[item.index()].dollars
    }

    /// Total dollars across all items.
    pub fn total(&self) -> f64 {
        self.lines.iter().map(|l| l.dollars).sum()
    }

    /// Element-wise difference `self - earlier`.
    pub fn since(&self, earlier: &BillingSnapshot) -> BillingSnapshot {
        let mut out = *self;
        for (l, e) in out.lines.iter_mut().zip(earlier.lines.iter()) {
            l.units -= e.units;
            l.dollars -= e.dollars;
        }
        out
    }
}

impl fmt::Display for BillingSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<22} {:>16} {:>14}", "item", "units", "cost [$]")?;
        for item in CostItem::ALL {
            let line = self.lines[item.index()];
            if line.units != 0.0 {
                writeln!(f, "{:<22} {:>16.2} {:>14.6}", item.label(), line.units, line.dollars)?;
            }
        }
        write!(f, "{:<22} {:>16} {:>14.6}", "total", "", self.total())
    }
}

/// The shared, mutable ledger.
#[derive(Clone)]
pub struct Billing {
    inner: Rc<RefCell<BillingInner>>,
}

struct BillingInner {
    prices: Prices,
    snapshot: BillingSnapshot,
}

impl Billing {
    pub fn new(prices: Prices) -> Self {
        Billing {
            inner: Rc::new(RefCell::new(BillingInner {
                prices,
                snapshot: BillingSnapshot::default(),
            })),
        }
    }

    /// Record `units` of an item; returns the dollars charged.
    pub fn record(&self, item: CostItem, units: f64) -> f64 {
        let mut inner = self.inner.borrow_mut();
        let dollars = units * inner.prices.price(item);
        let line = &mut inner.snapshot.lines[item.index()];
        line.units += units;
        line.dollars += dollars;
        dollars
    }

    /// Record Lambda compute: `gib` of memory for `seconds`, rounded up to
    /// the billing quantum (100 ms in the paper's era). Returns the billed
    /// quanta (0 without a quantum) and GiB-seconds.
    pub fn record_lambda_duration(&self, gib: f64, seconds: f64, quantum: f64) -> (u64, f64) {
        let (quanta, billed) = if quantum > 0.0 {
            let quanta = (seconds / quantum).ceil();
            (quanta as u64, quanta * quantum)
        } else {
            (0, seconds)
        };
        let gib_s = gib * billed;
        self.record(CostItem::LambdaGibSeconds, gib_s);
        (quanta, gib_s)
    }

    pub fn prices(&self) -> Prices {
        self.inner.borrow().prices
    }

    /// Copy of the current totals.
    pub fn snapshot(&self) -> BillingSnapshot {
        self.inner.borrow().snapshot
    }

    /// Total dollars so far.
    pub fn total(&self) -> f64 {
        self.inner.borrow().snapshot.total()
    }

    /// Units recorded so far for one item.
    pub fn units(&self, item: CostItem) -> f64 {
        self.inner.borrow().snapshot.units(item)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.inner.borrow_mut().snapshot = BillingSnapshot::default();
    }
}

/// What one caller's storage, relay and queue clients did, counted by
/// the clients at the moment each request is billed (the object store's
/// GET and PUT as they are billed, a LIST's pages as they are recorded, a
/// queue send or receive as it is billed) or lands (a p2p send as its
/// message arrives, a fetch as its body returns). So the tallies of all
/// callers sum to the bill's S3 and SQS units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// GETs, and the duplicates late ones sent (billed beside them).
    pub gets: u64,
    pub hedged_gets: u64,
    /// Bytes the GETs downloaded: each winner's body once.
    pub bytes_read: u64,
    /// PUTs, and the duplicates late ones sent.
    pub puts: u64,
    pub hedged_puts: u64,
    /// Bytes the PUTs stored: each object once.
    pub bytes_written: u64,
    /// LIST units: one per started page of 1000 keys.
    pub list_units: u64,
    /// Relay messages sent plus those fetched, and their body bytes.
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    /// Queue requests: a send one per started 64 KiB chunk of its body, a
    /// receive one per call, empty or not.
    pub sqs_requests: u64,
}

/// One [`Tally`] shared by every client that holds a clone of it, so a
/// caller's S3, p2p and queue clients (and their clones in spawned tasks) count
/// into one place. Counting is synchronous: it never awaits, spawns or
/// draws.
#[derive(Clone, Debug, Default)]
pub struct SharedTally(Rc<std::cell::Cell<Tally>>);

impl SharedTally {
    /// The counts so far.
    pub fn get(&self) -> Tally {
        self.0.get()
    }

    pub(crate) fn count(&self, f: impl FnOnce(&mut Tally)) {
        let mut tally = self.0.get();
        f(&mut tally);
        self.0.set(tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worker_rate_matches() {
        // A 2 GiB worker costs $3.3e-5 per second (§4.4.4).
        let b = Billing::new(Prices::default());
        b.record(CostItem::LambdaGibSeconds, 2.0);
        assert!((b.total() - 3.3e-5).abs() < 1e-12);
    }

    #[test]
    fn duration_rounds_up_to_quantum() {
        let b = Billing::new(Prices::default());
        // 30 ms at 100 ms quantum bills a full 100 ms.
        b.record_lambda_duration(2.0, 0.03, 0.1);
        assert!((b.units(CostItem::LambdaGibSeconds) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exchange_example_from_paper() {
        // §4.4.1: BasicExchange with 4k workers performs 16.7M reads and
        // writes each; requests cost about $100.
        let b = Billing::new(Prices::default());
        let p = 4096.0f64;
        b.record(CostItem::S3Get, p * p);
        b.record(CostItem::S3Put, p * p);
        let total = b.total();
        assert!((total - 90.6).abs() < 1.0, "total = {total}");
    }

    #[test]
    fn snapshot_diffing() {
        let b = Billing::new(Prices::default());
        b.record(CostItem::S3Get, 10.0);
        let s1 = b.snapshot();
        b.record(CostItem::S3Get, 5.0);
        let delta = b.snapshot().since(&s1);
        assert_eq!(delta.units(CostItem::S3Get), 5.0);
    }

    #[test]
    fn display_includes_nonzero_lines_only() {
        let b = Billing::new(Prices::default());
        b.record(CostItem::SqsRequests, 3.0);
        let text = format!("{}", b.snapshot());
        assert!(text.contains("SQS requests"));
        assert!(!text.contains("S3 GET"));
    }
}
