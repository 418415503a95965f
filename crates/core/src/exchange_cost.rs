//! Closed-form request-cost models of the exchange variants (Table 2) and
//! their dollar costs (Fig 9).

use lambada_sim::Prices;

/// Exchange algorithm family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExchangeAlgo {
    OneLevel,
    TwoLevel,
    ThreeLevel,
}

impl ExchangeAlgo {
    pub fn levels(self) -> u32 {
        match self {
            ExchangeAlgo::OneLevel => 1,
            ExchangeAlgo::TwoLevel => 2,
            ExchangeAlgo::ThreeLevel => 3,
        }
    }

    pub fn label(self, write_combining: bool) -> String {
        let base = match self {
            ExchangeAlgo::OneLevel => "1l",
            ExchangeAlgo::TwoLevel => "2l",
            ExchangeAlgo::ThreeLevel => "3l",
        };
        if write_combining {
            format!("{base}-wc")
        } else {
            base.to_string()
        }
    }
}

/// Request counts of one exchange execution (Table 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequestCounts {
    pub reads: f64,
    pub writes: f64,
    pub lists: f64,
    /// How many times the data is read *and* written (the "#scans" column:
    /// each level moves the whole input once).
    pub scans: u32,
}

/// Table 2: request complexity of each algorithm at `p` workers.
pub fn request_counts(algo: ExchangeAlgo, write_combining: bool, p: f64) -> RequestCounts {
    let k = f64::from(algo.levels());
    // Per level, every worker reads from (and without write combining,
    // writes to) its whole group of P^(1/k) members: k * P * P^(1/k).
    let reads = k * p * p.powf(1.0 / k);
    let writes = if write_combining { k * p } else { reads };
    // Receivers poll a handful of LISTs per level: O(P).
    let lists = k * p;
    RequestCounts { reads, writes, lists, scans: algo.levels() }
}

/// Request counts of one *stage edge* exchange (producer fleet →
/// consumer fleet, always write-combined): `senders` PUTs (one combined
/// file per producer) and at most one ranged GET per (sender, receiver)
/// pair holding data — empty sections are skipped, so measurements come
/// in at or under this bound. No LIST: the driver hands every receiver
/// the address of each sender's section.
pub fn stage_edge_counts(senders: f64, receivers: f64) -> RequestCounts {
    RequestCounts { reads: senders * receivers, writes: senders, lists: 0.0, scans: 1 }
}

/// Request counts of one stage edge on the *direct* transport: data
/// rides the p2p relay (free of object-store requests), so S3 is
/// touched only for the `fallback_receivers` whose endpoints were
/// unreachable — one combined fallback file per sender and one ranged
/// GET per (sender, fallback receiver) pair. With zero fallback the edge
/// costs no S3 requests at all; with every receiver on fallback it
/// degenerates to exactly [`stage_edge_counts`].
pub fn direct_edge_counts(senders: f64, fallback_receivers: f64) -> RequestCounts {
    if fallback_receivers == 0.0 {
        return RequestCounts { reads: 0.0, writes: 0.0, lists: 0.0, scans: 1 };
    }
    stage_edge_counts(senders, fallback_receivers)
}

/// Dollar cost of the S3 requests of one exchange (the bars of Fig 9).
pub fn request_dollars(counts: &RequestCounts, prices: &Prices) -> (f64, f64) {
    let read = counts.reads * prices.s3_get;
    let write = counts.writes * prices.s3_put + counts.lists * prices.s3_list;
    (read, write)
}

/// Worker-runtime cost band of Fig 9: `scans` passes over `bytes_per_worker`
/// at `bandwidth` with `gib` of memory per worker, per worker.
pub fn worker_dollars_per_worker(
    scans: u32,
    bytes_per_worker: f64,
    bandwidth: f64,
    gib: f64,
    prices: &Prices,
) -> f64 {
    // Each scan reads and writes the data once: 2 transfers per level.
    let seconds = f64::from(scans) * 2.0 * bytes_per_worker / bandwidth;
    seconds * gib * prices.lambda_gib_second
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shapes() {
        let p = 1024.0;
        let c1 = request_counts(ExchangeAlgo::OneLevel, false, p);
        assert_eq!(c1.reads, p * p);
        assert_eq!(c1.writes, p * p);
        let c1wc = request_counts(ExchangeAlgo::OneLevel, true, p);
        assert_eq!(c1wc.reads, p * p);
        assert_eq!(c1wc.writes, p);
        let c2 = request_counts(ExchangeAlgo::TwoLevel, false, p);
        assert_eq!(c2.reads, 2.0 * p * 32.0);
        let c3 = request_counts(ExchangeAlgo::ThreeLevel, true, p);
        assert!((c3.reads - 3.0 * p * p.powf(1.0 / 3.0)).abs() < 1e-6);
        assert_eq!(c3.writes, 3.0 * p);
        assert_eq!(c3.scans, 3);
    }

    #[test]
    fn direct_edge_bounds() {
        // Fully direct: the edge is free of S3 requests.
        let free = direct_edge_counts(128.0, 0.0);
        assert_eq!((free.reads, free.writes, free.lists), (0.0, 0.0, 0.0));
        assert_eq!(free.scans, 1);
        // Fully fallen back: identical to the baseline edge.
        let full = direct_edge_counts(128.0, 64.0);
        assert_eq!(full, stage_edge_counts(128.0, 64.0));
        assert_eq!((full.reads, full.writes, full.lists), (128.0 * 64.0, 128.0, 0.0));
        // Partial fallback sits strictly between; nothing ever lists.
        let part = direct_edge_counts(128.0, 8.0);
        assert!(part.reads > 0.0 && part.reads < full.reads);
        assert_eq!(part.lists, 0.0);
    }

    #[test]
    fn paper_dollar_example() {
        // §4.4.1: BasicExchange, 4k workers: "costs about $100 for the
        // requests to S3".
        let prices = Prices::default();
        let counts = request_counts(ExchangeAlgo::OneLevel, false, 4096.0);
        let (r, w) = request_dollars(&counts, &prices);
        let total = r + w;
        assert!((85.0..115.0).contains(&total), "total = {total}");
    }

    #[test]
    fn paper_worker_cost_example() {
        // §4.4.1: "and $3.3 for running the workers" (4k workers, 4 TiB,
        // i.e. 1 GiB per worker, one scan, 85 MiB/s, 2 GiB memory).
        let prices = Prices::default();
        let per_worker = worker_dollars_per_worker(
            1,
            1024.0 * 1024.0 * 1024.0,
            85.0 * 1024.0 * 1024.0,
            2.0,
            &prices,
        );
        let total = per_worker * 4096.0;
        assert!((2.0..5.0).contains(&total), "total = {total}");
    }

    #[test]
    fn fig9_orderings() {
        let prices = Prices::default();
        for &p in &[64.0, 256.0, 1024.0, 4096.0, 16384.0] {
            let (r1, w1) =
                request_dollars(&request_counts(ExchangeAlgo::OneLevel, false, p), &prices);
            let (r2, w2) =
                request_dollars(&request_counts(ExchangeAlgo::TwoLevel, true, p), &prices);
            let (r3, w3) =
                request_dollars(&request_counts(ExchangeAlgo::ThreeLevel, true, p), &prices);
            assert!(r2 + w2 < r1 + w1, "2l-wc cheaper than 1l at P={p}");
            // 3l-wc pays more writes/lists; its read savings only win out
            // at scale (in Fig 9 both are negligible at small P).
            if p >= 4096.0 {
                assert!(r3 + w3 < r2 + w2, "3l-wc cheaper than 2l-wc at P={p}");
            }
        }
        // "Using two levels has always lower request costs than using
        // just one" (§4.4.4).
        for &p in &[64.0, 1024.0, 16384.0] {
            for wc in [false, true] {
                let (r1, w1) =
                    request_dollars(&request_counts(ExchangeAlgo::OneLevel, wc, p), &prices);
                let (r2, w2) =
                    request_dollars(&request_counts(ExchangeAlgo::TwoLevel, wc, p), &prices);
                assert!(r2 + w2 < r1 + w1, "2l cheaper than 1l at P={p} wc={wc}");
            }
        }
    }
}
