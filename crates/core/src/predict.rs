//! Predicted spans of the launch planner's choices, built only from the
//! service models the simulation is calibrated against: S3's first-byte
//! latency and PUT overhead, the NIC's rates at the worker's memory size,
//! its CPU share, the compute cost model's decode and process terms, and
//! SQS's message latency. Nothing here is a tuned threshold: a choice is
//! taken when its prediction is no longer than the alternative's.
//!
//! The one choice priced so far is a scan's width against its crossing
//! (`plan::launch_plan`): a multi-worker scan whose only reader runs
//! one worker either keeps its packed fleet and crosses a stage edge, or
//! runs as one worker inside its reader's invocation and hands its parts
//! over in memory.

use lambada_engine::Expr;
use lambada_sim::services::faas::cpu_share;
use lambada_sim::{BurstLinkConfig, CloudConfig};

use crate::costmodel::ComputeCostModel;
use crate::scan::may_match;
use crate::table::TableFile;

/// What a scan does per byte of its files: the share of a file's bytes
/// it decodes (the surviving columns' fraction, as the planner's byte
/// estimate scales them) and the rows a byte holds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ScanWork {
    pub scanned: f64,
    pub rows_per_byte: f64,
}

/// The bytes a scan of `files` is predicted to fetch and decode, which
/// the launch ranks its workers by ([`crate::invoke::build_tree`]): the
/// scanned `columns`' chunks of the row groups the footer's zone maps let
/// `predicate` match, where the footer rides the file
/// ([`TableFile::meta`]), else the file's size.
pub(crate) fn scan_weight(files: &[TableFile], columns: &[usize], predicate: Option<&Expr>) -> u64 {
    let weight = |file: &TableFile| match &file.meta {
        None => file.size,
        Some(meta) => {
            let kept = meta.row_groups.iter().filter(|rg| may_match(predicate, rg));
            let chunks = kept.flat_map(|rg| columns.iter().filter_map(|&c| rg.columns.get(c)));
            chunks.map(|c| c.compressed_len).sum()
        }
    };
    files.iter().map(weight).sum()
}

/// The constants one installation's predictions are built from.
#[derive(Clone, Debug)]
pub(crate) struct Rates {
    ttfb: f64,
    put_extra: f64,
    message: f64,
    link: BurstLinkConfig,
    cpu_share: f64,
    costs: ComputeCostModel,
    connections: usize,
}

impl Rates {
    pub(crate) fn new(
        cloud: &CloudConfig,
        memory_mib: u32,
        costs: ComputeCostModel,
        connections: usize,
    ) -> Rates {
        Rates {
            ttfb: cloud.s3.ttfb_median.as_secs_f64(),
            put_extra: cloud.s3.put_extra.as_secs_f64(),
            message: cloud.sqs.latency_median.as_secs_f64(),
            link: cloud.nic.link_config(memory_mib),
            cpu_share: cpu_share(memory_mib),
            costs,
            connections: connections.max(1),
        }
    }

    /// Bytes per second a worker's link moves over `n` connections at
    /// once: each connection's cap, together at most the burst rate (a
    /// query's reads are short beside the link's credit pool).
    fn link_rate(&self, n: usize) -> f64 {
        (self.link.per_conn * n.max(1) as f64).min(self.link.burst.max(self.link.sustained))
    }

    /// Seconds one worker takes to scan `files`, its reads sharing the
    /// link with `beside` bytes more: a first-byte round per `connections`
    /// stored files, the stored bytes (and `beside`) over the link at
    /// that many connections, and the CPU seconds — a footer parse per
    /// file, the decode of its scanned bytes, its rows through the
    /// pipeline — over the worker's CPU share. An inline file rides the
    /// payload: no round and no link bytes.
    pub(crate) fn scan(&self, files: &[TableFile], work: ScanWork, beside: u64) -> f64 {
        let stored: Vec<&TableFile> = files.iter().filter(|f| f.inline.is_none()).collect();
        let read: u64 = stored.iter().map(|f| f.size).sum();
        let bytes: u64 = files.iter().map(|f| f.size).sum();
        let rounds = stored.len().div_ceil(self.connections) as f64;
        let link = (read + beside) as f64 / self.link_rate(stored.len().min(self.connections));
        let scanned = (bytes as f64 * work.scanned) as u64;
        let cpu = files.len() as f64 * self.costs.metadata_parse_s
            + self.costs.chunk_decode_seconds(scanned, scanned, false)
            + self.costs.process_seconds((bytes as f64 * work.rows_per_byte) as u64);
        rounds * self.ttfb + link + cpu / self.cpu_share
    }

    /// Seconds `est` bytes from `senders` workers take to reach a reader
    /// once the senders are done: one message if each sender's share fits
    /// the edge's inline `budget`, else a PUT of the share, the message,
    /// then the reader's GETs of all of `est`.
    pub(crate) fn crossing(&self, est: u64, senders: usize, budget: u64) -> f64 {
        let share = est.div_ceil(senders.max(1) as u64);
        if share <= budget {
            return self.message;
        }
        let put = self.ttfb + self.put_extra + share as f64 / self.link_rate(1);
        let get = self.ttfb + est as f64 / self.link_rate(senders);
        put + self.message + get
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(n: usize, size: u64) -> Vec<TableFile> {
        (0..n).map(|i| TableFile::real("data", format!("f{i}"), size)).collect()
    }

    const WORK: ScanWork = ScanWork { scanned: 0.25, rows_per_byte: 0.04 };

    /// A scan takes a first-byte round per `connections` files, and what
    /// shares its link slows it; a crossing that fits the inline budget
    /// is one message, and one that does not costs a PUT and a GET more.
    #[test]
    fn scans_and_crossings_price_their_rounds_and_bytes() {
        let rates = Rates::new(&CloudConfig::default(), 2048, ComputeCostModel::default(), 4);
        let one_round = rates.scan(&files(4, 400_000), WORK, 0);
        let two_rounds = rates.scan(&files(8, 400_000), WORK, 0);
        assert!(two_rounds > one_round + rates.ttfb, "{one_round} {two_rounds}");
        assert!(rates.scan(&files(4, 400_000), WORK, 1 << 20) > one_round);
        assert_eq!(rates.crossing(100_000, 2, 60_000), rates.message);
        assert!(rates.crossing(1_000_000, 2, 60_000) > 2.0 * rates.ttfb + rates.message);
    }
}
