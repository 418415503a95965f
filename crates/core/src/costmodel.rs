//! Compute-cost model: how many vCPU-seconds a unit of engine work takes.
//!
//! The simulation charges virtual CPU time for the work the engine does
//! (decompression, decoding, filtering/aggregation, partitioning). The
//! constants are calibrated so a 1792 MiB worker (exactly one vCPU)
//! processes one ~500 MB compressed file of the paper's dataset in the
//! 2–3 s band Fig 11 reports, with heavy-weight decompression dominating
//! ("scanning GZIP-compressed data is CPU-bound", §5.2).

use lambada_engine::JoinVariant;

use crate::verify::MAX_MODEL_FLEET;

/// Throughput constants per vCPU.
#[derive(Clone, Copy, Debug)]
pub struct ComputeCostModel {
    /// Heavy-codec decompression throughput (compressed bytes / vCPU-s).
    pub decompress_bytes_per_s: f64,
    /// Light decode throughput (uncompressed encoded bytes / vCPU-s).
    pub decode_bytes_per_s: f64,
    /// Pipeline processing throughput (rows / vCPU-s) for filter +
    /// projection + aggregation.
    pub process_rows_per_s: f64,
    /// In-memory hash-partitioning throughput (bytes / vCPU-s), for the
    /// exchange operator's `DramPartitioning` step (Algorithm 1).
    pub partition_bytes_per_s: f64,
    /// Metadata parse cost per file (vCPU-s).
    pub metadata_parse_s: f64,
}

impl Default for ComputeCostModel {
    fn default() -> Self {
        ComputeCostModel {
            decompress_bytes_per_s: 220e6,
            decode_bytes_per_s: 1.6e9,
            process_rows_per_s: 120e6,
            partition_bytes_per_s: 900e6,
            metadata_parse_s: 0.002,
        }
    }
}

impl ComputeCostModel {
    /// vCPU-seconds to decompress + decode one column chunk.
    pub fn chunk_decode_seconds(
        &self,
        compressed_len: u64,
        uncompressed_len: u64,
        heavy: bool,
    ) -> f64 {
        if heavy {
            compressed_len as f64 / self.decompress_bytes_per_s
                + uncompressed_len as f64 / self.decode_bytes_per_s
        } else {
            uncompressed_len as f64 / self.decode_bytes_per_s
        }
    }

    /// vCPU-seconds to run `rows` through the pipeline.
    pub fn process_seconds(&self, rows: u64) -> f64 {
        rows as f64 / self.process_rows_per_s
    }

    /// vCPU-seconds to hash-partition `bytes` of in-memory data.
    pub fn partition_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.partition_bytes_per_s
    }

    /// Worker count for a consumer fleet — a join, agg-merge or sort
    /// stage — given the bytes each worker's share is sized from and the
    /// per-worker engine memory budget.
    ///
    /// Per-stage fleet sizing follows the resource-allocation trade-off
    /// of serverless query processing (Kassing et al., CIDR 2022): more
    /// workers cut per-worker state and latency but every worker pays
    /// invocation, request, and straggler overheads, so the model picks
    /// the *smallest* fleet whose shares fit comfortably in memory. A
    /// worker holds its share next to what it builds from it — a hash
    /// table and the join output, merged agg states and decode buffers, a
    /// range and its sorted copy — so a quarter of the budget is treated
    /// as usable for raw input bytes. The fleet is clamped to
    /// `1..=`[`MAX_MODEL_FLEET`].
    pub fn consumer_workers(&self, bytes: u64, memory_budget: u64) -> usize {
        let usable = (memory_budget / 4).max(1);
        (bytes.div_ceil(usable) as usize).clamp(1, MAX_MODEL_FLEET)
    }

    /// Estimated bytes a join stage emits onto its output edge, given the
    /// estimated exchanged bytes of its inputs and the join variant — the
    /// per-variant output-cardinality model that sizes *consumer* fleets
    /// (a parent join, an agg-merge fleet, a sort fleet) sanely:
    ///
    /// * [`JoinVariant::Inner`] — the larger input: an equi-join rarely
    ///   exceeds its bigger side by much at this granularity;
    /// * [`JoinVariant::LeftOuter`] — the inner estimate plus a quarter
    ///   of the probe side: every unmatched probe row survives, widened
    ///   by sentinel-padded build columns;
    /// * [`JoinVariant::Semi`] / [`JoinVariant::Anti`] — half the probe
    ///   side: the output is a subset of the probe rows (emitted at most
    ///   once each) carrying *only* the probe columns, so downstream
    ///   fleets shrink accordingly.
    pub fn join_output_bytes(
        &self,
        variant: JoinVariant,
        probe_bytes: u64,
        build_bytes: u64,
    ) -> u64 {
        match variant {
            JoinVariant::Inner => probe_bytes.max(build_bytes),
            JoinVariant::LeftOuter => probe_bytes.max(build_bytes).saturating_add(probe_bytes / 4),
            JoinVariant::Semi | JoinVariant::Anti => (probe_bytes / 2).max(1),
        }
    }

    /// Per-query fleet cap when `active_queries` share one installation's
    /// global in-flight worker budget.
    ///
    /// The isolated-query model above picks the smallest fleet that fits
    /// the memory budget; at service scale the binding resource is the
    /// *installation's* worker budget shared across concurrent queries
    /// (Kassing et al., CIDR 2022: allocation across queries, not within
    /// one). An even split keeps every admitted query progressing — a
    /// query's fleets shrink as neighbors arrive instead of queueing
    /// behind them — at the cost of per-query latency, which is the right
    /// trade under contention because a smaller fleet still finishes
    /// (each of its workers takes more files) while a starved query does
    /// not.
    pub fn contended_fleet_cap(&self, global_worker_cap: usize, active_queries: usize) -> usize {
        (global_worker_cap / active_queries.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_paper_file_lands_in_fig11_band() {
        // One SF-1000 file: ~472 MiB compressed, ~18.75M rows; Q1 touches
        // 7 of 16 columns => ~207 MiB compressed, ~1.05 GB uncompressed.
        let m = ComputeCostModel::default();
        let compressed = 207e6 as u64;
        let uncompressed = 1050e6 as u64;
        let rows = 18_750_000;
        let secs = m.chunk_decode_seconds(compressed, uncompressed, true) + m.process_seconds(rows);
        assert!(
            (1.5..3.5).contains(&secs),
            "per-file processing {secs:.2}s outside the 2-3s band of Fig 11"
        );
    }

    #[test]
    fn light_compression_skips_decompress_cost() {
        let m = ComputeCostModel::default();
        let heavy = m.chunk_decode_seconds(1000, 8000, true);
        let light = m.chunk_decode_seconds(8000, 8000, false);
        assert!(light < heavy);
    }

    #[test]
    fn join_fleet_scales_with_data_and_memory() {
        let m = ComputeCostModel::default();
        let gib = 1u64 << 30;
        // A join fleet is sized from both inputs' bytes together.
        let join = |probe: u64, build: u64, budget| m.consumer_workers(probe + build, budget);
        // A tiny join, or an empty one, needs one worker.
        assert_eq!(join(1 << 20, 1 << 20, 2 * gib), 1);
        assert_eq!(join(0, 0, 2 * gib), 1);
        // 64 GiB across 2 GiB workers (512 MiB usable each): 128 workers.
        assert_eq!(join(48 * gib, 16 * gib, 2 * gib), 128);
        // More memory per worker shrinks the fleet.
        assert!(join(48 * gib, 16 * gib, 8 * gib) < join(48 * gib, 16 * gib, 2 * gib));
        // Clamped to the bound the verifier holds unpinned fleets to.
        assert_eq!(join(u64::MAX / 4, 0, 2 * gib), MAX_MODEL_FLEET);
    }

    #[test]
    fn sort_fleet_scales_with_data_and_memory() {
        let m = ComputeCostModel::default();
        let gib = 1u64 << 30;
        // A sort fleet is sized from its producer's edge volume.
        assert_eq!(m.consumer_workers(1 << 20, 2 * gib), 1, "tiny sorts need one worker");
        assert!(
            m.consumer_workers(64 * gib, 8 * gib) < m.consumer_workers(64 * gib, 2 * gib),
            "more memory per worker shrinks the fleet"
        );
        assert_eq!(m.consumer_workers(u64::MAX / 2, 2 * gib), MAX_MODEL_FLEET, "clamped");
    }

    #[test]
    fn join_output_estimate_orders_the_variants() {
        let m = ComputeCostModel::default();
        let (p, b) = (64u64 << 30, 16u64 << 30);
        let inner = m.join_output_bytes(JoinVariant::Inner, p, b);
        let outer = m.join_output_bytes(JoinVariant::LeftOuter, p, b);
        let semi = m.join_output_bytes(JoinVariant::Semi, p, b);
        let anti = m.join_output_bytes(JoinVariant::Anti, p, b);
        assert_eq!(inner, p, "inner ~ the larger input");
        assert!(outer > inner, "left outer adds padded unmatched probe rows");
        assert_eq!(semi, anti);
        assert!(semi < inner, "semi/anti shrink to a probe subset");
        // A consumer fleet sized from a semi-join edge undercuts one
        // sized from the equivalent inner edge.
        let gib = 1u64 << 30;
        assert!(m.consumer_workers(semi, 2 * gib) <= m.consumer_workers(inner, 2 * gib));
        assert_eq!(m.join_output_bytes(JoinVariant::Semi, 0, b), 1, "never zero");
    }

    #[test]
    fn contended_cap_splits_the_worker_budget_evenly() {
        let m = ComputeCostModel::default();
        assert_eq!(m.contended_fleet_cap(64, 1), 64, "alone, a query keeps the whole budget");
        assert_eq!(m.contended_fleet_cap(64, 4), 16, "even split across active queries");
        assert_eq!(m.contended_fleet_cap(4, 100), 1, "never starves a query to zero workers");
        assert_eq!(m.contended_fleet_cap(64, 0), 64, "zero active treated as one");
    }
}
